"""Okapi BM25 over an in-memory inverted index.

Tokenization is lowercase plus splitting on non-alphanumeric runs. IDF uses
the non-negative form ln(1 + (N - df + 0.5) / (df + 0.5)). Defaults k1=1.2,
b=0.75. Indexes are immutable once built; queries may run concurrently.
"""

import json
import math
import re
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Small list for the optional stopword switch; off by default.
DEFAULT_STOPWORDS = frozenset(
    "a an and are as at be but by for from has have in is it its of on or that the this to was were will with".split()
)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def s_stem(token: str) -> str:
    """Light plural stemmer: ies->y, drop trailing es/s with the usual guards."""
    if len(token) > 4 and token.endswith("ies") and token[-4] not in "ae":
        return token[:-3] + "y"
    if len(token) > 3 and token.endswith("es") and token[-3] not in "aeo":
        return token[:-1]
    if len(token) > 3 and token.endswith("s") and token[-2] not in "su":
        return token[:-1]
    return token


class TextIndex:
    """Inverted index with per-term postings and BM25 statistics."""

    def __init__(
        self,
        docs: Sequence[tuple[str, str]],
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
        stopwords: Iterable[str] | bool | None = None,
        stem: bool = False,
    ):
        if k1 <= 0:
            raise ValueError(f"k1 must be > 0, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self.k1 = k1
        self.b = b
        self.stem = stem
        if stopwords is True:
            self.stopwords: frozenset[str] | None = DEFAULT_STOPWORDS
        elif stopwords:
            self.stopwords = frozenset(stopwords)
        else:
            self.stopwords = None

        doc_ids: list[str] = []
        positions: dict[str, int] = {}
        lengths: list[int] = []
        raw_postings: dict[str, dict[int, int]] = {}
        for doc_id, text in docs:
            if doc_id in positions:
                raise DataError(f"duplicate doc id {doc_id!r}")
            idx = len(doc_ids)
            positions[doc_id] = idx
            doc_ids.append(doc_id)
            tokens = self._analyze(text)
            lengths.append(len(tokens))
            for tok in tokens:
                bucket = raw_postings.setdefault(tok, {})
                bucket[idx] = bucket.get(idx, 0) + 1

        # Docs are numbered in input order, so each bucket's keys ascend.
        postings = {
            term: (np.fromiter(bucket, dtype=np.int64, count=len(bucket)),
                   np.fromiter(bucket.values(), dtype=np.float64, count=len(bucket)))
            for term, bucket in raw_postings.items()
        }
        self._finalise(doc_ids, positions, lengths, postings)

    def _finalise(
        self,
        doc_ids: list[str],
        positions: dict[str, int],
        lengths: Sequence[int],
        postings: dict[str, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Set the document table and the statistics BM25 derives from it.

        `positions` maps each doc id to its index in `doc_ids`; each posting
        is (doc indexes ascending, term frequencies).
        """
        self.doc_ids = doc_ids
        self.positions = positions
        self.doc_lens = np.array(lengths, dtype=np.float64)
        self.n_docs = len(doc_ids)
        self.avgdl = float(self.doc_lens.mean()) if self.n_docs else 0.0
        self._avgdl_safe = self.avgdl if self.avgdl > 0.0 else 1.0
        # Ranks of doc ids in ascending order, for deterministic tie-breaks.
        self.id_rank = np.empty(self.n_docs, dtype=np.int64)
        self.id_rank[sorted(range(self.n_docs), key=doc_ids.__getitem__)] = np.arange(self.n_docs)
        self._postings = postings

    def _analyze(self, text: str) -> list[str]:
        tokens = tokenize(text)
        if self.stem:
            tokens = [s_stem(t) for t in tokens]
        if self.stopwords is not None:
            tokens = [t for t in tokens if t not in self.stopwords]
        return tokens

    def idf(self, term: str) -> float:
        posting = self._postings.get(term)
        if posting is None:
            return 0.0
        df = len(posting[0])
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def postings_for(self, term: str) -> list[tuple[str, int]]:
        posting = self._postings.get(term)
        if posting is None:
            return []
        pairs = [(self.doc_ids[i], int(tf)) for i, tf in zip(posting[0], posting[1])]
        return sorted(pairs)

    def doc_length(self, doc_id: str) -> int:
        return int(self.doc_lens[self.doc_idx(doc_id)])

    def doc_idx(self, doc_id: str) -> int:
        try:
            return self.positions[doc_id]
        except KeyError:
            raise KeyError(f"unknown doc id {doc_id!r}") from None

    def score(self, query: str, doc_id: str) -> float:
        """Okapi BM25 of one document against a query; additive over terms."""
        idx = self.doc_idx(doc_id)
        dl = float(self.doc_lens[idx])
        denom_norm = self.k1 * (1.0 - self.b + self.b * dl / self._avgdl_safe)
        total = 0.0
        for term in self._analyze(query):
            posting = self._postings.get(term)
            if posting is None:
                continue
            pos = int(np.searchsorted(posting[0], idx))
            if pos >= len(posting[0]) or posting[0][pos] != idx:
                continue
            tf = float(posting[1][pos])
            total += self.idf(term) * tf * (self.k1 + 1.0) / (tf + denom_norm)
        return total

    def score_all(self, query: str) -> np.ndarray:
        """BM25 of every indexed document against a query."""
        scores = np.zeros(self.n_docs, dtype=np.float64)
        for term in self._analyze(query):
            posting = self._postings.get(term)
            if posting is None:
                continue
            idxs, tfs = posting
            dl = self.doc_lens[idxs]
            denom = tfs + self.k1 * (1.0 - self.b + self.b * dl / self._avgdl_safe)
            scores[idxs] += self.idf(term) * tfs * (self.k1 + 1.0) / denom
        return scores

    def ranked(self, query: str, n: int) -> list[tuple[str, float]]:
        """Top-n documents by score, ties by ascending doc id."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        scores = self.score_all(query)
        order = np.lexsort((self.id_rank, -scores))
        return [(self.doc_ids[i], float(scores[i])) for i in order[: min(n, self.n_docs)]]

    def to_json(self) -> str:
        payload = {
            "k1": self.k1,
            "b": self.b,
            "stem": self.stem,
            "stopwords": sorted(self.stopwords) if self.stopwords is not None else None,
            "docs": [[doc_id, int(self.doc_lens[i])] for i, doc_id in enumerate(self.doc_ids)],
            "postings": {
                term: [[self.doc_ids[i], int(tf)] for i, tf in zip(idxs, tfs)]
                for term, (idxs, tfs) in sorted(self._postings.items())
            },
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, blob: str, source: str = "index") -> "TextIndex":
        """Load an index written by `to_json`; `source` names it in errors.

        Raises DataError for malformed JSON, a missing or mistyped field, a
        duplicate doc id, a negative doc length, a posting of an unknown doc,
        a duplicate doc within one term's postings, a tf that is not a
        positive integer, or doc lengths that differ from the postings' tf
        sums. Postings are re-sorted only for terms not in ascending doc
        order (`to_json` writes them ascending).
        """

        def fail(message: str) -> DataError:
            return DataError(f"{source}: {message}")

        try:
            payload = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise fail(f"malformed JSON: {exc.msg}") from None
        if not isinstance(payload, dict):
            raise fail("index must be a JSON object")
        missing = [key for key in ("k1", "b", "stem", "stopwords", "docs", "postings")
                   if key not in payload]
        if missing:
            raise fail(f"missing field {missing[0]!r}")
        k1, b, stem, stopwords = payload["k1"], payload["b"], payload["stem"], payload["stopwords"]
        if not all(type(x) in (int, float) and math.isfinite(x) for x in (k1, b)):
            raise fail("k1 and b must be finite numbers")
        if not isinstance(stem, bool):
            raise fail("stem must be true or false")
        if stopwords is not None and not (
            isinstance(stopwords, list) and all(isinstance(w, str) for w in stopwords)
        ):
            raise fail("stopwords must be null or a list of strings")
        try:
            index = cls([], k1=k1, b=b, stopwords=stopwords, stem=stem)
        except ValueError as exc:
            raise fail(str(exc)) from None

        docs = payload["docs"]
        if not isinstance(docs, list) or not all(
            isinstance(d, list) and len(d) == 2 and isinstance(d[0], str)
            and type(d[1]) is int and d[1] >= 0
            for d in docs
        ):
            raise fail("docs must be a list of [doc_id, non-negative integer length] pairs")
        doc_ids = [doc_id for doc_id, _ in docs]
        positions = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        if len(positions) != len(doc_ids):
            dup = next(d for i, d in enumerate(doc_ids) if positions[d] != i)
            raise fail(f"duplicate doc id {dup!r}")
        lengths = [length for _, length in docs]

        postings = payload["postings"]
        if not isinstance(postings, dict) or not all(
            isinstance(pairs, list) and pairs for pairs in postings.values()
        ):
            raise fail("postings must map each term to a non-empty list of [doc_id, tf] pairs")
        terms = list(postings)
        flat = [pair for pairs in postings.values() for pair in pairs]
        try:
            idxs = np.array([positions[doc_id] for doc_id, _ in flat], dtype=np.int64)
        except KeyError as exc:
            raise fail(f"posting of unknown doc {exc.args[0]!r}") from None
        except (TypeError, ValueError):
            raise fail("postings must be [doc_id, tf] pairs") from None
        tf_list = [tf for _, tf in flat]
        if tf_list and (set(map(type, tf_list)) != {int} or min(tf_list) < 1):
            raise fail("tf must be a positive integer")
        tfs = np.array(tf_list, dtype=np.float64)
        ends = np.cumsum([len(postings[term]) for term in terms], dtype=np.int64)
        starts = np.concatenate(([0], ends[:-1]))
        # Positions where a doc index does not rise, other than a term's first.
        unsorted = np.flatnonzero(np.diff(idxs) <= 0) + 1
        unsorted = unsorted[~np.isin(unsorted, starts)]
        for t in np.unique(np.searchsorted(ends, unsorted, side="right")):
            seg = slice(starts[t], ends[t])
            order = np.argsort(idxs[seg], kind="stable")
            idxs[seg], tfs[seg] = idxs[seg][order], tfs[seg][order]
            repeated = np.flatnonzero(np.diff(idxs[seg]) == 0)
            if len(repeated):
                doc_id = doc_ids[idxs[seg][repeated[0]]]
                raise fail(f"term {terms[t]!r} lists doc {doc_id!r} twice")
        sums = np.bincount(idxs, weights=tfs, minlength=len(doc_ids))
        wrong = np.flatnonzero(sums != np.array(lengths, dtype=np.float64))
        if len(wrong):
            i = int(wrong[0])
            raise fail(f"doc {doc_ids[i]!r} has length {lengths[i]} but its tfs sum to {int(sums[i])}")
        index._finalise(doc_ids, positions, lengths, {
            term: (idxs[s:e], tfs[s:e]) for term, s, e in zip(terms, starts, ends)
        })
        return index


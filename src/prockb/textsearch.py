"""Okapi BM25 over an in-memory inverted index.

Tokenization is lowercase plus splitting on non-alphanumeric runs. IDF uses
the non-negative form ln(1 + (N - df + 0.5) / (df + 0.5)). Defaults k1=1.2,
b=0.75. Indexes are immutable once built.
"""

import json
import math
import re
from collections.abc import Callable, Sequence
from itertools import accumulate, chain
from operator import itemgetter

import numpy as np

from .errors import DataError

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The fields of an index file, as `to_json` writes them.
INDEX_FIELDS = ("k1", "b", "docs", "postings")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def idf(n_docs: int, df: int) -> float:
    """The BM25 IDF of a term in `df` of `n_docs` documents, with `math.log`
    (`np.log` may differ in the last bit)."""
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


class TextIndex:
    """Inverted index with per-term postings and BM25 statistics."""

    def __init__(self, docs: Sequence[tuple[str, str]], k1: float = DEFAULT_K1, b: float = DEFAULT_B):
        if not (math.isfinite(k1) and k1 > 0):
            raise ValueError(f"k1 must be a finite number > 0, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self.k1 = k1
        self.b = b

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
            tokens = tokenize(text)
            lengths.append(len(tokens))
            for tok in tokens:
                bucket = raw_postings.setdefault(tok, {})
                bucket[idx] = bucket.get(idx, 0) + 1

        # Docs are numbered in input order, so each bucket's keys ascend.
        buckets = raw_postings.values()
        dfs = list(map(len, buckets))
        n_postings = sum(dfs)
        self._finalise(
            doc_ids, positions, lengths, list(raw_postings), dfs,
            np.fromiter(chain.from_iterable(buckets), dtype=np.int64, count=n_postings),
            np.fromiter(chain.from_iterable(map(dict.values, buckets)), dtype=np.float64,
                        count=n_postings),
        )

    def _finalise(
        self,
        doc_ids: list[str],
        positions: dict[str, int],
        lengths: Sequence[int],
        terms: list[str],
        dfs: list[int],
        idxs: np.ndarray,
        tfs: np.ndarray,
    ) -> None:
        """Set the document table, the postings and the statistics BM25
        derives from them.

        `positions` maps each doc id to its index in `doc_ids`. The postings
        are flat: `terms[t]` owns the next `dfs[t]` entries of `idxs` (doc
        indexes, ascending) and `tfs` (term frequencies). Each posting's BM25
        weight, idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)),
        is computed here, once, in one pass over the flat arrays.
        """
        self.doc_ids = doc_ids
        self.positions = positions
        self.doc_lens = np.array(lengths, dtype=np.float64)
        self.n_docs = len(doc_ids)
        self.avgdl = float(self.doc_lens.mean()) if self.n_docs else 0.0
        # Ranks of doc ids in ascending order, for deterministic tie-breaks.
        self.id_rank = np.empty(self.n_docs, dtype=np.int64)
        self.id_rank[sorted(range(self.n_docs), key=doc_ids.__getitem__)] = np.arange(self.n_docs)

        idfs = np.array([idf(self.n_docs, df) for df in dfs], dtype=np.float64)
        avgdl = self.avgdl if self.avgdl > 0.0 else 1.0
        dl = self.doc_lens[idxs]
        denom = tfs + self.k1 * (1.0 - self.b + self.b * dl / avgdl)
        self._idxs = idxs
        self._tfs = tfs
        self._weights = np.repeat(idfs, dfs) * tfs * (self.k1 + 1.0) / denom
        ends = list(accumulate(dfs))
        self._spans = {term: slice(end - df, end) for term, df, end in zip(terms, dfs, ends)}

    def doc_idx(self, doc_id: str) -> int:
        try:
            return self.positions[doc_id]
        except KeyError:
            raise KeyError(f"unknown doc id {doc_id!r}") from None

    def score_all(self, query: str) -> np.ndarray:
        """BM25 of every indexed document against a query: one scatter-add
        of precomputed weights per query term, in query order."""
        scores = np.zeros(self.n_docs, dtype=np.float64)
        for term in tokenize(query):
            span = self._spans.get(term)
            if span is not None:
                scores[self._idxs[span]] += self._weights[span]
        return scores

    def ranked(self, query: str, n: int) -> list[tuple[str, float]]:
        """Top-n documents by score, ties by ascending doc id."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        scores = self.score_all(query)
        order = np.lexsort((self.id_rank, -scores))
        return [(self.doc_ids[i], float(scores[i])) for i in order[: min(n, self.n_docs)]]

    def to_json(self) -> str:
        pairs = list(map(list, zip(map(self.doc_ids.__getitem__, self._idxs.tolist()),
                                   self._tfs.astype(np.int64).tolist())))
        payload = {
            "k1": self.k1,
            "b": self.b,
            "docs": list(map(list, zip(self.doc_ids, self.doc_lens.astype(np.int64).tolist()))),
            "postings": {term: pairs[span] for term, span in self._spans.items()},
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, blob: str, source: str = "index") -> "TextIndex":
        """Load an index written by `to_json`; `source` names it in errors.

        Raises DataError for malformed JSON, a missing, unknown or mistyped
        field, a duplicate doc id, a negative doc length, a posting of an unknown doc,
        a term whose postings repeat a doc or are not in ascending doc order
        (`to_json` writes them ascending), a tf that is not a positive
        integer, or doc lengths that differ from the postings' tf sums.
        """

        def fail(message: str) -> DataError:
            return DataError(f"{source}: {message}")

        try:
            payload = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise fail(f"malformed JSON: {exc.msg}") from None
        del blob  # the text is not needed once parsed
        if not isinstance(payload, dict):
            raise fail("index must be a JSON object")
        missing = [key for key in INDEX_FIELDS if key not in payload]
        if missing:
            raise fail(f"missing field {missing[0]!r}")
        unknown = [key for key in payload if key not in INDEX_FIELDS]
        if unknown:
            raise fail(f"unknown field {unknown[0]!r}")
        k1, b = payload["k1"], payload["b"]
        if not all(type(x) in (int, float) and math.isfinite(x) for x in (k1, b)):
            raise fail("k1 and b must be finite numbers")
        try:
            index = cls([], k1=k1, b=b)
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
        del docs
        # The parsed postings are freed when `_read_postings` returns.
        terms, dfs, idxs, tfs = _read_postings(payload.pop("postings"), positions, fail)
        del payload
        ends = np.cumsum(dfs, dtype=np.int64)
        starts = ends - dfs
        # The first position where a doc index does not rise, other than a term's first.
        unsorted = np.flatnonzero(np.diff(idxs) <= 0) + 1
        unsorted = unsorted[~np.isin(unsorted, starts)]
        if len(unsorted):
            i = int(unsorted[0])
            t = int(np.searchsorted(ends, i, side="right"))
            doc = idxs[i]
            order = "twice" if doc in idxs[starts[t] : i] else "out of doc order"
            raise fail(f"term {terms[t]!r} lists doc {doc_ids[doc]!r} {order}")
        sums = np.bincount(idxs, weights=tfs, minlength=len(doc_ids))
        wrong = np.flatnonzero(sums != np.array(lengths, dtype=np.float64))
        if len(wrong):
            i = int(wrong[0])
            raise fail(f"doc {doc_ids[i]!r} has length {lengths[i]} but its tfs sum to {int(sums[i])}")
        index._finalise(doc_ids, positions, lengths, terms, dfs, idxs, tfs)
        return index


def _read_postings(
    postings, positions: dict[str, int], fail: Callable[[str], DataError]
) -> tuple[list[str], list[int], np.ndarray, np.ndarray]:
    """The terms, document frequencies, doc indexes and tfs of the parsed
    `postings` of an index file, in file order. Each check is one streaming
    pass over the pairs, so no per-posting list is built. The checks run in
    the order pair shape, unknown doc, tf."""
    if not isinstance(postings, dict) or not all(
        isinstance(pairs, list) and pairs for pairs in postings.values()
    ):
        raise fail("postings must map each term to a non-empty list of [doc_id, tf] pairs")
    dfs = list(map(len, postings.values()))
    n_postings = sum(dfs)

    def pairs():
        return chain.from_iterable(postings.values())

    try:
        if not set(map(len, pairs())) <= {2}:
            raise TypeError  # a pair of another length
        idxs = np.fromiter(map(positions.__getitem__, map(itemgetter(0), pairs())),
                           dtype=np.int64, count=n_postings)
    except KeyError as exc:
        raise fail(f"posting of unknown doc {exc.args[0]!r}") from None
    except TypeError:
        raise fail("postings must be [doc_id, tf] pairs") from None
    if not set(map(type, map(itemgetter(1), pairs()))) <= {int}:
        raise fail("tf must be a positive integer")
    tfs = np.fromiter(map(itemgetter(1), pairs()), dtype=np.float64, count=n_postings)
    if (tfs < 1).any():
        raise fail("tf must be a positive integer")
    return list(postings), dfs, idxs, tfs

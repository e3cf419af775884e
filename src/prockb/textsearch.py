"""Okapi BM25 over an in-memory inverted index.

Tokenization is lowercase plus splitting on non-alphanumeric runs. IDF uses
the non-negative form ln(1 + (N - df + 0.5) / (df + 0.5)). Defaults k1=1.2,
b=0.75. Indexes are immutable once built.
"""

import io
import json
import math
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, chain
from json.decoder import WHITESPACE, scanstring
from json.encoder import encode_basestring
from operator import itemgetter
from typing import TextIO

import numpy as np

from .artifacts import BLOCK
from .errors import DataError

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The fields of an index file, as `to_json` writes them.
INDEX_FIELDS = ("k1", "b", "docs", "postings")
# Postings per piece of an index file written, and per block read and checked.
POSTINGS_BLOCK = 4096
_POSTINGS_SHAPE = "postings must map each term to a non-empty list of [doc_id, tf] pairs"
_DECODER = json.JSONDecoder()
_SPACE = WHITESPACE.match
_PAIR = "[{}, {}]".format


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def idf(n_docs: int, df: int) -> float:
    """The BM25 IDF of a term in `df` of `n_docs` documents, with `math.log`
    (`np.log` may differ in the last bit)."""
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


class TextIndex:
    """Inverted index with per-term postings and BM25 statistics."""

    def __init__(self, docs: Iterable[tuple[str, str]], k1: float = DEFAULT_K1, b: float = DEFAULT_B):
        _check_bm25(k1, b)
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

    def to_json(self, handle: TextIO | None = None) -> str | None:
        """The index file's text, that of `json.dumps` (sorted keys, non-ASCII
        kept) of {"k1", "b", "docs": [[doc_id, length], ...], "postings":
        {term: [[doc_id, tf], ...], ...}}. It is written to the text file
        `handle` a piece at a time, each piece at most BLOCK docs or whole
        terms (in sorted order) and about POSTINGS_BLOCK postings, so no list
        of pairs and no whole-file string is built; without `handle` it is
        returned."""
        if handle is None:
            handle = io.StringIO()
            self.to_json(handle)
            return handle.getvalue()

        def write_joined(items: Iterable[tuple[str, int]]) -> None:
            """Write the texts of `items` joined by ", ", a piece at a time:
            BLOCK items, or fewer that hold POSTINGS_BLOCK postings (each
            item's count)."""
            sep, piece, size = "", [], 0
            for text, n in items:
                piece.append(text)
                size += n
                if size >= POSTINGS_BLOCK or len(piece) == BLOCK:
                    handle.write(sep + ", ".join(piece))
                    sep, piece, size = ", ", [], 0
            handle.write((sep if piece else "") + ", ".join(piece))

        handle.write(f'{{"b": {json.dumps(self.b)}, "docs": [')
        write_joined((_PAIR(encode_basestring(doc), n), 1)
                     for doc, n in zip(self.doc_ids, self.doc_lens.astype(np.int64).tolist()))
        handle.write(f'], "k1": {json.dumps(self.k1)}, "postings": {{')
        write_joined(self._term_texts())
        handle.write("}}")
        return None

    def _term_texts(self) -> Iterator[tuple[str, int]]:
        """Each term's `"term": [[doc_id, tf], ...]` text, in sorted term
        order, and its number of postings."""
        for term in sorted(self._spans):
            span = self._spans[term]
            docs = map(encode_basestring, map(self.doc_ids.__getitem__, self._idxs[span].tolist()))
            pairs = map(_PAIR, docs, self._tfs[span].astype(np.int64).tolist())
            yield f"{encode_basestring(term)}: [{', '.join(pairs)}]", span.stop - span.start

    @classmethod
    def from_json(cls, blob: str, source: str = "index") -> "TextIndex":
        """Load an index written by `to_json`; `source` names it in errors.

        The top-level object and `postings` are walked by hand; each value
        in them, a term's list of pairs included, is decoded by `json`. A
        term's pairs wait until about POSTINGS_BLOCK pairs have been read
        after `docs`, and are then checked and packed into flat arrays, so
        no parse of the whole postings is ever held. Faults are reported in
        file order, a block at a time, and within a block in the order of
        `_read_postings`; the doc lengths are checked last.

        Raises DataError for malformed JSON, a missing, unknown, repeated or
        mistyped field, a repeated term, a duplicate doc id, a negative doc
        length, a posting of an unknown doc, a term whose postings repeat a
        doc or are not in ascending doc order (`to_json` writes them
        ascending), a tf that is not a positive integer, or doc lengths that
        differ from the postings' tf sums.
        """

        def fail(message: str) -> DataError:
            return DataError(f"{source}: {message}")

        fields: dict[str, object] = {}  # each field read so far; docs as (ids, positions, lengths)
        terms: dict[str, None] = {}  # in file order
        dfs: list[int] = []
        packed: list[tuple[np.ndarray, np.ndarray]] = []  # doc indexes and tfs, a block each
        pending: list[tuple[str, list]] = []  # terms and pairs not yet packed
        n_pending = 0

        def pack() -> None:
            nonlocal n_pending
            packed.append(_read_postings(pending, *fields["docs"][:2], fail))
            pending.clear()
            n_pending = 0

        def term(key: str, i: int) -> int:
            nonlocal n_pending
            if key in terms:
                raise fail(f"term {key!r} appears twice")
            pairs, end = _DECODER.raw_decode(blob, i)
            if not (isinstance(pairs, list) and pairs):
                raise fail(_POSTINGS_SHAPE)
            terms[key] = None
            dfs.append(len(pairs))
            pending.append((key, pairs))
            n_pending += len(pairs)
            if n_pending >= POSTINGS_BLOCK and "docs" in fields:
                pack()
            return end

        def field(key: str, i: int) -> int:
            if key in fields:
                raise fail(f"field {key!r} appears twice")
            if key not in INDEX_FIELDS:
                raise fail(f"unknown field {key!r}")
            if key == "postings":
                fields[key] = None
                if blob.startswith("{", i):
                    return _walk_object(blob, i, term)
                _DECODER.raw_decode(blob, i)  # malformed, or a value that is not an object
                raise fail(_POSTINGS_SHAPE)
            value, end = _DECODER.raw_decode(blob, i)
            if key == "docs":
                fields[key] = _read_docs(value, fail)
                return end
            if not (type(value) in (int, float) and math.isfinite(value)):
                raise fail("k1 and b must be finite numbers")
            try:
                _check_bm25(**{key: value})
            except ValueError as exc:
                raise fail(str(exc)) from None
            fields[key] = value
            return end

        try:
            start = _skip(blob, 0)
            if not blob.startswith("{", start):
                json.loads(blob)  # malformed, or a value that is not an object
                raise fail("index must be a JSON object")
            end = _skip(blob, _walk_object(blob, start, field))
            if end < len(blob):
                raise json.JSONDecodeError("Extra data", blob, end)
        except json.JSONDecodeError as exc:
            raise fail(f"malformed JSON: {exc.msg}") from None
        missing = [key for key in INDEX_FIELDS if key not in fields]
        if missing:
            raise fail(f"missing field {missing[0]!r}")
        if pending:
            pack()
        doc_ids, positions, lengths = fields["docs"]
        idxs = np.concatenate([np.empty(0, dtype=np.int64), *(block[0] for block in packed)])
        tfs = np.concatenate([np.empty(0, dtype=np.float64), *(block[1] for block in packed)])
        packed.clear()
        sums = np.bincount(idxs, weights=tfs, minlength=len(doc_ids))
        wrong = np.flatnonzero(sums != np.array(lengths, dtype=np.float64))
        if len(wrong):
            i = int(wrong[0])
            raise fail(f"doc {doc_ids[i]!r} has length {lengths[i]} but its tfs sum to {int(sums[i])}")
        index = cls([], k1=fields["k1"], b=fields["b"])
        index._finalise(doc_ids, positions, lengths, list(terms), dfs, idxs, tfs)
        return index


def _check_bm25(k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> None:
    """Raise ValueError unless k1 and b are BM25 parameters."""
    if not (math.isfinite(k1) and k1 > 0):
        raise ValueError(f"k1 must be a finite number > 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must be in [0, 1], got {b}")


def _skip(text: str, i: int) -> int:
    """Where the JSON whitespace at text[i] ends."""
    return _SPACE(text, i).end()


def _walk_object(text: str, i: int, member: Callable[[str, int], int]) -> int:
    """Walk the JSON object at text[i] ("{") as `json` parses one, with the
    same errors, but hand each member to `member(key, start)`, which reads
    the value at text[start] and returns where it ends. Returns where the
    object ends."""
    i = _skip(text, i + 1)
    if text.startswith("}", i):
        return i + 1
    while True:
        if not text.startswith('"', i):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, i)
        key, i = scanstring(text, i + 1)
        i = _skip(text, i)
        if not text.startswith(":", i):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, i)
        i = _skip(text, member(key, _skip(text, i + 1)))
        if text.startswith("}", i):
            return i + 1
        if not text.startswith(",", i):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
        i = _skip(text, i + 1)


def _read_docs(docs, fail: Callable[[str], DataError]) -> tuple[list[str], dict[str, int], list[int]]:
    """The doc ids, their positions and the doc lengths of the parsed `docs`
    of an index file."""
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
    return doc_ids, positions, [length for _, length in docs]


def _read_postings(
    block: Sequence[tuple[str, list]], doc_ids: list[str], positions: dict[str, int],
    fail: Callable[[str], DataError],
) -> tuple[np.ndarray, np.ndarray]:
    """The doc indexes and tfs of a block of an index file's postings, each
    term with its parsed non-empty list of pairs, in file order. Each check
    is one streaming pass over the pairs, so no per-posting list is built.
    The checks run in the order pair shape, unknown doc, tf, doc order."""
    dfs = [len(pairs) for _, pairs in block]
    n_postings = sum(dfs)

    def pairs():
        return chain.from_iterable(map(itemgetter(1), block))

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
        raise fail(f"term {block[t][0]!r} lists doc {doc_ids[doc]!r} {order}")
    return idxs, tfs

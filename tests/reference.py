"""Reference implementations that the column-wise code in `src` must match.

They are the row-at-a-time versions that `src` used before it worked a block
of rows at a time: the ranked-list TSV reader parses and checks one line
after another, the ranked-list and link dump writers format one row after
another, and the lexical
feature source analyses each text into its own `_Text` and gathers a block's
pairs text by text, taking each step's context from its article rather than
from `corpus.context_of`. Tests compare files byte for byte, columns and feature
rows bit for bit, and DataError messages character for character.

One change from the old reader: a line with more than 5 columns is an error
here too ("expected 4 or 5 columns, got N"); it used to be read, and the
fields past sim2 dropped.

The ``dim=<d>`` vector reader is here as it was before vectors became rows
of one matrix: one line at a time, each row parsed into its own array.

Gold recall is here as the per-step loop it was before one comparison over
the goal column found every list's gold position (`Ranked.gold_slots`).

The two similarities are here too, one pair at a time: the cosine of two
vectors, and BM25 computed from raw (doc_id, text) pairs, one posting at a
time with Python floats, which the index's `score_all` must equal bit for
bit.
"""

import math
from array import array
from collections import Counter
from functools import reduce
from itertools import pairwise
from math import isfinite, nan
from operator import add
from sys import intern
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from prockb.artifacts import _reading, fail
from prockb.corpus import Corpus
from prockb.rerank import idf_table
from prockb.retrieval import Ranked
from prockb.textsearch import tokenize


# ---------------------------------------------------------------------------
# Similarities

def cosine(u, v) -> float:
    """Cosine similarity; 0 if either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return max(-1.0, min(1.0, float(u @ v) / (nu * nv)))


def bm25(docs, query: str, k1: float = 1.2, b: float = 0.75) -> dict[str, float]:
    """Okapi BM25 of each of `docs`, (doc_id, text) pairs, against `query`,
    from each text's token counts, in `docs` order. Each posting's weight is
    idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)), with
    idf = ln(1 + (N - df + 0.5) / (df + 0.5)), evaluated left to right in
    Python floats; a document's score adds the weights of the query's tokens
    in query order, repeats included."""
    counts = [Counter(tokenize(text)) for _, text in docs]
    lengths = [sum(count.values()) for count in counts]
    avgdl = (sum(lengths) / len(docs) if docs else 0.0) or 1.0
    scores = dict.fromkeys((doc_id for doc_id, _ in docs), 0.0)
    for term in tokenize(query):
        df = sum(term in count for count in counts)
        idf = math.log(1.0 + (len(docs) - df + 0.5) / (df + 0.5))
        for (doc_id, _), count, dl in zip(docs, counts, lengths):
            if term in count:
                tf = count[term]
                scores[doc_id] += (idf * float(tf) * (k1 + 1.0)
                                   / (tf + k1 * (1.0 - b + b * dl / avgdl)))
    return scores


# ---------------------------------------------------------------------------
# Ranked-list TSV

def lines(path):
    """The non-blank lines of a text file, without newline, with 1-based
    numbers, read one at a time."""
    with _reading(path), open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if line.strip():
                yield lineno, line.rstrip("\n")


def write_candidates(path, ranked: Ranked) -> None:
    """Row by row: step_id, rank, goal_id, sim1 and, once reranked, sim2,
    each field as `str` gives it."""
    scores = [sims for sims in (ranked.sim1, ranked.sim2) if sims is not None]
    with open(path, "w", encoding="utf-8") as handle:
        for step_id, (a, b) in zip(ranked.step_ids, pairwise(ranked.offsets.tolist())):
            rows = zip(ranked.goal_ids[a:b], *(sims[a:b].tolist() for sims in scores))
            for rank, row in enumerate(rows, 1):
                handle.write("\t".join(map(str, (step_id, rank, *row))) + "\n")


def write_links(path, ranked: Ranked) -> None:
    """Row by row: step_id, then the goal_id, sim1 and sim2 of the first
    entry of its list, each field as `str` gives it."""
    sim1, sim2 = ranked.sim1.tolist(), ranked.sim2.tolist()
    with open(path, "w", encoding="utf-8") as handle:
        for step_id, first in zip(ranked.step_ids, ranked.offsets.tolist()):
            fields = step_id, ranked.goal_ids[first], sim1[first], sim2[first]
            handle.write("\t".join(map(str, fields)) + "\n")


def read_candidates(path, corpus=None) -> Ranked:
    """Line by line: each line's columns counted, its rank, width, scores
    and, given `corpus`, its step and goal checked, in that order, before
    the next line is read; repeated ranks are found once the whole file is
    read."""
    steps: dict[str, int] = {}
    lists, ranks, linenos = array("q"), array("q"), array("q")
    goal_ids: list[str] = []
    sims = (array("d"), array("d"))
    width = 0
    for lineno, line in lines(path):
        fields = line.split("\t")
        if len(fields) < 4:
            raise fail(path, lineno, f"expected 4 columns or more, got {len(fields)}")
        if len(fields) > 5:
            raise fail(path, lineno, f"expected 4 or 5 columns, got {len(fields)}")
        try:
            ranks.append(int(fields[1]))
        except ValueError:
            raise fail(path, lineno, f"rank {fields[1]!r} is not an integer") from None
        except OverflowError:
            raise fail(path, lineno, f"rank {fields[1]!r} is out of range") from None
        scores = fields[3:5]
        if len(scores) != (width := width or len(scores)):
            raise fail(path, lineno, "sim2 column in some lines only")
        for name, text, column in zip(("sim1", "sim2"), scores, sims):
            try:
                value = float(text)
            except ValueError:
                value = nan
            if not isfinite(value):
                raise fail(path, lineno, f"{name} {text!r} is not a finite number")
            column.append(value)
        if corpus is not None:
            if fields[0] not in {step.step_id for step in corpus.steps()}:
                raise fail(path, lineno, f"unknown step_id {fields[0]!r} in {corpus.source}")
            if fields[2] not in corpus.goal_ids():
                raise fail(path, lineno, f"unknown goal_id {fields[2]!r} in {corpus.source}")
        lists.append(steps.setdefault(fields[0], len(steps)))
        linenos.append(lineno)
        goal_ids.append(intern(fields[2]))
    order = np.lexsort((ranks, lists))
    in_order = np.asarray(lists)[order], np.asarray(ranks)[order]
    repeated = order[1:][(np.diff(in_order[0]) == 0) & (np.diff(in_order[1]) == 0)]
    if len(repeated):
        row = int(repeated.min())
        step_id = list(steps)[lists[row]]
        raise fail(path, linenos[row], f"duplicate rank {ranks[row]} for step {step_id!r}")
    offsets = np.searchsorted(in_order[0], np.arange(len(steps) + 1))
    return Ranked(tuple(steps), offsets, tuple(np.array(goal_ids, dtype=object)[order]),
                  np.asarray(sims[0])[order], np.asarray(sims[1])[order] if sims[1] else None)


# ---------------------------------------------------------------------------
# Gold positions

def recall_at(rankings: Ranked, gold, n: int) -> float:
    """Step by step: the fraction of gold steps whose goal is among the
    first n goals of its ranking. Placeholder (UNLINKABLE) entries occupy
    rank positions and never match, as no gold goal is UNLINKABLE."""
    position = {step_id: i for i, step_id in enumerate(rankings.step_ids)}
    hits = 0
    for step_id, goal_id in gold.items():
        rows = rankings.rows(position[step_id])
        if goal_id in rankings.goal_ids[rows.start : min(rows.stop, rows.start + n)]:
            hits += 1
    return hits / len(gold)


# ---------------------------------------------------------------------------
# Vector files

def read_vectors(path) -> tuple[int, dict]:
    """Line by line: a ``dim=<d>`` header, then rows of an id and d finite
    numbers, each row checked for its width, a non-numeric value, a
    non-finite value and a repeated id, in that order, before the next line
    is read. Returns d and {id: vector}."""
    rows = lines(path)
    lineno, header = next(rows, (1, ""))
    header = header.strip()
    dim = int(header[4:]) if header.startswith("dim=") and header[4:].isdecimal() else 0
    if dim < 1:
        raise fail(path, lineno, f"expected header 'dim=<d>' with d >= 1, got {header!r}")
    table: dict = {}
    for lineno, line in rows:
        fields = line.split()
        row_id = fields[0]
        row = f"row {row_id!r}"
        if len(fields) - 1 != dim:
            raise fail(path, lineno, f"{row} has {len(fields) - 1} values, expected {dim}")
        try:
            vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
        except ValueError:
            raise fail(path, lineno, f"{row} has a non-numeric value") from None
        if not np.all(np.isfinite(vec)):
            raise fail(path, lineno, f"{row} has a non-finite value")
        if row_id in table:
            raise fail(path, lineno, f"duplicate {row}")
        table[row_id] = vec
    return dim, table


# ---------------------------------------------------------------------------
# Lexical pair features

class _Text(NamedTuple):
    """One step text or goal title, analysed once for pair features."""

    tokens: np.ndarray  # distinct token ids, in ascending token-string order
    token_idf: np.ndarray  # IDF of each token, same order
    idf_sum: float  # sum of token_idf, added left to right
    grams: np.ndarray  # ids of the distinct char 3-grams of the lowercased text, by ascending code
    gram_counts: np.ndarray  # occurrences of each 3-gram
    gram_norm: float  # Euclidean norm of gram_counts
    folded: str  # casefolded text, for the exact-match flag


def _char_trigrams(text: str) -> tuple[np.ndarray, np.ndarray]:
    codes = np.fromiter(map(ord, text), dtype=np.int64, count=len(text))
    grams = (codes[:-2] << 42) | (codes[1:-1] << 21) | codes[2:]
    return np.unique(grams, return_counts=True)


def _end_to_end(parts: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
    return np.repeat(np.arange(len(parts)), lengths), np.concatenate(parts)


def _step_lookup(step_ids, step_values, width, lists, ids):
    rows, flat = _end_to_end(step_ids)
    present, column = np.unique(flat, return_inverse=True)
    columns = np.zeros(width, dtype=np.int64)
    columns[present] = np.arange(1, len(present) + 1)
    table = np.zeros((len(step_ids), len(present) + 1), dtype=np.int64)
    table[rows, column + 1] = 1 if step_values is None else np.concatenate(step_values)
    return table[lists, columns[ids]]


class LexicalFeatureSource:
    """The lexical features one `_Text` per step text and per goal title,
    `block` candidate lists per array pass."""

    name = "lexical"
    dim = 7
    block = 16

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.idf = idf_table(a.title for a in corpus.articles)
        self._vocab: dict[str, int] = {}
        self._gram_ids: dict[int, int] = {}
        self._goals: dict[str, _Text] = {}

    def _token_ids(self, tokens: Iterable[str]) -> np.ndarray:
        vocab = self._vocab
        return np.array([vocab.setdefault(t, len(vocab)) for t in tokens], dtype=np.int64)

    def _analyse(self, text: str) -> _Text:
        tokens = sorted(set(tokenize(text)))
        token_idf = [self.idf.get(t, 1.0) for t in tokens]
        grams, counts = _char_trigrams(text.lower())
        gram_ids = self._gram_ids
        return _Text(
            tokens=self._token_ids(tokens),
            token_idf=np.array(token_idf, dtype=np.float64),
            idf_sum=reduce(add, token_idf, 0.0),
            grams=np.array(
                [gram_ids.setdefault(g, len(gram_ids)) for g in grams.tolist()], dtype=np.int64
            ),
            gram_counts=counts,
            gram_norm=math.sqrt(int((counts * counts).sum())),
            folded=text.casefold(),
        )

    def _goal(self, goal_id: str) -> _Text:
        text = self._goals.get(goal_id)
        if text is None:
            text = self._goals[goal_id] = self._analyse(self.corpus.article(goal_id).title)
        return text

    def _step(self, step_id: str) -> tuple[_Text, np.ndarray]:
        step = self.corpus.step(step_id)
        text = self._analyse(step.text)
        # The context: the article's title and the steps next to this one.
        article = self.corpus.article(step.parent_goal_id)
        pieces = [article.title] + [s.text for s in article.steps
                                    if abs(s.position - step.position) == 1]
        context = self._token_ids(sorted({t for piece in pieces for t in tokenize(piece)}))
        return text, context

    def features(self, step_ids, goal_ids) -> np.ndarray:
        sizes = [len(goals) for goals in goal_ids]
        out = np.zeros((sum(sizes), self.dim), dtype=np.float64)
        row = 0
        for start in range(0, len(step_ids), self.block):
            stop = start + self.block
            rows = sum(sizes[start:stop])
            self._block(step_ids[start:stop], goal_ids[start:stop], out[row : row + rows])
            row += rows
        return out

    def _block(self, step_ids, goal_ids, out: np.ndarray) -> None:
        if not len(out):
            return
        steps, contexts = zip(*map(self._step, step_ids))
        goals = [self._goal(g) for goals in goal_ids for g in goals]
        tokens, token_idf, idf_sums, grams, gram_counts, gram_norms, folded = zip(*goals)
        lists = np.repeat(np.arange(len(step_ids)), [len(goals) for goals in goal_ids])
        n_tokens, n = len(self._vocab), len(goals)

        seg, tokens = _end_to_end(tokens)
        token_lists = lists[seg]
        step_tokens = [step.tokens for step in steps]
        shared = _step_lookup(step_tokens, None, n_tokens, token_lists, tokens) > 0
        n_shared = np.bincount(seg[shared], minlength=n)
        idf_shared = np.bincount(seg[shared], np.concatenate(token_idf)[shared], minlength=n)
        in_context = _step_lookup(contexts, None, n_tokens, token_lists, tokens) > 0
        n_ctx_shared = np.bincount(seg[in_context], minlength=n)

        gram_seg, grams = _end_to_end(grams)
        step_counts = _step_lookup([step.grams for step in steps],
                                   [step.gram_counts for step in steps],
                                   len(self._gram_ids), lists[gram_seg], grams)
        dot = np.bincount(gram_seg, np.concatenate(gram_counts) * step_counts, minlength=n)

        n_step = np.array([len(step.tokens) for step in steps], dtype=np.int64)[lists]
        n_goal = np.fromiter(map(len, token_idf), dtype=np.int64, count=n)
        n_context = np.array([len(context) for context in contexts], dtype=np.int64)[lists]
        step_gram_norm = np.array([step.gram_norm for step in steps], dtype=np.float64)[lists]
        step_idf_sum = np.array([step.idf_sum for step in steps], dtype=np.float64)[lists]
        num = np.array(
            [n_shared, dot, idf_shared, np.minimum(n_step, n_goal), n_ctx_shared], dtype=np.float64
        )
        den = np.array(
            [
                n_step + n_goal - n_shared,
                step_gram_norm * np.array(gram_norms),
                step_idf_sum + np.array(idf_sums) - idf_shared,
                np.maximum(n_step, n_goal),
                n_context + n_goal - n_ctx_shared,
            ],
            dtype=np.float64,
        )
        out[:, 0] = 1.0
        out[:, [1, 2, 3, 4, 6]] = np.divide(num, den, out=np.zeros_like(num), where=den > 0).T
        out[:, 5] = [text == steps[i].folded for text, i in zip(folded, lists.tolist())]

"""Stage 2: joint scoring and reranking of (step, candidate goal) pairs.

Each pair gets a combined score sim2 = W . features + lambda * sim1, where
sim1 is the stage-1 cosine. W, lambda, and the feature row of the synthetic
"unlinkable" candidate are trained with listwise softmax cross-entropy over
the retrieved candidate lists (hard negatives) using plain mini-batch SGD,
which keeps training bitwise-deterministic under a fixed seed.

The unlinkable candidate is a placeholder goal appended to every candidate
list when enabled, an ordinary row with its own learned feature row U and
the minimum sim1 of the real candidates. A step whose gold goal is missing
from its candidate list trains toward the placeholder. Scores, losses and
gradients are numpy sums over the rows of whole batches, in a fixed order
that does not go through BLAS.

Pair features come either from a built-in lexical extractor or from a text
file of precomputed vectors, so an external neural pair encoder can be
plugged in without any ML runtime here.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain, pairwise, repeat
from operator import add
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Protocol, Sequence

import numpy as np

from .artifacts import fail, lines, read_vectors
from .corpus import UNLINKABLE, Corpus, context_of
from .embedding import EmbeddingStore
from .errors import DataError
from .retrieval import DEFAULT_K, Ranked, take
from .textsearch import idf, tokenize

SCORE_ROWS = 1024  # feature rows per block when scoring


# ---------------------------------------------------------------------------
# Feature sources

class FeatureSource(Protocol):
    """Pair features for stage 2: `features` takes the columns of a `Ranked`,
    where step i's candidate goals are goal_ids[offsets[i]:offsets[i+1]], and
    gives one row per (step, goal) pair in that order, shape (len(goal_ids),
    dim)."""

    dim: int

    def features(self, step_ids: tuple[str, ...], goal_ids: tuple[str, ...],
                 offsets: np.ndarray) -> np.ndarray: ...


def idf_table(texts: Iterable[str]) -> dict[str, float]:
    """Per-token IDF over a document collection: `textsearch.idf`, the BM25 IDF."""
    sets = [set(tokenize(text)) for text in texts]
    return {t: idf(len(sets), d) for t, d in Counter(chain.from_iterable(sets)).items()}


class _Texts(NamedTuple):
    """Texts analysed for pair features, column by column. Text i's distinct
    tokens are entries token_offsets[i]:token_offsets[i+1] of `tokens` and
    `token_idf`, in ascending token-string order; its distinct char 3-grams
    are entries gram_offsets[i]:gram_offsets[i+1] of `grams` and
    `gram_counts`, by ascending code."""

    token_offsets: np.ndarray  # int64, one more than there are texts
    tokens: np.ndarray  # vocabulary id of each token, -1 for one outside the vocabulary
    token_idf: np.ndarray  # IDF of each token
    idf_sum: np.ndarray  # of each text: its token IDFs added left to right
    gram_offsets: np.ndarray
    grams: np.ndarray  # each 3-gram's three code points (21 bits each) packed into one int64
    gram_counts: np.ndarray  # occurrences of each 3-gram
    gram_norm: np.ndarray  # of each text: the Euclidean norm of its gram counts
    folded: list[str]  # each text casefolded, for the exact-match flag


def _analyse(texts: Sequence[str], vocab: Mapping[str, int], idfs: Mapping[str, float]) -> _Texts:
    """Tokens and char 3-grams of all `texts` at once. Tokens come from
    `tokenize`, with ids from `vocab` and IDFs from `idfs` (1.0 for a token it
    lacks); 3-grams are those of each lowercased text, none of them across
    two texts."""
    token_lists = [sorted(set(tokenize(text))) for text in texts]
    token_offsets = np.cumsum([0, *map(len, token_lists)], dtype=np.int64)
    flat = list(chain.from_iterable(token_lists))
    token_idf = list(map(idfs.get, flat, repeat(1.0)))
    idf_sum = [reduce(add, token_idf[a:b], 0.0) for a, b in pairwise(token_offsets.tolist())]

    lowered = [text.lower() for text in texts]
    owner = np.repeat(np.arange(len(texts)), list(map(len, lowered)))
    codes = np.frombuffer("".join(lowered).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    codes = codes.astype(np.int64)
    whole = owner[:-2] == owner[2:]  # the 3-gram at each position lies within one text
    grams = ((codes[:-2] << 42) | (codes[1:-1] << 21) | codes[2:])[whole]
    owners = owner[:-2][whole]
    order = np.lexsort((grams, owners))
    grams, owners = grams[order], owners[order]
    first = np.flatnonzero((np.diff(grams, prepend=-1) != 0) | (np.diff(owners, prepend=-1) != 0))
    gram_counts = np.diff(first, append=len(grams))
    gram_sq = np.bincount(owners[first], gram_counts * gram_counts, minlength=len(texts))
    return _Texts(
        token_offsets=token_offsets,
        tokens=np.fromiter(map(vocab.get, flat, repeat(-1)), np.int64, len(flat)),
        token_idf=np.array(token_idf, dtype=np.float64),
        idf_sum=np.array(idf_sum, dtype=np.float64),
        gram_offsets=np.searchsorted(owners[first], np.arange(len(texts) + 1)),
        grams=grams[first],
        gram_counts=gram_counts,
        gram_norm=np.sqrt(gram_sq),  # of an exact integer sum
        folded=[text.casefold() for text in texts],
    )


def _step_table(offsets: np.ndarray, ids: np.ndarray, values: np.ndarray | None,
                width: int) -> tuple[np.ndarray, np.ndarray]:
    """A lookup table of the ids of a block's steps: step i's ids, each below
    `width` (an id < 0 is no id), are entries offsets[i]:offsets[i+1] of
    `ids`. Returns `columns`, the table column of each id (0 for an id no
    step has), and `table`, where table[i, columns[id]] is step i's entry in
    `values` for the id (1 when None), or 0 when the step lacks it."""
    owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    known = ids >= 0
    present, column = np.unique(ids[known], return_inverse=True)
    columns = np.zeros(width, dtype=np.int64)
    columns[present] = np.arange(1, len(present) + 1)
    table = np.zeros((len(offsets) - 1, len(present) + 1), dtype=np.int64)
    table[owner[known], column + 1] = 1 if values is None else values[known]
    return columns, table


class LexicalFeatureSource:
    """Deterministic surface-overlap features for a (step, goal) pair.

    Layout, `dim` = 7 columns: [bias, token Jaccard, char-3gram cosine,
    IDF-weighted overlap, token length ratio, exact-match flag, context-goal
    Jaccard], the context being the step's `corpus.context_of`. The IDF table
    is built over the corpus goal titles.

    The IDF overlap is I / (S_step + S_goal - I), where S is the sum of a
    text's token IDFs and I that of the shared tokens, each summed in
    ascending token-string order, so the value depends on the two texts only.

    Every goal title is analysed once, when the source is made, into flat
    columns (`_Texts`) that a block of pairs gathers by goal row. `features`
    takes `block` candidate lists at a time, analyses their step texts
    together, and computes all their pairs with array operations: each
    pair's goal tokens and 3-grams are gathered, pair after pair, and looked
    up in tables of the block's step tokens, context tokens and step 3-gram
    counts. Token ids rank the goal titles' tokens, 3-gram ids their
    3-grams; a step token or 3-gram that no title has is shared with no
    goal. Each pair's sums run over the goal's own tokens and 3-grams in
    their fixed order, so a row's bytes do not depend on the batch it comes
    in.
    """

    dim = 7
    block = 16  # candidate lists per array pass

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.idf = idf_table(a.title for a in corpus.articles)
        self._vocab = {token: i for i, token in enumerate(sorted(self.idf))}
        self._goal_row = {a.goal_id: row for row, a in enumerate(corpus.articles)}
        self._goals = goals = _analyse([a.title for a in corpus.articles], self._vocab, self.idf)
        # Every 3-gram of a title once, ascending: the 3-gram ids. A stable sort,
        # since numpy's default sort of a large array pages in about 1 MiB more code.
        grams = np.sort(goals.grams, kind="stable")
        self._grams = grams[np.diff(grams, prepend=-1) != 0]
        self._goal_grams = np.searchsorted(self._grams, goals.grams)
        self._folded = {text: i for i, text in enumerate(dict.fromkeys(goals.folded))}
        self._goal_folded = np.array([self._folded[text] for text in goals.folded], dtype=np.int64)

    def _goal_rows(self, goal_ids: Sequence[str]) -> np.ndarray:
        return np.fromiter(map(self._goal_row.__getitem__, goal_ids), np.int64, len(goal_ids))

    def _context(self, step_id: str) -> list[str]:
        return sorted({t for piece in context_of(self.corpus, step_id) for t in tokenize(piece)})

    def features(self, step_ids: tuple[str, ...], goal_ids: tuple[str, ...],
                 offsets: np.ndarray) -> np.ndarray:
        """Feature rows of each step against each of its goals (`FeatureSource`),
        shape (len(goal_ids), dim)."""
        out = np.zeros((len(goal_ids), self.dim), dtype=np.float64)
        for start in range(0, len(step_ids), self.block):
            bounds = offsets[start : start + self.block + 1]
            rows = slice(int(bounds[0]), int(bounds[-1]))
            self._block(step_ids[start : start + self.block], goal_ids[rows], bounds - bounds[0],
                        out[rows])
        return out

    def _block(self, step_ids: tuple[str, ...], goal_ids: tuple[str, ...], bounds: np.ndarray,
               out: np.ndarray) -> None:
        """Fill `out` with the rows of one block of candidate lists, list i
        being goal_ids[bounds[i]:bounds[i+1]]."""
        n = len(out)
        if not n:
            return
        vocab, goals = self._vocab, self._goals
        steps = _analyse([self.corpus.step(s).text for s in step_ids], vocab, self.idf)
        contexts = [self._context(step_id) for step_id in step_ids]
        context_offsets = np.cumsum([0, *map(len, contexts)], dtype=np.int64)
        context_ids = np.fromiter(map(vocab.get, chain.from_iterable(contexts), repeat(-1)),
                                  np.int64, context_offsets[-1])
        lists = np.repeat(np.arange(len(step_ids)), np.diff(bounds))
        rows = self._goal_rows(goal_ids)

        # Each pair's goal tokens end to end; seg holds the pair of each.
        taken, offsets = take(goals.token_offsets, rows)
        seg = np.repeat(np.arange(n), np.diff(offsets))
        token_lists, tokens = lists[seg], goals.tokens[taken]
        columns, table = _step_table(steps.token_offsets, steps.tokens, None, len(vocab))
        shared = table[token_lists, columns[tokens]] > 0
        n_shared = np.bincount(seg[shared], minlength=n)
        # bincount adds in array order: each goal's shared IDFs in token-string order.
        idf_shared = np.bincount(seg[shared], goals.token_idf[taken][shared], minlength=n)
        columns, table = _step_table(context_offsets, context_ids, None, len(vocab))
        n_ctx_shared = np.bincount(seg[table[token_lists, columns[tokens]] > 0], minlength=n)

        # Each pair's goal 3-gram counts times the step's counts of the same
        # 3-grams (0 for one the step lacks); their sums are exact integers.
        ids = np.searchsorted(self._grams, steps.grams)
        ids[np.append(self._grams, -1)[ids] != steps.grams] = -1  # a 3-gram no title has
        columns, table = _step_table(steps.gram_offsets, ids, steps.gram_counts, len(self._grams))
        taken, offsets = take(goals.gram_offsets, rows)
        gram_seg = np.repeat(np.arange(n), np.diff(offsets))
        step_counts = table[lists[gram_seg], columns[self._goal_grams[taken]]]
        dot = np.bincount(gram_seg, goals.gram_counts[taken] * step_counts, minlength=n)

        n_step = np.diff(steps.token_offsets)[lists]
        n_goal = np.diff(goals.token_offsets)[rows]
        n_context = np.diff(context_offsets)[lists]
        num = np.array(
            [n_shared, dot, idf_shared, np.minimum(n_step, n_goal), n_ctx_shared], dtype=np.float64
        )
        den = np.array(
            [
                n_step + n_goal - n_shared,
                steps.gram_norm[lists] * goals.gram_norm[rows],
                steps.idf_sum[lists] + goals.idf_sum[rows] - idf_shared,
                np.maximum(n_step, n_goal),
                n_context + n_goal - n_ctx_shared,
            ],
            dtype=np.float64,
        )
        out[:, 0] = 1.0
        out[:, [1, 2, 3, 4, 6]] = np.divide(num, den, out=np.zeros_like(num), where=den > 0).T
        step_folded = np.array([self._folded.get(text, -1) for text in steps.folded])
        out[:, 5] = self._goal_folded[rows] == step_folded[lists]


class TableFeatureSource:
    """Feature rows from a table keyed by (step_id, goal_id), typically
    loaded from disk. A missing row is a DataError that names `path`, the file."""

    def __init__(self, table: EmbeddingStore, path: str | Path | None = None):
        self.table = table
        self.dim = table.dim
        self.path = path

    def features(self, step_ids: tuple[str, ...], goal_ids: tuple[str, ...],
                 offsets: np.ndarray) -> np.ndarray:
        steps = np.repeat(np.array(step_ids, dtype=object), np.diff(offsets))
        pairs = list(zip(steps.tolist(), goal_ids))
        rows = list(map(self.table.row.get, pairs))
        if None in rows:
            step_id, goal_id = pairs[rows.index(None)]
            where = f"{self.path}: " if self.path is not None else ""
            raise DataError(f"{where}no feature row for step {step_id!r}, goal {goal_id!r}")
        return self.table.matrix[rows]


def load_feature_file(path: str | Path) -> TableFeatureSource:
    """Read ``dim=<d>`` header then rows ``step_id goal_id v1 ... vd``."""
    return TableFeatureSource(EmbeddingStore(*read_vectors(path, 2)), path)


# ---------------------------------------------------------------------------
# Model

@dataclass
class RerankModel:
    w: np.ndarray
    lam: float
    unlinkable_feat: np.ndarray | None = None  # the placeholder's row U, if the model has one
    k: int = DEFAULT_K  # stage-1 list length of the candidates it was trained on
    features: str | None = None  # sha256 of the pair-feature file it was trained on, if any

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def unlinkable_enabled(self) -> bool:
        return self.unlinkable_feat is not None


def new_model(dim: int, lam: float = 1.0, unlinkable: bool = False) -> RerankModel:
    """Zero-initialized model; with W=0 and lam=1 it reproduces stage-1 order."""
    return RerankModel(w=np.zeros(dim, dtype=np.float64), lam=lam,
                       unlinkable_feat=np.zeros(dim, dtype=np.float64) if unlinkable else None)


def model_text(model: RerankModel) -> str:
    """The checkpoint of `model`, the one description of it: `save_model`
    writes it and the link config hash is taken over it. The ``features``
    line and the U row are written only for a model that has them."""
    keys = [("lambda", repr(model.lam)), ("k", model.k), ("features", model.features)]
    rows = [("W", model.w), ("U", model.unlinkable_feat)]
    return "".join([*(f"{key}={value}\n" for key, value in keys if value is not None),
                    *(f"{name} {' '.join(repr(float(x)) for x in row)}\n"
                      for name, row in rows if row is not None)])


def save_model(model: RerankModel, path: str | Path) -> None:
    Path(path).write_text(model_text(model), encoding="utf-8")


def load_model(path: str | Path) -> RerankModel:
    """Read a checkpoint written by `save_model`: the keys ``lambda``, ``k``
    and ``features``, each as a ``key=value`` line, and the W row and, for an
    unlinkable model only, the U row. Any other key, or one given twice, is
    an error at its line. ``k``, the stage-1 k that `link` and `expand`
    retrieve with, is an integer >= 1; ``features``, if there, is the sha256
    of the pair-feature file the model was trained on, 64 lowercase hex
    digits. The model's width is W's, which U must share."""
    fields: dict[str, str] = {}
    for lineno, line in lines(path):
        line = line.strip()
        row = line.startswith(("W ", "U "))
        key, sep, value = line.partition(" " if row else "=")
        if not sep:
            raise fail(path, lineno, "expected 'key=value' or a W or U row")
        if not row and key not in ("lambda", "k", "features"):
            raise fail(path, lineno, f"unknown key {key!r}")
        if key in fields:
            raise fail(path, lineno, f"duplicate key {key!r}")
        fields[key] = value
    if "W" not in fields:
        raise DataError(f"{path}: malformed model checkpoint (no W line)")
    try:
        vectors = {n: np.array([float(x) for x in fields[n].split()]) for n in "WU" if n in fields}
        model = RerankModel(
            w=vectors["W"],
            lam=float(fields["lambda"]),
            unlinkable_feat=vectors.get("U"),
            k=int(fields["k"]),
            features=fields.get("features"),
        )
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: malformed model checkpoint ({exc})") from None
    u = model.unlinkable_feat
    if u is not None and len(u) != model.dim:
        raise DataError(f"{path}: U has {len(u)} values, W has {model.dim}")
    if not all(np.all(np.isfinite(v)) for v in (model.lam, *vectors.values())):
        raise DataError(f"{path}: non-finite value in model checkpoint")
    if model.k < 1:
        raise DataError(f"{path}: k must be >= 1, got {model.k}")
    if model.features is not None and not re.fullmatch("[0-9a-f]{64}", model.features):
        raise DataError(f"{path}: features must be a sha256 of 64 lowercase hex digits, "
                        f"got {model.features!r}")
    return model


# ---------------------------------------------------------------------------
# Scoring

def _scores(model: RerankModel, feats: np.ndarray, sim1: np.ndarray) -> np.ndarray:
    """sim2 = W . f + lambda * sim1 of each feature row f, the dot being
    `(feats * W).sum(axis=1)`: a numpy sum in a fixed order, whose bytes
    depend neither on the BLAS library nor on numpy's SIMD dispatch. The
    rows are taken SCORE_ROWS at a time, so the product never copies the
    whole feature matrix; each row's sum is the same in any block."""
    if feats.shape != (len(sim1), model.dim):
        raise ValueError(f"feature matrix {feats.shape} does not match {len(sim1)} candidates "
                         f"at model dim {model.dim}")
    dots = np.empty(len(sim1))
    for start in range(0, len(sim1), SCORE_ROWS):
        rows = slice(start, start + SCORE_ROWS)
        dots[rows] = (feats[rows] * model.w).sum(axis=1)
    return dots + model.lam * sim1


def _slots(model: RerankModel, offsets: np.ndarray, feats: np.ndarray, sim1: np.ndarray):
    """The slots of the lists of `offsets`, whose candidates are rows
    offsets[i]:offsets[i+1] of `feats` and `sim1`: the candidates, then, for
    an unlinkable model, the placeholder, an ordinary row with the features U
    at the list's minimum sim1. Returns the placeholders' `np.insert` indices
    and feature rows, and the slots' offsets, sim1 and sim2."""
    if model.unlinkable_feat is None:
        at, u_rows, u_sim1 = offsets[:0], np.zeros((0, model.dim)), sim1[:0]
    else:
        at = offsets[1:]
        u_rows = np.broadcast_to(model.unlinkable_feat, (len(at), model.dim))
        u_sim1 = np.minimum.reduceat(sim1, offsets[:-1])
    sim2 = np.insert(_scores(model, feats, sim1), at, _scores(model, u_rows, u_sim1))
    return (at, u_rows, offsets + np.arange(len(offsets)) * model.unlinkable_enabled,
            np.insert(sim1, at, u_sim1), sim2)


def score_candidates(model: RerankModel, ranked: Ranked, feats: np.ndarray) -> Ranked:
    """Rerank every list of `ranked`, whose feature rows are `feats`: score
    its slots (`_slots`; the placeholder is the goal UNLINKABLE), then sort
    each list by descending sim2, ties by goal_id, in one lexsort over all
    the lists."""
    sizes = np.diff(ranked.offsets)
    if not sizes.all():
        step_id = ranked.step_ids[int(np.argmin(sizes))]
        raise ValueError(f"step {step_id!r} has an empty candidate list")
    at, _, offsets, sim1, sim2 = _slots(model, ranked.offsets, feats, ranked.sim1)
    goal_ids = np.insert(np.array(ranked.goal_ids, dtype=object), at, UNLINKABLE)
    rank = {goal_id: i for i, goal_id in enumerate(sorted(set(goal_ids)))}
    goal_ranks = np.fromiter(map(rank.get, goal_ids), dtype=np.int64, count=len(goal_ids))
    order = np.lexsort((goal_ranks, -sim2, np.repeat(np.arange(len(sizes)), np.diff(offsets))))
    return Ranked(ranked.step_ids, offsets, tuple(goal_ids[order]), sim1[order], sim2[order])


# ---------------------------------------------------------------------------
# Training

def make_training_examples(
    ranked: Ranked, gold: Mapping[str, str], unlinkable: bool = False
) -> tuple[Ranked, list[int]]:
    """The lists of `ranked` whose step has a gold link, and the slot of the
    gold goal in each, its first position (`Ranked.gold_slots`).

    When the gold goal is missing from a list, its slot is the placeholder's,
    the list's length, in unlinkable mode; the list is dropped otherwise.
    """
    slots = ranked.gold_slots(gold)
    if unlinkable:
        has_gold = np.array([step_id in gold for step_id in ranked.step_ids], dtype=bool)
        slots = np.where((slots < 0) & has_gold, np.diff(ranked.offsets), slots)
    picks = np.flatnonzero(slots >= 0)
    rows, offsets = take(ranked.offsets, picks)
    examples = Ranked(tuple(map(ranked.step_ids.__getitem__, picks.tolist())), offsets,
                      tuple(map(ranked.goal_ids.__getitem__, rows.tolist())), ranked.sim1[rows])
    return examples, slots[picks].tolist()


def nll_loss(model: RerankModel, feats: np.ndarray, sim1: np.ndarray, offsets: np.ndarray,
             slots: Sequence[int]) -> tuple[np.ndarray, RerankModel]:
    """The listwise NLL of each list of a batch, -log softmax(sim2)[gold] over
    its `_slots`, and the gradient of their sum as a model whose W, lambda and
    U are its derivatives. List i is rows offsets[i]:offsets[i+1] of `feats`
    and `sim1`; its gold is slot slots[i], where the slot after its candidates
    is an unlinkable model's placeholder.

    Each sum has one fixed order: a list's max and sum of exps by `reduceat`,
    the gradients slot after slot by `sum(axis=0)`, with exp and log from
    `math`, so no number depends on BLAS or on numpy's SIMD dispatch.
    """
    sizes = np.diff(offsets)
    if not sizes.all():
        raise ValueError("empty candidate set")
    slots = np.asarray(slots, dtype=np.int64)
    bad = np.flatnonzero((slots < 0) | (slots >= sizes + model.unlinkable_enabled))
    if len(bad):
        placeholder = " and the placeholder" if model.unlinkable_enabled else ""
        raise ValueError(f"gold slot {slots[bad[0]]} is not one of {sizes[bad[0]]} "
                         f"candidates{placeholder}")
    at, u_rows, offsets, sim1, z = _slots(model, offsets, feats, sim1)
    feats = np.insert(feats, at, u_rows, axis=0)
    starts, lists = offsets[:-1], np.repeat(np.arange(len(sizes)), np.diff(offsets))
    shift = z - np.maximum.reduceat(z, starts)[lists]
    exps = np.fromiter(map(math.exp, shift.tolist()), dtype=np.float64, count=len(shift))
    totals = np.add.reduceat(exps, starts)
    gold = starts + slots
    losses = np.fromiter(map(math.log, totals.tolist()), dtype=np.float64, count=len(totals))
    g = exps / totals[lists]  # d loss / d sim2 of each slot
    g[gold] -= 1.0
    grad_u = g[at + np.arange(len(at))].sum() * model.w if model.unlinkable_enabled else None
    return losses - shift[gold], replace(model, w=(feats * g[:, None]).sum(axis=0),
                                         lam=float((g * sim1).sum()), unlinkable_feat=grad_u)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_loss: float | None


@dataclass
class TrainResult:
    model: RerankModel
    curve: list[EpochStats]


def train(
    model: RerankModel,
    examples: tuple[Ranked, Sequence[int]],
    source: FeatureSource,
    lr: float,
    epochs: int,
    batch_size: int = 32,
    seed: int = 0,
    dev_examples: tuple[Ranked, Sequence[int]] | None = None,
) -> TrainResult:
    """Mini-batch SGD on the mean listwise NLL over `examples`, the lists
    and gold slots that `make_training_examples` gives, with one `nll_loss`
    call per mini-batch.

    Deterministic under a fixed seed (single-threaded, fixed accumulation
    order). Returns the checkpoint with the best dev loss when a non-empty
    dev set is given, the final model otherwise.
    """
    lists, slots = examples
    if not len(slots):
        raise ValueError("empty training set")
    rng = np.random.default_rng(seed)
    feats = source.features(lists.step_ids, lists.goal_ids, lists.offsets)
    slots = np.asarray(slots, dtype=np.int64)
    dev = None
    if dev_examples and len(dev_examples[1]):
        dev_lists, dev_slots = dev_examples
        dev = (source.features(dev_lists.step_ids, dev_lists.goal_ids, dev_lists.offsets),
               dev_lists.sim1, dev_lists.offsets, dev_slots)

    def mean(losses: list[float]) -> float:  # left to right: `sum` compensates from Python 3.12
        return reduce(add, losses, 0.0) / len(losses)

    curve: list[EpochStats] = []
    best: tuple[float, RerankModel] | None = None
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(slots))
        epoch_losses: list[float] = []
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            rows, offsets = take(lists.offsets, batch)
            losses, grad = nll_loss(model, feats[rows], lists.sim1[rows], offsets, slots[batch])
            if not np.isfinite(losses).all():
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch} (learning rate too high?)"
                )
            epoch_losses += losses.tolist()
            step = lr / len(batch)  # a new model each step, so a kept one never changes
            model = replace(model, w=model.w - step * grad.w,
                            lam=model.lam - step * grad.lam,
                            unlinkable_feat=None if grad.unlinkable_feat is None
                            else model.unlinkable_feat - step * grad.unlinkable_feat)

        train_loss = mean(epoch_losses)
        dev_loss = None if dev is None else mean(nll_loss(model, *dev)[0].tolist())
        curve.append(EpochStats(epoch=epoch, train_loss=train_loss, dev_loss=dev_loss))
        if dev_loss is not None and (best is None or dev_loss < best[0]):
            best = (dev_loss, model)

    return TrainResult(model=model if best is None else best[1], curve=curve)

"""Stage 2: joint scoring and reranking of (step, candidate goal) pairs.

Each pair gets a combined score sim2 = W . features + lambda * sim1, where
sim1 is the stage-1 cosine. W, lambda, and the feature row of the synthetic
"unlinkable" candidate are trained with listwise softmax cross-entropy over
the retrieved candidate lists (hard negatives) using plain mini-batch SGD,
which keeps training bitwise-deterministic under a fixed seed.

The unlinkable candidate is a placeholder goal appended to every candidate
list when enabled. Its sim1 is the minimum sim1 of the real candidates and
its feature row is a free learned vector. A step whose gold goal is missing
from its candidate list trains toward the placeholder.

Pair features come either from a built-in lexical extractor or from a text
file of precomputed vectors, so an external neural pair encoder can be
plugged in without any ML runtime here. The input string contract for such
encoders is produced by render_pair_input.
"""

import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Protocol, Sequence

import numpy as np

from .artifacts import fail, lines, read_vectors, write_vectors
from .corpus import CONTEXT_MODES, Corpus, StepContext, context_of
from .errors import DataError
from .retrieval import Candidate, CandidateList
from .textsearch import tokenize

UNLINKABLE = "UNLINKABLE"
CTX_DELIMITER = "[CTX]"


def render_pair_input(ctx: StepContext, step_text: str, goal_text: str) -> str:
    """Serialize one (context, step, goal) triple for an external pair scorer.

    Template: ``[CLS] <ctx> [ST] <step> [ED] <goal> [SEP]`` with the context
    pieces ordered goal, previous steps, next steps, joined by [CTX].
    """
    pieces = []
    if ctx.goal_text is not None:
        pieces.append(ctx.goal_text)
    pieces.extend(ctx.prev_steps)
    pieces.extend(ctx.next_steps)
    ctx_str = f" {CTX_DELIMITER} ".join(pieces)
    parts = ["[CLS]"]
    if ctx_str:
        parts.append(ctx_str)
    parts += ["[ST]", step_text, "[ED]", goal_text, "[SEP]"]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Feature sources

class FeatureSource(Protocol):
    """Pair features for stage 2: `features` gives the rows of a batch of
    candidate lists, one list per step, list after list, shape
    (total candidates, dim); `name` goes into the link config hash."""

    name: str
    dim: int

    def features(
        self, step_ids: tuple[str, ...], goal_ids: tuple[tuple[str, ...], ...]
    ) -> np.ndarray: ...


def idf_table(texts: Iterable[str]) -> dict[str, float]:
    """Per-token IDF over a document collection (same form as the BM25 IDF)."""
    df: Counter[str] = Counter()
    n = 0
    for text in texts:
        n += 1
        df.update(set(tokenize(text)))
    return {t: math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for t, d in df.items()}


class _Text(NamedTuple):
    """One step text or goal title, analysed once for pair features."""

    tokens: np.ndarray  # distinct token ids, in ascending token-string order
    token_idf: np.ndarray  # IDF of each token, same order
    idf_sum: float  # sum of token_idf, added in that order
    grams: np.ndarray  # ids of the distinct char 3-grams of the lowercased text, by ascending code
    gram_counts: np.ndarray  # occurrences of each 3-gram
    gram_norm: float  # Euclidean norm of gram_counts
    folded: str  # casefolded text, for the exact-match flag


def _char_trigrams(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Distinct 3-grams of `text`, ascending, and their counts. A 3-gram is
    coded as its three code points (21 bits each) packed into one int64."""
    codes = np.fromiter(map(ord, text), dtype=np.int64, count=len(text))
    grams = (codes[:-2] << 42) | (codes[1:-1] << 21) | codes[2:]
    return np.unique(grams, return_counts=True)


def _end_to_end(parts: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """`parts` end to end, and the index of the part each value comes from."""
    lengths = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
    return np.repeat(np.arange(len(parts)), lengths), np.concatenate(parts)


def _step_lookup(
    step_ids: Sequence[np.ndarray],
    step_values: Sequence[np.ndarray] | None,
    width: int,
    lists: np.ndarray,
    ids: np.ndarray,
) -> np.ndarray:
    """For each j, the value that step `lists[j]` gives the id `ids[j]`: its
    entry in `step_values` (1 when None), or 0 when the step lacks the id.
    Ids are below `width`. Only the ids some step has get a table column."""
    rows, flat = _end_to_end(step_ids)
    present, column = np.unique(flat, return_inverse=True)
    columns = np.zeros(width, dtype=np.int64)
    columns[present] = np.arange(1, len(present) + 1)
    table = np.zeros((len(step_ids), len(present) + 1), dtype=np.int64)
    table[rows, column + 1] = 1 if step_values is None else np.concatenate(step_values)
    return table[lists, columns[ids]]


class LexicalFeatureSource:
    """Deterministic surface-overlap features for a (step, goal) pair.

    Layout, `dim` = 7 columns: [bias, token Jaccard, char-3gram cosine,
    IDF-weighted overlap, token length ratio, exact-match flag, context-goal
    Jaccard]. The IDF table is built over the corpus goal titles.

    The IDF overlap is I / (S_step + S_goal - I), where S is the sum of a
    text's token IDFs and I that of the shared tokens, each summed in
    ascending token-string order, so the value depends on the two texts only.

    Goal titles are analysed on first use and kept. `features` takes `block`
    candidate lists at a time and computes all their pairs with array
    operations over (list, token id) and (list, 3-gram id) keys; each pair's
    sums run over the goal's own tokens and 3-grams in their fixed order, so
    a row's bytes do not depend on the batch it comes in. A source is not
    safe to share between threads.
    """

    name = "lexical"
    dim = 7
    block = 16  # candidate lists per array pass

    def __init__(self, corpus: Corpus, context_mode: str = "none", window: int = 1):
        self.corpus = corpus
        self.context_mode = context_mode
        self.window = window
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
            idf_sum=sum(token_idf),
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
        """A step's analysis and its context's token ids. Not kept: each
        command featurises a step once (link decisions are reused per step),
        while goal analyses are shared by many steps."""
        text = self._analyse(self.corpus.step(step_id).text)
        ctx = context_of(self.corpus, step_id, self.context_mode, self.window)
        pieces = (ctx.goal_text or "",) + ctx.prev_steps + ctx.next_steps
        context = self._token_ids(sorted({t for piece in pieces for t in tokenize(piece)}))
        return text, context

    def features(
        self, step_ids: tuple[str, ...], goal_ids: tuple[tuple[str, ...], ...]
    ) -> np.ndarray:
        """Feature rows of each step against each of its goals, list after
        list, shape (total goals, dim)."""
        sizes = [len(goals) for goals in goal_ids]
        out = np.zeros((sum(sizes), self.dim), dtype=np.float64)
        row = 0
        for start in range(0, len(step_ids), self.block):
            stop = start + self.block
            rows = sum(sizes[start:stop])
            self._block(step_ids[start:stop], goal_ids[start:stop], out[row : row + rows])
            row += rows
        return out

    def _block(
        self, step_ids: tuple[str, ...], goal_ids: tuple[tuple[str, ...], ...], out: np.ndarray
    ) -> None:
        """Fill `out` with the rows of one block of candidate lists."""
        if not len(out):
            return
        steps, contexts = zip(*map(self._step, step_ids))
        goals = [self._goal(g) for goals in goal_ids for g in goals]
        tokens, token_idf, idf_sums, grams, gram_counts, gram_norms, folded = zip(*goals)
        lists = np.repeat(np.arange(len(step_ids)), [len(goals) for goals in goal_ids])
        n_tokens, n = len(self._vocab), len(goals)

        # Each pair's goal tokens end to end; seg holds the pair of each.
        seg, tokens = _end_to_end(tokens)
        token_lists = lists[seg]
        step_tokens = [step.tokens for step in steps]
        shared = _step_lookup(step_tokens, None, n_tokens, token_lists, tokens) > 0
        n_shared = np.bincount(seg[shared], minlength=n)
        # bincount adds in array order: each goal's shared IDFs in token-string order.
        idf_shared = np.bincount(seg[shared], np.concatenate(token_idf)[shared], minlength=n)
        in_context = _step_lookup(contexts, None, n_tokens, token_lists, tokens) > 0
        n_ctx_shared = np.bincount(seg[in_context], minlength=n)

        # Each pair's 3-gram count products; their sums are exact integers.
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


class TableFeatureSource:
    """Feature rows keyed by (step_id, goal_id), typically loaded from disk;
    `path` is the file, named when a row is missing."""

    name = "table"

    def __init__(
        self, dim: int, table: dict[tuple[str, str], np.ndarray], path: str | Path | None = None
    ):
        self.dim = dim
        self._table = table
        self.path = path

    def features(
        self, step_ids: tuple[str, ...], goal_ids: tuple[tuple[str, ...], ...]
    ) -> np.ndarray:
        rows = []
        for step_id, goals in zip(step_ids, goal_ids):
            for goal_id in goals:
                row = self._table.get((step_id, goal_id))
                if row is None:
                    where = f"{self.path}: " if self.path is not None else ""
                    raise KeyError(f"{where}no feature row for step {step_id!r}, goal {goal_id!r}")
                rows.append(row)
        return np.stack(rows) if rows else np.zeros((0, self.dim), dtype=np.float64)


def list_features(
    source: FeatureSource, step_ids: Sequence[str], candidates: Sequence[Sequence[Candidate]]
) -> list[np.ndarray]:
    """The feature matrix of each step's candidate list, row-aligned, from
    one `features` call."""
    goal_ids = tuple(tuple(goal_id for goal_id, _ in cands) for cands in candidates)
    feats = source.features(tuple(step_ids), goal_ids)
    ends = list(accumulate(map(len, goal_ids)))
    return [feats[end - len(goals) : end] for goals, end in zip(goal_ids, ends)]


def load_feature_file(path: str | Path) -> TableFeatureSource:
    """Read ``dim=<d>`` header then rows ``step_id goal_id v1 ... vd``."""
    dim, table = read_vectors(path, 2)
    return TableFeatureSource(dim=dim, table=table, path=path)


def write_feature_file(
    path: str | Path, dim: int, rows: Iterable[tuple[str, str, np.ndarray]]
) -> None:
    write_vectors(path, dim, ((f"{step_id} {goal_id}", vec) for step_id, goal_id, vec in rows))


# ---------------------------------------------------------------------------
# Model

@dataclass
class RerankModel:
    w: np.ndarray
    lam: float
    unlinkable_feat: np.ndarray | None = None  # the placeholder's row U, if the model has one
    context_mode: str = "none"
    window: int = 1

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def unlinkable_enabled(self) -> bool:
        return self.unlinkable_feat is not None

    def copy(self) -> "RerankModel":
        return replace(
            self,
            w=self.w.copy(),
            unlinkable_feat=None if self.unlinkable_feat is None else self.unlinkable_feat.copy(),
        )


def new_model(
    dim: int,
    lam: float = 1.0,
    unlinkable: bool = False,
    context_mode: str = "none",
    window: int = 1,
) -> RerankModel:
    """Zero-initialized model; with W=0 and lam=1 it reproduces stage-1 order."""
    return RerankModel(
        w=np.zeros(dim, dtype=np.float64),
        lam=lam,
        unlinkable_feat=np.zeros(dim, dtype=np.float64) if unlinkable else None,
        context_mode=context_mode,
        window=window,
    )


def save_model(model: RerankModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"dim={model.dim}\n")
        handle.write(f"lambda={model.lam!r}\n")
        handle.write(f"unlinkable={int(model.unlinkable_enabled)}\n")
        handle.write(f"context_mode={model.context_mode}\n")
        handle.write(f"window={model.window}\n")
        handle.write("W " + " ".join(repr(float(x)) for x in model.w) + "\n")
        if model.unlinkable_feat is not None:
            handle.write("U " + " ".join(repr(float(x)) for x in model.unlinkable_feat) + "\n")


def load_model(path: str | Path) -> RerankModel:
    """Read a checkpoint written by `save_model`: ``key=value`` lines, then
    the W row and, for an unlinkable model (``unlinkable=1``) only, the U
    row. Keys are unique."""
    fields: dict[str, str] = {}
    for lineno, line in lines(path):
        line = line.strip()
        key, sep, value = line.partition(" " if line.startswith(("W ", "U ")) else "=")
        if not sep:
            raise fail(path, lineno, "expected 'key=value' or a W or U row")
        if key in fields:
            raise fail(path, lineno, f"duplicate key {key!r}")
        fields[key] = value
    if "W" not in fields:
        raise DataError(f"{path}: malformed model checkpoint (no W line)")
    try:
        dim = int(fields["dim"])
        vectors = {n: np.array([float(x) for x in fields[n].split()]) for n in "WU" if n in fields}
        unlinkable = fields["unlinkable"]
        model = RerankModel(
            w=vectors["W"],
            lam=float(fields["lambda"]),
            unlinkable_feat=vectors.get("U"),
            context_mode=fields["context_mode"],
            window=int(fields["window"]),
        )
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: malformed model checkpoint ({exc})") from None
    for name, vec in vectors.items():
        if vec.shape[0] != dim:
            raise DataError(f"{path}: {name} has {vec.shape[0]} values, expected {dim}")
    if not all(np.all(np.isfinite(v)) for v in (model.lam, *vectors.values())):
        raise DataError(f"{path}: non-finite value in model checkpoint")
    if model.context_mode not in CONTEXT_MODES:
        raise DataError(f"{path}: unknown context_mode {model.context_mode!r}")
    if model.window < 1:
        raise DataError(f"{path}: window must be >= 1, got {model.window}")
    if unlinkable not in ("0", "1"):
        raise DataError(f"{path}: unlinkable must be 0 or 1, got {unlinkable!r}")
    if unlinkable != str(int(model.unlinkable_enabled)):
        has = "a" if model.unlinkable_enabled else "no"
        raise DataError(f"{path}: unlinkable={unlinkable} but the checkpoint has {has} U row")
    return model


# ---------------------------------------------------------------------------
# Scoring

class ScoredCandidate(NamedTuple):
    goal_id: str
    sim1: float
    sim2: float


def list_scores(model: RerankModel, feats: np.ndarray, sim1s: np.ndarray) -> np.ndarray:
    """sim2 = feats @ W + lambda * sim1 of each candidate of one list, as one
    matrix-vector product, then, for an unlinkable model, of the placeholder
    slot: the learned row U at the list's minimum sim1. Training and linking
    both score a list here."""
    if feats.shape != (len(sim1s), model.dim):
        raise ValueError(
            f"feature matrix {feats.shape} does not match {len(sim1s)} candidates "
            f"at model dim {model.dim}"
        )
    if model.unlinkable_enabled:
        feats = np.vstack([feats, model.unlinkable_feat])
        sim1s = np.append(sim1s, sim1s.min())
    return feats @ model.w + model.lam * sim1s


def score_candidates(
    model: RerankModel, candidates: CandidateList, feats: np.ndarray
) -> tuple[ScoredCandidate, ...]:
    """Score a candidate list, whose feature matrix is `feats`, with
    `list_scores`; its entries sorted descending, ties by goal_id. An
    unlinkable model adds the UNLINKABLE entry, whose sim1 is the list's
    minimum."""
    if not candidates.entries:
        raise ValueError(f"step {candidates.step_id!r} has an empty candidate list")
    goal_ids, sim1s = zip(*candidates.entries)
    scores = list_scores(model, feats, np.array(sim1s, dtype=np.float64))
    if model.unlinkable_enabled:
        goal_ids, sim1s = goal_ids + (UNLINKABLE,), sim1s + (min(sim1s),)
    return tuple(sorted(
        map(ScoredCandidate, goal_ids, sim1s, scores.tolist()),
        key=lambda entry: (-entry.sim2, entry.goal_id),
    ))


# ---------------------------------------------------------------------------
# Training

@dataclass(frozen=True)
class TrainExample:
    """One listwise example: the retrieved candidates and the gold label.

    `gold` is a candidate goal_id, or UNLINKABLE when the gold goal is absent
    from the candidate list (unlinkable mode only).
    """

    step_id: str
    candidates: tuple[Candidate, ...]
    gold: str


def make_training_examples(
    candidate_lists: Iterable[CandidateList],
    gold: Mapping[str, str],
    unlinkable: bool = False,
) -> list[TrainExample]:
    """Pair candidate lists with gold labels.

    Steps without a gold link are skipped. When the gold goal is missing from
    the list: label it UNLINKABLE in unlinkable mode, drop the example
    otherwise.
    """
    examples = []
    for cand in candidate_lists:
        gold_goal = gold.get(cand.step_id)
        if gold_goal is None:
            continue
        in_list = any(entry.goal_id == gold_goal for entry in cand.entries)
        if in_list:
            examples.append(TrainExample(cand.step_id, tuple(cand.entries), gold_goal))
        elif unlinkable:
            examples.append(TrainExample(cand.step_id, tuple(cand.entries), UNLINKABLE))
    return examples


@dataclass
class LossGrads:
    loss: float
    grad_w: np.ndarray
    grad_lam: float
    grad_unlinkable: np.ndarray | None


def nll_loss(model: RerankModel, example: TrainExample, feats: np.ndarray) -> LossGrads:
    """Listwise negative log-likelihood of the gold candidate, with analytic
    gradients for W, lambda, and the unlinkable feature row.

    loss = -log softmax(sim2)[gold] over the candidate set, plus the
    placeholder slot when unlinkable is enabled.
    """
    m = len(example.candidates)
    if m == 0:
        raise ValueError(f"step {example.step_id!r}: empty candidate set")
    ids = [c.goal_id for c in example.candidates]
    if model.unlinkable_enabled:
        ids.append(UNLINKABLE)
    elif example.gold == UNLINKABLE:
        raise ValueError(f"step {example.step_id!r}: UNLINKABLE label without unlinkable mode")
    try:
        gold_idx = ids.index(example.gold)
    except ValueError:
        raise ValueError(
            f"step {example.step_id!r}: gold {example.gold!r} not in candidate set"
        ) from None

    sim1s = np.array([c.sim1 for c in example.candidates], dtype=np.float64)
    z = list_scores(model, feats, sim1s)
    z_shift = z - z.max()
    exp_z = np.exp(z_shift)
    total = exp_z.sum()
    probs = exp_z / total
    loss = float(math.log(total) - z_shift[gold_idx])

    # d loss / d z, split into the real candidates and the placeholder slot.
    g = probs
    g[gold_idx] -= 1.0
    grad_w = feats.T @ g[:m]
    grad_lam = g[:m] @ sim1s
    grad_u = None
    if model.unlinkable_enabled:
        grad_w += g[m] * model.unlinkable_feat
        grad_lam += g[m] * sim1s.min()
        grad_u = g[m] * model.w
    return LossGrads(loss=loss, grad_w=grad_w, grad_lam=float(grad_lam), grad_unlinkable=grad_u)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_loss: float | None


@dataclass
class TrainResult:
    model: RerankModel
    curve: list[EpochStats]


def example_features(source: FeatureSource, examples: Sequence[TrainExample]) -> list[np.ndarray]:
    """The feature matrix of each example's real candidates, row-aligned."""
    step_ids = [example.step_id for example in examples]
    return list_features(source, step_ids, [example.candidates for example in examples])


def mean_loss(
    model: RerankModel, examples: Sequence[TrainExample], feats: Sequence[np.ndarray]
) -> float:
    """Mean NLL over examples, given each example's feature matrix."""
    total = 0.0
    for example, example_feats in zip(examples, feats):
        total += nll_loss(model, example, example_feats).loss
    return total / len(examples)


def train(
    model: RerankModel,
    examples: Sequence[TrainExample],
    source: FeatureSource,
    lr: float,
    epochs: int,
    batch_size: int = 32,
    seed: int = 0,
    freeze_lambda: bool = False,
    dev_examples: Sequence[TrainExample] | None = None,
) -> TrainResult:
    """Mini-batch SGD on the mean listwise NLL.

    Deterministic under a fixed seed (single-threaded, fixed accumulation
    order). Returns the checkpoint with the best dev loss when a dev set is
    given, the final model otherwise.
    """
    if not examples:
        raise ValueError("empty training set")
    model = model.copy()
    rng = np.random.default_rng(seed)
    feats_cache = example_features(source, examples)
    dev_feats = example_features(source, dev_examples) if dev_examples else []

    curve: list[EpochStats] = []
    best: tuple[float, RerankModel] | None = None
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(examples))
        epoch_losses = []
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            grad_w = np.zeros(model.dim)
            grad_lam = 0.0
            grad_u = np.zeros(model.dim) if model.unlinkable_enabled else None
            for i in batch:
                out = nll_loss(model, examples[i], feats_cache[i])
                if not math.isfinite(out.loss):
                    raise RuntimeError(
                        f"non-finite training loss at epoch {epoch} (learning rate too high?)"
                    )
                epoch_losses.append(out.loss)
                grad_w += out.grad_w
                grad_lam += out.grad_lam
                if grad_u is not None:
                    grad_u += out.grad_unlinkable
            scale = lr / len(batch)
            model.w -= scale * grad_w
            if not freeze_lambda:
                model.lam -= scale * grad_lam
            if grad_u is not None:
                model.unlinkable_feat -= scale * grad_u

        train_loss = sum(epoch_losses) / len(epoch_losses)
        dev_loss = mean_loss(model, dev_examples, dev_feats) if dev_examples else None
        curve.append(EpochStats(epoch=epoch, train_loss=train_loss, dev_loss=dev_loss))
        if dev_loss is not None and (best is None or dev_loss < best[0]):
            best = (dev_loss, model.copy())

    return TrainResult(model=model if best is None else best[1], curve=curve)

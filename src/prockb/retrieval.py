"""Stage 1: exact top-k goal retrieval by cosine over an embedding matrix.

The index is a row-normalized matrix of goal vectors, so cosine top-k reduces
to inner-product top-k. Search is an exact full scan; ties break by ascending
goal_id so candidate lists are stable across runs.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, TypeVar

import numpy as np

from .artifacts import fail, tab_rows, write_rows
from .corpus import Corpus, Step
from .embedding import EmbeddingStore

DEFAULT_K = 30

T = TypeVar("T")


class Candidate(NamedTuple):
    goal_id: str
    sim1: float


@dataclass(frozen=True)
class CandidateList:
    step_id: str
    entries: tuple[Candidate, ...]


class GoalIndex:
    """Searchable goal embeddings: ids in ascending order, unit-norm rows."""

    def __init__(self, goal_ids: list[str], matrix: np.ndarray):
        self.goal_ids = goal_ids
        self.goal_id_set = frozenset(goal_ids)
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.goal_ids)


def build_index(store: EmbeddingStore, goal_ids: Iterable[str]) -> GoalIndex:
    """Stack goal vectors into a normalized matrix. Zero vectors are kept as
    zero rows; they score 0 against every query."""
    ordered = sorted(set(goal_ids))
    matrix = np.zeros((len(ordered), store.dim), dtype=np.float64)
    for row, goal_id in enumerate(ordered):
        vec = store[goal_id]
        norm = float(np.linalg.norm(vec))
        if norm != 0.0:
            matrix[row] = vec / norm
    return GoalIndex(goal_ids=ordered, matrix=matrix)


def topk(
    index: GoalIndex,
    step_vec: np.ndarray,
    k: int,
    exclude: set[str] | None = None,
    step_id: str = "",
) -> CandidateList:
    """Exact top-k goals by cosine, ties by ascending goal_id.

    Goals in `exclude` are never returned (used to forbid self-links). Raises
    ValueError when k exceeds the goals available after exclusion.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(step_vec, dtype=np.float64)
    if q.shape != (index.dim,):
        raise ValueError(f"query dim {q.shape} does not match index dim {index.dim}")
    excluded = exclude or set()
    available = len(index) - sum(1 for g in excluded if g in index.goal_id_set)
    if k > available:
        raise ValueError(f"k={k} exceeds {available} goals available after exclusion")

    norm = float(np.linalg.norm(q))
    unit = q / norm if norm > 0.0 else q
    scores = index.matrix @ unit
    # Rows are in ascending goal_id order, so a stable sort on -score breaks
    # ties by goal_id for free.
    order = np.argsort(-scores, kind="stable")
    entries: list[Candidate] = []
    for row in order:
        goal_id = index.goal_ids[row]
        if goal_id in excluded:
            continue
        entries.append(Candidate(goal_id, float(scores[row])))
        if len(entries) == k:
            break
    return CandidateList(step_id=step_id, entries=tuple(entries))


def retrieve_step(
    index: GoalIndex, store: EmbeddingStore, step: Step, k: int, exclude_parent: bool = True
) -> CandidateList:
    """The stage-1 candidates of one corpus step, for `retrieve` and `link`
    alike: topk without the step's own goal when `exclude_parent`, with k
    clamped to the goals left. Raises ValueError when no goal is left."""
    exclude = {step.parent_goal_id} if exclude_parent else set()
    available = len(index) - len(exclude & index.goal_id_set)
    if available < 1:
        raise ValueError(f"no goals available for step {step.step_id!r}")
    return topk(index, store[step.step_id], min(k, available), exclude, step.step_id)


def retrieve_all(
    index: GoalIndex,
    store: EmbeddingStore,
    corpus: Corpus,
    k: int = DEFAULT_K,
    exclude_parent: bool = True,
) -> list[CandidateList]:
    """Run retrieve_step for every corpus step, in corpus order."""
    return [retrieve_step(index, store, step, k, exclude_parent) for step in corpus.steps()]


def write_candidates(path: str | Path, lists: Iterable[CandidateList]) -> None:
    """Dump candidate lists as TSV: step_id, rank, goal_id, sim1."""
    write_rows(path, ((cand.step_id, rank, *entry)
                      for cand in lists for rank, entry in enumerate(cand.entries, 1)))


def read_ranked(
    path: str | Path, columns: int, parse: Callable[[int, list[str]], T]
) -> dict[str, list[T]]:
    """Read a ranked TSV whose lines start with step_id and an integer rank.

    Returns step_id -> [parse(line number, columns) of each of its lines], in
    rank order, with steps in the order they first appear. Raises DataError,
    with path and line, on a line with fewer than `columns` columns, a rank
    that is not an integer, or a repeated (step_id, rank).
    """
    per_step: dict[str, dict[int, T]] = {}  # step_id -> {rank: value}
    for lineno, fields in tab_rows(path, columns):
        try:
            rank = int(fields[1])
        except ValueError:
            raise fail(path, lineno, f"rank {fields[1]!r} is not an integer") from None
        ranked = per_step.setdefault(fields[0], {})
        if rank in ranked:
            raise fail(path, lineno, f"duplicate rank {rank} for step {fields[0]!r}")
        ranked[rank] = parse(lineno, fields)
    return {step_id: [ranked[r] for r in sorted(ranked)] for step_id, ranked in per_step.items()}


def read_candidates(path: str | Path) -> list[CandidateList]:
    def candidate(lineno: int, parts: list[str]) -> Candidate:
        try:
            sim1 = float(parts[3])
        except ValueError:
            sim1 = math.nan
        if not math.isfinite(sim1):
            raise fail(path, lineno, f"sim1 {parts[3]!r} is not a finite number")
        return Candidate(parts[2], sim1)

    return [
        CandidateList(step_id=step_id, entries=tuple(entries))
        for step_id, entries in read_ranked(path, 4, candidate).items()
    ]

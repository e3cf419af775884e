"""Stage 1: exact top-k goal retrieval by cosine over an embedding matrix.

The index is a row-normalized matrix of goal vectors, so cosine top-k reduces
to inner-product top-k. Search is an exact full scan; ties break by ascending
goal_id so candidate lists are stable across runs.

Every ranked goal list, from stage-1 candidates to reranked links, is a
`Ranked`; one writer and one reader move it to and from TSV.
"""

from array import array
from dataclasses import dataclass
from itertools import chain, pairwise
from math import isfinite, nan
from pathlib import Path
from sys import intern
from typing import Iterable, Sequence

import numpy as np

from .artifacts import fail, tab_rows, write_rows
from .corpus import Step
from .embedding import EmbeddingStore

DEFAULT_K = 30


@dataclass(frozen=True, eq=False)
class Ranked:
    """Ranked goal lists, one per step, column by column: list i is rows
    offsets[i]:offsets[i+1] of `goal_ids`, `sim1` and `sim2`, best first.
    `sim2` is None until the lists are reranked."""

    step_ids: tuple[str, ...]
    offsets: np.ndarray  # int64, len(step_ids) + 1 entries, from 0
    goal_ids: tuple[str, ...]
    sim1: np.ndarray  # float64
    sim2: np.ndarray | None = None

    @classmethod
    def from_lists(cls, step_ids: Iterable[str], goal_ids: Sequence[Sequence[str]],
                   sim1: Sequence[Sequence[float]], sim2: Sequence[Sequence[float]] | None = None):
        """The lists of `step_ids`, given list by list."""
        offsets = np.cumsum([0, *map(len, goal_ids)], dtype=np.int64)
        return cls(tuple(step_ids), offsets, tuple(chain.from_iterable(goal_ids)), _column(sim1),
                   None if sim2 is None else _column(sim2))

    def rows(self, i: int) -> slice:
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def goal_lists(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.goal_ids[a:b] for a, b in pairwise(self.offsets.tolist()))


def _column(parts: Sequence[Sequence[float]]) -> np.ndarray:
    return np.fromiter(chain.from_iterable(parts), dtype=np.float64)


class GoalIndex:
    """Searchable goal embeddings: ids in ascending order, unit-norm rows."""

    def __init__(self, goal_ids: list[str], matrix: np.ndarray):
        self.goal_ids = goal_ids
        self.row = {goal_id: row for row, goal_id in enumerate(goal_ids)}
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
    index: GoalIndex, step_vec: np.ndarray, k: int, exclude: Iterable[str] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k goals by cosine, ties by ascending goal_id: their index
    rows and scores, best first.

    Goals in `exclude` are never returned (used to forbid self-links). Raises
    ValueError when k exceeds the goals available after exclusion.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(step_vec, dtype=np.float64)
    if q.shape != (index.dim,):
        raise ValueError(f"query dim {q.shape} does not match index dim {index.dim}")
    keep = np.ones(len(index), dtype=bool)
    keep[[index.row[g] for g in exclude if g in index.row]] = False
    if k > keep.sum():
        raise ValueError(f"k={k} exceeds {keep.sum()} goals available after exclusion")

    norm = float(np.linalg.norm(q))
    unit = q / norm if norm > 0.0 else q
    scores = index.matrix @ unit
    # Rows are in ascending goal_id order, so a stable sort on -score breaks
    # ties by goal_id for free.
    order = np.argsort(-scores, kind="stable")
    rows = order[keep[order]][:k]
    return rows, scores[rows]


def retrieve_all(
    index: GoalIndex, store: EmbeddingStore, steps: Iterable[Step], k: int = DEFAULT_K
) -> Ranked:
    """The stage-1 candidates of each of `steps`, for `retrieve` and `link`
    alike: topk without the step's own goal, which a step never links to,
    with k clamped to the goals left. Raises ValueError when no goal is left."""
    step_ids, goal_ids, sims = [], [], []
    for step in steps:
        available = len(index) - (step.parent_goal_id in index.row)
        if available < 1:
            raise ValueError(f"no goals available for step {step.step_id!r}")
        rows, scores = topk(index, store[step.step_id], min(k, available), [step.parent_goal_id])
        step_ids.append(step.step_id)
        goal_ids.append([index.goal_ids[row] for row in rows.tolist()])
        sims.append(scores)
    return Ranked.from_lists(step_ids, goal_ids, sims)


def write_candidates(path: str | Path, ranked: Ranked) -> None:
    """TSV lines of step_id, rank, goal_id, sim1 and, once reranked, sim2,
    made list by list, so only one list's values are Python objects at once."""
    scores = [sims for sims in (ranked.sim1, ranked.sim2) if sims is not None]
    write_rows(path, ((step_id, rank, *row) for step_id, (a, b)
                      in zip(ranked.step_ids, pairwise(ranked.offsets.tolist()))
                      for rank, row in enumerate(zip(ranked.goal_ids[a:b],
                                                     *(sims[a:b].tolist() for sims in scores)), 1)))


def read_candidates(path: str | Path) -> Ranked:
    """Read the TSV that `write_candidates` writes: step_id, an integer
    rank, goal_id, sim1 and, in every line or in none, sim2. Each step's rows
    are taken in rank order, steps in the order they first appear. Raises
    DataError, with path and line, on a line with fewer than 4 columns, a
    rank that is not an integer, a score that is not a finite number, a
    repeated (step_id, rank), or a sim2 in some lines only."""
    steps: dict[str, int] = {}  # step_id -> its list, numbered in order of first appearance
    lists, ranks, linenos = array("q"), array("q"), array("q")  # of each row, in file order
    goal_ids: list[str] = []
    sims = (array("d"), array("d"))
    width = 0  # the first line's number of scores: 1, or 2 with sim2
    for lineno, fields in tab_rows(path, 4):
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
        lists.append(steps.setdefault(fields[0], len(steps)))
        linenos.append(lineno)
        goal_ids.append(intern(fields[2]))  # one string per goal, not per row
    order = np.lexsort((ranks, lists))
    in_order = np.asarray(lists)[order], np.asarray(ranks)[order]
    repeated = order[1:][(np.diff(in_order[0]) == 0) & (np.diff(in_order[1]) == 0)]
    if len(repeated):  # the first repeat in the file, as a line-by-line check would find it
        row = int(repeated.min())
        step_id = list(steps)[lists[row]]
        raise fail(path, linenos[row], f"duplicate rank {ranks[row]} for step {step_id!r}")
    offsets = np.searchsorted(in_order[0], np.arange(len(steps) + 1))
    return Ranked(tuple(steps), offsets, tuple(np.array(goal_ids, dtype=object)[order]),
                  np.asarray(sims[0])[order], np.asarray(sims[1])[order] if sims[1] else None)

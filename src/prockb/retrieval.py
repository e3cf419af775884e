"""Stage 1: exact top-k goal retrieval by cosine over an embedding matrix.

The index is an `EmbeddingStore` of the goals in ascending id order, each row
normalised by `unit`, so cosine top-k reduces to inner-product top-k. Search
is an exact full scan; ties break by ascending goal_id so candidate lists are
stable across runs.

Every ranked goal list, from stage-1 candidates to reranked links, is a
`Ranked`; one writer and one reader move it to and from TSV.
"""

from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .artifacts import check_rows, fail, float_column, int_column, tab_blocks, write_columns
from .corpus import Corpus, Step
from .embedding import EmbeddingStore, unit

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

    def rows(self, i: int) -> slice:
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def gold_slots(self, gold: Mapping[str, str]) -> np.ndarray:
        """Each list's first position of its step's goal in `gold`, in one
        comparison over the rows of the lists whose step has a gold goal; -1
        when the step has none or its list lacks it. The placeholder
        UNLINKABLE, never a gold goal, matches none."""
        lists = np.array([i for i, step_id in enumerate(self.step_ids) if step_id in gold],
                         dtype=np.int64)
        rows, offsets = take(self.offsets, lists)
        goals = np.array(list(map(self.goal_ids.__getitem__, rows.tolist())), dtype=object)
        golds = np.array([gold[self.step_ids[i]] for i in lists.tolist()], dtype=object)
        owners = np.repeat(np.arange(len(lists)), np.diff(offsets))
        hits = np.flatnonzero(goals == golds[owners])
        found, first = np.unique(owners[hits], return_index=True)  # each list's first hit
        slots = np.full(len(self.step_ids), -1, dtype=np.int64)
        slots[lists[found]] = hits[first] - offsets[found]
        return slots


def take(offsets: np.ndarray, lists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `lists`, indices of the lists of `offsets`, list after
    list, and the offsets of those lists among the rows taken."""
    sizes = np.diff(offsets)[lists]
    taken = np.concatenate(([0], np.cumsum(sizes)))
    return np.arange(taken[-1]) + np.repeat(offsets[:-1][lists] - taken[:-1], sizes), taken


def build_index(store: EmbeddingStore, goal_ids: Iterable[str]) -> EmbeddingStore:
    """The table of the goals in ascending id order, each row `unit` of its
    vector; a zero vector stays a zero row, which scores 0 against every query."""
    ids = sorted(set(goal_ids))
    rows = (unit(store[goal_id]) for goal_id in ids)
    return EmbeddingStore(ids, np.fromiter(rows, np.dtype((np.float64, store.dim)), len(ids)))


def topk(
    index: EmbeddingStore, step_vec: np.ndarray, k: int, exclude: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k goals by cosine, ties by ascending goal_id: their index
    rows and scores, best first.

    The row `exclude`, if given, is never returned (used to forbid
    self-links). Raises ValueError when k exceeds the rows left.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    available = len(index) - (exclude is not None)
    if k > available:
        raise ValueError(f"k={k} exceeds {available} goals available after exclusion")

    scores = index.matrix @ unit(step_vec)
    # Rows are in ascending goal_id order, so a stable sort on -score breaks
    # ties by goal_id for free.
    order = np.argsort(-scores, kind="stable")
    if exclude is not None:
        order = order[order != exclude]
    return order[:k], scores[order[:k]]


def retrieve_all(
    index: EmbeddingStore, store: EmbeddingStore, steps: Iterable[Step], k: int = DEFAULT_K
) -> Ranked:
    """The stage-1 candidates of each of `steps`, for `retrieve` and `link`
    alike: topk without the step's own goal, which a step never links to,
    with k clamped to the goals left. Raises ValueError when no goal is left."""
    steps = list(steps)
    parents = [index.row.get(step.parent_goal_id) for step in steps]
    available = [len(index) - (row is not None) for row in parents]
    if 0 in available:
        raise ValueError(f"no goals available for step {steps[available.index(0)].step_id!r}")
    offsets = np.cumsum([0, *(min(k, n) for n in available)], dtype=np.int64)
    rows, sim1 = np.empty(offsets[-1], dtype=np.intp), np.empty(offsets[-1])
    for step, parent, a, b in zip(steps, parents, offsets[:-1].tolist(), offsets[1:].tolist()):
        rows[a:b], sim1[a:b] = topk(index, store[step.step_id], b - a, parent)
    return Ranked(tuple(step.step_id for step in steps), offsets,
                  tuple(np.array(index.ids, dtype=object)[rows]), sim1)


def write_candidates(path: str | Path, ranked: Ranked) -> None:
    """TSV lines of step_id, rank, goal_id, sim1 and, once reranked, sim2,
    written column by column, a block of rows at a time."""
    offsets, scores = ranked.offsets, [s for s in (ranked.sim1, ranked.sim2) if s is not None]

    def block(rows: slice):
        at = np.arange(rows.start, rows.stop)
        lists = np.searchsorted(offsets, at, side="right") - 1
        return (map(ranked.step_ids.__getitem__, lists.tolist()), at - offsets[lists] + 1,
                ranked.goal_ids[rows], *(sims[rows] for sims in scores))

    write_columns(path, len(ranked.goal_ids), block)


def read_candidates(path: str | Path, corpus: Corpus | None = None) -> Ranked:
    """Read the TSV that `write_candidates` writes: step_id, an integer
    rank, goal_id, sim1 and, in every line or in none, sim2. Each step's rows
    are taken in rank order, steps in the order they first appear. Raises
    DataError, with path and line, on a line with fewer than 4 columns or
    more than 5, a rank that is not an integer, a sim2 in some lines only, a
    score that is not a finite number, a step or goal not in `corpus` (if
    given), or a repeated (step_id, rank); of a line's faults, the first in
    that order, and of the lines, the first, repeats once all are read."""
    steps: dict[str, int] = {}  # step_id -> its list, numbered in order of first appearance
    # Each row's list, rank, line number, sim1 and sim2, in file order.
    columns = array("q"), array("q"), array("q"), array("d"), array("d")
    goal_ids: list[str] = []
    goals: dict[str, str] = {}  # one string per goal, not per row, kept by this read only
    width = 0  # the first line's number of columns: 4, or 5 with sim2
    for linenos, rows in tab_blocks(path, 4, 5):
        width = width or len(rows[0])
        step, rank, goal, *texts = zip_longest(*rows)  # a 4-column line's sim2 is None
        ranks, not_int, out_of_range = int_column(rank)
        widths = np.fromiter(map(len, rows), np.int64, len(rows))
        sims = [float_column(column) for column in texts]
        check_rows(path, linenos, [
            (not_int, lambda i: f"rank {rank[i]!r} is not an integer"),
            (out_of_range, lambda i: f"rank {rank[i]!r} is out of range"),
            (widths != width, lambda i: "sim2 column in some lines only"),
            *((~np.isfinite(sim) & (widths > 3 + j),
               lambda i, j=j: f"sim{j + 1} {texts[j][i]!r} is not a finite number")
              for j, sim in enumerate(sims)),
            *(() if corpus is None else
              (corpus.unknown("step_id", step), corpus.unknown("goal_id", goal))),
        ])
        for step_id in dict.fromkeys(step):
            steps.setdefault(step_id, len(steps))
        columns[0].extend(map(steps.__getitem__, step))
        for column, values in zip(columns[1:], (ranks, linenos, *sims)):
            column.frombytes(np.asarray(values, dtype=column.typecode).tobytes())
        goal_ids += map(goals.setdefault, goal, goal)
    lists, ranks, linenos, *sims = (np.frombuffer(c, dtype=c.typecode) for c in columns)
    order = np.lexsort((ranks, lists))
    in_order = lists[order], ranks[order]
    repeated = order[1:][(np.diff(in_order[0]) == 0) & (np.diff(in_order[1]) == 0)]
    if len(repeated):  # the first repeat in the file, as a line-by-line check would find it
        row = int(repeated.min())
        step_id = list(steps)[lists[row]]
        raise fail(path, linenos[row], f"duplicate rank {ranks[row]} for step {step_id!r}")
    offsets = np.searchsorted(in_order[0], np.arange(len(steps) + 1))
    return Ranked(tuple(steps), offsets, tuple(np.array(goal_ids, dtype=object)[order]),
                  sims[0][order], sims[1][order] if width == 5 else None)

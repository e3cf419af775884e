"""Extrinsic evaluation: retrieve how-to videos with hierarchy-expanded queries.

Videos are caption documents labeled with the goal they demonstrate. A query
is a weighted bag of clauses: the goal text plus optional step clauses, scored
rel(q, v) = w_g * bm25(goal, v) + w_s * sum_s bm25(s, v), with each level's
weights in LEVEL_WEIGHTS. Query levels:

  L0      goal only
  L1      goal + the article's immediate steps
  FIL_L1  goal + greedily filtered steps
  FIL_L2  like FIL_L1 but the candidate pool adds the steps of each linked
          child article (grandchildren from the knowledge base)

Filtering is greedy hill climbing over per-goal training videos: starting
from the bare goal, repeatedly add the unused candidate step with the lowest
cost, keep it only if it strictly improves on the best cost so far, and stop
otherwise. With n distinct candidates the filter runs at most min(n, cap) + 1
rounds and accepts at most min(n, cap + 1) clauses.
"""

import math
import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from .artifacts import check_rows, fail, json_lines, read_json, write_json
from .corpus import UNLINKABLE, Corpus, json_id, json_text, normalize_text
from .errors import DataError
from .linkeval import SPLIT_SEED, split
from .textsearch import DEFAULT_B, DEFAULT_K1, TextIndex

L0 = "L0"
L1 = "L1"
FIL_L1 = "FIL_L1"
FIL_L2 = "FIL_L2"
LEVEL_WEIGHTS = {L0: (1.0, 0.0), L1: (1.0, 0.1), FIL_L1: (1.0, 0.5), FIL_L2: (1.0, 0.5)}
LEVELS = tuple(LEVEL_WEIGHTS)

DEFAULT_CAP = 15
COST_KINDS = ("mean_rank", "neg_recall50")
VIDEO_RATIOS = (7.5, 1.25, 1.25)
# Cells (tied entries x pool size) that relevant_ranks compares at once: a
# round can tie hundreds of relevant entries, and each one copies its row.
TIE_CELLS = 1 << 16


@dataclass(frozen=True)
class VideoDoc:
    video_id: str
    goal_id: str
    caption: str


def load_videos(path: str | Path, corpus: Corpus | None = None) -> list[VideoDoc]:
    """Read video JSONL: ``{"video_id", "goal_id", "caption"}`` per line.
    Ids are strings or integers, as in a corpus, and captions strings. Given
    `corpus`, each video's goal must be one of its goals; the first faulty
    line is reported. A file with no videos is a DataError too."""
    videos, seen = [], set()
    for lineno, rec in json_lines(path):
        where = f"{path}: line {lineno}: "
        try:
            vid = json_id(rec["video_id"], where + "video_id")
            gid = json_id(rec["goal_id"], where + "goal_id")
            caption = json_text(rec["caption"], where + "caption")
        except KeyError as exc:
            raise fail(path, lineno, f"missing field {exc.args[0]!r}") from None
        except TypeError:
            raise fail(path, lineno, "expected a JSON object") from None
        if vid in seen:
            raise fail(path, lineno, f"duplicate video_id {vid!r}")
        if corpus is not None:
            check_rows(path, (lineno,), [corpus.unknown("goal_id", (gid,))])
        seen.add(vid)
        videos.append(VideoDoc(video_id=vid, goal_id=gid, caption=caption))
    if not videos:
        raise DataError(f"{path}: no videos")
    return videos


def split_videos(videos: Sequence[VideoDoc]) -> dict[str, dict[str, list[str]]]:
    """Each goal's video ids cut 7.5:1.25:1.25 by `split`, as part -> goal ->
    ids. One rng under SPLIT_SEED cuts the goals in sorted order."""
    per_goal: dict[str, list[str]] = {}
    for video in videos:
        per_goal.setdefault(video.goal_id, []).append(video.video_id)
    rng = random.Random(SPLIT_SEED)
    splits: dict[str, dict[str, list[str]]] = {"train": {}, "dev": {}, "test": {}}
    for goal_id in sorted(per_goal):
        for name, ids in split(per_goal[goal_id], rng, VIDEO_RATIOS).items():
            splits[name][goal_id] = ids
    return splits


def build_video_index(
    videos: Sequence[VideoDoc], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> TextIndex:
    return TextIndex([(v.video_id, normalize_text(v.caption)) for v in videos], k1=k1, b=b)


# ---------------------------------------------------------------------------
# Queries

@dataclass(frozen=True)
class Query:
    goal_id: str
    goal_text: str
    steps: tuple[str, ...]
    w_g: float
    w_s: float
    level: str


def make_query(
    corpus: Corpus, goal_id: str, level: str, links: Mapping[str, str] | None = None
) -> Query:
    """The unfiltered query of `level`. L0 is the bare goal, and L1 adds the
    article's steps. FIL_L1 and FIL_L2 hold the pool that `filter_steps`
    filters: the article's steps and, for FIL_L2, the steps of each article
    that `links` links one of them to (grandchildren from the knowledge
    base). A pool holds each text once, first occurrence first."""
    if level not in LEVELS:
        raise ValueError(f"unknown query level {level!r}")
    article = corpus.article(goal_id)
    texts = [s.text for s in article.steps] if level != L0 else []
    if level == FIL_L2:
        if links is None:
            raise ValueError("FIL_L2 queries need a step -> goal link map")
        for step in article.steps:
            target = links.get(step.step_id, UNLINKABLE)  # a reserved id, never a goal
            if target in corpus:
                texts.extend(s.text for s in corpus.article(target).steps)
    if level in (FIL_L1, FIL_L2):
        texts = list(dict.fromkeys(texts))
    w_g, w_s = LEVEL_WEIGHTS[level]
    return Query(goal_id, article.title, tuple(texts), w_g=w_g, w_s=w_s, level=level)


def relevant_ranks(scores: np.ndarray, rel_idx: np.ndarray, id_rank: np.ndarray) -> np.ndarray:
    """1-based ranks of the columns `rel_idx` in each row of the (m, N)
    block `scores`, in the order (score desc, `id_rank` asc): row i of the
    result equals the places of `rel_idx` in
    ``np.lexsort((id_rank, -scores[i]))``, without sorting by two keys.

    A column's rank is 1 + the count of higher scores in its row + the count
    of equal scores with a lower `id_rank`. The whole block is sorted once;
    a relevant score has an equal in its row exactly when the sorted entry
    just below its last copy is equal, and only those tied entries are
    compared with their rows, TIE_CELLS row cells at a time.
    """
    m, n = scores.shape
    ordered = np.sort(scores, axis=1)
    rel_scores = scores[:, rel_idx]
    right = np.array([row.searchsorted(values, "right") for row, values in zip(ordered, rel_scores)],
                     dtype=np.int64).reshape(rel_scores.shape)
    ranks = n - right + 1
    below = ordered[np.arange(m)[:, None], np.maximum(right - 2, 0)]
    ti, tj = np.nonzero((right >= 2) & (below == rel_scores))
    step = max(1, TIE_CELLS // max(n, 1))
    for start in range(0, len(ti), step):
        i, j = ti[start : start + step], tj[start : start + step]
        equal = scores[i] == rel_scores[i, j][:, None]
        lower = id_rank < id_rank[rel_idx[j]][:, None]
        ranks[i, j] += np.count_nonzero(equal & lower, axis=1)
    return ranks


class ClauseScorer:
    """Caches per-clause BM25 score vectors so query scoring is a few adds.

    The cache holds one dense vector per distinct clause and is never
    trimmed, so a scorer lives for one goal's climb (`make_cost_fn`) or one
    query (`vr-eval`), not for a whole command."""

    def __init__(self, index: TextIndex):
        self.index = index
        self._cache: dict[str, np.ndarray] = {}

    def clause_scores(self, text: str) -> np.ndarray:
        vec = self._cache.get(text)
        if vec is None:
            vec = self.index.score_all(text)
            self._cache[text] = vec
        return vec

    def query_scores(self, query: Query) -> np.ndarray:
        """rel(query, v) of every video: w_g times the goal text's BM25, plus
        w_s times each step clause's, added in clause order."""
        scores = query.w_g * self.clause_scores(query.goal_text)
        for clause in query.steps:
            scores = scores + query.w_s * self.clause_scores(clause)
        return scores

    def rank_order(self, query: Query) -> np.ndarray:
        scores = self.query_scores(query)
        return np.lexsort((self.index.id_rank, -scores))


def rank_videos(scorer: ClauseScorer, query: Query, relevant_ids: Sequence[str]) -> list[int]:
    """1-based ranks of `relevant_ids` in the scorer's whole pool ranked by
    rel, ties by ascending video_id; an unknown id raises KeyError."""
    index = scorer.index
    if index.n_docs == 0:
        raise ValueError("cannot rank an empty video pool")
    rel_idx = np.array([index.doc_idx(v) for v in relevant_ids], dtype=np.int64)
    return relevant_ranks(scorer.query_scores(query)[None, :], rel_idx, index.id_rank)[0].tolist()


# ---------------------------------------------------------------------------
# Hill-climbing filter

@dataclass
class FilterTrace:
    clauses: list[str]  # accepted step clauses, in acceptance order
    accepted_costs: list[float]  # baseline cost first, then each accepted cost
    rounds: int


def hill_climb(
    goal_text: str,
    candidates: Sequence[str],
    cost_fn: Callable[[list[list[str]]], Sequence[float]],
    cap: int = DEFAULT_CAP,
) -> FilterTrace:
    """Greedy clause selection.

    Start from [goal]. Each round, evaluate the cost of adding every unused
    candidate, take the cheapest (first one wins ties), and accept it only if
    it strictly beats the best cost so far; otherwise, or when no candidate
    is left, stop. At most min(n, cap) + 1 rounds run.

    `cost_fn` takes a list of clause lists and returns their costs: it is
    called once for the baseline [[goal]] and once per round with every
    trial of that round, which all share the accepted clauses.
    """
    best_query = [goal_text]
    accepted = [cost_fn([best_query])[0]]
    for rounds in range(1, min(len(candidates), cap) + 2):
        trials = [best_query + [cand] for cand in candidates if cand not in best_query]
        if not trials:
            break
        costs = cost_fn(trials)
        best = min(range(len(trials)), key=costs.__getitem__)
        if not costs[best] < accepted[-1]:
            break
        best_query = trials[best]
        accepted.append(costs[best])
    return FilterTrace(clauses=best_query[1:], accepted_costs=accepted, rounds=rounds)


def make_cost_fn(
    index: TextIndex,
    relevant_ids: Sequence[str],
    w_g: float,
    w_s: float,
    kind: str = COST_KINDS[0],
) -> Callable[[list[list[str]]], list[float]]:
    """Costs of clause lists over a set of relevant videos.

    The returned function scores one round: it takes trials, clause lists
    (goal first) that share all but their last clause (their head), and
    returns one cost per trial; mixed heads raise ValueError. mean_rank:
    average rank of the relevant videos in the full-pool ranking (lower is
    better). neg_recall50: negative fraction ranked in the top 50.
    """
    if kind not in COST_KINDS:
        raise ValueError(f"unknown cost kind {kind!r}")
    if not relevant_ids:
        raise ValueError("cost function needs at least one relevant video")
    scorer = ClauseScorer(index)
    rel_idx = np.array([index.doc_idx(v) for v in relevant_ids], dtype=np.int64)

    def costs(trials: list[list[str]]) -> list[float]:
        # weight * last clause + head: query_scores' sum bit for bit, as addition commutes
        if not trials:
            return []
        head = trials[0][:-1]
        if any(clauses[:-1] != head for clauses in trials):
            raise ValueError("the trials of one cost call must share all but their last clause")
        block = np.stack([scorer.clause_scores(clauses[-1]) for clauses in trials])
        block *= w_s if head else w_g  # the bare goal has no head
        if head:
            block += scorer.query_scores(Query("", head[0], tuple(head[1:]), w_g, w_s, ""))
        ranks = relevant_ranks(block, rel_idx, index.id_rank)
        if kind == "mean_rank":
            return (ranks.sum(axis=1) / len(rel_idx)).tolist()
        return (-((ranks <= 50).sum(axis=1) / len(rel_idx))).tolist()

    return costs


def filter_steps(
    query: Query,
    train_video_ids: Sequence[str],
    index: TextIndex,
    cap: int = DEFAULT_CAP,
    cost_kind: str = COST_KINDS[0],
) -> Query:
    """`query` with only the steps that the hill climb over the goal's
    training videos accepts, in acceptance order, under the query's weights."""
    if not train_video_ids:
        raise ValueError(f"goal {query.goal_id!r} has no training videos to filter against")
    cost_fn = make_cost_fn(index, train_video_ids, query.w_g, query.w_s, kind=cost_kind)
    trace = hill_climb(query.goal_text, query.steps, cost_fn, cap=cap)
    return replace(query, steps=tuple(trace.clauses))


# ---------------------------------------------------------------------------
# Metrics

@dataclass
class VRMetrics:
    recall: dict[int, float]
    precision: dict[int, float]
    mean_rank: float


def vr_metrics(ranks: Mapping[str, Sequence[int]], ns: Sequence[int]) -> VRMetrics:
    """Mean recall@N, precision@N, and mean rank over goals.

    `ranks` maps each goal g to the full-pool ranks of its relevant set V_g
    (from `rank_videos`): recall@N averages |{v in V_g : r(v) <= N}| / |V_g|,
    precision@N averages the same count over N, MR averages the mean rank of
    V_g.
    """
    goals = sorted(ranks)
    if not goals:
        raise ValueError("no goals to evaluate")
    for goal_id in goals:
        if not ranks[goal_id]:
            raise ValueError(f"goal {goal_id!r} has an empty relevant set")

    def mean(terms: list[float]) -> float:  # left to right: `sum` compensates from Python 3.12
        return reduce(add, terms, 0.0) / len(terms)
    within = {n: [sum(1 for r in ranks[g] if r <= n) for g in goals] for n in ns}
    return VRMetrics(
        recall={n: mean([w / len(ranks[g]) for w, g in zip(within[n], goals)]) for n in ns},
        precision={n: mean([w / n for w in within[n]]) for n in ns},
        mean_rank=mean([sum(ranks[g]) / len(ranks[g]) for g in goals]),
    )


def write_queries(path: str | Path, queries: Sequence[Query]) -> None:
    payload = [
        {
            "goal_id": q.goal_id,
            "goal": q.goal_text,
            "steps": list(q.steps),
            "w_g": q.w_g,
            "w_s": q.w_s,
            "level": q.level,
        }
        for q in queries
    ]
    write_json(path, payload)


def read_queries(path: str | Path) -> list[Query]:
    """Read queries.json as written by `write_queries`.

    Raises DataError, naming the path and the 1-based item number, for
    malformed JSON, a payload that is not a list, an item that is not an
    object, a missing field, a non-string goal id, goal or step, a weight
    that is not a finite number, a level outside L0/L1/FIL_L1/FIL_L2 or
    other than item 1's, and a goal id that an earlier item already has.
    """
    payload = read_json(path)
    if not isinstance(payload, list):
        raise DataError(f"{path}: queries must be a JSON list")
    queries = []
    seen = set()
    for i, item in enumerate(payload, 1):
        where = f"{path}: item {i}"
        if not isinstance(item, dict):
            raise DataError(f"{where}: query must be a JSON object")
        for key in ("goal_id", "goal", "steps", "w_g", "w_s", "level"):
            if key not in item:
                raise DataError(f"{where}: missing field {key!r}")
        if not (isinstance(item["goal_id"], str) and isinstance(item["goal"], str)):
            raise DataError(f"{where}: goal_id and goal must be strings")
        steps = item["steps"]
        if not (isinstance(steps, list) and all(isinstance(step, str) for step in steps)):
            raise DataError(f"{where}: steps must be a list of strings")
        weights = (item["w_g"], item["w_s"])
        if not all(type(w) in (int, float) and math.isfinite(w) for w in weights):
            raise DataError(f"{where}: w_g and w_s must be finite numbers")
        if item["level"] not in LEVELS:
            raise DataError(f"{where}: unknown level {item['level']!r}")
        if queries and item["level"] != queries[0].level:
            raise DataError(f"{where}: level {item['level']!r} differs "
                            f"from item 1's {queries[0].level!r}")
        if item["goal_id"] in seen:
            raise DataError(f"{where}: duplicate goal_id {item['goal_id']!r}")
        seen.add(item["goal_id"])
        queries.append(Query(
            goal_id=item["goal_id"],
            goal_text=item["goal"],
            steps=tuple(steps),
            w_g=item["w_g"],
            w_s=item["w_s"],
            level=item["level"],
        ))
    return queries

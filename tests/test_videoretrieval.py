import json
import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus
from prockb import videoretrieval
from prockb.corpus import normalize_text
from prockb.errors import DataError
from prockb.videoretrieval import (
    FIL_L1,
    FIL_L2,
    L0,
    L1,
    ClauseScorer,
    FilterTrace,
    Query,
    VideoDoc,
    build_video_index,
    filter_steps,
    hill_climb,
    load_videos,
    make_cost_fn,
    make_query,
    rank_videos,
    read_queries,
    relevant_ranks,
    split_videos,
    vr_metrics,
    write_queries,
)
from reference import bm25

RECIPE_RECORDS = [
    {
        "id": "fries",
        "title": "Make Avocado Fries",
        "steps": [
            {"id": "fr_s0", "text": "preheat the oven"},
            {"id": "fr_s1", "text": "peel and pit the avocados"},
            {"id": "fr_s2", "text": "bake until golden"},
        ],
    },
    {
        "id": "peel",
        "title": "peel and pit the avocados",
        "steps": [
            {"id": "pe_s0", "text": "cut the avocado in half"},
            {"id": "pe_s1", "text": "remove the stone"},
        ],
    },
]


def toy_videos():
    return [
        VideoDoc("v1", "fries", "bake the avocado wedges until golden and enjoy"),
        VideoDoc("v2", "fries", "dip the wedges into the egg and breadcrumbs"),
        VideoDoc("v3", "peel", "cut the avocado in half and remove the stone"),
        VideoDoc("v4", "peel", "use a spoon to scoop the flesh"),
    ]


def rel(videos, query, video_id):
    """Weighted BM25 relevance of one video against a multi-clause query,
    from the reference BM25 of the captions as `build_video_index` reads them."""
    docs = [(v.video_id, normalize_text(v.caption)) for v in videos]
    total = query.w_g * bm25(docs, query.goal_text)[video_id]
    for clause in query.steps:
        total += query.w_s * bm25(docs, clause)[video_id]
    return total


def test_load_videos(tmp_path):
    path = tmp_path / "videos.jsonl"
    rows = [
        {"video_id": "v1", "goal_id": "g1", "caption": "hello  world"},
        {"video_id": "v2", "goal_id": "g1", "caption": "again cafe\u0301"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    videos = load_videos(path)
    assert len(videos) == 2
    # whitespace is collapsed, and text NFC-normalised, as captions are indexed
    collapsed = [VideoDoc("v1", "g1", "hello world"), VideoDoc("v2", "g1", "again caf\u00e9")]
    assert build_video_index(videos).to_json() == build_video_index(collapsed).to_json()


def test_load_videos_validation(tmp_path):
    path = tmp_path / "videos.jsonl"
    path.write_text('{"video_id": "v1", "goal_id": "g"}\n')
    with pytest.raises(DataError, match="caption"):
        load_videos(path)
    path.write_text(
        '{"video_id": "v1", "goal_id": "g", "caption": "a"}\n'
        '{"video_id": "v1", "goal_id": "g", "caption": "b"}\n'
    )
    with pytest.raises(DataError, match="duplicate"):
        load_videos(path)


def test_split_videos_ratios():
    videos = [VideoDoc(f"v{i:03d}", "g1", "cap") for i in range(40)]
    splits = split_videos(videos)
    train, dev, test = (splits[name]["g1"] for name in ("train", "dev", "test"))
    assert len(train) == 30
    assert len(dev) == 5
    assert len(test) == 5
    union = set(train) | set(dev) | set(test)
    assert union == {v.video_id for v in videos}
    assert not set(train) & set(dev)


def test_split_videos_deterministic():
    videos = [VideoDoc(f"v{i}", f"g{i % 3}", "cap") for i in range(24)]
    a = split_videos(videos)
    b = split_videos(videos)
    assert a == b


OWN_STEPS = ("preheat the oven", "peel and pit the avocados", "bake until golden")


@pytest.mark.parametrize("level, steps, weights", [
    (L0, (), (1.0, 0.0)),
    (L1, OWN_STEPS + ("preheat the oven",), (1.0, 0.1)),
    (FIL_L1, OWN_STEPS, (1.0, 0.5)),
    (FIL_L2, OWN_STEPS + ("cut the avocado in half", "remove the stone"), (1.0, 0.5)),
], ids=[L0, L1, FIL_L1, FIL_L2])
def test_make_query_levels(level, steps, weights):
    """"fries" repeats its first step last. Its middle step is linked into
    the KB; the others link to UNLINKABLE and to a goal outside the corpus."""
    fries = {**RECIPE_RECORDS[0],
             "steps": RECIPE_RECORDS[0]["steps"] + [{"id": "fr_s3", "text": "preheat the oven"}]}
    corpus = make_corpus([fries, RECIPE_RECORDS[1]])
    links = {"fr_s0": "UNLINKABLE", "fr_s1": "peel", "fr_s2": "ghost"}
    query = make_query(corpus, "fries", level, links=links)
    assert query == Query("fries", "Make Avocado Fries", steps, *weights, level)
    if level == FIL_L2:
        with pytest.raises(ValueError, match="link map"):
            make_query(corpus, "fries", level)
    else:
        assert make_query(corpus, "fries", level) == query
    with pytest.raises(ValueError, match="unknown query level"):
        make_query(corpus, "fries", level.lower())


def test_rel_l0_is_plain_bm25():
    """query_scores, the one rel of the package, of an L0 query is the goal
    text's BM25."""
    index = build_video_index(toy_videos())
    query = Query("fries", "bake the avocado", (), w_g=1.0, w_s=0.0, level=L0)
    scores = ClauseScorer(index).query_scores(query)
    assert scores.tobytes() == index.score_all("bake the avocado").tobytes()
    for vid in ("v1", "v2", "v3", "v4"):
        assert scores[index.doc_idx(vid)] == rel(toy_videos(), query, vid)


def test_rel_weighted_sum():
    index = build_video_index(toy_videos())
    docs = [(v.video_id, normalize_text(v.caption)) for v in toy_videos()]
    goal_text, step_text = "bake the avocado", "remove the stone"
    query = Query("fries", goal_text, (step_text,), w_g=1.0, w_s=0.1, level=L1)
    scores = ClauseScorer(index).query_scores(query)
    for vid in ("v1", "v3"):
        expected = bm25(docs, goal_text)[vid] + 0.1 * bm25(docs, step_text)[vid]
        assert scores[index.doc_idx(vid)] == pytest.approx(expected, rel=1e-12)


def test_zero_overlap_clause_changes_nothing():
    scorer = ClauseScorer(build_video_index(toy_videos()))
    base = Query("fries", "bake the avocado", (), w_g=1.0, w_s=0.5, level=L0)
    noisy = Query("fries", "bake the avocado", ("zzz qqq",), w_g=1.0, w_s=0.5, level=L1)
    assert scorer.query_scores(base).tobytes() == scorer.query_scores(noisy).tobytes()


def test_rank_videos_single_and_ties():
    single = build_video_index(toy_videos()[:1])
    query = Query("g", "anything", (), 1.0, 0.0, L0)
    assert rank_videos(ClauseScorer(single), query, ["v1"]) == [1]

    index = build_video_index(toy_videos())
    query = Query("g", "zzz", (), 1.0, 0.0, L0)
    scorer = ClauseScorer(index)
    assert rank_videos(scorer, query, ["v1", "v2", "v3", "v4"]) == [1, 2, 3, 4]
    assert all(score == 0.0 for score in scorer.query_scores(query))


def test_rank_videos_matches_brute_force():
    rng = random.Random(17)
    vocab = [f"w{i}" for i in range(18)]
    videos = [
        VideoDoc(f"v{i:02d}", "g", " ".join(rng.choices(vocab, k=rng.randint(1, 10))))
        for i in range(50)
    ]
    index = build_video_index(videos)
    query = Query("g", "w1 w2 w3", ("w4 w5", "w6"), w_g=1.0, w_s=0.5, level=L1)
    brute = sorted(
        ((v.video_id, rel(videos, query, v.video_id)) for v in videos),
        key=lambda item: (-item[1], item[0]),
    )
    ranks = rank_videos(ClauseScorer(index), query, [v for v, _ in brute])
    assert ranks == list(range(1, len(brute) + 1))


def test_rank_videos_empty_pool():
    empty = build_video_index([])
    with pytest.raises(ValueError, match="empty"):
        rank_videos(ClauseScorer(empty), Query("g", "x", (), 1.0, 0.0, L0), [])


def test_ranking_unknown_video():
    index = build_video_index(toy_videos())
    with pytest.raises(KeyError, match="ghost"):
        rank_videos(ClauseScorer(index), Query("g", "avocado", (), 1.0, 0.0, L0), ["v1", "ghost"])


@st.composite
def tied_scores(draw):
    """A block of 1-5 rows of scores over 1-40 docs, drawn from a few
    distinct values (0.0 and -0.0 always among them), a random id order and
    a set of relevant docs (sometimes all)."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    values = [0.0, -0.0] + draw(st.lists(st.floats(-5, 5, allow_nan=False), max_size=3))
    scores = np.array(draw(st.lists(st.sampled_from(values), min_size=m * n, max_size=m * n)))
    id_rank = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    if draw(st.booleans()):
        rel_idx = np.arange(n)
    else:
        rel_idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                         unique=True)), dtype=np.int64)
    return scores.reshape(m, n), rel_idx, id_rank


@settings(max_examples=300, deadline=None)
@given(tied_scores(), st.sampled_from([1, 45, videoretrieval.TIE_CELLS]))
def test_relevant_ranks_match_full_lexsort(case, tie_cells):
    """Small tie budgets make the tied entries be counted in several chunks."""
    scores, rel_idx, id_rank = case
    with mock.patch.object(videoretrieval, "TIE_CELLS", tie_cells):
        got = relevant_ranks(scores, rel_idx, id_rank)
    assert got.shape == (len(scores), len(rel_idx))
    for row, got_row in zip(scores, got):  # each row against its own lexsort
        ranks = np.empty(len(row), dtype=np.int64)
        ranks[np.lexsort((id_rank, -row))] = np.arange(1, len(row) + 1)
        assert got_row.tolist() == ranks[rel_idx].tolist()


def test_relevant_ranks_all_zero_and_single_doc():
    id_rank = np.array([2, 0, 3, 1])
    assert relevant_ranks(np.zeros((1, 4)), np.arange(4), id_rank).tolist() == [[3, 1, 4, 2]]
    assert relevant_ranks(np.zeros((1, 1)), np.array([0]), np.array([0])).tolist() == [[1]]
    signed = np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, 1.0, -0.0, 0.0]])
    assert relevant_ranks(signed, np.arange(4), id_rank).tolist() == [[3, 1, 4, 2], [3, 1, 4, 2]]


def lexsort_cost_fn(index, relevant_ids, w_g, w_s, kind):
    """Reference cost: rank the whole pool with a two-key lexsort per trial
    and read off the relevant videos' ranks."""
    scorer = ClauseScorer(index)
    rel_idx = np.array([index.doc_idx(v) for v in relevant_ids], dtype=np.int64)

    def cost(clauses):
        query = Query("", clauses[0], tuple(clauses[1:]), w_g=w_g, w_s=w_s, level="")
        ranks = np.empty(index.n_docs, dtype=np.int64)
        ranks[scorer.rank_order(query)] = np.arange(1, index.n_docs + 1)
        rel_ranks = ranks[rel_idx]
        if kind == "mean_rank":
            return float(rel_ranks.mean())
        return -float((rel_ranks <= 50).sum() / len(rel_ranks))

    return cost


def one_at_a_time(cost):
    """A batch cost function from a cost of one clause list."""
    return lambda trials: [cost(clauses) for clauses in trials]


WORDS = ["oven", "bake", "peel", "stone", "wedge", "golden"]
phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)


@st.composite
def filter_cases(draw):
    """A small, tie-heavy video pool with 60+ videos (so neg_recall50 sees
    ranks past 50), candidates with duplicates, and sometimes a goal equal
    to a candidate."""
    n = draw(st.integers(55, 70))
    captions = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join),
                             min_size=n, max_size=n))
    videos = [VideoDoc(f"v{i:03d}", "g", caption) for i, caption in enumerate(captions)]
    relevant = draw(st.lists(st.sampled_from([v.video_id for v in videos]), min_size=1,
                             max_size=8, unique=True))
    candidates = draw(st.lists(phrases, max_size=6))
    if candidates and draw(st.booleans()):
        candidates.append(candidates[0])
    goal = draw(st.sampled_from(candidates)) if candidates and draw(st.booleans()) else draw(phrases)
    return videos, relevant, candidates, goal


@settings(max_examples=60, deadline=None)
@given(filter_cases(), st.sampled_from(["mean_rank", "neg_recall50"]), st.integers(0, 3),
       st.lists(st.lists(st.sampled_from(WORDS + ["zzz"]), min_size=1, max_size=4),
                max_size=6))
def test_filter_matches_full_lexsort_cost(case, kind, cap, trials):
    videos, relevant, candidates, goal = case
    index = build_video_index(videos)
    cost_fn = make_cost_fn(index, relevant, 1.0, 0.5, kind=kind)
    reference = lexsort_cost_fn(index, relevant, 1.0, 0.5, kind)
    # any call order; one call is one round, whose trials share their head
    for clauses in trials:
        assert cost_fn([clauses]) == [reference(clauses)]
        round_trials = [clauses[:-1] + [word] for word in WORDS + ["zzz"]]
        assert cost_fn(round_trials) == [reference(trial) for trial in round_trials]
    if len({tuple(clauses[:-1]) for clauses in trials}) > 1:
        with pytest.raises(ValueError, match="share"):
            cost_fn(trials)
    else:  # also the empty call
        assert cost_fn(trials) == [reference(clauses) for clauses in trials]

    trace = hill_climb(goal, candidates, make_cost_fn(index, relevant, 1.0, 0.5, kind=kind), cap)
    expected = hill_climb(goal, candidates, one_at_a_time(reference), cap)
    assert trace == expected
    pool = Query("g", goal, tuple(candidates), 1.0, 0.5, FIL_L1)
    query = filter_steps(pool, relevant, index, cap=cap, cost_kind=kind)
    assert query == Query("g", goal, tuple(expected.clauses), 1.0, 0.5, FIL_L1)


@st.composite
def ranking_cases(draw):
    """A 40-70-video pool whose captions use 1-4 distinct words, so many
    scores tie, ids in shuffled order, a multi-clause query and the relevant
    videos: the whole pool or a subset."""
    words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(40, 70))
    captions = draw(st.lists(st.lists(st.sampled_from(words), max_size=4).map(" ".join),
                             min_size=n, max_size=n))
    ids = draw(st.permutations([f"v{i:03d}" for i in range(n)]))
    videos = [VideoDoc(vid, "g", caption) for vid, caption in zip(ids, captions)]
    steps = tuple(draw(st.lists(phrases, max_size=3)))
    query = Query("g", draw(phrases), steps, 1.0, draw(st.sampled_from([0.0, 0.1, 0.5])), L1)
    if draw(st.booleans()):
        relevant = list(ids)
    else:
        relevant = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n, unique=True))
    return videos, query, relevant


@settings(max_examples=100, deadline=None)
@given(ranking_cases())
def test_rank_videos_match_rank_order(case):
    videos, query, relevant = case
    index = build_video_index(videos)
    scorer = ClauseScorer(index)
    ranks = np.empty(index.n_docs, dtype=np.int64)
    ranks[scorer.rank_order(query)] = np.arange(1, index.n_docs + 1)
    got = rank_videos(scorer, query, relevant)
    assert got == [int(ranks[index.doc_idx(v)]) for v in relevant]
    assert all(type(r) is int for r in got)
    with pytest.raises(KeyError, match="ghost"):
        rank_videos(scorer, query, relevant + ["ghost"])


# ---------------------------------------------------------------------------
# Hill climbing

def filter_fixture():
    """Goal whose training captions contain a token found nowhere else."""
    videos = [
        VideoDoc("zz1", "tg", "zebra quortex cooking fun"),
        VideoDoc("zz2", "tg", "zebra quortex kitchen time"),
        VideoDoc("zz3", "tg", "quortex zebra utensils"),
        VideoDoc("aa1", "other", "alpha beta gamma"),
        VideoDoc("aa2", "other", "alpha beta delta"),
        VideoDoc("aa3", "other", "epsilon zeta eta"),
    ]
    index = build_video_index(videos)
    train = ["zz1", "zz2", "zz3"]
    candidates = ["alpha beta", "zebra quortex session", "gamma delta"]
    return index, train, candidates


def test_hill_climb_picks_unique_signal_first():
    index, train, candidates = filter_fixture()
    cost_fn = make_cost_fn(index, train, w_g=1.0, w_s=0.5)
    # oracle: evaluate every single-step addition by hand
    single_costs = cost_fn([["locate the target", c] for c in candidates])
    best = candidates[min(range(len(candidates)), key=lambda i: single_costs[i])]
    assert best == "zebra quortex session"

    trace = hill_climb("locate the target", candidates, cost_fn)
    assert trace.clauses[0] == best
    assert all(a > b for a, b in zip(trace.accepted_costs, trace.accepted_costs[1:]))
    assert trace.accepted_costs[-1] <= trace.accepted_costs[0]
    assert trace.accepted_costs[-1] == 2.0  # train videos at ranks 1, 2, 3


def test_hill_climb_no_improvement_keeps_goal_only():
    index, train, _ = filter_fixture()
    cost_fn = make_cost_fn(index, train, w_g=1.0, w_s=0.5)
    trace = hill_climb("zebra quortex", ["unrelated words", "gamma delta"], cost_fn)
    assert trace.clauses == []
    assert len(trace.accepted_costs) == 1


def test_hill_climb_addition_cap():
    candidates = [f"clause {i}" for i in range(40)]
    trace = hill_climb("goal", candidates, cost_fn=one_at_a_time(lambda clauses: -len(clauses)))
    assert len(trace.clauses) == min(40, 15) + 1  # loop runs min(n, cap)+1 rounds


def test_hill_climb_fewer_candidates_than_cap():
    candidates = [f"clause {i}" for i in range(3)]
    trace = hill_climb("goal", candidates, cost_fn=one_at_a_time(lambda clauses: -len(clauses)))
    assert len(trace.clauses) == 3  # exhausts the pool, then stops


def per_trial_hill_climb(goal_text, candidates, cost, cap):
    """The hill climb as one cost call per trial: the reference for the
    batched `hill_climb`."""
    best_query = [goal_text]
    min_cost = cost(best_query)
    accepted = [min_cost]
    r = min(len(candidates), cap)
    rounds = 0
    while r >= 0:
        rounds += 1
        in_cost = math.inf
        in_query = None
        for cand in candidates:
            if cand in best_query:
                continue
            trial = best_query + [cand]
            trial_cost = cost(trial)
            if trial_cost < in_cost:
                in_cost = trial_cost
                in_query = trial
        if in_cost < min_cost and in_query is not None:
            min_cost = in_cost
            best_query = in_query
            accepted.append(min_cost)
        else:
            break
        r -= 1
    return FilterTrace(clauses=best_query[1:], accepted_costs=accepted, rounds=rounds)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from("abcdef"), max_size=8), st.sampled_from("abcdefg"),
       st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_hill_climb_matches_per_trial_loop(candidates, goal, cap, seed):
    """Costs come from a few values, so trials of one round often tie and
    the first of them must win; candidates repeat and may equal the goal."""

    def cost(clauses):
        return random.Random(f"{seed}:{clauses}").choice([-1.0, 0.0, 0.5, 1.0])

    calls = []

    def batch(trials):
        calls.append(trials)
        return [cost(clauses) for clauses in trials]

    trace = hill_climb(goal, candidates, batch, cap)
    assert trace == per_trial_hill_climb(goal, candidates, cost, cap)
    # One call for the baseline, then one per round that had a trial to make.
    assert calls[0] == [[goal]]
    for trials in calls[1:]:
        head = trials[0][:-1]
        assert head == [goal] + trace.clauses[: len(head) - 1]
        assert trials == [head + [c] for c in candidates if c not in head]
    assert len(calls) - 1 in (trace.rounds, trace.rounds - 1)


def test_filter_steps_returns_query():
    """The filtered query keeps the pool's goal, weights and level, and
    climbs under the pool's weights."""
    index, train, candidates = filter_fixture()
    pool = Query("tg", "locate the target", tuple(candidates), 2.0, 0.25, FIL_L2)
    query = filter_steps(pool, train, index)
    trace = hill_climb(pool.goal_text, candidates, make_cost_fn(index, train, 2.0, 0.25))
    assert query == replace(pool, steps=tuple(trace.clauses))
    assert "zebra quortex session" in query.steps
    # under a step weight of 0 no step moves a score, so none is accepted
    assert filter_steps(replace(pool, w_s=0.0), train, index).steps == ()
    with pytest.raises(ValueError, match="training videos"):
        filter_steps(pool, [], index)


def test_cost_fn_kinds():
    index, train, _ = filter_fixture()
    mean_rank = make_cost_fn(index, train, 1.0, 0.5, kind="mean_rank")
    neg_recall = make_cost_fn(index, train, 1.0, 0.5, kind="neg_recall50")
    clauses = ["zebra quortex"]
    assert mean_rank([clauses]) == [2.0]
    assert neg_recall([clauses]) == [-1.0]
    # one call is one round: its trials share all but their last clause
    with pytest.raises(ValueError, match="share"):
        mean_rank([["zebra quortex"], ["zebra quortex", "alpha beta"]])
    assert mean_rank([]) == neg_recall([]) == []
    with pytest.raises(ValueError, match="cost"):
        make_cost_fn(index, train, 1.0, 0.5, kind="mystery")


# ---------------------------------------------------------------------------
# Metrics

def ranks_in(ordered_ids, relevant):
    return [ordered_ids.index(v) + 1 for v in relevant]


def test_vr_metrics_single_goal():
    metrics = vr_metrics({"g": ranks_in(["a", "b", "c", "d"], ["a", "c"])}, ns=[1])
    assert metrics.recall[1] == 0.5
    assert metrics.precision[1] == 1.0
    assert metrics.mean_rank == 2.0


def test_vr_metrics_full_pool_gold():
    pool = [f"v{i}" for i in range(8)]
    metrics = vr_metrics({"g": ranks_in(pool, pool)}, ns=[1, 4, 8])
    assert all(metrics.precision[n] == 1.0 for n in (1, 4, 8))
    assert metrics.recall[8] == 1.0


def test_vr_metrics_empty_gold():
    with pytest.raises(ValueError, match="empty"):
        vr_metrics({"g": ranks_in(["a"], [])}, ns=[1])


def test_queries_json_round_trip(tmp_path):
    queries = [
        Query("g1", "goal one", ("s1", "s2"), 1.0, 0.5, FIL_L1),
        Query("g2", "goal two", (), 1.0, 0.0, FIL_L1),
    ]
    path = tmp_path / "queries.json"
    write_queries(path, queries)
    assert read_queries(path) == queries


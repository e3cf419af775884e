"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import from_lists, identity_records, make_corpus, one_list, one_loss, score_list, vector_table
from prockb.corpus import UNLINKABLE, corpus_from_records
from prockb.embedding import embed_corpus
from prockb.hierarchy import LinkPipeline, expand, tree_to_dict
from prockb.linkeval import recall_report, split_links
from prockb.rerank import (
    LexicalFeatureSource,
    RerankModel,
    TableFeatureSource,
    make_training_examples,
    new_model,
    train,
)
from prockb.retrieval import build_index, retrieve_all, topk
from prockb.textsearch import TextIndex
from prockb.videoretrieval import (
    FIL_L1,
    L0,
    L1,
    ClauseScorer,
    VideoDoc,
    build_video_index,
    filter_steps,
    hill_climb,
    make_cost_fn,
    make_query,
    rank_videos,
    split_videos,
    vr_metrics,
)
from reference import bm25, cosine


@contextmanager
def criterion(name: str, limit_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit_s is not None and elapsed > limit_s:
        print(f"{name}: FAIL (took {elapsed:.1f}s, limit {limit_s:.0f}s)")
        raise AssertionError(f"{name} exceeded runtime limit: {elapsed:.1f}s > {limit_s}s")
    print(f"{name}: PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A1  End-to-end linking sanity

def test_a1_end_to_end_linking_sanity():
    with criterion("A1 end-to-end linking sanity", limit_s=30):
        records, gold = identity_records(50)
        corpus = make_corpus(records)
        store = embed_corpus(corpus, dim=64, seed=7)
        index = build_index(store, corpus.goal_ids())
        lists = retrieve_all(index, store, corpus.steps(), k=30)

        split = split_links(gold)

        source = LexicalFeatureSource(corpus)
        train_examples = make_training_examples(lists, split["train"])
        dev_examples = make_training_examples(lists, split["dev"])
        result = train(
            new_model(7, lam=1.0),
            train_examples,
            source,
            lr=1.0,
            epochs=10,
            batch_size=8,
            seed=0,
            dev_examples=dev_examples,
        )

        assert recall_report(score_list(result.model, lists, source), gold, [1]) == {1: 1.0}


# ---------------------------------------------------------------------------
# A2  Retrieval exactness

def test_a2_retrieval_exactness():
    with criterion("A2 retrieval exactness", limit_s=10):
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            vectors = {f"g{i:03d}": rng.normal(size=16) for i in range(200)}
            store = vector_table(16, vectors)
            index = build_index(store, vectors.keys())
            for _ in range(50):
                query = rng.normal(size=16)
                rows, _ = topk(index, query, k=10)
                oracle = sorted(
                    ((g, cosine(v, query)) for g, v in vectors.items()),
                    key=lambda item: (-item[1], item[0]),
                )[:10]
                assert [index.ids[r] for r in rows] == [g for g, _ in oracle]


# ---------------------------------------------------------------------------
# A3  Gradient correctness

def _fd_loss(model, example):
    return one_loss(model, *example)[0]


def _central_diff(f, x, h=1e-5):
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        delta = np.zeros_like(x)
        delta[i] = h
        grad[i] = (f(x + delta) - f(x - delta)) / (2 * h)
    return grad


def _rel_err(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(a) + np.linalg.norm(b)), 1e-8)


def test_a3_gradient_correctness():
    with criterion("A3 gradient correctness"):
        rng = np.random.default_rng(33)
        dim = 8
        for trial in range(20):
            unlinkable = trial % 2 == 1
            m = int(rng.integers(2, 7))
            sim1s = rng.uniform(-1, 1, size=m)
            slot = m if unlinkable and rng.uniform() < 0.4 else int(rng.integers(0, m))
            feats = rng.normal(size=(m, dim))
            example = (feats, sim1s, slot)
            model = RerankModel(
                w=rng.normal(size=dim),
                lam=float(rng.normal()),
                unlinkable_feat=rng.normal(size=dim) if unlinkable else None,
            )
            _, grad = one_loss(model, *example)

            def loss_w(w):
                return _fd_loss(RerankModel(w, model.lam, model.unlinkable_feat), example)

            def loss_lam(lam_arr):
                return _fd_loss(
                    RerankModel(model.w, float(lam_arr[0]), model.unlinkable_feat), example
                )

            assert _rel_err(grad.w, _central_diff(loss_w, model.w)) < 1e-4
            fd_lam = _central_diff(loss_lam, np.array([model.lam]))
            assert _rel_err(grad.lam, fd_lam) < 1e-4
            if unlinkable:

                def loss_u(u):
                    return _fd_loss(RerankModel(model.w, model.lam, u), example)

                assert _rel_err(grad.unlinkable_feat, _central_diff(loss_u, model.unlinkable_feat)) < 1e-4


# ---------------------------------------------------------------------------
# A4  Loss anchors

def test_a4_loss_anchors():
    with criterion("A4 loss anchors"):
        for m, unlinkable in ((2, False), (10, False), (30, True)):
            feats = np.zeros((m, 8))
            model = new_model(8, lam=0.0, unlinkable=unlinkable)
            expected = math.log(m + 1 if unlinkable else m)
            assert abs(one_loss(model, feats, np.zeros(m), 0)[0] - expected) < 1e-9

        # placeholder sim1 equals the list minimum on every scored step
        rng = np.random.default_rng(44)
        model = new_model(8, lam=0.3, unlinkable=True)
        for step in range(25):
            m = int(rng.integers(1, 12))
            goal_ids = [f"g{i:02d}" for i in range(m)]
            sim1s = rng.uniform(-1, 1, size=m)
            table = TableFeatureSource(
                vector_table(8, {(f"s{step}", g): rng.normal(size=8) for g in goal_ids})
            )
            scored = score_list(model, one_list(f"s{step}", goal_ids, sim1s), table)
            assert scored.goal_ids.count(UNLINKABLE) == 1
            assert scored.sim1[scored.goal_ids.index(UNLINKABLE)] == sim1s.min()


# ---------------------------------------------------------------------------
# A5  Reranker learning

def _separable(n, dim, m, seed, prefix):
    rng = np.random.default_rng(seed)
    step_ids, goal_ids, table = [], [], {}
    for i in range(n):
        step_id = f"{prefix}{i:03d}"
        goals = []
        for j in range(m - 1):
            gid = f"{step_id}_a{j}"
            table[(step_id, gid)] = np.concatenate([[1.0, 0.0], rng.normal(0, 0.1, dim - 2)])
            goals.append(gid)
        gold = f"{step_id}_zz"  # sorts last: untrained tie-break never picks it
        table[(step_id, gold)] = np.concatenate([[1.0, 1.0], rng.normal(0, 0.1, dim - 2)])
        goals.append(gold)
        step_ids.append(step_id)
        goal_ids.append(goals)
    return (from_lists(step_ids, goal_ids, [[0.5] * m] * n), [m - 1] * n), table


def _recall1(model, examples, source):
    lists, slots = examples
    scored = score_list(model, lists, source)
    top = [scored.goal_ids[start] for start in scored.offsets[:-1].tolist()]
    return sum(goal.endswith("_zz") for goal in top) / len(slots)


def test_a5_reranker_learning():
    with criterion("A5 reranker learning"):
        train_ex, t1 = _separable(40, 8, 4, seed=0, prefix="tr")
        dev_ex, t2 = _separable(16, 8, 4, seed=1, prefix="dv")
        source = TableFeatureSource(vector_table(8, {**t1, **t2}))
        model = new_model(8, lam=0.0)

        assert _recall1(model, dev_ex, source) <= 0.5

        result = train(
            model, train_ex, source, lr=1.0, epochs=5, batch_size=8, seed=3,
            dev_examples=dev_ex,
        )
        dev_losses = [row.dev_loss for row in result.curve]
        assert len(dev_losses) == 5
        assert all(a > b for a, b in zip(dev_losses, dev_losses[1:]))
        assert _recall1(result.model, dev_ex, source) == 1.0


# ---------------------------------------------------------------------------
# A6  Identity-reranker property

def test_a6_identity_reranker():
    with criterion("A6 identity reranker"):
        records, _ = identity_records(30)
        corpus = make_corpus(records)
        store = embed_corpus(corpus, dim=32, seed=5)
        index = build_index(store, corpus.goal_ids())
        lists = retrieve_all(index, store, corpus.steps(), k=12)
        model = new_model(7, lam=1.0)  # W = 0
        scored = score_list(model, lists, LexicalFeatureSource(corpus))
        assert scored.goal_ids == lists.goal_ids
        assert scored.sim2.tolist() == lists.sim1.tolist()


# ---------------------------------------------------------------------------
# A7  BM25 correctness

def test_a7_bm25_correctness():
    with criterion("A7 BM25 correctness"):
        def score(index, query, doc_id):
            return index.score_all(query)[index.doc_idx(doc_id)]

        one = TextIndex([("d1", "a a b")])
        assert score(one, "a", "d1") == pytest.approx(0.39556284962119864, abs=1e-6)

        two = TextIndex([("d1", "stain the cabinet"), ("d2", "make fries")])
        assert two.avgdl == 2.5
        assert score(two, "cabinet", "d1") == pytest.approx(0.64072428455121, abs=1e-6)
        assert score(two, "fries", "d2") == pytest.approx(0.7549127709068711, abs=1e-6)

        rng = random.Random(70)
        vocab = [f"w{i}" for i in range(25)]
        for trial in range(5):
            docs = [
                (f"d{i:02d}", " ".join(rng.choices(vocab, k=rng.randint(1, 12))))
                for i in range(50)
            ]
            index = TextIndex(docs)
            for query in ("w1 w2 w3", "w4", "w0 w0"):
                got = index.ranked(query, 50)
                oracle = sorted(bm25(docs, query).items(), key=lambda item: (-item[1], item[0]))
                assert [d for d, _ in got] == [d for d, _ in oracle]


# ---------------------------------------------------------------------------
# A8  Hill-climbing filter contract

def test_a8_filter_contract():
    with criterion("A8 hill-climbing filter contract", limit_s=20):
        videos = [
            VideoDoc("zz1", "tg", "zebra quortex cooking fun"),
            VideoDoc("zz2", "tg", "zebra quortex kitchen time"),
            VideoDoc("zz3", "tg", "quortex zebra utensils"),
            VideoDoc("zz4", "tg", "zebra tools quortex"),
            VideoDoc("aa1", "o1", "alpha beta gamma"),
            VideoDoc("aa2", "o1", "alpha beta delta"),
            VideoDoc("aa3", "o2", "epsilon zeta eta"),
            VideoDoc("aa4", "o2", "theta iota kappa"),
        ]
        index = build_video_index(videos)
        train = ["zz1", "zz2", "zz3", "zz4"]
        candidates = ["alpha beta", "zebra quortex session", "gamma delta"]
        cost_fn = make_cost_fn(index, train, w_g=1.0, w_s=0.5)

        # the step whose tokens appear only in the training captions wins round 1
        singles = cost_fn([["locate the target", c] for c in candidates])
        oracle_first = candidates[min(range(len(candidates)), key=lambda i: singles[i])]
        assert oracle_first == "zebra quortex session"

        trace = hill_climb("locate the target", candidates, cost_fn)
        assert trace.clauses[0] == oracle_first
        costs = trace.accepted_costs
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert costs[-1] <= costs[0]
        assert len(trace.clauses) <= min(len(candidates), 15) + 1

        # loop bound: 40 always-improving candidates accept min(40, 15) + 1
        many = [f"clause {i}" for i in range(40)]
        bound_trace = hill_climb("goal", many,
                                 cost_fn=lambda trials: [-len(clauses) for clauses in trials])
        assert len(bound_trace.clauses) == 16
        assert all(
            a > b for a, b in zip(bound_trace.accepted_costs, bound_trace.accepted_costs[1:])
        )


# ---------------------------------------------------------------------------
# A9  Metric oracles

def _brute_force_metrics(ordered: dict[str, list[str]], gold: dict[str, list[str]], ns):
    """Straight transcription of the rank-based definitions, list scans only."""
    goals = sorted(gold)
    m = len(goals)
    recall, precision = {}, {}
    for n in ns:
        r_total, p_total = 0.0, 0.0
        for g in goals:
            count = 0
            for v in gold[g]:
                if ordered[g].index(v) + 1 <= n:
                    count += 1
            r_total += count / len(gold[g])
            p_total += count / n
        recall[n] = r_total / m
        precision[n] = p_total / m
    mr_total = 0.0
    for g in goals:
        mr_total += sum(ordered[g].index(v) + 1 for v in gold[g]) / len(gold[g])
    return recall, precision, mr_total / m


def test_a9_metric_oracles():
    with criterion("A9 metric oracles"):
        rng = random.Random(99)
        ns = [1, 10, 25, 50]
        for trial in range(100):
            pool = [f"v{i:03d}" for i in range(rng.randint(30, 80))]
            goals = [f"g{i}" for i in range(rng.randint(1, 6))]
            ordered, ranks, gold = {}, {}, {}
            for g in goals:
                perm = pool[:]
                rng.shuffle(perm)
                ordered[g] = perm
                gold[g] = rng.sample(pool, rng.randint(1, 12))
                position = {v: i + 1 for i, v in enumerate(perm)}
                ranks[g] = [position[v] for v in gold[g]]
            got = vr_metrics(ranks, ns)
            want_r, want_p, want_mr = _brute_force_metrics(ordered, gold, ns)
            assert got.recall == want_r
            assert got.precision == want_p
            assert got.mean_rank == want_mr
            values = [got.recall[n] for n in ns]
            assert all(a <= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# A10  Hierarchy safety

def _exact_match_pipeline(records):
    corpus = make_corpus(records)
    store = embed_corpus(corpus, dim=16, seed=0)
    index = build_index(store, corpus.goal_ids())
    w = np.zeros(7)
    w[5] = 10.0
    model = RerankModel(w=w, lam=0.0, k=5)
    source = LexicalFeatureSource(corpus)
    return LinkPipeline(corpus=corpus, index=index, store=store, model=model, features=source)


def test_a10_hierarchy_safety():
    with criterion("A10 hierarchy safety"):
        chain = [
            {"id": "A", "title": "Assemble a Desk",
             "steps": [{"id": "A_s0", "text": "Sand the Boards"}]},
            {"id": "B", "title": "Sand the Boards",
             "steps": [{"id": "B_s0", "text": "Vacuum the Dust"}]},
            {"id": "C", "title": "Vacuum the Dust",
             "steps": [{"id": "C_s0", "text": "empty the bag"}]},
        ]
        pipeline = _exact_match_pipeline(chain)
        tree = expand(pipeline, "A", max_depth=2)
        step_a = tree.root.steps[0]
        assert step_a.child.goal_id == "B"
        step_b = step_a.child.steps[0]
        assert step_b.child.goal_id == "C"
        assert [s.text for s in step_b.child.steps] == ["empty the bag"]
        assert step_b.child.steps[0].child is None

        cycle = [
            {"id": "A", "title": "Paint the Fence",
             "steps": [{"id": "A_s0", "text": "Mix the Paint"}]},
            {"id": "B", "title": "Mix the Paint",
             "steps": [{"id": "B_s0", "text": "Paint the Fence"}]},
        ]
        pipeline = _exact_match_pipeline(cycle)
        tree = expand(pipeline, "A", max_depth=6)
        back = tree.root.steps[0].child.steps[0]
        assert back.suppressed_cycle and back.child is None

        blobs = {
            json.dumps(tree_to_dict(expand(pipeline, "A", max_depth=6)), sort_keys=True)
            for _ in range(3)
        }
        assert len(blobs) == 1


# ---------------------------------------------------------------------------
# A11  Query-level ordering

def _vr_synth(seed, n_goals=30, n_videos=40, p_goal=0.6):
    """Captions carry the goal tokens 60% of the time plus exactly one visual
    step token; two steps per article are distractors borrowing the next
    goal's tokens. Video ids are shuffled so ties never favor any goal."""
    rng = random.Random(seed)
    noise_vocab = [f"noise{i}" for i in range(60)]
    records, video_specs = [], []
    for gi in range(n_goals):
        gid = f"g{gi:02d}"
        nxt = (gi + 1) % n_goals
        visual = [f"vis{gi}x{j}" for j in range(3)]
        steps = [{"id": f"{gid}s{j}", "text": f"do {visual[j]} now"} for j in range(3)]
        steps.append({"id": f"{gid}s3", "text": f"gtok{nxt}a gtok{nxt}b"})
        steps.append({"id": f"{gid}s4", "text": f"vis{nxt}x0 vis{nxt}x1"})
        records.append({"id": gid, "title": f"achieve gtok{gi}a gtok{gi}b", "steps": steps})
        for _ in range(n_videos):
            toks = []
            if rng.random() < p_goal:
                toks += [f"gtok{gi}a", f"gtok{gi}b"]
            toks.append(rng.choice(visual))
            toks += rng.choices(noise_vocab, k=4)
            rng.shuffle(toks)
            video_specs.append((gid, " ".join(toks)))
    order = list(range(len(video_specs)))
    rng.shuffle(order)
    videos = [
        VideoDoc(f"v{order[i]:04d}", gid, cap) for i, (gid, cap) in enumerate(video_specs)
    ]
    return corpus_from_records(records), videos


def test_a11_query_level_ordering():
    with criterion("A11 query-level ordering", limit_s=60):
        wins = 0
        for seed in range(10):
            corpus, videos = _vr_synth(seed)
            splits = split_videos(videos)
            index = build_video_index(videos)
            scorer = ClauseScorer(index)
            gold = splits["test"]
            mean_ranks = {}
            for level in (L0, L1):
                queries = [make_query(corpus, g, level) for g in splits["train"]]
                ranks = {q.goal_id: rank_videos(scorer, q, gold[q.goal_id]) for q in queries}
                mean_ranks[level] = vr_metrics(ranks, ns=[10]).mean_rank
            queries = [filter_steps(make_query(corpus, g, FIL_L1), train_ids, index)
                       for g, train_ids in splits["train"].items()]
            ranks = {q.goal_id: rank_videos(scorer, q, gold[q.goal_id]) for q in queries}
            mean_ranks[FIL_L1] = vr_metrics(ranks, ns=[10]).mean_rank
            if mean_ranks[FIL_L1] <= mean_ranks[L1] <= mean_ranks[L0]:
                wins += 1
        assert wins >= 8, f"ordering held on only {wins}/10 seeds"

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import columns, make_corpus, two_article_records, vector_table
from prockb.corpus import Step
from prockb.errors import DataError
from prockb.embedding import EmbeddingStore, embed_corpus, unit
from prockb.retrieval import build_index, read_candidates, retrieve_all, topk, write_candidates
from reference import cosine


def basis_store(n=3, dim=4):
    vectors = {f"g{i}": np.eye(dim)[i] for i in range(n)}
    return vector_table(dim, vectors)


def random_store(n_goals, dim, seed):
    rng = np.random.default_rng(seed)
    vectors = {f"g{i:03d}": rng.normal(size=dim) for i in range(n_goals)}
    return vector_table(dim, vectors)


def brute_force_ranking(store, goal_ids, query, exclude=()):
    """Independent oracle: per-pair cosine, full sort, same tie rule."""
    scored = [(g, cosine(store[g], query)) for g in goal_ids if g not in exclude]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def top(index, query, k, exclude=None):
    """topk as (goal_id, score) pairs; `exclude` is a goal id."""
    rows, scores = topk(index, query, k, None if exclude is None else index.row[exclude])
    return [(index.ids[row], score) for row, score in zip(rows.tolist(), scores.tolist())]


def test_topk_basis_vectors():
    store = basis_store()
    index = build_index(store, ["g0", "g1", "g2"])
    rows, scores = topk(index, np.eye(4)[1], k=1)
    assert (rows.tolist(), scores.tolist()) == ([1], [1.0])


def test_topk_matches_brute_force_oracle():
    store = random_store(200, 16, seed=11)
    goal_ids = store.ids
    index = build_index(store, goal_ids)
    rng = np.random.default_rng(12)
    for _ in range(50):
        query = rng.normal(size=16)
        result = top(index, query, k=10)
        oracle = brute_force_ranking(store, goal_ids, query)[:10]
        assert [g for g, _ in result] == [g for g, _ in oracle]
        for (_, got), (_, want) in zip(result, oracle):
            assert abs(got - want) < 1e-12


def test_topk_k_too_large():
    store = basis_store()
    index = build_index(store, ["g0", "g1", "g2"])
    with pytest.raises(ValueError, match="k=10"):
        topk(index, np.eye(4)[0], k=10)
    with pytest.raises(ValueError):
        topk(index, np.eye(4)[0], k=0)


def test_topk_exclusion_shifts_window():
    store = random_store(40, 8, seed=5)
    index = build_index(store, store.ids)
    rng = np.random.default_rng(6)
    query = rng.normal(size=8)
    full = top(index, query, k=11)
    top1 = full[0][0]
    requeried = top(index, query, k=10, exclude=top1)
    assert requeried == full[1:11]
    assert top1 not in [g for g, _ in requeried]


def test_topk_exclusion_reduces_pool():
    store = basis_store()
    index = build_index(store, ["g0", "g1", "g2"])
    with pytest.raises(ValueError, match="exclusion"):
        topk(index, np.eye(4)[0], k=3, exclude=index.row["g1"])


def test_tie_break_ascending_goal_id():
    vec = np.array([1.0, 0.0, 0.0, 0.0])
    store = vector_table(4, {"gb": vec, "ga": vec * 2.0, "gc": vec})
    index = build_index(store, ["gb", "ga", "gc"])
    assert top(index, vec, k=3) == [("ga", 1.0), ("gb", 1.0), ("gc", 1.0)]


def test_zero_goal_vector_scores_zero():
    store = vector_table(4, {"gz": np.zeros(4), "ga": np.array([1.0, 0, 0, 0])})
    index = build_index(store, ["gz", "ga"])
    assert top(index, np.array([1.0, 0, 0, 0]), k=2)[1] == ("gz", 0.0)


def test_goal_whose_square_norm_overflows_ranks_by_its_direction():
    store = vector_table(3, {"ga": np.ones(3), "gbig": np.array([1e200, 2e200, 0.0])})
    index = build_index(store, store.ids)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (first, score), _ = top(index, np.array([1.0, 2.0, 0.0]), k=2)
    assert first == "gbig" and abs(score - 1.0) <= 1e-15


@pytest.mark.parametrize("dim", [8, 9, 15, 16, 17, 33, 64, 100, 128, 257, 512, 768, 1023, 1024])
def test_rows_of_one_matrix_score_as_their_copies_bit_for_bit(dim):
    """`unit` of a matrix row, and a product of a matrix view with it, equal
    the same on fresh copies, for rows that start at every 8-byte offset:
    vectors are rows of one table, where they used to be arrays of their own."""
    rng = np.random.default_rng(dim)
    n = 12
    flat = rng.normal(size=n * dim + 8)
    for offset in range(8):
        matrix = flat[offset : offset + n * dim].reshape(n, dim)
        for row in matrix:
            assert unit(row).tobytes() == unit(row.copy()).tobytes()
        for query in (matrix[1], matrix[n - 1], rng.normal(size=dim)):
            want = matrix.copy() @ unit(query.copy())
            assert (matrix @ unit(query)).tobytes() == want.tobytes()


def test_scores_non_increasing():
    store = random_store(60, 8, seed=2)
    index = build_index(store, store.ids)
    _, sims = topk(index, np.random.default_rng(3).normal(size=8), k=25)
    assert np.all(sims[:-1] >= sims[1:])


def test_build_index_missing_goal():
    store = basis_store()
    with pytest.raises(KeyError, match="ghost"):
        build_index(store, ["g0", "ghost"])


def test_retrieve_all_excludes_parent():
    corpus = make_corpus(two_article_records())
    store = embed_corpus(corpus, dim=16, seed=4)
    index = build_index(store, corpus.goal_ids())
    ranked = retrieve_all(index, store, corpus.steps(), k=1)
    assert ranked.step_ids == tuple(s.step_id for s in corpus.steps())
    for i, step in enumerate(corpus.steps()):
        goals = ranked.goal_ids[ranked.rows(i)]
        assert len(goals) == 1
        assert step.parent_goal_id not in goals


def test_retrieve_all_clamps_k_to_the_goals_left():
    corpus = make_corpus(two_article_records())
    store = embed_corpus(corpus, dim=16, seed=4)
    index = build_index(store, corpus.goal_ids())
    assert retrieve_all(index, store, corpus.steps(), k=5).offsets.tolist() == list(range(6))
    one_goal = build_index(store, ["g1"])
    with pytest.raises(ValueError, match="no goals available for step 's1'"):
        retrieve_all(one_goal, store, corpus.steps(), k=5)


def test_retrieve_all_peak_memory_is_a_few_words_per_row():
    """7,000 steps against 1,000 goals at k=30, 210,000 rows: the peak is the
    row, sim1 and goal-id columns and one gather, not a Python int per row
    (about 59 bytes a row when each row's goal went through `rows.tolist()`)."""
    rng = np.random.default_rng(3)
    goals = [f"g{i:04d}" for i in range(1000)]
    steps = [Step(f"s{i:05d}", "", goals[i % len(goals)], 0) for i in range(7000)]
    store = EmbeddingStore(goals + [step.step_id for step in steps],
                           rng.normal(size=(len(goals) + len(steps), 64)))
    index = build_index(store, goals)
    tracemalloc.start()
    try:
        ranked = retrieve_all(index, store, steps, k=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ranked.goal_ids) == 210_000
    assert peak < 44 * len(ranked.goal_ids)


def test_candidates_tsv_round_trip(tmp_path):
    corpus = make_corpus(two_article_records())
    store = embed_corpus(corpus, dim=16, seed=4)
    index = build_index(store, corpus.goal_ids())
    ranked = retrieve_all(index, store, corpus.steps(), k=1)
    path = tmp_path / "candidates.tsv"
    write_candidates(path, ranked)
    assert columns(read_candidates(path)) == columns(ranked)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("s1\t1\tg1\t0.5\ns1\tone\tg2\t0.4\n", r"line 2: rank 'one' is not an integer"),
        ("s1\t1\tg1\t0.5\ns1\t2\tg2\thigh\n", r"line 2: sim1 'high' is not a finite number"),
        ("s1\t1\tg1\tnan\n", r"line 1: sim1 'nan' is not a finite number"),
        ("s1\t1\tg1\t0.5\n\ns1\t1\tg2\t0.4\n", r"line 3: duplicate rank 1 for step 's1'"),
        ("s1\t1\tg1\n", r"line 1: expected 4 columns"),
        ("s1\t1\tg1\t0.5\t-inf\n", r"line 1: sim2 '-inf' is not a finite number"),
        ("s1\t1\tg1\t0.5\t0.1\ns1\t2\tg2\t0.4\n", r"line 2: sim2 column in some lines only"),
        ("s1\t1\tg1\t0.5\t0.2\textra\n", r"line 1: expected 4 or 5 columns, got 6$"),
    ],
    ids=["non-integer-rank", "non-float-sim1", "nan-sim1", "duplicate-rank", "short-line",
         "inf-sim2", "sim2-in-some-lines", "extra-column"],
)
def test_read_candidates_rejects_bad_rows(tmp_path, rows, message):
    path = tmp_path / "candidates.tsv"
    path.write_text(rows)
    with pytest.raises(DataError, match=message) as info:
        read_candidates(path)
    assert str(path) in str(info.value)


def test_read_candidates_of_an_empty_file(tmp_path):
    path = tmp_path / "candidates.tsv"
    path.write_text("\n")
    assert columns(read_candidates(path)) == ((), [0], (), [], None)


def test_read_candidates_accepts_same_rank_for_different_steps(tmp_path):
    path = tmp_path / "candidates.tsv"
    path.write_text("s1\t2\tg2\t0.1\ns2\t1\tg1\t0.3\ns1\t1\tg1\t0.5\n")
    ranked = read_candidates(path)
    assert ranked.step_ids == ("s1", "s2")
    assert ranked.offsets.tolist() == [0, 2, 3]
    assert ranked.goal_ids == ("g1", "g2", "g1")
    assert ranked.sim1.tolist() == [0.5, 0.1, 0.3]

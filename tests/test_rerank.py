import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    columns, from_lists, identity_records, make_corpus, one_list, one_loss, pair_features, score_list,
    vector_table,
)
from prockb.artifacts import write_vectors
from prockb.corpus import UNLINKABLE
from prockb.errors import DataError
from prockb.rerank import (
    LexicalFeatureSource,
    RerankModel,
    TableFeatureSource,
    load_feature_file,
    load_model,
    make_training_examples,
    model_text,
    new_model,
    nll_loss,
    save_model,
    score_candidates,
    train,
)
from prockb.textsearch import tokenize


def write_feature_file(path, dim, rows):
    write_vectors(path, dim, ((f"{step_id} {goal_id}", vec) for step_id, goal_id, vec in rows))


# ---------------------------------------------------------------------------
# Lexical features

@pytest.fixture
def lex_corpus():
    records = [
        {
            "id": "art1",
            "title": "Buy a Camera",
            "steps": [
                {"id": "t1", "text": "Buy a Camera"},
                {"id": "t2", "text": "orange zebra"},
            ],
        },
        {"id": "art2", "title": "Cook Rice", "steps": [{"id": "t3", "text": "wash the rice"}]},
    ]
    return make_corpus(records)


def test_exact_match_features(lex_corpus):
    source = LexicalFeatureSource(lex_corpus)
    feats = pair_features(source, ("t1",), (("art1",),))[0]
    assert feats[5] == 1.0  # exact match
    assert feats[1] == 1.0  # token jaccard
    assert feats[0] == 1.0  # bias


def test_disjoint_tokens(lex_corpus):
    source = LexicalFeatureSource(lex_corpus)
    feats = pair_features(source, ("t2",), (("art2",),))[0]
    assert feats[1] == 0.0
    assert feats[5] == 0.0


def test_features_finite_and_sized(lex_corpus):
    source = LexicalFeatureSource(lex_corpus)
    for step_id in ("t1", "t2", "t3"):
        for goal_id in ("art1", "art2"):
            feats = pair_features(source, (step_id,), ((goal_id,),))[0]
            assert feats.shape == (7,)
            assert np.all(np.isfinite(feats))


# Reference: the per-pair feature arithmetic, one (step, goal) at a time with
# Python sets and Counters. Column 3 is I / (S_step + S_goal - I), each IDF
# sum taken in ascending token-string order as the source documents, so every
# column can match exactly.

def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def _char_ngram_cosine(a: str, b: str, n: int = 3) -> float:
    ca = Counter(a[i : i + n] for i in range(len(a) - n + 1))
    cb = Counter(b[i : i + n] for i in range(len(b) - n + 1))
    if not ca or not cb:
        return 0.0
    dot = sum(v * cb.get(g, 0) for g, v in ca.items())
    na = math.sqrt(sum(v * v for v in ca.values()))
    nb = math.sqrt(sum(v * v for v in cb.values()))
    return dot / (na * nb) if na and nb else 0.0


def reference_features(source: LexicalFeatureSource, step_id: str, goal_id: str) -> np.ndarray:
    corpus = source.corpus
    step = corpus.step(step_id)
    step_text = step.text
    goal_title = corpus.article(goal_id).title
    article = corpus.article(step.parent_goal_id)

    s_tokens = set(tokenize(step_text))
    g_tokens = set(tokenize(goal_title))
    ctx_tokens = set(tokenize(article.title))  # and the steps either side of the step
    for other in article.steps:
        if abs(other.position - step.position) == 1:
            ctx_tokens |= set(tokenize(other.text))

    def idf_sum(tokens: set) -> float:
        return sum(source.idf.get(t, 1.0) for t in sorted(tokens))

    inter_idf = idf_sum(s_tokens & g_tokens)
    union_idf = idf_sum(s_tokens) + idf_sum(g_tokens) - inter_idf
    n_s, n_g = len(s_tokens), len(g_tokens)

    vec = np.zeros(source.dim, dtype=np.float64)
    vec[0] = 1.0
    vec[1] = _jaccard(s_tokens, g_tokens)
    vec[2] = _char_ngram_cosine(step_text.lower(), goal_title.lower())
    vec[3] = inter_idf / union_idf if union_idf > 0.0 else 0.0
    vec[4] = min(n_s, n_g) / max(n_s, n_g) if max(n_s, n_g) else 0.0
    vec[5] = 1.0 if step_text.casefold() == goal_title.casefold() else 0.0
    vec[6] = _jaccard(ctx_tokens, g_tokens)
    return vec


EXACT_COLUMNS = [0, 1, 2, 4, 5, 6]


def assert_blocks_match_reference(corpus):
    source = LexicalFeatureSource(corpus)
    goal_ids = tuple(corpus.goal_ids())
    for step in corpus.steps():
        got = pair_features(source, (step.step_id,), (goal_ids,))
        want = np.stack([reference_features(source, step.step_id, g) for g in goal_ids])
        assert got.shape == (len(goal_ids), 7)
        assert got[:, EXACT_COLUMNS].tobytes() == want[:, EXACT_COLUMNS].tobytes()
        assert np.max(np.abs(got[:, 3] - want[:, 3])) <= 1e-12
        for row, goal_id in zip(got, goal_ids):
            one = pair_features(source, (step.step_id,), ((goal_id,),))[0]
            assert one.tobytes() == row.tobytes()


def test_block_matches_reference_on_identity_corpus():
    records, _ = identity_records(12)
    assert_blocks_match_reference(make_corpus(records))


# Titles and steps from a small alphabet with case-folding oddities; some are
# punctuation only (no tokens), some under 3 characters (no 3-grams), and some
# steps are a re-cased copy of a title (casefold-equal exact matches).
_texts = st.one_of(
    st.text(alphabet="abAB zßSİi0.-", min_size=1, max_size=24),
    st.text(alphabet=".,!- ", min_size=1, max_size=4),
    st.text(alphabet="aAß1.", min_size=1, max_size=2),
).filter(str.strip)


@st.composite
def text_corpora(draw):
    titles = draw(st.lists(_texts, min_size=1, max_size=4))
    records = []
    for i, title in enumerate(titles):
        steps = []
        for j in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                text = draw(_texts)
            else:
                text = draw(st.sampled_from(titles))
                text = draw(st.sampled_from([text, text.upper(), text.swapcase()]))
            steps.append({"id": f"s{i}_{j}", "text": text})
        records.append({"id": f"g{i}", "title": title, "steps": steps})
    return make_corpus(records)


@settings(max_examples=60, deadline=None)
@given(text_corpora())
def test_block_matches_reference_on_generated_texts(corpus):
    assert_blocks_match_reference(corpus)


@st.composite
def word_corpora(draw):
    """Titles and steps of 1-5 words from a small vocabulary: many shared
    tokens with distinct IDFs, so column 3's summation order shows."""
    words = st.lists(st.sampled_from("oven bake peel stone wedge golden rice wash".split()),
                     min_size=1, max_size=5).map(" ".join)
    records = []
    for i in range(draw(st.integers(2, 6))):
        steps = [{"id": f"s{i}_{j}", "text": draw(words)} for j in range(draw(st.integers(1, 3)))]
        records.append({"id": f"g{i}", "title": draw(words), "steps": steps})
    return make_corpus(records)


@st.composite
def feature_batches(draw):
    """A corpus and a batch of candidate lists over it. Steps and goals
    repeat, lists may be empty, and one list names a goal twice."""
    corpus = draw(st.one_of(text_corpora(), word_corpora()))
    step_ids = [step.step_id for step in corpus.steps()]
    goals = st.lists(st.sampled_from(corpus.goal_ids()), max_size=5).map(tuple)
    lists = draw(st.lists(st.tuples(st.sampled_from(step_ids), goals), min_size=1, max_size=9))
    twice = draw(st.sampled_from(corpus.goal_ids()))
    at = draw(st.integers(0, len(lists)))
    lists.insert(at, (draw(st.sampled_from(step_ids)), (twice, twice)))
    step_batch, goal_batch = zip(*lists)
    return corpus, step_batch, goal_batch


@settings(max_examples=80, deadline=None)
@given(feature_batches(), st.integers(1, 4), st.data())
def test_batch_rows_match_reference_in_any_split(batch, block, data):
    corpus, step_ids, goal_ids = batch
    source = LexicalFeatureSource(corpus)
    source.block = block  # several blocks per batch
    got = pair_features(source, step_ids, goal_ids)
    want = [reference_features(source, step_id, goal_id)
            for step_id, goals in zip(step_ids, goal_ids) for goal_id in goals]
    assert got.shape == (len(want), 7)
    for row, ref in zip(got, want):
        assert row.tobytes() == ref.tobytes()

    cuts = sorted(data.draw(st.lists(st.integers(0, len(step_ids)), max_size=3)))
    bounds = list(zip([0] + cuts, cuts + [len(step_ids)]))
    fresh = LexicalFeatureSource(corpus)
    parts = [pair_features(fresh, step_ids[a:b], goal_ids[a:b]) for a, b in reversed(bounds)]
    assert np.concatenate(parts[::-1]).tobytes() == got.tobytes()


def test_table_batch_stacks_rows_and_names_a_missing_one(tmp_path):
    rng = np.random.default_rng(8)
    rows = [(s, g, rng.normal(size=4)) for s in ("s1", "s2") for g in ("g1", "g2")]
    path = tmp_path / "features.txt"
    write_feature_file(path, 4, rows)
    source = load_feature_file(path)
    table = dict(((s, g), vec) for s, g, vec in rows)
    got = pair_features(source, ("s2", "s1", "s2"), (("g2", "g1"), (), ("g2",)))
    want = np.stack([table["s2", "g2"], table["s2", "g1"], table["s2", "g2"]])
    assert got.tobytes() == want.tobytes()
    with pytest.raises(DataError) as info:
        pair_features(source, ("s1", "s2"), (("g1",), ("g2", "g9")))
    assert str(info.value) == f"{path}: no feature row for step 's2', goal 'g9'"


def test_blocks_do_not_depend_on_warm_up_order():
    records, _ = identity_records(12)
    corpus = make_corpus(records)
    goal_ids = tuple(corpus.goal_ids())
    step_ids = [s.step_id for s in corpus.steps()]
    forward = LexicalFeatureSource(corpus)
    backward = LexicalFeatureSource(corpus)
    for step_id in step_ids:
        pair_features(forward, (step_id,), (goal_ids,))
    for step_id in reversed(step_ids):
        pair_features(backward, (step_id,), (goal_ids[::-1],))
    for step_id in step_ids:
        want = pair_features(forward, (step_id,), (goal_ids,))
        assert pair_features(backward, (step_id,), (goal_ids,)).tobytes() == want.tobytes()


def test_empty_block_has_model_width(lex_corpus):
    source = LexicalFeatureSource(lex_corpus)
    assert pair_features(source, ("t1",), ((),)).shape == (0, 7)
    assert pair_features(TableFeatureSource(vector_table(8, {})), ("t1",), ((),)).shape == (0, 8)


# ---------------------------------------------------------------------------
# sim2 and candidate scoring

def test_sim2_arithmetic():
    def sim2(model, row, sim1):
        source = TableFeatureSource(vector_table(2, {("s", "g"): np.array(row)}))
        return score_list(model, one_list("s", ["g"], [sim1]), source).sim2.tolist()

    assert sim2(RerankModel(w=np.array([1.0, 0.0]), lam=0.0), [0.7, 3.0], 0.9) == [0.7]
    assert sim2(RerankModel(w=np.array([1.0, 0.0]), lam=1.0), [0.2, 0.0], 0.5) == [0.7]


def test_sim2_dim_mismatch():
    model = RerankModel(w=np.zeros(3), lam=0.0)
    with pytest.raises(ValueError, match="dim"):
        score_candidates(model, one_list("s", ["g"], [0.0]), np.zeros((1, 4)))
    with pytest.raises(ValueError, match="dim"):
        one_loss(model, np.zeros((1, 4)), np.zeros(1), 0)


def zero_table(step_id, goal_ids, dim=8):
    return TableFeatureSource(vector_table(dim, {(step_id, g): np.zeros(dim) for g in goal_ids}))


def test_identity_reranker_preserves_stage1_order():
    cands = one_list("s", ["ga", "gb", "gc"], [0.9, 0.5, 0.3])
    model = new_model(8, lam=1.0)
    scored = score_list(model, cands, zero_table("s", ["ga", "gb", "gc"]))
    assert scored.goal_ids == ("ga", "gb", "gc")
    assert scored.sim2.tolist() == [0.9, 0.5, 0.3]


def test_unlinkable_entry_gets_min_sim1():
    cands = one_list("s", ["ga", "gb", "gc"], [0.9, 0.5, 0.3])
    model = new_model(8, lam=1.0, unlinkable=True)
    scored = score_list(model, cands, zero_table("s", ["ga", "gb", "gc"]))
    assert scored.goal_ids.count(UNLINKABLE) == 1
    assert scored.sim1[scored.goal_ids.index(UNLINKABLE)] == 0.3

    plain = score_list(new_model(8), cands, zero_table("s", ["ga", "gb", "gc"]))
    assert UNLINKABLE not in plain.goal_ids


def test_score_candidates_reranks_each_list_on_its_own():
    rng = np.random.default_rng(4)
    lists = [("s1", ["ga", "gb", "gc"]), ("s2", ["gb"]), ("s3", ["gc", "ga"])]
    table = {(s, g): rng.normal(size=8) for s, goals in lists for g in goals}
    source = TableFeatureSource(vector_table(8, table))
    sim1s = [rng.uniform(-1, 1, size=len(goals)) for _, goals in lists]
    model = RerankModel(w=rng.normal(size=8), lam=0.5, unlinkable_feat=rng.normal(size=8))
    ranked = from_lists([s for s, _ in lists], [goals for _, goals in lists], sim1s)
    whole = score_list(model, ranked, source)
    parts = [score_list(model, one_list(s, goals, sim1), source)
             for (s, goals), sim1 in zip(lists, sim1s)]
    assert whole.offsets.tolist() == [0, 4, 6, 9]
    assert whole.goal_ids == sum((part.goal_ids for part in parts), ())
    assert whole.sim1.tolist() == np.concatenate([part.sim1 for part in parts]).tolist()
    assert whole.sim2.tolist() == np.concatenate([part.sim2 for part in parts]).tolist()


def test_top1_is_argmax_of_per_pair_sim2():
    rng = np.random.default_rng(0)
    goal_ids = tuple(f"g{i}" for i in range(6))
    table = {("s", g): rng.normal(size=8) for g in goal_ids}
    source = TableFeatureSource(vector_table(8, table))
    sim1s = rng.uniform(-1, 1, size=len(goal_ids))
    model = RerankModel(w=rng.normal(size=8), lam=float(rng.normal()))
    scored = score_list(model, one_list("s", goal_ids, sim1s), source)
    feats = pair_features(source, ("s",), (goal_ids,))
    sim2s = (feats * model.w).sum(axis=1) + model.lam * sim1s
    per_pair = dict(zip(goal_ids, sim2s.tolist()))
    assert scored.goal_ids[0] == max(per_pair, key=lambda g: (per_pair[g], g))
    assert scored.sim2[0] == max(per_pair.values())


# Reference: per-row arithmetic, one dot product per candidate, with the
# placeholder row U scored at the list's minimum sim1.

def per_row_scores(model, feats, sim1s):
    """(sim2, sum of its terms' magnitudes) of each slot, one row at a time."""
    rows = list(zip(feats, sim1s.tolist()))
    if model.unlinkable_enabled:
        rows.append((model.unlinkable_feat, min(sim1s.tolist())))
    return [
        (float(model.w @ row) + model.lam * sim1,
         float(np.abs(model.w) @ np.abs(row)) + abs(model.lam * sim1))
        for row, sim1 in rows
    ]


@st.composite
def scoring_cases(draw, value):
    dim, m = draw(st.integers(1, 9)), draw(st.integers(1, 8))
    vector = lambda n: np.array(draw(st.lists(value, min_size=n, max_size=n)))  # noqa: E731
    unlinkable = draw(st.booleans())
    model = RerankModel(w=vector(dim), lam=draw(value),
                        unlinkable_feat=vector(dim) if unlinkable else None)
    return model, vector(m * dim).reshape(m, dim), vector(m)


@settings(max_examples=200, deadline=None)
@given(scoring_cases(st.floats(-1e3, 1e3)))
def test_sim2_matches_per_row_arithmetic(case):
    model, feats, sim1s = case
    goal_ids = [f"g{i}" for i in range(len(sim1s))]
    table = {("s", g): row for g, row in zip(goal_ids, feats)}
    source = TableFeatureSource(vector_table(model.dim, table))
    scored = score_list(model, one_list("s", goal_ids, sim1s), source)
    got = dict(zip(scored.goal_ids, scored.sim2.tolist()))
    slots = goal_ids + [UNLINKABLE] * model.unlinkable_enabled
    want = per_row_scores(model, feats, sim1s)
    assert len(got) == len(want) == len(slots)
    for slot, (reference, scale) in zip(slots, want):
        assert abs(got[slot] - reference) <= 1e-12 * scale


# Eighths in [-2, 2]: every product and sum is exact in any order, so the
# scores, and with them the sort, must equal the per-row reference exactly.
@settings(max_examples=200, deadline=None)
@given(scoring_cases(st.integers(-16, 16).map(lambda i: i / 8)))
def test_score_candidates_order_matches_per_row_arithmetic(case):
    model, feats, sim1s = case
    goal_ids = [f"g{i}" for i in range(len(sim1s))]
    table = {("s", g): row for g, row in zip(goal_ids, feats)}
    source = TableFeatureSource(vector_table(model.dim, table))
    scored = score_list(model, one_list("s", goal_ids, sim1s), source)
    slots = list(zip(goal_ids, sim1s.tolist()))
    if model.unlinkable_enabled:
        slots.append((UNLINKABLE, min(sim1s.tolist())))
    want = [(g, s1, score) for (g, s1), (score, _) in zip(slots, per_row_scores(model, feats, sim1s))]
    got = list(zip(scored.goal_ids, scored.sim1.tolist(), scored.sim2.tolist()))
    assert got == sorted(want, key=lambda e: (-e[2], e[0]))


def test_score_candidates_empty_list():
    with pytest.raises(ValueError, match="step 's' has an empty"):
        score_candidates(new_model(8), one_list("s", [], []), np.zeros((0, 8)))


# ---------------------------------------------------------------------------
# Loss and gradients

def test_uniform_loss_is_ln_m():
    for m in (2, 3, 10):
        loss, _ = one_loss(new_model(8, lam=0.0), np.zeros((m, 8)), np.zeros(m), 0)
        assert abs(loss - math.log(m)) < 1e-9


def test_uniform_loss_with_unlinkable_slot():
    model = new_model(8, lam=0.0, unlinkable=True)
    loss, _ = one_loss(model, np.zeros((30, 8)), np.zeros(30), 0)
    assert abs(loss - math.log(31)) < 1e-9


def test_saturated_loss_near_zero():
    feats = np.array([[25.0, 0.0], [0.0, 0.0]])
    model = RerankModel(w=np.array([1.0, 0.0]), lam=0.0)
    loss, _ = one_loss(model, feats, np.zeros(2), 0)
    assert loss < 1e-8


def test_loss_shift_invariance():
    rng = np.random.default_rng(1)
    sim1s = rng.uniform(size=5)
    feats = rng.normal(size=(5, 8))
    model = RerankModel(w=np.concatenate([[1.0], rng.normal(size=7)]), lam=0.7)
    base = one_loss(model, feats, sim1s, 2)[0]
    # w[0] is 1, so shifting feature 0 adds the same constant to every sim2
    shifted_feats = feats.copy()
    shifted_feats[:, 0] += 13.0
    assert abs(one_loss(model, shifted_feats, sim1s, 2)[0] - base) < 1e-9


def test_loss_error_cases():
    model = new_model(8)
    with pytest.raises(ValueError, match="empty"):
        one_loss(model, np.zeros((0, 8)), np.zeros(0), 0)
    feats, sim1s = np.zeros((3, 8)), np.zeros(3)
    for slot in (-1, 4):
        with pytest.raises(ValueError, match=f"gold slot {slot} is not one of 3 candidates"):
            one_loss(model, feats, sim1s, slot)
    # Slot 3 is the placeholder's, which only an unlinkable model has.
    with pytest.raises(ValueError, match="gold slot 3 is not one of 3 candidates$"):
        one_loss(model, feats, sim1s, 3)
    assert one_loss(new_model(8, unlinkable=True), feats, sim1s, 3)[0] > 0


def finite_difference_grads(model, feats, sim1s, slot, h=1e-5):
    def loss_with(w, lam, u):
        probe = RerankModel(w=w, lam=lam, unlinkable_feat=u)
        return one_loss(probe, feats, sim1s, slot)[0]

    grad_w = np.zeros_like(model.w)
    for i in range(model.dim):
        delta = np.zeros_like(model.w)
        delta[i] = h
        grad_w[i] = (
            loss_with(model.w + delta, model.lam, model.unlinkable_feat)
            - loss_with(model.w - delta, model.lam, model.unlinkable_feat)
        ) / (2 * h)
    grad_lam = (
        loss_with(model.w, model.lam + h, model.unlinkable_feat)
        - loss_with(model.w, model.lam - h, model.unlinkable_feat)
    ) / (2 * h)
    grad_u = None
    if model.unlinkable_enabled:
        grad_u = np.zeros_like(model.unlinkable_feat)
        for i in range(model.dim):
            delta = np.zeros_like(model.unlinkable_feat)
            delta[i] = h
            grad_u[i] = (
                loss_with(model.w, model.lam, model.unlinkable_feat + delta)
                - loss_with(model.w, model.lam, model.unlinkable_feat - delta)
            ) / (2 * h)
    return grad_w, grad_lam, grad_u


def relative_error(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    denom = max(float(np.linalg.norm(a) + np.linalg.norm(b)), 1e-8)
    return float(np.linalg.norm(a - b)) / denom


def random_point(rng, unlinkable: bool, dim=8):
    m = int(rng.integers(2, 7))
    sim1s = rng.uniform(-1, 1, size=m)
    slot = m if unlinkable and rng.uniform() < 0.4 else int(rng.integers(0, m))
    feats = rng.normal(size=(m, dim))
    model = RerankModel(
        w=rng.normal(size=dim),
        lam=float(rng.normal()),
        unlinkable_feat=rng.normal(size=dim) if unlinkable else None,
    )
    return model, feats, sim1s, slot


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(20):
        unlinkable = trial % 2 == 1
        model, *point = random_point(rng, unlinkable)
        _, grad = one_loss(model, *point)
        fd_w, fd_lam, fd_u = finite_difference_grads(model, *point)
        assert relative_error(grad.w, fd_w) < 1e-4
        assert relative_error(grad.lam, fd_lam) < 1e-4
        if unlinkable:
            assert relative_error(grad.unlinkable_feat, fd_u) < 1e-4


def test_batch_gives_each_lists_loss_and_the_sum_of_their_gradients():
    rng = np.random.default_rng(8)
    for unlinkable in (False, True):
        model = random_point(rng, unlinkable)[0]
        points = [random_point(rng, unlinkable)[1:] for _ in range(6)]
        offsets = np.cumsum([0] + [len(sim1s) for _, sim1s, _ in points])
        losses, grad = nll_loss(model, np.concatenate([feats for feats, _, _ in points]),
                                np.concatenate([sim1s for _, sim1s, _ in points]), offsets,
                                [slot for _, _, slot in points])
        singles = [one_loss(model, *point) for point in points]
        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(losses, [loss for loss, _ in singles], **close)
        np.testing.assert_allclose(grad.w, sum(one.w for _, one in singles), **close)
        np.testing.assert_allclose(grad.lam, sum(one.lam for _, one in singles), **close)
        if unlinkable:
            np.testing.assert_allclose(grad.unlinkable_feat,
                                       sum(one.unlinkable_feat for _, one in singles), **close)
        else:
            assert grad.unlinkable_feat is None


# ---------------------------------------------------------------------------
# Training

def separable_set(n: int, dim: int = 8, m: int = 4, seed: int = 0, prefix: str = "s"):
    """Gold pairs carry feature[1]=1, negatives 0; gold id sorts last, in
    the last slot. Returns the examples, as (lists, gold slots), and the
    feature source."""
    rng = np.random.default_rng(seed)
    step_ids, goal_ids = [], []
    table = {}
    for i in range(n):
        step_id = f"{prefix}{i:03d}"
        goals = [f"{step_id}_a{j}" for j in range(m - 1)] + [f"{step_id}_zz"]
        for gid in goals:
            gold = float(gid.endswith("_zz"))
            table[(step_id, gid)] = np.concatenate(
                [[1.0, gold], rng.normal(scale=0.1, size=dim - 2)]
            )
        step_ids.append(step_id)
        goal_ids.append(goals)
    lists = from_lists(step_ids, goal_ids, [[0.5] * m] * n)
    return (lists, [m - 1] * n), TableFeatureSource(vector_table(dim, table))


def rerank_recall_at_1(model, examples, source):
    lists, slots = examples
    scored = score_list(model, lists, source)
    hits = sum(scored.goal_ids[scored.offsets[i]] == lists.goal_ids[lists.offsets[i] + slot]
               for i, slot in enumerate(slots))
    return hits / len(slots)


def test_training_learns_separable_set():
    train_examples, source = separable_set(40, seed=0, prefix="tr")
    dev_examples, dev_source = separable_set(16, seed=1, prefix="dv")
    rows = {key: row for t in (source.table, dev_source.table) for key, row in zip(t.ids, t.matrix)}
    merged = TableFeatureSource(vector_table(8, rows))
    model = new_model(8, lam=0.0)

    assert rerank_recall_at_1(model, dev_examples, merged) <= 0.5

    result = train(
        model, train_examples, merged, lr=1.0, epochs=5, batch_size=8, seed=3,
        dev_examples=dev_examples,
    )
    dev_losses = [row.dev_loss for row in result.curve]
    assert all(a > b for a, b in zip(dev_losses, dev_losses[1:]))
    assert rerank_recall_at_1(result.model, dev_examples, merged) == 1.0


def test_zero_lr_leaves_model_unchanged():
    examples, source = separable_set(10)
    model = new_model(8, lam=0.25)
    result = train(model, examples, source, lr=0.0, epochs=3, batch_size=4, seed=0)
    assert result.model.w.tobytes() == model.w.tobytes()
    assert result.model.lam == model.lam


def test_training_determinism():
    examples, source = separable_set(20)
    runs = [
        train(new_model(8, lam=0.1), examples, source, lr=0.3, epochs=4, batch_size=8, seed=7)
        for _ in range(2)
    ]
    assert runs[0].model.w.tobytes() == runs[1].model.w.tobytes()
    assert runs[0].model.lam == runs[1].model.lam
    assert runs[0].curve == runs[1].curve


def test_training_diverges_with_huge_lr():
    examples, source = separable_set(10)
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="learning rate"):
        train(new_model(8), examples, source, lr=float("inf"), epochs=50, batch_size=4, seed=0)


def test_empty_training_set_rejected():
    _, source = separable_set(2)
    with pytest.raises(ValueError, match="empty"):
        train(new_model(8), (from_lists([], [], []), []), source, lr=0.1, epochs=1)


# ---------------------------------------------------------------------------
# Training example construction

def test_make_training_examples_modes():
    lists = from_lists(["s1", "s2", "s3"], [["g1", "g2"], ["g3"], ["g4"]],
                              [[0.9, 0.1], [0.8], [0.7]])
    gold = {"s1": "g2", "s2": "g9", "s3": "g4"}  # s2's gold missing from its list

    plain, slots = make_training_examples(lists, gold, unlinkable=False)
    assert columns(plain) == (("s1", "s3"), [0, 2, 3], ("g1", "g2", "g4"), [0.9, 0.1, 0.7], None)
    assert slots == [1, 0]

    unl, slots = make_training_examples(lists, gold, unlinkable=True)
    assert columns(unl) == columns(lists)
    assert slots == [1, 1, 0]  # s2's slot 1 is its placeholder's, after its one candidate

    no_gold, slots = make_training_examples(lists, {}, unlinkable=True)
    assert (no_gold.step_ids, slots) == ((), [])


def test_placeholder_slot_trains_toward_unlinkable():
    """A gold goal missing from the list gets the placeholder's slot, and
    training on it raises the placeholder's score above every candidate."""
    lists = one_list("s", ["g1", "g2"], [0.9, 0.1])
    examples = make_training_examples(lists, {"s": "g9"}, unlinkable=True)
    assert examples[1] == [2]
    source = TableFeatureSource(vector_table(2, {("s", "g1"): np.array([1.0, 0.0]),
                                                 ("s", "g2"): np.array([0.0, 1.0])}))
    result = train(new_model(2, lam=0.0, unlinkable=True), examples, source, lr=1.0, epochs=20)
    assert score_list(result.model, lists, source).goal_ids[0] == UNLINKABLE


# ---------------------------------------------------------------------------
# Persistence

def test_model_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    model = RerankModel(
        w=rng.normal(size=8),
        lam=-0.375,
        unlinkable_feat=rng.normal(size=8),
        k=12,
        features="0123456789abcdef" * 4,
    )
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert path.read_text() == model_text(model)
    loaded = load_model(path)
    assert model_text(loaded) == model_text(model)
    assert loaded.features == model.features
    assert loaded.w.tobytes() == model.w.tobytes()
    assert loaded.lam == model.lam
    assert loaded.unlinkable_enabled
    assert loaded.unlinkable_feat.tobytes() == model.unlinkable_feat.tobytes()
    assert loaded.k == 12


def test_model_checkpoint_validation(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("lambda=1.0\nk=30\n")
    with pytest.raises(DataError, match="malformed"):
        load_model(path)


@pytest.mark.parametrize(
    "keys, vectors, message",
    [
        ({}, "", "no W line"),
        ({}, "W 0.0 1.0 2.0\nU 0.0 1.0\n", "U has 2 values, W has 3"),
        ({}, "W 0.0 x 2.0\nU 0.0 1.0 2.0\n", "malformed"),
        ({"k": 0}, "W 0.0 1.0 2.0\nU 5.0 5.0 5.0\n", "k must be >= 1, got 0"),
        ({"k": None}, "W 0.0 1.0 2.0\nU 5.0 5.0 5.0\n", r"malformed model checkpoint \('k'\)"),
        ({"k": 2.5}, "W 0.0 1.0 2.0\nU 5.0 5.0 5.0\n", "malformed model checkpoint"),
        *(({"features": value}, "W 0.0 1.0 2.0\nU 5.0 5.0 5.0\n",
           f"features must be a sha256 of 64 lowercase hex digits, got '{value}'")
          for value in ("", "0" * 63, "0" * 65, "A" * 64, "g" * 64)),
        # A misspelt key is not read as a missing one, which for `featurs=`
        # would load a model trained on a feature file as a lexical one.
        ({"featurs": "0" * 64}, "W 0.0 1.0 2.0\n", r"line 3: unknown key 'featurs'$"),
        # The earlier format, which stated the width and unlinkable flag apart
        # from the rows, and a context mode and window that no longer exist.
        ({"dim": 3, "unlinkable": 1, "context_mode": "both", "window": 1},
         "W 0.0 1.0 2.0\nU 5.0 5.0 5.0\n", r"line 3: unknown key 'dim'$"),
    ],
    ids=["no-W-line", "short-U-row", "non-float-W", "k-0", "no-k-line", "k-2.5",
         "features-empty", "features-63", "features-65", "features-upper", "features-not-hex",
         "misspelt-features-key", "earlier-format"],
)
def test_model_checkpoint_rejects_bad_vectors(tmp_path, keys, vectors, message):
    """`keys` are written over the defaults; a key set to None is left out."""
    keys = {"lambda": 1.0, "k": 30, **keys}
    path = tmp_path / "model.txt"
    path.write_text("".join(f"{key}={value}\n" for key, value in keys.items()
                            if value is not None) + vectors)
    with pytest.raises(DataError, match=message) as info:
        load_model(path)
    assert str(path) in str(info.value)


def test_checkpoint_has_a_features_line_only_for_a_feature_file():
    """A `features` line is written only for a model trained on a feature
    file, as a U row only for an unlinkable model."""
    assert model_text(new_model(2)) == "lambda=1.0\nk=30\nW 0.0 0.0\n"
    digest = "f" * 64
    assert model_text(replace(new_model(2, unlinkable=True), features=digest)) == (
        f"lambda=1.0\nk=30\nfeatures={digest}\nW 0.0 0.0\nU 0.0 0.0\n")


def test_unlinkable_enabled_is_whether_the_model_has_a_u_row():
    assert not new_model(3).unlinkable_enabled
    assert new_model(3, unlinkable=True).unlinkable_enabled
    assert RerankModel(w=np.zeros(3), lam=1.0, unlinkable_feat=np.zeros(3)).unlinkable_enabled
    assert not RerankModel(w=np.zeros(3), lam=1.0).unlinkable_enabled


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    rows = [("s1", "g1", rng.normal(size=8)), ("s1", "g2", rng.normal(size=8))]
    path = tmp_path / "features.txt"
    write_feature_file(path, 8, rows)
    source = load_feature_file(path)
    assert source.dim == 8
    for step_id, goal_id, vec in rows:
        assert pair_features(source, (step_id,), ((goal_id,),))[0].tobytes() == vec.tobytes()
    with pytest.raises(DataError, match=r"s1.*g9"):
        pair_features(source, ("s1",), (("g1", "g9"),))


def test_feature_file_validation(tmp_path):
    path = tmp_path / "features.txt"
    path.write_text("dim=3\ns1 g1 1.0 2.0\n")
    with pytest.raises(DataError, match="line 2"):
        load_feature_file(path)

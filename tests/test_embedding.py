import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, two_article_records, vector_table
from prockb.embedding import (
    NGRAM_SIZES,
    _SignedBuckets,
    embed_corpus,
    embed_text,
    load_embeddings,
    save_embeddings,
    unit,
)
from prockb.errors import DataError
from reference import cosine


def test_embed_deterministic():
    a = embed_text("camera", 64, 7)
    b = embed_text("camera", 64, 7)
    assert a.tobytes() == b.tobytes()


def test_embed_unit_norm():
    for text in ("camera", "a", "purchase a new camera", "z" * 200):
        vec = embed_text(text, 64, 7)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


def test_embed_empty_text_is_zero_vector():
    vec = embed_text("", 64, 7)
    assert not vec.any()
    assert cosine(vec, embed_text("camera", 64, 7)) == 0.0


def test_embed_dim_floor():
    with pytest.raises(ValueError, match="dim"):
        embed_text("camera", 4, 7)


def test_embed_paraphrase_ordering():
    # verified ordering for this seed/dim before freezing
    query = embed_text("purchase a camera", 64, 7)
    close = embed_text("buy a camera", 64, 7)
    far = embed_text("set up lighting", 64, 7)
    assert cosine(query, close) > cosine(query, far)


def test_embed_seed_and_case_sensitivity():
    assert embed_text("camera", 64, 7).tobytes() != embed_text("camera", 64, 8).tobytes()
    assert embed_text("Camera", 64, 7, lowercase=True).tobytes() == embed_text(
        "camera", 64, 7
    ).tobytes()


def test_embed_call_order_invariance():
    first = [embed_text(t, 32, 1) for t in ("aa", "bb", "cc")]
    second = [embed_text(t, 32, 1) for t in ("cc", "bb", "aa")][::-1]
    for u, v in zip(first, second):
        assert u.tobytes() == v.tobytes()


def test_unit_is_the_norm_of_linalg_bit_for_bit():
    """unit divides by sqrt(vec @ vec), which is how np.linalg.norm takes a
    vector's norm; a zero vector comes back as itself."""
    rng = np.random.default_rng(5)
    for dim in (8, 16, 64, 1024):
        for _ in range(50):
            vec = rng.normal(size=dim) * rng.uniform(1e-3, 1e3)
            assert unit(vec).tobytes() == (vec / np.linalg.norm(vec)).tobytes()
    zero = np.zeros(8)
    assert unit(zero) is zero


@pytest.mark.parametrize("vec", [[1e200, 2e200, 0.0], [-1e300, 1e300, 5.0], [1e-170, 0.0, 0.0],
                                 [1e-160, -3e-160, 0.0], [5e-324, 0.0, 5e-324]],
                         ids=["overflow", "overflow-mixed", "underflow", "subnormal-square",
                              "subnormal"])
def test_unit_of_a_vector_whose_square_overflows_or_underflows(vec):
    """Scaled by its largest magnitude first, the vector comes back as the
    unit vector pointing its way, and numpy warns of nothing."""
    vec = np.array(vec)
    scaled = [x / max(map(abs, vec.tolist())) for x in vec.tolist()]
    want = np.array(scaled) / math.sqrt(math.fsum(x * x for x in scaled))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = unit(vec)
    assert np.abs(got - want).max() <= 1e-15


# The reference cosine is the oracle of the stage-1 tests.

def test_cosine_basics():
    assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine([1.0, 2.0, 2.0], [2.0, 4.0, 4.0]) == 1.0


def test_cosine_zero_vector_rule():
    assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
    assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_symmetry_and_scale():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.normal(size=16)
        v = rng.normal(size=16)
        assert cosine(u, v) == cosine(v, u)
        alpha = float(rng.uniform(0.1, 9.0))
        assert abs(cosine(u, alpha * u) - 1.0) < 1e-12


def test_store_round_trip(tmp_path):
    vectors = {
        "g1": np.array([1.0, 2.0, -3.0, 0.5]),
        "g2": np.array([0.0, 0.0, 0.0, 0.0]),
        "s1": np.array([9.25, -1.125, 3.0, 7.0]),
    }
    store = vector_table(4, vectors)
    path = tmp_path / "vecs.txt"
    save_embeddings(store, path)
    loaded = load_embeddings(path)
    assert loaded.dim == 4
    assert len(loaded) == 3
    for key, vec in vectors.items():
        assert loaded[key].tobytes() == vec.tobytes()


def test_load_short_row_rejected(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("dim=4\nrow1 1.0 2.0 3.0\n")
    with pytest.raises(DataError, match="row1"):
        load_embeddings(path)


def test_load_non_finite_rejected(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("dim=2\nrow1 1.0 nan\n")
    with pytest.raises(DataError, match="non-finite"):
        load_embeddings(path)


def test_load_bad_header(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("2\nrow1 1.0 2.0\n")
    with pytest.raises(DataError, match="header"):
        load_embeddings(path)


def test_load_duplicate_id(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("dim=2\nr 1.0 2.0\nr 3.0 4.0\n")
    with pytest.raises(DataError, match="duplicate"):
        load_embeddings(path)


def test_missing_id_lookup_names_id():
    store = vector_table(2, {"a": np.zeros(2)})
    with pytest.raises(KeyError, match="ghost"):
        store["ghost"]


def test_embed_corpus_covers_all_ids():
    corpus = make_corpus(two_article_records())
    store = embed_corpus(corpus, dim=16, seed=1)
    assert len(store) == corpus.n_goals + corpus.n_steps
    for goal_id in corpus.goal_ids():
        assert abs(np.linalg.norm(store[goal_id]) - 1.0) < 1e-9


def test_embed_thread_count_invariance():
    from concurrent.futures import ThreadPoolExecutor

    texts = [f"sample text number {i}" for i in range(12)]
    serial = [embed_text(t, 32, 2) for t in texts]
    with ThreadPoolExecutor(max_workers=6) as pool:
        threaded = list(pool.map(lambda t: embed_text(t, 32, 2), texts))
    for u, v in zip(serial, threaded):
        assert u.tobytes() == v.tobytes()


# Reference: the embedder as one keyed blake2b call and one += per n-gram
# occurrence, in text order. The fast path hashes each distinct n-gram once
# and sums with bincount; the ±1 sums are exact integers, so both must give
# the same bytes.

def reference_embed(text: str, dim: int, seed: int, lowercase: bool = False) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.float64)
    if not text:
        return vec
    if lowercase:
        text = text.lower()
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    padded = f"<{text}>"
    count = 0
    for n in NGRAM_SIZES:
        for i in range(len(padded) - n + 1):
            digest = hashlib.blake2b(padded[i : i + n].encode("utf-8"), digest_size=8, key=key)
            h = int.from_bytes(digest.digest(), "little")
            vec[h % dim] += 1.0 if h & (1 << 63) else -1.0
            count += 1
    vec /= count
    norm = math.sqrt(float(vec @ vec))
    if norm > 0.0:
        vec /= norm
    return vec


# Short texts over a few letters (so n-grams repeat within and across texts),
# with multi-byte characters, case pairs and whitespace.
_embed_texts = st.text(alphabet="abAB ßİé漢🙂", max_size=12)
_dims = st.sampled_from([8, 64, 257])
_seeds = st.sampled_from([0, -1, 2**64 + 3])


@settings(max_examples=80, deadline=None)
@given(st.lists(_embed_texts, min_size=1, max_size=8), _dims, _seeds, st.booleans())
def test_embed_text_matches_per_occurrence_reference(texts, dim, seed, lowercase):
    buckets = _SignedBuckets(dim, seed)
    for text in texts + texts[:2] + [""]:
        want = reference_embed(text, dim, seed, lowercase).tobytes()
        assert embed_text(text, dim, seed, lowercase).tobytes() == want
        assert embed_text(text, dim, seed, lowercase, buckets).tobytes() == want


@st.composite
def embed_corpora(draw):
    """Articles whose titles and steps repeat one another's texts."""
    pool = draw(st.lists(_embed_texts.filter(str.strip), min_size=1, max_size=5))
    records = []
    for i in range(draw(st.integers(1, 4))):
        steps = [{"id": f"s{i}_{j}", "text": draw(st.sampled_from(pool))}
                 for j in range(draw(st.integers(1, 3)))]
        records.append({"id": f"g{i}", "title": draw(st.sampled_from(pool)), "steps": steps})
    return make_corpus(records)


@settings(max_examples=60, deadline=None)
@given(embed_corpora(), _dims, _seeds, st.booleans())
def test_embed_corpus_matches_per_occurrence_reference(corpus, dim, seed, lowercase):
    store = embed_corpus(corpus, dim=dim, seed=seed, lowercase=lowercase)
    texts = {}
    for article in corpus.articles:
        texts[article.goal_id] = article.title
        texts.update((step.step_id, step.text) for step in article.steps)
    assert store.ids == list(texts)
    for row_id, text in texts.items():
        assert store[row_id].tobytes() == reference_embed(text, dim, seed, lowercase).tobytes()


def test_ngram_memo_of_other_settings_is_rejected():
    with pytest.raises(ValueError, match="memo"):
        embed_text("camera", 64, 7, buckets=_SignedBuckets(64, 8))
    with pytest.raises(ValueError, match="memo"):
        embed_text("camera", 32, 7, buckets=_SignedBuckets(64, 7))

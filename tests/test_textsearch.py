import gc
import json
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prockb import textsearch
from prockb.errors import DataError
from prockb.textsearch import (
    DEFAULT_B,
    DEFAULT_K1,
    TextIndex,
    idf,
    tokenize,
)
from reference import bm25

TWO_DOCS = [("d1", "stain the cabinet"), ("d2", "make fries")]


def random_docs(n, seed, vocab_size=30, max_len=12):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    return [
        (f"d{i:02d}", " ".join(rng.choices(vocab, k=rng.randint(0, max_len))))
        for i in range(n)
    ]


def postings_for(index, term):
    """(doc_id, tf) of every doc that has `term`, by doc_id."""
    span = index._spans.get(term, slice(0, 0))
    return sorted(zip(map(index.doc_ids.__getitem__, index._idxs[span].tolist()),
                      index._tfs[span].astype(np.int64).tolist()))


def doc_length(index, doc_id):
    return int(index.doc_lens[index.doc_idx(doc_id)])


def score(index, query, doc_id):
    """BM25 of one document, read from `score_all`."""
    return index.score_all(query)[index.doc_idx(doc_id)]


def brute_force_search(docs, query, n):
    """The reference BM25 of every doc, fully sorted, ties by doc id."""
    return sorted(bm25(docs, query).items(), key=lambda item: (-item[1], item[0]))[:n]


def test_tokenizer():
    assert tokenize("Stain the Cabinet!") == ["stain", "the", "cabinet"]
    assert tokenize("bake at 425F, 20min") == ["bake", "at", "425f", "20min"]
    assert tokenize("") == []


def test_index_stats_two_docs():
    index = TextIndex(TWO_DOCS)
    assert index.n_docs == 2
    assert index.avgdl == 2.5  # (3 + 2) / 2 with the stated tokenizer
    assert doc_length(index, "d1") == 3
    assert doc_length(index, "d2") == 2


def test_empty_doc_contributes_to_avgdl():
    index = TextIndex([("d1", "one two three four"), ("d2", "")])
    assert doc_length(index, "d2") == 0
    assert index.avgdl == 2.0


def test_single_doc_avgdl():
    index = TextIndex([("only", "three token text")])
    assert index.avgdl == 3.0


def test_duplicate_doc_id_rejected():
    with pytest.raises(DataError, match="duplicate"):
        TextIndex([("d1", "a"), ("d1", "b")])


def test_okapi_hand_value_one_doc():
    # ln(4/3) * (2 * 2.2) / (2 + 1.2) evaluated by hand
    index = TextIndex([("d1", "a a b")])
    assert score(index, "a", "d1") == pytest.approx(0.39556284962119864, abs=1e-6)


def test_okapi_hand_values_two_docs():
    index = TextIndex(TWO_DOCS)
    # df=1 terms: idf = ln 2; dl=3 vs avgdl=2.5 for d1, dl=2 for d2
    assert score(index, "cabinet", "d1") == pytest.approx(0.64072428455121, abs=1e-6)
    assert score(index, "fries", "d2") == pytest.approx(0.7549127709068711, abs=1e-6)
    assert score(index, "the cabinet", "d1") == pytest.approx(1.28144856910242, abs=1e-6)


def test_absent_term_contributes_zero():
    index = TextIndex(TWO_DOCS)
    base = score(index, "cabinet", "d1")
    assert score(index, "cabinet zzz", "d1") == base
    assert score(index, "zzz", "d1") == 0.0


def test_score_additive_over_query_terms():
    index = TextIndex(random_docs(20, seed=1))
    for doc_id in index.doc_ids[:5]:
        a = score(index, "w1", doc_id)
        b = score(index, "w2 w3", doc_id)
        assert score(index, "w1 w2 w3", doc_id) == pytest.approx(a + b, rel=1e-12)


def test_own_text_ranks_at_least_as_high():
    rng = random.Random(9)
    for trial in range(5):
        docs = random_docs(5, seed=100 + trial, vocab_size=12, max_len=8)
        docs = [(i, t if t else "filler") for i, t in docs]
        index = TextIndex(docs)
        for doc_id, text in docs:
            own = score(index, text, doc_id)
            assert all(own >= score(index, text, other) - 1e-12 for other, _ in docs)


def test_search_matches_brute_force():
    docs = random_docs(50, seed=3)
    index = TextIndex(docs)
    for query in ("w1 w2", "w5", "w0 w0 w9", "zzz"):
        got = index.ranked(query, 50)
        want = brute_force_search(docs, query, 50)
        assert [d for d, _ in got] == [d for d, _ in want]


def test_search_complete_ranking_and_zero_query():
    index = TextIndex(TWO_DOCS)
    ranked = index.ranked("toast", 10)
    assert [d for d, _ in ranked] == ["d1", "d2"]  # all-zero scores: doc id order
    assert all(score == 0.0 for _, score in ranked)
    assert sorted(d for d, _ in index.ranked("cabinet", 2)) == ["d1", "d2"]


def test_search_permutation_property():
    index = TextIndex(random_docs(25, seed=4))
    ranked = index.ranked("w1 w2 w3", 25)
    assert sorted(d for d, _ in ranked) == sorted(index.doc_ids)


def test_search_n_validation():
    index = TextIndex(TWO_DOCS)
    with pytest.raises(ValueError, match="n must be"):
        index.ranked("x", 0)


def test_unknown_doc_rejected():
    index = TextIndex(TWO_DOCS)
    with pytest.raises(KeyError, match="ghost"):
        index.doc_idx("ghost")


def test_index_isolation():
    docs = random_docs(10, seed=5)
    small = TextIndex(docs)
    grown = TextIndex(docs + [("extra", "w1 w1 w1")])
    for term in ("w1", "w2", "w3"):
        small_postings = postings_for(small, term)
        grown_postings = [p for p in postings_for(grown, term) if p[0] != "extra"]
        assert small_postings == grown_postings


def test_idf_never_negative():
    """Three docs, "common" in all of them and "rare" in one; and every df of
    up to 50 docs."""
    assert idf(3, 3) >= 0.0
    assert idf(3, 1) > idf(3, 3)
    assert all(idf(n, df) >= 0.0 for n in range(1, 51) for df in range(1, n + 1))


def test_params_validation():
    for k1 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="k1 must be a finite number > 0"):
            TextIndex(TWO_DOCS, k1=k1)
    with pytest.raises(ValueError):
        TextIndex(TWO_DOCS, b=1.5)
    assert (DEFAULT_K1, DEFAULT_B) == (1.2, 0.75)


def test_json_round_trip():
    index = TextIndex(random_docs(12, seed=7), k1=1.5, b=0.6)
    clone = TextIndex.from_json(index.to_json())
    assert clone.doc_ids == index.doc_ids
    assert clone.avgdl == index.avgdl
    for query in ("w1 w4", "w2"):
        assert clone.score_all(query).tobytes() == index.score_all(query).tobytes()
        assert clone.ranked(query, 12) == index.ranked(query, 12)


def test_json_load_rejects_postings_out_of_doc_order():
    """`to_json` writes each term's postings in ascending doc order, and
    `from_json` requires it: a decrease names the term and the doc, a repeat
    says the doc is listed twice."""
    index = TextIndex(random_docs(12, seed=3))
    payload = json.loads(index.to_json())
    term = next(t for t, pairs in sorted(payload["postings"].items()) if len(pairs) >= 3)
    pairs = payload["postings"][term]
    p0, p1, p2 = pairs[:3]
    for edit, message in [
        ([p1, p0], f"lists doc {p0[0]!r} out of doc order"),
        ([p0, list(p0)], f"lists doc {p0[0]!r} twice"),
        ([p0, p2, list(p0)], f"lists doc {p0[0]!r} twice"),  # a repeat after a larger doc
    ]:
        pairs[: len(edit)] = edit
        with pytest.raises(DataError) as info:
            TextIndex.from_json(json.dumps(payload), "vr.json")
        assert str(info.value) == f"vr.json: term {term!r} {message}"
        pairs[:3] = [p0, p1, p2]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 25), st.integers(0, 2**32 - 1),
       st.floats(0.1, 3.0), st.floats(0.0, 1.0),
       st.lists(st.sampled_from([f"w{i}" for i in range(12)] + ["zzz"]), max_size=8))
def test_score_all_is_the_per_posting_formula_bit_for_bit(n_docs, seed, k1, b, query_terms):
    """score_all is the reference BM25 of the raw texts bit for bit: any
    query term order, repeats and unknown terms included, and the same bits
    after a JSON round trip."""
    docs = random_docs(n_docs, seed, vocab_size=12)
    index = TextIndex(docs, k1=k1, b=b)
    query = " ".join(query_terms)
    expected = np.array(list(bm25(docs, query, k1, b).values())).view(np.uint64)
    assert index.score_all(query).view(np.uint64).tolist() == expected.tolist()
    clone = TextIndex.from_json(index.to_json())
    assert clone.score_all(query).view(np.uint64).tolist() == expected.tolist()


# Doc ids that JSON must escape or keep as they are: quotes, backslashes,
# control characters and non-ASCII text (no lone surrogates, which UTF-8
# cannot write).
_DOC_ID = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028é日'),
                            st.characters(blacklist_categories=("Cs",))), min_size=1, max_size=6)
_WORDS = st.lists(st.sampled_from(["a", "b", "w1", "é", "straße", "日本", "ЖУК", "x_y"]), max_size=6)


def _same_index(a, b):
    """Bit-identical doc tables, postings and BM25 weights."""
    assert (a.k1, a.b, a.doc_ids, a.positions, a._spans) == (b.k1, b.b, b.doc_ids, b.positions, b._spans)
    for name in ("doc_lens", "id_rank", "_idxs", "_tfs", "_weights"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@settings(max_examples=200, deadline=None)
@given(st.lists(_DOC_ID, unique=True, max_size=10), st.data(), st.integers(1, 6),
       st.floats(0.1, 3.0), st.floats(0.0, 1.0))
def test_to_json_writes_the_sorted_json_dumps_text_in_pieces(ids, data, block, k1, b):
    """`to_json` writes, piece by piece, what `json.dumps` with sorted keys
    and non-ASCII kept writes of the same payload, whatever the piece size,
    with empty docs and doc ids JSON must escape; and `from_json` reads it
    back, a block at a time, to the same index."""
    docs = [(doc_id, " ".join(data.draw(_WORDS))) for doc_id in ids]
    index = TextIndex(docs, k1=k1, b=b)
    with mock.patch.object(textsearch, "POSTINGS_BLOCK", block):
        text = index.to_json()
        clone = TextIndex.from_json(text)
        assert clone.to_json() == text
    assert text == json.dumps(json.loads(text), sort_keys=True, ensure_ascii=False)
    _same_index(clone, TextIndex.from_json(text))


def test_a_repeated_field_or_term_is_refused():
    """`json.loads` keeps the last of a repeated key; the index reader names
    the key instead, also when a term repeats with the same postings."""
    text = TextIndex(random_docs(12, seed=3)).to_json()
    payload = json.loads(text)
    term = min(payload["postings"])
    entry = f"{json.dumps(term)}: {json.dumps(payload['postings'][term])}"
    for edit, message in [
        (text.replace('"k1":', '"docs": [], "k1":'), "field 'docs' appears twice"),
        (text.replace('"postings": {', f'"postings": {{{entry}, ', 1),
         f"term {term!r} appears twice"),
    ]:
        with pytest.raises(DataError) as info:
            TextIndex.from_json(edit, "vr.json")
        assert str(info.value) == f"vr.json: {message}"


def test_postings_before_docs_load_to_the_same_index():
    """Any key order and any JSON whitespace is read; with `postings` before
    `docs` the pairs are held until the docs are read."""
    written = TextIndex(random_docs(30, seed=2), k1=1.4, b=0.5).to_json()
    payload = json.loads(written)
    reordered = {key: payload[key] for key in ("postings", "k1", "docs", "b")}
    for text in (json.dumps(reordered), json.dumps(reordered, indent="\t\n "),
                 json.dumps(payload, separators=(",", ":"))):
        _same_index(TextIndex.from_json(text), TextIndex.from_json(written))


def test_a_truncated_index_or_trailing_data_is_malformed_json():
    """Every proper prefix of an index file, and the file with data after
    it, is malformed JSON, with the message `json.loads` gives."""
    text = TextIndex(random_docs(4, seed=1, vocab_size=5, max_len=4)).to_json()
    for bad in [text[:end] for end in range(len(text))] + [text + " x", text + "{}"]:
        with pytest.raises(json.JSONDecodeError) as parse:
            json.loads(bad)
        with pytest.raises(DataError) as info:
            TextIndex.from_json(bad, "vr.json")
        assert str(info.value) == f"vr.json: malformed JSON: {parse.value.msg}"


def _large_index():
    """About 60k postings: 3,000 docs of 20 distinct words of 2,000."""
    rng = random.Random(0)
    vocab = [f"w{i}" for i in range(2000)]
    return TextIndex([(f"doc{i:04d}", " ".join(rng.sample(vocab, 20))) for i in range(3000)])


def _peak(fn, *args):
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_index_load_memory_is_a_small_multiple_of_the_file_and_the_arrays():
    """`from_json` decodes one term's pairs at a time and packs them a block
    at a time, so it peaks below 2.5 times the text plus the arrays it keeps
    (1.8 times here; a parse of the whole file with `json.loads` took 4.5)."""
    index = _large_index()
    assert len(index._idxs) >= 50_000
    blob = index.to_json()
    kept = len(blob) + sum(a.nbytes for a in (index._idxs, index._tfs, index._weights))
    assert _peak(TextIndex.from_json, blob) < 2.5 * kept


def test_index_write_memory_is_a_fraction_of_the_file(tmp_path):
    """`to_json` writes a block of terms at a time, with no list of pairs and
    no whole-file string, so writing peaks below a third of the file's size
    (a quarter here; one string of the whole file took nine times its size)."""
    index = _large_index()
    path = tmp_path / "vr_index.json"
    with open(path, "w", encoding="utf-8") as handle:
        peak = _peak(index.to_json, handle)
    assert peak < path.stat().st_size / 3

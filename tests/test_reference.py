"""The block-at-a-time ranked-list TSV reader and writer, the vector reader
that parses all rows into one matrix, and the lexical feature source,
against the row-at-a-time references in `reference.py`: the same bytes, the
same columns, vectors and feature rows bit for bit, and the same DataError
text for every damaged file. Small blocks (`artifacts.BLOCK` patched) put
bad lines and blank lines past the first block."""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import from_lists, pair_features
from prockb import artifacts, rerank
from prockb.corpus import UNLINKABLE, corpus_from_records
from prockb.errors import DataError
from prockb.linkeval import recall_report
from prockb.rerank import LexicalFeatureSource, RerankModel, make_training_examples, score_candidates
from prockb.retrieval import Ranked, read_candidates, write_candidates

ident = st.text(alphabet="abxyz_019éß字", max_size=4).map(lambda s: "k" + s)
# Floats whose shortest repr takes every form: subnormal, exponent, 17 digits, -0.0.
score = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 1e-300, 1e16, 1e15, 9007199254740993.0, 0.1, -0.0, 0.0,
                     1e300, 1.7976931348623157e308, 2.5e-05, 0.0001]),
)
blocks = st.sampled_from([1, 2, 3, 5, artifacts.BLOCK])


@st.composite
def ranked_lists(draw, sim2=None, empty=False):
    """Lists of 1 to 6 steps, each of up to 8 goals (at least 1 unless
    `empty`), reranked or not."""
    sim2 = draw(st.booleans()) if sim2 is None else sim2
    steps = draw(st.lists(ident, min_size=1, max_size=6, unique=True))
    goals = [draw(st.lists(ident, min_size=0 if empty else 1, max_size=8)) for _ in steps]
    scores = [[draw(st.lists(score, min_size=len(g), max_size=len(g))) for g in goals]
              for _ in range(1 + sim2)]
    return from_lists(steps, goals, *scores)


def bits(ranked: Ranked) -> tuple:
    """Every field of `ranked`, floats as their bytes."""
    sim2 = None if ranked.sim2 is None else ranked.sim2.tobytes()
    return (ranked.step_ids, ranked.offsets.tolist(), ranked.goal_ids, ranked.sim1.tobytes(),
            sim2)


def outcome(read, path, *args):
    """What `read` makes of the file: its columns, or the text of its DataError."""
    try:
        return bits(read(path, *args))
    except DataError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(ranked_lists(empty=True), blocks)
def test_written_bytes_match_rows(ranked, block):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(artifacts, "BLOCK", block):
        got, want = Path(tmp) / "got.tsv", Path(tmp) / "want.tsv"
        write_candidates(got, ranked)
        reference.write_candidates(want, ranked)
        assert got.read_bytes() == want.read_bytes()


@settings(max_examples=80, deadline=None)
@given(ranked_lists(), blocks, st.randoms(use_true_random=False))
def test_read_columns_match_lines(ranked, block, rng):
    """Lines in any order, with blank and whitespace-only lines among them."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(artifacts, "BLOCK", block):
        path = Path(tmp) / "candidates.tsv"
        reference.write_candidates(path, ranked)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(lines)
        for _ in range(rng.randrange(4)):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["\n", "  \n", "\t\n"]))
        path.write_text("".join(lines), encoding="utf-8")
        assert bits(read_candidates(path)) == bits(reference.read_candidates(path))


NUMBERS = ["x", "nan", "inf", "-inf", "1e400", "", " 7 ", "1_0", "0x1", "1.5",
           "1180591620717411303424", "-9223372036854775809", "9223372036854775807"]


def damage(lines: list[bytes], rng, i: int) -> list[bytes]:
    """`lines` with line i damaged in one way."""
    i = min(i, len(lines) - 1)
    fields = lines[i].split(b"\t")
    how = rng.choice(["drop", "extra", "number", "duplicate", "blank", "utf8", "crlf"])
    if how == "drop":
        lines[i] = b"\t".join(fields[:-1])
    elif how == "extra":
        lines[i] = b"\t".join(fields + [b"extra"])
    elif how == "number" and len(fields) > 1:
        fields[rng.choice([j for j in (1, 3, 4) if j < len(fields)])] = rng.choice(NUMBERS).encode()
        lines[i] = b"\t".join(fields)
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "blank":
        lines.insert(i, rng.choice([b"", b"   ", b"\t"]))
    elif how == "utf8":
        at = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:at] + b"\xff" + lines[i][at:]
    else:
        lines[i] += b"\r"
    return lines


@settings(max_examples=150, deadline=None)
@given(ranked_lists(), blocks, st.integers(1, 3), st.randoms(use_true_random=False))
def test_damaged_file_reads_or_fails_as_line_by_line(ranked, block, faults, rng):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(artifacts, "BLOCK", block):
        path = Path(tmp) / "candidates.tsv"
        reference.write_candidates(path, ranked)
        lines = path.read_bytes().splitlines()
        again = rng.randrange(len(lines))  # a line that may take several faults
        for _ in range(faults):
            lines = damage(lines, rng, rng.choice([again, rng.randrange(len(lines))]))
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert outcome(read_candidates, path) == outcome(reference.read_candidates, path)


@settings(max_examples=150, deadline=None)
@given(ranked_lists(), blocks, st.integers(2, 3), st.randoms(use_true_random=False))
def test_ids_outside_the_corpus_fail_as_line_by_line(ranked, block, faults, rng):
    """Given a corpus, a step or goal that is not one of its own is reported
    at its line, after that line's other faults and before later lines."""
    goals = sorted({"g" + goal_id for goal_id in ranked.goal_ids})
    steps = [{"id": "s" + step_id, "text": "x"} for step_id in ranked.step_ids]
    corpus = corpus_from_records(
        [{"id": goal, "title": "t", "steps": steps if i == 0 else [{"id": "d" + goal, "text": "x"}]}
         for i, goal in enumerate(goals)], source="corpus.jsonl")
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(artifacts, "BLOCK", block):
        path = Path(tmp) / "candidates.tsv"
        reference.write_candidates(path, ranked)
        lines = []
        for line in path.read_bytes().splitlines():
            step_id, rank, goal_id, *sims = line.split(b"\t")
            lines.append(b"\t".join([b"s" + step_id, rank, b"g" + goal_id, *sims]))
        again = rng.randrange(len(lines))  # a line that may take several faults
        for _ in range(faults):
            i = rng.choice([again, rng.randrange(len(lines))])
            if rng.random() < 0.5:
                fields = lines[i].split(b"\t")
                fields[rng.choice([j for j in (0, 2) if j < len(fields)])] = b"zz"
                lines[i] = b"\t".join(fields)
            else:
                lines = damage(lines, rng, i)
        path.write_bytes(b"\n".join(lines) + b"\n")
        got = outcome(read_candidates, path, corpus)
        assert got == outcome(reference.read_candidates, path, corpus)


@pytest.mark.parametrize("bad, message", [
    ("s9\t1\tg1\t0.5\t0.2\textra", "line 1402: expected 4 or 5 columns, got 6"),
    ("s9\t1\tg1", "line 1402: expected 4 columns or more, got 3"),
    ("s9\tone\tg1\t0.5", "line 1402: rank 'one' is not an integer"),
    ("s9\t1\tg1\t1e999", "line 1402: sim1 '1e999' is not a finite number"),
    ("s0\t1\tg1\t0.5", "line 1402: duplicate rank 1 for step 's0'"),
])
def test_bad_line_after_many_blocks_and_blank_lines(tmp_path, bad, message):
    """At the real block size, with a blank line in every few and the bad
    line far into the file."""
    lines = []
    for i in range(1200):
        lines.append(f"s{i // 30}\t{i % 30 + 1}\tg{i % 7}\t0.{i}")
        if i % 3 == 0:
            lines.append(" " if i % 2 else "")
    lines.insert(1401, bad)
    path = tmp_path / "candidates.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert outcome(read_candidates, path) == outcome(reference.read_candidates, path)
    assert outcome(read_candidates, path) == f"{path}: {message}"


@pytest.mark.parametrize("text, message", [
    ("s1\t1\tg1\t0.5\ns1\tx\tg2\t0.4\ns1\t3\tg3\n", "line 2: rank 'x' is not an integer"),
    ("s1\t1\tg1\t0.5\t0.1\ns1\tx\tg2\t0.4\n", "line 2: rank 'x' is not an integer"),
    ("s1\t1\tg1\t0.5\ns1\t2\tg2\tnan\t0.4\n", "line 2: sim2 column in some lines only"),
    ("s1\t1\tg1\t0.5\t1e999\ns1\t2\tg2\tx\t0.4\n", "line 1: sim2 '1e999' is not a finite number"),
    ("s1\t1\tg1\t0.5\ns1\t1\tg2\t0.4\ns1\t3\tg3\t0.2\t9\n",
     "line 3: sim2 column in some lines only"),
], ids=["rank-before-a-later-short-line", "rank-before-its-own-width", "width-before-its-own-sim1",
        "sim2-before-a-later-sim1", "line-fault-before-an-earlier-duplicate"])
def test_first_fault_in_line_order(tmp_path, text, message):
    """A file with several faults in one block reports the one that a
    line-by-line read meets first."""
    path = tmp_path / "candidates.tsv"
    path.write_text(text, encoding="utf-8")
    assert outcome(read_candidates, path) == outcome(reference.read_candidates, path)
    assert outcome(read_candidates, path) == f"{path}: {message}"


def test_bad_line_before_bad_utf8_of_the_same_block(tmp_path):
    """The bytes that are not UTF-8 are decoded after the bad line, in the
    same block of lines; the bad line is reported, as line by line."""
    lines = [f"s{i // 30}\t{i % 30 + 1}\tgoal{i % 7:04d}\t{0.1 + i / 7000!r}".encode()
             for i in range(1000)]
    lines[257] = b"s8\tone\tg1\t0.5"  # the second block is lines 257 to 512
    lines[509] = b"s16\t\xff20\tg3\t0.5"
    path = tmp_path / "candidates.tsv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    data = path.read_bytes()
    assert data.index(b"\xff") - data.index(b"one") > 8192  # a text file decodes 8 KiB at a time
    assert outcome(read_candidates, path) == outcome(reference.read_candidates, path)
    assert outcome(read_candidates, path) == f"{path}: line 258: rank 'one' is not an integer"


# ---------------------------------------------------------------------------
# Vector files

@st.composite
def vector_files(draw):
    """The lines of a ``dim=<d>`` file of up to 8 rows with 1 or 2 id fields,
    and that number of id fields."""
    n_ids, dim = draw(st.sampled_from([1, 2])), draw(st.integers(1, 5))
    keys = draw(st.lists(st.tuples(*[ident] * n_ids), max_size=8, unique=True))
    rows = [" ".join([*key, *map(repr, draw(st.lists(score, min_size=dim, max_size=dim)))])
            for key in keys]
    return [f"dim={dim}", *rows], n_ids


def vector_outcome(read, path, n_ids):
    """What `read` makes of the file: its width and each id with its row's
    bytes, or the text of its DataError."""
    try:
        result = read(path, n_ids)
    except DataError as exc:
        return str(exc)
    if isinstance(result[1], dict):  # the reference's (dim, {id: vector})
        return result[0], [(key, vec.tobytes()) for key, vec in result[1].items()]
    ids, matrix = result
    assert matrix.dtype == np.float64 and matrix.shape == (len(ids), matrix.shape[1])
    return matrix.shape[1], [(key, row.tobytes()) for key, row in zip(ids, matrix)]


def damage_vectors(lines: list[str], rng, i: int) -> list[str]:
    """`lines` with line i (0 is the header) damaged in one way."""
    i = min(i, len(lines) - 1)
    fields = lines[i].split(" ")
    how = rng.choice(["drop", "extra", "number", "duplicate", "blank", "crlf"])
    if how == "drop":
        lines[i] = " ".join(fields[:-1])
    elif how == "extra":
        lines[i] = " ".join(fields + [rng.choice(["1.5", "x"])])
    elif how == "number":
        fields[rng.randrange(len(fields))] = rng.choice(NUMBERS)
        lines[i] = " ".join(fields)
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "blank":
        lines.insert(i, rng.choice(["", "   ", "\t"]))
    else:
        lines[i] += "\r"
    return lines


@settings(max_examples=150, deadline=None)
@given(vector_files(), blocks, st.integers(0, 3), st.randoms(use_true_random=False))
def test_vectors_read_or_fail_as_line_by_line(file, block, faults, rng):
    """The same ids, rows bit for bit, and the same message and line for
    every fault, with 1 and 2 id columns."""
    lines, n_ids = file
    for _ in range(faults):
        lines = damage_vectors(lines, rng, rng.randrange(len(lines)))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(artifacts, "BLOCK", block):
        path = Path(tmp) / "vectors.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = vector_outcome(artifacts.read_vectors, path, n_ids)
        assert got == vector_outcome(reference.read_vectors, path, n_ids)


@pytest.mark.parametrize("n_ids", [1, 2])
@pytest.mark.parametrize("bad, message", [
    ("{id} 1.0 2.0", "row '{id}' has 2 values, expected 3"),
    ("{id} 1.0 x nan", "row '{id}' has a non-numeric value"),
    ("{id} 1.0 1e999 3.0", "row '{id}' has a non-finite value"),
    ("{id} 1.0 2.0 nan", "row '{id}' has a non-finite value"),
    ("{first} 1.0 2.0 3.0", "duplicate row '{first}'"),
], ids=["width", "non-numeric-before-non-finite", "overflow", "nan", "duplicate"])
def test_bad_vector_row_after_many_blocks_and_blank_lines(tmp_path, n_ids, bad, message):
    """At the real block size, with a blank line in every few and the bad
    line far into the file, each fault kind is reported as line by line."""
    key = (lambda i: f"r{i}") if n_ids == 1 else (lambda i: f"s{i} g{i % 7}")
    lines = ["dim=3"]
    for i in range(700):
        lines.append(f"{key(i)} {i / 7!r} -{i}.5 1e-{i % 300}")
        if i % 3 == 0:
            lines.append(" " if i % 2 else "")
    lines.insert(900, bad.format(id=key(9999), first=key(0)))
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got = vector_outcome(artifacts.read_vectors, path, n_ids)
    assert got == vector_outcome(reference.read_vectors, path, n_ids)
    assert got == f"{path}: line 901: " + message.format(id=key(9999), first=key(0))


@pytest.mark.parametrize("text, message", [
    ("dim=2\na 1 2\na 1\n", "line 3: row 'a' has 1 values, expected 2"),
    ("dim=2\na 1 2\nb x\na 3 4\n", "line 3: row 'b' has 1 values, expected 2"),
    ("dim=2\na 1 2\na 1 inf\n", "line 3: row 'a' has a non-finite value"),
    ("dim=2\na 1 2\nb 1 2 3\na 3 4\n", "line 3: row 'b' has 3 values, expected 2"),
    ("dim=2\na 1 2\na 3 4\nb 1\n", "line 3: duplicate row 'a'"),
    ("\n\ndim=0\na 1\n", "line 3: expected header 'dim=<d>' with d >= 1, got 'dim=0'"),
    ("", "line 1: expected header 'dim=<d>' with d >= 1, got ''"),
], ids=["width-before-duplicate", "width-before-a-later-duplicate", "non-finite-before-duplicate",
        "width-before-a-later-duplicate-of-the-block", "duplicate-before-a-later-width",
        "header-after-blank-lines", "empty-file"])
def test_first_vector_fault_in_line_order(tmp_path, text, message):
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    got = vector_outcome(artifacts.read_vectors, path, 1)
    assert got == vector_outcome(reference.read_vectors, path, 1)
    assert got == f"{path}: {message}"


# ---------------------------------------------------------------------------
# Lexical features

WORDS = ["oven", "bake", "Über", "straße", "STRASSE", "İstanbul", "naïve", "字字", "ok", "a",
         "ΣΑΣ", "x1", "the", "oven-rack", "é"]
words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)
long_words = st.lists(st.sampled_from(WORDS), min_size=9, max_size=14).map(" ".join)


@st.composite
def corpora(draw):
    """Titles of 1-4 or of 9-14 words, with repeats, from a vocabulary with
    non-ASCII, case-folding and combining characters; a step is words or a
    re-cased copy of a title."""
    titles = draw(st.lists(st.one_of(words, long_words), min_size=1, max_size=6))
    records = []
    for i, title in enumerate(titles):
        steps = []
        for j in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                text = draw(st.one_of(words, long_words))
            else:
                text = draw(st.sampled_from(titles))
                text = draw(st.sampled_from([text, text.upper(), text.lower(), text.swapcase()]))
            steps.append({"id": f"s{i}_{j}", "text": text})
        records.append({"id": f"g{i}", "title": title, "steps": steps})
    return corpus_from_records(records)


@settings(max_examples=100, deadline=None)
@given(corpora(), st.integers(1, 5), st.data())
def test_feature_rows_match_text_by_text(corpus, block, data):
    step_ids = [step.step_id for step in corpus.steps()]
    lists = data.draw(st.lists(
        st.tuples(st.sampled_from(step_ids),
                  st.lists(st.sampled_from(corpus.goal_ids()), max_size=6).map(tuple)),
        min_size=1, max_size=10))
    steps, goals = map(tuple, zip(*lists))
    source = LexicalFeatureSource(corpus)
    source.block = block
    want = reference.LexicalFeatureSource(corpus)
    assert pair_features(source, steps, goals).tobytes() == want.features(steps, goals).tobytes()


# ---------------------------------------------------------------------------
# Scores in blocks, and memory

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 9), st.integers(1, 7), st.data())
def test_block_scores_match_one_product(n, dim, block, data):
    values = st.lists(score.filter(lambda x: abs(x) < 1e150), min_size=n * dim, max_size=n * dim)
    feats = np.array(data.draw(values)).reshape(n, dim)
    model = RerankModel(w=np.array(data.draw(st.lists(score.filter(lambda x: abs(x) < 1e150),
                                                      min_size=dim, max_size=dim))), lam=0.5)
    sim1 = np.linspace(-1, 1, n)
    with mock.patch.object(rerank, "SCORE_ROWS", block):
        got = rerank._scores(model, feats, sim1)
    assert got.tobytes() == ((feats * model.w).sum(axis=1) + model.lam * sim1).tobytes()


@st.composite
def gold_lists(draw):
    """Lists of up to 8 goals from a pool of three goals and the placeholder,
    so a gold goal may appear twice, be absent or sit behind UNLINKABLE
    rows, and gold goals from that pool and one no list has, for some of
    the steps only."""
    steps = draw(st.lists(ident, min_size=1, max_size=6, unique=True))
    pool = ["g0", "g1", "g2", UNLINKABLE]
    goals = [draw(st.lists(st.sampled_from(pool), max_size=8)) for _ in steps]
    gold = {step_id: goal for step_id in steps
            if (goal := draw(st.sampled_from([None, "g0", "g1", "g2", "g9"]))) is not None}
    return from_lists(steps, goals, [[0.0] * len(g) for g in goals]), gold


@settings(max_examples=200, deadline=None)
@given(gold_lists(), st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True),
       st.booleans())
def test_gold_slots_match_the_step_by_step_search(lists, ns, unlinkable):
    """`recall_report` equals the per-step loop, and the training slots are
    each list's first index of its gold goal: in unlinkable mode the list's
    length for an absent goal, which otherwise drops the list."""
    ranked, gold = lists
    if gold:
        report = recall_report(ranked, gold, ns)
        assert report == {n: reference.recall_at(ranked, gold, n) for n in ns}
        assert {type(recall) for recall in report.values()} == {float}
    goals = {step_id: list(ranked.goal_ids[ranked.rows(i)])
             for i, step_id in enumerate(ranked.step_ids)}
    want = [(step_id, row.index(gold[step_id]) if gold[step_id] in row else len(row))
            for step_id, row in goals.items()
            if step_id in gold and (unlinkable or gold[step_id] in row)]
    examples, slots = make_training_examples(ranked, gold, unlinkable)
    assert list(zip(examples.step_ids, slots)) == want
    assert [list(examples.goal_ids[examples.rows(i)]) for i in range(len(slots))] == [
        goals[step_id] for step_id in examples.step_ids]


def big_ranked(sim2: bool) -> Ranked:
    """800 lists of 25 goals: 20,000 rows."""
    rng = np.random.default_rng(5)
    goals = [[f"g{j:04d}" for j in rng.choice(2000, 25, replace=False)] for _ in range(800)]
    scores = [rng.normal(size=(800, 25)).tolist() for _ in range(1 + sim2)]
    return from_lists([f"s{i:04d}" for i in range(800)], goals, *scores)


def peak_mib(fn, *args) -> float:
    """Peak memory that numpy and Python allocate while `fn` runs, beyond what was held before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_peak_memory_of_20000_rows(tmp_path):
    """Peaks measured with numpy 2.4 on CPython 3.11, and the bounds here:
    writing 0.07 MiB (< 0.25), one block of lines; reading 2.1 MiB (< 2.6),
    about 110 B a row for the columns, their sorted copies and the goal
    ids; `_scores` 0.46 MiB (< 0.7), where one product of the whole feature
    matrix took 1.37 MiB; `score_candidates` 1.4 MiB (< 1.8)."""
    ranked = big_ranked(sim2=True)
    path = tmp_path / "rankings.tsv"
    assert peak_mib(write_candidates, path, ranked) < 0.25
    assert peak_mib(read_candidates, path) < 2.6
    ranked = big_ranked(sim2=False)
    feats = np.random.default_rng(6).normal(size=(len(ranked.goal_ids), 7))
    model = RerankModel(w=np.linspace(-1, 1, 7), lam=0.5, unlinkable_feat=np.ones(7))
    assert peak_mib(rerank._scores, model, feats, ranked.sim1) < 0.7
    assert peak_mib(score_candidates, model, ranked, feats) < 1.8

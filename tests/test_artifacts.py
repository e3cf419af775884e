"""Every artifact reader against its writer: round trips, and damaged lines.

A damaged file is read either exactly as the intact one was or rejected with
a DataError that starts with the path; never parsed into something else, and
never failed with another exception. The one exception is a model checkpoint
whose W row lost values: it states no width but W's, so it reads as a
narrower model, and `link` and `expand` refuse it against the feature width.
"""

import json
import math
import random
import re
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns, from_lists, read_links, vector_table, write_jsonl
from prockb.artifacts import tab_rows, write_json, write_rows
from prockb.corpus import corpus_from_records, load_corpus
from prockb.embedding import load_embeddings, save_embeddings
from prockb.errors import DataError
from prockb.hierarchy import decisions, write_links
from prockb.linkeval import load_gold_links, split, split_links
from prockb.rerank import (
    RerankModel,
    load_model,
    model_text,
    save_model,
)
from prockb.retrieval import read_candidates, write_candidates
from prockb.videoretrieval import (
    LEVELS,
    Query,
    VideoDoc,
    load_videos,
    read_queries,
    split_videos,
    write_queries,
)

# Ids start with a letter, so no id reads as a number (not even "nan" or "inf").
ident = st.text(alphabet="abxyz_019éß字", max_size=4).map(lambda s: "k" + s)
number = st.floats(allow_nan=False, allow_infinity=False)
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


def vector(dim: int):
    return st.lists(number, min_size=dim, max_size=dim).map(np.array)


@st.composite
def embeddings(draw):
    dim = draw(st.integers(1, 4))
    ids = draw(st.lists(ident, min_size=1, max_size=4, unique=True))
    return vector_table(dim, {row_id: draw(vector(dim)) for row_id in ids})


@st.composite
def ranked_lists(draw, sim2: bool):
    """Ranked lists of 1 to 3 steps, each of 1 to 3 goals, reranked (with
    sim2) or not."""
    steps = draw(st.lists(ident, min_size=1, max_size=3, unique=True))
    goals = [draw(st.lists(ident, min_size=1, max_size=3)) for _ in steps]
    scores = [[draw(st.lists(number, min_size=len(g), max_size=len(g))) for g in goals]
              for _ in range(1 + sim2)]
    return from_lists(steps, goals, *scores)


@st.composite
def gold_links(draw):
    steps = draw(st.lists(ident, min_size=1, max_size=4, unique=True))
    return {step_id: draw(ident) for step_id in steps}


@st.composite
def models(draw):
    dim = draw(st.integers(1, 4))
    unlinkable = draw(st.booleans())
    return RerankModel(
        w=draw(vector(dim)),
        lam=draw(number),
        unlinkable_feat=draw(vector(dim)) if unlinkable else None,
        k=draw(st.integers(1, 50)),
    )


@st.composite
def query_lists(draw):
    """Queries of one level, as one queries.json holds."""
    goals = draw(st.lists(ident, min_size=1, max_size=3, unique=True))
    level = draw(st.sampled_from(LEVELS))
    return [
        Query(goal_id, draw(text), tuple(draw(st.lists(text, max_size=3))), draw(number),
              draw(number), level=level)
        for goal_id in goals
    ]


@st.composite
def corpora(draw):
    goals = draw(st.lists(ident, min_size=1, max_size=3, unique=True))
    return [
        {"id": f"g{goal_id}", "title": draw(ident),
         "steps": [{"id": f"s{goal_id}_{j}", "text": draw(ident)}
                   for j in range(draw(st.integers(1, 3)))]}
        for goal_id in goals
    ]


@st.composite
def video_lists(draw):
    ids = draw(st.lists(ident, min_size=1, max_size=4, unique=True))
    return [VideoDoc(video_id, draw(ident), draw(ident)) for video_id in ids]


def _write_videos(path, videos):
    with open(path, "w", encoding="utf-8") as handle:
        for v in videos:
            record = {"video_id": v.video_id, "goal_id": v.goal_id, "caption": v.caption}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _store_rows(store):
    return store.dim, [(row_id, store[row_id].tobytes()) for row_id in store.ids]


def _model_fields(model):
    u = None if model.unlinkable_feat is None else model.unlinkable_feat.tobytes()
    return model.w.tobytes(), model.lam, model.unlinkable_enabled, u, model.k


class Kind(NamedTuple):
    """One artifact kind: data, its writer, its reader (as the CLI reads it),
    what the reader should return for the data, and how a line is damaged."""

    data: st.SearchStrategy
    write: Callable
    read: Callable
    expect: Callable
    sep: str | None  # field separator; None: fields are not damaged
    mutations: tuple[str, ...] = ("drop", "x", "nan", "duplicate", "utf8")


KINDS = {
    "embeddings": Kind(
        embeddings(),
        lambda path, store: save_embeddings(store, path),
        lambda path: _store_rows(load_embeddings(path)),
        _store_rows,
        " ",
    ),
    "candidates": Kind(ranked_lists(sim2=False), write_candidates,
                       lambda path: columns(read_candidates(path)), columns, "\t"),
    # As eval-links reads rankings: a line without its sim2 may read as a
    # candidates line, so sim2 is compared in test_rankings_round_trip_keeps_scores.
    "rankings": Kind(ranked_lists(sim2=True), write_candidates,
                     lambda path: columns(read_candidates(path))[:4], lambda r: columns(r)[:4],
                     "\t"),
    "links": Kind(ranked_lists(sim2=True), write_links, read_links,
                  lambda r: {s: d.outcome for s, d in decisions(r).items()}, "\t"),
    "gold": Kind(gold_links(),
                 lambda path, links: write_rows(path, links.items()),
                 lambda path: list(load_gold_links(path).items()),
                 lambda links: list(links.items()), "\t"),
    "model": Kind(
        models(),
        lambda path, model: save_model(model, path),
        lambda path: _model_fields(load_model(path)),
        _model_fields,
        " ",
    ),
    "queries": Kind(query_lists(), write_queries, read_queries, lambda x: x, None, ("utf8",)),
    "corpus": Kind(
        corpora(),
        write_jsonl,
        lambda path: load_corpus(path).articles,
        lambda records: corpus_from_records(records).articles,
        None,
        ("duplicate", "utf8"),
    ),
    "videos": Kind(video_lists(), _write_videos, load_videos, lambda x: x, None,
                   ("duplicate", "utf8")),
}


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def damage(lines: list[str], kind: Kind, data) -> bytes:
    """The file of `lines` with one line damaged in one of the kind's ways."""
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    how = data.draw(st.sampled_from(kind.mutations), label="damage")
    line = lines[i]
    if how == "drop":
        lines[i] = kind.sep.join(line.split(kind.sep)[:-1])
    elif how in ("x", "nan"):
        tokens = re.split(r"([\t =])", line)
        numeric = [j for j, token in enumerate(tokens) if _is_number(token)]
        if numeric:
            tokens[data.draw(st.sampled_from(numeric), label="field")] = how
        lines[i] = "".join(tokens)
    elif how == "duplicate":
        lines.insert(i, line)
    out = [line.encode("utf-8") for line in lines]
    if how == "utf8":
        at = data.draw(st.integers(0, len(line)), label="at")
        out[i] = line[:at].encode("utf-8") + b"\xff" + line[at:].encode("utf-8")
    return b"\n".join(out) + b"\n"


@pytest.mark.parametrize("name", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip(name, data):
    kind = KINDS[name]
    value = data.draw(kind.data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        kind.write(path, value)
        assert kind.read(path) == kind.expect(value)


@pytest.mark.parametrize("name", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_line_is_read_as_before_or_rejected_with_path(name, data):
    kind = KINDS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        kind.write(path, data.draw(kind.data))
        before = kind.read(path)
        path.write_bytes(damage(path.read_text(encoding="utf-8").splitlines(), kind, data))
        try:
            after = kind.read(path)
        except DataError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            if name == "model" and after[0] != before[0]:
                # A checkpoint's width is its W row's length: a W row that lost its last
                # value reads as a narrower model, which `link` and `expand` refuse against
                # the feature width (test_cli's test_link_rejects_bad_checkpoint).
                assert after == (before[0][: len(after[0])], *before[1:])
            else:
                assert after == before


@settings(max_examples=60, deadline=None)
@given(model=models(), data=st.data())
def test_checkpoint_with_one_more_key_line_fails_to_load(model, data):
    """`load_model` reads `model_text` and nothing else: one more ``key=value``
    line, anywhere, is a DataError naming the path, whether its key is one
    the checkpoint has (then given twice) or one it may not have, such as
    the `features` key of a model trained on a pair-feature file."""
    lines = model_text(model).splitlines(keepends=True)
    present = [line.split("=", 1)[0] for line in lines if "=" in line]
    key = data.draw(st.sampled_from([*present, "dim", "unlinkable", "context_mode", "window",
                                     "features", "featurs", "W", "U", ""]))
    value = data.draw(st.sampled_from(["1", "0", "1.0", "both", "f" * 64]))
    lines.insert(data.draw(st.integers(0, len(lines))), f"{key}={value}\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_model(path)
    assert str(info.value).startswith(f"{path}: ")


@settings(max_examples=40, deadline=None)
@given(ranked=ranked_lists(sim2=True))
def test_rankings_round_trip_keeps_scores(ranked):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rankings.tsv"
        write_candidates(path, ranked)
        assert columns(read_candidates(path)) == columns(ranked)


def test_tab_rows_checks_columns_and_unique_first_field(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("a\t1\n\nb\t2\na\t3\n")
    assert [lineno for lineno, _ in tab_rows(path, 2)] == [1, 3, 4]
    with pytest.raises(DataError, match=r"rows.tsv: line 4: duplicate step 'a'$"):
        list(tab_rows(path, 2, unique="step"))
    with pytest.raises(DataError, match=r"rows.tsv: line 1: expected 3 columns or more, got 2$"):
        list(tab_rows(path, 3))
    with pytest.raises(DataError, match=r"rows.tsv: line 1: expected 1 columns, got 2$"):
        list(tab_rows(path, 1, exact=True))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_artifact_refuses_a_number_that_is_not_finite(tmp_path, value):
    """JSON has no NaN or Infinity, so `write_json` does not write them."""
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "x.json", {"sim2": [0.5, value]})


def test_missing_file_is_a_data_error_with_path(tmp_path):
    path = tmp_path / "nope.tsv"
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: cannot read"):
        load_gold_links(path)


def test_bad_utf8_names_its_line(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_bytes("s1\tg1\nsé\tg2\n".encode() + b"s3\t\xc3g3\n")
    with pytest.raises(DataError, match=r"gold.tsv: line 3: not valid UTF-8"):
        load_gold_links(path)


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 40, 21_000])
@pytest.mark.parametrize("ratios", [(7, 2, 1), (7.5, 1.25, 1.25)])
def test_split_sizes_floor_dev_and_test(n, ratios):
    parts = split(list(range(n)), random.Random(0), ratios)
    n_train, n_dev, n_test = (len(parts[name]) for name in ("train", "dev", "test"))
    total = sum(ratios)
    assert (n_dev, n_test) == (int(n * ratios[1] / total), int(n * ratios[2] / total))
    assert n_train + n_dev + n_test == n


def test_both_splits_use_split():
    """Both splits are cut under seed 0, as bench/checks.py recomputes them."""
    links = {f"s{i}": "g" for i in range(23)}
    expect = split(list(links), random.Random(0), (7, 2, 1))
    assert {name: list(part) for name, part in split_links(links).items()} == expect
    videos = [VideoDoc(f"v{i:02d}", "g", "c") for i in range(23)]
    expect = split([video.video_id for video in videos], random.Random(0), (7.5, 1.25, 1.25))
    assert {name: part["g"] for name, part in split_videos(videos).items()} == expect

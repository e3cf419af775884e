import json

import pytest

from conftest import make_corpus, two_article_records, write_jsonl
from prockb.corpus import context_of, load_corpus, normalize_text, validation_report
from prockb.errors import DataError


def test_load_two_article_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, two_article_records())
    corpus = load_corpus(path)
    assert corpus.n_goals == 2
    assert corpus.n_steps == 5
    assert corpus.article("g1").title == "Choose a Camera"
    assert corpus.step("s4").parent_goal_id == "g2"
    assert corpus.step("s4").position == 0


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_corpus_without_articles_names_its_path(tmp_path, text):
    path = tmp_path / "corpus.jsonl"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path}: no articles"


def test_duplicate_goal_id_rejected(tmp_path):
    records = two_article_records()
    records[1]["id"] = "g1"
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, records)
    with pytest.raises(DataError, match="duplicate goal_id"):
        load_corpus(path)


def test_duplicate_step_id_rejected():
    records = two_article_records()
    records[1]["steps"][0]["id"] = "s1"
    with pytest.raises(DataError, match="duplicate step_id"):
        make_corpus(records)


def test_empty_step_list_rejected():
    records = [{"id": "g1", "title": "Title", "steps": []}]
    with pytest.raises(DataError, match="empty step list"):
        make_corpus(records)


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    with open(path, "w") as handle:
        handle.write(json.dumps(two_article_records()[0]) + "\n")
        handle.write("{not json\n")
    with pytest.raises(DataError, match="line 2"):
        load_corpus(path)


def test_missing_field_names_record():
    with pytest.raises(DataError, match="record 1"):
        make_corpus([{"id": "g1", "steps": [{"id": "s1", "text": "x"}]}])


def test_blank_step_text_rejected():
    records = [{"id": "g1", "title": "T", "steps": [{"id": "s1", "text": "  \t "}]}]
    with pytest.raises(DataError, match="empty after normalization"):
        make_corpus(records)


@pytest.mark.parametrize("where", ["goal", "step"])
@pytest.mark.parametrize(
    "space", [" ", "\t", "\u00a0", "\x1c", "\x85", "\u2028", "\u3000"],
    ids=["space", "tab", "nbsp", "file-separator", "next-line", "line-separator", "ideographic"])
def test_id_with_whitespace_rejected(tmp_path, where, space):
    records = two_article_records()
    bad = f"x{space}2"
    if where == "goal":
        records[1]["id"] = bad
    else:
        records[1]["steps"][0]["id"] = bad
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, records)
    with pytest.raises(DataError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path}: record 2: id {bad!r} contains whitespace"


def test_id_with_zero_width_space_is_accepted():
    """U+200B is not whitespace to `str.isspace`, so it may sit in an id."""
    records = two_article_records()
    records[1]["id"], records[1]["steps"][0]["id"] = "x\u200b2", "s\u200b4"
    corpus = make_corpus(records)
    assert corpus.goal_ids()[1] == corpus.step("s\u200b4").parent_goal_id == "x\u200b2"


def test_lone_surrogate_escape_is_a_data_error_at_its_record(tmp_path):
    """json.dumps writes "\\ud800" for a lone surrogate and "\\ud83d\\ude00"
    for the pair of one character outside the BMP: the pair reads, the
    lone escape cannot be written as UTF-8 and is rejected."""
    records = two_article_records()
    records[0]["title"] = "Choose \U0001F600"
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, records)
    assert "\\ud83d\\ude00" in path.read_text()
    assert load_corpus(path).article("g1").title == "Choose \U0001F600"
    records[1]["title"] = "Make \ud800"
    write_jsonl(path, records)
    with pytest.raises(DataError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path}: record 2: title: lone surrogate '\\ud800' in 'Make \\ud800'"


def test_reserved_id_rejected():
    records = [{"id": "UNLINKABLE", "title": "T", "steps": [{"id": "s1", "text": "x"}]}]
    with pytest.raises(DataError, match="reserved"):
        make_corpus(records)


def test_normalization_collapses_whitespace_preserves_case():
    assert normalize_text("  Stain\tthe   Cabinet \n") == "Stain the Cabinet"
    # NFC: combining acute composed into a single code point
    assert normalize_text("café") == "café"


def test_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, two_article_records())
    corpus = load_corpus(path)
    out = tmp_path / "saved.jsonl"
    write_jsonl(out, [
        {"id": a.goal_id, "title": a.title,
         "steps": [{"id": s.step_id, "text": s.text} for s in a.steps]}
        for a in corpus.articles
    ])
    again = load_corpus(out)
    assert again == corpus


def test_deterministic_load(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, two_article_records())
    assert load_corpus(path) == load_corpus(path)


def test_context_both_window_one(two_article_corpus):
    """The title of the step's article, then the steps just before and after it."""
    assert context_of(two_article_corpus, "s2") == (
        "Choose a Camera", "set a budget", "test the camera")


def test_context_boundary_truncation(two_article_corpus):
    assert context_of(two_article_corpus, "s1") == ("Choose a Camera", "buy a camera")
    assert context_of(two_article_corpus, "s3") == ("Choose a Camera", "buy a camera")
    assert context_of(two_article_corpus, "s5") == ("Make Videos", "purchase a camera")


def test_context_goal_mode(two_article_corpus):
    """The title is that of the step's own article."""
    assert context_of(two_article_corpus, "s4")[0] == "Make Videos"
    assert context_of(two_article_corpus, "s3")[0] == "Choose a Camera"


def test_context_window_cap(two_article_corpus):
    """At most one step on each side of the step, never the step itself."""
    for step in two_article_corpus.steps():
        ctx = context_of(two_article_corpus, step.step_id)
        assert 2 <= len(ctx) <= 3 and step.text not in ctx[1:]


def test_context_errors(two_article_corpus):
    with pytest.raises(KeyError, match="nope"):
        context_of(two_article_corpus, "nope")


def test_validation_report(two_article_corpus):
    report = validation_report(two_article_corpus)
    lines = report.strip().splitlines()
    assert "articles\t2" in lines
    assert "steps\t5" in lines
    assert any(line.startswith("duplicate_titles") for line in lines)

import argparse
import gc
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import prockb
from conftest import identity_records, joined, write_jsonl
from prockb import cli, hierarchy, retrieval
from prockb.cli import main
from prockb.corpus import UNLINKABLE, load_corpus
from prockb.embedding import load_embeddings
from prockb.errors import DataError
from prockb.hierarchy import LinkPipeline, link_all
from prockb.linkeval import split_links
from prockb.rerank import LexicalFeatureSource, load_model, new_model, save_model
from prockb.retrieval import build_index, read_candidates
from prockb.videoretrieval import FIL_L1, Query, build_video_index, load_videos, write_queries


def run(argv):
    return main(argv)


@pytest.fixture
def identity_setup(tmp_path):
    """Corpus + gold links for the verbatim-copy linking scenario."""
    records, gold = identity_records(20)
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, records)
    gold_path = tmp_path / "gold.tsv"
    with open(gold_path, "w") as handle:
        for step_id, goal_id in gold.items():
            handle.write(f"{step_id}\t{goal_id}\n")
    return corpus_path, gold_path, gold


def test_end_to_end_linking(identity_setup, tmp_path):
    corpus_path, gold_path, gold = identity_setup
    base = ["--corpus", str(corpus_path), "--out-dir"]

    assert run(["build-index", "--corpus", str(corpus_path), "--dim", "64", "--seed", "7",
                "--out-dir", str(tmp_path / "ix")]) == 0
    embeddings = tmp_path / "ix" / "embeddings.txt"
    assert embeddings.exists()
    assert (tmp_path / "ix" / "corpus_report.txt").exists()

    assert run(["retrieve", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                "--k", "10", "--out-dir", str(tmp_path / "ret")]) == 0
    candidates = tmp_path / "ret" / "candidates.tsv"

    assert run(["train-reranker", "--corpus", str(corpus_path),
                "--candidates", str(candidates), "--gold", str(gold_path),
                "--lr", "1.0", "--epochs", "10", "--batch", "8",
                "--seed", "0", "--out-dir", str(tmp_path / "tr")]) == 0
    model = tmp_path / "tr" / "model.txt"
    curve = (tmp_path / "tr" / "loss_curve.tsv").read_text().splitlines()
    assert curve[0] == "epoch\ttrain_loss\tdev_loss"
    assert len(curve) == 11

    assert run(["link", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                "--model", str(model), "--rankings", "--out-dir", str(tmp_path / "ln")]) == 0
    rankings = tmp_path / "ln" / "rankings.tsv"
    links = (tmp_path / "ln" / "links.tsv").read_text().splitlines()
    outcome = {line.split("\t")[0]: line.split("\t")[1] for line in links}
    assert all(outcome[step] == goal for step, goal in gold.items())

    assert run(["eval-links", "--rankings", str(rankings), "--gold", str(gold_path),
                "--ns", "1,5,10", "--out-dir", str(tmp_path / "ev")]) == 0
    report = json.loads((tmp_path / "ev" / "recall.json").read_text())
    assert report["1"] == 1.0


def test_expand_cli(identity_setup, tmp_path):
    corpus_path, gold_path, _ = identity_setup
    run(["build-index", "--corpus", str(corpus_path), "--out-dir", str(tmp_path / "ix")])
    embeddings = tmp_path / "ix" / "embeddings.txt"
    run(["retrieve", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
         "--k", "5", "--out-dir", str(tmp_path / "ret")])
    run(["train-reranker", "--corpus", str(corpus_path),
         "--candidates", str(tmp_path / "ret" / "candidates.tsv"), "--gold", str(gold_path),
         "--epochs", "5", "--lr", "1.0", "--out-dir", str(tmp_path / "tr")])
    code = run(["expand", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                "--model", str(tmp_path / "tr" / "model.txt"),
                "--root", "a00", "--max-depth", "2", "--out-dir", str(tmp_path / "tree")])
    assert code == 0
    payload = json.loads((tmp_path / "tree" / "tree.json").read_text())
    assert payload["tree"]["goal_id"] == "a00"
    probe = payload["tree"]["steps"][0]
    assert probe["link"] == "a01"
    assert probe["children"]


def test_missing_input_exits_2(tmp_path, capsys):
    code = run(["build-index", "--corpus", str(tmp_path / "nope.jsonl"),
                "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "nope.jsonl" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert run(["no-such-command", "--out-dir", "x"]) == 1
    assert run(["retrieve", "--bogus-flag"]) == 1
    assert run([]) == 1


@pytest.mark.parametrize("exc, code, err", [
    (DataError("x.tsv: line 2: bad row"), 2, "error: x.tsv: line 2: bad row"),
    (cli.UsageError("give --k"), 1, "usage error: give --k"),
    (KeyError("ghost"), 3, "internal error: KeyError: 'ghost'"),
    (ValueError("k must be >= 1"), 3, "internal error: ValueError: k must be >= 1"),
], ids=["data-error", "usage-error", "key-error", "value-error"])
def test_only_a_data_error_exits_2(input_files, tmp_path, capsys, monkeypatch, exc, code, err):
    """Any exception but a DataError or a UsageError is a fault of the
    program, not of its inputs."""
    def command(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_search", command)
    capsys.readouterr()
    out = tmp_path / "s"
    assert run(["search", "--corpus", str(input_files["corpus"]), "--query", "tea",
                "--out-dir", str(out)]) == code
    assert capsys.readouterr().err == err + "\n"
    assert not out.exists()


def test_rerun_is_byte_identical(identity_setup, tmp_path):
    corpus_path, _, _ = identity_setup
    out = tmp_path / "ix"
    argv = ["build-index", "--corpus", str(corpus_path), "--dim", "32", "--seed", "3",
            "--out-dir", str(out)]
    assert run(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(argv) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_reused_out_dir_keeps_only_the_new_run_artifacts(identity_setup, tmp_path):
    corpus_path, _, _ = identity_setup
    model = tmp_path / "model.txt"
    save_model(new_model(7, unlinkable=True), model)
    ix = tmp_path / "ix"
    assert run(["build-index", "--corpus", str(corpus_path), "--out-dir", str(ix)]) == 0
    argv = ["link", "--corpus", str(corpus_path), "--embeddings",
            str(ix / "embeddings.txt"), "--model", str(model),
            "--out-dir", str(tmp_path / "ln")]
    assert run([*argv, "--rankings"]) == 0
    assert (tmp_path / "ln" / "rankings.tsv").exists()
    (tmp_path / "ln" / "notes.txt").write_text("not an artifact\n")
    assert run(argv) == 0
    assert sorted(p.name for p in (tmp_path / "ln").iterdir()) == [
        "links.tsv", "manifest.json", "notes.txt"]


def test_reused_out_dir_deletes_only_bare_names_it_listed(identity_setup, tmp_path):
    """... and deletes the old manifest once, even when it lists itself."""
    corpus_path, _, _ = identity_setup
    out = tmp_path / "ix"
    (tmp_path / "x").write_text("outside\n")
    out.mkdir()
    (out / "manifest.json").write_text(
        json.dumps({"outputs": ["../x", "", ".", "..", "manifest.json"]}))
    assert run(["build-index", "--corpus", str(corpus_path), "--out-dir", str(out)]) == 0
    assert (tmp_path / "x").read_text() == "outside\n"
    assert json.loads((out / "manifest.json").read_text())["command"] == "build-index"


def test_reused_out_dir_keeps_an_input_it_listed(identity_setup, tmp_path):
    corpus_path, _, _ = identity_setup
    out = tmp_path / "ix"
    assert run(["build-index", "--corpus", str(corpus_path), "--out-dir", str(out)]) == 0
    vectors = (out / "embeddings.txt").read_bytes()
    assert run(["retrieve", "--corpus", str(corpus_path), "--embeddings",
                str(out / "embeddings.txt"), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "candidates.tsv", "embeddings.txt", "manifest.json"]
    assert (out / "embeddings.txt").read_bytes() == vectors


def test_artifact_at_an_input_path_is_a_usage_error(identity_setup, tmp_path, capsys):
    """retrieve given vectors saved as its own artifact `candidates.tsv`
    would overwrite them; it stops before it touches --out-dir."""
    corpus_path, _, _ = identity_setup
    out = tmp_path / "ret"
    out.mkdir()
    vectors = out / "candidates.tsv"
    corpus = load_corpus(corpus_path)
    ids = corpus.goal_ids() + [step.step_id for step in corpus.steps()]
    vectors.write_text("dim=2\n" + "".join(f"{i} 0.50 1.0\n" for i in ids))
    before = vectors.read_bytes()
    capsys.readouterr()
    code = run(["retrieve", "--corpus", str(corpus_path),
                "--embeddings", str(tmp_path / "ret" / ".." / "ret" / "candidates.tsv"),
                "--out-dir", str(out)])
    assert code == 1
    assert "would overwrite the input" in capsys.readouterr().err
    assert vectors.read_bytes() == before
    assert list(out.iterdir()) == [vectors]


def test_clash_on_a_later_artifact_writes_no_artifact(identity_setup, tmp_path, capsys):
    """build-index's second artifact is its --corpus here: the run stops
    before it writes the first one."""
    corpus_path, _, _ = identity_setup
    out = tmp_path / "ix"
    out.mkdir()
    corpus = out / "corpus_report.txt"
    corpus.write_bytes(corpus_path.read_bytes())
    capsys.readouterr()
    assert run(["build-index", "--corpus", str(corpus), "--out-dir", str(out)]) == 1
    assert "would overwrite the input" in capsys.readouterr().err
    assert corpus.read_bytes() == corpus_path.read_bytes()
    assert not (out / "embeddings.txt").exists()


@pytest.mark.parametrize("line, message", [("ghost\ta01\n", "unknown step_id 'ghost'"),
                                           ("a00_f0\tnowhere\n", "unknown goal_id 'nowhere'")],
                         ids=["unknown-step", "unknown-goal"])
def test_gold_link_outside_the_corpus_exits_2(identity_setup, tmp_path, capsys, line, message):
    corpus_path, gold_path, _, candidates = _linked(identity_setup, tmp_path)
    with open(gold_path, "a") as handle:
        handle.write(line)
    lineno = len(gold_path.read_text().splitlines())
    capsys.readouterr()
    code = run(["train-reranker", "--corpus", str(corpus_path), "--candidates", str(candidates),
                "--gold", str(gold_path), "--epochs", "1", "--out-dir", str(tmp_path / "tr")])
    assert code == 2
    assert (f"error: {gold_path}: line {lineno}: {message} in {corpus_path}"
            in capsys.readouterr().err)
    assert not (tmp_path / "tr").exists()


@pytest.mark.parametrize("step, rank, renamed", [
    (None, "10", 2), ("a00_f0", "10", 2), ("a00_f0", None, 0),
], ids=["goal-in-every-list", "goal-in-a-list-without-gold", "unknown-step"])
def test_candidate_outside_the_corpus_exits_2(identity_setup, tmp_path, capsys,
                                              step, rank, renamed):
    """Every step and goal of --candidates is checked against --corpus, also
    in a list that training drops; the first line renamed is reported."""
    corpus_path, gold_path, _, candidates = _linked(identity_setup, tmp_path)
    rows = [line.split("\t") for line in candidates.read_text().splitlines()]
    damaged = [i for i, row in enumerate(rows) if step in (None, row[0]) and rank in (None, row[1])]
    for i in damaged:
        rows[i][renamed] = "zz_" + rows[i][renamed]
    candidates.write_text("".join("\t".join(row) + "\n" for row in rows))
    capsys.readouterr()
    code = run(["train-reranker", "--corpus", str(corpus_path), "--candidates", str(candidates),
                "--gold", str(gold_path), "--epochs", "1", "--out-dir", str(tmp_path / "tr")])
    assert code == 2
    kind = "step_id" if renamed == 0 else "goal_id"
    unknown = rows[damaged[0]][renamed]
    assert (f"error: {candidates}: line {damaged[0] + 1}: unknown {kind} {unknown!r} "
            f"in {corpus_path}") in capsys.readouterr().err
    assert not (tmp_path / "tr").exists()


def test_manifest_contents(identity_setup, tmp_path):
    corpus_path, _, _ = identity_setup
    out = tmp_path / "ix"
    run(["build-index", "--corpus", str(corpus_path), "--out-dir", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "build-index"
    assert str(corpus_path) in manifest["inputs"]
    assert len(manifest["config_hash"]) == 64
    assert manifest["outputs"] == ["corpus_report.txt", "embeddings.txt"]
    assert "out_dir" not in manifest["config"]


@pytest.mark.parametrize("where", ["before", "after"])
def test_config_flag_is_a_usage_error(identity_setup, tmp_path, capsys, where):
    """Every flag value comes from the command line: there is no file of
    flag defaults, so --config is an unknown flag on either side of the
    subcommand."""
    corpus_path, _, _ = identity_setup
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dim": 16}))
    out = tmp_path / "ix"
    command = ["build-index", "--corpus", str(corpus_path), "--out-dir", str(out)]
    flag = ["--config", str(config)]
    capsys.readouterr()
    assert run([*flag, *command] if where == "before" else [*command, *flag]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


def test_search_cli(tmp_path):
    records = [
        {"id": "g1", "title": "Stain the Cabinet",
         "steps": [{"id": "s1", "text": "sand the wood"}]},
        {"id": "g2", "title": "Make Fries",
         "steps": [{"id": "s2", "text": "cut the potatoes"}]},
    ]
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, records)

    out = tmp_path / "goal"
    assert run(["search", "--corpus", str(corpus_path), "--query", "stain cabinet",
                "--mode", "goal", "-n", "2", "--out-dir", str(out)]) == 0
    rows = [line.split("\t") for line in (out / "search.tsv").read_text().splitlines()]
    assert rows[0][1] == "g1"

    out = tmp_path / "article"
    assert run(["search", "--corpus", str(corpus_path), "--query", "potatoes",
                "--mode", "article", "-n", "2", "--out-dir", str(out)]) == 0
    rows = [line.split("\t") for line in (out / "search.tsv").read_text().splitlines()]
    assert rows[0][1] == "g2"


def vr_fixture(tmp_path):
    records = [
        {
            "id": f"g{i}",
            "title": f"achieve goaltok{i}",
            "steps": [
                {"id": f"g{i}_s0", "text": f"do steptok{i}a now"},
                {"id": f"g{i}_s1", "text": f"do steptok{i}b now"},
                {"id": f"g{i}_s2", "text": "enjoy yourself"},
            ],
        }
        for i in range(3)
    ]
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, records)
    videos = []
    for i in range(3):
        for v in range(16):
            toks = [f"goaltok{i}"] if v % 2 == 0 else []
            toks += [f"steptok{i}a"] if v % 3 == 0 else [f"steptok{i}b"]
            toks += ["filler", "words"]
            videos.append(
                {"video_id": f"g{i}v{v:02d}", "goal_id": f"g{i}", "caption": " ".join(toks)}
            )
    videos_path = tmp_path / "videos.jsonl"
    with open(videos_path, "w") as handle:
        for rec in videos:
            handle.write(json.dumps(rec) + "\n")
    return corpus_path, videos_path


def vr_index(tmp_path, videos_path):
    """Run vr-index on `videos_path` into `tmp_path`/vix; the index's path."""
    assert run(["vr-index", "--videos", str(videos_path),
                "--out-dir", str(tmp_path / "vix")]) == 0
    return tmp_path / "vix" / "vr_index.json"


def test_vr_pipeline(tmp_path):
    corpus_path, videos_path = vr_fixture(tmp_path)
    index_path = vr_index(tmp_path, videos_path)
    assert index_path.exists()

    assert run(["vr-filter", "--videos", str(videos_path), "--corpus", str(corpus_path),
                "--level", "fil_l1", "--index", str(index_path),
                "--out-dir", str(tmp_path / "vf")]) == 0
    queries = json.loads((tmp_path / "vf" / "queries.json").read_text())
    assert len(queries) == 3
    assert all(q["level"] == "FIL_L1" for q in queries)
    assert all(q["w_s"] == 0.5 for q in queries)

    assert run(["vr-eval", "--videos", str(videos_path), "--corpus", str(corpus_path),
                "--level", "l0", "--split", "test", "--index", str(index_path),
                "--out-dir", str(tmp_path / "ve0")]) == 0
    header, row = (tmp_path / "ve0" / "vr_metrics.tsv").read_text().splitlines()
    assert header.split("\t")[0] == "level"
    assert row.split("\t")[0] == "L0"

    assert run(["vr-eval", "--videos", str(videos_path),
                "--queries", str(tmp_path / "vf" / "queries.json"), "--index", str(index_path),
                "--split", "test", "--out-dir", str(tmp_path / "vef")]) == 0
    _, row = (tmp_path / "vef" / "vr_metrics.tsv").read_text().splitlines()
    assert row.split("\t")[0] == "FIL_L1"


@pytest.mark.parametrize("command", ["vr-filter", "vr-eval"])
def test_video_goal_outside_the_corpus_exits_2(tmp_path, capsys, command):
    corpus_path, videos_path = vr_fixture(tmp_path)
    lineno = len(videos_path.read_text().splitlines()) + 1
    with open(videos_path, "a") as handle:
        for v in range(4):
            handle.write(json.dumps({"video_id": f"g9v{v}", "goal_id": "g9",
                                     "caption": "goaltok9 filler"}) + "\n")
    index_path = vr_index(tmp_path, videos_path)
    capsys.readouterr()
    out = tmp_path / "out"
    code = run([command, "--videos", str(videos_path), "--corpus", str(corpus_path),
                "--index", str(index_path), "--out-dir", str(out)])
    assert code == 2
    assert (f"error: {videos_path}: line {lineno}: unknown goal_id 'g9' in {corpus_path}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_vr_filter_l2_requires_links(tmp_path):
    corpus_path, videos_path = vr_fixture(tmp_path)
    code = run(["vr-filter", "--videos", str(videos_path), "--corpus", str(corpus_path),
                "--index", str(vr_index(tmp_path, videos_path)),
                "--level", "fil_l2", "--out-dir", str(tmp_path / "vf2")])
    assert code == 1


def test_vr_filter_l2_without_links_is_reported_before_any_input_is_read(tmp_path, capsys):
    missing, out = str(tmp_path / "missing"), tmp_path / "out"
    assert run(["vr-filter", "--videos", missing, "--corpus", missing, "--index", missing,
                "--level", "fil_l2", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: --links is required for level fil_l2\n"
    assert not out.exists()


@pytest.mark.parametrize("text, lineno, message", [
    ("g0_s0\tnogoal\t0.5\t0.5\ng0_s1\tnogoal\t0.5\t0.5\n", 1, "unknown goal_id 'nogoal'"),
    ("g0_s0\tUNLINKABLE\nnostep\tg1\n", 2, "unknown step_id 'nostep'"),
    ("nostep\tg1\ng0_s0\tg1\ng0_s0\tg2\n", 1, "unknown step_id 'nostep'"),
], ids=["unknown-goal", "unknown-step", "unknown-step-before-a-duplicate"])
def test_vr_filter_link_outside_the_corpus_exits_2(tmp_path, capsys, text, lineno, message):
    """A link dump of another corpus is rejected, not read as links to nothing."""
    corpus_path, videos_path = vr_fixture(tmp_path)
    links, out = tmp_path / "links.tsv", tmp_path / "vf2"
    links.write_text(text)
    code = run(["vr-filter", "--videos", str(videos_path), "--corpus", str(corpus_path),
                "--index", str(vr_index(tmp_path, videos_path)), "--level", "fil_l2",
                "--links", str(links), "--out-dir", str(out)])
    assert code == 2
    assert (f"error: {links}: line {lineno}: {message} in {corpus_path}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_vr_filter_takes_the_links_of_link(tmp_path):
    corpus_path, videos_path = vr_fixture(tmp_path)
    assert run(["build-index", "--corpus", str(corpus_path), "--dim", "16",
                "--out-dir", str(tmp_path / "ix")]) == 0
    model = tmp_path / "model.txt"
    save_model(new_model(7, unlinkable=True), model)
    assert run(["link", "--corpus", str(corpus_path), "--embeddings",
                str(tmp_path / "ix" / "embeddings.txt"), "--model", str(model),
                "--out-dir", str(tmp_path / "ln")]) == 0
    assert run(["vr-filter", "--videos", str(videos_path), "--corpus", str(corpus_path),
                "--index", str(vr_index(tmp_path, videos_path)), "--level", "fil_l2",
                "--links", str(tmp_path / "ln" / "links.tsv"), "--out-dir", str(tmp_path / "vf2")]) == 0


@pytest.mark.parametrize("command", ["vr-filter", "vr-eval"])
def test_vr_command_without_index_is_a_usage_error(tmp_path, capsys, command):
    corpus_path, videos_path = vr_fixture(tmp_path)
    capsys.readouterr()
    code = run([command, "--videos", str(videos_path), "--corpus", str(corpus_path),
                "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "--index" in capsys.readouterr().err


def test_subcommands_do_not_mutate_inputs(identity_setup, tmp_path):
    corpus_path, gold_path, _ = identity_setup
    before = corpus_path.read_bytes(), gold_path.read_bytes()
    run(["build-index", "--corpus", str(corpus_path), "--out-dir", str(tmp_path / "ix")])
    run(["retrieve", "--corpus", str(corpus_path),
         "--embeddings", str(tmp_path / "ix" / "embeddings.txt"),
         "--k", "5", "--out-dir", str(tmp_path / "ret")])
    run(["train-reranker", "--corpus", str(corpus_path),
         "--candidates", str(tmp_path / "ret" / "candidates.tsv"),
         "--gold", str(gold_path), "--epochs", "2", "--out-dir", str(tmp_path / "tr")])
    assert (corpus_path.read_bytes(), gold_path.read_bytes()) == before


def _linked(identity_setup, tmp_path):
    """Run build-index and retrieve on the identity corpus; return the paths."""
    corpus_path, gold_path, _ = identity_setup
    assert run(["build-index", "--corpus", str(corpus_path),
                "--out-dir", str(tmp_path / "ix")]) == 0
    embeddings = tmp_path / "ix" / "embeddings.txt"
    assert run(["retrieve", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                "--k", "10", "--out-dir", str(tmp_path / "ret")]) == 0
    return corpus_path, gold_path, embeddings, tmp_path / "ret" / "candidates.tsv"


_CLI = "import sys; from prockb.cli import main; sys.exit(main(sys.argv[1:]))"


def test_artifacts_do_not_depend_on_hash_seed(identity_setup, tmp_path):
    """train-reranker and link write the same bytes under any PYTHONHASHSEED."""
    corpus_path, gold_path, embeddings, candidates = _linked(identity_setup, tmp_path)
    src = str(Path(prockb.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        tr, ln = tmp_path / f"tr{hash_seed}", tmp_path / f"ln{hash_seed}"
        for argv in (
            ["train-reranker", "--corpus", str(corpus_path), "--candidates", str(candidates),
             "--gold", str(gold_path), "--unlinkable", "--out-dir", str(tr)],
            ["link", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
             "--model", str(tr / "model.txt"), "--rankings", "--out-dir", str(ln)],
        ):
            subprocess.run([sys.executable, "-c", _CLI, *argv], env=env, check=True, timeout=120)
        outputs.append([(tr / "model.txt").read_bytes(), (ln / "links.tsv").read_bytes(),
                        (ln / "rankings.tsv").read_bytes()])
    assert outputs[0] == outputs[1]


def test_train_reranker_seed_orders_batches_only(identity_setup, tmp_path):
    """At a learning rate too small to move the model, the dev loss depends on
    the dev part of the split alone, which --seed does not change."""
    corpus_path, gold_path, _, candidates = _linked(identity_setup, tmp_path)
    dev_losses = []
    for seed in ("0", "1"):
        out = tmp_path / f"tr{seed}"
        assert run(["train-reranker", "--corpus", str(corpus_path), "--candidates",
                    str(candidates), "--gold", str(gold_path), "--epochs", "1",
                    "--lr", "1e-9", "--seed", seed, "--out-dir", str(out)]) == 0
        dev_losses.append((out / "loss_curve.tsv").read_text().splitlines()[1].split("\t")[2])
    assert dev_losses[0] == dev_losses[1]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [l for l in lines if not l.startswith("W ")], "no W line"),
        (lambda lines: [l.rsplit(" ", 1)[0] if l.startswith("U ") else l for l in lines],
         "U has 6 values, W has 7"),
        # Its width is W's length, so without a U row to compare with, a W row that
        # lost a value reads as a narrower model, refused against the feature width.
        (lambda lines: [l.rsplit(" ", 1)[0] if l.startswith("W ") else l for l in lines
                        if not l.startswith("U ")],
         "model width 6 does not match the feature width 7 of lexical features"),
    ],
    ids=["no-W-line", "short-U-row", "short-W-row-without-U-row"],
)
def test_link_rejects_bad_checkpoint(identity_setup, tmp_path, capsys, edit, message):
    corpus_path, gold_path, embeddings, candidates = _linked(identity_setup, tmp_path)
    assert run(["train-reranker", "--corpus", str(corpus_path), "--candidates", str(candidates),
                "--gold", str(gold_path), "--unlinkable", "--epochs", "1",
                "--out-dir", str(tmp_path / "tr")]) == 0
    model = tmp_path / "tr" / "model.txt"
    model.write_text("\n".join(edit(model.read_text().splitlines())) + "\n")
    capsys.readouterr()
    code = run(["link", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                "--model", str(model), "--out-dir", str(tmp_path / "ln")])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and str(model) in err


@pytest.mark.parametrize(
    "rows, message",
    [
        ("a00_probe\t1\ta01\t0.5\na00_probe\tfirst\ta02\t0.4\n",
         "line 2: rank 'first' is not an integer"),
        ("a00_probe\t1\ta01\t0.5\na00_probe\t1\ta02\t0.4\n", "line 2: duplicate rank 1"),
        ("a00_probe\t1\ta01\n", "line 1: expected 4 columns or more, got 3"),
    ],
    ids=["non-integer-rank", "duplicate-rank", "three-columns"],
)
def test_eval_links_rejects_bad_ranks(identity_setup, tmp_path, capsys, rows, message):
    _, gold_path, _ = identity_setup
    rankings = tmp_path / "rankings.tsv"
    rankings.write_text(rows)
    code = run(["eval-links", "--rankings", str(rankings), "--gold", str(gold_path),
                "--out-dir", str(tmp_path / "ev")])
    assert code == 2
    assert f"{rankings}: {message}" in capsys.readouterr().err


def test_eval_links_gold_step_without_ranking_names_both_files(identity_setup, tmp_path, capsys):
    _eval_links_without_a_ranking(identity_setup, tmp_path, capsys, "all")


def test_eval_links_test_split_step_without_ranking_names_its_gold_line(identity_setup, tmp_path,
                                                                        capsys):
    _eval_links_without_a_ranking(identity_setup, tmp_path, capsys, "test")


def _eval_links_without_a_ranking(identity_setup, tmp_path, capsys, part):
    """Rank only the first gold step of `part`: the next one, in the gold
    file's order, is reported at its line."""
    _, gold_path, gold = identity_setup
    evaluated = gold if part == "all" else split_links(gold)[part]
    ranked = next(iter(evaluated))
    rankings = tmp_path / "rankings.tsv"
    rankings.write_text(f"{ranked}\t1\ta01\t0.5\n")
    out = tmp_path / "ev"
    code = run(["eval-links", "--rankings", str(rankings), "--gold", str(gold_path),
                "--split", part, "--out-dir", str(out)])
    assert code == 2
    lineno, missing = next((n, s) for n, s in enumerate(gold, 1) if s in evaluated and s != ranked)
    assert (f"error: {gold_path}: line {lineno}: no ranking for gold step {missing!r} "
            f"in {rankings}") in capsys.readouterr().err
    assert not out.exists()


def test_eval_links_rejects_a_placeholder_gold_goal(tmp_path, capsys):
    """The placeholder ranked first is no hit for a gold line naming it."""
    gold, rankings, out = tmp_path / "gold.tsv", tmp_path / "rankings.tsv", tmp_path / "ev"
    gold.write_text("s1\tUNLINKABLE\n")
    rankings.write_text("s1\t1\tUNLINKABLE\t0.5\t0.9\ns1\t2\tg1\t0.5\t0.4\n")
    assert run(["eval-links", "--rankings", str(rankings), "--gold", str(gold), "--split", "all",
                "--ns", "1", "--out-dir", str(out)]) == 2
    assert (f"error: {gold}: line 1: gold goal 'UNLINKABLE' is the placeholder, not a goal"
            in capsys.readouterr().err)
    assert not out.exists()


def test_eval_links_needs_rankings_of_the_evaluated_split_only(identity_setup, tmp_path):
    _, gold_path, gold = identity_setup
    rankings = tmp_path / "rankings.tsv"
    rankings.write_text("".join(f"{step_id}\t1\t{goal_id}\t0.5\n"
                                for step_id, goal_id in split_links(gold)["test"].items()))
    out = tmp_path / "ev"
    assert run(["eval-links", "--rankings", str(rankings), "--gold", str(gold_path),
                "--split", "test", "--ns", "1", "--out-dir", str(out)]) == 0
    assert json.loads((out / "recall.json").read_text()) == {"1": 1.0}


def test_eval_links_on_an_empty_gold_file_names_it(identity_setup, tmp_path, capsys):
    gold = tmp_path / "empty_gold.tsv"
    gold.write_text("")
    rankings = tmp_path / "rankings.tsv"
    rankings.write_text("a00_probe\t1\ta01\t0.5\n")
    out = tmp_path / "ev"
    capsys.readouterr()
    assert run(["eval-links", "--rankings", str(rankings), "--gold", str(gold), "--split", "all",
                "--out-dir", str(out)]) == 2
    assert f"error: --gold {gold}: no gold links to evaluate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_links, split", [(3, "test"), (3, "dev"), (9, "test")])
def test_eval_links_on_an_empty_split_names_the_gold_file(identity_setup, tmp_path, capsys,
                                                          n_links, split):
    """Fewer than 10 gold links leave the test split empty, fewer than 5 the dev split."""
    _, gold_path, gold = identity_setup
    few = tmp_path / "few_gold.tsv"
    few.write_text("".join(gold_path.read_text().splitlines(keepends=True)[:n_links]))
    rankings = tmp_path / "rankings.tsv"
    rankings.write_text("".join(f"{s}\t1\t{g}\t0.5\n" for s, g in gold.items()))
    out = tmp_path / "ev"
    capsys.readouterr()
    assert run(["eval-links", "--rankings", str(rankings), "--gold", str(few), "--split", split,
                "--out-dir", str(out)]) == 2
    assert (f"error: --gold {few}: {n_links} links leave the {split} split empty"
            in capsys.readouterr().err)
    assert not out.exists()
    assert run(["eval-links", "--rankings", str(rankings), "--gold", str(few), "--split", "train",
                "--out-dir", str(out)]) == 0


def test_training_without_a_gold_step_in_the_candidates_names_both(identity_setup, tmp_path,
                                                                   capsys):
    corpus_path, gold_path, _, candidates = _linked(identity_setup, tmp_path)
    gold = identity_setup[2]
    rows = candidates.read_text().splitlines(keepends=True)
    candidates.write_text("".join(row for row in rows if row.split("\t")[0] not in gold))
    out = tmp_path / "tr"
    capsys.readouterr()
    assert run(["train-reranker", "--corpus", str(corpus_path), "--candidates", str(candidates),
                "--gold", str(gold_path), "--out-dir", str(out)]) == 2
    assert (f"error: no training examples: no gold step of the train split of --gold "
            f"{gold_path} has retrieved candidates in --candidates {candidates}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval-links", "train-reranker"])
def test_too_few_gold_links_to_split_names_the_gold_file(identity_setup, tmp_path, capsys, command):
    """2 gold links cannot be cut into train, dev and test."""
    corpus_path, gold_path, _, candidates = _linked(identity_setup, tmp_path)
    few = tmp_path / "few_gold.tsv"
    few.write_text("".join(gold_path.read_text().splitlines(keepends=True)[:2]))
    out = tmp_path / "out"
    args = {"eval-links": ["--rankings", str(candidates), "--split", "test"],
            "train-reranker": ["--corpus", str(corpus_path), "--candidates", str(candidates)]}
    capsys.readouterr()
    assert run([command, *args[command], "--gold", str(few), "--out-dir", str(out)]) == 2
    assert (f"error: --gold {few}: cannot split 2 links into 3 parts"
            in capsys.readouterr().err)
    assert not out.exists()


def _edit_json(edit):
    def apply(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)
    return apply


def _first_term(payload):
    return payload["postings"][sorted(payload["postings"])[0]]


def _last_term(payload):
    return payload["postings"][sorted(payload["postings"])[-1]]


def _ghost_then_zero_tf(payload):
    """An unknown doc in the first term and a zero tf in the last."""
    _first_term(payload)[0][0] = "ghost"
    _last_term(payload)[-1][1] = 0


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text[: len(text) // 2], "malformed JSON"),
        (lambda text: "[1, 2]", "index must be a JSON object"),
        (_edit_json(lambda p: p.pop("postings")), "missing field 'postings'"),
        (_edit_json(lambda p: p.update(stem=False)), "unknown field 'stem'"),
        (_edit_json(lambda p: p.update(k1="1.2")), "k1 and b must be finite numbers"),
        (_edit_json(lambda p: p["docs"].append(p["docs"][0])), "duplicate doc id 'g0v00'"),
        (_edit_json(lambda p: p["docs"][0].__setitem__(1, -1)), "non-negative integer length"),
        (_edit_json(lambda p: _first_term(p)[0].__setitem__(0, "ghost")),
         "posting of unknown doc 'ghost'"),
        (_edit_json(lambda p: _first_term(p)[0].__setitem__(1, 0)), "tf must be a positive integer"),
        (_edit_json(lambda p: _first_term(p)[0].__setitem__(1, -2)),
         "tf must be a positive integer"),
        (_edit_json(lambda p: _first_term(p)[0].__setitem__(1, 1.5)),
         "tf must be a positive integer"),
        (_edit_json(lambda p: _first_term(p).append(list(_first_term(p)[0]))), "twice"),
        (_edit_json(lambda p: p["docs"][0].__setitem__(1, p["docs"][0][1] + 1)),
         "has length"),
        (_edit_json(_ghost_then_zero_tf), "posting of unknown doc 'ghost'"),
    ],
    ids=["truncated", "non-object", "missing-key", "stem-key", "non-numeric-k1", "duplicate-doc",
         "negative-length", "unknown-posting-doc", "zero-tf", "negative-tf", "float-tf",
         "duplicate-posting-doc", "length-mismatch", "unknown-doc-before-a-later-zero-tf"],
)
def test_vr_eval_rejects_bad_index(tmp_path, capsys, edit, message):
    corpus_path, videos_path = vr_fixture(tmp_path)
    index_path = vr_index(tmp_path, videos_path)
    index_path.write_text(edit(index_path.read_text()))
    capsys.readouterr()
    code = run(["vr-eval", "--videos", str(videos_path), "--corpus", str(corpus_path),
                "--index", str(index_path), "--out-dir", str(tmp_path / "ve")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{index_path}: " in err and message in err


@pytest.mark.parametrize("command", ["vr-filter", "vr-eval"])
def test_a_bad_index_is_reported_before_bad_videos(tmp_path, capsys, command):
    """--index is read before --videos, so that its parse is freed before the
    videos are read; a fault of both files is the index's."""
    corpus_path, videos_path = vr_fixture(tmp_path)
    index_path = vr_index(tmp_path, videos_path)
    index_path.write_text(index_path.read_text()[:100])
    with open(videos_path, "a") as handle:
        handle.write("{not json\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, "--videos", str(videos_path), "--corpus", str(corpus_path),
                "--index", str(index_path), "--out-dir", str(out)]) == 2
    assert f"error: {index_path}: malformed JSON" in capsys.readouterr().err
    assert not out.exists()


_EXTRA_VIDEO = {"video_id": "x0", "goal_id": "g0", "caption": "filler words"}


@pytest.mark.parametrize("command", ["vr-filter", "vr-eval"])
@pytest.mark.parametrize(
    "edit, first, only_in",
    [(lambda rows: rows + [_EXTRA_VIDEO], "x0", "index"),
     (lambda rows: rows[1:], "g0v00", "videos"),
     (lambda rows: [{**rows[0], "video_id": "x0"}] + rows[1:], "g0v00", "videos")],
    ids=["superset", "subset", "renamed"],
)
def test_index_of_other_videos_exits_2(tmp_path, capsys, command, edit, first, only_in):
    """An index must hold exactly the videos of --videos: one with extra
    videos would rank the relevant ones among videos that are not there."""
    corpus_path, videos_path = vr_fixture(tmp_path)
    other = tmp_path / "other" / "videos.jsonl"
    other.parent.mkdir()
    write_jsonl(other, edit([json.loads(line) for line in videos_path.read_text().splitlines()]))
    index_path = vr_index(tmp_path / "other", other)
    argv = [command, "--videos", str(videos_path), "--corpus", str(corpus_path)]
    capsys.readouterr()
    assert run([*argv, "--index", str(index_path), "--out-dir", str(tmp_path / "out")]) == 2
    where = index_path if only_in == "index" else videos_path
    assert (f"error: {index_path}: not an index of the videos in {videos_path}: "
            f"video {first!r} is only in {where}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    same = vr_index(tmp_path, videos_path)
    assert run([*argv, "--index", str(same), "--out-dir", str(tmp_path / "same")]) == 0


def test_vr_index_writes_the_sorted_json_dumps_text(tmp_path):
    """vr-index's file is the index's `to_json` text plus a newline: the text
    `json.dumps` with sorted keys and non-ASCII kept gives, also with an
    empty caption and video ids that JSON escapes or keeps as they are."""
    videos_path = tmp_path / "videos.jsonl"
    ids = ['q"uote', "back\\slash", "ctl\x01\x1f", "日本\u2028", "é", "7"]
    write_jsonl(videos_path, [
        {"video_id": vid, "goal_id": "g0", "caption": caption}
        for vid, caption in zip(ids, ["Straße ÉTÉ", "", "a b a", "日本 語", "é é", "x_y 7"])])
    text = vr_index(tmp_path, videos_path).read_text(encoding="utf-8")
    assert text == build_video_index(load_videos(videos_path)).to_json() + "\n"
    assert text == json.dumps(json.loads(text), sort_keys=True, ensure_ascii=False) + "\n"


def test_vr_eval_memory_does_not_grow_with_distinct_clauses(tmp_path):
    """vr-eval keeps the score vectors of one query's clauses, not of every
    clause of the command: 20 queries of 10 clauses peak about as high with
    200 distinct clauses as with the same 10 clauses in every query."""
    goals, per_goal, clauses = 20, 40, 10
    rng = random.Random(0)
    words = [f"word{i:03d}" for i in range(goals * clauses)]
    videos_path = tmp_path / "videos.jsonl"
    # Captions are short, so that the index's parse peaks below 200 clause
    # vectors and a cache of them shows in the command's peak.
    write_jsonl(videos_path, [
        {"video_id": f"g{g:02d}v{v:02d}", "goal_id": f"g{g:02d}",
         "caption": " ".join(rng.choices(words, k=3))}
        for g in range(goals) for v in range(per_goal)])
    index_path = vr_index(tmp_path, videos_path)
    vector_bytes = goals * per_goal * 8

    def peak(name, clause_word):
        path = tmp_path / f"{name}.json"
        write_queries(path, [
            Query(f"g{g:02d}", "goal", tuple(f"{clause_word(g, j)} now" for j in range(clauses)),
                  w_g=1.0, w_s=0.5, level=FIL_L1)
            for g in range(goals)])
        argv = ["vr-eval", "--videos", str(videos_path), "--queries", str(path),
                "--index", str(index_path), "--out-dir", str(tmp_path / name)]
        gc.collect()
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def shared(g, j):
        return words[j]

    def distinct(g, j):
        return words[g * clauses + j]

    peak("warm-up", shared)
    few, many = peak("few", shared), peak("many", distinct)
    assert many - few < 4 * vector_bytes, (few, many)


_QUERY = {"goal_id": "g0", "goal": "achieve goaltok0", "steps": ["do steptok0a now"],
          "w_g": 1.0, "w_s": 0.5, "level": "FIL_L1"}


@pytest.mark.parametrize(
    "payload, message",
    [
        ('[{"goal_id": "g0"', "malformed JSON"),
        (json.dumps(_QUERY), "queries must be a JSON list"),
        (json.dumps([_QUERY, "g1"]), "item 2: query must be a JSON object"),
        (json.dumps([{k: v for k, v in _QUERY.items() if k != "goal"}]),
         "item 1: missing field 'goal'"),
        (json.dumps([{**_QUERY, "steps": ["do steptok0a now", 3]}]),
         "item 1: steps must be a list of strings"),
        (json.dumps([{**_QUERY, "w_s": "0.5"}]), "item 1: w_g and w_s must be finite numbers"),
        (json.dumps([{**_QUERY, "level": "FIL_L3"}]), "item 1: unknown level 'FIL_L3'"),
        (json.dumps([_QUERY, {**_QUERY, "steps": []}]), "item 2: duplicate goal_id 'g0'"),
        (json.dumps([_QUERY, {**_QUERY, "goal_id": "g1"},
                     {**_QUERY, "goal_id": "g2", "level": "L0"}]),
         "item 3: level 'L0' differs from item 1's 'FIL_L1'"),
    ],
    ids=["truncated", "non-list", "non-object-item", "missing-field", "non-string-step",
         "non-numeric-weight", "unknown-level", "duplicate-goal", "mixed-levels"],
)
def test_vr_eval_rejects_bad_queries(tmp_path, capsys, payload, message):
    _, videos_path = vr_fixture(tmp_path)
    queries = tmp_path / "queries.json"
    queries.write_text(payload)
    code = run(["vr-eval", "--videos", str(videos_path), "--queries", str(queries),
                "--index", str(vr_index(tmp_path, videos_path)), "--out-dir", str(tmp_path / "ve")])
    assert code == 2
    assert f"{queries}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("given", ["--queries", "--corpus"])
def test_vr_eval_with_no_goal_to_evaluate_names_its_inputs(tmp_path, capsys, given):
    """A query whose goal has no videos, or goals with too few videos to put
    one in the test part, leave nothing to evaluate."""
    corpus_path, videos_path = vr_fixture(tmp_path)
    if given == "--queries":
        source = tmp_path / "queries.json"
        source.write_text(json.dumps([{**_QUERY, "goal_id": "zz"}]))
    else:
        source = corpus_path
        rows = [json.loads(line) for line in videos_path.read_text().splitlines()]
        write_jsonl(videos_path, [row for row in rows if row["video_id"].endswith("v00")])
    out = tmp_path / "ve"
    code = run(["vr-eval", "--videos", str(videos_path), given, str(source),
                "--index", str(vr_index(tmp_path, videos_path)), "--out-dir", str(out)])
    assert code == 2
    assert (f"error: no goals to evaluate: no goal of {given} {source} has videos in the "
            f"--split test part of --videos {videos_path}") in capsys.readouterr().err
    assert not out.exists()


def test_retrieve_manifest_does_not_depend_on_cpu_count(identity_setup, tmp_path, monkeypatch):
    corpus_path, _, _ = identity_setup
    assert run(["build-index", "--corpus", str(corpus_path), "--out-dir", str(tmp_path / "ix")]) == 0
    manifests = []
    for cpus in (1, 8):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / f"ret{cpus}"
        assert run(["retrieve", "--corpus", str(corpus_path),
                    "--embeddings", str(tmp_path / "ix" / "embeddings.txt"),
                    "--k", "5", "--out-dir", str(out)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """One valid file of every input kind the CLI reads, by kind."""
    tmp = tmp_path_factory.mktemp("inputs")
    records, gold = identity_records(6)
    files = {"corpus": tmp / "corpus.jsonl", "gold": tmp / "gold.tsv"}
    write_jsonl(files["corpus"], records)
    files["gold"].write_text("".join(f"{s}\t{g}\n" for s, g in gold.items()))
    assert main(["build-index", "--corpus", str(files["corpus"]), "--dim", "16",
                 "--out-dir", str(tmp / "ix")]) == 0
    files["embeddings"] = tmp / "ix" / "embeddings.txt"
    files["candidates"] = tmp / "candidates.tsv"
    files["candidates"].write_text("".join(f"{s}\t1\t{g}\t0.5\n" for s, g in gold.items()))
    files["model"] = tmp / "model.txt"
    save_model(new_model(7), files["model"])
    files["rankings"] = tmp / "rankings.tsv"
    files["rankings"].write_text("".join(f"{s}\t1\t{g}\t0.5\t0.5\n" for s, g in gold.items()))

    (tmp / "vr").mkdir()
    files["vr_corpus"], files["videos"] = vr_fixture(tmp / "vr")
    files["links"] = tmp / "links.tsv"
    files["links"].write_text("g0_s0\tg1\t0.5\t0.5\n")
    files["queries"] = tmp / "queries.json"
    write_queries(files["queries"], [Query("g0", "achieve goaltok0", (), 1.0, 0.5, FIL_L1)])
    assert main(["vr-index", "--videos", str(files["videos"]), "--out-dir", str(tmp / "vix")]) == 0
    files["vr_index"] = tmp / "vix" / "vr_index.json"
    return files


# (input kind, argv with {kind} placeholders for input paths); the kind under
# test is the one the command reads a damaged copy of.
_READERS = {
    "corpus": ["build-index", "--corpus", "{corpus}"],
    "embeddings": ["retrieve", "--corpus", "{corpus}", "--embeddings", "{embeddings}", "--k", "3"],
    "candidates": ["train-reranker", "--corpus", "{corpus}", "--candidates", "{candidates}",
                   "--gold", "{gold}"],
    "gold": ["train-reranker", "--corpus", "{corpus}", "--candidates", "{candidates}",
             "--gold", "{gold}"],
    "model": ["link", "--corpus", "{corpus}", "--embeddings", "{embeddings}",
              "--model", "{model}"],
    "rankings": ["eval-links", "--rankings", "{rankings}", "--gold", "{gold}"],
    "links": ["vr-filter", "--videos", "{videos}", "--corpus", "{vr_corpus}",
              "--level", "fil_l2", "--links", "{links}", "--index", "{vr_index}"],
    "videos": ["vr-index", "--videos", "{videos}"],
    "queries": ["vr-eval", "--videos", "{videos}", "--queries", "{queries}",
                "--index", "{vr_index}"],
    "vr_index": ["vr-eval", "--videos", "{videos}", "--corpus", "{vr_corpus}",
                 "--index", "{vr_index}"],
}


def _run_on(input_files, tmp_path, kind, content: bytes, argv=None):
    """Run the command that reads `kind`, or `argv`, with that input replaced
    by `content`."""
    damaged = tmp_path / input_files[kind].name
    damaged.write_bytes(content)
    paths = {**{k: str(v) for k, v in input_files.items()}, kind: str(damaged)}
    argv = [arg.format(**paths) for arg in argv or _READERS[kind]]
    return run(argv + ["--out-dir", str(tmp_path / "out")]), damaged


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_non_utf8_input_exits_2_with_path(input_files, tmp_path, capsys, kind):
    content = b"\xff\xfe" + input_files[kind].read_bytes()
    code, damaged = _run_on(input_files, tmp_path, kind, content)
    assert code == 2
    assert f"{damaged}: line 1: not valid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, content, argv", [
    ("corpus", b"", _READERS["corpus"]),
    ("corpus", b"", _READERS["embeddings"]),
    ("corpus", b"", _READERS["model"]),
    ("corpus", b"", ["search", "--corpus", "{corpus}", "--query", "widget"]),
    ("gold", b"", _READERS["gold"]),
    ("gold", b"", _READERS["rankings"]),
    ("gold", b"a00_probe\tUNLINKABLE\n", _READERS["rankings"]),
    ("candidates", b"", _READERS["candidates"]),
    ("videos", b"", _READERS["videos"]),
    ("videos", b"", _READERS["queries"]),
    ("videos", b"", _READERS["vr_index"]),
    ("manifest", b'{"outputs": ["manifest.json", "embeddings.txt"]}', _READERS["corpus"]),
    ("out-dir", b"a file\n", _READERS["corpus"]),
    ("corpus", b'{"id": "g0", "title": "a \\ud800", "steps": [{"id": "s0", "text": "b"}]}\n',
     _READERS["corpus"]),
    ("videos", b'{"video_id": "v\\ud800", "goal_id": "g0", "caption": "c"}\n',
     _READERS["videos"]),
], ids=["empty-corpus-build-index", "empty-corpus-retrieve", "empty-corpus-link",
        "empty-corpus-search", "empty-gold-train-reranker", "empty-gold-eval-links",
        "placeholder-gold-goal", "empty-candidates", "empty-videos-vr-index",
        "empty-videos-vr-eval-queries", "empty-videos-vr-eval", "self-listing-manifest",
        "out-dir-is-a-file", "surrogate-title-build-index", "surrogate-video-id-vr-index"])
def test_no_input_reaches_exit_3(input_files, tmp_path, capsys, kind, content, argv):
    """Exit 3 is kept for faults of the program: an edge input ends in 2 at
    most. The manifest case reuses an --out-dir whose old manifest lists
    itself among its outputs; the out-dir case gives an --out-dir that is a
    file."""
    if kind == "manifest":
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "manifest.json").write_bytes(content)
        kind, content = "corpus", input_files["corpus"].read_bytes()
    elif kind == "out-dir":
        (tmp_path / "out").write_bytes(content)
        kind, content = "corpus", input_files["corpus"].read_bytes()
    code, _ = _run_on(input_files, tmp_path, kind, content, argv)
    assert code != 3, capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_out_dir_that_cannot_be_made_is_a_usage_error(input_files, tmp_path, capsys, under):
    """An --out-dir that is a file, or lies under one, stops the command
    before it writes anything, with the reason the directory cannot be made."""
    (tmp_path / "out").write_text("a file\n")
    out = tmp_path / "out" / "ix" if under else tmp_path / "out"
    argv = ["build-index", "--corpus", str(input_files["corpus"]), "--out-dir", str(out)]
    assert run(argv) == 1
    reason = "Not a directory" if under else "File exists"
    assert capsys.readouterr().err == (
        f"usage error: --out-dir {out}: cannot make the directory: {reason}\n")
    assert (tmp_path / "out").read_text() == "a file\n"


@pytest.mark.parametrize("reader", ["videos", "links", "vr_index"],
                         ids=["vr-index", "vr-filter", "vr-eval"])
def test_videos_file_without_videos_exits_2(input_files, tmp_path, capsys, reader):
    code, damaged = _run_on(input_files, tmp_path, "videos", b"", _READERS[reader])
    assert code == 2
    assert capsys.readouterr().err == f"error: {damaged}: no videos\n"
    assert not (tmp_path / "out").exists()


NS_BOUND = "must be comma-separated integers >= 1, each given once"


@pytest.mark.parametrize("reader, ns", [("rankings", "1,1"), ("vr_index", "1,1,2")],
                         ids=["eval-links", "vr-eval"])
def test_repeated_n_is_a_usage_error(input_files, tmp_path, capsys, reader, ns):
    paths = {k: str(v) for k, v in input_files.items()}
    argv = [arg.format(**paths) for arg in _READERS[reader]]
    assert run([*argv, "--ns", ns, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"usage error: argument --ns: {NS_BOUND}, got {ns!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reader", ["rankings", "vr_index"], ids=["eval-links", "vr-eval"])
def test_bad_n_list_is_reported_before_any_input_is_read(input_files, tmp_path, capsys, reader):
    paths = {kind: str(tmp_path / f"missing-{kind}") for kind in input_files}
    argv = [arg.format(**paths) for arg in _READERS[reader]]
    assert run([*argv, "--ns", "0", "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"usage error: argument --ns: {NS_BOUND}, got '0'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reader", ["rankings", "vr_index"], ids=["eval-links", "vr-eval"])
@pytest.mark.parametrize("ns", ["x", "", ",", "1,-2", "1.5", "1,\udcff"])
def test_bad_ns_names_the_flag(input_files, tmp_path, capsys, reader, ns):
    """argparse parses --ns, so a list that is not integers names the flag too."""
    paths = {k: str(v) for k, v in input_files.items()}
    argv = [arg.format(**paths) for arg in _READERS[reader]]
    assert run([*argv, "--ns", ns, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"usage error: argument --ns: {NS_BOUND}, got {ns!r}\n"
    assert not (tmp_path / "out").exists()


def test_ns_is_recorded_as_given(input_files, tmp_path):
    out = tmp_path / "ev"
    assert run(["eval-links", "--rankings", str(input_files["rankings"]), "--gold",
                str(input_files["gold"]), "--ns", " 2, 1,", "--out-dir", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["ns"] == " 2, 1,"
    assert json.loads((out / "recall.json").read_text()).keys() == {"1", "2"}


@pytest.mark.parametrize("name, flag", [("build-index", "--corpus"), ("search", "--query")])
def test_flag_value_utf8_cannot_write_is_a_usage_error(input_files, tmp_path, capsys, name, flag):
    """The manifest records the flag, so a non-UTF-8 argv byte, which Python
    decodes as a lone surrogate, is refused before any input is read."""
    corpus = tmp_path / "c\udcff.jsonl"  # the file exists, under that byte name
    corpus.write_bytes(input_files["corpus"].read_bytes())
    value = str(corpus) if flag == "--corpus" else "\udcff"
    argv = _subcommand(input_files, name)
    argv[argv.index(flag) + 1] = value
    out = tmp_path / "out"
    assert run([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"usage error: argument {flag}: must be valid UTF-8, got {value!r}\n")
    assert not out.exists()


def test_non_utf8_out_dir_is_written(input_files, tmp_path):
    """--out-dir is not recorded in the manifest, so any path the system takes will do."""
    out = tmp_path / "o\udcff"
    assert run(["build-index", "--corpus", str(input_files["corpus"]), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"] == ["corpus_report.txt", "embeddings.txt"]


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_damage_test_commands_pass_on_valid_inputs(input_files, tmp_path, kind):
    """The damage tests fail on the damaged file, not on another input."""
    code, _ = _run_on(input_files, tmp_path, kind, input_files[kind].read_bytes())
    assert code == 0


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("embeddings", "dim=x\n", "line 1: expected header 'dim=<d>'"),
        ("links", "g0_s0\tg1\ng0_s1\tg2\ng0_s0\tg2\n", "line 3: duplicate step 'g0_s0'"),
        ("links", "g0_s0\tg1\nnostep\tg1\n", "line 2: unknown step_id 'nostep' in {vr_corpus}"),
        ("links", "g0_s0\tUNLINKABLE\ng0_s1\tnogoal\t0.5\t0.5\n",
         "line 2: unknown goal_id 'nogoal' in {vr_corpus}"),
        ("gold", "a00_probe\ta01\na00_probe\ta02\n", "line 2: duplicate step 'a00_probe'"),
        ("gold", "a00_probe\ta01\nghost\ta01\n", "line 2: unknown step_id 'ghost' in {corpus}"),
        ("gold", "a00_probe\tnowhere\n", "line 1: unknown goal_id 'nowhere' in {corpus}"),
        ("candidates", "a00_probe\t1\ta01\t0.5\nghost\t1\ta01\t0.5\n",
         "line 2: unknown step_id 'ghost' in {corpus}"),
        ("candidates", "a00_probe\t1\tnowhere\t0.5\n",
         "line 1: unknown goal_id 'nowhere' in {corpus}"),
        ("candidates", "".join(f"a0{i % 3}_probe\t{i}\t{'nowhere' if i == 3 else 'a04'}\t0.5\n"
                               for i in range(1, 9)) + "a00_probe\tx\ta01\t0.5\n",
         "line 3: unknown goal_id 'nowhere' in {corpus}"),
        ("model", "k=30\nk=30\n", "line 2: duplicate key 'k'"),
        ("corpus", '{"id": "g1", "title": null, "steps": [{"id": "s1", "text": "boil"}]}\n',
         "record 1: title must be a string, got None"),
        ("corpus", '{"id": "g1", "title": "Make Videos", '
                   '"steps": [{"id": "s1", "text": ["buy", "a camera"]}]}\n',
         "record 1: text of step 's1' must be a string, got ['buy', 'a camera']"),
        ("videos", '{"video_id": "v1", "goal_id": "g0", "caption": null}\n',
         "line 1: caption must be a string, got None"),
        ("videos", '{"video_id": "v1", "goal_id": "g0", "caption": "x"}\n'
                   '{"video_id": true, "goal_id": "g0", "caption": "x"}\n',
         "line 2: video_id must be a string or integer, got True"),
        ("videos", '{"video_id": "v1", "goal_id": ["g0"], "caption": "x"}\n',
         "line 1: goal_id must be a string or integer, got ['g0']"),
    ],
    ids=["bad-embedding-header", "duplicate-link-step", "unknown-link-step", "unknown-link-goal",
         "duplicate-gold-step", "unknown-gold-step", "unknown-gold-goal", "unknown-candidate-step",
         "unknown-candidate-goal", "unknown-candidate-goal-before-a-later-bad-rank",
         "duplicate-model-key", "null-title", "list-step-text", "null-caption", "bool-video-id",
         "list-goal-id"],
)
def test_bad_rows_exit_2_with_path_and_line(input_files, tmp_path, capsys, kind, text, message):
    """A reader given --corpus rejects a step or goal that is not one of
    its own at the first faulty line, naming the corpus file."""
    code, damaged = _run_on(input_files, tmp_path, kind, text.encode())
    assert code == 2
    message = message.format(**{name: str(path) for name, path in input_files.items()})
    assert f"error: {damaged}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["link", "expand"])
def test_model_of_another_width_exits_2_with_path(identity_setup, tmp_path, capsys, command):
    """A 16-wide checkpoint, as lexical models were before features had their
    real width of 7, is rejected before any step is linked."""
    corpus_path, _, embeddings, _ = _linked(identity_setup, tmp_path)
    model = tmp_path / "model16.txt"
    save_model(new_model(16, unlinkable=True), model)
    extra = ["--root", "a00"] if command == "expand" else []
    capsys.readouterr()
    code = run([command, "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                "--model", str(model), *extra, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{model}: model width 16 does not match the feature width 7 of lexical" in err


@pytest.mark.parametrize("command, last_block", [("link", False), ("expand", False),
                                                  ("link", True)],
                         ids=["link", "expand", "link-last-block"])
def test_checkpoint_whose_scores_overflow_exits_2(identity_setup, tmp_path, capsys, monkeypatch,
                                                  command, last_block):
    """A checkpoint whose W . f overflows gives no sim2 to write: the run
    ends in a data error naming --model and the first such step, and
    writes nothing, also when only the last block of steps overflows."""
    corpus_path, _, embeddings, _ = _linked(identity_setup, tmp_path)
    w, step_id = np.full(7, 1e308), "a00_probe"
    if last_block:  # bias plus exact title match overflow; only a19_probe has one
        records, _ = identity_records(20)
        for record in records[:-1]:
            record["steps"][0]["text"] = f"probe of {record['id']}"
        write_jsonl(corpus_path, records)
        assert run(["build-index", "--corpus", str(corpus_path), "--out-dir",
                    str(tmp_path / "ix")]) == 0
        w, step_id = np.array([1e308, 0, 0, 0, 0, 1e308, 0]), "a19_probe"
        monkeypatch.setattr(retrieval, "STEP_BLOCK", 7)  # 60 steps: a19_probe is in the last
    model = tmp_path / "model.txt"
    save_model(replace(new_model(7), w=w), model)
    extra = ["--root", "a00"] if command == "expand" else []
    capsys.readouterr()
    out = tmp_path / "out"
    code = run([command, "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                "--model", str(model), *extra, "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --model {model}: sim2 of step {step_id!r} is not a finite number\n")
    assert not out.exists()


def test_retrieve_and_link_work_one_block_of_steps_at_a_time(identity_setup, tmp_path,
                                                            monkeypatch):
    """Stage 1 and the pair features see one block of STEP_BLOCK corpus
    steps per call, and `candidates.tsv`, `links.tsv` and `rankings.tsv`
    have the same bytes whatever the block size."""
    corpus_path, gold_path, embeddings, candidates = _linked(identity_setup, tmp_path)
    assert run(["train-reranker", "--corpus", str(corpus_path), "--candidates", str(candidates),
                "--gold", str(gold_path), "--unlinkable", "--epochs", "2",
                "--out-dir", str(tmp_path / "tr")]) == 0
    n_steps, calls = 60, []  # identity_setup: 20 articles of 3 steps

    def spy(name, fn, size):
        def record(*args, **kwargs):
            calls.append((name, size(*args)))
            return fn(*args, **kwargs)
        return record

    for module in (cli, hierarchy):
        monkeypatch.setattr(module, "retrieve_all", spy(
            "retrieve_all", retrieval.retrieve_all, lambda index, store, steps, k: len(steps)))
    monkeypatch.setattr(LexicalFeatureSource, "features", spy(
        "features", LexicalFeatureSource.features, lambda source, step_ids, *_: len(step_ids)))

    def outputs(block):
        monkeypatch.setattr(retrieval, "STEP_BLOCK", block)
        out = tmp_path / f"block{block}"
        assert run(["retrieve", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                    "--k", "10", "--out-dir", str(out / "ret")]) == 0
        assert run(["link", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                    "--model", str(tmp_path / "tr" / "model.txt"), "--rankings",
                    "--out-dir", str(out / "ln")]) == 0
        return [(out / name).read_bytes()
                for name in ("ret/candidates.tsv", "ln/links.tsv", "ln/rankings.tsv")]

    want = outputs(7)  # 8 blocks of 7 steps and one of 4
    sizes = [7] * 8 + [4]
    assert calls == [("retrieve_all", n) for n in sizes] + [
        call for n in sizes for call in (("retrieve_all", n), ("features", n))]
    assert want[0] == candidates.read_bytes()
    for block in (1, 2, 3, n_steps + 1):
        calls.clear()
        assert outputs(block) == want, block
        assert max(n for _, n in calls) == min(block, n_steps)


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["retrieve", "--corpus", "{corpus}", "--embeddings", "{embeddings}"], "a00_probe"),
        (["link", "--corpus", "{corpus}", "--embeddings", "{embeddings}", "--model", "{model}"],
         "a00_probe"),
        (["retrieve", "--corpus", "{corpus}", "--embeddings", "{embeddings}"], "a03"),
    ],
    ids=["retrieve", "link", "retrieve-goal"],
)
def test_missing_embedding_exits_2_with_path(input_files, tmp_path, capsys, argv, missing):
    rows = input_files["embeddings"].read_text().splitlines(keepends=True)
    embeddings = tmp_path / "embeddings.txt"
    embeddings.write_text("".join(row for row in rows if row.split(" ", 1)[0] != missing))
    paths = {**{k: str(v) for k, v in input_files.items()}, "embeddings": str(embeddings)}
    code = run([arg.format(**paths) for arg in argv] + ["--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"{embeddings}: no embedding for corpus id {missing!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags", [
    ("retrieve", []), ("link", ["--model", "{model}"]),
    ("expand", ["--model", "{model}", "--root", "g1"]),
], ids=["retrieve", "link", "expand"])
def test_one_article_corpus_exits_2_naming_the_corpus(tmp_path, capsys, command, flags):
    """Its steps have no goal but their own, which stage 1 excludes."""
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"id": "g1", "title": "Make Tea",
                          "steps": [{"id": "s1", "text": "boil water"}]}])
    assert run(["build-index", "--corpus", str(corpus), "--dim", "16",
                "--out-dir", str(tmp_path / "ix")]) == 0
    model = tmp_path / "model.txt"
    save_model(new_model(7), model)
    out = tmp_path / "out"
    capsys.readouterr()
    embeddings = tmp_path / "ix" / "embeddings.txt"
    code = run([command, "--corpus", str(corpus), "--embeddings", str(embeddings),
                *(flag.format(model=model) for flag in flags), "--out-dir", str(out)])
    assert code == 2
    assert f"error: --corpus {corpus}: one article" in capsys.readouterr().err
    assert not out.exists()


def test_link_rankings_read_back_equal_link_all(identity_setup, tmp_path):
    corpus_path, gold_path, embeddings, candidates = _linked(identity_setup, tmp_path)
    assert run(["train-reranker", "--corpus", str(corpus_path), "--candidates", str(candidates),
                "--gold", str(gold_path), "--unlinkable", "--epochs", "2",
                "--out-dir", str(tmp_path / "tr")]) == 0
    model_path = tmp_path / "tr" / "model.txt"
    assert run(["link", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                "--model", str(model_path), "--rankings", "--out-dir", str(tmp_path / "ln")]) == 0

    corpus, store = load_corpus(corpus_path), load_embeddings(embeddings)
    model = load_model(model_path)
    pipeline = LinkPipeline(
        corpus=corpus, index=build_index(store, corpus.goal_ids()), store=store, model=model,
        features=LexicalFeatureSource(corpus))
    want = joined(link_all(pipeline))
    got = read_candidates(tmp_path / "ln" / "rankings.tsv")
    assert got.step_ids == want.step_ids
    assert got.offsets.tolist() == want.offsets.tolist()
    assert got.goal_ids == want.goal_ids
    assert UNLINKABLE in got.goal_ids
    assert got.sim1.tobytes() == want.sim1.tobytes()
    assert got.sim2.tobytes() == want.sim2.tobytes()


def test_retrieve_and_link_clamp_k_alike(tmp_path):
    """`link` retrieves with the k that the model's candidate lists had: on 4
    articles each step has 3 goals besides its own, so --k 50 gives lists of
    3; on 20 articles --k 5 gives lists of 5. Each step's reranked list holds
    exactly the goals of its candidate list, plus UNLINKABLE."""
    for articles, k, size in ((4, "50", 3), (20, "5", 5)):
        _check_link_lists_are_the_retrieved_ones(tmp_path / k, articles, k, size)


def _check_link_lists_are_the_retrieved_ones(tmp_path, articles, k, size):
    tmp_path.mkdir()
    records, gold = identity_records(articles)
    corpus_path, gold_path = tmp_path / "corpus.jsonl", tmp_path / "gold.tsv"
    write_jsonl(corpus_path, records)
    gold_path.write_text("".join(f"{s}\t{g}\n" for s, g in gold.items()))
    assert run(["build-index", "--corpus", str(corpus_path), "--out-dir", str(tmp_path / "ix")]) == 0
    embeddings = tmp_path / "ix" / "embeddings.txt"
    assert run(["retrieve", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                "--k", k, "--out-dir", str(tmp_path / "ret")]) == 0
    assert run(["train-reranker", "--corpus", str(corpus_path), "--gold", str(gold_path),
                "--candidates", str(tmp_path / "ret" / "candidates.tsv"), "--unlinkable",
                "--epochs", "1", "--out-dir", str(tmp_path / "tr")]) == 0
    model = tmp_path / "tr" / "model.txt"
    assert f"\nk={size}\n" in model.read_text()
    assert run(["link", "--corpus", str(corpus_path), "--embeddings", str(embeddings),
                "--model", str(model), "--rankings", "--out-dir", str(tmp_path / "ln")]) == 0

    def goal_lists(path):
        lists: dict[str, list] = {}
        for line in path.read_text().splitlines():
            step_id, _, goal_id = line.split("\t")[:3]
            lists.setdefault(step_id, []).append(goal_id)
        return {step_id: sorted(goals) for step_id, goals in lists.items()}

    retrieved = goal_lists(tmp_path / "ret" / "candidates.tsv")
    assert goal_lists(tmp_path / "ln" / "rankings.tsv") == {
        step_id: sorted([*goals, UNLINKABLE]) for step_id, goals in retrieved.items()}
    assert len(retrieved) == 3 * articles and all(len(g) == size for g in retrieved.values())


@pytest.fixture
def train_argv(identity_setup, tmp_path):
    """`train-reranker` argv (without --out-dir) over a 20-article corpus
    and its top-5 candidates."""
    corpus_path, gold_path, _ = identity_setup
    assert run(["build-index", "--corpus", str(corpus_path), "--dim", "16",
                "--out-dir", str(tmp_path / "ix")]) == 0
    assert run(["retrieve", "--corpus", str(corpus_path), "--embeddings",
                str(tmp_path / "ix" / "embeddings.txt"), "--k", "5",
                "--out-dir", str(tmp_path / "ret")]) == 0
    return ["train-reranker", "--corpus", str(corpus_path), "--gold", str(gold_path),
            "--candidates", str(tmp_path / "ret" / "candidates.tsv")]


@pytest.mark.parametrize(
    "flag, value",
    [("--batch", "0"), ("--batch", "-3"), ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-inf"),
     ("--lr", "0"), ("--lr", "-0.5"), ("--epochs", "0"), ("--epochs", "-1")],
)
def test_bad_training_flag_is_a_usage_error(train_argv, tmp_path, capsys, flag, value):
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([*train_argv, f"{flag}={value}", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: must be")
    assert not out.exists()


def test_diverging_training_exits_2_naming_lr(train_argv, tmp_path, capsys):
    capsys.readouterr()
    argv = [*train_argv, "--lr", "1e308", "--epochs", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would end in exit 3
        assert run([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --lr 1e+308: non-finite training loss")
    assert not (tmp_path / "out" / "model.txt").exists()


_REIMPORT = """
import gc, importlib, sys, types, weakref
importlib.import_module("prockb.cli")
old = [weakref.ref(value) for name, module in list(sys.modules.items()) if name.startswith("prockb")
       for value in vars(module).values()
       if isinstance(value, (type, types.FunctionType)) and value.__module__ == name]
for name in [name for name in sys.modules if name.startswith("prockb")]:
    del sys.modules[name]
gc.collect()
importlib.import_module("prockb.cli")
print(len(old), sorted(ref().__qualname__ for ref in old if ref() is not None))
"""


def test_a_fresh_import_frees_the_package_it_replaces():
    """Nothing outside prockb holds on to a prockb that was dropped from
    `sys.modules`, so importing it afresh, as each command of a benchmark
    chain does, frees the old one. `typing` caches each generic it makes for
    good, so an annotation such as `typing.Iterator[Step]` would keep `Step`,
    and with it every module, alive; `collections.abc` generics are not cached."""
    src = str(Path(prockb.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _REIMPORT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    n, alive = done.stdout.split(" ", 1)
    assert int(n) > 50 and alive.strip() == "[]"


@pytest.mark.parametrize("module", ["prockb", "prockb.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    src = str(Path(prockb.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    missing = python_m("retrieve", "--corpus", str(tmp_path / "nope.jsonl"), "--embeddings",
                       str(tmp_path / "e.txt"), "--out-dir", str(tmp_path / "out"))
    assert missing.returncode == 2
    assert "nope.jsonl" in missing.stderr
    shown = python_m("--help")
    assert shown.returncode == 0
    assert shown.stdout.startswith("usage: prockb")


@pytest.fixture
def vr_filter_argv(tmp_path):
    corpus_path, videos_path = vr_fixture(tmp_path)
    return ["vr-filter", "--videos", str(videos_path), "--corpus", str(corpus_path),
            "--index", str(vr_index(tmp_path, videos_path))]


@pytest.mark.parametrize("flag, value", [("--cap", "-1")])
def test_bad_vr_filter_flag_is_a_usage_error(vr_filter_argv, tmp_path, capsys, flag, value):
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([*vr_filter_argv, f"{flag}={value}", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: must be")
    assert not out.exists()


def test_id_with_whitespace_exits_2_in_build_index(tmp_path, capsys):
    """The vector files split rows on whitespace, so such an id would break
    the next command that reads them."""
    records, _ = identity_records(3)
    records[1]["steps"][0]["id"] = "a01 probe"
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, records)
    out = tmp_path / "ix"
    assert run(["build-index", "--corpus", str(corpus_path), "--out-dir", str(out)]) == 2
    assert (f"{corpus_path}: record 2: id 'a01 probe' contains whitespace"
            in capsys.readouterr().err)
    assert not out.exists()


# Every subcommand once, as argv with {kind} placeholders for input_files
# paths; each placeholder is given to a flag that names an input file, and
# nothing else is an input (`link --rankings` is a switch).
_SUBCOMMANDS = {
    "build-index": _READERS["corpus"],
    "retrieve": _READERS["embeddings"],
    "train-reranker": _READERS["candidates"],
    "link": ["link", "--corpus", "{corpus}", "--embeddings", "{embeddings}",
             "--model", "{model}", "--rankings"],
    "expand": ["expand", "--corpus", "{corpus}", "--embeddings", "{embeddings}",
               "--model", "{model}", "--root", "a00"],
    "eval-links": _READERS["rankings"],
    "search": ["search", "--corpus", "{corpus}", "--query", "widget"],
    "vr-index": _READERS["videos"],
    "vr-filter": _READERS["links"],
    "vr-eval-queries": _READERS["queries"],
    "vr-eval-corpus": _READERS["vr_index"],
}


def _subcommand(input_files, name) -> list[str]:
    """The argv of `_SUBCOMMANDS[name]` over `input_files`."""
    paths = {k: str(v) for k, v in input_files.items()}
    return [arg.format(**paths) for arg in _SUBCOMMANDS[name]]


@pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
def test_manifest_lists_the_input_files_given_and_the_files_written(input_files, tmp_path, name):
    paths = {k: str(v) for k, v in input_files.items()}
    argv = [arg.format(**paths) for arg in _SUBCOMMANDS[name]]
    out = tmp_path / "out"
    assert run([*argv, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["outputs"] == written
    given = {arg.format(**paths) for arg in _SUBCOMMANDS[name] if arg.startswith("{")}
    assert set(manifest["inputs"]) == given


@pytest.mark.parametrize("name", ["train-reranker", "link", "expand"])
def test_features_flag_is_a_usage_error(input_files, tmp_path, capsys, name):
    """Stage 2 reads its pair features from the corpus only; a pair-feature
    file is not an input."""
    out = tmp_path / "out"
    capsys.readouterr()
    argv = [*_subcommand(input_files, name), "--features", str(input_files["embeddings"])]
    assert run([*argv, "--out-dir", str(out)]) == 1
    assert "unrecognized arguments: --features" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, flag, value",
    [("retrieve", "--k", "0"), ("expand", "--max-depth", "-1"), ("search", "-n", "0"),
     ("build-index", "--dim", "4"), ("build-index", "--seed", "-1"),
     ("train-reranker", "--seed", "-1")],
)
def test_bad_integer_flag_is_a_usage_error(input_files, tmp_path, capsys, name, flag, value):
    argv = _subcommand(input_files, name)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, flag, value, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: must be >= ")
    assert not out.exists()


@pytest.mark.parametrize("name", ["search", "vr-index"])
@pytest.mark.parametrize(
    "flag, value, bound",
    [("--k1", "0", "a finite number > 0"), ("--k1", "nan", "a finite number > 0"),
     ("--k1", "inf", "a finite number > 0"), ("--b", "2", "in [0, 1]"),
     ("--b", "-0.1", "in [0, 1]"), ("--b", "nan", "in [0, 1]")],
    ids=["k1-0", "k1-nan", "k1-inf", "b-2", "b-negative", "b-nan"],
)
def test_bad_bm25_flag_is_a_usage_error(input_files, tmp_path, capsys, name, flag, value, bound):
    """The BM25 flags are checked by name before --out-dir is made."""
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*_subcommand(input_files, name), flag, value, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"usage error: argument {flag}: must be {bound}, got {float(value)}")
    assert not out.exists()


@pytest.mark.parametrize("name, flag", [("link", "--k"), ("expand", "--k"),
                                        ("link", "--no-exclude-parent"),
                                        ("expand", "--no-exclude-parent"),
                                        ("retrieve", "--no-exclude-parent")])
def test_stage1_settings_are_flags_of_retrieve_only(input_files, tmp_path, capsys, name, flag):
    """`link` and `expand` take k from the model, and every command excludes
    a step's own article."""
    argv = _subcommand(input_files, name)
    extra = [flag, "5"] if flag == "--k" else [flag]
    capsys.readouterr()
    assert run([*argv, *extra, "--out-dir", str(tmp_path / "out")]) == 1
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_expand_root_outside_the_corpus_exits_2(input_files, tmp_path, capsys):
    argv = _subcommand(input_files, "expand")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--root", "nosuch", "--out-dir", str(out)]) == 2
    assert (f"error: --root: unknown goal_id 'nosuch' in {input_files['corpus']}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_vr_eval_queries_and_corpus_exclude_each_other(input_files, tmp_path, capsys):
    paths = {k: str(v) for k, v in input_files.items()}
    argv = [arg.format(**paths) for arg in _READERS["queries"]]
    capsys.readouterr()
    out = tmp_path / "ve"
    assert run([*argv, "--corpus", paths["vr_corpus"], "--out-dir", str(out)]) == 1
    assert "argument --corpus: not allowed with argument --queries" in capsys.readouterr().err
    assert not out.exists()
    i = argv.index("--queries")
    assert run([*argv[:i], *argv[i + 2:], "--out-dir", str(out)]) == 1
    assert "one of the arguments --queries --corpus is required" in capsys.readouterr().err


@pytest.mark.parametrize("kind, flags, level", [("queries", [], "FIL_L1"), ("vr_index", [], "L0"),
                                                ("vr_index", ["--level", "l1"], "L1")],
                         ids=["queries", "corpus", "corpus-level"])
def test_vr_eval_manifest_records_the_level_evaluated(input_files, tmp_path, kind, flags, level):
    """--queries evaluates its file's level, and --corpus its --level (L0 by default)."""
    paths = {k: str(v) for k, v in input_files.items()}
    argv = [arg.format(**paths) for arg in _READERS[kind]]
    out = tmp_path / "ve"
    assert run([*argv, *flags, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["level"] == level
    assert (out / "vr_metrics.tsv").read_text().splitlines()[1].split("\t")[0] == level


def test_vr_eval_level_with_queries_is_a_usage_error(input_files, tmp_path, capsys):
    paths = {k: str(v) for k, v in input_files.items()}
    argv = [arg.format(**paths) for arg in _READERS["queries"]]
    capsys.readouterr()
    out = tmp_path / "ve"
    assert run([*argv, "--level", "L0", "--out-dir", str(out)]) == 1
    assert "--level is for --corpus queries" in capsys.readouterr().err
    assert not out.exists()


def test_non_ascii_paths_and_root_are_kept_with_the_same_config_hash(tmp_path, monkeypatch):
    """Manifests keep non-ASCII characters as they are, while the config
    hash is still taken over the ASCII-escaped config: these hashes are the
    ones the same runs had when manifests escaped them."""
    monkeypatch.chdir(tmp_path)
    records, _ = identity_records(4)
    records[0]["id"] = "ä00"
    write_jsonl(Path("kórpus.jsonl"), records)
    save_model(new_model(7), "mödel.txt")
    assert run(["build-index", "--corpus", "kórpus.jsonl", "--dim", "16", "--out-dir", "ïx"]) == 0
    assert run(["expand", "--corpus", "kórpus.jsonl", "--embeddings", "ïx/embeddings.txt",
                "--model", "mödel.txt", "--root", "ä00", "--out-dir", "trée"]) == 0
    for out, config_hash, kept in (
        # build-index's hash is over the same config less the deleted `embeddings` key
        ("ïx", "7fc21e075fb36d3db4fd659b7f455ccf15064f0abe0dd1f2c8a42e4c0477576c",
         ['"corpus": "kórpus.jsonl"']),
        # expand's is over the same config less the deleted `features` key
        ("trée", "54704323f38cfd42f9d7bf44004be93986d3761e18484e63b26c150f34be7350",
         ['"root": "ä00"', '"mödel.txt": "', '"ïx/embeddings.txt": "']),
    ):
        text = Path(out, "manifest.json").read_bytes().decode("utf-8")
        assert json.loads(text)["config_hash"] == config_hash
        assert all(part in text for part in kept) and "\\u" not in text


def readme_commands() -> list[list[str]]:
    """Every `prockb` command in the README's fenced blocks, as the shell
    would split it: `\\` continuations joined, quotes and `#` comments read
    by `shlex`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    return [argv for argv in commands if argv[:1] == ["prockb"]]


def subparsers(parser) -> dict:
    """The parser of each subcommand, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_readme_commands_parse():
    """Each README command names a subcommand and flags that exist, and
    every subcommand has one; they are parsed only, never run."""
    parser = cli.build_parser()
    commands = readme_commands()
    assert {parser.parse_args(argv[1:]).command for argv in commands} == set(subparsers(parser))


def test_every_numeric_flag_declares_its_bound():
    """A numeric flag's type checks its bound as it parses the value."""
    unbounded = [(name, a.option_strings) for name, p in subparsers(cli.build_parser()).items()
                 for a in p._actions if a.type in (int, float)]
    assert not unbounded

"""Tests of the benchmark itself: seeded inputs, the artifact checks (each
must reject a deliberately corrupted artifact), tracing, and the launcher."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import chains  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402

TINY = {
    "link": chains.Workload("link", "", synth.CorpusSpec(articles=40)),
    "stage1": chains.Workload("stage1", "", synth.CorpusSpec(articles=60)),
    "video": chains.Workload("video", "", synth.CorpusSpec(articles=30),
                             synth.VideoSpec(goals=10, per_goal=12)),
}


@pytest.fixture(autouse=True)
def keep_prockb_modules():
    """The chains re-import prockb; put the suite's own modules back after."""
    saved = {k: v for k, v in sys.modules.items() if k == "prockb" or k.startswith("prockb.")}
    yield
    for name in [k for k in sys.modules if k == "prockb" or k.startswith("prockb.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _chain(tmp_path, name, tracer=None):
    workload = TINY[name]
    inputs = tmp_path / "in"
    synth.write_inputs(inputs, 3, workload.corpus, workload.videos)
    runs, _ = chains.run_chain(name, inputs, tmp_path / "out", None, tracer)
    assert [r.exit_code for r in runs] == [0] * len(runs)
    return inputs, runs


def _out(runs, label):
    return next(r.command.out_dir for r in runs if r.command.label == label)


def _rewrite(path, fn):
    path.write_text(fn(path.read_text(encoding="utf-8")), encoding="utf-8")


def test_inputs_are_a_function_of_the_seed(tmp_path):
    spec, videos = TINY["video"].corpus, TINY["video"].videos
    a = synth.write_inputs(tmp_path / "a", 5, spec, videos)
    b = synth.write_inputs(tmp_path / "b", 5, spec, videos)
    c = synth.write_inputs(tmp_path / "c", 6, spec, videos)
    assert a == b
    assert a["corpus.jsonl"] != c["corpus.jsonl"]
    gold = checks.load_pairs(tmp_path / "a" / "gold.tsv")
    assert len(gold) == synth.LINKS_PER_ARTICLE * spec.articles


def test_traced_link_chain_passes_its_checks_and_each_corruption_fails(tmp_path):
    tracer = spans.Tracer()
    inputs, runs = _chain(tmp_path, "link", tracer)
    quality: dict = {}
    assert run.check_pass("link", inputs, runs, 0, quality) == {}
    assert 0.0 < quality["link_recall_all_at_1"] < 1.0
    metrics = spans.layer_metrics(tracer, 1.0, 0.0)
    for name in ("rerank.features.calls", "hierarchy.link_step.calls", "retrieval.topk.calls",
                 "embedding.embed_text.calls", "cli.link_s", "hierarchy.tree_nodes"):
        assert metrics[name][0] > 0, name
    assert metrics["hierarchy.tree_nodes"][0] == quality["tree_nodes"]

    corpus = checks.load_corpus(inputs / "corpus.jsonl")
    vectors = checks.load_embeddings(_out(runs, "build-index") / "embeddings.txt", corpus)
    cand = _out(runs, "retrieve") / "candidates.tsv"
    lines = cand.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0], lines[1] = lines[1].replace("\t2\t", "\t1\t"), lines[0].replace("\t1\t", "\t2\t")
    cand.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(checks.CheckError):
        checks.check_candidates(cand, corpus, vectors, chains.K, 10**6, 0)

    links, rankings = _out(runs, "link") / "links.tsv", _out(runs, "link") / "rankings.tsv"
    first = links.read_text(encoding="utf-8").splitlines()[0].split("\t")
    other = next(g for g in corpus["titles"] if g not in (first[1], corpus["parent"][first[0]]))
    _rewrite(links, lambda t: t.replace(f"{first[0]}\t{first[1]}\t", f"{first[0]}\t{other}\t", 1))
    with pytest.raises(checks.CheckError):
        checks.check_links(links, rankings, corpus)

    recall = _out(runs, "eval-links") / "recall.json"
    _rewrite(recall, lambda t: json.dumps({k: v + 0.01 for k, v in json.loads(t).items()}))
    rank_ids = {s: [r[1] for r in rows] for s, rows in checks.read_ranked(rankings, 5).items()}
    with pytest.raises(checks.CheckError):
        checks.check_recall(recall, rank_ids, checks.load_pairs(inputs / "gold.tsv"))

    tree_run = next(r for r in runs if r.command.label.startswith("expand:"))
    root = tree_run.command.label.split(":", 1)[1]
    tree = tree_run.command.out_dir / "tree.json"
    payload = json.loads(tree.read_text(encoding="utf-8"))
    step = next(s for s in payload["tree"]["steps"] if s["children"])
    step["link"] = root  # the root's own goal, one level below itself
    tree.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(checks.CheckError):
        checks.check_tree(tree, root, chains.MAX_DEPTH, corpus)


def test_video_chain_passes_its_checks_and_each_corruption_fails(tmp_path):
    inputs, runs = _chain(tmp_path, "video")
    quality: dict = {}
    assert run.check_pass("video", inputs, runs, 0, quality) == {}
    assert 0.0 < quality["vr_recall_at_50"] <= 1.0

    corpus = checks.load_corpus(inputs / "corpus.jsonl")
    videos = checks.load_videos(inputs / "videos.jsonl")
    bm25 = checks.BM25(videos)
    train = checks.video_split(videos, "train")
    queries_path = _out(runs, "vr-filter:FIL_L2") / "queries.json"
    queries = checks.check_queries(queries_path, corpus, dict(checks.load_pairs(inputs / "links.tsv")),
                                   "FIL_L2", bm25, train)

    metrics = _out(runs, "vr-eval:FIL_L2") / "vr_metrics.tsv"
    header, row = metrics.read_text(encoding="utf-8").splitlines()
    values = row.split("\t")
    values[-1] = repr(float(values[-1]) + 1.0)  # mean rank
    metrics.write_text(header + "\n" + "\t".join(values) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckError):
        checks.check_vr_metrics(metrics, queries, bm25, checks.video_split(videos, "test"))

    payload = json.loads(queries_path.read_text(encoding="utf-8"))
    payload[0]["steps"].append("a clause from no article")
    queries_path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(checks.CheckError):
        checks.check_queries(queries_path, corpus, {}, "FIL_L2", bm25, train)


@pytest.mark.parametrize("name, counter", [
    ("stage1", "retrieval.topk.calls"),  # topk runs on retrieve_all's thread pool
    ("video", "videoretrieval.cost_evals"),
])
def test_traced_counts_repeat_and_outputs_match_untraced(tmp_path, name, counter):
    counts = []
    for i in range(2):
        tracer = spans.Tracer()
        _chain(tmp_path / f"t{i}", name, tracer)
        assert not tracer.missing
        metrics = spans.layer_metrics(tracer, 1.0, 0.0)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0][counter] > 0
    _, untraced = _chain(tmp_path / "u", name)
    for r in untraced:
        rel = r.command.out_dir.relative_to(tmp_path / "u" / "out")
        assert run._output_digests(r.command.out_dir) == run._output_digests(
            tmp_path / "t0" / "out" / rel)


def test_a_vanished_function_is_reported_missing(monkeypatch):
    gone = spans.Target("rerank.features", ("prockb.rerank:NoSuchSource.features",))
    monkeypatch.setattr(spans, "TARGETS", (gone,))
    chains.fresh_cli()
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.missing == {"rerank.features"}
    metrics = spans.layer_metrics(tracer, 1.0, 0.0)
    assert metrics["rerank.features.calls"] == (None, "count")
    assert metrics["rerank.features.unique_ratio"] == (None, "ratio")


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "link", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

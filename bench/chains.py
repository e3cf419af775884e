"""The three workloads: chains of prockb CLI subcommands run in-process.

Each workload is a closed loop with one client: the chain's commands run one
after another through `prockb.cli.main`, each starting when the previous one
has returned. Every command gets a freshly imported `prockb` package, so no
in-process state carries from one command (or pass) to the next, as with
separate CLI invocations; import time is outside the command's timing.
"""

import gc
import importlib
import json
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import synth

K = 30
EPOCHS = 5
MAX_DEPTH = 3
EXPAND_WORK = 400  # link decisions that all expand commands of a pass make together
ROOT_COST = 16  # loading the inputs for one more root takes about as long as this many


@dataclass(frozen=True)
class Command:
    label: str  # unique within a pass, e.g. "expand:g00012"
    metric: str  # per-command e2e metric it adds to, e.g. "expand_s"
    argv: tuple[str, ...]
    out_dir: Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: synth.CorpusSpec
    videos: synth.VideoSpec | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "link",
            "stage-2 reranking (pair features, scoring, training) and per-step linking do most "
            "of the work; expand re-links the same steps",
            synth.CorpusSpec(articles=100),
        ),
        Workload(
            "stage1",
            "embedding and the batch exact top-k scan (steps x goals) do most of the work; "
            "no reranking",
            synth.CorpusSpec(articles=800),
        ),
        Workload(
            "video",
            "BM25 index persistence and the hill-climb query filter do nearly all the work; "
            "no embedding, retrieval or reranking",
            synth.CorpusSpec(articles=200),
            synth.VideoSpec(goals=50),
        ),
    )
}


def expand_roots(inputs: Path, links_path: Path) -> list[str]:
    """Roots whose trees take about EXPAND_WORK link decisions in all.

    How big a tree grows depends on how many steps the trained model links
    rather than marks unlinkable, which varies with the seed. Replaying
    expand's walk over `link`'s decisions predicts each root's work exactly,
    so roots are taken largest first while their work, plus ROOT_COST for
    loading the inputs once per root, still fits in what is left. That keeps
    expand's total work about the same from seed to seed, however many roots
    it takes. Falls back to the first goal if links.tsv is unreadable.
    """
    steps: dict[str, list[str]] = {}
    with open(inputs / "corpus.jsonl", encoding="utf-8") as handle:
        for line in handle:
            rec = json.loads(line)
            steps[rec["id"]] = [s["id"] for s in rec["steps"]]
    try:
        with open(links_path, encoding="utf-8") as handle:
            links = dict(line.split("\t")[:2] for line in handle)
    except (OSError, ValueError):
        return list(steps)[:1]

    def link_steps(root: str) -> int:
        calls = 0
        queue = deque([(root, 0, frozenset())])
        while queue:
            goal, depth, ancestors = queue.popleft()
            if depth >= MAX_DEPTH:
                continue
            path = ancestors | {goal}
            for step_id in steps[goal]:
                calls += 1
                target = links.get(step_id, "UNLINKABLE")
                if target in steps and target not in path:
                    queue.append((target, depth + 1, path))
        return calls

    cost = {goal: link_steps(goal) + ROOT_COST for goal in steps}
    roots, left = [], EXPAND_WORK
    for goal in sorted(cost, key=lambda g: (-cost[g], g)):
        if cost[goal] <= left:
            roots.append(goal)
            left -= cost[goal]
    return roots or [min(cost, key=lambda g: (cost[g], g))]


def commands(workload: str, inputs: Path, out: Path, roots: list[str]) -> list[Command]:
    """The workload's chain; on `link`, `roots` are the expand roots."""
    corpus = str(inputs / "corpus.jsonl")
    gold = str(inputs / "gold.tsv")
    emb = str(out / "ix" / "embeddings.txt")
    model = str(out / "tr" / "model.txt")
    cmds: list[Command] = []

    def add(label, metric, out_name, *argv):
        cmds.append(Command(label, metric, (*argv, "--out-dir", str(out / out_name)), out / out_name))

    if workload in ("link", "stage1"):
        add("build-index", "build_index_s", "ix", "build-index", "--corpus", corpus)
        add("retrieve", "retrieve_s", "ret", "retrieve", "--corpus", corpus, "--embeddings", emb,
            "--k", str(K))
    if workload == "link":
        add("train-reranker", "train_reranker_s", "tr", "train-reranker", "--corpus", corpus,
            "--candidates", str(out / "ret" / "candidates.tsv"), "--gold", gold, "--unlinkable",
            "--epochs", str(EPOCHS))
        add("link", "link_s", "ln", "link", "--corpus", corpus, "--embeddings", emb,
            "--model", model, "--rankings")
        add("eval-links", "eval_links_s", "ev", "eval-links",
            "--rankings", str(out / "ln" / "rankings.tsv"), "--gold", gold, "--split", "test")
        for root in roots:
            add(f"expand:{root}", "expand_s", f"tree_{root}", "expand", "--corpus", corpus,
                "--embeddings", emb, "--model", model, "--root", root,
                "--max-depth", str(MAX_DEPTH))
    if workload == "video":
        videos = str(inputs / "videos.jsonl")
        links = str(inputs / "links.tsv")
        index = str(out / "vix" / "vr_index.json")
        add("vr-index", "vr_index_s", "vix", "vr-index", "--videos", videos)
        for level in ("FIL_L1", "FIL_L2"):
            add(f"vr-filter:{level}", "vr_filter_s", f"vf_{level}", "vr-filter", "--videos", videos,
                "--corpus", corpus, "--level", level, "--index", index, "--links", links)
        for level in ("L0", "L1"):
            add(f"vr-eval:{level}", "vr_eval_s", f"ve_{level}", "vr-eval", "--videos", videos,
                "--corpus", corpus, "--level", level, "--index", index)
        for level in ("FIL_L1", "FIL_L2"):
            add(f"vr-eval:{level}", "vr_eval_s", f"ve_{level}", "vr-eval", "--videos", videos,
                "--queries", str(out / f"vf_{level}" / "queries.json"), "--index", index)
    return cmds


def fresh_cli():
    """Drop every prockb module and import the CLI again."""
    for name in [n for n in sys.modules if n == "prockb" or n.startswith("prockb.")]:
        del sys.modules[name]
    return importlib.import_module("prockb.cli")


@dataclass
class CommandRun:
    command: Command
    exit_code: int
    seconds: float


def run_pass(cmds: list[Command], tracer=None) -> list[CommandRun]:
    """Run a chain once; a traced pass wraps each command in a `cli.<name>` span."""
    runs = []
    for cmd in cmds:
        cli = fresh_cli()
        if tracer is not None:
            tracer.install()
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(list(cmd.argv))
            else:
                code = tracer.span(f"cli.{cmd.argv[0]}", cli.main, list(cmd.argv))
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            print(f"{cmd.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
        runs.append(CommandRun(cmd, code, time.perf_counter() - start))
    return runs


def run_chain(workload: str, inputs: Path, out: Path, roots: list[str] | None, tracer=None):
    """Run the whole chain once. On `link` with roots None, the expand roots
    are chosen after `link` has run. Returns (runs, roots)."""
    if workload != "link" or roots is not None:
        return run_pass(commands(workload, inputs, out, roots or []), tracer), roots
    runs = run_pass(commands(workload, inputs, out, []), tracer)
    roots = expand_roots(inputs, out / "ln" / "links.tsv")
    expands = commands(workload, inputs, out, roots)[len(runs):]
    return runs + run_pass(expands, tracer), roots

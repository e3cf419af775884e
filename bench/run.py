"""prockb benchmark: one workload per run, or all three with --workload all.

    python3 bench/run.py --workload link --seed 1 --seconds 50 --trace 0

Generates the workload's inputs from --seed, runs its chain of CLI commands
again and again for --seconds, checks every artifact, and prints a report
followed by one JSON line {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, timed with tracing off;
with --trace 1 they are the per-layer ones, from one extra traced pass.
See bench/README.md for every metric and workload.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import chains
import spans
import synth

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("link", "stage1", "video")
MIN_SETUPS = 9  # set-ups per run, at least
SETUPS_PER_PASS = 2  # set-ups after every timed pass
CHECK_SAMPLE = 64  # candidate lists compared with the brute-force top-k


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(current, cap)))


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# One workload

def trimmed_mean(values) -> float:
    """Mean of the values without the highest and the lowest (given five or more).

    A shared host can switch between a fast and a slow state for seconds at a
    time. A median over a run then jumps to whichever state held the larger
    part of the run, while a mean moves smoothly with the share of time spent
    in each; dropping the two extremes keeps one stall from moving it.
    """
    ordered = sorted(values)
    if len(ordered) >= 5:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


def _output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact but manifest.json, whose input paths name the pass."""
    return {
        str(p.relative_to(out_dir)): synth.sha256_file(p)
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def setup(dest: Path, workload, seed: int) -> tuple[float, dict[str, str]]:
    """Generate the inputs into `dest` once, after a fresh prockb import;
    returns the time both took and the input digests."""
    gc.collect()
    start = time.perf_counter()
    chains.fresh_cli()
    digests = synth.write_inputs(dest, seed, workload.corpus, workload.videos)
    return time.perf_counter() - start, digests


def check_pass(workload: str, inputs: Path, runs, seed: int, quality: dict) -> dict[str, str]:
    """Check the artifacts of one pass; returns {command label: failure}."""
    import checks  # imports numpy, so only after pin_threads()

    failures: dict[str, str] = {}
    corpus = checks.load_corpus(inputs / "corpus.jsonl")
    state: dict = {}

    def verify(label, fn):
        try:
            fn()
        except Exception as exc:  # any error is this command's failed check
            failures[label] = f"{type(exc).__name__}: {exc}"

    by_label = {r.command.label: r.command for r in runs}
    for run in runs:
        if run.exit_code != 0:
            failures[run.command.label] = f"exit code {run.exit_code}"

    def out(label):
        return by_label[label].out_dir

    if workload in ("link", "stage1"):
        gold = checks.load_pairs(inputs / "gold.tsv")

        def index():
            state["vectors"] = checks.load_embeddings(out("build-index") / "embeddings.txt", corpus)

        def retrieve():
            lists = checks.check_candidates(out("retrieve") / "candidates.tsv", corpus,
                                            state["vectors"], chains.K, CHECK_SAMPLE, seed)
            quality["candidate_recall_at_30"] = checks.candidate_recall(lists, gold)

        verify("build-index", index)
        if "vectors" in state:
            verify("retrieve", retrieve)
    if workload == "link":
        def train():
            checks.check_model(out("train-reranker") / "model.txt",
                               out("train-reranker") / "loss_curve.tsv", chains.EPOCHS)

        def link():
            state["rankings"] = checks.check_links(out("link") / "links.tsv",
                                                   out("link") / "rankings.tsv", corpus)
            for n in (1, 10):
                quality[f"link_recall_all_at_{n}"] = checks.recall_at(state["rankings"], gold, n)

        def evaluate():
            quality["link_recall_at_1"] = checks.check_recall(
                out("eval-links") / "recall.json", state["rankings"], gold)

        verify("train-reranker", train)
        verify("link", link)
        if "rankings" in state:
            verify("eval-links", evaluate)
        nodes = []
        for label, cmd in by_label.items():
            if label.startswith("expand:"):
                root = label.split(":", 1)[1]
                verify(label, lambda: nodes.append(
                    checks.check_tree(cmd.out_dir / "tree.json", root, chains.MAX_DEPTH, corpus)))
        quality["tree_nodes"] = sum(nodes)
    if workload == "video":
        videos = checks.load_videos(inputs / "videos.jsonl")
        links = dict(checks.load_pairs(inputs / "links.tsv"))
        bm25 = checks.BM25(videos)
        train_split = checks.video_split(videos, "train")
        test_split = checks.video_split(videos, "test")
        verify("vr-index", lambda: checks.check_vr_index(out("vr-index") / "vr_index.json", videos))
        queries = {
            "L0": checks.unfiltered_queries(corpus, sorted(train_split), "L0"),
            "L1": checks.unfiltered_queries(corpus, sorted(train_split), "L1"),
        }
        for level in ("FIL_L1", "FIL_L2"):
            def vr_filter(level=level):
                queries[level] = checks.check_queries(
                    out(f"vr-filter:{level}") / "queries.json", corpus, links, level, bm25,
                    train_split)

            verify(f"vr-filter:{level}", vr_filter)
        for level in ("L0", "L1", "FIL_L1", "FIL_L2"):
            def vr_eval(level=level):
                values = checks.check_vr_metrics(out(f"vr-eval:{level}") / "vr_metrics.tsv",
                                                 queries[level], bm25, test_split)
                if level == "FIL_L2":
                    quality["vr_recall_at_50"] = values["r@50"]
                    quality["vr_mean_rank"] = values["mr"]

            if level in queries:
                verify(f"vr-eval:{level}", vr_eval)
    for label in by_label:
        if label not in failures and not (by_label[label].out_dir / "manifest.json").is_file():
            failures[label] = "no manifest.json"
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    workload = chains.WORKLOADS[name]
    inputs = work / "in"
    first, digests = setup(inputs, workload, seed)
    setup_times = [first]

    def setup_again():
        """Set up once more, into a scratch directory, so set-up is sampled
        across the whole run rather than only at its start; the inputs must
        come out the same every time."""
        seconds_taken, got = setup(work / "setup", workload, seed)
        shutil.rmtree(work / "setup", ignore_errors=True)
        if got != digests:
            raise RuntimeError(f"input generation is not deterministic: {got} != {digests}")
        setup_times.append(seconds_taken)

    # Pass 0 warms up (first-touch memory, lazy imports) and is the one checked
    # in full; it is not timed. Untraced passes then fill --seconds, leaving
    # room for one traced pass when tracing. Set-ups follow every pass.
    warmup, roots = chains.run_chain(name, inputs, work / "p0", None)
    # Read after one pass, not after all of them: the allocator's high-water
    # mark creeps up with every pass, and a faster program fits more passes.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = {r.command.label: _output_digests(r.command.out_dir) for r in warmup}
    passes, pass_walls, rounds, failures = [warmup], [], [], {}

    def compare(runs, tag):
        """Later passes must exit 0 and write pass 0's artifacts byte for byte."""
        for r in runs:
            if r.exit_code != 0:
                failures[f"{r.command.label}#{tag}"] = f"exit code {r.exit_code}"
            elif _output_digests(r.command.out_dir) != reference[r.command.label]:
                failures[f"{r.command.label}#{tag}"] = "artifacts differ from pass 0"

    start = time.perf_counter()
    while True:
        out = work / f"p{len(passes)}"
        t0 = time.perf_counter()
        runs, _ = chains.run_chain(name, inputs, out, roots)
        pass_walls.append(time.perf_counter() - t0)
        compare(runs, len(passes))
        passes.append(runs)
        shutil.rmtree(out, ignore_errors=True)
        for _ in range(SETUPS_PER_PASS):
            setup_again()
        rounds.append(time.perf_counter() - t0)
        budget = seconds - (1.6 * median(rounds) if trace else 0.0)
        if time.perf_counter() - start + median(rounds) > budget:
            break
    while len(setup_times) < MIN_SETUPS:
        setup_again()

    tracer = None
    if trace:
        tracer = spans.Tracer()
        out = work / "traced"
        t0 = time.perf_counter()
        traced_runs, _ = chains.run_chain(name, inputs, out, roots, tracer)
        traced_wall = time.perf_counter() - t0
        compare(traced_runs, "traced")
        passes.append(traced_runs)

    quality: dict[str, float] = {}
    failures.update(check_pass(name, inputs, passes[0], seed, quality))
    attempted = sum(len(p) for p in passes)
    # Per-command trimmed means over the untraced passes; wall_s is their sum.
    untraced = passes[1 : 1 + len(pass_walls)]
    per_command: dict[str, list[float]] = {}
    for runs in untraced:
        sums: dict[str, float] = {}
        for r in runs:
            sums[r.command.metric] = sums.get(r.command.metric, 0.0) + r.seconds
        for metric, value in sums.items():
            per_command.setdefault(metric, []).append(value)
    commands = {m: trimmed_mean(v) for m, v in per_command.items()}
    wall_s = sum(commands.values())
    headline = {"link": "link_recall_all_at_10", "stage1": "candidate_recall_at_30",
                "video": "vr_recall_at_50"}[name]

    report = {
        "workload": name,
        "seed": seed,
        "passes": len(untraced),
        "warmup_pass_s": sum(r.seconds for r in warmup),
        "environment": environment(),
        "inputs": digests,
        "setup_s_samples": setup_times,
        "command_samples": per_command,
        "commands": commands,
        "quality": quality,
        "failures": failures,
    }
    e2e = {
        "setup_s": (trimmed_mean(setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "recall": (quality.get(headline), "ratio"),
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }
    if tracer is not None:
        report["missing"] = sorted(tracer.missing)
        result["metrics"] = {
            k: {"value": v, "unit": u}
            for k, (v, u) in spans.layer_metrics(tracer, traced_wall, wall_s).items()
        }
    return {"report": report, "result": result}


# ---------------------------------------------------------------------------
# Entry point

def print_report(payload: dict) -> None:
    report, result = payload["report"], payload["result"]
    print(f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']}"
          "  (closed loop, one client, commands back to back)")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for name, digest in report["inputs"].items():
        print(f"input {name} sha256 {digest}")
    for metric, value in report["commands"].items():
        print(f"command {metric} {value!r} s"
              f" (trimmed mean of {report['passes']} passes, lower is better)")
    for metric, value in report["quality"].items():
        print(f"quality {metric} {value!r}")
    for label, why in report["failures"].items():
        print(f"FAILED {label}: {why}")
    if report.get("missing"):
        print("missing per-layer metrics (function gone): " + " ".join(report["missing"]))
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own process; then every metric in one table."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
        for metric, value in report["commands"].items():
            rows.append((name, metric, value, "s"))
        for metric, value in report["quality"].items():
            rows.append((name, metric, value, ""))
    for name, metric, value, unit in rows:
        print(f"{name:8s} {metric:40s} {value!r} {unit}")
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "prockb" / "__init__.py").is_file():
        print(f"no prockb package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_threads()
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(src))
    import prockb

    if Path(prockb.__file__).resolve().parent != (src / "prockb").resolve():
        print(f"imported prockb from {prockb.__file__}, not {src}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        payload = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print_report(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden link chain: build-index -> retrieve -> train-reranker -> link ->
eval-links -> expand on seeded inputs.

The inputs are built here from one `random.Random`: 10 articles over a
small vocabulary, where about half the steps paraphrase another article's
title and are gold-linked to it. Stage 2 and its training sum in a fixed
order, without BLAS, so `train-reranker` must write the same bytes under
every OpenBLAS kernel and numpy SIMD level; a test below runs it in child
processes under several and compares their sha256 with pinned ones. Its
candidates are the chain's with each sim1 rounded to 12 decimals, since
stage 1 (`build_index`'s norms, `topk`'s matrix-vector product) and
the embedder's norm still go through BLAS: under a forced OpenBLAS core the
chain's own `candidates.tsv`, and so its `tr/model.txt`, differ in their
last bits. So the chain's artifacts are not pinned by raw sha256. Each artifact
is split into its numbers and the text around them: the text (ids, ranks,
link outcomes, tree and manifest structure) must match exactly, and every
number must be within 1e-12 of the pinned one, relative, or absolute near 0.
Paths, sha256 digests and config hashes are masked out first; the config
hashes depend on the bytes of the trained weights.

The pinned values are in `golden_link.json`, and the sha256 of
`train-reranker`'s artifacts in TRAIN_SHA256. To re-pin, run this file as a
script (`PYTHONPATH=src python tests/test_golden_link.py`): it prints each
artifact whose pin it adds, removes or changes, and whether its text or its
numbers moved, before it writes; then the `train-reranker` digests, to be
copied into TRAIN_SHA256 by hand if they changed. State the reason for the
change.
"""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from conftest import write_jsonl  # noqa: E402
from prockb.cli import main  # noqa: E402
from prockb.retrieval import read_candidates, write_candidates  # noqa: E402

GOLDEN = HERE / "golden_link.json"
WORDS = ["bake", "bread", "wash", "rice", "paint", "fence", "tune", "guitar", "plant",
         "tomato", "fold", "shirt", "clean", "oven", "build", "shelf", "knead", "dough"]
ROOTS = ("g1", "g9")
TOL = 1e-12
# A decimal number with a fraction or an exponent; integers (ranks, counts) stay in the text.
NUMBER = re.compile(r"-?\d+(?:\.\d*(?:e[-+]?\d+)?|e[-+]?\d+)")
MASK = re.compile(r'"(?:[0-9a-f]{64}|[0-9a-f]{16})"')
TRAIN_FLAGS = ("--unlinkable", "--epochs", "4", "--batch", "4")
# sha256 of what train-reranker writes from the golden inputs, under any
# OpenBLAS kernel or numpy SIMD level (`train_inputs`).
TRAIN_SHA256 = {
    "model.txt": "d25c34f443a982debdfec429b5cacec19d219290e9778eef1bfd9816e3c30e42",
    "loss_curve.tsv": "bbeebc4147d631c5999bdcc445531fec8e95968e1afbbea53da58464b8a72802",
}
# Settings of a child process's environment under which train-reranker must
# write the same bytes: OpenBLAS kernels forced by name, next to the one it
# detects, and numpy's SIMD dispatch cut to its X86_V2 baseline.
SETTINGS = {
    "detected core": {},
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "SIMD baseline": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"},
}


def write_inputs(tmp_path: Path) -> dict[str, Path]:
    """10 articles of 3-5 steps. A step either copies or paraphrases another
    article's title (dropping or adding a word, or changing its case), with a
    gold link to that article, or is a phrase of random words."""
    rng = random.Random(2207)
    goal_ids = [f"g{i}" for i in range(10)]
    titles = {gid: " ".join(rng.sample(WORDS, rng.randint(2, 3))).capitalize() for gid in goal_ids}
    records, gold = [], []
    for gid in goal_ids:
        steps = []
        for j in range(rng.randint(3, 5)):
            step_id = f"{gid}s{j}"
            if rng.random() < 0.55:
                target = rng.choice([g for g in goal_ids if g != gid])
                words = titles[target].lower().split()
                edit = rng.randrange(4)
                if edit == 1 and len(words) > 2:
                    words.pop(rng.randrange(len(words)))
                elif edit == 2:
                    words.insert(rng.randrange(len(words) + 1), rng.choice(WORDS))
                text = " ".join(words)
                steps.append({"id": step_id, "text": text.upper() if edit == 3 else text})
                gold.append(f"{step_id}\t{target}\n")
            else:
                text = " ".join(rng.choices(WORDS, k=rng.randint(1, 4)))
                steps.append({"id": step_id, "text": text})
        records.append({"id": gid, "title": titles[gid], "steps": steps})
    paths = {"corpus": tmp_path / "corpus.jsonl", "gold": tmp_path / "gold.tsv"}
    write_jsonl(paths["corpus"], records)
    paths["gold"].write_text("".join(gold), encoding="utf-8")
    return paths


def run_chain(tmp_path: Path) -> dict[str, str]:
    """Run the chain through `cli.main`; returns every artifact's text, with
    paths and hex digests masked."""
    paths = write_inputs(tmp_path)
    corpus, gold = str(paths["corpus"]), str(paths["gold"])
    emb = str(tmp_path / "ix" / "embeddings.txt")
    model = str(tmp_path / "tr" / "model.txt")

    def run(*argv, out):
        assert main([*argv, "--out-dir", str(tmp_path / out)]) == 0

    run("build-index", "--corpus", corpus, "--dim", "16", "--seed", "5", out="ix")
    run("retrieve", "--corpus", corpus, "--embeddings", emb, "--k", "4", out="ret")
    candidates = str(tmp_path / "ret" / "candidates.tsv")
    run("train-reranker", "--corpus", corpus, "--candidates", candidates, "--gold", gold,
        *TRAIN_FLAGS, out="tr")
    run("link", "--corpus", corpus, "--embeddings", emb, "--model", model, "--rankings", out="ln")
    run("eval-links", "--rankings", str(tmp_path / "ln" / "rankings.tsv"), "--gold", gold,
        "--ns", "1,2,4", out="ev")
    for root in ROOTS:
        run("expand", "--corpus", corpus, "--embeddings", emb, "--model", model, "--root", root,
            "--max-depth", "3", out=f"tree_{root}")
    return {
        str(p.relative_to(tmp_path)): MASK.sub('"<hex>"', p.read_text(encoding="utf-8").replace(
            str(tmp_path), "<tmp>"))
        for p in sorted(tmp_path.glob("*/*"))
    }


def split_numbers(text: str) -> tuple[str, list[float]]:
    """The text with each decimal number replaced by `{}`, and the numbers."""
    return NUMBER.sub("{}", text), [float(x) for x in NUMBER.findall(text)]


def pin(artifacts: dict[str, str]) -> dict:
    out = {}
    for name, text in artifacts.items():
        skeleton, numbers = split_numbers(text)
        out[name] = {"text_sha256": hashlib.sha256(skeleton.encode("utf-8")).hexdigest(),
                     "numbers": numbers}
    return out


def test_link_chain_matches_pinned_values(tmp_path):
    got = pin(run_chain(tmp_path))
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    for name, pinned in want.items():
        assert got[name]["text_sha256"] == pinned["text_sha256"], name
        assert len(got[name]["numbers"]) == len(pinned["numbers"]), name
        for i, (a, b) in enumerate(zip(got[name]["numbers"], pinned["numbers"])):
            assert math.isclose(a, b, rel_tol=TOL, abs_tol=TOL), (name, i, a, b)


def test_chain_exercises_links_placeholders_and_trees(tmp_path):
    artifacts = run_chain(tmp_path)
    outcomes = [line.split("\t")[1] for line in artifacts["ln/links.tsv"].splitlines()]
    assert "UNLINKABLE" in outcomes and len(set(outcomes)) > 3
    for root in ROOTS:
        tree = json.loads(artifacts[f"tree_{root}/tree.json"])
        assert any(step["children"] for step in tree["tree"]["steps"]), root


def train_inputs(tmp_path: Path) -> tuple[str, ...]:
    """The corpus, candidates and gold paths that train-reranker reads: the
    golden inputs, and the chain's candidates with each sim1 rounded to 12
    decimals, so that their bytes do not depend on BLAS."""
    paths = write_inputs(tmp_path)
    corpus, gold = str(paths["corpus"]), str(paths["gold"])
    assert main(["build-index", "--corpus", corpus, "--dim", "16", "--seed", "5",
                 "--out-dir", str(tmp_path / "ix")]) == 0
    assert main(["retrieve", "--corpus", corpus, "--embeddings", str(tmp_path / "ix" /
                 "embeddings.txt"), "--k", "4", "--out-dir", str(tmp_path / "ret")]) == 0
    candidates = tmp_path / "candidates.tsv"
    ranked = read_candidates(tmp_path / "ret" / "candidates.tsv")
    write_candidates(candidates, [replace(ranked, sim1=ranked.sim1.round(12) + 0.0)])  # no -0.0
    return corpus, str(candidates), gold


def train_digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in TRAIN_SHA256}


def test_train_reranker_bytes_do_not_depend_on_blas_or_simd(tmp_path):
    corpus, candidates, gold = train_inputs(tmp_path)
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"),
                                                       base.get("PYTHONPATH")]))
    for name, setting in SETTINGS.items():
        out = tmp_path / f"tr_{name.replace(' ', '_')}"
        child = subprocess.run(
            [sys.executable, "-m", "prockb", "train-reranker", "--corpus", corpus,
             "--candidates", candidates, "--gold", gold, *TRAIN_FLAGS, "--out-dir", str(out)],
            env={**base, **setting, "OPENBLAS_VERBOSE": "2"}, capture_output=True, text=True,
        )
        report = child.stdout + child.stderr
        assert child.returncode == 0, (name, report)
        if "OPENBLAS_CORETYPE" in setting:
            assert "Core: " in report and "Core not found" not in report, (
                f"OpenBLAS did not take the forced core {name!r}; with OPENBLAS_VERBOSE=2 it "
                f"reported {report.strip()!r}, so this run tests nothing")
        assert train_digests(out) == TRAIN_SHA256, name


def changes(old: dict, new: dict) -> list[str]:
    """One line for each artifact whose pin `new` adds, removes or changes
    from `old`: its text, or how many of its numbers moved and how many of
    those by more than TOL."""
    out = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            out.append(f"{'added' if name in new else 'removed'} {name}")
            continue
        parts = ["text"] if old[name]["text_sha256"] != new[name]["text_sha256"] else []
        a, b = old[name]["numbers"], new[name]["numbers"]
        moved = [(x, y) for x, y in zip(a, b) if x != y]
        if len(a) != len(b):
            parts.append(f"numbers: {len(a)} -> {len(b)} values")
        elif moved:
            far = sum(not math.isclose(x, y, rel_tol=TOL, abs_tol=TOL) for x, y in moved)
            parts.append(f"numbers: {len(moved)} of {len(a)} moved, {far} by more than {TOL:g}")
        if parts:
            out.append(f"changed {name}: {'; '.join(parts)}")
    return out


def test_changes_names_each_pin_added_removed_or_changed():
    def pins(**values):
        return {name: {"text_sha256": text, "numbers": numbers}
                for name, (text, numbers) in values.items()}

    old = pins(a=("1", [1.0, 2.0]), b=("1", []), c=("1", [1.0]), d=("1", [1.0]))
    new = pins(a=("2", [1.0, 2.5]), e=("1", []), c=("1", [1.0]), d=("1", []))
    assert changes(old, new) == ["changed a: text; numbers: 1 of 2 moved, 1 by more than 1e-12",
                                 "removed b", "changed d: numbers: 1 -> 0 values", "added e"]
    assert changes(old, old) == []


def dump(pinned: dict) -> str:
    """The pinned values as JSON, one artifact per line."""
    rows = (f"{json.dumps(name)}: {json.dumps(value)}" for name, value in sorted(pinned.items()))
    return "{\n" + ",\n".join(rows) + "\n}\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = pin(run_chain(Path(tmp)))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    print("\n".join(changes(old, pinned)) or "no pin changed")
    GOLDEN.write_text(dump(pinned), encoding="utf-8")
    print(f"wrote {GOLDEN}")
    with tempfile.TemporaryDirectory() as tmp:
        corpus, candidates, gold = train_inputs(Path(tmp))
        out = Path(tmp) / "tr"
        assert main(["train-reranker", "--corpus", corpus, "--candidates", candidates,
                     "--gold", gold, *TRAIN_FLAGS, "--out-dir", str(out)]) == 0
        for name, digest in train_digests(out).items():
            state = "pinned" if digest == TRAIN_SHA256[name] else "changed: update TRAIN_SHA256"
            print(f"train-reranker {name} sha256 {digest} ({state})")

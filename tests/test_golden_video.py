"""Golden video chain: vr-index -> vr-filter -> vr-eval on seeded inputs.

The inputs are built here from one `random.Random`, over a six-word
vocabulary so that many videos share a score. Every data artifact (not the
manifests) must have the pinned sha256. These artifacts involve no BLAS sums,
so the hashes hold on any numpy build; a change to them is a change in what
the chain computes, and any re-pin needs its reason stated. To re-pin, run
this file as a script (`PYTHONPATH=src python tests/test_golden_video.py`):
it names each pin that it would add, remove or change, then prints every
hash to paste into GOLDEN.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from conftest import write_jsonl  # noqa: E402
from prockb.cli import main  # noqa: E402

WORDS = ["oven", "bake", "peel", "stone", "wedge", "golden"]

GOLDEN = {
    "vix/vr_index.json":
        "3e12a680c9ae598aa3197ffaf1261cb9d0f9c923290975000f249acb86565980",
    "vf_FIL_L1/queries.json":
        "4fabf28b7aa8ce61976e2cd0115ef19c67135e1e7df723db7352013cbd5caa06",
    "vf_FIL_L2/queries.json":
        "3502211a201fd2bd7707e82360d4e13f3490a9b998e7014167b45967e839a33d",
    "ve_L0/vr_metrics.tsv":
        "868508cf49b507ad9aa8568c0d2e045e48942792b72fdd67d24061da69762d35",
    "ve_L1/vr_metrics.tsv":
        "a3e5462c34496708dc4cd0eaffb867c1bb617584f635e926b87cb56b5a77a109",
    "ve_FIL_L1/vr_metrics.tsv":
        "e7260dfa5e0fac1f0a26e2bfd20119ddbc30fe413650f0bb53fe71442b0ba564",
    "ve_FIL_L2/vr_metrics.tsv":
        "0e0bef1d9f584e31277ccd1c1917931ea00f5b0305fd2dff258672207d76f753",
    "vf_FIL_L2_recall_cap2/queries.json":
        "3c9316486f00dc9c75c129e23fb33cdb6da48eee41a8bbf99ec8f8a47af17a3e",
    "ve_FIL_L2_recall_cap2/vr_metrics.tsv":
        "35f123b829a04988b60cd4933c9a73acdd959ef0b37868c1d7dbd2e0488db167",
}


def write_inputs(tmp_path):
    """8 articles of 2-5 steps, 16 videos per goal with shuffled ids, and a
    link for every step (to another goal, or UNLINKABLE)."""
    rng = random.Random(2203)

    def phrase(lo, hi):
        return " ".join(rng.choices(WORDS, k=rng.randint(lo, hi)))

    goal_ids = [f"g{i}" for i in range(8)]
    records = [
        {"id": gid, "title": phrase(1, 2),
         "steps": [{"id": f"{gid}s{j}", "text": phrase(1, 3)} for j in range(rng.randint(2, 5))]}
        for gid in goal_ids
    ]
    ids = [f"v{i:03d}" for i in range(16 * len(goal_ids))]
    rng.shuffle(ids)
    videos = [{"video_id": vid, "goal_id": goal_ids[i // 16], "caption": phrase(0, 4)}
              for i, vid in enumerate(ids)]
    links = [
        f"{step['id']}\t{rng.choice(goal_ids + ['UNLINKABLE'])}\t0.5\t0.5\n"
        for rec in records for step in rec["steps"]
    ]
    paths = {name: tmp_path / name for name in ("corpus.jsonl", "videos.jsonl", "links.tsv")}
    write_jsonl(paths["corpus.jsonl"], records)
    write_jsonl(paths["videos.jsonl"], videos)
    paths["links.tsv"].write_text("".join(links), encoding="utf-8")
    return paths


def run_chain(tmp_path):
    """Run the chain into `tmp_path`; returns the sha256 of each data artifact."""
    paths = write_inputs(tmp_path)
    corpus, videos, links = (str(paths[n]) for n in ("corpus.jsonl", "videos.jsonl", "links.tsv"))
    index = str(tmp_path / "vix" / "vr_index.json")

    def run(*argv, out):
        assert main([*argv, "--out-dir", str(tmp_path / out)]) == 0

    def filtered(level, out, *flags):
        run("vr-filter", "--videos", videos, "--corpus", corpus, "--level", level,
            "--index", index, "--links", links, *flags, out=f"vf_{out}")
        run("vr-eval", "--videos", videos, "--index", index,
            "--queries", str(tmp_path / f"vf_{out}" / "queries.json"), out=f"ve_{out}")

    run("vr-index", "--videos", videos, out="vix")
    for level in ("FIL_L1", "FIL_L2"):
        filtered(level, level)
    filtered("FIL_L2", "FIL_L2_recall_cap2", "--cost", "neg_recall50", "--cap", "2")
    for level in ("L0", "L1"):
        run("vr-eval", "--videos", videos, "--corpus", corpus, "--level", level,
            "--index", index, out=f"ve_{level}")
    return {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.glob("*/*")) if p.name != "manifest.json"}


def test_video_chain_artifacts_are_pinned(tmp_path):
    assert run_chain(tmp_path) == GOLDEN
    queries = json.loads((tmp_path / "vf_FIL_L2" / "queries.json").read_text())
    assert any(q["steps"] for q in queries), "the filter should accept some step"


def changes(old: dict, new: dict) -> list[str]:
    """One line for each artifact whose pin `new` adds, removes or changes from `old`."""
    return [f"{'added' if name not in old else 'removed' if name not in new else 'changed'} {name}"
            for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]


def test_changes_names_each_pin_added_removed_or_changed():
    old = {"a": "1", "b": "1", "c": "1"}
    new = {"a": "2", "c": "1", "d": "1"}
    assert changes(old, new) == ["changed a", "removed b", "added d"]
    assert changes(old, old) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_chain(Path(tmp))
    print("\n".join(changes(GOLDEN, digests)) or "no pin changed")
    for name, digest in digests.items():
        print(f"    {name!r}:\n        {digest!r},")

"""Independent checks of every artifact the workloads produce.

Nothing here imports prockb: each check parses the files itself and compares
them with a brute-force oracle written from the file formats and formulas in
the README. A failed check raises CheckError with the file and the reason.
"""

import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np

TOL = 1e-9


class CheckError(Exception):
    pass


def _require(cond: bool, where, message: str) -> None:
    if not cond:
        raise CheckError(f"{where}: {message}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Inputs

def load_corpus(path: Path) -> dict:
    """{'titles': goal -> title, 'steps': goal -> [(step_id, text)], 'parent': step -> goal}."""
    titles, steps, parent = {}, {}, {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            rec = json.loads(line)
            titles[rec["id"]] = " ".join(rec["title"].split())
            steps[rec["id"]] = [(s["id"], " ".join(s["text"].split())) for s in rec["steps"]]
            for s in rec["steps"]:
                parent[s["id"]] = rec["id"]
    return {"titles": titles, "steps": steps, "parent": parent}


def load_pairs(path: Path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(line.rstrip("\n").split("\t")[:2]) for line in handle if line.strip()]


def split_part(items: list, ratios: tuple, seed: int, part: str) -> list:
    """Seeded shuffle then floor-sized contiguous train/dev/test cut."""
    shuffled = list(items)
    random.Random(seed).shuffle(shuffled)
    n = len(shuffled)
    n_dev = int(n * ratios[1] / sum(ratios))
    n_test = int(n * ratios[2] / sum(ratios))
    n_train = n - n_dev - n_test
    return {"train": shuffled[:n_train], "dev": shuffled[n_train : n_train + n_dev],
            "test": shuffled[n_train + n_dev :]}[part]


# ---------------------------------------------------------------------------
# Stage 1

def load_embeddings(path: Path, corpus: dict) -> dict[str, np.ndarray]:
    """Parse the vector file; every goal and step has one finite unit-norm row."""
    vectors = {}
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        _require(header.startswith("dim="), path, f"bad header {header!r}")
        dim = int(header[4:])
        for line in handle:
            parts = line.split()
            _require(len(parts) == dim + 1, path, f"row {parts[:1]} has {len(parts) - 1} values")
            vectors[parts[0]] = np.array([float(x) for x in parts[1:]])
    expected = set(corpus["titles"]) | set(corpus["parent"])
    _require(set(vectors) == expected, path, "ids differ from the corpus goal and step ids")
    norms = np.linalg.norm(np.stack(list(vectors.values())), axis=1)
    _require(bool(np.all(np.abs(norms - 1.0) < 1e-9)), path, "a row is not unit-norm")
    return vectors


def read_ranked(path: Path, width: int) -> dict[str, list[list[str]]]:
    """step_id -> rows (rank, goal_id, sim1[, sim2]) in file order."""
    out: dict[str, list[list[str]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.rstrip("\n").split("\t")
            _require(len(parts) == width, path, f"expected {width} columns: {line!r}")
            out.setdefault(parts[0], []).append(parts[1:])
    for step_id, rows in out.items():
        ranks = [int(r[0]) for r in rows]
        _require(ranks == list(range(1, len(rows) + 1)), path, f"{step_id}: ranks {ranks[:5]}...")
    return out


def check_candidates(path: Path, corpus: dict, vectors: dict, k: int, sample: int, seed: int):
    """Every step has k candidates; sampled steps match a brute-force cosine
    top-k with the parent excluded and ties by ascending goal_id."""
    lists = read_ranked(path, 4)
    _require(set(lists) == set(corpus["parent"]), path, "steps differ from the corpus steps")
    _require(all(len(rows) == k for rows in lists.values()), path, f"a step has not {k} candidates")
    goals = sorted(corpus["titles"])
    matrix = np.stack([vectors[g] for g in goals])
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    rng = random.Random(seed)
    for step_id in rng.sample(sorted(lists), min(sample, len(lists))):
        rows = lists[step_id]
        q = vectors[step_id] / np.linalg.norm(vectors[step_id])
        scores = {g: float(s) for g, s in zip(goals, matrix @ q)}
        parent = corpus["parent"][step_id]
        oracle = sorted((g for g in goals if g != parent), key=lambda g: (-scores[g], g))[:k]
        got = [(r[1], float(r[2])) for r in rows]
        _require(len({g for g, _ in got}) == k, path, f"{step_id}: duplicate goals")
        _require(parent not in {g for g, _ in got}, path, f"{step_id}: lists its own parent")
        for (goal, sim1), want in zip(got, oracle):
            _require(_close(sim1, scores[goal]), path, f"{step_id}: sim1 of {goal} is {sim1}")
            _require(_close(sim1, scores[want]), path,
                     f"{step_id}: {goal} ({sim1}) where the oracle ranks {want} ({scores[want]})")
        for (g1, s1), (g2, s2) in zip(got, got[1:]):
            _require(s1 > s2 or (s1 == s2 and g1 < g2), path, f"{step_id}: {g1} before {g2}")
    return lists


def candidate_recall(lists: dict, gold: list[tuple[str, str]]) -> float:
    """Share of gold steps whose gold goal is in the step's candidate list."""
    hits = sum(1 for step, goal in gold if goal in {r[1] for r in lists.get(step, ())})
    return hits / len(gold)


# ---------------------------------------------------------------------------
# Stage 2 and trees

def check_model(model_path: Path, curve_path: Path, epochs: int) -> None:
    with open(model_path, encoding="utf-8") as handle:
        lines = dict(line.rstrip("\n").split(" ", 1) if line.startswith(("W ", "U ")) else
                     line.rstrip("\n").split("=", 1) for line in handle if line.strip())
    for key in ("W", "U", "lambda"):
        _require(key in lines, model_path, f"no {key}")
        values = [float(x) for x in lines[key].split()]
        _require(all(math.isfinite(v) for v in values), model_path, f"non-finite {key}")
    with open(curve_path, encoding="utf-8") as handle:
        rows = [line.rstrip("\n").split("\t") for line in handle][1:]
    _require(len(rows) == epochs, curve_path, f"{len(rows)} epochs, expected {epochs}")
    _require(all(math.isfinite(float(r[1])) and math.isfinite(float(r[2])) for r in rows),
             curve_path, "non-finite loss")


def check_links(links_path: Path, rankings_path: Path, corpus: dict) -> dict[str, list[str]]:
    """Each link is the first row of that step's ranking; rankings are sorted
    by sim2, highest first, ties by goal_id. Returns step -> ranked goal ids."""
    rankings = read_ranked(rankings_path, 5)
    _require(set(rankings) == set(corpus["parent"]), rankings_path, "steps differ from corpus")
    for step_id, rows in rankings.items():
        keys = [(-float(r[3]), r[1]) for r in rows]
        _require(keys == sorted(keys), rankings_path, f"{step_id}: not sorted by sim2")
        _require(corpus["parent"][step_id] not in {r[1] for r in rows}, rankings_path,
                 f"{step_id}: ranks its own parent")
    seen = set()
    with open(links_path, encoding="utf-8") as handle:
        for line in handle:
            step_id, outcome, sim1, sim2 = line.rstrip("\n").split("\t")
            first = rankings[step_id][0]
            _require([outcome, sim1, sim2] == first[1:], links_path,
                     f"{step_id}: link {outcome} is not the first ranked row {first[1]}")
            seen.add(step_id)
    _require(seen == set(rankings), links_path, "steps differ from the rankings")
    return {step: [r[1] for r in rows] for step, rows in rankings.items()}


def recall_at(rankings: dict[str, list[str]], gold: list[tuple[str, str]], n: int) -> float:
    return sum(1 for step, goal in gold if goal in rankings[step][:n]) / len(gold)


def check_recall(path: Path, rankings: dict, gold: list[tuple[str, str]], ns=(1, 10, 30)) -> float:
    """recall.json equals recall@N recomputed on the test split; returns recall@1."""
    test = split_part(gold, (7, 2, 1), 0, "test")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    for n in ns:
        want = recall_at(rankings, test, n)
        _require(_close(report[str(n)], want), path, f"recall@{n} {report[str(n)]} != {want}")
    return report["1"]


def check_tree(path: Path, root: str, max_depth: int, corpus: dict) -> int:
    """Depth <= max_depth, no goal twice on a root-to-node path, each goal node
    lists its article's steps in order. Returns the node count."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    _require(payload["max_depth"] == max_depth, path, "wrong max_depth")
    _require(payload["tree"]["goal_id"] == root, path, "wrong root")
    nodes = 0
    stack = [(payload["tree"], 0, frozenset())]
    while stack:
        goal, depth, ancestors = stack.pop()
        gid = goal["goal_id"]
        _require(depth <= max_depth, path, f"{gid} at depth {depth}")
        _require(gid not in ancestors, path, f"{gid} repeats on its root path")
        _require([s["step_id"] for s in goal["steps"]] == [s for s, _ in corpus["steps"][gid]],
                 path, f"{gid}: steps differ from the article")
        nodes += 1 + len(goal["steps"])
        for step in goal["steps"]:
            if step["children"]:
                child = step["link"]
                _require(child in corpus["titles"], path, f"unknown linked goal {child}")
                stack.append(({"goal_id": child, "steps": step["children"]}, depth + 1,
                              ancestors | {gid}))
            elif step.get("suppressed_cycle"):
                _require(step["link"] in ancestors | {gid}, path, "cycle flag off the path")
    return nodes


# ---------------------------------------------------------------------------
# Video retrieval: a brute-force BM25 oracle

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
K1, B = 1.2, 0.75


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class BM25:
    """Okapi BM25 over the captions, scoring every video for a clause."""

    def __init__(self, videos: list[dict]):
        self.ids = [v["video_id"] for v in videos]
        counts = [Counter(tokenize(" ".join(v["caption"].split()))) for v in videos]
        self.doc_lens = np.array([sum(c.values()) for c in counts], dtype=np.float64)
        self.avgdl = float(self.doc_lens.mean()) or 1.0
        postings: dict[str, list[tuple[int, int]]] = {}
        for i, c in enumerate(counts):
            for term, tf in c.items():
                postings.setdefault(term, []).append((i, tf))
        self.postings = {
            t: (np.array([i for i, _ in p], dtype=np.int64), np.array([tf for _, tf in p], dtype=np.float64))
            for t, p in postings.items()
        }
        self.idx_of = {vid: i for i, vid in enumerate(self.ids)}
        order = sorted(range(len(self.ids)), key=lambda i: self.ids[i])
        self.id_rank = np.empty(len(self.ids), dtype=np.int64)
        self.id_rank[order] = np.arange(len(self.ids))
        self._cache: dict[str, np.ndarray] = {}

    def clause(self, text: str) -> np.ndarray:
        if text not in self._cache:
            scores = np.zeros(len(self.ids))
            n = len(self.ids)
            for term in tokenize(text):
                if term not in self.postings:
                    continue
                idxs, tfs = self.postings[term]
                idf = math.log(1.0 + (n - len(idxs) + 0.5) / (len(idxs) + 0.5))
                denom = tfs + K1 * (1.0 - B + B * self.doc_lens[idxs] / self.avgdl)
                scores[idxs] += idf * tfs * (K1 + 1.0) / denom
            self._cache[text] = scores
        return self._cache[text]

    def ranks(self, goal: str, steps, w_g: float, w_s: float, video_ids: list[str]) -> list[int]:
        """1-based ranks of `video_ids` by rel(q, v) over the whole pool, ties
        by ascending video_id."""
        scores = w_g * self.clause(goal)
        for step in steps:
            scores = scores + w_s * self.clause(step)
        order = np.lexsort((self.id_rank, -scores))
        ranks = np.empty(len(order), dtype=np.int64)
        ranks[order] = np.arange(1, len(order) + 1)
        return ranks[[self.idx_of[v] for v in video_ids]].tolist()


def load_videos(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def video_split(videos: list[dict], part: str, seed: int = 0) -> dict[str, list[str]]:
    """Per-goal split, goals in sorted order sharing one seeded shuffle stream."""
    per_goal: dict[str, list[str]] = {}
    for v in videos:
        per_goal.setdefault(v["goal_id"], []).append(v["video_id"])
    rng = random.Random(seed)
    out = {}
    for goal in sorted(per_goal):
        ids = per_goal[goal]
        rng.shuffle(ids)
        n = len(ids)
        n_dev = n_test = int(n * 1.25 / 10)
        n_train = n - n_dev - n_test
        out[goal] = {"train": ids[:n_train], "dev": ids[n_train : n_train + n_dev],
                     "test": ids[n_train + n_dev :]}[part]
    return out


def check_vr_index(path: Path, videos: list[dict]) -> None:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    want = [[v["video_id"], len(tokenize(" ".join(v["caption"].split())))] for v in videos]
    _require(payload["docs"] == want, path, "doc ids or lengths differ from the captions")
    totals = Counter()
    for pairs in payload["postings"].values():
        for doc_id, tf in pairs:
            totals[doc_id] += tf
    _require(all(totals[d] == n for d, n in want), path, "postings do not add up to doc lengths")


def check_queries(path: Path, corpus: dict, links: dict[str, str], level: str, bm25: BM25,
                  train: dict[str, list[str]], cap: int = 15) -> list[dict]:
    """One query per video goal; clauses come from the level's pool, at most
    cap + 1 of them; the accepted clauses never rank the goal's training
    videos worse than the bare goal does."""
    with open(path, encoding="utf-8") as handle:
        queries = json.load(handle)
    _require([q["goal_id"] for q in queries] == sorted(train), path, "goals differ")
    for q in queries:
        gid = q["goal_id"]
        pool = [t for _, t in corpus["steps"][gid]]
        if level == "FIL_L2":
            for step_id, _ in corpus["steps"][gid]:
                target = links.get(step_id)
                if target in corpus["steps"]:
                    pool += [t for _, t in corpus["steps"][target]]
        _require(q["goal"] == corpus["titles"][gid] and q["level"] == level, path, f"{gid}: header")
        _require((q["w_g"], q["w_s"]) == (1.0, 0.5), path, f"{gid}: weights")
        _require(set(q["steps"]) <= set(pool), path, f"{gid}: clause outside the {level} pool")
        _require(len(set(q["steps"])) == len(q["steps"]) <= cap + 1, path, f"{gid}: clause count")

        def cost(steps):
            ranks = bm25.ranks(q["goal"], steps, 1.0, 0.5, train[gid])
            return sum(ranks) / len(ranks)

        if q["steps"]:
            _require(cost(q["steps"]) < cost([]), path, f"{gid}: clauses do not lower the cost")
    return queries


def check_vr_metrics(path: Path, queries: list[dict], bm25: BM25, test: dict[str, list[str]],
                     ns=(1, 10, 25, 50)) -> dict[str, float]:
    """Recompute every value of vr_metrics.tsv from brute-force rankings."""
    with open(path, encoding="utf-8") as handle:
        header, row = [line.rstrip("\n").split("\t") for line in handle]
    got = dict(zip(header, row))
    _require(got["level"] == queries[0]["level"], path, "level")
    goals = sorted(q["goal_id"] for q in queries if test.get(q["goal_id"]))
    by_goal = {q["goal_id"]: q for q in queries}
    recall = {n: 0.0 for n in ns}
    precision = {n: 0.0 for n in ns}
    mr = 0.0
    for gid in goals:
        q = by_goal[gid]
        relevant = bm25.ranks(q["goal"], q["steps"], q["w_g"], q["w_s"], test[gid])
        for n in ns:
            within = sum(1 for r in relevant if r <= n)
            recall[n] += within / len(relevant)
            precision[n] += within / n
        mr += sum(relevant) / len(relevant)
    want = {"mr": mr / len(goals)}
    for n in ns:
        want[f"r@{n}"] = recall[n] / len(goals)
        want[f"p@{n}"] = precision[n] / len(goals)
    for key, value in want.items():
        _require(_close(float(got[key]), value), path, f"{key} {got[key]} != {value}")
    return {key: float(got[key]) for key in want}


def unfiltered_queries(corpus: dict, goals: list[str], level: str) -> list[dict]:
    """L0 (goal only) and L1 (goal + steps, weights 1.0/0.1) queries."""
    return [
        {"goal_id": g, "goal": corpus["titles"][g], "level": level,
         "steps": [] if level == "L0" else [t for _, t in corpus["steps"][g]],
         "w_g": 1.0, "w_s": 0.0 if level == "L0" else 0.1}
        for g in goals
    ]

"""Shared corpus builders for the test suite."""

import json
from itertools import chain

import numpy as np
import pytest

from prockb.artifacts import tab_rows
from prockb.corpus import Corpus, corpus_from_records
from prockb.embedding import EmbeddingStore
from prockb.rerank import nll_loss, score_candidates
from prockb.retrieval import Ranked


def make_corpus(records: list[dict]) -> Corpus:
    return corpus_from_records(records)


def two_article_records() -> list[dict]:
    return [
        {
            "id": "g1",
            "title": "Choose a Camera",
            "steps": [
                {"id": "s1", "text": "set a budget"},
                {"id": "s2", "text": "buy a camera"},
                {"id": "s3", "text": "test the camera"},
            ],
        },
        {
            "id": "g2",
            "title": "Make Videos",
            "steps": [
                {"id": "s4", "text": "purchase a camera"},
                {"id": "s5", "text": "set up lighting"},
            ],
        },
    ]


def identity_records(n: int = 50, fillers: int = 2) -> tuple[list[dict], dict[str, str]]:
    """n articles where each probe step copies the next article's title verbatim.

    Returns (records, gold step->goal map for the probe steps).
    """
    records = []
    gold = {}
    for i in range(n):
        target = (i + 1) % n
        probe_id = f"a{i:02d}_probe"
        steps = [{"id": probe_id, "text": _title(target)}]
        for j in range(fillers):
            steps.append({"id": f"a{i:02d}_f{j}", "text": f"misc filler item {i:02d} {j}"})
        records.append({"id": f"a{i:02d}", "title": _title(i), "steps": steps})
        gold[probe_id] = f"a{target:02d}"
    return records, gold


def _title(i: int) -> str:
    return f"Perform Task{i:02d} Using Widget{i:02d}"


def vector_table(dim: int, vectors: dict) -> EmbeddingStore:
    """The table of `vectors` (id -> vector of width `dim`), in dict order."""
    matrix = np.array(list(vectors.values()), dtype=np.float64).reshape(len(vectors), dim)
    return EmbeddingStore(list(vectors), matrix)


def read_links(path) -> dict[str, str]:
    """step_id -> outcome of a link dump, read as `vr-filter --links` reads
    it: tab rows of at least two fields, each step once."""
    return {fields[0]: fields[1] for _, fields in tab_rows(path, 2, unique="step")}


def one_list(step_id: str, goal_ids, sim1s) -> Ranked:
    """A `Ranked` of one list."""
    return Ranked.from_lists([step_id], [goal_ids], [sim1s])


def columns(ranked: Ranked) -> tuple:
    """Every field of `ranked` as plain Python values, for comparisons."""
    sim2 = None if ranked.sim2 is None else ranked.sim2.tolist()
    return ranked.step_ids, ranked.offsets.tolist(), ranked.goal_ids, ranked.sim1.tolist(), sim2


def pair_features(source, step_ids, goal_lists) -> np.ndarray:
    """`source.features` of the lists `goal_lists`, one per step of `step_ids`."""
    offsets = np.cumsum([0, *map(len, goal_lists)], dtype=np.int64)
    return source.features(tuple(step_ids), tuple(chain.from_iterable(goal_lists)), offsets)


def score_list(model, ranked: Ranked, source) -> Ranked:
    """`score_candidates` on `ranked`, with its features from `source`."""
    return score_candidates(model, ranked,
                            source.features(ranked.step_ids, ranked.goal_ids, ranked.offsets))


def one_loss(model, feats, sim1s, slot):
    """`nll_loss` of a batch of one list: its loss, and its gradient as a model."""
    losses, grad = nll_loss(model, feats, sim1s, np.array([0, len(sim1s)]), [slot])
    return float(losses[0]), grad


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(json.dumps(rec) + "\n")


@pytest.fixture
def two_article_corpus() -> Corpus:
    return make_corpus(two_article_records())

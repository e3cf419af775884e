import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_lists, make_corpus, two_article_records
from prockb.errors import DataError
from prockb.linkeval import (
    LINK_RATIOS,
    load_gold_links,
    recall_report,
    split,
    split_links,
)
from prockb.retrieval import Ranked
from prockb.videoretrieval import VIDEO_RATIOS


def links(n):
    return {f"s{i:05d}": f"g{i:05d}" for i in range(n)}


def ranked(goal_lists: dict) -> Ranked:
    """step_id -> goal ids, best first, as a Ranked (sim1 0)."""
    goals = list(goal_lists.values())
    return from_lists(goal_lists, goals, [[0.0] * len(g) for g in goals])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 300), ratios=st.sampled_from([LINK_RATIOS, VIDEO_RATIOS]),
       seed=st.integers(0, 2**32))
def test_split_floors_dev_and_test_and_partitions_its_input(n, ratios, seed):
    parts = split(list(range(n)), random.Random(seed), ratios)
    assert list(parts) == ["train", "dev", "test"]
    total = sum(ratios)
    n_dev, n_test = int(n * ratios[1] / total), int(n * ratios[2] / total)
    assert [len(part) for part in parts.values()] == [n - n_dev - n_test, n_dev, n_test]
    assert sorted(item for part in parts.values() for item in part) == list(range(n))
    assert split(list(range(n)), random.Random(seed), ratios) == parts


def test_split_sizes_ten():
    split = split_links(links(10))
    assert (len(split["train"]), len(split["dev"]), len(split["test"])) == (7, 2, 1)


def test_split_sizes_paper_scale():
    split = split_links(links(21_000))
    assert (len(split["train"]), len(split["dev"]), len(split["test"])) == (14_700, 4_200, 2_100)


def test_split_deterministic():
    a = split_links(links(100))
    b = split_links(links(100))
    assert a == b


def test_split_partition_property():
    data = links(53)
    split = split_links(data)
    parts = [split["train"], split["dev"], split["test"]]
    rejoined = [link for part in parts for link in part.items()]
    assert sorted(rejoined) == list(data.items())
    as_sets = [set(p) for p in parts]
    assert not (as_sets[0] & as_sets[1] or as_sets[0] & as_sets[2] or as_sets[1] & as_sets[2])


def test_split_too_small():
    with pytest.raises(DataError, match="cannot split"):
        split_links(links(2))


def test_recall_at_basic():
    rankings = ranked({
        "s1": ["gold1", "x", "y"],
        "s2": ["x", "y", "gold2"],
        "s3": ["x", "gold3", "y"],
        "s4": ["x", "y", "z"],  # gold at rank 50: never present
    })
    gold = {f"s{i}": f"gold{i}" for i in range(1, 5)}
    assert recall_report(rankings, gold, [1, 2, 3, 100]) == {1: 0.25, 2: 0.5, 3: 0.75, 100: 0.75}


def test_recall_all_present():
    rankings = ranked({"s1": ["a", "gold1"], "s2": ["gold2", "b"]})
    gold = {"s1": "gold1", "s2": "gold2"}
    assert recall_report(rankings, gold, [2]) == {2: 1.0}


def test_recall_non_decreasing_in_n():
    rankings = ranked({f"s{i}": [f"g{j}" for j in range(30)] for i in range(20)})
    gold = {f"s{i}": f"g{(i * 7) % 35}" for i in range(20)}
    report = recall_report(rankings, gold, ns=[1, 2, 5, 10, 20, 30])
    values = [report[n] for n in sorted(report)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_unlinkable_occupies_rank():
    rankings = ranked({"s1": ["UNLINKABLE", "gold1"]})
    gold = {"s1": "gold1"}
    assert recall_report(rankings, gold, [1, 2]) == {1: 0.0, 2: 1.0}


def test_recall_missing_ranking():
    with pytest.raises(KeyError, match="s9"):
        recall_report(ranked({"s1": ["g"]}), {"s9": "g"}, [1])


def test_gold_links_io(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("s1\tg1\ns4\tg2\n")
    assert list(load_gold_links(path).items()) == [("s1", "g1"), ("s4", "g2")]


def test_gold_links_reject_the_placeholder_as_a_goal(tmp_path):
    """UNLINKABLE is no goal, with or without a corpus to check goals against."""
    path = tmp_path / "gold.tsv"
    path.write_text("s1\tg2\ns4\tUNLINKABLE\n")
    for corpus in (None, make_corpus(two_article_records())):
        with pytest.raises(DataError) as info:
            load_gold_links(path, corpus)
        assert str(info.value) == (f"{path}: line 2: gold goal 'UNLINKABLE' is the "
                                   f"placeholder, not a goal")


def test_gold_links_malformed(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("s1\tg1\textra\n")
    with pytest.raises(DataError, match="line 1"):
        load_gold_links(path)


def test_reranked_recall_bounded_by_stage1_recall_at_k():
    # reranking only reorders the stage-1 candidates, so its recall@N can
    # never exceed stage-1 recall@k
    import numpy as np

    from conftest import identity_records
    from prockb.embedding import embed_corpus
    from conftest import score_list
    from prockb.rerank import LexicalFeatureSource, RerankModel
    from prockb.retrieval import build_index, retrieve_all

    records, gold = identity_records(25)
    corpus = make_corpus(records)
    store = embed_corpus(corpus, dim=16, seed=2)
    index = build_index(store, corpus.goal_ids())
    k = 8
    stage1 = retrieve_all(index, store, corpus.steps(), k=k)

    rng = np.random.default_rng(0)
    model = RerankModel(w=rng.normal(size=7), lam=0.2)  # arbitrary reranker
    reranked = score_list(model, stage1, LexicalFeatureSource(corpus))

    cap = recall_report(stage1, gold, [k])[k]
    assert all(recall <= cap for recall in recall_report(reranked, gold, [1, 2, 4, k]).values())

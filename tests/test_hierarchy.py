import json
import signal
import sys
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from conftest import columns, identity_records, make_corpus, read_links
from prockb import hierarchy
from prockb.corpus import UNLINKABLE
from prockb.embedding import EmbeddingStore, embed_corpus
from prockb.hierarchy import (
    LinkPipeline,
    decisions,
    expand,
    link_all,
    link_step,
    tree_to_dict,
    write_links,
)
from prockb.rerank import LexicalFeatureSource, RerankModel
from prockb.retrieval import build_index, read_candidates, write_candidates


def exact_match_model(dim=7, unlinkable=False):
    """Handcrafted reranker that trusts the exact-match lexical feature.

    With unlinkable on, the placeholder scores 2.0 while real candidates score
    1.0 + 10 * exact_match, so it wins exactly when nothing matches verbatim.
    """
    w = np.zeros(dim)
    w[5] = 10.0
    u = None
    if unlinkable:
        w[0] = 1.0
        u = np.zeros(dim)
        u[0] = 2.0
    return RerankModel(w=w, lam=0.0, unlinkable_feat=u)


def make_pipeline(records, model=None):
    corpus = make_corpus(records)
    store = embed_corpus(corpus, dim=16, seed=0)
    index = build_index(store, corpus.goal_ids())
    model = model if model is not None else exact_match_model()
    source = LexicalFeatureSource(corpus)
    return LinkPipeline(corpus=corpus, index=index, store=store, model=model, features=source)


def chain_records():
    return [
        {"id": "A", "title": "Assemble a Desk", "steps": [{"id": "A_s0", "text": "Sand the Boards"}]},
        {"id": "B", "title": "Sand the Boards", "steps": [{"id": "B_s0", "text": "Vacuum the Dust"}]},
        {"id": "C", "title": "Vacuum the Dust", "steps": [{"id": "C_s0", "text": "empty the bag"}]},
    ]


def cycle_records():
    return [
        {"id": "A", "title": "Paint the Fence", "steps": [{"id": "A_s0", "text": "Mix the Paint"}]},
        {"id": "B", "title": "Mix the Paint", "steps": [{"id": "B_s0", "text": "Paint the Fence"}]},
    ]


def test_link_step_exact_match():
    pipeline = make_pipeline(chain_records())
    decision = link_step(pipeline, "A_s0", {})
    assert decision.outcome == "B"
    assert decision.sim2 == 10.0  # the exact-match feature times its weight


def test_link_step_never_links_parent():
    # B_s0's text matches C exactly; parent B is excluded from its candidates
    pipeline = make_pipeline(chain_records())
    for step in pipeline.corpus.steps():
        decision = link_step(pipeline, step.step_id, {})
        assert decision.outcome != step.parent_goal_id


def test_link_step_unlinkable_argmax():
    # the placeholder's bias outscores every non-matching candidate
    model = exact_match_model(unlinkable=True)
    pipeline = make_pipeline(chain_records(), model=model)
    decision = link_step(pipeline, "C_s0", {})  # "empty the bag" matches no title
    assert decision.outcome == UNLINKABLE


def test_expand_depth_zero_is_bare_article():
    pipeline = make_pipeline(chain_records())
    tree = expand(pipeline, "A", max_depth=0)
    assert tree.root.goal_id == "A"
    assert [s.text for s in tree.root.steps] == ["Sand the Boards"]
    assert all(s.child is None and s.decision is None for s in tree.root.steps)


def test_expand_chain_two_levels():
    pipeline = make_pipeline(chain_records())
    tree = expand(pipeline, "A", max_depth=2)
    step_a = tree.root.steps[0]
    assert step_a.decision.outcome == "B"
    assert step_a.child.goal_id == "B"
    step_b = step_a.child.steps[0]
    assert step_b.child.goal_id == "C"
    leaf = step_b.child.steps[0]
    assert leaf.text == "empty the bag"
    assert leaf.child is None  # depth cap reached
    assert leaf.decision is None


def test_expand_respects_max_depth_everywhere():
    pipeline = make_pipeline(chain_records())
    tree = expand(pipeline, "A", max_depth=1)
    for goal in tree.goal_nodes():
        assert goal.depth <= 1
    assert tree.root.steps[0].child.steps[0].child is None


def test_expand_stops_at_the_first_level_without_goal_nodes():
    """An unbounded max_depth costs only the tree: A -> B -> C, whose step
    links back onto its path, stops growing after depth 2. The tree equals
    the one grown to one level past that, but for its max_depth."""
    pipeline = make_pipeline(chain_records())

    def timeout(signum, frame):
        raise TimeoutError("expand kept looping over empty levels")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        tree = expand(pipeline, "A", max_depth=sys.maxsize)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    deepest = max(goal.depth for goal in tree.goal_nodes())
    assert deepest == 2 and tree.max_depth == sys.maxsize
    grown, bounded = (tree_to_dict(t) for t in (tree, expand(pipeline, "A", deepest + 1)))
    assert grown.pop("max_depth") == sys.maxsize and bounded.pop("max_depth") == deepest + 1
    assert grown == bounded


def test_expand_suppresses_cycles():
    pipeline = make_pipeline(cycle_records())
    tree = expand(pipeline, "A", max_depth=5)
    step_a = tree.root.steps[0]
    assert step_a.child.goal_id == "B"
    back_edge = step_a.child.steps[0]
    assert back_edge.decision.outcome == "A"
    assert back_edge.suppressed_cycle
    assert back_edge.child is None


def test_expand_acyclic_paths():
    pipeline = make_pipeline(cycle_records())
    tree = expand(pipeline, "A", max_depth=9)

    def walk(goal, seen):
        assert goal.goal_id not in seen
        for step in goal.steps:
            if step.child is not None:
                walk(step.child, seen | {goal.goal_id})

    walk(tree.root, set())


def test_expanded_children_follow_article_order():
    records = chain_records()
    records[1]["steps"].append({"id": "B_s1", "text": "wipe it down"})
    pipeline = make_pipeline(records)
    tree = expand(pipeline, "A", max_depth=1)
    child = tree.root.steps[0].child
    article = pipeline.corpus.article(child.goal_id)
    assert [s.text for s in child.steps] == [s.text for s in article.steps]


def test_expand_deterministic_json():
    pipeline = make_pipeline(cycle_records())
    one = json.dumps(tree_to_dict(expand(pipeline, "A", max_depth=4)), sort_keys=True)
    two = json.dumps(tree_to_dict(expand(pipeline, "A", max_depth=4)), sort_keys=True)
    assert one == two


def test_config_hash_is_the_checkpoint_text_and_the_vectors():
    """Any change to a checkpoint line, or to the ids or values of the
    vectors stage 1 searches with, changes the hash; an equal model and
    equal vectors give the same one."""
    pipeline = make_pipeline(chain_records(), exact_match_model(unlinkable=True))
    model, store = pipeline.model, pipeline.store
    w = model.w.copy()
    w[1] = 0.5
    variants = [
        replace(model, w=w), replace(model, w=np.zeros(8)), replace(model, lam=0.5),
        replace(model, unlinkable_feat=model.unlinkable_feat + 1),
        replace(model, unlinkable_feat=None), replace(model, k=29),
        replace(model, features="0" * 64),
    ]
    hashes = {replace(pipeline, model=variant).config_hash() for variant in variants}
    # A store of one shape with other vectors, as two embeddings files may be.
    stores = [EmbeddingStore(store.ids, store.matrix[::-1].copy()),
              EmbeddingStore(store.ids[:-1], store.matrix[:-1]),
              EmbeddingStore(["X", *store.ids[1:]], store.matrix)]
    hashes |= {replace(pipeline, store=other).config_hash() for other in stores}
    assert len(hashes | {pipeline.config_hash()}) == len(variants) + len(stores) + 1
    same = replace(pipeline, model=replace(model, w=model.w.copy()),
                   store=EmbeddingStore(list(store.ids), store.matrix.copy()))
    assert same.config_hash() == pipeline.config_hash() == make_pipeline(
        chain_records(), exact_match_model(unlinkable=True)).config_hash()


def test_tree_json_shape():
    pipeline = make_pipeline(chain_records())
    payload = tree_to_dict(expand(pipeline, "A", max_depth=1))
    assert payload["tree"]["goal"] == "Assemble a Desk"
    step = payload["tree"]["steps"][0]
    assert step["link"] == "B"
    assert step["children"][0]["text"] == "Vacuum the Dust"
    assert step["children"][0]["link"] is None


def test_expand_validates_inputs():
    pipeline = make_pipeline(chain_records())
    with pytest.raises(ValueError, match="max_depth"):
        expand(pipeline, "A", max_depth=-1)
    with pytest.raises(KeyError, match="ghost"):
        expand(pipeline, "ghost", max_depth=1)


def test_link_dumps_round_trip(tmp_path):
    pipeline = make_pipeline(chain_records(), model=exact_match_model(unlinkable=True))
    ranked = link_all(pipeline)
    links_path = tmp_path / "links.tsv"
    write_links(links_path, ranked)
    loaded = read_links(links_path)
    assert loaded == {s: d.outcome for s, d in decisions(ranked).items()}

    rankings_path = tmp_path / "rankings.tsv"
    write_candidates(rankings_path, ranked)
    lines = rankings_path.read_text().strip().splitlines()
    assert len(lines) == len(ranked.goal_ids)
    first = lines[0].split("\t")
    assert first[0] == ranked.step_ids[0] and first[1] == "1" and len(first) == 5
    assert columns(read_candidates(rankings_path)) == columns(ranked)


def test_link_step_keeps_decisions_in_the_callers_dict():
    pipeline = make_pipeline(chain_records())
    decided = {}
    first = link_step(pipeline, "A_s0", decided)
    assert decided == {"A_s0": first}
    assert link_step(pipeline, "A_s0", decided) is first
    assert link_step(pipeline, "A_s0", {}) == first
    assert vars(pipeline).keys() == {"corpus", "index", "store", "model", "features"}
    with pytest.raises(AttributeError):
        pipeline.model = exact_match_model()


def test_batched_links_equal_one_step_at_a_time():
    records, _ = identity_records(30)  # 90 steps: several feature blocks
    model = replace(exact_match_model(unlinkable=True), k=5)
    batched = link_all(make_pipeline(records, model=model))
    for i, (step_id, decision) in enumerate(decisions(batched).items()):
        alone = make_pipeline(records, model=model)
        one = hierarchy.link_steps(alone, (step_id,))
        assert one.goal_ids == batched.goal_ids[batched.rows(i)]
        assert one.sim2.tobytes() == batched.sim2[batched.rows(i)].tobytes()
        assert link_step(alone, step_id, {}) == decision


def test_expand_links_each_level_in_one_batch(monkeypatch):
    records, _ = identity_records(6)
    pipeline = make_pipeline(records)
    calls = []
    link_steps = hierarchy.link_steps

    def record(pipeline, step_ids):
        calls.append(list(step_ids))
        return link_steps(pipeline, calls[-1])

    monkeypatch.setattr(hierarchy, "link_steps", record)
    tree = expand(pipeline, "a00", max_depth=2)
    levels: dict[int, list[str]] = {}
    for goal in sorted(tree.goal_nodes(), key=lambda g: g.depth):
        if goal.depth < 2:
            levels.setdefault(goal.depth, []).extend(s.step_id for s in goal.steps)
    assert levels[1] and calls == [levels[0], levels[1]]


def reference_walk(pipeline, root, max_depth):
    """expand's rules, walked breadth-first over `link`'s decisions of every
    step: (depth, step, link, sim1, sim2, suppressed_cycle) per step node."""
    decided = decisions(link_all(pipeline))
    rows, queue = [], deque([(root, 0, frozenset({root}))])
    while queue:
        goal, depth, path = queue.popleft()
        for step in pipeline.corpus.article(goal).steps:
            if depth == max_depth:
                rows.append((depth, step.step_id, None, None, None, False))
                continue
            decision = decided[step.step_id]
            cycle = decision.outcome in path
            rows.append((depth, step.step_id, *decision, cycle))
            if decision.outcome != UNLINKABLE and not cycle:
                queue.append((decision.outcome, depth + 1, path | {decision.outcome}))
    return rows


def tree_rows(tree):
    """The step nodes of `tree`, breadth-first, as `reference_walk` gives them."""
    rows, queue = [], deque([tree.root])
    while queue:
        goal = queue.popleft()
        for step in goal.steps:
            rows.append((step.depth, step.step_id, *(step.decision or (None,) * 3),
                         step.suppressed_cycle))
            if step.child is not None:
                queue.append(step.child)
    return rows


@pytest.mark.parametrize("records, model", [
    (chain_records(), exact_match_model()),
    (chain_records(), exact_match_model(unlinkable=True)),
    (identity_records(6)[0], exact_match_model()),
    (cycle_records(), exact_match_model()),
], ids=["chain", "chain-unlinkable", "identity", "cycle"])
def test_expand_agrees_with_link(records, model):
    pipeline = make_pipeline(records, model=model)
    for root in pipeline.corpus.goal_ids():
        for max_depth in range(4):
            tree = expand(pipeline, root, max_depth)
            assert tree_rows(tree) == reference_walk(pipeline, root, max_depth), (root, max_depth)

"""Link steps to goal articles and grow procedure trees.

A LinkPipeline bundles the stage-1 index, the reranker, and a feature source.
Linking a batch of steps is retrieve -> rerank, and each step's decision is
the first entry of its reranked list. Expansion replaces a linked step by the
linked article's steps, one tree level at a time, stopping at max_depth or
at the first level that adds no goal node, and refusing to revisit any goal
already on the root-to-node path so trees stay acyclic and finite.
"""

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .artifacts import write_columns, write_json
from .corpus import UNLINKABLE, Corpus
from .embedding import EmbeddingStore
from .rerank import FeatureSource, RerankModel, model_text, score_candidates
from .retrieval import Ranked, retrieve_all


@dataclass(frozen=True)
class LinkPipeline:
    """Everything one link decision depends on. It holds no decisions: a
    caller that reuses them, as `expand` does within a tree, keeps its own."""

    corpus: Corpus
    index: EmbeddingStore
    store: EmbeddingStore
    model: RerankModel
    features: FeatureSource

    def config_hash(self) -> str:
        """The hash of the model's checkpoint text and of the vectors stage 1
        searches with: the store's ids, one a line, and its matrix's bytes, as
        read from the embeddings file. The checkpoint names the pair-feature
        file the model was trained on, which `link` and `expand` are given with it."""
        digest = hashlib.sha256(model_text(self.model).encode("utf-8"))
        digest.update("".join(f"{i}\n" for i in self.store.ids).encode("utf-8"))
        digest.update(np.ascontiguousarray(self.store.matrix))  # its bytes, not copied
        return digest.hexdigest()[:16]


class LinkDecision(NamedTuple):
    """The first entry of a step's reranked list."""

    outcome: str  # the chosen goal_id, or UNLINKABLE
    sim1: float
    sim2: float


def decisions(ranked: Ranked) -> dict[str, LinkDecision]:
    """Each step's decision: the first entry of its reranked list."""
    first = ranked.offsets[:-1]
    return dict(zip(ranked.step_ids, map(
        LinkDecision, map(ranked.goal_ids.__getitem__, first.tolist()),
        ranked.sim1[first].tolist(), ranked.sim2[first].tolist())))


def link_steps(pipeline: LinkPipeline, step_ids: Iterable[str]) -> Ranked:
    """The reranked lists of `step_ids`, in one pass: retrieve each step's
    candidates as `retrieve` did for the model (its k), compute their pair
    features in one call, then rerank."""
    steps = [pipeline.corpus.step(step_id) for step_id in dict.fromkeys(step_ids)]
    candidates = retrieve_all(pipeline.index, pipeline.store, steps, pipeline.model.k)
    feats = pipeline.features.features(candidates.step_ids, candidates.goal_ids,
                                       candidates.offsets)
    return score_candidates(pipeline.model, candidates, feats)


def link_step(pipeline: LinkPipeline, step_id: str,
              decided: dict[str, LinkDecision]) -> LinkDecision:
    """The decision for one step: the one in `decided`, or else one made by
    `link_steps` and added to `decided`."""
    if step_id not in decided:
        decided.update(decisions(link_steps(pipeline, (step_id,))))
    return decided[step_id]


def link_all(pipeline: LinkPipeline) -> Ranked:
    """The reranked list of every corpus step, in corpus order."""
    return link_steps(pipeline, (step.step_id for step in pipeline.corpus.steps()))


def write_links(path: str | Path, ranked: Ranked) -> None:
    """Link dump TSV: step_id, outcome, sim1, sim2 of each reranked list's
    first entry, written column by column."""
    first = ranked.offsets[:-1]
    write_columns(path, len(ranked.step_ids), lambda rows: (
        ranked.step_ids[rows], map(ranked.goal_ids.__getitem__, first[rows].tolist()),
        ranked.sim1[first[rows]], ranked.sim2[first[rows]]))


# ---------------------------------------------------------------------------
# Trees

@dataclass
class StepNode:
    step_id: str
    text: str
    depth: int
    decision: LinkDecision | None = None
    child: "GoalNode | None" = None
    suppressed_cycle: bool = False


@dataclass
class GoalNode:
    goal_id: str
    title: str
    depth: int
    steps: list[StepNode] = field(default_factory=list)


@dataclass
class ProcedureTree:
    root: GoalNode
    max_depth: int
    config_hash: str

    def goal_nodes(self) -> Iterator[GoalNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for step in node.steps:
                if step.child is not None:
                    stack.append(step.child)


def expand(pipeline: LinkPipeline, root_goal_id: str, max_depth: int) -> ProcedureTree:
    """Grow a procedure tree from one root article, one level at a time.

    A step is expanded iff it links to a goal, that goal is not already on
    the path from the root, and the step sits above max_depth. Unlinkable
    steps and suppressed cycles stay leaves. max_depth=0 returns the bare
    depth-one article. Growth stops at max_depth or at the first level that
    adds no goal node, whichever comes first. Each level's undecided steps
    are linked in one batch, and a step met again reuses its decision.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    corpus = pipeline.corpus
    root = GoalNode(goal_id=root_goal_id, title=corpus.article(root_goal_id).title, depth=0)
    decided: dict[str, LinkDecision] = {}
    level = [(root, frozenset({root_goal_id}))]  # goal nodes, each with its path's goals
    for depth in range(max_depth + 1):
        if not level:  # the last level added no goal node
            break
        for node, _ in level:
            node.steps = [StepNode(step_id=step.step_id, text=step.text, depth=depth)
                          for step in corpus.article(node.goal_id).steps]
        if depth == max_depth:
            break
        todo = [step.step_id for node, _ in level for step in node.steps
                if step.step_id not in decided]
        if todo:
            decided.update(decisions(link_steps(pipeline, todo)))
        level, parents = [], level
        for node, path_goals in parents:
            for step in node.steps:
                decision = step.decision = link_step(pipeline, step.step_id, decided)
                if decision.outcome == UNLINKABLE:
                    continue
                if decision.outcome in path_goals:
                    step.suppressed_cycle = True
                    continue
                target = corpus.article(decision.outcome)
                step.child = GoalNode(goal_id=target.goal_id, title=target.title, depth=depth + 1)
                level.append((step.child, path_goals | {target.goal_id}))

    return ProcedureTree(root=root, max_depth=max_depth, config_hash=pipeline.config_hash())


def tree_to_dict(tree: ProcedureTree) -> dict:
    def step_dict(step: StepNode) -> dict:
        out: dict = {
            "step_id": step.step_id,
            "text": step.text,
            "link": step.decision.outcome if step.decision else None,
            "children": [step_dict(s) for s in step.child.steps] if step.child else [],
        }
        if step.decision:
            out["sim1"] = step.decision.sim1
            out["sim2"] = step.decision.sim2
        if step.suppressed_cycle:
            out["suppressed_cycle"] = True
        return out

    def goal_dict(goal: GoalNode) -> dict:
        return {
            "goal_id": goal.goal_id,
            "goal": goal.title,
            "steps": [step_dict(s) for s in goal.steps],
        }

    return {
        "max_depth": tree.max_depth,
        "config_hash": tree.config_hash,
        "tree": goal_dict(tree.root),
    }


def write_tree(tree: ProcedureTree, path: str | Path) -> None:
    write_json(path, tree_to_dict(tree))

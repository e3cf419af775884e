"""Intrinsic evaluation: gold hyperlink splits and recall@N.

Gold data is a TSV of annotated step -> goal links. Precision is not
measured: every step has exactly one gold goal, so recall@N over ranked
candidate lists is the whole story.
"""

import random
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

from .artifacts import check_rows, fail, tab_rows
from .corpus import UNLINKABLE, Corpus
from .errors import DataError
from .retrieval import Ranked

LINK_RATIOS = (7, 2, 1)
# Every split's seed, so every command cuts the gold links and videos alike.
SPLIT_SEED = 0


def split(items: list, rng: random.Random, ratios: Sequence[float]) -> dict[str, list]:
    """Shuffle `items` in place with `rng` and cut them, in that order, into
    train, dev and test under the three ratios: dev and test sizes are
    rounded down, and train takes the rest."""
    total = sum(ratios)
    n_dev = int(len(items) * ratios[1] / total)
    n_test = int(len(items) * ratios[2] / total)
    n_train = len(items) - n_dev - n_test
    rng.shuffle(items)
    return {
        "train": items[:n_train],
        "dev": items[n_train : n_train + n_dev],
        "test": items[n_train + n_dev :],
    }


def load_gold_links(path: str | Path, corpus: Corpus | None = None) -> dict[str, str]:
    """step_id -> gold goal_id from TSV rows ``step_id<TAB>gold_goal_id``;
    each step appears once, and its goal is never the placeholder
    UNLINKABLE. Given `corpus`, each step and goal must be one of its own;
    the first faulty line is reported."""
    gold = {}
    for lineno, (step_id, goal_id) in tab_rows(path, 2, exact=True, unique="step"):
        if goal_id == UNLINKABLE:
            raise fail(path, lineno, f"gold goal {UNLINKABLE!r} is the placeholder, not a goal")
        if corpus is not None:
            check_rows(path, (lineno,), [corpus.unknown("step_id", (step_id,)),
                                         corpus.unknown("goal_id", (goal_id,))])
        gold[step_id] = goal_id
    return gold


def check_ranked(rankings: Ranked, gold: Mapping[str, str], path, rankings_path) -> None:
    """Raise DataError at the line of the gold file `path` of the first gold
    step, in file order, that has no ranking in `rankings` (read from
    `rankings_path`). The file is read again only to find that line."""
    ranked = set(rankings.step_ids)
    if ranked.issuperset(gold):
        return
    for lineno, (step_id, _) in tab_rows(path, 2, exact=True):
        if step_id in gold and step_id not in ranked:
            raise fail(path, lineno, f"no ranking for gold step {step_id!r} in {rankings_path}")


def split_links(gold: Mapping[str, str]) -> dict[str, dict[str, str]]:
    """The gold links cut 7:2:1 by `split` under SPLIT_SEED, as part -> step -> goal."""
    if len(gold) < len(LINK_RATIOS):
        raise DataError(f"cannot split {len(gold)} links into {len(LINK_RATIOS)} parts")
    parts = split(list(gold), random.Random(SPLIT_SEED), LINK_RATIOS)
    return {name: {step_id: gold[step_id] for step_id in steps} for name, steps in parts.items()}


def recall_report(rankings: Ranked, gold: Mapping[str, str], ns: Sequence[int]) -> dict[int, float]:
    """recall@n for each n of `ns`: the fraction of gold steps whose goal is
    in the top n of its ranking, at its first position there
    (`Ranked.gold_slots`). Placeholder (UNLINKABLE) entries occupy rank
    positions and never match. The denominator is every evaluated step."""
    if any(n < 1 for n in ns):
        raise ValueError(f"n must be >= 1, got {min(ns)}")
    if not gold:
        raise ValueError("no gold links to evaluate")
    missing = set(gold).difference(rankings.step_ids)
    if missing:
        raise KeyError(f"no ranking for gold step {next(s for s in gold if s in missing)!r}")
    slots = rankings.gold_slots(gold)  # one list per step; -1 for a step with no gold
    found = slots[slots >= 0]
    return {n: int(np.count_nonzero(found < n)) / len(gold) for n in ns}

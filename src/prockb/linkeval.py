"""Intrinsic evaluation: gold hyperlink splits and recall@N.

Gold data is a TSV of annotated step -> goal links. Precision is not
measured: every step has exactly one gold goal, so recall@N over ranked
candidate lists is the whole story.
"""

import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .artifacts import tab_rows
from .corpus import Corpus
from .errors import DataError
from .retrieval import Ranked

logger = logging.getLogger(__name__)

DEFAULT_RATIOS = (7, 2, 1)


@dataclass(frozen=True)
class GoldLink:
    step_id: str
    gold_goal_id: str


@dataclass
class Split:
    train: list[GoldLink]
    dev: list[GoldLink]
    test: list[GoldLink]

    def part(self, name: str) -> list[GoldLink]:
        try:
            return {"train": self.train, "dev": self.dev, "test": self.test}[name]
        except KeyError:
            raise ValueError(f"unknown split part {name!r}") from None


def load_gold_links(path: str | Path, corpus: Corpus | None = None) -> list[GoldLink]:
    """Read TSV rows ``step_id<TAB>gold_goal_id``, one per step.

    With a corpus, links whose step or goal does not resolve are dropped with
    a warning; they can never be retrieved.
    """
    links, dropped = [], 0
    for _, (step_id, goal_id) in tab_rows(path, 2, exact=True, unique="step"):
        if corpus is not None:
            try:
                corpus.step(step_id)
                corpus.article(goal_id)
            except KeyError:
                dropped += 1
                continue
        links.append(GoldLink(step_id=step_id, gold_goal_id=goal_id))
    if dropped:
        logger.warning("dropped %d gold links that do not resolve in the corpus", dropped)
    return links


def split_sizes(n: int, ratios: Sequence[float]) -> tuple[int, int, int]:
    """Train, dev and test sizes of n items under three positive ratios: dev
    and test are rounded down, and train takes the rest."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be 3 positive numbers, got {ratios}")
    total = sum(ratios)
    n_dev = int(n * ratios[1] / total)
    n_test = int(n * ratios[2] / total)
    return n - n_dev - n_test, n_dev, n_test


def split_links(
    links: Sequence[GoldLink],
    ratios: tuple[float, ...] = DEFAULT_RATIOS,
    seed: int = 0,
) -> Split:
    """Deterministic shuffle then contiguous train/dev/test partition, sized
    by `split_sizes`."""
    n_train, n_dev, _ = split_sizes(len(links), ratios)
    if len(links) < len(ratios):
        raise DataError(f"cannot split {len(links)} links into {len(ratios)} parts")
    shuffled = list(links)
    random.Random(seed).shuffle(shuffled)
    return Split(
        train=shuffled[:n_train],
        dev=shuffled[n_train : n_train + n_dev],
        test=shuffled[n_train + n_dev :],
    )


def recall_at(rankings: Ranked, gold: Iterable[GoldLink], n: int) -> float:
    """Fraction of gold steps whose goal appears in the top n of its ranking.

    Placeholder (UNLINKABLE) entries simply occupy rank positions and never
    match. The denominator is every evaluated step.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    position = {step_id: i for i, step_id in enumerate(rankings.step_ids)}
    hits = 0
    total = 0
    for link in gold:
        try:
            rows = rankings.rows(position[link.step_id])
        except KeyError:
            raise KeyError(f"no ranking for gold step {link.step_id!r}") from None
        total += 1
        if link.gold_goal_id in rankings.goal_ids[rows.start : min(rows.stop, rows.start + n)]:
            hits += 1
    if total == 0:
        raise ValueError("no gold links to evaluate")
    return hits / total


def recall_report(
    rankings: Ranked, gold: Iterable[GoldLink], ns: Sequence[int]
) -> dict[int, float]:
    gold = list(gold)
    return {n: recall_at(rankings, gold, n) for n in ns}

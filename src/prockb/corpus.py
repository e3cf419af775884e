"""Procedure corpus: goal articles with ordered steps, read from JSONL.

One article per line: ``{"id": ..., "title": ..., "steps": [{"id": ..., "text": ...}, ...]}``.
Titles are the goals; steps are the goal's children, in article order. All text
is NFC-normalized with internal whitespace collapsed; case is preserved. A
corpus is immutable once loaded.
"""

import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .artifacts import json_lines
from .errors import DataError

UNLINKABLE = "UNLINKABLE"  # the goal of a step that links to no goal
# Ids no corpus may use: a goal id UNLINKABLE would make link dumps ambiguous.
RESERVED_IDS = frozenset({UNLINKABLE})


def normalize_text(text: str) -> str:
    """NFC-normalize and collapse whitespace runs."""
    return " ".join(unicodedata.normalize("NFC", text).split())


@dataclass(frozen=True)
class Step:
    step_id: str
    text: str
    parent_goal_id: str
    position: int


@dataclass(frozen=True)
class Article:
    goal_id: str
    title: str
    steps: tuple[Step, ...]


@dataclass
class Corpus:
    articles: tuple[Article, ...]
    _by_goal: dict[str, Article] = field(repr=False, compare=False)
    _by_step: dict[str, Step] = field(repr=False, compare=False)
    source: str | Path | None = field(default=None, compare=False)  # the file it was read from

    @property
    def n_goals(self) -> int:
        return len(self.articles)

    @property
    def n_steps(self) -> int:
        return len(self._by_step)

    def goal_ids(self) -> list[str]:
        return [a.goal_id for a in self.articles]

    def article(self, goal_id: str) -> Article:
        return self._by_goal[goal_id]

    def step(self, step_id: str) -> Step:
        return self._by_step[step_id]

    def steps(self) -> Iterator[Step]:
        for article in self.articles:
            yield from article.steps

    def __contains__(self, goal_id: str) -> bool:
        return goal_id in self._by_goal

    def unknown(self, kind: str, ids: Sequence[str]) -> tuple[np.ndarray | None, Callable[[int], str]]:
        """The `artifacts.check_rows` check that each of `ids` is a step
        (`kind` "step_id") or a goal ("goal_id") of this corpus: the mask of
        those that are not, None if all are, and row i's message, which names
        the corpus file. Every input read against a corpus uses it."""
        known = self._by_step if kind == "step_id" else self._by_goal
        mask = None
        if not known.keys() >= set(ids):
            mask = ~np.fromiter(map(known.__contains__, ids), bool, len(ids))
        where = "" if self.source is None else f" in {self.source}"
        return mask, lambda i: f"unknown {kind} {ids[i]!r}{where}"


def corpus_from_records(records: Iterable[dict], source=None) -> Corpus:
    """Assemble and validate a Corpus from article dicts.

    Each record needs ``id``, ``title`` and a non-empty ``steps`` list of
    ``{"id", "text"}`` dicts; ids are strings or integers, titles and texts
    strings. Raises DataError on no records, duplicate ids, empty titles or
    step texts (after normalization), or malformed records; its message
    starts with `source`, when given, which the corpus keeps.
    """
    articles: list[Article] = []
    by_goal: dict[str, Article] = {}
    by_step: dict[str, Step] = {}
    prefix = f"{source}: " if source is not None else ""

    for number, rec in enumerate(records, 1):
        where = f"{prefix}record {number}"
        if not isinstance(rec, dict):
            raise DataError(f"{where}: expected an object, got {type(rec).__name__}")
        try:
            goal_id = _as_id(rec["id"], where)
            title = normalize_text(json_text(rec["title"], f"{where}: title"))
            raw_steps = rec["steps"]
        except KeyError as exc:
            raise DataError(f"{where}: missing field {exc.args[0]!r}") from None
        if not title:
            raise DataError(f"{where}: empty title for goal_id {goal_id!r}")
        if goal_id in by_goal:
            raise DataError(f"{where}: duplicate goal_id {goal_id!r}")
        if not isinstance(raw_steps, list) or not raw_steps:
            raise DataError(f"{where}: article {goal_id!r} has an empty step list")

        steps = []
        for pos, raw in enumerate(raw_steps):
            if not isinstance(raw, dict):
                raise DataError(f"{where}: step {pos} of {goal_id!r} is not an object")
            try:
                step_id = _as_id(raw["id"], where)
                text = normalize_text(json_text(raw["text"], f"{where}: text of step {step_id!r}"))
            except KeyError as exc:
                raise DataError(
                    f"{where}: step {pos} of {goal_id!r} missing field {exc.args[0]!r}"
                ) from None
            if not text:
                raise DataError(f"{where}: step {step_id!r} is empty after normalization")
            if step_id in by_step:
                raise DataError(f"{where}: duplicate step_id {step_id!r}")
            step = Step(step_id=step_id, text=text, parent_goal_id=goal_id, position=pos)
            by_step[step_id] = step
            steps.append(step)

        article = Article(goal_id=goal_id, title=title, steps=tuple(steps))
        by_goal[goal_id] = article
        articles.append(article)

    if not articles:
        raise DataError(f"{prefix}no articles")
    # Goal and step vectors share one id namespace downstream.
    overlap = by_goal.keys() & by_step.keys()
    if overlap:
        raise DataError(f"{prefix}ids used as both goal_id and step_id: {sorted(overlap)[:5]}")

    return Corpus(articles=tuple(articles), _by_goal=by_goal, _by_step=by_step, source=source)


def json_id(value, what: str) -> str:
    """The text of `value`, a JSON id: a string or an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DataError(f"{what} must be a string or integer, got {value!r}")
    return json_text(str(value), what)


def json_text(value, what: str) -> str:
    """`value`, a JSON text, which must be a string that UTF-8 can write: a
    lone surrogate escape such as "\\ud800" is rejected, an escaped pair
    such as "\\ud83d\\ude00" reads as its one character."""
    if not isinstance(value, str):
        raise DataError(f"{what} must be a string, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"{what}: lone surrogate {value[exc.start]!r} in {value!r}") from None
    return value


def _as_id(value, where: str) -> str:
    out = json_id(value, f"{where}: id")
    if not out:
        raise DataError(f"{where}: empty id")
    if out in RESERVED_IDS:
        raise DataError(f"{where}: id {out!r} is reserved")
    if any(ch.isspace() for ch in out):
        raise DataError(f"{where}: id {out!r} contains whitespace")
    return out


def load_corpus(path: str | Path) -> Corpus:
    """Load a JSONL corpus file. Errors name the path and the line or record."""
    records = (record for _, record in json_lines(path))
    return corpus_from_records(records, source=path)


def context_of(corpus: Corpus, step_id: str) -> tuple[str, ...]:
    """A step's context: its article's title, then the steps just before and
    after it, where the article has them."""
    step = corpus.step(step_id)
    article = corpus.article(step.parent_goal_id)
    around = article.steps[max(0, step.position - 1) : step.position + 2]
    return (article.title, *(s.text for s in around if s is not step))


def validation_report(corpus: Corpus) -> str:
    """Line-oriented summary of corpus shape, for eyeballing a load."""
    sizes = [len(a.steps) for a in corpus.articles]
    titles = [a.title for a in corpus.articles]
    lines = [
        f"articles\t{corpus.n_goals}",
        f"steps\t{corpus.n_steps}",
        f"min_steps_per_article\t{min(sizes)}",
        f"max_steps_per_article\t{max(sizes)}",
        f"duplicate_titles\t{len(titles) - len(set(titles))}",
    ]
    return "\n".join(lines) + "\n"

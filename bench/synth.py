"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of (seed, sizes): the same seed writes
byte-identical files. The program under test only ever sees the files.

A corpus is a set of how-to articles over a fixed pseudo-word vocabulary drawn
with Zipf-like frequencies, so common words are shared across many titles and
IDF matters. The seed picks the articles, not the language, and every corpus
of a given size has the same shape: article i has 5 + i % 5 steps, and
LINKS_PER_ARTICLE of them are *planted links*, noisy paraphrases of another
article's title (word drops, substitutions, insertions and shuffles,
lowercased as steps are) with that article recorded as the gold goal. So the
work a chain does varies little from seed to seed, and the noise keeps link
recall clearly below 1.

Videos are caption documents for a subset of goals. Each caption mixes words
of the goal title, of the goal's own steps, of the steps of the articles its
planted links point to (what FIL_L2 can add to a query), and background words.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

ONSETS = "b c d f g h j k l m n p r s t v w z br cl dr fl gr pl st tr".split()
VOWELS = "a e i o u ai ea oo".split()
CODAS = ["", "", "n", "r", "s", "t", "l", "m"]


VOCAB_SEED = "prockb-bench-vocabulary"
VOCAB_SIZE = 2500
N_VERBS = 120
LINKS_PER_ARTICLE = 2
CAPTION_WORDS = (18, 34)


@dataclass(frozen=True)
class CorpusSpec:
    articles: int


@dataclass(frozen=True)
class VideoSpec:
    goals: int
    per_goal: int = 40


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        syllables = rng.choice((2, 2, 3))
        word = "".join(
            rng.choice(ONSETS) + rng.choice(VOWELS) + rng.choice(CODAS) for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Sampler:
    """Zipf-like word draws: weight of the i-th word is 1 / (i + 8)."""

    def __init__(self, rng: random.Random, words: list[str]):
        self.rng = rng
        self.words = words
        total = 0.0
        self.cum = []
        for i in range(len(words)):
            total += 1.0 / (i + 8)
            self.cum.append(total)

    def draw(self, n: int) -> list[str]:
        return self.rng.choices(self.words, cum_weights=self.cum, k=n)


def paraphrase(rng: random.Random, title: str, sampler: _Sampler) -> str:
    """A noisy lowercase paraphrase of a title, in the style of a how-to step."""
    words = title.lower().split()
    if len(words) > 2 and rng.random() < 0.5:
        del words[rng.randrange(1, len(words))]
    for i in range(len(words)):
        if rng.random() < 0.2:
            words[i] = sampler.draw(1)[0]
    for _ in range(rng.choice((0, 0, 1, 2))):
        words.insert(rng.randrange(len(words) + 1), sampler.draw(1)[0])
    if rng.random() < 0.3:
        i = rng.randrange(len(words))
        j = rng.randrange(len(words))
        words[i], words[j] = words[j], words[i]
    return " ".join(words)


@dataclass
class Corpus:
    records: list[dict]
    gold: list[tuple[str, str]]  # (step_id, goal_id), in corpus order


def make_corpus(seed: int, spec: CorpusSpec) -> Corpus:
    vocab = _vocabulary(random.Random(VOCAB_SEED), VOCAB_SIZE)
    rng = random.Random(f"corpus:{seed}")
    verbs, nouns = vocab[:N_VERBS], vocab[N_VERBS:]
    verb_sampler = _Sampler(rng, verbs)
    noun_sampler = _Sampler(rng, nouns)

    titles = []
    seen = set()
    while len(titles) < spec.articles:
        words = verb_sampler.draw(1) + noun_sampler.draw(rng.randint(2, 4))
        title = " ".join(w.capitalize() for w in words)
        if title not in seen:
            seen.add(title)
            titles.append(title)

    records, gold = [], []
    for a, title in enumerate(titles):
        goal_id = f"g{a:05d}"
        topic = noun_sampler.draw(6)
        n_steps = 5 + a % 5
        planted = set(rng.sample(range(n_steps), LINKS_PER_ARTICLE))
        steps = []
        for s in range(n_steps):
            step_id = f"{goal_id}s{s}"
            if s in planted:
                target = rng.randrange(spec.articles - 1)
                target += target >= a  # never the step's own article
                text = paraphrase(rng, titles[target], noun_sampler)
                gold.append((step_id, f"g{target:05d}"))
            else:
                n_words = rng.randint(2, 6)
                body = [rng.choice(topic) if rng.random() < 0.4 else w
                        for w in noun_sampler.draw(n_words)]
                text = " ".join(verb_sampler.draw(1) + body)
            steps.append({"id": step_id, "text": text})
        records.append({"id": goal_id, "title": title, "steps": steps})
    return Corpus(records=records, gold=gold)


def make_videos(seed: int, corpus: Corpus, spec: VideoSpec) -> list[dict]:
    """Caption documents for the first `spec.goals` articles."""
    rng = random.Random(f"videos:{seed}")
    links = dict(corpus.gold)
    by_goal = {rec["id"]: rec for rec in corpus.records}
    background = sorted({w for rec in corpus.records for s in rec["steps"] for w in s["text"].split()})
    sampler = _Sampler(rng, background)
    videos = []
    for rec in corpus.records[: spec.goals]:
        title_words = rec["title"].lower().split()
        own = [w for s in rec["steps"] for w in s["text"].split()]
        linked = [
            w
            for s in rec["steps"]
            if s["id"] in links
            for t in by_goal[links[s["id"]]]["steps"]
            for w in t["text"].split()
        ]
        for v in range(spec.per_goal):
            words = []
            for _ in range(rng.randint(*CAPTION_WORDS)):
                u = rng.random()
                if u < 0.10:
                    words.append(rng.choice(title_words))
                elif u < 0.30:
                    words.append(rng.choice(own))
                elif u < 0.42 and linked:
                    words.append(rng.choice(linked))
                else:
                    words.append(sampler.draw(1)[0])
            videos.append({"video_id": f"v{rec['id']}_{v:02d}", "goal_id": rec["id"],
                           "caption": " ".join(words)})
    return videos


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(json.dumps(rec, sort_keys=True) + "\n")


def _write_pairs(path: Path, pairs: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for step_id, goal_id in pairs:
            handle.write(f"{step_id}\t{goal_id}\n")


def write_inputs(
    out_dir: Path, seed: int, corpus_spec: CorpusSpec, video_spec: VideoSpec | None = None
) -> dict[str, str]:
    """Write corpus.jsonl and gold.tsv, plus videos.jsonl and links.tsv (the
    FIL_L2 step -> goal link file, made from the planted gold) when videos are
    asked for. Returns {file name: sha256} of what was written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = make_corpus(seed, corpus_spec)
    _write_jsonl(out_dir / "corpus.jsonl", corpus.records)
    _write_pairs(out_dir / "gold.tsv", corpus.gold)
    names = ["corpus.jsonl", "gold.tsv"]
    if video_spec is not None:
        _write_jsonl(out_dir / "videos.jsonl", make_videos(seed, corpus, video_spec))
        _write_pairs(out_dir / "links.tsv", corpus.gold)
        names += ["videos.jsonl", "links.tsv"]
    return {name: sha256_file(out_dir / name) for name in names}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()

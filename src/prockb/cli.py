"""Batch front door: reproducible pipeline runs over files.

Every subcommand reads declared inputs, writes its artifacts plus a
manifest.json (config hash, input digests, package version) into --out-dir,
and never mutates inputs. A subcommand names all its artifacts in one
`_output` call; `main` writes the manifest from those names and from the
flags of type `Infile`. Each input is checked where it is read. Exit codes:
0 ok, 1 `UsageError`, 2 `DataError` (bad input), 3 any other exception.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import check_rows, read_json, read_text, sha256, tab_rows, write_json, write_rows
from .corpus import UNLINKABLE, load_corpus, validation_report
from .embedding import MIN_DIM, embed_corpus, load_embeddings, save_embeddings
from .errors import DataError
from .hierarchy import LinkPipeline, expand, link_all, write_links, write_tree
from .linkeval import check_ranked, load_gold_links, recall_report, split_links
from .rerank import (
    LexicalFeatureSource,
    load_feature_file,
    load_model,
    make_training_examples,
    new_model,
    save_model,
    train,
)
from .retrieval import DEFAULT_K, build_index, read_candidates, retrieve_all, write_candidates
from .textsearch import DEFAULT_B, DEFAULT_K1, TextIndex
from .videoretrieval import (
    COST_KINDS,
    DEFAULT_CAP,
    FIL_L1,
    FIL_L2,
    L0,
    L1,
    ClauseScorer,
    build_video_index,
    filter_steps,
    load_videos,
    make_query,
    rank_videos,
    read_queries,
    split_videos,
    vr_metrics,
    write_queries,
)


class UsageError(Exception):
    pass


def _checked(parse, bound: str, holds):
    """The argparse type of a flag: its value by `parse`, which must be
    `bound` (`holds` tests it); argparse names the flag in either error."""
    def check(text: str):
        value = parse(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value!r}")
        return value
    check.__name__ = parse.__name__  # so a bad int reads "invalid int value: 'x'"
    return check


def _at_least(least: int):
    return _checked(int, f">= {least}", lambda value: value >= least)


_POSITIVE = _checked(float, "a finite number > 0", lambda value: math.isfinite(value) and value > 0)
_UNIT = _checked(float, "in [0, 1]", lambda value: 0 <= value <= 1)
# The manifest records every flag but --out-dir; a non-UTF-8 argv byte is a lone surrogate.
_TEXT = _checked(str, "valid UTF-8", lambda text: text.encode("utf-8", "replace").decode() == text)


class Infile(str):
    """The argparse type of a flag that names an input file; `main` lists
    every file given by such a flag in the manifest's inputs."""
    def __new__(cls, path: str):
        return super().__new__(cls, _TEXT(path))


class Ns(str):
    """The argparse type of --ns: comma-separated integers >= 1, each given
    once. The text is kept as given, for the manifest; `ns` is the list."""
    def __new__(cls, text: str):
        self = super().__new__(cls, text)
        try:
            self.ns = [int(n) for n in text.split(",") if n.strip()]
        except ValueError:
            self.ns = []
        if not self.ns or min(self.ns) < 1 or len(set(self.ns)) < len(self.ns):
            raise argparse.ArgumentTypeError(
                f"must be comma-separated integers >= 1, each given once, got {text!r}")
        return self


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _output(args, *names: str) -> list[Path]:
    """The paths in --out-dir of all the command's artifacts `names`, which
    `main` lists in the manifest's outputs. A command calls this once, after
    it has read and checked its inputs, so a failed run leaves no --out-dir
    behind. An artifact that would overwrite an input is a usage error, found
    before --out-dir is made or cleared of an earlier run's artifacts, and so
    is an --out-dir that cannot be made, such as a file or a path under one."""
    out_dir = Path(args.out_dir)
    paths = [out_dir / name for name in names]
    for path in paths:
        clash = next((i for i in args._inputs if Path(i).resolve() == path.resolve()), None)
        if clash is not None:
            raise UsageError(f"artifact {path} would overwrite the input {clash}")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out-dir {out_dir}: cannot make the directory: "
                         f"{exc.strerror}") from None
    _clear(out_dir, args._inputs)
    args._outputs = list(names)
    return paths


def _clear(out_dir: Path, inputs: list[str]) -> None:
    """Delete the files that the manifest in `out_dir`, if any, names as
    outputs, except this run's `inputs` and the manifest, then the manifest.
    Only bare file names are deleted, so nothing outside `out_dir` is touched."""
    manifest = out_dir / "manifest.json"
    if not manifest.is_file():
        return
    outputs = read_json(manifest)
    outputs = outputs.get("outputs") if isinstance(outputs, dict) else None
    keep = {Path(name).resolve() for name in inputs}
    for name in outputs if isinstance(outputs, list) else []:
        path = out_dir / str(name)
        if path.name == name != manifest.name and path.is_file() and path.resolve() not in keep:
            path.unlink()
    manifest.unlink()


def _write_manifest(args) -> None:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out_dir") and not k.startswith("_")
    }
    write_json(Path(args.out_dir) / "manifest.json", {
        "command": args.command,
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "inputs": {name: sha256(name) for name in args._inputs},
        "outputs": sorted(args._outputs),
        "version": __version__,
    })


# ---------------------------------------------------------------------------
# Subcommands

def _stage1(args):
    """The --corpus, its vectors from --embeddings, which must hold all of its
    goals and steps, and the goal index that `retrieve`, `link` and `expand` search."""
    corpus = load_corpus(args.corpus)
    if len(corpus.articles) == 1:
        raise DataError(f"--corpus {args.corpus}: one article, so its steps have no "
                        f"other goal to link to")
    store = load_embeddings(args.embeddings)
    ids = corpus.goal_ids() + [step.step_id for step in corpus.steps()]
    missing = next((i for i in ids if i not in store), None)
    if missing is not None:
        raise DataError(f"{args.embeddings}: no embedding for corpus id {missing!r}")
    return corpus, store, build_index(store, corpus.goal_ids())


def cmd_build_index(args) -> None:
    corpus = load_corpus(args.corpus)
    store = embed_corpus(corpus, dim=args.dim, seed=args.seed, lowercase=args.lowercase)
    embeddings, report = _output(args, "embeddings.txt", "corpus_report.txt")
    save_embeddings(store, embeddings)
    report.write_text(validation_report(corpus), encoding="utf-8")


def cmd_retrieve(args) -> None:
    corpus, store, index = _stage1(args)
    ranked = retrieve_all(index, store, corpus.steps(), args.k)
    write_candidates(_output(args, "candidates.tsv")[0], ranked)


def _split(args, gold: dict[str, str]) -> dict[str, dict[str, str]]:
    try:
        return split_links(gold)
    except DataError as exc:  # too few links
        raise DataError(f"--gold {args.gold}: {exc}") from None


def cmd_train_reranker(args) -> None:
    corpus = load_corpus(args.corpus)
    candidates = read_candidates(args.candidates, corpus)
    split = _split(args, load_gold_links(args.gold, corpus))

    source = load_feature_file(args.features) if args.features else LexicalFeatureSource(corpus)
    train_examples = make_training_examples(candidates, split["train"], unlinkable=args.unlinkable)
    dev_examples = make_training_examples(candidates, split["dev"], unlinkable=args.unlinkable)
    if not train_examples[1]:
        raise DataError(f"no training examples: no gold step of the train split of --gold "
                        f"{args.gold} has retrieved candidates in --candidates {args.candidates}")

    model = replace(new_model(source.dim, unlinkable=args.unlinkable),
                    k=int(np.diff(candidates.offsets).max()),  # as retrieve clamped it, for link
                    features=sha256(args.features) if args.features else None)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = train(
                model,
                train_examples,
                source,
                lr=args.lr,
                epochs=args.epochs,
                batch_size=args.batch,
                seed=args.seed,
                dev_examples=dev_examples,
            )
    except RuntimeError as exc:
        raise DataError(f"--lr {args.lr!r}: {exc}") from None
    model_path, curve_path = _output(args, "model.txt", "loss_curve.tsv")
    save_model(result.model, model_path)
    write_rows(curve_path, [("epoch", "train_loss", "dev_loss")] + [
        (row.epoch, row.train_loss, "" if row.dev_loss is None else row.dev_loss)
        for row in result.curve
    ])


def _pipeline(args) -> LinkPipeline:
    """The pipeline `link` and `expand` run. --features must be the file
    whose sha256 the --model checkpoint names, and is not given for a model
    trained on lexical features; this is checked before the file is parsed."""
    corpus, store, index = _stage1(args)
    model = load_model(args.model)
    digest = sha256(args.features) if args.features else None
    if digest != model.features:
        trained = (f"the --features file of sha256 {model.features}" if model.features
                   else "lexical features")
        given = (f"--features {args.features} (sha256 {digest})" if digest
                 else "lexical features (no --features given)")
        raise DataError(f"--model {args.model} was trained on {trained}, not on {given}")
    source = load_feature_file(args.features) if args.features else LexicalFeatureSource(corpus)
    if model.dim != source.dim:
        raise DataError(f"{args.model}: model width {model.dim} does not match the feature "
                        f"width {source.dim} of {args.features or 'lexical features'}")
    return LinkPipeline(corpus=corpus, index=index, store=store, model=model, features=source)


def cmd_link(args) -> None:
    ranked = link_all(_pipeline(args))
    names = ["links.tsv", "rankings.tsv"] if args.rankings else ["links.tsv"]
    links, *rankings = _output(args, *names)
    write_links(links, ranked)
    if rankings:
        write_candidates(rankings[0], ranked)


def cmd_expand(args) -> None:
    pipeline = _pipeline(args)
    unknown, message = pipeline.corpus.unknown("goal_id", (args.root,))
    if unknown is not None:
        raise DataError(f"--root: {message(0)}")
    tree = expand(pipeline, args.root, args.max_depth)
    write_tree(tree, _output(args, "tree.json")[0])


def cmd_eval_links(args) -> None:
    rankings = read_candidates(args.rankings)
    gold = load_gold_links(args.gold)
    if args.split != "all":
        n, gold = len(gold), _split(args, gold)[args.split]
        if not gold:
            raise DataError(f"--gold {args.gold}: {n} links leave the {args.split} split empty")
    elif not gold:
        raise DataError(f"--gold {args.gold}: no gold links to evaluate")
    check_ranked(rankings, gold, args.gold, args.rankings)
    report = recall_report(rankings, gold, args.ns.ns)
    tsv, js = _output(args, "recall.tsv", "recall.json")
    write_rows(tsv, [("n", "recall"), *sorted(report.items())])
    write_json(js, {str(n): v for n, v in report.items()})


def cmd_search(args) -> None:
    corpus = load_corpus(args.corpus)
    if args.mode == "goal":
        docs = [(a.goal_id, a.title) for a in corpus.articles]
    else:
        docs = [
            (a.goal_id, a.title + " " + " ".join(s.text for s in a.steps))
            for a in corpus.articles
        ]
    ranked = TextIndex(docs, k1=args.k1, b=args.b).ranked(args.query, args.n)
    write_rows(_output(args, "search.tsv")[0],
               ((rank, *entry) for rank, entry in enumerate(ranked, 1)))


def cmd_vr_index(args) -> None:
    videos = load_videos(args.videos)
    index = build_video_index(videos, k1=args.k1, b=args.b)
    _output(args, "vr_index.json")[0].write_text(index.to_json() + "\n", encoding="utf-8")


def _videos(args, corpus=None):
    """The split of the videos in --videos, read against the --corpus
    `corpus` if given, and the index in --index, which must hold exactly
    those videos. The index is read first, so that its parse is freed before
    the videos are read, and a fault of it is reported before one of them."""
    index = TextIndex.from_json(read_text(args.index), source=args.index)
    videos = load_videos(args.videos, corpus)
    ids = {video.video_id for video in videos}
    if ids != index.positions.keys():
        only_videos = [video.video_id for video in videos if video.video_id not in index.positions]
        only_index = [doc_id for doc_id in index.doc_ids if doc_id not in ids]
        first, where = (only_videos[0], args.videos) if only_videos else (only_index[0], args.index)
        raise DataError(f"{args.index}: not an index of the videos in {args.videos}: "
                        f"video {first!r} is only in {where}")
    return split_videos(videos), index


def cmd_vr_filter(args) -> None:
    if args.level == FIL_L2 and not args.links:
        raise UsageError("--links is required for level fil_l2")
    corpus = load_corpus(args.corpus)
    splits, index = _videos(args, corpus)
    links = {} if args.links else None
    rows = tab_rows(args.links, 2, unique="step") if args.links else ()
    for lineno, (step_id, outcome, *_) in rows:  # each line checked as it is read
        goals = () if outcome == UNLINKABLE else (outcome,)  # the placeholder is not a goal
        check_rows(args.links, (lineno,), [corpus.unknown("step_id", (step_id,)),
                                           corpus.unknown("goal_id", goals)])
        links[step_id] = outcome

    queries = [filter_steps(make_query(corpus, goal_id, args.level, links), train_ids, index,
                            cap=args.cap, cost_kind=args.cost)
               for goal_id, train_ids in splits["train"].items()]
    write_queries(_output(args, "queries.json")[0], queries)


def cmd_vr_eval(args) -> None:
    ns = args.ns.ns
    if args.queries and args.level is not None:
        raise UsageError("--level is for --corpus queries; --queries gives each query's level")
    corpus = load_corpus(args.corpus) if args.corpus else None
    splits, index = _videos(args, corpus)

    if args.queries:
        queries = read_queries(args.queries)
    else:
        queries = [make_query(corpus, goal_id, args.level or L0) for goal_id in splits["train"]]

    part = splits[args.split]
    # A scorer per query: queries rarely share a clause, and a shared scorer
    # would keep a score vector of every clause of every query.
    ranks = {q.goal_id: rank_videos(ClauseScorer(index), q, part[q.goal_id])
             for q in queries if part.get(q.goal_id)}
    if not ranks:
        given = f"--queries {args.queries}" if args.queries else f"--corpus {args.corpus}"
        raise DataError(f"no goals to evaluate: no goal of {given} has videos in the "
                        f"--split {args.split} part of --videos {args.videos}")
    metrics = vr_metrics(ranks, ns)
    args.level = queries[0].level  # the level evaluated, which the manifest records

    header = ["level"]
    row = [args.level]
    for n in ns:
        header += [f"r@{n}", f"p@{n}"]
        row += [metrics.recall[n], metrics.precision[n]]
    write_rows(_output(args, "vr_metrics.tsv")[0], [header + ["mr"], row + [metrics.mean_rank]])


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> Parser:
    parser = Parser(prog="prockb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, command=name)
        p.add_argument("--out-dir", required=True, help="directory for artifacts + manifest")
        return p

    p = add("build-index", cmd_build_index, help="embed a corpus with the hashed n-gram embedder")
    p.add_argument("--corpus", required=True, type=Infile)
    p.add_argument("--dim", type=_at_least(MIN_DIM), default=64)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--lowercase", action="store_true", help="lowercase text before embedding")

    p = add("retrieve", cmd_retrieve, help="top-k candidate goals for every step")
    p.add_argument("--corpus", required=True, type=Infile)
    p.add_argument("--embeddings", required=True, type=Infile)
    p.add_argument("--k", type=_at_least(1), default=DEFAULT_K)

    p = add("train-reranker", cmd_train_reranker, help="train W and lambda on gold links")
    p.add_argument("--corpus", required=True, type=Infile)
    p.add_argument("--candidates", required=True, type=Infile)
    p.add_argument("--gold", required=True, type=Infile)
    p.add_argument("--features", type=Infile, help="precomputed pair-feature file")
    p.add_argument("--lr", type=_POSITIVE, default=0.5)
    p.add_argument("--epochs", type=_at_least(1), default=20)
    p.add_argument("--batch", type=_at_least(1), default=32)
    p.add_argument("--seed", type=_at_least(0), default=0,
                   help="seeds the mini-batch order only; every split is cut under seed 0")
    p.add_argument("--unlinkable", action="store_true")

    for name, func, extra in (
        ("link", cmd_link, True),
        ("expand", cmd_expand, False),
    ):
        p = add(name, func, help="link every step" if name == "link" else "grow a procedure tree")
        p.add_argument("--corpus", required=True, type=Infile)
        p.add_argument("--embeddings", required=True, type=Infile)
        p.add_argument("--model", required=True, type=Infile)
        p.add_argument("--features", type=Infile)
        if extra:
            p.add_argument("--rankings", action="store_true", help="also dump full reranked lists")
        else:
            p.add_argument("--root", required=True, type=_TEXT)
            p.add_argument("--max-depth", type=_at_least(0), default=2)

    p = add("eval-links", cmd_eval_links, help="recall@N of a rankings file vs gold links")
    p.add_argument("--rankings", required=True, type=Infile)
    p.add_argument("--gold", required=True, type=Infile)
    p.add_argument("--ns", type=Ns, default="1,10,30")
    p.add_argument("--split", choices=["all", "train", "dev", "test"], default="all")

    p = add("search", cmd_search, help="BM25 search over goal titles or full articles")
    p.add_argument("--corpus", required=True, type=Infile)
    p.add_argument("--query", required=True, type=_TEXT)
    p.add_argument("--mode", choices=["goal", "article"], default="goal")
    p.add_argument("-n", type=_at_least(1), default=10)
    p.add_argument("--k1", type=_POSITIVE, default=DEFAULT_K1)
    p.add_argument("--b", type=_UNIT, default=DEFAULT_B)

    p = add("vr-index", cmd_vr_index, help="build and persist a BM25 index over captions")
    p.add_argument("--videos", required=True, type=Infile)
    p.add_argument("--k1", type=_POSITIVE, default=DEFAULT_K1)
    p.add_argument("--b", type=_UNIT, default=DEFAULT_B)

    p = add("vr-filter", cmd_vr_filter, help="hill-climb filtered queries per goal")
    p.add_argument("--videos", required=True, type=Infile)
    p.add_argument("--corpus", required=True, type=Infile)
    p.add_argument("--level", choices=[FIL_L1, FIL_L2], default=FIL_L1, type=str.upper)
    p.add_argument("--links", type=Infile, help="step->goal link dump, needed for fil_l2")
    p.add_argument("--index", required=True, type=Infile, help="vr_index.json from vr-index")
    p.add_argument("--cap", type=_at_least(0), default=DEFAULT_CAP)
    p.add_argument("--cost", choices=COST_KINDS, default=COST_KINDS[0])

    p = add("vr-eval", cmd_vr_eval, help="recall/precision@N and mean rank per query level")
    p.add_argument("--videos", required=True, type=Infile)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--queries", type=Infile, help="queries.json from vr-filter")
    group.add_argument("--corpus", type=Infile, help="builds unfiltered --level queries")
    p.add_argument("--level", choices=[L0, L1], type=str.upper,
                   help="level of the --corpus queries (default L0)")
    p.add_argument("--index", required=True, type=Infile, help="vr_index.json from vr-index")
    p.add_argument("--split", choices=["train", "dev", "test"], default="test")
    p.add_argument("--ns", type=Ns, default="1,10,25,50")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # None parses sys.argv[1:]
        args._inputs = sorted({v for v in vars(args).values() if isinstance(v, Infile) and v})
        args._outputs = []
        args.func(args)
        _write_manifest(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except Exception as exc:  # a fault of the program, not of its inputs
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

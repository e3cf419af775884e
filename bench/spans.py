"""In-memory spans around the program's public functions, patched from here.

The program is not edited: `Tracer.install()` replaces module attributes and
class methods of the freshly imported `prockb` package with wrappers that
record a span (or, for hot per-item calls, only a count). A name is patched
everywhere it is looked up, e.g. both `prockb.retrieval.topk` and
`prockb.hierarchy.topk`, since `from x import y` copies the binding. A target
that no longer exists is recorded as missing instead of failing the run.

Spans nest through a per-thread stack, so each span knows its parent and a
layer's self time is its duration minus its direct children's. A span opened
on a worker thread (`retrieve_all`'s pool) has no parent, and a name's time
is summed over threads. Spans are aggregated per name, under a lock, as they
close, and read out once, when the traced pass ends.
"""

import sys
import threading
import time
from dataclasses import dataclass, field

TIME, COUNT = "time", "count"


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    keys: set = field(default_factory=set)
    extra: int = 0  # target-specific tally (tree nodes, accepted clauses, cost evaluations)


@dataclass(frozen=True)
class Target:
    """One traced function: the span name, where the name is looked up
    (`module:attr` or `module:Class.method`), and how it is recorded."""

    name: str
    sites: tuple[str, ...]
    kind: str = TIME
    key: object = None  # args -> hashable, for distinct-call ratios
    on_result: object = None  # (tracer, stat, result) -> result


def _tree_nodes(tracer, stat, tree):
    with tracer.lock:
        stat.extra += sum(1 + len(goal.steps) for goal in tree.goal_nodes())
    return tree


def _accepted(tracer, stat, trace):
    with tracer.lock:
        stat.extra += len(trace.clauses)
    return trace


def _counted_cost(tracer, stat, cost):
    """Wrap the cost closure make_cost_fn returns so its calls are counted."""

    def counted(clauses):
        with tracer.lock:
            stat.extra += 1
        return cost(clauses)

    return counted


TARGETS = (
    Target("corpus.load_corpus", ("prockb.cli:load_corpus", "prockb.corpus:load_corpus")),
    Target("corpus.context_of", ("prockb.rerank:context_of", "prockb.corpus:context_of"), COUNT),
    Target("embedding.embed_text", ("prockb.embedding:embed_text",), COUNT),
    Target("embedding.embed_corpus", ("prockb.cli:embed_corpus", "prockb.embedding:embed_corpus")),
    Target("embedding.save_embeddings",
           ("prockb.cli:save_embeddings", "prockb.embedding:save_embeddings")),
    Target("embedding.load_embeddings",
           ("prockb.cli:load_embeddings", "prockb.embedding:load_embeddings")),
    Target("retrieval.build_index", ("prockb.cli:build_index", "prockb.retrieval:build_index")),
    Target("retrieval.retrieve_all", ("prockb.cli:retrieve_all", "prockb.retrieval:retrieve_all")),
    Target("retrieval.topk", ("prockb.retrieval:topk", "prockb.hierarchy:topk")),
    Target("retrieval.write_candidates",
           ("prockb.cli:write_candidates", "prockb.retrieval:write_candidates")),
    Target("retrieval.read_candidates",
           ("prockb.cli:read_candidates", "prockb.retrieval:read_candidates")),
    Target("rerank.features", ("prockb.rerank:LexicalFeatureSource.features",),
           key=lambda args, kwargs: (args[1], args[2])),
    Target("rerank.idf_table", ("prockb.rerank:idf_table",)),
    Target("rerank.score_candidates",
           ("prockb.hierarchy:score_candidates", "prockb.rerank:score_candidates")),
    Target("rerank.train", ("prockb.cli:train", "prockb.rerank:train")),
    Target("rerank.nll_loss", ("prockb.rerank:nll_loss",), COUNT),
    Target("hierarchy.link_step", ("prockb.hierarchy:link_step",),
           key=lambda args, kwargs: args[1]),
    Target("hierarchy.config_hash", ("prockb.hierarchy:LinkPipeline.config_hash",)),
    Target("hierarchy.expand", ("prockb.cli:expand", "prockb.hierarchy:expand"),
           on_result=_tree_nodes),
    Target("linkeval.recall_report", ("prockb.cli:recall_report", "prockb.linkeval:recall_report")),
    Target("linkeval.load_gold_links",
           ("prockb.cli:load_gold_links", "prockb.linkeval:load_gold_links")),
    Target("textsearch.build", ("prockb.textsearch:TextIndex.__init__",)),
    Target("textsearch.to_json", ("prockb.textsearch:TextIndex.to_json",)),
    Target("textsearch.from_json", ("prockb.textsearch:TextIndex.from_json",)),
    Target("textsearch.score_all", ("prockb.textsearch:TextIndex.score_all",)),
    Target("videoretrieval.clause_scores", ("prockb.videoretrieval:ClauseScorer.clause_scores",),
           COUNT),
    Target("videoretrieval.rank_order", ("prockb.videoretrieval:ClauseScorer.rank_order",)),
    Target("videoretrieval.hill_climb", ("prockb.videoretrieval:hill_climb",), on_result=_accepted),
    Target("videoretrieval.make_cost_fn", ("prockb.videoretrieval:make_cost_fn",),
           on_result=_counted_cost),
    Target("videoretrieval.rank_videos",
           ("prockb.cli:rank_videos", "prockb.videoretrieval:rank_videos")),
    Target("videoretrieval.load_videos",
           ("prockb.cli:load_videos", "prockb.videoretrieval:load_videos")),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: set[str] = set()
        self.lock = threading.Lock()
        self._local = threading.local()  # .stack: [[start, child time], ...]

    def stat(self, name: str) -> Stat:
        with self.lock:
            return self.stats.setdefault(name, Stat())

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[0]
            stack.pop()
            if stack:
                stack[-1][1] += duration
            stat = self.stat(name)
            with self.lock:
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]

    def _wrap(self, target: Target, fn):
        stat = self.stat(target.name)

        if target.kind == COUNT:
            def counted(*args, **kwargs):
                with self.lock:
                    stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            if target.key is not None:
                with self.lock:
                    stat.keys.add(target.key(args, kwargs))
            result = self.span(target.name, fn, *args, **kwargs)
            return target.on_result(self, stat, result) if target.on_result else result

        return traced

    def install(self) -> None:
        """Patch every target in the currently imported prockb modules."""
        for target in TARGETS:
            wrappers: dict[int, object] = {}  # one wrapper per original function
            found = False
            for site in target.sites:
                module_name, _, path = site.partition(":")
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None:
                    continue
                raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if raw is None:
                    continue
                found = True
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapper = wrappers.get(id(fn))
                if wrapper is None:
                    wrapper = wrappers[id(fn)] = self._wrap(target, fn)
                setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            if not found:
                self.missing.add(target.name)


CLI_COMMANDS = ("build-index", "retrieve", "train-reranker", "link", "eval-links", "expand",
                "vr-index", "vr-filter", "vr-eval")

# Per-layer metric -> (unit, target whose absence makes it missing, value).
# `<target>.calls` counts calls and `<target>_s` sums span time, children included.
LAYER_METRICS = (
    "corpus.load_corpus.calls", "corpus.load_corpus_s", "corpus.context_of.calls",
    "embedding.embed_text.calls", "embedding.embed_corpus_s", "embedding.save_embeddings_s",
    "embedding.load_embeddings.calls", "embedding.load_embeddings_s",
    "retrieval.retrieve_all_s", "retrieval.topk.calls", "retrieval.topk_s",
    "retrieval.build_index_s", "retrieval.write_candidates_s", "retrieval.read_candidates_s",
    "rerank.features.calls", "rerank.features_s", "rerank.features.unique_ratio",
    "rerank.idf_table.calls", "rerank.idf_table_s", "rerank.score_candidates.calls",
    "rerank.score_candidates_s", "rerank.train_s", "rerank.nll_loss.calls",
    "hierarchy.link_step.calls", "hierarchy.link_step_s", "hierarchy.link_step.unique_ratio",
    "hierarchy.config_hash.calls", "hierarchy.config_hash_s", "hierarchy.expand_s",
    "hierarchy.tree_nodes",
    "linkeval.recall_report_s", "linkeval.load_gold_links_s",
    "textsearch.build_s", "textsearch.to_json_s", "textsearch.from_json.calls",
    "textsearch.from_json_s", "textsearch.score_all.calls", "textsearch.score_all_s",
    "videoretrieval.clause_cache.hit_ratio", "videoretrieval.hill_climb.calls",
    "videoretrieval.hill_climb_s", "videoretrieval.cost_evals", "videoretrieval.rank_order.calls",
    "videoretrieval.rank_order_s", "videoretrieval.accepted_clauses",
    "videoretrieval.rank_videos_s", "videoretrieval.load_videos_s",
)


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_cli_s: float) -> dict:
    """{metric: (value, unit)} for the traced pass. A metric whose function
    has gone from the program has value None. `untraced_cli_s` is the summed
    command time of an untraced pass, for the tracing overhead."""
    stat = lambda name: tracer.stats.get(name, Stat())  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    special = {
        "rerank.features.unique_ratio": ("rerank.features", "ratio",
            ratio(len(stat("rerank.features").keys), stat("rerank.features").calls)),
        "hierarchy.link_step.unique_ratio": ("hierarchy.link_step", "ratio",
            ratio(len(stat("hierarchy.link_step").keys), stat("hierarchy.link_step").calls)),
        "hierarchy.tree_nodes": ("hierarchy.expand", "count", stat("hierarchy.expand").extra),
        "videoretrieval.accepted_clauses": ("videoretrieval.hill_climb", "count",
            stat("videoretrieval.hill_climb").extra),
        "videoretrieval.cost_evals": ("videoretrieval.make_cost_fn", "count",
            stat("videoretrieval.make_cost_fn").extra),
        "videoretrieval.clause_cache.hit_ratio": ("videoretrieval.clause_scores", "ratio",
            1.0 - ratio(stat("textsearch.score_all").calls,
                        stat("videoretrieval.clause_scores").calls)
            if stat("videoretrieval.clause_scores").calls else 0.0),
    }
    out = {}
    cli = [stat(f"cli.{c}") for c in CLI_COMMANDS]
    for command, s in zip(CLI_COMMANDS, cli):
        out[f"cli.{command.replace('-', '_')}_s"] = (s.total_s, "s")
    out["cli.self_s"] = (sum(s.self_s for s in cli), "s")
    for name in LAYER_METRICS:
        if name in special:
            target, unit, value = special[name]
        elif name.endswith(".calls"):
            target, unit = name[: -len(".calls")], "count"
            value = stat(target).calls
        else:
            target, unit = name[: -len("_s")], "s"
            value = stat(target).total_s
        out[name] = (None if target in tracer.missing else value, unit)
    cli_s = sum(s.total_s for s in cli)
    out["trace.overhead_s"] = (cli_s - untraced_cli_s, "s")
    out["trace.cli_share"] = (cli_s / traced_wall, "ratio")
    return out

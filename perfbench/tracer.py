"""Outside-in tracing of the hateagg layers.

The tracer replaces public functions at the module attributes their callers
look up with wrappers that record one span per call: name, start, end,
parent span, command id and thread, plus an optional count read from the
result. Nothing in the package changes; :meth:`Tracer.uninstall` puts every
original back. Spans stay in memory until the benchmark writes them out.

Each thread keeps its own span stack. A span opened by a worker thread with
an empty stack takes the main thread's innermost open span as its parent,
which is the call that handed the work to the pool.

Per-cell functions (``fmt_float``, ``csv_line``) and the JSON renderer are
not wrapped: their cost stays in the calling command's self time, which is
where output rendering is meant to show.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
from collections import defaultdict
from time import perf_counter, thread_time
from typing import Callable, Iterable


class Span:
    """One call: wall interval, plus the CPU time its own thread spent in it."""

    __slots__ = ("id", "name", "parent", "command", "thread", "start", "end",
                 "cpu_start", "cpu_end", "info")

    def __init__(self, id: int, name: str, parent: int, command: str, start: float,
                 cpu_start: float = 0.0):
        self.id = id
        self.name = name
        self.parent = parent
        self.command = command
        self.thread = threading.get_ident()
        self.start = start
        self.end = start
        self.cpu_start = cpu_start
        self.cpu_end = cpu_start
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        """CPU time of the span's thread; time blocked on the GIL or a lock is not in it."""
        return self.cpu_end - self.cpu_start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _dropped(dataset) -> int:
    return sum(v for k, v in dataset.discard_summary.items() if k.startswith("dropped"))


def _final_change(result) -> float:
    _, log = result
    return log[-1]["max_change"]


# (module, attribute, count read from the result); "Class.method" patches the class
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    *(("hateagg.cli", f"cmd_{c}", None)
      for c in ("stats", "features", "train", "eval", "sweep", "diffuse", "synth")),
    ("hateagg.cli", "read_edges", len),
    ("hateagg.cli", "parse_scores", lambda table: table.total_posts),
    ("hateagg.cli", "parse_labels", None),
    ("hateagg.cli", "build_graph", lambda g: g.edge_count),
    ("hateagg.cli", "bind_dataset", _dropped),
    ("hateagg.cli", "graph_stats", None),
    ("hateagg.cli", "build_features", lambda fm: fm.values.size),
    ("hateagg.cli", "cross_validate", None),
    ("hateagg.cli", "threshold_sweep", None),
    ("hateagg.cli", "train_logreg", lambda model: model.n_iters),
    ("hateagg.cli", "degroot_init", None),
    ("hateagg.cli", "degroot_run", _final_change),
    ("hateagg.cli", "generate", None),
    ("hateagg.cli", "write_edges", None),
    ("hateagg.cli", "write_scores", None),
    ("hateagg.cli", "write_labels", None),
    ("hateagg.learn", "train_logreg", lambda model: model.n_iters),
    ("hateagg.learn", "predict_proba", None),
    ("hateagg.learn", "metrics", None),
    ("hateagg.learn", "stratified_kfold", None),
    ("hateagg.learn", "build_features", lambda fm: fm.values.size),
    ("hateagg.learn", "degroot_init", None),
    ("hateagg.learn", "degroot_run", _final_change),
    ("hateagg.graph", "largest_wcc", None),
    ("hateagg.graph", "component_stats", None),
    ("hateagg.graph", "clustering_coefficient", None),
    ("hateagg.graph", "powerlaw_gamma", None),
    ("hateagg.graph", "SocialGraph.__init__", None),
    ("hateagg.ingest", "largest_wcc", None),
    ("hateagg.degroot", "degroot_step", None),
    ("hateagg.degroot", "per_node_counts", None),
    ("hateagg.features", "per_node_counts", None),
)

# the fold runner takes each fold's closure as its first argument; wrapping
# that closure gives the per-fold CPU time behind learn.fold_parallelism
FOLD_RUNNER = ("hateagg.learn", "_run_folds")

# results kept for the library timings that follow a traced pass
KEEP = {"ingest.bind_dataset"}


def span_name(func: Callable) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = ""
        self.missing: list[str] = []
        self.last: dict[str, object] = {}  # last result per span name in KEEP
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = 0
        span = Span(next(self._ids), name, parent, self.command, perf_counter(), thread_time())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        span.cpu_end = thread_time()
        self._stack().pop()
        self.spans.append(span)

    def traced(self, func: Callable, name: str, count: Callable | None = None) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            if name in KEEP:
                self.last[name] = result
            if count is not None:
                try:
                    span.info = count(result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    span.info = None  # the result no longer has the counted field
            return result

        return wrapper

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        self.missing = []
        for module_name, attr, count in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            func = getattr(owner, leaf, None) if owner is not None else None
            if func is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patch(owner, leaf, self.traced(func, span_name(func), count))

        module = importlib.import_module(FOLD_RUNNER[0])
        runner = getattr(module, FOLD_RUNNER[1], None)
        if runner is None:
            self.missing.append(".".join(FOLD_RUNNER))
            return
        traced_runner = self.traced(runner, span_name(runner))

        def run_folds(eval_fold, *args, **kwargs):
            return traced_runner(self.traced(eval_fold, "learn.fold"), *args, **kwargs)

        self._patch(module, FOLD_RUNNER[1], run_folds)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.last.clear()


# -- analysis --------------------------------------------------------------------


def uncovered(span: Span, children: Iterable[Span]) -> list[tuple[float, float]]:
    """The intervals of ``span`` that none of ``children`` covers.

    Children of one span may overlap when they run on different threads;
    what they cover is the union of their intervals.
    """
    out = []
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        if c.start > reach:
            out.append((reach, min(c.start, span.end)))
        reach = max(reach, min(c.end, span.end))
    if span.end > reach:
        out.append((reach, span.end))
    return out


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    return children


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals (never negative)."""
    spans = list(spans)
    children = children_of(spans)
    return {s.id: sum(hi - lo for lo, hi in uncovered(s, children.get(s.id, ())))
            for s in spans}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> int | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if n * (100 - q) >= 1000:
            return q
    return None


LOAD_PATH = {
    "ingest.read_edges", "ingest.parse_scores", "ingest.parse_labels",
    "ingest.bind_dataset", "graph.build_graph", "graph.SocialGraph.__init__",
}
GRAPH_KERNELS = {
    "graph.graph_stats", "graph.largest_wcc", "graph.component_stats",
    "graph.clustering_coefficient", "graph.powerlaw_gamma",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's commands."""
    selft = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def self_total(*names: str) -> float:
        return sum(selft[s.id] for n in names for s in by_name.get(n, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def info(name: str) -> list:
        return [s.info for s in by_name.get(name, ()) if s.info is not None]

    cli_names = [n for n in by_name if n.startswith("cli.")]
    edge_lines = sum(info("ingest.read_edges"))
    fits = [s.duration for s in by_name.get("learn.train_logreg", ())]
    steps = [s.duration for s in by_name.get("degroot.degroot_step", ())]
    runner_wall = total("learn._run_folds")
    # fold self time is wall time during which some fold thread was outside its
    # fit, predict and metrics calls; overlapping folds count once
    children = children_of(spans)
    fold_self = union_length(
        iv for s in by_name.get("learn.fold", ()) for iv in uncovered(s, children.get(s.id, ()))
    )
    return {
        "cli.self_s": self_total(*cli_names),
        "ingest.read_edges_s": total("ingest.read_edges"),
        "ingest.edge_lines": edge_lines,
        "ingest.parse_scores_s": total("ingest.parse_scores"),
        "ingest.score_rows": sum(info("ingest.parse_scores")),
        "ingest.parse_labels_s": total("ingest.parse_labels"),
        "ingest.bind_s": self_total("ingest.bind_dataset"),
        "ingest.bind_dropped": sum(info("ingest.bind_dataset")),
        "graph.intern_s": self_total("graph.build_graph"),
        "graph.csr_s": total("graph.SocialGraph.__init__"),
        "graph.csr_calls": count("graph.SocialGraph.__init__"),
        "graph.unique_edge_ratio": (
            sum(info("graph.build_graph")) / edge_lines if edge_lines else 0.0
        ),
        "graph.largest_wcc_s": total("graph.largest_wcc"),
        "graph.components_s": total("graph.component_stats"),
        "graph.clustering_s": total("graph.clustering_coefficient"),
        "graph.stats_s": total("graph.graph_stats"),
        "features.build_s": total("features.build_features"),
        "features.per_node_counts_s": total("features.per_node_counts"),
        "features.per_node_counts_calls": count("features.per_node_counts"),
        "features.cells": sum(info("features.build_features")),
        "learn.cv_s": total("learn.cross_validate"),
        "learn.cv_self_s": self_total("learn.cross_validate", "learn._run_folds") + fold_self,
        "learn.fit_s": total("learn.train_logreg"),
        "learn.fit_calls": count("learn.train_logreg"),
        "learn.fit_iters": sum(info("learn.train_logreg")),
        "learn.fit_p50_s": percentile(fits, 50),
        "learn.predict_s": total("learn.predict_proba"),
        "learn.fold_parallelism": (
            sum(s.cpu for s in by_name.get("learn.fold", ())) / runner_wall if runner_wall else 0.0
        ),
        "degroot.init_s": total("degroot.degroot_init"),
        "degroot.run_s": total("degroot.degroot_run"),
        "degroot.steps": len(steps),
        "degroot.step_p50_s": percentile(steps, 50),
        "degroot.step_p90_s": percentile(steps, 90),
        "degroot.final_change": max(info("degroot.degroot_run"), default=0.0),
    }


def synth_metrics(spans: list[Span]) -> dict[str, float]:
    def total(*names: str) -> float:
        return sum(s.duration for s in spans if s.name in names)

    return {
        "synth.generate_s": total("synth.generate"),
        "synth.csr_s": total("graph.SocialGraph.__init__"),
        "synth.write_s": total("ingest.write_edges", "ingest.write_scores", "ingest.write_labels"),
    }


def layer_shares(spans: list[Span], wall: float) -> dict[str, float]:
    """Self time per layer and per purpose group, as shares of ``wall``.

    Only main-thread spans count: time the main thread spends waiting on a
    fold pool is the waiting span's self time, so the shares add up to the
    pass's wall time rather than to the busy time of every thread.
    """
    main = threading.main_thread().ident
    spans = [s for s in spans if s.thread == main]
    selft = self_times(spans)
    shares: dict[str, float] = defaultdict(float)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        shares[layer] += selft[s.id] / wall
        if s.name in LOAD_PATH:
            shares["group.load_path"] += selft[s.id] / wall
        elif s.name in GRAPH_KERNELS or layer == "degroot":
            shares["group.kernels+degroot"] += selft[s.id] / wall
    return dict(shares)


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in samples) for k in samples[0]}

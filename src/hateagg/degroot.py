"""DeGroot belief propagation over the follow graph.

Beliefs are repeatedly replaced by the self-inclusive uniform average over a
chosen neighbor direction:

    b'(u) = (b(u) + sum of b over N(u)) / (1 + |N(u)|)

with N(u) the followees by default (a user absorbs the beliefs of accounts
they follow), selectable to followers or the undirected union. The update is
Jacobi-style (next vector computed from the previous one in full), so results
do not depend on node visiting order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .features import AggregationConfig, per_node_counts
from .graph import SocialGraph
from .ingest import Dataset

__all__ = [
    "DiffusionConfig",
    "degroot_init",
    "degroot_step",
    "degroot_run",
    "degroot_classify",
]

DIRECTIONS = ("out", "in", "undirected")
INITS = ("fraction", "binary")


@dataclass
class DiffusionConfig:
    """DeGroot settings; the one place they are validated."""

    direction: str = "out"
    max_iters: int = 100
    tol: float = 1e-6
    init: str = "fraction"  # or "binary": seed with the naive classification

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise InputError(f"direction must be one of {DIRECTIONS}")
        if self.init not in INITS:
            raise InputError(f"init must be one of {INITS}")
        if self.max_iters < 1:
            raise InputError("max_iters must be >= 1")
        if not (self.tol > 0):  # also rejects NaN
            raise InputError(f"tol must be > 0, got {self.tol}")


def degroot_init(
    dataset: Dataset,
    agg: AggregationConfig | None = None,
    config: DiffusionConfig | None = None,
) -> np.ndarray:
    """Seed beliefs from the textual signal, one float64 per node.

    init "fraction": each user's share of flagged posts (0 for users without
    posts). "binary": the naive classification flag instead.
    """
    agg = agg or AggregationConfig()
    config = config or DiffusionConfig()
    counts, posts = per_node_counts(dataset, agg.tau_t)
    if config.init == "binary":
        return (counts >= agg.tau_fixed).astype(np.float64)
    values = np.zeros(dataset.graph.node_count, dtype=np.float64)
    has = posts > 0
    values[has] = counts[has] / posts[has]
    return values


def degroot_step(
    graph: SocialGraph,
    values: np.ndarray,
    direction: str = "out",
    buffer: np.ndarray | None = None,
) -> np.ndarray:
    """One self-inclusive averaging step over the chosen neighbor set.

    Evaluated in residual form b + sum(b_v - b_u) / (1 + deg) so a constant
    belief vector reproduces itself bit for bit; the subtraction happens per
    edge, so it yields exact zeros rather than accumulated rounding.

    The sums run on the graph's ``StepLayout``: one gather of every
    neighbor's belief into ``buffer``, then, column by column, the rows'
    own beliefs (a contiguous slice in degree order) are subtracted and the
    deltas added into a zeroed accumulator. Each row so adds its deltas in
    entry order from +0.0, the same additions ``np.bincount`` makes, and
    the long rows past the last column finish through ``bincount`` itself,
    so the result does not depend on the layout. ``buffer`` is one float64
    array with a slot per entry of the view, overwritten by the step;
    ``degroot_run`` hands the same one to every step, so no step allocates
    per edge. Beliefs come in and go out in node order. An unknown
    direction fails in the graph's view lookup.
    """
    if len(values) != graph.node_count:
        raise InputError("belief vector length does not match graph")
    values = np.asarray(values, dtype=np.float64)
    layout = graph.step_layout(direction)
    if buffer is None:
        buffer = np.empty(len(layout.gather))
    own = values.take(layout.perm)
    # mode="clip" writes straight into out=; the default mode buffers it
    own.take(layout.gather, out=buffer, mode="clip")
    linked = len(layout.scale)
    sums = np.zeros(linked)
    long, end = layout.long, 0
    for active in layout.columns:
        deltas = buffer[end : end + active - long]
        deltas -= own[long:active]
        sums[long:active] += deltas
        end += active - long
    if long:
        deltas = buffer[end:]
        deltas -= own.take(layout.long_rows)
        sums[:long] = np.bincount(layout.long_rows, weights=deltas, minlength=long)
    own[:linked] += sums / layout.scale
    own[linked:] += 0.0  # the zero sum of a row without entries turns -0.0 into +0.0
    return own.take(layout.inv)


def degroot_run(
    graph: SocialGraph,
    values: np.ndarray,
    config: DiffusionConfig | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """Step until the max-norm change drops below tol or max_iters run out.

    Returns the final beliefs and a convergence log with one entry per step,
    {"iteration": i, "max_change": c}; the step count is ``len(log)``.
    """
    config = config or DiffusionConfig()
    buffer = np.empty(len(graph.step_layout(config.direction).gather))
    log: list[dict] = []
    for i in range(1, config.max_iters + 1):
        nxt = degroot_step(graph, values, config.direction, buffer)
        change = float(np.max(np.abs(nxt - values))) if len(values) else 0.0
        log.append({"iteration": i, "max_change": change})
        values = nxt
        if change < config.tol:
            break
    return values, log


def degroot_classify(beliefs: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Per-node 0/1 decision: 1 iff belief >= threshold (inclusive)."""
    if not (0.0 <= threshold <= 1.0):
        raise InputError("threshold must be in [0, 1]")
    return (beliefs >= threshold).astype(np.int64)

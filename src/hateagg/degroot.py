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
    "BeliefVector",
    "DiffusionConfig",
    "degroot_init",
    "degroot_step",
    "degroot_run",
    "degroot_classify",
]

DIRECTIONS = ("out", "in", "undirected")


@dataclass
class BeliefVector:
    """Per-node beliefs in [0, 1] plus the number of smoothing steps taken."""

    values: np.ndarray
    iteration: int = 0


@dataclass
class DiffusionConfig:
    direction: str = "out"
    max_iters: int = 100
    tol: float = 1e-6
    init: str = "fraction"  # or "binary": seed with the naive classification

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise InputError(f"direction must be one of {DIRECTIONS}")
        if self.init not in ("fraction", "binary"):
            raise InputError("init must be 'fraction' or 'binary'")
        if self.max_iters < 1:
            raise InputError("max_iters must be >= 1")
        if self.tol <= 0:
            raise InputError("tol must be > 0")


def degroot_init(
    dataset: Dataset,
    config: AggregationConfig | None = None,
    init: str = "fraction",
) -> BeliefVector:
    """Seed beliefs from the textual signal.

    "fraction": each user's share of flagged posts (0 for users without
    posts). "binary": the naive classification flag instead.
    """
    config = config or AggregationConfig()
    counts, posts = per_node_counts(dataset, config.tau_t)
    if init == "fraction":
        values = np.zeros(dataset.graph.node_count, dtype=np.float64)
        has = posts > 0
        values[has] = counts[has] / posts[has]
    elif init == "binary":
        values = (counts >= config.tau_fixed).astype(np.float64)
    else:
        raise InputError("init must be 'fraction' or 'binary'")
    return BeliefVector(values=values, iteration=0)


def degroot_step(
    graph: SocialGraph, beliefs: BeliefVector, direction: str = "out"
) -> BeliefVector:
    """One self-inclusive averaging step over the chosen neighbor set.

    Evaluated in residual form b + sum(b_v - b_u) / (1 + deg) so a constant
    belief vector reproduces itself bit for bit.
    """
    b = beliefs.values
    if len(b) != graph.node_count:
        raise InputError("belief vector length does not match graph")
    if direction not in DIRECTIONS:
        raise InputError(f"direction must be one of {DIRECTIONS}")
    deltas = graph.neighbor_delta_sums(b, direction)
    new = b + deltas / (1.0 + graph.degrees(direction))
    return BeliefVector(values=new, iteration=beliefs.iteration + 1)


def degroot_run(
    graph: SocialGraph,
    beliefs: BeliefVector,
    max_iters: int = 100,
    tol: float = 1e-6,
    direction: str = "out",
) -> tuple[BeliefVector, list[dict]]:
    """Iterate until the max-norm change drops below tol or iterations run out.

    Returns the final beliefs and a convergence log with one entry per step:
    {"iteration": i, "max_change": c}.
    """
    if max_iters < 1:
        raise InputError("max_iters must be >= 1")
    if tol <= 0:
        raise InputError("tol must be > 0")
    log: list[dict] = []
    current = beliefs
    for _ in range(max_iters):
        nxt = degroot_step(graph, current, direction)
        change = float(np.max(np.abs(nxt.values - current.values))) if len(
            current.values
        ) else 0.0
        log.append({"iteration": nxt.iteration, "max_change": change})
        current = nxt
        if change < tol:
            break
    return current, log


def degroot_classify(beliefs: BeliefVector, threshold: float = 0.5) -> np.ndarray:
    """Per-node 0/1 decision: 1 iff belief >= threshold (inclusive)."""
    if not (0.0 <= threshold <= 1.0):
        raise InputError("threshold must be in [0, 1]")
    return (beliefs.values >= threshold).astype(np.int64)

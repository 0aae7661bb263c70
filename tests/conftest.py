from __future__ import annotations

import os

import numpy as np
from hypothesis import HealthCheck, settings

from hateagg import (
    BindPolicy,
    Dataset,
    ScoreTable,
    bind_dataset,
    build_graph,
)

from oracles import label_table

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
# HYPOTHESIS_PROFILE=ci runs the parser oracle tests deeper and prints the
# blob that replays a failing example; the default keeps a local run fast
settings.register_profile("ci", settings.get_profile("suite"), print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "suite")
settings.load_profile(PROFILE)
# examples per parser oracle test
PARSER_EXAMPLES = 1000 if PROFILE == "ci" else 60
# examples per bind oracle test
BIND_EXAMPLES = 1000 if PROFILE == "ci" else 200


def make_dataset(
    edges: list[tuple[str, str]],
    scores: dict[str, list[float]] | None = None,
    labels: dict[str, int] | None = None,
    policy: BindPolicy | None = None,
) -> Dataset:
    """Assemble a dataset from literal python structures.

    Scored users missing from the edges join the graph as isolated nodes.
    """
    graph = build_graph(edges)
    table = ScoreTable.from_mapping(scores or {})
    policy = policy or BindPolicy(allow_zero_post_users=True)
    return bind_dataset(graph, table, label_table(labels or {}), policy)


def random_dataset(
    rng: np.random.Generator,
    max_users: int = 200,
    max_posts: int = 50,
    edge_prob: float | None = None,
    label_fraction: float = 0.0,
) -> Dataset:
    """Random graph + scores (+ optional labels) for oracle-equivalence runs.

    Some users get zero posts on purpose; ids are shuffled so node order
    differs from lexicographic order.
    """
    n = int(rng.integers(2, max_users + 1))
    p = edge_prob if edge_prob is not None else float(rng.uniform(0.005, 0.1))
    ids = [f"user{i}" for i in rng.permutation(n)]
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    edges = [(ids[a], ids[b]) for a, b in zip(src, dst)]

    table = ScoreTable.from_mapping(
        {ids[i]: rng.random(int(rng.integers(0, max_posts + 1))) for i in range(n)}
    )

    labels = {}
    if label_fraction > 0:
        chosen = rng.random(n) < label_fraction
        for i in np.flatnonzero(chosen):
            labels[ids[int(i)]] = int(rng.integers(0, 2))

    graph = build_graph(edges)  # binding adds every scored user off the edges
    return bind_dataset(
        graph, table, label_table(labels), BindPolicy(allow_zero_post_users=True)
    )

"""User-level aggregation features over post scores and the ego network.

Four families of features, all derived from externally supplied per-post
hate probabilities:

* fixed:       the count of a user's posts scoring at or above ``tau_t``;
* relational:  the user's own binary flag plus the mean flag of followers
               and followees;
* bins:        a histogram of the user's scores over k equal bins of [0, 1];
* quantiles:   a histogram over k equal bins of [min, max] of the user's own
               scores (per-user range).

Histogram blocks are softmax-normalized by default; a raw-count mode exists
for ablation. The multimodal mode concatenates relational + bins + quantiles
and leaves the weighting to the downstream classifier.

Binning convention, used identically by every code path: a score ``s`` lands
in bin ``floor(s * k)`` clipped to ``k - 1`` (half-open bins, last bin closed
at the top). Users with zero posts get all-zero feature rows; softmax is never
applied to an empty histogram.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import InputError
from .ingest import Dataset, ScoreTable
from .serialize import write_rows

__all__ = [
    "AggregationConfig",
    "FeatureMatrix",
    "MODES",
    "fixed_count",
    "fixed_classify",
    "relational_features",
    "bin_histogram",
    "quantile_histogram",
    "softmax",
    "build_features",
    "per_node_counts",
]

MODES = ("fixed", "relational", "bins", "quantiles", "bins+quantiles", "multimodal")

_CHUNK = 8192  # scored users per worker task; fixed so output ignores threading


@dataclass
class AggregationConfig:
    """Aggregation hyperparameters.

    tau_t: post-level threshold turning a score into a hateful-post flag
    (inclusive). tau_fixed: how many flagged posts make the naive per-user
    classifier fire. k_bins: histogram resolution.
    """

    tau_t: float = 0.5
    tau_fixed: int = 3
    k_bins: int = 10
    softmax_histograms: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.tau_t <= 1.0):
            raise InputError(f"tau_t must be in [0, 1], got {self.tau_t}")
        if self.tau_fixed < 1:
            raise InputError(f"tau_fixed must be >= 1, got {self.tau_fixed}")
        if self.k_bins < 2:
            raise InputError(f"k_bins must be >= 2, got {self.k_bins}")


@dataclass
class FeatureMatrix:
    """Dense per-user feature rows with a named schema.

    Rows are aligned to graph node index (ascending), one row per user in
    the dataset universe.
    """

    schema: list[str]
    user_ids: list[str]
    values: np.ndarray
    mode: str

    def row(self, user_index: int) -> np.ndarray:
        return self.values[user_index]

    def to_csv(self, stream: IO[str]) -> None:
        stream.write("user_id," + ",".join(self.schema) + "\n")
        write_rows(stream, [self.user_ids], self.values)


# -- scalar per-user operations ----------------------------------------------


def fixed_count(user: str, scores: ScoreTable, tau_t: float) -> int:
    """Number of the user's posts with score >= tau_t."""
    vals = scores.scores(user)
    return int(np.count_nonzero(vals >= tau_t))


def fixed_classify(user: str, scores: ScoreTable, tau_t: float, tau_fixed: int) -> int:
    """Naive per-user classification: 1 iff the flagged-post count reaches tau_fixed."""
    return int(fixed_count(user, scores, tau_t) >= tau_fixed)


def _user_cf(user: str, dataset: Dataset, config: AggregationConfig) -> int:
    if user not in dataset.scores:
        return 0
    return fixed_classify(user, dataset.scores, config.tau_t, config.tau_fixed)


def relational_features(
    user: str, dataset: Dataset, config: AggregationConfig
) -> np.ndarray:
    """[own flag, mean follower flag, mean followee flag] for one user.

    Neighbor flags come from scores only, never from ground-truth labels, so
    the same values are valid at train and test time. Users with no followers
    (or followees) contribute 0 for that term.
    """
    g = dataset.graph
    if user not in g.id_index:
        raise InputError(f"unknown user {user!r}")
    i = g.id_index[user]

    def mean_cf(neigh: np.ndarray) -> float:
        if len(neigh) == 0:
            return 0.0
        total = sum(_user_cf(g.ids[int(j)], dataset, config) for j in neigh)
        return total / len(neigh)

    return np.array(
        [
            float(_user_cf(user, dataset, config)),
            mean_cf(g.in_neighbors(i)),
            mean_cf(g.out_neighbors(i)),
        ]
    )


def bin_histogram(user: str, scores: ScoreTable, k: int) -> np.ndarray:
    """Counts of the user's scores over k equal bins of [0, 1]."""
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    vals = scores.scores(user)
    out = np.zeros(k, dtype=np.int64)
    for v in vals:
        out[min(int(math.floor(v * k)), k - 1)] += 1
    return out


def quantile_histogram(user: str, scores: ScoreTable, k: int) -> np.ndarray:
    """Counts over k equal bins spanning the user's own [min, max] score range.

    All posts land in bin 0 when the range is degenerate (min == max); a
    registered zero-post user yields the all-zero vector.
    """
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    vals = scores.scores(user)
    out = np.zeros(k, dtype=np.int64)
    if len(vals) == 0:
        return out
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        out[0] = len(vals)
        return out
    for v in vals:
        out[min(int(math.floor((v - lo) / (hi - lo) * k)), k - 1)] += 1
    return out


def softmax(v: np.ndarray) -> np.ndarray:
    """Exp-normalize with max subtraction; safe for large entries."""
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(v - v.max())
    return e / e.sum()


# -- vectorized whole-dataset machinery ---------------------------------------


def _scored_segments(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores of graph users, concatenated in node-index order.

    Returns (node_indices, offsets, values): user ``node_indices[j]`` owns
    ``values[offsets[j]:offsets[j + 1]]``.
    """
    g = dataset.graph
    rows = dataset.scores.rows_of(g.ids)
    nodes = np.flatnonzero(rows >= 0)
    offsets, values = dataset.scores.segments(rows[nodes])
    return nodes, offsets, values


def _segment_sums(flags: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    c = np.zeros(len(flags) + 1, dtype=np.int64)
    np.cumsum(flags, out=c[1:])
    return c[offsets[1:]] - c[offsets[:-1]]


def per_node_counts(dataset: Dataset, tau_t: float) -> tuple[np.ndarray, np.ndarray]:
    """(flagged-post count, total posts) per node, zeros for unscored users."""
    n = dataset.graph.node_count
    nodes, offsets, values = _scored_segments(dataset)
    counts = np.zeros(n, dtype=np.int64)
    posts = np.zeros(n, dtype=np.int64)
    if len(nodes):
        counts[nodes] = _segment_sums((values >= tau_t).astype(np.int64), offsets)
        posts[nodes] = np.diff(offsets)
    return counts, posts


def _relational_block(dataset: Dataset, config: AggregationConfig) -> np.ndarray:
    g = dataset.graph
    counts, _ = per_node_counts(dataset, config.tau_t)
    cf = (counts >= config.tau_fixed).astype(np.float64)
    out = np.zeros((g.node_count, 3), dtype=np.float64)
    out[:, 0] = cf
    in_deg = g.in_degrees()
    out_deg = g.out_degrees()
    with np.errstate(invalid="ignore", divide="ignore"):
        follower = np.where(in_deg > 0, g.neighbor_sums(cf, "in") / in_deg, 0.0)
        followee = np.where(out_deg > 0, g.neighbor_sums(cf, "out") / out_deg, 0.0)
    out[:, 1] = follower
    out[:, 2] = followee
    return out


def _histogram_chunk(
    offsets: np.ndarray,
    values: np.ndarray,
    k: int,
    kind: str,
    apply_softmax: bool,
    out: np.ndarray,
) -> None:
    """Fill ``out`` (n_chunk_users x k) with one histogram family."""
    n_users = len(offsets) - 1
    lengths = np.diff(offsets)
    if values.size == 0:
        return
    if kind == "bins":
        idx = np.floor(values * k)
    else:  # per-user score range
        starts = offsets[:-1][lengths > 0]
        mins = np.minimum.reduceat(values, starts)
        maxs = np.maximum.reduceat(values, starts)
        min_rep = np.zeros(len(lengths))
        span_rep = np.zeros(len(lengths))
        min_rep[lengths > 0] = mins
        span_rep[lengths > 0] = maxs - mins
        lo = np.repeat(min_rep, lengths)
        span = np.repeat(span_rep, lengths)
        with np.errstate(invalid="ignore", divide="ignore"):
            idx = np.floor((values - lo) / span * k)
        idx[~np.isfinite(idx)] = 0.0  # degenerate range: everything in bin 0
    idx = np.clip(idx.astype(np.int64), 0, k - 1)
    rows = np.repeat(np.arange(n_users, dtype=np.int64), lengths)
    hist = np.bincount(rows * k + idx, minlength=n_users * k).reshape(n_users, k)
    out[:] = hist.astype(np.float64)
    if apply_softmax:
        nonzero = lengths > 0
        block = out[nonzero]
        block -= block.max(axis=1, keepdims=True)
        np.exp(block, out=block)
        block /= block.sum(axis=1, keepdims=True)
        out[nonzero] = block


def _histogram_block(
    dataset: Dataset,
    config: AggregationConfig,
    kind: str,
    threads: int,
) -> np.ndarray:
    """Per-node histogram features (all nodes; unscored rows stay zero)."""
    g = dataset.graph
    k = config.k_bins
    nodes, offsets, values = _scored_segments(dataset)
    scored = np.zeros((len(nodes), k), dtype=np.float64)

    tasks = []
    for start in range(0, len(nodes), _CHUNK):
        stop = min(start + _CHUNK, len(nodes))
        sub_off = offsets[start : stop + 1] - offsets[start]
        sub_val = values[offsets[start] : offsets[stop]]
        tasks.append((sub_off, sub_val, scored[start:stop]))

    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(
                    _histogram_chunk, off, val, k, kind,
                    config.softmax_histograms, dst,
                )
                for off, val, dst in tasks
            ]
            for f in futures:
                f.result()
    else:
        for off, val, dst in tasks:
            _histogram_chunk(off, val, k, kind, config.softmax_histograms, dst)

    full = np.zeros((g.node_count, k), dtype=np.float64)
    if len(nodes):
        full[nodes] = scored
    return full


def build_features(
    dataset: Dataset,
    mode: str,
    config: AggregationConfig | None = None,
    threads: int = 1,
) -> FeatureMatrix:
    """Feature matrix for every user in the dataset, rows in node-index order.

    Output is independent of ``threads``: work is split into fixed-size
    chunks of users and each chunk writes a disjoint slice of the result.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of {MODES}")
    config = config or AggregationConfig()
    k = config.k_bins

    blocks: list[tuple[list[str], np.ndarray]] = []
    if mode == "fixed":
        counts, _ = per_node_counts(dataset, config.tau_t)
        blocks.append((["hate_post_count"], counts.astype(np.float64)[:, None]))
    if mode in ("relational", "multimodal"):
        names = ["cf_self", "cf_followers_mean", "cf_followees_mean"]
        blocks.append((names, _relational_block(dataset, config)))
    if mode in ("bins", "bins+quantiles", "multimodal"):
        names = [f"bin_{i}" for i in range(k)]
        blocks.append((names, _histogram_block(dataset, config, "bins", threads)))
    if mode in ("quantiles", "bins+quantiles", "multimodal"):
        names = [f"quantile_{i}" for i in range(k)]
        blocks.append((names, _histogram_block(dataset, config, "quantiles", threads)))

    schema = [name for names, _ in blocks for name in names]
    values = np.hstack([b for _, b in blocks])
    return FeatureMatrix(
        schema=schema, user_ids=list(dataset.graph.ids), values=values, mode=mode
    )

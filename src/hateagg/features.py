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

Binning convention: a score ``s`` lands
in bin ``floor(s * k)`` clipped to ``k - 1`` (half-open bins, last bin closed
at the top). Users with zero posts get all-zero feature rows; softmax is never
applied to an empty histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import InputError
from .ingest import Dataset
from .serialize import write_rows

__all__ = [
    "AggregationConfig",
    "FeatureMatrix",
    "MODES",
    "build_features",
    "per_node_counts",
]

MODES = ("fixed", "relational", "bins", "quantiles", "bins+quantiles", "multimodal")


def check_tau_t(tau_t: float) -> None:
    """InputError unless the post-level threshold lies in [0, 1] (NaN does not)."""
    if not (0.0 <= tau_t <= 1.0):
        raise InputError(f"tau_t must be in [0, 1], got {tau_t}")


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
        check_tau_t(self.tau_t)
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

    def to_csv(self, stream: IO[str]) -> None:
        stream.write("user_id," + ",".join(self.schema) + "\n")
        write_rows(stream, [self.user_ids], self.values)


def _segment_sums(flags: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    c = np.zeros(len(flags) + 1, dtype=np.int64)
    np.cumsum(flags, out=c[1:])
    return c[offsets[1:]] - c[offsets[:-1]]


def per_node_counts(dataset: Dataset, tau_t: float) -> tuple[np.ndarray, np.ndarray]:
    """(flagged-post count, total posts) per node, zeros for unscored users."""
    offsets = dataset.scores.offsets
    return _segment_sums(dataset.scores.values >= tau_t, offsets), np.diff(offsets)


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


def _histogram_block(
    dataset: Dataset, config: AggregationConfig, kind: str
) -> np.ndarray:
    """Per-node histogram features (all nodes; rows without posts stay zero)."""
    n = dataset.graph.node_count
    k = config.k_bins
    offsets, values = dataset.scores.offsets, dataset.scores.values
    lengths = np.diff(offsets)
    posted = lengths > 0
    if kind == "bins":
        idx = np.floor(values * k)
    else:  # per-user score range
        starts = offsets[:-1][posted]
        lo = np.zeros(len(lengths))
        span = np.zeros(len(lengths))
        lo[posted] = np.minimum.reduceat(values, starts)
        span[posted] = np.maximum.reduceat(values, starts) - lo[posted]
        with np.errstate(invalid="ignore", divide="ignore"):
            idx = np.floor(
                (values - np.repeat(lo, lengths)) / np.repeat(span, lengths) * k
            )
        idx[~np.isfinite(idx)] = 0.0  # degenerate range: everything in bin 0
    idx = np.clip(idx.astype(np.int64), 0, k - 1)
    rows = np.repeat(np.arange(n), lengths)
    out = np.bincount(rows * k + idx, minlength=n * k).reshape(n, k).astype(np.float64)
    if config.softmax_histograms:
        # row-wise, so each row's bytes do not depend on the other rows
        block = out[posted]
        block -= block.max(axis=1, keepdims=True)
        np.exp(block, out=block)
        block /= block.sum(axis=1, keepdims=True)
        out[posted] = block
    return out


def build_features(
    dataset: Dataset,
    mode: str,
    config: AggregationConfig | None = None,
) -> FeatureMatrix:
    """Feature matrix for every user in the dataset, rows in node-index order."""
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
        blocks.append((names, _histogram_block(dataset, config, "bins")))
    if mode in ("quantiles", "bins+quantiles", "multimodal"):
        names = [f"quantile_{i}" for i in range(k)]
        blocks.append((names, _histogram_block(dataset, config, "quantiles")))

    schema = [name for names, _ in blocks for name in names]
    values = np.hstack([b for _, b in blocks])
    return FeatureMatrix(
        schema=schema, user_ids=list(dataset.graph.ids), values=values, mode=mode
    )

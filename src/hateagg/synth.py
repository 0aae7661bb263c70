"""Synthetic follow networks with planted hateful communities.

The generator is the verification oracle for the whole pipeline: a directed
two-block stochastic block model (dense within blocks at ``p_in``, sparse
across at ``p_out``) where the first ``round(hate_fraction * n_users)``
users are planted hateful. Every scored user gets a uniform number of posts
in ``posts_per_user``; post scores come from ``Beta(score_dist_hate)`` for
hateful users and ``Beta(score_dist_normal)`` for normal users. The
``ambiguity`` knob is the probability that a hateful user's post is drawn
from the normal distribution instead, which models coded language that the
per-post classifier misses.

Randomness uses the Philox 4x64 counter-based bit generator, so a stream can
be reproduced from the algorithm name and the seed alone. Variates are drawn
in a fixed order: edges (block pairs HH, HN, NH, NN), label subsample, post
counts, ambiguity coins, hateful-score draws, normal-score draws.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .graph import SocialGraph
from .ingest import Dataset, ScoreTable

__all__ = ["SynthConfig", "user_ids", "planted_labels", "generate"]


@dataclass
class SynthConfig:
    n_users: int
    hate_fraction: float = 0.25
    p_in: float = 0.05
    p_out: float = 0.005
    posts_per_user: tuple[int, int] = (30, 60)
    score_dist_hate: tuple[float, float] = (8.0, 2.0)
    score_dist_normal: tuple[float, float] = (2.0, 8.0)
    ambiguity: float = 0.5
    seed: int = 0
    n_labeled: int | None = None  # None labels every user
    scores_only_labeled: bool = False

    def __post_init__(self) -> None:
        if self.n_users < 2:
            raise InputError("n_users must be >= 2")
        if not (0.0 < self.hate_fraction < 1.0):
            raise InputError("hate_fraction must be in (0, 1)")
        if not (1 <= self.n_hateful < self.n_users):
            raise InputError(
                "hate_fraction must plant at least one hateful and one normal user"
            )
        for name, p in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not (0.0 <= p <= 1.0):
                raise InputError(f"{name} must be in [0, 1]")
        lo, hi = self.posts_per_user
        if lo < 0 or hi < lo:
            raise InputError("posts_per_user must be an ascending pair of counts")
        for a, b in (self.score_dist_hate, self.score_dist_normal):
            if not all(x > 0 and math.isfinite(x) for x in (a, b)):
                raise InputError(f"Beta parameters must be finite and > 0, got {a},{b}")
        if not (0.0 <= self.ambiguity <= 1.0):
            raise InputError("ambiguity must be in [0, 1]")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.n_labeled is not None and not (1 <= self.n_labeled <= self.n_users):
            raise InputError("n_labeled must be in [1, n_users]")

    @property
    def n_hateful(self) -> int:
        return int(round(self.hate_fraction * self.n_users))

    def to_dict(self) -> dict:
        return asdict(self)


def user_ids(n: int) -> list[str]:
    """Zero-padded ids whose lexicographic order equals index order."""
    width = max(7, len(str(n - 1)))
    return [f"u{i:0{width}d}" for i in range(n)]


def planted_labels(config: SynthConfig) -> np.ndarray:
    """Ground-truth label per node index: the first block is hateful."""
    y = np.zeros(config.n_users, dtype=np.int64)
    y[: config.n_hateful] = 1
    return y


def _sample_distinct(rng: np.random.Generator, total: int, count: int) -> np.ndarray:
    """Uniform random count-subset of range(total) in first-seen order.

    Draws with replacement and keeps first occurrences until `count`
    distinct values exist; the prefix of first-seen values is a uniform
    subset, and the loop consumes the stream deterministically.
    """
    if count >= total:
        return np.arange(total, dtype=np.int64)
    seen = np.zeros(0, dtype=np.int64)
    while len(seen) < count:
        need = count - len(seen)
        batch = rng.integers(0, total, size=need + need // 8 + 16, dtype=np.int64)
        merged = np.concatenate([seen, batch])
        _, first = np.unique(merged, return_index=True)
        seen = merged[np.sort(first)]
    return seen[:count]


def _block_edges(
    rng: np.random.Generator, config: SynthConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Directed SBM edges; Binomial pair count then a distinct-pair sample."""
    m = config.n_hateful
    blocks = ((0, m), (m, config.n_users - m))
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for a, (a_off, a_size) in enumerate(blocks):
        for b, (b_off, b_size) in enumerate(blocks):
            p = config.p_in if a == b else config.p_out
            same = a == b
            total = a_size * (b_size - 1) if same else a_size * b_size
            if total <= 0 or p <= 0.0:
                continue
            count = int(rng.binomial(total, p))
            if count == 0:
                continue
            idx = _sample_distinct(rng, total, count)
            if same:
                i, r = idx // (b_size - 1), idx % (b_size - 1)
                j = r + (r >= i)  # skip the self-pair
            else:
                i, j = idx // b_size, idx % b_size
            srcs.append(i + a_off)
            dsts.append(j + b_off)
    if not srcs:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(srcs), np.concatenate(dsts)


def generate(config: SynthConfig) -> Dataset:
    """Draw a full dataset (graph, scores, labels) for the given config.

    Labels cover every user unless ``n_labeled`` subsamples them; scores
    cover every user unless ``scores_only_labeled`` restricts generation to
    the labeled subset (the large-scale regime). The score table holds one
    row per node, in node order, and unscored users own zero posts.
    Byte-identical output for equal configs.
    """
    rng = np.random.Generator(np.random.Philox(config.seed))
    n = config.n_users
    ids = user_ids(n)
    truth = planted_labels(config)

    src, dst = _block_edges(rng, config)
    graph = SocialGraph(ids, src, dst)

    if config.n_labeled is None:
        labeled_idx = np.arange(n)
    else:
        labeled_idx = np.sort(rng.permutation(n)[: config.n_labeled])

    scored_idx = labeled_idx if config.scores_only_labeled else np.arange(n)
    lo, hi = config.posts_per_user
    counts = rng.integers(lo, hi + 1, size=len(scored_idx))

    total_posts = int(counts.sum())
    post_is_hateful = np.repeat(truth[scored_idx] == 1, counts)
    n_hate_posts = int(post_is_hateful.sum())
    use_hate_dist = np.zeros(total_posts, dtype=bool)
    if n_hate_posts:
        coins = rng.random(n_hate_posts)
        use_hate_dist[post_is_hateful] = coins >= config.ambiguity
    a_h, b_h = config.score_dist_hate
    a_n, b_n = config.score_dist_normal
    values = np.where(
        use_hate_dist,
        rng.beta(a_h, b_h, size=total_posts),
        rng.beta(a_n, b_n, size=total_posts),
    )

    # one row per node; unscored nodes own zero posts
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[scored_idx + 1] = counts
    table = ScoreTable(graph.id_keys, np.cumsum(offsets), values)

    labels = np.full(n, -1, dtype=np.int8)
    labels[labeled_idx] = truth[labeled_idx]
    summary = {
        "users": n,
        "edges": graph.edge_count,
        "scored_users": len(scored_idx),
        "labeled_users": len(labeled_idx),
    }
    return Dataset(graph=graph, scores=table, labels=labels, discard_summary=summary)

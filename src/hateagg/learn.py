"""Logistic-regression training, stratified cross-validation, and metrics.

The classifier is deliberately dependency-free: full-batch gradient descent
with backtracking (Armijo) line search from a zero initialization, so a given
training set always produces the same model. Each line-search trial is one
objective-and-gradient evaluation, and the trial that passes the Armijo test
carries its loss and gradient over to the next step. Features are
standardized with statistics fitted on the training rows only; a
zero-variance column gets std 1, which makes its standardized values
constant zero and freezes its weight at the origin.

The loss is the mean negative log-likelihood plus an L2 penalty on the
weights (never the bias):

    L(w, b) = mean_i [ log(1 + exp(z_i)) - y_i * z_i ] + (lambda / 2) ||w||^2
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .degroot import DiffusionConfig, degroot_init, degroot_run
from .errors import DegenerateDataError, InputError
from .features import AggregationConfig, build_features, check_tau_t, per_node_counts
from .ingest import Dataset
from .serialize import dump_json

__all__ = [
    "LearnConfig",
    "LogRegModel",
    "EvalReport",
    "loss_and_gradient",
    "train_logreg",
    "predict_proba",
    "stratified_kfold",
    "metrics",
    "cross_validate",
    "cross_validate_features",
    "threshold_sweep",
]

METRIC_NAMES = ("precision", "recall", "f1", "roc_auc")

_MAX_ITERS = 10_000
_GRAD_TOL = 1e-7

# glibc's cexp rescales a real part above (DBL_MAX_EXP - 1) * ln 2 ~ 709.08,
# and its result then leaves libm exp's bits; such elements take math.exp
_CEXP_EXACT_MAX = 709.0


@dataclass
class LearnConfig:
    folds: int = 5
    seed: int = 0
    l2_lambda: float = 1.0
    decision_threshold: float = 0.5
    select_threshold: bool = False  # pick the threshold by train-fold F1

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise InputError("folds must be >= 2")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if not (self.l2_lambda >= 0 and math.isfinite(self.l2_lambda)):
            raise InputError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        if not (0.0 <= self.decision_threshold <= 1.0):
            raise InputError("decision_threshold must be in [0, 1]")


@dataclass
class LogRegModel:
    """Trained weights plus the standardization fitted on the training rows."""

    schema: list[str]
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    std: np.ndarray
    decision_threshold: float = 0.5
    n_iters: int = 0
    loss_history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": list(self.schema),
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "standardization": {
                "mean": [float(m) for m in self.mean],
                "std": [float(s) for s in self.std],
            },
            "decision_threshold": float(self.decision_threshold),
            "n_iters": int(self.n_iters),
        }


def _libm_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def expit(z: np.ndarray | float) -> np.ndarray | np.float64:
    """The logistic sigmoid ``1 / (1 + exp(-z))``, elementwise, as float64.

    On glibc, bit-identical to ``scipy.special.expit``, which takes the C
    library's ``exp``. numpy's float64 ``exp`` is its own SIMD kernel and
    differs from that in the last bit for some inputs; numpy's complex128
    ``exp`` calls the C library's ``cexp``, whose real part at a zero
    imaginary part is ``exp(x) * cos(0)``, i.e. ``exp(x)`` itself. NaN in
    gives NaN out.
    """
    t = np.negative(np.asarray(z, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.atleast_1d(np.exp(t.astype(np.complex128)).real)
    big = np.flatnonzero(t > _CEXP_EXACT_MAX)
    if big.size:
        e.flat[big] = [_libm_exp(x) for x in t.flat[big]]
    return (1.0 / (1.0 + e)).reshape(t.shape)[()]


def loss_and_gradient(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, lam: float
) -> tuple[float, np.ndarray, float]:
    """Regularized mean-NLL loss and its exact gradient at (w, b).

    The NLL term is the mean over examples; the L2 penalty applies to the
    weights only, never the bias.
    """
    z = X @ w + b
    n = len(y)
    # log(1 + e^z) - y z, evaluated stably
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * lam * float(w @ w)
    resid = (expit(z) - y) / n
    gw = X.T @ resid + lam * w
    gb = float(np.sum(resid))
    return loss, gw, gb


def train_logreg(
    features: np.ndarray,
    y: Sequence[int] | np.ndarray,
    config: LearnConfig | None = None,
    schema: list[str] | None = None,
) -> LogRegModel:
    """Fit the regularized logistic regression on the given rows.

    Deterministic: zero init, full-batch descent, Armijo backtracking, stop
    when the gradient max-norm (weights and bias) drops below ``_GRAD_TOL``
    or after ``_MAX_ITERS`` steps. Each backtracking trial calls
    :func:`loss_and_gradient` once; the loss and gradient of the trial that
    passes become the next iterate's, so a step costs one evaluation per
    trial.
    """
    config = config or LearnConfig()
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    schema = schema or [f"f{i}" for i in range(X.shape[1])]
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != len(y):
        raise InputError("feature rows and labels disagree in length")
    if not np.all(np.isfinite(X)):
        raise InputError("feature matrix contains non-finite values")
    n_pos = int(np.sum(y == 1))
    if n_pos == 0 or n_pos == len(y):
        raise DegenerateDataError("training labels contain a single class")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    Xs = (X - mean) / std

    lam = config.l2_lambda
    w = np.zeros(X.shape[1])
    b = 0.0
    loss, gw, gb = loss_and_gradient(Xs, y, w, b, lam)
    history = [loss]
    steps = 0

    while steps < _MAX_ITERS:
        gnorm = max(float(np.max(np.abs(gw))) if len(gw) else 0.0, abs(gb))
        if gnorm < _GRAD_TOL:
            break

        step = 1.0
        g2 = float(gw @ gw) + gb * gb
        for _ in range(60):
            w_new = w - step * gw
            b_new = b - step * gb
            trial = loss_and_gradient(Xs, y, w_new, b_new, lam)
            if trial[0] <= loss - 1e-4 * step * g2:
                break
            step *= 0.5
        else:
            break  # step underflow: gradient no longer improves the loss
        w, b = w_new, b_new
        loss, gw, gb = trial
        history.append(loss)
        steps += 1

    return LogRegModel(
        schema=list(schema),
        weights=w,
        bias=b,
        mean=mean,
        std=std,
        decision_threshold=config.decision_threshold,
        n_iters=steps,
        loss_history=history,
    )


def predict_proba(model: LogRegModel, x: np.ndarray) -> np.ndarray | float:
    """Sigmoid score(s) for one feature row or a matrix of rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != len(model.weights):
        raise InputError(
            f"feature length {x.shape[-1]} does not match schema length "
            f"{len(model.weights)}"
        )
    xs = (x - model.mean) / model.std
    z = xs @ model.weights + model.bias
    out = expit(z)
    return float(out) if np.ndim(out) == 0 else out


def stratified_kfold(
    y: Sequence[int] | np.ndarray, k: int, seed: int
) -> list[np.ndarray]:
    """k disjoint test folds with per-class counts balanced to within one.

    Each class is shuffled with a seeded generator and dealt round-robin;
    fold contents are sorted index arrays. Same seed, same folds.
    """
    y = np.asarray(y)
    n = len(y)
    if k < 2:
        raise InputError("k must be >= 2")
    if k > n:
        raise InputError(f"cannot split {n} examples into {k} folds")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        perm = rng.permutation(idx)
        for i in range(k):
            folds[i].append(perm[i::k])
    return [
        np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
        for parts in folds
    ]


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their ranks, as float64.

    The same float operations as ``scipy.stats.rankdata(x, method="average")``,
    so the ranks are bit-identical to it.
    """
    n = len(x)
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    is_start = np.ones(n, dtype=bool)
    is_start[1:] = sorted_x[:-1] != sorted_x[1:]
    starts = np.flatnonzero(is_start)
    counts = np.diff(starts, append=n)
    run_ranks = (starts + 1).astype(np.float64) + (counts.astype(np.float64) - 1) / 2
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(run_ranks, counts)
    return ranks


def metrics(
    y_true: Sequence[int] | np.ndarray,
    y_pred: Sequence[int] | np.ndarray,
    y_score: Sequence[float] | np.ndarray,
) -> dict:
    """Precision, recall, F1, and ROC AUC (ties count half).

    Zero-denominator conventions: precision is 0 with no predicted
    positives, F1 is 0 when precision + recall is 0. An evaluation set
    without both classes cannot be scored and raises.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    y_score = np.asarray(y_score, dtype=np.float64)
    if not (len(y_true) == len(y_pred) == len(y_score)):
        raise InputError("metric inputs disagree in length")
    if not np.all(np.isfinite(y_score)):
        raise InputError("scores must be finite")
    n_pos = int(np.sum(y_true == 1))
    n_neg = len(y_true) - n_pos
    if n_pos == 0:
        raise DegenerateDataError("no positive examples: recall undefined")
    if n_neg == 0:
        raise DegenerateDataError("no negative examples: ROC AUC undefined")

    tp = int(np.sum((y_pred == 1) & (y_true == 1)))
    fp = int(np.sum((y_pred == 1) & (y_true == 0)))
    fn = int(np.sum((y_pred == 0) & (y_true == 1)))
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0

    ranks = _average_ranks(y_score)
    pos_rank_sum = float(np.sum(ranks[y_true == 1]))
    auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    return {"precision": precision, "recall": recall, "f1": f1, "roc_auc": auc}


@dataclass
class EvalReport:
    """Per-fold metrics with mean and (population) std, plus the run config."""

    config: dict
    folds: list[dict]
    mean: dict
    std: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return dump_json(self.to_dict())


def _best_f1_threshold(y: np.ndarray, scores: np.ndarray) -> float:
    """Smallest threshold maximizing F1 of (scores >= t) on the given labels.

    Every distinct score is a candidate cutoff. One sort groups equal scores
    into runs; suffix counts at each run start give tp and fp for
    ``scores >= t`` (the single-pass ROC sweep, Fawcett 2006), so the cost
    is O(n log n). ``argmax`` keeps the first maximum, the smallest cutoff.
    Empty input returns 0.5.
    """
    scores = np.asarray(scores)
    if len(scores) == 0:
        return 0.5
    # stable, so which of two equal scores (0.0, -0.0) is returned never
    # depends on the sort algorithm
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    y = np.asarray(y)[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    tp = np.cumsum((y == 1)[::-1])[::-1][starts]
    fp = np.cumsum((y == 0)[::-1])[::-1][starts]
    fn = tp[0] - tp  # starts[0] == 0, so tp[0] counts every positive
    # same float operations and zero-denominator conventions as metrics()
    zeros = np.zeros(len(starts))
    p = np.divide(tp, tp + fp, out=zeros.copy(), where=tp + fp > 0)
    r = np.divide(tp, tp + fn, out=zeros.copy(), where=tp + fn > 0)
    f1 = np.divide(2 * p * r, p + r, out=zeros, where=p + r > 0)
    return float(s[starts[np.argmax(f1)]])


def _train_index(n: int, test_idx: np.ndarray) -> np.ndarray:
    """Sorted indices in range(n) that are not in the test fold."""
    train_mask = np.ones(n, dtype=bool)
    train_mask[test_idx] = False
    return np.flatnonzero(train_mask)


def _stratified_folds(y: np.ndarray, config: LearnConfig) -> list[np.ndarray]:
    if len(y) < 2 * config.folds:
        raise DegenerateDataError(
            f"need at least {2 * config.folds} labeled users for {config.folds} folds"
        )
    return stratified_kfold(y, config.folds, config.seed)


def _run_folds(eval_fold, folds) -> list[dict]:
    # one named call for every fold loop, so a tracer can time each fold
    return [eval_fold(f) for f in folds]


def _cv_report(
    y: np.ndarray,
    folds: list[np.ndarray],
    config: LearnConfig,
    run_config: dict,
    fit_fold: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]],
    select: bool,
) -> EvalReport:
    """Per-fold metrics with their mean and population std.

    ``fit_fold(train_idx)`` returns a scorer from row indices to scores. The
    cutoff is the train-fold F1 optimum when ``select`` is true, else
    ``config.decision_threshold``.
    """

    def eval_fold(test_idx: np.ndarray) -> dict:
        train_idx = _train_index(len(y), test_idx)
        score = fit_fold(train_idx)
        if select:
            thr = _best_f1_threshold(y[train_idx], score(train_idx))
        else:
            thr = config.decision_threshold
        scores = score(test_idx)
        pred = (scores >= thr).astype(np.int64)
        return metrics(y[test_idx], pred, scores)

    fold_metrics = _run_folds(eval_fold, folds)
    mean = {m: float(np.mean([f[m] for f in fold_metrics])) for m in METRIC_NAMES}
    std = {m: float(np.std([f[m] for f in fold_metrics])) for m in METRIC_NAMES}
    return EvalReport(config=run_config, folds=fold_metrics, mean=mean, std=std)


def cross_validate_features(
    X: np.ndarray,
    y: np.ndarray,
    config: LearnConfig,
    run_config: dict | None = None,
    schema: list[str] | None = None,
) -> EvalReport:
    """Stratified k-fold evaluation of the classifier on raw feature rows."""
    y = np.asarray(y, dtype=np.int64)
    folds = _stratified_folds(y, config)

    def fit_fold(train_idx: np.ndarray):
        model = train_logreg(X[train_idx], y[train_idx], config, schema=schema)
        return lambda rows: predict_proba(model, X[rows])

    return _cv_report(
        y, folds, config, run_config or {}, fit_fold, config.select_threshold
    )


def cross_validate(
    dataset: Dataset,
    mode: str,
    agg: AggregationConfig | None = None,
    config: LearnConfig | None = None,
    diffusion: DiffusionConfig | None = None,
) -> EvalReport:
    """Stratified k-fold evaluation of one aggregation mode on a dataset.

    Features are computed once for all users (neighbor flags derive from
    scores, not labels, so no information crosses fold boundaries); the
    model and its standardization are refitted per training fold. Mode
    "degroot" evaluates diffused beliefs with a per-fold threshold instead
    of a trained model.
    """
    agg = agg or AggregationConfig()
    config = config or LearnConfig()
    run_config = {"mode": mode, **asdict(agg), **asdict(config)}
    if mode == "degroot":
        diffusion = diffusion or DiffusionConfig()
        run_config.update(asdict(diffusion), threshold_selection="train_fold_f1")
        node_idx, y = dataset.labeled_indices()
        folds = _stratified_folds(y, config)  # raises before any diffusion step
        beliefs, _ = degroot_run(dataset.graph, degroot_init(dataset, agg, diffusion), diffusion)
        scores = beliefs[node_idx]
        # no trained model: every fold scores the same beliefs
        return _cv_report(
            y, folds, config, run_config, lambda _: scores.__getitem__, select=True
        )

    fm = build_features(dataset, mode, agg)
    node_idx, y = dataset.labeled_indices()
    if len(y) == 0:
        raise DegenerateDataError("dataset has no labeled users")
    X = fm.values[node_idx]
    return cross_validate_features(
        X, y, config, run_config=run_config, schema=fm.schema
    )


def threshold_sweep(
    dataset: Dataset,
    thresholds: Sequence[int],
    tau_t: float = 0.5,
) -> list[dict]:
    """Naive fixed-threshold classifier swept over user-level count cutoffs.

    For each cutoff t, every labeled user with at least t flagged posts is
    predicted hateful. ROC AUC uses the counts as scores and is therefore
    identical in every row.
    """
    thresholds = list(thresholds)
    if thresholds != sorted(thresholds):
        raise InputError("thresholds must be sorted ascending")
    if any(t < 1 for t in thresholds):
        raise InputError("thresholds must be >= 1")
    check_tau_t(tau_t)
    counts, _ = per_node_counts(dataset, tau_t)
    node_idx, y = dataset.labeled_indices()
    if len(y) == 0:
        raise DegenerateDataError("dataset has no labeled users")
    scores = counts[node_idx].astype(np.float64)
    rows = []
    for t in thresholds:
        pred = (scores >= t).astype(np.int64)
        m = metrics(y, pred, scores)
        rows.append({"threshold": int(t), **m})
    return rows

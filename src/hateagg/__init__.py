"""User-level hate-monger classification from per-post hate scores.

The library aggregates post-level classifier scores over each user's posting
history and ego network (fixed-threshold counts, relational neighbor
fractions, distributional histograms, and their multimodal concatenation),
trains a logistic regression on the aggregated features, evaluates it with
stratified cross-validation, and provides a belief-averaging diffusion
baseline plus a synthetic planted-community generator for verification.
"""

from .degroot import (
    DiffusionConfig,
    degroot_classify,
    degroot_init,
    degroot_run,
    degroot_step,
)
from .errors import DegenerateDataError, InputError
from .features import (
    MODES,
    AggregationConfig,
    FeatureMatrix,
    build_features,
)
from .graph import (
    ComponentCounts,
    EdgeList,
    GraphStats,
    SocialGraph,
    build_graph,
    clustering_coefficient,
    component_stats,
    graph_stats,
    largest_wcc,
    powerlaw_gamma,
    powerlaw_gamma_mle,
)
from .ingest import (
    BindPolicy,
    Dataset,
    ScoreTable,
    bind_dataset,
    parse_labels,
    parse_scores,
    read_edges,
    write_edges,
    write_labels,
    write_scores,
)
from .learn import (
    EvalReport,
    LearnConfig,
    LogRegModel,
    cross_validate,
    cross_validate_features,
    loss_and_gradient,
    metrics,
    predict_proba,
    stratified_kfold,
    threshold_sweep,
    train_logreg,
)
from .synth import SynthConfig, generate, planted_labels, user_ids

__version__ = "0.1.0"

__all__ = [
    "AggregationConfig",
    "BindPolicy",
    "ComponentCounts",
    "EdgeList",
    "Dataset",
    "DegenerateDataError",
    "DiffusionConfig",
    "EvalReport",
    "FeatureMatrix",
    "GraphStats",
    "InputError",
    "LearnConfig",
    "LogRegModel",
    "MODES",
    "ScoreTable",
    "SocialGraph",
    "SynthConfig",
    "bind_dataset",
    "build_features",
    "build_graph",
    "clustering_coefficient",
    "component_stats",
    "cross_validate",
    "cross_validate_features",
    "degroot_classify",
    "degroot_init",
    "degroot_run",
    "degroot_step",
    "generate",
    "graph_stats",
    "largest_wcc",
    "loss_and_gradient",
    "metrics",
    "parse_labels",
    "parse_scores",
    "planted_labels",
    "powerlaw_gamma",
    "powerlaw_gamma_mle",
    "predict_proba",
    "read_edges",
    "stratified_kfold",
    "threshold_sweep",
    "train_logreg",
    "user_ids",
    "write_edges",
    "write_labels",
    "write_scores",
    "__version__",
]

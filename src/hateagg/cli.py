"""Command-line surface binding the library into reproducible pipelines.

Subcommands: ``stats``, ``features``, ``train``, ``eval``, ``sweep``,
``diffuse``, ``synth``. Every run emits a config echo sufficient to
reproduce it: JSON outputs embed it under a "config" key, CSV outputs get a
``<out>.config.json`` sidecar. Identical inputs and flags produce
byte-identical outputs; ``--threads`` is accepted and ignored, since every
command runs on one thread.

Exit codes: 0 success, 2 invalid input or flags, 3 structurally degenerate
data (for example single-class labels).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np

from .degroot import DIRECTIONS, INITS, DiffusionConfig, degroot_init, degroot_run
from .errors import DegenerateDataError, InputError
from .features import MODES, AggregationConfig, build_features
from .graph import build_graph, graph_stats
from .ingest import (
    BindPolicy,
    Dataset,
    bind_dataset,
    parse_labels,
    parse_scores,
    read_edges,
    write_edges,
    write_labels,
    write_scores,
)
from .learn import METRIC_NAMES, LearnConfig, cross_validate, threshold_sweep, train_logreg
from .serialize import dump_json, json_line, write_rows
from .synth import SynthConfig, generate, planted_labels, user_ids

SWEEP_HEADER = "threshold," + ",".join(METRIC_NAMES)


def _parse_file(path: str, parser: Callable, what: str):
    # utf-8-sig drops a leading byte-order mark instead of folding it into the first id
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parser(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError:
        # the line number is worked out only here, from the raw bytes
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # line ends as universal newlines reads them: \r\n, \r and \n
            ends = (
                raw.count(b"\n", 0, exc.start)
                + raw.count(b"\r", 0, exc.start)
                - raw.count(b"\r\n", 0, exc.start)
            )
            line = ends + 1
            raise InputError(
                f"{what} file {path} line {line}: invalid UTF-8 ({exc.reason})"
            ) from exc
        raise


@contextmanager
def _output(path: str) -> Iterator[IO[str]]:
    """The text stream for an output path; ``-`` is stdout."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def _write_text(path: str, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def _write_config_sidecar(out: str, config: dict) -> None:
    # CSV outputs keep the reproducibility echo next to the data file
    if out != "-":
        _write_text(out + ".config.json", dump_json(config))


def _load_dataset(args) -> Dataset:
    # argparse enforces --labels where a subcommand requires it
    graph = build_graph(_parse_file(args.edges, read_edges, "edge"))
    scores = _parse_file(args.scores, parse_scores, "score")
    labels = _parse_file(args.labels, parse_labels, "label") if args.labels else None
    policy = BindPolicy(restrict_to_wcc=args.wcc_only, allow_zero_post_users=args.allow_zero_posts)
    dataset = bind_dataset(graph, scores, labels, policy)
    summary_line = json_line(dataset.discard_summary)
    if args.report:
        _write_text(args.report, summary_line + "\n")
    else:
        print(summary_line, file=sys.stderr)
    return dataset


def _agg_config(args) -> AggregationConfig:
    return AggregationConfig(
        tau_t=args.tau_t,
        tau_fixed=args.tau_fixed,
        k_bins=args.bins,
        softmax_histograms=not args.raw_histograms,
    )


def _learn_config(args, **cv) -> LearnConfig:
    """Fit settings shared by train and eval; ``cv`` carries eval's CV flags."""
    return LearnConfig(
        l2_lambda=args.l2_lambda,
        decision_threshold=args.decision_threshold,
        **cv,
    )


def _diffusion_config(args) -> DiffusionConfig:
    return DiffusionConfig(
        direction=args.direction,
        max_iters=args.max_iters,
        tol=args.tol,
        init=args.init,
    )


def _io_echo(args, *names: str) -> dict:
    echo: dict = {"subcommand": args.subcommand}
    for name in names:
        echo[name] = getattr(args, name, None)
    return echo


# -- subcommand implementations ----------------------------------------------


def cmd_stats(args) -> int:
    graph = build_graph(_parse_file(args.edges, read_edges, "edge"))
    stats = graph_stats(
        graph,
        k_min=args.k_min,
        continuity_correction=not args.no_continuity_correction,
    )
    payload = {
        "config": {
            **_io_echo(args, "edges"),
            "k_min": args.k_min,
            "continuity_correction": not args.no_continuity_correction,
        },
        **stats.to_dict(),
    }
    _write_text(args.out, dump_json(payload))
    return 0


def cmd_features(args) -> int:
    dataset = _load_dataset(args)
    agg = _agg_config(args)
    fm = build_features(dataset, args.mode, agg)
    with _output(args.out) as fh:
        fm.to_csv(fh)
    _write_config_sidecar(args.out, _feature_echo(args, agg))
    return 0


def _feature_echo(args, agg: AggregationConfig) -> dict:
    return {
        **_io_echo(args, "edges", "scores", "labels"),
        "mode": args.mode,
        **asdict(agg),
        "wcc_only": args.wcc_only,
    }


def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    agg = _agg_config(args)
    fm = build_features(dataset, args.mode, agg)
    node_idx, y = dataset.labeled_indices()
    if len(y) == 0:
        raise DegenerateDataError("no labeled users to train on")
    model = train_logreg(fm.values[node_idx], y, _learn_config(args), schema=fm.schema)
    payload = {
        "config": {
            **_feature_echo(args, agg),
            "l2_lambda": args.l2_lambda,
            "decision_threshold": args.decision_threshold,
        },
        "model": model.to_dict(),
    }
    _write_text(args.out, dump_json(payload))
    return 0


def _parse_thresholds(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad threshold list {text!r}: {exc}") from exc
    if not values:
        raise InputError("threshold list is empty")
    return values


def cmd_eval(args) -> int:
    diffusion = _diffusion_config(args)  # validated in every mode, used by degroot
    dataset = _load_dataset(args)
    report = cross_validate(
        dataset,
        args.mode,
        agg=_agg_config(args),
        config=_learn_config(
            args,
            folds=args.folds,
            seed=args.seed,
            select_threshold=args.select_threshold,
        ),
        diffusion=diffusion if args.mode == "degroot" else None,
    )
    report.config = {
        **_io_echo(args, "edges", "scores", "labels"),
        **report.config,
        "wcc_only": args.wcc_only,
    }
    _write_text(args.out, report.to_json())
    return 0


def cmd_sweep(args) -> int:
    dataset = _load_dataset(args)
    thresholds = _parse_thresholds(args.thresholds)
    rows = threshold_sweep(dataset, thresholds, tau_t=args.tau_t)
    values = np.array([[row[m] for m in METRIC_NAMES] for row in rows], dtype=np.float64)
    with _output(args.out) as fh:
        fh.write(SWEEP_HEADER + "\n")
        write_rows(fh, [[row["threshold"] for row in rows]], values)
    _write_config_sidecar(
        args.out,
        {
            **_io_echo(args, "edges", "scores", "labels"),
            "tau_t": args.tau_t,
            "thresholds": thresholds,
            "wcc_only": args.wcc_only,
        },
    )
    return 0


def cmd_diffuse(args) -> int:
    dataset = _load_dataset(args)
    config = _diffusion_config(args)
    agg = _agg_config(args)
    beliefs, log = degroot_run(dataset.graph, degroot_init(dataset, agg, config), config)
    with _output(args.out) as fh:
        fh.write("user_id,belief\n")
        write_rows(fh, [dataset.graph.ids], beliefs[:, None])
    if args.out != "-":
        _write_text(args.out + ".convergence.jsonl", "\n".join(map(json_line, log)) + "\n")
    _write_config_sidecar(
        args.out,
        {
            **_io_echo(args, "edges", "scores"),
            **asdict(config),
            "tau_t": args.tau_t,
            "tau_fixed": args.tau_fixed,
            "wcc_only": args.wcc_only,
            "iterations": len(log),
        },
    )
    return 0


def cmd_synth(args) -> int:
    config = SynthConfig(
        n_users=args.n,
        hate_fraction=args.hate_fraction,
        p_in=args.p_in,
        p_out=args.p_out,
        posts_per_user=(args.posts_min, args.posts_max),
        score_dist_hate=tuple(_parse_beta(args.beta_hate)),
        score_dist_normal=tuple(_parse_beta(args.beta_normal)),
        ambiguity=args.ambiguity,
        seed=args.seed,
        n_labeled=args.n_labeled,
        scores_only_labeled=args.scores_only_labeled,
    )
    dataset = generate(config)
    outdir = Path(args.out_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {outdir}: {exc}") from exc

    with open(outdir / "edges.csv", "w", encoding="utf-8") as fh:
        write_edges(dataset.graph, fh)
    with open(outdir / "scores.csv", "w", encoding="utf-8") as fh:
        write_scores(dataset.scores, fh)
    with open(outdir / "labels.csv", "w", encoding="utf-8") as fh:
        write_labels(dataset, fh)
    with open(outdir / "ground_truth.csv", "w", encoding="utf-8") as fh:
        write_rows(fh, [user_ids(config.n_users), planted_labels(config)], key_fmt="%s,%d")
    echo = {"subcommand": "synth", **config.to_dict(), "out_dir": str(outdir)}
    with open(outdir / "config.json", "w", encoding="utf-8") as fh:
        fh.write(dump_json(echo))
    return 0


def _parse_beta(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"expected 'a,b' Beta parameters, got {text!r}")
    try:
        return [float(parts[0]), float(parts[1])]
    except ValueError as exc:
        raise InputError(f"bad Beta parameters {text!r}: {exc}") from exc


# -- parser assembly -----------------------------------------------------------


def _add_input_flags(p, labels: str) -> None:
    p.add_argument("--edges", required=True, help="edge CSV: src,dst per line")
    p.add_argument("--scores", required=True, help="score CSV: user_id,post_id,score")
    p.add_argument(
        "--labels",
        required=(labels == "required"),
        default=None,
        help="label CSV: user_id,label with label in {0,1}",
    )
    p.add_argument(
        "--wcc-only",
        action="store_true",
        help="restrict to the largest weakly connected component",
    )
    p.add_argument(
        "--allow-zero-posts",
        action="store_true",
        help="accept labeled users that have no score records",
    )
    p.add_argument(
        "--report",
        default=None,
        help="write the bind discard summary JSON here instead of stderr",
    )


def _add_agg_flags(p) -> None:
    p.add_argument("--tau-t", type=float, default=0.5, help="post-level threshold")
    p.add_argument(
        "--tau-fixed", type=int, default=3, help="flagged-post count threshold"
    )
    p.add_argument("--bins", type=int, default=10, help="histogram bin count")
    p.add_argument(
        "--raw-histograms",
        action="store_true",
        help="skip softmax normalization of histogram blocks",
    )


def _add_learn_flags(p) -> None:
    p.add_argument("--l2-lambda", type=float, default=1.0, help="L2 penalty weight")
    p.add_argument(
        "--decision-threshold",
        type=float,
        default=0.5,
        help="probability cutoff for the positive class",
    )


def _add_cv_flags(p) -> None:
    p.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    p.add_argument("--seed", type=int, default=0, help="fold-assignment seed")
    p.add_argument(
        "--select-threshold",
        action="store_true",
        help="pick the decision threshold by train-fold F1 instead",
    )


def _add_diffusion_flags(p) -> None:
    p.add_argument(
        "--direction",
        choices=DIRECTIONS,
        default="out",
        help="neighbor set used in the averaging step",
    )
    p.add_argument("--max-iters", type=int, default=100, help="iteration cap")
    p.add_argument("--tol", type=float, default=1e-6, help="max-change stop tolerance")
    p.add_argument(
        "--init",
        choices=INITS,
        default="fraction",
        help="belief seeding: flagged-post fraction or naive classification",
    )


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_threads_flag(p) -> None:
    p.add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="accepted and ignored: every command runs on one thread",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hateagg",
        description="Classify hate-mongers by aggregating per-post hate scores "
        "over posting histories and ego networks.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(
            name,
            help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        p.set_defaults(func=func)
        return p

    p = add("stats", cmd_stats, "network summary of an edge file")
    p.add_argument("--edges", required=True, help="edge CSV: src,dst per line")
    p.add_argument("--k-min", type=int, default=1, help="power-law fit lower cutoff")
    p.add_argument(
        "--no-continuity-correction",
        action="store_true",
        help="use k_min instead of k_min - 1/2 in the power-law estimator",
    )
    p.add_argument("--out", default="-", help="output JSON path ('-' for stdout)")

    p = add("features", cmd_features, "export the per-user feature matrix")
    _add_input_flags(p, labels="optional")
    p.add_argument(
        "--mode", choices=MODES, default="multimodal", help="feature block selection"
    )
    _add_agg_flags(p)
    _add_threads_flag(p)
    p.add_argument("--out", required=True, help="output CSV path")

    p = add("train", cmd_train, "fit the classifier on all labeled users")
    _add_input_flags(p, labels="required")
    p.add_argument("--mode", choices=MODES, default="multimodal")
    _add_agg_flags(p)
    _add_learn_flags(p)
    _add_threads_flag(p)
    p.add_argument("--out", default="-", help="output JSON path ('-' for stdout)")

    p = add("eval", cmd_eval, "stratified cross-validated evaluation")
    _add_input_flags(p, labels="required")
    p.add_argument(
        "--mode",
        choices=MODES + ("degroot",),
        default="multimodal",
        help="feature block selection or diffusion baseline",
    )
    _add_agg_flags(p)
    _add_learn_flags(p)
    _add_cv_flags(p)
    _add_diffusion_flags(p)
    _add_threads_flag(p)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")

    p = add("sweep", cmd_sweep, "fixed-threshold sweep over count cutoffs")
    _add_input_flags(p, labels="required")
    p.add_argument("--tau-t", type=float, default=0.5, help="post-level threshold")
    p.add_argument(
        "--thresholds",
        default="1,3,10,50,100",
        help="comma-separated ascending count cutoffs",
    )
    p.add_argument("--out", required=True, help="output CSV path")

    p = add("diffuse", cmd_diffuse, "run the belief-averaging baseline")
    _add_input_flags(p, labels="optional")
    _add_agg_flags(p)
    _add_diffusion_flags(p)
    p.add_argument("--out", required=True, help="output beliefs CSV path")

    p = add("synth", cmd_synth, "generate a planted-community dataset")
    p.add_argument("--n", type=int, required=True, help="number of users")
    p.add_argument("--hate-fraction", type=float, default=0.25)
    p.add_argument("--p-in", type=float, default=0.05, help="within-block edge probability")
    p.add_argument("--p-out", type=float, default=0.005, help="cross-block edge probability")
    p.add_argument("--posts-min", type=int, default=30)
    p.add_argument("--posts-max", type=int, default=60)
    p.add_argument("--beta-hate", default="8,2", help="Beta a,b for hateful users")
    p.add_argument("--beta-normal", default="2,8", help="Beta a,b for normal users")
    p.add_argument(
        "--ambiguity",
        type=float,
        default=0.5,
        help="chance a hateful user's post uses the normal distribution",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--n-labeled", type=int, default=None, help="label only a random subset"
    )
    p.add_argument(
        "--scores-only-labeled",
        action="store_true",
        help="generate posts for labeled users only",
    )
    p.add_argument("--out-dir", required=True, help="directory for the dataset files")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

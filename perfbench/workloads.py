"""Workload definitions, input shaping and output checks for the benchmark.

A workload is a ``hateagg synth`` call that makes the input files, a seeded
reshaping of those files (row order, repeated edge lines), and a fixed
sequence of ``hateagg`` commands run against them. Every command reads the
inputs from ``../in/`` and writes its outputs into its own run directory
under fixed relative names, so the config echo in each output, and hence its
bytes, depend only on the workload and the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INPUTS = ("--edges", "../in/edges.csv", "--scores", "../in/scores.csv")
LABELS = ("--labels", "../in/labels.csv")
SCHEMA = (
    ["cf_self", "cf_followers_mean", "cf_followees_mean"]
    + [f"bin_{i}" for i in range(10)]
    + [f"quantile_{i}" for i in range(10)]
)
FOLDS = 5
METRIC_KEYS = ("precision", "recall", "f1", "roc_auc")


@dataclass(frozen=True)
class Command:
    """One ``hateagg`` call; ``key`` names its end-to-end time metric."""

    key: str
    argv: tuple[str, ...]
    out: str  # the output file the check reads

    def full_argv(self) -> list[str]:
        # the bind summary goes to a file so stderr carries only errors
        if self.argv[0] == "stats":
            return [*self.argv, "--out", self.out]
        return [*self.argv, "--out", self.out, "--report", f"{self.key}.bind.json"]


@dataclass(frozen=True)
class Workload:
    name: str
    n_users: int
    synth: tuple[str, ...]  # synth flags besides --n, --seed and --out-dir
    repeat_fraction: float  # share of edge lines written a second time
    commands: tuple[Command, ...]

    def synth_argv(self, seed: int, out_dir: str) -> list[str]:
        return [
            "synth", "--n", str(self.n_users), *self.synth,
            "--seed", str(seed), "--out-dir", out_dir,
        ]


def _sbm(n: int, edges_per_user: float, cross: float) -> tuple[str, ...]:
    # synth's default quarter/three-quarter blocks hold 0.625 n^2 ordered
    # pairs at p_in; the 0.375 n^2 cross-block pairs are drawn at cross * p_in
    p_in = edges_per_user / (0.625 * n)
    return ("--p-in", repr(p_in), "--p-out", repr(p_in * cross))


def _n_labeled(n: int, share: float) -> tuple[str, ...]:
    return ("--n-labeled", str(round(n * share)))


def build_workloads(load_n: int, graph_n: int, cv_n: int) -> dict[str, Workload]:
    """The three workloads at the given user counts (tests use small ones)."""
    return {
        "load": Workload(
            name="load",
            n_users=load_n,
            synth=(*_sbm(load_n, 10.0, 0.1), "--posts-min", "4", "--posts-max", "6",
                   *_n_labeled(load_n, 0.5)),
            repeat_fraction=0.05,
            commands=(
                Command("features", ("features", *INPUTS, *LABELS, "--mode", "multimodal"),
                        "features.csv"),
                Command("eval", ("eval", *INPUTS, *LABELS, "--mode", "multimodal"),
                        "eval.json"),
            ),
        ),
        "graph": Workload(
            name="graph",
            n_users=graph_n,
            # few cross-block edges: 100 DeGroot steps leave the blocks apart,
            # so the baseline's F1 is steady across seeds
            synth=(*_sbm(graph_n, 15.0, 0.02), "--posts-min", "1", "--posts-max", "3",
                   *_n_labeled(graph_n, 0.1)),
            repeat_fraction=0.0,
            commands=(
                Command("stats", ("stats", "--edges", "../in/edges.csv"), "stats.json"),
                Command("eval", ("eval", *INPUTS, *LABELS, "--mode", "degroot"),
                        "eval.json"),
                Command("diffuse", ("diffuse", *INPUTS, "--direction", "undirected"),
                        "diffuse.csv"),
            ),
        ),
        "cv": Workload(
            name="cv",
            n_users=cv_n,
            synth=(*_sbm(cv_n, 5.0, 0.1), "--posts-min", "5", "--posts-max", "10"),
            repeat_fraction=0.0,
            commands=(
                Command("eval", ("eval", *INPUTS, *LABELS, "--mode", "multimodal",
                                 "--select-threshold", "--threads", "2"), "eval.json"),
                Command("train", ("train", *INPUTS, *LABELS, "--mode", "multimodal"),
                        "train.json"),
            ),
        ),
    }


WORKLOADS = build_workloads(load_n=20_000, graph_n=14_000, cv_n=8_000)


# -- input shaping --------------------------------------------------------------


def _read_lines(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True)


def _write_shuffled(path: Path, lines: list[bytes], rng: np.random.Generator) -> None:
    order = rng.permutation(len(lines))
    path.write_bytes(b"".join([lines[i] for i in order.tolist()]))


def shape_inputs(workload: Workload, seed: int, synth_dir: Path, in_dir: Path) -> dict:
    """Write the synth output into ``in_dir`` in seeded random row order.

    Synth writes edges sorted by node index and scores grouped by user; real
    exports are neither, and the interning and CSR costs depend on it. The
    ``load`` workload also repeats a share of its edge lines. Returns the
    input sizes for the report.
    """
    rng = np.random.default_rng([seed, 0x5EED])  # apart from synth's Philox stream
    in_dir.mkdir(parents=True, exist_ok=True)
    edges = _read_lines(synth_dir / "edges.csv")
    distinct = len(edges)
    n_repeat = round(distinct * workload.repeat_fraction)
    if n_repeat:
        picks = rng.choice(distinct, size=n_repeat, replace=False)
        edges += [edges[i] for i in picks.tolist()]
    _write_shuffled(in_dir / "edges.csv", edges, rng)
    scores = _read_lines(synth_dir / "scores.csv")
    _write_shuffled(in_dir / "scores.csv", scores, rng)
    labels = _read_lines(synth_dir / "labels.csv")
    _write_shuffled(in_dir / "labels.csv", labels, rng)
    return {
        "bytes": sum((in_dir / f).stat().st_size for f in ("edges.csv", "scores.csv", "labels.csv")),
        "lines": len(edges) + len(scores) + len(labels),
        "edge_lines": len(edges),
        "score_rows": len(scores),
        "labels": len(labels),
        "nodes": workload.n_users,
        "edges": distinct,
    }


# -- output checks --------------------------------------------------------------


class CheckError(Exception):
    """An output failed its structural check."""


def _unit(x: float, what: str) -> None:
    if not (math.isfinite(x) and 0.0 <= x <= 1.0):
        raise CheckError(f"{what} = {x!r} outside [0, 1]")


def _csv_rows(path: Path, header: str, width: int, n_rows: int) -> list[list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"{path.name}: unexpected header")
    if len(lines) - 1 != n_rows:
        raise CheckError(f"{path.name}: {len(lines) - 1} rows, expected {n_rows}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise CheckError(f"{path.name} line {lineno}: {len(cells)} cells, expected {width}")
        try:
            values = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise CheckError(f"{path.name} line {lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise CheckError(f"{path.name} line {lineno}: non-finite value")
        rows.append(values)
    return rows


def _check_features(path: Path, n_users: int) -> None:
    _csv_rows(path, "user_id," + ",".join(SCHEMA), 1 + len(SCHEMA), n_users)


def _check_diffuse(path: Path, n_users: int) -> None:
    for (belief,) in _csv_rows(path, "user_id,belief", 2, n_users):
        _unit(belief, "belief")


def _check_eval(path: Path, n_users: int) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    if len(report["folds"]) != FOLDS:
        raise CheckError(f"eval: {len(report['folds'])} folds, expected {FOLDS}")
    for fold in report["folds"]:
        for key in METRIC_KEYS:
            _unit(fold[key], f"fold {key}")
    for key in METRIC_KEYS:
        _unit(report["mean"][key], f"mean {key}")


def _check_train(path: Path, n_users: int) -> None:
    model = json.loads(path.read_text(encoding="utf-8"))["model"]
    if model["schema"] != SCHEMA or len(model["weights"]) != len(SCHEMA):
        raise CheckError("train: model does not use the multimodal schema")
    if not all(math.isfinite(w) for w in [*model["weights"], model["bias"]]):
        raise CheckError("train: non-finite weight")


def _check_stats(path: Path, n_users: int) -> None:
    stats = json.loads(path.read_text(encoding="utf-8"))
    if not (1 <= stats["largest_wcc_nodes"] <= n_users):
        raise CheckError(f"stats: largest WCC of {stats['largest_wcc_nodes']} nodes")
    if not (0 <= stats["n_singletons"] < stats["n_components"]):
        raise CheckError("stats: singleton count not below the component count")
    _unit(stats["clustering_coefficient"], "clustering coefficient")
    gamma = stats["powerlaw_gamma"]
    if not (math.isfinite(gamma) and gamma > 1.0):
        raise CheckError(f"stats: power-law exponent {gamma!r}")


CHECKS = {
    "features": _check_features,
    "diffuse": _check_diffuse,
    "eval": _check_eval,
    "train": _check_train,
    "stats": _check_stats,
}


def digest(command: Command, run_dir: Path) -> str:
    """sha256 of a command's result.

    Data outputs are hashed byte for byte. Reports are hashed over their
    result fields only, so a report may gain fields (such as convergence
    facts) without failing the check, while any changed number does.
    """
    path = run_dir / command.out
    if command.key == "eval":
        report = json.loads(path.read_text(encoding="utf-8"))
        view = {
            "folds": [{k: f[k] for k in METRIC_KEYS} for f in report["folds"]],
            "mean": report["mean"],
            "std": report["std"],
        }
        data = json.dumps(view, sort_keys=True).encode()
    elif command.key == "train":
        model = json.loads(path.read_text(encoding="utf-8"))["model"]
        view = {k: model[k] for k in ("schema", "weights", "bias", "standardization",
                                      "decision_threshold")}
        data = json.dumps(view, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def check_output(
    workload: Workload, command: Command, run_dir: Path, expected: str | None
) -> str | None:
    """None if the command's output passes, else the reason it fails.

    The structural check always runs; where a digest was recorded for this
    workload and seed, the output must also match it.
    """
    path = run_dir / command.out
    try:
        CHECKS[command.key](path, workload.n_users)
        if expected is not None and digest(command, run_dir) != expected:
            raise CheckError(f"{command.out}: sha256 differs from the recorded digest")
    except CheckError as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{command.out}: unreadable ({type(exc).__name__}: {exc})"
    return None


def eval_scores(run_dir: Path) -> tuple[float, float]:
    """(mean F1, mean ROC AUC) from a run's eval report."""
    mean = json.loads((run_dir / "eval.json").read_text(encoding="utf-8"))["mean"]
    return float(mean["f1"]), float(mean["roc_auc"])


# -- recorded digests -----------------------------------------------------------

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def load_digests(workload: str, seed: int) -> dict[str, str]:
    """{command key: sha256} recorded for this workload and seed, or {}."""
    if not DIGESTS_FILE.exists():
        return {}
    table = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed), {})


def record_digests(workload: str, seed: int, digests: dict[str, str]) -> None:
    table = {}
    if DIGESTS_FILE.exists():
        table = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    table.setdefault(workload, {})[str(seed)] = digests
    ordered = {
        w: dict(sorted(table[w].items(), key=lambda kv: int(kv[0]))) for w in sorted(table)
    }
    DIGESTS_FILE.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")

#!/usr/bin/env python3
"""Benchmark of the hateagg command line: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload load --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the program under test is ``src/`` of the checkout that
holds this file. Each run makes its inputs with ``hateagg synth`` from the
seed, reshapes them (seeded row order, repeated edge lines), then repeats
the workload's command sequence until ``run_seconds`` from ``BENCHMARK.json``
have passed, every command a fresh process, and checks every output.
``--seconds`` is accepted only with that same value: the benchmark, not
the caller, sets the run length.

``--trace 0`` prints the end-to-end metrics: each command's wall time, the
sequence's wall time, the largest per-command max RSS, and the eval scores.
Command times are steadied against the host in two ways. A run reports
each command time as its mean over the run's passes, which is steadier from
run to run than their median. And each pass also times a reference process,
a fresh interpreter that imports hateagg's libraries (numpy, scipy) and
nothing of hateagg: on a shared host the speed of both drifts by tens of
percent over minutes, so every command time in the result is scaled by
``REFERENCE_S`` over the run's mean reference time. The values read as
seconds on a host where the reference takes ``REFERENCE_S``; the raw times
are printed in the table. ``setup_s`` is the raw median of the run's synth
calls.
``--trace 1`` runs the same sequence in-process through ``hateagg.cli.main``,
alternating traced and untraced passes, and prints the per-layer metrics
from the spans (see ``tracer.py``). Both print a human-readable report and,
as the last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Metric names, units and bounds live in ``BENCHMARK.json``.

Work files go to ``.bench_work/`` in the checkout; inputs and outputs are
removed when the run ends, the span file of a traced run stays.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from tracer import (
    Tracer, layer_metrics, layer_shares, median_metrics, percentile, synth_metrics,
    tail_percentile,
)
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC_FILE = ROOT / "BENCHMARK.json"

SETUP_REPS = 2  # synth calls per run; setup_s is their median
IMPORT_REPS = 3  # fresh-process imports per traced run
MIN_PASSES = 2  # sequence passes per run, even past run_seconds
STOP_AFTER_S = 140.0  # start no pass that would end later than this
KILL_AFTER_S = 170.0  # a run must end within 180 s

HATEAGG = [sys.executable, "-c", "from hateagg.cli import entrypoint; entrypoint()"]
REFERENCE = [sys.executable, "-c", "import numpy, scipy.sparse.csgraph, scipy.stats"]
REFERENCE_S = 1.6  # the reference's wall time on the host of perfbench/baseline.json
IMPORT_ONLY = [sys.executable, "-c", "import hateagg.cli"]
CMD_KEYS = ("features", "stats", "diffuse", "train")


def child_env() -> dict[str, str]:
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


# -- one child process ---------------------------------------------------------


@dataclass
class Outcome:
    status: int | None  # exit status; None if it was not started or was killed
    wall_s: float
    maxrss_mb: float


def execute(argv: list[str], cwd: Path, deadline: float) -> Outcome:
    """Run one command, timing it and reading its own max RSS from wait4.

    ``RUSAGE_CHILDREN`` is a high-water mark over every child so far, so the
    per-command value comes from the rusage of this child's own wait.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return Outcome(None, 0.0, 0.0)
    with open(cwd / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    killed = proc.returncode < 0
    return Outcome(None if killed else proc.returncode, wall, usage.ru_maxrss / 1024)


# -- accounting ----------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
        return problem is None

    @property
    def failed(self) -> int:
        return len(self.failures)


def command_problem(
    workload: Workload, cmd: wl.Command, status: int | None, run_dir: Path,
    expected: dict[str, str],
) -> str | None:
    if status != 0:
        return f"exit status {status}" if status is not None else "killed or not started"
    return wl.check_output(workload, cmd, run_dir, expected.get(cmd.key))


def summary(samples: list[float]) -> dict:
    """Median, quartiles, tail percentile and sample count of one metric."""
    n = len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if n > 1 else (samples[0],) * 3
    out = {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": n}
    tail = tail_percentile(n)
    if tail is not None:
        out[f"p{tail}"] = percentile(samples, tail)
    return out


def unit_of(name: str) -> str:
    """Unit of a metric, from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("ratio", "parallelism", "change", "f1", "auc")):
        return "1"
    return "count"


def print_table(title: str, rows: dict[str, list[float]]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':<32} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'tail':>16} "
          f"{'n':>4} {'mean':>12}")
    for name, samples in rows.items():
        unit = unit_of(name)
        if not samples:
            print(f"  {name:<32} {unit:<6} {'n/a':>12}")
            continue
        s = summary(samples)
        tail = next((f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p")), "-")
        print(f"  {name:<32} {unit:<6} {s['median']:>12.6g} {s['q1']:>12.6g} "
              f"{s['q3']:>12.6g} {tail:>16} {s['n']:>4} {statistics.fmean(samples):>12.6g}")


def more_passes(done: int, begin: float, last_pass: float, seconds: float,
                stop: float) -> bool:
    """Start another pass if the last one's length says it ends in time."""
    now = time.monotonic()
    if now + last_pass > stop:
        return False
    return done < MIN_PASSES or now + last_pass - begin <= seconds


# -- set-up --------------------------------------------------------------------


def setup(workload: Workload, seed: int, work: Path, reps: int, tally: Tally,
          deadline: float) -> tuple[list[float], dict]:
    """Make the inputs; returns the synth wall times and the input sizes."""
    walls = []
    for i in range(reps):
        out_dir = work / f"synth{i}"
        o = execute(HATEAGG + workload.synth_argv(seed, out_dir.name), work, deadline)
        problem = None
        if o.status != 0:
            problem = f"exit status {o.status}"
        elif not all((out_dir / f).is_file() for f in ("edges.csv", "scores.csv", "labels.csv")):
            problem = "missing output file"
        if tally.record(f"synth #{i}", problem):
            walls.append(o.wall_s)
    if len(walls) < reps:
        raise RuntimeError("hateagg synth failed; see " + str(work / "stderr.txt"))
    inputs = wl.shape_inputs(workload, seed, work / "synth0", work / "in")
    for i in range(reps):
        shutil.rmtree(work / f"synth{i}")
    return walls, inputs


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def print_inputs(workload: Workload, seed: int, inputs: dict, env: dict) -> None:
    print(f"workload {workload.name}  seed {seed}  "
          + "  ".join(f"{k} {v}" for k, v in env.items()))
    print("inputs   " + "  ".join(f"{k} {v}" for k, v in inputs.items()))
    print("commands " + " | ".join(" ".join(c.full_argv()) for c in workload.commands))


# -- end-to-end run (--trace 0) ------------------------------------------------


def run_plain(workload: Workload, seed: int, seconds: float, work: Path,
              tally: Tally, deadline: float, stop: float) -> tuple[dict, dict]:
    """Returns (metric -> value, digests of the first pass)."""
    setup_walls, inputs = setup(workload, seed, work, SETUP_REPS, tally, deadline)
    print_inputs(workload, seed, inputs, environment())
    expected = wl.load_digests(workload.name, seed)
    samples: dict[str, list[float]] = {"setup_s": setup_walls}
    for key in ("run_s", "eval_s", "rest_s", "peak_rss_mb", *(f"{k}_s" for k in CMD_KEYS),
                "reference_s"):
        samples[key] = []
    first: dict[str, str] = {}
    scores: list[tuple[float, float]] = []
    begin = time.monotonic()
    last_pass = 0.0
    passes = 0
    while more_passes(passes, begin, last_pass, seconds, stop):
        pass_start = time.monotonic()
        run_dir = work / f"pass{passes}"
        run_dir.mkdir()
        walls = {}
        rss = []
        for cmd in workload.commands:
            o = execute(HATEAGG + cmd.full_argv(), run_dir, deadline)
            # with no recorded digest, later passes must match the first one
            problem = command_problem(workload, cmd, o.status, run_dir, expected or first)
            if tally.record(f"pass {passes} {cmd.key}", problem):
                walls[cmd.key] = o.wall_s
                rss.append(o.maxrss_mb)
                if passes == 0:
                    first[cmd.key] = wl.digest(cmd, run_dir)
        if len(walls) == len(workload.commands):
            for key, wall in walls.items():
                samples[f"{key}_s"].append(wall)
            samples["run_s"].append(sum(walls.values()))
            samples["rest_s"].append(sum(walls.values()) - walls["eval"])
            samples["peak_rss_mb"].append(max(rss))
            scores.append(wl.eval_scores(run_dir))
        o = execute(REFERENCE, work, deadline)
        if tally.record(f"pass {passes} reference", None if o.status == 0 else f"exit {o.status}"):
            samples["reference_s"].append(o.wall_s)
        shutil.rmtree(run_dir)
        passes += 1
        last_pass = time.monotonic() - pass_start

    samples["eval_f1"] = [f1 for f1, _ in scores]
    samples["eval_roc_auc"] = [auc for _, auc in scores]
    samples["fail_ratio"] = [tally.failed / tally.attempted]
    print_table(f"end-to-end, {passes} passes, raw times", samples)
    if not samples["reference_s"]:
        raise RuntimeError("the reference process failed; see " + str(work / "stderr.txt"))
    scale = REFERENCE_S / statistics.fmean(samples["reference_s"])
    print(f"\ncommand times in the result: mean x {scale:.4f} (REFERENCE_S / mean reference_s)")
    values = {k: statistics.median(v) for k, v in samples.items() if v}
    values.update({k: statistics.fmean(v) * scale for k, v in samples.items()
                   if v and k in ("run_s", "eval_s", "rest_s", *(f"{c}_s" for c in CMD_KEYS))})
    return values, first


# -- traced run (--trace 1) ----------------------------------------------------


def import_hateagg():
    sys.path.insert(0, str(SRC))
    import hateagg.cli

    if not Path(hateagg.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported hateagg from {hateagg.cli.__file__}, not {SRC}")
    return hateagg.cli


def in_process_pass(cli, workload: Workload, run_dir: Path, tracer, label: str,
                    tally: Tally, expected: dict[str, str]) -> float:
    """One pass through ``cli.main``; returns the commands' summed wall time."""
    run_dir.mkdir()
    wall = 0.0
    previous = os.getcwd()
    os.chdir(run_dir)
    try:
        for cmd in workload.commands:
            status = None
            if tracer is not None:
                tracer.command = f"{label}:{cmd.key}"
                root = tracer.open("cli.main")
            start = time.perf_counter()
            try:
                status = cli.main(cmd.full_argv())
            except Exception:  # a crash fails the command, not the benchmark
                traceback.print_exc()
            finally:
                wall += time.perf_counter() - start
                if tracer is not None:
                    tracer.close(root)
            problem = command_problem(workload, cmd, status, run_dir, expected)
            tally.record(f"{label} {cmd.key}", problem)
    finally:
        os.chdir(previous)
    return wall


def feature_mode_timings(dataset) -> dict[str, float]:
    """Library build_features time per mode on the bound dataset."""
    from hateagg.features import build_features

    out = {}
    for mode in ("fixed", "relational", "bins", "quantiles"):
        start = time.perf_counter()
        build_features(dataset, mode)
        out[f"features.{mode}_s"] = time.perf_counter() - start
    return out


def out_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.iterdir()
               if p.is_file() and p.name != "stderr.txt")


def run_traced(workload: Workload, seed: int, seconds: float, work: Path,
               tally: Tally, deadline: float, stop: float) -> tuple[dict, dict]:
    """Returns (metric -> value, digests of the first pass)."""
    cli = import_hateagg()
    _, inputs = setup(workload, seed, work, 1, tally, deadline)
    print_inputs(workload, seed, inputs, environment())
    expected = wl.load_digests(workload.name, seed)
    tracer = Tracer()

    tracer.install()
    for target in tracer.missing:  # its layer metrics would silently read 0
        tally.record(f"wrap {target}", "attribute missing")
    tracer.command = "synth"
    root = tracer.open("cli.main")
    status = cli.main(workload.synth_argv(seed, str(work / "traced_synth")))
    tracer.close(root)
    tracer.uninstall()
    tally.record("traced synth", None if status == 0 else f"exit status {status}")
    shutil.rmtree(work / "traced_synth")
    synth = synth_metrics([s for s in tracer.spans if s.command == "synth"])

    begin = time.monotonic()  # the imports count towards the measuring window
    imports = []
    for _ in range(IMPORT_REPS):
        o = execute(IMPORT_ONLY, work, deadline)
        if tally.record("import hateagg.cli", None if o.status == 0 else f"exit {o.status}"):
            imports.append(o.wall_s)

    walls: dict[str, list[float]] = {"traced": [], "plain": []}
    per_pass: list[dict[str, float]] = []
    shares: list[dict[str, float]] = []
    first: dict[str, str] = {}
    passes = 0
    last_pass = 0.0
    while more_passes(passes, begin, last_pass, seconds, stop):
        pass_start = time.monotonic()
        order = ("traced", "plain") if passes % 2 == 0 else ("plain", "traced")
        for kind in order:
            run_dir = work / f"{kind}{passes}"
            label = f"{kind}{passes}"
            if kind == "traced":
                tracer.install()
            try:
                wall = in_process_pass(cli, workload, run_dir,
                                       tracer if kind == "traced" else None,
                                       label, tally, expected or first)
            finally:
                dataset = tracer.last.get("ingest.bind_dataset")
                tracer.uninstall()
            walls[kind].append(wall)
            if not first:
                first = {c.key: wl.digest(c, run_dir) for c in workload.commands
                         if (run_dir / c.out).is_file()}
            if kind == "traced":
                spans = [s for s in tracer.spans if s.command.startswith(label + ":")]
                metrics = layer_metrics(spans)
                metrics["cli.out_bytes"] = out_bytes(run_dir)
                if dataset is not None:
                    metrics.update(feature_mode_timings(dataset))
                per_pass.append(metrics)
                shares.append(layer_shares(spans, wall))
            shutil.rmtree(run_dir)
        passes += 1
        last_pass = time.monotonic() - pass_start

    write_spans(tracer, workload.name, seed)
    values = median_metrics(per_pass)
    values.update(synth)
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    values["trace.overhead_ratio"] = (
        statistics.median(walls["traced"]) / statistics.median(walls["plain"])
    )
    rows = {k: [m[k] for m in per_pass] for k in sorted(per_pass[0])}
    rows.update({k: [v] for k, v in sorted(synth.items())})
    rows.update({"cli.import_s": imports,
                 "trace.traced_wall_s": walls["traced"],
                 "trace.plain_wall_s": walls["plain"],
                 "trace.overhead_ratio": [values["trace.overhead_ratio"]],
                 "fail_ratio": [tally.failed / tally.attempted]})
    print_table(f"per layer, {passes} traced passes", rows)
    share = median_metrics(shares) if shares else {}
    print("\nself-time share of the traced pass, by layer: "
          + "  ".join(f"{k} {v:.1%}" for k, v in sorted(share.items())))
    print("purpose check: " + purpose_check(workload.name, share))
    return values, first


def purpose_check(name: str, share: dict[str, float]) -> str:
    """Whether the traced shares agree with what the workload is for."""
    if name == "load":
        part = share.get("group.load_path", 0) + share.get("features", 0) + share.get("cli", 0)
        return f"{'met' if part > 0.5 else 'NOT MET'}: load path + features + cli = {part:.1%} (> 50%)"
    if name == "graph":
        kern = share.get("group.kernels+degroot", 0)
        others = {k: share.get(k, 0) for k in ("learn", "features", "cli")}
        ok = all(kern > v for v in others.values())
        return (f"{'met' if ok else 'NOT MET'}: kernels + degroot = {kern:.1%} vs "
                + ", ".join(f"{k} {v:.1%}" for k, v in others.items()))
    learn = share.get("learn", 0)
    return f"{'met' if learn > 0.5 else 'NOT MET'}: learn = {learn:.1%} (> 50%)"


def write_spans(tracer, workload: str, seed: int) -> None:
    path = WORK / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.to_dict()) + "\n")
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


# -- entry point ---------------------------------------------------------------


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 record: bool) -> tuple[Tally, dict]:
    """Run one workload; returns the tally and the metric values."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    start = time.monotonic()
    tally = Tally()
    run = run_traced if trace else run_plain
    try:
        values, first = run(WORKLOADS[name], seed, seconds, work, tally,
                               start + KILL_AFTER_S, start + STOP_AFTER_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in tally.failures:
        print("FAILED " + failure)
    if record and not tally.failures:
        wl.record_digests(name, seed, first)
        print(f"recorded digests for {name} seed {seed}")
    return tally, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal BENCHMARK.json run_seconds, the measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this seed's output digests in digests.json")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child (see execute)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hateagg" / "cli.py").is_file():
        print(f"error: no hateagg sources at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"error: --seconds {args.seconds:g} differs from run_seconds {seconds} "
              "in BENCHMARK.json", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    attempted = failed = 0
    metrics = {}
    for name in names:
        tally, values = run_workload(name, args.seed, seconds, bool(args.trace),
                                     args.record_digests)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for m in declared:
            if m["name"] not in values:
                print(f"error: metric {m['name']} was not measured", file=sys.stderr)
                return 1
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

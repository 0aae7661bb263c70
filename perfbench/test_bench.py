"""Fast checks of the benchmark itself, on small versions of the workloads.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
import steady
import workloads as wl
from tracer import (
    Span, Tracer, layer_metrics, layer_shares, self_times, synth_metrics, union_length,
)

SEED = 3
SMALL = wl.build_workloads(load_n=1000, graph_n=600, cv_n=400)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Per workload: the same commands run as child processes and traced in-process."""
    cli = run.import_hateagg()
    out = {}
    for name, workload in SMALL.items():
        work = tmp_path_factory.mktemp(name)
        assert cli.main(workload.synth_argv(SEED, str(work / "synth"))) == 0
        wl.shape_inputs(workload, SEED, work / "synth", work / "in")
        plain = work / "plain"
        plain.mkdir()
        for cmd in workload.commands:
            o = run.execute(run.HATEAGG + cmd.full_argv(), plain, time.monotonic() + 120)
            assert o.status == 0, (plain / "stderr.txt").read_text()
        tracer = Tracer()
        tracer.install()
        tally = run.Tally()
        try:
            run.in_process_pass(cli, workload, work / "traced", tracer, "t", tally, {})
        finally:
            tracer.uninstall()
        assert tally.failures == []
        out[name] = (workload, plain, work / "traced", tracer)
    return out


def _outputs(run_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "stderr.txt"}


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_and_untraced_outputs_are_byte_identical(passes, name):
    workload, plain, traced, _ = passes[name]
    plain_out, traced_out = _outputs(plain), _outputs(traced)
    assert sorted(plain_out) == sorted(traced_out)
    assert {c.out for c in workload.commands} <= set(plain_out)
    for fname, data in plain_out.items():
        assert traced_out[fname] == data, fname


@pytest.mark.parametrize("name", list(SMALL))
def test_outputs_pass_their_checks(passes, name):
    workload, plain, _, _ = passes[name]
    for cmd in workload.commands:
        assert run.command_problem(workload, cmd, 0, plain, {}) is None


def _fail_ratio(workload, run_dir, status, expected) -> float:
    tally = run.Tally()
    for cmd in workload.commands:
        tally.record(cmd.key, run.command_problem(workload, cmd, status, run_dir, expected))
    return tally.failed / tally.attempted


def test_corrupted_output_raises_fail_ratio(passes, tmp_path):
    workload, plain, _, _ = passes["load"]
    recorded = {c.key: wl.digest(c, plain) for c in workload.commands}
    assert _fail_ratio(workload, plain, 0, recorded) == 0.0

    # one changed digit keeps the structure but not the recorded digest
    bad = tmp_path / "digit"
    shutil.copytree(plain, bad)
    lines = (bad / "features.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "0.5" if cells[1] != "0.5" else "0.25"
    lines[1] = ",".join(cells)
    (bad / "features.csv").write_text("\n".join(lines) + "\n")
    assert _fail_ratio(workload, bad, 0, recorded) == 0.5
    assert _fail_ratio(workload, bad, 0, {}) == 0.0

    # without a digest, the structural check still catches a missing row
    (bad / "features.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert _fail_ratio(workload, bad, 0, {}) == 0.5

    # an eval mean outside [0, 1] and a non-zero exit both count
    report = json.loads((bad / "eval.json").read_text())
    report["mean"]["f1"] = 1.5
    (bad / "eval.json").write_text(json.dumps(report))
    assert _fail_ratio(workload, bad, 0, {}) == 1.0
    assert _fail_ratio(workload, plain, 2, {}) == 1.0


def test_report_digest_ignores_added_fields(passes, tmp_path):
    workload, plain, _, _ = passes["cv"]
    grown = tmp_path / "grown"
    shutil.copytree(plain, grown)
    report = json.loads((grown / "eval.json").read_text())
    report["folds"][0]["n_iters"] = 7
    (grown / "eval.json").write_text(json.dumps(report, indent=3))
    eval_cmd = workload.commands[0]
    assert wl.digest(eval_cmd, grown) == wl.digest(eval_cmd, plain)


def test_digests_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "DIGESTS_FILE", tmp_path / "digests.json")
    assert wl.load_digests("load", 7) == {}
    wl.record_digests("load", 7, {"features": "ab"})
    wl.record_digests("load", 2, {"features": "cd"})
    assert wl.load_digests("load", 7) == {"features": "ab"}
    assert list(json.loads((tmp_path / "digests.json").read_text())["load"]) == ["2", "7"]


def test_metric_names_are_well_formed(passes):
    spec = json.loads(run.SPEC_FILE.read_text())
    declared = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    _, _, _, tracer = passes["cv"]
    computed = [*layer_metrics(tracer.spans), *synth_metrics([])]
    for name in [*declared, *computed, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64
    assert len(declared) == len(set(declared))
    for key in ("end_to_end", "per_layer"):
        for metric in spec[key]:
            assert metric["unit"] == run.unit_of(metric["name"]), metric


def test_traced_pass_measures_every_layer(passes):
    spec = json.loads(run.SPEC_FILE.read_text())
    extra = {"cli.import_s", "cli.out_bytes", "trace.overhead_ratio",
             "features.fixed_s", "features.relational_s", "features.bins_s",
             "features.quantiles_s", *synth_metrics([])}
    for name, (_, _, _, tracer) in passes.items():
        assert tracer.missing == [], name
        metrics = layer_metrics(tracer.spans)
        assert {m["name"] for m in spec["per_layer"]} - extra <= set(metrics)
        shares = layer_shares(tracer.spans, sum(
            s.duration for s in tracer.spans if s.name == "cli.main"))
        assert 0.99 < sum(v for k, v in shares.items() if not k.startswith("group.")) < 1.01
        assert metrics["learn.cv_self_s"] <= metrics["learn.cv_s"], name


def test_fold_threads_keep_their_own_span_stacks(passes):
    # cv runs its folds on two threads: each fold span hangs off the fold
    # runner, each fit off its own thread's fold, and no self time is negative
    _, _, _, tracer = passes["cv"]
    by_id = {s.id: s for s in tracer.spans}
    folds = [s for s in tracer.spans if s.name == "learn.fold"]
    assert len(folds) == wl.FOLDS
    assert {by_id[s.parent].name for s in folds} == {"learn._run_folds"}
    for fit in (s for s in tracer.spans if s.name == "learn.train_logreg"):
        parent = by_id[fit.parent]
        assert parent.name in ("learn.fold", "cli.cmd_train")
        assert parent.thread == fit.thread
    assert min(self_times(tracer.spans).values()) >= 0.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    def span(i, parent, start, end):
        s = Span(i, f"s{i}", parent, "c", start)
        s.end = end
        return s

    spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 6.0), span(3, 1, 4.0, 8.0)]
    assert self_times(spans) == {1: 3.0, 2: 5.0, 3: 4.0}
    assert union_length([(4.0, 8.0), (1.0, 6.0), (2.0, 3.0), (9.0, 10.0)]) == 8.0


def test_overlapping_folds_count_their_self_time_once_and_waiting_is_not_busy():
    # two fold threads that only wait: the folds' self time is their shared
    # wall interval, not its double, and their CPU time is near zero
    tracer = Tracer()
    cv = tracer.open("learn.cross_validate")
    runner = tracer.open("learn._run_folds")
    barrier = threading.Barrier(2, timeout=10)

    def fold():
        span = tracer.open("learn.fold")
        barrier.wait()
        time.sleep(0.2)
        tracer.close(span)

    with ThreadPoolExecutor(max_workers=2) as pool:
        for f in [pool.submit(fold) for _ in range(2)]:
            f.result(timeout=10)
    tracer.close(runner)
    tracer.close(cv)
    metrics = layer_metrics(tracer.spans)
    assert 0.2 <= metrics["learn.cv_self_s"] <= metrics["learn.cv_s"]
    assert metrics["learn.fold_parallelism"] < 0.25


def test_worker_spans_take_the_submitting_span_as_parent():
    tracer = Tracer()
    root = tracer.open("root")
    barrier = threading.Barrier(2, timeout=10)

    def work():
        span = tracer.open("work")
        barrier.wait()  # both workers hold an open span at once
        tracer.close(span)

    with ThreadPoolExecutor(max_workers=2) as pool:
        for f in [pool.submit(work) for _ in range(2)]:
            f.result(timeout=10)
    tracer.close(root)
    work_spans = [s for s in tracer.spans if s.name == "work"]
    assert [s.parent for s in work_spans] == [root.id, root.id]
    assert len({s.thread for s in work_spans}) == 2


def test_steadiness_compare_flags_wide_and_worse_sets():
    spec = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "eval_f1", "unit": "1", "better": "higher", "bound": 0.05},
    ]}
    steady_a = {"load": {"setup_s": [1.0] * 4, "run_s": [1.0, 1.01, 0.99, 1.0],
                         "eval_f1": [0.9] * 4}}
    slower = {"load": {"setup_s": [1.0] * 4, "run_s": [1.3, 1.31, 1.29, 1.3],
                       "eval_f1": [0.9] * 4}}
    wide = {"load": {"setup_s": [0.5, 1.0, 1.5, 2.0], "run_s": [0.5, 1.0, 1.5, 2.0],
                     "eval_f1": [0.8] * 4}}
    verdicts = lambda lines: [line.split()[-1] for line in lines[1:]]
    assert verdicts(steady.compare(steady_a, steady_a, spec)) == ["ok", "ok", "ok"]
    assert verdicts(steady.compare(steady_a, slower, spec)) == ["ok", "worse", "ok"]
    assert verdicts(steady.compare(steady_a, wide, spec)) == ["unresolved", "unresolved", "worse"]


def test_run_length_comes_from_the_spec():
    seconds = json.loads(run.SPEC_FILE.read_text())["run_seconds"]
    assert run.main(["--workload", "load", "--seed", "0", "--seconds", str(seconds + 1)]) == 2

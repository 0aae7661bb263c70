#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree within the bounds?

    python3 perfbench/steady.py run --workloads load,graph,cv --seeds 1-10 --out a.jsonl
    python3 perfbench/steady.py run --workloads load,graph,cv --seeds 11-20 --out b.jsonl
    python3 perfbench/steady.py compare a.jsonl b.jsonl

``run`` calls ``run.py --trace 0`` once per workload and seed and appends
``{"workload", "seed", "result"}`` per run to the output file. ``compare``
reports, per workload and end-to-end metric, each set's median and its
spread: the distance between the first and third quartiles as a share of
the median. A metric is ``unresolved`` when either set's spread exceeds the
metric's bound, and ``worse`` when the second set's median is worse than
the first's by more than the bound. The exit status is 0 only when every
metric is ``ok``. Run length is ``run_seconds`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_FILE = HERE.parent / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def cmd_run(args) -> int:
    status = 0
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--trace", "0"]
                proc = subprocess.run(argv, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                          file=sys.stderr)
                    status = 1
                    continue
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    return status


def load_set(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, one value per run."""
    runs: dict[str, dict[str, list[float]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        per_metric = runs.setdefault(record["workload"], {})
        for name, metric in record["result"]["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def compare(first: dict, second: dict, spec: dict) -> list[str]:
    """Report lines; the verdict is the last word of each metric line."""
    lines = [f"{'workload':<8} {'metric':<14} {'bound':>6} {'median A':>11} {'spread A':>9} "
             f"{'median B':>11} {'spread B':>9} {'change':>8}  verdict"]
    for workload in sorted(first):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values_a = first[workload].get(name)
            values_b = second.get(workload, {}).get(name)
            if not values_a or not values_b:
                lines.append(f"{workload:<8} {name:<14} missing")
                continue
            (med_a, spr_a), (med_b, spr_b) = spread(values_a), spread(values_b)
            change = (med_b - med_a) / med_a
            worse = change > bound if metric["better"] == "lower" else -change > bound
            verdict = "unresolved" if max(spr_a, spr_b) > bound else "worse" if worse else "ok"
            lines.append(f"{workload:<8} {name:<14} {bound:>6.3f} {med_a:>11.5g} {spr_a:>9.3f} "
                         f"{med_b:>11.5g} {spr_b:>9.3f} {change:>+8.3f}  {verdict}")
    return lines


def cmd_compare(args) -> int:
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    lines = compare(load_set(args.first), load_set(args.second), spec)
    print("\n".join(lines))
    return 0 if all(line.endswith("  ok") for line in lines[1:]) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run a set of seeds and append the results")
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", required=True, help="seed list such as 1-10 or 1,4,7")
    p.add_argument("--out", required=True, help="JSONL file to append to")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="compare two sets of runs")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

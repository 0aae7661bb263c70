"""Golden output bytes of the CLI on one fixed synthetic dataset.

The sha256 pins of the scores, features and beliefs files were recorded
before the CSV writer renders values by block dictionary; those of the
sweep CSV and of the DeGroot eval result were recorded before the sweep
rows went through ``write_rows`` and the beliefs became plain arrays. So any
change to the bytes a command writes (float spelling, special values, row or
block layout) fails here. The dataset has 5,000 users, so every file spans
more than one 4096-row block.

The feature and belief values go through ``np.exp``, whose last bit can
depend on the SIMD level numpy dispatches to; CI prints
``numpy.show_runtime()`` so a failure on another host names it.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from hateagg.cli import main
from hateagg.learn import METRIC_NAMES

SYNTH_ARGV = [
    "synth", "--n", "5000", "--hate-fraction", "0.3",
    "--p-in", "0.004", "--p-out", "0.0004",
    "--posts-min", "0", "--posts-max", "4",
    "--seed", "11", "--n-labeled", "500",
]

# synth's score file: one distinct double per row, two-key "%s,p%d" rows
SCORES_SHA256 = "91525ef2f07cff22a87f328277950b5e71fff83f383cdf65a4fcdb893795609a"
# features --mode multimodal: 23 columns, 87 distinct doubles over 115,000 cells
FEATURES_SHA256 = "dbfa940e31df83d7c0a2ca2330f7ffb944734794d3a5683610d66a383e1b6968"
# diffuse: one belief per user, all 5,000 distinct
BELIEFS_SHA256 = "ea9dfd7783ffcd808afafd578745ac22d46cddebd2ca34a335511536c3ffb6bc"
# sweep: the count rule over four cutoffs, one key column plus four metrics
SWEEP_SHA256 = "527e2972d4187b03b8bb85b7e4f7e7628aeac5716b7fa19d54490eb7130662b6"
# eval --mode degroot: folds, mean and std only, hashed as perfbench hashes them
DEGROOT_EVAL_SHA256 = "e6ab6ed3f1792ce457548b13004136ddb8c3a40bf3b3946c41c3ac96fb46aac6"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main([*SYNTH_ARGV, "--out-dir", str(out)]) == 0
    return out


def inputs(data):
    return [
        "--edges", str(data / "edges.csv"),
        "--scores", str(data / "scores.csv"),
        "--allow-zero-posts",
    ]


def test_synth_scores_bytes(data):
    assert sha256(data / "scores.csv") == SCORES_SHA256


def test_features_multimodal_bytes(data, tmp_path, capsys):
    out = tmp_path / "features.csv"
    argv = ["features", *inputs(data), "--labels", str(data / "labels.csv")]
    assert main([*argv, "--mode", "multimodal", "--out", str(out)]) == 0
    assert sha256(out) == FEATURES_SHA256


def test_diffuse_bytes(data, tmp_path, capsys):
    out = tmp_path / "beliefs.csv"
    assert main(["diffuse", *inputs(data), "--out", str(out)]) == 0
    assert sha256(out) == BELIEFS_SHA256


def test_sweep_bytes(data, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", *inputs(data), "--labels", str(data / "labels.csv")]
    assert main([*argv, "--tau-t", "0.6", "--thresholds", "1,2,3,4", "--out", str(out)]) == 0
    assert sha256(out) == SWEEP_SHA256


def test_eval_degroot_result_fields(data, tmp_path, capsys):
    out = tmp_path / "eval.json"
    argv = ["eval", *inputs(data), "--labels", str(data / "labels.csv")]
    assert main([*argv, "--mode", "degroot", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    view = {
        "folds": [{k: f[k] for k in METRIC_NAMES} for f in report["folds"]],
        "mean": report["mean"],
        "std": report["std"],
    }
    digest = hashlib.sha256(json.dumps(view, sort_keys=True).encode()).hexdigest()
    assert digest == DEGROOT_EVAL_SHA256

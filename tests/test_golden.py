"""Golden output bytes of the CSV writers on one fixed synthetic dataset.

The sha256 pins were recorded from the CLI before the CSV writer renders
values by block dictionary, so any change to the bytes a command writes
(float spelling, special values, row or block layout) fails here. The
dataset has 5,000 users, so every file spans more than one 4096-row block.

The feature and belief values go through ``np.exp``, whose last bit can
depend on the SIMD level numpy dispatches to; CI prints
``numpy.show_runtime()`` so a failure on another host names it.
"""

from __future__ import annotations

import hashlib

import pytest

from hateagg.cli import main

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

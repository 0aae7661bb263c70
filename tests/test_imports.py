"""No command imports scipy or numpy.ma.

The library is numpy only: the graph kernels, the diffusion and the logistic
sigmoid (``hateagg.learn.expit``) are numpy, so scipy is a test-only
reference, not a runtime dependency. ``numpy.ma`` is no dependency either,
but ``np.unique`` with no optional output imports it (numpy 2.4 asks
``np.ma.is_masked``), so a stray call costs every command that makes it.

Every CLI call is a fresh process, so a module-level scipy import would be
paid on every command. These tests run each command in a fresh interpreter
and read which ``scipy`` and ``numpy.ma`` modules it left in
``sys.modules``. A second probe makes ``import scipy`` fail in that
interpreter and checks that the commands that fit a model still run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hateagg
from hateagg.cli import main

SRC = str(Path(hateagg.__file__).resolve().parent.parent)

PROBE = """
import json, sys
if sys.argv[2] == "poison":
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
from hateagg.cli import main
argv = json.loads(sys.argv[1])
code = main(argv) if argv else 0
print(json.dumps({
    "code": code,
    "loaded": sorted(
        m for m in sys.modules if m.split(".")[0] == "scipy" or (m + ".").startswith("numpy.ma.")
    ),
}))
"""


def probe(argv: list[str], mode: str) -> dict:
    """Run ``hateagg`` with ``argv`` in a fresh interpreter; its exit code and loaded modules.

    ``loaded`` lists the ``scipy`` and ``numpy.ma`` modules the run left in ``sys.modules``.
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv), mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return result


def loaded_modules(*argv: str) -> set[str]:
    return set(probe(list(argv), "plain")["loaded"])


SYNTH = [
    "synth", "--n", "30", "--hate-fraction", "0.5",
    "--p-in", "0.3", "--p-out", "0.05",
    "--posts-min", "3", "--posts-max", "6", "--seed", "1",
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main([*SYNTH, "--out-dir", str(out)]) == 0
    return out, [
        "--edges", str(out / "edges.csv"),
        "--scores", str(out / "scores.csv"),
        "--labels", str(out / "labels.csv"),
        "--allow-zero-posts",
    ]


def test_importing_the_cli_loads_no_scipy():
    assert loaded_modules() == set()


@pytest.mark.parametrize(
    "command",
    [
        ["features", "--mode", "multimodal"],
        ["diffuse"],
        ["eval", "--mode", "degroot"],
        ["sweep"],
    ],
    ids=["features", "diffuse", "eval-degroot", "sweep"],
)
def test_commands_without_scipy_kernels_load_none(inputs, command):
    out, flags = inputs
    assert loaded_modules(*command, *flags, "--out", str(out / "o")) == set()


def test_synth_loads_no_scipy(tmp_path):
    assert loaded_modules(*SYNTH, "--out-dir", str(tmp_path)) == set()


LOGISTIC = pytest.mark.parametrize(
    "command", [["train"], ["eval", "--mode", "multimodal"]], ids=["train", "eval"]
)


@LOGISTIC
def test_logistic_commands_load_no_scipy(inputs, command):
    out, flags = inputs
    assert loaded_modules(*command, *flags, "--out", str(out / "o")) == set()


@LOGISTIC
def test_logistic_commands_run_without_scipy(inputs, command):
    out, flags = inputs
    assert probe([*command, *flags, "--out", str(out / "o")], "poison")["code"] == 0


@pytest.mark.parametrize(
    "command",
    [
        ["stats"],
        ["features", "--mode", "multimodal", "--wcc-only"],
        ["eval", "--mode", "degroot", "--wcc-only"],
    ],
    ids=["stats", "features-wcc-only", "eval-degroot-wcc-only"],
)
def test_graph_kernel_commands_load_no_scipy(inputs, command):
    # components and clustering are numpy kernels; stats reads edges only
    out, flags = inputs
    flags = flags[:2] if command == ["stats"] else flags
    assert loaded_modules(*command, *flags, "--out", str(out / "o")) == set()

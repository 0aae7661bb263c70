from __future__ import annotations

import json
import threading

import pytest

from hateagg.cli import SWEEP_HEADER, main


def run(*argv):
    return main(list(argv))


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def triangle_edges(tmp_path):
    return write(tmp_path / "edges.csv", "a,b\nb,c\nc,a\n")


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    code = run(
        "synth", "--n", "40", "--hate-fraction", "0.5",
        "--p-in", "0.3", "--p-out", "0.05",
        "--posts-min", "5", "--posts-max", "10",
        "--ambiguity", "0.2", "--seed", "3",
        "--out-dir", str(out),
    )
    assert code == 0
    return out


def synth_args(synth_dir):
    return [
        "--edges", str(synth_dir / "edges.csv"),
        "--scores", str(synth_dir / "scores.csv"),
        "--labels", str(synth_dir / "labels.csv"),
        "--allow-zero-posts",
    ]


class TestStats:
    def test_triangle_statistics(self, triangle_edges, capsys):
        assert run("stats", "--edges", triangle_edges) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_components"] == 1
        assert payload["clustering_coefficient"] == 1.0
        assert payload["largest_wcc_nodes"] == 3
        assert payload["config"]["subcommand"] == "stats"

    def test_two_components(self, tmp_path, capsys):
        edges = write(tmp_path / "e.csv", "a,b\nc,d\n")
        assert run("stats", "--edges", edges) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_components"] == 2

    def test_output_file(self, triangle_edges, tmp_path):
        out = tmp_path / "stats.json"
        assert run("stats", "--edges", triangle_edges, "--out", str(out)) == 0
        assert json.loads(out.read_text())["largest_wcc_edges"] == 3

    def test_self_loop_names_the_line(self, tmp_path, capsys):
        edges = write(tmp_path / "e.csv", "a,b\nc,c\n")
        assert run("stats", "--edges", edges) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run("stats", "--edges", str(tmp_path / "nope.csv")) == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, line",
        [(b"a,b\nc,\xffd\n", 2), (b"\xef\xbb\xbfa,b\nb,c\n\nc,\xff\n", 4)],
    )
    def test_invalid_utf8_names_the_line(self, tmp_path, capsys, data, line):
        edges = tmp_path / "e.csv"
        edges.write_bytes(data)
        assert run("stats", "--edges", str(edges)) == 2
        err = capsys.readouterr().err
        assert f"{edges} line {line}: invalid UTF-8" in err

    @pytest.mark.parametrize("end", [b"\r", b"\r\n", b"\n"])
    def test_invalid_utf8_line_counts_every_line_ending(self, tmp_path, capsys, end):
        edges = tmp_path / "e.csv"
        edges.write_bytes(end.join([b"a,b", b"c,d", b"\xff,e", b""]))
        assert run("stats", "--edges", str(edges)) == 2
        assert f"{edges} line 3: invalid UTF-8" in capsys.readouterr().err
        # a parse error in the same layout names the same line
        edges.write_bytes(end.join([b"a,b", b"c,d", b"e,e", b""]))
        assert run("stats", "--edges", str(edges)) == 2
        assert "line 3: self-loop" in capsys.readouterr().err

    def test_byte_order_mark_is_not_part_of_an_id(self, tmp_path):
        edges = tmp_path / "e.csv"
        out = tmp_path / "stats.json"
        outputs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            edges.write_bytes(prefix + b"a,b\nb,a\n")
            assert run("stats", "--edges", str(edges), "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[1])["largest_wcc_nodes"] == 2


class TestArgumentHandling:
    def test_unknown_flag(self, triangle_edges, capsys):
        assert run("stats", "--edges", triangle_edges, "--sideways") == 2

    def test_missing_subcommand(self, capsys):
        assert run() == 2

    def test_help_exits_zero_and_lists_defaults(self, capsys):
        assert run("eval", "--help") == 0
        text = capsys.readouterr().out
        assert "--tau-t" in text
        assert "--l2-lambda" in text
        assert "default: 0.5" in text

    @pytest.mark.parametrize("command", ["features", "train", "eval"])
    @pytest.mark.parametrize("value", ["0", "-5", "two"])
    def test_bad_thread_count_rejected(self, synth_dir, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        code = run(command, *synth_args(synth_dir), "--threads", value, "--out", str(out))
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--select-threshold", "--threads", "2"],
            ["features", "--threads", "8"],
        ],
        ids=["eval", "features"],
    )
    def test_threads_flag_starts_no_thread(self, synth_dir, tmp_path, monkeypatch, argv):
        started = []
        original = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            original(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        out = tmp_path / "out"
        assert run(argv[0], *synth_args(synth_dir), *argv[1:], "--out", str(out)) == 0
        assert started == []

    def test_top_level_help(self, capsys):
        assert run("--help") == 0
        text = capsys.readouterr().out
        for name in ("stats", "features", "train", "eval", "sweep", "diffuse", "synth"):
            assert name in text


FEATURE_ECHO = [
    "subcommand", "edges", "scores", "labels", "mode",
    "tau_t", "tau_fixed", "k_bins", "softmax_histograms", "wcc_only",
]
CV_ECHO = [
    "subcommand", "edges", "scores", "labels", "mode",
    "tau_t", "tau_fixed", "k_bins", "softmax_histograms",
    "folds", "seed", "l2_lambda", "decision_threshold", "select_threshold",
]


class TestConfigEcho:
    """Every subcommand's reproducibility echo: its keys, in order."""

    @pytest.mark.parametrize(
        "argv, sidecar, keys",
        [
            (["features"], True, FEATURE_ECHO),
            (["train"], False, FEATURE_ECHO + ["l2_lambda", "decision_threshold"]),
            (["eval"], False, CV_ECHO + ["wcc_only"]),
            (
                ["eval", "--mode", "degroot"],
                False,
                CV_ECHO
                + ["direction", "max_iters", "tol", "init", "threshold_selection", "wcc_only"],
            ),
            (
                ["sweep"],
                True,
                ["subcommand", "edges", "scores", "labels", "tau_t", "thresholds", "wcc_only"],
            ),
            (
                ["diffuse"],
                True,
                [
                    "subcommand", "edges", "scores", "direction", "max_iters", "tol",
                    "init", "tau_t", "tau_fixed", "wcc_only", "iterations",
                ],
            ),
        ],
        ids=["features", "train", "eval", "eval-degroot", "sweep", "diffuse"],
    )
    def test_keys_in_order(self, synth_dir, tmp_path, capsys, argv, sidecar, keys):
        out = tmp_path / "out"
        assert run(argv[0], *synth_args(synth_dir), *argv[1:], "--out", str(out)) == 0
        if sidecar:
            echo = json.loads((tmp_path / "out.config.json").read_text())
        else:
            echo = json.loads(out.read_text())["config"]
        assert list(echo) == keys

    def test_stats_keys_in_order(self, triangle_edges, capsys):
        assert run("stats", "--edges", triangle_edges) == 0
        echo = json.loads(capsys.readouterr().out)["config"]
        assert list(echo) == ["subcommand", "edges", "k_min", "continuity_correction"]


class TestSynth:
    def test_writes_expected_files(self, synth_dir):
        for name in (
            "edges.csv", "scores.csv", "labels.csv", "ground_truth.csv", "config.json"
        ):
            assert (synth_dir / name).exists()
        config = json.loads((synth_dir / "config.json").read_text())
        assert config["n_users"] == 40
        assert config["seed"] == 3

    def test_repeat_run_is_byte_identical(self, synth_dir, tmp_path):
        other = tmp_path / "again"
        assert run(
            "synth", "--n", "40", "--hate-fraction", "0.5",
            "--p-in", "0.3", "--p-out", "0.05",
            "--posts-min", "5", "--posts-max", "10",
            "--ambiguity", "0.2", "--seed", "3",
            "--out-dir", str(other),
        ) == 0
        for name in ("edges.csv", "scores.csv", "labels.csv", "ground_truth.csv"):
            assert (synth_dir / name).read_bytes() == (other / name).read_bytes()

    def test_zero_hate_fraction_rejected(self, tmp_path, capsys):
        code = run(
            "synth", "--n", "40", "--hate-fraction", "0",
            "--out-dir", str(tmp_path / "x"),
        )
        assert code == 2
        assert "hate_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--seed", "-1"], "seed"),
            (["--beta-hate", "nan,2"], "Beta"),
            (["--beta-normal", "2,inf"], "Beta"),
        ],
        ids=["negative-seed", "nan-beta", "inf-beta"],
    )
    def test_bad_settings_exit_2(self, tmp_path, capsys, flags, key):
        out = tmp_path / "x"
        assert run("synth", "--n", "40", *flags, "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out.exists()

    def test_labels_match_ground_truth_prefix(self, synth_dir):
        truth = dict(
            line.split(",")
            for line in (synth_dir / "ground_truth.csv").read_text().splitlines()
        )
        labels = dict(
            line.split(",")
            for line in (synth_dir / "labels.csv").read_text().splitlines()
            if not line.startswith("user_id")
        )
        for uid, label in labels.items():
            assert truth[uid] == label


class TestFeatures:
    def test_matrix_csv_and_sidecar(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "feat.csv"
        code = run(
            "features", *synth_args(synth_dir), "--mode", "multimodal",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("user_id,cf_self,")
        assert len(lines) == 1 + 40
        config = json.loads((tmp_path / "feat.csv.config.json").read_text())
        assert config["mode"] == "multimodal"
        assert config["k_bins"] == 10

    def test_thread_count_invisible_in_output(self, synth_dir, tmp_path, capsys):
        outs = []
        for t in ("1", "2", "8"):
            out = tmp_path / f"feat{t}.csv"
            assert run(
                "features", *synth_args(synth_dir),
                "--threads", t, "--out", str(out),
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_discard_summary_on_stderr(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "feat.csv"
        assert run("features", *synth_args(synth_dir), "--out", str(out)) == 0
        summary = json.loads(capsys.readouterr().err)
        assert summary["users"] == 40

    def test_report_flag_redirects_summary(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "feat.csv"
        report = tmp_path / "bind.json"
        assert run(
            "features", *synth_args(synth_dir),
            "--report", str(report), "--out", str(out),
        ) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(report.read_text())["users"] == 40


class TestTrain:
    def test_model_json(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run(
            "train", *synth_args(synth_dir), "--mode", "fixed", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        model = payload["model"]
        assert model["schema"] == ["hate_post_count"]
        assert len(model["weights"]) == 1
        assert "mean" in model["standardization"]
        assert payload["config"]["l2_lambda"] == 1.0

    @pytest.mark.parametrize(
        "flag", [["--select-threshold"], ["--folds", "3"], ["--seed", "1"]]
    )
    def test_eval_only_flags_rejected(self, synth_dir, tmp_path, capsys, flag):
        # train fits once on every labeled user; these flags would do nothing
        out = tmp_path / "model.json"
        code = run(
            "train", *synth_args(synth_dir), "--mode", "fixed", *flag,
            "--out", str(out),
        )
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_l2_lambda_rejected(self, synth_dir, tmp_path, capsys, lam):
        out = tmp_path / "model.json"
        code = run("train", *synth_args(synth_dir), "--l2-lambda", lam, "--out", str(out))
        assert code == 2
        assert "l2_lambda" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_multimodal_report(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "eval.json"
        code = run(
            "eval", *synth_args(synth_dir), "--mode", "multimodal",
            "--select-threshold", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["folds"]) == 5
        assert set(payload["mean"]) == {"precision", "recall", "f1", "roc_auc"}
        assert payload["config"]["mode"] == "multimodal"
        assert payload["config"]["select_threshold"] is True

    def test_repeat_run_identical_bytes(self, synth_dir, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(
                "eval", *synth_args(synth_dir), "--mode", "relational",
                "--out", str(out),
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_degroot_mode(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "dg.json"
        code = run(
            "eval", *synth_args(synth_dir), "--mode", "degroot",
            "--direction", "undirected", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["threshold_selection"] == "train_fold_f1"

    def test_single_class_labels_gives_exit_3(self, synth_dir, tmp_path, capsys):
        labels = write(
            tmp_path / "labels.csv",
            "".join(f"u{i:07d},1\n" for i in range(20)),
        )
        code = run(
            "eval",
            "--edges", str(synth_dir / "edges.csv"),
            "--scores", str(synth_dir / "scores.csv"),
            "--labels", labels,
            "--mode", "fixed",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 3

    def test_bad_label_names_the_line(self, synth_dir, tmp_path, capsys):
        labels = write(tmp_path / "labels.csv", "u0000001,1\nu0000002,2\n")
        argv = [*synth_args(synth_dir)]
        argv[argv.index("--labels") + 1] = labels
        assert run("eval", *argv, "--out", str(tmp_path / "r.json")) == 2
        assert "labels line 2: label must be 0 or 1, got 2\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["eval", "--seed", "-1"], "seed"),
            (["eval", "--l2-lambda", "nan"], "l2_lambda"),
            (["eval", "--l2-lambda", "inf"], "l2_lambda"),
            (["eval", "--mode", "degroot", "--tol", "nan"], "tol"),
            # DeGroot settings are validated in every mode, not only degroot
            (["eval", "--mode", "fixed", "--tol", "nan"], "tol"),
            (["eval", "--mode", "multimodal", "--max-iters", "0"], "max_iters"),
            (["sweep", "--tau-t", "nan"], "tau_t must be in [0, 1], got nan"),
            (["sweep", "--tau-t", "7"], "tau_t must be in [0, 1], got 7.0"),
            (["features", "--tau-t", "nan"], "tau_t must be in [0, 1], got nan"),
        ],
        ids=["negative-seed", "nan-l2", "inf-l2", "nan-tol", "fixed-nan-tol",
             "multimodal-zero-max-iters", "sweep-nan-tau-t", "sweep-tau-t-above-1",
             "features-nan-tau-t"],
    )
    def test_bad_settings_exit_2(self, synth_dir, tmp_path, capsys, argv, key):
        out = tmp_path / "x.json"
        assert run(argv[0], *synth_args(synth_dir), *argv[1:], "--out", str(out)) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_flag_is_gone(self, synth_dir, tmp_path, capsys):
        code = run(
            "eval", *synth_args(synth_dir), "--mode", "fixed",
            "--sweep", "1,3", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_folds_rejected(self, synth_dir, tmp_path, capsys):
        code = run(
            "eval", *synth_args(synth_dir), "--folds", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2


class TestSweep:
    def test_default_thresholds(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("sweep", *synth_args(synth_dir), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == [
            "1", "3", "10", "50", "100"
        ]
        sidecar = json.loads((tmp_path / "sweep.csv.config.json").read_text())
        assert sidecar["thresholds"] == [1, 3, 10, 50, 100]

    def test_unsorted_thresholds_rejected(self, synth_dir, tmp_path, capsys):
        code = run(
            "sweep", *synth_args(synth_dir), "--thresholds", "3,1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestDiffuse:
    def test_writes_beliefs_log_and_sidecar(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "beliefs.csv"
        code = run(
            "diffuse",
            "--edges", str(synth_dir / "edges.csv"),
            "--scores", str(synth_dir / "scores.csv"),
            "--allow-zero-posts",
            "--direction", "undirected",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "user_id,belief"
        assert len(lines) == 1 + 40
        for line in lines[1:]:
            uid, belief = line.split(",")
            assert 0.0 <= float(belief) <= 1.0
        log_lines = (tmp_path / "beliefs.csv.convergence.jsonl").read_text().splitlines()
        assert log_lines
        first = json.loads(log_lines[0])
        assert first["iteration"] == 1
        assert "max_change" in first
        sidecar = json.loads((tmp_path / "beliefs.csv.config.json").read_text())
        assert sidecar["direction"] == "undirected"
        assert sidecar["iterations"] == len(log_lines)

    def test_nan_tol_rejected(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "beliefs.csv"
        code = run("diffuse", *synth_args(synth_dir), "--tol", "nan", "--out", str(out))
        assert code == 2
        assert "tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["diffuse", "eval"])
    def test_belief_threshold_flag_is_gone(self, synth_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = run(
            command, *synth_args(synth_dir), "--belief-threshold", "0.9",
            "--out", str(out),
        )
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_repeat_run_identical_bytes(self, synth_dir, tmp_path, capsys):
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            assert run(
                "diffuse",
                "--edges", str(synth_dir / "edges.csv"),
                "--scores", str(synth_dir / "scores.csv"),
                "--allow-zero-posts",
                "--out", str(out),
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def spaced(lines: list[str], comments: bool) -> bytes:
    """The lines padded around every field and line, CRLF-ended, with blank lines and a BOM."""
    pads = [" ", "\t", "  ", " \t"]
    rows = ["\ufeff"]
    for i, line in enumerate(lines):
        fields = [f"{pads[i % 4]}{f}{pads[(i + k) % 4]}" for k, f in enumerate(line.split(","))]
        rows.append(",".join(fields) + "\r\n")
        if i % 7 == 0:
            rows.append("\r\n" if i % 2 else " \t \r\n")
        if comments and i % 5 == 0:
            rows.append(f"{pads[i % 4]}# a comment, with, commas\r\n")
    return "".join(rows).encode("utf-8")


class TestNonBareFiles:
    def test_padded_files_give_the_same_bytes(self, synth_dir, tmp_path):
        """Padding, tabs, CRLF line ends, blank lines, a BOM and comments change no output."""
        commands = [
            ["features", "--mode", "multimodal"],
            ["eval", "--mode", "multimodal"],
            ["eval", "--mode", "degroot"],
        ]

        def outputs():
            written = []
            for i, argv in enumerate(commands):
                out = tmp_path / f"out{i}"
                assert run(argv[0], *synth_args(synth_dir), *argv[1:], "--out", str(out)) == 0
                written.append(out.read_bytes())
            return written

        bare = outputs()
        for name in ("edges.csv", "scores.csv", "labels.csv"):
            path = synth_dir / name
            text = path.read_text(encoding="utf-8")
            assert text.isascii() and " " not in text and "\r" not in text
            path.write_bytes(spaced(text.splitlines(), comments=name == "edges.csv"))
        assert outputs() == bare

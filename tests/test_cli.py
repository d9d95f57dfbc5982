import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import sweep_stdout
import test_cli_pinned as pinned

from bellri import compute_tensor, make_werner, matrix_from_json, matrix_to_json
import bellri
from bellri import cli, lhv
from bellri.cli import main

PRIOR = 2.0 * (2.0 / math.pi) ** 2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(path, entries):
    path.write_text(json.dumps({"rows": 4, "cols": 4, "entries": entries}))
    return f"file:{path}"


COMMANDS = [
    ["tensor", "--state", "werner:0.8"],
    ["criterion", "--state", "werner:0.8"],
    ["threshold", "--pure", "white", "--noise", "white"],
    ["chsh", "--state", "werner:0.9", "--plane", "13"],
    ["lhv", "--v", "0.7", "--i", "1", "--j", "2", "--n", "5000", "--seed", "3"],
    ["sweep", "--steps", "11"],
]


BIG = "1" + "0" * 39
# nan, inf, negative, fractional, non-numeric, empty and 40-digit flag values
EDGE_TEXT = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "-1", "-0", "0", "1", "2", "3", "0.5", "1.5", "2.0",
     "4", "999", "100000", "1e3", "x", "", " 1", "0x10", BIG, "-" + BIG, BIG + ".5"]
)


def assert_one_line_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestTensorCommand:
    def test_werner_json(self, capsys):
        code, out, _ = run(capsys, "tensor", "--state", "werner:0.8", "--format", "json")
        assert code == 0
        t = np.array(json.loads(out)["t"])
        assert np.max(np.abs(t - np.diag([-0.8, -0.8, -0.8]))) <= 1e-12

    def test_zero_visibility(self, capsys):
        code, out, _ = run(capsys, "tensor", "--state", "werner:0")
        assert code == 0
        assert np.max(np.abs(np.array(json.loads(out)["t"]))) <= 1e-14

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "tensor", "--state", "singlet", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("T11,")
        assert lines[1].split(",")[0] == "-1.0"

    def test_csv_layout(self, tmp_path, capsys):
        # |0> (x) (|0> + |1>)/sqrt(2): T31 = <sigma_z><sigma_x> = 1, T13 = 0
        ket = np.array([1.0, 1.0, 0.0, 0.0])
        state = write_state(tmp_path / "s.json", matrix_to_json(np.outer(ket, ket) / 2.0)["entries"])
        code, out, _ = run(capsys, "tensor", "--state", state, "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "T11,T12,T13,T21,T22,T23,T31,T32,T33"
        cells = row.split(",")
        assert cells[6] == "1.0" and cells[2] == "0.0"  # row-major order

    @pytest.mark.parametrize("command", ["tensor", "criterion"])
    def test_non_finite_entry_exits_2(self, tmp_path, capsys, command):
        entries = matrix_to_json(make_werner(0.5))["entries"]
        entries[0][1] = math.nan
        state = write_state(tmp_path / "nan.json", entries)
        code, out, err = run(capsys, command, "--state", state)
        assert_one_line_error(code, out, err)
        assert "non-finite" in err

    def test_flat_entries_exit_2(self, tmp_path, capsys):
        state = write_state(tmp_path / "flat.json", np.eye(4).ravel().tolist())
        code, out, err = run(capsys, "tensor", "--state", state)
        assert_one_line_error(code, out, err)
        assert "entry 0" in err

    @pytest.mark.parametrize("rows", ["Infinity", "1e400"])
    def test_infinite_dimension_exits_2(self, tmp_path, capsys, rows):
        path = tmp_path / "inf.json"
        path.write_text('{"rows": %s, "cols": 4, "entries": []}' % rows)
        code, out, err = run(capsys, "tensor", "--state", f"file:{path}")
        assert_one_line_error(code, out, err)
        assert "malformed matrix payload" in err

    def test_fractional_dimension_exits_2(self, tmp_path, capsys):
        entries = matrix_to_json(make_werner(0.5))["entries"]
        path = tmp_path / "frac.json"
        path.write_text(json.dumps({"rows": 4.5, "cols": 4, "entries": entries}))
        code, out, err = run(capsys, "tensor", "--state", f"file:{path}")
        assert_one_line_error(code, out, err)
        assert "rows must be a finite whole number" in err

    def test_barely_hermitian_prints_its_tensor(self, tmp_path, capsys):
        # passes the 1e-12 hermiticity check; the traces' imaginary part of
        # about 2e-12 is dropped, which leaves the tensor of the Hermitian part
        entries = matrix_to_json(make_werner(0.5))["entries"]
        for k in (3, 12, 6, 9):  # (0,3), (3,0), (1,2), (2,1)
            entries[k][1] += 0.49e-12
        state = write_state(tmp_path / "barely.json", entries)
        code, out, err = run(capsys, "tensor", "--state", state)
        assert (code, err) == (0, "")
        rho = matrix_from_json({"rows": 4, "cols": 4, "entries": entries})
        assert json.loads(out) == {"t": compute_tensor(rho).tolist()}
        assert compute_tensor(rho).tolist() == (-0.5 * np.eye(3)).tolist()

    def test_invalid_file_names_trace(self, tmp_path, capsys):
        bad = np.eye(4, dtype=complex)  # trace 4
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(matrix_to_json(bad)))
        code, _, err = run(capsys, "tensor", "--state", f"file:{path}")
        assert code == 2
        assert "trace" in err

    def test_good_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(matrix_to_json(make_werner(0.6))))
        code, out, _ = run(capsys, "tensor", "--state", f"file:{path}")
        assert code == 0
        t = np.array(json.loads(out)["t"])
        assert np.max(np.abs(t - np.diag([-0.6, -0.6, -0.6]))) <= 1e-12

    @pytest.mark.parametrize("spec", ["file", "werner:0.6"])
    def test_validates_the_state_once(self, tmp_path, capsys, monkeypatch, spec):
        if spec == "file":
            path = tmp_path / "state.json"
            path.write_text(json.dumps(matrix_to_json(make_werner(0.6))))
            spec = f"file:{path}"
        calls = {"n": 0}
        original = bellri.states.validate_density_matrix

        def counting(rho):
            calls["n"] += 1
            return original(rho)

        for module in (bellri.states, bellri.tensor):
            monkeypatch.setattr(module, "validate_density_matrix", counting)
        code, _, _ = run(capsys, "tensor", "--state", spec)
        assert code == 0
        assert calls["n"] == 1

    def test_malformed_spec(self, capsys):
        code, _, err = run(capsys, "tensor", "--state", "werner:abc")
        assert code == 2 and "error" in err

    def test_out_of_range_visibility(self, capsys):
        code, _, err = run(capsys, "tensor", "--state", "werner:1.5")
        assert code == 2 and "visibility" in err

    def test_unknown_spec(self, capsys):
        code, _, err = run(capsys, "tensor", "--state", "ghz")
        assert code == 2

    def test_unknown_spec_error_lists_the_spec_forms(self, capsys):
        assert run(capsys, "tensor", "--state", "bogus") == (
            2,
            "",
            "error: unrecognized state spec 'bogus'; use werner:<v>, singlet, white, or"
            " file:<path>\n",
        )

    def test_output_to_file(self, tmp_path, capsys):
        dest = tmp_path / "t.json"
        code, out, _ = run(capsys, "tensor", "--state", "werner:0.5", "--output", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["t"][0][0] == pytest.approx(-0.5, abs=1e-12)


class TestCriterionCommand:
    def test_violated(self, capsys):
        code, out, _ = run(capsys, "criterion", "--state", "werner:0.8")
        payload = json.loads(out)
        assert code == 0 and payload["violated"] is True

    def test_boundary_not_violated(self, capsys):
        code, out, _ = run(capsys, "criterion", "--state", "werner:0.75")
        assert json.loads(out)["violated"] is False

    def test_margin_at_half(self, capsys):
        code, out, _ = run(capsys, "criterion", "--state", "werner:0.5")
        payload = json.loads(out)
        assert abs(payload["margin"] + 0.375) <= 1e-12
        assert payload["comparison_thresholds"] == [0.75, PRIOR]


class TestThresholdCommand:
    def test_singlet_white(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--pure", "singlet", "--noise", "white", "--tol", "1e-9"
        )
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["critical_visibility"] - 0.75) <= 1e-9
        assert payload["comparison_thresholds"][1] == pytest.approx(0.8106, abs=1e-4)

    def test_no_violation_sentinel(self, capsys):
        code, out, _ = run(capsys, "threshold", "--pure", "white", "--noise", "white")
        payload = json.loads(out)
        assert code == 1
        assert payload["critical_visibility"] is None
        assert payload["status"] == "no-violation"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--pure", "singlet", "--noise", "white", "--format", "csv"
        )
        lines = out.strip().split("\n")
        assert lines[0].startswith("critical_visibility,status,")
        assert ",ok," in lines[1]

    def test_rejects_infinite_tolerance(self, capsys):
        code, out, err = run(
            capsys, "threshold", "--pure", "singlet", "--noise", "white", "--tol", "inf",
            "--format", "csv",
        )
        assert_one_line_error(code, out, err)
        assert "tol must be at least 2^-52 and finite" in err


class TestChshCommand:
    def test_full_visibility(self, capsys):
        code, out, _ = run(capsys, "chsh", "--state", "werner:1", "--plane", "12")
        payload = json.loads(out)
        assert code == 0
        assert payload["max_value"] == pytest.approx(2.0, abs=1e-12)
        assert payload["satisfied"] is True

    def test_zero_visibility(self, capsys):
        code, out, _ = run(capsys, "chsh", "--state", "werner:0", "--plane", "23")
        payload = json.loads(out)
        assert max(abs(x) for x in payload["values"]) <= 1e-14

    def test_frozen_values(self, capsys):
        code, out, _ = run(capsys, "chsh", "--state", "werner:0.9", "--plane", "13")
        values = json.loads(out)["values"]
        assert values[0] == pytest.approx(1.8, abs=1e-12)
        assert values[1] == pytest.approx(1.8, abs=1e-12)
        assert abs(values[2]) <= 1e-12 and abs(values[3]) <= 1e-12

    def test_rejects_unknown_plane(self, capsys):
        code, out, err = run(capsys, "chsh", "--state", "werner:1", "--plane", "21")
        assert_one_line_error(code, out, err)
        assert err == "error: plane must be one of ((1, 2), (2, 3), (1, 3)), got '21'\n"

    def test_csv_plane_cell_is_the_plane_read(self, capsys):
        # Arabic-Indic digits read as the plane (1, 2), and the cell says so
        code, out, _ = run(capsys, "chsh", "--state", "werner:1", "--plane", "\u0661\u0662",
                           "--format", "csv")
        assert code == 0 and out.splitlines()[1].startswith("12,")

    def test_help_names_the_planes(self, capsys):
        code, out, _ = run(capsys, "chsh", "--help")
        assert code == 0 and "axes pair: 12, 23 or 13" in out


class TestLhvCommand:
    def test_matched_axis_large_n(self, capsys):
        code, out, _ = run(
            capsys, "lhv", "--v", "0.75", "--i", "1", "--j", "1", "--n", "1000000", "--seed", "7"
        )
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["mean"] + 0.75) <= 5.0 * payload["std_error"]
        assert payload["pass"] is True

    def test_mismatched_axis(self, capsys):
        code, out, _ = run(
            capsys, "lhv", "--v", "0.75", "--i", "1", "--j", "2", "--n", "1000000", "--seed", "7"
        )
        payload = json.loads(out)
        assert abs(payload["mean"]) <= 5.0 * payload["std_error"]
        assert payload["target"] == 0.0

    def test_deterministic_at_full_visibility(self, capsys):
        code, out, _ = run(capsys, "lhv", "--v", "1", "--i", "2", "--j", "2", "--n", "1000")
        payload = json.loads(out)
        assert payload["mean"] == -1.0 and payload["std_error"] == 0.0

    def test_rejects_negative_seed(self, capsys):
        argv = ["lhv", "--v", "0.5", "--i", "1", "--j", "1", "--n", "2000", "--seed", "-1"]
        code, out, err = run(capsys, *argv)
        assert_one_line_error(code, out, err)
        assert "seed must be at least 0" in err

    def test_rejects_small_n(self, capsys):
        code, _, err = run(capsys, "lhv", "--v", "0.5", "--i", "1", "--j", "1", "--n", "10")
        assert code == 2

    # a valid command line with any of its flags replaced by edge text
    @settings(max_examples=150, deadline=None)
    @given(
        valid=st.fixed_dictionaries(
            {
                "v": st.floats(0.0, 1.0).map(repr),
                "i": st.integers(1, 3).map(str),
                "j": st.integers(1, 3).map(str),
                "n": st.integers(1000, 10**5).map(str),
                "seed": st.integers(0, 2**64).map(str),
            }
        ),
        edge=st.dictionaries(st.sampled_from(["v", "i", "j", "n", "seed"]), EDGE_TEXT),
    )
    @example(valid={"v": "0.5", "i": "1", "j": "1", "n": "1000", "seed": "0"}, edge={"n": BIG})
    @example(valid={"v": "0.5", "i": "1", "j": "1", "n": "1000", "seed": "0"}, edge={"n": "1e3"})
    def test_edge_text_exits_cleanly(self, valid, edge):
        flags = {**valid, **edge}
        argv = ["lhv", *(f"--{k}={x}" for k, x in flags.items())]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
        else:
            # the library converts the flag, so "1e3" is 1000 samples
            assert json.loads(out.getvalue())["n"] == float(flags["n"])


class TestSweepCommand:
    def test_csv_layout(self, capsys):
        code, out, _ = run(capsys, "sweep", "--steps", "5", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "v,margin,consistent"
        assert len(lines) == 6
        assert lines[1].endswith(",true")
        assert lines[5].endswith(",false")

    def test_single_transition(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--v-min", "0", "--v-max", "1", "--steps", "101", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "v,margin,consistent"
        flags = [row.rsplit(",", 1)[1] == "true" for row in lines[1:]]
        assert len(flags) == 101
        flips = [i for i in range(100) if flags[i] != flags[i + 1]]
        assert flips == [75]  # consistent at 0.75, inconsistent at 0.76

    def test_all_consistent_below_half(self, capsys):
        code, out, _ = run(capsys, "sweep", "--v-min", "0", "--v-max", "0.5", "--steps", "11", "--format", "csv")
        rows = out.strip().split("\n")[1:]
        assert all(r.endswith(",true") for r in rows)

    def test_margin_row_at_090(self, capsys):
        code, out, _ = run(capsys, "sweep", "--v-min", "0", "--v-max", "1", "--steps", "101", "--format", "csv")
        row = out.strip().split("\n")[91]  # header + 90
        v, margin, _ = row.split(",")
        assert float(v) == pytest.approx(0.9, abs=1e-12)
        assert float(margin) == pytest.approx(0.405, abs=1e-12)

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "sweep", "--steps", "5", "--v-min", "0", "--v-max", "1")
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 5
        assert payload[-1]["consistent"] is False

    @pytest.mark.parametrize("steps", [str(lhv.MAX_STEPS + 1), BIG], ids=["cap+1", "40-digit"])
    def test_rejects_step_count_above_the_cap(self, capsys, steps):
        code, out, err = run(capsys, "sweep", "--steps", steps)
        assert_one_line_error(code, out, err)
        assert err == f"error: step count steps must be at most {lhv.MAX_STEPS}, got {steps}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--v-min", "2", "--v-max", "2"], "visibility v_min must be at most 1, got 2.0"),
            (["--v-max", "-1"], "visibility v_max must be at least 0, got -1.0"),
        ],
        ids=["v_min", "v_max"],
    )
    def test_range_error_names_the_bad_end(self, capsys, argv, message):
        code, out, err = run(capsys, "sweep", *argv)
        assert_one_line_error(code, out, err)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["--steps", "0"], ["--v-min", "2"]], ids=["steps", "v_min"])
    def test_refused_sweep_creates_no_output_file(self, capsys, tmp_path, argv):
        # the range is checked before the first chunk is written
        dest = tmp_path / "sweep.json"
        assert_one_line_error(*run(capsys, "sweep", *argv, "--output", str(dest)))
        assert not dest.exists()


class TestConfigAndDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ["lhv", "--v", "0.6", "--i", "1", "--j", "1", "--n", "5000", "--seed", "3"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_every_command_emits_single_json_document(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(matrix_to_json(make_werner(0.9))))
        commands = [
            ["tensor", "--state", f"file:{path}"],
            ["criterion", "--state", "werner:0.2"],
            ["threshold", "--pure", "singlet", "--noise", "white"],
            ["chsh", "--state", "werner:0.2", "--plane", "12"],
            ["lhv", "--v", "0.2", "--i", "3", "--j", "3", "--n", "1000"],
            ["sweep", "--steps", "3"],
        ]
        for argv in commands:
            code, out, _ = run(capsys, *argv)
            json.loads(out)  # raises if not a single valid document

    def test_config_file_sets_format(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=csv\n# comment\nseed=5\n")
        code, out, _ = run(capsys, "tensor", "--state", "werner:0.5", "--config", str(cfg))
        assert out.startswith("T11,")

    def test_environment_does_not_configure(self, tmp_path, capsys, monkeypatch):
        # only --config names a config file: a variable naming one changes no byte
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=csv\n")
        argv = ["tensor", "--state", "werner:0.5"]
        plain = run(capsys, *argv)
        monkeypatch.setenv("BELLRI_CONFIG", str(cfg))
        assert run(capsys, *argv) == plain
        assert plain[0] == 0 and json.loads(plain[1])

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=csv\n")
        code, out, _ = run(
            capsys, "tensor", "--state", "werner:0.5", "--config", str(cfg), "--format", "json"
        )
        json.loads(out)

    def test_config_lines_are_stripped(self, tmp_path, capsys):
        # an indented comment, a blank line of spaces, and keys and values padded
        # with whitespace, which a value like " csv" would not survive unstripped
        cfg = tmp_path / "run.cfg"
        cfg.write_text("  # padded\n   \n  seed = 3  \n\tformat = csv \n")
        argv = ["lhv", "--v", "0.5", "--i", "1", "--j", "2", "--n", "2000"]
        from_cfg = run(capsys, *argv, "--config", str(cfg))
        assert from_cfg == run(capsys, *argv, "--seed", "3", "--format", "csv")
        assert from_cfg[0] == 0 and from_cfg[1] != run(capsys, *argv, "--format", "csv")[1]

    def test_config_seed_used_by_lhv(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\n")
        argv_cfg = ["lhv", "--v", "0.5", "--i", "1", "--j", "1", "--n", "2000", "--config", str(cfg)]
        argv_flag = ["lhv", "--v", "0.5", "--i", "1", "--j", "1", "--n", "2000", "--seed", "7"]
        _, out_cfg, _ = run(capsys, *argv_cfg)
        _, out_flag, _ = run(capsys, *argv_flag)
        assert out_cfg == out_flag

    @pytest.mark.parametrize(
        "argv",
        [
            ["lhv", "--v", "0.5", "--i", "1", "--j", "1", "--n", "2000"],
            ["tensor", "--state", "singlet"],
        ],
        ids=["lhv", "tensor"],
    )
    def test_rejects_negative_config_seed(self, tmp_path, capsys, argv):
        # the config is checked whole, also by a subcommand that draws no samples
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-5\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert_one_line_error(code, out, err)
        assert "seed must be at least 0" in err

    @pytest.mark.parametrize(
        "line, message",
        [("seed=-5", "seed must be at least 0, got -5"), ("tol=0", "tol must be at least 2^-52")],
    )
    def test_out_of_range_config_value_names_its_file_and_line(
        self, tmp_path, capsys, line, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# ranges\nformat=json\n{line}\n")
        code, out, err = run(capsys, "tensor", "--state", "singlet", "--config", str(cfg))
        assert_one_line_error(code, out, err)
        key = line.partition("=")[0]
        assert err.startswith(f"error: {str(cfg)!r}:3: bad value for {key}: {message}")

    def test_rejects_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frmat=csv\n")
        code, _, err = run(capsys, "tensor", "--state", "werner:0.5", "--config", str(cfg))
        assert code == 2 and "unknown config key" in err

    def test_rejects_retired_resolution_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quad_theta=8\n")
        code, _, err = run(capsys, "tensor", "--state", "werner:0.5", "--config", str(cfg))
        assert code == 2 and "unknown config key 'quad_theta'" in err

    def test_rejects_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=yaml\n")
        code, out, err = run(capsys, "tensor", "--state", "werner:0.5", "--config", str(cfg))
        assert_one_line_error(code, out, err)
        assert err.endswith(
            ":1: bad value for format: format must be 'json' or 'csv', got 'yaml'\n"
        )

    def test_seed_flag_and_config_line_convert_alike(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=1e3\n")
        argv = ["lhv", "--v", "0.5", "--i", "1", "--j", "2", "--n", "2000"]
        from_cfg = run(capsys, *argv, "--config", str(cfg))
        assert from_cfg[0] == 0 and from_cfg[1] != run(capsys, *argv)[1]
        assert run(capsys, *argv, "--seed", "1e3") == from_cfg
        assert run(capsys, *argv, "--seed", "1000") == from_cfg

    @pytest.mark.parametrize("tol", ["1e-9", "1e-3"])
    def test_tol_flag_and_config_line_convert_alike(self, tmp_path, capsys, tol):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tol={tol}\n")
        argv = ["threshold", "--pure", "singlet", "--noise", "white"]
        from_cfg = run(capsys, *argv, "--config", str(cfg))
        assert from_cfg[0] == 0 and from_cfg == run(capsys, *argv, "--tol", tol)

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2


# bytes of a file the CLI reads, the arguments that point `tensor` at it, and
# the start of the one-line error
FILE_BOUNDARY = {
    "non-utf8-state": (b'\xff{"rows": 4}', ["--state", "file:{}"], "cannot read state file"),
    "non-utf8-config": (b"format=json\n\xff\n", ["--state", "singlet", "--config", "{}"],
                        "cannot read config file"),
    "deeply-nested-state": (b"[" * 100000 + b"]" * 100000, ["--state", "file:{}"],
                            "cannot parse state file"),
    "huge-int-state": (b'{"rows": %s}' % (b"1" * 5000), ["--state", "file:{}"],
                       "cannot parse state file"),
    "nul-in-output-path": (b"output=a\0b\n", ["--state", "singlet", "--config", "{}"],
                           "cannot write output file"),
    "output-in-missing-dir": (b"", ["--state", "singlet", "--output", "{}.d/x"],
                              "cannot write output file"),
    "output-is-a-dir": (b"output=.\n", ["--state", "singlet", "--config", "{}"],
                        "cannot write output file"),
}

# UTF-8 files a byte-order mark may precede, and the arguments that point a
# CSV `tensor` at them
UTF8_BOM = {
    "bom-state": (json.dumps(matrix_to_json(make_werner(0.8))).encode(),
                  ["--state", "file:{}", "--format", "csv"]),
    "bom-config": (b"format=csv\n", ["--state", "singlet", "--config", "{}"]),
}


class TestFileBoundary:
    @pytest.mark.parametrize("body, args, message", FILE_BOUNDARY.values(), ids=FILE_BOUNDARY)
    def test_bad_file_exits_2(self, tmp_path, capsys, body, args, message):
        path = tmp_path / "input"
        path.write_bytes(body)
        code, out, err = run(capsys, "tensor", *(a.format(path) for a in args))
        assert_one_line_error(code, out, err)
        assert err.startswith(f"error: {message} ")

    @pytest.mark.parametrize("body, args", UTF8_BOM.values(), ids=UTF8_BOM)
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, capsys, body, args):
        path = tmp_path / "input"
        path.write_bytes(body)
        plain = run(capsys, "tensor", *(a.format(path) for a in args))
        assert plain[0] == 0 and plain[1].startswith("T11,") and plain[2] == ""
        path.write_bytes(b"\xef\xbb\xbf" + body)
        assert run(capsys, "tensor", *(a.format(path) for a in args)) == plain


# a file whose name holds a newline: its body, the arguments that point
# `tensor` at it, and a part of the one-line error
NEWLINE_PATHS = {
    "missing-state": (None, ["--state", "file:{}"], "cannot read state file"),
    "unparsable-state": (b"{", ["--state", "file:{}"], "cannot parse state file"),
    "unknown-config-key": (b"frmat=csv\n", ["--state", "singlet", "--config", "{}"],
                           ":1: unknown config key 'frmat'"),
    "config-line-without-equals": (b"format\n", ["--state", "singlet", "--config", "{}"],
                                   ":1: expected key=value"),
    "bad-config-value": (b"tol=x\n", ["--state", "singlet", "--config", "{}"],
                         ":1: bad value for tol"),
}


class TestPathInDiagnostic:
    @pytest.mark.parametrize("body, args, message", NEWLINE_PATHS.values(), ids=NEWLINE_PATHS)
    def test_a_newline_in_the_path_keeps_the_error_on_one_line(
        self, tmp_path, capsys, body, args, message
    ):
        path = tmp_path / "x\ny.json"
        if body is not None:
            path.write_bytes(body)
        code, out, err = run(capsys, "tensor", *(a.format(path) for a in args))
        assert_one_line_error(code, out, err)
        assert message in err and repr(str(path)) in err


class TestOutputPath:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_output_file_receives_the_stdout_bytes(self, tmp_path, capsys, argv, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        dest = tmp_path / "out.txt"
        code_file, out_file, err_file = run(capsys, *argv, "--format", fmt, "--output", str(dest))
        assert (code_file, out_file, err_file) == (code, "", err)
        assert dest.read_bytes() == out.encode()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_builds_only_the_chosen_format(self, monkeypatch, capsys, argv, fmt):
        built = []
        output = cli.Output

        def recording(json, csv, code=cli.EXIT_OK):
            def track(name, thunk):
                return lambda: built.append(name) or thunk()

            return output(track("json", json), track("csv", csv), code)

        monkeypatch.setattr(cli, "Output", recording)
        run(capsys, *argv, "--format", fmt)
        assert built == [fmt]

    def test_csv_sweep_builds_no_records(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("verdict record built for a CSV sweep")

        monkeypatch.setattr(lhv, "ConsistencyVerdict", refuse)
        code, out, _ = run(capsys, "sweep", "--steps", "10001", "--format", "csv")
        assert code == 0 and out.count("\n") == 10002

    def test_json_sweep_builds_no_records(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("verdict record built for a JSON sweep")

        monkeypatch.setattr(lhv, "ConsistencyVerdict", refuse)
        code, out, _ = run(capsys, "sweep", "--steps", "10001", "--format", "json")
        assert code == 0 and out.count("\n") == 6 * 10001 + 2


class TestSweepRendering:
    @settings(max_examples=40, deadline=None)
    @given(
        ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
        steps=st.integers(1, 3000),
    )
    @example(ends=[0.0, 1.0], steps=1)
    @example(ends=[0.75, 0.75], steps=5)
    @example(ends=[1e-320, 1.0], steps=101)
    def test_stdout_matches_the_record_renderer(self, ends, steps):
        argv = ["sweep", "--v-min", repr(ends[0]), "--v-max", repr(ends[1]), "--steps", str(steps)]
        for fmt in ("json", "csv"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([*argv, "--format", fmt])
            assert code == 0
            assert out.getvalue() == sweep_stdout(ends[0], ends[1], steps, fmt)

    def test_json_peak_memory_per_point(self, capsys):
        # ~460 B per point, at the write: the text, and the capture's encoded
        # copy and buffer of it. The result lists are freed before the write
        # and the stacked states exist one chunk at a time; with the whole
        # grid stacked and the lists held through the write it was ~680 B
        steps = 20001
        tracemalloc.start()
        try:
            code = main(["sweep", "--steps", str(steps)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().out.endswith("\n]\n")
        assert peak <= 500 * steps

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_memory_is_flat_in_steps_apart_from_the_grid(self, fmt):
        # each chunk's text is written before the next is judged, so only the
        # 8 B per point of np.linspace's grid grows
        class Discard:
            def write(self, text):
                return len(text)

        def peak(steps):
            with contextlib.redirect_stdout(Discard()):
                tracemalloc.start()
                try:
                    code = main(["sweep", "--steps", str(steps), "--format", fmt])
                    return code, tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(3)  # builds the parser outside the measured calls
        (code_small, small), (code_large, large) = peak(10001), peak(100001)
        assert code_small == code_large == 0
        assert large - small <= 16 * (100001 - 10001)


LHV = ["lhv", "--v", "0.5", "--i", "1", "--j", "1", "--n", "1000"]
# a malformed value of each flag argparse passes on as text, the command line
# that carries it (a repeated flag takes its last value), and how the one-line
# error names the value
MALFORMED_FLAGS = {
    "tol": (["threshold", "--pure", "singlet", "--noise", "white", "--tol", "abc"], "'abc'"),
    "format": (["tensor", "--state", "singlet", "--format", "xml"], "'xml'"),
    "plane-21": (["chsh", "--state", "singlet", "--plane", "21"], "'21'"),
    "plane-x": (["chsh", "--state", "singlet", "--plane", "x"], "'x'"),
    "i": (LHV + ["--i", "x"], "'x'"),
    "n": (LHV + ["--n", "1.5"], "'1.5'"),
    "seed": (LHV + ["--seed", "-1"], "got -1"),
    "steps": (["sweep", "--steps", "abc"], "'abc'"),
    "v-min": (["sweep", "--v-min", "x"], "'x'"),
    "v": (LHV + ["--v", "nan"], "got nan"),
}


class TestMalformedFlagValue:
    @pytest.mark.parametrize("argv, named", MALFORMED_FLAGS.values(), ids=MALFORMED_FLAGS)
    def test_one_line_error_naming_the_value(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert_one_line_error(code, out, err)
        assert named in err and "usage:" not in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no int digit limit (none before Python 3.10.7, or switched off)",
    )
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_seed_over_the_int_digit_limit_names_the_limit(self, capsys, sign):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, *LHV, "--seed", sign + "7" * (limit + 1))
        assert_one_line_error(code, out, err)
        assert f"seed must be a whole number of at most {limit} digits" in err


class TestConfigSchema:
    def test_config_keys_are_the_runconfig_fields(self):
        assert [f.name for f in fields(cli.RunConfig)] == ["seed", "format", "output", "tol"]

    def test_every_field_is_a_config_key_and_a_flag(self, tmp_path, capsys):
        dest = tmp_path / "out.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=3\nformat=csv\noutput={dest}\ntol=1e-3\n")
        loaded = cli.load_config(str(cfg))
        assert loaded == cli.RunConfig(seed=3, format="csv", output=str(dest), tol=1e-3)
        argv = ["lhv", "--v", "0.7", "--i", "1", "--j", "2", "--n", "5000"]
        code, out, _ = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (0, "")
        _, flagged, _ = run(capsys, *argv, "--seed", "3", "--format", "csv")
        assert dest.read_text() == flagged


def pinned_cases(tmp_path):
    """(argv, exit code, expected stdout) for each byte-pinned case of test_cli_pinned.py."""
    ket00 = tmp_path / "n00.json"
    entries = [[0.0, 0.0] for _ in range(16)]
    entries[0] = [1.0, 0.0]
    ket00.write_text(json.dumps({"rows": 4, "cols": 4, "entries": entries}))
    cases = []
    for test in (pinned.test_pinned_stdout, pinned.test_pinned_stdout_more_forms):
        (mark,) = test.pytestmark
        cases += [(list(argv), 0, expected) for argv, expected in mark.args[1]]
    return cases + [
        (["threshold", "--pure", "singlet", "--noise", f"file:{ket00}", "--tol", "1e-9"], 0,
         pinned.THRESHOLD_TEMPLATE % "0.8442536392249167"),
        (["sweep", "--steps", "101", "--format", "csv"], 0,
         (pinned.DATA / "sweep_steps101.csv").read_text()),
        (["threshold", "--pure", f"file:{ket00}", "--noise", "white", "--format", "csv"], 1,
         pinned.THRESHOLD_KET00_WHITE_CSV),
    ]


def subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParserCache:
    def test_repeated_calls_build_no_parser(self, capsys, monkeypatch):
        run(capsys, *COMMANDS[0])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        codes = [run(capsys, *COMMANDS[k % len(COMMANDS)])[0] for k in range(20)]
        assert codes == [0, 0, 1, 0, 0, 0] * 3 + [0, 0]
        assert built == []

    def test_no_state_leaks_between_calls(self, capsys, tmp_path):
        code, out, err = run(capsys, "tensor")
        assert (code, out) == (2, "")
        assert "the following arguments are required: --state" in err
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "") and out.startswith("usage: bellri")
        assert_one_line_error(*run(capsys, "tensor", "--state", "bogus"))
        for argv, want_code, expected in pinned_cases(tmp_path):
            assert run(capsys, *argv) == (want_code, expected, "")
        code, out, err = run(capsys, "sweep", "--steps", "10001")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == pinned.SWEEP_10001_JSON_SHA256

    def test_usage_error_goes_to_the_current_stderr(self, capsys):
        cli.build_parser.cache_clear()
        first = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(first):
            assert main(["tensor", "--state", "singlet"]) == 0
        code, out, err = run(capsys, "tensor")
        assert (code, out) == (2, "")
        assert err.startswith("usage: bellri tensor") and "--state" in err
        assert first.getvalue() == ""

    def test_cached_help_matches_a_fresh_build(self):
        cached, fresh = cli.build_parser(), cli.build_parser.__wrapped__()
        assert cached is cli.build_parser() and fresh is not cached
        assert cached.format_help() == fresh.format_help()
        cached_subs, fresh_subs = subparsers(cached), subparsers(fresh)
        assert list(cached_subs) == list(fresh_subs) == [c[0] for c in COMMANDS]
        for name, sub in cached_subs.items():
            assert sub.format_help() == fresh_subs[name].format_help()

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import bellri, bellri.cli\n"
            "print(len(built))\n"
        )
        src = str(Path(bellri.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


class TestEntrypoint:
    @staticmethod
    def module_run(*argv, **extra_env):
        src = str(Path(bellri.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, **extra_env)
        return subprocess.run(
            [sys.executable, "-m", "bellri.cli", *argv], env=env, capture_output=True, text=True
        )

    def test_module_matches_main(self, capsys):
        argv = ["criterion", "--state", "werner:0.8"]
        proc = self.module_run(*argv)
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, err)
        assert code == 0

    def test_module_ignores_the_environment(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=csv\n")
        argv = ["tensor", "--state", "werner:0.5"]
        proc = self.module_run(*argv, BELLRI_CONFIG=str(cfg))
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert code == 0 and json.loads(out)

    def test_module_bad_state_exits_2(self):
        proc = self.module_run("tensor", "--state", "bogus")
        assert_one_line_error(proc.returncode, proc.stdout, proc.stderr)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({k: 1.7e308 for k in range(16)}, "error: matrix trace inf+0j differs from 1\n"),
            ({1: 1.7e308, 4: -1.7e308}, "error: matrix is not Hermitian: max |M - M^dag| = inf\n"),
        ],
        ids=["trace", "hermitian"],
    )
    def test_huge_finite_entries_exit_2_with_one_line(self, tmp_path, entries, message):
        # numpy's overflow warnings used to print two lines before the error
        rows = [[entries.get(k, 0.0), 0.0] for k in range(16)]
        proc = self.module_run("tensor", "--state", write_state(tmp_path / "h.json", rows))
        assert_one_line_error(proc.returncode, proc.stdout, proc.stderr)
        assert proc.stderr == message

import contextlib
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

from bellri import make_werner, matrix_to_json
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

    def test_barely_hermitian_exits_2(self, tmp_path, capsys):
        # passes the 1e-12 hermiticity check, but the traces keep an
        # imaginary residue of about 2e-12
        entries = matrix_to_json(make_werner(0.5))["entries"]
        for k in (3, 12, 6, 9):  # (0,3), (3,0), (1,2), (2,1)
            entries[k][1] += 0.49e-12
        state = write_state(tmp_path / "barely.json", entries)
        code, out, err = run(capsys, "tensor", "--state", state)
        assert_one_line_error(code, out, err)
        assert "imaginary residue" in err

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
        assert "tol must be positive and finite" in err


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
        code, _, _ = run(capsys, "chsh", "--state", "werner:1", "--plane", "21")
        assert code == 2


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
        assert "seed must be non-negative" in err

    def test_rejects_small_n(self, capsys):
        code, _, err = run(capsys, "lhv", "--v", "0.5", "--i", "1", "--j", "1", "--n", "10")
        assert code == 2


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

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=csv\n")
        monkeypatch.setenv("BELLRI_CONFIG", str(cfg))
        code, out, _ = run(capsys, "tensor", "--state", "werner:0.5")
        assert out.startswith("T11,")

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=csv\n")
        code, out, _ = run(
            capsys, "tensor", "--state", "werner:0.5", "--config", str(cfg), "--format", "json"
        )
        json.loads(out)

    def test_config_seed_used_by_lhv(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\n")
        argv_cfg = ["lhv", "--v", "0.5", "--i", "1", "--j", "1", "--n", "2000", "--config", str(cfg)]
        argv_flag = ["lhv", "--v", "0.5", "--i", "1", "--j", "1", "--n", "2000", "--seed", "7"]
        _, out_cfg, _ = run(capsys, *argv_cfg)
        _, out_flag, _ = run(capsys, *argv_flag)
        assert out_cfg == out_flag

    def test_rejects_negative_config_seed(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-5\n")
        argv = ["lhv", "--v", "0.5", "--i", "1", "--j", "1", "--n", "2000", "--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert_one_line_error(code, out, err)
        assert "seed must be non-negative" in err

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
        code, _, err = run(capsys, "tensor", "--state", "werner:0.5", "--config", str(cfg))
        assert code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2


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

        def recording(payload, header, rows, code=cli.EXIT_OK):
            def track(name, thunk):
                return lambda: built.append(name) or thunk()

            return output(track("json", payload), header, track("csv", rows), code)

        monkeypatch.setattr(cli, "Output", recording)
        run(capsys, *argv, "--format", fmt)
        assert built == [fmt]

    def test_csv_sweep_builds_no_records(self, monkeypatch, capsys):
        def no_asdict(obj):
            raise AssertionError("asdict called for a CSV sweep")

        monkeypatch.setattr(cli, "asdict", no_asdict)
        code, out, _ = run(capsys, "sweep", "--steps", "10001", "--format", "csv")
        assert code == 0 and out.count("\n") == 10002

    def test_json_sweep_builds_no_records(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("verdict record built for a JSON sweep")

        monkeypatch.setattr(cli, "asdict", refuse)
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
        # ~540 B per point for the stacked states and their mixing
        # temporaries, ~590 B for the lists and the rendered text; verdict
        # records, their asdict dicts and json's chunk list took ~1300 B
        steps = 20001
        tracemalloc.start()
        try:
            code = main(["sweep", "--steps", str(steps)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().out.endswith("\n]\n")
        assert peak <= 800 * steps


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


class TestEntrypoint:
    @staticmethod
    def module_run(*argv):
        src = str(Path(bellri.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("BELLRI_CONFIG", None)
        return subprocess.run(
            [sys.executable, "-m", "bellri.cli", *argv], env=env, capture_output=True, text=True
        )

    def test_module_matches_main(self, capsys, monkeypatch):
        monkeypatch.delenv("BELLRI_CONFIG", raising=False)
        argv = ["criterion", "--state", "werner:0.8"]
        proc = self.module_run(*argv)
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, err)
        assert code == 0

    def test_module_bad_state_exits_2(self):
        proc = self.module_run("tensor", "--state", "bogus")
        assert_one_line_error(proc.returncode, proc.stdout, proc.stderr)

"""The four benchmark workloads: inputs from a seed, timed operations, checks.

A workload hands out rounds. A round is a list of operations that every run
repeats whole, so the share of failed operations is the same in every run.
Each operation pairs ``run`` (timed; calls bellri through module attributes,
so the traced run can wrap them) with ``check`` (untimed; compares the output
with ``oracles`` and returns True when the operation failed, that is, did not
end the way the program documents).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from bellri import cli, criteria, lhv, states, tensor

import oracles as ora
from oracles import CheckFailed, close, require


class Op(NamedTuple):
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def attempt(op: Op) -> bool:
    """Run and check ``op`` untimed; True when it failed."""
    try:
        out = op.run()
    except Exception:
        return True
    return op.check(out)


PLANES = ((1, 2), (2, 3), (1, 3))


class Sweep:
    """Visibility sweep plus threshold bisections on mixtures of fixed endpoints."""

    TOL = 1e-12

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        # 1 + 4m points keep 0.75 on the grid
        self.steps = 1 + 4 * (250 + int(rng.integers(0, 3)))
        self.noises = [
            (ora.WHITE, ora.THRESHOLD_WHITE),
            (ora.ket(1, 0, 0, 0), ora.THRESHOLD_00),
            (ora.ket(0, 1, 0, 0), ora.THRESHOLD_01),
        ]

    def _run(self):
        verdicts = lhv.verdict_sweep(0.0, 1.0, self.steps)
        thresholds = [criteria.critical_visibility(ora.SINGLET, n, self.TOL) for n, _ in self.noises]
        return verdicts, thresholds

    def _check(self, out) -> bool:
        verdicts, thresholds = out
        rows = [(x.v, x.criterion_margin, x.consistent) for x in verdicts]
        ora.check_sweep(rows, self.steps, "verdict_sweep")
        for got, (_, exact) in zip(thresholds, self.noises):
            require(got is not None, "critical_visibility returned None")
            close(got, exact, self.TOL, "critical_visibility")
        return False

    def round(self) -> list[Op]:
        return [Op(self._run, self._check)]

    def warmup(self) -> None:
        attempt(self.round()[0])


class States:
    """Per-state analysis of seeded random mixed states and pinned states."""

    BATCH = 40
    POOL = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        pinned = [
            ora.SINGLET,
            ora.ket(1, 0, 0, 1),
            ora.ket(1, 0, 0, 0),
            ora.ket(1, 0, 1, 0),
            ora.werner(0.5),
            ora.werner(0.9),
        ]
        self.batches = []
        for _ in range(self.POOL):
            rhos = [ora.random_mixed_state(rng) for _ in range(self.BATCH)] + pinned
            self.batches.append(
                [(rho, ora.random_unitary(rng), ora.random_unitary(rng)) for rho in rhos]
            )
        self.k = 0

    @staticmethod
    def _analyse(batch):
        out = []
        for m, u1, u2 in batch:
            rho = states.validate_density_matrix(m)
            t = tensor.compute_tensor(rho)
            crit = criteria.evaluate_ri_criterion(t)
            chsh = [criteria.chsh_complete_set(t, p) for p in PLANES]
            bound = criteria.ri_bound_check(t)
            r1 = tensor.rotation_from_unitary(u1)
            r2 = tensor.rotation_from_unitary(u2)
            t_rot = tensor.rotate_tensor(t, r1, r2)
            crit_rot = criteria.evaluate_ri_criterion(t_rot)
            rho_back = states.matrix_from_json(json.loads(json.dumps(states.matrix_to_json(rho))))
            t_back = tensor.tensor_from_json(json.loads(json.dumps(tensor.tensor_to_json(t))))
            out.append((t, crit, chsh, bound, t_rot, crit_rot, rho_back, t_back))
        return out

    @staticmethod
    def _check(batch, out) -> bool:
        require(len(out) == len(batch), "states: result count")
        for (m, u1, u2), (t, crit, chsh, bound, t_rot, crit_rot, rho_back, t_back) in zip(batch, out):
            ref = ora.check_tensor(t, m, "compute_tensor")
            ora.check_criterion(crit.lhs, crit.rhs, crit.violated, crit.margin, ref, "criterion")
            for p, rep in zip(PLANES, chsh):
                ora.check_chsh(rep.values, ref, p, f"chsh {p}")
            s2 = float(np.sum(ref * ref))
            close(bound.lhs, ora.EE_FACTOR * s2, 1e-10 * ora.EE_FACTOR, "inner_product_ee")
            close(bound.rhs, ora.BOUND_FACTOR * ora.max_singular(ref), 1e-9 * ora.BOUND_FACTOR,
                  "tensor_max_svd in ri_bound_check")
            u = np.kron(u1, u2)
            ora.check_tensor(t_rot, u @ m @ u.conj().T, "rotated tensor")
            close(crit_rot.lhs, crit.lhs, 1e-12, "sum T^2 under local rotation")
            if abs(crit.margin) > 1e-9:
                require(crit_rot.violated == crit.violated, "verdict changed under local rotation")
            require(np.array_equal(rho_back, m), "matrix JSON round trip")
            require(np.array_equal(t_back, t), "tensor JSON round trip")
        return False

    def round(self) -> list[Op]:
        batch = self.batches[self.k % self.POOL]
        self.k += 1
        return [Op(partial(self._analyse, batch), partial(self._check, batch))]

    def warmup(self) -> None:
        attempt(self.round()[0])
        self.k = 0


class MonteCarlo:
    """Seeded Monte Carlo estimates of rotated-frame two-setting models.

    One operation is one estimate; a round is the nine axis pairs. Rounds
    cycle through a small pool of seed sets, so every estimate recurs and
    must reproduce its mean exactly.
    """

    N = 10**6
    POOL = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 3])
        self.models = [
            lhv.build_model(float(v), ora.random_rotation(rng), ora.random_rotation(rng))
            for v in rng.uniform(0.3, 0.95, size=3)
        ]
        self.seeds = rng.integers(0, 2**31, size=(self.POOL, 9)).tolist()
        self.means: dict = {}
        self.k = 0

    def _run(self, model, i, j, s):
        est = lhv.estimate_correlation(model, i, j, self.N, s)
        return est, lhv.mc_report(model, i, j, est)

    def _check(self, model, i, j, s, out) -> bool:
        est, rep = out
        target = -model.v if i == j else 0.0
        require(est.n_samples == self.N, "n_samples")
        ora.check_mc(est.mean, est.std_error, self.N, target, f"estimate ({i},{j})")
        require(rep["mean"] == est.mean and rep["target"] == target and rep["pass"] is True,
                f"mc_report ({i},{j}): {rep}")
        first = self.means.setdefault((id(model), i, j, s), est.mean)
        require(first == est.mean, f"seed {s} gave mean {est.mean!r}, earlier {first!r}")
        return False

    def round(self) -> list[Op]:
        seeds = self.seeds[self.k % self.POOL]
        self.k += 1
        ops = []
        for slot, (i, j) in enumerate(itertools.product((1, 2, 3), repeat=2)):
            args = (self.models[slot % 3], i, j, seeds[slot])
            ops.append(Op(partial(self._run, *args), partial(self._check, *args)))
        return ops

    def warmup(self) -> None:
        for op in self.round()[:2]:
            attempt(op)
        self.k = 0


def _strict_json(text: str):
    def reject(token):
        raise CheckFailed(f"non-JSON constant {token} in output")

    return json.loads(text, parse_constant=reject)


def _csv_rows(text: str, header: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    require(bool(rows) and ",".join(rows[0]) == header, f"CSV header {rows[:1]}")
    return rows[1:]


def _flag(cell: str) -> bool:
    require(cell in ("true", "false"), f"CSV flag {cell!r}")
    return cell == "true"


def _write_state(path: Path, rho: np.ndarray) -> None:
    entries = [[float(z.real), float(z.imag)] for z in rho.ravel()]
    path.write_text(json.dumps({"rows": 4, "cols": 4, "entries": entries}), encoding="utf-8")


class Cli:
    """A fixed cycle of in-process ``cli.main`` invocations.

    One operation is one invocation; a round is the whole cycle. The two
    invocations on a state whose first diagonal entry has a NaN imaginary
    part must exit 2 with a one-line diagnostic.
    """

    FILES = 4
    HEAVY_STEPS = 10001

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 4])
        self.v = [float(x) for x in rng.uniform(0.05, 0.95, size=5)]
        self.lhv_seed = int(rng.integers(0, 2**31))
        self.cfg_seed = int(rng.integers(0, 2**31))
        self.files = []
        for k in range(self.FILES):
            rho = ora.random_mixed_state(rng)
            path = workdir / f"state{k}.json"
            _write_state(path, rho)
            self.files.append((path, rho))
        self.n00 = workdir / "n00.json"
        _write_state(self.n00, ora.ket(1, 0, 0, 0))
        self.nan = workdir / "nan.json"
        bad = ora.werner(0.5)
        bad[0, 0] = complex(bad[0, 0].real, float("nan"))
        _write_state(self.nan, bad)
        self.cfg = workdir / "run.cfg"
        self.cfg.write_text(f"# benchmark config\nseed={self.cfg_seed}\nformat=json\ntol=1e-9\n", encoding="utf-8")
        self.out_path = workdir / "criterion.json"
        self.k = 0
        self.output_bytes = 0

    @staticmethod
    def _invoke(argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def _cycle(self, heavy_steps: int) -> list[tuple[list[str], int, Callable | None]]:
        path, rho = self.files[self.k % self.FILES]
        f = f"file:{path}"
        v = self.v
        n = "1000000"
        return [
            (["tensor", "--state", f"werner:{v[0]!r}"], 0,
             lambda s: ora.check_tensor(_strict_json(s)["t"], ora.werner(v[0]), "tensor json")),
            (["tensor", "--state", f, "--format", "csv"], 0, partial(self._tensor_csv, rho)),
            (["criterion", "--state", f"werner:{v[1]!r}"], 0, partial(self._criterion_json, ora.werner(v[1]))),
            (["criterion", "--state", f, "--format", "csv"], 0, partial(self._criterion_csv, rho)),
            (["threshold", "--pure", "singlet", "--noise", "white", "--tol", "1e-9"], 0,
             partial(self._threshold_json, ora.THRESHOLD_WHITE)),
            (["threshold", "--pure", "singlet", "--noise", f"file:{self.n00}", "--format", "csv"], 0,
             self._threshold_csv),
            (["threshold", "--pure", f"file:{self.n00}", "--noise", "white"], 1,
             partial(self._threshold_json, None)),
            (["chsh", "--state", f"werner:{v[2]!r}", "--plane", "12"], 0,
             partial(self._chsh_json, ora.werner(v[2]), (1, 2))),
            (["chsh", "--state", f, "--plane", "23", "--format", "csv"], 0, partial(self._chsh_csv, rho, (2, 3))),
            (["lhv", "--v", repr(v[3]), "--i", "1", "--j", "1", "--n", n, "--seed", str(self.lhv_seed)], 0,
             partial(self._lhv_json, v[3], -v[3])),
            (["lhv", "--v", repr(v[4]), "--i", "2", "--j", "3", "--n", n, "--config", str(self.cfg),
              "--format", "csv"], 0, partial(self._lhv_csv, v[4])),
            (["sweep", "--steps", "101", "--format", "csv"], 0, partial(self._sweep_csv, 101)),
            (["sweep", "--steps", str(heavy_steps), "--format", "json"], 0, partial(self._sweep_json, heavy_steps)),
            (["criterion", "--state", f, "--config", str(self.cfg), "--output", str(self.out_path)], 0,
             partial(self._criterion_file, rho)),
            (["tensor", "--state", f"file:{self.nan}"], 2, None),
            (["criterion", "--state", f"file:{self.nan}"], 2, None),
        ]

    def _ops(self, heavy_steps: int) -> list[Op]:
        ops = []
        for argv, expect_rc, verify in self._cycle(heavy_steps):
            ops.append(Op(partial(self._invoke, argv), partial(self._check, expect_rc, verify)))
        self.k += 1
        return ops

    def _check(self, expect_rc: int, verify: Callable, out) -> bool:
        rc, stdout, stderr = out
        self.output_bytes += len(stdout.encode())
        if rc != expect_rc:
            return True
        if expect_rc == 2:
            return self._diagnostic(stdout, stderr)
        verify(stdout)
        return False

    @staticmethod
    def _diagnostic(stdout: str, stderr: str) -> bool:
        return not (stdout == "" and stderr.startswith("error: ") and stderr.count("\n") == 1
                    and "Traceback" not in stderr)

    @staticmethod
    def _tensor_csv(rho, text):
        (row,) = _csv_rows(text, "T11,T12,T13,T21,T22,T23,T31,T32,T33")
        ora.check_tensor(np.array([float(x) for x in row]).reshape(3, 3), rho, "tensor csv")

    @staticmethod
    def _criterion_json(rho, text):
        d = _strict_json(text)
        ora.check_criterion(d["lhs"], d["rhs"], d["violated"], d["margin"], ora.tensor_of(rho), "criterion json")
        require(d["comparison_thresholds"] == [ora.THRESHOLD_WHITE, ora.PRIOR_TWO_SETTING], "comparison thresholds")

    @staticmethod
    def _criterion_csv(rho, text):
        header = "lhs,rhs,margin,violated,threshold_criterion,threshold_prior_two_setting"
        (row,) = _csv_rows(text, header)
        lhs, rhs, margin = (float(x) for x in row[:3])
        ora.check_criterion(lhs, rhs, _flag(row[3]), margin, ora.tensor_of(rho), "criterion csv")

    def _criterion_file(self, rho, text):
        require(text == "", "criterion --output wrote to stdout")
        body = self.out_path.read_text(encoding="utf-8")
        self.output_bytes += len(body.encode())
        self._criterion_json(rho, body)

    @staticmethod
    def _threshold_json(exact, text):
        d = _strict_json(text)
        if exact is None:
            require(d["critical_visibility"] is None and d["status"] == "no-violation", f"threshold {d}")
        else:
            require(d["status"] == "ok", f"threshold status {d['status']}")
            close(d["critical_visibility"], exact, 1e-9, "threshold json")

    @staticmethod
    def _threshold_csv(text):
        (row,) = _csv_rows(text, "critical_visibility,status,threshold_criterion,threshold_prior_two_setting")
        require(row[1] == "ok", f"threshold status {row[1]}")
        close(float(row[0]), ora.THRESHOLD_00, 1e-9, "threshold csv")

    @staticmethod
    def _chsh_json(rho, plane, text):
        d = _strict_json(text)
        require(d["plane"] == list(plane), "chsh plane")
        ora.check_chsh(d["values"], ora.tensor_of(rho), plane, "chsh json")

    @staticmethod
    def _chsh_csv(rho, plane, text):
        (row,) = _csv_rows(text, "plane,value_1,value_2,value_3,value_4,bound,max_value,satisfied")
        require(row[0] == f"{plane[0]}{plane[1]}", "chsh plane")
        values = [float(x) for x in row[1:5]]
        ora.check_chsh(values, ora.tensor_of(rho), plane, "chsh csv")
        require(_flag(row[7]) == (max(values) <= 2.0 + 1e-12), "chsh satisfied flag")

    @staticmethod
    def _lhv_json(v, target, text):
        d = _strict_json(text)
        require(d["v"] == v and d["target"] == target and d["n"] == 10**6, f"lhv {d}")
        ora.check_mc(d["mean"], d["std_error"], d["n"], target, "lhv json")

    @staticmethod
    def _lhv_csv(v, text):
        (row,) = _csv_rows(text, "v,i,j,n,mean,std_error,target,pass")
        require(float(row[0]) == v and row[1:4] == ["2", "3", "1000000"], f"lhv csv {row}")
        ora.check_mc(float(row[4]), float(row[5]), 10**6, 0.0, "lhv csv")

    @staticmethod
    def _sweep_csv(steps, text):
        rows = _csv_rows(text, "v,margin,consistent")
        ora.check_sweep([(float(a), float(b), _flag(c)) for a, b, c in rows], steps, "sweep csv")

    @staticmethod
    def _sweep_json(steps, text):
        d = _strict_json(text)
        ora.check_sweep([(x["v"], x["criterion_margin"], x["consistent"]) for x in d], steps, "sweep json")

    def round(self) -> list[Op]:
        return self._ops(self.HEAVY_STEPS)

    def warmup(self) -> None:
        # every invocation once, with a short sweep in place of the heavy one
        for op in self._ops(101):
            attempt(op)
        self.k = 0
        self.output_bytes = 0

    def totals(self) -> dict:
        """Counts summed over the measured operations."""
        return {"cli.output_bytes": self.output_bytes}


WORKLOADS = {"sweep": Sweep, "states": States, "montecarlo": MonteCarlo, "cli": Cli}

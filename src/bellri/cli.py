"""Command-line interface.

Subcommands: tensor, criterion, threshold, chsh, lhv, sweep. State specs are
``werner:<v>``, ``singlet``, ``white``, or ``file:<path>`` (a JSON density
matrix). Exit codes: 0 success, 1 computation sentinel (e.g. no violation
found), 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

from . import criteria, lhv, states, tensor
from .errors import DomainError

CONFIG_ENV_VAR = "BELLRI_CONFIG"
STDOUT_MARKER = "-"

EXIT_OK = 0
EXIT_SENTINEL = 1
EXIT_INVALID = 2


@dataclass(frozen=True)
class RunConfig:
    """Defaults shared by all subcommands; a config file may override them."""

    seed: int = 0
    fmt: str = "json"
    output: str = STDOUT_MARKER
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.fmt not in ("json", "csv"):
            raise DomainError(f"format must be 'json' or 'csv', got {self.fmt!r}")
        if not self.tol > 0.0:
            raise DomainError(f"tol must be positive, got {self.tol}")


_CONFIG_PARSERS = {
    "seed": int,
    "format": str,
    "output": str,
    "tol": float,
}

TENSOR_CSV_HEADER = "T11,T12,T13,T21,T22,T23,T31,T32,T33"
SWEEP_CSV_HEADER = "v,margin,consistent"


def load_config(path: str) -> RunConfig:
    """Parse a ``key=value`` config file (``#`` comments, blank lines ignored)."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            parsed = _CONFIG_PARSERS[key](value.strip())
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        values["fmt" if key == "format" else key] = parsed
    return RunConfig(**values)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    cfg = load_config(path) if path else RunConfig()
    # a flag a subcommand lacks, or leaves unset, keeps the config value
    flags = {"fmt": "format", "output": "output", "seed": "seed", "tol": "tol"}
    given = {f: getattr(args, a, None) for f, a in flags.items()}
    return replace(cfg, **{f: x for f, x in given.items() if x is not None})


def parse_state(spec: str):
    """Resolve a state spec string to a validated density matrix."""
    if spec == "singlet":
        return states.make_singlet()
    if spec == "white":
        return states.maximally_mixed()
    if spec.startswith("werner:"):
        raw = spec.partition(":")[2]
        try:
            v = float(raw)
        except ValueError as exc:
            raise DomainError(f"malformed visibility in state spec {spec!r}") from exc
        return states.make_werner(v)
    if spec.startswith("file:"):
        path = spec.partition(":")[2]
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DomainError(f"cannot read state file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DomainError(f"state file {path} is not valid JSON: {exc}") from exc
        return states.validate_density_matrix(states.matrix_from_json(payload))
    raise DomainError(
        f"unrecognized state spec {spec!r}; use werner:<v>, singlet, white, or file:<path>"
    )


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output == STDOUT_MARKER:
        sys.stdout.write(text)
    else:
        Path(cfg.output).write_text(text, encoding="utf-8")


def _emit_json(payload, cfg: RunConfig) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg)


def _csv(header: str, rows: list[list]) -> str:
    # cells must be Python scalars: numpy 2 reprs a float64 as np.float64(...)
    def cell(x) -> str:
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, float):
            return repr(x)
        return str(x)

    lines = [header] + [",".join(cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_tensor(args: argparse.Namespace, cfg: RunConfig) -> int:
    t = tensor.compute_tensor(parse_state(args.state))
    if cfg.fmt == "json":
        _emit_json(tensor.tensor_to_json(t), cfg)
    else:
        _emit(_csv(TENSOR_CSV_HEADER, [t.ravel().tolist()]), cfg)
    return EXIT_OK


def cmd_criterion(args: argparse.Namespace, cfg: RunConfig) -> int:
    report = criteria.evaluate_ri_criterion(tensor.compute_tensor(parse_state(args.state)))
    if cfg.fmt == "json":
        _emit_json(asdict(report), cfg)
    else:
        header = "lhs,rhs,margin,violated,threshold_criterion,threshold_prior_two_setting"
        row = [
            report.lhs,
            report.rhs,
            report.margin,
            report.violated,
            report.comparison_thresholds[0],
            report.comparison_thresholds[1],
        ]
        _emit(_csv(header, [row]), cfg)
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace, cfg: RunConfig) -> int:
    pure = parse_state(args.pure)
    noise = parse_state(args.noise)
    result = criteria.critical_visibility(pure, noise, cfg.tol)
    status = "ok" if result is not None else "no-violation"
    if cfg.fmt == "json":
        _emit_json(
            {
                "critical_visibility": result,
                "status": status,
                "comparison_thresholds": list(criteria.COMPARISON_THRESHOLDS),
            },
            cfg,
        )
    else:
        header = "critical_visibility,status,threshold_criterion,threshold_prior_two_setting"
        row = [
            result if result is not None else "",
            status,
            criteria.COMPARISON_THRESHOLDS[0],
            criteria.COMPARISON_THRESHOLDS[1],
        ]
        _emit(_csv(header, [row]), cfg)
    return EXIT_OK if result is not None else EXIT_SENTINEL


def cmd_chsh(args: argparse.Namespace, cfg: RunConfig) -> int:
    plane = (int(args.plane[0]), int(args.plane[1]))
    report = criteria.chsh_complete_set(tensor.compute_tensor(parse_state(args.state)), plane)
    if cfg.fmt == "json":
        _emit_json(asdict(report), cfg)
    else:
        header = "plane,value_1,value_2,value_3,value_4,bound,max_value,satisfied"
        row = [args.plane, *report.values, report.bound, report.max_value, report.satisfied]
        _emit(_csv(header, [row]), cfg)
    return EXIT_OK


def cmd_lhv(args: argparse.Namespace, cfg: RunConfig) -> int:
    model = lhv.build_model(args.v)
    est = lhv.estimate_correlation(model, args.i, args.j, args.n, cfg.seed)
    payload = lhv.mc_report(model, args.i, args.j, est)
    if cfg.fmt == "json":
        _emit_json(payload, cfg)
    else:
        header = "v,i,j,n,mean,std_error,target,pass"
        row = [payload[k] for k in ("v", "i", "j", "n", "mean", "std_error", "target", "pass")]
        _emit(_csv(header, [row]), cfg)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    verdicts = lhv.verdict_sweep(args.v_min, args.v_max, args.steps)
    if cfg.fmt == "json":
        _emit_json([asdict(v) for v in verdicts], cfg)
    else:
        rows = [[v.v, v.criterion_margin, v.consistent] for v in verdicts]
        _emit(_csv(SWEEP_CSV_HEADER, rows), cfg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=f"config file (default: ${CONFIG_ENV_VAR})")
    common.add_argument("--format", choices=["json", "csv"], help="output format")
    common.add_argument("--output", help="output path, or - for stdout")

    parser = argparse.ArgumentParser(
        prog="bellri",
        description="Correlation tensors, Bell criteria, and two-setting hidden variable models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tensor", parents=[common], help="correlation tensor of a state")
    p.add_argument("--state", required=True, help="werner:<v> | singlet | white | file:<path>")
    p.set_defaults(handler=cmd_tensor)

    p = sub.add_parser(
        "criterion", parents=[common], help="rotationally invariant criterion report"
    )
    p.add_argument("--state", required=True, help="werner:<v> | singlet | white | file:<path>")
    p.set_defaults(handler=cmd_criterion)

    p = sub.add_parser(
        "threshold", parents=[common], help="critical visibility of a pure/noise mixture"
    )
    p.add_argument("--pure", required=True, help="state spec for the pure component")
    p.add_argument("--noise", required=True, help="state spec for the noise component")
    p.add_argument("--tol", type=float, help="bisection tolerance (default 1e-9)")
    p.set_defaults(handler=cmd_threshold)

    p = sub.add_parser("chsh", parents=[common], help="complete two-setting set in one plane")
    p.add_argument("--state", required=True, help="werner:<v> | singlet | white | file:<path>")
    p.add_argument("--plane", required=True, choices=["12", "23", "13"], help="axes pair")
    p.set_defaults(handler=cmd_chsh)

    p = sub.add_parser(
        "lhv", parents=[common], help="Monte Carlo correlation estimate of the model"
    )
    p.add_argument("--v", type=float, required=True, help="visibility in [0, 1]")
    p.add_argument("--i", type=int, required=True, help="first observer axis (1..3)")
    p.add_argument("--j", type=int, required=True, help="second observer axis (1..3)")
    p.add_argument("--n", type=int, required=True, help="number of samples (>= 1000)")
    p.add_argument("--seed", type=int, help="RNG seed (default from config)")
    p.set_defaults(handler=cmd_lhv)

    p = sub.add_parser(
        "sweep", parents=[common], help="consistency verdicts over a visibility range"
    )
    p.add_argument("--v-min", type=float, default=0.0, help="lowest visibility")
    p.add_argument("--v-max", type=float, default=1.0, help="highest visibility")
    p.add_argument("--steps", type=int, default=101, help="number of sweep points")
    p.set_defaults(handler=cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        return args.handler(args, cfg)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

"""Command-line interface.

Subcommands: tensor, criterion, threshold, chsh, lhv, sweep. State specs are
``werner:<v>``, ``singlet``, ``white``, or ``file:<path>`` (a JSON density
matrix). Exit codes: 0 success, 1 computation sentinel (e.g. no violation
found), 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from . import criteria, lhv, states, tensor
from .errors import DomainError

CONFIG_ENV_VAR = "BELLRI_CONFIG"
STDOUT_MARKER = "-"

EXIT_OK = 0
EXIT_SENTINEL = 1
EXIT_INVALID = 2


@dataclass(frozen=True)
class RunConfig:
    """Defaults for all subcommands; the field names are the config keys and long flags."""

    seed: int = 0
    format: str = "json"
    output: str = STDOUT_MARKER
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.format not in ("json", "csv"):
            raise DomainError(f"format must be 'json' or 'csv', got {self.format!r}")
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"tol must be positive and finite, got {self.tol}")


class Output(NamedTuple):
    """What a subcommand prints; only the format asked for is ever built.

    ``payload`` returns a JSON value, or a string that is already its
    ``json.dumps(..., indent=2, sort_keys=True)`` text.
    """

    payload: Callable[[], Any]
    header: str
    rows: Callable[[], list[list]]
    code: int = EXIT_OK


STATE_SPEC_HELP = "werner:<v> | singlet | white | file:<path>"


def load_config(path: str) -> RunConfig:
    """Parse a ``key=value`` config file (``#`` comments, blank lines ignored)."""
    parsers = {f.name: type(f.default) for f in fields(RunConfig)}
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
        if key not in parsers:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = parsers[key](value.strip())
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(**values)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    cfg = load_config(path) if path else RunConfig()
    # a flag a subcommand lacks, or leaves unset, keeps the config value
    given = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return replace(cfg, **{k: x for k, x in given.items() if x is not None})


def parse_state(spec: str):
    """Resolve a state spec string to a density matrix, validated where its tensor is computed."""
    if spec == "singlet":
        return states.make_singlet()
    if spec == "white":
        return states.maximally_mixed()
    if spec.startswith("werner:"):
        return states.make_werner(spec.partition(":")[2])
    if spec.startswith("file:"):
        path = spec.partition(":")[2]
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DomainError(f"cannot read state file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DomainError(f"state file {path} is not valid JSON: {exc}") from exc
        return states.matrix_from_json(payload)
    raise DomainError(
        f"unrecognized state spec {spec!r}; use werner:<v>, singlet, white, or file:<path>"
    )


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


def cmd_tensor(args: argparse.Namespace, cfg: RunConfig) -> Output:
    t = tensor.compute_tensor(parse_state(args.state))
    return Output(
        lambda: tensor.tensor_to_json(t),
        "T11,T12,T13,T21,T22,T23,T31,T32,T33",
        lambda: [t.ravel().tolist()],
    )


def cmd_criterion(args: argparse.Namespace, cfg: RunConfig) -> Output:
    report = criteria.evaluate_ri_criterion(tensor.compute_tensor(parse_state(args.state)))
    return Output(
        lambda: asdict(report),
        "lhs,rhs,margin,violated,threshold_criterion,threshold_prior_two_setting",
        lambda: [[report.lhs, report.rhs, report.margin, report.violated,
                  *report.comparison_thresholds]],
    )


def cmd_threshold(args: argparse.Namespace, cfg: RunConfig) -> Output:
    result = criteria.critical_visibility(parse_state(args.pure), parse_state(args.noise), cfg.tol)
    status = "ok" if result is not None else "no-violation"
    thresholds = list(criteria.COMPARISON_THRESHOLDS)
    return Output(
        lambda: {
            "critical_visibility": result,
            "status": status,
            "comparison_thresholds": thresholds,
        },
        "critical_visibility,status,threshold_criterion,threshold_prior_two_setting",
        lambda: [["" if result is None else result, status, *thresholds]],
        EXIT_OK if result is not None else EXIT_SENTINEL,
    )


def cmd_chsh(args: argparse.Namespace, cfg: RunConfig) -> Output:
    plane = (int(args.plane[0]), int(args.plane[1]))
    report = criteria.chsh_complete_set(tensor.compute_tensor(parse_state(args.state)), plane)
    return Output(
        lambda: asdict(report),
        "plane,value_1,value_2,value_3,value_4,bound,max_value,satisfied",
        lambda: [[args.plane, *report.values, report.bound, report.max_value, report.satisfied]],
    )


def cmd_lhv(args: argparse.Namespace, cfg: RunConfig) -> Output:
    model = lhv.build_model(args.v)
    est = lhv.estimate_correlation(model, args.i, args.j, args.n, cfg.seed)
    payload = lhv.mc_report(model, args.i, args.j, est)
    return Output(lambda: payload, ",".join(payload), lambda: [list(payload.values())])


# one verdict record as json.dumps(..., indent=2, sort_keys=True) writes it
# inside a list: keys sorted, %r is the float.__repr__ json uses for a finite
# float, and the explanation codes need no escaping
_SWEEP_RECORD = """\
  {
    "consistent": %s,
    "criterion_margin": %r,
    "explanation_code": "%s",
    "v": %r
  }"""
_SWEEP_VERDICT = {False: ("true", lhv.CONSISTENT), True: ("false", lhv.RI_VIOLATED)}


def _sweep_json(vs: list, margins: list, flags: list) -> str:
    records = []
    for v, margin, bad in zip(vs, margins, flags):
        consistent, code = _SWEEP_VERDICT[bad]
        records.append(_SWEEP_RECORD % (consistent, margin, code, v))
    return "[\n" + ",\n".join(records) + "\n]"


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> Output:
    grid = lhv._grid(args.v_min, args.v_max, args.steps)
    margin, violated = lhv._margins(grid)
    vs, margins, flags = grid.tolist(), margin.tolist(), violated.tolist()
    return Output(
        lambda: _sweep_json(vs, margins, flags),
        "v,margin,consistent",
        lambda: [[v, m, not bad] for v, m, bad in zip(vs, margins, flags)],
    )


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
    p.add_argument("--state", required=True, help=STATE_SPEC_HELP)
    p.set_defaults(handler=cmd_tensor)

    p = sub.add_parser(
        "criterion", parents=[common], help="rotationally invariant criterion report"
    )
    p.add_argument("--state", required=True, help=STATE_SPEC_HELP)
    p.set_defaults(handler=cmd_criterion)

    p = sub.add_parser(
        "threshold", parents=[common], help="critical visibility of a pure/noise mixture"
    )
    p.add_argument("--pure", required=True, help="state spec for the pure component")
    p.add_argument("--noise", required=True, help="state spec for the noise component")
    p.add_argument("--tol", type=float, help="bisection tolerance (default 1e-9)")
    p.set_defaults(handler=cmd_threshold)

    p = sub.add_parser("chsh", parents=[common], help="complete two-setting set in one plane")
    p.add_argument("--state", required=True, help=STATE_SPEC_HELP)
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
        out = args.handler(args, cfg)
        if cfg.format == "json":
            payload = out.payload()
            if not isinstance(payload, str):
                payload = json.dumps(payload, indent=2, sort_keys=True)
            text = payload + "\n"
        else:
            text = _csv(out.header, out.rows())
        if cfg.output == STDOUT_MARKER:
            sys.stdout.write(text)
        else:
            Path(cfg.output).write_text(text, encoding="utf-8")
        return out.code
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

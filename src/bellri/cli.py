"""Command-line interface.

Subcommands: tensor, criterion, threshold, chsh, lhv, sweep. State specs are
``werner:<v>``, ``singlet``, ``white``, or ``file:<path>`` (a JSON density
matrix). Exit codes: 0 success, 1 computation sentinel (e.g. no violation
found), 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import criteria, lhv, states, tensor
from .errors import DomainError

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
        # a flag and a config line reach these converters as the same string
        object.__setattr__(self, "seed", states._whole(self.seed, "seed", 0))
        object.__setattr__(self, "tol", states._tolerance(self.tol, "tol"))


class Output(NamedTuple):
    """One thunk per format, returning the finished text as pieces; only the chosen one is ever called.

    Every subcommand but ``sweep`` returns its text as one piece.
    """

    json: Callable[[], Iterable[str]]
    csv: Callable[[], Iterable[str]]
    code: int = EXIT_OK


STATE_SPEC_HELP = "werner:<v> | singlet | white | file:<path>"


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``, or a :class:`DomainError` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")  # drops a leading byte-order mark
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise DomainError(f"cannot read {what} file {path!r}: {exc}") from exc


def load_config(path: str) -> RunConfig:
    """Parse a ``key=value`` config file (``#`` comments, blank lines ignored)."""
    keys = {f.name for f in fields(RunConfig)}
    cfg = RunConfig()
    for lineno, raw in enumerate(_read_text(path, "config").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path!r}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise DomainError(f"{path!r}:{lineno}: unknown config key {key!r}")
        # each line is applied and checked on its own, so a bad value names its line
        try:
            cfg = replace(cfg, **{key: value.strip()})
        except DomainError as exc:
            raise DomainError(f"{path!r}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
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
        text = _read_text(path, "state")
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also an int over the digit limit
            raise DomainError(f"cannot parse state file {path!r} as JSON: {exc}") from exc
        return states.matrix_from_json(payload)
    raise DomainError(
        f"unrecognized state spec {spec!r}; use werner:<v>, singlet, white, or file:<path>"
    )


def _json(value) -> tuple[str]:
    return (json.dumps(value, indent=2, sort_keys=True) + "\n",)


def _csv_lines(rows: Iterable) -> str:
    def cell(x) -> str:
        if isinstance(x, bool):
            return "true" if x else "false"
        return str(x)

    return "".join([",".join(cell(x) for x in row) + "\n" for row in rows])


def _csv(header: str, rows: Iterable) -> tuple[str]:
    return (header + "\n" + _csv_lines(rows),)


def cmd_tensor(args: argparse.Namespace, cfg: RunConfig) -> Output:
    t = tensor.compute_tensor(parse_state(args.state))
    return Output(
        lambda: _json(tensor.tensor_to_json(t)),
        lambda: _csv("T11,T12,T13,T21,T22,T23,T31,T32,T33", [t.ravel().tolist()]),
    )


def cmd_criterion(args: argparse.Namespace, cfg: RunConfig) -> Output:
    report = criteria.evaluate_ri_criterion(tensor.compute_tensor(parse_state(args.state)))
    return Output(
        lambda: _json(report._asdict()),
        lambda: _csv("lhs,rhs,margin,violated,threshold_criterion,threshold_prior_two_setting",
                     [[report.lhs, report.rhs, report.margin, report.violated,
                       *report.comparison_thresholds]]),
    )


def cmd_threshold(args: argparse.Namespace, cfg: RunConfig) -> Output:
    result = criteria.critical_visibility(parse_state(args.pure), parse_state(args.noise), cfg.tol)
    status = "ok" if result is not None else "no-violation"
    return Output(
        lambda: _json({"critical_visibility": result, "status": status,
                       "comparison_thresholds": criteria.COMPARISON_THRESHOLDS}),
        lambda: _csv("critical_visibility,status,threshold_criterion,threshold_prior_two_setting",
                     [["" if result is None else result, status, *criteria.COMPARISON_THRESHOLDS]]),
        EXIT_OK if result is not None else EXIT_SENTINEL,
    )


def cmd_chsh(args: argparse.Namespace, cfg: RunConfig) -> Output:
    report = criteria.chsh_complete_set(tensor.compute_tensor(parse_state(args.state)), args.plane)
    return Output(
        lambda: _json(report._asdict()),
        lambda: _csv("plane,value_1,value_2,value_3,value_4,bound,max_value,satisfied",
                     [["%d%d" % report.plane, *report.values, report.bound, report.max_value,
                       report.satisfied]]),
    )


def cmd_lhv(args: argparse.Namespace, cfg: RunConfig) -> Output:
    model = lhv.build_model(args.v)
    est = lhv.estimate_correlation(model, args.i, args.j, args.n, cfg.seed)
    payload = lhv.mc_report(model, args.i, args.j, est)
    return Output(lambda: _json(payload), lambda: _csv(",".join(payload), [list(payload.values())]))


# the pieces of a verdict record as json.dumps(..., indent=2, sort_keys=True)
# writes it inside a list, around its margin and visibility: keys sorted, repr
# is the float.__repr__ json uses for a finite float, and the explanation codes
# need no escaping. A record's head, picked by its flag, ends the record before
# it; the first record's head is "[" and its opening
_SWEEP_OPEN = {flag: '\n  {\n    "consistent": %s,\n    "criterion_margin": ' % json.dumps(flag)
               for flag in (True, False)}
_SWEEP_HEAD = {flag: "\n  }," + text for flag, text in _SWEEP_OPEN.items()}
_SWEEP_MIDDLE = {flag: ',\n    "explanation_code": "%s",\n    "v": ' % code
                 for flag, code in ((True, lhv.CONSISTENT), (False, lhv.RI_VIOLATED))}


def _sweep_json(chunks: Iterable[tuple[list, list, list]]) -> Iterator[str]:
    # one join per chunk over its records' four pieces each: the float reprs
    # are the only work per point
    for k, (vs, margins, flags) in enumerate(chunks):
        pieces = [None] * (4 * len(vs))
        pieces[0::4] = map(_SWEEP_HEAD.__getitem__, flags)
        pieces[1::4] = map(repr, margins)
        pieces[2::4] = map(_SWEEP_MIDDLE.__getitem__, flags)
        pieces[3::4] = map(repr, vs)
        if k == 0:
            pieces[0] = "[" + _SWEEP_OPEN[flags[0]]
        yield "".join(pieces)
    yield "\n  }\n]\n"


def _sweep_csv(chunks: Iterable[tuple[list, list, list]]) -> Iterator[str]:
    yield "v,margin,consistent\n"
    for chunk in chunks:
        yield _csv_lines(zip(*chunk))


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> Output:
    # the range is checked here, before the first piece is written
    chunks = lhv._sweep_chunks(args.v_min, args.v_max, args.steps)
    return Output(lambda: _sweep_json(chunks), lambda: _sweep_csv(chunks))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one per-process parser, built on the first call (never at import).

    Each subcommand's handler is bound when the parser is built, so patching
    a ``cmd_*`` function after that first call has no effect.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file")
    common.add_argument("--format", help="output format: json or csv")
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
    p.add_argument("--tol", help="bisection tolerance (default 1e-9)")
    p.set_defaults(handler=cmd_threshold)

    p = sub.add_parser("chsh", parents=[common], help="complete two-setting set in one plane")
    p.add_argument("--state", required=True, help=STATE_SPEC_HELP)
    p.add_argument("--plane", required=True, help="axes pair: 12, 23 or 13")
    p.set_defaults(handler=cmd_chsh)

    p = sub.add_parser(
        "lhv", parents=[common], help="Monte Carlo correlation estimate of the model"
    )
    p.add_argument("--v", required=True, help="visibility in [0, 1]")
    p.add_argument("--i", required=True, help="first observer axis (1..3)")
    p.add_argument("--j", required=True, help="second observer axis (1..3)")
    p.add_argument("--n", required=True, help="number of samples (>= 1000)")
    p.add_argument("--seed", help="RNG seed (default from config)")
    p.set_defaults(handler=cmd_lhv)

    p = sub.add_parser(
        "sweep", parents=[common], help="consistency verdicts over a visibility range"
    )
    p.add_argument("--v-min", default=0.0, help="lowest visibility")
    p.add_argument("--v-max", default=1.0, help="highest visibility")
    p.add_argument("--steps", default=101, help="number of sweep points")
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
        pieces = out.json() if cfg.format == "json" else out.csv()
        # each piece is written as it comes, so a sweep holds one chunk's text at a time
        if cfg.output == STDOUT_MARKER:
            for piece in pieces:
                sys.stdout.write(piece)
        else:
            try:
                with Path(cfg.output).open("w", encoding="utf-8") as f:
                    for piece in pieces:
                        f.write(piece)
            except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
                raise DomainError(f"cannot write output file {cfg.output!r}: {exc}") from exc
        return out.code
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())

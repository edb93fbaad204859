"""Command line front end.

Verbs:

  build       emit a named function as series JSON
  transform   apply a transform to a series read from a file or stdin
  check       evaluate a one-shot predicate at a fixed radius
  radius      bisect for the largest radius where a predicate holds
  functional  evaluate a coefficient functional against its sharp bound
  sample      draw a random Herglotz function (or its measure)
  report      run a seeded sampling sweep through every bound check

Series travel as JSON objects {"order": N, "coeffs": [[re, im], ...]}
on stdin/stdout unless --input/--output name files, so verbs compose
under shell pipes.  Output is serialized with sorted keys so identical
inputs give identical bytes.

Exit codes: 0 on success, 2 for validation errors (bad flags, malformed
input, unreadable or unwritable files, out-of-range parameters), 1 for
computation errors (singular division, degenerate probes, and other
runtime failures).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .caratheodory import measure_to_dict, sample, sample_measure
from .errors import InvalidParameter, NonFiniteResult, SchlichtError, ValidationError
from .functionals import bieberbach_check, covering_check, fekete_szego, hankel
from .probe import (
    PREDICATES,
    circle_angles,
    circle_values,
    class_predicate,
    class_radius,
    predicate_kind,
)
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    require_count,
    series_from_dict,
    series_to_dict,
)
from .transforms import (
    Bernardi,
    Dilation,
    DiskAutomorphism,
    Libera,
    LinearSum,
    OmittedValue,
    Rotation,
    SquareRoot,
    apply,
    convolve,
    iterate_alpha,
    iterate_sigma,
)
from .zoo import STOCK_FUNCTIONS, named_function, report_suite

#: Count flags capped before any work, as (flag, positive, most), so
#: that a typo cannot ask for gigabytes of memory or hours of work.
MAX_ORDER = 4096
MAX_SAMPLES = 10**6
MAX_ANGLES = 65536
MAX_ATOMS = 1024
MAX_STAGES = 10**5
_CAPS = (
    ("--order", False, MAX_ORDER),
    ("--samples", True, MAX_SAMPLES),
    ("--angles", False, MAX_ANGLES),
    ("--atoms", True, MAX_ATOMS),
    ("--n", False, MAX_STAGES),
)


def _read_series(path: Optional[str]) -> TruncatedSeries:
    """The series JSON on stdin, or in the UTF-8 file a flag names."""
    try:
        text = sys.stdin.read() if path is None else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidParameter(f"cannot read {path or 'stdin'}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{path or 'stdin'} is not UTF-8 text") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"input is not valid JSON: {exc}") from exc
    return series_from_dict(payload)


def _write_text(text: str, path: Optional[str]) -> None:
    """text on stdout, or in the UTF-8 file a flag names."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise InvalidParameter(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(obj: object, path: Optional[str]) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult("result is not finite: inf or NaN has no JSON form") from exc
    _write_text(text + "\n", path)


#: Flags whose value is a complex literal.  argparse reads a value such as
#: "-0.3+0.2j", which starts with "-" but is no plain negative real, as
#: another option.
_COMPLEX_FLAGS = ("--sigma", "--xi")
_SIGNED_LITERAL = re.compile(r"-[0-9.]")


def _attach_signed_values(argv: Sequence[str]) -> list:
    """Rewrite '--xi -0.25-0.1j' as '--xi=-0.25-0.1j', the form argparse
    accepts for a complex literal with a leading minus."""
    out: list = []
    for token in argv:
        if out and out[-1] in _COMPLEX_FLAGS and _SIGNED_LITERAL.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_complex(text: str, flag: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise InvalidParameter(f"{flag} must be a complex literal, got {text!r}") from exc


def _parse_real(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise InvalidParameter(f"{flag} must be a real number, got {text!r}") from exc


def _resolve_input(args: argparse.Namespace) -> TruncatedSeries:
    """Series for verbs that accept either --function NAME or series JSON."""
    function = getattr(args, "function", None)
    if function is not None:
        if args.input is not None:
            raise InvalidParameter("give --function or --input, not both")
        return named_function(function, order=args.order).series
    return _read_series(args.input)


def _write_boundary_csv(path: str, f: TruncatedSeries, r: float, n_angles: int) -> None:
    # the curve the probes decide on, sample for sample
    values = circle_values(f, r, n_angles)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["theta", "re", "im"])
    for t, w in zip(circle_angles(n_angles), values):
        writer.writerow([repr(float(t)), repr(float(w.real)), repr(float(w.imag))])
    _write_text(buf.getvalue(), path)


def cmd_build(args: argparse.Namespace) -> int:
    nf = named_function(args.name, order=args.order)
    _emit(series_to_dict(nf.series), args.output)
    return 0


#: Transform kind -> (flags it requires, map from the input series and
#: those flags' values to the output series).  The argparse choices of
#: the transform verb are this table's keys.
TRANSFORMS = {
    "rotate": (("--theta",), lambda f, theta: apply(Rotation(theta), f)),
    "dilate": (("--r",), lambda f, r: apply(Dilation(r), f)),
    "autom": (
        ("--sigma",),
        lambda f, sigma: apply(DiskAutomorphism(_parse_complex(sigma, "--sigma")), f),
    ),
    "omit": (("--xi",), lambda f, xi: apply(OmittedValue(_parse_complex(xi, "--xi")), f)),
    "sqrt": ((), lambda f: apply(SquareRoot(), f)),
    "libera": ((), lambda f: apply(Libera(), f)),
    "bernardi": (("--gamma",), lambda f, gamma: apply(Bernardi(gamma), f)),
    "convolve": (("--with",), lambda f, path: convolve(f, _read_series(path))),
    "linsum": (
        ("--with", "--t"),
        lambda f, path, t: apply(LinearSum(t, _read_series(path)), f),
    ),
    "iterate": (("--alpha", "--n"), iterate_alpha),
    "iterate-sigma": (
        ("--sigma", "--n"),
        lambda f, sigma, n: iterate_sigma(f, _parse_real(sigma, "--sigma"), n),
    ),
}


def _hankel_record(f: TruncatedSeries, q: int, n: int) -> dict:
    value = hankel(f, q, n)
    return {"n": n, "q": q, "value": [float(value.real), float(value.imag)]}


#: Functional kind -> (flags it requires, map from the input series and
#: those flags' values to the JSON result), in the shape of TRANSFORMS.
FUNCTIONALS = {
    "fekete": (("--alpha",), lambda f, alpha: fekete_szego(f, alpha).to_dict()),
    "hankel": (("--q", "--n"), _hankel_record),
    "bieberbach": ((), lambda f: bieberbach_check(f).to_dict()),
    "covering": (
        ("--xi",),
        lambda f, xi: covering_check(f, _parse_complex(xi, "--xi")).to_dict(),
    ),
}


def _run_table(verb: str, table: dict, args: argparse.Namespace, f: TruncatedSeries):
    """Call the map of table[args.kind] on f and the values of its
    flags, after checking that each flag was given."""
    flags, run = table[args.kind]
    values = [getattr(args, flag[2:]) for flag in flags]
    for flag, value in zip(flags, values):
        if value is None:
            raise InvalidParameter(f"{verb} {args.kind!r} requires {flag}")
    return run(f, *values)


def cmd_transform(args: argparse.Namespace) -> int:
    f = _read_series(args.input)
    _emit(series_to_dict(_run_table("transform", TRANSFORMS, args, f)), args.output)
    return 0


def _probe_inputs(args: argparse.Namespace, name: str) -> tuple:
    """(row, f, g): the PREDICATES row of the predicate name, f, and g
    or None.  Before any file is read, --g is refused for a kind that
    does not read g and required for one that does."""
    row = PREDICATES[predicate_kind(name)]
    if row.reads_g and args.g is None:
        raise InvalidParameter(f"{name} requires --g")
    if args.g is not None and not row.reads_g:
        raise InvalidParameter(f"{name} does not read --g")
    f = _resolve_input(args)
    return row, f, _read_series(args.g) if row.reads_g else None


def cmd_check(args: argparse.Namespace) -> int:
    row, f, g = _probe_inputs(args, args.klass)
    n_angles = row.angles if args.angles is None else args.angles
    holds = class_predicate(args.klass, f, args.r, n_angles, g)
    if args.boundary is not None:
        _write_boundary_csv(args.boundary, f, args.r, n_angles)
    _emit({"class": args.klass, "holds": bool(holds), "r": args.r}, args.output)
    return 0


def cmd_radius(args: argparse.Namespace) -> int:
    given = {args.predicate, args.predicate_flag} - {None}
    if not given:
        raise InvalidParameter("radius needs a predicate (positional or --predicate)")
    if len(given) > 1:
        raise InvalidParameter(
            f"radius got two predicates, {args.predicate} and --predicate {args.predicate_flag}"
        )
    (predicate,) = given
    _, f, g = _probe_inputs(args, predicate)
    result = class_radius(predicate, f, g=g, tol=args.tol, n_angles=args.angles)
    out = result.to_dict()
    if args.trace:
        out["trace"] = result.trace
        out["monotone"] = result.monotone
    _emit(out, args.output)
    return 0


def cmd_functional(args: argparse.Namespace) -> int:
    f = _resolve_input(args)
    _emit(_run_table("functional", FUNCTIONALS, args, f), args.output)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.measure:
        mu = sample_measure(args.seed, args.atoms)
        _emit(measure_to_dict(mu), args.output)
    else:
        h = sample(args.seed, args.atoms, order=args.order)
        _emit(series_to_dict(h), args.output)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    summary = report_suite(args.seed, args.samples, order=args.order)
    _emit(summary, args.output)
    return 0 if summary["total_violations"] == 0 else 1


def _add_io(parser: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        parser.add_argument("--input", help="series JSON file (default: stdin)")
    parser.add_argument("--output", help="output file (default: stdout)")


def _add_function_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--function",
        choices=STOCK_FUNCTIONS,
        help="use a named function instead of reading series JSON",
    )
    parser.add_argument(
        "--order",
        type=int,
        default=DEFAULT_ORDER,
        help="truncation order when --function is used (default %(default)s)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process.  Parsing keeps
    no state in it, and --help reads COLUMNS when it prints."""
    parser = argparse.ArgumentParser(
        prog="schlicht",
        description="normalized univalent functions as truncated power series",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    predicates = tuple(k.replace("_", "-") for k in PREDICATES)

    p = sub.add_parser("build", help="emit a named function as series JSON")
    p.add_argument("name", choices=STOCK_FUNCTIONS)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    _add_io(p, with_input=False)
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("transform", help="apply a transform to a series")
    p.add_argument("kind", choices=TRANSFORMS)
    p.add_argument("--theta", type=float, help="rotation angle in radians")
    p.add_argument("--r", type=float, help="dilation factor in (0, 1)")
    p.add_argument("--sigma", help="disk point (autom) or real exponent (iterate-sigma)")
    p.add_argument("--xi", help="omitted value, nonzero complex literal")
    p.add_argument("--gamma", type=float, help="integral-operator parameter, > -1")
    p.add_argument("--alpha", type=float, help="per-step weight for iterate")
    p.add_argument("--n", type=int, help="iteration count")
    p.add_argument("--t", type=float, help="mixing weight in [0, 1] for linsum")
    p.add_argument("--with", metavar="WITH_PATH", help="second series JSON file")
    _add_io(p)
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("check", help="one-shot class predicate at radius r")
    p.add_argument("--class", dest="klass", required=True, choices=predicates)
    p.add_argument("--r", type=float, required=True, help="test radius in (0, 1)")
    p.add_argument("--angles", type=int, default=None)
    p.add_argument("--g", help="comparison series JSON file for two-function classes")
    p.add_argument("--boundary", help="write boundary samples as CSV (theta,re,im)")
    _add_function_source(p)
    _add_io(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("radius", help="largest radius where a predicate holds")
    p.add_argument("predicate", nargs="?", choices=predicates)
    p.add_argument("--predicate", dest="predicate_flag", choices=predicates)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--angles", type=int, default=None)
    p.add_argument("--g", help="comparison series JSON file for two-function classes")
    p.add_argument(
        "--trace",
        action="store_true",
        help="add every (radius, holds) evaluation and a monotone flag",
    )
    _add_function_source(p)
    _add_io(p)
    p.set_defaults(handler=cmd_radius)

    p = sub.add_parser("functional", help="coefficient functional vs sharp bound")
    p.add_argument("kind", choices=FUNCTIONALS)
    p.add_argument("--alpha", type=float, help="weight in [0, 1] for fekete")
    p.add_argument("--q", type=int, default=2, help="hankel block size")
    p.add_argument("--n", type=int, default=1, help="hankel starting index")
    p.add_argument("--xi", help="omitted value for covering, nonzero complex literal")
    _add_function_source(p)
    _add_io(p)
    p.set_defaults(handler=cmd_functional)

    p = sub.add_parser("sample", help="draw a random Herglotz function")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--atoms", type=int, default=4)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--measure", action="store_true", help="emit the measure, not the series")
    _add_io(p, with_input=False)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("report", help="seeded sweep through every bound check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--order", type=int, default=32)
    _add_io(p, with_input=False)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_signed_values(argv))
    try:
        for flag, positive, most in _CAPS:
            value = getattr(args, flag[2:], None)
            if value is not None:
                require_count(value, flag, positive=positive, most=most)
        # every non-finite result is refused by an explicit check, so
        # numpy's warnings on the way there would only repeat the error
        with np.errstate(all="ignore"):
            return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchlichtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands load a boundary-condition JSON document, run the matching
validator or operator, and print JSON (or CSV for sweeps) with stable
formatting: dictionary keys in fixed order, floats in shortest round-trip
form, ASCII-only escapes.  Exit codes: 0 success, 1 mathematical failure
(invalid condition, singular operator), 2 usage or parse error.

The decision tolerance defaults to 1e-10 for validate and to
1e-10 * (1 + spectral radius of F) for classify and bound.  The PTSPIN_TOL
environment variable overrides the default, and a --tol flag overrides both.
Only the commands with --tol (validate, bound, classify, sweep) read
PTSPIN_TOL; yop, ybe and bethe take no tolerance and ignore it.

`bethe` prints, for N >= 3, the path consistency: the largest absolute
max-abs Yang-Baxter defect of the transposed exchange operators over all
C(N,3) momentum triples (`bethe.path_consistency`), not scaled by the
operators' size.

A command returns its exit code and its output, one string or an iterable of
string pieces that `_emit` writes in order.  `bethe` streams: it computes the
coefficients and the path consistency first, then yields the head, one
coefficient object per row and the closing brackets, so it holds one row of
Python objects at a time, not the N!·n^N-entry document.  Every error is
raised before the first piece is written, so a failing command writes only
its error JSON; an --output that cannot be opened or written is a usage
error (exit 2).

Only the standard library, numpy, `linalg` and `boundary` load with this
module.  A command imports the rest of what it runs (`scattering`, `bethe`,
`spectra`, `csv`) when it runs, so `validate` loads no exchange-operator,
Bethe or bound-state code.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from .boundary import (
    ParseError,
    SeparatedBC,
    ValidationReport,
    load_boundary_condition,
    lower,
    parse_boundary_condition,
    read_document,
    require_separated,
    validate,
)
from .linalg import (
    SingularMatrixError,
    SpinDims,
    as_tolerance,
    complex_to_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    """Bad flags or inputs at the level of command usage (exit 2)."""


def _resolve_tol(args) -> float | None:
    """--tol beats PTSPIN_TOL beats the library default (returned as None);
    only for the commands that define --tol."""
    for source, value in (("--tol", args.tol), ("PTSPIN_TOL", os.environ.get("PTSPIN_TOL"))):
        if value is not None:
            try:
                return as_tolerance(value)
            except ValueError as exc:
                raise _UsageError(f"{source}: {exc}") from None
    return None


_encode = json.JSONEncoder(separators=(",", ":")).encode


def _dumps(doc) -> str:
    return _encode(doc) + "\n"


def _require_separated(bc, what: str) -> SeparatedBC:
    try:
        return require_separated(bc, what)
    except TypeError as exc:
        raise _UsageError(str(exc)) from None


def _report_doc(report: ValidationReport) -> dict:
    return {
        "valid": report.valid,
        "residuals": {key: float(value) for key, value in report.residuals.items()},
        "tolerance": float(report.tolerance),
    }


def cmd_validate(args, tol) -> tuple[int, str]:
    bc = load_boundary_condition(args.input)
    report = validate(bc, tol)
    return (EXIT_OK if report.valid else EXIT_MATH), _dumps(_report_doc(report))


def cmd_yop(args, tol) -> tuple[int, str]:
    from .scattering import make_y_factory, relative_momentum
    k12 = relative_momentum(*_require_finite("--k1 and --k2", (args.k1, args.k2)))
    y = make_y_factory(load_boundary_condition(args.input), args.statistics)(k12)
    return EXIT_OK, _dumps({"k12": k12, "Y": matrix_to_json(y)})


def _ybe(bc, args) -> float:
    from .scattering import make_y_factory, pair_momenta, y_separated, ybe_residual
    momenta = _momenta(args, exactly=3)
    lowered = lower(bc)
    if isinstance(lowered, SeparatedBC):
        # One stacked solve; ybe_residual's three requests are served from the kept stack.
        y_separated(lowered, np.array(pair_momenta(momenta)))
    factory = make_y_factory(lowered, args.statistics)
    return float(ybe_residual(factory, *momenta, SpinDims(lowered.n, 3)))


def cmd_ybe(args, tol) -> tuple[int, str]:
    return EXIT_OK, _dumps({"residual": _ybe(load_boundary_condition(args.input), args)})


def cmd_bethe(args, tol) -> tuple[int, Iterator[str]]:
    from .bethe import bethe_coefficients, path_consistency
    momenta = _momenta(args, minimum=2)
    bc = _require_separated(load_boundary_condition(args.input), "coefficient propagation")
    dims = SpinDims(bc.n, len(momenta))
    if args.u_init is None:
        u_init = np.zeros(dims.total_dim, dtype=np.complex128)
        u_init[0] = 1.0
    else:
        try:
            u_init = vector_from_json(json.loads(args.u_init))
        except (json.JSONDecodeError, ValueError) as exc:
            raise _UsageError(f"--u-init: {exc}") from None
    state = bethe_coefficients(bc, momenta, u_init, args.statistics)
    # The triples' operators come from the stack the coefficients kept (`y_separated`).
    consistency = path_consistency(bc, momenta, u_init, args.statistics) if dims.N >= 3 else None
    return EXIT_OK, _bethe_pieces(state, consistency)


def _bethe_pieces(state, consistency) -> Iterator[str]:
    """The bethe document in pieces: the head, one coefficient object per row,
    and the closing brackets.  Only arrays that already exist are formatted."""
    head = _encode({
        "momenta": list(state.momenta),
        "statistics": state.statistics.value,
        "path_consistency": consistency,
    })
    yield head[:-1] + ',"coefficients":['
    pairs = state.array.view(np.float64).reshape(len(state.array), -1, 2)
    for index, ((perm, word), row) in enumerate(zip(state.words.items(), pairs)):
        yield ("," if index else "") + _encode({"perm": list(perm), "word": list(word), "u": row.tolist()})
    yield "]}\n"


def _bound_state_doc(state) -> dict:
    return {
        "lambda": float(state.lam),
        "energy": float(state.energy),
        "epsilon": list(state.epsilon.values()),
        "v": vector_to_json(state.v),
    }


def cmd_bound(args, tol) -> tuple[int, str]:
    from .spectra import bound_states
    if args.particles < 2:
        raise _UsageError(f"--particles must be at least 2, got {args.particles}")
    bc = _require_separated(load_boundary_condition(args.input), "bound-state construction")
    states = bound_states(bc, args.particles, args.statistics, tol)
    return EXIT_OK, _dumps([_bound_state_doc(s) for s in states])


def _classify(bc, tol):
    from .spectra import classify_spectrum
    lowered = _require_separated(bc, "spectral classification")
    if lowered.dirichlet:
        raise _UsageError("the Dirichlet member has no coupling matrix to classify")
    return classify_spectrum(lowered.F, tol)


def cmd_classify(args, tol) -> tuple[int, str]:
    report = _classify(load_boundary_condition(args.input), tol)
    doc = {
        "eigenvalues": [complex_to_json(v) for v in report.eigenvalues],
        "real_subset": [float(v) for v in report.real_subset],
        "complex_pairs": [[complex_to_json(a), complex_to_json(b)] for a, b in report.complex_pairs],
        "unpaired": [complex_to_json(v) for v in report.unpaired],
        "tol": float(report.tol),
    }
    return EXIT_OK, _dumps(doc)


_SWEEP_COLUMNS = {
    "validate": ("valid", "max_residual"),
    "ybe": ("residual",),
    "classify": ("n_real", "n_complex"),
}


def _sweep_point(run: str, bc, args, tol) -> list[str]:
    if run == "validate":
        report = validate(bc, tol)
        return ["true" if report.valid else "false", repr(float(report.max_residual))]
    if run == "ybe":
        return [repr(_ybe(bc, args))]
    report = _classify(bc, tol)
    n_real = len(report.real_subset)
    return [str(n_real), str(len(report.eigenvalues) - n_real)]


def cmd_sweep(args, tol) -> tuple[int, str]:
    import csv
    name, grid = _parse_param_grid(args.param)
    template = read_document(args.input)
    if not isinstance(template, dict):
        raise ParseError("boundary-condition document must be an object")
    container = template.get("params") if template.get("kind") == "hspin" else template
    if not isinstance(container, dict) or name not in container or \
            isinstance(container[name], bool) or not isinstance(container[name], (int, float)):
        raise _UsageError(f"template has no scalar parameter {name!r}")
    rows = []
    for value in grid:
        point = {**container, name: value}
        doc = point if container is template else {**template, "params": point}
        bc = parse_boundary_condition(doc)
        rows.append([name, repr(value)] + _sweep_point(args.run, bc, args, tol))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(["param", "value", *_SWEEP_COLUMNS[args.run]])
    writer.writerows(rows)
    return EXIT_OK, buffer.getvalue()


def _parse_param_grid(text: str) -> tuple[str, list[float]]:
    name, sep, rest = text.partition("=")
    parts = rest.split(":")
    if not sep or not name or len(parts) != 3:
        raise _UsageError(f"--param must look like name=lo:hi:steps, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise _UsageError(f"--param must look like name=lo:hi:steps, got {text!r}") from None
    if steps < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
        raise _UsageError(f"--param needs finite bounds and steps >= 1, got {text!r}")
    if steps == 1:
        return name, [lo]
    if not math.isfinite(hi - lo):
        raise _UsageError(f"--param span hi - lo must be finite, got {text!r}")
    return name, [float(v) for v in np.linspace(lo, hi, steps)]


def _momenta(args, exactly: int | None = None, minimum: int | None = None) -> list[float]:
    raw = getattr(args, "k", None)
    if raw is None:
        raise _UsageError("--k is required for this command")
    try:
        momenta = [float(part) for part in raw.split(",")]
    except ValueError:
        raise _UsageError(f"--k must be a comma-separated list of numbers, got {raw!r}") from None
    if exactly is not None and len(momenta) != exactly:
        raise _UsageError(f"--k needs exactly {exactly} momenta, got {len(momenta)}")
    if minimum is not None and len(momenta) < minimum:
        raise _UsageError(f"--k needs at least {minimum} momenta, got {len(momenta)}")
    return _require_finite("--k entries", momenta)


def _require_finite(what: str, momenta):
    if not all(math.isfinite(k) for k in momenta):
        raise _UsageError(f"{what} must be finite")
    return momenta


def _statistics_flag(parser):
    parser.add_argument("--statistics", choices=("boson", "fermion"), default="boson",
                        help="exchange statistics (default: boson)")


def _tol_flag(parser):
    parser.add_argument("--tol", type=float, default=None,
                        help="decision tolerance (default 1e-10 for validate, "
                             "1e-10*(1+spectral radius of F) for classify and bound; "
                             "PTSPIN_TOL, read only by commands with this flag, overrides "
                             "the default, and this flag overrides both)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse_args call
    returns a fresh Namespace, and PTSPIN_TOL is read per call."""
    parser = argparse.ArgumentParser(
        prog="ptspin",
        description="Validators, exchange operators, and bound states for "
                    "spin-coupling point interactions.",
    )
    parser.add_argument("--output", default=None, help="write output to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check family constraints of a boundary-condition file")
    p.add_argument("input")
    _tol_flag(p)

    p = sub.add_parser("yop", help="two-particle exchange operator at k12=(k1-k2)/2")
    p.add_argument("input")
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--k2", type=float, required=True)
    _statistics_flag(p)

    p = sub.add_parser("ybe", help="three-particle factorization residual")
    p.add_argument("input")
    p.add_argument("--k", required=True, help="three momenta, comma separated")
    _statistics_flag(p)

    p = sub.add_parser("bethe", help="propagate plane-wave coefficients to all permutations")
    p.add_argument("input")
    p.add_argument("--k", required=True, help="momenta, comma separated (at least two)")
    p.add_argument("--u-init", default=None,
                   help="initial coefficient as a JSON vector of [re,im] pairs "
                        "(default: first basis vector)")
    _statistics_flag(p)

    p = sub.add_parser("bound", help="bound states of a separated condition")
    p.add_argument("input")
    p.add_argument("--particles", type=int, required=True)
    _statistics_flag(p)
    _tol_flag(p)

    p = sub.add_parser("classify", help="eigenvalue realness report of the coupling matrix")
    p.add_argument("input")
    _tol_flag(p)

    p = sub.add_parser("sweep", help="scan one scalar parameter and emit CSV")
    p.add_argument("input")
    p.add_argument("--param", required=True, help="name=lo:hi:steps")
    p.add_argument("--run", choices=sorted(_SWEEP_COLUMNS), required=True)
    p.add_argument("--k", default=None, help="momenta for --run ybe")
    _statistics_flag(p)
    _tol_flag(p)

    return parser


_DISPATCH = {
    "validate": cmd_validate,
    "yop": cmd_yop,
    "ybe": cmd_ybe,
    "bethe": cmd_bethe,
    "bound": cmd_bound,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
}


def _emit(args, text: str | Iterable[str]) -> None:
    """Write a command's output, one string or its pieces in order, to --output or stdout."""
    pieces = (text,) if isinstance(text, str) else text
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _usage_error(exc) -> int:
    print(f"ptspin: error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tol = _resolve_tol(args) if "tol" in vars(args) else None
        code, text = _DISPATCH[args.command](args, tol)
    except (_UsageError, ParseError, OSError) as exc:
        return _usage_error(exc)
    except SingularMatrixError as exc:
        code, text = EXIT_MATH, _dumps({"error": "singular", "detail": str(exc)})
    except (ValueError, np.linalg.LinAlgError) as exc:
        code, text = EXIT_MATH, _dumps({"error": "invalid", "detail": str(exc)})
    except MemoryError as exc:
        # A failed Python allocation raises MemoryError with no text.
        code, text = EXIT_MATH, _dumps({"error": "invalid", "detail": str(exc) or "out of memory"})
    try:
        _emit(args, text)
    except OSError as exc:
        return _usage_error(exc)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

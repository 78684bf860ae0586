"""Boundary-condition families for point interactions with spin coupling.

Two representations are used.  Non-separated conditions relate boundary data
across the origin through four n^2 x n^2 connection matrices (A, B, C, D)
acting on (psi, psi') pairs.  Separated conditions fix Robin-type data on each
side independently through a coupling matrix F, with the opposite side forced
to G = -conj(F) by PT symmetry (conjugation is entrywise, no transpose).

Validators never impose parameter inequalities on matrix families; they report
per-constraint residuals in the entrywise max-abs norm and compare against a
tolerance.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    SpinDims,
    as_operator,
    as_tolerance,
    cayley,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    statistics_swap,
)

TWO_PI = 2.0 * math.pi

__all__ = [
    "ParseError",
    "ScalarBC",
    "NonseparatedBC",
    "SeparatedBC",
    "ValidationReport",
    "scalar_sa_nonseparated",
    "scalar_sa_separated",
    "scalar_pt_type1",
    "scalar_pt_type2",
    "delta_type",
    "delta_prime_type",
    "hspin",
    "lift_scalar",
    "validate_nonseparated_pt",
    "validate_selfadjoint",
    "validate_separated_pt",
    "validate_separated_selfadjoint",
    "validate",
    "lower",
    "require_separated",
    "compatibility_residual",
    "parse_boundary_condition",
    "read_document",
    "load_boundary_condition",
    "boundary_condition_to_json",
]

HSPIN_PARAM_NAMES = ("a", "b", "c", "d", "f", "g", "e1", "e2", "e3", "e4")


class ParseError(ValueError):
    """A boundary-condition document is structurally malformed."""


@dataclass(frozen=True)
class ScalarBC:
    """One-channel (n=1) boundary condition, tagged by family."""

    kind: str  # sa_nonseparated | sa_separated | pt_type1 | pt_type2
    params: dict[str, float] = field(repr=True)

    def connection_matrix(self) -> np.ndarray:
        """2x2 connection matrix for the non-separated scalar families."""
        p = self.params
        if self.kind == "sa_nonseparated":
            phase = np.exp(1j * p["theta"])
            return phase * np.array([[p["a"], p["b"]], [p["c"], p["d"]]])
        if self.kind == "pt_type1":
            root = math.sqrt(_require_one_plus_bc(p["b"], p["c"]))
            phase = np.exp(1j * p["theta"])
            return phase * np.array(
                [
                    [root * np.exp(1j * p["phi"]), p["b"]],
                    [p["c"], root * np.exp(-1j * p["phi"])],
                ]
            )
        raise ValueError(f"scalar family {self.kind!r} has no connection matrix")


@dataclass(frozen=True)
class NonseparatedBC:
    """Connection-matrix boundary condition (psi, psi')_+ = [[A,B],[C,D]] (psi, psi')_-."""

    n: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in "ABCD":
            object.__setattr__(
                self, name, _block(getattr(self, name), f"connection matrix {name}", self.n))


@dataclass(frozen=True)
class SeparatedBC:
    """Separated boundary condition psi'(0+) = F psi(0+), psi'(0-) = -conj(F) psi(0-).

    F is None for the Dirichlet limit psi(0+) = psi(0-) = 0, which downstream
    exchange operators map to Y = -identity.
    """

    n: int
    F: np.ndarray | None

    def __post_init__(self):
        if self.F is None:
            SpinDims(self.n, 1)  # the Dirichlet member still needs n >= 1
        else:
            object.__setattr__(self, "F", _block(self.F, "coupling matrix F", self.n))

    @property
    def dirichlet(self) -> bool:
        return self.F is None


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a constraint check: per-constraint max-abs residuals."""

    valid: bool
    residuals: dict[str, float]
    tolerance: float

    @classmethod
    def from_residuals(cls, residuals: dict[str, float], tolerance: float) -> ValidationReport:
        tolerance = as_tolerance(tolerance)
        worst = max(residuals.values()) if residuals else 0.0
        return cls(valid=worst <= tolerance, residuals=dict(residuals), tolerance=tolerance)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


def _require_finite_real(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"parameter {name} must be finite, got {value!r}")
    return value


def _require_one_plus_bc(b: float, c: float) -> float:
    """1 + bc, which the pt_type1 family needs non-negative for its square root."""
    if 1.0 + b * c < 0.0:
        raise ValueError(f"parameter constraint 1 + bc >= 0 violated: got {1.0 + b * c!r}")
    return 1.0 + b * c


def scalar_sa_nonseparated(theta: float, a: float, b: float, c: float, d: float) -> ScalarBC:
    """Self-adjoint one-channel family e^{i theta} [[a,b],[c,d]] with ad - bc = 1."""
    params = {
        "theta": _require_finite_real(theta, "theta") % TWO_PI,
        "a": _require_finite_real(a, "a"),
        "b": _require_finite_real(b, "b"),
        "c": _require_finite_real(c, "c"),
        "d": _require_finite_real(d, "d"),
    }
    det = params["a"] * params["d"] - params["b"] * params["c"]
    if abs(det - 1.0) > 1e-12:
        raise ValueError(f"determinant constraint ad - bc = 1 violated: got {det!r}")
    return ScalarBC(kind="sa_nonseparated", params=params)


def scalar_sa_separated(h_plus: float, h_minus: float) -> ScalarBC:
    """Self-adjoint separated scalar data phi'(0+-) = h_pm phi(0+-), h in R u {inf}."""
    h_plus = float(h_plus)
    h_minus = float(h_minus)
    for name, h in (("h_plus", h_plus), ("h_minus", h_minus)):
        if math.isnan(h):
            raise ValueError(f"parameter {name} must be a real number or +-inf")
    return ScalarBC(kind="sa_separated", params={"h_plus": h_plus, "h_minus": h_minus})


def scalar_pt_type1(theta: float, phi: float, b: float, c: float) -> ScalarBC:
    """PT-symmetric non-separated scalar family.

    Connection matrix e^{i theta} [[sqrt(1+bc) e^{i phi}, b], [c, sqrt(1+bc) e^{-i phi}]]
    with b >= 0 and 1 + bc >= 0.  Phases are stored reduced modulo 2 pi.
    """
    b = _require_finite_real(b, "b")
    c = _require_finite_real(c, "c")
    if b < 0.0:
        raise ValueError(f"parameter b must be non-negative, got {b!r}")
    _require_one_plus_bc(b, c)
    params = {
        "theta": _require_finite_real(theta, "theta") % TWO_PI,
        "phi": _require_finite_real(phi, "phi") % TWO_PI,
        "b": b,
        "c": c,
    }
    return ScalarBC(kind="pt_type1", params=params)


def scalar_pt_type2(theta: float, h0: float, h1: float) -> SeparatedBC:
    """PT-symmetric separated scalar family as a one-channel SeparatedBC.

    h0 phi'(0+) = h1 e^{i theta} phi(0+) with (h0, h1) projective; h0 = 0 is
    the Dirichlet member, returned with F = None.
    """
    theta = _require_finite_real(theta, "theta") % TWO_PI
    h0 = _require_finite_real(h0, "h0")
    h1 = _require_finite_real(h1, "h1")
    if h0 == 0.0 and h1 == 0.0:
        raise ValueError("projective parameters (h0, h1) must not both vanish")
    if h0 == 0.0:
        return SeparatedBC(n=1, F=None)
    f = (h1 / h0) * np.exp(1j * theta)
    return SeparatedBC(n=1, F=np.array([[f]]))


def _block(values, role: str, n: int) -> np.ndarray:
    """The one shape rule of every family: values as a finite n^2 x n^2 matrix, n >= 1."""
    d = SpinDims(n, 1).pair_dim
    m = as_operator(values, role)
    if m.shape != (d, d):
        raise ValueError(f"{role} must be {d}x{d} for n={n}, got {m.shape}")
    return m


def _real_block(values, role: str, n: int) -> np.ndarray:
    m = _block(values, role, n)
    if max_abs(m.imag) != 0.0:
        raise ValueError(f"{role} must be real for this family")
    return m


def _contact(n: int, **coupling) -> NonseparatedBC:
    """Connection with A = D = identity and one coupling block, B or C; the other is zero.

    The block is shape-checked before the n^2 x n^2 identity is allocated.
    """
    ((name, values),) = coupling.items()
    m = _block(values, f"connection matrix {name}", n)
    eye = np.eye(n * n, dtype=np.complex128)
    blocks = {"B": np.zeros_like(eye), "C": np.zeros_like(eye), name: m}
    return NonseparatedBC(n=n, A=eye, D=eye, **blocks)


def delta_type(C, n: int) -> NonseparatedBC:
    """Delta-type connection: continuous psi, derivative jump C psi with C real."""
    return _contact(n, C=_real_block(C, "coupling strength C", n))


def delta_prime_type(B, n: int) -> NonseparatedBC:
    """Derivative-continuous connection: psi jump B psi' with B real."""
    return _contact(n, B=_real_block(B, "coupling strength B", n))


def hspin(a, b, c, d, f, g, e1, e2, e3, e4) -> SeparatedBC:
    """Spin-half separated coupling matrix commuting with the pair exchange.

    Ten real parameters fill the 4x4 pattern
        [[a,  e1, e1, c ],
         [e3, f,  g,  e2],
         [e3, g,  f,  e2],
         [d,  e4, e4, b ]]
    in the (up-up, up-down, down-up, down-down) basis.
    """
    vals = {name: _require_finite_real(val, name) for name, val in
            zip(HSPIN_PARAM_NAMES, (a, b, c, d, f, g, e1, e2, e3, e4))}
    F = np.array(
        [
            [vals["a"], vals["e1"], vals["e1"], vals["c"]],
            [vals["e3"], vals["f"], vals["g"], vals["e2"]],
            [vals["e3"], vals["g"], vals["f"], vals["e2"]],
            [vals["d"], vals["e4"], vals["e4"], vals["b"]],
        ],
        dtype=np.complex128,
    )
    return SeparatedBC(n=2, F=F)


def lift_scalar(s, n: int) -> NonseparatedBC:
    """Lift a 2x2 scalar connection [[a,b],[c,d]] to scalar multiples of identity."""
    s = as_operator(s, "scalar connection matrix")
    if s.shape != (2, 2):
        raise ValueError(f"scalar connection matrix must be 2x2, got {s.shape}")
    eye = np.eye(n * n, dtype=np.complex128)
    return NonseparatedBC(n=n, A=s[0, 0] * eye, B=s[0, 1] * eye, C=s[1, 0] * eye, D=s[1, 1] * eye)


def validate_nonseparated_pt(bc: NonseparatedBC, tol: float = DEFAULT_TOL) -> ValidationReport:
    """PT constraints on (A, B, C, D); the star is entrywise conjugation."""
    A, B, C, D = bc.A, bc.B, bc.C, bc.D
    eye = np.eye(bc.n * bc.n, dtype=np.complex128)
    residuals = {
        "AA*-BC*-I": max_abs(A @ A.conj() - B @ C.conj() - eye),
        "DD*-CB*-I": max_abs(D @ D.conj() - C @ B.conj() - eye),
        "BD*-AB*": max_abs(B @ D.conj() - A @ B.conj()),
        "CA*-DC*": max_abs(C @ A.conj() - D @ C.conj()),
    }
    return ValidationReport.from_residuals(residuals, tol)


def validate_selfadjoint(bc: NonseparatedBC, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Self-adjointness constraints on (A, B, C, D); the dagger is the adjoint."""
    A, B, C, D = bc.A, bc.B, bc.C, bc.D
    eye = np.eye(bc.n * bc.n, dtype=np.complex128)
    ah, bh, ch, dh = (m.conj().T for m in (A, B, C, D))
    residuals = {
        "A†D-C†B-I": max_abs(ah @ D - ch @ B - eye),
        "B†D-D†B": max_abs(bh @ D - dh @ B),
        "A†C-C†A": max_abs(ah @ C - ch @ A),
    }
    return ValidationReport.from_residuals(residuals, tol)


def validate_separated_pt(F, G, tol: float = DEFAULT_TOL) -> ValidationReport:
    """PT constraint on separated data: G = -conj(F) entrywise."""
    F = as_operator(F, "coupling matrix F")
    G = as_operator(G, "coupling matrix G")
    if F.shape != G.shape:
        raise ValueError(f"F and G must have equal shape, got {F.shape} and {G.shape}")
    residuals = {"G+conj(F)": max_abs(G + F.conj())}
    return ValidationReport.from_residuals(residuals, tol)


def validate_separated_selfadjoint(g_plus, g_minus, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Self-adjointness of separated data: both one-sided matrices Hermitian."""
    gp = as_operator(g_plus, "coupling matrix G+")
    gm = as_operator(g_minus, "coupling matrix G-")
    residuals = {
        "Gplus-hermiticity": max_abs(gp - gp.conj().T),
        "Gminus-hermiticity": max_abs(gm - gm.conj().T),
    }
    return ValidationReport.from_residuals(residuals, tol)


def validate(bc, tol: float | None = None) -> ValidationReport:
    """Check any parsed boundary condition against the constraints of its family.

    tol defaults to DEFAULT_TOL.
    """
    tol = DEFAULT_TOL if tol is None else tol
    if isinstance(bc, NonseparatedBC):
        return validate_nonseparated_pt(bc, tol)
    if isinstance(bc, SeparatedBC):
        if bc.dirichlet:
            return ValidationReport.from_residuals({"G+conj(F)": 0.0}, tol)
        return validate_separated_pt(bc.F, -bc.F.conj(), tol)
    if isinstance(bc, ScalarBC):
        if bc.kind == "sa_nonseparated":
            return validate_selfadjoint(lift_scalar(bc.connection_matrix(), 1), tol)
        if bc.kind == "pt_type1":
            b, c = bc.params["b"], bc.params["c"]
            residuals = {
                "b_nonnegative": max(0.0, -b),
                "one_plus_bc_nonnegative": max(0.0, -(1.0 + b * c)),
            }
            if 1.0 + b * c >= 0.0:
                inner = validate_nonseparated_pt(lift_scalar(bc.connection_matrix(), 1), tol)
                residuals.update(inner.residuals)
            return ValidationReport.from_residuals(residuals, tol)
        if bc.kind == "pt_type2":
            degenerate = bc.params["h0"] == 0.0 and bc.params["h1"] == 0.0
            residuals = {"h_nonzero": 1.0 if degenerate else 0.0}
            if not degenerate:
                residuals["G+conj(F)"] = 0.0
            return ValidationReport.from_residuals(residuals, tol)
        if bc.kind == "sa_separated":
            return ValidationReport.from_residuals(
                {"Gplus-hermiticity": 0.0, "Gminus-hermiticity": 0.0}, tol)
    raise TypeError(f"no validator for {type(bc).__name__}")


def lower(bc):
    """Reduce a parsed condition to a SeparatedBC or NonseparatedBC.

    A pt_type2 scalar becomes its one-channel SeparatedBC and the other
    scalar families are lifted to n = 1 connection matrices.  The parsed
    pt_type1 and pt_type2 scalars go through their family constructors, so
    every parameter inequality that `validate` reports raises ValueError here.
    The sa_separated scalar has no connection matrix and raises ValueError; no
    document reaches that error, because `parse_boundary_condition` only
    yields pt_type1 and pt_type2 scalars.
    """
    if not isinstance(bc, ScalarBC):
        return bc
    if bc.kind == "pt_type2":
        return scalar_pt_type2(**bc.params)
    if bc.kind == "pt_type1":
        bc = scalar_pt_type1(**bc.params)
    return lift_scalar(bc.connection_matrix(), 1)


def require_separated(bc, what: str) -> SeparatedBC:
    """Return bc if it is a SeparatedBC; otherwise raise TypeError naming what needs it."""
    if not isinstance(bc, SeparatedBC):
        raise TypeError(f"{what} requires a separated boundary condition")
    return bc


def compatibility_residual(F, k12: float, statistics="boson") -> float:
    """Mismatch between the two one-sided exchange operators of a separated BC.

    Compares (ik - F)^-1 (ik + F) against P (ik - conj F)^-1 (ik + conj F) P
    with P the statistics-signed pair exchange and k = k12.  Zero means both
    sides of the interface produce the same exchange operator; real F
    commuting with the pair exchange always passes.
    """
    F = as_operator(F, "coupling matrix F")
    d = F.shape[0]
    n = math.isqrt(d)
    if n * n != d:
        raise ValueError(f"coupling matrix dimension {d} is not a perfect square")
    p = statistics_swap(n, statistics)
    y_plus = cayley(F, k12)
    y_minus = cayley(F.conj(), k12, role="ik-conj(F)")
    return max_abs(y_plus - p @ y_minus @ p)


_SCALAR_KIND_FIELDS = {
    "scalar_pt_type1": ("theta", "phi", "b", "c"),
    "scalar_pt_type2": ("theta", "h0", "h1"),
}
# Matrix document kinds: the matrix fields next to `n` and the constructor that
# takes them as keywords.  The encoder writes the kinds whose constructor is a
# class; delta and delta_prime documents come back as nonseparated.
_MATRIX_KINDS = {
    "nonseparated": ("ABCD", NonseparatedBC),
    "separated": ("F", SeparatedBC),
    "delta": ("C", _contact),
    "delta_prime": ("B", _contact),
}


def _require_number(doc: dict, key: str) -> float:
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field {key!r} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ParseError(f"field {key!r} must be a finite number, got {value!r}")
    return float(value)


def _require_matrix(doc: dict, key: str) -> np.ndarray:
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    try:
        return matrix_from_json(doc[key])
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"field {key!r}: {exc}") from exc


def _require_dim(doc: dict) -> int:
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f"field 'n' must be a positive integer, got {n!r}")
    return n


def parse_boundary_condition(doc):
    """Build a boundary condition from a decoded JSON document.

    Structural problems raise ParseError.  Family parameter inequalities are
    not enforced here; validators and constructors report them instead, and
    a matrix kind's constructor error (shape, non-finite entries) becomes a
    ParseError.  The delta and delta_prime kinds are lowered to their
    connection-matrix form without a realness gate so that validation can
    flag complex couplings.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"boundary-condition document must be an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind in _MATRIX_KINDS:
        keys, build = _MATRIX_KINDS[kind]
        n = _require_dim(doc)
        mats = {key: _require_matrix(doc, key) for key in keys}
        try:
            return build(n=n, **mats)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    if kind in _SCALAR_KIND_FIELDS:
        params = {key: _require_number(doc, key) for key in _SCALAR_KIND_FIELDS[kind]}
        return ScalarBC(kind=kind.removeprefix("scalar_"), params=params)
    if kind == "hspin":
        params = doc.get("params")
        if not isinstance(params, dict):
            raise ParseError("field 'params' must be an object with the ten hspin parameters")
        extra = set(params) - set(HSPIN_PARAM_NAMES)
        if extra:
            raise ParseError(f"unknown hspin parameters {sorted(extra)!r}")
        values = {key: _require_number(params, key) for key in HSPIN_PARAM_NAMES}
        return hspin(**values)
    raise ParseError(f"unknown boundary-condition kind {kind!r}")


def _reject_constant(name: str):
    raise ParseError(f"non-finite JSON constant {name!r} is not allowed")


def read_document(path):
    """Decode a JSON file.

    Bytes that are not UTF-8, invalid JSON, nesting deeper than the decoder's
    recursion limit, integer literals beyond Python's digit limit and the
    non-finite constants NaN/Infinity/-Infinity raise ParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.loads(handle.read(), parse_constant=_reject_constant)
    except ParseError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def load_boundary_condition(path):
    """Read and parse a boundary-condition JSON file."""
    return parse_boundary_condition(read_document(path))


def boundary_condition_to_json(bc) -> dict:
    """Encode a boundary condition back into its document form.

    Objects with no document kind, among them the self-adjoint scalar
    families, raise TypeError.
    """
    if isinstance(bc, SeparatedBC) and bc.dirichlet:
        return {"kind": "scalar_pt_type2", "theta": 0.0, "h0": 0.0, "h1": 1.0}
    for kind, (keys, build) in _MATRIX_KINDS.items():
        if type(bc) is build:
            return {"kind": kind, "n": bc.n,
                    **{key: matrix_to_json(getattr(bc, key)) for key in keys}}
    if isinstance(bc, ScalarBC) and f"scalar_{bc.kind}" in _SCALAR_KIND_FIELDS:
        return {"kind": f"scalar_{bc.kind}", **{k: float(v) for k, v in bc.params.items()}}
    raise TypeError(f"cannot encode {type(bc).__name__} as a boundary-condition document")

"""Boundary-condition families, their validators, and the JSON loader."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_hspin
from ptspin.boundary import (
    NonseparatedBC,
    ParseError,
    ScalarBC,
    SeparatedBC,
    ValidationReport,
    boundary_condition_to_json,
    compatibility_residual,
    delta_prime_type,
    delta_type,
    hspin,
    lift_scalar,
    load_boundary_condition,
    lower,
    parse_boundary_condition,
    read_document,
    scalar_pt_type1,
    scalar_pt_type2,
    validate_nonseparated_pt,
    validate_selfadjoint,
    validate_separated_pt,
    validate,
)
from ptspin.bethe import bethe_coefficients, boundary_jump_residual, path_consistency
from ptspin.linalg import SpinDims, max_abs, swap_pair
from ptspin.scattering import make_y_factory, y_inverse_residual, y_separated, ybe_residual
from ptspin.spectra import SignPattern, bound_states, n_particle_bound_state

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def free_bc(n=2):
    d = n * n
    return NonseparatedBC(n=n, A=np.eye(d), B=np.zeros((d, d)), C=np.zeros((d, d)), D=np.eye(d))


def test_free_condition_passes_both_validators():
    bc = free_bc()
    assert validate_nonseparated_pt(bc).valid
    assert validate_selfadjoint(bc).valid
    assert validate_nonseparated_pt(bc).max_residual == 0.0


def test_validation_report_flag_tracks_tolerance():
    report = ValidationReport.from_residuals({"x": 1e-6, "y": 0.0}, 1e-10)
    assert not report.valid and report.max_residual == 1e-6
    assert ValidationReport.from_residuals({"x": 1e-6}, 1e-3).valid


def test_nonseparated_shape_mismatch_rejected():
    """One n^2 x n^2 rule for every family constructor and every YBE factor."""
    with pytest.raises(ValueError):
        NonseparatedBC(n=2, A=np.eye(3), B=np.zeros((4, 4)), C=np.zeros((4, 4)), D=np.eye(4))
    ones = np.ones((1, 1))
    for build in (lambda n: NonseparatedBC(n, ones, ones, ones, ones),
                  lambda n: SeparatedBC(n, ones), lambda n: SeparatedBC(n, None),
                  lambda n: delta_type(ones, n), lambda n: delta_prime_type(ones, n),
                  lambda n: lift_scalar(np.eye(2), n)):
        with pytest.raises(ValueError, match=r"^spin dimension must be positive, got n=0$"):
            build(0)
    for build in (lambda m: NonseparatedBC(2, np.eye(4), m, np.zeros((4, 4)), np.eye(4)),
                  lambda m: SeparatedBC(2, m), lambda m: delta_type(m, 2),
                  lambda m: delta_prime_type(m, 2),
                  lambda m: ybe_residual(lambda k12: m, 1.0, 0.3, -0.7, SpinDims(2, 3))):
        with pytest.raises(ValueError, match=r"must be 4x4 for n=2, got \(3, 3\)$"):
            build(np.eye(3))
        with pytest.raises(ValueError, match=r"has non-finite entries$"):
            build(np.full((4, 4), np.nan))


@given(theta=angles, phi=angles, b=st.floats(min_value=0.0, max_value=3.0),
       c=st.floats(min_value=-4.0, max_value=4.0))
def test_pt_type1_family_satisfies_constraints_for_all_phases(theta, phi, b, c):
    """Phases cancel in the star products, so the whole family validates."""
    if 1.0 + b * c < 0.0:
        c = -1.0 / max(b, 1e-3) * 0.5
    bc = scalar_pt_type1(theta, phi, b, c)
    lifted = lift_scalar(bc.connection_matrix(), 1)
    report = validate_nonseparated_pt(lifted)
    assert report.max_residual <= 1e-12


def test_pt_type1_rejects_inadmissible_parameters():
    with pytest.raises(ValueError):
        scalar_pt_type1(0.0, 0.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        scalar_pt_type1(0.0, 0.0, 2.0, -1.0)
    edge = validate(scalar_pt_type1(0.0, 0.0, 1.0, -1.0))  # 1 + bc = 0 exactly is admissible
    assert edge.valid and "AA*-BC*-I" in edge.residuals


def test_pt_type1_lift_to_higher_spin_still_valid():
    bc = scalar_pt_type1(0.3, 1.1, 1.0, 3.0)
    lifted = lift_scalar(bc.connection_matrix(), 2)
    assert validate_nonseparated_pt(lifted).max_residual <= 1e-12


def test_sa_family_with_offdiagonal_couplings_fails_pt():
    """Self-adjoint but not PT: e^{i pi/4} [[2, 1], [1, 1]], determinant 1."""
    lifted = lift_scalar(np.exp(1j * math.pi / 4.0) * np.array([[2.0, 1.0], [1.0, 1.0]]), 1)
    assert validate_selfadjoint(lifted).valid
    report = validate_nonseparated_pt(lifted)
    assert not report.valid
    assert report.max_residual == pytest.approx(2.0, abs=1e-12)


def test_pt_type2_builds_separated_coupling():
    bc = scalar_pt_type2(math.pi / 2.0, 1.0, 1.0)
    assert isinstance(bc, SeparatedBC) and not bc.dirichlet
    assert max_abs(bc.F - np.exp(1j * math.pi / 2.0) * np.eye(1)) <= 1e-15


def test_pt_type2_dirichlet_sentinel_and_degenerate_rejection():
    assert scalar_pt_type2(0.5, 0.0, 2.0).dirichlet
    with pytest.raises(ValueError):
        scalar_pt_type2(0.0, 0.0, 0.0)


def test_delta_family_keeps_real_couplings_pt_valid(rng):
    c = rng.normal(size=(4, 4))
    bc = delta_type(c, 2)
    assert validate_nonseparated_pt(bc).max_residual <= 1e-12
    bp = delta_prime_type(c, 2)
    assert validate_nonseparated_pt(bp).max_residual <= 1e-12


def test_delta_family_rejects_complex_couplings():
    with pytest.raises(ValueError):
        delta_type(1j * np.eye(4), 2)
    with pytest.raises(ValueError):
        delta_prime_type(1j * np.eye(4), 2)


def test_antisymmetric_delta_coupling_breaks_selfadjointness():
    c = np.zeros((4, 4))
    c[0, 1], c[1, 0] = 1.0, -1.0
    report = validate_selfadjoint(delta_type(c, 2))
    assert not report.valid
    assert report.residuals["A†C-C†A"] == pytest.approx(2.0, abs=1e-15)


def test_symmetric_delta_coupling_is_selfadjoint(rng):
    c = rng.normal(size=(4, 4))
    c = c + c.T
    assert validate_selfadjoint(delta_type(c, 2)).valid


def test_hspin_matrix_layout():
    bc = hspin(a=1, b=2, c=3, d=4, f=5, g=6, e1=7, e2=8, e3=9, e4=10)
    expected = np.array([
        [1, 7, 7, 3],
        [9, 5, 6, 8],
        [9, 6, 5, 8],
        [4, 10, 10, 2],
    ], dtype=complex)
    assert max_abs(bc.F - expected) == 0.0
    assert bc.n == 2


def test_hspin_commutes_with_pair_swap(rng):
    for _ in range(10):
        bc = random_hspin(rng)
        p = swap_pair(2)
        assert max_abs(p @ bc.F - bc.F @ p) == 0.0


def test_hspin_rejects_nonreal_parameters():
    with pytest.raises((TypeError, ValueError)):
        hspin(a=1j, b=0, c=0, d=0, f=0, g=0, e1=0, e2=0, e3=0, e4=0)


def test_separated_pt_validator_checks_conjugation_relation(rng):
    F = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert validate_separated_pt(F, -F.conj()).max_residual == 0.0
    report = validate_separated_pt(np.eye(2), np.eye(2))
    assert report.residuals["G+conj(F)"] == 2.0


def test_compatibility_residual_vanishes_for_real_swap_commuting(rng):
    for _ in range(10):
        bc = random_hspin(rng)
        k = float(rng.uniform(0.2, 2.0))
        assert compatibility_residual(bc.F, k) <= 1e-12
        assert compatibility_residual(bc.F, k, "fermion") <= 1e-12


def test_compatibility_counterexample_scalar_imaginary_coupling():
    residual = compatibility_residual(1j * np.eye(1), 2.0)
    assert residual == pytest.approx(8.0 / 3.0, abs=1e-12)


def test_compatibility_rejects_non_square_pair_dimension():
    with pytest.raises(ValueError):
        compatibility_residual(np.eye(3), 1.0)


# -- JSON documents ---------------------------------------------------------


def test_parse_roundtrip_nonseparated(rng):
    bc = delta_type(rng.normal(size=(4, 4)), 2)
    doc = boundary_condition_to_json(bc)
    back = parse_boundary_condition(doc)
    assert max_abs(back.A - bc.A) == 0.0
    assert max_abs(back.C - bc.C) == 0.0


def test_parse_roundtrip_separated(rng):
    bc = random_hspin(rng)
    back = parse_boundary_condition(boundary_condition_to_json(bc))
    assert isinstance(back, SeparatedBC)
    assert max_abs(back.F - bc.F) == 0.0


def test_encoder_round_trips_every_documented_kind(rng):
    documented = [
        NonseparatedBC(2, *(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                            for _ in "ABCD")),
        SeparatedBC(2, rng.normal(size=(4, 4))),
        delta_type(rng.normal(size=(4, 4)), 2),
        delta_prime_type(rng.normal(size=(4, 4)), 2),
        scalar_pt_type1(0.1, 0.2, 1.0, 3.0),
        scalar_pt_type2(0.3, 1.0, -2.0),
        scalar_pt_type2(0.3, 0.0, 2.0),
        random_hspin(rng),
    ]
    for bc in documented:
        doc = boundary_condition_to_json(bc)
        back = parse_boundary_condition(json.loads(json.dumps(doc, allow_nan=False)))
        assert boundary_condition_to_json(back) == doc
    with pytest.raises(TypeError):
        boundary_condition_to_json(np.eye(2))


def test_parse_scalar_kinds_keep_parameters():
    doc = {"kind": "scalar_pt_type1", "theta": 0.1, "phi": 0.2, "b": 1.0, "c": 3.0}
    bc = parse_boundary_condition(doc)
    assert isinstance(bc, ScalarBC) and bc.kind == "pt_type1"
    assert bc.params["c"] == 3.0


def test_parse_rejects_unknown_kind_and_missing_fields():
    with pytest.raises(ParseError):
        parse_boundary_condition({"kind": "mystery"})
    with pytest.raises(ParseError):
        parse_boundary_condition({"kind": "separated", "n": 2})
    with pytest.raises(ParseError):
        parse_boundary_condition({"kind": "scalar_pt_type2", "theta": 0.0, "h0": True, "h1": 1.0})
    with pytest.raises(ParseError):
        parse_boundary_condition([1, 2, 3])
    wrong = [[[1.0, 0.0]]]
    for doc in ({"kind": "nonseparated", "n": 2, "A": wrong, "B": wrong, "C": wrong, "D": wrong},
                {"kind": "separated", "n": 2, "F": wrong},
                {"kind": "delta", "n": 2, "C": wrong},
                {"kind": "delta_prime", "n": 2, "B": wrong}):
        with pytest.raises(ParseError, match=r"must be 4x4 for n=2, got \(1, 1\)$"):
            parse_boundary_condition(doc)
    for value in (math.inf, -math.inf, math.nan, 10**400):
        with pytest.raises(ParseError, match="'theta' must be a finite number"):
            parse_boundary_condition({"kind": "scalar_pt_type2", "theta": value,
                                      "h0": 1.0, "h1": 1.0})
    for kind, key in (("separated", "F"), ("delta", "C")):
        with pytest.raises(ParseError, match="non-finite entries"):
            parse_boundary_condition({"kind": kind, "n": 1, key: [[[math.inf, 0.0]]]})
        with pytest.raises(ParseError, match=f"field '{key}': int too large"):
            parse_boundary_condition({"kind": kind, "n": 1, key: [[[10**400, 0.0]]]})


def test_parse_hspin_rejects_stray_parameters():
    params = {k: 0.0 for k in ("a", "b", "c", "d", "f", "g", "e1", "e2", "e3", "e4")}
    params["zz"] = 1.0
    with pytest.raises(ParseError):
        parse_boundary_condition({"kind": "hspin", "params": params})


def test_parse_delta_without_realness_gate_lets_validator_flag_it():
    """Complex delta couplings parse fine and fail validation downstream."""
    doc = {"kind": "delta", "n": 1, "C": [[[0.0, 1.0]]]}
    bc = parse_boundary_condition(doc)
    assert isinstance(bc, NonseparatedBC)
    report = validate_nonseparated_pt(bc)
    assert not report.valid
    assert report.residuals["CA*-DC*"] == pytest.approx(2.0, abs=1e-15)


def test_load_rejects_nonfinite_json_constants(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"kind": "separated", "n": 1, "F": [[[NaN, 0.0]]]}')
    with pytest.raises(ParseError):
        load_boundary_condition(path)


def test_load_reports_invalid_json(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"kind": "nonsep')
    with pytest.raises(ParseError):
        load_boundary_condition(path)
    path.write_bytes('{"kind": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(ParseError, match="utf-8"):
        read_document(path)
    with pytest.raises(ParseError, match="utf-8"):
        load_boundary_condition(path)
    path.write_text("[" * 100000)
    with pytest.raises(ParseError, match="recursion"):
        read_document(path)


def test_validate_dispatches_on_family(rng):
    assert validate(free_bc()).residuals == validate_nonseparated_pt(free_bc()).residuals
    assert validate(SeparatedBC(1, None)).residuals == {"G+conj(F)": 0.0}
    for n in (1, 2, 3):
        F = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
        assert validate(SeparatedBC(n, F)).residuals == {"G+conj(F)": 0.0}
    report = validate(ScalarBC("pt_type1", {"theta": 0.0, "phi": 0.0, "b": -1.0, "c": 3.0}))
    assert not report.valid
    assert report.residuals["b_nonnegative"] == 1.0
    assert "AA*-BC*-I" not in report.residuals
    assert validate(SeparatedBC(1, [[1.0j]]), tol=0.5).tolerance == 0.5
    with pytest.raises(TypeError):
        validate(np.eye(2))


def test_a_scalar_document_with_a_violated_inequality_reports_only_the_inequalities():
    """b < 0 with 1 + bc >= 0 is refused by `lower`, so no PT residual is
    reported, as for a scalar_pt_type2 document with h0 = h1 = 0."""
    doc = {"kind": "scalar_pt_type1", "theta": 0.3, "phi": 0.7, "b": -0.5, "c": 1.0}
    report = validate(parse_boundary_condition(doc))
    assert report.residuals == {"b_nonnegative": 0.5, "one_plus_bc_nonnegative": 0.0}
    assert not report.valid
    degenerate = parse_boundary_condition({"kind": "scalar_pt_type2", "theta": 0.0, "h0": 0.0, "h1": 0.0})
    assert validate(degenerate).residuals == {"h_nonzero": 1.0}


@pytest.mark.parametrize("doc", [
    {"kind": "scalar_pt_type1", "theta": 7.0, "phi": -4.0, "b": 2.0, "c": 3.0},
    {"kind": "scalar_pt_type1", "theta": -30.0, "phi": 100.0, "b": 0.5, "c": -1.0},
])
def test_a_scalar_document_validates_the_condition_lower_builds(doc):
    """Phases outside [0, 2 pi) are reduced by `lower`; the PT residuals of
    the document are those of the lowered condition, bit for bit."""
    bc = parse_boundary_condition(doc)
    residuals = validate(bc).residuals
    inner = validate(lower(bc)).residuals
    assert {key: residuals[key] for key in inner} == inner
    assert all(residuals[key] == 0.0 for key in set(residuals) - set(inner))


def test_lower_reaches_operator_ready_forms():
    bc = free_bc()
    assert lower(bc) is bc
    lifted = lower(scalar_pt_type1(0.0, 0.0, 1.0, 3.0))
    assert isinstance(lifted, NonseparatedBC) and lifted.n == 1
    separated = lower(ScalarBC("pt_type2", {"theta": 0.0, "h0": 1.0, "h1": -2.0}))
    assert isinstance(separated, SeparatedBC) and separated.F[0, 0] == -2.0


def test_library_paths_lower_a_parsed_pt_type2_document():
    """A parsed scalar_pt_type2 document is a separated condition on every
    library path: each output equals the output on lower(document)."""
    doc = parse_boundary_condition({"kind": "scalar_pt_type2", "theta": 0.0, "h0": 1.0, "h1": -2.0})
    momenta, u = (1.0, 0.3, -0.7), np.ones(1)

    def outputs(bc):
        pair = bethe_coefficients(bc, momenta[:2], u, "boson")
        states = bound_states(bc, 2, "boson")
        return [bethe_coefficients(bc, momenta, u, "boson").array.tobytes(),
                path_consistency(bc, momenta, u, "boson"),
                boundary_jump_residual(pair, bc, 1, 0.3),
                [(s.lam, s.v.tobytes()) for s in states],
                n_particle_bound_state(bc, 3, -2.0, SignPattern.uniform(3), "boson").v.tobytes(),
                y_separated(bc, 0.4).tobytes(),
                y_inverse_residual(bc, 0.4),
                make_y_factory(bc)(0.4).tobytes()]

    assert isinstance(doc, ScalarBC)
    got = outputs(doc)
    assert got == outputs(lower(doc)) and len(got[3]) == 1

"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with `pytest -v` to get one PASS/FAIL line per criterion from the test
names; the printed `criterion N:` lines carry the measured numbers.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import exchange_operator, random_hspin, separated_momenta
from ptspin.bethe import bethe_coefficients, path_consistency
from ptspin.boundary import (
    NonseparatedBC,
    SeparatedBC,
    compatibility_residual,
    delta_prime_type,
    delta_type,
    hspin,
    lift_scalar,
    scalar_pt_type1,
    scalar_pt_type2,
    validate_nonseparated_pt,
    validate_selfadjoint,
    validate_separated_pt,
)
from ptspin.cli import main
from ptspin.linalg import SpinDims, max_abs, swap_pair
from ptspin.scattering import (
    make_y_factory,
    statistics_swap,
    y_inverse_residual,
    y_nonseparated,
    ybe_residual,
)
from ptspin.spectra import (
    SignPattern,
    bound_energy,
    bound_states,
    classify_spectrum,
    n_particle_bound_state,
    verify_bound_state_fd,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _report(criterion: int, ok: bool, detail: str):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _safe_pt1(rng):
    theta = float(rng.uniform(0.0, 0.6))
    phi = float(rng.uniform(0.0, 0.6))
    b = float(rng.uniform(0.2, 1.5))
    c = float(rng.uniform(-0.5 / b, 2.0))
    return scalar_pt_type1(theta, phi, b, c)


def test_criterion_1_constraint_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        sc1 = _safe_pt1(rng)
        worst = max(worst, validate_nonseparated_pt(
            lift_scalar(sc1.connection_matrix(), 1)).max_residual)
        worst = max(worst, validate_nonseparated_pt(
            lift_scalar(sc1.connection_matrix(), 2)).max_residual)
        sc2 = scalar_pt_type2(float(rng.uniform(0, 6.2)), 1.0, float(rng.uniform(-3, 3)))
        worst = max(worst, validate_separated_pt(sc2.F, -np.conj(sc2.F)).max_residual)
        c_mat = rng.normal(size=(4, 4))
        worst = max(worst, validate_nonseparated_pt(delta_type(c_mat, 2)).max_residual)
        worst = max(worst, validate_selfadjoint(
            delta_type(c_mat + c_mat.T, 2)).max_residual)
        worst = max(worst, validate_nonseparated_pt(
            delta_prime_type(rng.normal(size=(4, 4)), 2)).max_residual)
        hs = random_hspin(rng)
        worst = max(worst, validate_separated_pt(hs.F, -np.conj(hs.F)).max_residual)
    constructors_ok = worst <= 1e-12

    bases = [
        lift_scalar(np.eye(2), 2),
        delta_type(rng.normal(size=(4, 4)), 2),
        delta_prime_type(rng.normal(size=(4, 4)), 2),
        lift_scalar(_safe_pt1(rng).connection_matrix(), 2),
    ]
    flagged = 0
    weakest = np.inf
    for trial in range(100):
        base = bases[trial % len(bases)]
        a = base.A.copy()
        i, j = rng.integers(0, 4, size=2)
        a[i, j] += 1e-3 * float(rng.choice([-1.0, 1.0]))
        residual = validate_nonseparated_pt(
            NonseparatedBC(n=2, A=a, B=base.B, C=base.C, D=base.D)).max_residual
        weakest = min(weakest, residual)
        if residual >= 1e-4:
            flagged += 1
    elapsed = time.perf_counter() - start
    _report(1, constructors_ok and flagged == 100 and elapsed < 1.0,
            f"constructor residual {worst:.3g}, {flagged}/100 perturbations "
            f"flagged (weakest {weakest:.3g}), {elapsed:.2f}s")


def test_criterion_2_exchange_operator_closed_form():
    rng = np.random.default_rng(202)
    p = swap_pair(2)
    worst = 0.0
    for _ in range(50):
        c = 0.0
        while abs(c) < 0.05:
            c = float(rng.uniform(-5.0, 5.0))
        k1, k2 = separated_momenta(rng, 2, low=-3.0, high=3.0, gap=0.05)
        kappa = k1 - k2
        y = y_nonseparated(delta_type(c * np.eye(4), 2), 0.5 * kappa, "boson")
        closed = (1j * kappa * p + c * np.eye(4)) / (1j * kappa - c)
        worst = max(worst, max_abs(y - closed))
    free = delta_type(np.zeros((4, 4)), 2)
    free_worst = max(
        max_abs(y_nonseparated(free, 0.7, "boson") - statistics_swap(2, "boson")),
        max_abs(y_nonseparated(free, 0.7, "fermion") - statistics_swap(2, "fermion")),
    )
    _report(2, worst <= 1e-12 and free_worst <= 1e-12,
            f"closed-form residual {worst:.3g} over 50 draws, free case {free_worst:.3g}")


def test_criterion_3_factorization_controls_and_report(tmp_path):
    rng = np.random.default_rng(303)
    dims = SpinDims(2, 3)
    worst_scalar = 0.0
    for _ in range(50):
        lam = float(rng.uniform(-4.0, 4.0))
        bc = SeparatedBC(2, lam * np.eye(4))
        ks = separated_momenta(rng, 3)
        worst_scalar = max(worst_scalar, ybe_residual(make_y_factory(bc), *ks, dims))
    swap_factory = lambda k12: swap_pair(2)
    braid = ybe_residual(swap_factory, 1.0, 0.3, -0.7, dims)

    u = np.zeros(8, complex)
    u[0] = 1.0
    entries = []
    worst_gap = 0.0
    for _ in range(20):
        bc = random_hspin(rng)
        ks = separated_momenta(rng, 3)
        yb = ybe_residual(make_y_factory(bc), *ks, dims)
        pc = path_consistency(bc, ks, u, "boson")
        worst_gap = max(worst_gap, abs(yb - pc))
        entries.append({"momenta": list(ks), "ybe_residual": yb,
                        "path_consistency": pc})
    report_path = tmp_path / "ybe_report.json"
    report_path.write_text(json.dumps({"draws": entries}, indent=1))
    stored = json.loads(report_path.read_text())
    _report(3, worst_scalar <= 1e-10 and braid <= 1e-10 and worst_gap <= 1e-10
            and len(stored["draws"]) == 20,
            f"scalar control {worst_scalar:.3g}, braid {braid:.3g}, "
            f"|ybe-path| {worst_gap:.3g} over 20 logged draws")


def test_criterion_4_inverse_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        bc = random_hspin(rng)
        eigs = np.linalg.eigvals(bc.F)
        k = 0.0
        while k == 0.0 or np.min(np.abs(1j * k - eigs)) < 0.05:
            k = float(rng.uniform(0.1, 3.0))
        worst = max(worst, y_inverse_residual(bc, k))
    _report(4, worst <= 1e-12, f"worst inverse residual {worst:.3g} over 100 draws")


def test_criterion_5_interface_compatibility():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        bc = random_hspin(rng)
        k = float(rng.uniform(0.1, 3.0))
        stats = "boson" if rng.integers(0, 2) == 0 else "fermion"
        worst = max(worst, compatibility_residual(bc.F, k, stats))
    counter = compatibility_residual(1j * np.eye(1), 2.0)
    gap = abs(counter - 8.0 / 3.0)
    _report(5, worst <= 1e-12 and gap <= 1e-12,
            f"worst residual {worst:.3g}, counterexample 8/3 gap {gap:.3g}")


def test_criterion_6_bound_state_energies_and_fd():
    start = time.perf_counter()
    exact = all(
        bound_energy(lam, 2) == -(lam * lam) * 2
        and bound_energy(lam, 3) == -(lam * lam) * 8
        for lam in (-0.5, -1.0, -2.0, -3.37)
    )
    s2 = bound_states(SeparatedBC(2, -np.eye(4)), 2, "boson")[0]
    r2 = verify_bound_state_fd(s2, half_width=10.0, spacing=1e-3)
    ratio2 = verify_bound_state_fd(s2, half_width=10.0, spacing=2e-3) / r2
    s3 = n_particle_bound_state(SeparatedBC(2, -2.0 * np.eye(4)), 3, -2.0,
                                SignPattern.uniform(3), "boson")
    r3 = verify_bound_state_fd(s3, half_width=5.0, spacing=1e-3)
    ratio3 = verify_bound_state_fd(s3, half_width=5.0, spacing=2e-3) / r3
    elapsed = time.perf_counter() - start
    _report(6, exact and r2 <= 1e-4 and r3 <= 1e-4
            and 3.5 <= ratio2 <= 4.5 and 3.5 <= ratio3 <= 4.5 and elapsed < 30.0,
            f"N=2 residual {r2:.3g} (halving x{ratio2:.2f}), "
            f"N=3 residual {r3:.3g} (halving x{ratio3:.2f}), {elapsed:.1f}s")


def test_criterion_7_spectral_classification():
    diag = hspin(a=-1.0, b=-2.0, c=0.0, d=0.0, f=-3.0, g=0.0,
                 e1=0.0, e2=0.0, e3=0.0, e4=0.0)
    rep = classify_spectrum(diag.F)
    diag_gap = max(abs(v - w) for v, w in zip(rep.eigenvalues, [-3, -3, -2, -1]))
    diag_ok = rep.all_real and diag_gap <= 1e-12

    cd = hspin(a=0.0, b=0.0, c=1.0, d=-1.0, f=0.0, g=0.0,
               e1=0.0, e2=0.0, e3=0.0, e4=0.0)
    rep_cd = classify_spectrum(cd.F)
    cd_ok = (
        len(rep_cd.complex_pairs) == 1
        and abs(rep_cd.complex_pairs[0][0] - 1j) <= 1e-12
        and abs(rep_cd.complex_pairs[0][1] + 1j) <= 1e-12
        and len(rep_cd.real_subset) == 2
        and max(abs(v) for v in rep_cd.real_subset) <= 1e-12
    )

    rng = np.random.default_rng(707)
    symmetric_ok = all(
        classify_spectrum(random_hspin(rng, symmetric=True).F).all_real
        for _ in range(100)
    )
    _report(7, diag_ok and cd_ok and symmetric_ok,
            f"diagonal gap {diag_gap:.3g}, conjugate pair found, "
            f"100/100 symmetric draws all-real")


def test_criterion_8_two_particle_bound_state_suite():
    diag = hspin(a=-1.0, b=-2.0, c=0.0, d=0.0, f=-3.0, g=0.0,
                 e1=0.0, e2=0.0, e3=0.0, e4=0.0)
    states = bound_states(diag, 2, "boson")
    pairs = {(s.lam, s.energy) for s in states}
    pairs_ok = pairs == {(-1.0, -2.0), (-2.0, -8.0), (-3.0, -18.0)}
    p = exchange_operator(1, 2, SpinDims(2, 2))
    admissible = all(
        max_abs(diag.F @ s.v - s.lam * s.v) <= 1e-10
        and max_abs(np.conj(diag.F) @ s.v - s.lam * s.v) <= 1e-10
        and s.parity_residual() <= 1e-10
        for s in states
    )
    symmetric = all(
        max_abs(p @ s.v - s.v) <= 1e-10
        for s in states if s.epsilon[(2, 1)] == 1
    )
    cd = hspin(a=0.0, b=0.0, c=1.0, d=-1.0, f=0.0, g=0.0,
               e1=0.0, e2=0.0, e3=0.0, e4=0.0)
    empty_ok = bound_states(cd, 2, "boson") == []
    _report(8, pairs_ok and admissible and symmetric and empty_ok,
            f"(lam,E) set {sorted(pairs)}, all eigenvectors admissible, "
            f"complex-spectrum case empty")


def _run_cli(capsys, *args):
    try:
        rc = main([str(a) for a in args])
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return (rc or 0), captured.out


def test_criterion_9_cli_black_box(capsys, monkeypatch):
    monkeypatch.delenv("PTSPIN_TOL", raising=False)
    fixture = lambda name: str(FIXTURES / name)
    table = [
        (0, ("validate", fixture("free_nonseparated.json"))),
        (1, ("validate", fixture("perturbed_a.json"))),
        (0, ("validate", fixture("scalar_pt1.json"))),
        (1, ("validate", fixture("delta_complex.json"))),
        (0, ("yop", fixture("hspin_minus_identity.json"), "--k1", "1.0", "--k2", "-1.0")),
        (1, ("yop", fixture("hspin_complex_spectrum.json"), "--k1", "2.0", "--k2", "0.0")),
        (0, ("ybe", fixture("hspin_diag.json"), "--k", "1.0,0.3,-0.7")),
        (0, ("bethe", fixture("hspin_minus_identity.json"), "--k", "1.0,-1.0")),
        (0, ("bound", fixture("hspin_diag.json"), "--particles", "2")),
        (0, ("bound", fixture("hspin_complex_spectrum.json"), "--particles", "2")),
        (0, ("classify", fixture("hspin_diag.json"))),
        (2, ("classify", fixture("scalar_pt2_dirichlet.json"))),
        (2, ("validate", fixture("truncated.json"))),
        (2, ("validate", fixture("unknown_kind.json"))),
        (0, ("sweep", fixture("hspin_diag.json"), "--run", "ybe",
             "--param", "g=0.0:0.2:3", "--k", "1.0,0.3,-0.7")),
    ]
    fixtures_used = {args[1] for _, args in table}
    codes_ok = True
    deterministic = True
    for expected_rc, args in table:
        rc1, out1 = _run_cli(capsys, *args)
        rc2, out2 = _run_cli(capsys, *args)
        codes_ok = codes_ok and rc1 == expected_rc and rc2 == expected_rc
        deterministic = deterministic and out1 == out2
    coverage_ok = len(fixtures_used) >= 8
    exit_codes_seen = {rc for rc, _ in table}
    _report(9, codes_ok and deterministic and coverage_ok
            and exit_codes_seen == {0, 1, 2},
            f"{len(table)} invocations over {len(fixtures_used)} fixtures, "
            f"exit codes {sorted(exit_codes_seen)}, byte-identical reruns")

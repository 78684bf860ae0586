"""Black-box command-line checks against the fixture documents."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import exchange_operator
from ptspin import cli, scattering
from ptspin.cli import main
from ptspin.linalg import SpinDims, max_abs, vector_from_json

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PTSPIN_TOL", raising=False)


def fx(name):
    return str(FIXTURES / name)


def run_cli(capsys, *args):
    try:
        rc = main([str(a) for a in args])
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return (rc or 0), captured.out, captured.err


# -- validate ----------------------------------------------------------------

def test_validate_clean_condition(capsys):
    rc, out, err = run_cli(capsys, "validate", fx("free_nonseparated.json"))
    assert rc == 0
    assert out == ('{"valid":true,"residuals":{"AA*-BC*-I":0.0,"DD*-CB*-I":0.0,'
                   '"BD*-AB*":0.0,"CA*-DC*":0.0},"tolerance":1e-10}\n')
    assert err == ""


def test_validate_flags_perturbed_matrix(capsys):
    rc, out, _ = run_cli(capsys, "validate", fx("perturbed_a.json"))
    assert rc == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["residuals"]["AA*-BC*-I"] == 0.2100000000000002
    assert '"AA*-BC*-I":0.2100000000000002' in out


@pytest.mark.parametrize("name,rc_expected,required_keys", [
    ("scalar_pt1.json", 0, ("b_nonnegative", "one_plus_bc_nonnegative")),
    ("scalar_pt2.json", 0, ("h_nonzero", "G+conj(F)")),
    ("scalar_pt2_dirichlet.json", 0, ("h_nonzero", "G+conj(F)")),
    ("delta_real.json", 0, ("CA*-DC*",)),
    ("delta_prime_symmetric.json", 0, ("BD*-AB*",)),
    ("separated_free.json", 0, ("G+conj(F)",)),
])
def test_validate_family_documents(capsys, name, rc_expected, required_keys):
    rc, out, _ = run_cli(capsys, "validate", fx(name))
    assert rc == rc_expected
    doc = json.loads(out)
    assert doc["valid"] is True
    for key in required_keys:
        assert key in doc["residuals"]


def test_validate_flags_complex_contact_coupling(capsys):
    rc, out, _ = run_cli(capsys, "validate", fx("delta_complex.json"))
    assert rc == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["residuals"]["CA*-DC*"] == 2.0


def test_validate_tolerance_precedence(capsys, monkeypatch):
    monkeypatch.setenv("PTSPIN_TOL", "0.5")
    rc, out, _ = run_cli(capsys, "validate", fx("perturbed_a.json"))
    assert rc == 0
    assert json.loads(out)["tolerance"] == 0.5
    rc, out, _ = run_cli(capsys, "validate", fx("perturbed_a.json"), "--tol", "1e-10")
    assert rc == 1
    assert json.loads(out)["tolerance"] == 1e-10
    monkeypatch.setenv("PTSPIN_TOL", "banana")
    rc, out, err = run_cli(capsys, "validate", fx("perturbed_a.json"))
    assert rc == 2
    assert out == ""
    assert "PTSPIN_TOL" in err


# -- yop ----------------------------------------------------------------------

def test_yop_scalar_coupling_gives_imaginary_identity(capsys):
    rc, out, _ = run_cli(capsys, "yop", fx("hspin_minus_identity.json"),
                         "--k1", "1.0", "--k2", "-1.0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["k12"] == 1.0
    y = np.array([[complex(re, im) for re, im in row] for row in doc["Y"]])
    assert max_abs(y - 1j * np.eye(4)) <= 1e-15


def test_yop_free_separated_is_identity(capsys):
    rc, out, _ = run_cli(capsys, "yop", fx("separated_free.json"),
                         "--k1", "1.0", "--k2", "0.4")
    assert rc == 0
    assert out == ('{"k12":0.3,"Y":[[[1.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0]],'
                   '[[0.0,0.0],[1.0,0.0],[0.0,0.0],[0.0,0.0]],'
                   '[[0.0,0.0],[0.0,0.0],[1.0,0.0],[0.0,0.0]],'
                   '[[0.0,0.0],[0.0,0.0],[0.0,0.0],[1.0,0.0]]]}\n')


def test_yop_singular_momentum_reports_math_failure(capsys):
    rc, out, err = run_cli(capsys, "yop", fx("hspin_complex_spectrum.json"),
                           "--k1", "2.0", "--k2", "0.0")
    assert rc == 1
    doc = json.loads(out)
    assert doc["error"] == "singular"
    assert "collide" in doc["detail"]
    assert err == ""


def test_invalid_pt_type1_document_names_the_violated_constraint(capsys, tmp_path):
    doc = tmp_path / "pt1_negative_root.json"
    doc.write_text(json.dumps({"kind": "scalar_pt_type1", "theta": 0.0, "phi": 0.0,
                               "b": 1.0, "c": -3.0}))
    for argv in (("yop", doc, "--k1", "1.0", "--k2", "-1.0"),
                 ("ybe", doc, "--k", "1.0,0.3,-0.7"),
                 ("sweep", doc, "--run", "ybe", "--param", "theta=0.0:1.0:2",
                  "--k", "1.0,0.3,-0.7")):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (1, "")
        assert json.loads(out) == {
            "error": "invalid", "detail": "parameter constraint 1 + bc >= 0 violated: got -2.0"}


def test_pt_type1_document_that_validate_rejects_is_rejected_by_every_command(capsys, tmp_path):
    doc = tmp_path / "pt1_negative_b.json"
    doc.write_text(json.dumps({"kind": "scalar_pt_type1", "theta": 0.0, "phi": 0.0,
                               "b": -1.0, "c": 0.5}))
    rc, out, _ = run_cli(capsys, "validate", doc)
    assert rc == 1
    assert json.loads(out)["residuals"]["b_nonnegative"] == 1.0
    for argv in (("yop", doc, "--k1", "1.0", "--k2", "-1.0"),
                 ("ybe", doc, "--k", "1.0,0.3,-0.7")):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (1, "")
        assert json.loads(out) == {
            "error": "invalid", "detail": "parameter b must be non-negative, got -1.0"}


def test_yop_missing_argument_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "yop", fx("separated_free.json"), "--k1", "1.0")
    assert rc == 2
    assert out == ""
    assert "--k2" in err


# -- ybe ----------------------------------------------------------------------

def test_ybe_frozen_residual(capsys):
    rc, out, _ = run_cli(capsys, "ybe", fx("hspin_diag.json"), "--k", "1.0,0.3,-0.7")
    assert rc == 0
    assert out == '{"residual":0.1810220798823981}\n'


def test_ybe_free_contact_condition_factorizes(capsys):
    rc, out, _ = run_cli(capsys, "ybe", fx("free_nonseparated.json"),
                         "--k", "1.0,0.3,-0.7")
    assert rc == 0
    assert out == '{"residual":0.0}\n'


def count_solves(monkeypatch):
    """Record the number of matrices of every Cayley solve."""
    sizes = []

    def counted(F, k12, *args, **kwargs):
        sizes.append(int(np.size(k12)))
        return cayley(F, k12, *args, **kwargs)

    cayley = scattering.cayley
    monkeypatch.setattr(scattering, "cayley", counted)
    return sizes


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
@pytest.mark.parametrize("argv,checks", [
    (("ybe", "--k", "1.0,0.3,-0.7"), 1),
    (("ybe", "--k", "0.4,-0.1,-0.6"), 1),
    (("sweep", "--run", "ybe", "--param", "e1=-1.0:1.0:3", "--k", "1.0,0.3,-0.7"), 3),
])
def test_separated_ybe_check_is_one_stacked_solve(capsys, monkeypatch, argv, checks, statistics):
    command, *rest = argv
    argv = (command, str(FIXTURES.parent / "golden" / "inputs" / "hspin_random.json"), *rest,
            "--statistics", statistics)
    sizes = count_solves(monkeypatch)
    y_separated = scattering.y_separated
    with monkeypatch.context() as scalar:
        # The command's one stacked request becomes a no-op; the factory's
        # scalar requests still solve.
        scalar.setattr(scattering, "y_separated",
                       lambda bc, k12: None if np.ndim(k12) else y_separated(bc, k12))
        scattering._last_stack = None
        expected = run_cli(capsys, *argv)
    assert sizes == [1] * 3 * checks
    sizes.clear()
    scattering._last_stack = None
    assert run_cli(capsys, *argv) == expected
    assert sizes == [3] * checks
    assert expected[0] == 0 and expected[2] == ""


@pytest.mark.parametrize("name", ["free_nonseparated.json", "scalar_pt2_dirichlet.json"])
def test_ybe_without_a_coupling_matrix_solves_nothing(capsys, monkeypatch, name):
    sizes = count_solves(monkeypatch)
    rc, out, _ = run_cli(capsys, "ybe", fx(name), "--k", "1.0,0.3,-0.7")
    assert rc == 0 and json.loads(out)["residual"] == 0.0
    assert sizes == []


# -- bethe ---------------------------------------------------------------------

def test_bethe_two_particle_document(capsys):
    rc, out, _ = run_cli(capsys, "bethe", fx("hspin_minus_identity.json"),
                         "--k", "1.0,-1.0")
    assert rc == 0
    assert out == ('{"momenta":[1.0,-1.0],"statistics":"boson","path_consistency":null,'
                   '"coefficients":[{"perm":[1,2],"word":[],'
                   '"u":[[1.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0]]},'
                   '{"perm":[2,1],"word":[1],'
                   '"u":[[0.0,1.0],[0.0,0.0],[0.0,0.0],[0.0,0.0]]}]}\n')


def test_bethe_three_particle_document(capsys):
    rc, out, _ = run_cli(capsys, "bethe", fx("hspin_minus_identity.json"),
                         "--k", "1.0,0.2,-0.9")
    assert rc == 0
    doc = json.loads(out)
    assert doc["path_consistency"] <= 1e-12
    assert len(doc["coefficients"]) == 6
    perms = [tuple(entry["perm"]) for entry in doc["coefficients"]]
    assert perms == sorted(perms)
    assert doc["coefficients"][-1]["perm"] == [3, 2, 1]
    assert doc["coefficients"][-1]["word"] == [1, 2, 1]


def test_bethe_accepts_initial_vector(capsys):
    rc, out, _ = run_cli(capsys, "bethe", fx("hspin_minus_identity.json"),
                         "--k", "1.0,-1.0",
                         "--u-init", "[[0.0,0.0],[1.0,0.0],[0.0,0.0],[0.0,0.0]]")
    assert rc == 0
    doc = json.loads(out)
    assert doc["coefficients"][0]["u"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_bethe_requires_separated_condition(capsys):
    rc, out, err = run_cli(capsys, "bethe", fx("delta_real.json"), "--k", "1.0,-1.0")
    assert rc == 2
    assert out == ""
    assert "separated" in err


# -- bound ----------------------------------------------------------------------

def test_bound_two_particle_table(capsys):
    rc, out, _ = run_cli(capsys, "bound", fx("hspin_diag.json"), "--particles", "2")
    assert rc == 0
    entries = json.loads(out)
    assert [(e["lambda"], e["energy"]) for e in entries] == [
        (-3.0, -18.0), (-3.0, -18.0), (-2.0, -8.0), (-1.0, -2.0)]
    assert [e["epsilon"] for e in entries] == [[-1], [1], [1], [1]]
    v0 = vector_from_json(entries[0]["v"])
    assert abs(abs(v0[1]) - 1 / np.sqrt(2)) <= 1e-10
    assert max_abs(v0[1] + v0[2]) <= 1e-10


def test_bound_complex_spectrum_is_empty(capsys):
    rc, out, _ = run_cli(capsys, "bound", fx("hspin_complex_spectrum.json"),
                         "--particles", "2")
    assert rc == 0
    assert out == "[]\n"


def test_bound_three_particle_symmetric_state(capsys):
    rc, out, _ = run_cli(capsys, "bound", fx("hspin_minus_identity.json"),
                         "--particles", "3")
    assert rc == 0
    entries = json.loads(out)
    assert len(entries) == 1
    entry = entries[0]
    assert entry["lambda"] == -1.0
    assert entry["energy"] == -8.0
    assert entry["epsilon"] == [1, 1, 1]
    v = vector_from_json(entry["v"])
    dims = SpinDims(2, 3)
    for k in range(2, 4):
        for l in range(1, k):
            assert max_abs(exchange_operator(l, k, dims) @ v - v) <= 1e-10


def test_bound_usage_errors(capsys):
    rc, _, err = run_cli(capsys, "bound", fx("hspin_diag.json"), "--particles", "1")
    assert rc == 2
    assert "at least 2" in err
    rc, _, err = run_cli(capsys, "bound", fx("hspin_diag.json"))
    assert rc == 2
    rc, _, err = run_cli(capsys, "bound", fx("delta_real.json"), "--particles", "2")
    assert rc == 2
    assert "separated" in err


# -- classify ---------------------------------------------------------------------

def test_classify_real_spectrum_document(capsys):
    rc, out, _ = run_cli(capsys, "classify", fx("hspin_diag.json"))
    assert rc == 0
    assert out == ('{"eigenvalues":[[-3.0,0.0],[-3.0,0.0],[-2.0,0.0],[-1.0,0.0]],'
                   '"real_subset":[-3.0,-3.0,-2.0,-1.0],"complex_pairs":[],'
                   '"unpaired":[],"tol":4e-10}\n')


def test_classify_conjugate_pair_document(capsys):
    rc, out, _ = run_cli(capsys, "classify", fx("hspin_complex_spectrum.json"))
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["real_subset"]) == 2
    assert max(abs(v) for v in doc["real_subset"]) <= 1e-12
    assert len(doc["complex_pairs"]) == 1
    (plus, minus), = doc["complex_pairs"]
    assert abs(complex(*plus) - 1j) <= 1e-12
    assert abs(complex(*minus) + 1j) <= 1e-12
    assert doc["unpaired"] == []
    assert doc["tol"] == 2e-10


def test_classify_dirichlet_is_usage_error(capsys):
    dirichlet = fx("scalar_pt2_dirichlet.json")
    errors = set()
    for argv in (("classify", dirichlet),
                 ("sweep", dirichlet, "--run", "classify", "--param", "h0=0.0:1.0:2")):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert "Dirichlet" in err
        errors.add(err)
    assert len(errors) == 1


# -- sweep -------------------------------------------------------------------------

def test_sweep_ybe_csv(capsys):
    rc, out, _ = run_cli(capsys, "sweep", fx("hspin_diag.json"), "--run", "ybe",
                         "--param", "g=0.0:0.2:3", "--k", "1.0,0.3,-0.7")
    assert rc == 0
    assert out == ("param,value,residual\r\n"
                   "g,0.0,0.1810220798823981\r\n"
                   "g,0.1,0.1808694706545149\r\n"
                   "g,0.2,0.18040812792145622\r\n")


def test_sweep_validate_csv(capsys):
    rc, out, _ = run_cli(capsys, "sweep", fx("scalar_pt1.json"), "--run", "validate",
                         "--param", "c=3.0:5.0:2")
    assert rc == 0
    lines = out.split("\r\n")
    assert lines[0] == "param,value,valid,max_residual"
    assert lines[1] == "c,3.0,true,0.0"
    assert lines[2].startswith("c,5.0,true,")
    assert float(lines[2].rsplit(",", 1)[1]) <= 1e-12


def test_sweep_single_step_uses_lower_bound(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "sweep", fx("hspin_diag.json"), "--run", "classify",
                         "--param", "b=-2.0:7.0:1")
    assert rc == 0
    assert out == "param,value,n_real,n_complex\r\nb,-2.0,4,0\r\n"
    # A field the template carries along, nested deep but within the decoder's
    # limit, is not copied per grid point.
    template = json.loads(FIXTURES.joinpath("hspin_diag.json").read_text())
    template["note"] = json.loads("[" * 600 + "]" * 600)
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps(template))
    assert run_cli(capsys, "sweep", str(nested), "--run", "classify",
                   "--param", "b=-2.0:7.0:1")[:2] == (0, out)


def test_sweep_unknown_parameter_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "sweep", fx("hspin_diag.json"), "--run", "classify",
                           "--param", "zz=0:1:2")
    assert rc == 2
    assert out == ""
    assert "zz" in err


# -- plumbing ----------------------------------------------------------------------

def test_output_flag_redirects_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, "--output", target, "validate",
                         fx("free_nonseparated.json"))
    assert rc == 0
    assert out == ""
    rc, direct, _ = run_cli(capsys, "validate", fx("free_nonseparated.json"))
    assert target.read_text() == direct


@pytest.mark.parametrize("argv", [
    ("validate", fx("scalar_pt1.json")),
    ("yop", fx("hspin_complex_spectrum.json"), "--k1", "2.0", "--k2", "0.0"),
    ("bethe", fx("hspin_diag.json"), "--k", "1.0,0.3,-0.7"),
], ids=["success", "singular", "bethe"])
@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv, where):
    target = tmp_path / "missing" / "x.json" if where == "missing_directory" else tmp_path
    rc, out, err = run_cli(capsys, "--output", target, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("ptspin: error: ") and err.count("\n") == 1 and str(target) in err


# One process may call main many times and the parser is built once; no call
# may leak into the next.

def test_output_flag_does_not_stick_to_the_next_call(capsys, tmp_path):
    target = tmp_path / "bound.json"
    argv = ("bound", fx("hspin_diag.json"), "--particles", "2")
    rc, out, _ = run_cli(capsys, "--output", target, *argv)
    assert rc == 0 and out == ""
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and out == target.read_text() and json.loads(out)


def test_usage_error_does_not_affect_the_next_call(capsys):
    argv = ("bound", fx("hspin_minus_identity.json"), "--particles", "3")
    _, before, _ = run_cli(capsys, *argv)
    rc, out, err = run_cli(capsys, "bound", fx("hspin_minus_identity.json"), "--statistics", "x")
    assert rc == 2 and out == "" and "--statistics" in err
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and out == before and err == ""


def test_tolerance_environment_is_read_on_every_call(capsys, monkeypatch):
    argv = ("classify", fx("hspin_diag.json"))
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and json.loads(out)["tol"] == 1e-10 * (1 + 3.0)
    monkeypatch.setenv("PTSPIN_TOL", "0.5")
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and json.loads(out)["tol"] == 0.5
    rc, out, _ = run_cli(capsys, *argv, "--tol", "0.25")
    assert rc == 0 and json.loads(out)["tol"] == 0.25
    monkeypatch.delenv("PTSPIN_TOL")
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and json.loads(out)["tol"] == 1e-10 * (1 + 3.0)


@pytest.mark.parametrize("argv", [
    ("yop", fx("hspin_diag.json"), "--k1", "1", "--k2", "-1"),
    ("ybe", fx("hspin_diag.json"), "--k", "1.0,0.3,-0.7"),
    ("bethe", fx("hspin_diag.json"), "--k", "1.0,0.3,-0.7"),
    ("yop", fx("hspin_complex_spectrum.json"), "--k1", "2.0", "--k2", "0.0"),
], ids=["yop", "ybe", "bethe", "yop-singular"])
def test_commands_without_a_tolerance_ignore_the_tolerance_environment(capsys, monkeypatch, argv):
    expected = run_cli(capsys, *argv)
    monkeypatch.setenv("PTSPIN_TOL", "banana")
    assert run_cli(capsys, *argv) == expected


_ZERO = [0.0, 0.0]

# (argv, PTSPIN_TOL or None, stderr fragment); "{doc}" in argv is replaced by
# the path of a file holding the JSON document given as the fourth entry.
_USAGE_ERRORS = [
    (("validate", fx("perturbed_a.json"), "--tol", "0"), None, "--tol: tolerance must be positive"),
    (("validate", fx("perturbed_a.json")), "-1", "PTSPIN_TOL: tolerance must be positive"),
    (("bethe", fx("hspin_diag.json"), "--k", "1.0,-1.0", "--u-init", "nope"), None, "--u-init"),
    *[(("sweep", fx("hspin_diag.json"), "--run", "validate", "--param", param), None, fragment)
      for param, fragment in (("g0:1:2", "name=lo:hi:steps"), ("g=0:1", "name=lo:hi:steps"),
                              ("g=a:1:2", "name=lo:hi:steps"), ("g=0:1:0", "steps >= 1"),
                              ("g=0:inf:2", "finite bounds"))],
    (("sweep", fx("hspin_diag.json"), "--run", "ybe", "--param", "g=0:1:2"), None, "--k is required"),
    (("ybe", fx("hspin_diag.json"), "--k", "1,2"), None, "exactly 3 momenta"),
    (("ybe", fx("hspin_diag.json"), "--k", "1,x,2"), None, "comma-separated list of numbers"),
    (("ybe", fx("hspin_diag.json"), "--k", "1,nan,2"), None, "must be finite"),
    (("sweep", "{doc}", "--run", "validate", "--param", "g=0:1:2"), None, "must be an object",
     [{"kind": "hspin"}]),
    (("validate", "{doc}"), None, "missing field 'c'",
     {"kind": "scalar_pt_type1", "theta": 0.0, "phi": 0.0, "b": 1.0}),
    (("validate", "{doc}"), None, "positive integer", {"kind": "separated", "n": 1.5, "F": [[_ZERO]]}),
    (("validate", "{doc}"), None, "'params' must be an object", {"kind": "hspin", "params": [1.0]}),
    (("validate", "{doc}"), None, "D must be square",
     {"kind": "nonseparated", "n": 1, "A": [[_ZERO]], "B": [[_ZERO]], "C": [[_ZERO]],
      "D": [[_ZERO, _ZERO]]}),
    (("validate", "{doc}"), None, "must be 4x4 for n=2", {"kind": "delta", "n": 2, "C": [[_ZERO]]}),
    (("validate", "{doc}"), None, "[re, im] number pair",
     {"kind": "separated", "n": 1, "F": [[["a", 0]]]}),
]

_HSPIN_ZEROS = ", ".join(f'"{k}": 0' for k in ("b", "c", "d", "f", "g", "e1", "e2", "e3", "e4"))
# Raw document text that no JSON encoder writes: overflowing number literals
# and nesting deeper than the decoder's recursion limit.
_UNREADABLE_DOCS = [
    ('{"kind": "hspin", "params": {"a": 1e999, %s}}' % _HSPIN_ZEROS,
     "field 'a' must be a finite number"),
    ('{"kind": "hspin", "params": {"a": 1%s, %s}}' % ("0" * 400, _HSPIN_ZEROS),
     "field 'a' must be a finite number"),
    ('{"kind": "hspin", "params": {"a": 1%s, %s}}' % ("0" * 5000, _HSPIN_ZEROS), "ptspin: error: "),
    ('{"kind": "scalar_pt_type1", "theta": 1e999, "phi": 0.0, "b": 1.0, "c": 3.0}',
     "field 'theta' must be a finite number"),
    ('{"kind": "separated", "n": 1, "F": [[[-1e999, 0.0]]]}', "non-finite entries"),
    ('{"kind": "separated", "n": 1, "F": [[[1%s, 0.0]]]}' % ("0" * 400), "int too large"),
    ('{"kind": "delta", "n": 1, "C": [[[0.0, 1e999]]]}', "non-finite entries"),
    ("[" * 100000, "maximum recursion depth"),
    ('{"kind": "hspin", "note": %s}' % ("{\"x\": " * 100000), "maximum recursion depth"),
]
_USAGE_ERRORS += [((command, "{doc}", *flags), None, fragment, text)
                  for text, fragment in _UNREADABLE_DOCS
                  for command, *flags in (("validate",), ("yop", "--k1", "1.0", "--k2", "-1.0"),
                                          ("bound", "--particles", "2"))]


def test_structural_errors_are_usage_errors(capsys, tmp_path, monkeypatch):
    rc, out, err = run_cli(capsys, "validate", fx("truncated.json"))
    assert rc == 2 and out == ""
    rc, out, err = run_cli(capsys, "validate", fx("unknown_kind.json"))
    assert rc == 2
    assert "mystery" in err
    rc, out, err = run_cli(capsys, "validate", str(tmp_path / "missing.json"))
    assert rc == 2 and out == ""
    nan_doc = tmp_path / "nan.json"
    nan_doc.write_text(FIXTURES.joinpath("hspin_diag.json").read_text().replace("-1.0", "NaN", 1))
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes('{"kind": "hspin", "note": "\u00e9"}'.encode("latin-1"))
    for path, reason in ((nan_doc, "NaN"), (not_utf8, "utf-8")):
        for argv in (("validate", path),
                     ("sweep", path, "--run", "validate", "--param", "b=0.0:1.0:2")):
            rc, out, err = run_cli(capsys, *argv)
            assert rc == 2 and out == ""
            assert reason in err
    failures = []
    for argv, env_tol, fragment, *doc in _USAGE_ERRORS:
        if doc:
            text = doc[0] if isinstance(doc[0], str) else json.dumps(doc[0])
            (tmp_path / "doc.json").write_text(text)
        if env_tol is None:
            monkeypatch.delenv("PTSPIN_TOL", raising=False)
        else:
            monkeypatch.setenv("PTSPIN_TOL", env_tol)
        argv = [str(tmp_path / "doc.json") if a == "{doc}" else a for a in argv]
        rc, out, err = run_cli(capsys, *argv)
        if rc != 2 or out != "" or fragment not in err or err.count("\n") != 1:
            failures.append((argv, rc, out, err))
    assert failures == []


def test_reruns_are_byte_identical(capsys):
    cases = [
        ("validate", fx("free_nonseparated.json")),
        ("ybe", fx("hspin_diag.json"), "--k", "1.0,0.3,-0.7"),
        ("classify", fx("hspin_complex_spectrum.json")),
        ("bound", fx("hspin_diag.json"), "--particles", "2"),
    ]
    for case in cases:
        rc1, out1, _ = run_cli(capsys, *case)
        rc2, out2, _ = run_cli(capsys, *case)
        assert rc1 == rc2
        assert out1 == out2


def test_module_entrypoint_validate():
    proc = subprocess.run(
        [sys.executable, "-m", "ptspin", "validate", fx("free_nonseparated.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == ('{"valid":true,"residuals":{"AA*-BC*-I":0.0,"DD*-CB*-I":0.0,'
                           '"BD*-AB*":0.0,"CA*-DC*":0.0},"tolerance":1e-10}\n')


def test_module_entrypoint_singular_exit():
    proc = subprocess.run(
        [sys.executable, "-m", "ptspin", "yop", fx("hspin_complex_spectrum.json"),
         "--k1", "2.0", "--k2", "0.0"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == "singular"


_SWEEP = ("sweep", "--param", "e1=-1.0:1.0:3", "--run")


@pytest.mark.parametrize("argv,modules,loads_csv", [
    (("validate",), set(), False),
    (("yop", "--k1", "1.0", "--k2", "-1.0"), {"scattering"}, False),
    (("ybe", "--k", "1.0,0.3,-0.7"), {"scattering"}, False),
    ((*_SWEEP, "ybe", "--k", "1.0,0.3,-0.7"), {"scattering"}, True),
    (("bethe", "--k", "1.0,0.3,-0.7"), {"scattering", "bethe"}, False),
    (("bound", "--particles", "3"), {"spectra"}, False),
    (("classify",), {"spectra"}, False),
    ((*_SWEEP, "classify"), {"spectra"}, True),
    ((*_SWEEP, "validate"), set(), True),
], ids=["validate", "yop", "ybe", "sweep-ybe", "bethe", "bound", "classify", "sweep-classify",
        "sweep-validate"])
def test_each_command_loads_only_the_modules_it_runs(argv, modules, loads_csv):
    """A fresh `python -m ptspin` process imports cli, linalg and boundary,
    plus what its command runs; -X importtime names every module imported."""
    command, *rest = argv
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ptspin", command,
                           fx("hspin_diag.json"), *rest], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {name for name in imported if name.startswith("ptspin.")} == \
        {f"ptspin.{name}" for name in {"cli", "linalg", "boundary", *modules}}
    assert ("csv" in imported) == loads_csv


_SIX_COMMANDS = {
    "validate": (), "classify": (), "yop": ("--k1", "1.0", "--k2", "-1.0"),
    "ybe": ("--k", "1.0,0.3,-0.7"), "bethe": ("--k", "1.0,0.3,-0.7"), "bound": ("--particles", "2"),
}
# Finite documents whose products overflow, each with {command: (exit code,
# fragment of the JSON detail or None)}.
_OVERFLOW_DOCS = [
    ({"kind": "hspin", "params": {"a": 1e308, "b": -1e308, **{k: 0.0 for k in
                                                               ("c", "d", "f", "g", "e1", "e2", "e3", "e4")}}},
     {"validate": (0, None), "classify": (0, None), "bound": (1, "lam=-1e+308 overflow"),
      **{command: (1, "smallest/largest singular value") for command in ("yop", "ybe", "bethe")}}),
    ({"kind": "scalar_pt_type1", "theta": 0.0, "phi": 0.0, "b": 1e200, "c": 1e200},
     {command: (1, "parameter product bc must be finite, got inf") for command in _SIX_COMMANDS}),
    ({"kind": "scalar_pt_type1", "theta": 0.0, "phi": 0.0, "b": 1e200, "c": -1e200},
     {command: (1, "parameter product bc must be finite, got -inf") for command in _SIX_COMMANDS}),
    ({"kind": "scalar_pt_type2", "theta": 0.0, "h0": 1e-320, "h1": 1e300},
     {command: (1, "parameter ratio h1/h0 must be finite, got inf") for command in _SIX_COMMANDS}),
]
# Runs each argv of the JSON list in argv[1] through cli.main in one process
# and prints [exit code, stdout, stderr] per argv.
_RUN_ARGVS = """
import contextlib, io, json, sys
from ptspin.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        results.append([main(argv), out, err])
print(json.dumps([[rc, out.getvalue(), err.getvalue()] for rc, out, err in results]))
"""


# Flags at the edge of the double range, and requests beyond any address
# space: (argv, exit code, fragment of the JSON detail or of stderr).
_EDGE_ARGVS = [
    (["yop", fx("scalar_pt2_dirichlet.json"), "--k1", "nan", "--k2", "0"], 2,
     "--k1 and --k2 must be finite"),
    (["yop", fx("hspin_diag.json"), "--k1", "nan", "--k2", "0"], 2, "--k1 and --k2 must be finite"),
    (["yop", fx("hspin_diag.json"), "--k1", "1", "--k2=-inf"], 2, "--k1 and --k2 must be finite"),
    (["ybe", fx("hspin_diag.json"), "--k", "nan,0,1"], 2, "--k entries must be finite"),
    (["yop", fx("hspin_diag.json"), "--k1=1e308", "--k2=-1e308"], 0, None),
    (["ybe", fx("hspin_diag.json"), "--k", "1e308,-1e308,0"], 0, None),
    (["bethe", fx("hspin_diag.json"), "--k=1e308,-1e308"], 0, None),
    (["bethe", fx("hspin_diag.json"), "--k=1e308,-1e308,0"], 0, None),
    (["sweep", fx("hspin_diag.json"), "--run", "ybe", "--param", "g=0:1:3", "--k=1e308,-1e308,0"],
     0, None),
    (["sweep", fx("hspin_diag.json"), "--run", "classify", "--param", "g=-1e308:1e308:3"], 2,
     "--param span hi - lo must be finite"),
    (["bound", fx("hspin_diag.json"), "--particles", "40"], 1, "Unable to allocate"),
    # 2^(10^100) spin components: refused from N alone, without the exact power.
    (["bound", fx("hspin_diag.json"), "--particles", "1" + "0" * 100], 1,
     "pass the int64 index range"),
    (["sweep", fx("hspin_diag.json"), "--run", "classify", "--param", "g=0:1:100000000000000"], 1,
     "Unable to allocate"),
    # N >= 10 is refused before the (N!, n^N) coefficients (55.4 GiB at
    # N = 10) are allocated, whatever the host could reserve.
    (["bethe", fx("hspin_diag.json"), "--k", ",".join(str(0.3 * i) for i in range(10))], 1,
     "planning N=10 particles builds a trie of 3628800 words"),
    (["bethe", fx("hspin_diag.json"), "--k", ",".join(str(0.3 * i) for i in range(12))], 1,
     "planning N=12 particles builds a trie of 479001600 words"),
]


def strict_json(text):
    """Parse JSON as the standard defines it: NaN and Infinity are not numbers."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("doc,expected", _OVERFLOW_DOCS)
def test_overflowing_documents_fail_with_their_cause_on_every_command(tmp_path, doc, expected):
    """No hang, traceback, RuntimeWarning or non-JSON stdout; a hang fails the timeout."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argvs = [[command, str(path), *_SIX_COMMANDS[command]] for command in expected]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _RUN_ARGVS,
                           json.dumps(argvs)], capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    for (command, (rc, fragment)), (got, out, err) in zip(expected.items(), json.loads(proc.stdout)):
        assert (command, got, err) == (command, rc, "")
        printed = strict_json(out)
        if fragment is not None:
            detail = printed["detail"]
            assert fragment in detail and "collide" not in detail, (command, detail)


def test_memory_error_without_text_still_has_a_detail(capsys, monkeypatch):
    """A failed Python allocation raises MemoryError(); the JSON detail is never empty."""
    def exhausted(args, tol):
        raise MemoryError()
    monkeypatch.setitem(cli._DISPATCH, "yop", exhausted)
    rc, out, err = run_cli(capsys, "yop", fx("hspin_diag.json"), "--k1", "1", "--k2", "0")
    assert (rc, err) == (1, "")
    assert json.loads(out) == {"error": "invalid", "detail": "out of memory"}


# At k12 = 1e308 the first overflows ik + F (ik - F is finite and
# invertible), the second ik - F.
_OVERFLOWING_OPERATORS = {"ik+F": {"kind": "separated", "n": 1, "F": [[[1e308, 1e308]]]},
                          "ik-F": {"kind": "separated", "n": 1, "F": [[[0.0, -1e308]]]}}


@pytest.mark.parametrize("argv", [
    ("yop", "--k1=1e308", "--k2=-1e308"),
    ("ybe", "--k=1e308,0,-1e308"),
    ("bethe", "--k=1e308,-1e308,0"),
], ids=["yop", "ybe", "bethe"])
def test_an_overflowing_exchange_operator_is_one_error_line(capsys, tmp_path, argv):
    """Not NaN coefficients, a non-JSON matrix or a blamed pair operator, but
    the value of k12 (no row of an internal stack), and for bethe the
    momentum pair; a RuntimeWarning fails the test (pytest turns it into an
    error)."""
    command, *flags = argv
    pair = "momentum pair (1,2) gives a non-finite exchange operator: " if command == "bethe" else ""
    for name, doc in _OVERFLOWING_OPERATORS.items():
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_cli(capsys, command, path, *flags)
        assert (rc, err, out.count("\n")) == (1, "", 1), name
        assert strict_json(out) == {
            "error": "invalid",
            "detail": f"{pair}the Cayley form at relative momentum k12=1e+308 has non-finite entries"}, name


def test_edge_flags_and_oversized_requests_fail_cleanly():
    """Non-finite momenta and spans are usage errors, finite momenta whose
    difference overflows still give finite operators, and an allocation
    beyond the address space is a JSON error line; all under a 1 GiB address
    space limit, with no traceback, RuntimeWarning or non-JSON stdout."""
    limited = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))" + _RUN_ARGVS
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", limited,
                           json.dumps([argv for argv, _, _ in _EDGE_ARGVS])],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    for (argv, rc, fragment), (got, out, err) in zip(_EDGE_ARGVS, json.loads(proc.stdout)):
        assert got == rc, (argv, got, out, err)
        if rc == 2:
            assert out == "" and err.startswith(f"ptspin: error: {fragment}"), (argv, err)
        elif argv[0] == "sweep" and rc == 0:
            assert err == "" and all(np.isfinite(float(row.split(",")[-1]))
                                     for row in out.splitlines()[1:]), (argv, out)
        else:
            printed = strict_json(out)
            assert err == "" and (fragment is None or fragment in printed["detail"]), (argv, out)

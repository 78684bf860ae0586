"""Point interactions with spin coupling: boundary-condition families,
two-body exchange operators, factorization checks, Bethe-type coefficient
propagation, and bound-state construction with independent numerical oracles.

Importing the package loads none of its modules: each public name is looked
up in `_EXPORTS`, and its defining module is imported on first use
(PEP 562), so a process loads only the modules it uses.
"""
from importlib import import_module

_EXPORTS = {name: module for module, names in {
    "linalg": ("SingularMatrixError", "SpinDims", "Statistics", "inverse", "max_abs",
               "statistics_swap", "swap_pair"),
    "boundary": ("NonseparatedBC", "ParseError", "ScalarBC", "SeparatedBC", "ValidationReport",
                 "boundary_condition_to_json", "compatibility_residual", "delta_prime_type",
                 "delta_type", "hspin", "lift_scalar", "load_boundary_condition",
                 "parse_boundary_condition", "scalar_pt_type1", "scalar_pt_type2",
                 "validate_nonseparated_pt", "validate_selfadjoint", "validate_separated_pt"),
    "scattering": ("make_y_factory", "y_inverse_residual", "y_nonseparated", "y_separated",
                   "ybe_residual"),
    "bethe": ("BetheState", "bethe_coefficients", "boundary_jump_residual",
              "evaluate_wavefunction", "path_consistency"),
    "spectra": ("BoundState", "BoundStateNotFound", "SignPattern", "SpectrumReport",
                "bound_energy", "bound_states", "classify_spectrum", "n_particle_bound_state",
                "negative_real_eigenvalues", "verify_bound_state_fd"),
}.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    """Import the module that defines an exported name and keep the name here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

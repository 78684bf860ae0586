"""Finite-difference convergence of the bound-state eigenvalue residual.

Builds the two- and three-particle bound states of a scalar coupling and
tabulates the discretized eigenvalue defect as the grid spacing halves.
Second-order stencils should show a ~4x drop per halving.

Usage: python3 scripts/fd_convergence.py --spacings 4e-3,2e-3,1e-3
"""
import argparse
import sys

import numpy as np

from ptspin.boundary import SeparatedBC
from ptspin.spectra import (
    SignPattern,
    bound_states,
    n_particle_bound_state,
    verify_bound_state_fd,
)


def build_states():
    two = bound_states(SeparatedBC(2, -np.eye(4)), 2, "boson")[0]
    three = n_particle_bound_state(SeparatedBC(2, -2.0 * np.eye(4)), 3, -2.0,
                                   SignPattern.uniform(3), "boson")
    return [("N=2, lam=-1", two, 10.0), ("N=3, lam=-2", three, 5.0)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spacings", default="4e-3,2e-3,1e-3",
                        help="comma-separated grid spacings, finest last")
    args = parser.parse_args(argv)
    spacings = [float(s) for s in args.spacings.split(",")]

    for label, state, half_width in build_states():
        print(f"{label}  (E = {state.energy}, half width {half_width})")
        print(f"  {'h':>10}  {'residual':>12}  {'ratio':>6}")
        previous = None
        for h in spacings:
            residual = verify_bound_state_fd(state, half_width=half_width, spacing=h)
            ratio = "" if previous is None else f"{previous / residual:.2f}"
            print(f"  {h:>10.1e}  {residual:>12.3e}  {ratio:>6}")
            previous = residual
    return 0


if __name__ == "__main__":
    sys.exit(main())

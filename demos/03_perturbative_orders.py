"""Perturbative creation operators against the exact resolvent construction.

A generic 4-level toy with well-spaced levels makes the convergence rates
visible. The first-order creation operator is the superoperator [A, .] of
the Rayleigh-Schroedinger eigenvector correction A, so I + A misses the
exact eigenvectors psi, each scaled to a unit anchor (psi diag(psi)^-1), at
O(lam^2); the second-order kinetic eigenvalues miss the exact ones at
O(lam^3). Halving lam should shrink those errors by about 4 and 8.

Degenerate free dyads break the plain series; the demo ends by hitting that
wall on purpose and then regularizing it with a retarded i*eta shift.
"""

import numpy as np

from subdyn.subdynamics import ResonanceError, decompose


def main() -> None:
    rng = np.random.default_rng(123)
    h0 = np.diag([0.0, 1.1, 2.7, 4.6])
    h1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h1 = h1 + h1.conj().T

    print("lam        |psi/psi_ii - (I + A)|   |E2 - E_exact|")
    previous = None
    for lam in (1e-2, 5e-3, 2.5e-3):
        exact = decompose(h0, h1, lam=lam, order="exact")
        first = decompose(h0, h1, lam=lam, order="1")
        anchored = exact.psi / np.diag(exact.psi)[None, :]
        c_gap = float(np.linalg.norm(anchored - np.eye(h0.shape[0]) - first.first_order[0]))
        # E_nu = E0 + lam V + lam V C1 is already second order in lam
        e_gap = float(np.max(np.abs(first.energies - exact.energies)))
        line = f"{lam:8.1e}   {c_gap:20.3e}    {e_gap:12.3e}"
        if previous is not None:
            line += f"   (ratios {previous[0] / c_gap:.2f}, {previous[1] / e_gap:.2f})"
        print(line)
        previous = (c_gap, e_gap)

    # collapse two levels: the dyad (0,1) becomes degenerate with (1,0) and
    # its own partners, and the coupled series divides by zero
    h0_res = np.diag([0.0, 0.0, 2.7, 4.6])
    print("\ndegenerate levels, order 1:")
    try:
        decompose(h0_res, h1, lam=1e-2, order="1")
    except ResonanceError as exc:
        print(f"  refused: {exc}")
    regulated = decompose(h0_res, h1, lam=1e-2, order="1", eta=0.05)
    worst_im = float(np.max(regulated.energies.imag))
    print(f"  with eta = 0.05 the series is finite; max Im E = {worst_im:.3e}"
          " (retarded side)")


if __name__ == "__main__":
    main()

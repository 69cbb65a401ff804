"""Perturbative creation operators against the exact resolvent construction.

A generic 4-level toy with well-spaced levels and an interaction with a
diagonal makes the convergence rates visible. At order k the creation
column nu = (i, j) reads the plane factor U_k on the dyads (a, j): the
Rayleigh-Schroedinger correction of the right eigenvector psi_i to order k
(U_1 = A, and U_2 = A + lam r * (h A - A diag h) adds the second-order
term with its renormalization). The exact order stores the same plane in
the same form, U = R - I for its eigenvectors psi scaled to a unit anchor,
R = psi diag(psi)^-1. So U_k misses the exact U at O(lam^(k+1)), and the
order-k kinetic eigenvalues E[i, j] = z_i - w_j, a d x d matrix over the
dyads, miss the exact ones at O(lam^(k+2)). Halving
lam should shrink those errors by about 4 and 8 at order 1, and by about 8
and 16 at order 2.

The free frame, H0's eigenbasis with H1 read in it, depends on neither lam
nor the order, so the demo builds it once per model and sweeps both over it.

Degenerate free dyads break the plain series; the demo ends by hitting that
wall on purpose and then regularizing it with a retarded i*eta shift.
"""

import numpy as np

from subdyn.subdynamics import ResonanceError, decompose, liouville_basis


def main() -> None:
    rng = np.random.default_rng(123)
    h0 = np.diag([0.0, 1.1, 2.7, 4.6])
    h1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h1 = h1 + h1.conj().T
    basis = liouville_basis(h0, h1)

    print("order  lam        |U_exact - U_k|          |E_k - E_exact|")
    for order in ("1", "2"):
        previous = None
        for lam in (1e-2, 5e-3, 2.5e-3):
            exact = decompose(basis, lam, order="exact")
            series = decompose(basis, lam, order=order)
            c_gap = float(np.linalg.norm(exact.planes[0] - series.planes[0]))
            e_gap = float(np.max(np.abs(series.energies - exact.energies)))
            line = f"{order:>5}  {lam:8.1e}   {c_gap:20.3e}    {e_gap:14.3e}"
            if previous is not None:
                line += f"   (ratios {previous[0] / c_gap:.2f}, {previous[1] / e_gap:.2f})"
            print(line)
            previous = (c_gap, e_gap)

    # collapse two levels: the interaction couples the degenerate levels 0
    # and 1, so every dyad (0, k) meets (1, k) and the series divides by zero
    resonant = liouville_basis(np.diag([0.0, 0.0, 2.7, 4.6]), h1)
    print("\ndegenerate levels, order 1:")
    try:
        decompose(resonant, 1e-2, order="1")
    except ResonanceError as exc:
        print(f"  refused: {exc}")
    regulated = decompose(resonant, 1e-2, order="1", eta=0.05)
    worst_im = float(np.max(regulated.energies.imag))
    print(f"  with eta = 0.05 the series is finite; max Im E = {worst_im:.3e}"
          " (retarded side)")
    print(f"  E[0, 1] = z_0 - w_1 = {complex(regulated.energies[0, 1]):.6f}")


if __name__ == "__main__":
    main()

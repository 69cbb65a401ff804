"""Calibrate the swap gate timing against interaction-shifted phases.

The ideal gate is free dyad evolution for t_sw. An interaction shifts every
kinetic eigenvalue; when the shifts are homogeneous (E0/dE is one constant
ratio) a single timing correction delta_t = -t_sw / (ratio + 1) restores all
phases at once. Inhomogeneous shifts leave only a least-squares compromise.
"""

import numpy as np

from subdyn.gates import calibrate_timing, exchange_hamiltonian, \
    exchange_swap_time


def show(cal, label):
    print(f"{label}:")
    print(f"  homogeneous: {cal.homogeneous} (E0/dE = {cal.E0_over_dE:.6g})")
    print(f"  delta_t = {cal.delta_t:+.6f}")
    print(f"  residual {cal.residual:.3e}, phase gap {cal.phase_gap:.3e}")


def main() -> None:
    # the textbook case: every dyad shifted by one ninth of its free energy
    e0 = np.array([0.0, 9.0, 18.0])
    cal = calibrate_timing((e0, [0.0]), (e0 * (10.0 / 9.0), [0.0]), t_sw=1.0)
    show(cal, "homogeneous shift, ratio 9, t_sw = 1")

    rng = np.random.default_rng(3)
    e0 = rng.uniform(-4.0, 4.0, 6)
    ratio = 12.5
    cal = calibrate_timing((e0, [0.0]), (e0 * (1.0 + 1.0 / ratio), [0.0]), t_sw=2.0)
    show(cal, "\nrandom six-dyad family, ratio 12.5, t_sw = 2")

    # one dyad keeps its free energy while another moves: no single delta_t
    # can cancel both, and the report says so; a flat energy list is the
    # case of one right level at 0
    cal = calibrate_timing(([1.0, 2.0], [0.0]), ([1.0, 2.2], [0.0]), t_sw=1.0)
    show(cal, "\nstuck dyad (1.0 unshifted, 2.0 -> 2.2)")

    g = 0.8
    t_sw = exchange_swap_time(g)
    # e^{-iHt} of the Hermitian exchange Hamiltonian from its eigenpairs
    values, vectors = np.linalg.eigh(exchange_hamiltonian(g))
    u = (vectors * np.exp(-1j * values * t_sw)) @ vectors.conj().T
    ket01 = np.zeros(4, dtype=complex)
    ket01[1] = 1.0
    print(f"\nXY exchange sanity check: g = {g}, t_sw = {t_sw:.4f}")
    print(f"  |01> maps to {np.array2string(u @ ket01, precision=4)}"
          "  (the swapped ket, global phase -i)")


if __name__ == "__main__":
    main()

"""Drive the biorthonormal pseudospin machine around the Bloch sphere.

The machine is one head spin plus tape spins, each with its own invertible
(not necessarily orthonormal) basis. Duals co-evolve with the inverse step,
so the pairing <psi~|psi> is conserved by every invertible operator, unitary
or not. Rotations trace the real y-z circle; a shear keeps the pairing but
pushes the Bloch components off the real axis. Entangled head-tape states
split into branches whose weighted Bloch vectors recompose the total.
"""

import numpy as np

from subdyn.turing import (
    TuringMachine,
    biorthonormality_residual,
    bloch_circle_residual,
    bloch_head,
    decompose_entangled,
    isometry_residual,
    recompose_bloch,
    rotation_step,
    shear_step,
    step,
    tape_state,
    trajectory,
)


def main() -> None:
    rng = np.random.default_rng(11)
    factors = []
    while len(factors) < 3:
        s = np.eye(2) + 0.4 * (rng.standard_normal((2, 2))
                               + 1j * rng.standard_normal((2, 2)))
        if abs(np.linalg.det(s)) > 0.3:
            factors.append(s)
    machine = TuringMachine(factors=tuple(factors))
    print(f"machine: head + {machine.n_tape} tape spins, skewed bases")
    print(f"biorthonormality residual: {biorthonormality_residual(machine):.3e}")

    head = np.asarray(factors[0], dtype=complex)
    t_ket, t_bra = tape_state(machine, (0, 0))
    psi = np.kron(head[:, 0], t_ket)
    dual = np.kron(machine.inverses()[0][0, :], t_bra)

    theta = 2.0 * np.pi / 6.0
    points = trajectory(machine, psi, dual, [rotation_step(machine, theta)] * 6)
    print(f"\nsix x-rotations by {theta:.3f} rad (full turn):")
    for k, p in enumerate(points):
        print(f"  step {k}: y = {p.y.real:+.4f}, z = {p.z.real:+.4f}")
    print(f"circle residual: {bloch_circle_residual(points):.3e}")

    shear = shear_step(machine, 0.6)
    print(f"\nshear step (non-unitary): pairing drift "
          f"{isometry_residual(psi, dual, shear):.3e}")
    ket_s, bra_s = step(psi, dual, shear)
    p = bloch_head(ket_s, bra_s, machine)
    print(f"  Bloch after shear: x = {p.x:.4f}, y = {p.y:.4f}, z = {p.z:.4f}")
    print(f"  x^2 + y^2 + z^2 = {p.purity():.6f} (still on the sphere)")

    ta_ket, ta_bra = tape_state(machine, (0, 0))
    tb_ket, tb_bra = tape_state(machine, (1, 1))
    psi_e = 0.6 * np.kron(head[:, 0], ta_ket) + 0.8 * np.kron(head[:, 0], tb_ket)
    dual_e = 0.6 * np.kron(machine.inverses()[0][0, :], ta_bra) \
        + 0.8 * np.kron(machine.inverses()[0][0, :], tb_bra)
    branches = decompose_entangled(psi_e, dual_e, machine)
    print(f"\nentangled state over two tape branches, weights "
          f"{[f'{w.real:.2f}' for w, _ in branches]}")
    got = recompose_bloch(branches)
    want = bloch_head(psi_e, dual_e, machine)
    gap = max(abs(got.x - want.x), abs(got.y - want.y), abs(got.z - want.z))
    print(f"recomposed Bloch vector matches the direct one to {gap:.3e}")


if __name__ == "__main__":
    main()

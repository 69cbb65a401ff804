"""Show that projected dyad dynamics reproduces the exact evolution.

The full density matrix evolves under rho -> e^{-iHt} rho e^{iHt}. Splitting
Liouville space into the invariant subspaces of the commutator generator
turns that into independent scalar phases: each dyad coefficient just picks
up e^{-i E_nu t}. The residual printed below is the operator-norm gap
between the two routes, sampled over random initial states.
"""

import numpy as np

from subdyn.linalg import expm
from subdyn.models import ModelSpec, build_model
from subdyn.subdynamics import decompose_model, kinetic_consistency_residual, project_density

SPEC = ModelSpec(kind="general", omega_atoms=(1.0, 1.0), omega=1.0, g=0.5,
                 lam=0.05, bath=((0.9, 0.6),), fock_cutoff=1, bath_cutoff=1)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix (Hermitian, positive, unit trace)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def main() -> None:
    ops = build_model(SPEC)
    decomp = decompose_model(ops)
    h = ops.hamiltonian()
    rng = np.random.default_rng(1)

    print(f"general model, dim {ops.dim}, Liouville dim {decomp.basis.dim ** 2}")
    worst = 0.0
    for k in range(5):
        rho0 = random_density(rng, ops.dim)
        t = float(rng.uniform(0.5, 5.0))
        _, res = kinetic_consistency_residual(decomp, h, rho0, t)
        worst = max(worst, res)
        print(f"  sample {k}: t = {t:5.2f}, residual {res:.3e}")
    print(f"worst residual: {worst:.3e}")

    # one state end to end: project, phase-advance, compare traces. The
    # coefficients c[i, j] and energies E[i, j] = z_i - w_j are d x d
    # matrices over the dyads nu = (i, j)
    rho0 = random_density(rng, ops.dim)
    coeff = project_density(decomp, rho0)
    t = 2.5
    advanced = np.exp(-1j * decomp.energies * t) * coeff
    rho_t = expm(-1j * t * h) @ rho0 @ expm(1j * t * h)
    exact = project_density(decomp, rho_t)
    # the trace sums the population coefficients nu = (i, i), the diagonal
    print(f"trace through projection: {np.trace(coeff).real:.12f}")
    print(f"trace after phase advance: {np.trace(advanced).real:.12f}")
    gap = np.max(np.abs(advanced - exact))
    print(f"largest per-dyad coefficient gap at t = {t}: {gap:.3e}")


if __name__ == "__main__":
    main()

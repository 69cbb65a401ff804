"""Dense d^2 x d^2 Liouville routes: the reference the factored engine is checked against.

subdyn.subdynamics keeps one representation at every construction order:
d x d plane factors and off-plane factors. The routes here build the
superoperators the theory writes down -- L = diag(E0) + lam [h1_f, .], the
creation columns c_nu, the destruction rows d_nu, Omega = I + C and the
total projectors Pi_nu = (P + C)(P + DC)^-1(P + D) -- as dense matrices
from a Decomposition, so every test can compare a factored expression with
its textbook form. The dense density-matrix fidelity and the total-space
evidence loop built on it are the reference for subdyn.classify's
rank-factored evidence. They cost O(d^4) memory and up to O(d^6) time, so
they are for small d only.

Superoperators use the column-stacking convention of vec here:
vec(A X B) = (B^T kron A) vec(X). A dyad nu = (i, j) is a plain tuple of
free-basis indices; it sits at Liouville index i + d j, so vec carries the
engine's d x d matrices over the dyads (energies, kappa, coefficients) to
the Liouville vectors of the dense routes, and unvec back.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from subdyn.linalg import (
    DEFAULT_TOL,
    DEGENERACY_TOL,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    as_complex_matrix,
    is_hermitian,
    norm_scale,
)
from subdyn.models import ModelOperators, canonical_initial_ket
from subdyn.subdynamics import (
    Decomposition,
    PhiBasis,
    ResonanceError,
    _exact_factors,
    liouville_basis,
)


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix, dtype=np.complex128).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec for a dim x dim matrix."""
    v = np.asarray(vector, dtype=np.complex128).ravel()
    if dim * dim != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((dim, dim), order="F")


def free_energies(basis: PhiBasis) -> np.ndarray:
    """E0 = vec(eps_i - eps_j), the free kinetic eigenvalues over the Liouville index."""
    eps = basis.f_values
    return vec(np.subtract.outer(eps, eps))


def to_frame(basis: PhiBasis, rho: np.ndarray) -> np.ndarray:
    """Density matrix -> Liouville vector in the free eigenframe."""
    f = basis.f_vectors
    return vec(f.conj().T @ as_complex_matrix(rho, "rho") @ f)


def from_frame(basis: PhiBasis, rho_vec: np.ndarray) -> np.ndarray:
    """Liouville vector in the free eigenframe -> density matrix."""
    f = basis.f_vectors
    return f @ unvec(rho_vec, basis.dim) @ f.conj().T


def canonical_initial_state(ops: ModelOperators) -> np.ndarray:
    """Density matrix |psi><psi| of models.canonical_initial_ket."""
    psi = canonical_initial_ket(ops)
    return np.outer(psi, psi.conj())


def dyad_index(basis: PhiBasis, nu: tuple[int, int]) -> int:
    """Liouville index i + d j of the dyad nu = (i, j)."""
    i, j = nu
    return i + basis.dim * j


def level_pair(dyads: tuple[tuple[int, int], tuple[int, int]]) -> tuple[int, int]:
    """The entry (x, y) of h1 through which L1 = [h1, .] couples the dyads (mu, nu).

    (h1 X)[x, k] = h1[x, y] X[y, k] couples mu = (x, k) to nu = (y, k), and
    (X h1)[k, y] = X[k, x] h1[x, y] couples mu = (k, y) to nu = (k, x).
    """
    (a, b), (i, j) = dyads
    return (a, i) if b == j else (j, b)


def commutator_superop(hamiltonian) -> np.ndarray:
    """Superoperator of X -> [H, X] under column stacking.

    Returns I kron H - H^T kron I, a d^2 x d^2 dense matrix. Hermitian H
    gives a Hermitian superoperator with spectrum {e_i - e_j}.
    """
    h = as_complex_matrix(hamiltonian, "hamiltonian")
    d = h.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    return np.kron(eye, h) - np.kron(h.T, eye)


def interaction(decomp: Decomposition) -> np.ndarray:
    """Interaction Liouvillian L1 = [h1_f, .] as a dense matrix."""
    return commutator_superop(decomp.h1_f)


def dyad_resolvent(basis: PhiBasis, eta: float) -> np.ndarray:
    """1/(E0_nu - E0_mu + i eta) as a [b, a, j, i] tensor, mu = (a, b), nu = (i, j).

    Zero on mu = nu and, at eta = 0, on every degenerate pair of dyads (where
    second_order_columns sets its own value); real at eta = 0.
    """
    d = basis.dim
    e0 = free_energies(basis).real
    grid = e0.reshape(d, d)  # grid[b, a] = eps_a - eps_b
    gap = grid[None, None, :, :] - grid[:, :, None, None]
    if eta == 0.0:
        blocked = np.abs(gap) <= DEGENERACY_TOL * max(1.0, float(np.max(np.abs(e0))))
        inv = gap
    else:
        blocked = np.eye(d * d, dtype=bool).reshape(gap.shape)
        inv = gap + 1j * eta
    inv[blocked] = 1.0
    np.divide(1.0, inv, out=inv)
    inv[blocked] = 0.0
    return inv


def second_order_columns(h: np.ndarray, g: np.ndarray, lam: float,
                         resolvent: np.ndarray) -> np.ndarray:
    """Order-2 creation columns grown from the first-order superoperator [g, .].

    Column nu = (i, j) is [g, E] + lam * resolvent_nu * ([h, [g, E]]
    - (h[i, i] - h[j, j]) [g, E]) with E = e_i e_j^T, returned as a
    d^2 x d^2 matrix: the second term is the Rayleigh-Schroedinger
    renormalization -lam (L1)_nunu R c1. Entry mu = (a, b) of the
    double commutator is delta_bj (h g)[a, i] + delta_ai (g h)[j, b]
    - h[a, i] g[j, b] - g[a, i] h[j, b]; the tensor axes are [b, a, j, i].
    Where the resolvent is masked off the planes b = j and a = i (degenerate
    dyad pairs at eta = 0), the two paths through (a, j) and (i, b) have a
    removable singularity, and the entry is its value: the product of nu's
    first-order amplitudes there, g[a, i] and -g[j, b].
    Rows with g = A' are the transposed columns of (h^T, A'^T).
    """
    d = h.shape[0]
    k = np.arange(d)
    s = -lam * g
    out = np.multiply(h.T[:, None, :, None], s[None, :, None, :], order="C")
    out += s.T[:, None, :, None] * h[None, :, None, :]
    out[k, :, k, :] -= h @ s
    out[:, k, :, k] -= (s @ h).T
    # shift[i, j] = (L1)_nunu; [g, E] is g[a, i] on b = j and -g[j, b] on a = i
    shift = np.subtract.outer(np.diag(h), np.diag(h))
    out[k, :, k, :] += shift.T[:, None, :] * s[None, :, :]
    out[:, k, :, k] -= shift[:, None, :] * s.T[None, :, :]
    out *= resolvent
    # g has a zero diagonal, so the product vanishes on the planes by itself
    masked = resolvent == 0
    out[masked] = -np.einsum("ai,jb->baji", g, g)[masked]
    out[k, :, k, :] += g
    out[:, k, :, k] -= g.T
    return out.reshape(d * d, d * d)


def columns(decomp: Decomposition) -> tuple[np.ndarray, np.ndarray]:
    """Dense creation columns and destruction rows (c, d) at any order.

    Exact order: c_nu = vec(psi_i psi~_j)/(psi_ii psi~_jj) - e_nu and
    d_nu = vec(psi_j psi~_i)^T/(psi_jj psi~_ii) - e_nu^T, from the matched
    eigensystem of the phi-frame H (subdynamics._exact_factors), not from
    the decomposition's anchored planes, so the dense route checks their
    normalisation independently.
    Order 1: the superoperators [A, .] and [A', .], so column nu of c is
    vec([A, e_i e_j^T]) and d_nu . vec(X) = [A', X]_ij.
    Order 2: the order-1 columns and rows grown by one dyad-resolvent power,
    built by broadcasting from h1_f, A and A' in O(d^4) time and memory.
    A and A' are read from the planes at order 1 and from the off-plane
    factors (A, -A, A', -A') at order 2.
    """
    if decomp.order == "2":
        a, _, a_dual, _ = decomp.off_plane
        h, lam = decomp.h1_f, decomp.lam
        resolvent = dyad_resolvent(decomp.basis, decomp.eta)
        return (second_order_columns(h, a, lam, resolvent),
                second_order_columns(h.T, a_dual.T, lam, resolvent).T)
    if decomp.order == "1":
        a, _, a_dual, _ = decomp.planes
        return commutator_superop(a), commutator_superop(a_dual)
    psi, psi_tilde, _ = _exact_factors(
        np.diag(decomp.basis.f_values) + decomp.lam * decomp.h1_f)
    w = np.kron(psi_tilde.T, psi)
    c = w / np.diag(w)[None, :]
    np.fill_diagonal(c, 0.0)
    l = np.kron(psi.T, psi_tilde)
    d = l / np.diag(l)[:, None]
    np.fill_diagonal(d, 0.0)
    return c, d


def liouvillian(decomp: Decomposition) -> np.ndarray:
    """Full phi-frame Liouvillian diag(E0) + lam * L1."""
    return np.diag(free_energies(decomp.basis)) + decomp.lam * interaction(decomp)


def omega(decomp: Decomposition) -> np.ndarray:
    """Similarity operator Omega = sum_nu (P_nu + C_nu) = I + C."""
    return np.eye(decomp.basis.dim ** 2, dtype=np.complex128) + columns(decomp)[0]


def theta_matrix(decomp: Decomposition) -> np.ndarray:
    """Intermediate operator Theta = diag(E_nu), diagonal in the phi frame."""
    return np.diag(vec(decomp.energies))


def pairing(decomp: Decomposition) -> np.ndarray:
    """kappa_nu = 1 + d_nu . c_nu from the dense columns and rows."""
    c, d = columns(decomp)
    return 1.0 + np.einsum("ij,ji->i", d, c)


def total_projector(decomp: Decomposition, nu: tuple[int, int]) -> np.ndarray:
    """Pi_nu = (P + C)(P + DC)^-1(P + D), a rank-1 phi-frame matrix."""
    k = dyad_index(decomp.basis, nu)
    c, d = columns(decomp)
    kappa = 1.0 + d[k, :] @ c[:, k]
    if abs(kappa) < DEFAULT_TOL:
        raise ValueError(f"(P + DC) numerically singular on the P block of nu={nu}")
    right = c[:, k].copy()
    right[k] += 1.0
    left = d[k, :].copy()
    left[k] += 1.0
    return np.outer(right, left) / kappa


def projector_sum(decomp: Decomposition) -> np.ndarray:
    """sum_nu Pi_nu; the identity when the decomposition is complete."""
    c, d = columns(decomp)
    kappa = 1.0 + np.einsum("ij,ji->i", d, c)
    if np.min(np.abs(kappa)) < DEFAULT_TOL:
        raise ValueError("(P + DC) numerically singular on at least one P block")
    eye = np.eye(decomp.basis.dim ** 2, dtype=np.complex128)
    return ((eye + c) / kappa) @ (eye + d)


def creation_resolvent(basis: PhiBasis, v1: np.ndarray, lam: float, nu: tuple[int, int],
                       z: complex | None = None, eta: float = 0.0,
                       self_consistent: bool = False, max_iter: int = 60,
                       tol: float = 1e-13) -> tuple[np.ndarray, complex]:
    """Creation column from the resolvent linear solve on the Q block.

    Solves (z I - Q L Q) c = lam * Q L1 P at z = E0_nu (default) or at a
    caller-supplied z. With self_consistent=True, z is iterated to the fixed
    point z = E0_nu + lam V[nu,nu] + lam V[nu,:] c(z), which reproduces the
    exact kinetic eigenvalue. Returns (column, z_used).
    """
    k = dyad_index(basis, nu)
    n = basis.dim ** 2
    mask = np.arange(n) != k
    e0 = free_energies(basis)
    lq = (np.diag(e0) + lam * v1)[np.ix_(mask, mask)]
    rhs = lam * v1[mask, k]
    z_used = complex(e0[k]) if z is None else complex(z)

    def solve(zval: complex) -> np.ndarray:
        a = (zval + 1j * eta) * np.eye(n - 1, dtype=np.complex128) - lq
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise ResonanceError([(nu, nu)]) from exc

    cq = solve(z_used)
    if self_consistent:
        for _ in range(max_iter):
            z_next = complex(e0[k] + lam * v1[k, k] + lam * (v1[k, mask] @ cq))
            if abs(z_next - z_used) <= tol * max(1.0, abs(z_next)):
                z_used = z_next
                cq = solve(z_used)
                break
            z_used = z_next
            cq = solve(z_used)
        else:
            raise ValueError(f"collision-energy iteration did not converge for nu={nu}")
    out = np.zeros(n, dtype=np.complex128)
    out[mask] = cq
    return out, z_used


def stationary_residual(basis: PhiBasis, v1: np.ndarray, lam: float, nu: tuple[int, int],
                        column: np.ndarray, z: complex | None = None,
                        eta: float = 0.0) -> float:
    """Residual of the stationary creation equation for a candidate column.

    Checks (Q L Q - z - i eta) c + lam Q L1 P = 0 relative to the column and
    source scale.
    """
    k = dyad_index(basis, nu)
    n = basis.dim ** 2
    mask = np.arange(n) != k
    e0 = free_energies(basis)
    lq = (np.diag(e0) + lam * v1)[np.ix_(mask, mask)]
    z_used = complex(e0[k]) if z is None else complex(z)
    res = (lq - (z_used + 1j * eta) * np.eye(n - 1)) @ column[mask] + lam * v1[mask, k]
    scale = max(float(np.linalg.norm(lam * v1[mask, k])), 1e-30)
    return float(np.linalg.norm(res)) / scale


def propagator(matrix, t: float) -> np.ndarray:
    """Dense e^{-i M t}.

    Hermitian M goes through one eigh call; the general case falls back to
    scipy's scaling-and-squaring expm.
    """
    m = as_complex_matrix(matrix)
    if is_hermitian(m):
        values, vectors = np.linalg.eigh(m)
        return (vectors * np.exp(-1j * values * t)) @ vectors.conj().T
    return scipy.linalg.expm(-1j * t * m)


def evolve_exact(hamiltonian, rho0, t: float) -> np.ndarray:
    """Brute-force commutator evolution rho(t) = unvec(e^{-i L t} vec rho0).

    Builds the full d^2 x d^2 Liouvillian of the supplied Hamiltonian and
    exponentiates it, independent of the projected machinery.
    """
    h = as_complex_matrix(hamiltonian, "hamiltonian")
    rho = as_complex_matrix(rho0, "rho0")
    l_full = commutator_superop(h)
    return unvec(propagator(l_full, t) @ vec(rho), h.shape[0])


def hamiltonian_spectral_projectors(decomp: Decomposition) -> list[np.ndarray]:
    """A_i = |psi_i><psi~_i| from a direct eigendecomposition of the phi-frame H.

    Eigenvectors are assigned to free levels by dominant component, not by
    the engine's max-overlap matching. The Liouville eigenprojector for the
    dyad (i, j) then acts as X -> A_i X A_j. numpy's eig and inv give the
    right and left eigenvectors, with none of linalg.eig's block splitting,
    sorting or hermiticity detection.
    """
    h = np.diag(decomp.basis.f_values).astype(complex) + decomp.lam * decomp.h1_f
    right = np.linalg.eig(h)[1]
    left = np.linalg.inv(right)
    assign = {}
    for col in range(h.shape[0]):
        k = int(np.argmax(np.abs(right[:, col])))
        assert k not in assign, "branch assignment ambiguous at this coupling"
        assign[k] = col
    return [np.outer(right[:, assign[i]], left[assign[i], :]) for i in range(h.shape[0])]


def _path_product(c1: np.ndarray, d: int) -> np.ndarray:
    """[mu, nu] -> c1[(a, j), nu] c1[(i, b), nu] for mu = (a, b), nu = (i, j).

    The product of nu's first-order amplitudes on the two intermediate dyads
    between nu and mu; zero on the planes b = j and a = i, where c1 vanishes
    on nu itself.
    """
    t = c1.reshape(d, d, d, d)  # [b, a, j, i]
    first = np.einsum("jaji->aji", t)
    second = np.einsum("biji->bji", t)
    return np.einsum("aji,bji->baji", first, second).reshape(d * d, d * d)


def dense_perturbative(h0, h1, lam, eta, order, tol=DEGENERACY_TOL):
    """(c, d, energies, kappa) of the dense stationary-resolvent series.

    Built from the d^2 x d^2 interaction Liouvillian L1 = [h1_f, .], with an
    O(d^6) L1 @ c product at order 2: the Rayleigh-Schroedinger column
    c2 = c + lam (L1 c - c diag L1) R, whose diag L1 term renormalizes
    each column by its own first-order energy shift. Raises
    ResonanceError, listing every coupled degenerate dyad pair, where the
    series divides by zero. On the
    uncoupled degenerate dyad pairs at eta = 0, order 2 takes the value of
    the removable singularity of the two paths through the planes.
    """
    basis = liouville_basis(h0)
    f = basis.f_vectors
    v1 = commutator_superop(f.conj().T @ np.asarray(h1, dtype=complex) @ f)
    e0 = free_energies(basis)
    gap = np.abs(e0[None, :] - e0[:, None])
    degenerate = gap <= tol * max(1.0, float(np.max(np.abs(e0))))
    coupling = np.abs(lam * v1) > DEFAULT_TOL * max(1.0, float(np.linalg.norm(lam * v1)))
    resonant = degenerate & coupling & ~np.eye(e0.shape[0], dtype=bool)
    if eta == 0.0 and resonant.any():
        d = basis.dim
        rows, cols = np.nonzero(resonant)
        raise ResonanceError([((r % d, r // d), (c % d, c // d))
                              for r, c in zip(rows.tolist(), cols.tolist())])
    # delta[mu, nu] = E0_nu - E0_mu + i eta
    delta = e0[None, :] - e0[:, None] + 1j * eta
    blocked = degenerate if eta == 0.0 else np.eye(e0.shape[0], dtype=bool)
    inv = np.where(blocked, 0.0, 1.0 / np.where(blocked, 1.0, delta))
    c = lam * v1 * inv
    d = lam * v1 * inv.T
    if order == "2":
        shift = np.diag(v1)
        c2 = c + lam * (v1 @ c - c * shift[None, :]) * inv
        d2 = d + lam * (d @ v1 - shift[:, None] * d) * inv.T
        if eta == 0.0:
            # a degenerate dyad pair mu = (a, b) off the planes of nu = (i, j)
            # takes the value of the removable singularity of its two paths
            n = basis.dim
            c2 = np.where(degenerate, _path_product(c, n), c2)
            d2 = np.where(degenerate, _path_product(d.T, n).T, d2)
        c, d = c2, d2
    energies = e0 + lam * np.diag(v1) + lam * np.einsum("ij,ji->i", v1, c)
    kappa = 1.0 + np.einsum("ij,ji->i", d, c)
    return c, d, energies, kappa


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix (Hermitian, positive, unit trace)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def sqrtm_psd(matrix) -> np.ndarray:
    """Hermitian PSD square root via eigh.

    Eigenvalues in [-DEFAULT_TOL * scale, 0) are clipped to zero; anything
    more negative raises NotPositiveSemidefiniteError.
    """
    m = as_complex_matrix(matrix)
    if not is_hermitian(m):
        raise NonHermitianError("sqrtm_psd expects a Hermitian matrix")
    values, vectors = np.linalg.eigh(m)
    floor = -DEFAULT_TOL * norm_scale(m)
    if values.min(initial=0.0) < floor:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {values.min():.3e} below PSD tolerance {floor:.3e}")
    clipped = np.clip(values, 0.0, None)
    return (vectors * np.sqrt(clipped)) @ vectors.conj().T


def fidelity(rho_a, rho_b) -> float:
    """Density-matrix fidelity Tr sqrt(sqrt(a) b sqrt(a))."""
    a = as_complex_matrix(rho_a, "rho_a")
    b = as_complex_matrix(rho_b, "rho_b")
    root = sqrtm_psd(a)
    inner = root @ b @ root
    return float(np.trace(sqrtm_psd(inner)).real)


def dense_total_space_evidence(decomp: Decomposition, hamiltonian, rho0,
                               times) -> dict[str, float]:
    """Total-space drifts and fidelity from d x d density matrices.

    Evolves rho0 itself to each grid point by the sandwich
    e^{-iHt} rho0 e^{+iHt} of two scipy.linalg.expm exponentials, which needs
    no eigendecomposition of H, reads populations and coherence moduli from
    F^dagger rho(t) F and takes the fidelity against the free-evolved state
    with two PSD square roots per step: O(steps d^3).
    """
    basis = decomp.basis
    f = basis.f_vectors
    h = as_complex_matrix(hamiltonian, "hamiltonian")
    rho = as_complex_matrix(rho0, "rho0")
    sigma0 = f.conj().T @ rho @ f
    pop_drift = 0.0
    coh_drift = 0.0
    fid_min = 1.0
    hermitian = is_hermitian(h)
    diag_idx = np.arange(basis.dim)
    for t in np.asarray(times, dtype=np.float64):
        rho_t = scipy.linalg.expm(-1j * t * h) @ rho @ scipy.linalg.expm(1j * t * h)
        sigma = f.conj().T @ rho_t @ f
        pop_drift = max(pop_drift, float(np.max(np.abs(
            sigma[diag_idx, diag_idx] - sigma0[diag_idx, diag_idx]))))
        gap = np.abs(sigma) - np.abs(sigma0)
        np.fill_diagonal(gap, 0.0)
        coh_drift = max(coh_drift, float(np.max(np.abs(gap))))
        if hermitian:
            phases = np.exp(-1j * basis.f_values * t)
            sigma_free = (phases[:, None] * sigma0) * phases.conj()[None, :]
            rho_free = f @ sigma_free @ f.conj().T
            fid_min = min(fid_min, fidelity(rho_free, rho_t))
    return {
        "population_drift": pop_drift,
        "coherence_modulus_drift": coh_drift,
        "fidelity_vs_free_min": fid_min if hermitian else float("nan"),
    }

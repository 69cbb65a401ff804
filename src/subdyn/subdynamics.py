"""Projected-subspace decomposition of commutator dynamics.

The free Hamiltonian's eigen-dyads |f_i><f_j| span a complete set of rank-1
Liouville projectors P_nu, nu = (i, j). For each nu the theory has a
creation operator C_nu = Q_nu C_nu P_nu (how the exact eigenvector leaks out
of the dyad), a destruction operator D_nu = P_nu D_nu Q_nu (its left
counterpart), the kinetic eigenvalue E_nu, and the total projector
Pi_nu = (P + C)(P + DC)^-1(P + D). Collecting the nu columns gives the
similarity Omega = I + C with L Omega = Omega Theta, Theta = diag(E_nu).
A state is projected once into its kinetic coefficients c_nu = P_nu Pi_nu
rho (project_density, a plain vector over the dyads); each coefficient then
only picks up the phase e^{-i E_nu t}.

All quantities here are expressed in the frame of the free eigenbasis
(the "phi frame"), where L0 is diagonal; states convert via rho_f = F^dag
rho F. Three construction orders are supported: "exact" (from the full
eigendecomposition of H), and the stationary-resolvent perturbation series
truncated at first ("1") or second ("2") order in lam. Each order keeps one
representation and computes what it reports from it: d x d eigen data at
the exact order, d x d first-order factors at order 1, the dense series at
order 2. The dense d^2 x d^2 Liouville routes (L, Omega, Pi_nu, the
exact-order columns) are reference oracles for small-d checks and live with
the tests, in tests/oracle.py.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import scipy.linalg
import scipy.optimize

from .linalg import (
    DEFAULT_TOL,
    DEGENERACY_TOL,
    NonHermitianError,
    as_complex_matrix,
    eig,
    is_hermitian,
    unvec,
    vec,
)

ORDERS = ("exact", "1", "2")


class ResonanceError(ValueError):
    """Degenerate free eigenvalues coupled by the interaction at eta = 0.

    pairs lists the coupled dyads as ((i, j), (k, l)) tuples of free-basis
    indices.
    """

    def __init__(self, pairs: list[tuple[tuple[int, int], tuple[int, int]]]):
        self.pairs = pairs
        shown = ", ".join(f"{a}<->{b}" for a, b in pairs[:4])
        more = "" if len(pairs) <= 4 else f" (+{len(pairs) - 4} more)"
        super().__init__(
            f"resonant nu pairs with coupled degenerate free eigenvalues: {shown}{more}; "
            "set eta > 0 to regularize")


@dataclasses.dataclass(frozen=True)
class PhiBasis:
    """Free eigenframe: H0 eigenpairs and the induced Liouville dyad grid.

    f_values are sorted ascending. The dyad nu = (i, j), |f_i><f_j|, sits at
    Liouville index r = i + dim * j (column stacking), so r % dim and
    r // dim recover (i, j); e0[r] = eps_i - eps_j.
    """

    f_values: np.ndarray
    f_vectors: np.ndarray
    e0: np.ndarray

    @property
    def dim(self) -> int:
        return self.f_values.shape[0]

    def to_frame(self, rho: np.ndarray) -> np.ndarray:
        """Density matrix -> Liouville vector in the free eigenframe."""
        f = self.f_vectors
        return vec(f.conj().T @ as_complex_matrix(rho, "rho") @ f)

    def from_frame(self, rho_vec: np.ndarray) -> np.ndarray:
        """Liouville vector in the free eigenframe -> density matrix."""
        f = self.f_vectors
        return f @ unvec(rho_vec, self.dim) @ f.conj().T


def liouville_basis(h0) -> PhiBasis:
    """Diagonalize a Hermitian free Hamiltonian into the dyad frame."""
    h = as_complex_matrix(h0, "h0")
    if not is_hermitian(h):
        raise NonHermitianError("free Hamiltonian must be Hermitian")
    system = eig(h, hermitian=True)
    eps = system.values.real
    e0 = vec(np.subtract.outer(eps, eps)).astype(np.complex128)
    return PhiBasis(f_values=eps, f_vectors=system.right_vectors, e0=e0)


@dataclasses.dataclass(frozen=True)
class Decomposition:
    """Complete projected-subspace decomposition at one construction order.

    energies holds the kinetic eigenvalues E_nu; all entries are phi-frame
    quantities. The exact order stores the matched eigensystem of H: psi
    (right eigenvectors as columns), psi_tilde (left eigenvectors as rows,
    psi_tilde @ psi = I) and z (eigenvalues), and computes everything from
    these d x d factors. Order 1 stores first_order = (A, A'), the
    resolvent-weighted interactions A = lam h1_f * r and A' = lam h1_f * r^T
    (elementwise products) with r[k, i] = 1/(eps_i - eps_k + i eta), zero on
    k = i and, at eta = 0, on degenerate pairs: its creation columns are the
    superoperator [A, .] and its destruction rows [A', .] (the Rayleigh-
    Schroedinger eigenvector corrections), and everything it reports is a
    d x d expression in A and A'. Order 2 stores its dense d^2 x d^2
    creation columns and destruction rows as series = (c, d); it is the one
    order that holds Liouville-sized arrays. The pairings kappa, which every
    projection divides by, are computed from the stored factors on first
    use and kept with the instance.
    """

    basis: PhiBasis
    order: str
    lam: float
    eta: float
    h1_f: np.ndarray
    energies: np.ndarray
    psi: np.ndarray | None = None
    psi_tilde: np.ndarray | None = None
    z: np.ndarray | None = None
    first_order: tuple[np.ndarray, np.ndarray] | None = None
    series: tuple[np.ndarray, np.ndarray] | None = None

    @functools.cached_property
    def kappa(self) -> np.ndarray:
        """kappa_nu = 1 + d_nu . c_nu, the (P + DC) scale on each P block.

        Exact order: kappa_nu = 1/(a_i a_j) with a_i = psi_ii psi~_ii.
        Order 1: kappa_nu = 1 + (A' A)_ii + (A A')_jj.
        The cached array is read-only, as every caller shares it;
        dataclasses.replace builds a new instance with a fresh kappa.
        """
        if self.series is not None:
            c, d = self.series
            kappa = 1.0 + np.einsum("ij,ji->i", d, c)
        elif self.first_order is not None:
            a, a_dual = self.first_order
            kappa = vec(1.0 + np.einsum("ia,ai->i", a_dual, a)[:, None]
                        + np.einsum("jb,bj->j", a, a_dual)[None, :])
        else:
            a = np.diag(self.psi) * np.diag(self.psi_tilde)
            kappa = vec(1.0 / np.outer(a, a))
        kappa.flags.writeable = False
        return kappa


def _resonant_pairs(basis: PhiBasis, mask: np.ndarray) -> list[tuple[tuple, tuple]]:
    """Dyad pairs (mu, nu) that L1 = [h1_f, .] couples through a resonant h1_f[x, y].

    h1_f[x, y] couples mu = (x, k) to nu = (y, k) and mu = (k, y) to
    nu = (k, x) for every k; pairs are listed in Liouville (row, column) order.
    """
    d = basis.dim
    x, y = (v[:, None] for v in np.nonzero(mask))
    k = np.arange(d)[None, :]
    rows = np.concatenate([(x + d * k).ravel(), (k + d * y).ravel()])
    cols = np.concatenate([(y + d * k).ravel(), (k + d * x).ravel()])
    order = np.lexsort((cols, rows))
    return [((r % d, r // d), (c % d, c // d))
            for r, c in zip(rows[order].tolist(), cols[order].tolist())]


def _free_resolvent(basis: PhiBasis, h1_f: np.ndarray, lam: float, eta: float) -> np.ndarray:
    """r[k, i] = 1/(eps_i - eps_k + i eta), the resolvent of one dyad index.

    r is zero on k = i and, at eta = 0, on every degenerate pair; h1_f
    coupling a degenerate pair at eta = 0 raises ResonanceError. The coupling
    threshold is relative to ||lam L1||_F = |lam| sqrt(2d|h1_f|^2 - 2|tr h1_f|^2).
    """
    eps = basis.f_values
    d = eps.shape[0]
    gap = eps[None, :] - eps[:, None]
    if eta == 0.0:
        blocked = np.abs(gap) <= DEGENERACY_TOL * max(1.0, float(np.max(np.abs(basis.e0))))
        norm2 = 2 * d * float(np.linalg.norm(h1_f)) ** 2 - 2 * abs(np.trace(h1_f)) ** 2
        scale = max(1.0, abs(lam) * math.sqrt(max(norm2, 0.0)))
        resonant = blocked & (np.abs(lam * h1_f) > DEFAULT_TOL * scale)
        np.fill_diagonal(resonant, False)
        if resonant.any():
            raise ResonanceError(_resonant_pairs(basis, resonant))
    else:
        blocked = np.eye(d, dtype=bool)
    return np.where(blocked, 0.0, 1.0 / np.where(blocked, 1.0, gap + 1j * eta))


def _dyad_resolvent(basis: PhiBasis, eta: float) -> np.ndarray:
    """1/(E0_nu - E0_mu + i eta) as a [b, a, j, i] tensor, mu = (a, b), nu = (i, j).

    Zero on mu = nu and, at eta = 0, on every degenerate pair of dyads; real
    at eta = 0.
    """
    d = basis.dim
    e0 = basis.e0.real.reshape(d, d)  # e0[b, a] = eps_a - eps_b
    gap = e0[None, None, :, :] - e0[:, :, None, None]
    if eta == 0.0:
        blocked = np.abs(gap) <= DEGENERACY_TOL * max(1.0, float(np.max(np.abs(basis.e0))))
        inv = gap
    else:
        blocked = np.eye(d * d, dtype=bool).reshape(gap.shape)
        inv = gap + 1j * eta
    inv[blocked] = 1.0
    np.divide(1.0, inv, out=inv)
    inv[blocked] = 0.0
    return inv


def _second_order_columns(h: np.ndarray, g: np.ndarray, lam: float,
                          resolvent: np.ndarray) -> np.ndarray:
    """Order-2 creation columns grown from the first-order superoperator [g, .].

    Column nu = (i, j) is [g, E] + lam * resolvent_nu * [h, [g, E]] with
    E = e_i e_j^T, returned as a d^2 x d^2 matrix. Entry mu = (a, b) of the
    double commutator is delta_bj (h g)[a, i] + delta_ai (g h)[j, b]
    - h[a, i] g[j, b] - g[a, i] h[j, b]; the tensor axes are [b, a, j, i].
    Rows with g = A' are the transposed columns of (h^T, A'^T).
    """
    d = h.shape[0]
    k = np.arange(d)
    s = -lam * g
    out = np.multiply(h.T[:, None, :, None], s[None, :, None, :], order="C")
    out += s.T[:, None, :, None] * h[None, :, None, :]
    out[k, :, k, :] -= h @ s
    out[:, k, :, k] -= (s @ h).T
    out *= resolvent
    out[k, :, k, :] += g
    out[:, k, :, k] -= g.T
    return out.reshape(d * d, d * d)


def _phi_hamiltonian(basis: PhiBasis, lam: float, h1_f: np.ndarray) -> np.ndarray:
    """H = diag(f_values) + lam * h1_f in the phi frame."""
    return np.diag(basis.f_values).astype(np.complex128) + lam * h1_f


def _exact_factors(h: np.ndarray):
    """Matched eigensystem (psi, psi_tilde, z) of the phi-frame Hamiltonian.

    Eigenvectors are matched to the free basis by maximum-overlap assignment,
    so each nu tracks the branch continuously connected to its dyad.
    """
    d = h.shape[0]
    system = eig(h)
    overlap = np.abs(system.right_vectors)
    rows, cols = scipy.optimize.linear_sum_assignment(-overlap)
    perm = np.empty(d, dtype=int)
    perm[rows] = cols
    psi = system.right_vectors[:, perm]
    psi_tilde = system.left_vectors[perm, :]
    z = system.values[perm]

    anchors = np.abs(np.diag(psi))
    if np.min(anchors) < 10 * DEFAULT_TOL:
        raise ValueError(
            "eigenvector branch lost its free anchor (interaction too strong "
            f"for dyad tracking; smallest overlap {np.min(anchors):.3e})")
    return psi, psi_tilde, z


def normalize_order(order) -> str:
    """Accept 'exact' / 1 / '1' / 2 / '2' and return the canonical string."""
    text = str(order)
    if text not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    return text


def decompose(h0, h1, lam: float = 1.0, order="exact", eta: float = 0.0) -> Decomposition:
    """Build the full projected-subspace decomposition of H = H0 + lam H1."""
    order = normalize_order(order)
    basis = liouville_basis(h0)
    f = basis.f_vectors
    h1_f = f.conj().T @ as_complex_matrix(h1, "h1") @ f
    if order == "exact":
        psi, psi_tilde, z = _exact_factors(_phi_hamiltonian(basis, lam, h1_f))
        energies = vec(np.subtract.outer(z, z))
        return Decomposition(basis=basis, order=order, lam=lam, eta=eta, h1_f=h1_f,
                             energies=energies, psi=psi, psi_tilde=psi_tilde, z=z)
    r = _free_resolvent(basis, h1_f, lam, eta)
    a, a_dual = lam * h1_f * r, lam * h1_f * r.T
    level = basis.f_values + lam * np.diag(h1_f)
    if order == "1":
        # E_nu = E0_nu + lam L1[nu, nu] + lam (L1 c_nu)_nu = z_i - w_j
        z = level + lam * np.einsum("ia,ai->i", h1_f, a)
        w = level - lam * np.einsum("jb,bj->j", a, h1_f)
        return Decomposition(basis=basis, order=order, lam=lam, eta=eta, h1_f=h1_f,
                             energies=vec(np.subtract.outer(z, w)), first_order=(a, a_dual))
    d = basis.dim
    resolvent = _dyad_resolvent(basis, eta)
    c_cols = _second_order_columns(h1_f, a, lam, resolvent)
    d_rows = _second_order_columns(h1_f.T, a_dual.T, lam, resolvent).T
    # (L1 c_nu)_nu reads the entries of c_nu on the dyads (a, j) and (i, b)
    cols = c_cols.reshape(d, d, d, d)
    k = np.arange(d)
    shift = (np.einsum("ia,jai->ij", h1_f, cols[k, :, k, :])
             - np.einsum("bj,ibj->ij", h1_f, cols[:, k, :, k]))
    energies = vec(np.subtract.outer(level, level) + lam * shift)
    return Decomposition(basis=basis, order=order, lam=lam, eta=eta, h1_f=h1_f,
                         energies=energies, series=(c_cols, d_rows))


def decompose_model(ops, order="exact", eta: float = 0.0) -> Decomposition:
    """decompose() of a ModelOperators at its own scale ModelSpec.lam."""
    return decompose(ops.h0, ops.h1, lam=ops.spec.lam, order=order, eta=eta)


def _exact_eigen_data(decomp: Decomposition, check: str):
    """(psi, psi_tilde, z) of an exact-order decomposition.

    The verify residuals are d x d expressions in this eigen data; a
    perturbative order has none, so asking them of one raises ValueError.
    """
    if decomp.order != "exact":
        raise ValueError(f"{check} reads the exact order's eigen data; "
                         f"got a decomposition at order {decomp.order}")
    return decomp.psi, decomp.psi_tilde, decomp.z


def similarity_residual(decomp: Decomposition) -> float:
    """|| L Omega - Omega Theta || / || L || of an exact-order decomposition.

    From d x d data: column nu of L Omega - Omega Theta is
    vec(R_i psi~_j - psi_i S_j)/(psi_ii psi~_jj) with the eigen-residuals
    R = H psi - psi Z and S = psi~ H - Z psi~, and
    ||L||_F = sqrt(2d) ||H - (tr H/d) I||_F.
    """
    psi, psi_tilde, z = _exact_eigen_data(decomp, "similarity_residual")
    h = _phi_hamiltonian(decomp.basis, decomp.lam, decomp.h1_f)
    r = h @ psi - psi * z[None, :]
    s = psi_tilde @ h - z[:, None] * psi_tilde
    # Summed over nu with weights u_i v_j = 1/|psi_ii psi~_jj|^2:
    # ||R_i psi~_j - psi_i S_j||^2 = |R_i|^2 |psi~_j|^2 + |psi_i|^2 |S_j|^2
    #                                - 2 Re[(R_i^H psi_i)(psi~_j^* . S_j)]
    u = 1.0 / np.abs(np.diag(psi)) ** 2
    v = 1.0 / np.abs(np.diag(psi_tilde)) ** 2

    def dots(weights, a, b, axis):
        return weights @ np.sum(a.conj() * b, axis=axis)

    total = (dots(u, r, r, 0) * dots(v, psi_tilde, psi_tilde, 1)
             + dots(u, psi, psi, 0) * dots(v, s, s, 1)
             - 2.0 * dots(u, r, psi, 0) * dots(v, psi_tilde, s, 1)).real
    d = h.shape[0]
    centred = h - (np.trace(h) / d) * np.eye(d)
    l_norm = math.sqrt(2 * d) * float(np.linalg.norm(centred))
    return math.sqrt(max(float(total), 0.0)) / max(l_norm, 1.0)


def completeness_residual(decomp: Decomposition) -> float:
    """|| sum_nu Pi_nu - I ||_F of an exact-order decomposition.

    sum_nu Pi_nu = kron(M^T, M) with M = psi psi~. Its distance from the
    identity is expanded in E = M - I, so no O(d^2) terms cancel:
    ||kron(E^T, I) + kron(I, E) + kron(E^T, E)||^2
      = 2d|E|^2 + |E|^4 + 2|tr E|^2 + 4|E|^2 Re tr E.
    """
    psi, psi_tilde, _ = _exact_eigen_data(decomp, "completeness_residual")
    err = psi @ psi_tilde - np.eye(decomp.basis.dim)
    e2 = float(np.linalg.norm(err)) ** 2
    tr = complex(np.trace(err))
    total = 2 * decomp.basis.dim * e2 + e2 ** 2 + 2 * abs(tr) ** 2 + 4 * e2 * tr.real
    return math.sqrt(max(total, 0.0))


def block_residual(decomp: Decomposition) -> float:
    """max_nu |P_nu C_nu P_nu|, |P_nu D_nu P_nu| of an exact-order decomposition.

    With P_nu = e_k e_k^T, Q_nu = I - P_nu, C_nu = c_k e_k^T and
    D_nu = e_k d_k^T, P + Q = I and PQ = 0 hold identically, while
    C - QCP = c_kk P and D - PDQ = d_kk P. At the exact order c_kk and d_kk
    are the weights of the normalized eigen-dyads on their own dyads minus 1,
    (psi_ii psi~_jj)/(psi_ii psi~_jj) - 1 and its transpose over every nu:
    zero to rounding while each anchor psi_ii psi~_jj is finite and nonzero.
    """
    psi, psi_tilde, _ = _exact_eigen_data(decomp, "block_residual")
    anchors = np.outer(np.diag(psi), np.diag(psi_tilde))
    return float(np.max(np.abs(anchors / anchors - 1.0)))


def project_density(decomp: Decomposition, rho: np.ndarray) -> np.ndarray:
    """Kinetic coefficients c_nu = weight of P_nu Pi_nu rho on each dyad.

    Returned as a Liouville-index vector; each coefficient evolves alone,
    c_nu(t) = e^{-i E_nu t} c_nu(0).

    Exact order: c_nu = (psi~ rho_f psi)_ij psi_ii psi~_jj.
    Order 1: c_nu = (rho_f + [A', rho_f])_ij / kappa_nu.
    Order 2: c_nu = (rho_f + d @ rho_f)_nu / kappa_nu with d the series rows.
    """
    rho_f = decomp.basis.to_frame(rho)
    kappa = decomp.kappa
    if np.min(np.abs(kappa)) < DEFAULT_TOL:
        raise ValueError("(P + DC) numerically singular on at least one P block")
    if decomp.series is not None:
        return (rho_f + decomp.series[1] @ rho_f) / kappa
    if decomp.first_order is not None:
        a_dual = decomp.first_order[1]
        x = unvec(rho_f, decomp.basis.dim)
        return vec(x + a_dual @ x - x @ a_dual) / kappa
    psi, psi_tilde = decomp.psi, decomp.psi_tilde
    core = psi_tilde @ unvec(rho_f, decomp.basis.dim) @ psi
    return vec(core * np.outer(np.diag(psi), np.diag(psi_tilde)))


def _hilbert_flow(h: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    """e^{-iHt} rho e^{+iHt} from two d x d exponentials.

    The right factor is the inverse of the left one, which is not its
    adjoint when H is not Hermitian.
    """
    return scipy.linalg.expm(-1j * t * h) @ rho @ scipy.linalg.expm(1j * t * h)


def kinetic_consistency_residual(decomp: Decomposition, hamiltonian, rho0,
                                 t: float) -> float:
    """Operator-norm gap between projected exact evolution and kinetic phases.

    Compares P_nu Pi_nu e^{-iLt} rho0 (exact route, the Hilbert-space flow
    e^{-iHt} rho0 e^{+iHt} through d x d exponentials, independent of the
    eigendecomposition behind the projection) against
    e^{-i Theta t} P_nu Pi_nu rho0 (kinetic route), reconstructed over all nu.
    """
    h = as_complex_matrix(hamiltonian, "hamiltonian")
    rho = as_complex_matrix(rho0, "rho0")
    lhs = project_density(decomp, _hilbert_flow(h, rho, t))
    rhs = np.exp(-1j * decomp.energies * t) * project_density(decomp, rho)
    gap = lhs - rhs
    return float(np.linalg.norm(decomp.basis.from_frame(gap), ord=2))

"""Projected-subspace decomposition of commutator dynamics.

The free Hamiltonian's eigen-dyads |f_i><f_j| span a complete set of rank-1
Liouville projectors P_nu, nu = (i, j). For each nu the engine builds a
creation operator C_nu = Q_nu C_nu P_nu (how the exact eigenvector leaks out
of the dyad), a destruction operator D_nu = P_nu D_nu Q_nu (its left
counterpart), the kinetic eigenvalue E_nu, and the total projector Pi_nu.
Collecting the nu columns gives the similarity Omega = I + C with
L Omega = Omega Theta, Theta = diag(E_nu).

All superoperators here are expressed in the frame of the free eigenbasis
(the "phi frame"), where L0 is diagonal; states convert via rho_f = F^dag
rho F. Three construction orders are supported: "exact" (from the full
eigendecomposition of H), and the stationary-resolvent perturbation series
truncated at first ("1") or second ("2") order in lam.
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
    DefectiveMatrixError,
    NonHermitianError,
    as_complex_matrix,
    commutator_superop,
    eig,
    expm_action,
    is_hermitian,
    norm_scale,
    unvec,
    vec,
)

ORDERS = ("exact", "1", "2")


class ResonanceError(ValueError):
    """Degenerate free eigenvalues coupled by the interaction at eta = 0."""

    def __init__(self, pairs: list[tuple["NuIndex", "NuIndex"]]):
        self.pairs = pairs
        shown = ", ".join(f"{a.as_tuple()}<->{b.as_tuple()}" for a, b in pairs[:4])
        more = "" if len(pairs) <= 4 else f" (+{len(pairs) - 4} more)"
        super().__init__(
            f"resonant nu pairs with coupled degenerate free eigenvalues: {shown}{more}; "
            "set eta > 0 to regularize")


@dataclasses.dataclass(frozen=True)
class NuIndex:
    """Dyad label nu = (i, j) for |f_i><f_j|, indices into the sorted basis."""

    row: int
    col: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.row, self.col)

    @property
    def is_population(self) -> bool:
        return self.row == self.col


@dataclasses.dataclass(frozen=True)
class PhiBasis:
    """Free eigenframe: H0 eigenpairs and the induced Liouville dyad grid.

    f_values are sorted ascending; the dyad nu = (i, j) sits at Liouville
    index i + dim * j (column stacking), listed in nu_indices.
    """

    f_values: np.ndarray
    f_vectors: np.ndarray
    e0: np.ndarray
    nu_indices: tuple[NuIndex, ...]

    @property
    def dim(self) -> int:
        return self.f_values.shape[0]

    @property
    def dim2(self) -> int:
        return self.e0.shape[0]

    def liouville_index(self, nu: NuIndex) -> int:
        return nu.row + self.dim * nu.col

    def to_frame(self, rho: np.ndarray) -> np.ndarray:
        """Density matrix -> Liouville vector in the free eigenframe."""
        f = self.f_vectors
        return vec(f.conj().T @ as_complex_matrix(rho, "rho") @ f)

    def from_frame(self, rho_vec: np.ndarray) -> np.ndarray:
        """Liouville vector in the free eigenframe -> density matrix."""
        f = self.f_vectors
        return f @ unvec(rho_vec, self.dim) @ f.conj().T


def liouville_basis(h0, tol: float = DEFAULT_TOL) -> PhiBasis:
    """Diagonalize a Hermitian free Hamiltonian into the dyad frame."""
    h = as_complex_matrix(h0, "h0")
    if not is_hermitian(h, tol):
        raise NonHermitianError("free Hamiltonian must be Hermitian")
    system = eig(h, hermitian=True, tol=tol)
    eps = system.values.real
    d = eps.shape[0]
    e0 = vec(np.subtract.outer(eps, eps)).astype(np.complex128)
    nus = tuple(NuIndex(i, j) for j in range(d) for i in range(d))
    return PhiBasis(f_values=eps, f_vectors=system.right_vectors, e0=e0, nu_indices=nus)


@dataclasses.dataclass(frozen=True)
class Decomposition:
    """Complete projected-subspace decomposition at one construction order.

    energies holds the kinetic eigenvalues E_nu; all entries are phi-frame
    quantities. The exact order stores the matched eigensystem of H: psi
    (right eigenvectors as columns), psi_tilde (left eigenvectors as rows,
    psi_tilde @ psi = I) and z (eigenvalues), and computes everything from
    these d x d factors. The perturbative orders store the dense creation
    columns and destruction rows as series = (c_cols, d_rows). The d^2 x d^2
    matrices c_cols, d_rows and v1 are built on first request and cached;
    they are meant for small-d checks.
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
    series: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim2(self) -> int:
        return self.basis.dim2

    @functools.cached_property
    def v1(self) -> np.ndarray:
        """Interaction Liouvillian L1 = [h1_f, .] as a dense matrix."""
        return commutator_superop(self.h1_f)

    @functools.cached_property
    def c_cols(self) -> np.ndarray:
        """Creation columns: c_nu = vec(psi_i psi~_j)/(psi_ii psi~_jj) - e_nu."""
        if self.series is not None:
            return self.series[0]
        w = np.kron(self.psi_tilde.T, self.psi)
        c = w / np.diag(w)[None, :]
        np.fill_diagonal(c, 0.0)
        return c

    @functools.cached_property
    def d_rows(self) -> np.ndarray:
        """Destruction rows: d_nu = vec(psi_j psi~_i)^T/(psi_jj psi~_ii) - e_nu^T."""
        if self.series is not None:
            return self.series[1]
        l = np.kron(self.psi.T, self.psi_tilde)
        d = l / np.diag(l)[:, None]
        np.fill_diagonal(d, 0.0)
        return d

    def liouvillian(self) -> np.ndarray:
        """Full phi-frame Liouvillian diag(E0) + lam * L1."""
        return np.diag(self.basis.e0) + self.lam * self.v1

    def omega(self) -> np.ndarray:
        """Similarity operator Omega = sum_nu (P_nu + C_nu) = I + C."""
        return np.eye(self.dim2, dtype=np.complex128) + self.c_cols

    def theta_matrix(self) -> np.ndarray:
        """Intermediate operator, diagonal in the phi frame."""
        return np.diag(self.energies)

    def pairing(self) -> np.ndarray:
        """kappa_nu = 1 + d_nu . c_nu, the (P + DC) scale on each P block.

        Exact order: kappa_nu = 1/(a_i a_j) with a_i = psi_ii psi~_ii.
        """
        if self.series is None:
            a = np.diag(self.psi) * np.diag(self.psi_tilde)
            return vec(1.0 / np.outer(a, a))
        return 1.0 + np.einsum("ij,ji->i", self.d_rows, self.c_cols)

    def total_projector(self, nu: NuIndex) -> np.ndarray:
        """Pi_nu = (P + C)(P + DC)^-1(P + D), a rank-1 phi-frame matrix."""
        k = self.basis.liouville_index(nu)
        kappa = self.pairing()[k]
        if abs(kappa) < DEFAULT_TOL:
            raise ValueError(f"(P + DC) numerically singular on the P block of nu={nu.as_tuple()}")
        right = np.zeros(self.dim2, dtype=np.complex128)
        right[k] = 1.0
        right += self.c_cols[:, k]
        left = np.zeros(self.dim2, dtype=np.complex128)
        left[k] = 1.0
        left += self.d_rows[k, :]
        return np.outer(right, left) / kappa

    def projector_sum(self) -> np.ndarray:
        """sum_nu Pi_nu; the identity when the decomposition is complete."""
        kappa = self.pairing()
        if np.min(np.abs(kappa)) < DEFAULT_TOL:
            raise ValueError("(P + DC) numerically singular on at least one P block")
        right = np.eye(self.dim2, dtype=np.complex128) + self.c_cols
        left = np.eye(self.dim2, dtype=np.complex128) + self.d_rows
        return (right / kappa) @ left


def _degeneracy_masks(e0: np.ndarray, v1: np.ndarray, lam: float, tol: float):
    """Boolean masks for degenerate pairs and for coupled (resonant) ones."""
    scale = max(1.0, float(np.max(np.abs(e0))))
    gap = np.abs(e0[None, :] - e0[:, None])
    degenerate = gap <= tol * scale
    coupling = np.abs(lam * v1) > DEFAULT_TOL * max(1.0, float(np.linalg.norm(lam * v1)))
    off = ~np.eye(e0.shape[0], dtype=bool)
    return degenerate, degenerate & coupling & off


def _resonant_pairs(basis: PhiBasis, mask: np.ndarray) -> list[tuple[NuIndex, NuIndex]]:
    rows, cols = np.nonzero(mask)
    return [(basis.nu_indices[r], basis.nu_indices[c]) for r, c in zip(rows, cols)]


def _perturbative_columns(basis: PhiBasis, v1: np.ndarray, lam: float, eta: float,
                          order: str, tol: float = DEGENERACY_TOL):
    """Stationary-resolvent series for C (columns) and D (rows) at order 1 or 2.

    Denominators are E0_nu - E0_mu + i eta (retarded branch). Terms between
    uncoupled degenerate partners are dropped; coupled degenerate partners at
    eta = 0 raise ResonanceError.
    """
    e0 = basis.e0
    degenerate, resonant = _degeneracy_masks(e0, v1, lam, tol)
    if eta == 0.0 and resonant.any():
        raise ResonanceError(_resonant_pairs(basis, resonant))
    # delta[mu, nu] = E0_nu - E0_mu + i eta
    delta = e0[None, :] - e0[:, None] + 1j * eta
    blocked = degenerate if eta == 0.0 else np.eye(e0.shape[0], dtype=bool)
    inv = np.where(blocked, 0.0, 1.0 / np.where(blocked, 1.0, delta))
    c = lam * v1 * inv
    d = lam * v1 * inv.T
    if order == "2":
        c = c + lam * (v1 @ c) * inv
        d = d + lam * (d @ v1) * inv.T
    return c, d


def _theta_energies(basis: PhiBasis, v1: np.ndarray, lam: float, c_cols: np.ndarray) -> np.ndarray:
    """Diagonal of Theta: E_nu = E0_nu + lam*V[nu,nu] + lam*(V c)[nu,nu]."""
    return (basis.e0 + lam * np.diag(v1) + lam * np.einsum("ij,ji->i", v1, c_cols))


def _phi_hamiltonian(basis: PhiBasis, lam: float, h1_f: np.ndarray) -> np.ndarray:
    """H = diag(f_values) + lam * h1_f in the phi frame."""
    return np.diag(basis.f_values).astype(np.complex128) + lam * h1_f


def _exact_factors(h: np.ndarray, tol: float = DEFAULT_TOL):
    """Matched eigensystem (psi, psi_tilde, z) of the phi-frame Hamiltonian.

    Eigenvectors are matched to the free basis by maximum-overlap assignment,
    so each nu tracks the branch continuously connected to its dyad.
    """
    d = h.shape[0]
    system = eig(h, tol=tol)
    overlap = np.abs(system.right_vectors)
    rows, cols = scipy.optimize.linear_sum_assignment(-overlap)
    perm = np.empty(d, dtype=int)
    perm[rows] = cols
    psi = system.right_vectors[:, perm]
    psi_tilde = system.left_vectors[perm, :]
    z = system.values[perm]

    anchors = np.abs(np.diag(psi))
    if np.min(anchors) < 10 * tol:
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


def decompose(h0, h1, lam: float = 1.0, order="exact", eta: float = 0.0,
              tol: float = DEFAULT_TOL) -> Decomposition:
    """Build the full projected-subspace decomposition of H = H0 + lam H1."""
    order = normalize_order(order)
    basis = liouville_basis(h0, tol)
    f = basis.f_vectors
    h1_f = f.conj().T @ as_complex_matrix(h1, "h1") @ f
    if order == "exact":
        psi, psi_tilde, z = _exact_factors(_phi_hamiltonian(basis, lam, h1_f), tol)
        energies = vec(np.subtract.outer(z, z))
        return Decomposition(basis=basis, order=order, lam=lam, eta=eta, h1_f=h1_f,
                             energies=energies, psi=psi, psi_tilde=psi_tilde, z=z)
    v1 = commutator_superop(h1_f)
    c_cols, d_rows = _perturbative_columns(basis, v1, lam, eta, order)
    energies = _theta_energies(basis, v1, lam, c_cols)
    return Decomposition(basis=basis, order=order, lam=lam, eta=eta, h1_f=h1_f,
                         energies=energies, series=(c_cols, d_rows))


def decompose_model(ops, order="exact", eta: float = 0.0, lam: float | None = None,
                    tol: float = DEFAULT_TOL) -> Decomposition:
    """decompose() taking a ModelOperators, defaulting lam to ModelSpec.lam."""
    scale = ops.spec.lam if lam is None else lam
    return decompose(ops.h0, ops.h1, lam=scale, order=order, eta=eta, tol=tol)


def creation_resolvent(basis: PhiBasis, v1: np.ndarray, lam: float, nu: NuIndex,
                       z: complex | None = None, eta: float = 0.0,
                       self_consistent: bool = False, max_iter: int = 60,
                       tol: float = 1e-13) -> tuple[np.ndarray, complex]:
    """Creation column from the resolvent linear solve on the Q block.

    Solves (z I - Q L Q) c = lam * Q L1 P at z = E0_nu (default) or at a
    caller-supplied z. With self_consistent=True, z is iterated to the fixed
    point z = E0_nu + lam V[nu,nu] + lam V[nu,:] c(z), which reproduces the
    exact kinetic eigenvalue. Returns (column, z_used).
    """
    k = basis.liouville_index(nu)
    n = basis.dim2
    mask = np.arange(n) != k
    lq = (np.diag(basis.e0) + lam * v1)[np.ix_(mask, mask)]
    rhs = lam * v1[mask, k]
    z_used = complex(basis.e0[k]) if z is None else complex(z)

    def solve(zval: complex) -> np.ndarray:
        a = (zval + 1j * eta) * np.eye(n - 1, dtype=np.complex128) - lq
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise ResonanceError([(nu, nu)]) from exc

    cq = solve(z_used)
    if self_consistent:
        for _ in range(max_iter):
            z_next = complex(basis.e0[k] + lam * v1[k, k] + lam * (v1[k, mask] @ cq))
            if abs(z_next - z_used) <= tol * max(1.0, abs(z_next)):
                z_used = z_next
                cq = solve(z_used)
                break
            z_used = z_next
            cq = solve(z_used)
        else:
            raise ValueError(f"collision-energy iteration did not converge for nu={nu.as_tuple()}")
    out = np.zeros(n, dtype=np.complex128)
    out[mask] = cq
    return out, z_used


def stationary_residual(basis: PhiBasis, v1: np.ndarray, lam: float, nu: NuIndex,
                        column: np.ndarray, z: complex | None = None,
                        eta: float = 0.0) -> float:
    """Residual of the stationary creation equation for a candidate column.

    Checks (Q L Q - z - i eta) c + lam Q L1 P = 0 relative to the column and
    source scale.
    """
    k = basis.liouville_index(nu)
    n = basis.dim2
    mask = np.arange(n) != k
    lq = (np.diag(basis.e0) + lam * v1)[np.ix_(mask, mask)]
    z_used = complex(basis.e0[k]) if z is None else complex(z)
    res = (lq - (z_used + 1j * eta) * np.eye(n - 1)) @ column[mask] + lam * v1[mask, k]
    scale = max(float(np.linalg.norm(lam * v1[mask, k])), 1e-30)
    return float(np.linalg.norm(res)) / scale


def similarity_residual(decomp: Decomposition) -> float:
    """|| L Omega - Omega Theta || / || L || for the built order.

    Exact order, from d x d data: column nu of L Omega - Omega Theta is
    vec(R_i psi~_j - psi_i S_j)/(psi_ii psi~_jj) with the eigen-residuals
    R = H psi - psi Z and S = psi~ H - Z psi~, and
    ||L||_F = sqrt(2d) ||H - (tr H/d) I||_F.
    """
    if decomp.series is not None:
        l_full = decomp.liouvillian()
        omega = decomp.omega()
        res = l_full @ omega - omega @ decomp.theta_matrix()
        return float(np.linalg.norm(res)) / norm_scale(l_full)
    h = _phi_hamiltonian(decomp.basis, decomp.lam, decomp.h1_f)
    psi, psi_tilde, z = decomp.psi, decomp.psi_tilde, decomp.z
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
    """|| sum_nu Pi_nu - I ||_F.

    Exact order: sum_nu Pi_nu = kron(M^T, M) with M = psi psi~. Its distance
    from the identity is expanded in E = M - I, so no O(d^2) terms cancel:
    ||kron(E^T, I) + kron(I, E) + kron(E^T, E)||^2
      = 2d|E|^2 + |E|^4 + 2|tr E|^2 + 4|E|^2 Re tr E.
    """
    if decomp.series is not None:
        return float(np.linalg.norm(decomp.projector_sum() - np.eye(decomp.dim2)))
    err = decomp.psi @ decomp.psi_tilde - np.eye(decomp.basis.dim)
    e2 = float(np.linalg.norm(err)) ** 2
    tr = complex(np.trace(err))
    total = 2 * decomp.basis.dim * e2 + e2 ** 2 + 2 * abs(tr) ** 2 + 4 * e2 * tr.real
    return math.sqrt(max(total, 0.0))


def block_residual(decomp: Decomposition) -> float:
    """max_nu |P_nu C_nu P_nu|, |P_nu D_nu P_nu|: the diagonals of c_cols, d_rows.

    With P_nu = e_k e_k^T, Q_nu = I - P_nu, C_nu = c_k e_k^T and
    D_nu = e_k d_k^T, P + Q = I and PQ = 0 hold identically, while
    C - QCP = c_kk P and D - PDQ = d_kk P. At the exact order c_kk and d_kk
    are the weights of the normalized eigen-dyads on their own dyads minus 1,
    (psi_ii psi~_jj)/(psi_ii psi~_jj) - 1 and its transpose over every nu:
    zero to rounding while each anchor psi_ii psi~_jj is finite and nonzero.
    """
    if decomp.series is not None:
        return max(float(np.max(np.abs(np.diag(decomp.c_cols)))),
                   float(np.max(np.abs(np.diag(decomp.d_rows)))))
    anchors = np.outer(np.diag(decomp.psi), np.diag(decomp.psi_tilde))
    return float(np.max(np.abs(anchors / anchors - 1.0)))


@dataclasses.dataclass(frozen=True)
class ProjectedDensity:
    """Kinetic coefficients c_nu of a state over the dyad grid."""

    coefficients: np.ndarray
    basis: PhiBasis

    def reconstruct(self) -> np.ndarray:
        """sum_nu c_nu |f_i><f_j| as a dense matrix in the original frame."""
        return self.basis.from_frame(self.coefficients)

    @property
    def trace(self) -> complex:
        d = self.basis.dim
        return complex(self.coefficients[:: d + 1].sum())


def project_density(decomp: Decomposition, rho: np.ndarray) -> ProjectedDensity:
    """Coefficients c_nu = weight of P_nu Pi_nu rho on each dyad.

    Exact order: c_nu = (psi~ rho_f psi)_ij psi_ii psi~_jj.
    """
    rho_f = decomp.basis.to_frame(rho)
    kappa = decomp.pairing()
    if np.min(np.abs(kappa)) < DEFAULT_TOL:
        raise ValueError("(P + DC) numerically singular on at least one P block")
    if decomp.series is None:
        psi, psi_tilde = decomp.psi, decomp.psi_tilde
        core = psi_tilde @ unvec(rho_f, decomp.basis.dim) @ psi
        coeff = vec(core * np.outer(np.diag(psi), np.diag(psi_tilde)))
    else:
        left = np.eye(decomp.dim2, dtype=np.complex128) + decomp.d_rows
        coeff = (left @ rho_f) / kappa
    return ProjectedDensity(coefficients=coeff, basis=decomp.basis)


def evolve_projected(projected: ProjectedDensity, energies: np.ndarray, t: float) -> ProjectedDensity:
    """Kinetic evolution c_nu(t) = e^{-i E_nu t} c_nu(0)."""
    phases = np.exp(-1j * energies * t)
    return ProjectedDensity(coefficients=phases * projected.coefficients,
                            basis=projected.basis)


def evolve_exact(hamiltonian, rho0, t: float) -> np.ndarray:
    """Brute-force commutator evolution rho(t) = unvec(e^{-i L t} vec rho0).

    Reference oracle route for small-d checks: builds the full d^2 x d^2
    Liouvillian of the supplied Hamiltonian and exponentiates it,
    independent of the projected machinery.
    """
    h = as_complex_matrix(hamiltonian, "hamiltonian")
    rho = as_complex_matrix(rho0, "rho0")
    l_full = commutator_superop(h)
    return unvec(expm_action(l_full, t, vec(rho)), h.shape[0])


def _hilbert_flow(h: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    """e^{-iHt} rho e^{+iHt} from two d x d exponentials.

    The right factor is the inverse of the left one, which is not its
    adjoint when H is not Hermitian.
    """
    return scipy.linalg.expm(-1j * t * h) @ rho @ scipy.linalg.expm(1j * t * h)


def evolve_grid(hamiltonian, rho0, times) -> np.ndarray:
    """rho(t) on a time grid from one eigendecomposition of H.

    Same commutator flow as evolve_exact, factored through
    e^{-iHt} rho e^{+iHt}; falls back to per-point d x d exponentials when
    H is defective. Returns an array of shape (len(times), d, d).
    """
    h = as_complex_matrix(hamiltonian, "hamiltonian")
    rho = as_complex_matrix(rho0, "rho0")
    ts = np.asarray(times, dtype=np.float64)
    try:
        system = eig(h)
    except DefectiveMatrixError:
        return np.stack([_hilbert_flow(h, rho, float(t)) for t in ts])
    core = system.left_vectors @ rho @ system.right_vectors
    out = np.empty((ts.shape[0], h.shape[0], h.shape[0]), dtype=np.complex128)
    for k, t in enumerate(ts):
        phases = np.exp(-1j * system.values * t)
        out[k] = ((system.right_vectors * phases) @ core
                  @ ((1.0 / phases)[:, None] * system.left_vectors))
    return out


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
    rhs = evolve_projected(project_density(decomp, rho), decomp.energies, t)
    gap = lhs.coefficients - rhs.coefficients
    return float(np.linalg.norm(decomp.basis.from_frame(gap), ord=2))

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
rho F. linalg.eig builds F block by block from the connected components of
H0's nonzero pattern, so F, h1_f and everything weighted by h1_f carry
exact zeros between components that H1 does not couple. Three
construction orders are supported: "exact" (from the full
eigendecomposition of H), and the stationary-resolvent perturbation
expansion truncated at first ("1") or second ("2") order in lam. Each order
keeps one representation of d x d arrays and computes what it reports from
it: eigen data at the exact order; at orders 1 and 2, four plane factors
(U, V, U~, V~), the Rayleigh-Schroedinger corrections of the right and
left eigenvectors to that order. Column nu = (i, j) reads them on the
planes b = j and a = i next to nu, and one formula for the energies, the
pairings kappa and the projection serves both orders. Order 2 also reaches
off the planes: there column nu = (i, j) is -A E_ij A times W = 1 + i eta R
(R the dyad resolvent), and the rows are the same in A'. At eta = 0, W = 1
and order 2 takes O(d^3) time and O(d^2) memory; at eta > 0 the remainder
W - 1 is gathered over the nonzero pairs of the interaction, nnz^2 kernel
entries in chunks of about _BLOCK_ENTRIES, none for the diagonal
interaction. Each call sums the pairings kappa together with the rows of
every state it projects; nothing is cached.

A state has one form here: a factor pair (K, B), K d x r and B r x d,
standing for the free-frame state rho_f = K B. A ket g is (g, g^dagger)
with r = 1, and a Hermitian PSD density matrix is (U, U^dagger) for its
rank-r factor (state_factor, the one place that tells a ket from a
matrix). The projection P_nu Pi_nu rho and the flow e^{-iHt} rho e^{+iHt}
act on one factor at a time, so no state is ever a d x d matrix: a
projection costs O(d^2 r) beyond the d x d coefficients it returns, and
order 2 at eta > 0 takes one gather per column of K.

The dense d^2 x d^2 Liouville routes (L, Omega, Pi_nu, every order's
columns) are reference oracles for small-d checks and live with the tests,
in tests/oracle.py.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DEGENERACY_TOL,
    NonHermitianError,
    as_complex_matrix,
    as_ket,
    eig,
    expm,
    is_hermitian,
    max_overlap_matching,
    psd_factor,
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
    system = eig(h)
    eps = system.values.real
    e0 = vec(np.subtract.outer(eps, eps)).astype(np.complex128)
    return PhiBasis(f_values=eps, f_vectors=system.right_vectors, e0=e0)


@dataclasses.dataclass(frozen=True)
class Decomposition:
    """Complete projected-subspace decomposition at one construction order.

    Every order stores its levels (z, w), two d-vectors whose differences
    are the kinetic eigenvalues, E_nu = z_i - w_j at nu = (i, j) (see
    energies); all entries are phi-frame quantities. The exact order stores
    the matched eigensystem of H: psi (right eigenvectors as columns),
    psi_tilde (left eigenvectors as rows, psi_tilde @ psi = I) and z
    (eigenvalues), with w = z, and computes everything from these d x d
    factors. Orders 1 and 2 store first_order = (A, A'), the
    resolvent-weighted interactions A = lam h1_f * r and A' = lam h1_f * r^T
    (elementwise products) with r[k, i] = 1/(eps_i - eps_k + i eta), zero on
    k = i and, at eta = 0, on degenerate pairs, and planes = (U, V, U~, V~).
    The creation column nu = (i, j) reads U[a, i] at mu = (a, j) and
    V[j, b] at mu = (i, b); the destruction row nu reads U~[i, a] and
    V~[b, j] at the same places. Order 1 has (U, V, U~, V~) = (A, -A, A', -A'),
    the superoperators [A, .] and [A', .]. Order 2 adds the second-order
    Rayleigh-Schroedinger terms (see _rayleigh_schroedinger) and an
    off-plane part in A and A' (see _off_plane_sums). The instance holds
    only these factors: the pairings kappa, which every projection divides
    by, are computed from them on each read.
    """

    basis: PhiBasis
    order: str
    lam: float
    eta: float
    h1_f: np.ndarray
    z: np.ndarray
    w: np.ndarray
    psi: np.ndarray | None = None
    psi_tilde: np.ndarray | None = None
    first_order: tuple[np.ndarray, np.ndarray] | None = None
    planes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def energies(self) -> np.ndarray:
        """Kinetic eigenvalues E_nu = z_i - w_j, a Liouville-index vector."""
        return vec(np.subtract.outer(self.z, self.w))

    @property
    def kappa(self) -> np.ndarray:
        """kappa_nu = 1 + d_nu . c_nu, the (P + DC) scale on each P block.

        Exact order: kappa_nu = 1/(a_i a_j) with a_i = psi_ii psi~_ii.
        Orders 1 and 2: kappa_nu = 1 + (U~ U)_ii + (V V~)_jj, the sum over
        the planes; order 2 adds the off-plane sum, see _off_plane_sums,
        which at eta > 0 gathers over the interaction's nonzeros on every read.
        """
        off_plane = _off_plane_sums(self, [])[0] if self.order == "2" else None
        return self._pairings(off_plane)

    def _pairings(self, off_plane: np.ndarray | None) -> np.ndarray:
        """kappa from the stored factors and, at order 2, its off-plane sum."""
        if self.planes is None:
            a = np.diag(self.psi) * np.diag(self.psi_tilde)
            return vec(1.0 / np.outer(a, a))
        u, v, u_dual, v_dual = self.planes
        kappa = 1.0 + np.einsum("ia,ai->i", u_dual, u)[:, None] \
            + np.einsum("jb,bj->j", v, v_dual)[None, :]
        if off_plane is not None:
            kappa += off_plane
        return vec(kappa)


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


# Entries one block of a walk holds. Order 2's gather at eta > 0 builds the
# dyad resolvent over this many (left, right) pairs of the interaction's
# nonzeros at a time; the walks of the time grid take as many steps as hold
# this many entries (time_blocks).
_BLOCK_ENTRIES = 2 ** 15


def time_blocks(steps: int, entries_per_step: int):
    """Slices of a time grid holding about _BLOCK_ENTRIES entries each.

    A block spans max(1, _BLOCK_ENTRIES // entries_per_step) steps, where
    entries_per_step counts every entry one step of the walk holds at once,
    each at most 32 bytes with its temporaries: the n x n table of a walk
    over n levels and its n-long side arrays alike. So a walk over the
    blocks holds at most about 32 _BLOCK_ENTRIES bytes, or one step. A
    walk over no level, which holds no entry a step, counts one.
    """
    size = max(1, _BLOCK_ENTRIES // max(1, entries_per_step))
    for start in range(0, steps, size):
        yield slice(start, min(start + size, steps))


def _pair_sums(eps: np.ndarray, eta: float, left: np.ndarray, right: np.ndarray,
               squared: bool = False) -> np.ndarray:
    """S[i, j] = sum_ab left[i, a] right[j, b] k(R), eta > 0.

    R = 1/((eps_i - eps_a) - (eps_j - eps_b) + i eta) is the dyad resolvent
    between nu = (i, j) and mu = (a, b), and k(R) = R, or 2 i eta R - eta^2 R^2
    when squared. Only the nonzero entries of left and right are gathered,
    as two lists sorted by i and by j. The kernel is built over chunks of
    the left list, about _BLOCK_ENTRIES entries each, in one buffer (two
    when squared) that every chunk reuses, reduced to j by a segment sum
    over the right list and to i by one over the chunk's rows.
    """
    d = eps.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    li, la = np.nonzero(left)
    rj, rb = np.nonzero(right)
    if not li.size or not rj.size:
        return out
    lw, rw = left[li, la], right[rj, rb]
    # complex operands: a real one is cast at every broadcast step
    lgap = (eps[li] - eps[la]) + 1j * eta
    rgap = (eps[rj] - eps[rb]).astype(np.complex128)
    jstart = _run_starts(rj)
    js = rj[jstart]
    step = max(1, _BLOCK_ENTRIES // rj.size)
    kernel = np.empty((min(step, li.size), rj.size), dtype=np.complex128)
    square = np.empty_like(kernel) if squared else None
    for start in range(0, li.size, step):
        rows = slice(start, start + step)
        k = kernel[:min(step, li.size - start)]
        np.subtract(lgap[rows, None], rgap, out=k)
        np.reciprocal(k, out=k)
        if squared:
            t = np.multiply(k, -eta * eta, out=square[:k.shape[0]])
            t += 2j * eta
            k *= t
        k *= rw
        s = np.add.reduceat(k, jstart, axis=1)
        s *= lw[rows, None]
        i = li[rows]
        istart = _run_starts(i)
        out[i[istart, None], js] += np.add.reduceat(s, istart, axis=0)
    return out


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal values in a sorted array."""
    first = np.empty(keys.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def _rayleigh_schroedinger(h: np.ndarray, g: np.ndarray, r: np.ndarray, lam: float):
    """(U, V): order-2 plane factors of the column grown from [g, .].

    U = g + lam r * (h g - g diag h) and V = -g + lam r * (g h - diag h g)
    (elementwise products with r). With g = A these are the second-order
    Rayleigh-Schroedinger corrections of the right eigenvector psi_i and the
    left eigenvector psi~_j in intermediate normalization; the diag h terms
    are the renormalization -lam (L1)_nunu R c1, which cancel the dependence
    of the plane entries on the far index. On the planes the dyad resolvent
    is r itself: R = r[a, i] at mu = (a, j) and r[j, b] at mu = (i, b).
    """
    weight = lam * r
    hd = np.diag(h)
    return g + weight * (h @ g - g * hd[None, :]), -g + weight * (g @ h - hd[:, None] * g)


def _off_plane_sums(decomp: Decomposition, states: list[tuple[np.ndarray, np.ndarray]]):
    """Order 2's sums off the planes b = j and a = i, for kappa and every state of states.

    Returns (kappa, rows): kappa, the d x d sum of d_nu(mu) c_nu(mu), and
    rows, one d x d sum of d_nu(mu) x[a, b] for each free-frame state
    x = K B given as its factor pair (K, B) in states, which may be empty.

    Off the planes, column nu reads
    -lam R (h[a, i] A[j, b] + A[a, i] h[j, b]) = -A[a, i] A[j, b] W, as
    (1/r[a, i] + 1/r[j, b]) R = W = 1 + i eta R, and row nu -A'[i, a] A'[b, j] W.
    On a degenerate dyad pair that is W = 1 at eta = 0 (the removable
    singularity's value) but W = 2 at any eta > 0. Summed over mu, the
    products are sum_ab P[a, i] Q[j, b] W^2 with P = A'^T * A and
    Q = A * A'^T: the d x d term (A' A)_ii (A A')_jj plus, at eta > 0,
    W^2 - 1 = 2 i eta R - eta^2 R^2. The rows are -(A' K)(B A')_ij at W = 1
    plus, at eta > 0, the remainder W - 1 = i eta R. Each remainder is a
    _pair_sums gather over the nonzeros of its two weights, so its cost
    grows with nnz(P) nnz(Q), not d^4: P and Q for kappa, and for a state
    one gather per column c of K, over A'[i, a] K[a, c] and A'[b, j] B[c, b].
    A has a zero diagonal, so no mask is needed.
    """
    g, g_dual = decomp.first_order
    eta = decomp.eta
    p, q = g_dual.T * g, g * g_dual.T
    kappa = np.outer(p.sum(axis=0), q.sum(axis=1))
    rows = [-((g_dual @ k) @ (b @ g_dual)) for k, b in states]
    if eta == 0.0:
        return kappa, rows
    eps = decomp.basis.f_values
    kappa += _pair_sums(eps, eta, p.T, q, squared=True)
    for (k, b), row in zip(states, rows):
        for c in range(k.shape[1]):
            row += (-1j * eta) * _pair_sums(eps, eta, g_dual * k[:, c], g_dual.T * b[c])
    return kappa, rows


def _phi_hamiltonian(basis: PhiBasis, lam: float, h1_f: np.ndarray) -> np.ndarray:
    """H = diag(f_values) + lam * h1_f in the phi frame."""
    return np.diag(basis.f_values).astype(np.complex128) + lam * h1_f


def _exact_factors(h: np.ndarray):
    """Matched eigensystem (psi, psi_tilde, z) of the phi-frame Hamiltonian.

    Eigenvectors are matched to the free basis by maximum-overlap assignment
    (linalg.max_overlap_matching), so each nu tracks the branch continuously
    connected to its dyad. Where two matchings share the largest total
    overlap, as when degenerate free levels are coupled symmetrically, the
    assignment over the colliding component breaks the tie by its fixed scan
    order, the same on every run; which of the tied branches is physical
    there is not decided by overlaps.
    """
    system = eig(h)
    perm = max_overlap_matching(np.abs(system.right_vectors), h)
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
        return Decomposition(basis=basis, order=order, lam=lam, eta=eta, h1_f=h1_f,
                             z=z, w=z, psi=psi, psi_tilde=psi_tilde)
    r = _free_resolvent(basis, h1_f, lam, eta)
    a, a_dual = lam * h1_f * r, lam * h1_f * r.T
    if order == "1":
        planes = (a, -a, a_dual, -a_dual)
    else:
        # the rows are the columns grown from (h1_f^T, A'^T), transposed
        rows = _rayleigh_schroedinger(h1_f.T, a_dual.T, r, lam)
        planes = (*_rayleigh_schroedinger(h1_f, a, r, lam), rows[0].T, rows[1].T)
    # E_nu = E0_nu + lam L1[nu, nu] + lam (L1 c_nu)_nu = z_i - w_j, as
    # (L1 c_nu)_nu = sum_a h[i, a] U[a, i] - sum_b V[j, b] h[b, j]
    level = basis.f_values + lam * np.diag(h1_f)
    z = level + lam * np.einsum("ia,ai->i", h1_f, planes[0])
    w = level + lam * np.einsum("jb,bj->j", planes[1], h1_f)
    return Decomposition(basis=basis, order=order, lam=lam, eta=eta, h1_f=h1_f,
                         z=z, w=w, first_order=(a, a_dual), planes=planes)


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


def _project_frame(decomp: Decomposition,
                   states: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """Kinetic coefficients of the free-frame states x = K B, one d x d matrix each.

    states lists factor pairs (K, B), K d x r and B r x d, so every product
    is O(d^2 r) and no d x d state is formed.
    Exact order: c_nu = ((psi~ K)(B psi))_ij psi_ii psi~_jj.
    Orders 1 and 2: c_nu = ((K + U~ K) B + K (B V~))_ij / kappa_nu; order 2
    adds the off-plane sums, see _off_plane_sums, whose one call serves
    kappa and every state.
    """
    off_rows = []
    if decomp.order == "2":
        off_kappa, off_rows = _off_plane_sums(decomp, states)
        kappa = decomp._pairings(off_kappa)
    else:
        kappa = decomp.kappa
    if np.min(np.abs(kappa)) < DEFAULT_TOL:
        raise ValueError("(P + DC) numerically singular on at least one P block")
    if decomp.planes is None:
        psi, psi_tilde = decomp.psi, decomp.psi_tilde
        anchors = np.outer(np.diag(psi), np.diag(psi_tilde))
        return [((psi_tilde @ k) @ (b @ psi)) * anchors for k, b in states]
    _, _, u_dual, v_dual = decomp.planes
    ys = [(k + u_dual @ k) @ b + k @ (b @ v_dual) for k, b in states]
    for y, rows in zip(ys, off_rows):
        y += rows
    kappa = unvec(kappa, decomp.basis.dim)
    return [y / kappa for y in ys]


def state_factor(state, dim: int) -> np.ndarray:
    """d x r factor U of a state, rho = U U^dagger.

    A ket (1-d, length dim) is its own column. A density matrix goes
    through linalg.psd_factor, which refuses one that is not Hermitian
    (NonHermitianError) or not PSD (NotPositiveSemidefiniteError) and keeps
    one column per eigenvalue above its numerical rank cutoff. This is the
    one place where a ket and a density matrix part ways.
    """
    if np.ndim(state) == 1:
        return as_ket(state, dim)[:, None]
    rho = as_complex_matrix(state, "rho0")
    if rho.shape != (dim, dim):
        raise ValueError(f"rho0 must be {dim} x {dim}, got shape {rho.shape}")
    return psd_factor(rho)


def _free_pair(basis: PhiBasis, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Free-frame factor pair (K, K^dagger), K = F^dagger U, of rho = U U^dagger."""
    k = basis.f_vectors.conj().T @ u
    return k, k.conj().T


def project_density(decomp: Decomposition, rho: np.ndarray) -> np.ndarray:
    """Kinetic coefficients c_nu = weight of P_nu Pi_nu rho on each dyad.

    rho is a ket psi (1-d) standing for the pure state |psi><psi|, or a
    Hermitian PSD density matrix; either is projected as its free-frame
    factor pair (see state_factor), without forming a d x d state.
    Returned as a Liouville-index vector; each coefficient evolves alone,
    c_nu(t) = e^{-i E_nu t} c_nu(0). _project_frame gives the formula of
    each order.
    """
    basis = decomp.basis
    return vec(_project_frame(decomp, [_free_pair(basis, state_factor(rho, basis.dim))])[0])


def _hilbert_flow(h: np.ndarray, u: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Factor pair (K, B) of e^{-iHt} U U^dagger e^{+iHt} = K B (linalg.expm).

    K = e^{-iHt} U. Under a Hermitian H the right factor is the adjoint of
    the left one, so B = K^dagger and one exponential serves; otherwise
    B = U^dagger e^{+iHt}, a second exponential. Either way the state keeps
    the rank of U.
    """
    k = expm(-1j * t * h) @ u
    if is_hermitian(h):
        return k, k.conj().T
    return k, u.conj().T @ expm(1j * t * h)


def kinetic_consistency_residual(decomp: Decomposition, hamiltonian, rho0,
                                 t: float) -> tuple[np.ndarray, float]:
    """(coeff0, residual): rho0's kinetic coefficients, and the operator-norm
    gap between projected exact evolution and kinetic phases.

    Compares P_nu Pi_nu e^{-iLt} rho0 (exact route, the Hilbert-space flow
    e^{-iHt} rho0 e^{+iHt} through d x d exponentials, independent of the
    eigendecomposition behind the projection) against
    e^{-i Theta t} P_nu Pi_nu rho0 (kinetic route), over all nu. The
    operator norm is taken in the free frame, where the unitary F leaves
    it unchanged. hamiltonian is the d x d H in the original basis: its flow
    checks F and h1_f independently, so the decomposition's own free-frame
    H is not read here.
    rho0 is a ket psi standing for |psi><psi|, or a Hermitian PSD density
    matrix; it flows and is projected as its factor pair (see state_factor
    and _hilbert_flow). rho0 and rho(t) are projected in one call; coeff0
    equals project_density(decomp, rho0).
    """
    h = as_complex_matrix(hamiltonian, "hamiltonian")
    basis = decomp.basis
    f, d = basis.f_vectors, basis.dim
    u = state_factor(rho0, d)
    k, b = _hilbert_flow(h, u, t)
    c0, lhs = _project_frame(decomp, [_free_pair(basis, u), (f.conj().T @ k, b @ f)])
    gap = lhs - np.exp(-1j * unvec(decomp.energies, d) * t) * c0
    return vec(c0), float(np.linalg.norm(gap, ord=2))

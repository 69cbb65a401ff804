"""Projected-subspace decomposition of commutator dynamics.

The free Hamiltonian's eigen-dyads |f_i><f_j| span a complete set of rank-1
Liouville projectors P_nu, nu = (i, j). For each nu the theory has a
creation operator C_nu = Q_nu C_nu P_nu (how the exact eigenvector leaks out
of the dyad), a destruction operator D_nu = P_nu D_nu Q_nu (its left
counterpart), the kinetic eigenvalue E_nu, and the total projector
Pi_nu = (P + C)(P + DC)^-1(P + D). Collecting the nu columns gives the
similarity Omega = I + C with L Omega = Omega Theta, Theta = diag(E_nu).
A state is projected once into its kinetic coefficients c_nu = P_nu Pi_nu
rho (project_density, a d x d matrix c[i, j] over the dyads); each
coefficient then only picks up the phase e^{-i E_nu t}. Every d^2 quantity
is indexed (i, j) the same way: the kinetic eigenvalues E[i, j] = z_i - w_j
(Decomposition.energies), their free values eps_i - eps_j and the pairings
kappa[i, j].

All quantities here are expressed in the frame of the free eigenbasis
(the "phi frame"), where L0 is diagonal; states convert via rho_f = F^dag
rho F. linalg.eig builds F block by block from the connected components of
H0's nonzero pattern, so F, h1_f and everything weighted by h1_f carry
exact zeros between components that H1 does not couple. Three
construction orders are supported: "exact" (from the full
eigendecomposition of H), and the stationary-resolvent perturbation
expansion truncated at first ("1") or second ("2") order in lam.

Every order stores one form: four plane factors (U, V, U~, V~) and, where
the order reaches off the planes, four off-plane factors
(Uo, Vo, U~o, V~o), all d x d. The creation column nu = (i, j) reads
U[a, i] on the plane b = j, V[j, b] on the plane a = i and Uo[a, i] Vo[j, b]
off both; the destruction row nu reads U~[i, a], V~[b, j] and
U~o[i, a] V~o[b, j] at the same places. So one formula gives the pairings
and the projection of a state x = K B at every order:

    kappa_nu = 1 + (U~ U)_ii + (V V~)_jj + (U~o Uo)_ii (Vo V~o)_jj,
    c_nu = ((K + U~ K) B + K (B V~) + (U~o K)(B V~o))_ij / kappa_nu.

At the exact order the planes are the right and left eigenvectors of H
anchored to 1 on their own levels, less the identity: R - I and L - I with
R = psi diag(1/psi_ii) and L = diag(1/psi~_ii) psi~. The off-plane factors
are the planes themselves, so kappa_nu = (L R)_ii (L R)_jj and
c_nu = (L x R)_ij / kappa_nu. Order 1 has the planes (A, -A, A', -A') of
the resolvent-weighted interactions A and A' and nothing off them. Order 2
has the second-order Rayleigh-Schroedinger planes and the off-plane
factors (A, -A, A', -A'): off the planes its column nu reads
-A[a, i] A[j, b] W, with W = 1 + i eta R (R the dyad resolvent), and its
row the same in A'. At eta = 0, W = 1 and every order takes O(d^3) time
and O(d^2) memory; at eta > 0 order 2 adds the remainder W - 1, gathered
over the nonzero pairs of the interaction, nnz^2 kernel entries in chunks
of about _BLOCK_ENTRIES, none for the diagonal interaction. Each call sums
the pairings kappa together with the rows of every state it projects;
nothing is cached.

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
)

ORDERS = ("exact", "1", "2")


class ResonanceError(ValueError):
    """Degenerate free eigenvalues coupled by the interaction at eta = 0.

    pairs lists the resonant entries h1_f[x, y] as (x, y) tuples of free
    levels, in row-major order. Each couples the dyads (x, k) and (y, k),
    and (k, y) and (k, x), for every level k.
    """

    def __init__(self, pairs: list[tuple[int, int]]):
        self.pairs = pairs
        shown = ", ".join(f"{x}<->{y}" for x, y in pairs[:4])
        more = "" if len(pairs) <= 4 else f" (+{len(pairs) - 4} more)"
        super().__init__(
            f"resonant level pairs with coupled degenerate free eigenvalues: {shown}{more}; "
            "set eta > 0 to regularize")


@dataclasses.dataclass(frozen=True)
class PhiBasis:
    """Free eigenframe: H0 eigenpairs, f_values sorted ascending.

    The dyad nu = (i, j) is |f_i><f_j|, with free energy eps_i - eps_j.
    """

    f_values: np.ndarray
    f_vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.f_values.shape[0]


def liouville_basis(h0) -> PhiBasis:
    """Diagonalize a Hermitian free Hamiltonian into the dyad frame."""
    h = as_complex_matrix(h0, "h0")
    if not is_hermitian(h):
        raise NonHermitianError("free Hamiltonian must be Hermitian")
    system = eig(h)
    return PhiBasis(f_values=system.values.real, f_vectors=system.right_vectors)


@dataclasses.dataclass(frozen=True)
class Decomposition:
    """Complete projected-subspace decomposition at one construction order.

    Every order stores its levels (z, w), two d-vectors whose differences
    are the kinetic eigenvalues, E_nu = z_i - w_j at nu = (i, j) (see
    energies), and its dyads in one form: planes = (U, V, U~, V~), whose
    diagonals are exact zeros, and off_plane = (Uo, Vo, U~o, V~o) or None
    (see the module docstring for where each is read); all entries are
    phi-frame quantities. The exact order has z = w, the eigenvalues of H,
    and planes (R - I, L - I, L - I, R - I) for the anchored right and left
    eigenvectors R and L, with off_plane the planes themselves. Orders 1 and
    2 build from the resolvent-weighted interactions A = lam h1_f * r and
    A' = lam h1_f * r^T (elementwise products), with r[k, i] =
    1/(eps_i - eps_k + i eta), zero on k = i and, at eta = 0, on degenerate
    pairs. Order 1 has planes (A, -A, A', -A'), the superoperators [A, .]
    and [A', .], and no off_plane. Order 2 has the second-order
    Rayleigh-Schroedinger planes (see _rayleigh_schroedinger) and off_plane
    (A, -A, A', -A'), and at eta > 0 a gathered remainder (see
    _gathered_sums). The instance holds only these factors: the pairings
    kappa, which every projection divides by, are computed from them on
    each read.
    """

    basis: PhiBasis
    order: str
    lam: float
    eta: float
    h1_f: np.ndarray
    z: np.ndarray
    w: np.ndarray
    planes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    off_plane: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def energies(self) -> np.ndarray:
        """Kinetic eigenvalues E[i, j] = z_i - w_j, a d x d matrix."""
        return np.subtract.outer(self.z, self.w)

    @property
    def kappa(self) -> np.ndarray:
        """kappa[i, j] = 1 + d_nu . c_nu, the (P + DC) scale on the P block of nu = (i, j).

        kappa_nu = 1 + (U~ U)_ii + (V V~)_jj + (U~o Uo)_ii (Vo V~o)_jj; order 2
        at eta > 0 adds its remainder, gathered over the interaction's
        nonzeros on every read (see _gathered_sums).
        """
        return self._pairings(_gathered_sums(self, [])[0])

    def _pairings(self, remainder: np.ndarray | None) -> np.ndarray:
        """kappa from the stored factors plus a gathered remainder, if any."""
        u, v, u_dual, v_dual = self.planes
        kappa = 1.0 + np.einsum("ia,ai->i", u_dual, u)[:, None] \
            + np.einsum("jb,bj->j", v, v_dual)[None, :]
        if self.off_plane is not None:
            uo, vo, uo_dual, vo_dual = self.off_plane
            off = np.outer((uo_dual.T * uo).sum(axis=0), (vo * vo_dual.T).sum(axis=1))
            if remainder is not None:
                off += remainder
            kappa += off
        return kappa


def _free_resolvent(basis: PhiBasis, h1_f: np.ndarray, lam: float, eta: float) -> np.ndarray:
    """r[k, i] = 1/(eps_i - eps_k + i eta), the resolvent of one dyad index.

    r is zero on k = i and, at eta = 0, on every degenerate pair, whose gap
    is below DEGENERACY_TOL times the free spectrum's width max eps - min eps
    (at least 1); h1_f coupling a degenerate pair at eta = 0 raises
    ResonanceError. The coupling threshold is relative to
    ||lam L1||_F = |lam| sqrt(2d|h1_f|^2 - 2|tr h1_f|^2).
    """
    eps = basis.f_values
    d = eps.shape[0]
    gap = eps[None, :] - eps[:, None]
    if eta == 0.0:
        width = float(np.max(eps) - np.min(eps))
        blocked = np.abs(gap) <= DEGENERACY_TOL * max(1.0, width)
        norm2 = 2 * d * float(np.linalg.norm(h1_f)) ** 2 - 2 * abs(np.trace(h1_f)) ** 2
        scale = max(1.0, abs(lam) * math.sqrt(max(norm2, 0.0)))
        resonant = blocked & (np.abs(lam * h1_f) > DEFAULT_TOL * scale)
        np.fill_diagonal(resonant, False)
        if resonant.any():
            xs, ys = np.nonzero(resonant)
            raise ResonanceError(list(zip(xs.tolist(), ys.tolist())))
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


def _gathered_sums(decomp: Decomposition, states: list[tuple[np.ndarray, np.ndarray]]):
    """Order 2's remainder off the planes at eta > 0, for kappa and every state of states.

    Returns (kappa, rows): kappa, the d x d remainder of sum_mu d_nu(mu)
    c_nu(mu), and rows, one d x d remainder of sum_mu d_nu(mu) x[a, b] for
    each free-frame state x = K B given as its factor pair (K, B) in
    states, which may be empty. Every other order, and order 2 at eta = 0,
    has none: (None, [None, ...]).

    Off the planes, column nu reads
    -lam R (h[a, i] A[j, b] + A[a, i] h[j, b]) = -A[a, i] A[j, b] W, as
    (1/r[a, i] + 1/r[j, b]) R = W = 1 + i eta R, and row nu -A'[i, a] A'[b, j] W.
    On a degenerate dyad pair that is W = 1 at eta = 0 (the removable
    singularity's value) but W = 2 at any eta > 0. The off-plane factors
    (A, -A, A', -A') carry the part at W = 1. Summed over mu, the products
    are sum_ab P[a, i] Q[j, b] W^2 with P = A'^T * A and Q = A * A'^T, whose
    remainder is W^2 - 1 = 2 i eta R - eta^2 R^2, and the rows' remainder is
    W - 1 = i eta R. Each remainder is a _pair_sums gather over the nonzeros
    of its two weights, so its cost grows with nnz(P) nnz(Q), not d^4: P and
    Q for kappa, and for a state one gather per column c of K, over
    A'[i, a] K[a, c] and A'[b, j] B[c, b]. A has a zero diagonal, so no mask
    is needed.
    """
    eta = decomp.eta
    if decomp.order != "2" or eta == 0.0:
        return None, [None] * len(states)
    g, _, g_dual, _ = decomp.off_plane
    eps = decomp.basis.f_values
    kappa = _pair_sums(eps, eta, (g_dual.T * g).T, g * g_dual.T, squared=True)
    rows = []
    for k, b in states:
        row = sum(_pair_sums(eps, eta, g_dual * k[:, c], g_dual.T * b[c])
                  for c in range(k.shape[1]))
        row *= -1j * eta
        rows.append(row)
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
        # R - I and L - I for R = psi diag(1/psi_ii) and L = diag(1/psi~_ii) psi~
        u, u_dual = psi / np.diag(psi)[None, :], psi_tilde / np.diag(psi_tilde)[:, None]
        np.fill_diagonal(u, 0.0)
        np.fill_diagonal(u_dual, 0.0)
        planes = off_plane = (u, u_dual, u_dual, u)
        w = z
    else:
        r = _free_resolvent(basis, h1_f, lam, eta)
        a, a_dual = lam * h1_f * r, lam * h1_f * r.T
        # order 1's planes are order 2's off-plane factors
        planes = off_plane = (a, -a, a_dual, -a_dual)
        if order == "1":
            off_plane = None
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
                         z=z, w=w, planes=planes, off_plane=off_plane)


def decompose_model(ops, order="exact", eta: float = 0.0) -> Decomposition:
    """decompose() of a ModelOperators at its own scale ModelSpec.lam."""
    return decompose(ops.h0, ops.h1, lam=ops.spec.lam, order=order, eta=eta)


def _anchored_eigenvectors(decomp: Decomposition, check: str):
    """(R, L, z) of an exact-order decomposition: R = I + U and L = I + U~.

    The verify residuals are d x d expressions in these eigenvectors, which
    a perturbative order does not have, so asking them of one raises
    ValueError.
    """
    if decomp.order != "exact":
        raise ValueError(f"{check} reads the exact order's eigen data; "
                         f"got a decomposition at order {decomp.order}")
    eye = np.eye(decomp.basis.dim)
    return eye + decomp.planes[0], eye + decomp.planes[2], decomp.z


def similarity_residual(decomp: Decomposition) -> float:
    """|| L Omega - Omega Theta || / || L || of an exact-order decomposition.

    From d x d data: column nu of L Omega - Omega Theta is
    vec(S_i L_j - R_i T_j) with the eigen-residuals S = H R - R Z and
    T = L H - Z L, and ||L||_F = sqrt(2d) ||H - (tr H/d) I||_F.
    """
    right, left, z = _anchored_eigenvectors(decomp, "similarity_residual")
    h = _phi_hamiltonian(decomp.basis, decomp.lam, decomp.h1_f)
    s = h @ right - right * z[None, :]
    t = left @ h - z[:, None] * left
    # Summed over nu, ||S_i L_j - R_i T_j||^2 = |S_i|^2 |L_j|^2 + |R_i|^2 |T_j|^2
    #                                         - 2 Re[(S_i^H R_i)(L_j^H T_j)]
    total = (np.vdot(s, s) * np.vdot(left, left) + np.vdot(right, right) * np.vdot(t, t)
             - 2.0 * np.vdot(s, right) * np.vdot(left, t)).real
    d = h.shape[0]
    centred = h - (np.trace(h) / d) * np.eye(d)
    l_norm = math.sqrt(2 * d) * float(np.linalg.norm(centred))
    return math.sqrt(max(float(total), 0.0)) / max(l_norm, 1.0)


def completeness_residual(decomp: Decomposition) -> float:
    """|| sum_nu Pi_nu - I ||_F of an exact-order decomposition.

    sum_nu Pi_nu = kron(M^T, M) with M = R diag(1/(L R)_ii) L. Its distance
    from the identity is expanded in E = M - I, so no O(d^2) terms cancel:
    ||kron(E^T, I) + kron(I, E) + kron(E^T, E)||^2
      = 2d|E|^2 + |E|^4 + 2|tr E|^2 + 4|E|^2 Re tr E.
    """
    right, left, _ = _anchored_eigenvectors(decomp, "completeness_residual")
    pairs = np.einsum("ia,ai->i", left, right)
    err = (right / pairs[None, :]) @ left - np.eye(decomp.basis.dim)
    e2 = float(np.linalg.norm(err)) ** 2
    tr = complex(np.trace(err))
    total = 2 * decomp.basis.dim * e2 + e2 ** 2 + 2 * abs(tr) ** 2 + 4 * e2 * tr.real
    return math.sqrt(max(total, 0.0))


def block_residual(decomp: Decomposition) -> float:
    """max_nu |P_nu C_nu P_nu|, |P_nu D_nu P_nu| of an exact-order decomposition.

    With P_nu = e_k e_k^T, Q_nu = I - P_nu, C_nu = c_k e_k^T and
    D_nu = e_k d_k^T, P + Q = I and PQ = 0 hold identically, while
    C - QCP = c_kk P and D - PDQ = d_kk P. c_kk = R_ii L_jj - 1 is the weight
    of the anchored eigen-dyad on its own dyad less 1, and d_kk = L_ii R_jj - 1
    its transpose over every nu: zero while every anchor R_ii = 1 + U_ii and
    L_jj = 1 + U~_jj is 1, as decompose stores them.
    """
    right, left, _ = _anchored_eigenvectors(decomp, "block_residual")
    return float(np.max(np.abs(np.outer(np.diag(right), np.diag(left)) - 1.0)))


def _project_frame(decomp: Decomposition,
                   states: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """Kinetic coefficients of the free-frame states x = K B, one d x d matrix each.

    states lists factor pairs (K, B), K d x r and B r x d, so every product
    is O(d^2 r) and no d x d state is formed:
    c_nu = ((K + U~ K) B + K (B V~) + (U~o K)(B V~o))_ij / kappa_nu, plus
    order 2's remainder at eta > 0, whose one gather serves kappa and every
    state (see _gathered_sums).
    """
    remainder, remainder_rows = _gathered_sums(decomp, states)
    kappa = decomp._pairings(remainder)
    del remainder  # d x d: freed before the rows are formed
    if np.min(np.abs(kappa)) < DEFAULT_TOL:
        raise ValueError("(P + DC) numerically singular on at least one P block")
    _, _, u_dual, v_dual = decomp.planes
    off_plane = decomp.off_plane
    ys = []
    for (k, b), rows in zip(states, remainder_rows):
        y = (k + u_dual @ k) @ b
        y += k @ (b @ v_dual)
        if off_plane is not None:
            off = (off_plane[2] @ k) @ (b @ off_plane[3])
            y += off if rows is None else off + rows
        y /= kappa
        ys.append(y)
    return ys


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
    """Kinetic coefficients c[i, j] = weight of P_nu Pi_nu rho on each dyad nu = (i, j).

    rho is a ket psi (1-d) standing for the pure state |psi><psi|, or a
    Hermitian PSD density matrix; either is projected as its free-frame
    factor pair (see state_factor), without forming a d x d state.
    Returned as a d x d matrix; each coefficient evolves alone,
    c[i, j](t) = e^{-i E[i, j] t} c[i, j](0). _project_frame gives the
    formula of each order.
    """
    basis = decomp.basis
    return _project_frame(decomp, [_free_pair(basis, state_factor(rho, basis.dim))])[0]


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
    """(coeff0, residual): rho0's kinetic coefficients c[i, j], and the operator-norm
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
    gap = lhs - np.exp(-1j * decomp.energies * t) * c0
    return c0, float(np.linalg.norm(gap, ord=2))

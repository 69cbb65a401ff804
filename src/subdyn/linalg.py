"""Dense complex linear algebra used by the rest of the package.

Everything operates on plain numpy arrays (complex128).
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

# Relative tolerance used by hermiticity / PSD / consistency checks.
DEFAULT_TOL = 1e-9
# Eigenvalues closer than this (times the matrix scale) count as degenerate.
DEGENERACY_TOL = 1e-8


class NonHermitianError(ValueError):
    """Matrix failed a hermiticity precondition."""


class DefectiveMatrixError(ValueError):
    """Eigenvector basis is numerically non-invertible."""


class NotPositiveSemidefiniteError(ValueError):
    """Matrix has a negative eigenvalue beyond tolerance."""


def as_complex_matrix(matrix, name: str = "matrix") -> np.ndarray:
    """Validate and return a square, finite, complex128 matrix.

    Parameters
    ----------
    matrix : array_like
        Square two-dimensional input.
    name : str
        Identifier used in error messages.

    Raises
    ------
    ValueError
        If the input is not square two-dimensional or has non-finite entries.
    """
    out = np.asarray(matrix, dtype=np.complex128)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {out.shape}")
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_ket(vector, dim: int) -> np.ndarray:
    """Validate and return a 1-d, finite, complex128 ket of length dim.

    Raises
    ------
    ValueError
        If the input is not 1-d of length dim or has non-finite entries.
    """
    ket = np.asarray(vector, dtype=np.complex128)
    if ket.shape != (dim,):
        raise ValueError(f"ket must have length {dim}, got shape {ket.shape}")
    if not np.all(np.isfinite(ket)):
        raise ValueError("ket contains non-finite entries")
    return ket


def norm_scale(matrix: np.ndarray) -> float:
    """Frobenius norm floored at 1, used to make tolerances relative."""
    return max(float(np.linalg.norm(matrix)), 1.0)


def is_hermitian(matrix: np.ndarray) -> bool:
    """True when ||M - M^dagger|| <= DEFAULT_TOL * scale(M)."""
    m = np.asarray(matrix)
    return float(np.linalg.norm(m - m.conj().T)) <= DEFAULT_TOL * norm_scale(m)


@dataclasses.dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition with explicit left and right eigenvectors.

    values are sorted ascending by (real, imag). right_vectors holds the
    right eigenvectors as columns, left_vectors the matching left
    eigenvectors as rows, normalized so left_vectors @ right_vectors = I.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    hermitian: bool


def tensor(*factors) -> np.ndarray:
    """Kronecker product of the given kets, bras or matrices, in argument order.

    The factors must all be 1-d or all 2-d. Each step of the left fold is
    the broadcast product numpy.kron forms, out[i, k, j, l] = a[i, j] * b[k, l]
    before the reshape, so the entries are bit-identical to a left-folded
    chain of numpy.kron, without its per-call shape handling.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        b = np.asarray(f, dtype=np.complex128)
        if b.ndim != out.ndim or b.ndim not in (1, 2):
            raise ValueError("tensor() factors must all be 1-d or all be 2-d, got "
                             f"{out.ndim}-d and {b.ndim}-d")
        if b.ndim == 1:
            out = (out[:, None] * b[None, :]).reshape(-1)
        else:
            (m, n), (p, q) = out.shape, b.shape
            out = (out.reshape(m, 1, n, 1) * b.reshape(1, p, 1, q)).reshape(m * p, n * q)
    return out


def components(matrix: np.ndarray) -> np.ndarray:
    """Connected components of the nonzero pattern of a square matrix.

    Returns labels[k], the smallest index of the component holding index
    k, where indices k and l are linked when M[k, l] or M[l, k] is nonzero.
    Each pass lowers every label to the label of that label (pointer
    jumping) and then to the least among its neighbours', so a component of
    diameter D settles in about log2(D) + 2 passes of O(d^2) each; a
    diagonal matrix needs none.
    """
    d = matrix.shape[0]
    linked = matrix != 0
    linked |= linked.T
    np.fill_diagonal(linked, True)
    if np.count_nonzero(linked) == d:
        return np.arange(d)
    labels = linked.argmax(axis=1)  # the first pass from labels = arange(d)
    while True:
        lowered = labels[labels]
        lowered = np.where(linked, lowered, d).min(axis=1)
        if lowered.tolist() == labels.tolist():
            return labels
        labels = lowered


def _check_basis(sigma_max: float, sigma_min: float) -> None:
    """Refuse a right-eigenvector basis whose condition number exceeds 1 / DEFAULT_TOL.

    Left eigenvectors are the rows of the basis's inverse, biorthonormal by
    construction, so a singular right basis is what "defective" means here.
    """
    cond = sigma_max / sigma_min if sigma_min > 0.0 else np.inf
    if not np.isfinite(cond) or cond > 1.0 / DEFAULT_TOL:
        raise DefectiveMatrixError(
            f"eigenvector basis is numerically defective (condition estimate {cond:.3e})")


def _size_groups(labels: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(singles, groups) of the components that labels (see components) names.

    singles lists the indices of the components of one index; groups holds,
    for each larger component size s, a (k, s) array of the indices of its
    k components, each row in index order.
    """
    d = labels.shape[0]
    size = np.bincount(labels, minlength=d)[labels]
    # grouped by component size, then component, then index
    grouped = np.argsort(size * d + labels, kind="stable")
    size = size[grouped].tolist()
    start = bisect.bisect_right(size, 1)
    singles, groups = grouped[:start], []
    while start < d:
        s = size[start]
        stop = bisect.bisect_right(size, s, start)
        groups.append(grouped[start:stop].reshape(-1, s))
        start = stop
    return singles, groups


def _eig_blocks(m: np.ndarray, labels: np.ndarray, hermitian: bool):
    """(values, right, left) of m from one decomposition per component, unsorted.

    Components of equal size go through one batched LAPACK call; a
    component of one index is its own eigenpair, with no call. Eigenpair k
    of a component sits at the component's k-th index, so right and left
    are block diagonal in m's own pattern. The general path's condition
    number is that of the assembled basis: the largest singular value over
    every block over the smallest. left is None on the Hermitian path.
    """
    d = m.shape[0]
    singles, groups = _size_groups(labels)
    values = m.diagonal().copy()
    right = np.zeros((d, d), dtype=np.complex128)
    right[singles, singles] = 1.0
    bases = []  # (rows, cols, right vectors) of every block of the general path
    for idx in groups:
        rows, cols = idx[:, :, None], idx[:, None, :]
        if hermitian:
            w, v = np.linalg.eigh(m[rows, cols])
        else:
            w, v = np.linalg.eig(m[rows, cols])
            bases.append((rows, cols, v))
        values[idx] = w
        right[rows, cols] = v
    if hermitian:
        return values, right, None
    sigmas = [np.linalg.svd(v, compute_uv=False) for _, _, v in bases]
    if singles.size:
        sigmas.append(np.ones(1))  # a singleton's basis is [1]
    _check_basis(max(float(s.max()) for s in sigmas), min(float(s.min()) for s in sigmas))
    left = np.zeros((d, d), dtype=np.complex128)
    left[singles, singles] = 1.0
    for rows, cols, v in bases:
        left[rows, cols] = np.linalg.inv(v)
    return values, right, left


def eig(matrix) -> EigenSystem:
    """Full eigendecomposition with biorthonormal left/right vectors.

    The matrix's nonzero pattern is split into its connected components (see
    components) and each is decomposed on its own (_eig_blocks), so the
    eigenvectors carry exact zeros outside their own component; a matrix of
    one component is one group of one block. Hermiticity is detected with
    is_hermitian, at the relative tolerance DEFAULT_TOL; the general path
    flags the eigenvector basis as defective when its condition number
    exceeds 1 / DEFAULT_TOL.

    Returns
    -------
    EigenSystem
        Sorted ascending by (real, imag), ties in index order of the
        components; left_vectors @ right_vectors = I.

    Raises
    ------
    DefectiveMatrixError
        The right-eigenvector basis is numerically singular.
    """
    m = as_complex_matrix(matrix)
    hermitian = is_hermitian(m)
    values, right, left = _eig_blocks(m, components(m), hermitian)
    if hermitian:
        values = values.real.astype(np.complex128)
    order = np.lexsort((values.imag, values.real))
    right = right[:, order]
    left = right.conj().T if hermitian else left[order, :]
    return EigenSystem(values=values[order], right_vectors=right, left_vectors=left,
                       hermitian=hermitian)


# Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179: the largest 1-norm at
# which the [13/13] Pade approximant of e^A meets double precision, and the
# approximant's coefficients b_0 .. b_13.
_PADE_THETA = 5.371920351148152e0
_PADE_COEFFS = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                1187353796428800.0, 129060195264000.0, 10559470521600.0,
                670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
                16380.0, 182.0, 1.0)


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """e^A of each matrix of a stack, by scaling and squaring (Higham 2005).

    The [13/13] approximant serves every norm: the whole stack is scaled by
    2^-s, with s = max(0, ceil(log2(||A||_1 / theta_13))) for its largest
    1-norm, and the result squared s times. The approximant is
    (V - U)^-1 (V + U), with U = A W the odd part and W, V polynomials in
    A^2: one product of their coefficient rows with the stacked even powers
    (I, A^2, A^4, A^6) forms their low terms, and the coefficients of
    A^8 .. A^12 multiply (A^2, A^4, A^6) and then A^6.
    """
    norm = float(np.abs(a).sum(axis=-2).max())
    squarings = math.ceil(math.log2(norm / _PADE_THETA)) if norm > _PADE_THETA else 0
    a = a * 2.0 ** -squarings
    b = _PADE_COEFFS
    powers = np.empty((4, *a.shape), dtype=np.complex128)
    powers[0] = np.eye(a.shape[-1])
    np.matmul(a, a, out=powers[1])
    for k in (2, 3):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    flat = powers.reshape(4, -1)
    wv = (np.array([b[1:8:2], b[0:8:2]]) @ flat).reshape(2, *a.shape)
    high = (np.array([b[9::2], b[8::2]]) @ flat[1:]).reshape(2, *a.shape)
    wv += powers[3] @ high
    w, v = wv
    u = a @ w
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def expm(matrix) -> np.ndarray:
    """Matrix exponential e^M, block by block over the components of M.

    M's nonzero pattern is split into connected components (see components),
    as eig splits it, and e^M is block diagonal in that pattern. Components
    of equal size go through one batched call of the [13/13] Pade
    approximant with scaling and squaring (_pade_expm); a component of one
    index is the scalar e^{M_kk}.
    """
    m = as_complex_matrix(matrix)
    singles, groups = _size_groups(components(m))
    out = np.zeros(m.shape, dtype=np.complex128)
    out[singles, singles] = np.exp(m[singles, singles])
    for idx in groups:
        rows, cols = idx[:, :, None], idx[:, None, :]
        out[rows, cols] = _pade_expm(m[rows, cols])
    return out


def _assignment(cost: list[list[float]]) -> list[int]:
    """Column assigned to each row of a square cost matrix, minimising the total.

    Shortest augmenting paths with dual potentials (Jonker-Volgenant, in
    the form of Crouse, IEEE Trans. Aerosp. Electron. Syst. 52 (2016) 1679):
    each row in turn grows a shortest path in reduced costs to a free column
    and the matching is flipped along it. Columns are scanned from the last,
    and among equal path lengths a free column wins, so a tie resolves the
    same way on every run.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows_seen, cols_seen = [cur], []
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            index, lowest = -1, math.inf
            row = cost[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
                rows_seen.append(i)
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def max_overlap_matching(overlap: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """perm, with perm[i] the column matched to row i, maximising sum_i overlap[i, perm[i]].

    overlap is nonnegative and, as the eigenvectors of matrix from eig are,
    zero between the connected components of matrix's pattern (see
    components), so the matching splits over them. Where the row argmaxes
    of a component are distinct columns they are its optimum, as no match
    can beat every row's maximum. A component whose argmaxes collide is
    solved as an assignment (_assignment) over its rows and the columns
    whose largest entry lies in it.
    """
    perm = overlap.argmax(axis=1)
    taken = np.bincount(perm, minlength=perm.shape[0])
    if taken.max() == 1:
        return perm
    labels = components(matrix)
    col_labels = labels[overlap.argmax(axis=0)]
    for label in np.unique(labels[taken[perm] > 1]).tolist():
        rows = np.flatnonzero(labels == label)
        cols = np.flatnonzero(col_labels == label)
        cost = (-overlap[rows[:, None], cols]).tolist()
        perm[rows] = cols[_assignment(cost)]
    return perm


def psd_factor(matrix) -> np.ndarray:
    """Factor U with U U^dagger = M for a Hermitian PSD matrix M, via one eigh.

    U has one column sqrt(w_k) v_k per eigenvalue w_k above
    d * eps * max|w|, the numerical rank of numpy.linalg.matrix_rank, so a
    pure state gives a d x 1 factor. Eigenvalues in [-DEFAULT_TOL * scale, 0)
    count as zero; anything more negative raises NotPositiveSemidefiniteError.
    A zero row and column of M is a zero row of U, so the eigh reads only
    the other rows and columns, and U is exactly zero on those levels.
    """
    m = as_complex_matrix(matrix)
    if not is_hermitian(m):
        raise NonHermitianError("psd_factor expects a Hermitian matrix")
    live = np.flatnonzero(m.any(axis=0) | m.any(axis=1))
    values, vectors = np.linalg.eigh(m[np.ix_(live, live)])
    floor = -DEFAULT_TOL * norm_scale(m)
    if values.min(initial=0.0) < floor:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {values.min():.3e} below PSD tolerance {floor:.3e}")
    cutoff = m.shape[0] * np.finfo(np.float64).eps * np.max(np.abs(values), initial=0.0)
    keep = values > cutoff
    factor = np.zeros((m.shape[0], np.count_nonzero(keep)), dtype=np.complex128)
    factor[live] = vectors[:, keep] * np.sqrt(values[keep])
    return factor


"""Dense complex linear algebra used by the rest of the package.

Everything operates on plain numpy arrays (complex128). Vectorization uses
the column-stacking convention, vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

import bisect
import dataclasses

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


def eigen_sort_order(values: np.ndarray) -> np.ndarray:
    """Index order sorting eigenvalues ascending by (real, imag)."""
    return np.lexsort((values.imag, values.real))


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


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix, dtype=np.complex128).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec for a dim x dim matrix."""
    v = np.asarray(vector, dtype=np.complex128).ravel()
    if dim * dim != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((dim, dim), order="F")


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
    if not labels.any():  # every index linked to index 0
        return labels
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
    size = np.bincount(labels, minlength=d)[labels]
    if size.max() == 1:  # diagonal
        identity = np.eye(d, dtype=np.complex128)
        return m.diagonal().copy(), identity, None if hermitian else identity
    # grouped by component size, then component, then index
    grouped = np.argsort(size * d + labels, kind="stable")
    size = size[grouped].tolist()
    values = m.diagonal().copy()
    right = np.zeros((d, d), dtype=np.complex128)
    singles = grouped[: bisect.bisect_right(size, 1)]
    if singles.size:
        right[singles, singles] = 1.0
    bases = []  # (rows, cols, right vectors) of every block of the general path
    start = singles.size
    while start < d:
        s = size[start]
        stop = bisect.bisect_right(size, s, start)
        idx = grouped[start:stop].reshape(-1, s)
        rows, cols = idx[:, :, None], idx[:, None, :]
        if hermitian:
            w, v = np.linalg.eigh(m[rows, cols])
        else:
            w, v = np.linalg.eig(m[rows, cols])
            bases.append((rows, cols, v))
        values[idx] = w
        right[rows, cols] = v
        start = stop
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


def eig(matrix, hermitian: bool | None = None) -> EigenSystem:
    """Full eigendecomposition with biorthonormal left/right vectors.

    A matrix whose nonzero pattern splits into several connected components
    (see components) is decomposed block by block and reassembled, so its
    eigenvectors carry exact zeros outside their own component; a matrix of
    one component takes one LAPACK call on the whole.

    Parameters
    ----------
    matrix : array_like
        Square matrix to decompose.
    hermitian : bool, optional
        Force the Hermitian (True) or general (False) path. None detects
        hermiticity with is_hermitian, at the relative tolerance DEFAULT_TOL.
        The general path flags the eigenvector basis as defective when its
        condition number exceeds 1 / DEFAULT_TOL.

    Returns
    -------
    EigenSystem
        Sorted ascending by (real, imag), ties in index order of the
        components; left_vectors @ right_vectors = I.

    Raises
    ------
    NonHermitianError
        hermitian=True was requested but the matrix is not Hermitian.
    DefectiveMatrixError
        The right-eigenvector basis is numerically singular.
    """
    m = as_complex_matrix(matrix)
    if hermitian is None:
        hermitian = is_hermitian(m)
    elif hermitian and not is_hermitian(m):
        dev = float(np.linalg.norm(m - m.conj().T)) / norm_scale(m)
        raise NonHermitianError(f"hermitian path requested but relative deviation is {dev:.3e}")
    labels = components(m)
    if labels.any():
        values, right, left = _eig_blocks(m, labels, hermitian)
        if hermitian:
            values = values.real.astype(np.complex128)
        order = eigen_sort_order(values)
        right = right[:, order]
        left = right.conj().T if hermitian else left[order, :]
        return EigenSystem(values=values[order], right_vectors=right, left_vectors=left,
                           hermitian=hermitian)
    if hermitian:
        values, vectors = np.linalg.eigh(m)
        order = eigen_sort_order(values.astype(np.complex128))
        values = values[order].astype(np.complex128)
        vectors = vectors[:, order]
        return EigenSystem(values=values, right_vectors=vectors,
                           left_vectors=vectors.conj().T, hermitian=True)

    values, right = np.linalg.eig(m)
    order = eigen_sort_order(values)
    values = values[order]
    right = right[:, order]
    sv = np.linalg.svd(right, compute_uv=False)
    _check_basis(float(sv[0]), float(sv[-1]))
    left = np.linalg.inv(right)
    return EigenSystem(values=values, right_vectors=right, left_vectors=left, hermitian=False)


def psd_factor(matrix) -> np.ndarray:
    """Factor U with U U^dagger = M for a Hermitian PSD matrix M, via one eigh.

    U has one column sqrt(w_k) v_k per eigenvalue w_k above
    d * eps * max|w|, the numerical rank of numpy.linalg.matrix_rank, so a
    pure state gives a d x 1 factor. Eigenvalues in [-DEFAULT_TOL * scale, 0)
    count as zero; anything more negative raises NotPositiveSemidefiniteError.
    """
    m = as_complex_matrix(matrix)
    if not is_hermitian(m):
        raise NonHermitianError("psd_factor expects a Hermitian matrix")
    values, vectors = np.linalg.eigh(m)
    floor = -DEFAULT_TOL * norm_scale(m)
    if values.min(initial=0.0) < floor:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {values.min():.3e} below PSD tolerance {floor:.3e}")
    cutoff = m.shape[0] * np.finfo(np.float64).eps * np.max(np.abs(values), initial=0.0)
    keep = values > cutoff
    return vectors[:, keep] * np.sqrt(values[keep])


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix (Hermitian, positive, unit trace)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


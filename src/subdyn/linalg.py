"""Dense complex linear algebra used by the rest of the package.

Everything operates on plain numpy arrays (complex128). Vectorization uses
the column-stacking convention, vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

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


def eig(matrix, hermitian: bool | None = None) -> EigenSystem:
    """Full eigendecomposition with biorthonormal left/right vectors.

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
        Sorted ascending by (real, imag); left_vectors @ right_vectors = I.

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
    if hermitian:
        values, vectors = np.linalg.eigh(m)
        order = eigen_sort_order(values.astype(np.complex128))
        values = values[order].astype(np.complex128)
        vectors = vectors[:, order]
        return EigenSystem(values=values, right_vectors=vectors,
                           left_vectors=vectors.conj().T, hermitian=True)

    values, right = scipy.linalg.eig(m)
    order = eigen_sort_order(values)
    values = values[order]
    right = right[:, order]
    # Left eigenvectors as rows of the inverse: exact biorthonormality by
    # construction, and a singular right basis is what "defective" means here.
    cond = np.linalg.cond(right)
    if not np.isfinite(cond) or cond > 1.0 / DEFAULT_TOL:
        raise DefectiveMatrixError(
            f"eigenvector basis is numerically defective (condition estimate {cond:.3e})")
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


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix (Hermitian, positive, unit trace)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


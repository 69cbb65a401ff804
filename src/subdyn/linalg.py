"""Dense complex linear algebra used by the rest of the package.

Everything operates on plain numpy arrays (complex128). Superoperators use
the column-stacking convention, vec(A X B) = (B^T kron A) vec(X), so the
commutator map [H, .] becomes I kron H - H^T kron I.
"""

from __future__ import annotations

import dataclasses
import math

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


def is_hermitian(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when ||M - M^dagger|| <= tol * scale(M)."""
    m = np.asarray(matrix)
    return float(np.linalg.norm(m - m.conj().T)) <= tol * norm_scale(m)


@dataclasses.dataclass(frozen=True)
class TensorSpace:
    """Ordered tensor-factor structure of a Hilbert space.

    factors holds (label, dimension) pairs in kron order; labels must be
    unique so subsystems can be addressed by name.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        for label, dim in self.factors:
            if dim < 1:
                raise ValueError(f"factor {label!r} has non-positive dimension {dim}")

    @property
    def dim(self) -> int:
        out = 1
        for _, d in self.factors:
            out *= d
        return out

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.factors)

    def dim_of(self, label: str) -> int:
        for name, d in self.factors:
            if name == label:
                return d
        raise KeyError(f"no factor labelled {label!r}")


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

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return sum_i values[i] * |r_i><l_i| as a dense matrix."""
        return (self.right_vectors * self.values) @ self.left_vectors


def eigen_sort_order(values: np.ndarray) -> np.ndarray:
    """Index order sorting eigenvalues ascending by (real, imag)."""
    return np.lexsort((values.imag, values.real))


def tensor(*factors) -> np.ndarray:
    """Kronecker product of the given matrices, in argument order."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=np.complex128))
    return out


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix, dtype=np.complex128).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of vec; dim defaults to sqrt of the length."""
    v = np.asarray(vector, dtype=np.complex128).ravel()
    if dim is None:
        dim = math.isqrt(v.size)
    if dim * dim != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((dim, dim), order="F")


def commutator_superop(hamiltonian) -> np.ndarray:
    """Superoperator of X -> [H, X] under column stacking.

    Returns I kron H - H^T kron I, a d^2 x d^2 dense matrix. Hermitian H
    gives a Hermitian superoperator with spectrum {e_i - e_j}.
    """
    h = as_complex_matrix(hamiltonian, "hamiltonian")
    d = h.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    return np.kron(eye, h) - np.kron(h.T, eye)


def eig(matrix, hermitian: bool | None = None, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Full eigendecomposition with biorthonormal left/right vectors.

    Parameters
    ----------
    matrix : array_like
        Square matrix to decompose.
    hermitian : bool, optional
        Force the Hermitian (True) or general (False) path. None detects
        hermiticity at tolerance `tol`.
    tol : float
        Relative tolerance for the hermiticity check and for flagging a
        defective eigenvector basis.

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
        hermitian = is_hermitian(m, tol)
    if hermitian:
        if not is_hermitian(m, tol):
            dev = float(np.linalg.norm(m - m.conj().T)) / norm_scale(m)
            raise NonHermitianError(f"hermitian path requested but relative deviation is {dev:.3e}")
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
    if not np.isfinite(cond) or cond > 1.0 / max(tol, 1e-300):
        raise DefectiveMatrixError(
            f"eigenvector basis is numerically defective (condition estimate {cond:.3e})")
    left = np.linalg.inv(right)
    return EigenSystem(values=values, right_vectors=right, left_vectors=left, hermitian=False)


def degenerate_groups(values: np.ndarray, scale: float, tol: float = DEGENERACY_TOL) -> list[list[int]]:
    """Group indices of (real,imag)-sorted eigenvalues within tol * scale.

    Greedy chaining on the sorted sequence; adequate for the cluster sizes
    met here (exact coincidences plus well-separated bands).
    """
    threshold = tol * max(scale, 1.0)
    groups: list[list[int]] = []
    for idx in eigen_sort_order(np.asarray(values, dtype=np.complex128)):
        if groups and abs(values[idx] - values[groups[-1][-1]]) <= threshold:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return groups


def sqrtm_psd(matrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root via eigh.

    Eigenvalues in [-tol * scale, 0) are clipped to zero; anything more
    negative raises NotPositiveSemidefiniteError.
    """
    m = as_complex_matrix(matrix)
    if not is_hermitian(m, tol):
        raise NonHermitianError("sqrtm_psd expects a Hermitian matrix")
    values, vectors = np.linalg.eigh(m)
    floor = -tol * norm_scale(m)
    if values.min(initial=0.0) < floor:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {values.min():.3e} below PSD tolerance {floor:.3e}")
    clipped = np.clip(values, 0.0, None)
    return (vectors * np.sqrt(clipped)) @ vectors.conj().T


def expm_action(matrix, t: float, vector: np.ndarray) -> np.ndarray:
    """Apply the propagator e^{-i M t} to a vector.

    Hermitian M goes through one eigh call; the general case falls back to
    scipy's scaling-and-squaring expm.
    """
    m = as_complex_matrix(matrix)
    v = np.asarray(vector, dtype=np.complex128).ravel()
    if v.size != m.shape[0]:
        raise ValueError(f"vector length {v.size} does not match matrix dimension {m.shape[0]}")
    if is_hermitian(m):
        values, vectors = np.linalg.eigh(m)
        return vectors @ (np.exp(-1j * values * t) * (vectors.conj().T @ v))
    return scipy.linalg.expm(-1j * t * m) @ v


def propagator(matrix, t: float) -> np.ndarray:
    """Dense e^{-i M t}; same branch selection as expm_action."""
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


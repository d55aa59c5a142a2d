"""Dense complex linear algebra for small Hilbert spaces.

State vectors are 1-D complex ndarrays of probability amplitudes; operators
are square complex ndarrays. Functions never mutate their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, InputError, NonHermitianError

# Dense operators: a scenario file at this dimension runs `simulate --out`
# in ~3 s and 123 MB on a 2-core Xeon (10 s / 2 GB budget); at 1024 it took
# 12 s, mostly parsing and writing the operator as text.
MAX_DIM = 512

HERMITIAN_TOL = 1e-10
DEGENERACY_TOL = 1e-10
NORMALIZATION_TOL = 1e-10
PHASE_TOL = 1e-12


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-D complex amplitude vector."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatchError(
            f"expected a 1-D amplitude vector of dimension >= 1, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise InputError("amplitude vector contains NaN or Inf entries")
    return arr


def require_state(v, dim: int | None = None, label: str = "system") -> np.ndarray:
    """Return v as an amplitude vector; raise DimensionMismatchError if its
    dimension is not ``dim`` (when given) and InputError if its norm departs
    from 1 by more than NORMALIZATION_TOL."""
    v = as_vector(v)
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"{label} state has dimension {v.size}, expected {dim}")
    defect = abs(np.vdot(v, v).real ** 0.5 - 1.0)
    if defect > NORMALIZATION_TOL:
        raise InputError(f"{label} state is not normalized: |norm - 1| = {defect:.3e}")
    return v


def as_operator(m) -> np.ndarray:
    """Coerce to a finite square complex matrix of supported dimension."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square operator matrix, got shape {arr.shape}")
    if arr.shape[0] > MAX_DIM:
        raise DimensionMismatchError(
            f"operator dimension {arr.shape[0]} exceeds the supported cap {MAX_DIM}"
        )
    if not np.isfinite(arr).all():
        raise InputError("operator matrix contains NaN or Inf entries")
    return arr


def require_hermitian(m) -> np.ndarray:
    """Return m as an operator; raise NonHermitianError if max |M - M^dagger|
    exceeds HERMITIAN_TOL."""
    m = as_operator(m)
    defect = float(np.abs(m - m.conj().T).max())
    if defect > HERMITIAN_TOL:
        raise NonHermitianError(f"max |M - M^dagger| = {defect:.3e} exceeds {HERMITIAN_TOL:.1e}")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and ascending; column k of ``eigenvectors`` is the
    unit eigenvector for ``eigenvalues[k]``, with its first component larger
    than ``PHASE_TOL`` in magnitude made real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def clusters(self) -> list[tuple[float, np.ndarray]]:
        """Group indices of degenerate eigenvalues.

        Consecutive eigenvalues closer than DEGENERACY_TOL are chained into one
        cluster. Returns ``(value, indices)`` pairs in ascending order,
        where ``value`` is the cluster mean.
        """
        values = self.eigenvalues
        out: list[tuple[float, np.ndarray]] = []
        start = 0
        for k in range(1, values.size + 1):
            if k == values.size or values[k] - values[k - 1] > DEGENERACY_TOL:
                out.append((float(values[start:k].mean()), np.arange(start, k)))
                start = k
        return out


def _phase_normalize(vectors: np.ndarray) -> np.ndarray:
    """Fix the global phase of each unit column: first component with
    magnitude above PHASE_TOL (one exists, since dim <= MAX_DIM) is made
    real positive."""
    first = np.argmax(np.abs(vectors) > PHASE_TOL, axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    return vectors * (lead.conj() / np.abs(lead))


def eig_hermitian(m) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix.

    A matrix whose off-diagonal entries are all exactly zero is read off
    directly: the real parts of its diagonal in stable ascending order, with
    the matching identity columns as eigenvectors. Any other matrix goes to
    numpy.linalg.eigh (LAPACK); a LAPACK failure raises ConvergenceError.

    Returns
    -------
    EigenDecomposition
        Ascending real eigenvalues and a unitary matrix of column
        eigenvectors satisfying m = V diag(w) V^dagger.
    """
    m = require_hermitian(m)
    n = m.shape[0]
    diagonal = m.diagonal()
    if np.count_nonzero(m) == np.count_nonzero(diagonal):
        order = np.argsort(diagonal.real, kind="stable")
        eigenvalues = diagonal.real[order]
        eigenvectors = np.zeros((n, n), dtype=complex)
        eigenvectors[order, np.arange(n)] = 1.0
    else:
        try:
            eigenvalues, eigenvectors = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc
        eigenvectors = _phase_normalize(eigenvectors)
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)

"""Two-state algebra: weak values, expectation values, outcome probabilities.

A pre- and post-selected system is described by the pair (pre, post): the
state the system was prepared in and the state it was later found in. The
conditional first-order response of any probe coupled to an observable in
between is governed by the weak value

    wv(O) = <post|O|pre> / <post|pre>,

a complex number that is not confined to the spectrum of O.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, OrthogonalSelectionError

ORTHOGONALITY_TOL = 1e-12


@dataclass(frozen=True)
class TwoStateVector:
    """A normalized pre-selected ket and post-selected ket of equal dimension.

    ``post`` is stored as a ket and conjugated wherever a bra is required,
    so ``overlap`` is <post|pre> = sum_k conj(post_k) pre_k. Construction
    fails for orthogonal pairs: every conditional quantity divides by this
    overlap.
    """

    pre: np.ndarray
    post: np.ndarray
    overlap: complex = field(init=False)

    def __post_init__(self) -> None:
        pre = linalg.require_state(self.pre, label="pre-selected").copy()
        post = linalg.require_state(self.post, pre.size, "post-selected").copy()
        overlap = complex(np.vdot(post, pre))
        if abs(overlap) <= ORTHOGONALITY_TOL:
            raise OrthogonalSelectionError(
                f"pre- and post-selected states are orthogonal: |<post|pre>| = {abs(overlap):.3e}"
            )
        pre.setflags(write=False)
        post.setflags(write=False)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)
        object.__setattr__(self, "overlap", overlap)

    @property
    def dim(self) -> int:
        return self.pre.size


def weak_value(operator, tsv: TwoStateVector) -> complex:
    """Weak value of a Hermitian observable between pre- and post-selection.

    Parameters
    ----------
    operator : array_like
        Hermitian matrix acting on the system space.
    tsv : TwoStateVector
        The selection pair.

    Returns
    -------
    complex
        <post|operator|pre> / <post|pre>, unclamped: anomalous values far
        outside the operator's spectrum are legitimate results.
    """
    op = linalg.require_hermitian(operator)
    if op.shape[0] != tsv.dim:
        raise DimensionMismatchError(
            f"operator dimension {op.shape[0]} does not match states of dimension {tsv.dim}"
        )
    return complex(np.vdot(tsv.post, op @ tsv.pre)) / tsv.overlap


def expectation(operator, psi) -> float:
    """Ordinary expectation value <psi|operator|psi> for a normalized state."""
    op = linalg.require_hermitian(operator)
    psi = linalg.require_state(psi, op.shape[0], "input")
    value = complex(np.vdot(psi, op @ psi))
    return float(value.real)


def eigen_probabilities(operator, psi) -> list[tuple[float, float]]:
    """Outcome distribution of an ideal projective measurement on ``psi``.

    Degenerate eigenvalues are merged into one outcome whose probability is
    the squared norm of the projection onto the whole eigenspace. Returns
    (eigenvalue, probability) pairs in ascending eigenvalue order; the
    probabilities sum to 1.
    """
    eig = linalg.eig_hermitian(operator)
    psi = linalg.require_state(psi, eig.dim, "input")
    amplitudes = eig.eigenvectors.conj().T @ psi
    weights = np.abs(amplitudes) ** 2
    return [(value, float(weights[idx].sum())) for value, idx in eig.clusters()]

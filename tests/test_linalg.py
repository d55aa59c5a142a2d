import numpy as np
import pytest

from weakmeas import linalg
from weakmeas.errors import ConvergenceError, DimensionMismatchError, InputError, NonHermitianError

from oracles import random_hermitian


def test_pauli_eigensystem():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    eig = linalg.eig_hermitian(sx)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)
    for k in range(2):
        v = eig.eigenvectors[:, k]
        assert np.allclose(sx @ v, eig.eigenvalues[k] * v, atol=1e-13)
    # with the leading-component phase convention the vectors are (1, -+1)/sqrt(2)
    root_half = 1.0 / np.sqrt(2.0)
    assert np.allclose(eig.eigenvectors[:, 0], [root_half, -root_half], atol=1e-12)
    assert np.allclose(eig.eigenvectors[:, 1], [root_half, root_half], atol=1e-12)


def test_diagonal_passthrough():
    eig = linalg.eig_hermitian(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(eig.eigenvalues, [-1.0, 2.0, 3.0], atol=1e-14)
    assert eig.dim == 3


def test_random_hermitian_matches_numpy():
    rng = np.random.default_rng(2026)
    for _ in range(150):
        dim = int(rng.integers(2, 9))
        m = random_hermitian(rng, dim, scale=float(rng.uniform(0.1, 10.0)))
        eig = linalg.eig_hermitian(m)
        scale = max(1.0, float(np.linalg.norm(m)))
        # reconstruction, eigen-equation, and orthonormality
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - m)) <= 1e-10 * scale
        assert np.allclose(m @ eig.eigenvectors, eig.eigenvectors * eig.eigenvalues,
                           atol=1e-9 * scale)
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
        # ascending and equal to the reference spectrum
        assert np.all(np.diff(eig.eigenvalues) >= -1e-12 * scale)
        assert np.allclose(eig.eigenvalues, np.linalg.eigvalsh(m), atol=1e-9 * scale)


def test_large_matrix_converges():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 64)
    eig = linalg.eig_hermitian(m)
    assert np.allclose(eig.eigenvalues, np.linalg.eigvalsh(m), atol=1e-8)


def test_phase_convention_first_component_real():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 5)
    eig = linalg.eig_hermitian(m)
    for k in range(5):
        v = eig.eigenvectors[:, k]
        lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        assert abs(lead.imag) <= 1e-10
        assert lead.real > 0


def test_degenerate_clusters():
    eig = linalg.eig_hermitian(np.diag([1.0, 1.0, 0.0]))
    clusters = eig.clusters()
    assert len(clusters) == 2
    value0, idx0 = clusters[0]
    value1, idx1 = clusters[1]
    assert value0 == pytest.approx(0.0, abs=1e-14)
    assert len(idx0) == 1
    assert value1 == pytest.approx(1.0, abs=1e-14)
    assert len(idx1) == 2


def test_cluster_chaining_merges_near_ties():
    eig = linalg.EigenDecomposition(
        eigenvalues=np.array([0.0, 0.4e-10, 1.0]),
        eigenvectors=np.eye(3, dtype=complex),
    )
    clusters = eig.clusters()
    assert [len(idx) for _, idx in clusters] == [2, 1]


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianError):
        linalg.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonHermitianError):
        linalg.eig_hermitian(np.array([[0.0, 1e-3], [0.0, 0.0]]))


def test_hermitian_check_binds_at_the_tolerance(monkeypatch):
    # One entry breaks Hermiticity, in the last row or column or below the
    # diagonal; the check reports max |M - M^dagger|, accepts it at a
    # HERMITIAN_TOL equal to the defect and rejects it one ulp below.
    rng = np.random.default_rng(11)
    dim = 300
    base = random_hermitian(rng, dim)
    for i, j in ((dim - 3, dim - 10), (dim - 2, 5), (7, dim - 1)):
        m = base.copy()
        m[i, j] += 1e-6 + 2e-7j
        defect = float(np.abs(m - m.conj().T).max())
        with pytest.raises(NonHermitianError, match=f"= {defect:.3e} exceeds"):
            linalg.require_hermitian(m)
        monkeypatch.setattr(linalg, "HERMITIAN_TOL", defect)
        linalg.require_hermitian(m)
        monkeypatch.setattr(linalg, "HERMITIAN_TOL", float(np.nextafter(defect, 0.0)))
        with pytest.raises(NonHermitianError):
            linalg.require_hermitian(m)
        monkeypatch.undo()


def test_hermitian_tolerance_allows_roundoff():
    m = np.array([[1.0, 0.5 + 1e-13j], [0.5 - 1.2e-13j, 2.0]])
    out = linalg.require_hermitian(m)
    assert np.allclose(out, out.conj().T, atol=0)


def test_dimension_checks():
    with pytest.raises(DimensionMismatchError, match="dimension 3, expected 2"):
        linalg.require_state(np.ones(3) / np.sqrt(3.0), 2)
    with pytest.raises(InputError):
        linalg.as_operator(np.ones((2, 3)))
    with pytest.raises(InputError):
        linalg.as_vector(np.ones((2, 2)))


def test_nan_entries_rejected():
    with pytest.raises(InputError, match="NaN or Inf"):
        linalg.require_state(np.array([1.0, np.nan]))
    with pytest.raises(InputError, match="NaN or Inf"):
        linalg.require_hermitian(np.array([[1.0, np.nan], [np.nan, 0.0]]))


def test_lapack_failure_raises_convergence_error(monkeypatch):
    def failing_eigh(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(ConvergenceError):
        linalg.eig_hermitian(random_hermitian(np.random.default_rng(3), 16))


def test_diagonal_operator_read_off_exactly():
    eig = linalg.eig_hermitian(np.diag([1.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(eig.eigenvalues, [0.0, 0.0, 1.0, 1.0])
    assert np.array_equal(eig.eigenvectors, np.eye(4)[:, [1, 3, 0, 2]])


def test_degenerate_dense_operator_conventions():
    rng = np.random.default_rng(19)
    unitary, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    m = (unitary * np.array([-1.0, 2.0, 2.0, 2.0, 0.5])) @ unitary.conj().T
    m = 0.5 * (m + m.conj().T)
    eig = linalg.eig_hermitian(m)
    v = eig.eigenvectors
    assert np.max(np.abs((v * eig.eigenvalues) @ v.conj().T - m)) <= 1e-12
    assert np.max(np.abs(v.conj().T @ v - np.eye(5))) <= 1e-12
    for k in range(5):
        lead = v[np.flatnonzero(np.abs(v[:, k]) > linalg.PHASE_TOL)[0], k]
        assert abs(lead.imag) <= 1e-15
        assert lead.real > 0.0
    assert [len(idx) for _, idx in eig.clusters()] == [1, 1, 3]

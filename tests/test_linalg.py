import tracemalloc

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


def test_inner_product_basics():
    assert linalg.inner_product([1, 0], [1, 0]) == pytest.approx(1.0)
    assert linalg.inner_product([1, 0], [0, 1]) == pytest.approx(0.0)
    half = np.array([1.0, 1.0]) / np.sqrt(2)
    anti = np.array([1.0, -1.0]) / np.sqrt(2)
    assert linalg.inner_product(half, anti) == pytest.approx(0.0, abs=1e-15)


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(41)
    for _ in range(100):
        dim = int(rng.integers(1, 8))
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        lhs = linalg.inner_product(a, b)
        rhs = np.conj(linalg.inner_product(b, a))
        assert abs(lhs - rhs) <= 1e-15 * max(1.0, abs(lhs))


def test_apply_examples_and_linearity():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    assert np.allclose(linalg.apply(np.eye(2), v), v)
    assert np.allclose(linalg.apply(np.diag([1.0, -1.0]), v), [v[0], -v[1]])
    rng = np.random.default_rng(43)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        lhs = linalg.apply(a + b, x)
        rhs = linalg.apply(a, x) + linalg.apply(b, x)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, float(np.max(np.abs(lhs)))))


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


def test_tiled_hermitian_check_reports_untiled_defect():
    # One entry breaks Hermiticity, in the last (partial) tile row or column
    # or below the diagonal; the tiled maximum equals the untiled formula's.
    rng = np.random.default_rng(11)
    dim = linalg.HERMITIAN_TILE + 44
    base = random_hermitian(rng, dim)
    for i, j in ((dim - 3, dim - 10), (dim - 2, 5), (7, dim - 1)):
        m = base.copy()
        m[i, j] += 1e-6 + 2e-7j
        defect = float(np.abs(m - m.conj().T).max())
        with pytest.raises(NonHermitianError, match=f"= {defect:.3e} exceeds"):
            linalg.require_hermitian(m)
        linalg.require_hermitian(m, tol=defect)
        with pytest.raises(NonHermitianError):
            linalg.require_hermitian(m, tol=float(np.nextafter(defect, 0.0)))


def test_hermitian_tolerance_allows_roundoff():
    m = np.array([[1.0, 0.5 + 1e-13j], [0.5 - 1.2e-13j, 2.0]])
    out = linalg.require_hermitian(m)
    assert np.allclose(out, out.conj().T, atol=0)


def test_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        linalg.inner_product(np.ones(2), np.ones(3))
    with pytest.raises(DimensionMismatchError):
        linalg.apply(np.eye(2), np.ones(3))
    with pytest.raises(InputError):
        linalg.as_operator(np.ones((2, 3)))
    with pytest.raises(InputError):
        linalg.as_vector(np.ones((2, 2)))


def test_inner_product_conjugates_first_argument():
    a = np.array([1.0j, 0.0])
    b = np.array([1.0, 0.0])
    assert linalg.inner_product(a, b) == pytest.approx(-1.0j)


def test_tensor_product_shapes_and_values():
    sz = np.diag([1.0, -1.0])
    eye = np.eye(2)
    t = linalg.tensor_product(sz, eye)
    assert t.shape == (4, 4)
    assert np.allclose(np.diag(t), [1, 1, -1, -1])
    v = linalg.tensor_product(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(v, [0, 1, 0, 0])
    w = np.array([0.3, 0.4j, -0.5])
    embedded = linalg.tensor_product(np.array([1.0, 0.0]), w)
    assert np.allclose(embedded[:3], w)
    assert np.allclose(embedded[3:], 0.0)


def test_tensor_product_norm_and_associativity():
    rng = np.random.default_rng(47)

    def vec():
        size = int(rng.integers(1, 5))
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    for _ in range(100):
        a, b, c = vec(), vec(), vec()
        ab = linalg.tensor_product(a, b)
        assert np.linalg.norm(ab) == pytest.approx(
            np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12
        )
        left = linalg.tensor_product(ab, c)
        right = linalg.tensor_product(a, linalg.tensor_product(b, c))
        assert np.allclose(left, right, atol=1e-15 * max(1.0, float(np.max(np.abs(left)))))


def test_tensor_product_dimension_is_capped_before_it_is_built():
    # 16 x 32 = MAX_DIM is accepted; 32 x 32 = 1024 would be an operator that
    # every other function refuses, and np.kron would allocate 16 MiB for it.
    assert linalg.tensor_product(np.eye(16), np.eye(32)).shape == (512, 512)
    assert linalg.tensor_product(np.ones(16), np.ones(32)).shape == (512,)
    big = np.eye(32)
    tracemalloc.start()
    try:
        for a, b in ((big, big), (np.ones(32), np.ones(32))):
            with pytest.raises(DimensionMismatchError, match="exceeds the supported cap"):
                linalg.tensor_product(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_normalized_rejects_zero_vector():
    with pytest.raises(InputError):
        linalg.normalized(np.zeros(3))


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

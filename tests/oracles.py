"""Closed-form Gaussian-overlap oracles for cross-checking the FFT pipeline.

An impulse coupling splits the pointer into translated copies of the same
width-delta Gaussian. After post-selection the conditional state is

    phi(q) = N * sum_k w_k psi0(q - s_k),    sum_k w_k = 1,

where w_k = <post|Pi_k|pre> / <post|pre> and s_k = g * o_k. Every moment of
phi then reduces to Gaussian overlap integrals with exact closed forms.
With several pointers coupled in sequence, each pointer's density is
sum_ij C_ij psi0(q - s_i) conj(psi0(q - s_j)) for a reduced branch-weight
matrix C, and the same closed forms apply pair by pair. These helpers evaluate those forms directly with numpy sums, so they are
independent of the package's FFT evolution and translation phases. Both
the package and these helpers diagonalize with numpy.linalg.eigh; the
oracle's independence rests on the closed-form Gaussian moments.
"""

import numpy as np


def gaussian_overlaps(shifts, delta):
    """E(i, j) = <psi0(. - s_j)|psi0(. - s_i)> = exp(-(s_i - s_j)^2 / (4 delta^2))."""
    s = np.asarray(shifts, dtype=float)
    return np.exp(-(np.subtract.outer(s, s) ** 2) / (4.0 * float(delta) ** 2))


def pair_moments(coefficients, shifts, delta):
    """Moments of the density sum_ij C_ij psi0(q - s_i) conj(psi0(q - s_j)).

    C is Hermitian; for a pure state C = outer(w, conj(w)), for a pointer
    entangled with others it is the reduced branch-weight matrix. Returns a
    dict with keys norm (sum_ij C_ij E_ij, the density's integral), mean_q,
    var_q, mean_p, var_p of the normalized density.
    """
    s = np.asarray(shifts, dtype=float)
    delta = float(delta)
    diff = np.subtract.outer(s, s)
    mid = 0.5 * np.add.outer(s, s)
    pair = np.asarray(coefficients, dtype=complex) * gaussian_overlaps(s, delta)
    norm = float(np.sum(pair).real)
    sp2 = 1.0 / (2.0 * delta**2)
    mean_q = float((np.sum(pair * mid) / norm).real)
    second_q = float((np.sum(pair * (mid**2 + delta**2 / 2.0)) / norm).real)
    mean_p = float((np.sum(pair * (-1j * diff * sp2)) / norm).real)
    second_p = float((np.sum(pair * (sp2 - diff**2 * sp2**2)) / norm).real)
    return {
        "norm": norm,
        "mean_q": mean_q,
        "var_q": second_q - mean_q**2,
        "mean_p": mean_p,
        "var_p": second_p - mean_p**2,
    }


def branch_moments(weights, shifts, delta):
    """Moments of phi(q) ~ sum_k w_k psi0(q - s_k) for a width-delta Gaussian.

    Returns a dict with keys norm (the quadratic form D = sum w_i conj(w_j)
    E_ij, so the post-selection probability is |<post|pre>|^2 * D), mean_q,
    var_q, mean_p, var_p.
    """
    w = np.asarray(weights, dtype=complex)
    return pair_moments(np.multiply.outer(w, w.conj()), shifts, delta)


def eigen_clusters(operator, cluster_tol=1e-10):
    """(eigenvalue, orthonormal eigenspace basis) per distinct eigenvalue,
    ascending; numpy.linalg.eigh with degenerate eigenvalues merged."""
    values, vectors = np.linalg.eigh(np.asarray(operator, dtype=complex))
    scale = max(1.0, float(np.max(np.abs(values))))
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > cluster_tol * scale:
            clusters.append((float(np.mean(values[start:i])), vectors[:, start:i]))
            start = i
    return clusters


def conditional_oracle(pre, post, operator, g, delta, cluster_tol=1e-10):
    """Exact conditional-pointer moments and probability for one scenario.

    Diagonalizes with numpy.linalg.eigh, merges degenerate eigenvalues,
    projects branch amplitudes, and applies branch_moments.
    """
    pre = np.asarray(pre, dtype=complex)
    post = np.asarray(post, dtype=complex)
    operator = np.asarray(operator, dtype=complex)
    overlap = complex(np.vdot(post, pre))
    weights = []
    shifts = []
    for value, block in eigen_clusters(operator, cluster_tol):
        amp = complex(np.vdot(post, block @ (block.conj().T @ pre)))
        weights.append(amp / overlap)
        shifts.append(g * value)
    result = branch_moments(weights, shifts, delta)
    result["probability"] = abs(overlap) ** 2 * result["norm"]
    result["weak_value"] = complex(np.vdot(post, operator @ pre)) / overlap
    return result


def sequential_oracle(pre, post, couplings):
    """Exact joint probability and marginal pointer moments for couplings
    (operator, g, delta) applied in order to width-delta Gaussian pointers,
    then post-selection on ``post``.

    Each branch amplitude A[i_1..i_K] = <post| P_K,i_K ... P_1,i_1 |pre> is
    a separate product of projector matrices. The probability is
    sum_ij A_i conj(A_j) prod_l E_l(i_l, j_l); pointer k's reduced
    branch weights keep index k open, and pair_moments turns them into
    moments. Returns (probability, list of moment dicts).
    """
    pre = np.asarray(pre, dtype=complex)
    post = np.asarray(post, dtype=complex)
    projectors, shifts, overlaps, deltas = [], [], [], []
    for operator, g, delta in couplings:
        clusters = eigen_clusters(operator)
        projectors.append([block @ block.conj().T for _, block in clusters])
        shifts.append(np.array([g * value for value, _ in clusters]))
        overlaps.append(gaussian_overlaps(shifts[-1], delta))
        deltas.append(delta)
    counts = tuple(len(p) for p in projectors)
    amps = np.empty(counts, dtype=complex)
    for index in np.ndindex(*counts):
        vec = pre
        for l, i in enumerate(index):
            vec = projectors[l][i] @ vec
        amps[index] = np.vdot(post, vec)
    k_total = len(counts)
    rows, cols = list(range(k_total)), list(range(k_total, 2 * k_total))

    def weights(open_axis):
        operands = [amps, rows, amps.conj(), cols]
        for l in range(k_total):
            if l != open_axis:
                operands += [overlaps[l], [rows[l], cols[l]]]
        out = [] if open_axis is None else [rows[open_axis], cols[open_axis]]
        return np.einsum(*operands, out, optimize="greedy")

    probability = float(np.real(weights(None)))
    marginals = [pair_moments(weights(k), shifts[k], deltas[k]) for k in range(k_total)]
    return probability, marginals


def gaussian_momentum_density(p, delta):
    """|FT of the width-delta position Gaussian|^2 on momentum points p."""
    sp2 = 1.0 / (2.0 * delta**2)
    return np.exp(-(np.asarray(p) ** 2) / (2.0 * sp2)) / np.sqrt(2.0 * np.pi * sp2)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)

"""Closed-form Gaussian-overlap oracles for cross-checking the FFT pipeline.

An impulse coupling splits the pointer into translated copies of the same
width-delta Gaussian. After post-selection the conditional state is

    phi(q) = N * sum_k w_k psi0(q - s_k),    sum_k w_k = 1,

where w_k = <post|Pi_k|pre> / <post|pre> and s_k = g * o_k. Every moment of
phi then reduces to Gaussian overlap integrals with exact closed forms.
These helpers evaluate those forms directly with numpy sums, so they are
independent of the package's FFT evolution and translation phases. Both
the package and these helpers diagonalize with numpy.linalg.eigh; the
oracle's independence rests on the closed-form Gaussian moments.
"""

import numpy as np


def branch_moments(weights, shifts, delta):
    """Moments of phi(q) ~ sum_k w_k psi0(q - s_k) for a width-delta Gaussian.

    Returns a dict with keys norm (the quadratic form D = sum w_i conj(w_j)
    E_ij, so the post-selection probability is |<post|pre>|^2 * D), mean_q,
    var_q, mean_p, var_p.
    """
    w = np.asarray(weights, dtype=complex)
    s = np.asarray(shifts, dtype=float)
    delta = float(delta)
    diff = np.subtract.outer(s, s)
    mid = 0.5 * np.add.outer(s, s)
    overlap = np.exp(-(diff**2) / (4.0 * delta**2))
    pair = np.multiply.outer(w, w.conj()) * overlap
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


def conditional_oracle(pre, post, operator, g, delta, cluster_tol=1e-10):
    """Exact conditional-pointer moments and probability for one scenario.

    Diagonalizes with numpy.linalg.eigh, merges degenerate eigenvalues,
    projects branch amplitudes, and applies branch_moments.
    """
    pre = np.asarray(pre, dtype=complex)
    post = np.asarray(post, dtype=complex)
    operator = np.asarray(operator, dtype=complex)
    values, vectors = np.linalg.eigh(operator)
    overlap = complex(np.vdot(post, pre))
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > cluster_tol * max(
            1.0, float(np.max(np.abs(values)))
        ):
            clusters.append((float(np.mean(values[start:i])), np.arange(start, i)))
            start = i
    weights = []
    shifts = []
    for value, idx in clusters:
        block = vectors[:, idx]
        amp = complex(np.vdot(post, block @ (block.conj().T @ pre)))
        weights.append(amp / overlap)
        shifts.append(g * value)
    result = branch_moments(weights, shifts, delta)
    result["probability"] = abs(overlap) ** 2 * result["norm"]
    result["weak_value"] = complex(np.vdot(post, operator @ pre)) / overlap
    return result


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

"""Closed forms that the benchmark checks the program's outputs against.

An impulse coupling exp(-i g O x P) splits a width-delta Gaussian pointer
into copies translated by s_k = g * o_k, one per eigenvalue cluster o_k of
O. Every conditional moment then reduces to overlaps of translated
Gaussians, which have exact closed forms:

    <psi_b | psi_a>       = E_ab = exp(-(s_a - s_b)^2 / (4 delta^2))
    <psi_b | Q | psi_a>   = E_ab * (s_a + s_b) / 2
    <psi_b | Q^2 | psi_a> = E_ab * (((s_a + s_b) / 2)^2 + delta^2 / 2)
    <psi_b | P | psi_a>   = E_ab * (-i (s_a - s_b) / (2 delta^2))
    <psi_b | P^2 | psi_a> = E_ab * (1 / (2 delta^2) - (s_a - s_b)^2 / (4 delta^4))

The spectral decomposition comes from numpy.linalg.eigh, so nothing here
calls the package under test: not its eigensolver, its FFT evolution or its
grid quadrature.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np

CLUSTER_TOL = 1e-9


def clusters(operator):
    """(values, projectors) of a Hermitian matrix, degenerate values merged."""
    values, vectors = np.linalg.eigh(np.asarray(operator, dtype=complex))
    scale = max(1.0, float(np.max(np.abs(values))))
    groups = [[0]]
    for k in range(1, values.size):
        if values[k] - values[k - 1] > CLUSTER_TOL * scale:
            groups.append([])
        groups[-1].append(k)
    means = np.array([values[g].mean() for g in groups])
    projectors = [vectors[:, g] @ vectors[:, g].conj().T for g in groups]
    return means, projectors


def gaussian_overlaps(shifts, delta):
    s = np.asarray(shifts, dtype=float)
    return np.exp(-np.subtract.outer(s, s) ** 2 / (4.0 * delta**2))


def _dec(x):
    return Decimal(float(x))  # exact: every double is a finite decimal


def outer_pairs(amps):
    """pair[a][b] = amps[a] * conj(amps[b]) as exact (re, im) Decimals."""
    parts = [(_dec(z.real), _dec(z.imag)) for z in np.asarray(amps, dtype=complex)]
    return [[(ar * br + ai * bi, ai * br - ar * bi) for br, bi in parts] for ar, ai in parts]


def matrix_pairs(matrix):
    return [[(_dec(z.real), _dec(z.imag)) for z in row] for row in np.asarray(matrix)]


def pair_moments(pair, shifts, delta):
    """Moments of a pointer whose unnormalized density matrix over the
    translated Gaussians psi_a is ``pair[a][b]`` (overlaps not included).

    The sums run in 50-digit decimal arithmetic: a rare post-selection is a
    near-total cancellation between branches (ensemble/8x5 keeps 1e-11 of
    terms of size 1e-2), which double precision cannot resolve.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        s = [_dec(x) for x in shifts]
        d2 = _dec(delta) ** 2
        sp2 = 1 / (2 * d2)
        norm = first_q = second_q = first_p = second_p = Decimal(0)
        for a, sa in enumerate(s):
            for b, sb in enumerate(s):
                diff = sa - sb
                mid = (sa + sb) / 2
                overlap = (-(diff * diff) / (4 * d2)).exp()
                re, im = pair[a][b]
                re, im = re * overlap, im * overlap
                norm += re
                first_q += re * mid
                second_q += re * (mid * mid + d2 / 2)
                first_p += im * diff * sp2  # Re(-i diff sp2 (re + i im))
                second_p += re * (sp2 - diff * diff * sp2 * sp2)
        mean_q, mean_p = first_q / norm, first_p / norm
        return {
            "probability": float(norm),
            "mean_q": float(mean_q),
            "var_q": float(second_q / norm - mean_q * mean_q),
            "mean_p": float(mean_p),
            "var_p": float(second_p / norm - mean_p * mean_p),
        }


def conditional(pre, post, operator, g, delta):
    """Post-selection probability, conditional pointer moments and the weak
    value of one coupling (probability = sum_ab a_a conj(a_b) E_ab with
    branch amplitudes a_k = <post|Pi_k|pre>)."""
    pre = np.asarray(pre, dtype=complex)
    post = np.asarray(post, dtype=complex)
    operator = np.asarray(operator, dtype=complex)
    values, projectors = clusters(operator)
    amps = np.array([np.vdot(post, proj @ pre) for proj in projectors])
    result = pair_moments(outer_pairs(amps), g * values, delta)
    result["weak_value"] = complex(np.vdot(post, operator @ pre) / np.vdot(post, pre))
    result["eigenvalues"] = np.linalg.eigvalsh(operator)
    return result


def sequential(psi, couplings, phi):
    """Joint probability and each pointer's marginal moments for couplings
    (operator, g, delta) applied in order, then post-selection on phi.

    Branch amplitudes A[i_1..i_K] = <phi| Pi_K,i_K ... Pi_1,i_1 |psi>; the
    joint probability is sum_ij A_i conj(A_j) prod_l E_l(i_l, j_l), and
    pointer k's density matrix keeps index k open.
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    vectors = psi[None, :]
    shifts, overlaps, deltas = [], [], []
    for operator, g, delta in couplings:
        values, projectors = clusters(operator)
        vectors = np.stack([vectors @ proj.T for proj in projectors], axis=1)
        vectors = vectors.reshape(-1, psi.size)
        shifts.append(g * values)
        overlaps.append(gaussian_overlaps(g * values, delta))
        deltas.append(delta)
    counts = [s.size for s in shifts]
    amps = (vectors @ phi.conj()).reshape(counts)
    k_total = len(counts)
    rows, cols = list(range(k_total)), list(range(k_total, 2 * k_total))

    def density(open_axis):
        operands = [amps, rows, amps.conj(), cols]
        for l in range(k_total):
            if l != open_axis:
                operands += [overlaps[l], [rows[l], cols[l]]]
        out = [] if open_axis is None else [rows[open_axis], cols[open_axis]]
        return np.einsum(*operands, out, optimize="greedy")

    probability = float(np.real(density(None)))
    marginals = [pair_moments(matrix_pairs(density(k)), shifts[k], deltas[k])
                 for k in range(k_total)]
    return probability, marginals

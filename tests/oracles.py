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

from decimal import Decimal, localcontext
from math import ceil, comb, log10

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


def commuting_sequential_oracle(pre, post, couplings):
    """sequential_oracle for diagonal couplings (eigenvalues, g, delta),
    summed over basis-state pairs instead of branch sequences.

    Every projector is diagonal, so a branch sequence has a nonzero
    amplitude only when its clusters share a basis state a, and then
    A = c_a = conj(post_a) pre_a, with pointer l shifted by g_l o_l[a].
    The probability is sum_ab c_a conj(c_b) prod_l E_l(a, b), and pointer
    k's density has the coefficients c_a conj(c_b) prod_(l != k) E_l(a, b)
    over the shifts g_k o_k[a] (pair_moments). The sums run over dim^2
    pairs however many branch sequences the couplings open.
    """
    amps = np.conj(np.asarray(post, dtype=complex)) * np.asarray(pre, dtype=complex)
    pairs = np.multiply.outer(amps, amps.conj())
    shifts = [g * np.asarray(values, dtype=float) for values, g, _ in couplings]
    overlaps = [gaussian_overlaps(s, delta) for s, (_, _, delta) in zip(shifts, couplings)]
    probability = float(np.sum(pairs * np.prod(overlaps, axis=0)).real)
    marginals = [
        pair_moments(pairs * np.prod(overlaps[:k] + overlaps[k + 1 :], axis=0), shifts[k], delta)
        for k, (_, _, delta) in enumerate(couplings)
    ]
    return probability, marginals


def gaussian_fidelity(amplitudes, shifts, reference_shift, delta, digits=50):
    """|<psi0(. - s)|phi>|^2 for the normalized phi ~ sum_k a_k psi0(q - s_k):

        F = |sum_k a_k e_k|^2 / sum_kl a_k conj(a_l) E_kl

    with e_k = exp(-(s_k - s)^2 / (4 delta^2)) and E as gaussian_overlaps.
    Both sums are taken in ``digits``-digit decimals from the exact values
    of the double inputs: on ensemble scenarios the amplitudes cancel to
    ~1e-11 of their size, which leaves a double-precision sum ~5 digits.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        amps = [(Decimal(z.real), Decimal(z.imag)) for z in np.asarray(amplitudes, complex)]
        s = [Decimal(float(x)) for x in shifts]
        scale = 4 * Decimal(float(delta)) ** 2

        def overlap(x, y):
            return (-((x - y) ** 2) / scale).exp()

        ref = Decimal(float(reference_shift))
        num_re = sum(ar * overlap(sk, ref) for (ar, _), sk in zip(amps, s))
        num_im = sum(ai * overlap(sk, ref) for (_, ai), sk in zip(amps, s))
        norm = sum(
            (ar * br + ai * bi) * overlap(sk, sl)
            for (ar, ai), sk in zip(amps, s)
            for (br, bi), sl in zip(amps, s)
        )
        return float((num_re**2 + num_im**2) / norm)


def ensemble_closed_form(n_spins, target, g, delta):
    """Exact probability, <Q> and Var Q of ensemble/<n>x<target>, and its
    branch amplitudes and shifts as doubles.

    Each spin is prepared in (1, 1)/sqrt(2) and selected on the bra
    proportional to (1 + t, 1 - t), so the branch with k spins down has
    amplitude C(n, k) alpha^(n-k) beta^k, with alpha = (1 + t)/(2 sqrt(1 +
    t^2)) and beta = (1 - t)/(2 sqrt(1 + t^2)), and shifts the pointer by
    s_k = g (n - 2k)/n. The amplitudes alternate in sign for |t| > 1: their
    unsigned sum exceeds the signed one by kappa = ((|1 + t| + |1 - t|)/2)^n,
    and the quadratic forms below by up to kappa^2. So the sums run in
    2 log10(kappa) + 30 decimal digits, from the exact values of the double
    inputs; the overlaps E_kl depend on |k - l| only and are formed once
    per distance.
    """
    n = int(n_spins)
    digits = 30 + 2 * ceil(n * log10(max(1.0, (abs(1 + target) + abs(1 - target)) / 2)))
    with localcontext() as ctx:
        ctx.prec = digits
        t, g, d2 = Decimal(float(target)), Decimal(float(g)), Decimal(float(delta)) ** 2
        up, down = 1 + t, 1 - t
        # x**0 is taken as 1 (Decimal refuses 0**0, at t = +-1)
        amps = [comb(n, k) * (up ** (n - k) if k < n else 1) * (down**k if k else 1)
                for k in range(n + 1)]
        overlaps = [(-((g * d / n) ** 2) / d2).exp() for d in range(n + 1)]
        norm = first = second = Decimal(0)
        for k, ak in enumerate(amps):
            for l in range(k, n + 1):
                weight = ak * amps[l] * overlaps[l - k] * (2 if l > k else 1)
                mid = g * (n - k - l) / n
                norm += weight
                first += weight * mid
                second += weight * (mid * mid + d2 / 2)
        scale = (4 * (1 + t * t)) ** n
        mean = first / norm
        return {
            "probability": float(norm / scale),
            "mean_q": float(mean),
            "var_q": float(second / norm - mean * mean),
            "amplitudes": np.array([float(a / scale.sqrt()) for a in amps]),
            "shifts": np.array([float(g * (n - 2 * k) / n) for k in range(n + 1)]),
        }


def exact_position_moments(amplitudes, shifts, delta, digits=50):
    """(<Q>, Var Q) of the normalized phi ~ sum_k a_k psi0(q - s_k):

        <Q>   = sum_kl Re(a_k conj(a_l)) E_kl m_kl / D
        <Q^2> = sum_kl Re(a_k conj(a_l)) E_kl (m_kl^2 + delta^2/2) / D

    with m_kl = (s_k + s_l)/2, E as gaussian_overlaps and D = sum_kl
    Re(a_k conj(a_l)) E_kl; the imaginary parts cancel pairwise. Summed in
    ``digits``-digit decimals from the exact values of the double inputs,
    so that the reference carries no round-off of its own: spin-amp/100
    cancels terms of size 2500 down to 1.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        amps = [(Decimal(z.real), Decimal(z.imag)) for z in np.asarray(amplitudes, complex)]
        s = [Decimal(float(x)) for x in shifts]
        d2 = Decimal(float(delta)) ** 2
        norm = first = second = Decimal(0)
        for (ar, ai), sk in zip(amps, s):
            for (br, bi), sl in zip(amps, s):
                weight = (ar * br + ai * bi) * (-((sk - sl) ** 2) / (4 * d2)).exp()
                mid = (sk + sl) / 2
                norm += weight
                first += weight * mid
                second += weight * (mid * mid + d2 / 2)
        mean = first / norm
        return float(mean), float(second / norm - mean * mean)


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

"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line with the measured numbers and its pinned tolerances.

Expected values come from closed-form Gaussian-overlap formulas (see
tests/oracles.py) or from exact construction invariants of the scenario
registry; no expected number below was produced by the code under test.
"""

import math
import time

import numpy as np

import weakmeas as wm
from weakmeas import montecarlo

from oracles import random_hermitian, random_state


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_three_box_weak_values():
    """Box projectors A, B, C have weak values 1, 1, -1 (each within 1e-12),
    the union A+B+C has weak value 1, and the evaluation takes < 1 ms."""
    start = time.perf_counter()
    values = {box: wm.three_box(box).weak_value for box in ("A", "B", "C", "ABC")}
    elapsed = time.perf_counter() - start
    deviations = {
        "A": abs(values["A"] - 1.0),
        "B": abs(values["B"] - 1.0),
        "C": abs(values["C"] + 1.0),
        "ABC": abs(values["ABC"] - 1.0),
    }
    ok = all(d <= 1e-12 for d in deviations.values()) and elapsed < 1e-3
    _report(
        "criterion 1 (three-box weak values 1, 1, -1, union 1, each +-1e-12, < 1 ms)",
        ok,
        "max deviation = {:.2e}, elapsed = {:.3f} ms".format(
            max(deviations.values()), elapsed * 1e3
        ),
    )


def test_criterion_2_spin_100_amplification():
    """spin_amplification(100) has weak value 100 +- 1e-10; the g=1,
    delta=1000, n=2^16 simulation shifts the pointer to 100 +- 1 with
    shifted-Gaussian fidelity >= 0.99, in under 5 s."""
    start = time.perf_counter()
    sc = wm.spin_amplification(100, g=1.0, delta=1000.0, grid_n=2**16)
    wv_dev = abs(sc.weak_value - 100.0)
    state, _ = sc.run()
    shift = wm.mean_q(state)
    fidelity = wm.gaussian_fidelity(state, 100.0, 1000.0)
    elapsed = time.perf_counter() - start
    ok = wv_dev <= 1e-10 and abs(shift - 100.0) <= 1.0 and fidelity >= 0.99 and elapsed < 5.0
    _report(
        "criterion 2 (weak value 100 +- 1e-10; mean_Q = 100 +- 1; fidelity >= 0.99; < 5 s)",
        ok,
        f"wv dev = {wv_dev:.2e}, mean_Q = {shift:.4f}, fidelity = {fidelity:.6f}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_3_imaginary_weak_value_moves_momentum():
    """The (sigma_z)_w = i scenario at delta = 10: |mean_Q| <= 1e-3 g and
    mean_P = 2 g Im(wv) var_P within 5%, at g = 1e-3 and g = 1e-2."""
    rows = []
    ok = True
    for g in (1e-3, 1e-2):
        sc = wm.spin_amplification(1j, g=g, delta=10.0)
        state, _ = sc.run()
        mq = wm.mean_q(state)
        mp = wm.mean_p(state)
        predicted = 2.0 * g * 1.0 * wm.var_p(state)
        ok = ok and abs(mq) <= 1e-3 * g and abs(mp - predicted) <= 0.05 * abs(predicted)
        rows.append(f"g={g:g}: mean_Q={mq:.1e}, mean_P={mp:.6e}, 2 g Im var_P={predicted:.6e}")
    _report(
        "criterion 3 (imaginary weak value: |mean_Q| <= 1e-3 g, mean_P = 2 g Im(wv) var_P +- 5%)",
        ok,
        "; ".join(rows),
    )


def test_criterion_4_weak_limit_convergence():
    """err(delta) = |mean_Q/g - 5| for spin_amplification(5) at g = 0.1 falls
    monotonically over delta in {4, 8, 16, 32, 64} with a stable empirical
    convergence order (successive log2 error ratios within +-0.5)."""
    errors = []
    for delta in (4.0, 8.0, 16.0, 32.0, 64.0):
        sc = wm.spin_amplification(5, g=0.1, delta=delta)
        state, _ = sc.run()
        errors.append(abs(wm.mean_q(state) / 0.1 - 5.0))
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    centre = sum(orders) / len(orders)
    stable = all(abs(o - centre) <= 0.5 for o in orders)
    ok = monotone and stable
    _report(
        "criterion 4 (err monotone over delta 4..64, log2 ratios stable +-0.5)",
        ok,
        "errors " + ", ".join(f"{e:.2e}" for e in errors)
        + "; orders " + ", ".join(f"{o:.3f}" for o in orders),
    )


def test_criterion_5_strong_limit_born_rule():
    """psi = (1,1)/sqrt(2), sigma_z, g = 1, delta = 0.05, no post-selection:
    the joint position density carries mass 0.5 +- 1e-3 within +-3 delta of
    each eigenvalue shift q = +-1."""
    delta = 0.05
    grid = wm.default_grid(delta, max_abs_shift=1.0)
    pt = wm.make_gaussian(grid, delta)
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    joint = wm.couple(psi, pt, np.diag([1.0, -1.0]).astype(complex), g=1.0)
    density = joint.position_density()
    masses = {}
    for center in (1.0, -1.0):
        window = np.abs(grid.points - center) <= 3.0 * delta
        masses[center] = float(np.sum(density[window]) * grid.spacing)
    dev = max(abs(masses[1.0] - 0.5), abs(masses[-1.0] - 0.5))
    ok = dev <= 1e-3
    _report(
        "criterion 5 (strong-limit Born rule: mass 0.5 +- 1e-3 at q = +-1)",
        ok,
        f"masses = {masses[1.0]:.6f} (q=+1), {masses[-1.0]:.6f} (q=-1), max dev = {dev:.2e}",
    )


def test_criterion_6_unitarity_completeness_parseval():
    """200 seeded random scenarios (dims 2-5): coupling preserves the joint
    norm, post-selection probabilities over a random orthonormal basis sum
    to 1, and every conditional pointer state satisfies Parseval - all
    within 1e-8."""
    rng = np.random.default_rng(606)
    worst_norm = worst_complete = worst_parseval = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        psi = random_state(rng, dim)
        operator = random_hermitian(rng, dim)
        bound = float(np.max(np.abs(np.linalg.eigvalsh(operator))))
        g = float(rng.uniform(-1.0, 1.0))
        delta = float(rng.uniform(0.5, 2.0))
        grid = wm.default_grid(delta, abs(g) * bound)
        joint = wm.couple(psi, wm.make_gaussian(grid, delta), operator, g)
        worst_norm = max(worst_norm, abs(joint.norm() - 1.0))
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        total = 0.0
        for k in range(dim):
            try:
                state, prob = wm.post_select(joint, basis[:, k])
            except wm.PostSelectionImpossibleError:
                continue
            total += prob
            momentum_total = float(
                np.sum(state.momentum_density()) * grid.momentum_spacing
            )
            position_total = float(np.sum(state.position_density()) * grid.spacing)
            worst_parseval = max(worst_parseval, abs(momentum_total - position_total))
        worst_complete = max(worst_complete, abs(total - 1.0))
    ok = worst_norm <= 1e-8 and worst_complete <= 1e-8 and worst_parseval <= 1e-8
    _report(
        "criterion 6 (200 random scenarios: unitarity, completeness, Parseval <= 1e-8)",
        ok,
        f"worst norm defect = {worst_norm:.2e}, worst completeness defect = "
        f"{worst_complete:.2e}, worst Parseval defect = {worst_parseval:.2e}",
    )


def test_criterion_7_monte_carlo_soundness(monkeypatch):
    """Three-box box-C scenario, g = 0.05, delta = 1, N = 10^5, fixed seed:
    the estimate lands within 5 standard errors of -1, the acceptance rate
    within 4 binomial standard deviations of the exact probability, and the
    report is bit-identical across reruns and Philox chunk sizes - in < 60 s."""
    sc = wm.three_box("C", g=0.05, delta=1.0)
    _, prob = sc.run()
    n = 100000
    start = time.perf_counter()
    report = wm.estimate_weak_value(123, n, sc)
    rerun = wm.estimate_weak_value(123, n, sc)
    monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 2**10 + 1)
    repartitioned = wm.estimate_weak_value(123, n, sc)
    elapsed = time.perf_counter() - start
    dev = abs(report.wv_estimate - (-1.0))
    acc_dev = abs(report.n_accepted - n * prob)
    acc_band = 4.0 * math.sqrt(n * prob * (1.0 - prob))
    ok = (
        dev <= 5.0 * report.std_error
        and acc_dev <= acc_band
        and report == rerun
        and report == repartitioned
        and elapsed < 60.0
    )
    _report(
        "criterion 7 (MC: estimate -1 +- 5 SE, acceptance +- 4 binomial SD, "
        "bit-stable, partition-invariant, < 60 s)",
        ok,
        f"estimate = {report.wv_estimate:.5f} +- {report.std_error:.5f} (dev {dev:.4f}), "
        f"n_acc = {report.n_accepted} vs {n * prob:.1f} (band {acc_band:.1f}), "
        f"{elapsed:.1f} s",
    )


def test_criterion_8_algebraic_property_suite():
    """Linearity, pre=post reduction to the expectation value, phase-gauge
    invariance, and identity weak value = 1, each over 500 seeded random
    instances, all within 1e-12 of the exact algebra."""
    rng = np.random.default_rng(808)
    counts = {"linearity": 0, "reduction": 0, "gauge": 0, "identity": 0}
    worst = {key: 0.0 for key in counts}
    while min(counts.values()) < 500:
        dim = int(rng.integers(2, 6))
        pre = random_state(rng, dim)
        post = random_state(rng, dim)
        if abs(np.vdot(post, pre)) < 5e-2:
            continue
        tsv = wm.TwoStateVector(pre=pre, post=post)
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)

        wa, wb = wm.weak_value(a, tsv), wm.weak_value(b, tsv)
        combined = wm.weak_value(a + b, tsv)
        scale = 1.0 + abs(wa) + abs(wb)
        worst["linearity"] = max(worst["linearity"], abs(combined - (wa + wb)) / scale)
        counts["linearity"] += 1

        same = wm.TwoStateVector(pre=pre, post=pre)
        reduced = wm.weak_value(a, same)
        expect = wm.expectation(a, pre)
        scale = 1.0 + abs(expect)
        worst["reduction"] = max(
            worst["reduction"],
            max(abs(reduced.imag), abs(reduced.real - expect)) / scale,
        )
        counts["reduction"] += 1

        alpha, beta = rng.uniform(0.0, 2.0 * np.pi, size=2)
        rotated = wm.TwoStateVector(
            pre=np.exp(1j * alpha) * pre, post=np.exp(1j * beta) * post
        )
        worst["gauge"] = max(
            worst["gauge"],
            abs(wm.weak_value(a, rotated) - wa) / (1.0 + abs(wa)),
        )
        counts["gauge"] += 1

        worst["identity"] = max(
            worst["identity"], abs(wm.weak_value(np.eye(dim), tsv) - 1.0)
        )
        counts["identity"] += 1
    ok = all(w <= 1e-12 for w in worst.values())
    _report(
        "criterion 8 (500-instance algebra: linearity, reduction, gauge, identity <= 1e-12)",
        ok,
        ", ".join(f"{key} worst = {value:.2e}" for key, value in worst.items()),
    )


def test_criterion_9_ensemble_single_shot_regime():
    """ensemble_average(8, 5) with delta = 2 g: the post-selected pointer
    shift exceeds the pointer spread (shift / sqrt(var_Q) > 1)."""
    sc = wm.ensemble_average(8, 5)
    state, prob = sc.run()
    shift = wm.mean_q(state)
    spread = math.sqrt(wm.var_q(state))
    ratio = shift / spread
    ok = sc.coupling.delta == 2.0 * sc.coupling.g and ratio > 1.0 and prob > 0.0
    _report(
        "criterion 9 (ensemble 8 x 5, delta = 2g: shift/spread > 1)",
        ok,
        f"shift = {shift:.4f}, spread = {spread:.4f}, ratio = {ratio:.2f}, "
        f"prob = {prob:.2e}",
    )

import dataclasses
import io
import re
import time
import tracemalloc

import numpy as np
import pytest

from weakmeas import linalg, pointer, three_box
from weakmeas.errors import (
    DimensionMismatchError,
    GridGuardError,
    InputError,
    NumericalGuardError,
    PostSelectionImpossibleError,
)
from weakmeas.pointer import (
    MixedPointerState,
    PointerGrid,
    PointerState,
    couple,
    default_grid,
    gaussian_fidelity,
    make_gaussian,
    mean_p,
    mean_q,
    moments,
    post_select,
    sequential_couple,
    var_p,
    var_q,
)

from oracles import (
    conditional_oracle,
    gaussian_fidelity as fidelity_oracle,
    gaussian_momentum_density,
    random_hermitian,
    random_state,
    sequential_oracle,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------- grids


def test_grid_validation():
    with pytest.raises(InputError):
        PointerGrid(n=1000, q_min=-1.0, q_max=1.0)  # not a power of two
    with pytest.raises(InputError):
        PointerGrid(n=2, q_min=-1.0, q_max=1.0)  # below minimum
    with pytest.raises(InputError):
        PointerGrid(n=2**21, q_min=-1.0, q_max=1.0)  # above maximum
    with pytest.raises(InputError):
        PointerGrid(n=256, q_min=1.0, q_max=-1.0)
    with pytest.raises(InputError):
        PointerGrid(n=256, q_min=0.0, q_max=np.inf)


def test_grid_lattices():
    grid = PointerGrid(n=256, q_min=-4.0, q_max=4.0)
    assert grid.spacing == pytest.approx(8.0 / 256)
    assert grid.extent == pytest.approx(8.0)
    q = grid.points
    assert q[0] == pytest.approx(-4.0)
    assert q[-1] == pytest.approx(4.0 - grid.spacing)
    p = grid.momenta_sorted
    assert np.all(np.diff(p) > 0)
    assert p[1] - p[0] == pytest.approx(grid.momentum_spacing)
    assert grid.momentum_spacing == pytest.approx(2 * np.pi / 8.0)
    assert not q.flags.writeable


def test_default_grid_fits_shifted_packet():
    grid = default_grid(1.0, max_abs_shift=5.0)
    make_gaussian(grid, 1.0, center=5.0)  # must not raise
    make_gaussian(grid, 1.0, center=-5.0)


# ------------------------------------------------------- gaussian states


def test_gaussian_moments_exact():
    for delta, center in [(1.0, 0.0), (0.5, 1.25), (3.0, -2.0)]:
        grid = default_grid(delta, abs(center))
        state = make_gaussian(grid, delta, center)
        assert np.sum(state.position_density()) * grid.spacing == pytest.approx(1.0, abs=1e-12)
        assert mean_q(state) == pytest.approx(center, abs=1e-12 * max(1, abs(center)))
        assert var_q(state) == pytest.approx(delta**2 / 2, rel=1e-12)
        assert mean_p(state) == pytest.approx(0.0, abs=1e-12)
        assert var_p(state) == pytest.approx(1.0 / (2 * delta**2), rel=1e-10)


def test_momentum_wavefunction_analytic():
    # The transform convention is pinned pointwise: a Gaussian centered at c
    # maps to (delta^2/pi)^(1/4) exp(-p^2 delta^2 / 2) exp(-i p c).
    delta, center = 1.5, 0.75
    grid = default_grid(delta, abs(center))
    state = make_gaussian(grid, delta, center)
    p = grid.momenta_sorted
    phi = state.momentum_wavefunction()
    expected = (delta**2 / np.pi) ** 0.25 * np.exp(-(p**2) * delta**2 / 2) * np.exp(-1j * p * center)
    assert np.allclose(phi, expected, atol=1e-10)


def test_parseval_momentum_density():
    grid = default_grid(2.0)
    state = make_gaussian(grid, 2.0)
    rho = state.momentum_density()
    assert np.sum(rho) * grid.momentum_spacing == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(rho, gaussian_momentum_density(grid.momenta_sorted, 2.0), atol=1e-10)


def test_gaussian_needs_margin():
    grid = PointerGrid(n=1024, q_min=-4.0, q_max=4.0)
    with pytest.raises(GridGuardError):
        make_gaussian(grid, 1.0, center=3.0)  # only 1 delta of room on the right
    with pytest.raises(GridGuardError):
        make_gaussian(grid, 0.6)  # 8 * 0.6 = 4.8 > 4


def test_state_validation_and_immutability():
    grid = default_grid(1.0)
    good = make_gaussian(grid, 1.0)
    with pytest.raises(InputError):
        PointerState(grid, good.samples * 2.0)  # badly normalized
    with pytest.raises(InputError):
        PointerState(grid, np.full(grid.n, np.nan, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        PointerState(grid, np.ones(8, dtype=complex))
    with pytest.raises(AttributeError):
        good.samples = np.zeros(grid.n)
    leaky = np.full(grid.n, 1.0 + 0j)
    leaky /= np.sqrt(np.sum(np.abs(leaky) ** 2) * grid.spacing)
    with pytest.raises(GridGuardError):
        PointerState(grid, leaky)


def test_gaussian_fidelity_values():
    grid = default_grid(1.0, 2.0)
    state = make_gaussian(grid, 1.0, center=1.0)
    assert gaussian_fidelity(state, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # |<psi_s|psi_0>|^2 = exp(-s^2 / (2 delta^2))
    assert gaussian_fidelity(state, 0.0, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-10)


def test_gaussian_spectrum_matches_fft_of_samples():
    # The closed form, aliases m = -1, 0, 1 included, against the FFT of
    # exp samples built here (_sampled_gaussian): a symmetric grid, an offset
    # grid whose q_min is no multiple of dq, n = 256 down to the
    # undersampling guard (where the aliases reach 1e-5 of the peak), and the
    # spin-amp/100 grid at 2^19.
    cases = [
        (PointerGrid(n=4096, q_min=-12.0, q_max=12.0), 1.0, 0.0),
        (PointerGrid(n=4096, q_min=-9.3, q_max=11.17), 1.0, 0.0),
        (PointerGrid(n=4096, q_min=-9.3, q_max=11.17), 0.7, 1.3),
    ]
    for delta in (0.2, 0.15, 0.12, 0.112):
        cases.append((PointerGrid(n=256, q_min=-10.0, q_max=10.0), delta, 0.0))
        cases.append((PointerGrid(n=256, q_min=-9.3, q_max=11.17), delta, 0.0))
    spin = pointer.default_grid(1000.0, 1.0, n=2**19, extra_margin=200.0)
    cases += [(spin, 1000.0, 0.0), (spin, 1000.0, 100.0)]
    for grid, delta, center in cases:
        want = _sampled_gaussian(grid, delta, center).spectrum[1]
        band, values = pointer._gaussian_spectrum(grid, delta, center)
        got = np.zeros(grid.n, dtype=complex)
        got[band] = values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # Near the guard the band is the whole lattice, and the m = 0 term alone
    # misses the FFT by far more than round-off.
    grid, delta = PointerGrid(n=256, q_min=-9.3, q_max=11.17), 0.112
    band, _ = pointer._gaussian_spectrum(grid, delta)
    assert (band.start, band.stop) == (0, 256)
    want = np.fft.ifftshift(_sampled_gaussian(grid, delta, 0.0).spectrum[1])
    p = grid.momenta
    unaliased = np.exp(-0.5 * (p * delta) ** 2 + 1j * p * grid.q_min)
    unaliased *= np.sqrt(2.0 * np.pi) / grid.spacing * (delta**2 / np.pi) ** 0.25
    assert np.max(np.abs(unaliased - want)) > 1e-6 * np.max(np.abs(want))
    # On the spin-amp grid the band is ~200 of 2^19 bins.
    band, _ = pointer._gaussian_spectrum(spin, 1000.0)
    assert band.stop - band.start == 201
    # q_min/dq = 1/4 mod 1 cancels the norm defect's first term, so the
    # samples pass their own norm check at pi delta/dq = 2.5, where aliases
    # m = +-2 reach 7e-13 of the peak; the bound on pi delta/dq rejects it.
    dq = 20.0 / 256
    tuned = PointerGrid(n=256, q_min=-127.75 * dq, q_max=128.25 * dq)
    _sampled_gaussian(tuned, 2.5 * dq / np.pi, 0.0)
    with pytest.raises(GridGuardError, match="undersamples"):
        pointer._gaussian_spectrum(tuned, 2.5 * dq / np.pi)


def _sampled_gaussian(grid, delta, center):
    """The width-delta Gaussian built from exp samples, with make_gaussian's
    guards read off the samples: the room check, then PointerState's own
    norm and boundary checks."""
    if center - grid.q_min < 8.0 * delta or grid.q_max - center < 8.0 * delta:
        raise GridGuardError(
            f"grid [{grid.q_min}, {grid.q_max}] leaves less than 8*delta of room "
            f"around center {center} (delta = {delta})"
        )
    q = grid.points
    samples = (delta**2 * np.pi) ** (-0.25) * np.exp(-((q - center) ** 2) / (2.0 * delta**2))
    try:
        return PointerState(grid, samples)
    except InputError as exc:
        raise GridGuardError(
            f"grid spacing {grid.spacing:.6g} undersamples the width-{delta} Gaussian "
            f"({exc}); raise the grid size (--grid-n)"
        ) from exc


def _guard_outcome(fn):
    try:
        fn()
    except (GridGuardError, InputError) as exc:
        # the printed defect and boundary amplitude may differ in the last digit
        return type(exc), re.sub(r"\d\.\d{3}e[+-]\d+", "#", str(exc))
    return None, ""


def test_closed_form_guards_reject_exactly_when_the_samples_do():
    # The bound on pi delta/dq never accepts what the samples reject, and
    # decides as they do wherever (q_min - center)/dq is an integer: center 0
    # on a symmetric grid. Off the lattice a cancelling cos(2 pi offset) can
    # pass the samples below the bound, so there it may only be stricter.
    grids = [
        PointerGrid(n=256, q_min=-10.0, q_max=10.0),
        PointerGrid(n=256, q_min=-9.3, q_max=11.17),
        PointerGrid(n=1024, q_min=-4.0, q_max=4.0),
        PointerGrid(n=256, q_min=-8e-17, q_max=8e-17),  # boundary amplitude at tiny delta
    ]
    kinds = {"room": "8*delta of room", "undersampled": "undersamples",
             "boundary": "boundary amplitude"}

    def category(outcome):
        return next((k for k, text in kinds.items() if text in outcome[1]), "accepted")

    seen = set()
    stricter = []
    for grid in grids:
        for delta in np.geomspace(grid.extent * 1e-4, grid.extent / 10, 60):
            for center in (0.0, grid.q_min + 8.0 * delta, grid.q_max - 7.9 * delta):
                want = _guard_outcome(lambda: _sampled_gaussian(grid, delta, center))
                got = _guard_outcome(lambda: make_gaussian(grid, delta, center))
                seen.add(category(want))
                if category(got) == category(want) == "undersampled":
                    # the messages quote different numbers
                    assert got[0] is want[0] is GridGuardError
                elif category(want) == "accepted" and category(got) == "undersampled":
                    assert not (grid.q_min == -grid.q_max and center == 0.0)
                    stricter.append((grid, delta, center))
                else:
                    assert got == want, (grid, delta, center)
    # the sweep crosses the room, undersampling and boundary thresholds
    assert seen == {"accepted", "room", "undersampled", "boundary"}
    assert len(stricter) <= 1, stricter
    grid = grids[0]
    assert _guard_outcome(lambda: make_gaussian(grid, 0.112, 0.0)) == (None, "")
    kind, message = _guard_outcome(lambda: make_gaussian(grid, 0.108, 0.0))
    assert kind is GridGuardError and "undersamples" in message
    kind, message = _guard_outcome(lambda: make_gaussian(grids[3], 1e-17, 0.0))
    assert kind is GridGuardError and "boundary amplitude" in message
    kind, message = _guard_outcome(lambda: make_gaussian(grid, 1.5, 0.0))
    assert kind is GridGuardError and "8*delta of room" in message
    for bad in (0.0, -1.0, np.nan):
        assert _guard_outcome(lambda: make_gaussian(grid, bad, 0.0))[0] is InputError
    # delta = 1e-8 on dq = 1/128 is rejected by the bound alone, in bounded
    # memory.
    tracemalloc.start()
    try:
        with pytest.raises(GridGuardError, match="undersamples"):
            make_gaussian(PointerGrid(n=256, q_min=-1.0, q_max=1.0), 1e-8, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gaussian_fidelity_of_a_sampled_state_matches_closed_form():
    # A two-packet superposition built from samples, whose spectrum is the
    # FFT of the whole lattice: no band.
    delta = 0.8
    grid = default_grid(delta, 2.0)
    amplitudes, shifts = [0.6, -0.35 + 0.5j], [-0.7, 1.1]
    samples = sum(a * make_gaussian(grid, delta, s).samples for a, s in zip(amplitudes, shifts))
    samples /= np.sqrt(np.sum(np.abs(samples) ** 2) * grid.spacing)
    state = PointerState(grid, samples)
    assert state.spectrum[0] == slice(0, grid.n)
    for reference in (-0.7, 0.0, 0.45, 1.1):
        want = fidelity_oracle(amplitudes, shifts, reference, delta)
        assert abs(gaussian_fidelity(state, reference, delta) - want) <= 1e-10
    with pytest.raises(GridGuardError, match="8\\*delta of room"):
        gaussian_fidelity(state, grid.q_max - delta, delta)


# ------------------------------------------------------------- coupling


def test_couple_eigenstate_is_pure_translation():
    grid = default_grid(1.0, 2.0)
    pt = make_gaussian(grid, 1.0)
    joint = couple(np.array([1.0, 0.0]), pt, SZ, g=2.0)
    assert joint.norm() == pytest.approx(1.0, abs=1e-12)
    reference = make_gaussian(grid, 1.0, center=2.0)
    assert np.allclose(joint.position_density(), reference.position_density(), atol=1e-12)


def test_couple_preserves_norm_and_guards_wraparound():
    grid = default_grid(1.0, 2.0)
    pt = make_gaussian(grid, 1.0)
    psi = np.array([0.6, 0.8], dtype=complex)
    joint = couple(psi, pt, SZ, g=1.0)
    assert joint.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(GridGuardError):
        couple(psi, pt, SZ, g=0.3 * grid.extent)


def test_couple_input_validation():
    grid = default_grid(1.0, 1.0)
    pt = make_gaussian(grid, 1.0)
    with pytest.raises(InputError):
        couple(np.array([1.0, 1.0]), pt, SZ, g=0.5)  # unnormalized system
    with pytest.raises(DimensionMismatchError):
        couple(np.array([1.0, 0.0, 0.0]), pt, SZ, g=0.5)
    with pytest.raises(InputError):
        couple(np.array([1.0, 0.0]), pt, SZ, g=np.inf)


def test_conditional_moments_match_overlap_oracle():
    # Dual-route check: FFT evolution vs closed-form Gaussian overlaps,
    # over random selections, observables, couplings, and widths.
    rng = np.random.default_rng(404)
    checked = 0
    while checked < 120:
        dim = int(rng.integers(2, 5))
        pre = random_state(rng, dim)
        post = random_state(rng, dim)
        if abs(np.vdot(post, pre)) < 5e-2:
            continue
        operator = random_hermitian(rng, dim)
        eig_bound = float(np.max(np.abs(np.linalg.eigvalsh(operator))))
        g = float(rng.uniform(-1.5, 1.5))
        delta = float(rng.uniform(0.5, 2.0))
        grid = default_grid(delta, abs(g) * eig_bound)
        pt = make_gaussian(grid, delta)
        state, prob = post_select(couple(pre, pt, operator, g), post)
        oracle = conditional_oracle(pre, post, operator, g, delta)
        if oracle["probability"] < 1e-4:
            continue
        assert prob == pytest.approx(oracle["probability"], rel=1e-9, abs=1e-12)
        assert mean_q(state) == pytest.approx(oracle["mean_q"], rel=1e-7, abs=1e-9)
        assert var_q(state) == pytest.approx(oracle["var_q"], rel=1e-7, abs=1e-9)
        assert mean_p(state) == pytest.approx(oracle["mean_p"], rel=1e-7, abs=1e-9)
        assert var_p(state) == pytest.approx(oracle["var_p"], rel=1e-7, abs=1e-9)
        checked += 1


def test_post_selection_probabilities_sum_to_one():
    rng = np.random.default_rng(99)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        pre = random_state(rng, dim)
        operator = random_hermitian(rng, dim)
        g = 0.4
        grid = default_grid(1.0, abs(g) * float(np.max(np.abs(np.linalg.eigvalsh(operator)))))
        joint = couple(pre, make_gaussian(grid, 1.0), operator, g)
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        total = 0.0
        for k in range(dim):
            try:
                _, prob = post_select(joint, basis[:, k])
            except PostSelectionImpossibleError:
                prob = 0.0
            total += prob
        assert total == pytest.approx(1.0, abs=1e-10)


def test_post_select_impossible():
    grid = default_grid(1.0, 1.0)
    joint = couple(np.array([1.0, 0.0]), make_gaussian(grid, 1.0), np.eye(2), g=0.5)
    with pytest.raises(PostSelectionImpossibleError):
        post_select(joint, np.array([0.0, 1.0]))


def test_post_select_phase_invariance():
    grid = default_grid(1.0, 1.0)
    pre = np.array([0.8, 0.6], dtype=complex)
    joint = couple(pre, make_gaussian(grid, 1.0), SZ, g=0.7)
    post = np.array([1.0, 1.0j]) / np.sqrt(2)
    state_a, prob_a = post_select(joint, post)
    state_b, prob_b = post_select(joint, np.exp(1.3j) * post)
    assert prob_a == pytest.approx(prob_b, rel=1e-12)
    assert np.allclose(state_a.position_density(), state_b.position_density(), atol=1e-12)


def test_degenerate_operator_conditional():
    # A degenerate observable must project, not pick one arbitrary eigenvector.
    pre = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    post = np.array([1.0, -0.5, 0.5])
    post = post / np.linalg.norm(post)
    operator = np.diag([1.0, 1.0, -1.0]).astype(complex)
    grid = default_grid(1.0, 0.6)
    state, prob = post_select(couple(pre, make_gaussian(grid, 1.0), operator, 0.6), post)
    oracle = conditional_oracle(pre, post, operator, 0.6, 1.0)
    assert prob == pytest.approx(oracle["probability"], rel=1e-10)
    assert mean_q(state) == pytest.approx(oracle["mean_q"], rel=1e-9)


# ------------------------------------------------------------ sequential


def test_sequential_single_matches_direct():
    pre = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    post = np.array([1.0, 1.0, -1.0]) / np.sqrt(3)
    proj = np.diag([0.0, 0.0, 1.0]).astype(complex)
    grid = default_grid(1.0, 1.0)
    pt = make_gaussian(grid, 1.0)
    marginals, prob = sequential_couple(pre, [(proj, 0.05, pt)], post)
    direct, prob_direct = post_select(couple(pre, pt, proj, 0.05), post)
    assert prob == pytest.approx(prob_direct, rel=1e-10)
    m = marginals[0]
    assert mean_q(m) == pytest.approx(mean_q(direct), abs=1e-10)
    assert var_q(m) == pytest.approx(var_q(direct), abs=1e-10)
    assert mean_p(m) == pytest.approx(mean_p(direct), abs=1e-12)
    assert var_p(m) == pytest.approx(var_p(direct), abs=1e-10)


def test_sequential_commuting_order_invariance():
    pre = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    post = np.array([1.0, 1.0, -1.0]) / np.sqrt(3)
    pa = np.diag([1.0, 0.0, 0.0]).astype(complex)
    pb = np.diag([0.0, 1.0, 0.0]).astype(complex)
    grid = default_grid(1.0, 1.0)
    pt = make_gaussian(grid, 1.0)
    m_ab, p_ab = sequential_couple(pre, [(pa, 0.05, pt), (pb, 0.08, pt)], post)
    m_ba, p_ba = sequential_couple(pre, [(pb, 0.08, pt), (pa, 0.05, pt)], post)
    assert p_ab == pytest.approx(p_ba, rel=1e-12)
    assert mean_q(m_ab[0]) == pytest.approx(mean_q(m_ba[1]), abs=1e-12)
    assert mean_q(m_ab[1]) == pytest.approx(mean_q(m_ba[0]), abs=1e-12)


def test_sequential_distinct_pointer_widths():
    pre = np.array([1.0, 1.0]) / np.sqrt(2)
    post = np.array([1.0, 0.0])
    grid_a = default_grid(1.0, 1.0)
    grid_b = default_grid(0.5, 1.0)
    marginals, prob = sequential_couple(
        pre,
        [(SZ, 0.05, make_gaussian(grid_a, 1.0)), (SZ, 0.05, make_gaussian(grid_b, 0.5))],
        post,
    )
    # sigma-z weak value here is exactly 1; both pointers shift by about g
    assert marginals[0].grid is grid_a
    assert marginals[1].grid is grid_b
    assert mean_q(marginals[0]) == pytest.approx(0.05, abs=5e-3)
    assert mean_q(marginals[1]) == pytest.approx(0.05, abs=5e-3)
    assert var_q(marginals[0]) == pytest.approx(0.5, rel=2e-2)
    assert var_q(marginals[1]) == pytest.approx(0.125, rel=2e-2)


def test_sequential_weak_guard():
    grid = default_grid(0.2, 1.0)
    pt = make_gaussian(grid, 0.2)
    pre = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.raises(GridGuardError):
        sequential_couple(pre, [(SZ, 1.0, pt)], np.array([1.0, 0.0]))


def test_sequential_weak_guard_boundary_is_inclusive():
    # g * max|o| = delta/10 is accepted whatever way the width read off the
    # samples rounds; a relative excess of 1e-9 is rejected.
    pre = np.array([1.0, 1.0]) / np.sqrt(2)
    post = np.array([1.0, 0.0])
    for delta in (0.5, 2.0):
        pt = make_gaussian(default_grid(delta, 1.0), delta)
        sequential_couple(pre, [(SZ, delta / 10.0, pt)], post)
        with pytest.raises(GridGuardError, match="weak-regime"):
            sequential_couple(pre, [(SZ, delta / 10.0 * (1.0 + 1e-9), pt)], post)


def test_sequential_validation():
    grid = default_grid(1.0, 1.0)
    pt = make_gaussian(grid, 1.0)
    pre = np.array([1.0, 1.0]) / np.sqrt(2)
    post = np.array([1.0, 0.0])
    with pytest.raises(InputError):
        sequential_couple(pre, [], post)
    with pytest.raises(DimensionMismatchError):
        sequential_couple(pre, [(np.eye(3), 0.05, pt)], post)
    with pytest.raises(PostSelectionImpossibleError):
        sequential_couple(np.array([1.0, 0.0]), [(np.eye(2), 0.01, pt)], np.array([0.0, 1.0]))


def _random_observable(rng, dim, values=None):
    """U diag(values) U^dagger for a random unitary U; values default to a
    random spectrum scaled to max |o| = 1."""
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    if values is None:
        values = rng.uniform(-1.0, 1.0, size=dim)
        values /= np.max(np.abs(values))
    return (basis * np.asarray(values, dtype=float)) @ basis.conj().T


def _selection_pair(rng, dim):
    while True:
        pre, post = random_state(rng, dim), random_state(rng, dim)
        if abs(np.vdot(post, pre)) >= 0.2:
            return pre, post


@pytest.mark.parametrize("k_total", [2, 3, 4, 5, 6])
def test_sequential_dense_matches_closed_form(k_total):
    # Dense random couplings against the closed-form Gaussian-overlap oracle.
    # One observable is degenerate (two 2-fold eigenvalues in dim 4, or a
    # 2-fold one in dim 3), so the cluster counts m_k differ across
    # couplings; every pointer has its own width.
    rng = np.random.default_rng(600 + k_total)
    dim = 3 + k_total % 2
    pre, post = _selection_pair(rng, dim)
    degenerate_values = [0.8, 0.8, -0.5, -0.5][:dim] if dim == 4 else [0.8, 0.8, -0.5]
    couplings, spec = [], []
    for k in range(k_total):
        values = degenerate_values if k == 1 else None
        operator = _random_observable(rng, dim, values)
        delta = float(rng.uniform(0.5, 2.0))
        bound = float(np.max(np.abs(np.linalg.eigvalsh(operator))))
        g = float(rng.uniform(0.3, 0.9)) * 0.1 * delta / bound * rng.choice([-1.0, 1.0])
        pt = make_gaussian(default_grid(delta, abs(g) * bound), delta)
        couplings.append((operator, g, pt))
        spec.append((operator, g, delta))
    marginals, prob = sequential_couple(pre, couplings, post)
    want_prob, want = sequential_oracle(pre, post, spec)
    assert prob == pytest.approx(want_prob, rel=1e-9)
    for marginal, oracle, (_, _, delta) in zip(marginals, want, spec):
        got = moments(marginal)
        assert abs(got.mean_q - oracle["mean_q"]) <= 1e-8 * delta
        assert abs(got.var_q - oracle["var_q"]) <= 1e-8 * delta**2
        assert abs(got.mean_p - oracle["mean_p"]) <= 1e-8 / delta
        assert abs(got.var_p - oracle["var_p"]) <= 1e-8 / delta**2


def _einsum_sequential_reference(psi, couplings, phi):
    """The branch contraction as one einsum over all 2K branch indices per
    output (probability, then each marginal), with the packets translated by
    complex phases and one forward FFT per packet family for the momentum
    densities. Returns (probability, [(rho_q, rho_p), ...])."""
    dim = psi.size
    vectors = psi[None, :]
    overlaps, families = [], []
    for operator, g, pt in couplings:
        eig = linalg.eig_hermitian(operator)
        clusters = eig.clusters()
        vectors = np.stack(
            [vectors @ (eig.eigenvectors[:, idx] @ eig.eigenvectors[:, idx].conj().T).T
             for _, idx in clusters],
            axis=1,
        ).reshape(-1, dim)
        base_fft = np.fft.fft(pt.samples)
        fam = np.fft.ifft(
            base_fft[None, :]
            * np.exp(-1j * g * np.array([v for v, _ in clusters])[:, None] * pt.grid.momenta),
            axis=1,
        )
        families.append(fam)
        overlaps.append(fam.conj() @ fam.T * pt.grid.spacing)
    counts = [fam.shape[0] for fam in families]
    amplitudes = (vectors @ phi.conj()).reshape(counts)
    k_total = len(counts)
    idx_i, idx_j = list(range(k_total)), list(range(k_total, 2 * k_total))

    def contract(open_axis):
        operands = [amplitudes, idx_i, amplitudes.conj(), idx_j]
        for l in range(k_total):
            if l != open_axis:
                operands.extend([overlaps[l], [idx_j[l], idx_i[l]]])
        out = [] if open_axis is None else [idx_i[open_axis], idx_j[open_axis]]
        return np.einsum(*operands, out)

    probability = float(np.real(contract(None)))
    densities = []
    for k, ((_, _, pt), fam) in enumerate(zip(couplings, families)):
        weights = contract(k)
        rho_q = np.real(np.einsum(weights, [0, 1], fam, [0, 2], fam.conj(), [1, 2], [2]))
        phi_fam = np.fft.fftshift(np.fft.fft(fam, axis=1), axes=1)
        phi_fam *= pt.grid.spacing / np.sqrt(2.0 * np.pi)
        rho_p = np.real(
            np.einsum(weights, [0, 1], phi_fam, [0, 2], phi_fam.conj(), [1, 2], [2])
        )
        densities.append((rho_q / probability, rho_p / probability))
    return probability, densities


def test_sequential_matches_einsum_reference():
    rng = np.random.default_rng(707)
    cases = []
    for k_total, dim in [(1, 2), (2, 3), (3, 4), (4, 2), (5, 4), (5, 3)]:
        pre, post = _selection_pair(rng, dim)
        cases.append((pre, post, [_random_observable(rng, dim) for _ in range(k_total)]))
    # Cluster counts (20, 20, 2) in dim 20: the middle marginal's blocks
    # (20 x 2) are too wide for one GEMM, and its 20 (20, 20) products are
    # summed in chunks of 2.
    pre, post = _selection_pair(rng, 20)
    cases.append((pre, post, [
        _random_observable(rng, 20),
        _random_observable(rng, 20),
        _random_observable(rng, 20, np.repeat([-0.6, 1.0], 10)),
    ]))
    pt = make_gaussian(default_grid(1.0, 0.1), 1.0)
    for pre, post, operators in cases:
        couplings = [(op, float(rng.uniform(0.04, 0.09)), pt) for op in operators]
        marginals, prob = sequential_couple(pre, couplings, post)
        want_prob, want = _einsum_sequential_reference(pre, couplings, post)
        assert abs(prob - want_prob) <= 1e-12 * want_prob
        for marginal, (rho_q, rho_p) in zip(marginals, want):
            got_q, got_p = marginal.position_density(), marginal.momentum_density()
            assert np.max(np.abs(got_q - rho_q)) <= 1e-12 * np.max(rho_q)
            assert np.max(np.abs(got_p - rho_p)) <= 1e-12 * np.max(rho_p)


def test_sequential_transforms_a_shared_pointer_once(monkeypatch):
    # The couplings share one pointer, held as its closed-form spectrum; the
    # weak-regime guard reads var_q off its samples, one ifft shared by all
    # couplings. Each coupling makes one batched ifft of its translated
    # family, and the momentum densities come from the translated spectra.
    calls = {"fft": 0, "ifft": 0}
    fft, ifft = np.fft.fft, np.fft.ifft

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "fft", counted("fft", fft))
    monkeypatch.setattr(np.fft, "ifft", counted("ifft", ifft))
    rng = np.random.default_rng(808)
    pre, post = _selection_pair(rng, 4)
    pt = make_gaussian(default_grid(1.0, 0.1), 1.0)
    couplings = [(_random_observable(rng, 4), 0.05, pt) for _ in range(5)]
    sequential_couple(pre, couplings, post)
    assert calls == {"fft": 0, "ifft": 6}


def test_sequential_index_cap_guard_trips_before_building_amplitudes():
    # 5 * 3^8 * 4^3 * 2 = 4199040, the smallest 5-smooth count above 2^22,
    # from diagonal observables in dim 5 with that many distinct eigenvalues.
    counts = [5] + [3] * 8 + [4] * 3 + [2]
    assert np.prod(counts) == 4199040 > pointer.SEQUENTIAL_INDEX_CAP == 2**22
    pt = make_gaussian(default_grid(1.0, 0.1), 1.0)
    couplings = [
        (np.diag(np.concatenate([np.linspace(-1.0, 1.0, m), np.ones(5 - m)])), 0.05, pt)
        for m in counts
    ]
    psi = np.ones(5) / np.sqrt(5.0)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError, match="exceeds the cap"):
            sequential_couple(psi, couplings, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the amplitude tensor alone would take 64 MiB


def _diagonal_couplings(dim, counts, pt):
    """Diagonal observables in ``dim`` with m distinct eigenvalues each."""
    return [
        (np.diag(np.concatenate([np.linspace(-1.0, 1.0, m), np.ones(dim - m)])), 0.05, pt)
        for m in counts
    ]


def test_sequential_work_cap_guard_trips_before_building_amplitudes():
    # Two couplings in dim 512 with 512 and 51 clusters on n = 2^14 pointers:
    # N = 26112 is far below the index cap, but the overlaps and densities
    # (m^2 n) and the FFT passes put the estimate just above the work cap;
    # 50 clusters instead of 51 would pass it.
    n = 2**14
    assert pointer._sequential_cost(512, [512, 50], [n, n])[0] <= pointer.SEQUENTIAL_WORK_CAP
    work, held = pointer._sequential_cost(512, [512, 51], [n, n])
    assert pointer.SEQUENTIAL_WORK_CAP < work < 1.001 * pointer.SEQUENTIAL_WORK_CAP
    assert held <= pointer.SEQUENTIAL_HELD_CAP
    pt = make_gaussian(default_grid(1.0, 0.1, n=n), 1.0)
    couplings = _diagonal_couplings(512, [512, 51], pt)
    psi = np.ones(512) / np.sqrt(512.0)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError, match="work .* exceeds the cap"):
            sequential_couple(psi, couplings, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # the first coupling's spectra alone would take 128 MiB


def test_sequential_held_cap_guard_trips_before_building_amplitudes():
    # 20 two-cluster couplings in dim 63: N = 2^20 is below the index cap and
    # the work is a quarter of its cap, but the 2^19 system vectors of the
    # last projecting stage (held twice) put the memory estimate just above
    # the cap; dim 62 would pass it.
    sizes = [4096] * 20
    assert pointer._sequential_cost(62, [2] * 20, sizes)[1] <= pointer.SEQUENTIAL_HELD_CAP
    work, held = pointer._sequential_cost(63, [2] * 20, sizes)
    assert pointer.SEQUENTIAL_HELD_CAP < held < 1.01 * pointer.SEQUENTIAL_HELD_CAP
    assert work <= pointer.SEQUENTIAL_WORK_CAP
    pt = make_gaussian(default_grid(1.0, 0.1), 1.0)
    couplings = _diagonal_couplings(63, [2] * 20, pt)
    psi = np.ones(63) / np.sqrt(63.0)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError, match="held exceeds the cap"):
            sequential_couple(psi, couplings, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # the stage vectors alone would take 1 GiB


def test_sequential_at_index_cap_within_budget():
    # K = 11 dense dim-4 couplings: 4^11 = 2^22 branch sequences, the cap.
    # The contraction holds about log2(K) + 2 tensors of N complex numbers
    # (64 MiB each here); unloaded it takes ~2-3 s on 2 cores, against the
    # README budget of 10 s and 2 GB peak RSS.
    rng = np.random.default_rng(909)
    pre, post = _selection_pair(rng, 4)
    pt = make_gaussian(default_grid(1.0, 0.1), 1.0)
    couplings = [(_random_observable(rng, 4), float(rng.uniform(0.04, 0.09)), pt)
                 for _ in range(11)]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        marginals, prob = sequential_couple(pre, couplings, post)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 4**11 == pointer.SEQUENTIAL_INDEX_CAP
    assert 0.0 < prob <= 1.0
    assert len(marginals) == 11
    assert peak < 512 * 2**20
    assert elapsed < 10.0


def test_sequential_probability_above_one_guard(monkeypatch):
    eig_hermitian = linalg.eig_hermitian

    def inflated(m):
        eig = eig_hermitian(m)
        return linalg.EigenDecomposition(eig.eigenvalues, eig.eigenvectors * 1.01)

    monkeypatch.setattr(linalg, "eig_hermitian", inflated)
    pt = make_gaussian(default_grid(1.0, 0.1), 1.0)
    up = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(NumericalGuardError, match="exceeds 1"):
        sequential_couple(up, [(SZ, 0.05, pt), (SZ, 0.05, pt)], up)


def test_mixed_state_validation():
    grid = default_grid(1.0)
    state = make_gaussian(grid, 1.0)
    rho_q = state.position_density()
    rho_p = state.momentum_density()
    mixed = MixedPointerState(grid, rho_q, rho_p)
    assert mean_q(mixed) == pytest.approx(0.0, abs=1e-12)
    assert var_p(mixed) == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(InputError):
        MixedPointerState(grid, -rho_q, rho_p)
    with pytest.raises(InputError):
        MixedPointerState(grid, 3.0 * rho_q, rho_p)
    with pytest.raises(DimensionMismatchError):
        MixedPointerState(grid, rho_q[:-1], rho_p)


# -------------------------------------------------------------- exports


def test_export_formats_round_trip():
    grid = default_grid(1.0)
    state = make_gaussian(grid, 1.0)
    buf = io.StringIO()
    pointer.write_position_density(state, buf, {"note": 3})
    text = buf.getvalue()
    lines = text.splitlines()
    assert "# note = 3" in lines
    assert any(line.startswith("# grid_n = ") for line in lines)
    assert any(line.startswith("# columns: q\tdensity") for line in lines)
    data = np.loadtxt(io.StringIO(text))
    assert data.shape == (grid.n, 2)
    # 17 significant digits survive the text round trip bit-exactly
    assert np.array_equal(data[:, 0], grid.points)
    assert np.array_equal(data[:, 1], state.position_density())

    buf = io.StringIO()
    pointer.write_momentum_density(state, buf)
    data = np.loadtxt(io.StringIO(buf.getvalue()))
    assert np.array_equal(data[:, 0], grid.momenta_sorted)
    assert np.array_equal(data[:, 1], state.momentum_density())

    buf = io.StringIO()
    pointer.write_wavefunction(state, buf)
    data = np.loadtxt(io.StringIO(buf.getvalue()))
    assert data.shape == (grid.n, 4)
    assert np.array_equal(data[:, 1] + 1j * data[:, 2], state.samples)


def test_zero_coupling_leaves_pointer_untouched():
    grid = default_grid(1.0, 1.0)
    pt = make_gaussian(grid, 1.0)
    pre = np.array([0.6, 0.8], dtype=complex)
    joint = couple(pre, pt, SZ, g=0.0)
    assert np.allclose(joint.position_density(), pt.position_density(), atol=1e-12)
    post = np.array([1.0, 0.0], dtype=complex)
    state, prob = post_select(joint, post)
    assert prob == pytest.approx(abs(np.vdot(post, pre)) ** 2, rel=1e-12)
    assert np.allclose(state.position_density(), pt.position_density(), atol=1e-12)


def test_three_box_middle_pointer_shift():
    # Pre (1,1,1)/sqrt(3), post (1,1,-1)/sqrt(3): the third projector has
    # weak value -1, so a weak probe shifts the pointer by about -g.
    pre = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    post = np.array([1.0, 1.0, -1.0]) / np.sqrt(3)
    proj = np.diag([0.0, 0.0, 1.0]).astype(complex)
    grid = default_grid(5.0, 1.0)
    pt = make_gaussian(grid, 5.0)
    state, _ = post_select(couple(pre, pt, proj, g=0.1), post)
    assert mean_q(state) == pytest.approx(-0.1, abs=5e-3)


def test_gaussian_fidelity_distinguishes_amplification_regimes():
    # Post-selection tuned for spin-z weak value 100.  A wide pointer tracks
    # the amplified shift faithfully; a narrow one does not.
    pre = np.array([1.0, 1.0]) / np.sqrt(2)
    post = np.array([101.0, -99.0])
    post = post / np.linalg.norm(post)
    g = 1.0
    wide = default_grid(1000.0, 101.0)
    state, _ = post_select(couple(pre, make_gaussian(wide, 1000.0), SZ, g), post)
    assert gaussian_fidelity(state, 100.0 * g, 1000.0) >= 0.99
    narrow = default_grid(5.0, 101.0)
    state, _ = post_select(couple(pre, make_gaussian(narrow, 5.0), SZ, g), post)
    assert gaussian_fidelity(state, 100.0 * g, 5.0) < 0.9


def test_sequential_three_projectors_marginal_shifts():
    # Weak values of the three projectors are (+1, +1, -1); each marginal
    # pointer shifts by about g times its weak value.
    pre = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    post = np.array([1.0, 1.0, -1.0]) / np.sqrt(3)
    projs = [np.diag(row).astype(complex) for row in np.eye(3)]
    grid = default_grid(1.0, 1.0)
    g = 0.01
    couplings = [(proj, g, make_gaussian(grid, 1.0)) for proj in projs]
    marginals, prob = sequential_couple(pre, couplings, post)
    assert prob > 0.0
    expected = [g, g, -g]
    for marginal, target in zip(marginals, expected):
        assert mean_q(marginal) == pytest.approx(target, abs=0.1 * abs(target))


def test_post_select_same_eigenstate_is_certain():
    grid = default_grid(1.0, 2.0)
    pt = make_gaussian(grid, 1.0)
    up = np.array([1.0, 0.0], dtype=complex)
    state, prob = post_select(couple(up, pt, SZ, g=2.0), up)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert mean_q(state) == pytest.approx(2.0, abs=1e-10)
    assert var_q(state) == pytest.approx(0.5, rel=1e-10)


def test_gaussian_minimum_uncertainty_product():
    for delta in (0.25, 1.0, 3.0):
        grid = default_grid(delta, 0.0)
        pt = make_gaussian(grid, delta)
        assert var_q(pt) * var_p(pt) == pytest.approx(0.25, rel=1e-10)


# ------------------------------------------------- momentum-space selection


def _reference_post_select(pre, post, operator, pt, g):
    """The conditional pointer as one inverse FFT per eigenvalue cluster,
    the packets summed in position space."""
    eig = linalg.eig_hermitian(operator)
    grid = pt.grid
    base_fft = np.fft.fft(pt.samples)
    conditional = np.zeros(grid.n, dtype=complex)
    for value, idx in eig.clusters():
        vecs = eig.eigenvectors[:, idx]
        amplitude = np.vdot(post, vecs @ (vecs.conj().T @ pre))
        packet = np.fft.ifft(base_fft * np.exp(-1j * g * value * grid.momenta))
        conditional += amplitude * packet
    probability = float(np.sum(np.abs(conditional) ** 2) * grid.spacing)
    return conditional / np.sqrt(probability), probability


def test_post_select_matches_per_cluster_reference():
    rng = np.random.default_rng(505)
    cases = []
    while len(cases) < 40:
        dim = int(rng.integers(2, 6))
        pre, post = random_state(rng, dim), random_state(rng, dim)
        if abs(np.vdot(post, pre)) < 0.2:
            continue
        cases.append((pre, post, random_hermitian(rng, dim), float(rng.uniform(-1.5, 1.5))))
    for box in ("ABC", "C"):
        sc = three_box(box)
        cases.append((sc.pre, sc.post, sc.operator, 0.3))
    # a 2-fold projector in a random basis of dimension 4
    basis, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    projector = basis[:, :2] @ basis[:, :2].conj().T
    cases.append((random_state(rng, 4), random_state(rng, 4), projector, 0.7))
    for pre, post, operator, g in cases:
        bound = float(np.max(np.abs(np.linalg.eigvalsh(operator))))
        pt = make_gaussian(default_grid(1.0, abs(g) * bound), 1.0)
        state, prob = post_select(couple(pre, pt, operator, g), post)
        want, want_prob = _reference_post_select(pre, post, operator, pt, g)
        assert np.max(np.abs(state.samples - want)) <= 1e-12
        assert abs(prob - want_prob) <= 1e-12 * want_prob


def test_branches_are_translated_packets_built_on_request():
    grid = default_grid(1.0, 0.6)
    pt = make_gaussian(grid, 1.0)
    operator = np.diag([0.6, 0.6, -0.4]).astype(complex)
    joint = couple(np.ones(3) / np.sqrt(3.0), pt, operator, g=1.0)
    post_select(joint, np.array([1.0, 0.0, 0.0]))
    assert "branches" not in vars(joint)
    assert [b.eigenvalue for b in joint.branches] == pytest.approx([-0.4, 0.6])
    for branch, weight in zip(joint.branches, (1 / 3, 2 / 3)):
        assert branch.weight == pytest.approx(weight, rel=1e-12)
        shifted = make_gaussian(grid, 1.0, center=branch.eigenvalue)
        assert np.max(np.abs(branch.pointer.samples - shifted.samples)) < 1e-12


def test_unitarity_guard_trips_on_non_orthonormal_eigenvectors():
    grid = default_grid(1.0, 1.0)
    pt = make_gaussian(grid, 1.0)
    skewed = linalg.EigenDecomposition(
        eigenvalues=np.array([-1.0, 1.0]),
        eigenvectors=np.array([[1.0, 1e-3], [0.0, 1.0]], dtype=complex),
    )
    psi = np.array([0.6, 0.8], dtype=complex)
    with pytest.raises(NumericalGuardError, match="unitarity"):
        pointer._couple(psi, pt, skewed, 0.5)


def test_post_select_probability_above_one_guard():
    grid = default_grid(1.0, 1.0)
    up = np.array([1.0, 0.0], dtype=complex)
    joint = couple(up, make_gaussian(grid, 1.0), SZ, g=0.5)
    inflated = dataclasses.replace(joint, spectrum=joint.spectrum * 1.01)
    with pytest.raises(NumericalGuardError, match="exceeds 1"):
        post_select(inflated, up)


def test_moments_match_single_moment_functions():
    grid = default_grid(1.0, 1.0)
    pre = np.array([0.8, 0.6], dtype=complex)
    state, _ = post_select(couple(pre, make_gaussian(grid, 1.0), SZ, g=0.7),
                           np.array([1.0, 1.0j]) / np.sqrt(2))
    mixed = MixedPointerState(grid, state.position_density(), state.momentum_density())
    for st in (state, mixed):
        m = moments(st)
        assert m == (mean_q(st), var_q(st), mean_p(st), var_p(st))
        assert m.mean_p != 0.0


def test_position_moments_keep_the_bits_of_the_plain_expressions():
    # position_density squares |psi| in place and _density_moments reuses
    # one scratch array; both keep the bits of the plain expressions.
    grid = default_grid(1.0, 1.0)
    pre = np.array([0.8, 0.6], dtype=complex)
    state, _ = post_select(couple(pre, make_gaussian(grid, 1.0), SZ, g=0.7),
                           np.array([1.0, 1.0j]) / np.sqrt(2))
    rho = state.position_density()
    assert np.array_equal(rho, np.abs(state.samples) ** 2)
    x, weight = grid.points, grid.spacing
    total = float(rho.sum() * weight)
    mu = float(np.sum(x * rho) * weight / total)
    var = float(np.sum((x - mu) ** 2 * rho) * weight / total)
    assert pointer._density_moments(x, rho, weight) == (total, mu, var)


class _CorruptedDensities:
    """A MixedPointerState-like readout whose momentum density carries 1e-6
    more mass than its position density."""

    def __init__(self, state):
        self.grid = state.grid
        self._rho_q = state.position_density()
        self._rho_p = state.momentum_density() * (1.0 + 1e-6)

    def position_density(self):
        return self._rho_q

    def momentum_density(self):
        return self._rho_p


def test_parseval_guard_in_moments():
    grid = default_grid(1.0, 1.0)
    state = make_gaussian(grid, 1.0)
    bad = _CorruptedDensities(state)
    for fn in (moments, mean_p, var_p):
        with pytest.raises(NumericalGuardError, match="Parseval"):
            fn(bad)
    # position moments need no momentum density
    assert mean_q(bad) == pytest.approx(0.0, abs=1e-12)


def test_momentum_density_drops_the_q_min_phase():
    grid = PointerGrid(n=512, q_min=-7.3, q_max=9.1)
    state = make_gaussian(grid, 1.0, center=0.9)
    rho = state.momentum_density()
    assert np.allclose(rho, np.abs(state.momentum_wavefunction()) ** 2, rtol=0, atol=1e-15)


# ----------------------------------------------------------- inverse FFT


def _zero_filled_ifft(grid, band, values):
    """np.fft.ifft of the band zero-filled to the whole lattice: sorted bin
    i is storage bin (i - n/2) mod n."""
    full = np.zeros(values.shape[:-1] + (grid.n,), dtype=complex)
    full[..., (np.arange(band.start, band.stop) - grid.n // 2) % grid.n] = values
    return np.fft.ifft(full)


def _packet_spectra(rng, lead, width):
    """Gaussian band values with a random linear phase per row, as the
    spectra of translated pointer packets are."""
    x = np.linspace(-4.0, 4.0, width)
    shifts = rng.uniform(-width, width, size=lead + (1,))
    return np.exp(-0.5 * x**2 - 1j * shifts * x)


@pytest.mark.parametrize("n", [2**8, 2**12, 2**15, 2**16, 2**19, 2**20])
def test_inverse_fft_matches_the_zero_filled_transform(n, monkeypatch):
    # Narrow, odd-width off-centre, wider than one row, the full lattice
    # (as states built from samples hold), and bands wholly above and wholly
    # below p = 0. A grid of fewer than four rows is
    # the zero-filled transform bit for bit; a larger one is inverted as
    # rows of m < n points and agrees within 1e-15 of the peak.
    row = pointer._FFT_ROW
    grid = PointerGrid(n=n, q_min=-1.0, q_max=1.0)
    half = n // 2
    bands = [slice(half - 100, half + 101), slice(half - 37, half + 2),
             slice(half - row // 2 - 3, half + row // 2 + 4), slice(0, n),
             slice(half + 5, half + 20), slice(half // 2, half - 3)]
    lengths = []
    ifft = np.fft.ifft

    def recorded(a, *args, **kwargs):
        lengths.append(a.shape[-1])
        return ifft(a, *args, **kwargs)

    rng = np.random.default_rng(n)
    for band in bands:
        width = band.stop - band.start
        if band.start < 0 or band.stop > n:
            continue
        m = max(row, 1 << (width - 1).bit_length())
        for lead in ((), (2,)):
            values = _packet_spectra(rng, lead, width)
            want = _zero_filled_ifft(grid, band, values)
            monkeypatch.setattr(np.fft, "ifft", recorded)
            got = pointer._inverse_fft(grid, band, values)
            monkeypatch.setattr(np.fft, "ifft", ifft)
            assert got.shape == lead + (n,)
            if n < 4 * m:
                assert lengths.pop() == n
                assert np.array_equal(got, want)
            else:
                assert lengths.pop() == m
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_inverse_fft_holds_two_grid_arrays_at_the_cap():
    # The row array and its transform, then the transform and the samples:
    # never three n-length complex arrays at once.
    grid = PointerGrid(n=pointer.GRID_MAX_N, q_min=-2000.0, q_max=2000.0)
    band, values = pointer._gaussian_spectrum(grid, 100.0)
    tracemalloc.start()
    try:
        samples = pointer._inverse_fft(grid, band, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert band.stop - band.start < grid.n // 1000
    assert peak <= 2.25 * samples.nbytes


def test_roots_of_unity_are_accurate_in_every_octant():
    n = 2**20
    k = np.arange(-n, 2 * n, 97)
    angle = 2.0 * np.pi * (k % n) / n
    roots = pointer._roots_of_unity(n, k)
    assert np.max(np.abs(roots - np.exp(1j * angle))) <= 1e-15
    # Quarter turns are exact.
    assert pointer._roots_of_unity(8, np.arange(0, 8, 2)).tolist() == [1, 1j, -1, -1j]

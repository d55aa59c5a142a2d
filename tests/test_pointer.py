import dataclasses
import io
import re
import time
import tracemalloc

import numpy as np
import pytest

from weakmeas import linalg, pointer, resolve, three_box
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
    moments,
    post_select,
    sequential_couple,
)

from oracles import (
    commuting_sequential_oracle,
    conditional_oracle,
    eigen_clusters,
    exact_position_moments,
    gaussian_fidelity as fidelity_oracle,
    gaussian_momentum_density,
    random_hermitian,
    random_state,
    sequential_oracle,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
# Tests of the band moments; without a long double wider than a double
# every state reads its samples instead.
needs_band_path = pytest.mark.skipif(
    not pointer._EXTENDED, reason="numpy's long double is a double: no band moments"
)


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
        m = moments(state)
        assert m.mean_q == pytest.approx(center, abs=1e-12 * max(1, abs(center)))
        assert m.var_q == pytest.approx(delta**2 / 2, rel=1e-12)
        assert m.mean_p == pytest.approx(0.0, abs=1e-12)
        assert m.var_p == pytest.approx(1.0 / (2 * delta**2), rel=1e-10)


def _fft_momenta(grid):
    """The momentum lattice in np.fft storage order."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)


def _momentum_wavefunction(state):
    """phi(p) = (2 pi)^(-1/2) integral psi(q) e^(-ipq) dq on
    grid.momenta_sorted, from the state's spectrum: the DFT times
    dq / sqrt(2 pi), with the phase exp(-i p q_min) of the grid's origin."""
    grid = state.grid
    band, values = state.spectrum
    p = grid.momenta_sorted[band]
    phi = np.zeros(grid.n, dtype=complex)
    phi[band] = values * (grid.spacing / np.sqrt(2.0 * np.pi)) * np.exp(-1j * p * grid.q_min)
    return phi


def test_momentum_wavefunction_analytic():
    # The transform convention is pinned pointwise: a Gaussian centered at c
    # maps to (delta^2/pi)^(1/4) exp(-p^2 delta^2 / 2) exp(-i p c), and its
    # momentum density is the modulus squared of that.
    delta, center = 1.5, 0.75
    grid = default_grid(delta, abs(center))
    state = make_gaussian(grid, delta, center)
    p = grid.momenta_sorted
    expected = (delta**2 / np.pi) ** 0.25 * np.exp(-(p**2) * delta**2 / 2) * np.exp(-1j * p * center)
    assert np.allclose(_momentum_wavefunction(state), expected, atol=1e-10)
    assert np.allclose(state.momentum_density(), gaussian_momentum_density(p, delta), atol=1e-10)


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
    p = _fft_momenta(grid)
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
    with pytest.raises(InputError, match="g must be finite"):
        pointer.CouplingConfig(g=np.inf, delta=1.0)
    with pytest.raises(InputError, match="center must be finite"):
        make_gaussian(grid, 1.0, center=np.inf)


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
        m = moments(state)
        assert m.mean_q == pytest.approx(oracle["mean_q"], rel=1e-7, abs=1e-9)
        assert m.var_q == pytest.approx(oracle["var_q"], rel=1e-7, abs=1e-9)
        assert m.mean_p == pytest.approx(oracle["mean_p"], rel=1e-7, abs=1e-9)
        assert m.var_p == pytest.approx(oracle["var_p"], rel=1e-7, abs=1e-9)
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
    assert moments(state).mean_q == pytest.approx(oracle["mean_q"], rel=1e-9)


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
    m, want = moments(marginals[0]), moments(direct)
    assert m.mean_q == pytest.approx(want.mean_q, abs=1e-10)
    assert m.var_q == pytest.approx(want.var_q, abs=1e-10)
    assert m.mean_p == pytest.approx(want.mean_p, abs=1e-12)
    assert m.var_p == pytest.approx(want.var_p, abs=1e-10)


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
    assert moments(m_ab[0]).mean_q == pytest.approx(moments(m_ba[1]).mean_q, abs=1e-12)
    assert moments(m_ab[1]).mean_q == pytest.approx(moments(m_ba[0]).mean_q, abs=1e-12)


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
    m_a, m_b = (moments(m) for m in marginals)
    assert m_a.mean_q == pytest.approx(0.05, abs=5e-3)
    assert m_b.mean_q == pytest.approx(0.05, abs=5e-3)
    assert m_a.var_q == pytest.approx(0.5, rel=2e-2)
    assert m_b.var_q == pytest.approx(0.125, rel=2e-2)


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
    with pytest.raises(InputError, match="coupling 1: g must be finite"):
        sequential_couple(pre, [(SZ, 0.05, pt), (SZ, np.nan, pt)], post)
    with pytest.raises(InputError, match="coupling 0: pointer must be a PointerState"):
        sequential_couple(pre, [(SZ, 0.05, pt.samples)], post)


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
            * np.exp(-1j * g * np.array([v for v, _ in clusters])[:, None] * _fft_momenta(pt.grid)),
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
    # Cluster counts (20, 20, 2) in dim 20: a larger system, and a last
    # coupling with two clusters of 10 eigenvectors each, whose overlaps the
    # sweep spreads over 10 x 10 blocks and whose weights are block sums.
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
    # weak-regime guard reads its Var Q off the band, once (off its samples,
    # one more ifft, where there are no band moments). Each coupling makes
    # one batched ifft of its mixture's rows, and the momentum densities
    # come from the rows.
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
    band_moments = pointer._band_moments
    reads = []

    def counted_band_moments(*args):
        reads.append(args[0])
        return band_moments(*args)

    monkeypatch.setattr(pointer, "_band_moments", counted_band_moments)
    sequential_couple(pre, couplings, post)
    banded = pointer._EXTENDED
    assert calls == {"fft": 0, "ifft": 5 if banded else 6}
    assert reads == ([pt.grid] if banded else [])


def _diagonal_couplings(dim, counts, pt):
    """Diagonal observables in ``dim`` with m distinct eigenvalues each."""
    return [
        (np.diag(np.concatenate([np.linspace(1.0, -1.0, m), np.ones(dim - m)])), 0.05, pt)
        for m in counts
    ]


def _band_width(pt):
    band = pt.spectrum[0]
    return band.stop - band.start


def test_sequential_work_cap_guard_trips_before_building_amplitudes():
    # Two couplings in dim 512 with 512 and 434 clusters on n = 2^14
    # pointers: the operators' and weights' eigh, the sweep (5 K dim^3) and
    # the FFT passes put the estimate just above the work cap; 433 clusters
    # instead of 434 would pass it.
    n = 2**14
    pt = make_gaussian(default_grid(1.0, 0.1, n=n), 1.0)
    w = _band_width(pt)
    assert pointer._sequential_cost(512, 2, [(512, w, n), (433, w, n)])[0] <= (
        pointer.SEQUENTIAL_WORK_CAP)
    work, held = pointer._sequential_cost(512, 2, [(512, w, n), (434, w, n)])
    assert pointer.SEQUENTIAL_WORK_CAP < work < 1.001 * pointer.SEQUENTIAL_WORK_CAP
    assert held <= pointer.SEQUENTIAL_HELD_CAP
    couplings = _diagonal_couplings(512, [512, 434], pt)
    psi = np.ones(512) / np.sqrt(512.0)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError, match="work .* exceeds the cap"):
            sequential_couple(psi, couplings, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # the first coupling's packets alone would take 128 MiB


def test_sequential_held_cap_guard_trips_before_building_amplitudes():
    # Couplings with 20, 1, 1 and 1 clusters in dim 21 on n = 2^20
    # pointers: three arrays the size of the first coupling's packets (3 m n)
    # and the four held position densities put the memory estimate just
    # above the cap, with the work at 0.9 of its cap; without the fourth
    # coupling it would pass.
    n = 2**20
    pt = make_gaussian(default_grid(1.0, 0.1, n=n), 1.0)
    w = _band_width(pt)
    assert pointer._sequential_cost(21, 3, [(20, w, n), (1, w, n), (1, w, n)])[1] <= (
        pointer.SEQUENTIAL_HELD_CAP)
    work, held = pointer._sequential_cost(21, 4, [(20, w, n)] + [(1, w, n)] * 3)
    assert pointer.SEQUENTIAL_HELD_CAP < held < 1.001 * pointer.SEQUENTIAL_HELD_CAP
    assert work <= pointer.SEQUENTIAL_WORK_CAP
    couplings = _diagonal_couplings(21, [20, 1, 1, 1], pt)
    psi = np.ones(21) / np.sqrt(21.0)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError, match="held exceeds the cap"):
            sequential_couple(psi, couplings, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # the first coupling's packets alone would take 320 MiB


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_sequential_diagonalizes_each_operator_once(monkeypatch):
    # Six couplings through two distinct dense operators: two decompositions.
    rng = np.random.default_rng(313)
    pre, post = _selection_pair(rng, 4)
    pt = make_gaussian(default_grid(1.0, 0.1), 1.0)
    first, second = _random_observable(rng, 4), _random_observable(rng, 4)
    calls = _count_calls(monkeypatch, linalg, "eig_hermitian")
    sequential_couple(pre, [(first, 0.05, pt)] * 5 + [(second, 0.05, pt)], post)
    assert len(calls) == 2
    calls.clear()
    sequential_couple(pre, [(first, 0.05, pt)] * 6, post)
    assert len(calls) == 1


def test_sequential_refuses_before_any_eigh(monkeypatch):
    # 40 couplings sharing one dense dim-512 operator on n = 256 pointers:
    # their sweep alone (5 K dim^3) exceeds the work cap, so the call is
    # refused with no eigendecomposition at all.
    rng = np.random.default_rng(4512)
    operator = _random_observable(rng, 512)
    pt = make_gaussian(default_grid(1.0, 0.1, n=256), 1.0)
    psi = np.ones(512) / np.sqrt(512.0)
    calls = _count_calls(monkeypatch, linalg, "eig_hermitian")
    eighs = _count_calls(monkeypatch, np.linalg, "eigh")
    start = time.perf_counter()
    with pytest.raises(DimensionMismatchError, match="work .* exceeds the cap"):
        sequential_couple(psi, [(operator, 0.05, pt)] * 40, psi)
    assert time.perf_counter() - start < 1.0
    assert calls == [] and eighs == []


def test_sequential_charges_a_fixed_cost_per_coupling(monkeypatch):
    # Dim-2 couplings of n = 256 pointers cost ~0.27 ms each whatever their
    # size. With two clusters each, 26142 of them pass the work cap and
    # 26143 do not (one eigh, then refused); with the pre-eigh estimate's
    # single cluster 29104 pass and 29105 are refused before any eigh.
    pt = make_gaussian(default_grid(1.0, 0.1, n=256), 1.0)
    w, n = _band_width(pt), 256

    def work(count, m):
        return pointer._sequential_cost(2, 1, [(m, w, n)] * count)[0] / pointer.SEQUENTIAL_WORK_CAP

    assert work(26142, 2) <= 1.0 < work(26143, 2)
    assert work(29104, 1) <= 1.0 < work(29105, 1)
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    calls = _count_calls(monkeypatch, linalg, "eig_hermitian")
    for count, eighs in ((29105, 0), (26143, 1)):
        start = time.perf_counter()
        with pytest.raises(DimensionMismatchError, match="work .* exceeds the cap"):
            sequential_couple(psi, [(SZ, 0.05, pt)] * count, psi)
        assert time.perf_counter() - start < 1.0
        assert len(calls) == eighs
        calls.clear()


@pytest.mark.parametrize("k_total, dim", [(11, 4), (22, 2)])
def test_sequential_many_couplings_within_budget(k_total, dim):
    # 4^11 and 2^22 branch sequences. The sweep's cost grows as K dim^3, not
    # with their count: ~20 ms and a ~2 MiB tracemalloc peak on a 2-core Xeon.
    rng = np.random.default_rng(909 + dim)
    pre, post = _selection_pair(rng, dim)
    pt = make_gaussian(default_grid(1.0, 0.1), 1.0)
    couplings = [(_random_observable(rng, dim), float(rng.uniform(0.04, 0.09)), pt)
                 for _ in range(k_total)]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        marginals, prob = sequential_couple(pre, couplings, post)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dim**k_total >= 2**22
    assert 0.0 < prob <= 1.0
    assert len(marginals) == k_total
    assert peak < 16 * 2**20
    assert elapsed < 2.0


def test_sequential_commuting_couplings_past_any_branch_tensor():
    # K = 40 diagonal couplings in dim 3, each with two clusters (one of them
    # degenerate): N = 2^40 branch sequences. Only those through one basis
    # state survive, so the closed form sums over basis-state pairs.
    rng = np.random.default_rng(4040)
    pre, post = _selection_pair(rng, 3)
    pointers = {delta: make_gaussian(default_grid(delta, 0.1 * delta), delta)
                for delta in (0.5, 1.0, 2.0)}
    couplings, spec = [], []
    for k in range(40):
        values = rng.permutation([1.0, 1.0, -0.6])
        delta = (0.5, 1.0, 2.0)[k % 3]
        g = float(rng.uniform(0.3, 1.0)) * 0.1 * delta * rng.choice([-1.0, 1.0])
        couplings.append((np.diag(values), g, pointers[delta]))
        spec.append((values, g, delta))
    marginals, prob = sequential_couple(pre, couplings, post)
    want_prob, want = commuting_sequential_oracle(pre, post, spec)
    assert prob == pytest.approx(want_prob, rel=1e-9)
    for marginal, oracle, (_, _, delta) in zip(marginals, want, spec):
        got = moments(marginal)
        assert abs(got.mean_q - oracle["mean_q"]) <= 1e-8 * delta
        assert abs(got.var_q - oracle["var_q"]) <= 1e-8 * delta**2
        assert abs(got.mean_p - oracle["mean_p"]) <= 1e-8 / delta
        assert abs(got.var_p - oracle["var_p"]) <= 1e-8 / delta**2


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


def _one_row_mixture(state):
    band, values = state.spectrum
    return MixedPointerState._held(state.grid, band, values[None, :].copy(), np.ones(1))


def test_one_row_mixture_reads_as_its_pure_state():
    # A PointerState is the mixture of its spectrum alone, with weight 1.0:
    # its moments and densities keep their bits.
    grid = default_grid(1.0, 1.0)
    selected, _ = post_select(couple(np.array([0.8, 0.6]), make_gaussian(grid, 1.0), SZ, 0.7),
                              np.array([1.0, 1.0j]) / np.sqrt(2))
    spin, _ = resolve("spin-amp/1j").run()
    for state in (make_gaussian(grid, 1.0, center=0.3), selected, spin):
        mixed = _one_row_mixture(state)
        assert np.array(moments(mixed)).tobytes() == np.array(moments(state)).tobytes()
        assert np.array_equal(mixed.position_density(), state.position_density())
        assert np.array_equal(mixed.momentum_density(), state.momentum_density())
    with pytest.raises(TypeError):
        MixedPointerState(grid, state.position_density(), state.momentum_density())


def test_sequential_zero_coupling_reads_the_bare_pointer(monkeypatch):
    # A g = 0 coupling between two dense ones leaves its pointer the bare
    # Gaussian: every packet it translates is the same one, and the other
    # pointers' readouts are those of the chain without it.
    rng = np.random.default_rng(2020)
    pre, post = _selection_pair(rng, 4)
    delta = 1.5
    pt = make_gaussian(default_grid(delta, 0.1 * delta), delta)
    operators = [_random_observable(rng, 4) for _ in range(3)]
    gains = [0.07 * delta, 0.0, -0.05 * delta]
    marginals, prob = sequential_couple(pre, list(zip(operators, gains, [pt] * 3)), post)
    grid = pt.grid
    for marginal in marginals:
        rho_q, rho_p = marginal.position_density(), marginal.momentum_density()
        assert rho_q.min() >= 0.0 and rho_p.min() >= 0.0
        assert abs(rho_q.sum() * grid.spacing - 1.0) <= 1e-12
        assert abs(rho_p.sum() * grid.momentum_spacing - 1.0) <= 1e-12
    bare = moments(marginals[1])
    assert abs(bare.mean_q) <= 1e-12 * delta
    assert abs(bare.var_q - delta**2 / 2) <= 1e-12 * delta**2
    assert abs(bare.mean_p) <= 1e-12 / delta
    assert abs(bare.var_p - 1 / (2 * delta**2)) <= 1e-12 / delta**2
    # Round-off weights on rows that cancel exactly. The packets of a g = 0
    # coupling are one packet, and with pre = post uniform in dim 4 the
    # weights are 1/16 in every entry: eigenvalue 1/4 on the uniform vector
    # and 0 on the rest, taken here as the other columns of a Hadamard
    # matrix (entries +-1/2, so their rows sum to exactly 0) and given
    # 1e-300 each. Those zero rows are dropped.
    eigh = np.linalg.eigh
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0

    def with_round_off(matrix):
        return np.array([0.25, 1e-300, 1e-300, 1e-300]), hadamard

    uniform = np.full(4, 0.5)
    monkeypatch.setattr(np.linalg, "eigh", with_round_off)
    (marginal,), _ = sequential_couple(uniform, [(np.diag([1.0, 0.5, -0.5, -1.0]), 0.0, pt)],
                                       uniform)
    monkeypatch.undo()
    assert marginal.components[1].shape[0] == 1
    got = moments(marginal)
    assert abs(got.var_q - delta**2 / 2) <= 1e-12 * delta**2
    without, want_prob = sequential_couple(
        pre, [(operators[0], gains[0], pt), (operators[2], gains[2], pt)], post)
    assert prob == pytest.approx(want_prob, rel=1e-12)
    for got, want in zip((marginals[0], marginals[2]), without):
        assert np.allclose(moments(got), moments(want), rtol=0, atol=1e-12)


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
    assert moments(state).mean_q == pytest.approx(-0.1, abs=5e-3)


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
        assert moments(marginal).mean_q == pytest.approx(target, abs=0.1 * abs(target))


def test_post_select_same_eigenstate_is_certain():
    grid = default_grid(1.0, 2.0)
    pt = make_gaussian(grid, 1.0)
    up = np.array([1.0, 0.0], dtype=complex)
    state, prob = post_select(couple(up, pt, SZ, g=2.0), up)
    assert prob == pytest.approx(1.0, abs=1e-12)
    m = moments(state)
    assert m.mean_q == pytest.approx(2.0, abs=1e-10)
    assert m.var_q == pytest.approx(0.5, rel=1e-10)


def test_gaussian_minimum_uncertainty_product():
    for delta in (0.25, 1.0, 3.0):
        grid = default_grid(delta, 0.0)
        pt = make_gaussian(grid, delta)
        m = moments(pt)
        assert m.var_q * m.var_p == pytest.approx(0.25, rel=1e-10)


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
        packet = np.fft.ifft(base_fft * np.exp(-1j * g * value * _fft_momenta(grid)))
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
    # The unselected pointer is the mixture of the eigenvalue branches: the
    # packet translated by g*o, weighted by |P_o psi|^2. post_select needs no
    # packet, and the joint state holds none.
    grid = default_grid(1.0, 0.6)
    pt = make_gaussian(grid, 1.0)
    operator = np.diag([0.6, 0.6, -0.4]).astype(complex)
    joint = couple(np.ones(3) / np.sqrt(3.0), pt, operator, g=1.0)
    post_select(joint, np.array([1.0, 0.0, 0.0]))
    assert set(vars(joint)) == {field.name for field in dataclasses.fields(joint)}
    want = sum(
        weight * make_gaussian(grid, 1.0, center=center).position_density()
        for center, weight in ((-0.4, 1 / 3), (0.6, 2 / 3))
    )
    assert np.max(np.abs(joint.position_density() - want)) < 1e-12
    assert joint.norm() == pytest.approx(1.0, abs=1e-12)


def _translation_pointers():
    for n in (256, 4096, 2**19):
        yield make_gaussian(default_grid(1.0, 0.3, n=n), 1.0)
        yield make_gaussian(PointerGrid(n, -7.0, 13.0), 1.0, center=3.0)  # off-centre
    for n in (256, 2**16):  # sample-built: the spectrum spans the whole lattice
        grid = PointerGrid(n, -20.0, 24.0)
        q = grid.points
        yield PointerState(grid, np.pi**-0.25 * np.exp(-((q - 1.0) ** 2) / 2 + 0.3j * q))


def test_translated_spectra_match_the_translation_kernel_bit_for_bit():
    # One outer product of phases builds every row as post_select's kernel
    # would, sign bits included. The reference multiplies spectrum by kernel
    # in that order: written as ``spectrum * kernel`` on a temporary kernel of
    # 2^14 bins or more, numpy multiplies in the kernel's buffer with the
    # operands swapped, which moves some entries by one ulp.
    values = [0.0, -0.0, 1.0, -1.0, 0.6, -0.4, 1e-300]
    for pt in _translation_pointers():
        grid, (band, spectrum) = pt.grid, pt.spectrum
        for g in (0.0, -0.0, 0.05, -0.7):
            rows = pointer._translated_spectra(grid, band, spectrum, g, values)
            for row, value in zip(rows, values):
                kernel = pointer._translation_kernel(grid, g, [value], [1.0], band)
                assert row.tobytes() == np.multiply(spectrum, kernel).tobytes()
        operator = np.diag([0.5, -0.0, -1.0]).astype(complex)
        joint = couple(np.ones(3) / np.sqrt(3.0), pt, operator, g=-0.05)
        assert joint.band == band
        # The unselected density sums those packets' densities, weighted by
        # |P_k psi|^2.
        want = np.zeros(grid.n)
        for value, vec in joint.clusters:
            kernel = pointer._translation_kernel(grid, -0.05, [value], [1.0], band)
            packet = pointer._inverse_fft(grid, band, np.multiply(spectrum, kernel))
            want += float(np.vdot(vec, vec).real) * np.abs(packet) ** 2
        assert np.max(np.abs(joint.position_density() - want)) <= 1e-15 * want.max()


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


def test_moments_read_a_momentum_shift_of_pure_and_mixed_states():
    grid = default_grid(1.0, 1.0)
    pre = np.array([0.8, 0.6], dtype=complex)
    state, _ = post_select(couple(pre, make_gaussian(grid, 1.0), SZ, g=0.7),
                           np.array([1.0, 1.0j]) / np.sqrt(2))
    marginals, _ = sequential_couple(pre, [(SZ, 0.05, make_gaussian(grid, 1.0))] * 2,
                                     np.array([1.0, 1.0j]) / np.sqrt(2))
    for st in (state, marginals[0]):
        assert moments(st).mean_p != 0.0


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


def _band_states(n):
    """Band-held states on n-point grids: a Gaussian 3 delta off the grid
    centre, a packet whose band lies wholly above p = 0 and the post-selected
    spin-amp/1j pointer."""
    grid = default_grid(1.0, 3.0, n=n)
    off_centre = make_gaussian(grid, 1.0, center=3.0)
    grid = PointerGrid(n=n, q_min=-7.3, q_max=9.1)
    half, width = n // 2, 81
    band = slice(half + 20, half + 20 + width)
    k = np.arange(band.start, band.stop) - half
    # (-1)^k puts the packet at the grid centre and the rest of the linear
    # phase moves it by 3/80 of the extent.
    values = np.exp(-0.5 * ((k - 60) / 8.0) ** 2 + 1j * np.pi * k * (1.0 - 0.075))
    values *= np.sqrt(grid.n / (grid.spacing * np.vdot(values, values).real))
    above = PointerState._held(grid, band, values)
    spin, _ = resolve("spin-amp/1j", grid_n=n).run()
    return [off_centre, above, spin]


@pytest.mark.parametrize("n", [2**8, 2**12, 2**16, 2**20])
@needs_band_path
def test_band_moments_are_the_lattice_sums_of_the_samples(n):
    # The band form against one pass over |psi|^2 on grid.points, the same
    # periodic lattice sums (wrap included): within 1e-13 relative. At
    # n = 256 the off-centre Gaussian's band is the whole lattice.
    states = _band_states(n)
    assert (states[0].spectrum[0] == slice(0, n)) == (n == 2**8)
    for state in states:
        grid = state.grid
        want = pointer._density_moments(grid.points, state.position_density(), grid.spacing)
        total, mean, var = pointer._band_moments(grid, *state.spectrum)
        assert abs(total - want[0]) <= 1e-13 * want[0]
        assert abs(mean - want[1]) <= 1e-13 * np.sqrt(want[2])
        assert abs(var - want[2]) <= 1e-13 * want[2]


@pytest.mark.parametrize("n", [2**12, 2**16, 2**19, 2**20])
@needs_band_path
def test_band_moments_match_the_closed_form(n):
    # simulate's three grid scenarios: within 2e-16 delta in <Q> and 2e-15
    # relative in Var Q of the decimal closed form.
    for ref, g in (("spin-amp/100", 1.3), ("spin-amp/1j", 0.7), ("three-box/C", 0.05)):
        scenario = resolve(ref, g=g, grid_n=n)
        state, _ = scenario.run()
        assert pointer._band_path(state.grid, state.spectrum[0])
        amplitudes, shifts = [], []
        for value, block in eigen_clusters(scenario.operator):
            amplitudes.append(np.vdot(scenario.post, block @ (block.conj().T @ scenario.pre)))
            shifts.append(g * value)
        delta = scenario.coupling.delta
        want_mean, want_var = exact_position_moments(amplitudes, shifts, delta)
        got = moments(state)
        assert abs(got.mean_q - want_mean) <= 2e-16 * delta
        assert abs(got.var_q - want_var) <= 2e-15 * want_var


@pytest.mark.parametrize("n", [2**12, 2**16, 2**20])
@needs_band_path
def test_sample_path_matches_the_band_path(n, monkeypatch):
    # Where numpy's long double is a double, states read their densities
    # instead of their bands. On simulate's three grid scenarios and on
    # sequential marginals the two paths agree within the closed-form
    # bounds of test_band_moments_match_the_closed_form: 2e-16 delta in
    # <Q> and 2e-15 relative in Var Q. The momentum moments share one path.
    states = []
    for ref, g in (("spin-amp/100", 1.3), ("spin-amp/1j", 0.7), ("three-box/C", 0.05)):
        scenario = resolve(ref, g=g, grid_n=n)
        states.append((scenario.run()[0], scenario.coupling.delta))
    rng = np.random.default_rng(1234)
    pre, post = _selection_pair(rng, 4)
    for delta in (0.5, 2.0):
        pt = make_gaussian(default_grid(delta, 0.1 * delta, n=n), delta)
        couplings = [(_random_observable(rng, 4), 0.07 * delta, pt) for _ in range(3)]
        states.extend((marginal, delta) for marginal in sequential_couple(pre, couplings, post)[0])
    band = [moments(state) for state, _ in states]
    monkeypatch.setattr(pointer, "_EXTENDED", False)
    for (state, delta), want in zip(states, band):
        assert not pointer._band_path(state.grid, state.components[0])
        got = moments(state)
        assert abs(got.mean_q - want.mean_q) <= 2e-16 * delta
        assert abs(got.var_q - want.var_q) <= 2e-15 * want.var_q
        assert (got.mean_p, got.var_p) == (want.mean_p, want.var_p)


def test_wide_bands_read_the_samples_at_the_grid_cap():
    # A state built from samples holds the whole lattice as its band, and so
    # does one post-selected from it: their moments make one inverse FFT
    # and one density pass, not an n^2 correlation.
    grid = PointerGrid(n=pointer.GRID_MAX_N, q_min=-2000.0, q_max=2000.0)
    sampled = PointerState(grid, make_gaussian(grid, 100.0).samples)
    up = np.array([1.0, 0.0], dtype=complex)
    selected, _ = post_select(couple(np.array([0.6, 0.8]), sampled, SZ, 5.0), up)
    for state, center in ((sampled, 0.0), (selected, 5.0)):
        assert state.spectrum[0] == slice(0, grid.n)
        assert not pointer._band_path(grid, state.spectrum[0])
        start = time.perf_counter()
        got = moments(state)
        assert time.perf_counter() - start < 1.0
        assert got.mean_q == pytest.approx(center, abs=1e-9)
        assert got.var_q == pytest.approx(100.0**2 / 2, rel=1e-12)


def test_parseval_guard_in_moments():
    # A state built from samples holds the whole lattice as its band, so its
    # position moments read the samples. Handed a spectrum with 2e-6 more
    # mass than its samples, moments trips the Parseval guard.
    grid = default_grid(1.0, 1.0, n=512)
    sampled = PointerState(grid, make_gaussian(grid, 1.0).samples)
    band, spectrum = sampled.spectrum
    assert not pointer._band_path(grid, band)
    bad = PointerState._held(grid, band, spectrum * (1.0 + 1e-6), sampled.samples)
    with pytest.raises(NumericalGuardError, match="Parseval"):
        moments(bad)


def test_momentum_density_drops_the_q_min_phase():
    grid = PointerGrid(n=512, q_min=-7.3, q_max=9.1)
    state = make_gaussian(grid, 1.0, center=0.9)
    rho = state.momentum_density()
    assert np.allclose(rho, np.abs(_momentum_wavefunction(state)) ** 2, rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("n", [2**8, 2**12, 2**15, 2**16])
def test_inverse_fft_matches_the_zero_filled_transform(n):
    # Narrow, odd-width off-centre, wide, the full lattice (as states built
    # from samples hold), and bands wholly above and wholly below p = 0,
    # with leading shapes () and (2,): bit for bit the transform of the band
    # scattered to its storage bins (i - n/2) mod n.
    grid = PointerGrid(n=n, q_min=-1.0, q_max=1.0)
    half = n // 2
    bands = [slice(half - 100, half + 101), slice(half - 37, half + 2),
             slice(half // 4, half + half // 2), slice(0, n),
             slice(half + 5, half + 20), slice(half // 2, half - 3)]
    rng = np.random.default_rng(n)
    for band in bands:
        for lead in ((), (2,)):
            values = _packet_spectra(rng, lead, band.stop - band.start)
            got = pointer._inverse_fft(grid, band, values)
            assert got.shape == lead + (n,)
            assert np.array_equal(got, _zero_filled_ifft(grid, band, values))


def test_inverse_fft_holds_two_grid_arrays_at_the_cap():
    # The zero-filled lattice and its transform: never three n-length
    # complex arrays at once.
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

import cmath
import dataclasses

import numpy as np
import pytest

from weakmeas import (
    ensemble_average,
    load_scenario,
    moments,
    parse_scenario,
    resolve,
    save_scenario,
    serialize_scenario,
    spin_amplification,
    three_box,
    with_overrides,
)
from weakmeas.errors import InputError, ScenarioFormatError
from weakmeas.pointer import CouplingConfig
from weakmeas.scenarios import MAX_ENSEMBLE_SPINS, MAX_TARGET


def test_three_box_weak_values():
    assert three_box("A").weak_value == pytest.approx(1.0, abs=1e-12)
    assert three_box("B").weak_value == pytest.approx(1.0, abs=1e-12)
    assert three_box("C").weak_value == pytest.approx(-1.0, abs=1e-12)
    assert three_box("ABC").weak_value == pytest.approx(1.0, abs=1e-12)
    assert three_box("C").overlap == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_three_box_identity_run_is_exact():
    sc = three_box("ABC", g=0.25)
    state, prob = sc.run()
    # The observable is the identity: the pointer shifts rigidly by g and
    # the probability is exactly the selection probability |<post|pre>|^2.
    assert prob == pytest.approx(1.0 / 9.0, rel=1e-12)
    m = moments(state)
    assert m.mean_q == pytest.approx(0.25, abs=1e-10)
    assert m.var_q == pytest.approx(sc.coupling.delta**2 / 2, rel=1e-10)


def test_three_box_rejects_unknown_box():
    with pytest.raises(ScenarioFormatError):
        three_box("D")


def test_three_box_builds_share_the_validated_constants():
    # Each build copies the states and projector validated at import; the
    # coupling and grid stay its own, and user inputs are still checked.
    a = three_box("C")
    b = three_box("C", g=0.1, grid_n=2**10)
    assert a.pre is b.pre and a.post is b.post and a.operator is b.operator
    assert not (a.pre.flags.writeable or a.post.flags.writeable or a.operator.flags.writeable)
    assert (a.coupling.g, a.grid.n) == (0.05, 4096)
    assert (b.coupling.g, b.grid.n) == (0.1, 2**10)
    assert serialize_scenario(three_box("C", g=0.1, grid_n=2**10)) == serialize_scenario(b)
    with pytest.raises(InputError):
        three_box("C", grid_n=4096.5)
    with pytest.raises(InputError):
        three_box("C", delta=-1.0)


def test_spin_amplification_invariant():
    rng = np.random.default_rng(77)
    for _ in range(200):
        t = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        sc = spin_amplification(t)
        assert abs(sc.weak_value - t) <= 1e-9 * max(1.0, abs(t))
        assert abs(sc.overlap) == pytest.approx(1.0 / np.sqrt(1.0 + abs(t) ** 2), rel=1e-12)


def test_spin_amplification_guards():
    with pytest.raises(InputError):
        spin_amplification(1e11)
    with pytest.raises(InputError):
        spin_amplification(np.nan)


def test_spin_amplification_target_cap_boundary():
    on_cap = [1e6, -1e6, 1e6j, -1e6j]
    on_cap += [cmath.rect(1e6, theta) for theta in (0.3, 1.0, 2.0, 3.5, 5.0)]
    for t in on_cap:
        assert abs(t) <= MAX_TARGET
        sc = spin_amplification(t)
        assert abs(sc.weak_value - t) <= 1e-9 * abs(t)
    above = np.nextafter(MAX_TARGET, np.inf)
    for t in (above, -above, 1j * above):
        with pytest.raises(InputError, match="cap"):
            spin_amplification(t)


def test_spin_amplification_unit_target_ok():
    sc = spin_amplification(0.5)
    assert sc.weak_value == pytest.approx(0.5, abs=1e-12)
    assert spin_amplification(1.0).weak_value == pytest.approx(1.0, abs=1e-12)


def test_ensemble_average_invariant_and_dim():
    sc = ensemble_average(8, 5)
    assert sc.system_dim == 256
    assert abs(sc.weak_value - 5.0) <= 1e-8
    small = ensemble_average(2, -3.0)
    assert small.system_dim == 4
    assert abs(small.weak_value + 3.0) <= 1e-10


def test_ensemble_average_guards():
    with pytest.raises(InputError):
        ensemble_average(1, 5)
    with pytest.raises(InputError):
        ensemble_average(MAX_ENSEMBLE_SPINS + 1, 5)
    assert ensemble_average(MAX_ENSEMBLE_SPINS, 5).copies == MAX_ENSEMBLE_SPINS
    with pytest.raises(InputError, match="n_spins must be an integer"):
        ensemble_average(2.5, 5)
    with pytest.raises(InputError, match="must be finite"):
        ensemble_average(4, float("nan"))
    with pytest.raises(InputError, match="exceeds the supported cap"):
        ensemble_average(4, 2e6)


def test_default_delta_tracks_g():
    sc = ensemble_average(4, 2, g=0.25)
    assert sc.coupling.delta == pytest.approx(0.5)


def test_serialize_round_trip_all_families():
    families = (three_box("C"), spin_amplification(2.5 - 3.0j), ensemble_average(3, 4),
                ensemble_average(40, 5))
    for sc in families:
        doc = serialize_scenario(sc)
        back = parse_scenario(doc)
        assert back.fingerprint() == sc.fingerprint()
        assert back.name == sc.name
        assert back.weak_value == pytest.approx(sc.weak_value, abs=1e-12)
        assert np.allclose(back.pre, sc.pre)
        assert np.allclose(back.post, sc.post)
        assert np.allclose(back.operator, sc.operator)
        assert back.grid == sc.grid
        assert back.coupling == sc.coupling
        assert back.copies == sc.copies
        assert ("copies = " in doc) == (sc.copies > 1)
    # An ensemble is written as one spin and its count, whatever the count.
    doc = serialize_scenario(families[-1])
    assert len(doc.encode("utf-8")) < 1024
    for bad in ("0", "-3", "2.5", "forty"):
        with pytest.raises(ScenarioFormatError, match="copies|scalars"):
            parse_scenario(doc.replace("copies = 40", f"copies = {bad}"))


def test_save_and_load(tmp_path):
    sc = spin_amplification(100)
    path = tmp_path / "amp.scenario"
    save_scenario(sc, path)
    back = load_scenario(path)
    assert back.fingerprint() == sc.fingerprint()


def test_parse_rejects_corruption():
    doc = serialize_scenario(three_box("C"))
    with pytest.raises(ScenarioFormatError):
        parse_scenario(doc.replace("weakmeas-scenario-1", "weakmeas-scenario-9"))
    with pytest.raises(ScenarioFormatError):
        parse_scenario(doc.replace("weak_value = -1,0", "weak_value = -2,0"))
    with pytest.raises(ScenarioFormatError):
        parse_scenario("\n".join(line for line in doc.splitlines() if not line.startswith("pre")))
    with pytest.raises(ScenarioFormatError):
        parse_scenario(doc.replace("g = ", "g = not-a-number "))
    with pytest.raises(ScenarioFormatError, match="malformed scenario line"):
        parse_scenario(doc + "no equals sign\n")
    pre = next(line for line in doc.splitlines() if line.startswith("pre = "))
    with pytest.raises(ScenarioFormatError, match="pre 4, post 3, operator 9"):
        parse_scenario(doc.replace(pre, pre + " 0,0"))


def test_parse_skips_blank_and_comment_lines():
    doc = serialize_scenario(three_box("C"))
    padded = "# a comment\n\n   \n" + doc.replace("\n", "\n  # note = 1\n\n", 3)
    assert serialize_scenario(parse_scenario(padded)) == doc


def test_fingerprint_distinguishes_parameters():
    a = three_box("C")
    b = three_box("C", g=0.06)
    c = three_box("B")
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert a.fingerprint() == three_box("C").fingerprint()


def test_with_overrides_rebuilds_grid():
    base = three_box("C")
    wide = with_overrides(base, delta=4.0)
    assert wide.coupling.delta == 4.0
    assert wide.coupling.g == base.coupling.g
    assert wide.grid.extent > base.grid.extent
    assert wide.name == base.name
    pinned = with_overrides(base, grid_extent=20.0)
    assert pinned.grid.q_min == -20.0
    assert pinned.grid.q_max == 20.0
    same = with_overrides(base)
    assert same.fingerprint() == base.fingerprint()


def test_resolve_registry_and_files(tmp_path):
    assert resolve("three-box/C").name == "three-box/C"
    assert resolve("three-box/ABC").name == "three-box/ABC"
    assert abs(resolve("spin-amp/1j").weak_value - 1j) < 1e-12
    assert resolve("ensemble/8x5").system_dim == 256
    sc = resolve("spin-amp/2.5-3j")
    assert sc.weak_value == pytest.approx(2.5 - 3.0j, abs=1e-10)
    path = tmp_path / "saved.scenario"
    save_scenario(three_box("B"), path)
    assert resolve(str(path)).name == "three-box/B"
    loaded = resolve(str(path), g=0.1)
    assert loaded.coupling.g == 0.1
    with pytest.raises(ScenarioFormatError):
        resolve("bogus/name")
    with pytest.raises(ScenarioFormatError):
        resolve("ensemble/8y5")
    with pytest.raises(InputError):
        resolve("ensemble/0x5")


def test_two_runs_are_bit_identical():
    sc = three_box("C")
    first_state, first_prob = sc.run()
    second_state, second_prob = sc.run()
    assert first_state is not second_state
    assert first_state.samples.tobytes() == second_state.samples.tobytes()
    assert first_prob == second_prob


def test_scenario_is_frozen_once_built():
    # A reassigned field would leave the weak value and spectral
    # decomposition derived from the old one.
    sc = spin_amplification(100)
    for name, value in (
        ("operator", np.diag([2.0, -2.0]).astype(complex)),
        ("pre", sc.post),
        ("coupling", CouplingConfig(g=0.5, delta=1.0)),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sc, name, value)
    assert sc.weak_value == 100
    assert parse_scenario(serialize_scenario(sc)).weak_value == 100


def test_scenario_rejects_mismatched_weak_value():
    sc = three_box("C")
    from weakmeas import Scenario

    with pytest.raises(ScenarioFormatError):
        Scenario(
            name=sc.name,
            pre=sc.pre,
            post=sc.post,
            operator=sc.operator,
            coupling=sc.coupling,
            grid=sc.grid,
            weak_value=2.0,
        )


def test_amplification_acceptance_decreases_with_target():
    probs = []
    for target in (1.5, 2.0, 5.0, 10.0, 50.0):
        _, prob = spin_amplification(target).run()
        assert prob > 0.0
        probs.append(prob)
    assert all(a > b for a, b in zip(probs, probs[1:]))
    # dominated by the bare selection probability 1/(1 + t^2)
    assert probs[-1] == pytest.approx(1.0 / 2501.0, rel=2e-3)


def test_ensemble_unit_target_overlap():
    sc = ensemble_average(5, 1.0)
    assert sc.weak_value == pytest.approx(1.0 + 0.0j, abs=1e-12)
    overlap = abs(sc.overlap)
    assert overlap == pytest.approx((1.0 / np.sqrt(2.0)) ** 5, rel=1e-12)

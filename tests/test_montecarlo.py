import io
import math
import time
import tracemalloc

import numpy as np
import pytest

from weakmeas import (
    CouplingConfig,
    RunRecord,
    Scenario,
    estimate_from_records,
    estimate_weak_value,
    default_grid,
    moments,
    run_records,
    sample_run,
    spin_amplification,
    three_box,
)
from weakmeas import montecarlo
from weakmeas.cli import main
from weakmeas.errors import InputError, ZeroAcceptedError


def _record(columns, k):
    """Trial k of a draw, as the RunRecord that sample_run returns for it."""
    accepted = bool(columns.accepted[k])
    readout_q = float(columns.readout_q[k]) if accepted else None
    return RunRecord(k, accepted, readout_q, int(columns.rng_stream_id[k]))


def test_single_trial_reproducible_and_indexed():
    sc = three_box("C")
    records = run_records(20, 50, sc)
    assert len(records) == 50
    for trial in (0, 7, 49):
        record = sample_run(20, trial, sc)
        assert record.trial_index == trial
        assert record == _record(records, trial)
    # a different seed changes the stream
    assert run_records(21, 50, sc) != records


def test_rejected_trials_have_no_readout():
    sc = three_box("C")
    records = run_records(1, 200, sc)
    assert 0 < records.accepted.sum() < 200
    assert np.isfinite(records.readout_q[records.accepted]).all()
    assert np.isnan(records.readout_q[~records.accepted]).all()
    for k in np.flatnonzero(records.accepted)[:3]:
        assert math.isfinite(sample_run(1, int(k), sc).readout_q)
    for k in np.flatnonzero(~records.accepted)[:3]:
        assert sample_run(1, int(k), sc).readout_q is None


def test_acceptance_rate_matches_probability():
    sc = three_box("C")
    _, prob = sc.run()
    n = 20000
    records = run_records(13, n, sc)
    n_acc = int(records.accepted.sum())
    sigma = math.sqrt(n * prob * (1 - prob))
    assert abs(n_acc - n * prob) < 5 * sigma


def test_readout_distribution_moments():
    sc = three_box("C")
    state, _ = sc.run()
    records = run_records(2, 40000, sc)
    q = records.readout_q[records.accepted]
    m = moments(state)
    se_mean = math.sqrt(m.var_q / q.size)
    assert abs(q.mean() - m.mean_q) < 5 * se_mean
    assert abs(q.var(ddof=1) - m.var_q) < 5 * m.var_q * math.sqrt(2.0 / q.size)


def test_estimate_recovers_weak_value():
    sc = three_box("C")
    report = estimate_weak_value(123, 30000, sc)
    assert report.n_total == 30000
    assert report.n_accepted == run_records(123, 30000, sc).accepted.sum()
    assert abs(report.wv_estimate - (-1.0)) < 5 * report.std_error
    assert report.acceptance_rate == pytest.approx(report.n_accepted / 30000)


def test_estimate_from_records_guards():
    sc = three_box("C")
    records = run_records(3, 100, sc)
    with pytest.raises(InputError):
        estimate_from_records(records, 0.0)
    rejected = montecarlo.TrialColumns(
        accepted=np.zeros(10, dtype=bool),
        readout_q=np.full(10, math.nan),
        rng_stream_id=np.arange(10, dtype=np.uint64),
    )
    with pytest.raises(ZeroAcceptedError):
        estimate_from_records(rejected, 0.05)
    with pytest.raises(InputError):
        estimate_from_records([sample_run(3, k, sc) for k in range(3)], 0.05)
    with pytest.raises(InputError, match="no records"):
        estimate_from_records(records.head(0), 0.05)


def test_single_acceptance_gives_nan_error_bar():
    records = montecarlo.TrialColumns(
        accepted=np.array([True, False]),
        readout_q=np.array([-0.05, math.nan]),
        rng_stream_id=np.array([1, 2], dtype=np.uint64),
    )
    report = estimate_from_records(records, 0.05)
    assert report.n_accepted == 1
    assert report.wv_estimate == pytest.approx(-1.0)
    assert math.isnan(report.std_error)


def test_seed_validation():
    sc = three_box("C")
    with pytest.raises(InputError):
        run_records(-1, 10, sc)
    with pytest.raises(InputError):
        run_records(True, 10, sc)
    # One message for every bad trial count.
    for bad in (-5, 0, True, 1.5):
        with pytest.raises(InputError, match="n_trials must be a positive integer"):
            run_records(0, bad, sc)
    assert len(run_records(0, 1, sc)) == 1


def test_stream_ids_are_distinct():
    sc = three_box("C")
    records = run_records(9, 500, sc)
    assert np.unique(records.rng_stream_id).size == 500


def test_write_runs_and_report_format():
    sc = three_box("C")
    records = run_records(4, 200, sc)
    report = estimate_from_records(records, sc.coupling.g)
    buf = io.StringIO()
    montecarlo.write_runs(records, buf, {"seed": 4})
    text = buf.getvalue()
    assert "# seed = 4" in text
    assert "# columns: trial\taccepted\treadout_q\trng_stream_id" in text
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(rows) == 200
    first = rows[0].split("\t")
    assert first[0] == "0"
    assert first[1] in ("0", "1")

    buf = io.StringIO()
    montecarlo.write_report(report, buf)
    rendered = buf.getvalue()
    assert "n_accepted = " in rendered
    assert "wv_estimate = " in rendered


def test_two_sigma_interval_coverage():
    # Across independent seeds, estimate +- 2 standard errors should cover
    # the true weak value at roughly the normal rate.
    sc = three_box("C")
    covered = 0
    for seed in range(50):
        report = estimate_weak_value(seed, 2000, sc)
        if abs(report.wv_estimate - (-1.0)) <= 2.0 * report.std_error:
            covered += 1
    assert covered >= 43  # fraction >= 0.86


def test_accepted_readouts_are_uncorrelated():
    sc = three_box("C")
    records = run_records(2, 40000, sc)
    q = records.readout_q[records.accepted]
    centered = q - q.mean()
    rho1 = np.sum(centered[:-1] * centered[1:]) / np.sum(centered**2)
    assert abs(rho1) <= 4.0 / math.sqrt(q.size)


def test_zero_coupling_acceptance_is_overlap_squared():
    # With the probe off, acceptance is the bare post-selection probability;
    # this selection has |overlap|^2 = 1/4 exactly.
    sc = spin_amplification(math.sqrt(3.0), g=0.0, delta=1.0)
    _, prob = sc.run()
    assert prob == pytest.approx(0.25, abs=1e-12)
    n = 20000
    n_acc = int(run_records(9, n, sc).accepted.sum())
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert abs(n_acc - n * 0.25) < 3 * sigma


def test_eigenstate_selection_always_accepts():
    up = np.array([1.0, 0.0], dtype=complex)
    sc = Scenario(
        name="eigenstate/up",
        pre=up,
        post=up,
        operator=np.diag([1.0, -1.0]).astype(complex),
        coupling=CouplingConfig(g=0.3, delta=1.0),
        grid=default_grid(1.0, 0.6),
        weak_value=1.0 + 0.0j,
    )
    n = 4000
    records = run_records(17, n, sc)
    assert records.accepted.all()
    q = records.readout_q
    se = math.sqrt(0.5 / n)  # pointer variance delta^2/2 = 0.5
    assert abs(q.mean() - 0.3) < 5 * se


def test_rare_amplified_selection_statistics():
    # Weak value 100 with acceptance about 1/10001: the estimator stays
    # consistent even when only a handful of trials survive.
    sc = spin_amplification(100, g=0.01, delta=100.0)
    n = 100000
    report = estimate_weak_value(7, n, sc)
    assert abs(report.wv_estimate - 100.0) <= 5 * report.std_error
    expected = n / 10001.0
    assert abs(report.n_accepted - expected) <= 3 * math.sqrt(expected)


def test_readouts_stay_on_grid():
    sc = three_box("C")
    grid = sc.grid
    records = run_records(31, 5000, sc)
    q = records.readout_q[records.accepted]
    assert q.size > 0
    assert np.all((grid.q_min <= q) & (q <= grid.q_max))


# ------------------------------------------------------ counter-based stream


def test_stream_matches_installed_philox():
    # Trial k's lanes are the block Philox(key, counter=k) returns first;
    # numpy's Generator.random() turns lanes 0 and 1 into the same uniforms.
    sc = three_box("C")
    state, prob = sc.run()
    cdf = np.cumsum(state.position_density() * sc.grid.spacing)
    cdf /= cdf[-1]
    seed = 77
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    n = montecarlo.CHUNK_TRIALS + 5
    u_accept, u_readout, stream_id = montecarlo._lanes(key, 0, n)
    records = run_records(seed, n, sc)
    trials = (0, 1, 2, 3, montecarlo.CHUNK_TRIALS - 1, montecarlo.CHUNK_TRIALS, n - 1)
    trials += tuple(int(k) for k in np.flatnonzero(records.accepted)[:5])
    for k in trials:
        block = np.random.Philox(key=key, counter=k).random_raw(4)
        generator = np.random.Generator(np.random.Philox(key=key, counter=k))
        assert u_accept[k] == generator.random() == (int(block[0]) >> 11) / 2.0**53
        assert u_readout[k] == generator.random() == (int(block[1]) >> 11) / 2.0**53
        assert stream_id[k] == block[2]
        record = sample_run(seed, k, sc)
        assert record == _record(records, k)
        assert record.rng_stream_id == int(block[2])
        assert record.accepted == bool(u_accept[k] < prob)
        if record.accepted:
            index = np.searchsorted(cdf, u_readout[k], side="right")
            assert record.readout_q == sc.grid.points[index]


def test_chunk_boundaries_do_not_change_columns(monkeypatch):
    sc = three_box("C")
    n = 2 * 7 + 3
    base = run_records(8, n, sc)
    assert base.accepted.sum() >= 2
    for chunk in (1, 2, 3, 5, 7, 17):
        monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", chunk)
        assert run_records(8, n, sc) == base
    assert [sample_run(8, k, sc) for k in range(n)] == [_record(base, k) for k in range(n)]


def test_sample_golden_rows(tmp_path, capsys):
    # Pins the stream: any change of generator, key derivation or lane use
    # changes these rows.
    assert main([
        "sample", "--scenario", "spin-amp/1", "--seed", "123", "--n", "4",
        "--out", str(tmp_path),
    ]) == 0
    assert capsys.readouterr().out == (
        "n_total = 4\n"
        "n_accepted = 2\n"
        "acceptance_rate = 0.5\n"
        "wv_estimate = 463.1220703125\n"
        "std_error = 166.0986328125\n"
    )
    lines = (tmp_path / "runs.tsv").read_text().splitlines()
    assert "# rng_stream = philox4x64-10" in lines
    assert [line for line in lines if not line.startswith("#")] == [
        "0\t0\tnan\t4553600880591878615",
        "1\t1\t297.0234375\t4908005261697603336",
        "2\t0\tnan\t5297608824734658542",
        "3\t1\t629.220703125\t16157874938038858795",
    ]


def test_million_trials_in_bounded_memory():
    sc = three_box("C")
    sc.run()
    tracemalloc.start()
    try:
        report = estimate_weak_value(0, 10**6, sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_total == 10**6
    assert peak < 64 * 2**20


def test_columns_behave_as_records():
    # Each row of the columns is the record sample_run draws alone, and a
    # prefix of the columns is the shorter run.
    sc = three_box("C")
    columns = run_records(6, 300, sc)
    assert len(columns) == 300
    for k in (0, 1, 150, 299):
        assert sample_run(6, k, sc) == _record(columns, k)
    assert columns.head(10) == run_records(6, 10, sc)
    assert len(columns.head(10)) == 10


def test_trial_cap_rejects_before_drawing(capsys):
    sc = three_box("C")
    sc.run()
    cap = montecarlo.MAX_TRIALS
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="exceeds the cap"):
            run_records(0, cap + 1, sc)
        with pytest.raises(InputError, match="exceeds the cap"):
            estimate_weak_value(0, cap + 1, sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the columns of cap + 1 trials would take ~850 MB
    assert peak < 2**20
    assert main(["sample", "--scenario", "three-box/C", "--n", str(cap + 1)]) == 2
    assert main(
        ["scan", "--scenario", "three-box/C", "--sweep", f"n_trials=10,{cap + 1}"]
    ) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_export_cap_rejects_before_drawing(tmp_path, capsys, monkeypatch):
    cap = montecarlo.MAX_EXPORT_TRIALS
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main(["sample", "--scenario", "three-box/C", "--n", str(cap + 1), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "exports at most" in capsys.readouterr().err
    # drawing cap + 1 trials would take seconds
    assert elapsed < 0.5
    assert not list(tmp_path.rglob("runs.*"))
    # At a small cap: cap trials export, cap + 1 do not, and without --out
    # this cap does not apply.
    monkeypatch.setattr(montecarlo, "MAX_EXPORT_TRIALS", 50)
    argv = ["sample", "--scenario", "three-box/C", "--seed", "2"]
    assert main([*argv, "--n", "50", "--out", str(out)]) == 0
    rows = [line for line in (out / "runs.tsv").read_text().splitlines() if line[0] != "#"]
    assert len(rows) == 50
    (out / "runs.tsv").unlink()
    assert main([*argv, "--n", "51", "--out", str(out)]) == 2
    assert not (out / "runs.tsv").exists()
    assert main([*argv, "--n", "51"]) == 0

import hashlib
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from weakmeas import (
    CouplingConfig,
    Scenario,
    default_grid,
    estimate_weak_value,
    save_scenario,
    serialize_scenario,
    three_box,
)
from weakmeas import cli, linalg, montecarlo, pointer, resolve, scenarios, textout
from weakmeas.cli import SweepSpec, main, parse_sweep
from weakmeas.errors import DimensionMismatchError, SweepSpecError

from oracles import (
    eigen_clusters,
    ensemble_closed_form,
    gaussian_fidelity,
    random_hermitian,
    random_state,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dense_scenario_file(tmp_path):
    """A dim-4 scenario file whose observable has no zero off-diagonal entry."""
    rng = np.random.default_rng(5)
    operator = random_hermitian(rng, 4)
    operator /= np.max(np.abs(np.linalg.eigvalsh(operator)))
    scenario = Scenario(
        name="dense4",
        pre=random_state(rng, 4),
        post=random_state(rng, 4),
        operator=operator,
        coupling=CouplingConfig(g=0.05, delta=1.0),
        grid=default_grid(1.0, 0.05),
    )
    path = tmp_path / "dense4.scenario"
    save_scenario(scenario, path)
    return str(path)


def parse_keyvalues(text):
    out = {}
    for line in text.splitlines():
        if " = " in line and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


# ------------------------------------------------------------- sweeps


def test_parse_sweep_forms():
    assert parse_sweep("g=0.1,0.2") == SweepSpec("g", (0.1, 0.2))
    lin = parse_sweep("delta=lin:1:3:3")
    assert lin.parameter == "delta"
    assert lin.values == pytest.approx((1.0, 2.0, 3.0))
    log = parse_sweep("delta=log:1:100:3")
    assert log.values == pytest.approx((1.0, 10.0, 100.0))
    trials = parse_sweep("n_trials=100,1000")
    assert trials.values == (100.0, 1000.0)


def test_parse_sweep_rejections():
    for bad in (
        "nope=1,2",
        "g=",
        "g",
        "delta=0,1",
        "delta=-2,1",
        "delta=log:0:10:3",
        "delta=lin:1:2:1",
        "delta=lin:1:2",
        "g=a,b",
        "n_trials=0,10",
        "n_trials=2.5,10",
        "g=inf,1",
    ):
        with pytest.raises(SweepSpecError):
            parse_sweep(bad)


def test_sweep_point_cap_refuses_before_building_values(capsys):
    cap = cli.MAX_SWEEP_POINTS
    assert len(parse_sweep(f"g=lin:0:0.2:{cap}").values) == cap
    assert len(parse_sweep(f"delta=log:1:100:{cap}").values) == cap
    tokens = ",".join(str(k) for k in range(1, cap + 1))
    assert len(parse_sweep(f"delta={tokens}").values) == cap
    over = (f"g=lin:0:0.2:{cap + 1}", f"delta=log:1:100:{cap + 1}", f"delta={tokens},1",
            "g=lin:0:0.2:100000000")
    tracemalloc.start()
    try:
        for text in over:
            with pytest.raises(SweepSpecError, match="exceeds the cap"):
                parse_sweep(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 10^8 points would take about 3 GB as an array and a tuple of floats;
    # the list of cap + 1 tokens takes about 0.6 MB.
    assert peak < 2**20
    for text in over:
        code, _, err = run_cli(capsys, "scan", "--scenario", "three-box/C", "--sweep", text)
        assert code == 2
        assert "exceeds the cap" in err


def test_sweep_trial_cap_refuses_before_drawing(capsys, monkeypatch):
    cap = cli.MAX_SWEEP_TRIALS
    assert sum(parse_sweep(f"n_trials={cap // 2},{cap - cap // 2}").values) == cap
    drawn = []
    monkeypatch.setattr(montecarlo, "run_records", lambda *args: drawn.append(args))
    start = time.perf_counter()
    for text in (f"n_trials={cap // 2},{cap - cap // 2 + 1}",
                 f"n_trials=lin:100:1000000:{cli.MAX_SWEEP_POINTS}"):
        code, _, err = run_cli(capsys, "scan", "--scenario", "three-box/C", "--sweep", text)
        assert code == 2
        assert "over the cap" in err
    # the prefixes of lin:100:1000000:10000 sum to 5e9 trials: 23 s to reduce
    assert time.perf_counter() - start < 0.5
    assert drawn == []
    monkeypatch.undo()
    # At a small cap, a sweep summing to the cap runs and one more trial
    # does not.
    monkeypatch.setattr(cli, "MAX_SWEEP_TRIALS", 30)
    argv = ["scan", "--scenario", "three-box/C", "--seed", "1", "--sweep"]
    code, out, _ = run_cli(capsys, *argv, "n_trials=10,20")
    assert code == 0
    assert len([line for line in out.splitlines() if line[0] != "#"]) == 2
    code, _, err = run_cli(capsys, *argv, "n_trials=10,21")
    assert code == 2
    assert "over the cap 30" in err


def test_sweep_cluster_cap_refuses_before_any_point(capsys, monkeypatch, tmp_path):
    # A g or delta point costs more the more eigenvalue clusters the
    # observable has, so points x clusters is capped once the scenario is
    # resolved. Every registry scenario has at most 2 clusters, so its
    # sweeps of MAX_SWEEP_POINTS stay accepted.
    assert 2 * cli.MAX_SWEEP_POINTS <= cli.MAX_SWEEP_CLUSTER_POINTS
    path = dense_scenario_file(tmp_path)
    assert len(resolve(path).eigen.clusters()) == 4
    runs = []
    run = Scenario.run
    monkeypatch.setattr(Scenario, "run", lambda self: runs.append(self) or run(self))
    monkeypatch.setattr(cli, "MAX_SWEEP_CLUSTER_POINTS", 12)
    argv = ["scan", "--scenario", path, "--sweep"]
    for text in ("g=0.01,0.02,0.03,0.04", "delta=lin:1:2:4"):
        code, out, err = run_cli(capsys, *argv, text)
        assert code == 2
        assert "4 points on 4 eigenvalue clusters exceeds the cap 12" in err
        assert out == ""
    assert runs == []
    for text in ("g=0.01,0.02,0.03", "delta=lin:1:2:3"):
        code, out, _ = run_cli(capsys, *argv, text)
        assert code == 0
        assert len([line for line in out.splitlines() if line[0] != "#"]) == 3
    assert len(runs) == 6
    # An n_trials sweep runs the scenario once, whatever its length.
    assert run_cli(capsys, *argv, "n_trials=10,20,30,40")[0] == 0


def test_bad_trial_count_has_one_message(capsys):
    for n in ("-5", "0"):
        code, _, err = run_cli(capsys, "sample", "--scenario", "three-box/C", "--n", n)
        assert code == 2
        assert f"n_trials must be a positive integer, got {n}" in err


# ------------------------------------------------------------ commands


def test_weak_value_stdout(capsys):
    code, out, err = run_cli(capsys, "weak-value", "--scenario", "three-box/C")
    assert code == 0
    values = parse_keyvalues(out)
    assert float(values["weak_value_re"]) == -1.0
    assert float(values["weak_value_im"]) == 0.0
    assert values["anomalous"] == "1"
    assert float(values["overlap_abs"]) == pytest.approx(1 / 3)


def test_weak_value_out_file_is_the_header_and_stdout(tmp_path, capsys):
    path = tmp_path / "wv.txt"
    code, out, _ = run_cli(
        capsys, "weak-value", "--scenario", "spin-amp/3+2j", "--out", str(path)
    )
    assert code == 0
    text = path.read_text()
    header = [line for line in text.splitlines() if line.startswith("# ")]
    fields = dict(line[2:].split(" = ", 1) for line in header)
    scenario = resolve("spin-amp/3+2j")
    assert fields["command"] == "weak-value"
    assert fields["scenario"] == "spin-amp/3+2j"
    assert fields["scenario_sha256"] == scenario.fingerprint()
    assert float(fields["g"]) == scenario.coupling.g
    assert text == "".join(line + "\n" for line in header) + out
    assert parse_keyvalues(text) == parse_keyvalues(out)
    assert float(parse_keyvalues(out)["weak_value_im"]) == pytest.approx(2.0)


def test_weak_value_not_anomalous(capsys):
    code, out, _ = run_cli(capsys, "weak-value", "--scenario", "three-box/ABC")
    assert code == 0
    assert parse_keyvalues(out)["anomalous"] == "0"


def test_simulate_writes_outputs(tmp_path, capsys):
    outdir = tmp_path / "sim"
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", "three-box/C", "--out", str(outdir)
    )
    assert code == 0
    values = parse_keyvalues(out)
    assert float(values["mean_Q"]) == pytest.approx(-0.0498, abs=5e-4)
    for name in (
        "position_density.tsv",
        "momentum_density.tsv",
        "wavefunction.tsv",
        "summary.txt",
        "scenario.txt",
    ):
        assert (outdir / name).exists()
    summary = (outdir / "summary.txt").read_text()
    assert "# scenario_sha256 = " in summary
    assert "# version = " in summary
    density = np.loadtxt(outdir / "position_density.tsv")
    assert density.shape == (4096, 2)
    dq = density[1, 0] - density[0, 0]
    assert np.sum(density[:, 1]) * dq == pytest.approx(1.0, abs=1e-8)


def test_simulate_out_serializes_the_scenario_once(tmp_path, capsys, monkeypatch):
    # summary.txt's scenario_sha256 and scenario.txt come from one rendering.
    calls = []
    serialize = scenarios.serialize_scenario

    def counted(scenario):
        calls.append(scenario.name)
        return serialize(scenario)

    monkeypatch.setattr(scenarios, "serialize_scenario", counted)
    monkeypatch.setattr(cli, "serialize_scenario", counted)
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "three-box/C", "--out", str(tmp_path))
    assert code == 0
    assert calls == ["three-box/C"]
    document = (tmp_path / "scenario.txt").read_bytes()
    assert document == serialize(three_box("C")).encode("utf-8")
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert f"# scenario_sha256 = {hashlib.sha256(document).hexdigest()}" in summary


def test_simulate_runs_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", "spin-amp/100", "--out", str(out)
        )
        assert code == 0
    for name in ("position_density.tsv", "summary.txt", "scenario.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_csv_format(tmp_path, capsys):
    outdir = tmp_path / "csv"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--scenario", "three-box/C", "--out", str(outdir), "--format", "csv",
    )
    assert code == 0
    text = (outdir / "position_density.csv").read_text()
    data_lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert "," in data_lines[0]


def test_sample_stdout_and_files(tmp_path, capsys):
    outdir = tmp_path / "mc"
    code, out, _ = run_cli(
        capsys,
        "sample", "--scenario", "three-box/C", "--n", "500", "--seed", "7",
        "--out", str(outdir),
    )
    assert code == 0
    values = parse_keyvalues(out)
    assert int(values["n_total"]) == 500
    assert 0 < int(values["n_accepted"]) < 500
    runs = (outdir / "runs.tsv").read_text().splitlines()
    data = [line for line in runs if not line.startswith("#")]
    assert len(data) == 500
    assert "# seed = 7" in runs
    report = (outdir / "report.txt").read_text()
    assert "wv_estimate = " in report


def test_sample_runs_file_matches_per_cell_formatting(tmp_path, capsys):
    # runs.tsv is the per-cell format_value rendering of run_records'
    # columns, '#' header lines included; rejected trials read nan.
    code, _, _ = run_cli(capsys, "sample", "--scenario", "three-box/C", "--n", "700",
                         "--seed", "3", "--out", str(tmp_path))
    assert code == 0
    scenario = resolve("three-box/C")
    records = montecarlo.run_records(3, 700, scenario)
    header = cli._header(scenario, "sample",
                         {"seed": 3, "n": 700, "rng_stream": montecarlo.RNG_STREAM})
    lines = [f"# {key} = {textout.format_value(value)}" for key, value in header.items()]
    lines.append("# columns: trial\taccepted\treadout_q\trng_stream_id")
    columns = [range(700), records.accepted.tolist(), records.readout_q.tolist(),
               records.rng_stream_id.tolist()]
    lines += ["\t".join(map(textout.format_value, row)) for row in zip(*columns)]
    assert 0 < records.accepted.sum() < 700
    assert (tmp_path / "runs.tsv").read_text() == "".join(line + "\n" for line in lines)


def test_sample_deterministic(capsys):
    code_a, out_a, _ = run_cli(
        capsys, "sample", "--scenario", "three-box/C", "--n", "200", "--seed", "11"
    )
    code_b, out_b, _ = run_cli(
        capsys, "sample", "--scenario", "three-box/C", "--n", "200", "--seed", "11"
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_scan_delta_table(tmp_path, capsys):
    outdir = tmp_path / "scan"
    code, out, _ = run_cli(
        capsys,
        "scan", "--scenario", "three-box/C", "--sweep", "delta=2,1",
        "--out", str(outdir),
    )
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(lines) == 2
    first = [float(tok) for tok in lines[0].split("\t")]
    second = [float(tok) for tok in lines[1].split("\t")]
    assert first[0] == 1.0 and second[0] == 2.0  # sorted ascending
    # columns: delta mean_Q var_Q mean_P var_P probability fidelity shift_over_g
    assert first[2] == pytest.approx(0.5, rel=2e-2)
    assert second[2] == pytest.approx(2.0, rel=2e-2)
    assert first[7] == pytest.approx(-1.0, abs=5e-3)
    scan = (outdir / "scan.tsv").read_text()
    assert "# sweep = delta=2,1" in scan
    assert "# columns: delta\tmean_Q" in scan


def test_scan_n_trials_table(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--scenario", "three-box/C", "--sweep", "n_trials=200,400",
        "--seed", "3",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0].startswith("# columns") is False
    assert len(lines) == 2
    row = lines[0].split("\t")
    assert row[0] == "200"


def test_scan_n_trials_rows_match_separate_estimates(tmp_path, capsys):
    # One draw at the largest n; each row must equal its own full run.
    code, out, _ = run_cli(
        capsys,
        "scan", "--scenario", "three-box/C", "--sweep", "n_trials=300,60,1000",
        "--seed", "9", "--out", str(tmp_path),
    )
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
    scenario = three_box("C")
    _, probability = scenario.run()
    assert len(rows) == 3
    for row, n in zip(rows, (60, 300, 1000)):
        report = estimate_weak_value(9, n, scenario)
        expected = (n, report.wv_estimate, report.std_error, report.acceptance_rate,
                    report.n_accepted, probability)
        assert row == [textout.format_value(x) for x in expected]
    assert "# rng_stream = philox4x64-10" in (tmp_path / "scan.tsv").read_text().splitlines()


def test_scan_n_trials_reads_probability_as_sample_does(capsys):
    # The n_trials table prints no moments, so a grid too tight for the
    # fidelity reference must not stop it; sample runs on the same grid.
    argv = ("--scenario", "three-box/C", "--grid-extent", "8.02")
    code, out, _ = run_cli(capsys, "scan", *argv, "--sweep", "n_trials=10,100")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
    _, probability = resolve("three-box/C", grid_extent=8.02).run()
    assert [row[5] for row in rows] == [textout.format_value(probability)] * 2
    assert run_cli(capsys, "sample", *argv, "--n", "100")[0] == 0


def test_scan_keeps_the_pinned_grid_extent(capsys):
    # Each g or delta point runs on the [-50, 50] grid that --grid-extent
    # pins: its row is the run of resolve(..., grid_extent=50), bit for bit.
    for parameter, values in (("g", (0.05, 0.1)), ("delta", (0.8, 1.2))):
        code, out, _ = run_cli(capsys, "scan", "--scenario", "three-box/C", "--grid-extent",
                               "50", "--sweep", f"{parameter}={values[0]},{values[1]}")
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
        assert len(rows) == 2
        for row, value in zip(rows, values):
            scenario = resolve("three-box/C", grid_extent=50, **{parameter: value})
            assert scenario.grid.q_min == -50.0
            state, probability = scenario.run()
            expected = (value, *pointer.moments(state), probability)
            assert row[:6] == [textout.format_value(x) for x in expected]


def test_scan_n_trials_rows_without_acceptance_are_nan(capsys):
    # spin-amp/100 accepts with probability 1e-4. Under seed 5 the first
    # trial accepted is past 100: those prefixes are rows of nan estimates.
    scenario = resolve("spin-amp/100")
    code, out, _ = run_cli(capsys, "scan", "--scenario", "spin-amp/100",
                           "--sweep", "n_trials=10,100,1000,5000", "--seed", "5")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
    assert [row[0] for row in rows] == ["10", "100", "1000", "5000"]
    for row in rows[:2]:
        assert row[1:5] == ["nan", "nan", "0", "0"]
    for row, n in zip(rows[2:], (1000, 5000)):
        report = estimate_weak_value(5, n, scenario)
        expected = (report.wv_estimate, report.std_error, report.acceptance_rate,
                    report.n_accepted)
        assert row[1:5] == [textout.format_value(x) for x in expected]
        assert report.n_accepted > 0
    # Under seed 0 the largest prefix accepts nothing either: exit 3, as
    # sample exits, and no table.
    code, out, err = run_cli(capsys, "scan", "--scenario", "spin-amp/100",
                             "--sweep", "n_trials=10,100,1000,5000")
    assert code == 3
    assert "no trials accepted out of 5000" in err
    assert out == ""


def test_scan_g_includes_zero(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--scenario", "three-box/C", "--sweep", "g=0,0.05"
    )
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-12)  # no coupling, no shift
    assert rows[0][7] == "nan"  # shift/g undefined at g = 0


# ----------------------------------------------------------- exit codes


def test_exit_code_input_error(capsys):
    code, _, err = run_cli(capsys, "weak-value", "--scenario", "bogus/ref")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "weak-value", "--scenario", "spin-amp/1e9")
    assert code == 2
    assert "exceeds the supported cap" in err
    code, _, err = run_cli(
        capsys, "simulate", "--scenario", "three-box/C", "--grid-extent", "0"
    )
    assert code == 2
    assert "grid extent must be positive" in err


def test_exit_code_sweep_error(capsys):
    code, _, _ = run_cli(
        capsys, "scan", "--scenario", "three-box/C", "--sweep", "delta=-1,1"
    )
    assert code == 2


def test_exit_code_physics(tmp_path, capsys):
    doc = serialize_scenario(three_box("C"))
    lines = []
    for line in doc.splitlines():
        if line.startswith("pre = "):
            lines.append("pre = 1,0 0,0 0,0")
        elif line.startswith("post = "):
            lines.append("post = 0,0 1,0 0,0")
        else:
            lines.append(line)
    path = tmp_path / "ortho.scenario"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "weak-value", "--scenario", str(path))
    assert code == 3
    assert "orthogonal" in err


def test_exit_code_guard(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--scenario", "spin-amp/100", "--grid-extent", "3"
    )
    assert code == 4
    assert "guard" in err or "grid" in err


def test_exit_code_undersampled_pointer(capsys):
    # the default n = 4096 grid for spin-amp/1e6 has spacing ~ delta
    code, _, err = run_cli(capsys, "simulate", "--scenario", "spin-amp/1e6")
    assert code == 4
    assert "grid" in err
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", "spin-amp/1e6", "--grid-n", "65536"
    )
    assert code == 0


def test_exit_code_undersampled_pointer_on_an_offset_grid(tmp_path, capsys):
    # q_min/dq = 1/4 mod 1 cancels the norm defect's first term, so the
    # samples alone pass their norm check at pi delta/dq = 2.5 and 3.0, while
    # their var_P misses 1/(2 delta^2) by 1.4e-3 and 8e-5 relative; the bound
    # on pi delta/dq rejects both.
    box = three_box("C")
    dq = 20.0 / 256
    for ratio in (2.5, 3.0):
        delta = ratio * dq / np.pi
        scenario = Scenario(
            name="offset-grid",
            pre=box.pre,
            post=box.post,
            operator=box.operator,
            coupling=CouplingConfig(g=0.0, delta=delta),
            grid=pointer.PointerGrid(n=256, q_min=-127.75 * dq, q_max=128.25 * dq),
        )
        path = tmp_path / f"offset-{ratio}.scenario"
        save_scenario(scenario, path)
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path))
        assert code == 4
        assert "undersamples" in err and "raise the grid size (--grid-n)" in err


def test_exit_code_convergence(tmp_path, capsys, monkeypatch):
    path = dense_scenario_file(tmp_path)

    def failing_eigh(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    code, _, err = run_cli(capsys, "weak-value", "--scenario", path)
    assert code == 4
    assert "converge" in err


def test_dense_scenario_diagonalized_once_per_command(tmp_path, capsys, monkeypatch):
    # Each command scans its observable for Hermiticity once, when the
    # scenario is built; diagonal observables never reach eigh.
    path = dense_scenario_file(tmp_path)
    eigh_calls, scans = [], []
    eigh = np.linalg.eigh
    require_hermitian = linalg.require_hermitian

    def counting_eigh(m):
        eigh_calls.append(m.shape)
        return eigh(m)

    def counting_require_hermitian(m, *args, **kwargs):
        scans.append(np.shape(m))
        return require_hermitian(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(linalg, "require_hermitian", counting_require_hermitian)
    for argv, dim, diagonalized in (
        (["scan", "--scenario", path, "--sweep", "delta=0.5,1,2,3"], 4, [(4, 4)]),
        (["simulate", "--scenario", path, "--g", "0.02"], 4, [(4, 4)]),
        (["simulate", "--scenario", "ensemble/8x5"], 2, []),
        (["weak-value", "--scenario", "spin-amp/100"], 2, []),
    ):
        eigh_calls.clear()
        scans.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert eigh_calls == diagonalized
        assert scans == [(dim, dim)]


def test_parser_is_built_once_and_survives_an_argparse_error(capsys):
    argv = ["simulate", "--scenario", "three-box/C"]
    lone = subprocess.run(
        [sys.executable, "-m", "weakmeas.cli", *argv], capture_output=True, text=True,
        timeout=120,
    )
    assert lone.returncode == 0
    assert run_cli(capsys, "simulate", "--scenario", "three-box/C", "--grid-n", "many")[0] == 2
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == lone.stdout
    assert cli._build_parser.cache_info().misses == 1


def test_scan_has_no_trial_count_option(capsys):
    # n_trials sweeps take their counts from --sweep.
    code, _, err = run_cli(
        capsys, "scan", "--scenario", "three-box/C", "--sweep", "n_trials=10", "--n", "5"
    )
    assert code == 2
    assert "--n" in err


def test_exit_code_zero_accepted(tmp_path, capsys):
    # ensemble/8x5 at defaults accepts with probability ~1e-11
    code, _, err = run_cli(
        capsys, "sample", "--scenario", "ensemble/8x5", "--n", "50", "--seed", "1"
    )
    assert code == 3
    assert "accepted" in err


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "weakmeas" in out


def test_scenario_file_override_via_cli(tmp_path, capsys):
    path = tmp_path / "box.scenario"
    save_scenario(three_box("B"), path)
    code, out, _ = run_cli(capsys, "weak-value", "--scenario", str(path), "--g", "0.2")
    assert code == 0
    assert float(parse_keyvalues(out)["weak_value_re"]) == 1.0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "weakmeas.cli", "weak-value", "--scenario", "three-box/A"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "weak_value_re = 1" in proc.stdout


def test_scan_delta_sweep_converges_to_weak_value(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--scenario", "spin-amp/100", "--sweep", "delta=10,100,1000,10000",
    )
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
    errors = [abs(float(row[7]) - 100.0) for row in rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.01


def test_scan_g_sweep_error_grows_with_coupling(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--scenario", "spin-amp/5", "--delta", "8",
        "--sweep", "g=0.01,0.1,0.2",
    )
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
    errors = [abs(float(row[7]) - 5.0) for row in rows]
    assert all(a < b for a, b in zip(errors, errors[1:]))


def test_scan_single_point_matches_simulate(capsys):
    code, scan_out, _ = run_cli(
        capsys, "scan", "--scenario", "three-box/C", "--sweep", "g=0.05"
    )
    assert code == 0
    row = [
        line.split("\t") for line in scan_out.splitlines() if not line.startswith("#")
    ][0]
    code, sim_out, _ = run_cli(capsys, "simulate", "--scenario", "three-box/C")
    assert code == 0
    values = parse_keyvalues(sim_out)
    assert float(row[1]) == pytest.approx(float(values["mean_Q"]), rel=1e-12)
    assert float(row[2]) == pytest.approx(float(values["var_Q"]), rel=1e-12)
    assert float(row[5]) == pytest.approx(float(values["probability"]), rel=1e-12)


def test_simulate_three_box_weak_shift(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", "three-box/C", "--g", "0.1", "--delta", "5"
    )
    assert code == 0
    values = parse_keyvalues(out)
    assert float(values["mean_Q"]) == pytest.approx(-0.1, abs=5e-3)


def test_simulate_zero_coupling(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", "three-box/C", "--g", "0"
    )
    assert code == 0
    values = parse_keyvalues(out)
    assert float(values["mean_Q"]) == pytest.approx(0.0, abs=1e-12)
    assert float(values["probability"]) == pytest.approx(1.0 / 9.0, rel=1e-10)


def _counting_fft(monkeypatch, corrupt_ifft=False):
    """Count numpy's fft/ifft calls; optionally scale every ifft output by
    1 + 1e-6."""
    calls = {"fft": 0, "ifft": 0}
    fft, ifft = np.fft.fft, np.fft.ifft

    def counted_fft(a, *args, **kwargs):
        calls["fft"] += 1
        return fft(a, *args, **kwargs)

    def counted_ifft(a, *args, **kwargs):
        calls["ifft"] += 1
        out = ifft(a, *args, **kwargs)
        if corrupt_ifft:
            out *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(np.fft, "fft", counted_fft)
    monkeypatch.setattr(np.fft, "ifft", counted_ifft)
    return calls


@pytest.mark.skipif(not pointer._EXTENDED, reason="no band moments without a long double")
def test_simulate_makes_no_fft(tmp_path, capsys, monkeypatch):
    # The initial pointer is its closed-form spectrum, post-selection works
    # on its band, and the moments (position ones included) and the fidelity
    # read the held spectrum, whatever the number of eigenvalue clusters.
    path = dense_scenario_file(tmp_path)  # 4 clusters
    for argv in (("three-box/C",), (path,), ("spin-amp/100", "--grid-n", str(2**19))):
        calls = _counting_fft(monkeypatch)
        code, _, _ = run_cli(capsys, "simulate", "--scenario", *argv)
        assert code == 0
        assert calls == {"fft": 0, "ifft": 0}


def test_simulate_fidelity_matches_closed_form(capsys):
    # ensemble/8x5 cancels to a probability of 8e-12; the oracle sums in
    # decimals, so it holds there too. Its nine branches come from the
    # binomial closed form: the scenario holds one spin, not the 256-dim
    # average operator.
    for ref, grid_n in (("spin-amp/100", 2**19), ("spin-amp/1j", 2**19),
                        ("three-box/C", 2**19), ("ensemble/8x5", None)):
        argv = ["simulate", "--scenario", ref]
        if grid_n:
            argv += ["--grid-n", str(grid_n)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        scenario = resolve(ref, grid_n=grid_n)
        g, delta = scenario.coupling.g, scenario.coupling.delta
        if scenario.copies > 1:
            exact = ensemble_closed_form(scenario.copies, scenario.weak_value.real, g, delta)
            amplitudes, shifts = exact["amplitudes"], exact["shifts"]
        else:
            amplitudes, shifts = [], []
            for value, block in eigen_clusters(scenario.operator):
                amplitudes.append(
                    np.vdot(scenario.post, block @ (block.conj().T @ scenario.pre))
                )
                shifts.append(g * value)
        want = gaussian_fidelity(amplitudes, shifts, g * scenario.weak_value.real, delta)
        assert abs(float(parse_keyvalues(out)["gaussian_fidelity"]) - want) <= 1e-10


def test_simulate_ensemble_matches_the_exact_product_form(capsys):
    # The n + 1 branch amplitudes alternate in sign and cancel to 1e-17 of
    # their size at 12x5; the program never sums them, it raises one spin's
    # kernel to the power n. At the cap the target is 0.5: ensemble/<cap>x5
    # has probability 26^-cap, below PROBABILITY_FLOOR (exit 3).
    cap = scenarios.MAX_ENSEMBLE_SPINS
    for n, target in ((8, 5.0), (12, 5.0), (40, 5.0), (cap, 0.5), (cap, -1.2)):
        code, out, _ = run_cli(capsys, "simulate", "--scenario", f"ensemble/{n}x{target}")
        assert code == 0
        got = parse_keyvalues(out)
        want = ensemble_closed_form(n, target, 0.5, 1.0)
        assert float(got["weak_value_re"]) == target
        prob = float(got["probability"])
        assert abs(prob - want["probability"]) <= 1e-12 * want["probability"]
        assert abs(float(got["mean_Q"]) - want["mean_q"]) <= 1e-12 * 1.0
        assert abs(float(got["var_Q"]) - want["var_q"]) <= 1e-12 * want["var_q"]
    code, _, err = run_cli(capsys, "simulate", "--scenario", f"ensemble/{cap}x5")
    assert code == 3
    assert "underflows" in err


@pytest.mark.parametrize("n_spins,target", [(12, 5), (scenarios.MAX_ENSEMBLE_SPINS, 0.5)])
def test_ensemble_spin_cap_within_budget(tmp_path, capsys, n_spins, target):
    # No 2^n-dim state or operator is built: at 12 spins the dense operator
    # alone was 256 MB. Under tracemalloc, with --out: ~0.3 s and a 2.5 MB
    # peak at either count on a 2-core Xeon, and a 290-byte scenario.txt.
    ref = f"ensemble/{n_spins}x{target}"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        scenario = resolve(ref)
        code, _, _ = run_cli(capsys, "simulate", "--scenario", ref, "--out", str(tmp_path))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert scenario.system_dim == 2**n_spins
    assert elapsed < 10.0
    assert peak < 8 * 2**20
    assert (tmp_path / "scenario.txt").stat().st_size < 1024
    code, _, err = run_cli(
        capsys, "simulate", "--scenario", f"ensemble/{scenarios.MAX_ENSEMBLE_SPINS + 1}x0.5"
    )
    assert code == 2
    assert str(scenarios.MAX_ENSEMBLE_SPINS) in err


def test_dense_operator_cap_within_budget(tmp_path, capsys):
    # At MAX_DIM = 512, simulate --out on a dense scenario file took ~3.1 s
    # at 123 MB peak RSS on a 2-core Xeon, most of it writing and parsing
    # the 2.6e5 operator entries as text; dim 1024 took 12.2 s.
    cap = linalg.MAX_DIM
    rng = np.random.default_rng(11)
    operator = random_hermitian(rng, cap)
    operator /= np.max(np.abs(np.linalg.eigvalsh(operator)))
    pre = random_state(rng, cap)
    post = random_state(rng, cap)
    path = tmp_path / "dense.scenario"
    save_scenario(Scenario(
        name="dense-cap", pre=pre, post=post, operator=operator,
        coupling=CouplingConfig(g=0.1, delta=1.0), grid=default_grid(1.0, 0.1),
    ), path)
    start = time.perf_counter()
    code, _, _ = run_cli(capsys, "simulate", "--scenario", str(path),
                         "--out", str(tmp_path / "out"))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10.0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < 2 * 2**20  # KiB
    above = np.zeros((cap + 1, cap + 1), dtype=complex)
    with pytest.raises(DimensionMismatchError, match="cap"):
        linalg.eig_hermitian(above)
    with pytest.raises(DimensionMismatchError, match="cap"):
        Scenario(
            name="dense-above-cap", pre=np.eye(cap + 1)[0], post=np.eye(cap + 1)[0],
            operator=above, coupling=CouplingConfig(g=0.1, delta=1.0),
            grid=default_grid(1.0, 0.1),
        )


def test_exit_code_unitarity_guard(capsys, monkeypatch):
    eig_hermitian = linalg.eig_hermitian

    def skewed(m):
        eig = eig_hermitian(m)
        vectors = eig.eigenvectors.copy()
        vectors[0, -1] += 1e-3  # no longer orthonormal
        return linalg.EigenDecomposition(eig.eigenvalues, vectors)

    monkeypatch.setattr(linalg, "eig_hermitian", skewed)
    code, _, err = run_cli(capsys, "simulate", "--scenario", "spin-amp/100")
    assert code == 4
    assert "unitarity" in err


def test_exit_code_parseval_guard(capsys, monkeypatch):
    # The post-selected samples no longer match their spectrum's total. On
    # n = 1024 the pointer's band is too wide for the band moments, so the
    # position moments are read off the samples (one ifft) and the check
    # compares two different sums; on larger grids both totals are the
    # band's sum |V|^2 and no ifft is made.
    scenario = resolve("three-box/C", grid_n=1024)
    state, _ = scenario.run()
    assert not pointer._band_path(state.grid, state.spectrum[0])
    calls = _counting_fft(monkeypatch, corrupt_ifft=True)
    code, _, err = run_cli(capsys, "simulate", "--scenario", "three-box/C", "--grid-n", "1024")
    assert code == 4
    assert "Parseval" in err
    assert calls == {"fft": 0, "ifft": 1}


def test_simulate_at_grid_cap(capsys):
    # n = 2^20 took ~0.01 s and a 0.1 MB tracemalloc peak on a 2-core Xeon
    cap = pointer.GRID_MAX_N
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "three-box/C", "--grid-n", str(cap)
        )
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert float(parse_keyvalues(out)["mean_Q"]) == pytest.approx(-0.05, abs=1e-3)
    assert elapsed < 10.0
    assert peak < 160 * 2**20
    code, _, err = run_cli(
        capsys, "simulate", "--scenario", "three-box/C", "--grid-n", str(2 * cap)
    )
    assert code == 2
    assert "power of two" in err

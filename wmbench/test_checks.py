"""Tests of the benchmark's own checks.

A quick run (one round) of each workload must pass every check and print
the metrics BENCHMARK.json names; then each workload's check is fed a
deliberately wrong output and must reject it. Run from the repository root:

    python3 -m pytest wmbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import weakmeas  # noqa: E402
import weakmeas.cli  # noqa: E402,F401
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(*argv):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_passes_checks(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }


def test_refuses_to_run_without_sources(tmp_path):
    """A tree holding only BENCHMARK.json and wmbench/ has no program to run."""
    shutil.copytree(HERE, tmp_path / "wmbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "wmbench/run.py", "--workload", "spectral", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _edit(text, key, change):
    out = []
    for line in text.splitlines(keepends=True):
        name, sep, value = line.partition(" = ")
        if sep and name == key:
            line = f"{name} = {change(float(value)):.17g}\n"
        out.append(line)
    return "".join(out)


def test_grid_simulate_rejects_shifted_mean(tmp_path):
    wl = workloads.GridSimulate(weakmeas, 5, str(tmp_path))
    item = wl.items[2]  # three-box/C
    out = wl.run(item)
    wl.check(item, out)
    g = item[1]
    with pytest.raises(CheckError, match="mean_Q"):
        wl.check(item, _edit(out, "mean_Q", lambda v: v + g))
    with pytest.raises(CheckError, match="var_P"):
        wl.check(item, _edit(out, "var_P", lambda v: v * 1.001))


def test_spectral_rejects_wrong_weak_value_and_spectrum(tmp_path):
    wl = workloads.Spectral(weakmeas, 5, str(tmp_path))
    item = wl.items[0]
    facts, sim, ens = wl.run(item)
    wl.check(item, (facts, sim, ens))
    with pytest.raises(CheckError, match="weak_value_im"):
        wl.check(item, (_edit(facts, "weak_value_im", lambda v: v + 1e-6), sim, ens))
    with pytest.raises(CheckError, match="eigenvalue_max"):
        wl.check(item, (_edit(facts, "eigenvalue_max", lambda v: v + 1e-6), sim, ens))
    with pytest.raises(CheckError, match="ensemble/8x5 probability"):
        wl.check(item, (facts, sim, _edit(ens, "probability", lambda v: v * 1.001)))


def test_sample_export_rejects_bad_rate_and_missing_row(tmp_path):
    wl = workloads.SampleExport(weakmeas, 5, str(tmp_path))
    item = wl.items[0]
    out = wl.run(item)
    wl.check(item, out)
    p = wl._want["probability"]
    sigma = np.sqrt(p * (1.0 - p) / wl.trials)
    with pytest.raises(CheckError, match="acceptance_rate"):
        wl.check(item, _edit(out, "acceptance_rate", lambda v: p + 10.0 * sigma))
    runs = os.path.join(wl.outdir, "runs.tsv")
    with open(runs, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(runs, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    with pytest.raises(CheckError, match="runs.tsv"):
        wl.check(item, out)


def test_sample_export_repeat_check_passes(tmp_path):
    wl = workloads.SampleExport(weakmeas, 5, str(tmp_path))
    wl.final_check()


class _Scaled:
    """A marginal whose position density integrates to ``factor``."""

    def __init__(self, marginal, factor):
        self.grid = marginal.grid
        self._marginal = marginal
        self._factor = factor

    def position_density(self):
        return self._marginal.position_density() * self._factor

    def momentum_density(self):
        return self._marginal.momentum_density()


def test_sequential_rejects_wrong_probabilities(tmp_path):
    wl = workloads.SequentialPointers(weakmeas, 5, str(tmp_path))
    item = wl.items[0]
    marginals, probability = wl.run(item)
    wl.check(item, (marginals, probability))
    with pytest.raises(CheckError, match="joint probability"):
        wl.check(item, (marginals, probability * 1.01))
    bad = list(marginals)
    bad[2] = _Scaled(bad[2], 1.01)
    with pytest.raises(CheckError, match="marginal 2 q norm"):
        wl.check(item, (bad, probability))

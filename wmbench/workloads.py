"""The four benchmark workloads: seeded inputs, one op, and its check.

A workload is a round of items made from the seed; an op runs one item
through the package's public entry points. Every op of a workload has the
same kind and size: mixing op classes of different cost makes the median
land on the boundary between them and jump from run to run.

Checks run outside the timed region and compare outputs with closed forms
from oracle.py, computed from the benchmark's own copy of the inputs.
"""

from __future__ import annotations

import contextlib
import io
import os
from math import sqrt

import numpy as np

import oracle


class CheckError(Exception):
    """An op finished but its output is wrong."""


class OpFailed(Exception):
    """An op did not finish: the command exited with a nonzero code."""


def _close(label, got, want, tol):
    if not abs(got - want) <= tol:
        raise CheckError(f"{label}: got {got!r}, expected {want!r} within {tol:.3g}")


def keyvalues(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _cli(wm, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wm.cli.main(argv)
    if code != 0:
        raise OpFailed(f"weakmeas {' '.join(argv)} exited with code {code}")
    return buf.getvalue()


def _check_pointer(label, kv, want, delta):
    """probability and the four pointer moments against the closed form.

    Tolerances scale with the pointer width: a Gaussian sampled well inside
    the grid has spectrally accurate moments, so 1e-7 of the natural scale
    is loose for a correct program and far below any physical shift.
    """
    _close(f"{label} probability", float(kv["probability"]), want["probability"],
           1e-8 * want["probability"])
    _close(f"{label} mean_Q", float(kv["mean_Q"]), want["mean_q"], 1e-7 * delta)
    _close(f"{label} var_Q", float(kv["var_Q"]), want["var_q"], 1e-7 * delta**2)
    _close(f"{label} mean_P", float(kv["mean_P"]), want["mean_p"], 1e-7 / delta)
    _close(f"{label} var_P", float(kv["var_P"]), want["var_p"], 1e-7 / delta**2)


def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def _spin_amp(target):
    """spin-amp/<target>: (1, 1)/sqrt(2) selected on the bra (1+t, 1-t)."""
    pre = _unit([1.0, 1.0])
    post = np.conj(_unit([1.0 + target, 1.0 - target]))
    return pre, post, np.diag([1.0, -1.0]).astype(complex), 1000.0


def _three_box_c():
    pre = _unit([1.0, 1.0, 1.0])
    post = _unit([1.0, 1.0, -1.0])
    return pre, post, np.diag([0.0, 0.0, 1.0]).astype(complex), 1.0


def _ensemble(n_spins, target):
    """ensemble/<n>x<t>: n spins each selected for weak value t, probed by
    the average of sigma_z; g = 0.5 and delta = 2g by default."""
    dim = 2**n_spins
    pre = np.full(dim, dim**-0.5, dtype=complex)
    single = np.conj(_unit([1.0 + target, 1.0 - target]))
    post = single
    for _ in range(n_spins - 1):
        post = np.kron(post, single)
    ones = np.array([bin(b).count("1") for b in range(dim)])
    return pre, post, np.diag((n_spins - 2 * ones) / n_spins).astype(complex), 0.5, 1.0


def _random_state(rng, dim):
    return _unit(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def _random_observable(rng, dim):
    """Dense Hermitian matrix with spectrum in [-1, 1] (one end reached)."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (m + m.conj().T)
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def _selection_pair(rng, dim, min_overlap=0.2):
    # Pairs with |<post|pre>| >= 0.2 keep the post-selection probability
    # well above round-off, so the closed form and the grid agree to 1e-8.
    while True:
        pre, post = _random_state(rng, dim), _random_state(rng, dim)
        if abs(np.vdot(post, pre)) >= min_overlap:
            return pre, post


class Workload:
    """One round of ``items``; ``run`` is one op and ``check`` its check."""

    def final_check(self):
        """Checks made once per run, after the timed loop."""


class GridSimulate(Workload):
    """``simulate`` near the grid cap, cycling three two-cluster scenarios."""

    name = "grid-simulate"
    tail_percentile = 80
    grid_n = 2**19

    def __init__(self, wm, seed, workdir):
        self.wm = wm
        rng = np.random.default_rng([seed, 1])
        self.items = [
            ("spin-amp/100", float(rng.uniform(0.5, 2.0)), _spin_amp(100.0)),
            ("spin-amp/1j", float(rng.uniform(0.5, 2.0)), _spin_amp(1j)),
            ("three-box/C", float(rng.uniform(0.02, 0.08)), _three_box_c()),
        ]
        self.sizes = {
            "scenarios": [ref for ref, _, _ in self.items],
            "grid_n": self.grid_n,
            "system_dim": [2, 2, 3],
            "eigenvalue_clusters": 2,
            "ops_per_round": len(self.items),
        }
        self._want = {}

    def run(self, item):
        ref, g, _ = item
        return _cli(self.wm, ["simulate", "--scenario", ref, "--g", repr(g),
                              "--grid-n", str(self.grid_n)])

    def check(self, item, out):
        ref, g, (pre, post, op, delta) = item
        if ref not in self._want:
            self._want[ref] = oracle.conditional(pre, post, op, g, delta)
        _check_pointer(ref, keyvalues(out), self._want[ref], delta)


class Spectral(Workload):
    """``weak-value`` and ``simulate`` on a dense dim-16 scenario file,
    then ``simulate`` on the large diagonal ``ensemble/8x5``."""

    name = "spectral"
    tail_percentile = 90
    files = 8
    dim = 16
    grid_n = 4096
    half_extent = 12.0

    def __init__(self, wm, seed, workdir):
        self.wm = wm
        rng = np.random.default_rng([seed, 2])
        self.items = []
        for k in range(self.files):
            pre, post = _selection_pair(rng, self.dim)
            op = _random_observable(rng, self.dim)
            g = float(rng.uniform(0.1, 0.3))
            path = os.path.join(workdir, f"spectral-{k}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self._scenario_text(f"bench/spectral-{seed}-{k}", pre, post, op, g))
            self.items.append((path, (pre, post, op, g)))
        self.ensemble = _ensemble(8, 5.0)
        self.sizes = {
            "scenario_files": self.files,
            "system_dim": self.dim,
            "grid_n": self.grid_n,
            "ensemble": "ensemble/8x5",
            "ensemble_dim": 256,
            "ensemble_grid_n": 4096,
            "ops_per_round": self.files,
        }
        self._want = {}

    def _scenario_text(self, name, pre, post, op, g):
        def amps(v):
            return " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in v)

        wv = np.vdot(post, op @ pre) / np.vdot(post, pre)
        lines = {
            "format": "weakmeas-scenario-1",
            "name": name,
            "system_dim": str(self.dim),
            "g": f"{g:.17g}",
            "delta": "1",
            "grid_n": str(self.grid_n),
            "grid_q_min": f"{-self.half_extent:.17g}",
            "grid_q_max": f"{self.half_extent:.17g}",
            "weak_value": f"{wv.real:.17g},{wv.imag:.17g}",
            "pre": amps(pre),
            "post": amps(post),
            "operator": amps(op.reshape(-1)),
        }
        return "".join(f"{key} = {value}\n" for key, value in lines.items())

    def run(self, item):
        path, _ = item
        return (
            _cli(self.wm, ["weak-value", "--scenario", path]),
            _cli(self.wm, ["simulate", "--scenario", path]),
            _cli(self.wm, ["simulate", "--scenario", "ensemble/8x5"]),
        )

    def check(self, item, out):
        path, (pre, post, op, g) = item
        if path not in self._want:
            self._want[path] = oracle.conditional(pre, post, op, g, 1.0)
        if "ensemble" not in self._want:
            pre_e, post_e, op_e, g_e, delta_e = self.ensemble
            self._want["ensemble"] = oracle.conditional(pre_e, post_e, op_e, g_e, delta_e)
        want = self._want[path]
        facts = keyvalues(out[0])
        wv = want["weak_value"]
        tol = 1e-9 * max(1.0, abs(wv))
        _close("weak_value_re", float(facts["weak_value_re"]), wv.real, tol)
        _close("weak_value_im", float(facts["weak_value_im"]), wv.imag, tol)
        _close("eigenvalue_min", float(facts["eigenvalue_min"]), want["eigenvalues"][0], 1e-9)
        _close("eigenvalue_max", float(facts["eigenvalue_max"]), want["eigenvalues"][-1], 1e-9)
        _check_pointer(path, keyvalues(out[1]), want, 1.0)
        _check_pointer("ensemble/8x5", keyvalues(out[2]), self._want["ensemble"],
                       self.ensemble[4])


class SampleExport(Workload):
    """``sample --out`` on three-box/C, one seed per op of a round."""

    name = "sample-export"
    tail_percentile = 80
    trials = 10000
    round_size = 4
    sigmas = 5.0

    def __init__(self, wm, seed, workdir):
        self.wm = wm
        rng = np.random.default_rng([seed, 3])
        self.items = [int(s) for s in rng.integers(0, 2**31, size=self.round_size)]
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "sample")
        pre, post, op, delta = _three_box_c()
        self.g = 0.05
        self._want = oracle.conditional(pre, post, op, self.g, delta)
        self.sizes = {
            "scenario": "three-box/C",
            "grid_n": 4096,
            "trials_per_op": self.trials,
            "ops_per_round": self.round_size,
        }

    def run(self, item, outdir=None):
        return _cli(self.wm, ["sample", "--scenario", "three-box/C", "--n", str(self.trials),
                              "--seed", str(item), "--out", outdir or self.outdir])

    def check(self, item, out, outdir=None):
        outdir = outdir or self.outdir
        want = self._want
        kv = keyvalues(out)
        n = int(kv["n_total"])
        if n != self.trials:
            raise CheckError(f"n_total {n} != {self.trials}")
        p = want["probability"]
        rate = float(kv["acceptance_rate"])
        _close("acceptance_rate", rate, p, self.sigmas * sqrt(p * (1.0 - p) / n))
        n_acc = int(kv["n_accepted"])
        shift = float(kv["wv_estimate"]) * self.g
        _close("wv_estimate*g", shift, want["mean_q"], self.sigmas * sqrt(want["var_q"] / n_acc))

        with open(os.path.join(outdir, "report.txt"), encoding="utf-8") as fh:
            report = keyvalues(fh.read())
        for key in ("n_total", "n_accepted", "acceptance_rate", "wv_estimate", "std_error"):
            if report.get(key) != kv[key]:
                raise CheckError(f"report.txt {key} = {report.get(key)!r}, stdout {kv[key]!r}")
        rows = accepted = 0
        total_q = 0.0
        with open(os.path.join(outdir, "runs.tsv"), encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                rows += 1
                fields = line.split("\t")
                if fields[1] == "1":
                    accepted += 1
                    total_q += float(fields[2])
        if rows != n or accepted != n_acc:
            raise CheckError(
                f"runs.tsv has {rows} rows and {accepted} accepted; report says {n} and {n_acc}"
            )
        _close("runs.tsv mean readout", total_q / accepted, shift, 1e-9 * max(1.0, abs(shift)))

    def final_check(self):
        """A repeated seed gives identical bytes."""
        seed = self.items[0]
        outputs = []
        for tag in ("repeat-a", "repeat-b"):
            outdir = os.path.join(self.workdir, tag)
            out = self.run(seed, outdir)
            self.check(seed, out, outdir)
            files = {}
            for fname in ("runs.tsv", "report.txt"):
                with open(os.path.join(outdir, fname), "rb") as fh:
                    files[fname] = fh.read()
            outputs.append((out, files))
        if outputs[0] != outputs[1]:
            raise CheckError(f"seed {seed} gave different bytes on a repeat")


class SequentialPointers(Workload):
    """``sequential_couple`` with K dense dim-4 weak couplings."""

    name = "sequential-pointers"
    tail_percentile = 90
    couplings = 5
    dim = 4
    grid_n = 4096
    delta = 1.0
    round_size = 4

    def __init__(self, wm, seed, workdir):
        self.wm = wm
        rng = np.random.default_rng([seed, 4])
        grid = wm.default_grid(self.delta, 0.1, n=self.grid_n)
        pointer = wm.make_gaussian(grid, self.delta)
        self.items = []
        for _ in range(self.round_size):
            psi, phi = _selection_pair(rng, self.dim)
            # g * max|o| <= 0.09 stays inside the weak-regime guard delta/10.
            couplings = [
                (_random_observable(rng, self.dim), float(rng.uniform(0.04, 0.09)), pointer)
                for _ in range(self.couplings)
            ]
            self.items.append((psi, couplings, phi))
        self.sizes = {
            "couplings_K": self.couplings,
            "system_dim": self.dim,
            "branch_index_space": self.dim**self.couplings,
            "grid_n": self.grid_n,
            "ops_per_round": self.round_size,
        }
        self._want = {}

    def run(self, item):
        psi, couplings, phi = item
        return self.wm.sequential_couple(psi, couplings, phi)

    def check(self, item, out):
        psi, couplings, phi = item
        key = id(item)
        if key not in self._want:
            spec = [(op, g, self.delta) for op, g, _ in couplings]
            self._want[key] = oracle.sequential(psi, spec, phi)
        probability, marginals = self._want[key]
        got_marginals, got_probability = out
        _close("joint probability", got_probability, probability, 1e-8 * probability)
        if len(got_marginals) != len(marginals):
            raise CheckError(f"{len(got_marginals)} marginals for {len(marginals)} couplings")
        for k, (got, want) in enumerate(zip(got_marginals, marginals)):
            grid = got.grid
            for axis, points, weight, scale in (
                ("q", grid.points, grid.spacing, self.delta),
                ("p", grid.momenta_sorted, grid.momentum_spacing, 1.0 / self.delta),
            ):
                rho = got.position_density() if axis == "q" else got.momentum_density()
                mass = float(np.sum(rho) * weight)
                _close(f"marginal {k} {axis} norm", mass, 1.0, 1e-9)
                mean = float(np.sum(points * rho) * weight)
                var = float(np.sum((points - mean) ** 2 * rho) * weight)
                _close(f"marginal {k} mean_{axis}", mean, want[f"mean_{axis}"], 1e-7 * scale)
                _close(f"marginal {k} var_{axis}", var, want[f"var_{axis}"], 1e-7 * scale**2)


WORKLOADS = {
    cls.name: cls for cls in (GridSimulate, Spectral, SampleExport, SequentialPointers)
}

"""Command-line interface.

Commands

- ``weak-value``: weak value and selection diagnostics of a scenario.
- ``simulate``: one full pointer run; exports densities and a summary.
- ``sample``: Monte Carlo trial stream and estimate report.
- ``scan``: sweep g, delta or n_trials and tabulate one summary per value.

Every command is deterministic given its flags. Output files are
self-describing: '#' header lines carry the tool version, the scenario
fingerprint, and all parameters of the run.

Exit codes: 0 success; 2 input error (unknown scenario, malformed flags or
files); 3 physics undefined (orthogonal selection, impossible
post-selection, zero accepted trials); 4 numerical guard (grid too small,
wrap-around risk, convergence failure).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, montecarlo, pointer, textout
from .errors import InputError, NumericalGuardError, PhysicsUndefinedError, SweepSpecError
from .scenarios import Scenario, document_fingerprint, resolve, serialize_scenario, with_overrides

SWEEP_PARAMETERS = ("g", "delta", "n_trials")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PHYSICS = 3
EXIT_GUARD = 4


@dataclass(frozen=True)
class SweepSpec:
    """A parameter sweep: which knob to turn and the values to visit."""

    parameter: str
    values: tuple[float, ...]


def parse_sweep(text: str) -> SweepSpec:
    """Parse ``param=v1,v2,...`` or ``param=lin:start:stop:points`` or
    ``param=log:start:stop:points``."""
    parameter, sep, rest = text.partition("=")
    parameter = parameter.strip()
    rest = rest.strip()
    if not sep or not rest:
        raise SweepSpecError(f"sweep spec needs the form param=values, got {text!r}")
    if parameter not in SWEEP_PARAMETERS:
        raise SweepSpecError(
            f"unknown sweep parameter {parameter!r}; choose one of {', '.join(SWEEP_PARAMETERS)}"
        )
    if rest.startswith(("lin:", "log:")):
        kind, *parts = rest.split(":")
        if len(parts) != 3:
            raise SweepSpecError(f"range sweep needs {kind}:start:stop:points, got {rest!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            points = int(parts[2])
        except ValueError as exc:
            raise SweepSpecError(f"malformed range sweep {rest!r}") from exc
        if points < 2:
            raise SweepSpecError(f"range sweep needs at least 2 points, got {points}")
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise SweepSpecError("range sweep bounds must be finite")
        if kind == "log":
            if start <= 0 or stop <= 0:
                raise SweepSpecError("log sweep bounds must be positive")
            values = np.geomspace(start, stop, points)
        else:
            values = np.linspace(start, stop, points)
    else:
        try:
            values = np.array([float(tok) for tok in rest.split(",") if tok.strip()])
        except ValueError as exc:
            raise SweepSpecError(f"malformed sweep values {rest!r}") from exc
        if values.size < 1:
            raise SweepSpecError("sweep needs at least one value")
    if not np.all(np.isfinite(values)):
        raise SweepSpecError("sweep values must be finite")
    if parameter == "delta" and np.any(values <= 0):
        raise SweepSpecError("delta sweep values must be positive")
    if parameter == "n_trials":
        if np.any(values < 1) or np.any(values != np.round(values)):
            raise SweepSpecError("n_trials sweep values must be positive integers")
    return SweepSpec(parameter=parameter, values=tuple(float(v) for v in values))


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        required=True,
        help="registry name (three-box/C, spin-amp/100, ensemble/8x5) or scenario file path",
    )
    parser.add_argument("--g", type=float, default=None, help="coupling strength override")
    parser.add_argument("--delta", type=float, default=None, help="pointer width override")
    parser.add_argument("--grid-n", type=int, default=None, help="grid size override (power of 2)")
    parser.add_argument(
        "--grid-extent",
        type=float,
        default=None,
        help="grid half-extent override; the grid becomes [-extent, extent]",
    )


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output directory (created if missing)")
    parser.add_argument(
        "--format",
        choices=("tsv", "csv"),
        default="tsv",
        help="delimiter for columnar output files (default tsv)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a build costs more
    than twenty parses."""
    parser = argparse.ArgumentParser(
        prog="weakmeas",
        description="Weak measurement simulator for pre- and post-selected systems",
        epilog=(
            "exit codes: 0 success, 2 input error, 3 physics undefined, 4 numerical guard"
        ),
    )
    parser.add_argument("--version", action="version", version=f"weakmeas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_wv = sub.add_parser("weak-value", help="print the weak value and selection diagnostics")
    _add_scenario_args(p_wv)
    p_wv.add_argument("--out", default=None, help="optional output file")
    p_wv.set_defaults(func=cmd_weak_value)

    p_sim = sub.add_parser("simulate", help="run one pointer simulation and export results")
    _add_scenario_args(p_sim)
    _add_output_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sam = sub.add_parser("sample", help="Monte Carlo trial stream and estimate report")
    _add_scenario_args(p_sam)
    _add_output_args(p_sam)
    p_sam.add_argument("--n", type=int, default=10000, help="number of trials (default 10000)")
    p_sam.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    p_sam.set_defaults(func=cmd_sample)

    p_scan = sub.add_parser("scan", help="sweep one parameter and tabulate summaries")
    _add_scenario_args(p_scan)
    _add_output_args(p_scan)
    p_scan.add_argument(
        "--sweep",
        required=True,
        help="sweep spec: param=v1,v2,... or param=lin:start:stop:points or log:...",
    )
    p_scan.add_argument("--seed", type=int, default=0, help="master RNG seed (n_trials sweeps)")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    return resolve(
        args.scenario,
        g=args.g,
        delta=args.delta,
        grid_n=args.grid_n,
        grid_extent=args.grid_extent,
    )


def _header(
    scenario: Scenario, command: str, extras: dict | None = None, document: str | None = None
) -> dict:
    """Header fields of a command's output files. A caller that writes the
    scenario's serialization too passes it as ``document``, so that the
    scenario is serialized once."""
    if document is None:
        document = serialize_scenario(scenario)
    header = {
        "tool": "weakmeas",
        "version": __version__,
        "command": command,
        "scenario": scenario.name,
        "scenario_sha256": document_fingerprint(document),
        "system_dim": scenario.system_dim,
        "g": scenario.coupling.g,
        "delta": scenario.coupling.delta,
        "grid_n": scenario.grid.n,
        "grid_q_min": scenario.grid.q_min,
        "grid_q_max": scenario.grid.q_max,
    }
    header.update(extras or {})
    return header


def _weak_value_facts(scenario: Scenario) -> dict:
    wv = scenario.weak_value
    eig = scenario.eigen
    low = float(eig.eigenvalues[0])
    high = float(eig.eigenvalues[-1])
    tol = 1e-9 * max(1.0, high - low)
    anomalous = wv.real < low - tol or wv.real > high + tol or abs(wv.imag) > tol
    return {
        "scenario": scenario.name,
        "weak_value_re": wv.real,
        "weak_value_im": wv.imag,
        "overlap_re": scenario.overlap.real,
        "overlap_im": scenario.overlap.imag,
        "overlap_abs": abs(scenario.overlap),
        "eigenvalue_min": low,
        "eigenvalue_max": high,
        "anomalous": anomalous,
    }


def _simulate_summary(scenario: Scenario) -> dict:
    state, probability = scenario.run()
    g = scenario.coupling.g
    reference_shift = g * scenario.weak_value.real
    moments = pointer.moments(state)
    return {
        "weak_value_re": scenario.weak_value.real,
        "weak_value_im": scenario.weak_value.imag,
        "probability": probability,
        "mean_Q": moments.mean_q,
        "var_Q": moments.var_q,
        "mean_P": moments.mean_p,
        "var_P": moments.var_p,
        "reference_shift": reference_shift,
        "gaussian_fidelity": pointer.gaussian_fidelity(
            state, reference_shift, scenario.coupling.delta
        ),
    }


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _delimiter(args: argparse.Namespace) -> str:
    return "\t" if args.format == "tsv" else ","


def cmd_weak_value(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    facts = _weak_value_facts(scenario)
    sys.stdout.write(textout.render_keyvalues(facts))
    if args.out:
        textout.write_keyvalues(args.out, facts, _header(scenario, "weak-value"))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    summary = _simulate_summary(scenario)
    sys.stdout.write(textout.render_keyvalues(summary))
    if args.out:
        outdir = _ensure_outdir(args.out)
        state, _ = scenario.run()
        document = serialize_scenario(scenario)
        header = _header(scenario, "simulate", document=document)
        ext = args.format
        sep = _delimiter(args)
        pointer.write_position_density(
            state, os.path.join(outdir, f"position_density.{ext}"), header, sep
        )
        pointer.write_momentum_density(
            state, os.path.join(outdir, f"momentum_density.{ext}"), header, sep
        )
        pointer.write_wavefunction(
            state, os.path.join(outdir, f"wavefunction.{ext}"), header, sep
        )
        textout.write_keyvalues(os.path.join(outdir, "summary.txt"), summary, header)
        with open(os.path.join(outdir, "scenario.txt"), "w", encoding="utf-8") as fh:
            fh.write(document)
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    if args.out and args.n > montecarlo.MAX_EXPORT_TRIALS:
        raise InputError(
            f"--out exports at most {montecarlo.MAX_EXPORT_TRIALS} trials, got --n {args.n}"
        )
    scenario = _scenario_from_args(args)
    records = montecarlo.run_records(args.seed, args.n, scenario)
    report = montecarlo.estimate_from_records(records, scenario.coupling.g)
    montecarlo.write_report(report, sys.stdout)
    if args.out:
        outdir = _ensure_outdir(args.out)
        header = _header(
            scenario, "sample",
            {"seed": args.seed, "n": args.n, "rng_stream": montecarlo.RNG_STREAM},
        )
        montecarlo.write_runs(
            records, os.path.join(outdir, f"runs.{args.format}"), header, _delimiter(args)
        )
        montecarlo.write_report(report, os.path.join(outdir, "report.txt"), header)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    spec = parse_sweep(args.sweep)
    base = _scenario_from_args(args)
    values = sorted(spec.values)

    if spec.parameter == "n_trials":
        names = ["n_trials", "wv_estimate", "std_error", "acceptance_rate", "n_accepted",
                 "probability"]
        probability = base.run()[1]
        # Trial k does not depend on n, so each prefix of one draw is the
        # run estimate_weak_value would make at that n. A prefix with no
        # accepted trial is a row of nan estimates; only the largest n
        # raises ZeroAcceptedError (exit 3), as sample does.
        records = montecarlo.run_records(args.seed, int(values[-1]), base)
        rows = []
        for value in values:
            head = records.head(int(value))
            if head.accepted.any() or value == values[-1]:
                report = montecarlo.estimate_from_records(head, base.coupling.g)
                estimates = [report.wv_estimate, report.std_error,
                             report.acceptance_rate, report.n_accepted]
            else:
                estimates = [float("nan"), float("nan"), 0.0, 0]
            rows.append([int(value), *estimates, probability])
        extras = {"sweep": args.sweep, "seed": args.seed, "rng_stream": montecarlo.RNG_STREAM}
    else:
        names = [spec.parameter, "mean_Q", "var_Q", "mean_P", "var_P", "probability",
                 "gaussian_fidelity", "shift_over_g"]
        rows = []
        for value in values:
            scenario = with_overrides(base, **{spec.parameter: value})
            summary = _simulate_summary(scenario)
            g = scenario.coupling.g
            shift_over_g = summary["mean_Q"] / g if g != 0.0 else float("nan")
            rows.append([value, *(summary[k] for k in names[1:-1]), shift_over_g])
        extras = {"sweep": args.sweep}

    columns = list(zip(*rows))
    delimiter = _delimiter(args)
    textout.write_table(sys.stdout, names, columns, None, delimiter)
    if args.out:
        outdir = _ensure_outdir(args.out)
        textout.write_table(
            os.path.join(outdir, f"scan.{args.format}"),
            names,
            columns,
            _header(base, "scan", extras),
            delimiter,
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PhysicsUndefinedError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())

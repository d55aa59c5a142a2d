"""Monte Carlo sampling of single-run pointer readouts.

The ensemble protocol mirrors the physical experiment: every trial prepares
the scenario's pre-selected system and Gaussian pointer, applies the impulse
coupling, post-selects, and - on acceptance - reads one pointer position.
Acceptance is a Bernoulli draw at the exact post-selection probability, and
the readout is drawn by inverse-transform sampling from the exact
conditional position distribution, so sampling error is purely statistical.

The random stream is counter-based (Philox4x64-10, Salmon et al., SC'11).
The key comes from the master seed; trial k uses the 4 x 64-bit block that
``numpy.random.Philox(key=key, counter=k).random_raw(4)`` returns. Lane 0
is the acceptance uniform, lane 1 the readout uniform and lane 2 the
trial's stream id. Since consecutive counters are consecutive blocks of one
Philox stream, a range of trials is drawn in one call, and every trial is a
pure function of (seed, k): records are bit-reproducible per trial,
independent of batch size or chunking. Trials are kept as columns
(``TrialColumns``), not as one object per trial.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import textout
from .errors import InputError, ZeroAcceptedError
from .scenarios import Scenario

RNG_STREAM = "philox4x64-10"
# Trials drawn per Philox call; bounds the temporary memory of a draw.
CHUNK_TRIALS = 2**16
# Largest trial count of one draw. The columns take 17 bytes per trial:
# 5 * 10^7 trials ran in 6.4 s at 935 MB peak RSS at acceptance 0.11
# (three-box/C), and in 7.5 s at 1613 MB at acceptance 1, the worst case
# (sample, no --out, 2-core Xeon; budget 10 s / 2 GB). Far beyond it a draw
# ends in an out-of-memory kill instead of an error.
MAX_TRIALS = 50_000_000
# Largest trial count that `sample --out` exports. runs.tsv takes ~36 bytes
# per trial: 10^7 trials ran in 4.0-7.0 s at 279 MB peak RSS and wrote
# 343 MiB (2-core Xeon, five runs), inside a 10 s / 2 GB budget that
# MAX_TRIALS, budgeted without the export, would overrun.
MAX_EXPORT_TRIALS = 10_000_000


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one trial. ``readout_q`` is present iff accepted."""

    trial_index: int
    accepted: bool
    readout_q: float | None
    rng_stream_id: int


@dataclass(frozen=True, eq=False)
class TrialColumns:
    """Trials 0..n-1 of a sampling run, one array per field.

    ``readout_q`` is NaN for rejected trials.
    """

    accepted: np.ndarray
    readout_q: np.ndarray
    rng_stream_id: np.ndarray

    def __len__(self) -> int:
        return self.accepted.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialColumns):
            return NotImplemented
        return (
            np.array_equal(self.accepted, other.accepted)
            and np.array_equal(self.readout_q, other.readout_q, equal_nan=True)
            and np.array_equal(self.rng_stream_id, other.rng_stream_id)
        )

    def head(self, n: int) -> TrialColumns:
        """The first n trials (views, no copy)."""
        return TrialColumns(self.accepted[:n], self.readout_q[:n], self.rng_stream_id[:n])


@dataclass(frozen=True)
class EstimateReport:
    """Aggregate of a sampling run.

    ``wv_estimate`` is mean(accepted readouts) / g, the sampling estimate of
    Re(weak value); ``std_error`` is its standard error, NaN (undefined)
    when fewer than two trials were accepted.
    """

    n_total: int
    n_accepted: int
    acceptance_rate: float
    wv_estimate: float
    std_error: float


@dataclass(frozen=True)
class _TrialContext:
    probability: float
    points: np.ndarray
    cdf: np.ndarray
    key: np.ndarray


def _context(scenario: Scenario, seed: int) -> _TrialContext:
    state, probability = scenario.run()
    grid = scenario.grid
    mass = state.position_density() * grid.spacing
    cdf = np.cumsum(mass)
    cdf /= cdf[-1]
    return _TrialContext(
        probability=probability,
        points=grid.points,
        cdf=cdf,
        key=np.random.SeedSequence(seed).generate_state(2, np.uint64),
    )


def _check_integer(value, label: str, least: int = 0) -> int:
    """``value`` as an int; InputError unless it is a non-bool integer of at
    least ``least``: 0 (nonnegative) or 1 (positive)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        kind = "positive" if least else "nonnegative"
        raise InputError(f"{label} must be a {kind} integer, got {value!r}")
    return int(value)


def _lanes(key: np.ndarray, start: int, stop: int):
    """Acceptance uniforms, readout uniforms and stream ids of trials
    start..stop-1, from one Philox call. Uniforms use the top 53 bits of
    their lane, as numpy's ``random()`` does."""
    blocks = np.random.Philox(key=key, counter=start).random_raw(4 * (stop - start))
    blocks = blocks.reshape(-1, 4)
    unit = (blocks[:, :2] >> np.uint64(11)) * 2.0**-53
    return unit[:, 0], unit[:, 1], blocks[:, 2]


def _draw(ctx: _TrialContext, start: int, stop: int) -> TrialColumns:
    u_accept, u_readout, stream_id = _lanes(ctx.key, start, stop)
    accepted = u_accept < ctx.probability
    readout_q = np.full(stop - start, math.nan)
    readout_q[accepted] = ctx.points[
        np.searchsorted(ctx.cdf, u_readout[accepted], side="right")
    ]
    return TrialColumns(accepted, readout_q, stream_id)


def sample_run(seed: int, trial: int, scenario: Scenario) -> RunRecord:
    """Draw the single trial (seed, trial) of a scenario.

    Bit-for-bit deterministic: the same arguments always produce the same
    record, whether drawn alone or as part of a batch.
    """
    seed = _check_integer(seed, "seed")
    trial = _check_integer(trial, "trial index")
    draw = _draw(_context(scenario, seed), trial, trial + 1)
    accepted = bool(draw.accepted[0])
    return RunRecord(
        trial_index=trial,
        accepted=accepted,
        readout_q=float(draw.readout_q[0]) if accepted else None,
        rng_stream_id=int(draw.rng_stream_id[0]),
    )


def run_records(seed: int, n_trials: int, scenario: Scenario) -> TrialColumns:
    """Draw trials 0..n_trials-1 as columns, CHUNK_TRIALS per Philox call.

    More than MAX_TRIALS trials raise InputError before anything is drawn.
    """
    seed = _check_integer(seed, "seed")
    n = _check_integer(n_trials, "n_trials", 1)
    if n > MAX_TRIALS:
        raise InputError(f"n_trials {n} exceeds the cap {MAX_TRIALS}")
    ctx = _context(scenario, seed)
    columns = TrialColumns(
        accepted=np.empty(n, dtype=bool),
        readout_q=np.empty(n, dtype=float),
        rng_stream_id=np.empty(n, dtype=np.uint64),
    )
    for lo in range(0, n, CHUNK_TRIALS):
        hi = min(lo + CHUNK_TRIALS, n)
        chunk = _draw(ctx, lo, hi)
        columns.accepted[lo:hi] = chunk.accepted
        columns.readout_q[lo:hi] = chunk.readout_q
        columns.rng_stream_id[lo:hi] = chunk.rng_stream_id
    return columns


def estimate_from_records(records: TrialColumns, g: float) -> EstimateReport:
    """Reduce trial columns to an EstimateReport (fixed reduction order)."""
    if not isinstance(records, TrialColumns):
        raise InputError(f"expected TrialColumns, got {type(records).__name__}")
    if g == 0.0:
        raise InputError("the weak-value estimator divides by g; g = 0 is unusable")
    n_total = len(records)
    if n_total == 0:
        raise InputError("no records to aggregate")
    readouts = records.readout_q[records.accepted]
    n_accepted = readouts.size
    if n_accepted == 0:
        raise ZeroAcceptedError(
            f"no trials accepted out of {n_total}; conditional estimates are undefined"
        )
    wv_estimate = float(readouts.mean() / g)
    if n_accepted >= 2:
        std_error = float(readouts.std(ddof=1) / (abs(g) * math.sqrt(n_accepted)))
    else:
        std_error = float("nan")
    return EstimateReport(
        n_total=n_total,
        n_accepted=int(n_accepted),
        acceptance_rate=n_accepted / n_total,
        wv_estimate=wv_estimate,
        std_error=std_error,
    )


def estimate_weak_value(seed: int, n_trials: int, scenario: Scenario) -> EstimateReport:
    """Sample n_trials runs and estimate Re(weak value) from the accepted
    readouts. Raises ZeroAcceptedError when nothing is accepted."""
    return estimate_from_records(run_records(seed, n_trials, scenario), scenario.coupling.g)


def write_runs(records: TrialColumns, target, header: dict | None = None,
               delimiter: str = "\t") -> None:
    """Per-trial delimited export: trial, accepted, readout_q, rng_stream_id."""
    textout.write_table(
        target,
        ["trial", "accepted", "readout_q", "rng_stream_id"],
        [np.arange(len(records)), records.accepted, records.readout_q, records.rng_stream_id],
        header,
        delimiter,
    )


def write_report(report: EstimateReport, target, header: dict | None = None) -> None:
    """Key = value export of an EstimateReport, in field order."""
    textout.write_keyvalues(target, asdict(report), header)

"""Grid simulation of impulsive measurement couplings to a 1-D pointer.

Conventions, with hbar = 1 throughout:

- The pointer position q lives on a uniform periodic grid of n samples
  covering [q_min, q_max); the spacing is dq = (q_max - q_min) / n.
- The conjugate momentum lattice is p_j = 2*pi*j / (n*dq) for integers j
  in the symmetric range -n/2 ... n/2 - 1 (fft-shifted ordering).
- Wavefunctions are normalized on the grid: sum_k |psi(q_k)|^2 dq = 1.
- A width-delta Gaussian, (delta^2 pi)^(-1/4) exp(-(q-c)^2 / (2 delta^2)),
  has Var Q = delta^2 / 2 and Var P = 1 / (2 delta^2).

The measurement interaction is the impulse unitary exp(-i g O x P) for a
system observable O, coupling strength g (the time-integrated coupling
profile), and pointer momentum P. On each eigenvalue branch o of O the
pointer is translated by g*o; the translation is applied exactly as the
phase exp(-i g o p) on the momentum lattice, so eigenstates of O shift the
pointer by exactly g*o at any strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import cos, exp, floor, log, pi, prod, sqrt
from typing import NamedTuple

import numpy as np

from . import linalg, textout
from .errors import (
    DimensionMismatchError,
    GridGuardError,
    InputError,
    NumericalGuardError,
    PostSelectionImpossibleError,
)
from .twostate import NORMALIZATION_TOL as STATE_NORM_TOL

GRID_MIN_N = 2**8
GRID_MAX_N = 2**20
DEFAULT_GRID_N = 2**12

NORM_TOL = 1e-8
LEAKAGE_TOL = 1e-6
PROBABILITY_FLOOR = 1e-300
# Relative round-off allowed in sequential_couple's weak-regime guard.
WEAK_GUARD_RTOL = 1e-12
# 4^11: K = 11 dense dim-4 couplings finish in ~2 s under 0.5 GB (README).
SEQUENTIAL_INDEX_CAP = 2**22
# Caps on _sequential_cost, set from the same 10 s / 2 GB budget (README).
SEQUENTIAL_WORK_CAP = 2**34
SEQUENTIAL_HELD_CAP = 2**26
# Mode products whose trailing block (m * right entries) is at most this wide
# run as one GEMM against matrix (x) identity instead of one tiny matmul per
# block. K = 22 dim-2 couplings at the index cap take ~4 s this way and ~8 s
# with a matmul per block; any width from 16 to 128 does as well as 32.
_GEMM_BLOCK = 32
# Shortest row of _inverse_fft's coset split: a grid of at least four rows
# of m = max(_FFT_ROW, band width rounded up to a power of two) points is
# inverted as n/m rows. Medians of 50-200 alternating calls on a 201-bin
# band (2-core Xeon): from n = 2^16 to 2^20 one transform takes 0.39-0.80
# of the whole-lattice ifft and four batched ones 0.58-0.93. Rows of 2^15
# gained nothing at n = 2^16 (batched), rows of 2^13 were slower from
# n = 2^17 up, and a two-row split (n = 2^15) gained nothing.
_FFT_ROW = 2**14


@dataclass(frozen=True)
class PointerGrid:
    """Uniform periodic position grid for one pointer."""

    n: int
    q_min: float
    q_max: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise InputError("grid size n must be an integer")
        n = int(self.n)
        if n < GRID_MIN_N or n > GRID_MAX_N or (n & (n - 1)) != 0:
            raise InputError(
                f"grid size must be a power of two in [{GRID_MIN_N}, {GRID_MAX_N}], got {n}"
            )
        if not (np.isfinite(self.q_min) and np.isfinite(self.q_max)):
            raise InputError("grid bounds must be finite")
        if not self.q_max > self.q_min:
            raise InputError(f"grid needs q_max > q_min, got [{self.q_min}, {self.q_max}]")

    @property
    def spacing(self) -> float:
        return (self.q_max - self.q_min) / self.n

    @property
    def extent(self) -> float:
        return self.q_max - self.q_min

    @property
    def momentum_spacing(self) -> float:
        return 2.0 * pi / (self.n * self.spacing)

    @cached_property
    def points(self) -> np.ndarray:
        q = self.q_min + self.spacing * np.arange(self.n)
        q.setflags(write=False)
        return q

    @cached_property
    def momenta(self) -> np.ndarray:
        """Momentum lattice in FFT storage order."""
        p = 2.0 * pi * np.fft.fftfreq(self.n, d=self.spacing)
        p.setflags(write=False)
        return p

    @cached_property
    def momenta_sorted(self) -> np.ndarray:
        """Momentum lattice in ascending order (fft-shifted)."""
        p = self._momenta_on(slice(0, self.n))
        p.setflags(write=False)
        return p

    def _momenta_on(self, band: slice) -> np.ndarray:
        """momenta_sorted[band], built on those bins only.

        Bin i holds p_j = 2 pi j / (n dq) with j = i - n/2, computed as
        np.fft.fftfreq does, so the values are bit-identical.
        """
        half = self.n // 2
        j = np.arange(band.start - half, band.stop - half)
        return 2.0 * pi * (j * (1.0 / (self.n * self.spacing)))


@dataclass(frozen=True)
class CouplingConfig:
    """Impulse coupling strength g and initial Gaussian pointer width delta."""

    g: float
    delta: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.g):
            raise InputError("coupling strength g must be finite")
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise InputError(f"pointer width delta must be positive, got {self.delta}")


def default_grid(
    delta: float,
    max_abs_shift: float = 0.0,
    n: int = DEFAULT_GRID_N,
    extra_margin: float = 0.0,
) -> PointerGrid:
    """Grid sized for a width-delta packet translated by at most max_abs_shift.

    Half-extent 8*delta + 2*max_abs_shift (+ extra_margin) keeps boundary
    amplitudes far below the leakage threshold and translations far from
    the wrap-around guard.
    """
    half = 8.0 * float(delta) + 2.0 * abs(float(max_abs_shift)) + abs(float(extra_margin))
    return PointerGrid(n=n, q_min=-half, q_max=half)


class PointerState:
    """A pure pointer wavefunction on a PointerGrid, held as its spectrum.

    Built from samples, construction asserts they are normalized within
    NORM_TOL (silent renormalization would hide unitarity bugs),
    renormalizes exactly, rejects states with boundary amplitude above
    LEAKAGE_TOL in the outermost 1% of the grid, where periodic wrap-around
    would corrupt translations, and takes the spectrum with one FFT.

    make_gaussian and post_select hold a band-limited spectrum instead, and
    such a state takes its samples with one inverse FFT on first use.
    """

    __slots__ = ("grid", "_samples", "_spectrum")

    def __init__(self, grid: PointerGrid, samples):
        arr = np.asarray(samples, dtype=complex)
        if arr.shape != (grid.n,):
            raise DimensionMismatchError(
                f"samples shape {arr.shape} does not match grid size {grid.n}"
            )
        if not np.all(np.isfinite(arr)):
            raise InputError("pointer samples contain NaN or Inf")
        total = float(np.sum(np.abs(arr) ** 2) * grid.spacing)
        if abs(total - 1.0) > NORM_TOL:
            raise InputError(
                f"pointer state is not normalized: |sum - 1| = {abs(total - 1.0):.3e}"
            )
        arr = arr / sqrt(total)
        edge = max(1, grid.n // 200)
        boundary = max(
            float(np.max(np.abs(arr[:edge]))), float(np.max(np.abs(arr[-edge:])))
        )
        if boundary > LEAKAGE_TOL:
            raise GridGuardError(
                f"boundary amplitude {boundary:.3e} exceeds {LEAKAGE_TOL:.1e}; "
                "increase the grid extent"
            )
        self._store(grid, slice(0, grid.n), np.fft.fftshift(np.fft.fft(arr)), arr)

    @classmethod
    def _held(
        cls, grid: PointerGrid, band: slice, spectrum: np.ndarray, samples=None
    ) -> PointerState:
        """A normalized state from fresh arrays the caller hands over: its
        spectrum (values on grid.momenta_sorted[band], zero elsewhere) and,
        when already computed, its samples. Nothing is checked or copied.
        """
        state = object.__new__(cls)
        state._store(grid, band, spectrum, samples)
        return state

    def _store(self, grid: PointerGrid, band: slice, spectrum: np.ndarray, samples) -> None:
        for arr in (spectrum, samples):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_samples", samples)
        object.__setattr__(self, "_spectrum", (band, spectrum))

    def __setattr__(self, name, value):
        raise AttributeError("PointerState is immutable")

    @property
    def samples(self) -> np.ndarray:
        """psi(q) on grid.points."""
        if self._samples is None:
            samples = _inverse_fft(self.grid, *self._spectrum)
            samples.setflags(write=False)
            object.__setattr__(self, "_samples", samples)
        return self._samples

    @property
    def spectrum(self) -> tuple[slice, np.ndarray]:
        """(band, values): the DFT of the samples, np.fft.fft order aside.

        ``values`` are its entries on the ascending momentum bins
        grid.momenta_sorted[band]; every other entry is zero.
        """
        return self._spectrum

    def position_density(self) -> np.ndarray:
        """|psi(q)|^2 on grid.points; integrates to 1 with weight dq."""
        rho = np.abs(self.samples)
        rho *= rho
        return rho

    def momentum_wavefunction(self) -> np.ndarray:
        """Momentum amplitudes on grid.momenta_sorted.

        Discretization of phi(p) = (2 pi)^(-1/2) integral psi(q) e^(-ipq) dq,
        so sum |phi|^2 dp equals sum |psi|^2 dq (Parseval).
        """
        grid = self.grid
        band, values = self.spectrum
        phi = np.zeros(grid.n, dtype=complex)
        phi[band] = values * (grid.spacing / sqrt(2.0 * pi))
        phi[band] *= np.exp(-1j * grid._momenta_on(band) * grid.q_min)
        return phi

    def momentum_density(self) -> np.ndarray:
        """|phi(p)|^2 on grid.momenta_sorted; integrates to 1 with weight dp.

        The factor exp(-i p q_min) of momentum_wavefunction has unit
        modulus, so the density is |spectrum|^2 dq^2 / (2 pi).
        """
        band, values = self.spectrum
        rho = np.zeros(self.grid.n)
        rho[band] = _spectral_density(self.grid, values)
        return rho


def _spectral_density(grid: PointerGrid, values: np.ndarray) -> np.ndarray:
    """|phi(p)|^2 from DFT values: |values|^2 dq^2 / (2 pi)."""
    rho = np.abs(values) ** 2
    rho *= grid.spacing**2 / (2.0 * pi)
    return rho


def _inverse_fft(grid: PointerGrid, band: slice, values: np.ndarray) -> np.ndarray:
    """Samples whose DFT is ``values`` on grid.momenta_sorted[band] (last
    axis) and zero elsewhere.

    Rows are m = max(_FFT_ROW, 2^ceil(log2 width)) points long. A grid of
    fewer than four rows takes the band zero-filled to the whole lattice in
    np.fft storage order and inverted. A larger grid is inverted as its
    s = n/m interleaved cosets: sample t + s u is ifft_m(Y_t)[u] / s, where
    row Y_t holds values[j] e^(2 pi i j t/n) at bin j mod m (the band fits
    in m bins, so none collide). One batched ifft of the (s, m) rows and one
    transpose replace a full-lattice ifft that no longer fits in cache.
    """
    n, half = grid.n, grid.n // 2
    width = band.stop - band.start
    if n < 4 * _FFT_ROW or n < 4 * width:  # fewer than four rows
        full = np.zeros(values.shape[:-1] + (n,), dtype=complex)
        # The band's storage bins j mod n: one run from ``start``, wrapping
        # past n at most once (at p = 0 when the band contains it).
        start = (band.start - half) % n
        split = min(width, n - start)
        full[..., start : start + split] = values[..., :split]
        full[..., : width - split] = values[..., split:]
        return np.fft.ifft(full)
    m = max(_FFT_ROW, 1 << (width - 1).bit_length())
    s, lead = n // m, values.shape[:-1]
    twiddle = _coset_twiddle(n, s, band.start - half, width)
    rows = np.zeros(lead + (s, m), dtype=complex)
    # The band's bins j mod m: one run from ``start``, wrapping past m once.
    start = (band.start - half) % m
    split = min(width, m - start)
    for dst, src in ((slice(start, start + split), slice(0, split)),
                     (slice(0, width - split), slice(split, width))):
        np.multiply(values[..., None, src], twiddle[:, src], out=rows[..., dst])
    del twiddle
    cosets = np.fft.ifft(rows)
    del rows
    return cosets.swapaxes(-1, -2).reshape(lead + (n,))


def _coset_twiddle(n: int, s: int, j0: int, width: int) -> np.ndarray:
    """e^(2 pi i j t/n) / s for rows t < s and columns j = j0 .. j0 + width - 1.

    With j = j0 + c*step + f (0 <= f < step ~ sqrt(width)) each entry is the
    product of a coarse root e^(2 pi i (j0 + c*step) t/n) and a fine one
    e^(2 pi i f t/n), so about 2 s sqrt(width) roots build the s x width
    table. 1/s is a power of two and scales it exactly.
    """
    step = 1 << ((width - 1).bit_length() + 1) // 2
    t = np.arange(s)[:, None, None]
    coarse = _roots_of_unity(n, t * (j0 + step * np.arange(-(-width // step)))[:, None])
    coarse *= 1.0 / s
    fine = _roots_of_unity(n, t * np.arange(step))
    return (coarse * fine).reshape(s, -1)[:, :width]


def _roots_of_unity(n: int, k: np.ndarray) -> np.ndarray:
    """e^(2 pi i k/n) for integers k and n a power of two >= 8.

    Each is i^q (cos a +- i sin a) with a = 2 pi r/n in [0, pi/4], read off
    the octant of k mod n: a few times more accurate than exp of the full
    phase, whose rounding grows with the angle.
    """
    octant, r = np.divmod(k % n, n // 8)
    odd = (octant & 1) == 1
    angle = (2.0 * pi / n) * np.where(odd, n // 8 - r, r)
    cos, sin = np.cos(angle), np.sin(angle)
    sin[odd] *= -1.0
    quarter = (octant + 1) // 2 % 4  # nearest multiple of pi/2, in quarter turns
    return (np.choose(quarter, (cos, -sin, -cos, sin))
            + 1j * np.choose(quarter, (sin, cos, -sin, -cos)))


class MixedPointerState:
    """Reduced pointer readout state: position and momentum densities.

    Pointers entangled with other pointers have no marginal wavefunction;
    this carries exactly what remains observable on one of them. Densities
    are stored normalized (unit integral with their lattice weight).
    """

    __slots__ = ("grid", "_rho_q", "_rho_p")

    def __init__(self, grid: PointerGrid, position_density, momentum_density):
        rho_q = np.asarray(position_density, dtype=float)
        rho_p = np.asarray(momentum_density, dtype=float)
        if rho_q.shape != (grid.n,) or rho_p.shape != (grid.n,):
            raise DimensionMismatchError("density shape does not match grid size")
        if not (np.all(np.isfinite(rho_q)) and np.all(np.isfinite(rho_p))):
            raise InputError("densities contain NaN or Inf")
        if rho_q.min() < -1e-12 or rho_p.min() < -1e-12:
            raise InputError("densities must be nonnegative")
        rho_q = np.clip(rho_q, 0.0, None)
        rho_p = np.clip(rho_p, 0.0, None)
        tq = float(rho_q.sum() * grid.spacing)
        tp = float(rho_p.sum() * grid.momentum_spacing)
        if abs(tq - 1.0) > NORM_TOL or abs(tp - 1.0) > NORM_TOL:
            raise InputError(
                f"marginal densities not normalized: position defect {abs(tq - 1.0):.3e}, "
                f"momentum defect {abs(tp - 1.0):.3e}"
            )
        rho_q = rho_q / tq
        rho_p = rho_p / tp
        rho_q.setflags(write=False)
        rho_p.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_rho_q", rho_q)
        object.__setattr__(self, "_rho_p", rho_p)

    def __setattr__(self, name, value):
        raise AttributeError("MixedPointerState is immutable")

    def position_density(self) -> np.ndarray:
        return self._rho_q

    def momentum_density(self) -> np.ndarray:
        return self._rho_p


def make_gaussian(grid: PointerGrid, delta: float, center: float = 0.0) -> PointerState:
    """Width-delta Gaussian pointer state centered at ``center``.

    Its samples are those of (delta^2 pi)^(-1/4) exp(-(q - center)^2 /
    (2 delta^2)) on grid.points, normalized. The state holds their spectrum
    in closed form (_gaussian_spectrum) and takes the samples with one
    inverse FFT on first use.

    Requires at least 8*delta of grid on each side of the center so that
    boundary amplitudes are negligible, and pi delta/dq >= 4.3719 so that
    the samples are normalized within NORM_TOL; otherwise raises
    GridGuardError (see _gaussian_norm).
    """
    return PointerState._held(grid, *_gaussian_spectrum(grid, delta, center))


# exp(-x^2) underflows to zero in double precision beyond x = sqrt(745) ~ 27.3
_UNDERFLOW_X = 27.3
# |p| delta beyond which a Gaussian's spectrum exp(-(p delta)^2 / 2) is zero
_BAND_P_DELTA = sqrt(2.0) * _UNDERFLOW_X
# Smallest pi delta/dq whose norm defect bound 2 exp(-(pi delta/dq)^2) is
# within NORM_TOL: 4.3719.
_MIN_PI_DELTA_DQ = sqrt(log(2.0 / NORM_TOL))


def _gaussian_norm(grid: PointerGrid, delta: float, center: float) -> float:
    """make_gaussian's guards, in closed form; returns the squared norm
    sum_k |psi(q_k)|^2 dq of its samples before they are normalized.

    InputError for a bad delta or center; GridGuardError for less than
    8*delta of room, pi delta/dq below _MIN_PI_DELTA_DQ (undersampling) or
    a normalized amplitude above LEAKAGE_TOL in the outer 1% of the grid, as
    PointerState checks for samples it is given.

    By Poisson summation the squared norm is 1 + 2 sum_(m >= 1)
    exp(-(pi m delta/dq)^2) cos(2 pi m (q_min - center)/dq). The
    undersampling bound keeps its defect within NORM_TOL at any grid
    offset, and trips exactly where the samples' own check does when
    (q_min - center)/dq is an integer (a symmetric grid and a lattice-point
    centre). Above it the terms m >= 2 are below 1e-33 and only m = 1 is
    kept.
    """
    if not (np.isfinite(delta) and delta > 0.0):
        raise InputError(f"delta must be positive, got {delta}")
    if not np.isfinite(center):
        raise InputError("center must be finite")
    if center - grid.q_min < 8.0 * delta or grid.q_max - center < 8.0 * delta:
        raise GridGuardError(
            f"grid [{grid.q_min}, {grid.q_max}] leaves less than 8*delta of room "
            f"around center {center} (delta = {delta})"
        )
    dq = grid.spacing
    ratio = pi * delta / dq
    if ratio < _MIN_PI_DELTA_DQ:
        raise GridGuardError(
            f"grid spacing {dq:.6g} undersamples the width-{delta} Gaussian "
            f"(pi*delta/dq = {ratio:.4g} < {_MIN_PI_DELTA_DQ:.4f}, so its sampled norm "
            f"can miss 1 by {2.0 * exp(-(ratio**2)):.3e}); raise the grid size (--grid-n)"
        )
    offset = (grid.q_min - center) / dq
    norm_sq = 1.0 + 2.0 * exp(-(ratio**2)) * cos(2.0 * pi * (offset - round(offset)))
    # Largest normalized sample in the outer bands: the one nearest the center.
    edge = max(1, grid.n // 200)
    nearest = round((center - grid.q_min) / dq)
    peak = (delta**2 * pi) ** (-0.25) / sqrt(norm_sq)
    boundary = max(
        peak * exp(-((grid.q_min + dq * k - center) ** 2) / (2.0 * delta**2))
        for k in (min(max(nearest, 0), edge - 1), max(min(nearest, grid.n - 1), grid.n - edge))
    )
    if boundary > LEAKAGE_TOL:
        raise GridGuardError(
            f"boundary amplitude {boundary:.3e} exceeds {LEAKAGE_TOL:.1e}; "
            "increase the grid extent"
        )
    return norm_sq


def _gaussian_spectrum(
    grid: PointerGrid, delta: float, center: float = 0.0
) -> tuple[slice, np.ndarray]:
    """make_gaussian(grid, delta, center)'s spectrum, in closed form.

    Applies make_gaussian's guards (_gaussian_norm) and returns (band,
    values) as PointerState.spectrum does: the DFT of the normalized samples
    on the bins of grid.momenta_sorted where it is nonzero in double
    precision, |p| delta <= 38.6. By Poisson summation the DFT is
    (sqrt(2 pi)/dq) (delta^2/pi)^(1/4) sum_m exp(-P_m^2 delta^2 / 2)
    exp(i P_m (q_min - center)) with P_m = p + 2 pi m/dq. Alias m is at
    least (2|m| - 1) pi delta/dq from p = 0 on every bin, so under the
    undersampling guard the aliases m = +-2 stay below 5e-38 of the peak
    and the sum runs over m = -1, 0, 1.
    """
    norm_sq = _gaussian_norm(grid, delta, center)
    n, half, dq = grid.n, grid.n // 2, grid.spacing
    reach = floor(_BAND_P_DELTA / (delta * grid.momentum_spacing))
    lo, hi = max(0, half - reach), min(n, half + reach + 1)
    band = slice(lo, hi)
    # The phases P_m (q_min - center) in cycles, (j + m n) w with j the signed
    # bin index, reduced mod 1 with n w (exact, n a power of two) apart so
    # that a symmetric grid's (-1)^j comes out exact.
    w = (grid.q_min - center) / grid.extent
    cycles = (np.arange(lo, hi) - half) * w
    cycles -= np.round(cycles)
    alias_cycles = n * w - round(n * w)
    momenta = grid._momenta_on(band)
    values = np.zeros(hi - lo, dtype=complex)
    for m in (-1, 0, 1):
        x = (momenta + m * (2.0 * pi / dq)) * delta
        values += np.exp(-0.5 * x**2 + 2j * pi * (cycles + m * alias_cycles))
    values *= sqrt(2.0 * pi) / dq * (delta**2 / pi) ** 0.25 / sqrt(norm_sq)
    return band, values


class Moments(NamedTuple):
    """Mean and variance of a pointer's position and momentum densities."""

    mean_q: float
    var_q: float
    mean_p: float
    var_p: float


def _density_moments(x: np.ndarray, rho: np.ndarray, weight: float) -> tuple[float, float, float]:
    """Total mass, mean and variance about the mean of a lattice density."""
    total = float(rho.sum() * weight)
    if total <= 0.0:
        raise InputError("density has zero total mass")
    # One scratch array holds x*rho, then (x - mu)^2 rho.
    scratch = np.multiply(x, rho)
    mu = float(np.sum(scratch) * weight / total)
    np.subtract(x, mu, out=scratch)
    scratch *= scratch
    scratch *= rho
    return total, mu, float(np.sum(scratch) * weight / total)


def _position_moments(state) -> tuple[float, float, float]:
    grid = state.grid
    return _density_moments(grid.points, state.position_density(), grid.spacing)


def moments(state) -> Moments:
    """Position and momentum moments of a PointerState or MixedPointerState.

    One pass over the position density and one over the momentum density:
    for a PointerState, over its spectrum's band only. Raises
    NumericalGuardError when the two densities' totals differ by more than
    NORM_TOL (Parseval).
    """
    grid = state.grid
    total_q, mu_q, var_q_ = _position_moments(state)
    if isinstance(state, PointerState):
        band, values = state.spectrum
        momenta, rho_p = grid._momenta_on(band), _spectral_density(grid, values)
    else:
        momenta, rho_p = grid.momenta_sorted, state.momentum_density()
    total_p = float(rho_p.sum() * grid.momentum_spacing)
    if abs(total_p - total_q) > NORM_TOL * max(1.0, total_q):
        raise NumericalGuardError(
            f"Parseval defect {abs(total_p - total_q):.3e} exceeds {NORM_TOL:.1e}"
        )
    _, mu_p, var_p_ = _density_moments(momenta, rho_p, grid.momentum_spacing)
    return Moments(mu_q, var_q_, mu_p, var_p_)


def mean_q(state) -> float:
    """Mean pointer position, by grid quadrature of the position density."""
    return _position_moments(state)[1]


def var_q(state) -> float:
    """Position variance about the mean."""
    return _position_moments(state)[2]


def mean_p(state) -> float:
    """Mean pointer momentum, from the momentum-lattice density."""
    return moments(state).mean_p


def var_p(state) -> float:
    """Momentum variance about the mean."""
    return moments(state).var_p


def gaussian_fidelity(state: PointerState, reference_shift: float, delta: float) -> float:
    """Squared overlap with a fresh width-delta Gaussian at reference_shift.

    Read near 1 it certifies that a post-selected pointer is an undistorted
    Gaussian translated to the reference position; interference between the
    eigenvalue branches is what builds that single shifted packet. The
    reference is make_gaussian(state.grid, delta, reference_shift), with its
    guards, taken as its closed-form spectrum; the overlap is summed over
    the bins where both spectra are nonzero (Parseval).
    """
    grid = state.grid
    band, values = state.spectrum
    ref_band, reference = _gaussian_spectrum(grid, delta, reference_shift)
    # Both bands are centred on p = 0; sum over their intersection.
    lo, hi = max(band.start, ref_band.start), min(band.stop, ref_band.stop)
    overlap = complex(np.vdot(
        reference[lo - ref_band.start : hi - ref_band.start],
        values[lo - band.start : hi - band.start],
    )) * grid.spacing / grid.n
    return float(min(abs(overlap) ** 2, 1.0))


@dataclass(frozen=True)
class Branch:
    """One eigenvalue branch of a coupled system-pointer state.

    ``system_vec`` is the (unnormalized) projection of the system state
    onto the eigenspace; its squared norm is the branch weight. For a
    nondegenerate eigenvalue it equals <o|psi> times the eigenvector.
    """

    eigenvalue: float
    system_vec: np.ndarray
    pointer: PointerState

    @property
    def weight(self) -> float:
        return float(np.sum(np.abs(self.system_vec) ** 2))


@dataclass(frozen=True)
class JointState:
    """System-pointer state after one impulse coupling.

    Stored as the initial pointer's spectrum (``spectrum``, its values on
    the bins grid.momenta_sorted[band], as PointerState.spectrum) and, per
    distinct eigenvalue cluster, the pair (eigenvalue, projection of the
    system state onto the eigenspace). Clusters with different eigenvalues
    are orthogonal in the system factor.
    """

    grid: PointerGrid
    basis: linalg.EigenDecomposition
    g: float
    band: slice
    spectrum: np.ndarray
    clusters: tuple[tuple[float, np.ndarray], ...]

    @property
    def system_dim(self) -> int:
        return self.basis.dim

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        """One Branch per cluster, its pointer translated by g*eigenvalue.

        Built on first access with one batched inverse FFT; post_select
        works from the spectrum and never needs them.
        """
        grid, band = self.grid, self.band
        values = [value for value, _ in self.clusters]
        spectra = _translated_spectra(grid, band, self.spectrum, self.g, values)
        packets = _inverse_fft(grid, band, spectra)
        return tuple(
            Branch(value, system_vec, PointerState._held(grid, band, spectrum, samples))
            for (value, system_vec), spectrum, samples in zip(self.clusters, spectra, packets)
        )

    def norm(self) -> float:
        grid = self.grid
        total = 0.0
        for branch in self.branches:
            branch_sq = float(np.sum(np.abs(branch.pointer.samples) ** 2) * grid.spacing)
            total += branch.weight * branch_sq
        return sqrt(total)

    def position_density(self) -> np.ndarray:
        """Pointer position density with the system traced out (no selection)."""
        rho = np.zeros(self.grid.n)
        for branch in self.branches:
            rho += branch.weight * branch.pointer.position_density()
        return rho


def _translation_kernel(
    grid: PointerGrid, g: float, values, amplitudes, band: slice
) -> np.ndarray:
    """sum_k amplitudes[k] * exp(-i g values[k] p) on grid.momenta_sorted[band].

    Multiplying a spectrum by it and inverting the FFT superposes the
    packets translated by g*values[k]. Each term is a cos(|s| p) -
    i a sign(s) sin(|s| p) with s = g*values[k], so shifts +s and -s share
    one real cos and one real sin, which together cost less than a complex
    exp. A band around p = 0 holds p_j and -p_j alike, so both are
    evaluated once per |p_j| and mirrored (cos even, sin odd).
    """
    # |s| -> [cos coefficient, sin coefficient]
    coefs: dict[float, list[complex]] = {}
    for value, amplitude in zip(values, amplitudes):
        if amplitude != 0.0:
            shift = g * float(value)
            pair = coefs.setdefault(abs(shift), [0j, 0j])
            pair[0] += amplitude
            pair[1] += -1j * amplitude if shift > 0.0 else 1j * amplitude
    # Sorted bin half + j holds p_j = j dp; the band spans j = -below .. above - 1.
    half = grid.n // 2
    below, above = half - band.start, band.stop - half
    size = max(above, below + 1)
    momenta = grid._momenta_on(slice(half, half + size))  # p_j, j = 0 .. size - 1
    even = np.zeros(size, dtype=complex)
    odd = np.zeros(size, dtype=complex)
    for shift, (cos_coef, sin_coef) in coefs.items():
        if shift == 0.0:
            even += cos_coef
            continue
        angle = momenta * shift
        even += cos_coef * np.cos(angle)
        odd += sin_coef * np.sin(angle)
    kernel = np.empty(below + above, dtype=complex)
    np.add(even[:above], odd[:above], out=kernel[below:])
    np.subtract(even[below:0:-1], odd[below:0:-1], out=kernel[:below])
    return kernel


def _require_system_state(psi, dim: int | None = None) -> np.ndarray:
    psi = linalg.as_vector(psi)
    if dim is not None and psi.size != dim:
        raise DimensionMismatchError(f"state dimension {psi.size}, expected {dim}")
    if abs(np.linalg.norm(psi) - 1.0) > STATE_NORM_TOL:
        raise InputError("system state is not normalized")
    return psi


def couple(psi, pointer: PointerState, operator, g: float) -> JointState:
    """Apply the impulse unitary exp(-i g O x P) to psi (x) pointer.

    Parameters
    ----------
    psi : array_like
        Normalized system state.
    pointer : PointerState
        Initial pointer wavefunction.
    operator : array_like
        Hermitian system observable O.
    g : float
        Time-integrated coupling strength.

    Returns
    -------
    JointState
        The pointer spectrum and, per distinct eigenvalue cluster o of O,
        the eigenspace projection of psi; its ``branches`` carry the
        pointer translated by g*o.

    Raises
    ------
    GridGuardError
        If any translation g*o exceeds a quarter of the grid extent, where
        the periodic wrap-around would fold the packet back into range.
    NumericalGuardError
        If the joint norm departs from 1 by more than NORM_TOL.
    """
    eig = linalg.eig_hermitian(operator)
    psi = _require_system_state(psi, eig.dim)
    if not np.isfinite(g):
        raise InputError("coupling strength g must be finite")
    return _couple(psi, pointer, eig, g)


def _couple(
    psi: np.ndarray, pointer: PointerState, eig: linalg.EigenDecomposition, g: float
) -> JointState:
    """couple() on a validated state, decomposition and coupling strength."""
    grid = pointer.grid
    max_shift = abs(g) * float(np.max(np.abs(eig.eigenvalues)))
    if max_shift > 0.25 * grid.extent:
        raise GridGuardError(
            f"translation {max_shift:.6g} exceeds a quarter of the grid extent "
            f"{grid.extent:.6g}; enlarge the grid or reduce g"
        )

    band, spectrum = pointer.spectrum
    clusters = []
    for value, idx in eig.clusters():
        vecs = eig.eigenvectors[:, idx]
        clusters.append((value, vecs @ (vecs.conj().T @ psi)))
    # Every translation phase has unit modulus, so the joint norm squared is
    # the completeness sum of the cluster weights times the pointer's norm
    # squared, read from its spectrum (Parseval).
    completeness = sum(float(np.vdot(vec, vec).real) for _, vec in clusters)
    pointer_sq = float(np.vdot(spectrum, spectrum).real) * grid.spacing / grid.n
    defect = abs(sqrt(completeness * pointer_sq) - 1.0)
    if defect > NORM_TOL:
        raise NumericalGuardError(f"coupling broke unitarity: norm defect {defect:.3e}")
    return JointState(
        grid=grid, basis=eig, g=float(g), band=band, spectrum=spectrum,
        clusters=tuple(clusters),
    )


def post_select(joint: JointState, phi) -> tuple[PointerState, float]:
    """Project the system factor onto phi and renormalize the pointer.

    The conditional pointer is sum_k <phi|P_k|psi> times the pointer
    translated by g*o_k. Its spectrum is the initial spectrum times the
    summed translation phases, formed on the initial spectrum's band only;
    the state holds it and takes its samples with one inverse FFT when they
    are read.

    Returns the conditional pointer state and the post-selection
    probability (the squared norm of the unnormalized conditional
    wavefunction, read from the spectrum by Parseval). Raises
    PostSelectionImpossibleError when the probability underflows below
    PROBABILITY_FLOOR.
    """
    phi = _require_system_state(phi, joint.system_dim)
    grid, band = joint.grid, joint.band
    values = [value for value, _ in joint.clusters]
    amplitudes = [complex(np.vdot(phi, vec)) for _, vec in joint.clusters]
    spectrum = _translation_kernel(grid, joint.g, values, amplitudes, band)
    spectrum *= joint.spectrum
    probability = _checked_probability(
        float(np.vdot(spectrum, spectrum).real) * grid.spacing / grid.n
    )
    spectrum /= sqrt(probability)
    return PointerState._held(grid, band, spectrum), probability


def _checked_probability(probability: float) -> float:
    """A post-selection probability clamped to at most 1.

    PostSelectionImpossibleError when it underflows below PROBABILITY_FLOOR;
    NumericalGuardError when it exceeds 1 by more than NORM_TOL.
    """
    if probability < PROBABILITY_FLOOR:
        raise PostSelectionImpossibleError(
            f"post-selection probability {probability:.3e} underflows; "
            "the selected state is (numerically) never found"
        )
    if probability > 1.0 + NORM_TOL:
        raise NumericalGuardError(f"post-selection probability {probability} exceeds 1")
    return min(probability, 1.0)


def _translated_spectra(
    grid: PointerGrid, band: slice, spectrum: np.ndarray, g: float, values
) -> np.ndarray:
    """The spectrum (values on grid.momenta_sorted[band]) of a packet
    translated by g*value, one row per value."""
    return np.stack([spectrum * _translation_kernel(grid, g, [value], [1.0], band)
                     for value in values])


def _mode_product(tensor: np.ndarray, axis: int, matrix: np.ndarray) -> np.ndarray:
    """out[..j..] = sum_i matrix[j, i] * tensor[..i..] on ``axis`` (a new array)."""
    m, right = tensor.shape[axis], prod(tensor.shape[axis + 1 :])
    if right == 1 or m * right <= _GEMM_BLOCK:
        out = tensor.reshape(-1, m * right) @ np.kron(matrix, np.eye(right)).T
    else:
        out = np.matmul(matrix, tensor.reshape(-1, m, right))
    return out.reshape(tensor.shape)


def _open_mode_gram(tensor: np.ndarray, other: np.ndarray, axis: int) -> np.ndarray:
    """W[i, j] = sum over every index but ``axis`` of tensor[..i..] * other[..j..]."""
    m, right = tensor.shape[axis], prod(tensor.shape[axis + 1 :])
    if right == 1 or m * right <= _GEMM_BLOCK:
        block = m * right
        gram = tensor.reshape(-1, block).T @ other.reshape(-1, block)
        return np.trace(gram.reshape(m, right, m, right), axis1=1, axis2=3)
    tensor3 = tensor.reshape(-1, m, right)
    other3 = other.reshape(-1, m, right).transpose(0, 2, 1)
    # One (m, m) product per leading index; chunked so the stack of products
    # never outgrows the tensor itself.
    step = max(1, tensor.size // (m * m))
    weights = np.zeros((m, m), dtype=complex)
    for start in range(0, tensor3.shape[0], step):
        stop = start + step
        weights += np.matmul(tensor3[start:stop], other3[start:stop]).sum(axis=0)
    return weights


def _mixed_density(weights: np.ndarray, packets: np.ndarray) -> np.ndarray:
    """sum_(i,j) W[i, j] f_i conj(f_j) for the rows f of ``packets`` (real)."""
    mixed = weights.T @ packets
    mixed *= packets.conj()
    return mixed.real.sum(axis=0)


def _marginal_weights(amplitudes: np.ndarray, overlaps: list[np.ndarray]) -> list[np.ndarray]:
    """Reduced branch weights W_k[i_k, j_k] of every mode k.

    W_k = sum over all other indices of A[i] conj(A[j]) prod_(l != k)
    S_l[j_l, i_l]: A with every overlap but S_k applied, one mode at a time,
    then contracted with conj(A) on all axes but k. Modes are applied by
    halving: the left half's products serve every right-half marginal and
    the reverse, so K marginals take about K log2 K mode products, not K^2.
    """
    if amplitudes.ndim == 1:
        return [np.outer(amplitudes, amplitudes.conj())]
    return _weights_of_modes(amplitudes, amplitudes, overlaps, 0, amplitudes.ndim)


def _weights_of_modes(
    tensor: np.ndarray, amplitudes: np.ndarray, overlaps: list[np.ndarray], lo: int, hi: int
) -> list[np.ndarray]:
    """W_lo .. W_(hi-1), from A with every overlap applied but those of lo..hi-1."""
    if hi - lo == 1:
        # W = conj(sum conj(tensor) A). ``tensor`` is a fresh product that
        # nothing reads after this, so it is conjugated in place rather than
        # keeping a conjugate copy of A alive.
        np.conjugate(tensor, out=tensor)
        return [_open_mode_gram(tensor, amplitudes, lo).conj()]
    mid = (lo + hi) // 2
    weights = []
    for keep, apply in (((lo, mid), range(mid, hi)), ((mid, hi), range(lo, mid))):
        part = tensor
        for axis in apply:
            part = _mode_product(part, axis, overlaps[axis])
        weights += _weights_of_modes(part, amplitudes, overlaps, *keep)
    return weights


def _sequential_cost(dim: int, counts: list[int], sizes: list[int]) -> tuple[int, int]:
    """Estimated (complex multiply-adds, complex numbers held at the peak).

    Amplitudes: each projecting stage costs 2 dim^2 per incoming system
    vector and holds its outgoing vectors twice (the per-cluster pieces and
    their stack); the overlap with phi costs dim per entry. Contraction:
    about log2(K) + 1 passes of N * sum(m_k), holding log2(K) + 2 tensors of
    N entries. Pointers: m_k^2 * n_k for the overlap matrix and for each of
    the two densities, plus 32 log2(n_k) per spectrum entry for the FFTs and
    elementwise passes (as timed against the GEMMs); every spectrum stays
    alive, and one coupling at a time adds three more arrays of its size.
    """
    total = prod(counts)
    depth = (len(counts) - 1).bit_length()  # ceil(log2 K)
    rows = 1
    work = 0
    for m in counts[:-1]:
        work += 2 * rows * dim * dim
        rows *= m
    work += total * dim + total * sum(counts) * (depth + 1)
    work += sum(m * n * (3 * m + 32 * (n.bit_length() - 1)) for m, n in zip(counts, sizes))
    held = max(2 * rows * dim + total, total * (depth + 2))
    held += sum(m * n + m * m for m, n in zip(counts, sizes))
    held += 3 * max(m * n for m, n in zip(counts, sizes))
    return work, held


def sequential_couple(psi, couplings, phi) -> tuple[list[MixedPointerState], float]:
    """Couple several pointers to the system in order, then post-select.

    Parameters
    ----------
    psi : array_like
        Normalized system state.
    couplings : sequence of (operator, g, pointer)
        Impulse couplings applied left to right. Each must satisfy the
        weak-regime guard g * max|o| <= delta/10, with delta the pointer's
        Gaussian-equivalent width sqrt(2 Var Q). That width is read off
        the samples, so the bound allows a relative round-off of
        WEAK_GUARD_RTOL (1e-12): g * max|o| = delta/10 is always accepted.
    phi : array_like
        Normalized post-selection state.

    Returns
    -------
    (marginals, probability)
        One MixedPointerState per coupling - the exact reduced readout
        state of that pointer, generally mixed because the pointers stay
        entangled with each other - and the joint post-selection
        probability.

    Notes
    -----
    The joint state is expanded over eigenvalue-cluster branch sequences;
    the branch index space N (product of the cluster counts m_k) is capped
    at SEQUENTIAL_INDEX_CAP. The branch-weight contraction applies one
    overlap matrix per mode, about N * sum(m_k) * log2(K) complex
    multiply-adds in all. The estimated work and peak memory of the whole
    call (_sequential_cost) are capped at SEQUENTIAL_WORK_CAP and
    SEQUENTIAL_HELD_CAP. All three caps raise DimensionMismatchError before
    the amplitude tensor is built. Pointer grids are never tensored together.
    """
    couplings = list(couplings)
    if not couplings:
        raise InputError("sequential_couple needs at least one coupling")
    psi = _require_system_state(psi)
    phi = _require_system_state(phi, psi.size)
    dim = psi.size

    gains = []
    pointers = []
    cluster_values: list[np.ndarray] = []
    cluster_vecs: list[list[np.ndarray]] = []
    for k, (operator, g, ptr) in enumerate(couplings):
        eig = linalg.eig_hermitian(operator)
        if eig.dim != dim:
            raise DimensionMismatchError(
                f"coupling {k}: operator dimension {eig.dim} != system dimension {dim}"
            )
        if not np.isfinite(g):
            raise InputError(f"coupling {k}: g must be finite")
        if not isinstance(ptr, PointerState):
            raise InputError(f"coupling {k}: pointer must be a PointerState")
        bound = float(np.max(np.abs(eig.eigenvalues)))
        width = sqrt(2.0 * var_q(ptr))
        if abs(g) * bound > width / 10.0 * (1.0 + WEAK_GUARD_RTOL):
            raise GridGuardError(
                f"coupling {k}: g*max|o| = {abs(g) * bound:.6g} exceeds the weak-regime "
                f"guard delta/10 = {width / 10.0:.6g}"
            )
        if abs(g) * bound > 0.25 * ptr.grid.extent:
            raise GridGuardError(f"coupling {k}: translation would wrap around the grid")
        clusters = eig.clusters()
        gains.append(float(g))
        pointers.append(ptr)
        cluster_values.append(np.array([value for value, _ in clusters]))
        cluster_vecs.append([eig.eigenvectors[:, idx] for _, idx in clusters])

    counts = [values.size for values in cluster_values]
    total_indices = prod(counts)
    if total_indices > SEQUENTIAL_INDEX_CAP:
        raise DimensionMismatchError(
            f"branch index space {total_indices} exceeds the cap {SEQUENTIAL_INDEX_CAP}"
        )
    work, held = _sequential_cost(dim, counts, [ptr.grid.n for ptr in pointers])
    if work > SEQUENTIAL_WORK_CAP:
        raise DimensionMismatchError(
            f"estimated work {work:.3g} complex multiply-adds exceeds the cap "
            f"{SEQUENTIAL_WORK_CAP:.3g}"
        )
    if held > SEQUENTIAL_HELD_CAP:
        raise DimensionMismatchError(
            f"estimated peak of {held:.3g} complex numbers held exceeds the cap "
            f"{SEQUENTIAL_HELD_CAP:.3g}"
        )

    # Amplitude tensor over branch sequences: A[i_1..i_K] = <phi| P_K ... P_1 |psi>.
    # Rows of ``vectors`` are the system vectors P_l ... P_1 psi over the index
    # prefix i_1..i_l; the last projection is folded into the overlap with phi.
    vectors = psi[None, :]
    for vecs_k in cluster_vecs[:-1]:
        vectors = np.stack([(vectors @ vk.conj()) @ vk.T for vk in vecs_k], axis=1)
        vectors = vectors.reshape(-1, dim)
    selected = np.stack([vk @ (vk.conj().T @ phi) for vk in cluster_vecs[-1]], axis=1)
    amplitudes = (vectors @ selected.conj()).reshape(counts)
    del vectors

    spectra = [
        _translated_spectra(ptr.grid, *ptr.spectrum, g, values)
        for ptr, g, values in zip(pointers, gains, cluster_values)
    ]
    overlaps = [
        # S[j, i] = <psi_j | psi_i>, summed over the spectra (Parseval)
        spectrum.conj() @ spectrum.T * (ptr.grid.spacing / ptr.grid.n)
        for spectrum, ptr in zip(spectra, pointers)
    ]

    weights = _marginal_weights(amplitudes, overlaps)
    # sum_(i,j) A[i] conj(A[j]) prod_l S_l[j_l, i_l], read off any marginal.
    probability = _checked_probability(float(np.real(np.sum(weights[0] * overlaps[0].T))))

    marginals = []
    for w, spectrum, ptr in zip(weights, spectra, pointers):
        grid_k, band = ptr.grid, ptr.spectrum[0]
        packets = _inverse_fft(grid_k, band, spectrum)
        rho_q = _mixed_density(w, packets) / probability
        rho_p = np.zeros(grid_k.n)
        rho_p[band] = _mixed_density(w, spectrum) * (grid_k.spacing**2 / (2.0 * pi) / probability)
        marginals.append(MixedPointerState(grid_k, rho_q, rho_p))
    return marginals, probability


def _grid_header(grid: PointerGrid) -> dict[str, object]:
    return {
        "grid_n": grid.n,
        "grid_q_min": grid.q_min,
        "grid_q_max": grid.q_max,
        "grid_spacing": grid.spacing,
    }


def write_position_density(state, target, header: dict | None = None,
                           delimiter: str = "\t") -> None:
    """Two-column export: q, |psi(q)|^2."""
    grid = state.grid
    merged = {**_grid_header(grid), **(header or {})}
    textout.write_table(
        target, ["q", "density"], [grid.points, state.position_density()], merged, delimiter
    )


def write_momentum_density(state, target, header: dict | None = None,
                           delimiter: str = "\t") -> None:
    """Two-column export: p, |phi(p)|^2 on the ascending momentum lattice."""
    grid = state.grid
    merged = {**_grid_header(grid), **(header or {})}
    merged["grid_momentum_spacing"] = grid.momentum_spacing
    textout.write_table(
        target, ["p", "density"], [grid.momenta_sorted, state.momentum_density()], merged,
        delimiter,
    )


def write_wavefunction(state: PointerState, target, header: dict | None = None,
                       delimiter: str = "\t") -> None:
    """Four-column export: q, Re psi, Im psi, |psi|^2."""
    grid = state.grid
    merged = {**_grid_header(grid), **(header or {})}
    textout.write_table(
        target,
        ["q", "re_psi", "im_psi", "density"],
        [grid.points, state.samples.real, state.samples.imag, state.position_density()],
        merged,
        delimiter,
    )

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
from functools import cached_property, lru_cache
from math import cos, exp, floor, frexp, ldexp, log, pi, sqrt
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

GRID_MIN_N = 2**8
GRID_MAX_N = 2**20
DEFAULT_GRID_N = 2**12

NORM_TOL = 1e-8
LEAKAGE_TOL = 1e-6
PROBABILITY_FLOOR = 1e-300
# Relative round-off allowed in sequential_couple's weak-regime guard.
WEAK_GUARD_RTOL = 1e-12
# Caps on _sequential_cost, set from a 10 s / 2 GB budget (README).
SEQUENTIAL_WORK_CAP = 2**34
SEQUENTIAL_HELD_CAP = 2**26
# Work charged per coupling for what its size does not show (its eigh and
# inverse FFT calls, sweep steps and state): about 0.27 ms at the work cap's
# rate of 2^34 per 10 s, timed on dim-2 couplings of n = 256 pointers.
_COUPLING_WORK = 2**19


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
        """Full width q_max - q_min: twice the half-extent ``grid_extent``."""
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

    @property
    def components(self) -> tuple[slice, np.ndarray, np.ndarray]:
        """(band, rows, weights) as a MixedPointerState holds them: the
        spectrum is the one row, of weight 1.0."""
        band, values = self._spectrum
        return band, values[None, :], np.ones(1)

    def position_density(self) -> np.ndarray:
        """|psi(q)|^2 on grid.points; integrates to 1 with weight dq."""
        rho = np.abs(self.samples)
        rho *= rho
        return rho

    def momentum_density(self) -> np.ndarray:
        """|phi(p)|^2 on grid.momenta_sorted; integrates to 1 with weight dp.

        phi(p) = (2 pi)^(-1/2) integral psi(q) e^(-ipq) dq is, on the
        lattice, spectrum * dq / sqrt(2 pi) * exp(-i p q_min); the phase has
        unit modulus, so the density is |spectrum|^2 dq^2 / (2 pi).
        """
        return _momentum_density(self)


def _spectral_density(grid: PointerGrid, values: np.ndarray) -> np.ndarray:
    """|phi(p)|^2 from DFT values: |values|^2 dq^2 / (2 pi)."""
    rho = np.abs(values) ** 2
    rho *= grid.spacing**2 / (2.0 * pi)
    return rho


def _momentum_density(state) -> np.ndarray:
    """|phi(p)|^2 on grid.momenta_sorted: sum_a weights[a] |rows[a]|^2 dq^2
    / (2 pi) on the band of the state's components, zero elsewhere."""
    band, rows, weights = state.components
    rho = np.zeros(state.grid.n)
    rho[band] = weights @ _spectral_density(state.grid, rows)
    return rho


def _inverse_fft(grid: PointerGrid, band: slice, values: np.ndarray) -> np.ndarray:
    """Samples whose DFT is ``values`` on grid.momenta_sorted[band] (last
    axis) and zero elsewhere: the band zero-filled to the whole lattice in
    np.fft storage order, then inverted."""
    n, half = grid.n, grid.n // 2
    width = band.stop - band.start
    full = np.zeros(values.shape[:-1] + (n,), dtype=complex)
    # The band's storage bins j mod n: one run from ``start``, wrapping past
    # n at most once (at p = 0 when the band contains it).
    start = (band.start - half) % n
    split = min(width, n - start)
    full[..., start : start + split] = values[..., :split]
    full[..., : width - split] = values[..., split:]
    return np.fft.ifft(full)


class MixedPointerState:
    """Reduced readout state of a pointer entangled with other pointers.

    ``components`` is (band, rows, weights): the state is the mixture
    sum_a weights[a] |g_a><g_a|, with rows[a] the values of g_a's spectrum
    on grid.momenta_sorted[band] and every weight positive. A PointerState
    is the one row of its spectrum with weight 1.0. sequential_couple
    builds these states; the position density is formed then and held.
    """

    __slots__ = ("grid", "components", "_rho_q")

    @classmethod
    def _held(
        cls, grid: PointerGrid, band: slice, rows: np.ndarray, weights: np.ndarray
    ) -> MixedPointerState:
        """The mixture of fresh arrays the caller hands over, unchecked and
        uncopied; its position density takes one batched inverse FFT."""
        density = np.abs(_inverse_fft(grid, band, rows))
        density *= density
        rho_q = weights @ density
        for arr in (rows, weights, rho_q):
            arr.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "grid", grid)
        object.__setattr__(state, "components", (band, rows, weights))
        object.__setattr__(state, "_rho_q", rho_q)
        return state

    def __setattr__(self, name, value):
        raise AttributeError("MixedPointerState is immutable")

    def position_density(self) -> np.ndarray:
        return self._rho_q

    def momentum_density(self) -> np.ndarray:
        return _momentum_density(self)


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


# Band entries below 2^-200 of the peak are dropped before the band moments
# are formed: they change no sum by more than 2^-200 of its size, and their
# products would be subnormal numbers, ~10x slower to multiply.
_BAND_FLOOR = 2.0**-200
# _band_moments needs a long double wider than a double (x86-64: a 64-bit
# mantissa). With doubles in its place, var_Q of simulate's benchmark
# scenarios missed the closed form by up to 1.5e-14 relative, so where
# numpy's long double is a double every state reads its samples.
_EXTENDED = np.finfo(np.longdouble).nmant > np.finfo(float).nmant
_PI_LD = 4 * np.arctan(np.longdouble(1))


def _band_path(grid: PointerGrid, band: slice) -> bool:
    """Whether _band_moments reads the position moments of a state holding
    ``band``: w^2 <= 3 n log2 n for a band of w bins (and _EXTENDED). Its
    work grows as w^2 and matched that of the inverse FFT and density pass
    it replaces near this width (medians on a 2-core Xeon, n = 1024 to
    8192, pointer bands). Wider bands, such as the whole lattice a state
    built from samples holds, read the samples.
    """
    width = band.stop - band.start
    n = int(grid.n)
    return _EXTENDED and width * width <= 3 * n * (n.bit_length() - 1)


@lru_cache(maxsize=32)
def _lattice_kernels(n: int, width: int) -> tuple[np.ndarray, np.ndarray, np.longdouble]:
    """_band_moments' weights for lags d = 1 .. width - 1 on an n-point
    lattice, in long double: (-1)^d cot(pi d/n), (-1)^d / sin^2(pi d/n),
    and K = (n^2 + 2)/12 + sum_d (-1)^d / sin^2(pi d/n)."""
    d = np.arange(1, width)
    angle = _PI_LD * d.astype(np.longdouble) / n
    sign = (1 - 2 * (d % 2)).astype(np.longdouble)
    sin = np.sin(angle)
    slope = sign / np.tan(angle)
    curvature = sign / (sin * sin)
    constant = (np.longdouble(n) ** 2 + 2) / 12 + np.sum(curvature)
    slope.setflags(write=False)
    curvature.setflags(write=False)
    return slope, curvature, constant


def _band_moments(grid: PointerGrid, band: slice, values: np.ndarray) -> tuple[float, float, float]:
    """Total mass, mean and variance of the position density of a state
    holding ``values`` on grid.momenta_sorted[band], with no transform.

    These are the lattice sums of _density_moments, wrap included. With
    the band phase-shifted by (-1)^k, v_k = (-1)^k V_k, the samples become
    psi_(m + n/2) = n^-1 sum_k v_k w^(mk) (w = e^(2 pi i/n)), a packet near
    the grid centre at index m in [-n/2, n/2). Every sum_m f(m) |psi|^2
    is then n^-2 sum_d r_d F(d), with r_d = sum_k conj(v_k) v_(k+d) the
    band's autocorrelation (2w - 1 lags) and F(d) = sum_m f(m) w^(md) in
    closed form. For d != 0 and c = pi d/n,

        F(d) = (-1)^d n (-1/2 - (i/2) cot c)    for f = m
        F(d) = (-1)^d n / (2 sin^2 c)           for f = m^2

    and F(0) = -n/2 and n (n^2 + 2)/12. So, with r_0 = sum |v|^2,

        <m>   = (sum_(d>0) (-1)^d cot(c) Im r_d - |sum_k V_k|^2 / 2) / r_0
        <m^2> = K - sum_(d>0) (-1)^d D_d / sin^2(c) / r_0

    where |sum_k V_k|^2 = n^2 |psi_0|^2 is the density at q_min, D_d =
    r_0 - Re r_d and K = (n^2 + 2)/12 + sum_(0<d<w) (-1)^d / sin^2(c).

    The terms of <m^2> are near-equal and alternate in sign, and the
    weights of the small lags are large, so the sums, K and the lags
    d < w/8 are formed in long double; past them the band's envelope makes
    the float64 error of np.correlate negligible. A lag whose D_d is below
    r_0/16 would lose bits as r_0 - Re r_d and takes it as
    (1/2) sum_k |v_(k+d) - v_k|^2 instead. The variance is <m^2> - <m>^2
    in long double, so a packet far from the grid centre loses about
    (<m>/s.d.)^2 long-double units in the last place.
    """
    n, dq = int(grid.n), grid.spacing
    magnitude = np.abs(values)
    peak = float(magnitude.max())
    kept = np.flatnonzero(magnitude >= peak * _BAND_FLOOR)
    lo, hi = int(kept[0]), int(kept[-1]) + 1
    width, near = hi - lo, -(-(hi - lo) // 8)
    exponent = frexp(peak)[1]
    # v, scaled by a power of two (exact), after near - 1 zeros and before
    # width - 1: np.correlate reads v and the zeros after it, the
    # long-double lags v between near - 1 zeros on each side.
    padded = np.zeros(near + 2 * width - 2, dtype=complex)
    v = padded[near - 1 : near - 1 + width]
    np.multiply(values[lo:hi], ldexp(1.0, -exponent), out=v)
    edge = abs(v.sum()) ** 2
    # (-1)^k with k = bin - n/2, n/2 even: negate the odd bins.
    v[(band.start + lo + 1) % 2 :: 2] *= -1.0
    r = np.correlate(padded[near - 1 :], v, "valid")
    # Lags 1 <= d < near in long double: row d - 1 of ``rows`` is v moved by
    # d, as (re, im) pairs, and ``base`` is v itself.
    span = 2 * (width + near - 1)
    pairs = padded[: near + width + near - 2].view(float).astype(np.longdouble)
    step = pairs.strides[0]
    rows = np.ndarray((near - 1, span), np.longdouble, pairs, 2 * step, (2 * step, step))
    base = pairs[:span]
    r0 = np.dot(base, base)
    # Re(conj(a) b) = b . (Re a, Im a) and Im(conj(a) b) = b . (-Im a, Re a).
    turned = (base.reshape(-1, 2)[:, ::-1] * np.array([-1, 1], np.longdouble)).reshape(-1)
    im_r = r[1:].imag.astype(np.longdouble)
    im_r[: near - 1] = np.dot(rows, turned)
    gaps = r0 - r[1:].real
    gaps[: near - 1] = r0 - np.dot(rows, base)
    # A D_d below r0/16 loses 4 bits or more as r0 - Re r_d: take it as
    # (1/2) sum_k |v_(k+d) - v_k|^2.
    close = np.flatnonzero(gaps[: near - 1] < r0 / 16)
    diff = rows[close] - base
    gaps[close] = 0.5 * np.einsum("ij,ij->i", diff, diff)
    slope, curvature, constant = _lattice_kernels(n, width)
    mean_m = (np.dot(slope, im_r) - edge / 2) / r0
    var_m = constant - np.dot(curvature, gaps) / r0 - mean_m * mean_m
    total = float(r0) * ldexp(dq / n, 2 * exponent)
    return total, grid.q_min + (n // 2) * dq + dq * float(mean_m), dq * dq * float(var_m)


def _position_moments(state) -> tuple[float, float, float]:
    """Total mass, mean and variance of the position density. Where the
    band is narrow (_band_path) each row of the components is read off it,
    and the rows combine by the law of total variance with shares c_a =
    weights[a] t_a / total: one row of weight 1.0 has c = t/t = 1.0, so a
    PointerState keeps its bits. Else one pass over position_density()."""
    grid = state.grid
    band, rows, weights = state.components
    if not _band_path(grid, band):
        return _density_moments(grid.points, state.position_density(), grid.spacing)
    parts = [_band_moments(grid, band, row) for row in rows]
    masses = [float(weight) * t for weight, (t, _, _) in zip(weights, parts)]
    total = sum(masses)
    shares = [mass / total for mass in masses]
    mean = sum(c * mu for c, (_, mu, _) in zip(shares, parts))
    return total, mean, sum(c * (var + (mu - mean) ** 2) for c, (_, mu, var) in zip(shares, parts))


def moments(state) -> Moments:
    """Position and momentum moments of a PointerState or MixedPointerState.

    The momentum moments are one pass over the momentum density on the
    state's band, and so are the position moments unless the band is wide
    (_band_path); otherwise they are one pass over the position density.
    Raises NumericalGuardError when the two densities' totals differ by
    more than NORM_TOL (Parseval). On the band path both totals are sum_a
    weights[a] sum |rows[a]|^2 dq/n, so the check binds only where the
    position moments come from the samples or densities.
    """
    grid = state.grid
    total_q, mu_q, var_q_ = _position_moments(state)
    band, rows, weights = state.components
    rho_p = weights @ _spectral_density(grid, rows)
    total_p = float(rho_p.sum() * grid.momentum_spacing)
    if abs(total_p - total_q) > NORM_TOL * max(1.0, total_q):
        raise NumericalGuardError(
            f"Parseval defect {abs(total_p - total_q):.3e} exceeds {NORM_TOL:.1e}"
        )
    _, mu_p, var_p_ = _density_moments(grid._momenta_on(band), rho_p, grid.momentum_spacing)
    return Moments(mu_q, var_q_, mu_p, var_p_)


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
class JointState:
    """System-pointer state after one impulse coupling.

    Stored as the initial pointer's spectrum (``spectrum``, its values on
    the bins grid.momenta_sorted[band], as PointerState.spectrum) and, per
    distinct eigenvalue cluster, the pair (eigenvalue, projection of the
    system state onto the eigenspace). Clusters with different eigenvalues
    are orthogonal in the system factor.

    With ``copies`` > 1 the system is that many independent copies of one
    system, coupled with strength g through their mean observable
    (1/copies) sum_k O^(k). The state is held in product form for
    post_select, which selects every copy on the same state: the basis,
    clusters and system_dim are one copy's, and so are norm() and
    position_density().
    """

    grid: PointerGrid
    basis: linalg.EigenDecomposition
    g: float
    band: slice
    spectrum: np.ndarray
    clusters: tuple[tuple[float, np.ndarray], ...]
    copies: int = 1

    @property
    def system_dim(self) -> int:
        return self.basis.dim

    def norm(self) -> float:
        return sqrt(float(self.position_density().sum()) * self.grid.spacing)

    def position_density(self) -> np.ndarray:
        """Pointer position density with the system traced out (no
        selection): the mixture of the branches translated by g*eigenvalue,
        weighted by |P_k psi|^2, read as a MixedPointerState. post_select
        works from the spectrum and never needs it."""
        values = [value for value, _ in self.clusters]
        weights = np.array([float(np.vdot(vec, vec).real) for _, vec in self.clusters])
        rows = _translated_spectra(self.grid, self.band, self.spectrum, self.g, values)
        kept = weights > 0.0
        unselected = MixedPointerState._held(self.grid, self.band, rows[kept], weights[kept])
        return unselected.position_density()


def _translation_kernel(
    grid: PointerGrid, g: float, values, amplitudes, band: slice
) -> np.ndarray:
    """sum_k amplitudes[k] * exp(-i g values[k] p) on grid.momenta_sorted[band].

    Multiplying a spectrum by it and inverting the FFT superposes the
    packets translated by g*values[k]. Each term is a cos(|s| p) -
    i a sign(s) sin(|s| p) with s = g*values[k], so shifts +s and -s share
    one real cos and one real sin, which together cost less than a complex
    exp.
    """
    # |s| -> [cos coefficient, sin coefficient]
    coefs: dict[float, list[complex]] = {}
    for value, amplitude in zip(values, amplitudes):
        if amplitude != 0.0:
            shift = g * float(value)
            pair = coefs.setdefault(abs(shift), [0j, 0j])
            pair[0] += amplitude
            pair[1] += -1j * amplitude if shift > 0.0 else 1j * amplitude
    momenta = grid._momenta_on(band)
    even = np.zeros(momenta.size, dtype=complex)
    odd = np.zeros(momenta.size, dtype=complex)
    for shift, (cos_coef, sin_coef) in coefs.items():
        if shift == 0.0:
            even += cos_coef
            continue
        angle = momenta * shift
        even += cos_coef * np.cos(angle)
        odd += sin_coef * np.sin(angle)
    return even + odd


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
        the eigenspace projection of psi, whose pointer is translated by
        g*o.

    Raises
    ------
    GridGuardError
        If any translation g*o exceeds a quarter of the grid extent, where
        the periodic wrap-around would fold the packet back into range.
    NumericalGuardError
        If the joint norm departs from 1 by more than NORM_TOL.
    """
    eig = linalg.eig_hermitian(operator)
    psi = linalg.require_state(psi, eig.dim)
    if not np.isfinite(g):
        raise InputError("coupling strength g must be finite")
    return _couple(psi, pointer, eig, g)


def _couple(
    psi: np.ndarray, pointer: PointerState, eig: linalg.EigenDecomposition, g: float,
    copies: int = 1,
) -> JointState:
    """couple() on a validated state, decomposition and coupling strength;
    ``copies`` > 1 couples that many copies of psi through their mean
    observable (see JointState). The mean observable's eigenvalues span
    one copy's range, so the wrap-around guard reads the same."""
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
        clusters=tuple(clusters), copies=copies,
    )


def post_select(joint: JointState, phi) -> tuple[PointerState, float]:
    """Project the system factor onto phi and renormalize the pointer.

    The conditional pointer is sum_k <phi|P_k|psi> times the pointer
    translated by g*o_k. Its spectrum is the initial spectrum times the
    summed translation phases, formed on the initial spectrum's band only;
    the state holds it and takes its samples with one inverse FFT when they
    are read. For a joint state of several copies, each copy shifts the
    pointer by g*o_k/copies and the copies' phases multiply: the summed
    phases are one copy's, at strength g/copies, raised to the power copies.
    The mean observable's branch amplitudes, which alternate in sign and
    cancel, are never formed.

    Returns the conditional pointer state and the post-selection
    probability (the squared norm of the unnormalized conditional
    wavefunction, read from the spectrum by Parseval). Raises
    PostSelectionImpossibleError when the probability underflows below
    PROBABILITY_FLOOR.
    """
    phi = linalg.require_state(phi, joint.system_dim, "post-selected")
    grid, band = joint.grid, joint.band
    values = [value for value, _ in joint.clusters]
    amplitudes = [complex(np.vdot(phi, vec)) for _, vec in joint.clusters]
    spectrum = _translation_kernel(grid, joint.g / joint.copies, values, amplitudes, band)
    spectrum **= joint.copies
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
    translated by g*value, one row per value: the spectrum times
    exp(-i g value p), with every row's phases from one outer product."""
    angle = np.multiply.outer(g * np.asarray(values, dtype=float), grid._momenta_on(band))
    return spectrum * (np.cos(angle) - 1j * np.sin(angle))


def _spread(matrix: np.ndarray, sizes: list[int]) -> np.ndarray:
    """C M C^T for the cluster indicator C: entry (a, b) is M[c(a), c(b)],
    with c(a) the cluster of eigenvector a and clusters of ``sizes``
    consecutive eigenvectors."""
    return np.repeat(np.repeat(matrix, sizes, axis=0), sizes, axis=1)


def _block_sums(matrix: np.ndarray, sizes: list[int]) -> np.ndarray:
    """C^T M C: the sum of each block of M over a pair of clusters."""
    starts = np.cumsum(sizes) - sizes
    return np.add.reduceat(np.add.reduceat(matrix, starts, axis=0), starts, axis=1)


def _branch_weights(
    psi: np.ndarray, phi: np.ndarray, bases: list[tuple[np.ndarray, list[int]]],
    overlaps: list[np.ndarray],
) -> list[np.ndarray]:
    """Reduced branch weights W_k[i, j] of every coupling k, by a forward
    and a backward sweep of dim x dim matrices.

    Coupling l acts on the system as the channel E_l(rho) = sum_(i,j)
    S_l[j, i] P_i rho P_j, and the couplings after it act on the
    post-selection as the dual maps D_l(Phi) = sum_(i,j) S_l[j, i] P_j Phi
    P_i. In the eigenbasis V_l of coupling l (``bases``: eigenvectors and
    cluster sizes) each is a Schur product, with C_l S_l^T C_l^T and
    C_l S_l C_l^T (_spread). Pointer k reads the system state rho_k =
    E_(k-1)(... E_1(|psi><psi|)) against the effect Phi_k = D_(k+1)(...
    D_K(|phi><phi|)), both rotated into its eigenbasis:

        W_k = C_k^T ((V_k^dag rho_k V_k) o (V_k^dag Phi_k V_k)^T) C_k.

    Both sweeps stay in the eigenbases and pass between consecutive ones
    through U_l = V_(l+1)^dag V_l.
    """
    changes = [after.conj().T @ vecs for (vecs, _), (after, _) in zip(bases, bases[1:])]
    amplitudes = bases[0][0].conj().T @ psi
    states = [np.outer(amplitudes, amplitudes.conj())]
    for (_, sizes), overlap, change in zip(bases, overlaps, changes):
        states.append(change @ (_spread(overlap.T, sizes) * states[-1]) @ change.conj().T)
    amplitudes = bases[-1][0].conj().T @ phi
    effect = np.outer(amplitudes, amplitudes.conj())
    weights = []
    for k in reversed(range(len(bases))):
        if k < len(changes):
            spread = _spread(overlaps[k + 1], bases[k + 1][1])
            effect = changes[k].conj().T @ (spread * effect) @ changes[k]
        weights.append(_block_sums(states[k] * effect.T, bases[k][1]))
    return weights[::-1]


def _sequential_cost(
    dim: int, operators: int, pointers: list[tuple[int, int, int]]
) -> tuple[int, int]:
    """Estimated (complex multiply-adds, complex numbers held at the peak)
    for ``operators`` distinct operators and, per coupling, its pointer's
    (m, w, n): cluster count, band width and grid size.

    Each eigh counts 18 m^3 (timed against matrix products at m = 512): one
    per distinct operator (m = dim) and one per coupling's weights. Per
    coupling the sweep (_branch_weights) costs 5 dim^3 and holds 3 dim^2;
    the overlaps and rows cost m^2 w each, and the batched inverse FFT and
    weighted sum 32 log2(n) per entry of the m x n packets. Each coupling
    also counts _COUPLING_WORK for its fixed Python and small-array cost.
    The spectra, rows, overlaps and weights (2 m (w + m)) and each n-point
    density stay alive; one coupling at a time adds three arrays of its
    packets' size.
    """
    work = (5 * len(pointers) + 18 * operators) * dim**3 + _COUPLING_WORK * len(pointers)
    work += sum(m * (18 * m * m + 2 * m * w + 32 * n * (n.bit_length() - 1))
                for m, w, n in pointers)
    held = 3 * len(pointers) * dim * dim + 3 * max(m * n for m, _, n in pointers)
    held += sum(2 * m * (w + m) + n for m, w, n in pointers)
    return work, held


def _check_cost(work: int, held: int) -> None:
    if work > SEQUENTIAL_WORK_CAP:
        raise DimensionMismatchError(f"estimated work {work:.3g} complex multiply-adds "
                                     f"exceeds the cap {SEQUENTIAL_WORK_CAP:.3g}")
    if held > SEQUENTIAL_HELD_CAP:
        raise DimensionMismatchError(f"estimated peak of {held:.3g} complex numbers held "
                                     f"exceeds the cap {SEQUENTIAL_HELD_CAP:.3g}")


def sequential_couple(psi, couplings, phi) -> tuple[list[MixedPointerState], float]:
    """Couple several pointers to the system in order, then post-select.

    Parameters
    ----------
    psi : array_like
        Normalized system state.
    couplings : sequence of (operator, g, pointer)
        Impulse couplings applied left to right. Each must satisfy the
        weak-regime guard g * max|o| <= delta/10, with delta the pointer's
        Gaussian-equivalent width sqrt(2 Var Q). That width is computed
        (the position variance, read off the band once per distinct
        pointer), so the bound allows a relative round-off of
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
    Pointer k's readout depends on the other couplings only through their
    pointer overlaps S_l, so the couplings before it fold into one system
    density matrix and those after it into one effect operator
    (_branch_weights). The system side costs about 5 K dim^3 complex
    multiply-adds, however many branch sequences the K couplings open.
    Pointer k's state sum_(i,j) W_k[i, j] |f_i><f_j| / p, with f_i its
    packet translated by g o_i, is split by one eigh, W_k / p = U diag(l)
    U^dag: the mixture of the rows (U^T f)_a with weights l_a, dropping
    l_a <= 0 (round-off: W_k is positive semidefinite) and zero rows.

    Each distinct operator is diagonalized once. The estimated work and
    peak memory (_sequential_cost) are capped at SEQUENTIAL_WORK_CAP and
    SEQUENTIAL_HELD_CAP, raising DimensionMismatchError: before any eigh
    with every cluster count at its least, 1, and again before any pointer
    spectrum is built. Pointer grids are never tensored together.
    """
    couplings = list(couplings)
    if not couplings:
        raise InputError("sequential_couple needs at least one coupling")
    psi = linalg.require_state(psi)
    phi = linalg.require_state(phi, psi.size, "post-selected")
    dim = psi.size
    for k, (_, g, ptr) in enumerate(couplings):
        if not np.isfinite(g):
            raise InputError(f"coupling {k}: g must be finite")
        if not isinstance(ptr, PointerState):
            raise InputError(f"coupling {k}: pointer must be a PointerState")
    operators = {id(operator): operator for operator, _, _ in couplings}
    shapes = [(ptr.spectrum[0].stop - ptr.spectrum[0].start, ptr.grid.n)
              for _, _, ptr in couplings]
    _check_cost(*_sequential_cost(dim, len(operators), [(1, w, n) for w, n in shapes]))
    # Per distinct operator: its decomposition, cluster values, cluster
    # sizes and largest |eigenvalue|, shared by every coupling through it.
    decompositions = {}
    for key, op in operators.items():
        eig = linalg.eig_hermitian(op)
        clusters = eig.clusters()
        decompositions[key] = (eig, np.array([value for value, _ in clusters]),
                               [idx.size for _, idx in clusters],
                               float(np.max(np.abs(eig.eigenvalues))))
    distinct = {id(ptr): ptr for _, _, ptr in couplings}
    widths = {key: sqrt(2.0 * _position_moments(ptr)[2]) for key, ptr in distinct.items()}

    cluster_values: list[np.ndarray] = []
    bases: list[tuple[np.ndarray, list[int]]] = []
    for k, (operator, g, ptr) in enumerate(couplings):
        eig, values, sizes, largest = decompositions[id(operator)]
        if eig.dim != dim:
            raise DimensionMismatchError(
                f"coupling {k}: operator dimension {eig.dim} != system dimension {dim}"
            )
        shift = abs(g) * largest
        width = widths[id(ptr)]
        if shift > width / 10.0 * (1.0 + WEAK_GUARD_RTOL):
            raise GridGuardError(
                f"coupling {k}: g*max|o| = {shift:.6g} exceeds the weak-regime "
                f"guard delta/10 = {width / 10.0:.6g}"
            )
        if shift > 0.25 * ptr.grid.extent:
            raise GridGuardError(f"coupling {k}: translation would wrap around the grid")
        cluster_values.append(values)
        bases.append((eig.eigenvectors, sizes))
    _check_cost(*_sequential_cost(
        dim, len(operators), [(v.size, w, n) for v, (w, n) in zip(cluster_values, shapes)]
    ))

    spectra = [
        _translated_spectra(ptr.grid, *ptr.spectrum, float(g), values)
        for (_, g, ptr), values in zip(couplings, cluster_values)
    ]
    overlaps = [
        # S[j, i] = <psi_j | psi_i>, summed over the spectra (Parseval)
        spectrum.conj() @ spectrum.T * (ptr.grid.spacing / ptr.grid.n)
        for spectrum, (_, _, ptr) in zip(spectra, couplings)
    ]

    weights = _branch_weights(psi, phi, bases, overlaps)
    # <phi| E_K(... E_1(|psi><psi|)) |phi>, read off any marginal.
    probability = _checked_probability(float(np.real(np.sum(weights[0] * overlaps[0].T))))

    marginals = []
    for weight, spectrum, (_, _, ptr) in zip(weights, spectra, couplings):
        mixture, basis = np.linalg.eigh(weight / probability)
        rows = basis.T @ spectrum
        kept = (mixture > 0.0) & rows.any(axis=1)
        marginals.append(
            MixedPointerState._held(ptr.grid, ptr.spectrum[0], rows[kept], mixture[kept])
        )
    return marginals, probability


def _write(grid: PointerGrid, target, names, columns, header, delimiter, **extra) -> None:
    """One export: the grid's header lines, then ``header``, then ``extra``."""
    merged = {"grid_n": grid.n, "grid_q_min": grid.q_min, "grid_q_max": grid.q_max,
              "grid_spacing": grid.spacing, **(header or {}), **extra}
    textout.write_table(target, names, columns, merged, delimiter)


def write_position_density(state, target, header: dict | None = None,
                           delimiter: str = "\t") -> None:
    """Two-column export: q, |psi(q)|^2."""
    columns = [state.grid.points, state.position_density()]
    _write(state.grid, target, ["q", "density"], columns, header, delimiter)


def write_momentum_density(state, target, header: dict | None = None,
                           delimiter: str = "\t") -> None:
    """Two-column export: p, |phi(p)|^2 on the ascending momentum lattice."""
    grid = state.grid
    _write(grid, target, ["p", "density"], [grid.momenta_sorted, state.momentum_density()],
           header, delimiter, grid_momentum_spacing=grid.momentum_spacing)


def write_wavefunction(state: PointerState, target, header: dict | None = None,
                       delimiter: str = "\t") -> None:
    """Four-column export: q, Re psi, Im psi, |psi|^2."""
    samples = state.samples
    columns = [state.grid.points, samples.real, samples.imag, state.position_density()]
    _write(state.grid, target, ["q", "re_psi", "im_psi", "density"], columns, header, delimiter)

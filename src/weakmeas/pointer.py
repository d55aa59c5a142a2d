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
from math import pi, prod, sqrt
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
        p = np.fft.fftshift(self.momenta).copy()
        p.setflags(write=False)
        return p


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
    """A pure pointer wavefunction sampled on a PointerGrid.

    Construction asserts the samples are normalized within NORM_TOL (silent
    renormalization would hide unitarity bugs), renormalizes exactly, and
    rejects states with boundary amplitude above LEAKAGE_TOL in the
    outermost 1% of the grid, where periodic wrap-around would corrupt
    translations.
    """

    __slots__ = ("grid", "samples")

    def __init__(self, grid: PointerGrid, samples, *, _checked: bool = False):
        arr = np.asarray(samples, dtype=complex)
        if arr.shape != (grid.n,):
            raise DimensionMismatchError(
                f"samples shape {arr.shape} does not match grid size {grid.n}"
            )
        if not _checked:
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
        else:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", arr)

    def __setattr__(self, name, value):
        raise AttributeError("PointerState is immutable")

    def position_density(self) -> np.ndarray:
        """|psi(q)|^2 on grid.points; integrates to 1 with weight dq."""
        return np.abs(self.samples) ** 2

    def momentum_wavefunction(self) -> np.ndarray:
        """Momentum amplitudes on grid.momenta_sorted.

        Discretization of phi(p) = (2 pi)^(-1/2) integral psi(q) e^(-ipq) dq,
        so sum |phi|^2 dp equals sum |psi|^2 dq (Parseval).
        """
        grid = self.grid
        phi = np.fft.fftshift(np.fft.fft(self.samples)) * grid.spacing / sqrt(2.0 * pi)
        phi *= np.exp(-1j * grid.momenta_sorted * grid.q_min)
        return phi

    def momentum_density(self) -> np.ndarray:
        """|phi(p)|^2 on grid.momenta_sorted; integrates to 1 with weight dp.

        The factor exp(-i p q_min) of momentum_wavefunction has unit
        modulus, so the density is |fft|^2 dq^2 / (2 pi), shifted.
        """
        grid = self.grid
        rho = np.abs(np.fft.fft(self.samples)) ** 2
        rho *= grid.spacing**2 / (2.0 * pi)
        return np.fft.fftshift(rho)


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

    Requires at least 8*delta of grid on each side of the center so that
    boundary amplitudes are negligible, and a spacing fine enough that the
    samples are normalized within NORM_TOL; otherwise raises GridGuardError.
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
    q = grid.points
    samples = (delta**2 * pi) ** (-0.25) * np.exp(-((q - center) ** 2) / (2.0 * delta**2))
    try:
        return PointerState(grid, samples)
    except InputError as exc:  # finite samples of the grid's size fail only the norm check
        raise GridGuardError(
            f"grid spacing {grid.spacing:.6g} undersamples the width-{delta} Gaussian "
            f"({exc}); raise the grid size (--grid-n)"
        ) from exc


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
    mu = float(np.sum(x * rho) * weight / total)
    return total, mu, float(np.sum((x - mu) ** 2 * rho) * weight / total)


def _position_moments(state) -> tuple[float, float, float]:
    grid = state.grid
    return _density_moments(grid.points, state.position_density(), grid.spacing)


def moments(state) -> Moments:
    """Position and momentum moments of a PointerState or MixedPointerState.

    One pass over the position density and one momentum_density() call.
    Raises NumericalGuardError when the two densities' totals differ by more
    than NORM_TOL (Parseval).
    """
    grid = state.grid
    total_q, mu_q, var_q_ = _position_moments(state)
    rho_p = state.momentum_density()
    total_p = float(rho_p.sum() * grid.momentum_spacing)
    if abs(total_p - total_q) > NORM_TOL * max(1.0, total_q):
        raise NumericalGuardError(
            f"Parseval defect {abs(total_p - total_q):.3e} exceeds {NORM_TOL:.1e}"
        )
    _, mu_p, var_p_ = _density_moments(grid.momenta_sorted, rho_p, grid.momentum_spacing)
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
    eigenvalue branches is what builds that single shifted packet.
    """
    reference = make_gaussian(state.grid, delta, reference_shift)
    overlap = complex(np.vdot(reference.samples, state.samples) * state.grid.spacing)
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

    Stored as the FFT of the initial pointer (``spectrum``) and, per
    distinct eigenvalue cluster, the pair (eigenvalue, projection of the
    system state onto the eigenspace). Clusters with different eigenvalues
    are orthogonal in the system factor.
    """

    grid: PointerGrid
    basis: linalg.EigenDecomposition
    g: float
    spectrum: np.ndarray
    clusters: tuple[tuple[float, np.ndarray], ...]

    @property
    def system_dim(self) -> int:
        return self.basis.dim

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        """One Branch per cluster, its pointer translated by g*eigenvalue.

        Built on first access, one inverse FFT per cluster; post_select
        works from the spectrum and never needs them.
        """
        return tuple(
            Branch(
                eigenvalue=value,
                system_vec=system_vec,
                pointer=PointerState(
                    self.grid,
                    np.fft.ifft(
                        self.spectrum * _translation_kernel(self.grid, self.g, [value], [1.0])
                    ),
                    _checked=True,
                ),
            )
            for value, system_vec in self.clusters
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


def _translation_kernel(grid: PointerGrid, g: float, values, amplitudes) -> np.ndarray:
    """sum_k amplitudes[k] * exp(-i g values[k] p) on grid.momenta (FFT order).

    Multiplying a spectrum by it and inverting the FFT superposes the
    packets translated by g*values[k]. Each term is a cos(|s| p) -
    i a sign(s) sin(|s| p) with s = g*values[k], so shifts +s and -s share
    one real cos and one real sin, which together cost less than a complex
    exp. The lattice holds p_(n-j) = -p_j for 0 < j < n/2, so both are
    evaluated on p_0 .. p_(n/2) only and mirrored (cos even, sin odd).
    """
    # |s| -> [cos coefficient, sin coefficient]
    coefs: dict[float, list[complex]] = {}
    for value, amplitude in zip(values, amplitudes):
        if amplitude != 0.0:
            shift = g * float(value)
            pair = coefs.setdefault(abs(shift), [0j, 0j])
            pair[0] += amplitude
            pair[1] += -1j * amplitude if shift > 0.0 else 1j * amplitude
    half = grid.n // 2
    momenta = grid.momenta[: half + 1]
    even = np.zeros(half + 1, dtype=complex)
    odd = np.zeros(half + 1, dtype=complex)
    for shift, (cos_coef, sin_coef) in coefs.items():
        if shift == 0.0:
            even += cos_coef
            continue
        angle = momenta * shift
        even += cos_coef * np.cos(angle)
        odd += sin_coef * np.sin(angle)
    kernel = np.empty(grid.n, dtype=complex)
    np.add(even, odd, out=kernel[: half + 1])
    np.subtract(even[half - 1 : 0 : -1], odd[half - 1 : 0 : -1], out=kernel[half + 1 :])
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

    spectrum = np.fft.fft(pointer.samples)
    spectrum.setflags(write=False)
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
        grid=grid, basis=eig, g=float(g), spectrum=spectrum, clusters=tuple(clusters)
    )


def post_select(joint: JointState, phi) -> tuple[PointerState, float]:
    """Project the system factor onto phi and renormalize the pointer.

    The conditional pointer is sum_k <phi|P_k|psi> times the pointer
    translated by g*o_k; it is built as one inverse FFT of the initial
    spectrum times the summed translation phases.

    Returns the conditional pointer state and the post-selection
    probability (the squared norm of the unnormalized conditional
    wavefunction). Raises PostSelectionImpossibleError when the probability
    underflows below PROBABILITY_FLOOR.
    """
    phi = _require_system_state(phi, joint.system_dim)
    grid = joint.grid
    values = [value for value, _ in joint.clusters]
    amplitudes = [complex(np.vdot(phi, vec)) for _, vec in joint.clusters]
    kernel = _translation_kernel(grid, joint.g, values, amplitudes)
    kernel *= joint.spectrum
    conditional = np.fft.ifft(kernel)
    probability = float(np.sum(np.abs(conditional) ** 2) * grid.spacing)
    if probability < PROBABILITY_FLOOR:
        raise PostSelectionImpossibleError(
            f"post-selection probability {probability:.3e} underflows; "
            "the selected state is (numerically) never found"
        )
    if probability > 1.0 + NORM_TOL:
        raise NumericalGuardError(f"post-selection probability {probability} exceeds 1")
    probability = min(probability, 1.0)
    conditional /= sqrt(probability)
    state = PointerState(grid, conditional, _checked=True)
    return state, probability


def _translated_spectra(pointer: PointerState, g: float, values: np.ndarray) -> np.ndarray:
    """FFTs of the pointer translated by g*value, one row per value (FFT order)."""
    base_fft = np.fft.fft(pointer.samples)
    return np.stack([base_fft * _translation_kernel(pointer.grid, g, [value], [1.0])
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
        Gaussian-equivalent width sqrt(2 Var Q).
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
        if abs(g) * bound > width / 10.0:
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
        _translated_spectra(ptr, g, values)
        for ptr, g, values in zip(pointers, gains, cluster_values)
    ]
    overlaps = [
        # S[j, i] = <psi_j | psi_i>, summed over the spectra (Parseval)
        spectrum.conj() @ spectrum.T * (ptr.grid.spacing / ptr.grid.n)
        for spectrum, ptr in zip(spectra, pointers)
    ]

    weights = _marginal_weights(amplitudes, overlaps)
    # sum_(i,j) A[i] conj(A[j]) prod_l S_l[j_l, i_l], read off any marginal.
    probability = float(np.real(np.sum(weights[0] * overlaps[0].T)))
    if probability < PROBABILITY_FLOOR:
        raise PostSelectionImpossibleError(
            f"post-selection probability {probability:.3e} underflows"
        )
    if probability > 1.0 + NORM_TOL:
        raise NumericalGuardError(f"post-selection probability {probability} exceeds 1")
    probability = min(probability, 1.0)

    marginals = []
    for w, spectrum, ptr in zip(weights, spectra, pointers):
        grid_k = ptr.grid
        rho_q = _mixed_density(w, np.fft.ifft(spectrum, axis=1)) / probability
        rho_p = _mixed_density(w, np.fft.fftshift(spectrum, axes=1))
        rho_p *= grid_k.spacing**2 / (2.0 * pi) / probability
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

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
from math import pi, sqrt

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
SEQUENTIAL_INDEX_CAP = 2**24


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
        """|phi(p)|^2 on grid.momenta_sorted; integrates to 1 with weight dp."""
        return np.abs(self.momentum_wavefunction()) ** 2


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


def _density_total(grid: PointerGrid, rho: np.ndarray, weight: float) -> float:
    total = float(rho.sum() * weight)
    if total <= 0.0:
        raise InputError("density has zero total mass")
    return total


def mean_q(state) -> float:
    """Mean pointer position, by grid quadrature of the position density."""
    grid = state.grid
    rho = state.position_density()
    total = _density_total(grid, rho, grid.spacing)
    return float(np.sum(grid.points * rho) * grid.spacing / total)


def var_q(state) -> float:
    """Position variance about the mean."""
    grid = state.grid
    rho = state.position_density()
    total = _density_total(grid, rho, grid.spacing)
    mu = float(np.sum(grid.points * rho) * grid.spacing / total)
    return float(np.sum((grid.points - mu) ** 2 * rho) * grid.spacing / total)


def _momentum_density_checked(state) -> np.ndarray:
    grid = state.grid
    rho_p = state.momentum_density()
    total_q = float(state.position_density().sum() * grid.spacing)
    total_p = float(rho_p.sum() * grid.momentum_spacing)
    if abs(total_p - total_q) > NORM_TOL * max(1.0, total_q):
        raise NumericalGuardError(
            f"Parseval defect {abs(total_p - total_q):.3e} exceeds {NORM_TOL:.1e}"
        )
    return rho_p


def mean_p(state) -> float:
    """Mean pointer momentum, from the momentum-lattice density."""
    grid = state.grid
    rho = _momentum_density_checked(state)
    total = _density_total(grid, rho, grid.momentum_spacing)
    return float(np.sum(grid.momenta_sorted * rho) * grid.momentum_spacing / total)


def var_p(state) -> float:
    """Momentum variance about the mean."""
    grid = state.grid
    rho = _momentum_density_checked(state)
    total = _density_total(grid, rho, grid.momentum_spacing)
    mu = float(np.sum(grid.momenta_sorted * rho) * grid.momentum_spacing / total)
    return float(np.sum((grid.momenta_sorted - mu) ** 2 * rho) * grid.momentum_spacing / total)


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

    One branch per distinct eigenvalue cluster of the measured observable;
    branches with different eigenvalues are orthogonal in the system factor.
    """

    grid: PointerGrid
    branches: tuple[Branch, ...]
    basis: linalg.EigenDecomposition

    @property
    def system_dim(self) -> int:
        return self.basis.dim

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
        One branch per distinct eigenvalue cluster o of O, carrying the
        eigenspace projection of psi and the pointer translated by g*o.

    Raises
    ------
    GridGuardError
        If any translation g*o exceeds a quarter of the grid extent, where
        the periodic wrap-around would fold the packet back into range.
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

    base_fft = np.fft.fft(pointer.samples)
    momenta = grid.momenta
    branches = []
    for value, idx in eig.clusters():
        vecs = eig.eigenvectors[:, idx]
        amps = vecs.conj().T @ psi
        system_vec = vecs @ amps
        shifted = np.fft.ifft(base_fft * np.exp(-1j * g * value * momenta))
        branches.append(
            Branch(
                eigenvalue=value,
                system_vec=system_vec,
                pointer=PointerState(grid, shifted, _checked=True),
            )
        )
    joint = JointState(grid=grid, branches=tuple(branches), basis=eig)
    defect = abs(joint.norm() - 1.0)
    if defect > NORM_TOL:
        raise NumericalGuardError(f"coupling broke unitarity: norm defect {defect:.3e}")
    return joint


def post_select(joint: JointState, phi) -> tuple[PointerState, float]:
    """Project the system factor onto phi and renormalize the pointer.

    Returns the conditional pointer state and the post-selection
    probability (the squared norm of the unnormalized conditional
    wavefunction). Raises PostSelectionImpossibleError when the probability
    underflows below PROBABILITY_FLOOR.
    """
    phi = _require_system_state(phi, joint.system_dim)
    grid = joint.grid
    conditional = np.zeros(grid.n, dtype=complex)
    for branch in joint.branches:
        amplitude = complex(np.vdot(phi, branch.system_vec))
        if amplitude != 0.0:
            conditional += amplitude * branch.pointer.samples
    probability = float(np.sum(np.abs(conditional) ** 2) * grid.spacing)
    if probability < PROBABILITY_FLOOR:
        raise PostSelectionImpossibleError(
            f"post-selection probability {probability:.3e} underflows; "
            "the selected state is (numerically) never found"
        )
    if probability > 1.0 + NORM_TOL:
        raise NumericalGuardError(f"post-selection probability {probability} exceeds 1")
    probability = min(probability, 1.0)
    state = PointerState(grid, conditional / sqrt(probability), _checked=True)
    return state, probability


def _translated_family(pointer: PointerState, g: float, values: np.ndarray) -> np.ndarray:
    """Stack of pointer samples translated by g*value for each value."""
    grid = pointer.grid
    base_fft = np.fft.fft(pointer.samples)
    phases = np.exp(-1j * g * np.asarray(values)[:, None] * grid.momenta[None, :])
    return np.fft.ifft(base_fft[None, :] * phases, axis=1)


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
    the branch index space (product of cluster counts) is capped at
    SEQUENTIAL_INDEX_CAP. Pointer grids are never tensored together.
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
    total_indices = 1
    for m in counts:
        total_indices *= m
    if total_indices > SEQUENTIAL_INDEX_CAP:
        raise DimensionMismatchError(
            f"branch index space {total_indices} exceeds the cap {SEQUENTIAL_INDEX_CAP}"
        )

    # Amplitude tensor over branch sequences: A[i_1..i_K] = <phi| P_K ... P_1 |psi>,
    # built by projecting the running system vector cluster by cluster.
    vectors = psi[None, :]
    for vecs_k in cluster_vecs:
        projected = [
            (vk @ (vk.conj().T @ vectors.T)).T  # (n_prefix, dim) for one cluster
            for vk in vecs_k
        ]
        vectors = np.stack(projected, axis=1).reshape(-1, dim)
    amplitudes = (vectors @ phi.conj()).reshape(counts)

    families = [
        _translated_family(ptr, g, values)
        for ptr, g, values in zip(pointers, gains, cluster_values)
    ]
    overlaps = [
        fam.conj() @ fam.T * ptr.grid.spacing  # S[j, i] = <psi_j | psi_i>
        for fam, ptr in zip(families, pointers)
    ]

    k_total = len(couplings)
    idx_i = list(range(k_total))
    idx_j = list(range(k_total, 2 * k_total))

    def _contract(open_axis: int | None):
        operands = [amplitudes, idx_i, amplitudes.conj(), idx_j]
        for l in range(k_total):
            if l != open_axis:
                operands.extend([overlaps[l], [idx_j[l], idx_i[l]]])
        if open_axis is None:
            return np.einsum(*operands, [])
        return np.einsum(*operands, [idx_i[open_axis], idx_j[open_axis]])

    probability = float(np.real(_contract(None)))
    if probability < PROBABILITY_FLOOR:
        raise PostSelectionImpossibleError(
            f"post-selection probability {probability:.3e} underflows"
        )
    if probability > 1.0 + NORM_TOL:
        raise NumericalGuardError(f"post-selection probability {probability} exceeds 1")
    probability = min(probability, 1.0)

    marginals = []
    for k in range(k_total):
        weights = _contract(k)  # W[i_k, j_k]
        fam = families[k]
        grid_k = pointers[k].grid
        rho_q = np.real(np.einsum(weights, [0, 1], fam, [0, 2], fam.conj(), [1, 2], [2]))
        rho_q /= probability

        phi_fam = np.fft.fftshift(np.fft.fft(fam, axis=1), axes=1)
        phi_fam *= grid_k.spacing / sqrt(2.0 * pi)
        rho_p = np.real(
            np.einsum(weights, [0, 1], phi_fam, [0, 2], phi_fam.conj(), [1, 2], [2])
        )
        rho_p /= probability
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

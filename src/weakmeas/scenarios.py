"""Canonical pre/post-selected measurement configurations.

A Scenario bundles everything one run needs: pre- and post-selected system
states, the measured observable, the impulse coupling (g, delta), and the
pointer grid. Builders cover three families:

- ``three-box/{A,B,C,ABC}``: a particle prepared and later found in states
  that force it to be found with certainty in box A and in box B, while
  box C carries weak value -1.
- ``spin-amp/<target>``: a two-level system whose post-selection is tuned
  so the spin-z weak value equals ``target``, arbitrarily far outside the
  eigenvalue range [-1, 1]; complex targets are allowed (``spin-amp/1j``).
- ``ensemble/<n>x<target>``: n independent spins, each selected for
  per-spin weak value ``target``; the measured observable is the ensemble
  average of spin-z, whose conditional shift can exceed the pointer spread
  in a single run. The scenario holds one spin and a copy count, never a
  2^n-dimensional state or operator.

Scenario names are stable identifiers accepted by the command line, and
scenarios serialize to a documented key = value text format.
"""

from __future__ import annotations

import copy
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from . import linalg, pointer, textout, twostate
from .errors import DimensionMismatchError, InputError, ScenarioFormatError
from .pointer import CouplingConfig, PointerGrid

FORMAT_TAG = "weakmeas-scenario-1"
WEAK_VALUE_RECHECK_TOL = 1e-9
MAX_TARGET = 1e6
# Copies of one system in a scenario (the spins of an ensemble). A run's
# cost does not grow with the count, but its relative error does, as about
# n times the round-off of one copy's kernel: 3.8e-13 in probability at
# n = 1000, 1.6e-13 at n = 500, against the 1e-12 the tests hold.
MAX_ENSEMBLE_SPINS = 500


@dataclass(frozen=True)
class Scenario:
    """A named, validated measurement configuration, immutable once built.

    ``weak_value`` may be passed by a builder or a file; construction
    re-derives it from the states and observable and rejects mismatches
    beyond WEAK_VALUE_RECHECK_TOL (relative). Construction also diagonalizes
    the observable, its one Hermitian check; every run and override reuses
    that decomposition.

    ``copies`` (1 to MAX_ENSEMBLE_SPINS) makes the system that many
    independent copies of the one that pre, post and operator describe,
    measured through the mean observable (1/copies) sum_k O^(k). Its weak
    value and eigenvalue range are one copy's, its overlap is one copy's to
    the power copies, and its dimension is dim**copies.
    """

    name: str
    pre: np.ndarray
    post: np.ndarray
    operator: np.ndarray
    coupling: CouplingConfig
    grid: PointerGrid
    weak_value: complex | None = None
    copies: int = 1
    eigen: linalg.EigenDecomposition = field(init=False, repr=False, compare=False)
    _tsv: twostate.TwoStateVector = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.coupling, CouplingConfig):
            raise InputError("coupling must be a CouplingConfig")
        if not isinstance(self.grid, PointerGrid):
            raise InputError("grid must be a PointerGrid")
        if (not isinstance(self.copies, (int, np.integer)) or isinstance(self.copies, bool)
                or not 1 <= self.copies <= MAX_ENSEMBLE_SPINS):
            raise InputError(
                f"copies (the spins of an ensemble) must be an integer in "
                f"[1, {MAX_ENSEMBLE_SPINS}], got {self.copies!r}"
            )
        tsv = twostate.TwoStateVector(self.pre, self.post)
        operator = np.array(self.operator, dtype=complex)
        dim = tsv.pre.size
        if operator.shape != (dim, dim):
            raise DimensionMismatchError(
                f"operator shape {operator.shape} does not match states of dimension {dim}"
            )
        eigen = linalg.eig_hermitian(operator)
        operator.setflags(write=False)
        derived = complex(np.vdot(tsv.post, operator @ tsv.pre)) / tsv.overlap
        if self.weak_value is None:
            weak_value = derived
        else:
            weak_value = complex(self.weak_value)
            if abs(weak_value - derived) > WEAK_VALUE_RECHECK_TOL * max(1.0, abs(derived)):
                raise ScenarioFormatError(
                    f"cached weak value {weak_value} does not reproduce from the states "
                    f"(derived {derived})"
                )
        for name, value in (
            ("copies", int(self.copies)), ("_tsv", tsv), ("pre", tsv.pre), ("post", tsv.post),
            ("operator", operator), ("eigen", eigen), ("weak_value", weak_value),
        ):
            object.__setattr__(self, name, value)

    @property
    def system_dim(self) -> int:
        return self.pre.size**self.copies

    @property
    def overlap(self) -> complex:
        """<post|pre> of the whole system: one copy's to the power copies."""
        if self.copies == 1:  # z**1 would turn an imaginary part of -0.0 into 0.0
            return self._tsv.overlap
        return self._tsv.overlap**self.copies

    def initial_pointer(self) -> pointer.PointerState:
        """The width-delta Gaussian pointer, held as its closed-form spectrum."""
        return pointer.make_gaussian(self.grid, self.coupling.delta)

    def run(self) -> tuple[pointer.PointerState, float]:
        """Couple, post-select, and return the conditional pointer state
        together with the post-selection probability."""
        joint = pointer._couple(
            self.pre, self.initial_pointer(), self.eigen, self.coupling.g, self.copies
        )
        return pointer.post_select(joint, self.post)

    def fingerprint(self) -> str:
        """Hex digest identifying the full configuration."""
        return document_fingerprint(serialize_scenario(self))


def _make_grid(
    delta: float,
    g: float,
    eig_bound: float,
    wv_mag: float,
    grid_n: int,
    grid_extent: float | None,
) -> PointerGrid:
    if grid_extent is not None:
        if not (np.isfinite(grid_extent) and grid_extent > 0):
            raise InputError(f"grid extent must be positive, got {grid_extent}")
        return PointerGrid(n=grid_n, q_min=-float(grid_extent), q_max=float(grid_extent))
    # Room for the raw branch shifts plus the post-selected packet, which
    # can sit as far out as g * |weak value|.
    return pointer.default_grid(
        delta, abs(g) * eig_bound, n=grid_n, extra_margin=2.0 * abs(g) * wv_mag
    )


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _format_complex(t: complex) -> str:
    if t.imag == 0.0:
        return _format_real(t.real)
    if t.real == 0.0:
        return _format_real(t.imag) + "j"
    sign = "+" if t.imag >= 0 else "-"
    return f"{_format_real(t.real)}{sign}{_format_real(abs(t.imag))}j"


def _recoupled(scenario: Scenario, coupling: CouplingConfig, grid: PointerGrid) -> Scenario:
    """A validated scenario's copy with a new coupling and grid; the states,
    observable and decomposition are shared, not re-checked."""
    out = copy.copy(scenario)
    object.__setattr__(out, "coupling", coupling)
    object.__setattr__(out, "grid", grid)
    return out


def _three_box_scenario(key: str, diag: tuple[float, ...], weak_value: float) -> Scenario:
    return Scenario(
        name=f"three-box/{key}",
        pre=np.ones(3, dtype=complex) / np.sqrt(3.0),
        post=np.array([1.0, 1.0, -1.0], dtype=complex) / np.sqrt(3.0),
        operator=np.diag(np.asarray(diag, dtype=complex)),
        coupling=CouplingConfig(g=0.05, delta=1.0),
        grid=_make_grid(1.0, 0.05, 1.0, abs(weak_value), pointer.DEFAULT_GRID_N, None),
        weak_value=complex(weak_value),
    )


# The three-box states and projectors, validated and diagonalized once here;
# three_box copies them into each build without re-checking these constants.
_THREE_BOX = {
    key: _three_box_scenario(key, diag, weak_value)
    for key, diag, weak_value in (
        ("A", (1.0, 0.0, 0.0), 1.0),
        ("B", (0.0, 1.0, 0.0), 1.0),
        ("C", (0.0, 0.0, 1.0), -1.0),
        ("ABC", (1.0, 1.0, 1.0), 1.0),
    )
}


def three_box(
    box: str = "C",
    g: float = 0.05,
    delta: float = 1.0,
    grid_n: int = pointer.DEFAULT_GRID_N,
    grid_extent: float | None = None,
) -> Scenario:
    """Particle in three boxes with selection states (1,1,1)/sqrt(3) and
    (1,1,-1)/sqrt(3).

    The weak values of the box projectors are 1 (A), 1 (B) and -1 (C): a
    weakly probed particle is certainly in A, certainly in B, and acts on
    box C with the opposite sign. ``box`` picks the probed projector, or
    ``ABC`` for their sum (the identity, weak value 1). ``grid_extent`` is
    a half-extent e: the grid becomes [-e, e].
    """
    key = box.upper()
    if key not in _THREE_BOX:
        raise ScenarioFormatError(f"unknown box {box!r}; choose A, B, C or ABC")
    grid = _make_grid(delta, g, 1.0, abs(_THREE_BOX[key].weak_value), grid_n, grid_extent)
    return _recoupled(_THREE_BOX[key], CouplingConfig(g=float(g), delta=float(delta)), grid)


def _spin_post_ket(target: complex) -> np.ndarray:
    # The bra components proportional to (1 + t, 1 - t) pin the spin-z weak
    # value to exactly t; the stored ket is their conjugate.
    raw = np.conj(np.array([1.0 + target, 1.0 - target], dtype=complex))
    return raw / np.linalg.norm(raw)


def spin_amplification(
    target,
    g: float = 1.0,
    delta: float = 1000.0,
    grid_n: int = pointer.DEFAULT_GRID_N,
    grid_extent: float | None = None,
) -> Scenario:
    """Two-level system post-selected so the spin-z weak value is ``target``.

    Preparation (1, 1)/sqrt(2); post-selection proportional (as a bra) to
    (target + 1, 1 - target). Large |target| makes the selection rare,
    acceptance probability 1/(1 + |target|^2), and moves the conditional
    pointer far outside the eigenvalue range [-1, 1]. ``grid_extent`` is a
    half-extent e: the grid becomes [-e, e].
    """
    t = complex(target)
    if not (np.isfinite(t.real) and np.isfinite(t.imag)):
        raise InputError("target must be finite")
    if abs(t) > MAX_TARGET:
        raise InputError(f"|target| = {abs(t):.3e} exceeds the supported cap {MAX_TARGET:.0e}")
    pre = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    post = _spin_post_ket(t)
    operator = np.diag(np.array([1.0, -1.0], dtype=complex))
    return Scenario(
        name=f"spin-amp/{_format_complex(t)}",
        pre=pre,
        post=post,
        operator=operator,
        coupling=CouplingConfig(g=float(g), delta=float(delta)),
        grid=_make_grid(delta, g, 1.0, abs(t), grid_n, grid_extent),
        weak_value=t,
    )


def ensemble_average(
    n_spins: int,
    per_spin_target: float,
    g: float = 0.5,
    delta: float | None = None,
    grid_n: int = pointer.DEFAULT_GRID_N,
    grid_extent: float | None = None,
) -> Scenario:
    """n independent spins, probed through the ensemble average of spin-z.

    Each spin is prepared in (1, 1)/sqrt(2) and post-selected for per-spin
    weak value ``per_spin_target``; by linearity the averaged observable
    (1/n) sum_k sigma_z^(k) has the same weak value. Its eigenvalues stay
    in [-1, 1] while the branch spacing shrinks as 1/n, so a single run
    with delta of order g already shows a conditional shift beyond the
    pointer spread. ``delta`` defaults to 2*|g|. The scenario is one spin
    with copies = n (at most MAX_ENSEMBLE_SPINS). ``grid_extent`` is a
    half-extent e: the grid becomes [-e, e].
    """
    if not isinstance(n_spins, (int, np.integer)) or isinstance(n_spins, bool):
        raise InputError("n_spins must be an integer")
    if n_spins < 2:
        raise InputError(f"n_spins must be at least 2, got {n_spins}")
    n = int(n_spins)
    t = float(per_spin_target)
    if not np.isfinite(t):
        raise InputError("per_spin_target must be finite")
    if abs(t) > MAX_TARGET:
        raise InputError(f"|per_spin_target| exceeds the supported cap {MAX_TARGET:.0e}")
    if delta is None:
        delta = 2.0 * abs(g) if g != 0.0 else 1.0
    return Scenario(
        name=f"ensemble/{n}x{_format_real(t)}",
        pre=np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
        post=_spin_post_ket(complex(t)),
        operator=np.diag(np.array([1.0, -1.0], dtype=complex)),
        coupling=CouplingConfig(g=float(g), delta=float(delta)),
        grid=_make_grid(delta, g, 1.0, abs(t), grid_n, grid_extent),
        weak_value=complex(t),
        copies=n,
    )


def with_overrides(
    scenario: Scenario,
    g: float | None = None,
    delta: float | None = None,
    grid_n: int | None = None,
    grid_extent: float | None = None,
) -> Scenario:
    """Copy a scenario with some run parameters replaced.

    The copy shares the validated states, observable and spectral
    decomposition. Its grid is re-derived by the default sizing policy
    unless ``grid_extent``, a half-extent e, pins it to [-e, e].
    ``PointerGrid.extent`` is the full width q_max - q_min, so passing a
    grid's ``extent`` back doubles the grid.
    """
    if g is None and delta is None and grid_n is None and grid_extent is None:
        return scenario
    new_g = scenario.coupling.g if g is None else float(g)
    new_delta = scenario.coupling.delta if delta is None else float(delta)
    n = scenario.grid.n if grid_n is None else int(grid_n)
    eig_bound = float(np.max(np.abs(scenario.eigen.eigenvalues)))
    grid = _make_grid(new_delta, new_g, eig_bound, abs(scenario.weak_value), n, grid_extent)
    return _recoupled(scenario, CouplingConfig(g=new_g, delta=new_delta), grid)


def resolve(
    ref: str,
    g: float | None = None,
    delta: float | None = None,
    grid_n: int | None = None,
    grid_extent: float | None = None,
) -> Scenario:
    """Build a scenario from a registry name or a scenario file path.

    Registry forms: ``three-box/<A|B|C|ABC>``, ``spin-amp/<target>`` with a
    real or complex target literal, ``ensemble/<n>x<target>``. The
    overrides are those of with_overrides: ``grid_extent`` is a half-extent
    e, and the grid becomes [-e, e].
    """
    if os.path.exists(ref):
        return with_overrides(load_scenario(ref), g, delta, grid_n, grid_extent)
    family, _, param = ref.partition("/")
    kwargs: dict = {}
    if g is not None:
        kwargs["g"] = g
    if delta is not None:
        kwargs["delta"] = delta
    if grid_n is not None:
        kwargs["grid_n"] = int(grid_n)
    if grid_extent is not None:
        kwargs["grid_extent"] = grid_extent
    if family == "three-box" and param:
        return three_box(param, **kwargs)
    if family == "spin-amp" and param:
        try:
            target = complex(param)
        except ValueError as exc:
            raise ScenarioFormatError(f"cannot parse spin-amp target {param!r}") from exc
        return spin_amplification(target, **kwargs)
    if family == "ensemble" and param:
        head, sep, tail = param.partition("x")
        if not sep:
            raise ScenarioFormatError(
                f"ensemble reference needs the form ensemble/<n>x<target>, got {ref!r}"
            )
        try:
            n_spins = int(head)
            target = float(tail)
        except ValueError as exc:
            raise ScenarioFormatError(f"cannot parse ensemble reference {ref!r}") from exc
        return ensemble_average(n_spins, target, **kwargs)
    raise ScenarioFormatError(
        f"unknown scenario reference {ref!r} (not a registry name or an existing file)"
    )


def _format_amplitudes(v: np.ndarray) -> str:
    return " ".join(textout.format_value(complex(z)) for z in v)


def _parse_complex(token: str) -> complex:
    re_s, _, im_s = token.partition(",")
    try:
        return complex(float(re_s), float(im_s or "0"))
    except ValueError as exc:
        raise ScenarioFormatError(f"cannot parse complex entry {token!r}") from exc


def _parse_amplitudes(text: str) -> np.ndarray:
    return np.array([_parse_complex(tok) for tok in text.split()], dtype=complex)


def document_fingerprint(document: str) -> str:
    """Scenario.fingerprint of the scenario that serialize_scenario rendered
    as ``document``: the SHA-256 hex digest of its UTF-8 bytes."""
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario as a key = value document.

    All floats carry 17 significant digits, so parse_scenario reproduces
    the configuration bit-exactly. ``system_dim`` is the dimension of the
    pre, post and operator arrays, one copy's; a ``copies`` line follows it
    only when copies > 1, so the document's size does not grow with the
    count.
    """
    fields = {
        "format": FORMAT_TAG,
        "name": scenario.name,
        "system_dim": scenario.pre.size,
    }
    if scenario.copies > 1:
        fields["copies"] = scenario.copies
    fields |= {
        "g": scenario.coupling.g,
        "delta": scenario.coupling.delta,
        "grid_n": scenario.grid.n,
        "grid_q_min": scenario.grid.q_min,
        "grid_q_max": scenario.grid.q_max,
        "weak_value": scenario.weak_value,
        "pre": _format_amplitudes(scenario.pre),
        "post": _format_amplitudes(scenario.post),
        "operator": _format_amplitudes(scenario.operator.reshape(-1)),
    }
    return textout.render_keyvalues(fields)


def parse_scenario(text: str) -> Scenario:
    """Parse a serialized scenario document; validates all invariants."""
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioFormatError(f"malformed scenario line {raw!r}")
        entries[key.strip()] = value.strip()

    required = [
        "format",
        "name",
        "system_dim",
        "g",
        "delta",
        "grid_n",
        "grid_q_min",
        "grid_q_max",
        "weak_value",
        "pre",
        "post",
        "operator",
    ]
    missing = [key for key in required if key not in entries]
    if missing:
        raise ScenarioFormatError(f"scenario document missing keys: {', '.join(missing)}")
    if entries["format"] != FORMAT_TAG:
        raise ScenarioFormatError(f"unsupported scenario format {entries['format']!r}")

    try:
        dim = int(entries["system_dim"])
        copies = int(entries.get("copies", "1"))
        coupling = CouplingConfig(g=float(entries["g"]), delta=float(entries["delta"]))
        grid = PointerGrid(
            n=int(entries["grid_n"]),
            q_min=float(entries["grid_q_min"]),
            q_max=float(entries["grid_q_max"]),
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"malformed scenario scalars: {exc}") from exc
    if copies < 1:
        raise ScenarioFormatError(f"copies must be a positive integer, got {copies}")

    pre = _parse_amplitudes(entries["pre"])
    post = _parse_amplitudes(entries["post"])
    flat = _parse_amplitudes(entries["operator"])
    if pre.size != dim or post.size != dim or flat.size != dim * dim:
        raise ScenarioFormatError(
            f"scenario arrays do not match system_dim = {dim}: "
            f"pre {pre.size}, post {post.size}, operator {flat.size}"
        )
    return Scenario(
        name=entries["name"],
        pre=pre,
        post=post,
        operator=flat.reshape(dim, dim),
        coupling=coupling,
        grid=grid,
        weak_value=_parse_complex(entries["weak_value"]),
        copies=copies,
    )


def load_scenario(path) -> Scenario:
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def save_scenario(scenario: Scenario, path) -> None:
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(scenario))

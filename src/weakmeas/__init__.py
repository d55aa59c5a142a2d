"""weakmeas: weak measurements on pre- and post-selected quantum systems.

The package simulates the von Neumann measurement model in the weak-coupling
regime: a system observable couples impulsively to a Gaussian pointer, the
system is post-selected, and the conditional pointer state records the weak
value through its position and momentum shifts. Conventions: hbar = 1, and a
pointer of width delta has position variance delta**2 / 2.
"""

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    GridGuardError,
    InputError,
    NonHermitianError,
    NumericalGuardError,
    OrthogonalSelectionError,
    PhysicsUndefinedError,
    PostSelectionImpossibleError,
    ScenarioFormatError,
    SweepSpecError,
    WeakMeasError,
    ZeroAcceptedError,
)
from .linalg import EigenDecomposition, eig_hermitian, require_hermitian
from .montecarlo import (
    EstimateReport,
    RunRecord,
    TrialColumns,
    estimate_from_records,
    estimate_weak_value,
    run_records,
    sample_run,
)
from .pointer import (
    CouplingConfig,
    JointState,
    MixedPointerState,
    PointerGrid,
    PointerState,
    couple,
    default_grid,
    gaussian_fidelity,
    make_gaussian,
    moments,
    post_select,
    sequential_couple,
)
from .scenarios import (
    Scenario,
    ensemble_average,
    load_scenario,
    parse_scenario,
    resolve,
    save_scenario,
    serialize_scenario,
    spin_amplification,
    three_box,
    with_overrides,
)
from .twostate import TwoStateVector, eigen_probabilities, expectation, weak_value

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CouplingConfig",
    "DimensionMismatchError",
    "EigenDecomposition",
    "EstimateReport",
    "GridGuardError",
    "InputError",
    "JointState",
    "MixedPointerState",
    "NonHermitianError",
    "NumericalGuardError",
    "OrthogonalSelectionError",
    "PhysicsUndefinedError",
    "PointerGrid",
    "PointerState",
    "PostSelectionImpossibleError",
    "RunRecord",
    "Scenario",
    "ScenarioFormatError",
    "SweepSpecError",
    "TrialColumns",
    "TwoStateVector",
    "WeakMeasError",
    "ZeroAcceptedError",
    "__version__",
    "couple",
    "default_grid",
    "eig_hermitian",
    "eigen_probabilities",
    "ensemble_average",
    "estimate_from_records",
    "estimate_weak_value",
    "expectation",
    "gaussian_fidelity",
    "load_scenario",
    "make_gaussian",
    "moments",
    "parse_scenario",
    "post_select",
    "require_hermitian",
    "resolve",
    "run_records",
    "sample_run",
    "save_scenario",
    "sequential_couple",
    "serialize_scenario",
    "spin_amplification",
    "three_box",
    "weak_value",
    "with_overrides",
]

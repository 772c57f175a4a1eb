"""Sticky-particle simulation of 1-D alignment dynamics, with a static
clustering predictor and a verification harness."""

from .exceptions import (
    ConfigError,
    InvalidEnsembleError,
    InvalidScenarioError,
    KernelRangeError,
    NumericalAbortError,
    RecordIOError,
    SingularKernelError,
    StickyAlignError,
)
from .kernels import (
    AllToAll,
    CompactBump,
    Exponential,
    Kernel,
    PowerLaw,
    Zero,
    kernel_from_config,
    kernel_to_config,
)
from .ensemble import Ensemble, QuantileFunction, natural_velocities
from .monotone import (
    PiecewiseLinear,
    cumulative_primitive,
    lower_convex_envelope,
    project_monotone,
)
from .metrics import energy, metric_D, modulus_bound, velocity_semidistance, wasserstein
from .flux import (
    FluxAnalysis,
    FlockingThresholds,
    Forecast,
    Regime,
    RegionLabel,
    analyze,
    build_flux,
    flocking_thresholds,
    predicted_partition,
    separation_bound,
)
from .dynamics import (
    MergeEvent,
    SimulationRecord,
    StepResult,
    Tolerances,
    drift,
    simulate,
    step,
)
from .records import load_record, save_flux_analysis, save_record

__version__ = "0.1.0"

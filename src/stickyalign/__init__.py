"""Sticky-particle simulation of 1-D alignment dynamics, with a static
clustering predictor and a verification harness."""

from .exceptions import (
    ConfigError,
    InvalidEnsembleError,
    InvalidScenarioError,
    KernelRangeError,
    NumericalAbortError,
    RecordIOError,
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
from .ensemble import Ensemble, QuantileFunction
from .monotone import (
    PiecewiseLinear,
    cumulative_primitive,
    lower_convex_envelope,
    project_monotone,
)
from .metrics import energy, velocity_semidistance, wasserstein
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
)
from .dynamics import (
    MergeEvent,
    SimulationRecord,
    Tolerances,
    simulate,
)
from .records import load_record, save_flux_analysis, save_record

__version__ = "0.1.0"

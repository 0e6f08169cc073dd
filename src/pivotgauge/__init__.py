"""Incipient-slip-aware rotation measurement for marker-based tactile sensing.

The pipeline turns per-marker displacement fields into pivot-rotation
estimates by segmenting the sticking part of the contact patch from its
slipping fringe and averaging line-feature angles only over the stick
region. A synthetic contact simulator with full ground truth, a
least-squares baseline and an experiment harness round out the package.
"""

from .config import FullConfig, HarnessConfig, load_config, three_lift_scenario
from .core import (
    ConfigError,
    ContactMask,
    ContactState,
    Frame,
    InsufficientDataError,
    LineFeatureAngles,
    MarkerGrid,
    RotationEstimate,
    SoftnessParams,
    StickRegion,
    UsageError,
)
from .estimation import (
    EstimatorState,
    RotationPipeline,
    baseline_least_squares,
    estimate_frame,
    estimate_rotation,
    filter_step,
)
from .features import half_curl, line_feature_angles, normalized_angle_difference
from .harness import (
    CompareReport,
    DynamicResult,
    SweepReport,
    compare_estimators,
    estimate_from_stream,
    run_dynamic,
    run_static_sweep,
)
from .segmentation import SegmentationConfig, detect_contact, grow_stick_region
from .simulate import (
    GroundTruth,
    PiecewiseLinear,
    SimScenario,
    analytic_local_rotation,
    generate_frame,
    generate_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "CompareReport",
    "ConfigError",
    "ContactMask",
    "ContactState",
    "DynamicResult",
    "EstimatorState",
    "Frame",
    "FullConfig",
    "GroundTruth",
    "HarnessConfig",
    "InsufficientDataError",
    "LineFeatureAngles",
    "MarkerGrid",
    "PiecewiseLinear",
    "RotationEstimate",
    "RotationPipeline",
    "SegmentationConfig",
    "SimScenario",
    "SoftnessParams",
    "StickRegion",
    "SweepReport",
    "UsageError",
    "analytic_local_rotation",
    "baseline_least_squares",
    "compare_estimators",
    "detect_contact",
    "estimate_frame",
    "estimate_from_stream",
    "estimate_rotation",
    "filter_step",
    "generate_frame",
    "generate_trajectory",
    "grow_stick_region",
    "half_curl",
    "line_feature_angles",
    "load_config",
    "normalized_angle_difference",
    "run_dynamic",
    "run_static_sweep",
    "three_lift_scenario",
]

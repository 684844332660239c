"""Numerical laboratory for complex-contracting skew products over b-adic expansion."""

from .params import NAMED_IRRATIONALS, SystemParams, TrigPoly
from .gridmeasure import GridMeasure, dump_measure, load_measure, measure_from_points
from .fiber import FiberMeasureSpec, build_fiber_measure, depth_for_resolution
from .entropy import conditional_entropy, entropy_profile, porosity_check
from .projection import conservation_estimate, project_measure, projection_entropy_sweep
from .dimension import box_dimension, fiber_dimension, generate_attractor

__version__ = "0.1.0"

__all__ = [
    "NAMED_IRRATIONALS",
    "SystemParams",
    "TrigPoly",
    "GridMeasure",
    "dump_measure",
    "load_measure",
    "measure_from_points",
    "FiberMeasureSpec",
    "build_fiber_measure",
    "depth_for_resolution",
    "conditional_entropy",
    "entropy_profile",
    "porosity_check",
    "conservation_estimate",
    "project_measure",
    "projection_entropy_sweep",
    "box_dimension",
    "fiber_dimension",
    "generate_attractor",
    "__version__",
]

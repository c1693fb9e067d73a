"""Numerical toolkit for anisotropic phase-space localization.

Modules: metric (anisotropic metric families), partition (dyadic nets and
microlocalizers), quantize (discrete Weyl calculus), moyal (truncated star
products), recombine (Cotlar-Stein bookkeeping), parametrix (bandwise
approximate inverses), radon (2D Radon transform and block scaling), cli
(experiment harness).
"""

from . import backend
from .grids import GridSpec, GridSymbol, sample_on
from .metric import MetricField, conformal_field, identity_field

__version__ = "0.1.0"

__all__ = [
    "backend",
    "GridSpec",
    "GridSymbol",
    "sample_on",
    "MetricField",
    "identity_field",
    "conformal_field",
    "__version__",
]

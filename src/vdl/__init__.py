"""Decoherence kernel laboratory for a suddenly switched dipole between
conducting plates: closed-form series, brute-force oracles, a discrete
mode simulator and experimental feasibility estimates."""

__version__ = "0.1.0"

from .errors import CapabilityError, ConvergenceError
from .kernel import (
    DecoherenceResult,
    DimensionlessParams,
    SeriesPolicy,
    decoherence_kernel,
    kernel_at_plates,
    kernel_no_cutoff,
    kernel_term,
)
from .specfun import angular_kernel_j, ci, cin
from .modesum import (
    exponent_general_n,
    m0_term,
    radial_integral_m,
    switching_spectrum,
)
from .cavityfield import (
    CoherentAmplitude,
    DipoleProfile,
    ModeGrid,
    amplitude,
    overlap,
    overlap_excluding_free_space,
)
from .feasibility import (
    CavityConfig,
    FeasibilityReport,
    LaserConfig,
    MoleculeSpec,
    full_report,
)

__all__ = [
    "__version__",
    "CapabilityError",
    "ConvergenceError",
    "DecoherenceResult",
    "DimensionlessParams",
    "SeriesPolicy",
    "decoherence_kernel",
    "kernel_at_plates",
    "kernel_no_cutoff",
    "kernel_term",
    "angular_kernel_j",
    "ci",
    "cin",
    "exponent_general_n",
    "m0_term",
    "radial_integral_m",
    "switching_spectrum",
    "CoherentAmplitude",
    "DipoleProfile",
    "ModeGrid",
    "amplitude",
    "overlap",
    "overlap_excluding_free_space",
    "CavityConfig",
    "FeasibilityReport",
    "LaserConfig",
    "MoleculeSpec",
    "full_report",
]

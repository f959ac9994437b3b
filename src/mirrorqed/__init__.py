"""Spontaneous decay of a dipole emitter near partially transparent mirrors.

Computes the decay ratio Gamma / Gamma_free for an emitter in free
space, in front of a single mirror, and centered between two mirrors,
with every closed form checked against an independent solid-angle
quadrature, plus master-equation and quantum-jump dynamics of the
associated atom-cavity model. The mirrorqed console script exposes
sweeps, figure data, and a self-validation suite.
"""

__version__ = "0.1.0"

from .cavity import (CavitySpec, SeriesControl, default_n_max,
                     gamma_cavity_quadrature, gamma_cavity_series,
                     gamma_subwavelength_2nd, gamma_subwavelength_limit)
from .dynamics import (AtomCavityState, DiscrepancyResult, JCTrajectory,
                       ModelParams, TrajectoryEnsemble, cooperativity,
                       coupling_regime, effective_decay_rate, evolve_jc,
                       evolve_single_rate, fit_decay_rate,
                       model_discrepancy, unravel_jumps)
from .errors import (ConfigError, DegenerateMirror, InvalidParams,
                     MirrorQEDError, NonConvergence, StepTooLarge,
                     TailTooLarge, TruncationLeak)
from .freespace import EmitterSpec, gamma_free_quadrature, gamma_free_si
from .geometry import (DipoleOrientation, solid_angle_integrate,
                       transverse_weight_sum)
from .kernels import f_envelope, f_kernel, interference_kernel
from .mirror import gamma_mirror_closed, gamma_mirror_quadrature
from .results import METHODS, RateGrid, RateResult
from .sweeps import (FIGURE_IDS, Range, SweepConfig, dump_config,
                     parse_config_file, reproduce_figure, run_sweep)
from .validation import ValidationReport, run_validation

__all__ = [
    "__version__",
    "CavitySpec", "SeriesControl", "default_n_max",
    "gamma_cavity_quadrature", "gamma_cavity_series",
    "gamma_subwavelength_2nd", "gamma_subwavelength_limit",
    "AtomCavityState", "DiscrepancyResult", "JCTrajectory", "ModelParams",
    "TrajectoryEnsemble", "cooperativity", "coupling_regime",
    "effective_decay_rate", "evolve_jc", "evolve_single_rate",
    "fit_decay_rate", "model_discrepancy", "unravel_jumps",
    "ConfigError", "DegenerateMirror", "InvalidParams", "MirrorQEDError",
    "NonConvergence", "StepTooLarge", "TailTooLarge", "TruncationLeak",
    "EmitterSpec", "gamma_free_quadrature", "gamma_free_si",
    "DipoleOrientation", "solid_angle_integrate", "transverse_weight_sum",
    "f_envelope", "f_kernel", "interference_kernel",
    "gamma_mirror_closed", "gamma_mirror_quadrature",
    "METHODS", "RateGrid", "RateResult",
    "FIGURE_IDS", "Range", "SweepConfig", "dump_config",
    "parse_config_file", "reproduce_figure", "run_sweep",
    "ValidationReport", "run_validation",
]

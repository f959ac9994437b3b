"""Spontaneous decay of a dipole emitter near partially transparent mirrors.

Computes the decay ratio Gamma / Gamma_free for an emitter in free
space, in front of a single mirror, and centered between two mirrors,
with every closed form checked against an independent solid-angle
quadrature, plus master-equation and quantum-jump dynamics of the
associated atom-cavity model. The mirrorqed console script exposes
sweeps, figure data, and a self-validation suite.

The public names below are imported from their modules on first use
(PEP 562), so ``import mirrorqed`` and each CLI subcommand load only the
modules they need.
"""

import importlib

__version__ = "0.1.0"

# home module of every public name
_EXPORTS = {
    "cavity": ("default_n_max", "gamma_cavity_quadrature",
               "gamma_cavity_series", "gamma_subwavelength_2nd",
               "gamma_subwavelength_limit"),
    "dynamics": ("AtomCavityState", "DiscrepancyResult", "JCTrajectory",
                 "ModelParams", "TrajectoryEnsemble", "cooperativity",
                 "coupling_regime", "effective_decay_rate", "evolve_jc",
                 "evolve_single_rate", "fit_decay_rate",
                 "model_discrepancy", "unravel_jumps"),
    "errors": ("ConfigError", "DegenerateMirror", "InvalidParams",
               "MirrorQEDError", "NonConvergence", "StepTooLarge",
               "TailTooLarge", "TruncationLeak"),
    "freespace": ("EmitterSpec", "gamma_free_quadrature", "gamma_free_si"),
    "geometry": ("DipoleOrientation", "solid_angle_integrate",
                 "transverse_weight_sum"),
    "kernels": ("f_envelope", "f_kernel", "interference_kernel"),
    "mirror": ("gamma_mirror_closed", "gamma_mirror_quadrature"),
    "results": ("METHODS", "RateResult"),
    "sweeps": ("FIGURE_IDS", "Range", "SweepConfig", "dump_config",
               "parse_config_file", "reproduce_figure", "run_sweep"),
    "validation": ("ValidationReport", "run_validation"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

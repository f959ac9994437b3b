"""Names, units and directions of the benchmark's metrics.

BENCHMARK.json lists the same metrics; test_perfbench.py keeps the two
in step.
"""

#: (name, unit, better) of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

#: The named regimes of quadrature_regimes.
REGIMES = ("contact", "resonant", "high_finesse", "optical")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("sweeps.run_sweep.self_us_per_cell", "us", "lower"),
    ("sweeps.csv_bytes_per_row", "B", "lower"),
    ("kernels.f_kernel.calls_per_cell", "count", "lower"),
    ("kernels.f_kernel.ns_per_element", "ns", "lower"),
    ("kernels.interference_kernel.elements", "count", "lower"),
    ("kernels.interference_kernel.ns_per_element", "ns", "lower"),
    ("geometry.solid_angle_integrate.ms_per_call", "ms", "lower"),
    ("geometry.solid_angle_integrate.self_ms_per_call", "ms", "lower"),
    ("geometry.solid_angle_integrate.evals_per_call", "count", "lower"),
    ("geometry.solid_angle_integrate.levels_per_call", "count", "lower"),
    ("geometry.solid_angle_integrate.useful_eval_ratio", "ratio", "higher"),
    ("geometry.transverse_weight_sum.ns_per_element", "ns", "lower"),
    ("mirror.gamma_mirror_closed.us_per_call", "us", "lower"),
    ("mirror.gamma_mirror_quadrature.ms_per_call", "ms", "lower"),
    *((f"cavity.gamma_cavity_quadrature.ms_per_call.{r}", "ms", "lower")
      for r in REGIMES),
    *((f"cavity.gamma_cavity_quadrature.evals_per_call.{r}", "count",
       "lower") for r in REGIMES),
    *((f"cavity.gamma_cavity_series.us_per_call.{r}", "us", "lower")
      for r in (*REGIMES, "dense")),
    *((f"cavity.gamma_cavity_series.terms_per_call.{r}", "count", "lower")
      for r in ("high_finesse", "optical")),
    ("cavity.gamma_subwavelength_2nd.us_per_call", "us", "lower"),
    ("freespace.gamma_free_quadrature.ms_per_call", "ms", "lower"),
    *((f"dynamics.model_discrepancy.ms_per_output.{m}", "ms", "lower")
      for m in ("weak", "strong")),
    ("dynamics.evolve_jc.ms_per_call", "ms", "lower"),
    ("dynamics.evolve_jc.result_mb", "MB", "lower"),
    ("dynamics.unravel_jumps.us_per_traj", "us", "lower"),
    ("validation.run_validation.self_s", "s", "lower"),
]

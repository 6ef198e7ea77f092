"""For each per-layer metric of BENCHMARK.json, the end-to-end metric it
should move and on which workload. BENCHMARK.json holds every metric's name,
unit and better direction; its fixed keys leave no room for this map."""

_SWEEP = "cli_aligned_sweep"
_EFF = "cli_estimate_efficient"
_MC = "mc_study_slice"
_ENGINE = f"op_p50_s@{_EFF}, ops_per_s@{_MC}"
_SWEEP_LAT = f"op_p50_s, op_p90_s@{_SWEEP}"

MOVES = {
    "cli.ingest_csv_s": _SWEEP_LAT + f" (<2% of {_EFF})",
    "cli.ingest_rows_per_s": _SWEEP_LAT,
    "cli.parse_config_s": _SWEEP_LAT,
    "cli.main_self_s": _SWEEP_LAT,
    "model.validate_design_s": "negligible everywhere; kept so a regression shows",
    "estimator.one_step_estimate_self_s": f"op_p50_s@{_SWEEP}",
    "nuisance.fit_s": f"op_p50_s@{_SWEEP}",
    "nuisance.panel_bytes": "peak_rss_mb@all",
    "gradients.seed_s": f"op_p50_s@{_SWEEP}",
    "gradients.aligned_only_s": f"op_p50_s@{_SWEEP}",
    "gradients.compute_pass_calls": _ENGINE + f" (0 on {_SWEEP})",
    "gradients.compute_pass_misses": _ENGINE + f" (0 on {_SWEEP})",
    "gradients.compute_pass_self_s": _ENGINE,
    "gradients.efficient_gradient_self_s": _ENGINE,
    "betafit.moment_match_s": _ENGINE,
    "betafit.mm_iterations": _ENGINE,
    "betafit.mm_s_per_iter": _ENGINE,
    "betafit.one_step_beta_self_s": _ENGINE,
    "betafit.information_matrix_self_s": _ENGINE,
    "simulation.generate_dataset_s": f"ops_per_s@{_MC}",
    "simulation.replicate_s": f"ops_per_s@{_MC}",
    "simulation.parallel_eff": f"ops_per_s@{_MC} only",
    "simulation.flag_divergent_reps": "none: threaded flags race, not a failure",
    "trace.overhead_s_per_op": "none: cost of tracing itself",
    "trace.sites_missing": "none: wrap-table sites not found",
}

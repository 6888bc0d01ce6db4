//! The OSR row (arXiv 2401.05642): known answers and the pinned
//! reversal-only race, every SyncP race kept by OSR (10k seeds across the
//! tiny families), witnesses under the reversal validator, oracle
//! soundness, and OSR through STB and an `EnginePool`.
//!
//! Each test runs the slice of the differential harness
//! (`tests/support/differential.rs`) listed under its name.

#[path = "support/differential.rs"]
mod harness;

harness::slices!(
    engine_pool_osr_lane_matches_offline,
    every_osr_race_on_tiny_traces_is_vindicated,
    paper_figures_known_answers,
    reversal_trace_is_the_pinned_osr_only_race,
    stb_round_trip_preserves_osr_report,
    syncp_subset_osr_on_random_traces,
    syncp_subset_osr_sweep_over_10k_seeds,
);

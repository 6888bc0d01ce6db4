//! SmartTrack's optimizations change cost, not races (§5.1): the rows of
//! one relation agree up to the first race on the known-answer table,
//! calibrated profiles and random traces, and graph-recording cells equal
//! their plain twins bit for bit. An epoch row may name fewer prior threads
//! than its Unopt row, never others.
//!
//! Each test runs the slice of the differential harness
//! (`tests/support/differential.rs`) listed under its name.

#[path = "support/differential.rs"]
mod harness;

harness::slices!(
    calibrated_workloads_agree_across_levels_and_paths,
    epoch_rows_may_name_fewer_prior_threads,
    graph_variants_match_plain_unopt_reports,
    paper_figures_agree_across_levels_and_paths,
    randomized_traces_agree_across_levels_and_paths,
);

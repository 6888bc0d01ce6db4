//! The engine's ingestion styles reproduce `run_detector`: `feed`,
//! `feed_batch` and `feed_trace` sessions on the paper figures, calibrated
//! profiles and random traces, and a fan-out session whose race sink must
//! deliver exactly the final reports' races.
//!
//! Each test runs the slice of the differential harness
//! (`tests/support/differential.rs`) listed under its name.

#[path = "support/differential.rs"]
mod harness;

harness::slices!(
    all_paper_figures_agree_across_ingestion_styles,
    calibrated_workload_traces_agree_across_ingestion_styles,
    randomized_traces_agree_across_ingestion_styles,
    sink_delivery_matches_final_report,
);

//! Streamed ingest reproduces whole-trace analysis: native text, STB
//! through `StbReader` and byte-chunked `StbAssembler` on the paper
//! figures, calibrated profiles and random traces, and `analyze` and a
//! single-analysis `StbReader` session closed with `finish_one` on every
//! source.
//!
//! Each test runs the slice of the differential harness
//! (`tests/support/differential.rs`) listed under its name.

#[path = "support/differential.rs"]
mod harness;

harness::slices!(
    calibrated_workloads_report_identically_streamed_and_whole,
    paper_figures_report_identically_streamed_and_whole,
    randomized_traces_report_identically_streamed_and_whole,
    single_analysis_streamed_outcome_matches_legacy_analyze,
);

//! The paper's figures: every Table-1 cell's detection matrix, Figure 1's
//! race at the final write to x, race locations across optimization
//! levels, and static ≤ dynamic race counts.
//!
//! Each test runs the slice of the differential harness
//! (`tests/support/differential.rs`) listed under its name.

#[path = "support/differential.rs"]
mod harness;

harness::slices!(
    detection_matrix_matches_paper,
    dynamic_and_static_counts_are_consistent,
    figure1_race_is_on_x_at_the_final_write,
    race_location_is_stable_across_optimization_levels,
);

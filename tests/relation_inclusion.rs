//! The relation hierarchy (§2.4, §3): HB ⊆ WCP ⊆ DC ⊆ WDC at the first
//! race, one relation on lock-free traces, level agreement on tiny traces
//! and graph recording that changes no report.
//!
//! Each test runs the slice of the differential harness
//! (`tests/support/differential.rs`) listed under its name.

#[path = "support/differential.rs"]
mod harness;

harness::slices!(
    graph_recording_is_observationally_pure,
    optimization_levels_agree_up_to_first_race,
    race_sets_grow_down_the_hierarchy,
    without_locks_all_relations_agree,
);

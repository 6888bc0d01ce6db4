//! Reader-writer locks and failed trylocks: level agreement, STB v3 round
//! trips, both inclusion chains, witness validity and oracle soundness on
//! random rwlock traces, and overlapping read sections racing in every
//! cell.
//!
//! Each test runs the slice of the differential harness
//! (`tests/support/differential.rs`) listed under its name.

#[path = "support/differential.rs"]
mod harness;

harness::slices!(
    all_paths_and_levels_agree_on_rwlock_traces,
    overlapping_read_sections_race_in_every_cell,
    relation_inclusion_holds_with_rwlock_ops,
    stb_v3_round_trip_preserves_reports,
    vindication_and_oracle_agree_on_rwlock_traces,
);

//! Condition variables, barriers and the alias ops: level agreement and
//! oracle soundness on random sync traces, STB and nfa→ntf / acqw→acq
//! rewrite round trips, and the known condvar and barrier shapes.
//!
//! Each test runs the slice of the differential harness
//! (`tests/support/differential.rs`) listed under its name.

#[path = "support/differential.rs"]
mod harness;

harness::slices!(
    alias_ops_rewrite_to_their_canonical_ops,
    oracle_agrees_on_tiny_sync_traces,
    randomized_sync_traces_agree_everywhere,
    stb_v2_round_trip_preserves_reports,
);

/// Hand-built condvar and barrier shapes, the condsync profile's calibrated
/// race mix, and level agreement on pinned sync seeds.
mod known_patterns {
    super::harness::slices!(
        barrier_phases_order_across_not_within_in_all_14_cells,
        condsync_workload_matches_its_expected_race_mix,
        condvar_handoff_is_race_free_in_all_14_cells,
        pinned_seeds_agree_everywhere,
        post_notify_write_races_in_all_14_cells,
        race_inside_an_open_barrier_round_agrees_everywhere,
    );
}

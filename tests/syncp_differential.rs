//! The SyncP row (arXiv 2010.16385): known answers and the Figure 1(b)
//! witness, HB ⊆ SyncP, witnesses under the base and the strict validator,
//! oracle soundness, the calibrated predictable race mix, and SyncP through
//! STB, an `EnginePool` and a session beside an `OnlineLane`.
//!
//! Each test runs the slice of the differential harness
//! (`tests/support/differential.rs`) listed under its name.

#[path = "support/differential.rs"]
mod harness;

harness::slices!(
    calibrated_profiles_match_the_predictable_race_mix,
    disjoint_barrier_rounds_keep_the_hb_race,
    engine_pool_syncp_lane_matches_offline,
    every_syncp_race_on_tiny_traces_is_vindicated,
    fast_path_candidate_shape_keeps_the_hb_race,
    figure1_witness_is_the_paper_reordering,
    hb_subset_syncp_on_random_traces,
    paper_figures_known_answers,
    partially_kept_barrier_round_yields_a_valid_witness,
    skipped_barrier_round_drains_before_the_later_round,
    stb_round_trip_preserves_syncp_report,
    sync_heavy_profiles_are_sound_end_to_end,
    syncp_beside_an_online_lane_in_one_session,
);

//! Vindication and the exhaustive reordering oracle: vindicated first races
//! carry valid witnesses, no HB first race is refuted, no WCP first race is
//! refuted on traces whose critical sections never nest (and elsewhere only
//! with a predictable deadlock), a refuted DC or WDC first race never
//! vindicates (Figure 3's WDC race), and Figures 1 and 2 vindicate.
//!
//! Each test runs the slice of the differential harness
//! (`tests/support/differential.rs`) listed under its name.

#[path = "support/differential.rs"]
mod harness;

harness::slices!(
    dc_races_checked_against_oracle,
    figure3_false_race_is_caught_by_both_oracle_and_vindication,
    paper_figures_1_and_2_vindicate_with_valid_witnesses,
    wcp_races_are_predictable_races,
    wcp_races_imply_race_or_deadlock,
    witnesses_validate_and_oracle_agrees,
);

//! FTO-WCP analysis: epoch + ownership optimizations applied to WCP
//! (Algorithm 2's structure with the WCP clock rules of this module's
//! parent).

use crate::column::FtoColumn;
use crate::wcp::WcpRow;

/// FTO-WCP analysis (`FTO-WCP` in the paper's tables).
///
/// Epochs record HB-local times; ordering checks compare cross-thread
/// entries against the WCP clock and own entries against the HB clock.
pub type FtoWcp = WcpRow<FtoColumn>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Detector, UnoptWcp};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, EventId, Trace};

    fn first_race<D: Detector>(mut det: D, tr: &Trace) -> Option<EventId> {
        run_detector(&mut det, tr);
        det.report().first_race_event()
    }

    #[test]
    fn figures_match_unopt_wcp() {
        for (name, tr) in paper::all_figures() {
            assert_eq!(
                first_race(FtoWcp::new(), &tr),
                first_race(UnoptWcp::new(), &tr),
                "FTO-WCP vs Unopt-WCP on {name}"
            );
        }
    }

    #[test]
    fn random_traces_first_race_matches_unopt() {
        for seed in 0..60 {
            let tr = RandomTraceSpec {
                events: 300,
                threads: 3,
                vars: 6,
                locks: 3,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            assert_eq!(
                first_race(FtoWcp::new(), &tr),
                first_race(UnoptWcp::new(), &tr),
                "seed {seed}"
            );
        }
    }
}

//! SmartTrack-WCP analysis: Algorithm 3's CCS optimizations applied to WCP
//! ("Applying SmartTrack to WDC and WCP analyses is analogous and
//! straightforward", §4.2).
//!
//! CS lists store references to *HB* release-time clocks (rule (a) for WCP
//! joins the HB clock of the earlier release, left-composing with HB);
//! `MultiCheck` runs against the WCP clock; rule (b) keeps WCP's per-lock
//! per-thread queues, whose acquire entries are already epochs.

use crate::ccs::CcsState;
use crate::wcp::WcpRow;

/// SmartTrack-WCP analysis (`ST-WCP` in the paper's tables), in
/// [`CcsFidelity::Strict`](crate::CcsFidelity::Strict) mode unless built
/// with `with_fidelity`.
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, SmartTrackWcp};
/// use smarttrack_trace::paper;
///
/// let mut det = SmartTrackWcp::new();
/// run_detector(&mut det, &paper::figure1());
/// assert_eq!(det.report().dynamic_count(), 1);
/// ```
pub type SmartTrackWcp = WcpRow<CcsState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Detector, FtoWcp, UnoptWcp};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, EventId, Trace};

    fn first_race<D: Detector>(mut det: D, tr: &Trace) -> Option<EventId> {
        run_detector(&mut det, tr);
        det.report().first_race_event()
    }

    #[test]
    fn figures_match_fto_and_unopt() {
        for (name, tr) in paper::all_figures() {
            let st = first_race(SmartTrackWcp::new(), &tr);
            assert_eq!(st, first_race(FtoWcp::new(), &tr), "ST vs FTO on {name}");
            assert_eq!(
                st,
                first_race(UnoptWcp::new(), &tr),
                "ST vs Unopt on {name}"
            );
        }
    }

    #[test]
    fn random_traces_first_race_matches_fto() {
        for seed in 0..120 {
            let tr = RandomTraceSpec {
                events: 300,
                threads: 3,
                vars: 6,
                locks: 3,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            assert_eq!(
                first_race(SmartTrackWcp::new(), &tr),
                first_race(FtoWcp::new(), &tr),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn rwlock_traces_first_race_matches_fto_and_unopt() {
        for seed in 0..120 {
            let tr = RandomTraceSpec::tiny_rw().generate(seed);
            let st = first_race(SmartTrackWcp::new(), &tr);
            assert_eq!(st, first_race(FtoWcp::new(), &tr), "ST vs FTO seed {seed}");
            assert_eq!(
                st,
                first_race(UnoptWcp::new(), &tr),
                "ST vs Unopt seed {seed}"
            );
        }
    }
}

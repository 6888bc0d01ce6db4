//! FTO-based DC/WDC analysis — paper Algorithm 2: FastTrack-Ownership's
//! epoch and ownership optimizations applied to predictive analysis, keeping
//! the per-(lock, variable) conflicting-critical-section metadata.

use crate::column::FtoColumn;
use crate::dc::DcRow;

/// FTO-DC analysis (paper Algorithm 2).
///
/// Compared with unoptimized analysis, last-access metadata use epochs and
/// ownership cases; compared with SmartTrack, conflicting critical sections
/// are still tracked per (lock, variable) (`Lr_{m,x}`/`Lw_{m,x}`), where `Lr`
/// now represents critical sections containing reads *and* writes.
pub type FtoDc = DcRow<FtoColumn, true>;
/// FTO-WDC analysis (Algorithm 2 minus rule (b): remove its lines 2 and 5–9).
pub type FtoWdc = DcRow<FtoColumn, false>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Detector, UnoptDc, UnoptWdc};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, EventId, Trace};

    fn first_race<D: Detector>(mut det: D, tr: &Trace) -> Option<EventId> {
        run_detector(&mut det, tr);
        det.report().first_race_event()
    }

    #[test]
    fn figures_match_unopt() {
        for (name, tr) in paper::all_figures() {
            assert_eq!(
                first_race(FtoDc::new(), &tr),
                first_race(UnoptDc::new(), &tr),
                "FTO-DC vs Unopt-DC on {name}"
            );
            assert_eq!(
                first_race(FtoWdc::new(), &tr),
                first_race(UnoptWdc::new(), &tr),
                "FTO-WDC vs Unopt-WDC on {name}"
            );
        }
    }

    #[test]
    fn figure3_split_between_dc_and_wdc() {
        let tr = paper::figure3();
        assert_eq!(first_race(FtoDc::new(), &tr), None);
        assert!(first_race(FtoWdc::new(), &tr).is_some());
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
                first_race(FtoDc::new(), &tr),
                first_race(UnoptDc::new(), &tr),
                "DC seed {seed}"
            );
            assert_eq!(
                first_race(FtoWdc::new(), &tr),
                first_race(UnoptWdc::new(), &tr),
                "WDC seed {seed}"
            );
        }
    }

    #[test]
    fn rwlock_traces_first_race_matches_unopt() {
        for seed in 0..120 {
            let tr = RandomTraceSpec::tiny_rw().generate(seed);
            assert_eq!(
                first_race(FtoDc::new(), &tr),
                first_race(UnoptDc::new(), &tr),
                "DC seed {seed}"
            );
            assert_eq!(
                first_race(FtoWdc::new(), &tr),
                first_race(UnoptWdc::new(), &tr),
                "WDC seed {seed}"
            );
        }
    }

    #[test]
    fn counters_cover_nse_accesses() {
        let tr = RandomTraceSpec::default().generate(11);
        let mut det = FtoDc::new();
        run_detector(&mut det, &tr);
        let c = det.case_counters().unwrap();
        assert!(c.nse_reads() + c.nse_writes() > 0);
    }
}

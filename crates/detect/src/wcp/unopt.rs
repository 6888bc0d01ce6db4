//! Unoptimized WCP analysis (Kini et al. 2017): vector-clock last-access
//! metadata, per-(lock, variable) CCS tables storing HB release times, and
//! per-lock per-thread rule (b) queues.

use crate::column::UnoptColumn;
use crate::wcp::WcpRow;

/// Unoptimized WCP analysis (`Unopt-WCP` in the paper's tables).
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, UnoptWcp};
/// use smarttrack_trace::paper;
///
/// let mut det = UnoptWcp::new();
/// run_detector(&mut det, &paper::figure1());
/// assert_eq!(det.report().dynamic_count(), 1, "figure 1 is a WCP-race");
///
/// let mut det = UnoptWcp::new();
/// run_detector(&mut det, &paper::figure2());
/// assert!(det.report().is_empty(), "figure 2 is not a WCP-race");
/// ```
pub type UnoptWcp = WcpRow<UnoptColumn>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Detector, Report, UnoptDc, UnoptHb};
    use smarttrack_clock::ThreadId;
    use smarttrack_trace::{gen::RandomTraceSpec, paper, LockId, Op, Trace, TraceBuilder, VarId};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    fn wcp_races(tr: &Trace) -> Report {
        let mut det = UnoptWcp::new();
        run_detector(&mut det, tr);
        det.report().clone()
    }

    #[test]
    fn figure1_is_a_wcp_race() {
        assert_eq!(wcp_races(&paper::figure1()).dynamic_count(), 1);
    }

    #[test]
    fn figure2_is_ordered_by_hb_composition() {
        assert!(wcp_races(&paper::figure2()).is_empty());
    }

    #[test]
    fn figure3_is_ordered_by_wcp_rule_b() {
        assert!(wcp_races(&paper::figure3()).is_empty());
    }

    #[test]
    fn figure4_traces_have_no_wcp_races() {
        for f in [
            paper::figure4a(),
            paper::figure4b(),
            paper::figure4c(),
            paper::figure4d(),
        ] {
            assert!(wcp_races(&f).is_empty());
        }
    }

    #[test]
    fn conflicting_critical_sections_order_in_wcp() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert!(wcp_races(&b.finish()).is_empty());
    }

    #[test]
    fn race_set_is_between_hb_and_dc() {
        // HB-races ⊆ WCP-races ⊆ DC-races, checked on random traces by
        // comparing which events detect races.
        for seed in 0..40 {
            let tr = RandomTraceSpec {
                events: 250,
                threads: 3,
                vars: 5,
                locks: 3,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            let mut hb = UnoptHb::new();
            let mut wcp = UnoptWcp::new();
            let mut dc = UnoptDc::new();
            run_detector(&mut hb, &tr);
            run_detector(&mut wcp, &tr);
            run_detector(&mut dc, &tr);
            // Compare only up to the first WCP race: beyond the first race,
            // metadata updates may legitimately diverge (§5.6).
            let hb_first = hb.report().first_race_event();
            let wcp_first = wcp.report().first_race_event();
            let dc_first = dc.report().first_race_event();
            if let Some(h) = hb_first {
                let w = wcp_first.expect("HB-race implies WCP-race (seed)");
                assert!(w <= h, "WCP detects no later than HB (seed {seed})");
            }
            if let Some(w) = wcp_first {
                let d = dc_first.expect("WCP-race implies DC-race");
                assert!(d <= w, "DC detects no later than WCP (seed {seed})");
            }
        }
    }
}

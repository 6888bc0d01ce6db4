//! Unoptimized DC/WDC analysis — paper Algorithm 1 (plus the §5.1
//! implementation behaviours: same-epoch-like fast paths and clock increments
//! at acquires), with optional constraint-graph recording ("w/ G").

use crate::column::UnoptColumn;
use crate::dc::DcRow;
use crate::graph::GraphRecorder;

/// Unoptimized DC analysis (Table 1's `Unopt-DC`, paper Algorithm 1).
///
/// Last-access metadata are full vector clocks; conflicting critical
/// sections are tracked via per-(lock, variable) tables (`Lr_{m,x}`,
/// `Lw_{m,x}`); DC rule (b) uses per-lock per-thread-pair queues.
/// `with_graph_recording(true)` builds the "w/ G"
/// variant.
pub type UnoptDc = DcRow<UnoptColumn, true, Option<GraphRecorder>>;
/// Unoptimized WDC analysis (Table 1's `Unopt-WDC`; Algorithm 1 minus
/// rule (b), §3).
pub type UnoptWdc = DcRow<UnoptColumn, false, Option<GraphRecorder>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Detector, EdgeKind, Report};
    use smarttrack_clock::ThreadId;
    use smarttrack_trace::paper;
    use smarttrack_trace::{EventId, LockId, Op, TraceBuilder, VarId};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    fn dc_races(tr: &smarttrack_trace::Trace) -> Report {
        let mut det = UnoptDc::new();
        run_detector(&mut det, tr);
        det.report().clone()
    }

    fn wdc_races(tr: &smarttrack_trace::Trace) -> Report {
        let mut det = UnoptWdc::new();
        run_detector(&mut det, tr);
        det.report().clone()
    }

    #[test]
    fn figure1_has_dc_and_wdc_race() {
        let tr = paper::figure1();
        assert_eq!(dc_races(&tr).dynamic_count(), 1);
        assert_eq!(wdc_races(&tr).dynamic_count(), 1);
        // The race is detected at the final write to x (event 7).
        assert_eq!(dc_races(&tr).first_race_event(), Some(EventId::new(7)));
    }

    #[test]
    fn figure2_has_dc_race() {
        let tr = paper::figure2();
        assert_eq!(dc_races(&tr).dynamic_count(), 1);
        assert_eq!(wdc_races(&tr).dynamic_count(), 1);
    }

    #[test]
    fn figure3_wdc_race_but_no_dc_race() {
        let tr = paper::figure3();
        assert_eq!(
            dc_races(&tr).dynamic_count(),
            0,
            "DC rule (b) orders the releases"
        );
        assert_eq!(wdc_races(&tr).dynamic_count(), 1, "WDC misses rule (b)");
    }

    #[test]
    fn figure4_traces_have_no_races() {
        for f in [
            paper::figure4a(),
            paper::figure4b(),
            paper::figure4c(),
            paper::figure4d(),
        ] {
            assert!(dc_races(&f).is_empty());
            assert!(wdc_races(&f).is_empty());
        }
    }

    #[test]
    fn conflicting_critical_sections_order_accesses() {
        // T0 writes x under m; T1 reads x under m then writes x outside any
        // lock: rule (a) orders T0's release before T1's read, and PO extends
        // to the write. No race.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert!(dc_races(&b.finish()).is_empty());
    }

    #[test]
    fn empty_critical_sections_do_not_order() {
        // Like Figure 1: the critical sections share a lock but not data, so
        // DC does not order the surrounding accesses.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert_eq!(dc_races(&b.finish()).dynamic_count(), 1);
    }

    #[test]
    fn graph_mode_records_rule_a_and_b_edges() {
        let tr = paper::figure3();
        let mut det = UnoptDc::with_graph_recording(true);
        run_detector(&mut det, &tr);
        let g = det.graph().expect("graph recorded");
        assert!(
            g.edges().iter().any(|&(_, _, k)| k == EdgeKind::RuleA),
            "sync(o)/sync(p) conflicts produce rule (a) edges"
        );
        assert!(
            g.edges().iter().any(|&(_, _, k)| k == EdgeKind::RuleB),
            "figure 3's m-releases are rule (b) ordered"
        );
    }

    #[test]
    fn fork_join_and_volatiles_order_in_dc() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Fork(t(1))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::VolatileWrite(VarId::new(0))).unwrap();
        b.push(t(2), Op::VolatileRead(VarId::new(0))).unwrap();
        b.push(t(2), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Join(t(1))).unwrap();
        b.push(t(0), Op::Read(x(1))).unwrap();
        assert!(dc_races(&b.finish()).is_empty());
    }

    #[test]
    fn same_epoch_skip_does_not_change_outcomes() {
        // Repeated accesses between syncs take the fast path; the race is
        // still found at the first non-same-epoch access.
        let mut b = TraceBuilder::new();
        for _ in 0..4 {
            b.push(t(0), Op::Write(x(0))).unwrap();
        }
        b.push(t(1), Op::Write(x(0))).unwrap();
        let r = dc_races(&b.finish());
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.first_race_event(), Some(EventId::new(4)));
    }
}

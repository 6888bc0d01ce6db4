//! Unoptimized (vector-clock) happens-before analysis, DJIT+-style.

use crate::column::UnoptColumn;
use crate::hb::HbRow;

/// Vector-clock HB analysis (`Unopt-HB` in the paper's tables).
///
/// Last-access metadata `Wx`/`Rx` are full vector clocks; every race check is
/// a pointwise comparison costing `O(T)` — the cost FastTrack's epochs remove.
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, UnoptHb};
/// use smarttrack_trace::{Op, ThreadId, TraceBuilder, VarId};
///
/// let mut b = TraceBuilder::new();
/// b.push(ThreadId::new(0), Op::Write(VarId::new(0)))?;
/// b.push(ThreadId::new(1), Op::Write(VarId::new(0)))?;
/// let mut det = UnoptHb::new();
/// run_detector(&mut det, &b.finish());
/// assert_eq!(det.report().dynamic_count(), 1);
/// # Ok::<(), smarttrack_trace::TraceError>(())
/// ```
pub type UnoptHb = HbRow<UnoptColumn>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, AccessKind, Detector, Report};
    use smarttrack_clock::ThreadId;
    use smarttrack_trace::{LockId, Op, TraceBuilder, VarId};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    fn run(b: TraceBuilder) -> Report {
        let mut det = UnoptHb::new();
        run_detector(&mut det, &b.finish());
        det.report().clone()
    }

    #[test]
    fn detects_unsynchronized_write_write() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.races()[0].kind, AccessKind::Write);
        assert_eq!(r.races()[0].prior_threads, vec![t(0)]);
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let mut b = TraceBuilder::new();
        for i in 0..2 {
            b.push(t(i), Op::Acquire(m(0))).unwrap();
            b.push(t(i), Op::Write(x(0))).unwrap();
            b.push(t(i), Op::Release(m(0))).unwrap();
        }
        assert!(run(b).is_empty());
    }

    #[test]
    fn read_write_race_detected_at_write() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.races()[0].kind, AccessKind::Write);
    }

    #[test]
    fn write_read_race_detected_at_read() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.races()[0].kind, AccessKind::Read);
    }

    #[test]
    fn concurrent_reads_do_not_race() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        assert!(run(b).is_empty());
    }

    #[test]
    fn fork_orders_parent_before_child() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Fork(t(1))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert!(run(b).is_empty());
    }

    #[test]
    fn join_orders_child_before_parent() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Fork(t(1))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Join(t(1))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        assert!(run(b).is_empty());
    }

    #[test]
    fn volatile_write_read_orders_accesses() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::VolatileWrite(VarId::new(0))).unwrap();
        b.push(t(1), Op::VolatileRead(VarId::new(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert!(run(b).is_empty());
    }

    #[test]
    fn volatile_read_does_not_publish() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::VolatileRead(VarId::new(0))).unwrap();
        b.push(t(1), Op::VolatileRead(VarId::new(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert_eq!(run(b).dynamic_count(), 1);
    }

    #[test]
    fn misses_figure1_predictable_race() {
        let r = {
            let mut det = UnoptHb::new();
            run_detector(&mut det, &smarttrack_trace::paper::figure1());
            det.report().clone()
        };
        assert!(r.is_empty(), "HB analysis must miss the Figure 1 race");
    }

    #[test]
    fn notifies_do_not_order_each_other() {
        use smarttrack_trace::CondId;
        let c = CondId::new(0);
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Notify(c)).unwrap();
        b.push(t(1), Op::Notify(c)).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert_eq!(run(b).dynamic_count(), 1, "publish-only notifies");
    }

    #[test]
    fn barrier_orders_across_phases_not_within() {
        use smarttrack_trace::BarrierId;
        let bar = BarrierId::new(0);
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Write(x(1))).unwrap();
        b.push(t(0), Op::BarrierEnter(bar)).unwrap();
        b.push(t(1), Op::BarrierEnter(bar)).unwrap();
        b.push(t(0), Op::BarrierExit(bar)).unwrap();
        b.push(t(1), Op::BarrierExit(bar)).unwrap();
        // Cross-phase: each reads the other's pre-barrier write — ordered.
        b.push(t(0), Op::Read(x(1))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        // Same-phase: both touch x2 after the rendezvous — racy.
        b.push(t(0), Op::Write(x(2))).unwrap();
        b.push(t(1), Op::Write(x(2))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.races()[0].var, x(2));
    }

    #[test]
    fn barrier_rounds_are_independent() {
        use smarttrack_trace::BarrierId;
        let bar = BarrierId::new(0);
        let mut b = TraceBuilder::new();
        // Round 1: t0, t1.
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::BarrierEnter(bar)).unwrap();
        b.push(t(1), Op::BarrierEnter(bar)).unwrap();
        b.push(t(0), Op::BarrierExit(bar)).unwrap();
        b.push(t(1), Op::BarrierExit(bar)).unwrap();
        // Round 2: t1, t2 — t2 is ordered after round 2's enters only.
        b.push(t(1), Op::BarrierEnter(bar)).unwrap();
        b.push(t(2), Op::BarrierEnter(bar)).unwrap();
        b.push(t(1), Op::BarrierExit(bar)).unwrap();
        b.push(t(2), Op::BarrierExit(bar)).unwrap();
        // t1 carried round 1's ordering into round 2's rendezvous, so even
        // t2 is (transitively) ordered after t0's pre-round-1 write.
        b.push(t(2), Op::Read(x(0))).unwrap();
        assert!(run(b).is_empty());
    }

    #[test]
    fn write_after_racing_read_still_updates_metadata() {
        // Our FT2 handling of detected races keeps analyzing (§5.1).
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap(); // race 1
        b.push(t(2), Op::Write(x(0))).unwrap(); // race 2 (with T0 and T1)
        let r = run(b);
        assert_eq!(r.dynamic_count(), 2);
        assert_eq!(r.races()[1].prior_threads.len(), 2);
    }
}

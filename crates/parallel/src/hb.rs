//! Concurrent FTO-HB: the FastTrack-family baseline running inside the
//! application threads (§5.1).
//!
//! The row is the generic [`OnlineRow`] over the sequential FTO-HB's
//! per-variable [`FtoVar`] bodies, checked against the thread's own clock.
//! What HB adds are its lock rules: each lock's clock `Lm` and reader
//! aggregate `LRm` sit behind the lock's own mutex.

use parking_lot::Mutex;
use smarttrack_clock::{Epoch, ThreadId, VectorClock};
use smarttrack_detect::{AccessKind, FtoCase, FtoVar, LockMode, OptLevel, Relation};
use smarttrack_trace::LockId;

use crate::row::{OnlineFamily, OnlineRow};

/// FTO-HB analysis with concurrent metadata (the parallel counterpart of
/// [`FtoHb`](smarttrack_detect::FtoHb)).
///
/// # Examples
///
/// Deterministically fed, it computes exactly the sequential analysis:
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, FtoHb};
/// use smarttrack_parallel::{feed_trace, ConcurrentFtoHb, WorldSpec};
/// use smarttrack_trace::paper;
///
/// let trace = paper::figure1();
/// let mut seq = FtoHb::new();
/// run_detector(&mut seq, &trace);
/// let par = ConcurrentFtoHb::new(WorldSpec::of_trace(&trace));
/// let report = feed_trace(&par, &trace);
/// assert_eq!(report.dynamic_count(), seq.report().dynamic_count());
/// ```
pub type ConcurrentFtoHb = OnlineRow<FtoHbFamily>;

/// The FTO-HB family of [`OnlineRow`].
#[derive(Debug)]
pub struct FtoHbFamily;

/// One lock's HB clocks: `Lm` and the reader aggregate `LRm`. Write-mode
/// acquires join both (a writer orders after every prior reader); read
/// releases *join into* `LRm` (readers do not order each other).
#[derive(Debug, Default)]
pub struct HbLock {
    exclusive: VectorClock,
    readers: VectorClock,
}

impl OnlineFamily for FtoHbFamily {
    type Var = FtoVar;
    /// Locks this thread currently holds in read mode (innermost last): a
    /// release of one of these is a read-mode release.
    type Thread = Vec<LockId>;
    type Lock = HbLock;

    const TICK_EVERY_SYNC: bool = false;
    const NAME: &'static str = "FTO-HB (parallel)";
    const RELATION: Relation = Relation::Hb;
    const OPT_LEVEL: OptLevel = OptLevel::Fto;

    fn fto(var: &FtoVar) -> &FtoVar {
        var
    }

    fn access(
        var: &mut FtoVar,
        _: &mut Vec<LockId>,
        kind: AccessKind,
        e: Epoch,
        clock: &mut VectorClock,
    ) -> (FtoCase, Vec<ThreadId>) {
        var.access(kind, e, |a| a.leq_vc(clock))
    }

    fn acquire(
        lock: &Mutex<HbLock>,
        read_held: &mut Vec<LockId>,
        clock: &mut VectorClock,
        m: LockId,
        mode: LockMode,
    ) {
        let lock = lock.lock();
        clock.join(&lock.exclusive);
        match mode {
            // A write-involved acquire also orders after every prior reader.
            LockMode::Exclusive => clock.join(&lock.readers),
            // Readers order after the last writer only — not after each other.
            LockMode::Read => read_held.push(m),
        }
    }

    fn release(
        lock: &Mutex<HbLock>,
        read_held: &mut Vec<LockId>,
        clock: &mut VectorClock,
        m: LockId,
    ) {
        let mut lock = lock.lock();
        match read_held.iter().rposition(|&l| l == m) {
            Some(pos) => {
                read_held.remove(pos);
                // Join (not assign): concurrent readers' times accumulate
                // so the next writer orders after all of them.
                lock.readers.join(clock);
            }
            None => lock.exclusive.assign(clock),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{feed_trace, OnlineAnalysis, WorldSpec};
    use smarttrack_detect::{run_detector, Detector, FtoHb};
    use smarttrack_trace::{paper, Op, TraceBuilder, VarId};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn matches_sequential_on_paper_figures() {
        for (name, tr) in paper::all_figures() {
            let mut seq = FtoHb::new();
            run_detector(&mut seq, &tr);
            let par = ConcurrentFtoHb::new(WorldSpec::of_trace(&tr));
            let report = feed_trace(&par, &tr);
            assert_eq!(
                report.races(),
                seq.report().races(),
                "parallel vs sequential FTO-HB on {name}"
            );
        }
    }

    #[test]
    fn same_epoch_fast_path_counts_like_sequential() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap(); // same epoch
        b.push(t(0), Op::Read(x(0))).unwrap(); // read same epoch (Rx = e)
        let tr = b.finish();
        let par = ConcurrentFtoHb::new(WorldSpec::of_trace(&tr));
        feed_trace(&par, &tr);
        let c = par.case_counters();
        assert_eq!(c.count(FtoCase::WriteSameEpoch), 1);
        assert_eq!(c.count(FtoCase::ReadSameEpoch), 1);
    }

    #[test]
    fn fork_join_edges_suppress_races() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Fork(t(1))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Join(t(1))).unwrap();
        b.push(t(0), Op::Read(x(0))).unwrap();
        let tr = b.finish();
        let par = ConcurrentFtoHb::new(WorldSpec::of_trace(&tr));
        assert!(feed_trace(&par, &tr).is_empty());
    }

    #[test]
    fn volatile_edges_order_accesses() {
        let v = VarId::new(0);
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(1))).unwrap();
        b.push(t(0), Op::VolatileWrite(v)).unwrap();
        b.push(t(1), Op::VolatileRead(v)).unwrap();
        b.push(t(1), Op::Write(x(1))).unwrap();
        let tr = b.finish();
        let par = ConcurrentFtoHb::new(WorldSpec::of_trace(&tr));
        assert!(feed_trace(&par, &tr).is_empty());
    }

    #[test]
    fn read_shared_race_reports_all_unordered_readers() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        b.push(t(2), Op::Write(x(0))).unwrap();
        let tr = b.finish();
        let par = ConcurrentFtoHb::new(WorldSpec::of_trace(&tr));
        let report = feed_trace(&par, &tr);
        assert_eq!(report.dynamic_count(), 1);
        assert_eq!(report.races()[0].prior_threads, vec![t(0), t(1)]);
    }
}

//! FastTrack-Ownership HB analysis (Wood et al. 2017): the paper's primary
//! HB baseline, and the structural template for the FTO-based predictive
//! analyses (Algorithm 2 without the DC-specific parts).

use smarttrack_clock::{Epoch, ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, Loc, LockId, VarId};

use crate::access::FtoVar;
use crate::common::slot;
use crate::counters::FtoCaseCounters;
use crate::edges::HardEdges;
use crate::hb::{HbClocks, HbSyncState};
use crate::lower::{lower, ClockRow, LockMode};
use crate::report::{AccessKind, Report};
use crate::{Detector, OptLevel, Relation};

/// FTO-HB analysis (`FTO` in the paper's HB columns).
///
/// Compared with [`Ft2`](crate::Ft2), FTO unifies read and write metadata
/// (`Rx` represents the latest reads *and* write; after a write,
/// `Wx = Rx = Ct(t)@t`) and adds *owned* cases that skip race checks when the
/// current thread already owns the last access.
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, FtoHb};
/// use smarttrack_trace::paper;
///
/// let mut det = FtoHb::new();
/// run_detector(&mut det, &paper::figure2());
/// assert!(det.report().is_empty(), "Figure 2 has no HB-race");
/// ```
#[derive(Clone, Debug, Default)]
pub struct FtoHb {
    sync: HbSyncState,
    vars: Vec<FtoVar>,
    report: Report,
    counters: FtoCaseCounters,
}

impl FtoHb {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        FtoHb::default()
    }

    /// Diagnostic view of the current HB clock of `t` (for tests).
    pub fn thread_clock(&self, t: ThreadId) -> &VectorClock {
        self.sync.clock_ref(t)
    }
}

impl ClockRow for FtoHb {
    type Clocks = HbClocks;

    fn edges(&mut self) -> &mut HardEdges<HbClocks> {
        &mut self.sync.edges
    }

    fn access(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc, kind: AccessKind) {
        let e = Epoch::new(t, self.sync.local(t));
        let var = slot(&mut self.vars, x.index());
        if let Some(case) = var.same_epoch(kind, e) {
            self.counters.hit(case);
            return;
        }
        let now = self.sync.clock_ref(t);
        let (case, racing) = var.access(kind, e, |a| a.leq_vc(now));
        self.counters.hit(case);
        self.report.record(id, loc, t, x, kind, racing);
    }

    fn acquire(&mut self, _id: EventId, t: ThreadId, m: LockId, mode: LockMode) {
        self.sync.acquire(t, m, mode);
    }

    fn release(&mut self, _id: EventId, t: ThreadId, m: LockId) {
        self.sync.release(t, m);
    }
}

impl Detector for FtoHb {
    fn name(&self) -> &'static str {
        "FTO-HB"
    }

    fn relation(&self) -> Relation {
        Relation::Hb
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::Fto
    }

    fn begin_stream(&mut self, hint: crate::StreamHint) {
        self.sync.reserve(&hint);
        self.vars
            .reserve(crate::StreamHint::presize(hint.vars, self.vars.len()));
    }

    fn process(&mut self, id: EventId, event: &Event) {
        lower(self, id, event.tid, event.op, event.loc);
    }

    fn report(&self) -> &Report {
        &self.report
    }

    fn footprint_bytes(&self) -> usize {
        self.sync.footprint_bytes()
            + self.vars.capacity() * std::mem::size_of::<FtoVar>()
            + self.vars.iter().map(FtoVar::heap_bytes).sum::<usize>()
            + self.report.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        self.sync.resident_bytes()
            + self.vars.capacity() * std::mem::size_of::<FtoVar>()
            + self.report.footprint_bytes()
    }

    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        Some(&self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, FtoCase};
    use smarttrack_trace::{LockId, Op, TraceBuilder};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    fn run(b: TraceBuilder) -> (Report, FtoCaseCounters) {
        let mut det = FtoHb::new();
        run_detector(&mut det, &b.finish());
        (det.report().clone(), det.counters.clone())
    }

    #[test]
    fn write_owned_skips_race_check() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Read(x(0))).unwrap();
        b.push(t(0), Op::Acquire(m(0))).unwrap(); // epoch changes at release only
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap(); // owned: last access was ours
        let (r, c) = run(b);
        assert!(r.is_empty());
        assert_eq!(c.count(FtoCase::WriteOwned), 1);
    }

    #[test]
    fn owned_cases_follow_write() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(0), Op::Read(x(0))).unwrap(); // [Read Owned]: write set Rx
        let (r, c) = run(b);
        assert!(r.is_empty());
        assert_eq!(c.count(FtoCase::ReadOwned), 1);
    }

    #[test]
    fn detects_read_write_race_in_shared_mode() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap(); // share
        b.push(t(0), Op::Write(x(0))).unwrap(); // races with T1's read only
        let (r, c) = run(b);
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.races()[0].prior_threads, vec![t(1)]);
        assert_eq!(c.count(FtoCase::WriteShared), 1);
    }

    #[test]
    fn matches_ft2_first_race_on_random_traces() {
        use crate::Ft2;
        use smarttrack_trace::gen::RandomTraceSpec;
        for seed in 0..30 {
            let tr = RandomTraceSpec {
                events: 400,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            let mut a = FtoHb::new();
            let mut b = Ft2::new();
            run_detector(&mut a, &tr);
            run_detector(&mut b, &tr);
            assert_eq!(
                a.report().first_race_event(),
                b.report().first_race_event(),
                "seed {seed}"
            );
        }
    }
}

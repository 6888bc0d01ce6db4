//! The FastTrack2 algorithm (Flanagan & Freund 2017): epoch-optimized HB
//! analysis without the ownership cases.

use smarttrack_clock::{Epoch, ReadMeta, ThreadId};
use smarttrack_trace::{Event, EventId, Loc, LockId, VarId};

use crate::common::slot;
use crate::counters::{FtoCase, FtoCaseCounters};
use crate::edges::HardEdges;
use crate::hb::{HbClocks, HbSyncState};
use crate::lower::{lower, ClockRow, LockMode};
use crate::report::{AccessKind, Report};
use crate::{Detector, OptLevel, Relation};

#[derive(Clone, Debug, Default)]
struct VarState {
    write: Epoch,
    read: ReadMeta,
}

/// FastTrack2 HB analysis (`FT2` in the paper's tables).
///
/// `Wx` is always an epoch; `Rx` adaptively switches between an epoch and a
/// vector clock. Unlike RoadRunner's bundled FastTrack2, this implementation
/// follows the paper's §5.4 variant: it updates last-access metadata at every
/// event even after detecting a race, never stops analyzing a variable, and
/// counts every race.
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, Ft2};
/// use smarttrack_trace::paper;
///
/// let mut det = Ft2::new();
/// run_detector(&mut det, &paper::figure1());
/// assert!(det.report().is_empty(), "Figure 1 has no HB-race");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Ft2 {
    sync: HbSyncState,
    vars: Vec<VarState>,
    report: Report,
    counters: FtoCaseCounters,
}

impl Ft2 {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        Ft2::default()
    }

    fn read(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        let e = Epoch::new(t, self.sync.local(t));
        let vs = slot(&mut self.vars, x.index());
        match vs.read.same_epoch(t, e.clock()) {
            Some(smarttrack_clock::SameEpoch::Exclusive) => {
                self.counters.hit(FtoCase::ReadSameEpoch);
                return;
            }
            Some(smarttrack_clock::SameEpoch::Shared) => {
                self.counters.hit(FtoCase::SharedSameEpoch);
                return;
            }
            None => {}
        }
        let now = self.sync.clock_ref(t);
        let mut prior = Vec::new();
        if !vs.write.leq_vc(now) {
            prior.push(vs.write.tid()); // write–read race
        }
        match &mut vs.read {
            ReadMeta::Epoch(r) => {
                if r.leq_vc(now) {
                    self.counters.hit(FtoCase::ReadExclusive);
                    vs.read = ReadMeta::Epoch(e); // [Read Exclusive]
                } else {
                    self.counters.hit(FtoCase::ReadShare);
                    vs.read.share(e); // [Read Share]
                }
            }
            ReadMeta::Vc(vc) => {
                self.counters.hit(FtoCase::ReadShared);
                vc.set(t, e.clock()); // [Read Shared]
            }
        }
        self.report.record(id, loc, t, x, AccessKind::Read, prior);
    }

    fn write(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        let e = Epoch::new(t, self.sync.local(t));
        let vs = slot(&mut self.vars, x.index());
        if vs.write == e {
            self.counters.hit(FtoCase::WriteSameEpoch);
            return; // [Write Same Epoch]
        }
        let now = self.sync.clock_ref(t);
        let mut prior = Vec::new();
        if !vs.write.leq_vc(now) {
            prior.push(vs.write.tid()); // write–write race
        }
        match &vs.read {
            ReadMeta::Epoch(r) => {
                self.counters.hit(FtoCase::WriteExclusive);
                if !r.leq_vc(now) && !prior.contains(&r.tid()) {
                    prior.push(r.tid()); // read–write race [Write Exclusive]
                }
            }
            ReadMeta::Vc(vc) => {
                self.counters.hit(FtoCase::WriteShared);
                for (u, c) in vc.iter_nonzero() {
                    if c > now.get(u) && !prior.contains(&u) {
                        prior.push(u); // read–write race [Write Shared]
                    }
                }
            }
        }
        vs.write = e;
        self.report.record(id, loc, t, x, AccessKind::Write, prior);
    }
}

impl ClockRow for Ft2 {
    type Clocks = HbClocks;

    fn edges(&mut self) -> &mut HardEdges<HbClocks> {
        &mut self.sync.edges
    }

    fn access(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.read(id, t, x, loc),
            AccessKind::Write => self.write(id, t, x, loc),
        }
    }

    fn acquire(&mut self, _id: EventId, t: ThreadId, m: LockId, mode: LockMode) {
        self.sync.acquire(t, m, mode);
    }

    fn release(&mut self, _id: EventId, t: ThreadId, m: LockId) {
        self.sync.release(t, m);
    }
}

impl Detector for Ft2 {
    fn name(&self) -> &'static str {
        "FT2"
    }

    fn relation(&self) -> Relation {
        Relation::Hb
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::Epochs
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
            + self.vars.capacity() * std::mem::size_of::<VarState>()
            + self
                .vars
                .iter()
                .map(|v| v.read.footprint_bytes())
                .sum::<usize>()
            + self.report.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        self.sync.resident_bytes()
            + self.vars.capacity() * std::mem::size_of::<VarState>()
            + self.report.footprint_bytes()
    }

    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        Some(&self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_detector;
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

    fn run(b: TraceBuilder) -> Report {
        let mut det = Ft2::new();
        run_detector(&mut det, &b.finish());
        det.report().clone()
    }

    #[test]
    fn read_share_upgrades_to_vector_and_detects_write_race() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap(); // unordered reads: share
        b.push(t(2), Op::Write(x(0))).unwrap(); // races with both readers
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1, "one dynamic race at the write");
        assert_eq!(r.races()[0].prior_threads.len(), 2);
    }

    #[test]
    fn exclusive_read_passes_through_lock() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Read(x(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap(); // ordered: stays an epoch
        b.push(t(1), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        assert!(run(b).is_empty());
    }

    #[test]
    fn same_epoch_fast_paths_skip_reanalysis() {
        let mut b = TraceBuilder::new();
        for _ in 0..5 {
            b.push(t(0), Op::Write(x(0))).unwrap();
            b.push(t(0), Op::Read(x(0))).unwrap();
        }
        assert!(run(b).is_empty());
    }

    #[test]
    fn matches_unopt_on_figures() {
        use crate::UnoptHb;
        for (name, tr) in smarttrack_trace::paper::all_figures() {
            let mut a = Ft2::new();
            let mut b = UnoptHb::new();
            run_detector(&mut a, &tr);
            run_detector(&mut b, &tr);
            assert_eq!(
                a.report().first_race_event(),
                b.report().first_race_event(),
                "FT2 vs Unopt-HB disagree on {name}"
            );
        }
    }
}

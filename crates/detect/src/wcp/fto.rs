//! FTO-WCP analysis: epoch + ownership optimizations applied to WCP
//! (Algorithm 2's structure with the WCP clock rules of this module's
//! parent).

use smarttrack_clock::{Epoch, ThreadId};
use smarttrack_trace::{Event, EventId, Loc, LockId, VarId};

use crate::access::FtoVar;
use crate::common::{slot, CsTables};
use crate::counters::FtoCaseCounters;
use crate::edges::HardEdges;
use crate::lower::{lower, ClockRow, LockMode};
use crate::queues::WcpRuleBQueues;
use crate::report::{AccessKind, Report};
use crate::wcp::{wcp_epoch_ordered, WcpClocks, WcpThreads};
use crate::{Detector, OptLevel, Relation};

/// FTO-WCP analysis (`FTO-WCP` in the paper's tables).
///
/// Epochs record HB-local times; ordering checks compare cross-thread
/// entries against the WCP clock and own entries against the HB clock.
#[derive(Clone, Debug, Default)]
pub struct FtoWcp {
    clocks: WcpClocks,
    cs: CsTables,
    queues: WcpRuleBQueues,
    vars: Vec<FtoVar>,
    report: Report,
    counters: FtoCaseCounters,
}

impl FtoWcp {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        FtoWcp::default()
    }
}

impl ClockRow for FtoWcp {
    type Clocks = WcpThreads;

    fn edges(&mut self) -> &mut HardEdges<WcpThreads> {
        &mut self.clocks.edges
    }

    fn access(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc, kind: AccessKind) {
        let h_own = self.clocks.local(t);
        let e = Epoch::new(t, h_own);
        if let Some(case) = slot(&mut self.vars, x.index()).same_epoch(kind, e) {
            self.counters.hit(case);
            return;
        }
        let mut p = self.clocks.wcp(t).clone();
        let write = kind == AccessKind::Write;
        self.cs.rule_a(t, x, write, true, |lt| p.join(&lt.clock));
        let ordered = |a| wcp_epoch_ordered(a, t, h_own, &p);
        let (case, racing) = self.vars[x.index()].access(kind, e, ordered);
        self.clocks.wcp(t).assign(&p);
        self.counters.hit(case);
        self.report.record(id, loc, t, x, kind, racing);
    }

    fn acquire(&mut self, _id: EventId, t: ThreadId, m: LockId, mode: LockMode) {
        // Enqueue the acquire's local HB time before the clock increment
        // performed inside `acquire`.
        let local = self.clocks.hb(t).get(t);
        self.queues
            .on_acquire(m, t, local, mode == LockMode::Exclusive);
        self.clocks.acquire(t, m, mode);
        self.cs.acquire(t, m, mode);
    }

    fn release(&mut self, id: EventId, t: ThreadId, m: LockId) {
        let mode = self.cs.release(t, m);
        let write_mode = mode == LockMode::Exclusive;
        let mut p = self.clocks.wcp(t).clone();
        self.queues.consume(m, t, &mut p, write_mode, |_| {});
        self.clocks.wcp(t).assign(&p);
        let hb = self.clocks.hb(t).clone();
        self.queues.on_release_publish(m, t, &hb, id);
        self.cs.fold(t, m, mode, &hb, id);
        self.clocks.release_publish(t, m, mode);
    }
}

impl Detector for FtoWcp {
    fn name(&self) -> &'static str {
        "FTO-WCP"
    }

    fn relation(&self) -> Relation {
        Relation::Wcp
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::Fto
    }

    fn begin_stream(&mut self, hint: crate::StreamHint) {
        self.clocks.reserve(&hint);
        self.cs.reserve_locks(hint.locks);
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
        self.clocks.footprint_bytes()
            + self.cs.footprint_bytes()
            + self.queues.footprint_bytes()
            + self.vars.capacity() * std::mem::size_of::<FtoVar>()
            + self.vars.iter().map(FtoVar::heap_bytes).sum::<usize>()
            + self.report.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        self.clocks.resident_bytes()
            + self.cs.resident_bytes()
            + self.queues.resident_bytes()
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
    use crate::{run_detector, UnoptWcp};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, Trace};

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

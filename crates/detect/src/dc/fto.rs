//! FTO-based DC/WDC analysis — paper Algorithm 2: FastTrack-Ownership's
//! epoch and ownership optimizations applied to predictive analysis, keeping
//! the per-(lock, variable) conflicting-critical-section metadata.

use smarttrack_clock::{Epoch, ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, Loc, LockId, VarId};

use crate::access::FtoVar;
use crate::common::{slot, CsTables};
use crate::counters::FtoCaseCounters;
use crate::dc::{DcClocks, DcThreads};
use crate::edges::HardEdges;
use crate::lower::{lower, ClockRow, LockMode};
use crate::queues::{AcqEntry, DcRuleBQueues};
use crate::report::{AccessKind, Report};
use crate::{Detector, OptLevel, Relation};

/// FTO-DC analysis (`RULE_B = true`) or FTO-WDC (`RULE_B = false`), following
/// paper Algorithm 2. Use the [`FtoDc`] / [`FtoWdc`] aliases.
///
/// Compared with unoptimized analysis, last-access metadata use epochs and
/// ownership cases; compared with SmartTrack, conflicting critical sections
/// are still tracked per (lock, variable) (`Lr_{m,x}`/`Lw_{m,x}`), where `Lr`
/// now represents critical sections containing reads *and* writes.
#[derive(Clone, Debug)]
pub struct FtoDcLike<const RULE_B: bool> {
    clocks: DcClocks,
    cs: CsTables,
    queues: DcRuleBQueues,
    vars: Vec<FtoVar>,
    report: Report,
    counters: FtoCaseCounters,
}

/// FTO-DC analysis (paper Algorithm 2).
pub type FtoDc = FtoDcLike<true>;
/// FTO-WDC analysis (Algorithm 2 minus rule (b): remove its lines 2 and 5–9).
pub type FtoWdc = FtoDcLike<false>;

impl<const RULE_B: bool> Default for FtoDcLike<RULE_B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const RULE_B: bool> FtoDcLike<RULE_B> {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        FtoDcLike {
            clocks: DcClocks::default(),
            cs: CsTables::new(false),
            queues: DcRuleBQueues::new(),
            vars: Vec::new(),
            report: Report::new(),
            counters: FtoCaseCounters::new(),
        }
    }

    /// Diagnostic view of the current clock of `t` (for tests).
    pub fn thread_clock(&self, t: ThreadId) -> &VectorClock {
        self.clocks.clock_ref(t)
    }
}

impl<const RULE_B: bool> ClockRow for FtoDcLike<RULE_B> {
    type Clocks = DcThreads;

    fn edges(&mut self) -> &mut HardEdges<DcThreads> {
        &mut self.clocks
    }

    fn access(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc, kind: AccessKind) {
        let e = Epoch::new(t, self.clocks.local(t));
        if let Some(case) = slot(&mut self.vars, x.index()).same_epoch(kind, e) {
            self.counters.hit(case);
            return;
        }
        let mut now = self.clocks.clock_ref(t).clone();
        let write = kind == AccessKind::Write;
        self.cs.rule_a(t, x, write, true, |lt| now.join(&lt.clock));
        let (case, racing) = self.vars[x.index()].access(kind, e, |a| a.leq_vc(&now));
        self.clocks.clock(t).assign(&now);
        self.counters.hit(case);
        self.report.record(id, loc, t, x, kind, racing);
    }

    fn acquire(&mut self, _id: EventId, t: ThreadId, m: LockId, mode: LockMode) {
        if RULE_B {
            let entry = AcqEntry::Vc(self.clocks.clock(t).clone());
            self.queues
                .on_acquire(m, t, &entry, mode == LockMode::Exclusive);
        }
        self.cs.acquire(t, m, mode);
        self.clocks.tick(t);
    }

    fn release(&mut self, id: EventId, t: ThreadId, m: LockId) {
        let mode = self.cs.release(t, m);
        let write_mode = mode == LockMode::Exclusive;
        let mut now = self.clocks.clock(t).clone();
        if RULE_B {
            self.queues
                .on_release(m, t, &mut now, id, write_mode, |_| {});
        }
        self.cs.fold(t, m, mode, &now, id);
        self.clocks.clock(t).assign(&now);
        self.clocks.tick(t);
    }
}

impl<const RULE_B: bool> Detector for FtoDcLike<RULE_B> {
    fn name(&self) -> &'static str {
        if RULE_B {
            "FTO-DC"
        } else {
            "FTO-WDC"
        }
    }

    fn relation(&self) -> Relation {
        if RULE_B {
            Relation::Dc
        } else {
            Relation::Wdc
        }
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::Fto
    }

    fn begin_stream(&mut self, hint: crate::StreamHint) {
        if RULE_B {
            if let Some(threads) = hint.threads {
                self.queues.set_thread_bound(threads);
            }
        }
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
    use crate::{run_detector, UnoptDc, UnoptWdc};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, Trace};

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

//! DC and WDC analyses at all three optimization levels.
//!
//! The WDC relation (§3) is DC (Roemer et al. 2018) without rule (b), so
//! every cell of both rows is one [`DcRow`] parameterized by
//! `const RULE_B: bool` and an optimization column:
//!
//! * [`UnoptDc`] / [`UnoptWdc`] — paper Algorithm 1 (vector clocks
//!   everywhere), optionally recording a constraint graph ("w/ G").
//! * [`FtoDc`] / [`FtoWdc`] — paper Algorithm 2 (epoch + ownership
//!   optimizations applied to predictive analysis).
//! * [`SmartTrackDc`] / [`SmartTrackWdc`] — paper Algorithm 3 (FTO + the
//!   conflicting-critical-section optimizations).

mod fto;
mod st;
mod unopt;

pub use fto::{FtoDc, FtoWdc};
pub use st::{SmartTrackDc, SmartTrackWdc};
pub use unopt::{UnoptDc, UnoptWdc};

use smarttrack_clock::{Epoch, ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, LockId};

use crate::ccs::{CcsFidelity, CcsState};
use crate::column::{Counts, Sections, UnoptColumn};
use crate::edges::{HardEdges, ThreadTable};
use crate::graph::{GraphMode, GraphRecorder, NoGraph};
use crate::lower::{lower, Access, ClockRow, LockMode};
use crate::queues::DcRuleBQueues;
use crate::{Detector, FtoCaseCounters, HotPathStats, OptLevel, Relation, Report, StreamHint};

/// Thread clocks for PO-composed predictive relations (DC, WDC): one clock
/// per thread, ticked at every synchronization operation.
pub(crate) type DcThreads = ThreadTable<true>;

/// Thread and hard-edge clocks for DC and WDC.
///
/// Unlike HB analysis, DC has no release→acquire ordering, so there are no
/// per-lock clocks; lock-induced ordering comes only from rules (a) and (b).
/// Per §5.1, predictive analyses increment the thread's clock at *acquires as
/// well as releases* (supporting cheap same-epoch checks and SmartTrack's
/// epoch-based acquire queues); fork/join/volatile operations are treated as
/// hard ordering in the computed relation.
pub(crate) type DcClocks = HardEdges<DcThreads>;

/// The DC row (`RULE_B = true`) or WDC row (`RULE_B = false`) of Table 1
/// over column `C`: one clock per thread, no release→acquire ordering, and
/// DC's rule (b) queues (per lock and thread pair). `G` records the
/// constraint graph of the Unopt "w/ G" cells; everywhere else it is
/// [`NoGraph`].
#[derive(Clone, Debug, Default)]
pub struct DcRow<C, const RULE_B: bool, G = NoGraph> {
    clocks: DcClocks,
    col: C,
    queues: DcRuleBQueues,
    graph: G,
}

impl<C: Sections, const RULE_B: bool, G: GraphMode> DcRow<C, RULE_B, G> {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        DcRow::default()
    }

    /// Diagnostic view of the current clock of `t` (for tests).
    pub fn thread_clock(&self, t: ThreadId) -> &VectorClock {
        self.clocks.clock_ref(t)
    }
}

impl<const RULE_B: bool> DcRow<UnoptColumn, RULE_B, Option<GraphRecorder>> {
    /// Creates the analysis, optionally building the constraint graph
    /// ("w/ G"); graph recording costs time and memory (Table 3).
    pub fn with_graph_recording(with_graph: bool) -> Self {
        DcRow {
            col: UnoptColumn::new(with_graph),
            graph: with_graph.then(GraphRecorder::default),
            ..DcRow::default()
        }
    }
}

impl<const RULE_B: bool> DcRow<CcsState, RULE_B> {
    /// Creates the analysis with an explicit CCS fidelity mode
    /// ([`new`](Self::new) is [`CcsFidelity::Strict`]).
    pub fn with_fidelity(fidelity: CcsFidelity) -> Self {
        DcRow {
            col: CcsState::new(fidelity),
            ..DcRow::default()
        }
    }
}

impl<C: Sections, const RULE_B: bool, G: GraphMode> ClockRow for DcRow<C, RULE_B, G> {
    type Clocks = DcThreads;

    fn edges(&mut self) -> &mut HardEdges<DcThreads> {
        &mut self.clocks
    }

    fn access(&mut self, a: Access) {
        let local = self.clocks.local(a.t);
        let clocks = &mut self.clocks;
        self.col.access::<true>(
            a,
            local,
            || clocks.clock(a.t),
            Epoch::leq_vc,
            self.graph.recorder(),
        );
    }

    fn acquire(&mut self, _id: EventId, t: ThreadId, m: LockId, mode: LockMode) {
        if RULE_B {
            let entry = C::acq_entry(t, self.clocks.clock(t));
            self.queues
                .on_acquire(m, t, &entry, mode == LockMode::Exclusive);
        }
        self.col.acquire(t, m, mode);
        self.clocks.tick(t);
    }

    fn release(&mut self, id: EventId, t: ThreadId, m: LockId) {
        // The ended section's mode gates the rule (b) consumption.
        let (mode, ended) = self.col.release(t, m);
        let mut now = self.clocks.clock(t).clone();
        if RULE_B {
            let write_mode = mode == LockMode::Exclusive;
            let mut recorder = self.graph.recorder();
            self.queues
                .on_release(m, t, &mut now, id, write_mode, |src| {
                    if let Some(r) = recorder.as_deref_mut() {
                        r.rule_b(src, id);
                    }
                });
        }
        self.col.close(t, m, ended, &now, id);
        self.clocks.clock(t).assign(&now);
        self.clocks.tick(t);
    }
}

impl<C: Sections, const RULE_B: bool, G: GraphMode> Detector for DcRow<C, RULE_B, G> {
    fn name(&self) -> &'static str {
        let graph = self.graph.graph().is_some();
        match (C::LEVEL, RULE_B, graph) {
            (OptLevel::Unopt, true, true) => "Unopt-DC w/G",
            (OptLevel::Unopt, true, false) => "Unopt-DC",
            (OptLevel::Unopt, false, true) => "Unopt-WDC w/G",
            (OptLevel::Unopt, false, false) => "Unopt-WDC",
            (OptLevel::Fto, true, _) => "FTO-DC",
            (OptLevel::Fto, false, _) => "FTO-WDC",
            (OptLevel::SmartTrack, true, _) => "SmartTrack-DC",
            (OptLevel::SmartTrack, false, _) => "SmartTrack-WDC",
            (OptLevel::Epochs, ..) => unreachable!("Epochs-DC/WDC are N/A cells"),
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
        C::LEVEL
    }

    fn begin_stream(&mut self, hint: StreamHint) {
        if RULE_B {
            if let Some(threads) = hint.threads {
                self.queues.set_thread_bound(threads);
            }
        }
        self.clocks.reserve(&hint);
        self.col.reserve_sections(&hint);
        self.col.reserve(&hint);
    }

    fn process(&mut self, id: EventId, event: &Event) {
        if let Some(recorder) = self.graph.recorder() {
            recorder.event(id, event.tid);
        }
        lower(self, id, event.tid, event.op, event.loc);
        // The hard edges after the row's, so a wait's notify edges follow
        // the rule (b) edges of its release, as its lowering orders them.
        if let Some(recorder) = self.graph.recorder() {
            lower(recorder, id, event.tid, event.op, event.loc);
        }
    }

    fn report(&self) -> &Report {
        self.col.report()
    }

    fn footprint_bytes(&self) -> usize {
        self.clocks.footprint_bytes()
            + self.queues.footprint_bytes()
            + self.col.footprint_bytes()
            + self.graph.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        self.clocks.resident_bytes()
            + self.queues.resident_bytes()
            + self.col.resident_bytes()
            + self.graph.footprint_bytes()
    }

    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        self.col.counts().case_counters()
    }

    fn hot_path_stats(&self) -> HotPathStats {
        HotPathStats::of(self.col.counts().hits(), self.state_bytes())
    }

    fn graph(&self) -> Option<&crate::ConstraintGraph> {
        self.graph.graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::SyncObj;
    use smarttrack_clock::ThreadId;
    use smarttrack_trace::VarId;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn increments_produce_distinct_epochs() {
        let mut c = DcClocks::default();
        assert_eq!(c.clock(t(0)).get(t(0)), 1);
        c.tick(t(0));
        assert_eq!(c.clock(t(0)).get(t(0)), 2);
    }

    #[test]
    fn fork_transfers_and_join_returns() {
        let mut c = DcClocks::default();
        c.clock(t(0)).set(t(0), 7);
        c.fork(t(0), t(1));
        assert_eq!(c.clock(t(1)).get(t(0)), 7);
        assert_eq!(c.clock(t(0)).get(t(0)), 8, "fork increments the parent");
        c.clock(t(1)).set(t(1), 4);
        c.join(t(0), t(1));
        assert_eq!(c.clock(t(0)).get(t(1)), 4);
    }

    #[test]
    fn volatiles_order_write_to_read() {
        let mut c = DcClocks::default();
        let v = VarId::new(0);
        c.clock(t(0)).set(t(0), 3);
        c.publish(t(0), SyncObj::Volatile(v));
        c.absorb(t(1), SyncObj::Volatile(v));
        assert_eq!(c.clock(t(1)).get(t(0)), 3);
    }
}

//! RoadRunner's *default* FastTrack2 behavior, for the §5.4 contrast.
//!
//! The paper's FT2 deliberately differs from the FastTrack2 tool bundled
//! with RoadRunner: "RoadRunner's FastTrack2 does not update last-access
//! metadata at read events that detect a race (for unknown reasons); it does
//! not perform analysis on future accesses to a variable after it detects a
//! race on the variable; and it limits the number of races it counts" —
//! also, prior work "used default RoadRunner behavior that stops performing
//! analysis for a field after 100 dynamic races detected on the field"
//! (§5.6), which is why the paper's dynamic race counts dwarf prior work's.
//!
//! [`RoadRunnerFt2`] reproduces those behaviors so the count difference can
//! be demonstrated (see its tests), explaining the paper's Table 7 footnote.

use smarttrack_clock::{Epoch, ThreadId};
use smarttrack_trace::{Event, EventId, LockId};

use crate::access::Ft2Var;
use crate::column::VarRule;
use crate::common::slot;
use crate::edges::HardEdges;
use crate::hb::{HbClocks, HbSyncState};
use crate::lower::{lower, Access, ClockRow, LockMode};
use crate::report::{AccessKind, Report};
use crate::{Detector, OptLevel, Relation};

/// Dynamic races counted per variable before RoadRunner stops analyzing it.
const RACE_LIMIT_PER_VAR: u32 = 100;

#[derive(Clone, Debug, Default)]
struct VarState {
    var: Ft2Var,
    races: u32,
    dead: bool,
}

/// FastTrack2 with RoadRunner's default race handling: per-variable analysis
/// stops after the first detected race on that variable (and would stop
/// counting after 100; both behaviors modelled).
///
/// Not part of the paper's Table 1 matrix — it exists to reproduce the §5.4
/// and §5.6 comparisons against prior work's methodology.
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, Ft2, RoadRunnerFt2};
/// use smarttrack_trace::{Op, ThreadId, TraceBuilder, VarId};
///
/// let mut b = TraceBuilder::new();
/// for round in 0..5u32 {
///     b.push(ThreadId::new(round % 2), Op::Write(VarId::new(0)))?;
/// }
/// let trace = b.finish();
/// let mut full = Ft2::new();
/// let mut rr = RoadRunnerFt2::new();
/// run_detector(&mut full, &trace);
/// run_detector(&mut rr, &trace);
/// assert_eq!(full.report().dynamic_count(), 4, "the paper's FT2 counts every race");
/// assert_eq!(rr.report().dynamic_count(), 1, "RoadRunner stops at the first");
/// # Ok::<(), smarttrack_trace::TraceError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct RoadRunnerFt2 {
    sync: HbSyncState,
    vars: Vec<VarState>,
    report: Report,
}

impl RoadRunnerFt2 {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        RoadRunnerFt2::default()
    }

    fn record(&mut self, a: Access, prior: Vec<ThreadId>) {
        let vs = &mut self.vars[a.x.index()];
        vs.races += 1;
        // RoadRunner stops analyzing the variable after a detected race...
        vs.dead = true;
        // ...and would cap the *count* at 100 dynamic races per field.
        if vs.races <= RACE_LIMIT_PER_VAR {
            self.report.record(a.id, a.loc, a.t, a.x, a.kind, prior);
        }
    }
}

impl ClockRow for RoadRunnerFt2 {
    type Clocks = HbClocks;

    fn edges(&mut self) -> &mut HardEdges<HbClocks> {
        &mut self.sync.edges
    }

    fn access(&mut self, a: Access) {
        let e = Epoch::new(a.t, self.sync.edges.local(a.t));
        let vs = slot(&mut self.vars, a.x.index());
        if vs.dead || vs.var.same_epoch(a.kind, e).is_some() {
            return;
        }
        let now = self.sync.edges.clock_ref(a.t);
        let last_write = vs.var.write_epoch();
        let prior = if a.kind == AccessKind::Read && !last_write.leq_vc(now) {
            // Unlike the paper's FT2, a racing read leaves the read
            // metadata alone (the variable dies anyway).
            vec![last_write.tid()]
        } else {
            vs.var.access(a.kind, e, |e| e.leq_vc(now)).1
        };
        if !prior.is_empty() {
            self.record(a, prior);
        }
    }

    fn acquire(&mut self, _id: EventId, t: ThreadId, m: LockId, mode: LockMode) {
        self.sync.acquire(t, m, mode);
    }

    fn release(&mut self, _id: EventId, t: ThreadId, m: LockId) {
        self.sync.release(t, m);
    }
}

impl Detector for RoadRunnerFt2 {
    fn name(&self) -> &'static str {
        "RoadRunner-FT2"
    }

    fn relation(&self) -> Relation {
        Relation::Hb
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::Epochs
    }

    fn process(&mut self, id: EventId, event: &Event) {
        lower(self, id, event.tid, event.op, event.loc);
    }

    fn report(&self) -> &Report {
        &self.report
    }

    fn footprint_bytes(&self) -> usize {
        self.sync.footprint_bytes()
            + self
                .vars
                .iter()
                .map(|v| v.var.heap_bytes() + std::mem::size_of::<VarState>())
                .sum::<usize>()
            + self.report.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Ft2};
    use smarttrack_trace::{Op, Trace, TraceBuilder, VarId};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }

    fn racy_rounds(var: VarId, rounds: u32) -> Trace {
        let mut b = TraceBuilder::new();
        for round in 0..rounds {
            b.push(t(round % 2), Op::Write(var)).unwrap();
        }
        b.finish()
    }

    #[test]
    fn stops_analyzing_a_variable_after_its_first_race() {
        let trace = racy_rounds(x(0), 10);
        let mut rr = RoadRunnerFt2::new();
        run_detector(&mut rr, &trace);
        assert_eq!(rr.report().dynamic_count(), 1);
        let mut full = Ft2::new();
        run_detector(&mut full, &trace);
        assert_eq!(full.report().dynamic_count(), 9);
    }

    #[test]
    fn other_variables_keep_being_analyzed() {
        use smarttrack_trace::Loc;
        let mut b = TraceBuilder::new();
        b.push_at(t(0), Op::Write(x(0)), Loc::new(0)).unwrap();
        b.push_at(t(1), Op::Write(x(0)), Loc::new(1)).unwrap(); // race on x0; x0 dies
        b.push_at(t(0), Op::Write(x(1)), Loc::new(2)).unwrap();
        b.push_at(t(1), Op::Write(x(1)), Loc::new(3)).unwrap(); // race on x1 still found
        let mut rr = RoadRunnerFt2::new();
        run_detector(&mut rr, &b.finish());
        assert_eq!(rr.report().dynamic_count(), 2);
        assert_eq!(rr.report().static_count(), 2);
    }

    #[test]
    fn first_race_matches_the_papers_ft2() {
        use smarttrack_trace::gen::RandomTraceSpec;
        for seed in 0..40 {
            let trace = RandomTraceSpec {
                events: 300,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            let mut rr = RoadRunnerFt2::new();
            let mut full = Ft2::new();
            run_detector(&mut rr, &trace);
            run_detector(&mut full, &trace);
            assert_eq!(
                rr.report().first_race_event(),
                full.report().first_race_event(),
                "seed {seed}: the variants agree up to the first race"
            );
        }
    }

    #[test]
    fn racy_read_does_not_update_metadata() {
        // T0 writes, T1's racy read is dropped from metadata: a subsequent
        // properly-ordered write by T0 still sees its own epoch.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap(); // race; variable dies
        b.push(t(0), Op::Write(x(0))).unwrap(); // ignored (dead)
        let mut rr = RoadRunnerFt2::new();
        run_detector(&mut rr, &b.finish());
        assert_eq!(rr.report().dynamic_count(), 1);
    }
}

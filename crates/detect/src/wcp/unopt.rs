//! Unoptimized WCP analysis (Kini et al. 2017): vector-clock last-access
//! metadata, per-(lock, variable) CCS tables storing HB release times, and
//! per-lock per-thread rule (b) queues.

use smarttrack_clock::{ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, Loc, LockId, VarId};

use crate::access::UnoptVar;
use crate::common::{slot, CsTables};
use crate::counters::PathCounters;
use crate::edges::HardEdges;
use crate::lower::{lower, ClockRow, LockMode};
use crate::queues::WcpRuleBQueues;
use crate::report::{AccessKind, Report};
use crate::wcp::{wcp_epoch_ordered, WcpClocks, WcpThreads};
use crate::{Detector, HotPathStats, OptLevel, Relation};

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
#[derive(Clone, Debug, Default)]
pub struct UnoptWcp {
    clocks: WcpClocks,
    cs: CsTables,
    queues: WcpRuleBQueues,
    vars: Vec<UnoptVar>,
    report: Report,
    paths: PathCounters,
}

impl UnoptWcp {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        UnoptWcp::default()
    }

    /// Diagnostic view of the WCP clock of `t` (for tests).
    pub fn wcp_clock(&self, t: ThreadId) -> &VectorClock {
        self.clocks.wcp_ref(t)
    }
}

impl ClockRow for UnoptWcp {
    type Clocks = WcpThreads;

    fn edges(&mut self) -> &mut HardEdges<WcpThreads> {
        &mut self.clocks.edges
    }

    fn access(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc, kind: AccessKind) {
        let h_own = self.clocks.local(t);
        if slot(&mut self.vars, x.index()).same_epoch(kind, t, h_own) {
            self.paths.fast += 1;
            return;
        }
        self.paths.slow += 1;
        let mut p = self.clocks.wcp(t).clone();
        let write = kind == AccessKind::Write;
        self.cs.rule_a(t, x, write, false, |lt| p.join(&lt.clock));
        let ordered = |a| wcp_epoch_ordered(a, t, h_own, &p);
        let racing = self.vars[x.index()].access(kind, t, h_own, ordered);
        self.clocks.wcp(t).assign(&p);
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

impl Detector for UnoptWcp {
    fn name(&self) -> &'static str {
        "Unopt-WCP"
    }

    fn relation(&self) -> Relation {
        Relation::Wcp
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::Unopt
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
            + UnoptVar::table_bytes(&self.vars)
            + self.report.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        self.clocks.resident_bytes()
            + self.cs.resident_bytes()
            + self.queues.resident_bytes()
            + UnoptVar::table_resident_bytes(&self.vars)
            + self.report.footprint_bytes()
    }

    fn hot_path_stats(&self) -> HotPathStats {
        HotPathStats {
            fast_hits: self.paths.fast,
            slow_hits: self.paths.slow,
            state_bytes: self.state_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, UnoptDc, UnoptHb};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, LockId, Op, Trace, TraceBuilder};

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

//! SmartTrack-WCP analysis: Algorithm 3's CCS optimizations applied to WCP
//! ("Applying SmartTrack to WDC and WCP analyses is analogous and
//! straightforward", §4.2).
//!
//! CS lists store references to *HB* release-time clocks (rule (a) for WCP
//! joins the HB clock of the earlier release, left-composing with HB);
//! `MultiCheck` runs against the WCP clock; rule (b) keeps WCP's per-lock
//! per-thread queues, whose acquire entries are already epochs.

use smarttrack_clock::{Epoch, ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, Loc, LockId, VarId};

use crate::ccs::{CcsFidelity, CcsState};
use crate::counters::FtoCaseCounters;
use crate::edges::HardEdges;
use crate::lower::{lower, ClockRow, LockMode};
use crate::queues::WcpRuleBQueues;
use crate::report::{AccessKind, Report};
use crate::wcp::{wcp_epoch_ordered, WcpClocks, WcpThreads};
use crate::{Detector, OptLevel, Relation};

/// SmartTrack-WCP analysis (`ST-WCP` in the paper's tables).
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, SmartTrackWcp};
/// use smarttrack_trace::paper;
///
/// let mut det = SmartTrackWcp::new();
/// run_detector(&mut det, &paper::figure1());
/// assert_eq!(det.report().dynamic_count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SmartTrackWcp {
    clocks: WcpClocks,
    ccs: CcsState,
    queues: WcpRuleBQueues,
}

impl Default for SmartTrackWcp {
    fn default() -> Self {
        Self::new()
    }
}

impl SmartTrackWcp {
    /// Creates the analysis in [`CcsFidelity::Strict`] mode.
    pub fn new() -> Self {
        Self::with_fidelity(CcsFidelity::Strict)
    }

    /// Creates the analysis with an explicit CCS fidelity mode.
    pub fn with_fidelity(fidelity: CcsFidelity) -> Self {
        SmartTrackWcp {
            clocks: WcpClocks::new(),
            ccs: CcsState::new(fidelity),
            queues: WcpRuleBQueues::new(),
        }
    }
}

impl ClockRow for SmartTrackWcp {
    type Clocks = WcpThreads;

    fn edges(&mut self) -> &mut HardEdges<WcpThreads> {
        &mut self.clocks.edges
    }

    /// Accesses check against the WCP clock `Pt`, with the own-thread
    /// entry compared against `Ht` (see `wcp_epoch_ordered`).
    fn access(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc, kind: AccessKind) {
        let h_own = self.clocks.local(t);
        let check = move |a: Epoch, p: &VectorClock| wcp_epoch_ordered(a, t, h_own, p);
        let e = Epoch::new(t, h_own);
        let clock = self.clocks.wcp(t);
        self.ccs.access(id, t, x, loc, kind, e, clock, check);
    }

    fn acquire(&mut self, _id: EventId, t: ThreadId, m: LockId, mode: LockMode) {
        let local = self.clocks.hb(t).get(t);
        self.queues
            .on_acquire(m, t, local, mode == LockMode::Exclusive);
        self.ccs.acquire(t, m, mode);
        self.clocks.acquire(t, m, mode);
    }

    fn release(&mut self, id: EventId, t: ThreadId, m: LockId) {
        // The innermost section's mode gates both the rule (b)
        // consumption and the clock publication below.
        let entry = self.ccs.release(t, m);
        let write_mode = entry.as_ref().is_none_or(|e| e.write);
        let mut p = self.clocks.wcp(t).clone();
        self.queues.consume(m, t, &mut p, write_mode, |_| {});
        self.clocks.wcp(t).assign(&p);
        let hb = self.clocks.hb(t).clone();
        self.queues.on_release_publish(m, t, &hb, id);
        // Resolve the deferred release time with the *HB* clock: rule (a)
        // for WCP joins HB release times.
        if let Some(entry) = entry {
            entry.resolve(hb.clone());
        }
        self.clocks
            .release_publish(t, m, LockMode::of_write(write_mode));
    }
}

impl Detector for SmartTrackWcp {
    fn name(&self) -> &'static str {
        "SmartTrack-WCP"
    }

    fn relation(&self) -> Relation {
        Relation::Wcp
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::SmartTrack
    }

    fn begin_stream(&mut self, hint: crate::StreamHint) {
        self.clocks.reserve(&hint);
        self.ccs.reserve(&hint);
    }

    fn process(&mut self, id: EventId, event: &Event) {
        lower(self, id, event.tid, event.op, event.loc);
    }

    fn report(&self) -> &Report {
        &self.ccs.report
    }

    fn footprint_bytes(&self) -> usize {
        self.clocks.footprint_bytes() + self.queues.footprint_bytes() + self.ccs.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        self.clocks.resident_bytes() + self.queues.resident_bytes() + self.ccs.resident_bytes()
    }

    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        Some(&self.ccs.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, FtoWcp, UnoptWcp};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, Trace};

    fn first_race<D: Detector>(mut det: D, tr: &Trace) -> Option<EventId> {
        run_detector(&mut det, tr);
        det.report().first_race_event()
    }

    #[test]
    fn figures_match_fto_and_unopt() {
        for (name, tr) in paper::all_figures() {
            let st = first_race(SmartTrackWcp::new(), &tr);
            assert_eq!(st, first_race(FtoWcp::new(), &tr), "ST vs FTO on {name}");
            assert_eq!(
                st,
                first_race(UnoptWcp::new(), &tr),
                "ST vs Unopt on {name}"
            );
        }
    }

    #[test]
    fn random_traces_first_race_matches_fto() {
        for seed in 0..120 {
            let tr = RandomTraceSpec {
                events: 300,
                threads: 3,
                vars: 6,
                locks: 3,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            assert_eq!(
                first_race(SmartTrackWcp::new(), &tr),
                first_race(FtoWcp::new(), &tr),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn rwlock_traces_first_race_matches_fto_and_unopt() {
        for seed in 0..120 {
            let tr = RandomTraceSpec::tiny_rw().generate(seed);
            let st = first_race(SmartTrackWcp::new(), &tr);
            assert_eq!(st, first_race(FtoWcp::new(), &tr), "ST vs FTO seed {seed}");
            assert_eq!(
                st,
                first_race(UnoptWcp::new(), &tr),
                "ST vs Unopt seed {seed}"
            );
        }
    }
}

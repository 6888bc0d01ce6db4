//! Concurrent SmartTrack-WDC: the paper's cheapest predictive analysis
//! (§5.7) running inside the application threads.
//!
//! This is Algorithm 3 minus rule (b) (the WDC relation, §3), with the
//! sequential implementation's `Strict` CCS fidelity refinements: the
//! generic [`OnlineRow`] over the sequential SmartTrack rows' per-variable
//! [`StVar`] bodies. Two things differ from the sequential row:
//!
//! * `Ct` and `Ht` are owned by the thread's context — WDC lock operations
//!   touch **no shared analysis state** except publishing the critical
//!   section's release time into its write-once cell;
//! * CS lists use the thread-safe [`ArcCells`] family: a section's release
//!   time is an `Arc<OnceLock<VectorClock>>`, and a cell not yet published
//!   *is* the paper's `∞`. The `OnceLock` publication carries the
//!   happens-before edge from the release to every later reader, and
//!   resolution is visible where the analysis relies on it: when the
//!   current thread *holds* lock `m`, any other thread's critical section
//!   on `m` has run its release hook (hooks run before the real unlock).

use parking_lot::Mutex;
use smarttrack_clock::{Epoch, ThreadId, VectorClock};
use smarttrack_detect::{
    AccessKind, ArcCells, CcsFidelity, FtoCase, FtoVar, HeldSections, LockMode, OptLevel, Relation,
    StVar,
};
use smarttrack_trace::LockId;

use crate::row::{OnlineFamily, OnlineRow};

/// SmartTrack-WDC analysis with concurrent metadata (the parallel
/// counterpart of [`SmartTrackWdc`](smarttrack_detect::SmartTrackWdc) in
/// `Strict` fidelity).
///
/// # Examples
///
/// ```
/// use smarttrack_parallel::{feed_trace, ConcurrentSmartTrackWdc, WorldSpec};
/// use smarttrack_trace::paper;
///
/// let trace = paper::figure1();
/// let analysis = ConcurrentSmartTrackWdc::new(WorldSpec::of_trace(&trace));
/// let report = feed_trace(&analysis, &trace);
/// assert_eq!(report.dynamic_count(), 1, "figure 1's predictable race");
/// ```
pub type ConcurrentSmartTrackWdc = OnlineRow<StWdcFamily>;

/// The SmartTrack-WDC family of [`OnlineRow`].
#[derive(Debug)]
pub struct StWdcFamily;

/// WDC's ordering test: the plain epoch-before-clock check.
fn wdc_ordered(a: Epoch, now: &VectorClock) -> bool {
    a.leq_vc(now)
}

impl OnlineFamily for StWdcFamily {
    type Var = StVar<ArcCells>;
    /// `Ht`: the thread's active critical sections, outermost first.
    type Thread = HeldSections<ArcCells>;
    /// WDC has no per-lock clocks: lock-induced ordering comes only from
    /// rule (a), through the CS lists.
    type Lock = ();

    const TICK_EVERY_SYNC: bool = true;
    const NAME: &'static str = "SmartTrack-WDC (parallel)";
    const RELATION: Relation = Relation::Wdc;
    const OPT_LEVEL: OptLevel = OptLevel::SmartTrack;

    fn fto(var: &Self::Var) -> &FtoVar {
        var.fto()
    }

    fn access(
        var: &mut Self::Var,
        held: &mut Self::Thread,
        kind: AccessKind,
        e: Epoch,
        clock: &mut VectorClock,
    ) -> (FtoCase, Vec<ThreadId>) {
        var.access(kind, e, held, clock, wdc_ordered, CcsFidelity::Strict)
    }

    fn acquire(
        _: &Mutex<()>,
        held: &mut Self::Thread,
        _: &mut VectorClock,
        m: LockId,
        mode: LockMode,
    ) {
        held.acquire(m, mode);
    }

    fn release(_: &Mutex<()>, held: &mut Self::Thread, clock: &mut VectorClock, m: LockId) {
        if let Some(entry) = held.release(m) {
            entry.resolve(clock.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{feed_trace, OnlineAnalysis, WorldSpec};
    use smarttrack_detect::{run_detector, Detector, SmartTrackWdc};
    use smarttrack_trace::{paper, Op, TraceBuilder, VarId};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    fn assert_matches_sequential(tr: &smarttrack_trace::Trace, label: &str) {
        let mut seq = SmartTrackWdc::new();
        run_detector(&mut seq, tr);
        let par = ConcurrentSmartTrackWdc::new(WorldSpec::of_trace(tr));
        let report = feed_trace(&par, tr);
        assert_eq!(report.races(), seq.report().races(), "races on {label}");
        let pc = par.case_counters();
        let sc = seq.case_counters().expect("sequential ST tracks cases");
        for case in FtoCase::ALL {
            assert_eq!(pc.count(case), sc.count(case), "{case} count on {label}");
        }
    }

    #[test]
    fn matches_sequential_on_paper_figures() {
        for (name, tr) in paper::all_figures() {
            assert_matches_sequential(&tr, name);
        }
    }

    #[test]
    fn figure1_race_detected() {
        let tr = paper::figure1();
        let par = ConcurrentSmartTrackWdc::new(WorldSpec::of_trace(&tr));
        let report = feed_trace(&par, &tr);
        assert_eq!(report.dynamic_count(), 1);
    }

    #[test]
    fn figure3_wdc_false_race_detected_like_sequential() {
        // Figure 3 is a WDC-race that is not a predictable race; WDC analysis
        // (sequential or parallel) must report it.
        let tr = paper::figure3();
        let par = ConcurrentSmartTrackWdc::new(WorldSpec::of_trace(&tr));
        assert_eq!(feed_trace(&par, &tr).dynamic_count(), 1);
    }

    #[test]
    fn rule_a_ordering_through_conflicting_critical_sections() {
        // wr(x) and rd(x) in critical sections on the same lock: rule (a)
        // orders them; the later unprotected write to another variable still
        // races.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        let tr = b.finish();
        let par = ConcurrentSmartTrackWdc::new(WorldSpec::of_trace(&tr));
        assert!(feed_trace(&par, &tr).is_empty(), "rule (a) orders the CCS");
    }

    #[test]
    fn unprotected_conflicting_accesses_race() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        b.push(t(2), Op::Read(x(0))).unwrap();
        let tr = b.finish();
        let par = ConcurrentSmartTrackWdc::new(WorldSpec::of_trace(&tr));
        let report = feed_trace(&par, &tr);
        assert_eq!(report.dynamic_count(), 2);
    }

    #[test]
    fn extras_preserve_rule_a_after_overwriting_write() {
        // Figure 4(c): Thread 2's unprotected write overwrites Lwx/Lrx, but
        // the extra metadata must preserve Thread 1's critical section on m
        // so Thread 3's rd(x) under m is still ordered after Thread 1.
        assert_matches_sequential(&paper::figure4c(), "figure 4(c)");
    }

    #[test]
    fn matches_sequential_on_random_traces() {
        use smarttrack_trace::gen::RandomTraceSpec;
        for seed in 0..40 {
            let tr = RandomTraceSpec {
                events: 600,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            assert_matches_sequential(&tr, &format!("seed {seed}"));
        }
    }
}

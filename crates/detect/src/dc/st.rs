//! SmartTrack-based DC/WDC analysis — paper Algorithm 3: FTO plus the
//! conflicting-critical-section (CCS) optimizations.
//!
//! Instead of per-(lock, variable) tables, each variable carries CS lists
//! (`Lwx`, `Lrx`) that mirror its last-access metadata, plus "extra" fall-back
//! metadata (`Ewx`, `Erx`) for critical sections the CS lists can no longer
//! represent. Rule (b) acquire queues shrink from vector clocks to epochs.

use crate::ccs::CcsState;
use crate::dc::DcRow;

/// SmartTrack-DC analysis (paper Algorithm 3), in
/// [`CcsFidelity::Strict`](crate::CcsFidelity::Strict) mode unless built
/// with `with_fidelity`.
pub type SmartTrackDc = DcRow<CcsState, true>;
/// SmartTrack-WDC analysis (Algorithm 3 minus rule (b): remove its lines 2
/// and 8–12).
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, SmartTrackWdc};
/// use smarttrack_trace::paper;
///
/// let mut det = SmartTrackWdc::new();
/// run_detector(&mut det, &paper::figure3());
/// assert_eq!(det.report().dynamic_count(), 1, "figure 3 is a WDC-race");
/// ```
pub type SmartTrackWdc = DcRow<CcsState, false>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, CcsFidelity, Detector, FtoCase, FtoDc, FtoWdc, UnoptDc};
    use smarttrack_clock::ThreadId;
    use smarttrack_trace::{gen::RandomTraceSpec, paper, EventId, Trace};

    fn first_race<D: Detector>(mut det: D, tr: &Trace) -> Option<EventId> {
        run_detector(&mut det, tr);
        det.report().first_race_event()
    }

    #[test]
    fn figures_match_fto() {
        for (name, tr) in paper::all_figures() {
            assert_eq!(
                first_race(SmartTrackDc::new(), &tr),
                first_race(FtoDc::new(), &tr),
                "ST-DC vs FTO-DC on {name}"
            );
            assert_eq!(
                first_race(SmartTrackWdc::new(), &tr),
                first_race(FtoWdc::new(), &tr),
                "ST-WDC vs FTO-WDC on {name}"
            );
        }
    }

    #[test]
    fn figure4a_takes_read_share_and_write_shared() {
        let mut det = SmartTrackDc::new();
        run_detector(&mut det, &paper::figure4a());
        assert!(det.report().is_empty());
        let c = det.case_counters().unwrap();
        // [Read Share]: T2's rd(x) (the paper's narrative), plus T3's
        // rd(oVar) — DC has no release→acquire edges, so the line-11
        // ordering check fails before the CCS join happens. This is exactly
        // the "[Read Share] where FTO-DC would take [Read Exclusive]"
        // behaviour of §4.2.
        assert_eq!(c.count(FtoCase::ReadShare), 2);
        // [Write Shared]: T3's wr(x) plus T3's wr(oVar) after the shared read.
        assert_eq!(c.count(FtoCase::WriteShared), 2);
    }

    #[test]
    fn figure4a_fto_takes_read_exclusive_instead() {
        let mut det = FtoDc::new();
        run_detector(&mut det, &paper::figure4a());
        let c = det.case_counters().unwrap();
        assert_eq!(
            c.count(FtoCase::ReadShare),
            0,
            "FTO-DC takes [Read Exclusive] where SmartTrack takes [Read Share]"
        );
        assert_eq!(
            c.count(FtoCase::WriteShared),
            0,
            "without [Read Share], FTO-DC's Rx stays an epoch at T3's write"
        );
    }

    #[test]
    fn figure4b_read_share_preserves_needed_ordering() {
        // Missing the rel(m)ᵀ¹ → wr(x)ᵀ³ ordering would be visible in T3's
        // clock after its write.
        let tr = paper::figure4b();
        let mut det = SmartTrackDc::new();
        run_detector(&mut det, &tr);
        assert!(det.report().is_empty());
        // T1 executed 11 events: acq, rd, 4×sync(o), rel(m); its release of m
        // was its last clock increment. T3's clock must have absorbed it.
        let mut unopt = UnoptDc::new();
        run_detector(&mut unopt, &tr);
        let t3 = ThreadId::new(2);
        let t1 = ThreadId::new(0);
        assert_eq!(
            det.thread_clock(t3).get(t1),
            unopt.thread_clock(t3).get(t1),
            "SmartTrack must track the same T1-knowledge as Unopt at T3"
        );
    }

    #[test]
    fn figure4c_and_4d_extras_preserve_ordering() {
        for (name, tr) in [("4c", paper::figure4c()), ("4d", paper::figure4d())] {
            let mut det = SmartTrackDc::new();
            run_detector(&mut det, &tr);
            assert!(det.report().is_empty(), "figure {name}");
            let mut unopt = UnoptDc::new();
            run_detector(&mut unopt, &tr);
            let t3 = ThreadId::new(2);
            let t1 = ThreadId::new(0);
            assert_eq!(
                det.thread_clock(t3).get(t1),
                unopt.thread_clock(t3).get(t1),
                "extras must carry T1's release to T3 (figure {name})"
            );
        }
    }

    #[test]
    fn random_traces_first_race_matches_fto_strict() {
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
                first_race(SmartTrackDc::new(), &tr),
                first_race(FtoDc::new(), &tr),
                "DC seed {seed}"
            );
            assert_eq!(
                first_race(SmartTrackWdc::new(), &tr),
                first_race(FtoWdc::new(), &tr),
                "WDC seed {seed}"
            );
        }
    }

    #[test]
    fn rwlock_traces_first_race_matches_fto() {
        for seed in 0..120 {
            let tr = RandomTraceSpec::tiny_rw().generate(seed);
            assert_eq!(
                first_race(SmartTrackDc::new(), &tr),
                first_race(FtoDc::new(), &tr),
                "DC seed {seed}"
            );
            assert_eq!(
                first_race(SmartTrackWdc::new(), &tr),
                first_race(FtoWdc::new(), &tr),
                "WDC seed {seed}"
            );
        }
    }

    #[test]
    fn paper_fidelity_matches_on_figures() {
        for (name, tr) in paper::all_figures() {
            assert_eq!(
                first_race(SmartTrackDc::with_fidelity(CcsFidelity::Paper), &tr),
                first_race(SmartTrackDc::with_fidelity(CcsFidelity::Strict), &tr),
                "fidelity modes disagree on {name}"
            );
        }
    }
}

#[cfg(test)]
mod fidelity_corner_tests {
    use super::*;
    use crate::{run_detector, CcsFidelity, Detector, FtoWdc};
    use smarttrack_clock::ThreadId;
    use smarttrack_trace::{LockId, Op, TraceBuilder, VarId};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    /// The adversarial execution behind the second CCS fidelity refinement
    /// (docs/ARCHITECTURE.md, "Deviations from the paper"): verbatim
    /// Algorithm 3 skips the `Lwx` `MultiCheck` in [Read Shared Owned], which
    /// here loses the rule (a) ordering `rel(m)ᵀ⁰ ≺ rd(x)ᵀ¹` — the only path
    /// carrying T0's `wr(y)` to T2 — producing a false WDC-race on `y` that
    /// FTO-WDC (and `Strict` mode) do not report. Under DC, rule (b) re-adds
    /// the lost ordering at T1's release of `m`, which is why the corner only
    /// manifests for WDC and why random traces never hit it (0 divergences
    /// across thousands of seeds).
    fn corner_case() -> smarttrack_trace::Trace {
        let (xv, y, ov, pv) = (x(0), x(1), x(2), x(3));
        let (lm, lo, lp) = (m(0), m(1), m(2));
        let mut b = TraceBuilder::new();
        let sync = |b: &mut TraceBuilder, tid: ThreadId, l: LockId, v: VarId| {
            b.push(tid, Op::Acquire(l)).unwrap();
            b.push(tid, Op::Read(v)).unwrap();
            b.push(tid, Op::Write(v)).unwrap();
            b.push(tid, Op::Release(l)).unwrap();
        };
        // T0: inside m, publish x via the o-sync, then write y.
        b.push(t(0), Op::Acquire(lm)).unwrap();
        b.push(t(0), Op::Write(xv)).unwrap();
        sync(&mut b, t(0), lo, ov);
        b.push(t(0), Op::Write(y)).unwrap();
        // T1: ordered after wr(x) via o; reads x while m is still pending
        // ([Read Share] → shared Rx).
        sync(&mut b, t(1), lo, ov);
        b.push(t(1), Op::Read(xv)).unwrap();
        // T0 releases m (its release clock now covers wr(y)).
        b.push(t(0), Op::Release(lm)).unwrap();
        // T1 re-reads x inside m: [Read Shared Owned]. Rule (a) demands
        // rel(m)ᵀ⁰ ≺DC this read; verbatim Algorithm 3 skips the join.
        b.push(t(1), Op::Acquire(lm)).unwrap();
        b.push(t(1), Op::Read(xv)).unwrap();
        b.push(t(1), Op::Release(lm)).unwrap();
        sync(&mut b, t(1), lp, pv);
        // T2: ordered after T1 via p; reads y. True DC orders wr(y)ᵀ⁰ first.
        sync(&mut b, t(2), lp, pv);
        b.push(t(2), Op::Read(y)).unwrap();
        b.finish()
    }

    #[test]
    fn strict_mode_matches_fto_on_the_corner_case() {
        let tr = corner_case();
        let mut fto = FtoWdc::new();
        run_detector(&mut fto, &tr);
        assert!(fto.report().is_empty(), "FTO-WDC: no WDC-race exists");
        let mut strict = SmartTrackWdc::with_fidelity(CcsFidelity::Strict);
        run_detector(&mut strict, &tr);
        assert!(strict.report().is_empty(), "Strict mode matches FTO");
        // DC is immune either way: rule (b) restores the ordering.
        let mut paper_dc = SmartTrackDc::with_fidelity(CcsFidelity::Paper);
        run_detector(&mut paper_dc, &tr);
        assert!(paper_dc.report().is_empty(), "rule (b) rescues DC");
    }

    #[test]
    fn paper_mode_over_reports_on_the_corner_case() {
        let tr = corner_case();
        let mut paper = SmartTrackWdc::with_fidelity(CcsFidelity::Paper);
        run_detector(&mut paper, &tr);
        assert_eq!(
            paper.report().dynamic_count(),
            1,
            "verbatim Algorithm 3 loses the rule (a) ordering and reports a \
             false race on y — the reason Strict is the default"
        );
        assert_eq!(paper.report().races()[0].var, x(1), "the race is on y");
    }
}

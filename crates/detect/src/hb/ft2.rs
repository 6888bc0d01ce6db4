//! The FastTrack2 algorithm (Flanagan & Freund 2017): epoch-optimized HB
//! analysis without the ownership cases.

use crate::column::Ft2Column;
use crate::hb::HbRow;

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
pub type Ft2 = HbRow<Ft2Column>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Detector, Report};
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

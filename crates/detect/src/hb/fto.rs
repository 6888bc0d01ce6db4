//! FastTrack-Ownership HB analysis (Wood et al. 2017): the paper's primary
//! HB baseline, and the structural template for the FTO-based predictive
//! analyses (Algorithm 2 without the DC-specific parts).

use crate::column::FtoColumn;
use crate::hb::HbRow;

/// FTO-HB analysis (`FTO` in the paper's HB columns).
///
/// Compared with [`Ft2`](crate::Ft2), FTO unifies read and write metadata
/// (`Rx` represents the latest reads *and* write; after a write,
/// `Wx = Rx = Ct(t)@t`) and adds *owned* cases that skip race checks when the
/// current thread already owns the last access.
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, FtoHb};
/// use smarttrack_trace::paper;
///
/// let mut det = FtoHb::new();
/// run_detector(&mut det, &paper::figure2());
/// assert!(det.report().is_empty(), "Figure 2 has no HB-race");
/// ```
pub type FtoHb = HbRow<FtoColumn>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Detector, FtoCase, FtoCaseCounters, Report};
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

    fn run(b: TraceBuilder) -> (Report, FtoCaseCounters) {
        let mut det = FtoHb::new();
        run_detector(&mut det, &b.finish());
        let counters = det.case_counters().expect("FTO counts its cases");
        (det.report().clone(), counters.clone())
    }

    #[test]
    fn write_owned_skips_race_check() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Read(x(0))).unwrap();
        b.push(t(0), Op::Acquire(m(0))).unwrap(); // epoch changes at release only
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap(); // owned: last access was ours
        let (r, c) = run(b);
        assert!(r.is_empty());
        assert_eq!(c.count(FtoCase::WriteOwned), 1);
    }

    #[test]
    fn owned_cases_follow_write() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(0), Op::Read(x(0))).unwrap(); // [Read Owned]: write set Rx
        let (r, c) = run(b);
        assert!(r.is_empty());
        assert_eq!(c.count(FtoCase::ReadOwned), 1);
    }

    #[test]
    fn detects_read_write_race_in_shared_mode() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap(); // share
        b.push(t(0), Op::Write(x(0))).unwrap(); // races with T1's read only
        let (r, c) = run(b);
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.races()[0].prior_threads, vec![t(1)]);
        assert_eq!(c.count(FtoCase::WriteShared), 1);
    }

    #[test]
    fn matches_ft2_first_race_on_random_traces() {
        use crate::Ft2;
        use smarttrack_trace::gen::RandomTraceSpec;
        for seed in 0..30 {
            let tr = RandomTraceSpec {
                events: 400,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            let mut a = FtoHb::new();
            let mut b = Ft2::new();
            run_detector(&mut a, &tr);
            run_detector(&mut b, &tr);
            assert_eq!(
                a.report().first_race_event(),
                b.report().first_race_event(),
                "seed {seed}"
            );
        }
    }
}

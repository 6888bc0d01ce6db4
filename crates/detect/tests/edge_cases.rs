//! Edge-case and failure-injection tests for the detectors: inputs a
//! downstream user will eventually feed them.

use smarttrack_detect::{
    make_detector, run_detector, table1_configs, Detector, SmartTrackDc, UnoptDc,
};
use smarttrack_trace::{LockId, Op, ThreadId, Trace, TraceBuilder, VarId};

fn t(i: u32) -> ThreadId {
    ThreadId::new(i)
}
fn x(i: u32) -> VarId {
    VarId::new(i)
}
fn m(i: u32) -> LockId {
    LockId::new(i)
}

fn all_detectors() -> Vec<Box<dyn Detector>> {
    table1_configs()
        .into_iter()
        .map(|(r, l, g)| make_detector(r, l, g).expect("valid cell"))
        .collect()
}

#[test]
fn empty_trace_is_no_op() {
    let trace = Trace::default();
    for mut det in all_detectors() {
        let summary = run_detector(det.as_mut(), &trace);
        assert_eq!(summary.events, 0, "{}", det.name());
        assert!(det.report().is_empty());
    }
}

#[test]
fn single_thread_traces_never_race() {
    let mut b = TraceBuilder::new();
    for i in 0..50 {
        b.push(t(0), Op::Write(x(i % 5))).unwrap();
        if i % 7 == 0 {
            b.push(t(0), Op::Acquire(m(0))).unwrap();
            b.push(t(0), Op::Read(x(i % 5))).unwrap();
            b.push(t(0), Op::Release(m(0))).unwrap();
        }
    }
    let trace = b.finish();
    for mut det in all_detectors() {
        run_detector(det.as_mut(), &trace);
        assert!(det.report().is_empty(), "{}", det.name());
    }
}

#[test]
fn sparse_ids_grow_tables_safely() {
    // Large, non-contiguous thread/var/lock ids exercise the growable
    // tables (a downstream embedder may hash pointers into ids).
    let mut b = TraceBuilder::new();
    b.push(t(90), Op::Acquire(m(70))).unwrap();
    b.push(t(90), Op::Write(x(5_000))).unwrap();
    b.push(t(90), Op::Release(m(70))).unwrap();
    b.push(t(3), Op::Acquire(m(70))).unwrap();
    b.push(t(3), Op::Read(x(5_000))).unwrap();
    b.push(t(3), Op::Release(m(70))).unwrap();
    b.push(t(3), Op::Write(x(9_999))).unwrap();
    b.push(t(90), Op::Write(x(9_999))).unwrap(); // race
    let trace = b.finish();
    for mut det in all_detectors() {
        run_detector(det.as_mut(), &trace);
        assert_eq!(det.report().dynamic_count(), 1, "{}", det.name());
    }
}

#[test]
fn non_lifo_unlocking_is_handled() {
    // Lock-object APIs allow releasing in any order; the CS-list release
    // path must resolve the right pending entry.
    let mut b = TraceBuilder::new();
    b.push(t(0), Op::Acquire(m(0))).unwrap();
    b.push(t(0), Op::Acquire(m(1))).unwrap();
    b.push(t(0), Op::Write(x(0))).unwrap();
    b.push(t(0), Op::Release(m(0))).unwrap(); // outer released first
    b.push(t(0), Op::Write(x(1))).unwrap(); // still holds m1
    b.push(t(0), Op::Release(m(1))).unwrap();
    b.push(t(1), Op::Acquire(m(0))).unwrap();
    b.push(t(1), Op::Write(x(0))).unwrap(); // ordered via CCS on m0
    b.push(t(1), Op::Release(m(0))).unwrap();
    let trace = b.finish();
    for mut det in all_detectors() {
        run_detector(det.as_mut(), &trace);
        assert!(
            det.report().is_empty(),
            "{}: conflicting critical sections on m0 order the writes",
            det.name()
        );
    }
}

#[test]
fn many_threads_share_one_variable() {
    // 64 threads, all properly synchronized: forces Rx into wide vector
    // form and exercises per-pair queue growth without races.
    let mut b = TraceBuilder::new();
    for i in 0..64 {
        b.push(t(i), Op::Acquire(m(0))).unwrap();
        b.push(t(i), Op::Read(x(0))).unwrap();
        b.push(t(i), Op::Write(x(0))).unwrap();
        b.push(t(i), Op::Release(m(0))).unwrap();
    }
    let trace = b.finish();
    for mut det in all_detectors() {
        run_detector(det.as_mut(), &trace);
        assert!(det.report().is_empty(), "{}", det.name());
    }
}

#[test]
fn unsynchronized_readers_then_writer_reports_all_threads() {
    let mut b = TraceBuilder::new();
    for i in 0..6 {
        b.push(t(i), Op::Read(x(0))).unwrap();
    }
    b.push(t(6), Op::Write(x(0))).unwrap();
    let trace = b.finish();
    let mut det = UnoptDc::new();
    run_detector(&mut det, &trace);
    assert_eq!(det.report().dynamic_count(), 1, "one race at the write");
    assert_eq!(
        det.report().races()[0].prior_threads.len(),
        6,
        "all six readers are racing partners"
    );
}

#[test]
fn detection_is_deterministic_across_runs() {
    let spec = smarttrack_trace::gen::RandomTraceSpec {
        events: 600,
        threads: 5,
        ..smarttrack_trace::gen::RandomTraceSpec::default()
    };
    let trace = spec.generate(99);
    for (r, l, g) in table1_configs() {
        let mut a = make_detector(r, l, g).unwrap();
        let mut b = make_detector(r, l, g).unwrap();
        run_detector(a.as_mut(), &trace);
        run_detector(b.as_mut(), &trace);
        assert_eq!(a.report(), b.report(), "{}", a.name());
    }
}

#[test]
fn interleaved_critical_sections_consume_queues() {
    // Ping-pong critical sections with conflicting accesses: rule (b)
    // queues must keep consuming (regression guard for unbounded growth of
    // ordered entries once a thread bound is declared).
    let mut b = TraceBuilder::new();
    for round in 0..200 {
        let owner = t(round % 2);
        b.push(owner, Op::Acquire(m(0))).unwrap();
        b.push(owner, Op::Write(x(0))).unwrap();
        b.push(owner, Op::Release(m(0))).unwrap();
    }
    let trace = b.finish();
    let mut det = SmartTrackDc::new();
    let summary = run_detector(&mut det, &trace);
    assert!(det.report().is_empty());
    // With the thread bound run_detector declares, fully consumed prefixes
    // compact: footprint stays small relative to 200 critical sections of
    // growth (each release entry is a clock of 2 entries ≈ tens of bytes).
    assert!(
        summary.peak_footprint_bytes < 64 * 1024,
        "queues should compact: peak {} bytes",
        summary.peak_footprint_bytes
    );
}

#[test]
fn volatile_only_synchronization_suffices() {
    // A flag-based publication idiom: fully ordered via volatiles.
    let mut b = TraceBuilder::new();
    b.push(t(0), Op::Write(x(0))).unwrap();
    b.push(t(0), Op::VolatileWrite(x(0))).unwrap(); // volatile namespace
    b.push(t(1), Op::VolatileRead(x(0))).unwrap();
    b.push(t(1), Op::Write(x(0))).unwrap();
    let trace = b.finish();
    for mut det in all_detectors() {
        run_detector(det.as_mut(), &trace);
        assert!(det.report().is_empty(), "{}", det.name());
    }
}

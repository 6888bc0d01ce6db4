//! Integration tests for the parallel analyses (§5.1).
//!
//! Three layers of evidence that the concurrent metadata is correct:
//!
//! 1. **Deterministic differential**: fed one event at a time in trace order,
//!    the concurrent analyses must equal their sequential counterparts
//!    exactly — races, event ids, and FTO case counters (seeded loops over
//!    random traces).
//! 2. **Concurrent soundness trials**: running real OS threads, programs
//!    that are race-free under *every* interleaving must never produce a
//!    report, and programs racy under every interleaving always must.
//! 3. **Recorded-linearization cross-check**: the online report agrees with
//!    a sequential analysis of the driver's recorded interleaving.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smarttrack_clock::ThreadId;
use smarttrack_detect::{run_detector, Detector, FtoCase, FtoHb, SmartTrackWdc};
use smarttrack_parallel::{
    feed_trace, run_online, ConcurrentFtoHb, ConcurrentSmartTrackWdc, OnlineAnalysis, WorldSpec,
};
use smarttrack_runtime::{Program, ThreadSpec};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{LockId, Trace, VarId};

fn t(i: u32) -> ThreadId {
    ThreadId::new(i)
}
fn x(i: u32) -> VarId {
    VarId::new(i)
}
fn m(i: u32) -> LockId {
    LockId::new(i)
}

/// Normalized race view: (event, loc, tid, var, kind-is-write, priors).
fn norm(report: &smarttrack_detect::Report) -> Vec<(u32, u32, u32, u32, bool, Vec<u32>)> {
    report
        .races()
        .iter()
        .map(|r| {
            (
                r.event.raw(),
                r.loc.raw(),
                r.tid.raw(),
                r.var.raw(),
                matches!(r.kind, smarttrack_detect::AccessKind::Write),
                r.prior_threads.iter().map(|t| t.raw()).collect(),
            )
        })
        .collect()
}

fn assert_feed_matches_sequential(tr: &Trace, seed_label: &str) {
    // FTO-HB.
    let mut seq_hb = FtoHb::new();
    run_detector(&mut seq_hb, tr);
    let par_hb = ConcurrentFtoHb::new(WorldSpec::of_trace(tr));
    let par_hb_report = feed_trace(&par_hb, tr);
    assert_eq!(
        norm(&par_hb_report),
        norm(seq_hb.report()),
        "FTO-HB differential on {seed_label}"
    );
    let (pc, sc) = (
        par_hb.case_counters(),
        seq_hb.case_counters().expect("FTO tracks cases").clone(),
    );
    for case in FtoCase::ALL {
        assert_eq!(pc.count(case), sc.count(case), "HB {case} on {seed_label}");
    }

    // SmartTrack-WDC.
    let mut seq_wdc = SmartTrackWdc::new();
    run_detector(&mut seq_wdc, tr);
    let par_wdc = ConcurrentSmartTrackWdc::new(WorldSpec::of_trace(tr));
    let par_wdc_report = feed_trace(&par_wdc, tr);
    assert_eq!(
        norm(&par_wdc_report),
        norm(seq_wdc.report()),
        "SmartTrack-WDC differential on {seed_label}"
    );
    let (pc, sc) = (
        par_wdc.case_counters(),
        seq_wdc.case_counters().expect("ST tracks cases").clone(),
    );
    for case in FtoCase::ALL {
        assert_eq!(pc.count(case), sc.count(case), "WDC {case} on {seed_label}");
    }
}

/// Property 1 over condvar/barrier-bearing traces: the deterministic feed
/// must drive the online analyses' wait/notify/barrier arms (shared condvar
/// clocks, the round-keyed `OnlineBarrier`) to exactly the sequential
/// detectors' verdicts *and* FTO case counters — this is the differential
/// that catches a missing clock increment or a stolen rendezvous round.
#[test]
fn sync_op_feeds_match_sequential() {
    for seed in 0..24u64 {
        let tr = RandomTraceSpec {
            events: 160,
            ..RandomTraceSpec::tiny_sync()
        }
        .generate(seed);
        assert_feed_matches_sequential(&tr, &format!("tiny_sync seed {seed}"));
    }
}

/// Property 1 over rwlock-bearing traces: read/write acquires and failed
/// trylocks drive the online reader-aggregate clocks (HB) and read-mode CS
/// entries (WDC) to exactly the sequential verdicts and case counters.
#[test]
fn rwlock_feeds_match_sequential() {
    for seed in 0..24u64 {
        let tr = RandomTraceSpec {
            events: 160,
            ..RandomTraceSpec::tiny_rw()
        }
        .generate(seed);
        assert_feed_matches_sequential(&tr, &format!("tiny_rw seed {seed}"));
    }
}

/// Property 1: deterministic feeds equal the sequential detectors, on 48
/// seeded cases.
#[test]
fn concurrent_structures_compute_the_sequential_analysis() {
    for case in 0..48 {
        let rng = &mut SmallRng::seed_from_u64(case);
        let (seed, events) = (rng.gen_range(0u64..10_000), rng.gen_range(100usize..800));
        let tr = RandomTraceSpec {
            events,
            ..RandomTraceSpec::default()
        }
        .generate(seed);
        assert_feed_matches_sequential(&tr, &format!("case {case}: seed {seed} events {events}"));
    }
}

/// A program whose threads only touch shared state under a single lock, plus
/// thread-private variables: race-free under every interleaving.
fn disciplined_program(threads: u32, rounds: usize) -> Program {
    let specs = (0..threads)
        .map(|i| {
            let mut spec = ThreadSpec::new();
            // One builder call per statement inside loops: long consuming
            // chains here trip a rustc release-mode miscompilation (see the
            // note in `driver.rs`'s lock_discipline_never_races).
            for r in 0..rounds {
                spec = spec.acquire(m(0));
                spec = spec.read(x(0));
                spec = spec.write(x(0));
                spec = spec.release(m(0));
                // Private variable: same-epoch traffic, never racy.
                spec = spec.write(x(1 + i));
                if r % 3 == 0 {
                    spec = spec.acquire(m(1));
                    spec = spec.write(x(100));
                    spec = spec.release(m(1));
                }
            }
            spec
        })
        .collect();
    Program::new(specs)
}

/// A program with one always-racy variable (no synchronization whatsoever
/// between its writers) amid lock-disciplined traffic.
fn racy_program(threads: u32, rounds: usize) -> Program {
    let specs = (0..threads)
        .map(|_| {
            let mut spec = ThreadSpec::new();
            for _ in 0..rounds {
                spec = spec.acquire(m(0));
                spec = spec.write(x(0));
                spec = spec.release(m(0));
                spec = spec.write(x(9)); // the racy one
            }
            spec
        })
        .collect();
    Program::new(specs)
}

/// Property 2a: race-free-under-all-interleavings programs never report.
#[test]
fn online_never_reports_on_disciplined_programs() {
    let program = disciplined_program(4, 40);
    for trial in 0..8 {
        let hb = ConcurrentFtoHb::new(WorldSpec::of_program(&program));
        let run = run_online(&program, &hb, false).unwrap();
        assert!(
            run.report.is_empty(),
            "HB trial {trial}: {:?}",
            run.report.races()
        );

        let wdc = ConcurrentSmartTrackWdc::new(WorldSpec::of_program(&program));
        let run = run_online(&program, &wdc, false).unwrap();
        assert!(
            run.report.is_empty(),
            "WDC trial {trial}: {:?}",
            run.report.races()
        );
    }
}

/// Property 2b: always-racy programs always report, and only on the racy
/// variable.
#[test]
fn online_always_reports_the_unsynchronized_variable() {
    let program = racy_program(4, 30);
    for trial in 0..8 {
        let wdc = ConcurrentSmartTrackWdc::new(WorldSpec::of_program(&program));
        let run = run_online(&program, &wdc, false).unwrap();
        assert!(!run.report.is_empty(), "WDC trial {trial} found no race");
        for race in run.report.races() {
            assert_eq!(race.var, x(9), "trial {trial}: race on wrong variable");
        }
    }
}

/// Property 3: the online report is consistent with a sequential analysis of
/// the observed linearization. For the disciplined program both are empty;
/// for the racy program both report races exactly on the racy variable.
#[test]
fn online_report_consistent_with_recorded_linearization() {
    let program = disciplined_program(3, 25);
    for _ in 0..4 {
        let wdc = ConcurrentSmartTrackWdc::new(WorldSpec::of_program(&program));
        let run = run_online(&program, &wdc, true).unwrap();
        let recorded = run.recorded.expect("recording requested");
        assert_eq!(recorded.len(), run.events);
        let mut offline = SmartTrackWdc::new();
        run_detector(&mut offline, &recorded);
        assert!(run.report.is_empty());
        assert!(
            offline.report().is_empty(),
            "offline view of a disciplined execution must be race-free"
        );
    }

    let program = racy_program(3, 20);
    for _ in 0..4 {
        let wdc = ConcurrentSmartTrackWdc::new(WorldSpec::of_program(&program));
        let run = run_online(&program, &wdc, true).unwrap();
        let recorded = run.recorded.expect("recording requested");
        let mut offline = SmartTrackWdc::new();
        run_detector(&mut offline, &recorded);
        let online_vars: std::collections::BTreeSet<u32> =
            run.report.races().iter().map(|r| r.var.raw()).collect();
        let offline_vars: std::collections::BTreeSet<u32> = offline
            .report()
            .races()
            .iter()
            .map(|r| r.var.raw())
            .collect();
        assert_eq!(online_vars, offline_vars, "both views agree on racy vars");
        assert_eq!(online_vars.into_iter().collect::<Vec<_>>(), vec![9]);
    }
}

/// The observed linearization is itself a valid execution: it passes the
/// well-formedness validator (TraceBuilder) and replaying it through *any*
/// sequential detector is meaningful. Exercise the full Table-1 HB row.
#[test]
fn recorded_linearization_replays_through_all_hb_detectors() {
    use smarttrack_detect::{Ft2, UnoptHb};
    let program = disciplined_program(4, 15);
    let hb = ConcurrentFtoHb::new(WorldSpec::of_program(&program));
    let run = run_online(&program, &hb, true).unwrap();
    let recorded = run.recorded.unwrap();
    let mut unopt = UnoptHb::new();
    run_detector(&mut unopt, &recorded);
    let mut ft2 = Ft2::new();
    run_detector(&mut ft2, &recorded);
    let mut fto = FtoHb::new();
    run_detector(&mut fto, &recorded);
    assert!(unopt.report().is_empty());
    assert!(ft2.report().is_empty());
    assert!(fto.report().is_empty());
}

/// Fork/join chains through multiple generations stay ordered online.
#[test]
fn forked_generations_are_ordered_online() {
    // t0 forks t1, t1 forks t2; all write x0 in lifecycle order.
    let program = Program::new(vec![
        ThreadSpec::new()
            .write(x(0))
            .fork(t(1))
            .join(t(1))
            .read(x(0)),
        ThreadSpec::new().write(x(0)).fork(t(2)).join(t(2)),
        ThreadSpec::new().write(x(0)),
    ]);
    for _ in 0..10 {
        let wdc = ConcurrentSmartTrackWdc::new(WorldSpec::of_program(&program));
        let run = run_online(&program, &wdc, false).unwrap();
        assert!(run.report.is_empty(), "{:?}", run.report.races());
    }
}

/// Volatile publication orders an unlocked handoff (single-writer,
/// single-reader flag protocol) — race-free under the analysis because
/// volatile edges are hard ordering (§5.1).
#[test]
fn volatile_flag_protocol_is_race_free_when_ordered() {
    // t0 writes data then volatile-writes the flag; t1 is forked *after*
    // the publication and volatile-reads the flag before reading data: the
    // fork edge makes the protocol unconditionally ordered.
    let v = VarId::new(0);
    let program = Program::new(vec![
        ThreadSpec::new().write(x(0)).volatile_write(v).fork(t(1)),
        ThreadSpec::new().volatile_read(v).read(x(0)),
    ]);
    for _ in 0..10 {
        let hb = ConcurrentFtoHb::new(WorldSpec::of_program(&program));
        let run = run_online(&program, &hb, false).unwrap();
        assert!(run.report.is_empty());
    }
}

/// Stress: many threads, many variables, mixed locked and private traffic;
/// SmartTrack-WDC's CS lists and extras under real contention. The assert is
/// absence of false races plus internal-invariant panics (debug asserts).
#[test]
fn stress_smarttrack_wdc_under_contention() {
    let threads = 8u32;
    let mut specs = Vec::new();
    for i in 0..threads {
        let mut spec = ThreadSpec::new();
        for r in 0..60usize {
            // Nested critical sections in a globally consistent order (one
            // builder call per statement; see the rustc-miscompilation note
            // in `driver.rs`'s lock_discipline_never_races).
            spec = spec.acquire(m(0));
            spec = spec.acquire(m(1));
            spec = spec.read(x(0));
            spec = spec.write(x(0));
            spec = spec.release(m(1));
            spec = spec.write(x(2));
            spec = spec.release(m(0));
            if r % 5 == i as usize % 5 {
                spec = spec.acquire(m(2));
                spec = spec.write(x(3));
                spec = spec.release(m(2));
            }
            spec = spec.write(x(10 + i));
        }
        specs.push(spec);
    }
    let program = Program::new(specs);
    for trial in 0..4 {
        let wdc = ConcurrentSmartTrackWdc::new(WorldSpec::of_program(&program));
        let run = run_online(&program, &wdc, false).unwrap();
        // x0 and x2 are m0-disciplined, x3 is m2-disciplined, x10+i private:
        // all race-free. (WDC can in principle report false races, but not
        // on single-lock discipline: rule (a) orders every pair.)
        assert!(
            run.report.is_empty(),
            "trial {trial}: {:?}",
            run.report.races()
        );
        assert_eq!(run.events, program.total_ops(), "no Waits: 1 op = 1 event");
    }
}

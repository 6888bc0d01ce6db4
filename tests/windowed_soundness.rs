//! Property tests for the bounded-window analysis (the §6 SMT-window
//! stand-in), cross-checked against the exhaustive oracle on small traces:
//!
//! * soundness — a race proved inside a window (with the prefix frozen) is
//!   a race of the unconstrained trace;
//! * monotonicity — doubling the window never loses a race (larger windows
//!   see strictly more reorderings);
//! * the distant-race generator produces exactly the advertised racing
//!   pair, at every distance;
//! * window cuts landing inside a synchronization region — a read-held
//!   rwlock section, before an un-notified wait, inside an open barrier
//!   round — freeze exactly the observed synchronization state, on both
//!   randomized full-op traces and hand-built boundary cases.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{
    BarrierId, CondId, EventId, LockId, Op, ThreadId, Trace, TraceBuilder, VarId,
};
use smarttrack_vindicate::{
    OracleResult, PredictableRaceOracle, WindowedConfig, WindowedRaceAnalysis,
};
use smarttrack_workloads::distant_race_trace;

/// Oracle-sized lock traces.
fn tiny_trace(rng: &mut SmallRng) -> Trace {
    RandomTraceSpec {
        threads: rng.gen_range(2u32..4),
        events: rng.gen_range(10usize..22),
        vars: 3,
        locks: 2,
        max_nesting: 2,
        acquire_prob: 0.25,
        release_prob: 0.3,
        write_frac: 0.5,
        ..RandomTraceSpec::default()
    }
    .generate(rng.gen())
}

/// Small traces over the full post-v1 op vocabulary: condvars, barriers,
/// reader/writer locks, failed trylocks, fork/join. Event counts stay
/// oracle-sized so the exhaustive queries conclude.
fn tiny_full_trace(rng: &mut SmallRng) -> Trace {
    RandomTraceSpec {
        threads: rng.gen_range(2u32..4),
        events: rng.gen_range(12usize..22),
        vars: 3,
        locks: 1,
        acquire_prob: 0.15,
        release_prob: 0.25,
        condvars: 1,
        condvar_prob: 0.1,
        barriers: 1,
        barrier_prob: 0.06,
        rwlocks: 1,
        rw_read_prob: 0.08,
        rw_write_prob: 0.04,
        rw_release_prob: 0.15,
        try_fail_prob: 0.02,
        write_frac: 0.5,
        fork_join: rng.gen(),
        ..RandomTraceSpec::default()
    }
    .generate(rng.gen())
}

/// Seeded cases per property.
const CASES: u64 = 40;

/// Windowed soundness: freezing the prefix only *removes* reorderings, so
/// every windowed race must also be a race of the full trace.
fn assert_windowed_races_are_true(trace: &Trace, window: usize, what: &str) {
    let report = WindowedRaceAnalysis::new(trace, WindowedConfig::with_window(window)).analyze();
    let oracle = PredictableRaceOracle::new(trace);
    for &(a, b) in report.races() {
        let verdict = oracle.is_predictable_race(a, b);
        assert!(
            matches!(verdict, OracleResult::Race(..) | OracleResult::Unknown),
            "{what}: window {window} reported ({a}, {b}) but the unbounded oracle refutes it"
        );
    }
}

/// First-window refutation is final (the `WindowedRaceAnalysis::analyze`
/// optimization): a naive variant that re-queries every conflicting pair in
/// every window it appears in finds exactly the same races.
fn assert_refutation_is_final(trace: &Trace, window: usize, what: &str) {
    let stride = (window / 2).max(1);
    let config = WindowedConfig {
        window,
        stride,
        budget_per_query: 500_000,
    };
    let fast = WindowedRaceAnalysis::new(trace, config).analyze();

    let oracle = PredictableRaceOracle::new(trace).with_budget(500_000);
    let mut naive: HashSet<_> = Default::default();
    let n = trace.len();
    let mut lo = 0usize;
    loop {
        let hi = (lo + window).min(n);
        for i in lo..hi {
            for j in (i + 1)..hi {
                let (a, b) = (EventId::new(i as u32), EventId::new(j as u32));
                if !trace.event(a).conflicts_with(trace.event(b)) {
                    continue;
                }
                if let OracleResult::Race(x, y) = oracle.pair_in_window(a, b, lo, hi).result {
                    naive.insert((x, y));
                }
            }
        }
        if hi == n {
            break;
        }
        lo += stride;
    }
    let fast_set: HashSet<_> = fast.races().iter().copied().collect();
    assert_eq!(fast_set, naive, "{what}: window {window}");
}

#[test]
fn windowed_races_are_true_predictable_races() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let trace = tiny_trace(rng);
        assert_windowed_races_are_true(&trace, rng.gen_range(4..12), &format!("case {case}"));
    }
}

/// Doubling the window (same alignment) never loses a race: every pair
/// co-visible in a small window is co-visible in the enclosing doubled
/// window, whose frozen prefix is no longer.
#[test]
fn doubling_the_window_is_monotone() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let trace = tiny_trace(rng);
        let window = rng.gen_range(3usize..8);
        let run = |w: usize| {
            let config = WindowedConfig {
                window: w,
                stride: w,
                budget_per_query: 500_000,
            };
            WindowedRaceAnalysis::new(&trace, config).analyze()
        };
        let small = run(window);
        let large = run(window * 2);
        for pair in small.races() {
            assert!(
                large.races().contains(pair),
                "case {case}: window {window} found {pair:?} but window {} lost it",
                window * 2
            );
        }
    }
}

/// Later windows' larger horizon adds no reachable race for a pair the
/// first window refuted.
#[test]
fn later_windows_never_revive_a_refuted_pair() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let trace = tiny_trace(rng);
        assert_refutation_is_final(&trace, rng.gen_range(3..9), &format!("case {case}"));
    }
}

/// The distant-race generator delivers exactly one predictable race — the
/// advertised pair — verified exhaustively at oracle-sized distances.
#[test]
fn distant_race_generator_races_exactly_as_advertised() {
    for case in 0..CASES {
        let distance = SmallRng::seed_from_u64(case).gen_range(0usize..36);
        let (trace, first, second) = distant_race_trace(distance);
        let oracle = PredictableRaceOracle::new(&trace).with_budget(2_000_000);
        let what = format!("case {case}: distance {distance}");
        let found = oracle.any_predictable_race();
        assert_eq!(found, OracleResult::Race(first, second), "{what}");
    }
}

/// Windowed soundness over the full op vocabulary: wherever the window cut
/// lands — mid read-section, mid barrier round, between a notify and its
/// wait — a windowed race must be a race of the unconstrained trace.
#[test]
fn windowed_races_on_full_op_traces_are_true_predictable_races() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let trace = tiny_full_trace(rng);
        assert_windowed_races_are_true(&trace, rng.gen_range(4..12), &format!("case {case}"));
    }
}

/// First-window refutation finality extends to the post-v1 ops: the
/// removability argument (every enabling event — wake-up notify, round
/// enter, mode-respecting release — precedes its dependent in the observed
/// trace) keeps the dedup optimization exact on traces with condvars,
/// barriers, rwlocks, and failed trylocks.
#[test]
fn refutation_finality_survives_full_op_traces() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let trace = tiny_full_trace(rng);
        assert_refutation_is_final(&trace, rng.gen_range(4..10), &format!("case {case}"));
    }
}

/// A window cut inside a read-held rwlock section: the frozen read-mode
/// hold must keep blocking write acquires inside the window (else the
/// analysis would invent a race the rwlock prevents) while still admitting
/// other readers (else it would miss the reader-overlap race).
#[test]
fn window_cut_inside_a_read_held_section_keeps_the_frozen_hold() {
    let t0 = ThreadId::new(0);
    let t1 = ThreadId::new(1);
    let x = VarId::new(0);
    let r = LockId::new(0);
    let build = |second_mode: Op| {
        let mut b = TraceBuilder::new();
        b.push(t0, Op::AcqRead(r)).unwrap(); // e0 — frozen before the cut
        b.push(t0, Op::Read(x)).unwrap(); // e1
        b.push(t0, Op::Release(r)).unwrap(); // e2
        b.push(t1, second_mode).unwrap(); // e3
        b.push(t1, Op::Write(x)).unwrap(); // e4
        b.push(t1, Op::Release(r)).unwrap(); // e5
        b.finish()
    };
    let pair = (EventId::new(1), EventId::new(4));

    // Write-mode second section: the rwlock genuinely orders the accesses.
    // The cut at 1 leaves T0's read hold open in the frozen prefix; if the
    // window lost it, T1's acqw would be enabled immediately and the pair
    // would (unsoundly) race.
    let exclusive = build(Op::AcqWrite(r));
    let oracle = PredictableRaceOracle::new(&exclusive);
    assert_eq!(
        oracle.is_predictable_race(pair.0, pair.1),
        OracleResult::NoRace
    );
    assert_eq!(
        oracle.pair_in_window(pair.0, pair.1, 1, 6).result,
        OracleResult::NoRace,
        "the frozen read-mode hold must still block an in-window acqw"
    );

    // Read-mode second section: readers admit readers, so the same cut must
    // still let T1 overlap the frozen section and expose the race.
    let shared = build(Op::AcqRead(r));
    let oracle = PredictableRaceOracle::new(&shared);
    assert!(matches!(
        oracle.pair_in_window(pair.0, pair.1, 1, 6).result,
        OracleResult::Race(..)
    ));
}

/// A window cut between a notify and its wait: the frozen notify still
/// satisfies the in-window wait's wake-up prerequisite.
#[test]
fn wait_inside_the_window_accepts_its_frozen_notify() {
    let t0 = ThreadId::new(0);
    let t1 = ThreadId::new(1);
    let x = VarId::new(0);
    let m = LockId::new(0);
    let c = CondId::new(0);
    let mut b = TraceBuilder::new();
    b.push(t0, Op::Acquire(m)).unwrap(); // e0
    b.push(t0, Op::Notify(c)).unwrap(); // e1 — frozen before the cut
    b.push(t0, Op::Release(m)).unwrap(); // e2
    b.push(t1, Op::Acquire(m)).unwrap(); // e3
    b.push(t1, Op::Wait(c, m)).unwrap(); // e4 — inside the window
    b.push(t1, Op::Release(m)).unwrap(); // e5
    b.push(t1, Op::Write(x)).unwrap(); // e6
    b.push(t0, Op::Write(x)).unwrap(); // e7
    let trace = b.finish();

    let oracle = PredictableRaceOracle::new(&trace);
    let (a, z) = (EventId::new(6), EventId::new(7));
    assert!(matches!(
        oracle.is_predictable_race(a, z),
        OracleResult::Race(..)
    ));
    assert!(
        matches!(
            oracle.pair_in_window(a, z, 3, 8).result,
            OracleResult::Race(..)
        ),
        "the wait's wake-up cause is frozen in the prefix and must count as executed"
    );
}

/// An un-notified wait (spurious wakeup: no notify anywhere in the trace)
/// has no wake-up prerequisite, so a cut right before it leaves it
/// executable.
#[test]
fn un_notified_wait_inside_the_window_never_blocks() {
    let t0 = ThreadId::new(0);
    let t1 = ThreadId::new(1);
    let x = VarId::new(0);
    let m = LockId::new(0);
    let c = CondId::new(0);
    let mut b = TraceBuilder::new();
    b.push(t1, Op::Acquire(m)).unwrap(); // e0 — frozen before the cut
    b.push(t1, Op::Wait(c, m)).unwrap(); // e1 — inside the window, un-notified
    b.push(t1, Op::Release(m)).unwrap(); // e2
    b.push(t1, Op::Write(x)).unwrap(); // e3
    b.push(t0, Op::Write(x)).unwrap(); // e4
    let trace = b.finish();

    let oracle = PredictableRaceOracle::new(&trace);
    let (a, z) = (EventId::new(3), EventId::new(4));
    assert!(matches!(
        oracle.is_predictable_race(a, z),
        OracleResult::Race(..)
    ));
    assert!(matches!(
        oracle.pair_in_window(a, z, 1, 5).result,
        OracleResult::Race(..)
    ));
}

/// Window cuts landing inside an open barrier round: frozen enters count
/// toward in-window exits, and an in-window exit still demands the enters
/// that are themselves in the window.
#[test]
fn window_cut_inside_an_open_barrier_round() {
    let t0 = ThreadId::new(0);
    let t1 = ThreadId::new(1);
    let x = VarId::new(0);
    let bar = BarrierId::new(0);

    // Both threads race after the rendezvous; the race must survive a cut
    // after one enter (half-open round) and after both (fully open round).
    let mut b = TraceBuilder::new();
    b.push(t0, Op::BarrierEnter(bar)).unwrap(); // e0
    b.push(t1, Op::BarrierEnter(bar)).unwrap(); // e1
    b.push(t0, Op::BarrierExit(bar)).unwrap(); // e2
    b.push(t1, Op::BarrierExit(bar)).unwrap(); // e3
    b.push(t1, Op::Write(x)).unwrap(); // e4
    b.push(t0, Op::Write(x)).unwrap(); // e5
    let trace = b.finish();
    let oracle = PredictableRaceOracle::new(&trace);
    let (a, z) = (EventId::new(4), EventId::new(5));
    for lo in [1, 2] {
        assert!(
            matches!(
                oracle.pair_in_window(a, z, lo, 6).result,
                OracleResult::Race(..)
            ),
            "cut at {lo} inside the round must keep the frozen enters"
        );
    }

    // The rendezvous as the only ordering: T1 cannot pass the barrier until
    // T0 enters, and T0 enters only after its write — so the accesses never
    // meet, including when the cut leaves T1's enter frozen.
    let mut b = TraceBuilder::new();
    b.push(t1, Op::BarrierEnter(bar)).unwrap(); // e0 — frozen at cut 1
    b.push(t0, Op::Write(x)).unwrap(); // e1
    b.push(t0, Op::BarrierEnter(bar)).unwrap(); // e2
    b.push(t1, Op::BarrierExit(bar)).unwrap(); // e3
    b.push(t0, Op::BarrierExit(bar)).unwrap(); // e4
    b.push(t1, Op::Write(x)).unwrap(); // e5
    let trace = b.finish();
    let oracle = PredictableRaceOracle::new(&trace);
    let (a, z) = (EventId::new(1), EventId::new(5));
    assert_eq!(oracle.is_predictable_race(a, z), OracleResult::NoRace);
    assert_eq!(
        oracle.pair_in_window(a, z, 1, 6).result,
        OracleResult::NoRace,
        "an in-window exit still demands the in-window enter of its round"
    );
}

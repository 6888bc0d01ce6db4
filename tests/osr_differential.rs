//! Differential battery for the `OSR` optimistic sync-reversal analysis
//! row (Shi, Mathur & Pavlogiannis, arXiv 2401.05642).
//!
//! Four property families:
//!
//! 1. **Path equivalence.** `run_detector`, per-event `feed`, whole-stream
//!    `feed_batch`, and the legacy `analyze` wrapper produce bit-identical
//!    reports for the `osr` config, including through an STB round trip
//!    and the `EnginePool` corpus scheduler.
//! 2. **SyncP ⊆ OSR.** OSR's first closure attempt (R = ∅) *is* the
//!    SyncP closure, so every SyncP-reported race must survive under OSR
//!    at the same event, variable, and prior thread — checked over a
//!    10 000-seed deterministic sweep of the three tiny spec families,
//!    on proptest traces mixing every op, and on the calibrated profiles.
//! 3. **Known answers.** The paper figures (Figures 1 and 2 race, with
//!    OSR agreeing with SyncP on the racing events; Figures 3 and
//!    4(a–d) have no predictable race, so OSR — sound by construction —
//!    stays silent) plus the canonical reversal trace where OSR strictly
//!    beats SyncP: 0 races under every sync-preserving relation, exactly
//!    1 under OSR, with the section-reversing witness pinned.
//! 4. **Soundness (the headline).** Every OSR-reported race on
//!    oracle-sized traces is vindicated end to end: the schedule from
//!    `osr_pair_witness` passes the reversal-tolerant replay validator,
//!    and the exhaustive reordering oracle confirms the pair is a
//!    predictable race — sync reversal included, because predictability
//!    never required preserving lock order in the first place.

use proptest::prelude::*;
use smarttrack::{
    analyze, osr_pair_witness, run_detector, AnalysisConfig, BatchJob, Detector, Engine,
    EnginePool, OptLevel, Osr, Relation, Report, SyncP,
};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{paper, Event, EventId, LockId, Op, ThreadId, Trace, TraceBuilder, VarId};
use smarttrack_vindicate::{
    validate_reversal_witness, validate_sync_preserving_witness, OracleResult,
    PredictableRaceOracle,
};

fn osr() -> AnalysisConfig {
    "osr".parse().expect("osr parses")
}

fn syncp() -> AnalysisConfig {
    "syncp".parse().expect("syncp parses")
}

/// The canonical reversal trace — the one race in this battery only OSR
/// sees. t1's critical section writes y then x; t2's section writes y,
/// releases, then writes x outside. Scheduling t2's whole section *before*
/// t1's (a sync reversal) makes the two x-writes adjacent.
fn reversal_trace() -> Trace {
    let (m, x, y) = (LockId::new(0), VarId::new(0), VarId::new(1));
    let t = ThreadId::new;
    let mut b = TraceBuilder::new();
    b.push(t(0), Op::Acquire(m)).unwrap(); // 0
    b.push(t(0), Op::Write(y)).unwrap(); // 1
    b.push(t(0), Op::Write(x)).unwrap(); // 2: e1
    b.push(t(0), Op::Release(m)).unwrap(); // 3
    b.push(t(1), Op::Acquire(m)).unwrap(); // 4
    b.push(t(1), Op::Write(y)).unwrap(); // 5
    b.push(t(1), Op::Release(m)).unwrap(); // 6
    b.push(t(1), Op::Write(x)).unwrap(); // 7: e2
    b.finish()
}

/// Family 1: runs `osr` through every ingestion path and asserts the
/// reports are bit-identical.
fn pinned_osr_report(trace: &Trace, label: &str) -> Report {
    let config = osr();
    let mut det = config.detector().expect("osr is available");
    run_detector(det.as_mut(), trace);
    let direct = det.report().clone();

    let legacy = analyze(trace, config);
    assert_eq!(
        legacy.report, direct,
        "{label}: analyze() diverged from run_detector()"
    );

    let engine = Engine::for_config(config).expect("osr engine");
    let mut session = engine.open();
    for &event in trace.events() {
        session.feed(event).expect("well-formed event");
    }
    let fed = session.finish_one().report;
    assert_eq!(fed, direct, "{label}: per-event feed diverged");

    let mut session = engine.open();
    session.feed_batch(trace.events()).expect("well-formed");
    let batched = session.finish_one().report;
    assert_eq!(batched, direct, "{label}: feed_batch diverged");
    direct
}

/// Family 2: every SyncP race survives under OSR at the same event,
/// variable, and prior thread — the R = ∅ attempt is the SyncP closure,
/// so losing one would mean the reversal machinery broke the base row.
fn assert_syncp_races_survive(syncp: &Report, osr: &Report, label: &str) {
    for race in syncp.races() {
        let kept = osr
            .races()
            .iter()
            .find(|r| r.event == race.event && r.var == race.var)
            .unwrap_or_else(|| {
                panic!(
                    "{label}: SyncP race at {:?} on {:?} vanished under OSR",
                    race.event, race.var
                )
            });
        for prior in &race.prior_threads {
            assert!(
                kept.prior_threads.contains(prior),
                "{label}: SyncP race at {:?} lost prior thread {prior:?} under OSR",
                race.event
            );
        }
    }
    if let Some(s) = syncp.first_race_event() {
        let o = osr
            .first_race_event()
            .expect("a SyncP race implies an OSR race");
        assert!(
            o <= s,
            "{label}: OSR first race after SyncP's ({o:?} > {s:?})"
        );
    }
}

/// Families 1 + 2 combined: pin the OSR report across paths, then check
/// the SyncP report embeds in it.
fn assert_syncp_subset_osr(trace: &Trace, label: &str) -> Report {
    let report = pinned_osr_report(trace, label);
    let base = analyze(trace, syncp()).report;
    assert_syncp_races_survive(&base, &report, label);
    report
}

/// Recovers the racing pairs behind one reported race, mirroring the
/// detector's per-thread latest-write/latest-read candidate scheme and
/// keeping whichever pair the offline witness search confirms.
fn racing_pairs(trace: &Trace, report: &Report) -> Vec<(EventId, EventId)> {
    let mut pairs = Vec::new();
    for race in report.races() {
        let e2 = race.event;
        let later: &Event = trace.event(e2);
        for &prior in &race.prior_threads {
            let (mut latest_write, mut latest_read) = (None, None);
            for (id, e) in trace.iter() {
                if id.index() < e2.index() && e.tid == prior && e.conflicts_with(later) {
                    match e.op {
                        Op::Write(_) | Op::VolatileWrite(_) => latest_write = Some(id),
                        _ => latest_read = Some(id),
                    }
                }
            }
            let e1 = [latest_write, latest_read]
                .into_iter()
                .flatten()
                .find(|&e1| osr_pair_witness(trace, e1, e2).is_some())
                .unwrap_or_else(|| {
                    panic!("no candidate pair by {prior:?} at {e2:?} reproduces offline")
                });
            pairs.push((e1, e2));
        }
    }
    pairs
}

/// Family 4: every reported race carries a schedule accepted by the
/// reversal-tolerant validator and is confirmed by the exhaustive oracle
/// (on oracle-sized traces).
fn assert_vindicated(trace: &Trace, report: &Report, label: &str) {
    let oracle = PredictableRaceOracle::new(trace).with_budget(400_000);
    for (e1, e2) in racing_pairs(trace, report) {
        let order = osr_pair_witness(trace, e1, e2).unwrap_or_else(|| {
            panic!("{label}: reported race ({e1:?},{e2:?}) not reproduced offline")
        });
        validate_reversal_witness(trace, &order, (e1, e2))
            .unwrap_or_else(|err| panic!("{label}: witness for ({e1:?},{e2:?}) rejected: {err}"));
        match oracle.is_predictable_race(e1, e2) {
            OracleResult::Race(..) => {}
            OracleResult::NoRace => {
                panic!("{label}: oracle refutes OSR race ({e1:?},{e2:?}) — unsound!")
            }
            // Budget exhaustion is acceptable: the validated witness above
            // is itself a constructive proof of the race.
            OracleResult::Unknown => {}
        }
    }
}

/// Randomized traces mixing every op the event model has (the same
/// strategy the SyncP battery uses).
fn arb_full_spec() -> impl Strategy<Value = (RandomTraceSpec, u64)> {
    (
        (2u32..5, 40usize..220, 2u32..6, 1u32..4), // threads, events, vars, locks
        (0u32..2, 0u32..2, 0u32..2),               // condvars, barriers, rwlocks
        any::<u64>(),                              // seed
        any::<bool>(),                             // fork_join
    )
        .prop_map(
            |((threads, events, vars, locks), (condvars, barriers, rwlocks), seed, fork_join)| {
                (
                    RandomTraceSpec {
                        threads,
                        events,
                        vars,
                        locks,
                        condvars,
                        condvar_prob: if condvars > 0 { 0.08 } else { 0.0 },
                        barriers,
                        barrier_prob: if barriers > 0 { 0.04 } else { 0.0 },
                        rwlocks,
                        rw_read_prob: if rwlocks > 0 { 0.1 } else { 0.0 },
                        rw_write_prob: if rwlocks > 0 { 0.04 } else { 0.0 },
                        rw_release_prob: 0.2,
                        try_fail_prob: if rwlocks > 0 { 0.02 } else { 0.0 },
                        acquire_prob: 0.15,
                        release_prob: 0.2,
                        fork_join,
                        ..RandomTraceSpec::default()
                    },
                    seed,
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Families 1 + 2 on randomized full-op traces.
    #[test]
    fn syncp_subset_osr_on_random_traces((spec, seed) in arb_full_spec()) {
        let trace = spec.generate(seed);
        assert_syncp_subset_osr(&trace, "random-full");
    }

    /// Family 1 through the STB codec: a binary round trip must not change
    /// the osr report.
    #[test]
    fn stb_round_trip_preserves_osr_report((spec, seed) in arb_full_spec()) {
        let trace = spec.generate(seed);
        let bytes = smarttrack_trace::binary::to_stb_bytes(&trace);
        let decoded = smarttrack_trace::binary::from_stb_bytes(&bytes).expect("round trip");
        let a = analyze(&trace, osr()).report;
        let b = analyze(&decoded, osr()).report;
        prop_assert_eq!(a, b, "osr diverged across the STB round trip");
    }
}

/// Family 2 at scale: the deterministic 10 000-seed inclusion sweep over
/// the three tiny spec families. Raw detectors, no engine plumbing — this
/// is purely about the closure: SyncP's races must all survive attempt
/// R = ∅, and OSR must find strictly more somewhere in the sweep.
#[test]
fn syncp_subset_osr_sweep_over_10k_seeds() {
    let specs = [
        RandomTraceSpec::tiny(),
        RandomTraceSpec::tiny_sync(),
        RandomTraceSpec::tiny_rw(),
    ];
    let mut osr_extra = 0usize;
    for seed in 0..10_000u64 {
        let trace = specs[(seed % 3) as usize].generate(seed);
        let mut base = SyncP::new();
        run_detector(&mut base, &trace);
        let mut reversal = Osr::new();
        run_detector(&mut reversal, &trace);
        let label = format!("sweep/{seed}");
        assert_syncp_races_survive(base.report(), reversal.report(), &label);
        osr_extra += reversal.report().dynamic_count() - base.report().dynamic_count();
    }
    assert!(
        osr_extra > 0,
        "10k-seed sweep never produced an OSR-only race — the reversal \
         machinery is inert on random traces"
    );
}

/// Family 4 on oracle-sized traces, across the three tiny spec families —
/// the headline soundness check: reversal-tolerant replay plus oracle
/// cross-check on every reported race.
#[test]
fn every_osr_race_on_tiny_traces_is_vindicated() {
    let mut vindicated = 0usize;
    for (name, spec) in [
        ("tiny", RandomTraceSpec::tiny()),
        ("tiny_sync", RandomTraceSpec::tiny_sync()),
        ("tiny_rw", RandomTraceSpec::tiny_rw()),
    ] {
        for seed in 0..60u64 {
            let trace = spec.generate(seed);
            let label = format!("{name}/{seed}");
            let report = assert_syncp_subset_osr(&trace, &label);
            vindicated += report.dynamic_count();
            assert_vindicated(&trace, &report, &label);
        }
    }
    assert!(
        vindicated > 20,
        "battery too weak: only {vindicated} races vindicated"
    );
}

/// Family 3: the paper figures. OSR agrees with SyncP on every figure —
/// Figures 1 and 2 race (the predictable race needs only section
/// *dropping*), Figure 3's WDC race is not predictable, Figure 4(a–d)
/// are race-free — so the reversal machinery must not invent anything.
#[test]
fn paper_figures_known_answers() {
    let fig1 = assert_syncp_subset_osr(&paper::figure1(), "figure1");
    assert_eq!(fig1.dynamic_count(), 1, "figure 1 races under OSR");
    assert_eq!(fig1.first_race_event(), Some(EventId::new(7)));
    assert_vindicated(&paper::figure1(), &fig1, "figure1");

    let fig2 = assert_syncp_subset_osr(&paper::figure2(), "figure2");
    assert_eq!(fig2.dynamic_count(), 1, "figure 2 races under OSR");
    assert_eq!(fig2.first_race_event(), Some(EventId::new(11)));
    assert_vindicated(&paper::figure2(), &fig2, "figure2");

    for (name, trace) in [
        ("figure3", paper::figure3()),
        ("figure4a", paper::figure4a()),
        ("figure4b", paper::figure4b()),
        ("figure4c", paper::figure4c()),
        ("figure4d", paper::figure4d()),
    ] {
        let report = assert_syncp_subset_osr(&trace, name);
        assert!(
            report.is_empty(),
            "{name} has no predictable race, but OSR reported: {report}"
        );
    }
}

/// Family 3, the strict half: the canonical trace where OSR beats SyncP.
/// Every sync-preserving relation stays silent; OSR reports exactly the
/// x-write pair; the witness schedules t2's whole section before t1's;
/// the relaxed validator accepts it; the strict sync-preserving validator
/// rejects it — the strictness ordering this row exists to exercise.
#[test]
fn reversal_trace_is_the_pinned_osr_only_race() {
    let trace = reversal_trace();
    for config in AnalysisConfig::table1() {
        assert!(
            analyze(&trace, config).report.is_empty(),
            "{config} must not see the reversal race"
        );
    }
    assert!(
        analyze(&trace, syncp()).report.is_empty(),
        "SyncP is forced by the lock rule"
    );

    let report = pinned_osr_report(&trace, "reversal");
    assert_eq!(report.dynamic_count(), 1, "exactly the x-write pair");
    assert_eq!(report.first_race_event(), Some(EventId::new(7)));

    let pair = (EventId::new(2), EventId::new(7));
    let order = osr_pair_witness(&trace, pair.0, pair.1).expect("the pair races");
    let ids: Vec<usize> = order.iter().map(|e| e.index()).collect();
    assert_eq!(ids, vec![4, 5, 6, 0, 1, 2, 7], "t2's section runs first");
    validate_reversal_witness(&trace, &order, pair).expect("relaxed validator accepts");
    validate_sync_preserving_witness(&trace, &order, pair)
        .expect_err("strict validator rejects the reversed sections");

    // The oracle — which never cared about lock order, only mutual
    // exclusion — confirms the pair is a genuine predictable race.
    let oracle = PredictableRaceOracle::new(&trace);
    assert!(
        matches!(
            oracle.is_predictable_race(pair.0, pair.1),
            OracleResult::Race(..)
        ),
        "exhaustive oracle confirms the reversal race"
    );
    assert_vindicated(&trace, &report, "reversal");
}

/// Family 1 at the corpus layer: an `EnginePool` running the osr lane
/// over a small corpus agrees with per-trace offline analysis.
#[test]
fn engine_pool_osr_lane_matches_offline() {
    let corpus: Vec<(String, Trace)> = (0..6u64)
        .map(|seed| {
            (
                format!("job{seed}"),
                RandomTraceSpec::tiny_sync().generate(seed),
            )
        })
        .collect();
    let engine = Engine::builder()
        .config(osr())
        .config(syncp())
        .build()
        .expect("osr + syncp fan-out");
    let pool = EnginePool::new(engine).with_workers(3);
    let jobs = corpus
        .iter()
        .map(|(label, trace)| BatchJob::from_trace(label.clone(), trace.clone()))
        .collect();
    let corpus_report = pool.run(jobs);
    assert_eq!(corpus_report.failed(), 0);
    for outcome in corpus_report.jobs() {
        let success = outcome
            .result
            .as_ref()
            .unwrap_or_else(|err| panic!("{} failed: {err}", outcome.label));
        let trace = &corpus
            .iter()
            .find(|(label, _)| *label == outcome.label)
            .expect("job label")
            .1;
        assert_eq!(
            success.outcomes[0].report,
            analyze(trace, osr()).report,
            "{}: pool osr lane diverged from offline",
            outcome.label
        );
        assert_syncp_races_survive(
            &success.outcomes[1].report,
            &success.outcomes[0].report,
            &outcome.label,
        );
    }
}

/// The CLI-facing config plumbing: parse, display, availability, listing,
/// and the targeted `osr+g` rejection.
#[test]
fn osr_config_round_trips() {
    let config = osr();
    assert_eq!(config, AnalysisConfig::new(Relation::Osr, OptLevel::Unopt));
    assert_eq!(config.to_string(), "OSR");
    assert_eq!("OSR".parse::<AnalysisConfig>().unwrap(), config);
    assert_eq!("sync-reversal".parse::<AnalysisConfig>().unwrap(), config);
    assert!(config.is_available());
    assert!(
        !AnalysisConfig::table1().contains(&config),
        "OSR is not a Table 1 cell"
    );
    assert!(
        AnalysisConfig::extended().contains(&config),
        "extended listing carries the OSR row"
    );
    let err = "osr+g"
        .parse::<AnalysisConfig>()
        .expect_err("no graph variant");
    assert!(
        err.to_string().contains("no graph-recording"),
        "rejection must explain itself: {err}"
    );
}

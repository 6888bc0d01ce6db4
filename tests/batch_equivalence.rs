//! Determinism and equivalence battery for the batch-analysis subsystem:
//! an `EnginePool` run over a corpus must be *exactly* the sequential
//! analysis of the same jobs, whatever the worker count, however the
//! scheduler interleaved, and however often the run is repeated.
//!
//! * per-job outcomes ≡ feeding the same trace through a plain
//!   `Engine`/`Session` (full equality: reports, summaries, counters);
//! * the corpus-deduplicated statically-distinct sets ≡ the union of the
//!   sequential per-job reports' sites;
//! * the whole `CorpusReport` — including its JSON rendering — is
//!   bit-identical at 1, 2, and 8 workers and across repeated runs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smarttrack::{AnalysisConfig, AnalysisOutcome, BatchJob, Engine, EnginePool};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{Loc, Trace};
use std::collections::BTreeSet;

#[path = "support/json.rs"]
mod json;

/// The CLI's default selection: the HB baseline plus the three
/// SmartTrack-optimized predictive analyses.
fn headline_engine() -> Engine {
    let configs: Vec<AnalysisConfig> = ["fto-hb", "st-wcp", "st-dc", "st-wdc"]
        .into_iter()
        .map(|name| name.parse().expect("known analysis"))
        .collect();
    Engine::builder().fanout(configs).build().expect("valid")
}

/// The sequential reference: every job fed through its own plain session,
/// in submission order — what the pool must be indistinguishable from.
fn sequential_outcomes(engine: &Engine, corpus: &[(String, Trace)]) -> Vec<Vec<AnalysisOutcome>> {
    corpus
        .iter()
        .map(|(_, trace)| {
            let mut session = engine.open();
            session.feed_trace(trace).expect("validated trace");
            session.finish()
        })
        .collect()
}

/// Statically-distinct sites per lane, deduplicated across the corpus —
/// computed from the sequential reference.
fn sequential_distinct_sites(reference: &[Vec<AnalysisOutcome>], lanes: usize) -> Vec<Vec<Loc>> {
    (0..lanes)
        .map(|lane| {
            let sites: BTreeSet<Loc> = reference
                .iter()
                .flat_map(|outcomes| outcomes[lane].report.races().iter().map(|r| r.loc))
                .collect();
            sites.into_iter().collect()
        })
        .collect()
}

fn jobs_of(corpus: &[(String, Trace)]) -> Vec<BatchJob> {
    corpus
        .iter()
        .map(|(label, trace)| BatchJob::from_trace(label.clone(), trace.clone()))
        .collect()
}

/// Runs the full battery over one corpus: pool at 1/2/8 workers vs the
/// sequential reference, plus repeated-run determinism.
fn assert_pool_matches_sequential(engine: &Engine, corpus: &[(String, Trace)], label: &str) {
    let reference = sequential_outcomes(engine, corpus);
    let expected_sites = sequential_distinct_sites(&reference, engine.configs().len());

    let mut renderings: Vec<String> = Vec::new();
    for workers in [1usize, 2, 8] {
        let pool = EnginePool::new(engine.clone()).with_workers(workers);
        let (report, stats) = pool.run_with_stats(jobs_of(corpus));
        assert!(
            stats.peak_resident_sessions <= stats.workers,
            "{label}: {} resident sessions with {} workers",
            stats.peak_resident_sessions,
            stats.workers
        );
        assert_eq!(report.failed(), 0, "{label}: in-memory jobs cannot fail");

        // Per-job table: same order, labels, and full per-lane outcomes.
        assert_eq!(report.jobs().len(), corpus.len(), "{label}");
        for ((job, (job_label, trace)), expected) in
            report.jobs().iter().zip(corpus).zip(&reference)
        {
            assert_eq!(&job.label, job_label, "{label}: job order preserved");
            let success = job.result.as_ref().expect("checked failed() == 0");
            assert_eq!(success.events, trace.len(), "{label}: {job_label}");
            assert_eq!(
                &success.outcomes, expected,
                "{label}: {job_label} diverged from the sequential session at {workers} workers"
            );
        }

        // Corpus dedup: sites per lane match the sequential union.
        for (total, expected) in report.totals().iter().zip(&expected_sites) {
            assert_eq!(
                &total.sites, expected,
                "{label}: {} distinct sites diverged",
                total.name
            );
        }

        renderings.push(report.to_json());

        // Repeated run at the same worker count: bit-identical.
        let again = EnginePool::new(engine.clone())
            .with_workers(workers)
            .run(jobs_of(corpus));
        assert_eq!(
            again.to_json(),
            renderings[renderings.len() - 1],
            "{label}: repeated run at {workers} workers diverged"
        );
    }

    // Bit-identical aggregated output across worker counts, and valid JSON.
    json::assert_valid_json(&renderings[0]);
    assert_eq!(renderings[0], renderings[1], "{label}: 1 vs 2 workers");
    assert_eq!(renderings[0], renderings[2], "{label}: 1 vs 8 workers");
}

/// A corpus of 2 to 6 small random lock traces.
fn arb_corpus(rng: &mut SmallRng) -> Vec<(String, Trace)> {
    let len = rng.gen_range(2usize..7);
    (0..len)
        .map(|i| {
            let spec = RandomTraceSpec {
                threads: rng.gen_range(2u32..5),
                events: rng.gen_range(40usize..220),
                vars: rng.gen_range(2u32..6),
                locks: rng.gen_range(1u32..4),
                acquire_prob: 0.18,
                release_prob: 0.22,
                fork_join: rng.gen(),
                ..RandomTraceSpec::default()
            };
            (format!("random-{i}"), spec.generate(rng.gen()))
        })
        .collect()
}

#[test]
fn randomized_corpora_match_sequential_at_1_2_8_workers() {
    for case in 0..8 {
        let corpus = arb_corpus(&mut SmallRng::seed_from_u64(case));
        let label = format!("random case {case}");
        assert_pool_matches_sequential(&headline_engine(), &corpus, &label);
    }
}

#[test]
fn calibrated_mixed_corpus_matches_sequential() {
    let corpus = smarttrack_workloads::corpus(2e-6, &[5, 6]);
    assert_pool_matches_sequential(&headline_engine(), &corpus, "calibrated");
}

#[test]
fn full_table1_matrix_matches_sequential_on_paper_figures() {
    let corpus: Vec<(String, Trace)> = smarttrack_trace::paper::all_figures()
        .into_iter()
        .map(|(name, trace)| (name.to_string(), trace))
        .collect();
    let engine = Engine::builder().table1().build().unwrap();
    assert_pool_matches_sequential(&engine, &corpus, "table1");
}

#[test]
fn file_backed_jobs_match_in_memory_jobs() {
    // The same corpus as STB files on disk (streamed, header-hinted) and
    // as in-memory traces: identical per-job reports and identical
    // corpus-deduplicated sites.
    let corpus = smarttrack_workloads::corpus(1e-6, &[9]);
    let dir = std::env::temp_dir().join(format!("st-batch-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let engine = headline_engine();

    let mut path_jobs = Vec::new();
    for (label, trace) in &corpus {
        let path = dir.join(format!("{label}.stb"));
        smarttrack_trace::binary::write_stb_file(trace, &path).unwrap();
        path_jobs.push(BatchJob::from_path(path));
    }
    let from_files = EnginePool::new(engine.clone())
        .with_workers(2)
        .run(path_jobs);
    let in_memory = EnginePool::new(engine)
        .with_workers(2)
        .run(jobs_of(&corpus));

    for (file_job, mem_job) in from_files.jobs().iter().zip(in_memory.jobs()) {
        let (file, mem) = (
            file_job.result.as_ref().unwrap(),
            mem_job.result.as_ref().unwrap(),
        );
        assert_eq!(file.events, mem.events);
        for (a, b) in file.outcomes.iter().zip(&mem.outcomes) {
            assert_eq!(a.report, b.report, "{}", file_job.label);
        }
    }
    for (a, b) in from_files.totals().iter().zip(in_memory.totals()) {
        assert_eq!(a.sites, b.sites, "{}", a.name);
        assert_eq!(a.dynamic, b.dynamic, "{}", a.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observed_races_account_for_every_dynamic_race() {
    let corpus = smarttrack_workloads::corpus(1e-6, &[3]);
    let engine = headline_engine();
    let mut observed = 0usize;
    let (report, _) = EnginePool::new(engine)
        .with_workers(2)
        .run_observed(jobs_of(&corpus), |_race| observed += 1);
    let total_dynamic: usize = report.totals().iter().map(|t| t.dynamic).sum();
    assert_eq!(observed, total_dynamic, "one notice per dynamic race");
    assert!(total_dynamic > 0, "the calibrated corpus injects races");
}

//! Report digests against a committed golden file.
//!
//! Every analysis row — the Table 1 cells, SyncP, OSR, RoadRunner's FT2 and
//! both concurrent lanes (fed deterministically through `feed_trace`) — runs
//! over a fixed corpus: the paper figures, seeded random traces (the default
//! spec, the condvar/barrier preset and the rwlock preset) and ~10k-event
//! slices of four calibrated profiles. Each (trace, row) pair condenses to
//! one line: the dynamic race count, an order-sensitive hash of the report,
//! the FTO case counters and the fast/slow access split. Footprints are left
//! out: they measure the metadata representation, not the analysis.
//!
//! The golden file pins the analyses' observable behaviour, so a change to
//! an access or synchronization rule that every row shares — which the
//! sequential-vs-concurrent differentials cannot see — still shows up here.
//! On a mismatch the test prints every computed line.
//!
//! A second golden file pins the footprints `smarttrack analyze` and the
//! corpus JSON report — the final and peak metadata bytes of every Table 1
//! row and of RoadRunner's FT2 on the four profile slices — so a change
//! that means to keep the metadata representation shows that it did.

use std::fmt::Write as _;

use smarttrack_detect::{
    analyze, run_detector, AnalysisConfig, Detector, FtoCase, FtoCaseCounters, Report,
    RoadRunnerFt2, RunSummary,
};
use smarttrack_parallel::{
    feed_trace, ConcurrentFtoHb, ConcurrentSmartTrackWdc, OnlineAnalysis, WorldSpec,
};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{paper, Trace};
use smarttrack_workloads::profiles;

#[path = "support/golden.rs"]
mod golden;
use golden::assert_matches_golden;

const GOLDEN: &str = "tests/golden/report_digest.txt";
const FOOTPRINT_GOLDEN: &str = "tests/golden/footprint_digest.txt";

/// The digest corpus, by name.
fn corpus() -> Vec<(String, Trace)> {
    let mut out: Vec<(String, Trace)> = paper::all_figures()
        .into_iter()
        .map(|(name, tr)| (name.to_string(), tr))
        .collect();
    for seed in 0..8 {
        out.push((
            format!("default-{seed}"),
            RandomTraceSpec::default().generate(seed),
        ));
    }
    for seed in 0..32 {
        out.push((
            format!("tiny-sync-{seed}"),
            RandomTraceSpec::tiny_sync().generate(seed),
        ));
    }
    for seed in 0..32 {
        out.push((
            format!("tiny-rw-{seed}"),
            RandomTraceSpec::tiny_rw().generate(seed),
        ));
    }
    out.extend(profile_slices());
    out
}

/// ~10k-event slices of four calibrated profiles.
fn profile_slices() -> Vec<(String, Trace)> {
    [
        profiles::xalan(),
        profiles::avrora(),
        profiles::condsync(),
        profiles::rwmix(),
    ]
    .into_iter()
    .map(|workload| {
        let scale = 1e4 / (workload.paper.events_m * 1e6);
        (format!("{}-10k", workload.name), workload.trace(scale, 5))
    })
    .collect()
}

/// FNV-1a over each race's debug rendering, in report order.
fn report_hash(report: &Report) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for race in report.races() {
        for byte in format!("{race:?};").bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn line(
    trace: &str,
    row: &str,
    report: &Report,
    cases: Option<&FtoCaseCounters>,
    (fast, slow): (u64, u64),
) -> String {
    let mut out = format!(
        "{trace} {row} races={} hash={:016x} cases=",
        report.dynamic_count(),
        report_hash(report)
    );
    match cases {
        Some(c) => {
            let counts: Vec<String> = FtoCase::ALL
                .iter()
                .map(|&case| c.count(case).to_string())
                .collect();
            out.push_str(&counts.join(","));
        }
        None => out.push('-'),
    }
    write!(out, " fast={fast} slow={slow}").expect("string write");
    out
}

fn sequential_line(trace_name: &str, trace: &Trace, mut det: Box<dyn Detector>) -> String {
    run_detector(&mut *det, trace);
    let stats = det.hot_path_stats();
    line(
        trace_name,
        &det.name().replace(' ', "_"),
        det.report(),
        det.case_counters(),
        (stats.fast_hits, stats.slow_hits),
    )
}

fn concurrent_line<A: OnlineAnalysis>(trace_name: &str, trace: &Trace, analysis: &A) -> String {
    let report = feed_trace(analysis, trace);
    let cases = analysis.case_counters();
    line(
        trace_name,
        &analysis.name().replace(' ', "_"),
        &report,
        Some(&cases),
        (cases.fast_hits(), cases.slow_hits()),
    )
}

fn digest_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, trace) in corpus() {
        for config in AnalysisConfig::extended() {
            let det = config.detector().expect("extended rows are available");
            lines.push(sequential_line(&name, &trace, det));
        }
        lines.push(sequential_line(
            &name,
            &trace,
            Box::new(RoadRunnerFt2::new()),
        ));
        let spec = WorldSpec::of_trace(&trace);
        lines.push(concurrent_line(&name, &trace, &ConcurrentFtoHb::new(spec)));
        lines.push(concurrent_line(
            &name,
            &trace,
            &ConcurrentSmartTrackWdc::new(spec),
        ));
    }
    lines
}

fn footprint_line(trace: &str, row: &str, summary: &RunSummary) -> String {
    format!(
        "{trace} {row} final={} peak={}",
        summary.final_state_bytes, summary.peak_footprint_bytes
    )
}

fn footprint_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, trace) in profile_slices() {
        for config in AnalysisConfig::table1() {
            let outcome = analyze(&trace, config);
            let row = outcome.name.replace(' ', "_");
            lines.push(footprint_line(&name, &row, &outcome.summary));
        }
        let mut rr = RoadRunnerFt2::new();
        let summary = run_detector(&mut rr, &trace);
        lines.push(footprint_line(&name, rr.name(), &summary));
    }
    lines
}

#[test]
fn reports_match_the_golden_digest() {
    assert_matches_golden(&digest_lines(), GOLDEN);
}

#[test]
fn footprints_match_the_golden_digest() {
    assert_matches_golden(&footprint_lines(), FOOTPRINT_GOLDEN);
}

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

use std::fmt::Write as _;
use std::path::Path;

use smarttrack_detect::{
    run_detector, AnalysisConfig, Detector, FtoCase, FtoCaseCounters, Report, RoadRunnerFt2,
};
use smarttrack_parallel::{
    feed_trace, ConcurrentFtoHb, ConcurrentSmartTrackWdc, OnlineAnalysis, WorldSpec,
};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{paper, Trace};
use smarttrack_workloads::profiles;

const GOLDEN: &str = "tests/golden/report_digest.txt";

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
    for workload in [
        profiles::xalan(),
        profiles::avrora(),
        profiles::condsync(),
        profiles::rwmix(),
    ] {
        let scale = 1e4 / (workload.paper.events_m * 1e6);
        out.push((format!("{}-10k", workload.name), workload.trace(scale, 5)));
    }
    out
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

#[test]
fn reports_match_the_golden_digest() {
    let computed = digest_lines();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    let expected: Vec<&str> = golden.lines().collect();
    if computed
        .iter()
        .map(String::as_str)
        .eq(expected.iter().copied())
    {
        return;
    }
    eprintln!("---- computed digest ({} lines) ----", computed.len());
    for l in &computed {
        eprintln!("{l}");
    }
    eprintln!("---- end of computed digest ----");
    let first_diff = computed
        .iter()
        .zip(expected.iter())
        .position(|(c, e)| c != e)
        .unwrap_or(computed.len().min(expected.len()));
    panic!(
        "digest differs from {GOLDEN} at line {}: computed {:?}, golden {:?} \
         ({} computed lines, {} golden lines)",
        first_diff + 1,
        computed.get(first_diff),
        expected.get(first_diff),
        computed.len(),
        expected.len()
    );
}

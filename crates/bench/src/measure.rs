//! Timing and memory measurement of one analysis run.

use std::time::Instant;

use smarttrack::{AnalysisConfig, FtoCaseCounters, Report, StreamHint};
use smarttrack_detect::run_detector;
use smarttrack_trace::Trace;

/// One measured analysis run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Analysis name.
    pub name: String,
    /// Wall-clock nanoseconds for the full trace.
    pub nanos: u64,
    /// Run time relative to the null pass ("uninstrumented" baseline).
    pub slowdown: f64,
    /// Peak metadata bytes.
    pub peak_bytes: usize,
    /// Peak metadata relative to the trace representation itself.
    pub memory_factor: f64,
    /// Races found.
    pub report: Report,
    /// FTO case counters, when tracked.
    pub cases: Option<FtoCaseCounters>,
}

/// Times a null pass over the trace: iterating the event stream without any
/// analysis — the reproduction's "uninstrumented execution".
pub fn null_pass_nanos(trace: &Trace) -> u64 {
    let start = Instant::now();
    let mut checksum = 0u64;
    for (id, e) in trace.iter() {
        checksum = checksum
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(id.raw() as u64 ^ e.tid.raw() as u64);
    }
    std::hint::black_box(checksum);
    start.elapsed().as_nanos() as u64
}

/// Runs `config` over `trace`, measuring time against `baseline_nanos` and
/// peak metadata against the trace's own footprint.
///
/// # Panics
///
/// Panics if `config` is an N/A cell of Table 1.
pub fn measure_analysis(trace: &Trace, config: AnalysisConfig, baseline_nanos: u64) -> Measurement {
    // Timed pass: pure event processing, no footprint sampling (walking live
    // metadata is measurement instrumentation, not analysis work — the
    // paper's RSS measurement is likewise outside the benchmarked process's
    // critical path).
    let mut det = config
        .detector()
        .unwrap_or_else(|| panic!("{config} is not available"));
    det.begin_stream(StreamHint::of_trace(trace));
    let start = Instant::now();
    for (id, event) in trace.iter() {
        det.process(id, event);
    }
    let nanos = start.elapsed().as_nanos() as u64;
    // Memory pass: identical deterministic run with peak sampling.
    let mut det2 = config.detector().expect("checked above");
    let summary = run_detector(det2.as_mut(), trace);
    debug_assert_eq!(
        det.report(),
        det2.report(),
        "analysis must be deterministic"
    );
    let trace_bytes = trace.footprint_bytes().max(1);
    Measurement {
        name: det.name().to_string(),
        nanos,
        slowdown: nanos as f64 / baseline_nanos.max(1) as f64,
        peak_bytes: summary.peak_footprint_bytes,
        memory_factor: summary.peak_footprint_bytes as f64 / trace_bytes as f64,
        report: det.report().clone(),
        cases: det.case_counters().cloned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarttrack::{OptLevel, Relation};
    use smarttrack_trace::gen::RandomTraceSpec;

    #[test]
    fn measurement_produces_positive_factors() {
        let tr = RandomTraceSpec {
            events: 5_000,
            ..RandomTraceSpec::default()
        }
        .generate(1);
        let base = null_pass_nanos(&tr).max(1);
        let m = measure_analysis(
            &tr,
            AnalysisConfig::new(Relation::Dc, OptLevel::SmartTrack),
            base,
        );
        assert!(m.nanos > 0);
        assert!(m.slowdown > 0.0);
        assert!(m.peak_bytes > 0);
        assert_eq!(m.name, "SmartTrack-DC");
    }

    #[test]
    fn unopt_with_graph_uses_more_memory_than_without() {
        let tr = RandomTraceSpec {
            events: 20_000,
            threads: 6,
            locks: 6,
            acquire_prob: 0.15,
            release_prob: 0.18,
            ..RandomTraceSpec::default()
        }
        .generate(5);
        let base = null_pass_nanos(&tr).max(1);
        let with_g = measure_analysis(
            &tr,
            AnalysisConfig::new(Relation::Dc, OptLevel::Unopt).with_graph(),
            base,
        );
        let without = measure_analysis(
            &tr,
            AnalysisConfig::new(Relation::Dc, OptLevel::Unopt),
            base,
        );
        assert!(
            with_g.peak_bytes > without.peak_bytes,
            "graph recording must cost memory ({} vs {})",
            with_g.peak_bytes,
            without.peak_bytes
        );
    }
}

//! Ablations of the design choices docs/ARCHITECTURE.md calls out under
//! "Deviations from the paper", plus the §6 related-work baselines.
//!
//! 1. **Rule (b) removal** (the WDC contribution, paper §3): per optimization
//!    level, the speedup of dropping DC rule (b) — the answer to the paper's
//!    question "does rule (b) eliminate false races in practice?" is paired
//!    with its cost here (and with race-count equality in Table 7).
//! 2. **CCS fidelity** (see "CCS fidelity" there): Algorithm 3 exactly as printed
//!    (`Paper`) vs. the conservative refinements (`Strict`, the default):
//!    run-time cost and any divergence in reported races.
//! 3. **Rule (b) queue compaction** (see "Rule (b) queue compaction" there): the effect of
//!    declaring the thread count up front (the `StreamHint` a detector
//!    gets at `Detector::begin_stream`), which
//!    enables prefix compaction of the per-(lock, thread) acquire/release
//!    logs.
//! 4. **Related work** (§6): bounded-window exhaustive analysis and Eraser
//!    lockset analysis, run against the same executions as the paper's
//!    matrix.

use std::fmt::Write as _;
use std::time::Instant;

use smarttrack::{analyze, AnalysisConfig, CcsFidelity, OptLevel, Relation, StreamHint};
use smarttrack_detect::{Detector, EraserLockset, SmartTrackDc, SmartTrackWdc};
use smarttrack_vindicate::{WindowedConfig, WindowedRaceAnalysis};
use smarttrack_workloads::{distant_race_trace, profiles};

use crate::stats::sig2;
use crate::tables::ExperimentConfig;

fn timed<D: Detector>(mut det: D, trace: &smarttrack_trace::Trace) -> (u64, usize, usize) {
    det.begin_stream(StreamHint::of_trace(trace));
    let start = Instant::now();
    for (id, e) in trace.iter() {
        det.process(id, e);
    }
    (
        start.elapsed().as_nanos() as u64,
        det.report().static_count(),
        det.report().dynamic_count(),
    )
}

/// Ablation 1: cost of DC rule (b), per optimization level (DC time / WDC
/// time on the same traces; >1 means rule (b) costs that factor).
pub fn rule_b_cost(cfg: &ExperimentConfig) -> String {
    let mut out =
        String::from("Ablation: DC rule (b) cost (DC run time / WDC run time; races compared)\n");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8}  {:>14}",
        "program", "Unopt", "FTO", "ST", "extra DC races"
    );
    for w in profiles::all() {
        let trace = w.trace(cfg.scale, cfg.seed);
        let mut ratios = Vec::new();
        let mut race_note = String::from("none");
        for level in [OptLevel::Unopt, OptLevel::Fto, OptLevel::SmartTrack] {
            let time = |relation| {
                let mut det = AnalysisConfig::new(relation, level)
                    .detector()
                    .expect("valid");
                det.begin_stream(StreamHint::of_trace(&trace));
                let start = Instant::now();
                for (id, e) in trace.iter() {
                    det.process(id, e);
                }
                (
                    start.elapsed().as_nanos() as u64,
                    det.report().static_count(),
                )
            };
            let (dc_t, dc_races) = time(Relation::Dc);
            let (wdc_t, wdc_races) = time(Relation::Wdc);
            ratios.push(dc_t as f64 / wdc_t.max(1) as f64);
            if wdc_races != dc_races {
                race_note = format!("WDC {wdc_races} vs DC {dc_races}");
            }
        }
        let _ = writeln!(
            out,
            "{:<10} {:>7}× {:>7}× {:>7}×  {:>14}",
            w.name,
            sig2(ratios[0]),
            sig2(ratios[1]),
            sig2(ratios[2]),
            race_note
        );
    }
    out.push_str(
        "\nPaper's finding reproduced when the final column is `none`: removing\n\
         rule (b) costs no precision on these workloads while saving its\n\
         queue machinery (§3, §5.6).\n",
    );
    out
}

/// Ablation 2: Algorithm-3-verbatim (`Paper`) vs the conservative `Strict`
/// CCS fidelity (docs/ARCHITECTURE.md, "Deviations from the paper"): run time
/// and reported races.
pub fn ccs_fidelity(cfg: &ExperimentConfig) -> String {
    let mut out = String::from("Ablation: SmartTrack CCS fidelity (Paper vs Strict)\n");
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>10} {:>10}",
        "program", "DC paper/strict", "WDC paper/strict", "DC races", "WDC races"
    );
    for w in profiles::all() {
        let trace = w.trace(cfg.scale, cfg.seed);
        let (dc_p, dc_ps, _) = timed(SmartTrackDc::with_fidelity(CcsFidelity::Paper), &trace);
        let (dc_s, dc_ss, _) = timed(SmartTrackDc::with_fidelity(CcsFidelity::Strict), &trace);
        let (wd_p, wd_ps, _) = timed(SmartTrackWdc::with_fidelity(CcsFidelity::Paper), &trace);
        let (wd_s, wd_ss, _) = timed(SmartTrackWdc::with_fidelity(CcsFidelity::Strict), &trace);
        let _ = writeln!(
            out,
            "{:<10} {:>13}× {:>13}× {:>10} {:>10}",
            w.name,
            sig2(dc_p as f64 / dc_s.max(1) as f64),
            sig2(wd_p as f64 / wd_s.max(1) as f64),
            if dc_ps == dc_ss {
                "equal".to_string()
            } else {
                format!("{dc_ps}≠{dc_ss}")
            },
            if wd_ps == wd_ss {
                "equal".to_string()
            } else {
                format!("{wd_ps}≠{wd_ss}")
            },
        );
    }
    out.push_str(
        "\n`Strict` costs within noise of `Paper` and reports the same races on\n\
         every workload; the refinements only matter on adversarial corner\n\
         cases (see \"CCS fidelity\" in docs/ARCHITECTURE.md).\n",
    );
    out
}

/// Ablation 3: rule (b) queue compaction. The whole-trace `StreamHint`
/// announces the thread count, enabling prefix compaction of the per-(lock, thread)
/// acquire/release logs (docs/ARCHITECTURE.md, "Deviations from the paper":
/// rule (b) queue compaction); without it the logs must be
/// retained for threads that might still appear.
pub fn queue_compaction(cfg: &ExperimentConfig) -> String {
    let mut out =
        String::from("Ablation: DC rule (b) queue compaction (with / without the thread bound)\n");
    let _ = writeln!(
        out,
        "{:<10} {:>16} {:>16} {:>16}",
        "program", "Unopt-DC mem", "FTO-DC mem", "ST-DC mem"
    );
    let run = |level: OptLevel, trace: &smarttrack_trace::Trace, hinted: bool| -> usize {
        let mut det = AnalysisConfig::new(Relation::Dc, level)
            .detector()
            .expect("valid");
        if hinted {
            det.begin_stream(StreamHint::of_trace(trace));
        }
        let stride = (trace.len() / 256).max(1);
        let mut peak = 0usize;
        for (id, e) in trace.iter() {
            det.process(id, e);
            if id.index() % stride == 0 {
                peak = peak.max(det.footprint_bytes());
            }
        }
        peak.max(det.footprint_bytes())
    };
    let rounds = ((5e6 * cfg.scale) as usize).max(2_000);
    let cases = [
        ("xalan", profiles::xalan().trace(cfg.scale, cfg.seed)),
        ("h2", profiles::h2().trace(cfg.scale, cfg.seed)),
        ("avrora", profiles::avrora().trace(cfg.scale, cfg.seed)),
        ("ping-pong", lock_ping_pong(rounds)),
    ];
    for (name, trace) in cases {
        let mut cells = Vec::new();
        for level in [OptLevel::Unopt, OptLevel::Fto, OptLevel::SmartTrack] {
            let with = run(level, &trace, true);
            let without = run(level, &trace, false);
            cells.push(format!("{}×", sig2(without as f64 / with.max(1) as f64)));
        }
        let _ = writeln!(
            out,
            "{:<10} {:>16} {:>16} {:>16}",
            name, cells[0], cells[1], cells[2]
        );
    }
    out.push_str(
        "\nValues are peak-metadata ratios (without / with the bound); >1 means the\n\
         compaction enabled by announcing the thread set up front saves that\n\
         factor of rule (b) queue memory. On the calibrated workloads logs\n\
         stay short (ratios ≈1), which is itself a finding: compaction is a\n\
         safety net for lock ping-pong patterns, where two threads trade one\n\
         lock with conflicting accesses and the consumed log prefix would\n\
         otherwise be retained for threads that might appear later.\n",
    );
    out
}

/// Two threads trading one lock with conflicting accesses: every release
/// consumes the peer's acquire entries (rule (a) ordering makes the rule (b)
/// check succeed), so the log prefix is fully consumed and compactable —
/// but only a declared thread bound makes dropping it sound.
fn lock_ping_pong(rounds: usize) -> smarttrack_trace::Trace {
    use smarttrack_trace::{LockId, Op, ThreadId, TraceBuilder, VarId};
    let mut b = TraceBuilder::new();
    let m = LockId::new(0);
    let x = VarId::new(0);
    for _ in 0..rounds {
        for t in [ThreadId::new(0), ThreadId::new(1)] {
            b.push(t, Op::Acquire(m)).expect("well formed");
            b.push(t, Op::Write(x)).expect("well formed");
            b.push(t, Op::Release(m)).expect("well formed");
        }
    }
    b.finish()
}

/// §6 related work, run live: (a) bounded-window analysis misses distant
/// races that every unbounded predictive analysis finds; (b) Eraser lockset
/// analysis false-positives on executions the whole Table 1 matrix (and the
/// exhaustive oracle) prove race free.
pub fn related_work(cfg: &ExperimentConfig) -> String {
    let mut out = String::from(
        "Related work (§6): bounded windows and lockset analysis\n\n\
         (a) windowed analysis (window 512, 50% overlap) vs SmartTrack-WDC on a\n\
         race whose accesses are `distance` events apart:\n",
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>16}",
        "distance", "windowed", "SmartTrack-WDC"
    );
    for distance in [200usize, 2_000, 20_000] {
        let (trace, _, _) = distant_race_trace(distance);
        let windowed =
            WindowedRaceAnalysis::new(&trace, WindowedConfig::with_window(512)).analyze();
        let outcome = analyze(
            &trace,
            AnalysisConfig::new(Relation::Wdc, OptLevel::SmartTrack),
        );
        let _ = writeln!(
            out,
            "{:>10} {:>12} {:>16}",
            distance,
            if windowed.races().is_empty() {
                "MISSED"
            } else {
                "found"
            },
            if outcome.report.dynamic_count() > 0 {
                "found"
            } else {
                "MISSED"
            },
        );
    }

    out.push_str(
        "\n(b) Eraser lockset discipline vs the sound end of the matrix on the\n\
         paper's example executions (figure 3 and figures 4a-4d are race free):\n",
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>12}",
        "figure", "Eraser", "ST-DC", "ground truth"
    );
    for (name, trace) in smarttrack_trace::paper::all_figures() {
        let mut eraser = EraserLockset::new();
        eraser.run(&trace);
        let dc = analyze(
            &trace,
            AnalysisConfig::new(Relation::Dc, OptLevel::SmartTrack),
        );
        let truth = match name {
            "figure1" | "figure2" => "race",
            _ => "race-free",
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>12}",
            name,
            eraser.report().dynamic_count(),
            dc.report.dynamic_count(),
            truth
        );
    }
    let _ = cfg; // geometry is fixed; the section is scale-independent
    out.push_str(
        "\nEraser reports a violation on every race-free figure (false positives)\n\
         while the predictive matrix and the exhaustive oracle agree; see\n\
         `cargo run --release --example windowed_vs_unbounded` for the window\n\
         cost curve and tests/lockset_baseline.rs for the assertions.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_render() {
        let cfg = ExperimentConfig {
            scale: 5e-6,
            trials: 1,
            seed: 2,
        };
        let a = rule_b_cost(&cfg);
        assert!(a.contains("avrora"), "{a}");
        let b = ccs_fidelity(&cfg);
        assert!(b.contains("xalan"), "{b}");
        // On the calibrated workloads, both fidelity modes must agree.
        assert!(!b.contains('≠'), "{b}");
    }

    #[test]
    fn compaction_ablation_renders() {
        let cfg = ExperimentConfig {
            scale: 2e-6,
            trials: 1,
            seed: 2,
        };
        let text = queue_compaction(&cfg);
        assert!(text.contains("xalan"), "{text}");
        assert!(text.contains('×'), "{text}");
    }

    #[test]
    fn related_work_section_shows_the_miss_and_the_false_positives() {
        let cfg = ExperimentConfig {
            scale: 2e-6,
            trials: 1,
            seed: 2,
        };
        let text = related_work(&cfg);
        assert!(text.contains("MISSED"), "{text}");
        assert!(text.contains("figure4d"), "{text}");
    }
}

//! End-to-end CLI pipeline: the workflow a downstream user runs —
//! generate a workload, inspect it, analyze it, and check the reported
//! races — chained through real files exactly as the shell would.

use std::path::PathBuf;

use smarttrack_cli::run;

#[path = "support/json.rs"]
mod json;

struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        TempFile(
            std::env::temp_dir().join(format!("smarttrack-e2e-{}-{tag}.trace", std::process::id())),
        )
    }

    fn as_str(&self) -> String {
        self.0.display().to_string()
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&args, &mut out).unwrap_or_else(|e| panic!("`smarttrack {}` failed: {e}", args.join(" ")));
    String::from_utf8(out).expect("utf-8 output")
}

#[test]
fn generate_stats_analyze_vindicate_pipeline() {
    let file = TempFile::new("xalan");
    let path = file.as_str();

    // generate: xalan is the paper's most lock-bound program.
    let text = cli(&[
        "generate", "xalan", "--scale", "4e-6", "--seed", "11", "--out", &path,
    ]);
    assert!(text.contains("wrote xalan"));

    // stats: the Table 2 shape survives the file round trip.
    let text = cli(&["stats", &path]);
    assert!(text.contains("locks held at NSEAs"), "{text}");

    // analyze: predictive analyses find the injected predictive-only races
    // that HB misses.
    let text = cli(&[
        "analyze",
        &path,
        "--analysis",
        "fto-hb",
        "--analysis",
        "st-wdc",
    ]);
    let count = |name: &str| -> usize {
        let line = text.lines().find(|l| l.contains(name)).unwrap();
        let words: Vec<&str> = line.split_whitespace().collect();
        words[1].parse().unwrap()
    };
    assert!(
        count("SmartTrack-WDC") > count("FTO-HB"),
        "predictive must dominate HB on xalan: {text}"
    );

    // vindicate: every checked WDC race resolves to VERIFIED or unknown
    // without error, and the summary line is present.
    let text = cli(&["vindicate", &path]);
    assert!(text.contains("verified"), "{text}");
}

#[test]
fn figure_to_two_phase_and_windowed_pipeline() {
    let file = TempFile::new("fig1");
    let path = file.as_str();

    cli(&["figure", "figure1", "--out", &path]);

    // two-phase (§4.3): phase 1 detects, phase 2 replays and verifies.
    let text = cli(&["two-phase", &path, "--relation", "dc"]);
    assert!(text.contains("1 verified, 0 unverified"), "{text}");

    // windowed (§6): a whole-trace window finds the same race.
    let text = cli(&["windowed", &path, "--window", "8"]);
    assert!(text.contains("race: rd(x0)"), "{text}");

    // deadlock: the figure has a race but no predictable deadlock.
    let text = cli(&["deadlock", &path]);
    assert!(text.contains("no predictable deadlock"), "{text}");
}

#[test]
fn render_output_is_stable_for_documentation() {
    let file = TempFile::new("fig3");
    let path = file.as_str();
    cli(&["figure", "figure3", "--out", &path]);
    let text = cli(&["render", &path]);
    assert!(text.contains("Thread 1"));
    assert!(text.contains("Thread 3"));
}

#[test]
fn stb_binary_pipeline() {
    // The production recording workflow: generate straight to STB, stream
    // it through the analyses, convert it for a text-only consumer, and
    // check every path agrees.
    let stb = TempFile(
        std::env::temp_dir().join(format!("smarttrack-e2e-{}-xalan.stb", std::process::id())),
    );
    let stb_path = stb.as_str();
    let text = cli(&[
        "generate", "xalan", "--scale", "4e-6", "--seed", "11", "--out", &stb_path,
    ]);
    assert!(text.contains("(stb)"), "{text}");

    // The STB file is dramatically smaller than the same trace as text.
    let native = TempFile::new("xalan-native");
    let native_path = native.as_str();
    cli(&[
        "convert",
        &stb_path,
        "--to",
        "native",
        "--out",
        &native_path,
    ]);
    let stb_size = std::fs::metadata(&stb.0).unwrap().len();
    let text_size = std::fs::metadata(&native.0).unwrap().len();
    assert!(
        stb_size * 3 < text_size,
        "STB ({stb_size} B) should be far smaller than text ({text_size} B)"
    );

    // analyze streams the binary input and matches the text-file verdicts.
    let from_stb = cli(&[
        "analyze",
        &stb_path,
        "--analysis",
        "fto-hb",
        "--analysis",
        "st-wdc",
    ]);
    assert!(from_stb.contains("streamed STB"), "{from_stb}");
    let from_text = cli(&[
        "analyze",
        &native_path,
        "--analysis",
        "fto-hb",
        "--analysis",
        "st-wdc",
    ]);
    let verdicts = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("static /"))
            .map(|l| l.split_whitespace().take(4).collect::<Vec<_>>().join(" "))
            .collect()
    };
    assert_eq!(
        verdicts(&from_stb),
        verdicts(&from_text),
        "{from_stb}\n{from_text}"
    );

    // stats and two-phase accept the binary input directly.
    let text = cli(&["stats", &stb_path]);
    assert!(text.contains("locks held at NSEAs"), "{text}");
    let text = cli(&["two-phase", &stb_path, "--relation", "dc"]);
    assert!(text.contains("phase 1"), "{text}");

    // A truncated STB file fails with a precise error, not a panic.
    let bytes = std::fs::read(&stb.0).unwrap();
    let cut = TempFile::new("xalan-cut");
    std::fs::write(&cut.0, &bytes[..bytes.len() / 2]).unwrap();
    let mut out = Vec::new();
    let args: Vec<String> = ["analyze", &cut.as_str()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let err = run(&args, &mut out).unwrap_err();
    assert!(err.to_string().contains("truncated"), "{err}");

    // A stream whose header hint declares one event more, or one fewer,
    // than it carries is corrupt for every command, not just `convert`.
    use smarttrack_trace::binary::{read_stb_file, StbHint, StbWriter};
    let trace = read_stb_file(&stb.0).unwrap();
    for declared in [trace.len() + 1, trace.len() - 1] {
        let hint = StbHint {
            events: declared as u64,
            ..StbHint::of_trace(&trace)
        };
        let mut writer = StbWriter::with_hint(Vec::new(), hint);
        for event in trace.events() {
            writer.write(event).unwrap();
        }
        let lying = TempFile::new(&format!("xalan-hint-{declared}"));
        std::fs::write(&lying.0, writer.finish().unwrap()).unwrap();
        let lying_path = lying.as_str();
        for command in [
            &["analyze", &lying_path][..],
            &["stats", &lying_path],
            &["two-phase", &lying_path, "--relation", "dc"],
        ] {
            let args: Vec<String> = command.iter().map(|s| s.to_string()).collect();
            let err = run(&args, &mut Vec::new()).unwrap_err();
            assert_eq!(err.exit_code(), 1, "{command:?}: {err}");
            assert!(
                err.to_string().contains("header hint declares"),
                "{command:?}: {err}"
            );
        }
    }
}

#[test]
fn batch_corpus_pipeline() {
    // The corpus workflow: generate a mixed-format corpus directory with
    // the CLI itself, batch-analyze it in parallel, and consume the JSON
    // report — exactly what a recording fleet's ingestion service does.
    let dir = std::env::temp_dir().join(format!("smarttrack-e2e-{}-corpus", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir_str = dir.display().to_string();
    for (profile, seed, ext) in [
        ("xalan", "21", "stb"),
        ("xalan", "22", "trace"),
        ("avrora", "21", "stb"),
        ("avrora", "22", "trace"),
    ] {
        let out = format!("{dir_str}/{profile}-{seed}.{ext}");
        cli(&[
            "generate", profile, "--scale", "2e-6", "--seed", seed, "--out", &out,
        ]);
    }

    // batch over the directory, JSON report to a file.
    let report_path = format!("{dir_str}/report.json");
    let text = cli(&[
        "batch",
        &dir_str,
        "--analysis",
        "fto-hb",
        "--analysis",
        "st-wdc",
        "--jobs",
        "2",
        "--out",
        &report_path,
    ]);
    assert!(text.contains("4 jobs"), "{text}");
    assert!(text.contains("wrote JSON report"), "{text}");
    let report = std::fs::read_to_string(&report_path).unwrap();
    json::assert_valid_json(&report);
    assert!(report.contains("\"schema\": \"smarttrack-corpus-report/v1\""));
    assert!(report.contains("\"succeeded\": 4"), "{report}");
    assert!(report.contains("xalan-21.stb"), "{report}");

    // --jobs 1 and --jobs 4 produce the identical report.
    let solo = cli(&["batch", &dir_str, "--jobs", "1", "--json"]);
    let four = cli(&["batch", &dir_str, "--jobs", "4", "--json"]);
    // The on-disk report.json from the earlier run is inside the corpus
    // directory but is not a trace file, so it is skipped — both runs see
    // the same 4 jobs.
    assert_eq!(solo, four, "worker count must not change the report");
    json::assert_valid_json(&solo);

    // Exit codes: a corrupt member is tolerated by default (exit 0,
    // failure row in the report) and fatal under --strict (exit 1).
    let stb = std::fs::read(dir.join("xalan-21.stb")).unwrap();
    std::fs::write(dir.join("cut.stb"), &stb[..stb.len() / 2]).unwrap();
    let tolerant = cli(&["batch", &dir_str]);
    assert!(tolerant.contains("1 failed"), "{tolerant}");
    let args: Vec<String> = ["batch", &dir_str, "--strict"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = Vec::new();
    let err = run(&args, &mut out).unwrap_err();
    assert_eq!(err.exit_code(), 1);
    assert!(err.to_string().contains("cut.stb"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn osr_analyze_and_batch_pipeline() {
    // The extension-row workflow: a recorded trace whose only race needs a
    // critical-section reversal flows through `analyze` and `batch` with
    // the osr lane beside syncp — osr sees the race, syncp must not, and
    // the batch report is invariant under the job count.
    use smarttrack_trace::{LockId, Op, ThreadId, TraceBuilder, VarId};
    let (m, x, y) = (LockId::new(0), VarId::new(0), VarId::new(1));
    let t = ThreadId::new;
    let mut b = TraceBuilder::new();
    b.push(t(0), Op::Acquire(m)).unwrap();
    b.push(t(0), Op::Write(y)).unwrap();
    b.push(t(0), Op::Write(x)).unwrap();
    b.push(t(0), Op::Release(m)).unwrap();
    b.push(t(1), Op::Acquire(m)).unwrap();
    b.push(t(1), Op::Write(y)).unwrap();
    b.push(t(1), Op::Release(m)).unwrap();
    b.push(t(1), Op::Write(x)).unwrap();
    let reversal = b.finish();

    let dir = std::env::temp_dir().join(format!("smarttrack-e2e-{}-osr", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir_str = dir.display().to_string();
    let trace_path = format!("{dir_str}/reversal.stb");
    std::fs::write(
        &trace_path,
        smarttrack_trace::binary::to_stb_bytes(&reversal),
    )
    .unwrap();
    cli(&[
        "figure",
        "figure1",
        "--out",
        &format!("{dir_str}/fig1.trace"),
    ]);

    // analyze: the syncp/osr split on one file.
    let text = cli(&[
        "analyze",
        &trace_path,
        "--analysis",
        "syncp",
        "--analysis",
        "osr",
    ]);
    let count = |name: &str| -> usize {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no {name} row in: {text}"));
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    };
    assert_eq!(count("SyncP"), 0, "{text}");
    assert_eq!(count("OSR"), 1, "{text}");

    // batch: both extension lanes over the corpus, job-count invariant.
    let solo = cli(&[
        "batch",
        &dir_str,
        "--analysis",
        "syncp",
        "--analysis",
        "osr",
        "--jobs",
        "1",
        "--json",
    ]);
    let two = cli(&[
        "batch",
        &dir_str,
        "--analysis",
        "syncp",
        "--analysis",
        "osr",
        "--jobs",
        "2",
        "--json",
    ]);
    assert_eq!(solo, two, "job count must not change the osr batch report");
    json::assert_valid_json(&solo);
    assert!(solo.contains("\"succeeded\": 2"), "{solo}");
    assert!(solo.contains("reversal.stb"), "{solo}");

    // osr+g is a usage error with the targeted explanation, exit code 2.
    let args: Vec<String> = ["analyze", &trace_path, "--analysis", "osr+g"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = Vec::new();
    let err = run(&args, &mut out).unwrap_err();
    assert_eq!(err.exit_code(), 2);
    assert!(err.to_string().contains("no graph-recording"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interchange_format_round_trip_pipeline() {
    // A trace leaves this toolchain as STD, is "edited by another tool"
    // (we re-read it), comes back, and analyzes identically — the
    // interoperability workflow for RAPID-format corpora.
    let native = TempFile::new("fig2-native");
    let native_path = native.as_str();
    cli(&["figure", "figure2", "--out", &native_path]);

    // Export to STD (extension-inferred target format).
    let std_file = TempFile(
        std::env::temp_dir().join(format!("smarttrack-e2e-{}-fig2.std", std::process::id())),
    );
    let std_path = std_file.as_str();
    let text = cli(&["convert", &native_path, "--out", &std_path]);
    assert!(text.contains("(std)"), "{text}");

    // The .std file analyzes directly (format detected by extension), and
    // the DC verdicts match the paper: a DC-race but no WCP-race.
    let text = cli(&[
        "analyze",
        &std_path,
        "--analysis",
        "st-dc",
        "--analysis",
        "fto-wcp",
    ]);
    let count = |name: &str| -> usize {
        let line = text.lines().find(|l| l.contains(name)).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    };
    assert_eq!(count("SmartTrack-DC"), 1, "{text}");
    assert_eq!(count("FTO-WCP"), 0, "{text}");

    // Round-trip back to native; verdicts are unchanged.
    let back = TempFile::new("fig2-back");
    let back_path = back.as_str();
    cli(&["convert", &std_path, "--to", "native", "--out", &back_path]);
    let text = cli(&["analyze", &back_path, "--analysis", "st-dc"]);
    assert!(text.contains("SmartTrack-DC"), "{text}");

    // And to CSV, whose header row survives parsing.
    let csv = cli(&["convert", &native_path, "--to", "csv"]);
    assert!(csv.starts_with("tid,op,target,loc\n"), "{csv}");
}

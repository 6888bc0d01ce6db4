//! The repository benchmark: five workloads, their end-to-end metrics,
//! and a traced per-layer breakdown. See README.md in this directory.
//!
//! ```text
//! cargo run -q --release -p smarttrack-bench --bin benchmark -- \
//!     [--workload NAME]... [--seed N] [--trace [0|1]] [--check] [--out FILE]
//! ```
//!
//! Each workload runs in a fresh child process (this binary, re-executed
//! with `--child`), so its peak RSS and allocator state are its own. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`.

mod inputs;
mod json;
mod metrics;
mod offline;
mod serve;
mod spans;
mod stats;

use std::process::{Command, ExitCode, Stdio};

use inputs::{Spec, OPEN_LOOP_EVENTS_PER_S, SERVE_CONNECTIONS, WORKLOADS};
use json::{obj, Value};
use metrics::{Better, WorkloadResult};

/// Measured phase per run, in seconds: `run_seconds` in BENCHMARK.json.
const RUN_SECONDS: f64 = 10.0;
/// Default workload seed.
const DEFAULT_SEED: u64 = 11;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where `--check` finds the bounds and the baseline, relative to the
/// repository root it is run from.
const BENCHMARK_JSON: &str = "BENCHMARK.json";
const BASELINE_JSON: &str = "crates/bench/src/bin/benchmark/baseline.json";

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--trace [0|1]] \
[--check] [--out FILE]
workloads: xalan-fanout avrora-fanout syncops-fanout predictive-xalan serve-live
The run length is fixed at 10 s; `--seconds 10` is accepted and any other value refused.";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    trace: bool,
    check: bool,
    out: Option<String>,
    child: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        trace: false,
        check: false,
        out: None,
        child: false,
    };
    let mut peeked: Option<String> = None;
    while let Some(arg) = peeked.take().or_else(|| args.next()) {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                parsed.workloads.push(name);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            // Harnesses that run every benchmark the same way pass the
            // run length they read from BENCHMARK.json. The benchmark
            // fixes it, so only that value is accepted.
            "--seconds" => {
                let s = value("--seconds")?;
                if s.parse::<f64>() != Ok(RUN_SECONDS) {
                    return Err(format!(
                        "the run length is fixed at {RUN_SECONDS} s, not {s:?}"
                    ));
                }
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                parsed.trace = true;
                match args.next() {
                    Some(v) if v == "1" => {}
                    Some(v) if v == "0" => parsed.trace = false,
                    other => peeked = other,
                }
            }
            "--check" => parsed.check = true,
            "--out" => parsed.out = Some(value("--out")?),
            "--child" => parsed.child = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if parsed.check && parsed.trace {
        return Err("--check compares untraced runs; drop --trace".into());
    }
    if parsed.child && parsed.workloads.len() != 1 {
        return Err("--child runs exactly one workload".into());
    }
    Ok(parsed)
}

/// Measures one workload in this process and prints its result as one
/// JSON line.
fn child(args: &Args) -> ExitCode {
    let spec = Spec::named(&args.workloads[0], 1.0).expect("validated workload name");
    let result = measure(&spec, args.seed, args.trace);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// Runs `spec` untraced (end-to-end metrics) or traced (per-layer ones).
fn measure(spec: &Spec, seed: u64, traced: bool) -> WorkloadResult {
    let opts = offline::Options {
        seconds: RUN_SECONDS,
        setups: SETUPS,
        min_passes: if traced { 2 } else { 3 },
    };
    let mut result = match (spec.open_loop_rate.is_some(), traced) {
        (true, _) => serve::run(spec, seed, &opts, traced),
        (false, false) => offline::run(spec, seed, &opts),
        (false, true) => offline::run_traced(spec, seed, &opts),
    };
    result.complete();
    result
}

/// Re-executes this binary for one workload and reads back its result.
fn spawn(args: &Args, workload: &str) -> WorkloadResult {
    let failed = |why: String| {
        let mut r = WorkloadResult::new(workload, args.trace);
        r.check(vec![why]);
        r.complete();
        r
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("cannot find the benchmark binary: {e}")),
    };
    let output = Command::new(exe)
        .args(["--child", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(o) => o,
        Err(e) => return failed(format!("cannot start the {workload} child: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    match last.map(json::parse) {
        Some(Ok(v)) if output.status.success() => match WorkloadResult::from_json(&v) {
            Some(r) => r,
            None => failed(format!("{workload}: the child's result is incomplete")),
        },
        _ => failed(format!(
            "{workload}: the child process failed ({})",
            output.status
        )),
    }
}

/// Facts about the host and the run, recorded next to every result.
fn host_facts(args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    obj([
        ("nproc", Value::from(nproc)),
        ("cpu_model", Value::from(cpu)),
        ("git_commit", Value::from(commit)),
        ("seed", Value::from(args.seed)),
        ("seconds", Value::from(RUN_SECONDS)),
        (
            "serve_open_loop_events_per_s",
            Value::from(OPEN_LOOP_EVENTS_PER_S),
        ),
        ("serve_connections", Value::from(SERVE_CONNECTIONS)),
    ])
}

fn print_result(r: &WorkloadResult) {
    println!(
        "== {} ({}; {} passes; {} operations checked, {} failed, error_rate {}) ==",
        r.workload,
        if r.traced { "traced" } else { "untraced" },
        r.passes,
        r.attempted,
        r.failed,
        r.error_rate()
    );
    for m in &r.metrics {
        let mut line = format!("  {:<34} {:>14.6} {:<6}", m.name, m.value, m.unit);
        if let Some(s) = m.runs {
            line += &format!(
                "  median {:.6} q1 {:.6} q3 {:.6} n {}",
                s.median, s.q1, s.q3, s.n
            );
        }
        if let Some((n, tail)) = m.samples {
            line += &format!("  samples {n}");
            if let Some((pct, v)) = tail {
                line += &format!(" p{pct} {v:.6}");
            }
        }
        println!("{line}");
    }
    for f in r.failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
}

/// How one metric compares with the baseline.
fn verdict(
    better: Better,
    bound: f64,
    current: &metrics::Metric,
    base: &metrics::Metric,
) -> (&'static str, f64) {
    let change = (current.value - base.value) / base.value.abs().max(f64::MIN_POSITIVE);
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = [current.runs, base.runs]
        .iter()
        .flatten()
        .map(stats::Summary::spread)
        .fold(0.0, f64::max);
    let status = if spread > bound {
        "unresolved"
    } else if worse > bound {
        "REGRESSED"
    } else if -worse > bound {
        "improved"
    } else {
        "unchanged"
    };
    (status, change)
}

/// Compares untraced results with the baseline under the bounds in
/// BENCHMARK.json, both read from the working directory.
fn check_against_files(results: &[WorkloadResult], host: &Value) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    check(results, host, &read(BENCHMARK_JSON)?, &read(BASELINE_JSON)?)
}

/// Compares untraced results with the baseline document `base` under the
/// bounds in the BENCHMARK.json document `bench`. Returns false on a
/// regression or a failed check, and an error when the run measured other
/// inputs or another run length than the baseline.
fn check(
    results: &[WorkloadResult],
    host: &Value,
    bench: &Value,
    base: &Value,
) -> Result<bool, String> {
    for fact in ["seed", "seconds"] {
        let (now, then) = (host.get(fact), base.get("host").and_then(|h| h.get(fact)));
        if now != then {
            return Err(format!(
                "the run's {fact} ({}) differs from the baseline's ({}), so they are not comparable",
                now.map_or("none".into(), Value::to_string),
                then.map_or("none".into(), Value::to_string)
            ));
        }
    }
    for fact in ["nproc", "cpu_model"] {
        let (now, then) = (host.get(fact), base.get("host").and_then(|h| h.get(fact)));
        if now != then {
            println!("warning: {fact} differs from the baseline host ({now:?} vs {then:?})");
        }
    }
    let bounds: Vec<(String, Better, f64)> = bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            let better = match m.get("better")?.as_str()? {
                "higher" => Better::Higher,
                _ => Better::Lower,
            };
            Some((
                m.get("name")?.as_str()?.to_string(),
                better,
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let mut ok = true;
    for r in results {
        if r.failed > 0 {
            println!(
                "{}: FAILED {} of {} checked operations (bound 0)",
                r.workload, r.failed, r.attempted
            );
            ok = false;
        }
        let Some(base_w) = base
            .get("workloads")
            .and_then(|w| w.get(&r.workload))
            .and_then(WorkloadResult::from_json)
        else {
            println!("{}: no baseline", r.workload);
            ok = false;
            continue;
        };
        for (name, better, bound) in &bounds {
            let (Some(cur), Some(was)) = (r.metric(name), base_w.metric(name)) else {
                continue;
            };
            let (status, change) = verdict(*better, *bound, cur, was);
            ok &= status != "REGRESSED";
            println!(
                "{}: {name} {:.6} vs baseline {:.6} ({:+.1}%, bound {:.0}%): {status}",
                r.workload,
                cur.value,
                was.value,
                change * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return child(&args);
    }
    let host = host_facts(&args);
    println!("host: {host}");
    let results: Vec<WorkloadResult> = args.workloads.iter().map(|w| spawn(&args, w)).collect();
    for r in &results {
        print_result(r);
    }
    if let Some(path) = &args.out {
        let doc = obj([
            ("host", host.clone()),
            (
                "workloads",
                Value::Obj(
                    results
                        .iter()
                        .map(|r| (r.workload.clone(), r.to_json()))
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("benchmark: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut ok = results.iter().all(|r| r.failed == 0 && r.attempted > 0);
    if args.check {
        match check_against_files(&results, &host) {
            Ok(passed) => ok &= passed,
            Err(e) => {
                eprintln!("benchmark: --check: {e}");
                ok = false;
            }
        }
    }
    let single = results.len() == 1;
    let metrics = results
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let key = if single {
                    m.name.clone()
                } else {
                    format!("{}.{}", r.workload, m.name)
                };
                (
                    key,
                    obj([
                        ("value", Value::from(m.value)),
                        ("unit", Value::from(m.unit.as_str())),
                    ]),
                )
            })
        })
        .collect();
    let summary = obj([
        (
            "correct",
            Value::from(results.iter().all(|r| r.failed == 0 && r.attempted > 0)),
        ),
        (
            "attempted",
            Value::from(results.iter().map(|r| r.attempted).sum::<u64>()),
        ),
        (
            "failed",
            Value::from(results.iter().map(|r| r.failed).sum::<u64>()),
        ),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{summary}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        let a = args(&["--trace", "--seed", "5"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.seed, 5);
        assert_eq!(a.workloads.len(), WORKLOADS.len());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--check", "--trace"]).is_err());
    }

    #[test]
    fn run_length_is_fixed_at_benchmark_json_run_seconds() {
        assert!(args(&["--seconds", "10"]).is_ok());
        assert!(args(&["--seconds", "3"]).is_err());
        assert!(args(&["--seconds"]).is_err());
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../", "BENCHMARK.json");
        let bench = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            bench.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn check_refuses_a_run_with_another_seed_than_the_baseline() {
        let bench = json::parse(
            r#"{"end_to_end": [{"name": "events_per_s", "unit": "1/s",
                "better": "higher", "bound": 0.25}]}"#,
        )
        .unwrap();
        let mut result = WorkloadResult::new("xalan-fanout", false);
        result.check(vec![]);
        result.push(metrics::Metric::new("events_per_s", "1/s", 1.0e6));
        let base = obj([
            (
                "host",
                obj([
                    ("seed", Value::from(11u64)),
                    ("seconds", Value::from(RUN_SECONDS)),
                ]),
            ),
            ("workloads", obj([("xalan-fanout", result.to_json())])),
        ]);
        let host = |seed: u64| {
            obj([
                ("seed", Value::from(seed)),
                ("seconds", Value::from(RUN_SECONDS)),
            ])
        };
        let results = [result];
        assert_eq!(check(&results, &host(11), &bench, &base), Ok(true));
        let refused = check(&results, &host(12), &bench, &base).unwrap_err();
        assert!(refused.contains("seed"), "{refused}");
    }

    /// Every workload at a tiny scale, end to end and traced: every output
    /// matches its reference.
    #[test]
    fn tiny_smoke_run_of_every_workload_is_correct() {
        for name in WORKLOADS {
            let mut spec = Spec::named(name, 0.02).unwrap();
            if name == "predictive-xalan" {
                spec.sessions.truncate(2);
                for (_, scale) in &mut spec.sessions {
                    *scale = 4e-6;
                }
            }
            if let Some(rate) = &mut spec.open_loop_rate {
                *rate = 20_000.0;
            }
            for traced in [false, true] {
                let opts = offline::Options {
                    seconds: 0.05,
                    setups: 1,
                    min_passes: 1,
                };
                let mut r = match (spec.open_loop_rate.is_some(), traced) {
                    (true, _) => serve::run(&spec, 3, &opts, traced),
                    (false, false) => offline::run(&spec, 3, &opts),
                    (false, true) => offline::run_traced(&spec, 3, &opts),
                };
                r.complete();
                assert_eq!(
                    r.error_rate(),
                    0.0,
                    "{name} traced={traced}: {:?}",
                    r.failures
                );
                assert!(r.attempted > 0);
                let expected = if traced {
                    metrics::per_layer().len()
                } else {
                    metrics::END_TO_END.len()
                };
                assert_eq!(r.metrics.len(), expected, "{name}");
            }
        }
    }
}

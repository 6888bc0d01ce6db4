#![warn(missing_docs)]

//! `smarttrack` — the command-line front end of the SmartTrack
//! reproduction.
//!
//! The binary drives the whole system over trace files in any of the four
//! supported formats — the native line format, STD/`RAPID`, CSV, and the
//! STB binary format (see `docs/TRACE_FORMATS.md`). Input format is
//! auto-detected (magic-byte sniffing, then file extension) and can be
//! forced with `--format`; STB input streams into the analyses chunk by
//! chunk, in bounded memory:
//!
//! ```text
//! smarttrack analyze  race.trace --analysis st-wdc --analysis fto-hb
//! smarttrack analyze  recording.stb --all
//! smarttrack batch    corpus/ --jobs 8 --out report.json
//! smarttrack convert  race.trace --to stb --out race.stb
//! smarttrack stats    race.trace
//! smarttrack render   race.trace
//! smarttrack vindicate race.trace --show-witness
//! smarttrack windowed race.trace --window 512
//! smarttrack generate xalan --scale 2e-5 --out xalan.stb
//! smarttrack serve    --listen 127.0.0.1:7420 --workers 8
//! smarttrack load     127.0.0.1:7420 --clients 8 --scale 2e-5
//! smarttrack figure   figure1 --out fig1.trace
//! smarttrack list
//! ```
//!
//! Every command is a thin formatter over the library crates, so anything
//! the CLI does is equally available through the public API. [`run`] is the
//! embeddable entry point (the binary's `main` is three lines); commands
//! write to the supplied writer, which keeps them unit-testable.

use std::fmt;
use std::io::Write;

use smarttrack_trace::formats::TraceSource;

mod cmd;
mod opts;

pub use opts::{Opts, OptsError};

/// Errors surfaced to the user by the CLI.
#[derive(Debug)]
pub enum CliError {
    /// Wrong invocation (unknown command, bad flags, missing args). The
    /// string is a complete message, usually ending with a usage hint.
    Usage(String),
    /// An I/O failure, annotated with the path involved.
    Io {
        /// The file being read or written.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A well-formed invocation whose input was semantically invalid
    /// (unparsable trace, unknown profile, N/A analysis, …).
    Invalid(String),
}

impl CliError {
    /// Process exit code: 2 for usage errors (matching common CLI
    /// conventions), 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<OptsError> for CliError {
    fn from(err: OptsError) -> Self {
        CliError::Usage(err.to_string())
    }
}

const HELP: &str = "\
smarttrack — predictive data-race detection (SmartTrack, PLDI 2020)

USAGE:
    smarttrack <COMMAND> [ARGS]

COMMANDS:
    analyze   <trace> [--analysis CFG]... [--all] [--max-races N] [--format FMT]
              run race detectors over a trace file (STB input streams)
    batch     <dir|glob|file>... [--analysis CFG]... [--all] [--jobs N]
              [--out FILE] [--json] [--strict]
              analyze a corpus of trace files on a parallel worker pool,
              aggregating one deduplicated corpus report (JSON via --out)
    stats     <trace> [--format FMT]
              run-time characteristics (the paper's Table 2 metrics)
    render    <trace> [--format FMT]
              pretty-print the trace as per-thread columns
    convert   <trace> [--from FMT] --to FMT [--out FILE]
              translate between the native, STD/RAPID, CSV, and STB formats
    vindicate <trace> [--analysis CFG] [--show-witness] [--format FMT]
              check each reported race for a predictable-race witness
    two-phase <trace> [--relation dc|wdc] [--format FMT]
              detect fast, replay w/ graph + vindicate only on races (§4.3)
    deadlock  <trace> [--budget N] [--format FMT]
              exhaustive predictable-deadlock search (small traces)
    windowed  <trace> [--window N] [--stride N] [--budget N] [--format FMT]
              bounded-window analysis (the SMT-window approach of §6)
    generate  <profile|distant:N> [--scale F] [--seed N] [--out FILE] [--format FMT]
              emit a calibrated synthetic workload trace (the ten DaCapo
              profiles, plus the condvar/barrier-heavy `condsync`)
    serve     [--listen ADDR] [--analysis CFG]... [--all] [--workers N]
              [--idle-timeout SECS] [--queue-bytes N] [--connections N]
              run the race-detection daemon: clients stream STB traces
              over TCP (docs/SERVE_PROTOCOL.md) into pooled sessions
    load      <addr> [--clients N] [--scale F] [--seeds N] [--chunk-bytes N]
              [--tenant NAME] [--no-validate] [--captured] [--nudge PERIOD[/PHASE]]
              replay a generated corpus against a running serve daemon
              over N connections, validating reports against offline runs;
              --captured instead records real threaded pattern-twin
              executions (smarttrack-capture) streamed live to the daemon,
              cross-checked against offline analysis and expectations, with
              --nudge injecting schedule-perturbing yields (docs/CAPTURE.md)
    figure    <figure1|figure2|figure3|figure4a..figure4d> [--out FILE] [--format FMT]
              emit one of the paper's example executions
    list      available analyses, workload profiles, and figures
    help      this message

ANALYSES (CFG):
    ft2, unopt-hb, fto-hb, and <unopt|fto|st>-<wcp|dc|wdc>;
    append +g for the graph-recording variants (unopt-dc+g, unopt-wdc+g).
    Beyond Table 1: syncp, the sync-preserving race predictor (sound by
    construction; every report carries a lock-order-preserving witness),
    and osr, the optimistic sync-reversal predictor (a strict superset of
    syncp: it may reorder same-lock critical sections, and every report
    carries a replay-validated reversal-tolerant witness). Neither has a
    +g variant, and both buffer the trace — state grows with events, so
    keep serve sessions carrying a syncp or osr lane bounded.

TRACE FILES (FMT: native|std|csv|stb):
    input format is auto-detected — magic-byte sniffing first (the STB
    binary format announces itself), then the extension: .stb (binary),
    .std/.rapid (the RAPID pipe format), .csv, anything else the native
    line format. --format FMT overrides both. STB input streams into
    analyze/batch/windowed/two-phase chunk by chunk in bounded memory; the
    spec for all four formats is docs/TRACE_FORMATS.md.
";

/// Runs one CLI invocation, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed invocations (exit code 2) and
/// [`CliError::Io`]/[`CliError::Invalid`] for runtime failures (exit
/// code 1).
///
/// # Examples
///
/// ```
/// let mut out = Vec::new();
/// smarttrack_cli::run(&["list".to_string()], &mut out)?;
/// assert!(String::from_utf8(out)?.contains("ST-WDC"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        write_out(out, HELP)?;
        return Ok(());
    };
    let rest = &args[1..];
    match command.as_str() {
        "analyze" => cmd::analyze::run(rest, out),
        "batch" => cmd::batch::run(rest, out),
        "convert" => cmd::convert::run(rest, out),
        "stats" => cmd::stats::run(rest, out),
        "render" => cmd::render::run(rest, out),
        "vindicate" => cmd::vindicate::run(rest, out),
        "two-phase" => cmd::two_phase::run(rest, out),
        "deadlock" => cmd::deadlock::run(rest, out),
        "windowed" => cmd::windowed::run(rest, out),
        "generate" => cmd::generate::run(rest, out),
        "serve" => cmd::serve::run(rest, out),
        "load" => cmd::load::run(rest, out),
        "figure" => cmd::figure::run(rest, out),
        "list" => cmd::list::run(rest, out),
        "help" | "--help" | "-h" => {
            write_out(out, HELP)?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`; run `smarttrack help`"
        ))),
    }
}

/// Parses the `--format` override flag, for commands that declare it.
fn requested_format(
    opts: &Opts,
) -> Result<Option<smarttrack_trace::formats::TraceFormat>, CliError> {
    opts.value("format")
        .map(|name| name.parse().map_err(CliError::Usage))
        .transpose()
}

/// Opens a trace file for reading, honoring the command's `--format`
/// override and otherwise auto-detecting (magic-byte sniffing, then the
/// extension). STB inputs come back as a stream; everything else is parsed
/// eagerly.
fn open_trace(path: &str, opts: &Opts) -> Result<TraceSource, CliError> {
    smarttrack_trace::formats::open_file(path, requested_format(opts)?)
        .map_err(|source| CliError::Io {
            path: path.to_string(),
            source,
        })?
        .map_err(|e| CliError::Invalid(format!("{path}: {e}")))
}

/// Streams every event of an STB reader into an analysis session, mapping
/// decode and well-formedness failures to [`CliError`]. Returns the
/// session for the caller to finish.
fn feed_stb<'d, R: std::io::Read>(
    mut session: smarttrack::Session<'d>,
    reader: smarttrack_trace::binary::StbReader<R>,
    path: &str,
) -> Result<smarttrack::Session<'d>, CliError> {
    for event in reader {
        let event = event.map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
        session
            .feed(event)
            .map_err(|e| CliError::Invalid(format!("{path}: malformed trace: {e}")))?;
    }
    Ok(session)
}

/// Loads a whole trace whatever the format (a streaming STB input is
/// materialized), mapping errors to [`CliError`].
fn load_trace(path: &str, opts: &Opts) -> Result<smarttrack_trace::Trace, CliError> {
    match open_trace(path, opts)? {
        TraceSource::Whole(trace) => Ok(trace),
        TraceSource::Stb(reader) => {
            let mut builder = smarttrack_trace::TraceBuilder::new();
            for event in reader {
                let event = event.map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
                builder
                    .push_event(event)
                    .map_err(|e| CliError::Invalid(format!("{path}: malformed trace: {e}")))?;
            }
            Ok(builder.finish())
        }
    }
}

/// The required trace-file positional of most commands.
fn trace_arg<'a>(opts: &'a Opts, usage: &str) -> Result<&'a str, CliError> {
    opts.positional(0)
        .ok_or_else(|| CliError::Usage(format!("missing <trace> argument; usage: {usage}")))
}

fn write_out(out: &mut dyn Write, text: &str) -> Result<(), CliError> {
    out.write_all(text.as_bytes())
        .map_err(|source| CliError::Io {
            path: "<stdout>".to_string(),
            source,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn run_ok(list: &[&str]) -> String {
        let mut out = Vec::new();
        run(&args(list), &mut out).expect("command succeeds");
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn no_args_prints_help() {
        assert!(run_ok(&[]).contains("USAGE"));
    }

    #[test]
    fn help_aliases_work() {
        for alias in ["help", "--help", "-h"] {
            assert!(run_ok(&[alias]).contains("COMMANDS"));
        }
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        let mut out = Vec::new();
        let err = run(&args(&["frobnicate"]), &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn missing_trace_file_is_an_io_error() {
        let mut out = Vec::new();
        let err = run(&args(&["analyze", "/nonexistent/never.trace"]), &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("never.trace"));
    }
}

//! Interchange trace formats and format auto-detection.
//!
//! Besides the native line format ([`fmt`](crate::fmt)) and the compact STB
//! binary format ([`binary`](crate::binary)), traces can be read from and
//! written to two text formats used by existing race-detection tooling, so
//! recorded executions from other systems can be analyzed directly:
//!
//! * **STD** ([`parse_std`]/[`render_std`]) — the `RAPID`-style format used
//!   by the WCP authors' tooling and by RoadRunner trace dumps:
//!   one event per line, `<thread>|<operation>(<target>)|<location>`, e.g.
//!   `T0|r(V1)|201`. Operations: `r`/`w` (reads/writes), `acq`/`rel`
//!   (locks), `fork`/`join` (thread lifecycle). Volatile accesses are not
//!   part of the common STD dialect; they round-trip through a `vr`/`vw`
//!   extension that STD-only consumers can treat as unknown lines.
//! * **CSV** ([`parse_csv`]/[`render_csv`]) — `tid,op,target,loc` rows with
//!   a header, for spreadsheet-side inspection of small traces.
//!
//! Identifier mapping: STD and CSV name threads `T<k>`, variables `V<k>`,
//! and locks `L<k>`; the native model uses dense `u32` indices, so names map
//! through their numeric suffix. Parsers accept arbitrary non-numeric names
//! too, interning them in first-appearance order.
//!
//! [`TraceFormat`] enumerates all four formats; [`parse_bytes`] /
//! [`render_bytes`] dispatch over them (including the binary one), and
//! [`read_file`] / [`write_file`] pick the format automatically — by
//! magic-byte sniffing ([`sniff`]) for reads, by file extension
//! ([`format_of_path`]) otherwise. `docs/TRACE_FORMATS.md` at the
//! repository root is the normative spec with a selection guide.
//!
//! # Examples
//!
//! ```
//! use smarttrack_trace::formats;
//!
//! let text = "\
//! T0|r(V0)|10
//! T0|acq(L0)|11
//! T0|rel(L0)|12
//! T1|w(V0)|20
//! ";
//! let trace = formats::parse_std(text)?;
//! assert_eq!(trace.len(), 4);
//! assert_eq!(formats::parse_std(&formats::render_std(&trace))?, trace);
//! # Ok::<(), smarttrack_trace::formats::FormatError>(())
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use smarttrack_clock::ThreadId;

use crate::{BarrierId, CondId, Event, Loc, LockId, Op, Trace, TraceBuilder, TraceError, VarId};

/// Error from the interchange-format parsers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// A line (or row) could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Explanation of the problem.
        message: String,
    },
    /// The parsed events do not form a well-formed trace.
    Malformed(TraceError),
    /// A binary (STB) decode failure, rendered to text (the structured form
    /// is [`binary::StbError`](crate::binary::StbError), available from the
    /// [`binary`](crate::binary) entry points directly).
    Binary(String),
    /// Bytes for a text format were not valid UTF-8.
    NotUtf8 {
        /// Byte offset of the first invalid sequence.
        offset: usize,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadLine { line, message } => write!(f, "line {line}: {message}"),
            FormatError::Malformed(e) => write!(f, "malformed trace: {e}"),
            FormatError::Binary(message) => write!(f, "{message}"),
            FormatError::NotUtf8 { offset } => {
                write!(
                    f,
                    "invalid UTF-8 at byte {offset} (binary data in a text format?)"
                )
            }
        }
    }
}

impl Error for FormatError {}

impl From<TraceError> for FormatError {
    fn from(e: TraceError) -> Self {
        FormatError::Malformed(e)
    }
}

impl From<crate::binary::StbError> for FormatError {
    fn from(e: crate::binary::StbError) -> Self {
        match e {
            crate::binary::StbError::Malformed(err) => FormatError::Malformed(err),
            other => FormatError::Binary(other.to_string()),
        }
    }
}

/// Maps external entity names to dense ids: numeric suffixes (`T3`, `V17`,
/// `L2`, or bare numbers) map directly; anything else interns in
/// first-appearance order, above the numeric range already seen.
#[derive(Debug, Default)]
struct Interner {
    named: HashMap<String, u32>,
    next_synthetic: u32,
}

impl Interner {
    fn resolve(&mut self, name: &str, prefix: char) -> u32 {
        let trimmed = name
            .strip_prefix(prefix)
            .or_else(|| name.strip_prefix(prefix.to_ascii_uppercase()))
            .unwrap_or(name);
        if let Ok(n) = trimmed.parse::<u32>() {
            self.next_synthetic = self.next_synthetic.max(n + 1);
            return n;
        }
        if let Some(&id) = self.named.get(name) {
            return id;
        }
        let id = self.next_synthetic;
        self.next_synthetic += 1;
        self.named.insert(name.to_string(), id);
        id
    }
}

#[derive(Debug, Default)]
struct Interners {
    threads: Interner,
    vars: Interner,
    locks: Interner,
    volatiles: Interner,
    condvars: Interner,
    barriers: Interner,
}

fn event_from_parts(
    interners: &mut Interners,
    tid: &str,
    op: &str,
    target: &str,
    loc: Option<u32>,
    line: usize,
) -> Result<Event, FormatError> {
    let t = ThreadId::new(interners.threads.resolve(tid, 't'));
    let op = match op {
        "r" | "read" => Op::Read(VarId::new(interners.vars.resolve(target, 'v'))),
        "w" | "write" => Op::Write(VarId::new(interners.vars.resolve(target, 'v'))),
        "acq" | "acquire" => Op::Acquire(LockId::new(interners.locks.resolve(target, 'l'))),
        "rel" | "release" => Op::Release(LockId::new(interners.locks.resolve(target, 'l'))),
        "acqr" => Op::AcqRead(LockId::new(interners.locks.resolve(target, 'l'))),
        "acqw" => Op::AcqWrite(LockId::new(interners.locks.resolve(target, 'l'))),
        "tryf" => Op::TryAcqFail(LockId::new(interners.locks.resolve(target, 'l'))),
        "fork" => Op::Fork(ThreadId::new(interners.threads.resolve(target, 't'))),
        "join" => Op::Join(ThreadId::new(interners.threads.resolve(target, 't'))),
        "vr" => Op::VolatileRead(VarId::new(interners.volatiles.resolve(target, 'v'))),
        "vw" => Op::VolatileWrite(VarId::new(interners.volatiles.resolve(target, 'v'))),
        "wait" => {
            // Wait has two operands, `<condvar>;<monitor>` (semicolon, so the
            // pair survives the CSV format's comma-separated fields).
            let (c, m) = target.split_once(';').ok_or_else(|| FormatError::BadLine {
                line,
                message: format!("wait wants `wait(C<n>;L<n>)`, got `{target}`"),
            })?;
            Op::Wait(
                CondId::new(interners.condvars.resolve(c.trim(), 'c')),
                LockId::new(interners.locks.resolve(m.trim(), 'l')),
            )
        }
        "notify" => Op::Notify(CondId::new(interners.condvars.resolve(target, 'c'))),
        "notifyall" => Op::NotifyAll(CondId::new(interners.condvars.resolve(target, 'c'))),
        "benter" => Op::BarrierEnter(BarrierId::new(interners.barriers.resolve(target, 'b'))),
        "bexit" => Op::BarrierExit(BarrierId::new(interners.barriers.resolve(target, 'b'))),
        other => {
            return Err(FormatError::BadLine {
                line,
                message: format!("unknown operation `{other}`"),
            })
        }
    };
    let loc = loc.map(Loc::new).unwrap_or(Loc::UNKNOWN);
    Ok(Event::with_loc(t, op, loc))
}

/// Parses the STD (`RAPID`) line format: `<thread>|<op>(<target>)|<loc>`.
///
/// Empty lines and `#` comments are skipped. The trailing `|<loc>` segment
/// is optional.
///
/// # Errors
///
/// [`FormatError::BadLine`] on syntax problems;
/// [`FormatError::Malformed`] if the events violate trace well-formedness
/// (e.g. releasing a lock that is not held).
pub fn parse_std(text: &str) -> Result<Trace, FormatError> {
    let mut interners = Interners::default();
    let mut builder = TraceBuilder::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split('|');
        let tid = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| FormatError::BadLine {
                line,
                message: "missing thread field".into(),
            })?;
        let op_field = parts.next().ok_or_else(|| FormatError::BadLine {
            line,
            message: "missing operation field".into(),
        })?;
        let loc = match parts.next() {
            None | Some("") => None,
            Some(s) => Some(s.trim().parse::<u32>().map_err(|_| FormatError::BadLine {
                line,
                message: format!("bad location `{s}`"),
            })?),
        };
        let (op, target) = split_op(op_field).ok_or_else(|| FormatError::BadLine {
            line,
            message: format!("bad operation syntax `{op_field}` (want `op(target)`)"),
        })?;
        let event = event_from_parts(&mut interners, tid, op, target, loc, line)?;
        builder.push_event(event)?;
    }
    Ok(builder.finish())
}

/// Splits `op(target)` into its parts.
fn split_op(field: &str) -> Option<(&str, &str)> {
    let open = field.find('(')?;
    let close = field.rfind(')')?;
    if close < open {
        return None;
    }
    Some((field[..open].trim(), field[open + 1..close].trim()))
}

/// Renders a trace in the STD line format (inverse of [`parse_std`]).
pub fn render_std(trace: &Trace) -> String {
    let mut out = String::new();
    for e in trace.events() {
        let (op, target) = std_op(&e.op);
        out.push_str(&format!("T{}|{}({})", e.tid.raw(), op, target));
        if e.loc != Loc::UNKNOWN {
            out.push_str(&format!("|{}", e.loc.raw()));
        }
        out.push('\n');
    }
    out
}

fn std_op(op: &Op) -> (&'static str, String) {
    match op {
        Op::Read(x) => ("r", format!("V{}", x.raw())),
        Op::Write(x) => ("w", format!("V{}", x.raw())),
        Op::Acquire(m) => ("acq", format!("L{}", m.raw())),
        Op::Release(m) => ("rel", format!("L{}", m.raw())),
        Op::AcqRead(m) => ("acqr", format!("L{}", m.raw())),
        Op::AcqWrite(m) => ("acqw", format!("L{}", m.raw())),
        Op::TryAcqFail(m) => ("tryf", format!("L{}", m.raw())),
        Op::Fork(t) => ("fork", format!("T{}", t.raw())),
        Op::Join(t) => ("join", format!("T{}", t.raw())),
        Op::VolatileRead(v) => ("vr", format!("V{}", v.raw())),
        Op::VolatileWrite(v) => ("vw", format!("V{}", v.raw())),
        Op::Wait(c, m) => ("wait", format!("C{};L{}", c.raw(), m.raw())),
        Op::Notify(c) => ("notify", format!("C{}", c.raw())),
        Op::NotifyAll(c) => ("notifyall", format!("C{}", c.raw())),
        Op::BarrierEnter(b) => ("benter", format!("B{}", b.raw())),
        Op::BarrierExit(b) => ("bexit", format!("B{}", b.raw())),
    }
}

/// Parses the CSV format: header `tid,op,target,loc`, then one row per
/// event. `loc` may be empty.
///
/// # Errors
///
/// Same classes as [`parse_std`].
pub fn parse_csv(text: &str) -> Result<Trace, FormatError> {
    let mut interners = Interners::default();
    let mut builder = TraceBuilder::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || (line == 1 && trimmed.eq_ignore_ascii_case("tid,op,target,loc")) {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if fields.len() < 3 {
            return Err(FormatError::BadLine {
                line,
                message: format!("want `tid,op,target[,loc]`, got {} field(s)", fields.len()),
            });
        }
        let loc = match fields.get(3) {
            None | Some(&"") => None,
            Some(s) => Some(s.parse::<u32>().map_err(|_| FormatError::BadLine {
                line,
                message: format!("bad location `{s}`"),
            })?),
        };
        let event = event_from_parts(&mut interners, fields[0], fields[1], fields[2], loc, line)?;
        builder.push_event(event)?;
    }
    Ok(builder.finish())
}

/// Renders a trace as CSV (inverse of [`parse_csv`]).
pub fn render_csv(trace: &Trace) -> String {
    let mut out = String::from("tid,op,target,loc\n");
    for e in trace.events() {
        let (op, target) = std_op(&e.op);
        let loc = if e.loc == Loc::UNKNOWN {
            String::new()
        } else {
            e.loc.raw().to_string()
        };
        out.push_str(&format!("T{},{},{},{}\n", e.tid.raw(), op, target, loc));
    }
    out
}

/// The trace formats understood by [`parse_bytes`]/[`render_bytes`] (and
/// the CLI's `--format` flag).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// The native line format ([`crate::fmt`]).
    #[default]
    Native,
    /// The STD/`RAPID` pipe format.
    Std,
    /// Comma-separated rows.
    Csv,
    /// The STB binary format ([`crate::binary`]).
    Stb,
}

impl TraceFormat {
    /// The conventional file extension for the format.
    pub const fn extension(self) -> &'static str {
        match self {
            TraceFormat::Native => "trace",
            TraceFormat::Std => "std",
            TraceFormat::Csv => "csv",
            TraceFormat::Stb => "stb",
        }
    }
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "native" => Ok(TraceFormat::Native),
            "std" | "rapid" => Ok(TraceFormat::Std),
            "csv" => Ok(TraceFormat::Csv),
            "stb" | "binary" => Ok(TraceFormat::Stb),
            other => Err(format!(
                "unknown trace format `{other}` (native, std, csv, stb)"
            )),
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormat::Native => write!(f, "native"),
            TraceFormat::Std => write!(f, "std"),
            TraceFormat::Csv => write!(f, "csv"),
            TraceFormat::Stb => write!(f, "stb"),
        }
    }
}

/// Parses `text` in the given *text* format.
///
/// # Errors
///
/// Syntax and well-formedness errors as [`FormatError`] (native-format
/// errors are converted to the same type). For [`TraceFormat::Stb`] — whose
/// byte stream is not text — this always fails; use [`parse_bytes`], which
/// handles all four formats.
pub fn parse_as(text: &str, format: TraceFormat) -> Result<Trace, FormatError> {
    match format {
        TraceFormat::Native => crate::fmt::parse(text).map_err(|e| match e {
            crate::fmt::ParseError::BadLine { line, message } => {
                FormatError::BadLine { line, message }
            }
            crate::fmt::ParseError::Malformed(err) => FormatError::Malformed(err),
        }),
        TraceFormat::Std => parse_std(text),
        TraceFormat::Csv => parse_csv(text),
        TraceFormat::Stb => Err(FormatError::Binary(
            "STB is a binary format; decode bytes with `parse_bytes` or \
             `binary::read_stb` instead of `parse_as`"
                .to_string(),
        )),
    }
}

/// Renders `trace` in the given *text* format.
///
/// # Panics
///
/// Panics for [`TraceFormat::Stb`], whose output is not text — use
/// [`render_bytes`], which handles all four formats.
pub fn render_as(trace: &Trace, format: TraceFormat) -> String {
    match format {
        TraceFormat::Native => crate::fmt::render(trace),
        TraceFormat::Std => render_std(trace),
        TraceFormat::Csv => render_csv(trace),
        TraceFormat::Stb => panic!("STB is binary; render bytes with `render_bytes`"),
    }
}

/// Parses `bytes` in the given format (text formats are decoded as UTF-8).
///
/// # Errors
///
/// [`FormatError::NotUtf8`] for binary garbage handed to a text format;
/// otherwise the same classes as [`parse_as`] / the STB decoder.
///
/// # Examples
///
/// ```
/// use smarttrack_trace::formats::{self, TraceFormat};
/// use smarttrack_trace::paper;
///
/// let trace = paper::figure1();
/// for format in [TraceFormat::Native, TraceFormat::Std, TraceFormat::Csv, TraceFormat::Stb] {
///     let bytes = formats::render_bytes(&trace, format);
///     assert_eq!(formats::parse_bytes(&bytes, format)?, trace);
/// }
/// # Ok::<(), smarttrack_trace::formats::FormatError>(())
/// ```
pub fn parse_bytes(bytes: &[u8], format: TraceFormat) -> Result<Trace, FormatError> {
    match format {
        TraceFormat::Stb => Ok(crate::binary::from_stb_bytes(bytes)?),
        text_format => {
            let text = std::str::from_utf8(bytes).map_err(|e| FormatError::NotUtf8 {
                offset: e.valid_up_to(),
            })?;
            parse_as(text, text_format)
        }
    }
}

/// Renders `trace` in the given format as bytes (the inverse of
/// [`parse_bytes`]).
pub fn render_bytes(trace: &Trace, format: TraceFormat) -> Vec<u8> {
    match format {
        TraceFormat::Stb => crate::binary::to_stb_bytes(trace),
        text_format => render_as(trace, text_format).into_bytes(),
    }
}

/// Identifies a format from content alone: currently recognizes the STB
/// magic number. Returns `None` for anything else (the text formats are not
/// reliably distinguishable from each other by content, so extension-based
/// selection applies — see [`format_of_path`]).
pub fn sniff(bytes: &[u8]) -> Option<TraceFormat> {
    bytes
        .starts_with(&crate::binary::STB_MAGIC)
        .then_some(TraceFormat::Stb)
}

/// Picks a format from a path's extension: `.stb` → STB, `.std`/`.rapid` →
/// STD, `.csv` → CSV, anything else → the native line format.
pub fn format_of_path<P: AsRef<std::path::Path>>(path: P) -> TraceFormat {
    match path
        .as_ref()
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        Some("stb") => TraceFormat::Stb,
        Some("std") | Some("rapid") => TraceFormat::Std,
        Some("csv") => TraceFormat::Csv,
        _ => TraceFormat::Native,
    }
}

/// Reads a trace file with format auto-detection: content sniffing
/// ([`sniff`]) wins, then the path extension ([`format_of_path`]). An STB
/// file therefore loads correctly whatever it is named.
///
/// # Errors
///
/// I/O errors as-is; parse and decode failures wrapped as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_file<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Trace> {
    let bytes = std::fs::read(&path)?;
    let format = sniff(&bytes).unwrap_or_else(|| format_of_path(&path));
    parse_bytes(&bytes, format)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// A trace file opened by [`open_file`].
pub enum TraceSource {
    /// All events in memory, as every text format requires.
    Whole(Trace),
    /// A chunk-at-a-time STB stream whose header has been read, so its
    /// hint can pre-size an analysis before the first event.
    Stb(crate::binary::StbReader<std::io::BufReader<std::fs::File>>),
}

/// Opens a trace file in `format`, or else in the format its first bytes
/// ([`sniff`]) or, failing that, its extension ([`format_of_path`]) name.
/// STB comes back as a stream, never materialized; every other format is
/// parsed whole. The file is opened exactly once — the sniff probe seeks
/// back rather than reopening, so format decision and data come from the
/// same file version.
///
/// # Errors
///
/// The outer error is an I/O failure. The inner one means the file is not
/// a trace in its format: a bad STB header as [`FormatError::Binary`], a
/// text parse failure as the other variants.
pub fn open_file<P: AsRef<std::path::Path>>(
    path: P,
    format: Option<TraceFormat>,
) -> std::io::Result<Result<TraceSource, FormatError>> {
    use std::io::{Read as _, Seek as _, SeekFrom};

    let mut file = std::fs::File::open(&path)?;
    let format = match format {
        Some(format) => format,
        None => {
            let mut probe = Vec::with_capacity(4);
            (&file).take(4).read_to_end(&mut probe)?;
            file.seek(SeekFrom::Start(0))?;
            sniff(&probe).unwrap_or_else(|| format_of_path(&path))
        }
    };
    if format == TraceFormat::Stb {
        let reader = crate::binary::StbReader::new(std::io::BufReader::new(file));
        return Ok(reader.map(TraceSource::Stb).map_err(FormatError::from));
    }
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(parse_bytes(&bytes, format).map(TraceSource::Whole))
}

/// Writes a trace file in the format chosen by the path's extension
/// ([`format_of_path`]); the inverse of [`read_file`].
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_file<P: AsRef<std::path::Path>>(trace: &Trace, path: P) -> std::io::Result<()> {
    std::fs::write(&path, render_bytes(trace, format_of_path(&path)))
}

/// Extensions recognized as trace files by the corpus helpers
/// ([`corpus_paths`]): the four conventional format extensions plus the
/// common text spellings.
pub const TRACE_EXTENSIONS: &[&str] = &["trace", "stb", "std", "rapid", "csv", "txt"];

/// Returns `true` if the path's extension marks it as a trace file
/// (case-insensitively; see [`TRACE_EXTENSIONS`]).
pub fn is_trace_path<P: AsRef<std::path::Path>>(path: P) -> bool {
    path.as_ref()
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase)
        .is_some_and(|ext| TRACE_EXTENSIONS.contains(&ext.as_str()))
}

/// Expands one corpus argument into a sorted list of trace-file paths —
/// the iteration primitive batch drivers share (the CLI `batch` command,
/// examples, tests):
///
/// * a **directory** yields every trace file directly inside it (by
///   extension, see [`is_trace_path`]; non-recursive, so a corpus
///   directory can hold reports and notes beside its traces);
/// * a path whose final component contains `*` is a **glob** over that
///   directory (`corpus/xalan-*.stb`; `*` matches any run of characters;
///   a `*` in any *other* component is rejected as
///   [`InvalidInput`](std::io::ErrorKind::InvalidInput) rather than
///   silently treated as a literal file name);
/// * anything else is returned as-is (one explicit file — whatever its
///   extension, so `smarttrack batch odd.name` still works).
///
/// The result is sorted (lexicographically by path) so corpora enumerate
/// deterministically on every file system.
///
/// # Errors
///
/// I/O errors from reading the directory. An empty result is not an error
/// here; callers decide whether an empty corpus is acceptable.
pub fn corpus_paths(arg: &str) -> std::io::Result<Vec<std::path::PathBuf>> {
    use std::path::{Path, PathBuf};

    let path = Path::new(arg);
    let mut found: Vec<PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|entry| entry.path())
            .filter(|p| p.is_file() && is_trace_path(p))
            .collect()
    } else if let Some(pattern) = path
        .file_name()
        .and_then(|n| n.to_str())
        .filter(|n| n.contains('*'))
    {
        let dir = match path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent,
            _ => Path::new("."),
        };
        if dir.to_str().is_some_and(|d| d.contains('*')) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "only the final path component may contain `*`",
            ));
        }
        std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|entry| entry.path())
            .filter(|p| {
                p.is_file()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|name| glob_matches(pattern, name))
            })
            .collect()
    } else {
        if arg.contains('*') {
            // A `*` in a directory component would otherwise fall through
            // to the explicit-file branch and fail as a baffling per-job
            // "No such file" — reject it up front instead.
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "only the final path component may contain `*`",
            ));
        }
        vec![path.to_path_buf()]
    };
    found.sort();
    Ok(found)
}

/// Matches a `*`-only glob `pattern` against `name` (no `?`, no character
/// classes — the subset corpus arguments need). The first literal anchors
/// at the start, the last at the end; middle literals match leftmost in
/// order (each `*` absorbs any run of characters, so leftmost is never
/// wrong).
fn glob_matches(pattern: &str, name: &str) -> bool {
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == name;
    }
    let Some(mut rest) = name.strip_prefix(parts[0]) else {
        return false;
    };
    for part in &parts[1..parts.len() - 1] {
        if part.is_empty() {
            continue;
        }
        match rest.find(part) {
            Some(at) => rest = &rest[at + part.len()..],
            None => return false,
        }
    }
    rest.ends_with(parts[parts.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn glob_matching_covers_star_shapes() {
        assert!(glob_matches("*", "anything.stb"));
        assert!(glob_matches("xalan-*.stb", "xalan-11.stb"));
        assert!(!glob_matches("xalan-*.stb", "avrora-11.stb"));
        assert!(!glob_matches("xalan-*.stb", "xalan-11.stb.bak"));
        assert!(glob_matches("a*b", "aXbYb"), "star is greedy enough");
        assert!(glob_matches("a*b*c", "abc"), "stars may be empty");
        assert!(
            !glob_matches("a*b*b", "aXb"),
            "each literal needs its own text"
        );
        assert!(glob_matches("plain.trace", "plain.trace"));
        assert!(!glob_matches("plain.trace", "other.trace"));
    }

    #[test]
    fn corpus_paths_expand_dirs_globs_and_files() {
        let dir = std::env::temp_dir().join(format!("st-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["b.stb", "a.trace", "c.std", "notes.md", "x.csv"] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        let dir_str = dir.display().to_string();

        // Directory: trace extensions only, sorted.
        let names = |paths: Vec<std::path::PathBuf>| -> Vec<String> {
            paths
                .iter()
                .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names(corpus_paths(&dir_str).unwrap()),
            ["a.trace", "b.stb", "c.std", "x.csv"]
        );
        // Glob within the directory.
        let glob = format!("{dir_str}/*.st*");
        assert_eq!(names(corpus_paths(&glob).unwrap()), ["b.stb", "c.std"]);
        // A single explicit file passes through whatever its extension.
        let md = dir.join("notes.md").display().to_string();
        assert_eq!(names(corpus_paths(&md).unwrap()), ["notes.md"]);
        // `*` outside the final component is a clear error, not a literal.
        for bad in ["runs-*/x.stb".to_string(), format!("{dir_str}/*/x.stb")] {
            let err = corpus_paths(&bad).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{bad}");
            assert!(err.to_string().contains("final path component"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn std_round_trips_paper_figures() {
        for (name, tr) in paper::all_figures() {
            let text = render_std(&tr);
            let back = parse_std(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, tr, "{name}");
        }
    }

    #[test]
    fn csv_round_trips_paper_figures() {
        for (name, tr) in paper::all_figures() {
            let back = parse_csv(&render_csv(&tr)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, tr, "{name}");
        }
    }

    #[test]
    fn std_round_trips_random_traces() {
        use crate::gen::RandomTraceSpec;
        for seed in 0..10 {
            let tr = RandomTraceSpec::default().generate(seed);
            assert_eq!(parse_std(&render_std(&tr)).expect("round trip"), tr);
            assert_eq!(parse_csv(&render_csv(&tr)).expect("round trip"), tr);
        }
    }

    #[test]
    fn condvar_and_barrier_ops_round_trip_all_formats() {
        use crate::gen::RandomTraceSpec;
        for seed in 0..6 {
            let tr = RandomTraceSpec::tiny_sync().generate(seed);
            for format in [
                TraceFormat::Native,
                TraceFormat::Std,
                TraceFormat::Csv,
                TraceFormat::Stb,
            ] {
                let bytes = render_bytes(&tr, format);
                assert_eq!(
                    parse_bytes(&bytes, format).expect("round trip"),
                    tr,
                    "{format} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn rwlock_ops_round_trip_all_formats() {
        let text = "T0|acqw(L0)|1\nT0|rel(L0)|2\nT1|acqr(L0)|3\nT2|acqr(L0)|4\n\
                    T0|tryf(L0)|5\nT1|rel(L0)|6\nT2|rel(L0)|7\n";
        let tr = parse_std(text).expect("parses");
        assert_eq!(tr.num_locks(), 1);
        for format in [
            TraceFormat::Native,
            TraceFormat::Std,
            TraceFormat::Csv,
            TraceFormat::Stb,
        ] {
            let bytes = render_bytes(&tr, format);
            assert_eq!(
                parse_bytes(&bytes, format).expect("round trip"),
                tr,
                "{format}"
            );
        }
    }

    #[test]
    fn wait_target_uses_a_semicolon_pair() {
        let tr = parse_std("T0|acq(L0)|1\nT1|notify(C0)|2\nT0|wait(C0;L0)|3\nT0|rel(L0)|4\n")
            .expect("parses");
        assert_eq!(tr.num_condvars(), 1);
        assert!(render_std(&tr).contains("wait(C0;L0)"));
        // CSV keeps its comma-separated fields intact.
        let csv = render_csv(&tr);
        assert_eq!(parse_csv(&csv).unwrap(), tr);
        let err = parse_std("T0|acq(L0)|1\nT0|wait(C0)|2\n").unwrap_err();
        assert!(matches!(err, FormatError::BadLine { line: 2, .. }), "{err}");
    }

    #[test]
    fn accepts_comments_blank_lines_and_missing_locs() {
        let text = "\n# a comment\nT0|r(V0)\n\nT1|w(V0)|9\n";
        let tr = parse_std(text).expect("parses");
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.events()[0].loc, Loc::UNKNOWN);
        assert_eq!(tr.events()[1].loc, Loc::new(9));
    }

    #[test]
    fn interns_symbolic_names_stably() {
        let text = "main|acq(guard)|1\nmain|w(counter)|2\nmain|rel(guard)|3\nworker|r(counter)|4\n";
        let tr = parse_std(text).expect("parses");
        assert_eq!(tr.num_threads(), 2);
        // `counter` interned once: both accesses hit the same variable.
        let vars: Vec<_> = tr
            .events()
            .iter()
            .filter_map(|e| e.op.access_var())
            .collect();
        assert_eq!(vars[0], vars[1]);
    }

    #[test]
    fn numeric_and_symbolic_names_do_not_collide() {
        let text = "T0|w(V5)|1\nT0|w(data)|2\nT0|w(V5)|3\n";
        let tr = parse_std(text).expect("parses");
        let vars: Vec<_> = tr
            .events()
            .iter()
            .filter_map(|e| e.op.access_var())
            .collect();
        assert_eq!(vars[0], vars[2], "V5 stays V5");
        assert_ne!(vars[0], vars[1], "`data` interns above the numeric range");
    }

    #[test]
    fn rejects_unknown_operations() {
        let err = parse_std("T0|frobnicate(V0)|1").unwrap_err();
        assert!(matches!(err, FormatError::BadLine { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_bad_syntax_with_line_numbers() {
        let err = parse_std("T0|r(V0)|1\nnot a line\n").unwrap_err();
        match err {
            FormatError::BadLine { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn rejects_ill_formed_lock_usage() {
        let err = parse_std("T0|rel(L0)|1").unwrap_err();
        assert!(matches!(err, FormatError::Malformed(_)), "{err}");
    }

    #[test]
    fn csv_header_is_optional_but_skipped() {
        let with = parse_csv("tid,op,target,loc\nT0,w,V0,1\n").expect("with header");
        let without = parse_csv("T0,w,V0,1\n").expect("without header");
        assert_eq!(with, without);
    }

    #[test]
    fn format_names_parse() {
        assert_eq!("std".parse::<TraceFormat>(), Ok(TraceFormat::Std));
        assert_eq!("RAPID".parse::<TraceFormat>(), Ok(TraceFormat::Std));
        assert_eq!("csv".parse::<TraceFormat>(), Ok(TraceFormat::Csv));
        assert_eq!("native".parse::<TraceFormat>(), Ok(TraceFormat::Native));
        assert_eq!("stb".parse::<TraceFormat>(), Ok(TraceFormat::Stb));
        assert_eq!("binary".parse::<TraceFormat>(), Ok(TraceFormat::Stb));
        assert!("xml".parse::<TraceFormat>().is_err());
        assert_eq!(TraceFormat::Std.to_string(), "std");
        assert_eq!(TraceFormat::Stb.to_string(), "stb");
    }

    #[test]
    fn parse_as_dispatches_all_text_formats() {
        let tr = paper::figure1();
        for format in [TraceFormat::Native, TraceFormat::Std, TraceFormat::Csv] {
            let text = render_as(&tr, format);
            assert_eq!(parse_as(&text, format).expect("round trip"), tr, "{format}");
        }
    }

    #[test]
    fn parse_bytes_dispatches_all_formats() {
        let tr = paper::figure2();
        for format in [
            TraceFormat::Native,
            TraceFormat::Std,
            TraceFormat::Csv,
            TraceFormat::Stb,
        ] {
            let bytes = render_bytes(&tr, format);
            assert_eq!(
                parse_bytes(&bytes, format).expect("round trip"),
                tr,
                "{format}"
            );
        }
    }

    #[test]
    fn parse_as_refuses_the_binary_format_without_panicking() {
        let err = parse_as("anything", TraceFormat::Stb).unwrap_err();
        assert!(matches!(err, FormatError::Binary(_)), "{err}");
    }

    #[test]
    fn binary_bytes_in_a_text_format_are_a_utf8_error() {
        let bytes = render_bytes(&paper::figure1(), TraceFormat::Stb);
        let err = parse_bytes(&bytes, TraceFormat::Native).unwrap_err();
        assert!(matches!(err, FormatError::NotUtf8 { .. }), "{err}");
    }

    #[test]
    fn sniffing_recognizes_stb_and_defers_on_text() {
        let tr = paper::figure1();
        assert_eq!(
            sniff(&render_bytes(&tr, TraceFormat::Stb)),
            Some(TraceFormat::Stb)
        );
        assert_eq!(sniff(&render_bytes(&tr, TraceFormat::Native)), None);
        assert_eq!(sniff(b""), None);
    }

    #[test]
    fn format_of_path_maps_extensions() {
        assert_eq!(format_of_path("a/b.stb"), TraceFormat::Stb);
        assert_eq!(format_of_path("a/b.STD"), TraceFormat::Std);
        assert_eq!(format_of_path("a/b.rapid"), TraceFormat::Std);
        assert_eq!(format_of_path("a/b.csv"), TraceFormat::Csv);
        assert_eq!(format_of_path("a/b.trace"), TraceFormat::Native);
        assert_eq!(format_of_path("noext"), TraceFormat::Native);
        for f in [
            TraceFormat::Native,
            TraceFormat::Std,
            TraceFormat::Csv,
            TraceFormat::Stb,
        ] {
            assert_eq!(format_of_path(format!("t.{}", f.extension())), f);
        }
    }

    #[test]
    fn file_round_trip_honors_extension_and_sniffing() {
        let dir = std::env::temp_dir().join("smarttrack-formats-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tr = paper::figure3();
        for ext in ["trace", "std", "csv", "stb"] {
            let path = dir.join(format!("auto-{}.{ext}", std::process::id()));
            write_file(&tr, &path).unwrap();
            assert_eq!(read_file(&path).unwrap(), tr, ".{ext}");
            std::fs::remove_file(&path).ok();
        }
        // Sniffing beats a lying extension: STB bytes in a `.trace` file.
        let path = dir.join(format!("lying-{}.trace", std::process::id()));
        std::fs::write(&path, render_bytes(&tr, TraceFormat::Stb)).unwrap();
        assert_eq!(read_file(&path).unwrap(), tr);
        std::fs::remove_file(&path).ok();
    }
}

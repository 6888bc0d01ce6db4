//! Corpus-scale batch analysis: a fixed worker pool running many traces
//! through streaming [`Session`]s and aggregating one [`CorpusReport`].
//!
//! The paper's deployment model (§5.1) analyzes one execution inside the
//! instrumented process. A production service ingesting recorded traces
//! from many users faces a *corpus* problem instead: thousands of STB
//! streams to analyze concurrently across cores, with bounded memory and
//! one aggregated race report. This module is that scheduling layer:
//!
//! ```text
//! BatchJobs ──► injector queue ──► worker 1 ── Session ──┐   (mpsc channel)
//!              (shared, popped      worker 2 ── Session ──┼──► aggregator
//!               by idle workers)    …                     │    per-job table,
//!                                   worker N ── Session ──┘    corpus dedup
//! ```
//!
//! * Each [`BatchJob`] — a trace file path, an in-memory [`Trace`], or a
//!   generator closure — runs as one streaming [`Session`] on whichever
//!   worker pulls it from the shared injector queue. STB files stream
//!   chunk by chunk (header hints pre-size the session); the pool never
//!   materializes an STB trace.
//! * Workers push per-job results and live [`CorpusRace`] notices through
//!   a channel into the **aggregator** (running on the calling thread),
//!   which builds the [`CorpusReport`]: a per-job table, per-analysis
//!   totals with statically-distinct races deduplicated *across* the
//!   corpus (§5.6's counting, lifted from one run to many), and a failure
//!   list. A corrupt or truncated trace fails its own job with the precise
//!   decode error — never the batch.
//! * The report is **deterministic**: identical for any worker count and
//!   across repeated runs (jobs are keyed by submission index and all
//!   aggregate sets are ordered), which is what makes the pool testable
//!   against a sequential reference.
//!
//! # Examples
//!
//! ```
//! use smarttrack_detect::{BatchJob, Engine, EnginePool, Relation};
//! use smarttrack_trace::paper;
//!
//! let engine = Engine::builder().relation(Relation::Wdc).build()?;
//! let pool = EnginePool::new(engine).with_workers(2);
//! let report = pool.run(vec![
//!     BatchJob::from_trace("fig1", paper::figure1()),
//!     BatchJob::from_trace("fig4a", paper::figure4a()),
//! ]);
//! assert_eq!(report.succeeded(), 2);
//! assert_eq!(report.totals()[0].dynamic, 1, "only figure 1 races");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex;

use smarttrack_trace::formats::{self, FormatError, TraceSource};
use smarttrack_trace::{Loc, Trace, TraceError};

use crate::{AnalysisConfig, AnalysisOutcome, Engine, RaceReport, Session, StreamHint};

/// Environment variable overriding the default worker count of
/// [`worker_count`] (lowest precedence is the detected parallelism,
/// highest an explicit request).
pub const WORKERS_ENV: &str = "SMARTTRACK_WORKERS";

/// Upper clamp for [`worker_count`]: more OS threads than this only add
/// scheduling overhead for any plausible machine.
pub const MAX_WORKERS: usize = 512;

/// Derives a worker count for parallel drivers (the pool, the CLI
/// `batch` command, bench sweeps): an explicit request wins, then the
/// `SMARTTRACK_WORKERS` environment variable, then
/// `std::thread::available_parallelism()`. The result is always clamped
/// to `1..=MAX_WORKERS`, so `Some(0)` and absurd values stay usable.
pub fn worker_count(requested: Option<usize>) -> usize {
    worker_count_from(
        requested,
        std::env::var(WORKERS_ENV).ok().as_deref(),
        std::thread::available_parallelism().map_or(1, usize::from),
    )
}

/// The pure core of [`worker_count`], taking the environment value and the
/// detected parallelism explicitly so edge cases are unit-testable:
/// unparsable `env` text is ignored (falls through to `detected`), and
/// every source is clamped to `1..=MAX_WORKERS`.
pub fn worker_count_from(requested: Option<usize>, env: Option<&str>, detected: usize) -> usize {
    requested
        .or_else(|| env.and_then(|text| text.trim().parse().ok()))
        .unwrap_or(detected)
        .clamp(1, MAX_WORKERS)
}

/// Where a [`BatchJob`]'s events come from.
enum JobSource {
    /// A trace file in any supported format; STB streams, text materializes.
    Path(PathBuf),
    /// An already-recorded in-memory trace.
    Trace(Box<Trace>),
    /// A deferred generator — the trace is built on the worker, so corpus
    /// construction itself parallelizes (synthetic workloads, replays).
    Generator(Box<dyn FnOnce() -> Trace + Send>),
}

/// One unit of work for an [`EnginePool`]: a label (stable identity in the
/// [`CorpusReport`]) plus an event source.
pub struct BatchJob {
    label: String,
    source: JobSource,
}

impl BatchJob {
    /// A job reading a trace file. The format is auto-detected like the
    /// CLI does it — magic-byte sniffing first, then the extension. STB
    /// input streams into the session chunk by chunk (honoring the
    /// header's [`StreamHint`]); text formats are parsed whole.
    pub fn from_path(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        BatchJob {
            label: path.display().to_string(),
            source: JobSource::Path(path),
        }
    }

    /// A job over an already-recorded trace.
    pub fn from_trace(label: impl Into<String>, trace: Trace) -> Self {
        BatchJob {
            label: label.into(),
            source: JobSource::Trace(Box::new(trace)),
        }
    }

    /// A job whose trace is produced on the worker thread by `generate`
    /// (workload synthesis, trace replay — anything deferred).
    pub fn generator(
        label: impl Into<String>,
        generate: impl FnOnce() -> Trace + Send + 'static,
    ) -> Self {
        BatchJob {
            label: label.into(),
            source: JobSource::Generator(Box::new(generate)),
        }
    }

    /// The job's label as it will appear in the [`CorpusReport`].
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl fmt::Debug for BatchJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let source = match &self.source {
            JobSource::Path(p) => format!("Path({})", p.display()),
            JobSource::Trace(t) => format!("Trace({} events)", t.len()),
            JobSource::Generator(_) => "Generator(..)".to_string(),
        };
        f.debug_struct("BatchJob")
            .field("label", &self.label)
            .field("source", &source)
            .finish()
    }
}

/// Why one job failed. The batch always survives: a failed job occupies
/// its row of the [`CorpusReport`] with the precise error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The trace file could not be opened or read.
    Io(String),
    /// An STB stream failed to decode (truncation, corruption; the message
    /// carries the exact [`smarttrack_trace::binary::StbError`], including
    /// its byte offset).
    Decode(String),
    /// A text-format trace failed to parse.
    Parse(String),
    /// Decoded events violated stream well-formedness mid-session.
    Malformed(String),
    /// The job panicked (a generator closure, or a detector bug). The
    /// panic is caught on the worker so the batch survives; the message
    /// carries the payload when it was a string.
    Panicked(String),
}

impl JobError {
    /// The underlying error text.
    pub fn message(&self) -> &str {
        match self {
            JobError::Io(m)
            | JobError::Decode(m)
            | JobError::Parse(m)
            | JobError::Malformed(m)
            | JobError::Panicked(m) => m,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Io(m) => write!(f, "io error: {m}"),
            JobError::Decode(m) => write!(f, "decode error: {m}"),
            JobError::Parse(m) => write!(f, "parse error: {m}"),
            JobError::Malformed(m) => write!(f, "malformed trace: {m}"),
            JobError::Panicked(m) => write!(f, "job panicked: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The successful result of one job: the per-lane outcomes of its session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSuccess {
    /// Events the session ingested.
    pub events: usize,
    /// One outcome per engine lane, in lane order.
    pub outcomes: Vec<AnalysisOutcome>,
}

/// One row of the [`CorpusReport`]'s per-job table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job's submission index (rows are sorted by it).
    pub index: usize,
    /// The job's label.
    pub label: String,
    /// The session results, or the precise error that failed the job.
    pub result: Result<JobSuccess, JobError>,
}

/// A race surfaced live by a pool worker — the corpus-scale analogue of
/// [`crate::RaceNotice`], owned so it can cross the worker channel.
///
/// Delivery order is in-order *within* a job but unspecified across jobs
/// (whichever worker detects first, reports first); the final
/// [`CorpusReport`] is deterministic regardless.
#[derive(Clone, Debug)]
pub struct CorpusRace {
    /// Submission index of the detecting job.
    pub job: usize,
    /// Label of the detecting job.
    pub label: String,
    /// Name of the detecting analysis (as in the paper's tables).
    pub analysis: String,
    /// The lane's Table 1 configuration.
    pub config: Option<AnalysisConfig>,
    /// The race itself.
    pub race: RaceReport,
}

/// Corpus-wide totals for one analysis lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusAnalysisTotal {
    /// Analysis name (as in the paper's tables).
    pub name: String,
    /// The lane's Table 1 cell.
    pub config: AnalysisConfig,
    /// Total dynamic races across all successful jobs.
    pub dynamic: usize,
    /// Number of successful jobs in which this lane raced.
    pub racy_jobs: usize,
    /// Statically distinct race sites, deduplicated across the corpus
    /// (sorted; two dynamic races at the same [`Loc`] are the same static
    /// race even when different jobs report them).
    pub sites: Vec<Loc>,
}

impl CorpusAnalysisTotal {
    /// Number of statically distinct races across the corpus.
    pub fn distinct_static(&self) -> usize {
        self.sites.len()
    }
}

/// Scheduling statistics of one pool run (kept out of [`CorpusReport`] so
/// reports stay bit-identical across worker counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers the pool was configured with.
    pub workers: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Peak number of simultaneously open sessions — bounded by `workers`
    /// by construction (each worker holds at most one).
    pub peak_resident_sessions: usize,
}

/// The aggregated result of one [`EnginePool`] run.
///
/// Deterministic: for a fixed engine and job list, every field (and the
/// [`to_json`](CorpusReport::to_json) rendering) is identical whatever the
/// worker count and however the run interleaved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusReport {
    analyses: Vec<(String, AnalysisConfig)>,
    jobs: Vec<JobOutcome>,
}

impl CorpusReport {
    /// The per-job table, sorted by submission index.
    pub fn jobs(&self) -> &[JobOutcome] {
        &self.jobs
    }

    /// The lane identities (name, Table 1 cell) in lane order.
    pub fn analyses(&self) -> &[(String, AnalysisConfig)] {
        &self.analyses
    }

    /// Rows whose job failed, in submission order.
    pub fn failures(&self) -> impl Iterator<Item = &JobOutcome> {
        self.jobs.iter().filter(|j| j.result.is_err())
    }

    /// Number of successful jobs.
    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.result.is_ok()).count()
    }

    /// Number of failed jobs.
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.succeeded()
    }

    /// Total events analyzed across successful jobs.
    pub fn total_events(&self) -> usize {
        self.jobs
            .iter()
            .filter_map(|j| j.result.as_ref().ok())
            .map(|s| s.events)
            .sum()
    }

    /// Per-analysis corpus totals, in lane order, with statically distinct
    /// races deduplicated across the whole corpus.
    pub fn totals(&self) -> Vec<CorpusAnalysisTotal> {
        self.analyses
            .iter()
            .enumerate()
            .map(|(lane, (name, config))| {
                let mut dynamic = 0;
                let mut racy_jobs = 0;
                let mut sites: BTreeSet<Loc> = BTreeSet::new();
                for success in self.jobs.iter().filter_map(|j| j.result.as_ref().ok()) {
                    let report = &success.outcomes[lane].report;
                    dynamic += report.dynamic_count();
                    racy_jobs += usize::from(!report.is_empty());
                    sites.extend(report.races().iter().map(|r| r.loc));
                }
                CorpusAnalysisTotal {
                    name: name.clone(),
                    config: *config,
                    dynamic,
                    racy_jobs,
                    sites: sites.into_iter().collect(),
                }
            })
            .collect()
    }

    /// Corpus-wide statically distinct race count: the union of distinct
    /// sites per analysis (sites are not merged *across* analyses — each
    /// lane counts its own, like the paper's per-analysis tables).
    pub fn distinct_static_races(&self) -> usize {
        self.totals().iter().map(|t| t.sites.len()).sum()
    }

    /// Machine-readable JSON rendering (schema
    /// `smarttrack-corpus-report/v1`; documented in
    /// `docs/ARCHITECTURE.md`). Deterministic: bit-identical for equal
    /// reports, whatever worker count produced them.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"smarttrack-corpus-report/v1\",\n  \"analyses\": [");
        for (i, (name, config)) in self.analyses.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"config\": {}}}",
                json_string(name),
                json_string(&config.to_string())
            ));
        }
        out.push_str("],\n  \"jobs\": [\n");
        for (i, job) in self.jobs.iter().enumerate() {
            out.push_str("    {\"label\": ");
            out.push_str(&json_string(&job.label));
            match &job.result {
                Ok(success) => {
                    out.push_str(&format!(
                        ", \"ok\": true, \"events\": {}, \"analyses\": [",
                        success.events
                    ));
                    for (k, outcome) in success.outcomes.iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!(
                            "{{\"name\": {}, \"dynamic\": {}, \"static\": {}, \
                             \"peak_footprint_bytes\": {}}}",
                            json_string(&outcome.name),
                            outcome.report.dynamic_count(),
                            outcome.report.static_count(),
                            outcome.summary.peak_footprint_bytes
                        ));
                    }
                    out.push(']');
                }
                Err(error) => {
                    out.push_str(", \"ok\": false, \"error\": ");
                    out.push_str(&json_string(&error.to_string()));
                }
            }
            out.push('}');
            if i + 1 < self.jobs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n  \"totals\": [\n");
        let totals = self.totals();
        let distinct_static_races: usize = totals.iter().map(|t| t.sites.len()).sum();
        for (i, total) in totals.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"dynamic\": {}, \"distinct_static\": {}, \
                 \"racy_jobs\": {}, \"sites\": [{}]}}",
                json_string(&total.name),
                total.dynamic,
                total.distinct_static(),
                total.racy_jobs,
                total
                    .sites
                    .iter()
                    .map(|loc| loc.raw().to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            if i + 1 < totals.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  ],\n  \"corpus\": {{\"jobs\": {}, \"succeeded\": {}, \"failed\": {}, \
             \"events\": {}, \"distinct_static_races\": {}}}\n}}\n",
            self.jobs.len(),
            self.succeeded(),
            self.failed(),
            self.total_events(),
            distinct_static_races
        ));
        out
    }
}

impl fmt::Display for CorpusReport {
    /// Human-readable summary: corpus line, per-analysis totals, per-job
    /// rows, failures.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "corpus: {} jobs ({} ok, {} failed), {} events analyzed",
            self.jobs.len(),
            self.succeeded(),
            self.failed(),
            self.total_events()
        )?;
        writeln!(
            f,
            "\n{:<16} {:>8} {:>9} {:>10}",
            "ANALYSIS", "DYNAMIC", "DISTINCT", "RACY JOBS"
        )?;
        for total in self.totals() {
            writeln!(
                f,
                "{:<16} {:>8} {:>9} {:>10}",
                total.name,
                total.dynamic,
                total.distinct_static(),
                total.racy_jobs
            )?;
        }
        writeln!(f, "\nper job:")?;
        for job in &self.jobs {
            match &job.result {
                Ok(success) => {
                    let races: Vec<String> = success
                        .outcomes
                        .iter()
                        .map(|o| {
                            format!(
                                "{} {}/{}",
                                o.name,
                                o.report.static_count(),
                                o.report.dynamic_count()
                            )
                        })
                        .collect();
                    writeln!(
                        f,
                        "  {:<32} {:>8} events  {}",
                        job.label,
                        success.events,
                        races.join(", ")
                    )?;
                }
                Err(error) => writeln!(f, "  {:<32} FAILED: {error}", job.label)?,
            }
        }
        Ok(())
    }
}

/// JSON string literal with escaping (quotes, backslashes, control chars).
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Messages workers push to the aggregator.
enum PoolMsg {
    Race(CorpusRace),
    Done(JobOutcome),
}

/// Tracks simultaneously open sessions (current + peak).
#[derive(Default)]
struct ResidencyGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl ResidencyGauge {
    fn enter(&self) {
        let now = self.current.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn exit(&self) {
        self.current.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A fixed pool of workers analyzing [`BatchJob`]s concurrently over one
/// [`Engine`] selection — see the [module docs](self) for the dataflow.
///
/// # Examples
///
/// Analyze a synthetic two-trace corpus and read the aggregated totals:
///
/// ```
/// use smarttrack_detect::{AnalysisConfig, BatchJob, Engine, EnginePool};
/// use smarttrack_trace::gen::RandomTraceSpec;
///
/// let engine = Engine::builder().table1().build()?;
/// let pool = EnginePool::new(engine);
/// let spec = RandomTraceSpec::default();
/// let report = pool.run(vec![
///     BatchJob::generator("seed-1", {
///         let spec = spec.clone();
///         move || spec.generate(1)
///     }),
///     BatchJob::generator("seed-2", move || spec.generate(2)),
/// ]);
/// assert_eq!(report.jobs().len(), 2);
/// assert_eq!(report.totals().len(), AnalysisConfig::table1().len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct EnginePool {
    engine: Engine,
    workers: usize,
}

impl EnginePool {
    /// A pool over `engine` with the default worker count
    /// ([`worker_count`]`(None)`: the `SMARTTRACK_WORKERS` variable if
    /// set, else the machine's available parallelism).
    pub fn new(engine: Engine) -> Self {
        EnginePool {
            engine,
            workers: worker_count(None),
        }
    }

    /// Overrides the worker count (clamped like [`worker_count`]).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = worker_count(Some(workers));
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The engine whose selection every job runs.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Runs the jobs to completion and aggregates the [`CorpusReport`].
    pub fn run(&self, jobs: Vec<BatchJob>) -> CorpusReport {
        self.run_with_stats(jobs).0
    }

    /// [`run`](EnginePool::run), also returning scheduling statistics.
    pub fn run_with_stats(&self, jobs: Vec<BatchJob>) -> (CorpusReport, PoolStats) {
        self.run_observed(jobs, |_race| {})
    }

    /// Runs the jobs with a live corpus-wide race observer: `on_race` is
    /// invoked on the *calling* thread as notices arrive from the workers
    /// — the corpus analogue of [`crate::Session::set_sink`]. Delivery is
    /// in detection order within a job; the order across jobs depends on
    /// scheduling, but the returned report does not.
    pub fn run_observed(
        &self,
        jobs: Vec<BatchJob>,
        mut on_race: impl FnMut(CorpusRace),
    ) -> (CorpusReport, PoolStats) {
        let total = jobs.len();
        let workers = self.workers.min(total).max(1);
        let injector: Mutex<VecDeque<(usize, BatchJob)>> =
            Mutex::new(jobs.into_iter().enumerate().collect());
        let gauge = ResidencyGauge::default();
        let (tx, rx) = std::sync::mpsc::channel::<PoolMsg>();

        let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(total);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let injector = &injector;
                let gauge = &gauge;
                scope.spawn(move || loop {
                    let Some((index, job)) = injector.lock().expect("injector lock").pop_front()
                    else {
                        break;
                    };
                    let outcome = self.execute(index, job, &tx, gauge);
                    if tx.send(PoolMsg::Done(outcome)).is_err() {
                        break; // aggregator gone; nothing left to report to
                    }
                });
            }
            drop(tx);
            // The aggregator: drain the channel on the calling thread until
            // every worker has hung up.
            outcomes.extend(Self::aggregate(rx, &mut on_race));
        });

        outcomes.sort_unstable_by_key(|j| j.index);
        debug_assert_eq!(outcomes.len(), total, "every job accounted for once");
        let report = CorpusReport {
            analyses: self.lane_identities(),
            jobs: outcomes,
        };
        let stats = PoolStats {
            workers,
            jobs: total,
            peak_resident_sessions: gauge.peak.load(Ordering::Relaxed),
        };
        (report, stats)
    }

    /// Receives worker messages until all senders hang up, forwarding race
    /// notices to the observer and collecting job outcomes.
    fn aggregate(rx: Receiver<PoolMsg>, on_race: &mut impl FnMut(CorpusRace)) -> Vec<JobOutcome> {
        let mut outcomes = Vec::new();
        for msg in rx {
            match msg {
                PoolMsg::Race(race) => on_race(race),
                PoolMsg::Done(outcome) => outcomes.push(outcome),
            }
        }
        outcomes
    }

    /// (name, config) per engine lane — stable even when every job fails.
    fn lane_identities(&self) -> Vec<(String, AnalysisConfig)> {
        self.engine
            .configs()
            .iter()
            .map(|&config| {
                let name = config
                    .detector()
                    .expect("engine validated availability")
                    .name()
                    .to_string();
                (name, config)
            })
            .collect()
    }

    /// Runs one job on the current worker thread.
    fn execute(
        &self,
        index: usize,
        job: BatchJob,
        tx: &Sender<PoolMsg>,
        gauge: &ResidencyGauge,
    ) -> JobOutcome {
        let BatchJob { label, source } = job;
        gauge.enter();
        // A panicking job (a generator closure, or a detector bug on one
        // trace) must fail its own row, not unwind the worker and — via
        // scope join — abort the whole batch and discard every other
        // job's results.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.ingest(index, &label, source, tx)
        }))
        .unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(JobError::Panicked(format!("{label}: {message}")))
        });
        gauge.exit();
        JobOutcome {
            index,
            label,
            result,
        }
    }

    /// Opens a session for one job, wires its race sink to the pool
    /// channel, and streams the source through it.
    fn ingest(
        &self,
        index: usize,
        label: &str,
        source: JobSource,
        tx: &Sender<PoolMsg>,
    ) -> Result<JobSuccess, JobError> {
        let malformed = |e: TraceError| JobError::Malformed(format!("{label}: {e}"));
        let finish = |session: Session<'static>| JobSuccess {
            events: session.events(),
            outcomes: session.finish(),
        };
        let trace = match source {
            JobSource::Trace(trace) => *trace,
            JobSource::Generator(generate) => generate(),
            JobSource::Path(path) => {
                let at = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
                let source = formats::open_file(&path, None)
                    .map_err(|e| JobError::Io(at(&e)))?
                    .map_err(|e| match e {
                        FormatError::Binary(_) => JobError::Decode(at(&e)),
                        _ => JobError::Parse(at(&e)),
                    })?;
                match source {
                    TraceSource::Whole(trace) => trace,
                    TraceSource::Stb(reader) => {
                        // Stream: chunk-at-a-time decode, header hint
                        // pre-sizes the session, the trace is never
                        // materialized.
                        let hint = StreamHint::of_stb_header(reader.header());
                        let mut session = self.open_session(hint, index, label, tx);
                        for event in reader {
                            let event = event.map_err(|e| JobError::Decode(at(&e)))?;
                            session.feed(event).map_err(malformed)?;
                        }
                        return Ok(finish(session));
                    }
                }
            }
        };
        let mut session = self.open_session(StreamHint::default(), index, label, tx);
        session.feed_trace(&trace).map_err(malformed)?;
        Ok(finish(session))
    }

    /// Opens one session with a sink forwarding race notices (as owned
    /// [`CorpusRace`]s) through the pool channel.
    fn open_session(
        &self,
        hint: StreamHint,
        index: usize,
        label: &str,
        tx: &Sender<PoolMsg>,
    ) -> Session<'static> {
        let mut session = self.engine.open_with_hint(hint);
        let tx = tx.clone();
        let label = label.to_string();
        session.set_sink(move |notice: &crate::RaceNotice<'_>| {
            let _ = tx.send(PoolMsg::Race(CorpusRace {
                job: index,
                label: label.clone(),
                analysis: notice.analysis.to_string(),
                config: notice.config,
                race: notice.race.clone(),
            }));
        });
        session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OptLevel, Relation};
    use smarttrack_trace::{paper, Event, Op, ThreadId, VarId};

    fn wdc_engine() -> Engine {
        Engine::builder().relation(Relation::Wdc).build().unwrap()
    }

    #[test]
    fn worker_count_edge_cases() {
        // Explicit request wins, clamped ≥ 1.
        assert_eq!(worker_count_from(Some(4), Some("9"), 2), 4);
        assert_eq!(worker_count_from(Some(0), None, 8), 1);
        assert_eq!(worker_count_from(Some(usize::MAX), None, 8), MAX_WORKERS);
        // Env comes next; garbage and empty fall through to detection.
        assert_eq!(worker_count_from(None, Some("3"), 8), 3);
        assert_eq!(worker_count_from(None, Some(" 6 "), 8), 6);
        assert_eq!(worker_count_from(None, Some("0"), 8), 1);
        assert_eq!(worker_count_from(None, Some("lots"), 8), 8);
        assert_eq!(worker_count_from(None, Some(""), 8), 8);
        assert_eq!(worker_count_from(None, Some("99999"), 8), MAX_WORKERS);
        // Unset everything: detected parallelism, still clamped.
        assert_eq!(worker_count_from(None, None, 8), 8);
        assert_eq!(worker_count_from(None, None, 0), 1);
    }

    #[test]
    fn worker_count_env_override_is_live() {
        // `worker_count` consults the process environment; use the pure
        // core for everything else so this is the only test touching it.
        std::env::set_var(WORKERS_ENV, "5");
        assert_eq!(worker_count(None), 5);
        assert_eq!(worker_count(Some(2)), 2, "explicit request beats env");
        std::env::remove_var(WORKERS_ENV);
        assert!(worker_count(None) >= 1);
    }

    #[test]
    fn corpus_report_is_identical_across_worker_counts() {
        let jobs = || {
            vec![
                BatchJob::from_trace("fig1", paper::figure1()),
                BatchJob::from_trace("fig2", paper::figure2()),
                BatchJob::from_trace("fig3", paper::figure3()),
                BatchJob::from_trace("fig4a", paper::figure4a()),
            ]
        };
        let engine = Engine::builder().table1().build().unwrap();
        let base = EnginePool::new(engine.clone()).with_workers(1).run(jobs());
        for workers in [2, 3, 8] {
            let report = EnginePool::new(engine.clone())
                .with_workers(workers)
                .run(jobs());
            assert_eq!(report, base, "{workers} workers");
            assert_eq!(report.to_json(), base.to_json(), "{workers} workers");
        }
    }

    #[test]
    fn per_job_reports_match_sequential_sessions() {
        let traces = [paper::figure1(), paper::figure2(), paper::figure3()];
        let engine = Engine::builder().table1().build().unwrap();
        let report = EnginePool::new(engine.clone()).with_workers(3).run(
            traces
                .iter()
                .enumerate()
                .map(|(i, t)| BatchJob::from_trace(format!("job-{i}"), t.clone()))
                .collect(),
        );
        for (job, trace) in report.jobs().iter().zip(&traces) {
            let mut session = engine.open();
            session.feed_trace(trace).unwrap();
            let expected = session.finish();
            let success = job.result.as_ref().expect("in-memory traces succeed");
            assert_eq!(success.outcomes, expected, "{}", job.label);
            assert_eq!(success.events, trace.len());
        }
    }

    #[test]
    fn corpus_dedup_counts_shared_sites_once() {
        // The same figure twice: dynamic races double, distinct sites don't.
        let once =
            EnginePool::new(wdc_engine()).run(vec![BatchJob::from_trace("a", paper::figure1())]);
        let twice = EnginePool::new(wdc_engine()).run(vec![
            BatchJob::from_trace("a", paper::figure1()),
            BatchJob::from_trace("b", paper::figure1()),
        ]);
        let (one, two) = (&once.totals()[0], &twice.totals()[0]);
        assert_eq!(two.dynamic, 2 * one.dynamic);
        assert_eq!(two.sites, one.sites, "same static sites, deduplicated");
        assert_eq!(two.racy_jobs, 2);
    }

    #[test]
    fn failed_job_carries_precise_error_and_spares_the_batch() {
        let dir = std::env::temp_dir();
        let good = dir.join(format!("st-pool-good-{}.stb", std::process::id()));
        let bad = dir.join(format!("st-pool-bad-{}.stb", std::process::id()));
        smarttrack_trace::binary::write_stb_file(&paper::figure1(), &good).unwrap();
        let bytes = std::fs::read(&good).unwrap();
        std::fs::write(&bad, &bytes[..bytes.len() - 3]).unwrap();

        let report = EnginePool::new(wdc_engine()).with_workers(2).run(vec![
            BatchJob::from_path(&good),
            BatchJob::from_path(&bad),
            BatchJob::from_path(dir.join("st-pool-missing.stb")),
        ]);
        assert_eq!(report.succeeded(), 1);
        assert_eq!(report.failed(), 2);
        let errors: Vec<&JobError> = report
            .failures()
            .map(|j| j.result.as_ref().unwrap_err())
            .collect();
        assert!(
            matches!(errors[0], JobError::Decode(m) if m.contains("truncated")),
            "{:?}",
            errors[0]
        );
        assert!(matches!(errors[1], JobError::Io(_)), "{:?}", errors[1]);
        // The good job still analyzed fully.
        assert_eq!(report.totals()[0].dynamic, 1);
        let _ = std::fs::remove_file(&good);
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn contradicting_stb_hint_fails_the_job_as_a_decode_error() {
        use smarttrack_trace::binary::{StbHint, StbWriter};
        let trace = smarttrack_trace::gen::RandomTraceSpec::default().generate(3);
        for declared in [trace.len() + 1, trace.len() - 1] {
            let path = std::env::temp_dir().join(format!(
                "st-pool-hint-{declared}-{}.stb",
                std::process::id()
            ));
            let hint = StbHint {
                events: declared as u64,
                ..StbHint::of_trace(&trace)
            };
            let mut writer = StbWriter::with_hint(std::fs::File::create(&path).unwrap(), hint);
            for event in trace.events() {
                writer.write(event).unwrap();
            }
            writer.finish().unwrap();
            let report = EnginePool::new(wdc_engine()).run(vec![BatchJob::from_path(&path)]);
            let error = report.jobs()[0].result.as_ref().unwrap_err();
            assert!(
                matches!(error, JobError::Decode(m) if m.contains("header hint declares")),
                "{error:?}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn stb_path_jobs_stream_and_match_in_memory_jobs() {
        let trace = paper::figure1();
        let path = std::env::temp_dir().join(format!("st-pool-stream-{}.stb", std::process::id()));
        smarttrack_trace::binary::write_stb_file(&trace, &path).unwrap();
        let from_path = EnginePool::new(wdc_engine()).run(vec![BatchJob::from_path(&path)]);
        let in_memory = EnginePool::new(wdc_engine()).run(vec![BatchJob::from_trace(
            path.display().to_string(),
            trace,
        )]);
        let (a, b) = (&from_path.jobs()[0], &in_memory.jobs()[0]);
        let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(a.events, b.events);
        assert_eq!(a.outcomes[0].report, b.outcomes[0].report);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observer_sees_every_race_of_successful_jobs() {
        let mut seen = Vec::new();
        let engine = wdc_engine();
        let (report, stats) = EnginePool::new(engine).with_workers(2).run_observed(
            vec![
                BatchJob::from_trace("fig1", paper::figure1()),
                BatchJob::from_trace("fig4a", paper::figure4a()),
            ],
            |race| seen.push((race.job, race.analysis.clone(), race.race.loc)),
        );
        assert_eq!(seen.len(), 1, "only figure 1 has a WDC race");
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[0].1, "SmartTrack-WDC");
        assert!(stats.peak_resident_sessions <= stats.workers);
        assert_eq!(report.succeeded(), 2);
    }

    #[test]
    fn malformed_stream_fails_its_job_mid_session() {
        // A hand-built STB stream whose events violate lock discipline:
        // decodes fine, rejected by the session validator.
        let t0 = ThreadId::new(0);
        let events = [
            Event::new(t0, Op::Write(VarId::new(0))),
            Event::new(t0, Op::Release(smarttrack_trace::LockId::new(0))),
        ];
        let mut writer = smarttrack_trace::binary::StbWriter::new(Vec::new());
        for event in &events {
            writer.write(event).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let path =
            std::env::temp_dir().join(format!("st-pool-malformed-{}.stb", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let report = EnginePool::new(wdc_engine()).run(vec![BatchJob::from_path(&path)]);
        assert_eq!(report.failed(), 1);
        assert!(matches!(
            report.jobs()[0].result.as_ref().unwrap_err(),
            JobError::Malformed(_)
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn panicking_job_fails_its_row_not_the_batch() {
        let report = EnginePool::new(wdc_engine()).with_workers(2).run(vec![
            BatchJob::from_trace("good", paper::figure1()),
            BatchJob::generator("boom", || panic!("generator exploded")),
            BatchJob::from_trace("also-good", paper::figure2()),
        ]);
        assert_eq!(report.succeeded(), 2);
        assert_eq!(report.failed(), 1);
        let failure = report.failures().next().unwrap();
        assert_eq!(failure.label, "boom");
        assert!(
            matches!(failure.result.as_ref().unwrap_err(),
                     JobError::Panicked(m) if m.contains("generator exploded")),
            "{:?}",
            failure.result
        );
        assert_eq!(report.totals()[0].racy_jobs, 2, "good jobs fully analyzed");
    }

    #[test]
    fn json_rendering_is_escaped_and_stable() {
        let report = EnginePool::new(wdc_engine()).run(vec![BatchJob::from_trace(
            "we\"ird\\label",
            paper::figure1(),
        )]);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"smarttrack-corpus-report/v1\""));
        assert!(json.contains("we\\\"ird\\\\label"));
        assert_eq!(json, report.clone().to_json());
        assert_eq!(json_string("a\tb\u{1}"), "\"a\\tb\\u0001\"");
    }

    #[test]
    fn empty_corpus_yields_an_empty_deterministic_report() {
        let report = EnginePool::new(wdc_engine()).run(Vec::new());
        assert_eq!(report.jobs().len(), 0);
        assert_eq!(report.succeeded(), 0);
        assert_eq!(report.totals()[0].dynamic, 0);
        assert!(report.to_json().contains("\"jobs\": 0"));
    }

    #[test]
    fn pool_defaults_and_overrides() {
        let pool = EnginePool::new(wdc_engine());
        assert!(pool.workers() >= 1);
        assert_eq!(
            pool.with_workers(0).workers(),
            1,
            "clamped like worker_count"
        );
        let engine = Engine::builder()
            .relation(Relation::Dc)
            .opt_level(OptLevel::Fto)
            .build()
            .unwrap();
        let pool = EnginePool::new(engine).with_workers(7);
        assert_eq!(pool.workers(), 7);
        assert_eq!(pool.engine().configs().len(), 1);
    }
}

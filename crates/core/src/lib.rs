#![warn(missing_docs)]

//! # SmartTrack: efficient predictive data-race detection
//!
//! A from-scratch Rust reproduction of *SmartTrack: Efficient Predictive Race
//! Detection* (Roemer, Genç, Bond — PLDI 2020). This facade crate is the
//! public entry point for analysis; the substrate crates
//! (`smarttrack-trace`, `smarttrack-detect`, `smarttrack-vindicate`) are
//! re-exported under [`trace`], [`detect`], and [`vindicate`]. Execution
//! simulation lives in `smarttrack-runtime`, calibrated workloads in
//! `smarttrack-workloads`, and the paper's §5.1 *parallel* deployment model
//! — analysis hooks running inside the application threads — in
//! `smarttrack-parallel`.
//!
//! ## What this is
//!
//! *Predictive* race detectors report data races that are provable from an
//! observed execution even when the observed interleaving itself never
//! exhibits them. The paper's contribution — reproduced here in full — is a
//! set of optimizations (epochs + ownership, and novel conflicting-critical-
//! section optimizations) that make the predictive WCP, DC, and
//! newly-introduced WDC analyses run nearly as fast as the widely deployed
//! non-predictive FastTrack HB analysis.
//!
//! ## Quick start: the streaming `Engine`/`Session` API
//!
//! Analyses ingest an event stream through a [`Session`] opened from a
//! builder-configured [`Engine`] — the paper's online deployment shape.
//! Feed events as they happen (or a whole recorded trace), observe races
//! and per-analysis state at any point, finish for the final outcome:
//!
//! ```
//! use smarttrack::{AnalysisConfig, Engine, OptLevel, Relation};
//! use smarttrack::trace::paper;
//!
//! // The paper's Figure 1: no HB-race, but a predictable race on x.
//! let trace = paper::figure1();
//!
//! // One pass, two analyses: the FTO-HB baseline fanned out next to the
//! // primary SmartTrack-DC lane.
//! let engine = Engine::builder()
//!     .relation(Relation::Dc)
//!     .opt_level(OptLevel::SmartTrack)
//!     .fanout([AnalysisConfig::new(Relation::Hb, OptLevel::Fto)])
//!     .build()?;
//!
//! let mut session = engine.open();
//! for &event in trace.events() {
//!     session.feed(event)?; // or feed_batch / feed_trace
//! }
//! assert_eq!(session.races().len(), 1, "the DC lane predicts the race");
//!
//! let outcomes = session.finish();
//! assert_eq!(outcomes[0].name, "SmartTrack-DC");
//! assert_eq!(outcomes[0].report.dynamic_count(), 1);
//! assert_eq!(outcomes[1].name, "FTO-HB");
//! assert_eq!(outcomes[1].report.dynamic_count(), 0, "HB analysis misses it");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Races can also be *pushed* as they are detected — the production shape —
//! by installing a [`RaceSink`] with [`Session::set_sink`]. For one-shot
//! whole-trace analysis the [`analyze`] / [`analyze_all`] wrappers remain:
//!
//! ```
//! use smarttrack::{analyze, AnalysisConfig, OptLevel, Relation};
//! use smarttrack::trace::paper;
//!
//! let st = analyze(
//!     &paper::figure1(),
//!     AnalysisConfig::new(Relation::Dc, OptLevel::SmartTrack),
//! );
//! assert_eq!(st.report.dynamic_count(), 1);
//! ```
//!
//! ## The Table 1 analysis matrix
//!
//! [`AnalysisConfig::table1`] enumerates its fourteen runnable cells: the
//! twelve analyses ({Unopt, FT2/FTO, SmartTrack} × {HB, WCP, DC, WDC} minus
//! N/A cells) plus the two graph-building Unopt DC/WDC variants ("w/ G"),
//! and
//! [`EngineBuilder::table1`](smarttrack_detect::EngineBuilder::table1) fans
//! the whole matrix out over a single pass.

pub mod two_phase;

pub use smarttrack_detect::{
    analyze, analyze_all, make_detector, osr_pair_witness, run_detector, syncp_pair_ideal,
    worker_count, AccessKind, AnalysisConfig, AnalysisOutcome, BatchJob, CcsFidelity,
    CorpusAnalysisTotal, CorpusRace, CorpusReport, Detector, Engine, EngineBuilder, EngineError,
    EnginePool, EraserLockset, FtoCase, FtoCaseCounters, HotPathStats, JobError, JobOutcome,
    JobSuccess, LTime, LaneSnapshot, LockVarTable, OptLevel, Osr, ParseAnalysisConfigError,
    PoolStats, RaceNotice, RaceReport, RaceSink, Relation, Report, RunSummary, Session,
    SessionSnapshot, StreamHint, SyncP,
};

/// Trace model, generators, statistics, and the paper's example executions.
pub mod trace {
    pub use smarttrack_trace::*;
}

/// The twelve Table 1 analyses, the SyncP and OSR extension rows, and
/// their support types.
pub mod detect {
    pub use smarttrack_detect::*;
}

/// Witness construction, the predicted-trace validator, and the exhaustive
/// oracle.
pub mod vindicate {
    pub use smarttrack_vindicate::*;
}

#![warn(missing_docs)]

//! Parallel race-detection analyses: the paper's §5.1 implementation model.
//!
//! The detectors in [`smarttrack-detect`](smarttrack_detect) are sequential
//! trace processors. The paper's evaluated implementations are not: built on
//! RoadRunner, their analysis hooks run *inside the application threads*, and
//! §5.1 describes how that is made correct:
//!
//! > "Each analysis processes events correctly in parallel by using
//! > fine-grained synchronization on analysis metadata. An analysis can forgo
//! > synchronization for an access if a same-epoch check succeeds. To
//! > synchronize this lock-free check correctly, the read and write epochs in
//! > all analyses are volatile variables."
//!
//! This crate reproduces that architecture for the two ends of the paper's
//! analysis spectrum, as one generic [`OnlineRow`] that runs the sequential
//! rows' own per-variable access bodies and hard-edge rules:
//!
//! * [`ConcurrentFtoHb`] — FTO-HB (the FastTrack-family baseline) over the
//!   [`FtoVar`](smarttrack_detect::FtoVar) bodies, with per-lock clock
//!   locks;
//! * [`ConcurrentSmartTrackWdc`] — SmartTrack-WDC (the paper's cheapest
//!   predictive analysis, §5.7) over the [`StVar`](smarttrack_detect::StVar)
//!   bodies, whose critical-section lists use the thread-safe
//!   [`ArcCells`](smarttrack_detect::ArcCells) family: deferred release
//!   times are published through write-once cells — the concurrent
//!   realization of Algorithm 3's "reference to a new vector clock \[with\]
//!   `C(t) ← ∞`" (lines 3–5): a pending cell reads as `∞`, a published one
//!   as the release time.
//!
//! What the row adds to the bodies is only the concurrency: a mutex per
//! variable, lock-free same-epoch fast paths over atomic epoch mirrors
//! ([`AtomicEpoch`]), and the `Arc` cells.
//!
//! Both implement [`OnlineAnalysis`]: application threads obtain a
//! [`OnlineCtx`] handle each and push their own events through it, exactly
//! like RoadRunner's inlined instrumentation. Two drivers are provided:
//!
//! * [`feed_trace`] — a deterministic single-threaded feed, used to prove the
//!   concurrent data structures compute the *same analysis* as the sequential
//!   detectors (differential tests over random traces);
//! * [`run_online`] — true parallel execution of a
//!   [`Program`](smarttrack_runtime::Program) on OS threads with real locks,
//!   analysis hooks inlined at the RoadRunner hook points (acquire hooks
//!   after the real lock, release hooks before the real unlock), and an
//!   optional observed-linearization recorder.
//!
//! # Examples
//!
//! Detect a data race online, from inside the racing threads themselves:
//!
//! ```
//! use smarttrack_parallel::{run_online, ConcurrentSmartTrackWdc, WorldSpec};
//! use smarttrack_runtime::{Program, ThreadSpec};
//! use smarttrack_trace::VarId;
//!
//! let x = VarId::new(0);
//! let program = Program::new(vec![
//!     ThreadSpec::new().write(x),
//!     ThreadSpec::new().write(x),
//! ]);
//! let analysis = ConcurrentSmartTrackWdc::new(WorldSpec::of_program(&program));
//! let run = run_online(&program, &analysis, false)?;
//! assert_eq!(run.report.dynamic_count(), 1);
//! # Ok::<(), smarttrack_parallel::OnlineError>(())
//! ```

mod atomic;
mod driver;
mod feed;
mod hb;
mod lane;
mod row;
mod shared;
mod wdc;
mod world;

pub use atomic::{AtomicEpoch, Mirror};
pub use driver::{run_online, OnlineError, OnlineRun};
pub use feed::feed_trace;
pub use hb::{ConcurrentFtoHb, FtoHbFamily};
pub use lane::OnlineLane;
pub use row::{OnlineFamily, OnlineRow, RowCtx};
pub use wdc::{ConcurrentSmartTrackWdc, StWdcFamily};
pub use world::WorldSpec;

// The one worker-count derivation shared by every parallel driver in the
// workspace (the batch `EnginePool`, the CLI `--jobs` flag, bench sweeps):
// explicit request > `SMARTTRACK_WORKERS` > detected parallelism, clamped
// ≥ 1. `run_online` itself spawns exactly one OS thread per *program*
// thread (the §5.1 model analyzes from inside the application's own
// threads), so callers sizing machine-wide sweeps over it use this
// instead of deriving their own count.
pub use smarttrack_detect::pool::{worker_count, worker_count_from};

use smarttrack_clock::ThreadId;
use smarttrack_detect::{FtoCaseCounters, OptLevel, Relation, Report};
use smarttrack_trace::{EventId, Loc, Op};

/// A race-detection analysis whose metadata may be updated from many
/// application threads at once (the paper's §5.1 deployment model).
///
/// The analysis object holds the shared metadata; each application thread
/// obtains its own [`OnlineCtx`] via [`context`](OnlineAnalysis::context) and
/// pushes its events through it. Thread clocks are owned by their contexts
/// (never shared), per-variable and per-lock metadata is guarded by
/// fine-grained locks inside the analysis, and same-epoch checks are
/// lock-free ([`AtomicEpoch`]).
pub trait OnlineAnalysis: Sync {
    /// The per-thread handle type.
    type Ctx<'a>: OnlineCtx + Send
    where
        Self: 'a;

    /// Short name matching the paper's tables (e.g. `"SmartTrack-WDC"`).
    fn name(&self) -> &'static str;

    /// The relation this analysis computes (Table 1 row).
    fn relation(&self) -> Relation;

    /// The optimization level of this analysis (Table 1 column).
    fn opt_level(&self) -> OptLevel;

    /// Dynamic races reported so far — a cheap count, so sequential
    /// bridges can detect new races without snapshotting the whole report
    /// after every event.
    fn races_so_far(&self) -> usize;

    /// Approximate live metadata bytes. Parallel analyses default to `0`
    /// (walking shared metadata would mean locking every entry); the
    /// sequential detectors are the footprint-measurement substrate.
    fn footprint_bytes(&self) -> usize {
        0
    }

    /// Creates the handle for thread `t`, absorbing any fork edge already
    /// offered to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside the [`WorldSpec`] bounds the analysis was
    /// created with, or if a context for `t` is created while another one for
    /// the same thread is still being used concurrently (thread ids must be
    /// unique per OS thread at any given time).
    fn context(&self, t: ThreadId) -> Self::Ctx<'_>;

    /// Snapshot of the races detected so far.
    fn report(&self) -> Report;

    /// Snapshot of the FTO case counters (Appendix Table 12).
    fn case_counters(&self) -> FtoCaseCounters;
}

/// Per-thread event handle of an [`OnlineAnalysis`].
pub trait OnlineCtx {
    /// The thread this handle belongs to.
    fn tid(&self) -> ThreadId;

    /// Processes one event executed by this thread. `id` is the event's
    /// global sequence number (trace index in feed mode, hook sequence number
    /// in online mode); it is recorded in race reports.
    fn on_event(&mut self, id: EventId, op: Op, loc: Loc);

    /// Publishes this thread's current clock so that `join`s of it observe
    /// its time. Called at thread end by the online driver, and before each
    /// `join` event by the deterministic feed.
    fn publish(&mut self);
}

//! The streaming ingestion API: a builder-configured [`Engine`] that opens
//! incremental [`Session`]s.
//!
//! The paper's deployment story (§5.1) is *online*: analysis hooks run
//! inside application threads over an unbounded event stream. This module
//! is the single event-ingestion code path that every driver in the
//! workspace sits on — the one-shot [`crate::analyze`] /
//! [`crate::analyze_all`] wrappers, the CLI commands, the deterministic
//! feed of `smarttrack-parallel`, and the windowed analysis of
//! `smarttrack-vindicate`.
//!
//! A session owns one *lane* per analysis. Fan-out sessions process every
//! lane in the same pass over the stream, replacing N whole-trace passes
//! with one; a [`RaceSink`] surfaces races the moment a lane detects them
//! rather than at end-of-stream.
//!
//! # Examples
//!
//! Stream the paper's Figure 1 into an HB + SmartTrack-DC fan-out and watch
//! the predictive race surface mid-stream:
//!
//! ```
//! use smarttrack_detect::{AnalysisConfig, Engine, OptLevel, Relation};
//! use smarttrack_trace::paper;
//!
//! let engine = Engine::builder()
//!     .relation(Relation::Dc)
//!     .opt_level(OptLevel::SmartTrack)
//!     .fanout([AnalysisConfig::new(Relation::Hb, OptLevel::Fto)])
//!     .build()?;
//!
//! let mut session = engine.open();
//! for event in paper::figure1().events() {
//!     session.feed(*event)?;
//! }
//! assert_eq!(session.races().len(), 1, "only the DC lane fires");
//!
//! let outcomes = session.finish();
//! assert_eq!(outcomes.len(), 2);
//! assert_eq!(outcomes[0].name, "SmartTrack-DC");
//! assert_eq!(outcomes[0].report.dynamic_count(), 1);
//! assert_eq!(outcomes[1].report.dynamic_count(), 0, "no HB race");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use smarttrack_trace::{Event, EventId, StreamValidator, Trace, TraceError};

use crate::intern::Interner;
use crate::{
    AnalysisConfig, AnalysisOutcome, Detector, FootprintSampler, FtoCaseCounters, HotPathStats,
    OptLevel, RaceReport, Relation, Report, RunSummary, StreamHint,
};

/// A race surfaced by a [`Session`], paired with the lane that found it.
#[derive(Clone, Copy, Debug)]
pub struct RaceNotice<'a> {
    /// Name of the detecting analysis (as in the paper's tables).
    pub analysis: &'a str,
    /// The lane's Table 1 configuration; `None` for custom detector lanes.
    pub config: Option<AnalysisConfig>,
    /// The race itself.
    pub race: &'a RaceReport,
}

/// Observer receiving races as they are detected, instead of (only) from
/// the end-of-stream report — the paper's "deployed" shape, where a race is
/// acted on while the application still runs.
///
/// Any `FnMut(&RaceNotice)` closure is a sink.
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use smarttrack_detect::{Engine, RaceNotice, Relation};
/// use smarttrack_trace::paper;
///
/// let engine = Engine::builder().relation(Relation::Wdc).build()?;
/// let mut session = engine.open();
///
/// let live: Rc<RefCell<Vec<String>>> = Rc::default();
/// let sink = Rc::clone(&live);
/// session.set_sink(move |notice: &RaceNotice<'_>| {
///     sink.borrow_mut()
///         .push(format!("{} at {}", notice.analysis, notice.race.event));
/// });
/// session.feed_trace(&paper::figure1())?;
/// session.finish();
/// assert_eq!(*live.borrow(), ["SmartTrack-WDC at e7"]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait RaceSink {
    /// Called once per dynamic race, in detection order, possibly many
    /// events after the session was opened but always before
    /// [`Session::feed`] for the detecting event returns (or during
    /// [`Session::finish`] for races found while flushing).
    fn on_race(&mut self, notice: &RaceNotice<'_>);
}

impl<F: FnMut(&RaceNotice<'_>)> RaceSink for F {
    fn on_race(&mut self, notice: &RaceNotice<'_>) {
        self(notice)
    }
}

/// Errors from [`EngineBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A requested configuration is an N/A cell of Table 1.
    Unavailable(AnalysisConfig),
    /// No analysis was selected.
    Empty,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Unavailable(cfg) => {
                write!(f, "{cfg} is an N/A cell of Table 1")
            }
            EngineError::Empty => write!(
                f,
                "no analysis selected (use relation()/config()/fanout()/table1())"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Configures an [`Engine`].
///
/// The *primary* analysis is described by [`relation`](EngineBuilder::relation)
/// / [`opt_level`](EngineBuilder::opt_level) / [`graph`](EngineBuilder::graph);
/// additional fan-out lanes come from [`config`](EngineBuilder::config),
/// [`fanout`](EngineBuilder::fanout), or [`table1`](EngineBuilder::table1).
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    relation: Option<Relation>,
    level: Option<OptLevel>,
    graph: bool,
    lanes: Vec<AnalysisConfig>,
    hint: StreamHint,
}

impl EngineBuilder {
    /// Selects the primary analysis' relation.
    pub fn relation(mut self, relation: Relation) -> Self {
        self.relation = Some(relation);
        self
    }

    /// Selects the primary analysis' optimization level. Defaults to the
    /// strongest column available for the relation (SmartTrack; FTO for HB,
    /// whose SmartTrack cell is N/A).
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.level = Some(level);
        self
    }

    /// Enables constraint-graph recording for the primary analysis (valid
    /// for Unopt DC/WDC).
    pub fn graph(mut self, graph: bool) -> Self {
        self.graph = graph;
        self
    }

    /// Adds one fan-out lane.
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.lanes.push(config);
        self
    }

    /// Adds fan-out lanes, analyzed in the same single pass as the primary.
    pub fn fanout<I: IntoIterator<Item = AnalysisConfig>>(mut self, configs: I) -> Self {
        self.lanes.extend(configs);
        self
    }

    /// Adds every Table 1 cell as a fan-out lane (the paper's full analysis
    /// matrix in one pass).
    pub fn table1(self) -> Self {
        self.fanout(AnalysisConfig::table1())
    }

    /// Installs the [`StreamHint`] sessions start from, e.g. one decoded
    /// from an STB binary trace header ([`StreamHint::of_stb_header`]). A
    /// known thread bound enables sound compaction of DC rule (b) queues; a
    /// known event count upgrades footprint sampling from the adaptive
    /// policy to the cheaper fixed-stride one (see `FootprintSampler`).
    /// Fields set by an earlier call are kept when the incoming hint leaves
    /// them `None`.
    pub fn hint(mut self, hint: StreamHint) -> Self {
        self.hint = hint.or(self.hint);
        self
    }

    /// Validates the selection and builds the engine.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unavailable`] if any selected cell is N/A;
    /// [`EngineError::Empty`] if nothing was selected.
    pub fn build(self) -> Result<Engine, EngineError> {
        let mut lanes = Vec::new();
        if let Some(relation) = self.relation {
            let level = self.level.unwrap_or(match relation {
                Relation::Hb => OptLevel::Fto,
                // The SyncP/OSR extension rows have a single implementation
                // each, addressed as Unopt (no Table 1 opt columns).
                Relation::SyncP | Relation::Osr => OptLevel::Unopt,
                _ => OptLevel::SmartTrack,
            });
            let mut primary = AnalysisConfig::new(relation, level);
            if self.graph {
                primary = primary.with_graph();
            }
            lanes.push(primary);
        }
        lanes.extend(self.lanes);
        if lanes.is_empty() {
            return Err(EngineError::Empty);
        }
        for &config in &lanes {
            if !config.is_available() {
                return Err(EngineError::Unavailable(config));
            }
        }
        Ok(Engine {
            configs: lanes,
            hint: self.hint,
        })
    }
}

/// A validated, reusable analysis selection; [`open`](Engine::open) starts
/// independent streaming [`Session`]s over it.
///
/// # Examples
///
/// One engine, many sessions — each session analyzes its own stream:
///
/// ```
/// use smarttrack_detect::{Engine, Relation};
/// use smarttrack_trace::paper;
///
/// let engine = Engine::builder().relation(Relation::Dc).build()?;
/// for (name, trace) in paper::all_figures() {
///     let mut session = engine.open();
///     session.feed_trace(&trace)?;
///     println!("{name}: {} races", session.finish_one().report.dynamic_count());
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Engine {
    configs: Vec<AnalysisConfig>,
    hint: StreamHint,
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// A single-analysis engine for `config`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unavailable`] if `config` is an N/A cell.
    pub fn for_config(config: AnalysisConfig) -> Result<Engine, EngineError> {
        EngineBuilder::default().config(config).build()
    }

    /// The lane configurations, in session lane order (primary first).
    pub fn configs(&self) -> &[AnalysisConfig] {
        &self.configs
    }

    /// Opens a fresh session: new detectors, empty report, zero events.
    pub fn open(&self) -> Session<'static> {
        self.open_with_hint(StreamHint::default())
    }

    /// Opens a session with stream facts known only now — e.g. the
    /// [`StreamHint`] decoded from one STB file's header when a single
    /// engine analyzes many files ([`crate::EnginePool`] uses this per
    /// job). Fields the per-stream hint leaves `None` fall back to the
    /// builder-level hint.
    pub fn open_with_hint(&self, hint: StreamHint) -> Session<'static> {
        let merged = hint.or(self.hint);
        let lanes = self
            .configs
            .iter()
            .map(|&config| {
                let det = config
                    .detector()
                    .expect("availability was validated by build()");
                Lane::new(Some(config), det)
            })
            .collect();
        Session::with_lanes(lanes, merged, Some(Interner::with_hint(&merged)))
    }
}

/// One analysis running inside a session.
struct Lane<'d> {
    config: Option<AnalysisConfig>,
    det: Box<dyn Detector + 'd>,
    sampler: FootprintSampler,
    /// Mirror of the detector's report with original (pre-interning) ids —
    /// what every session-level read (`races`, `snapshot`, `finish`, sink
    /// notices) serves. Its length doubles as the sink watermark.
    report: Report,
}

impl<'d> Lane<'d> {
    fn new(config: Option<AnalysisConfig>, det: Box<dyn Detector + 'd>) -> Self {
        Lane {
            config,
            det,
            sampler: FootprintSampler::adaptive(),
            report: Report::new(),
        }
    }

    fn snapshot(&self, events: usize) -> LaneSnapshot {
        let footprint = self.det.footprint_bytes();
        LaneSnapshot {
            name: self.det.name().to_string(),
            config: self.config,
            report: self.report.clone(),
            cases: self.det.case_counters().cloned(),
            hot_path: self.det.hot_path_stats(),
            footprint_bytes: footprint,
            peak_footprint_bytes: self.sampler.peak().max(footprint),
            events,
        }
    }

    /// Mirrors races the detector found since the last call (restoring
    /// original ids) and delivers them to `sink`. Called after processing
    /// an event and after the end-of-stream flush.
    fn drain_new_races(
        &mut self,
        sink: &mut Option<Box<dyn RaceSink + '_>>,
        interner: Option<&Interner>,
    ) {
        let det_report = self.det.report();
        let known = self.report.dynamic_count();
        if det_report.dynamic_count() > known {
            for race in &det_report.races()[known..] {
                let restored = match interner {
                    Some(i) => i.restore_race(race),
                    None => race.clone(),
                };
                self.report.push(restored);
            }
            if let Some(sink) = sink.as_mut() {
                let name = self.det.name();
                for race in &self.report.races()[known..] {
                    sink.on_race(&RaceNotice {
                        analysis: name,
                        config: self.config,
                        race,
                    });
                }
            }
        }
    }
}

/// Point-in-time state of one [`Session`] lane, from
/// [`Session::snapshot`].
#[derive(Clone, Debug)]
pub struct LaneSnapshot {
    /// Analysis name (as in the paper's tables).
    pub name: String,
    /// Table 1 cell, or `None` for custom detector lanes.
    pub config: Option<AnalysisConfig>,
    /// Races detected so far.
    pub report: Report,
    /// FTO case frequencies so far, when tracked.
    pub cases: Option<FtoCaseCounters>,
    /// Fast-path/slow-path hit counts and resident state bytes so far.
    pub hot_path: HotPathStats,
    /// Exact live metadata bytes right now (full walk).
    pub footprint_bytes: usize,
    /// Peak sampled metadata bytes so far (including the current state).
    pub peak_footprint_bytes: usize,
    /// Events processed so far.
    pub events: usize,
}

/// Point-in-time state of a whole [`Session`].
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    /// Events ingested so far.
    pub events: usize,
    /// Heap bytes held by the session's id interner (shared by all lanes,
    /// so counted once here rather than in any lane's footprint).
    pub interner_bytes: usize,
    /// One snapshot per lane, in lane order.
    pub lanes: Vec<LaneSnapshot>,
}

/// An open incremental analysis over one event stream.
///
/// Feed events with [`feed`](Session::feed) / [`feed_batch`](Session::feed_batch)
/// / [`feed_trace`](Session::feed_trace); observe mid-stream state with
/// [`races`](Session::races) and [`snapshot`](Session::snapshot) (or a
/// [`RaceSink`] for push-style delivery); close with
/// [`finish`](Session::finish).
///
/// The lifetime parameter tracks borrowed custom detectors
/// ([`from_detectors`](Session::from_detectors)); engine-opened sessions
/// are `Session<'static>`.
///
/// # Examples
///
/// Incremental ingest — events arrive one at a time (e.g. decoded from a
/// streaming trace reader), and state is observable mid-stream:
///
/// ```
/// use smarttrack_detect::{Engine, Relation};
/// use smarttrack_trace::paper;
///
/// let trace = paper::figure1();
/// let engine = Engine::builder().relation(Relation::Dc).build()?;
/// let mut session = engine.open();
/// for &event in trace.events() {
///     session.feed(event)?;
/// }
/// assert_eq!(session.events(), trace.len());
/// assert_eq!(session.snapshot().lanes[0].report.dynamic_count(), 1);
/// assert_eq!(session.finish_one().report.dynamic_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Session<'d> {
    lanes: Vec<Lane<'d>>,
    validator: StreamValidator,
    sink: Option<Box<dyn RaceSink + 'd>>,
    /// Id interner for engine-opened sessions. Custom-detector sessions
    /// ([`Session::from_detectors`]) run un-interned: their detectors are
    /// externally owned, and callers read reports straight off them after
    /// the session ends.
    interner: Option<Interner>,
}

impl<'d> Session<'d> {
    fn with_lanes(mut lanes: Vec<Lane<'d>>, hint: StreamHint, interner: Option<Interner>) -> Self {
        for lane in &mut lanes {
            lane.det.begin_stream(hint);
            if let Some(events) = hint.events {
                // A known length upgrades footprint sampling from the
                // adaptive policy to the cheaper fixed-stride one.
                lane.sampler = FootprintSampler::for_len(events);
            }
        }
        Session {
            lanes,
            validator: StreamValidator::new(),
            sink: None,
            interner,
        }
    }

    /// A session over caller-supplied detectors (custom lanes, `config =
    /// None`). Detectors may be borrowed — `&mut D` implements
    /// [`Detector`] — so the caller can inspect detector-specific state
    /// after [`finish`](Session::finish). Such sessions do not intern ids
    /// (the caller reads reports directly from the borrowed detectors).
    pub fn from_detectors(detectors: Vec<Box<dyn Detector + 'd>>) -> Self {
        Session::with_lanes(
            detectors
                .into_iter()
                .map(|det| Lane::new(None, det))
                .collect(),
            StreamHint::default(),
            None,
        )
    }

    /// A single custom-detector session (see
    /// [`from_detectors`](Session::from_detectors)).
    pub fn from_detector<D: Detector + 'd>(detector: D) -> Self {
        Session::from_detectors(vec![Box::new(detector)])
    }

    /// Installs a [`RaceSink`] that receives every *future* race as it is
    /// detected (races already in [`races`](Session::races) are not
    /// replayed).
    pub fn set_sink<S: RaceSink + 'd>(&mut self, sink: S) {
        self.sink = Some(Box::new(sink));
    }

    /// Number of events ingested so far.
    pub fn events(&self) -> usize {
        self.validator.len()
    }

    /// Validates and analyzes one event on every lane.
    ///
    /// # Errors
    ///
    /// Returns the [`TraceError`] if the event violates stream
    /// well-formedness; the event is then not analyzed and the session
    /// state is unchanged (the caller may skip it and continue).
    pub fn feed(&mut self, event: Event) -> Result<EventId, TraceError> {
        let id = self.validator.admit(&event)?;
        // Intern ids once per event; every lane indexes by the compact
        // slot (see the `intern` module).
        let event = match &mut self.interner {
            Some(interner) => interner.intern_event(event),
            None => event,
        };
        let sink = &mut self.sink;
        let interner = self.interner.as_ref();
        for lane in &mut self.lanes {
            lane.det.process(id, &event);
            // The sampling stride reads the cheap running estimate; the
            // exact walk runs once at finish (see RunSummary).
            lane.sampler.observe(|| lane.det.state_bytes());
            lane.drain_new_races(sink, interner);
        }
        Ok(id)
    }

    /// Feeds a slice of events in order.
    ///
    /// # Errors
    ///
    /// Stops at the first malformed event: the preceding prefix has been
    /// ingested, the offending event and everything after it have not.
    pub fn feed_batch(&mut self, events: &[Event]) -> Result<(), TraceError> {
        for &event in events {
            self.feed(event)?;
        }
        Ok(())
    }

    /// Feeds a whole recorded trace. If the session is still empty, the
    /// trace's stream facts (thread count, length) are announced to the
    /// lanes first, exactly like the whole-trace [`crate::run_detector`]
    /// driver — so `analyze ≡ open + feed_trace + finish`.
    ///
    /// # Errors
    ///
    /// A validated [`Trace`] cannot fail on an empty session; feeding a
    /// second trace can (its lock/thread usage continues the first
    /// stream's).
    pub fn feed_trace(&mut self, trace: &Trace) -> Result<(), TraceError> {
        if self.validator.is_empty() {
            for lane in &mut self.lanes {
                lane.det.begin_stream(StreamHint::of_trace(trace));
                lane.sampler = FootprintSampler::for_len(trace.len());
            }
        }
        self.feed_batch(trace.events())
    }

    /// All races detected so far, across lanes (lane order, detection order
    /// within a lane).
    pub fn races(&self) -> Vec<RaceNotice<'_>> {
        self.lanes
            .iter()
            .flat_map(|lane| {
                lane.report.races().iter().map(move |race| RaceNotice {
                    analysis: lane.det.name(),
                    config: lane.config,
                    race,
                })
            })
            .collect()
    }

    /// Point-in-time state of every lane: report, case counters, live and
    /// peak footprint, events so far. Cheap relative to analysis (clones
    /// reports, walks live metadata once per lane).
    pub fn snapshot(&self) -> SessionSnapshot {
        let events = self.events();
        SessionSnapshot {
            events,
            interner_bytes: self.interner.as_ref().map_or(0, Interner::heap_bytes),
            lanes: self
                .lanes
                .iter()
                .map(|lane| lane.snapshot(events))
                .collect(),
        }
    }

    /// Closes the stream: lanes flush deferred work
    /// ([`Detector::finish_stream`]), flushed races reach the sink, and
    /// each *engine-configured* lane yields an [`AnalysisOutcome`] (lane
    /// order). Custom detector lanes ([`from_detectors`](Session::from_detectors))
    /// carry no [`AnalysisConfig`] and yield no outcome — read their state
    /// through the borrowed detector after this returns.
    pub fn finish(mut self) -> Vec<AnalysisOutcome> {
        let events = self.validator.len();
        let sink = &mut self.sink;
        let interner = self.interner.as_ref();
        for lane in &mut self.lanes {
            lane.det.finish_stream();
            lane.drain_new_races(sink, interner);
        }
        self.lanes
            .into_iter()
            .filter_map(|mut lane| {
                let config = lane.config?;
                let final_state_bytes = lane.det.footprint_bytes();
                let peak = lane.sampler.finish(final_state_bytes);
                let hot = lane.det.hot_path_stats();
                Some(AnalysisOutcome {
                    name: lane.det.name().to_string(),
                    config,
                    report: lane.report,
                    summary: RunSummary {
                        events,
                        peak_footprint_bytes: peak,
                        final_state_bytes,
                        fast_path_hits: hot.fast_hits,
                        slow_path_hits: hot.slow_hits,
                    },
                    cases: lane.det.case_counters().cloned(),
                })
            })
            .collect()
    }

    /// [`finish`](Session::finish) for single-analysis sessions.
    ///
    /// # Panics
    ///
    /// Panics if the session does not have exactly one engine-configured
    /// lane.
    pub fn finish_one(self) -> AnalysisOutcome {
        let mut outcomes = self.finish();
        assert_eq!(
            outcomes.len(),
            1,
            "finish_one requires exactly one configured lane"
        );
        outcomes.pop().expect("length checked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_detector;
    use smarttrack_trace::{paper, Op, ThreadId, VarId};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn builder_primary_defaults_to_strongest_available_column() {
        let engine = Engine::builder().relation(Relation::Wdc).build().unwrap();
        assert_eq!(
            engine.configs(),
            &[AnalysisConfig::new(Relation::Wdc, OptLevel::SmartTrack)]
        );
        // HB's SmartTrack cell is N/A; the default degrades to FTO.
        let engine = Engine::builder().relation(Relation::Hb).build().unwrap();
        assert_eq!(
            engine.configs(),
            &[AnalysisConfig::new(Relation::Hb, OptLevel::Fto)]
        );
    }

    #[test]
    fn builder_rejects_na_cells_and_empty_selection() {
        let err = Engine::builder()
            .relation(Relation::Hb)
            .opt_level(OptLevel::SmartTrack)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Unavailable(AnalysisConfig::new(Relation::Hb, OptLevel::SmartTrack))
        );
        assert_eq!(Engine::builder().build().unwrap_err(), EngineError::Empty);
    }

    #[test]
    fn feed_matches_whole_trace_run() {
        let trace = paper::figure1();
        let engine =
            Engine::for_config(AnalysisConfig::new(Relation::Dc, OptLevel::SmartTrack)).unwrap();
        let mut session = engine.open();
        session.feed_trace(&trace).unwrap();
        let outcome = session.finish_one();

        let mut det = AnalysisConfig::new(Relation::Dc, OptLevel::SmartTrack)
            .detector()
            .unwrap();
        let summary = run_detector(det.as_mut(), &trace);
        assert_eq!(outcome.report, *det.report());
        assert_eq!(outcome.summary.events, summary.events);
    }

    #[test]
    fn fanout_runs_every_lane_in_one_pass() {
        let trace = paper::figure2();
        let engine = Engine::builder().table1().build().unwrap();
        let mut session = engine.open();
        session.feed_trace(&trace).unwrap();
        let outcomes = session.finish();
        assert_eq!(outcomes.len(), 14);
        for outcome in &outcomes {
            let direct = crate::analyze(&trace, outcome.config);
            assert_eq!(outcome.report, direct.report, "{}", outcome.name);
        }
    }

    #[test]
    fn malformed_event_is_rejected_and_skippable() {
        let engine = Engine::builder().relation(Relation::Dc).build().unwrap();
        let mut session = engine.open();
        let t0 = ThreadId::new(0);
        session
            .feed(Event::new(t0, Op::Write(VarId::new(0))))
            .unwrap();
        // Releasing an unheld lock: rejected, then the stream continues.
        let err = session
            .feed(Event::new(
                t0,
                Op::Release(smarttrack_trace::LockId::new(0)),
            ))
            .unwrap_err();
        assert!(matches!(err, TraceError::ReleaseUnheldLock { .. }));
        session
            .feed(Event::new(ThreadId::new(1), Op::Write(VarId::new(0))))
            .unwrap();
        assert_eq!(session.events(), 2);
        assert_eq!(session.races().len(), 1);
    }

    #[test]
    fn sink_sees_races_as_they_happen() {
        let seen: Rc<RefCell<Vec<(String, EventId)>>> = Rc::default();
        let engine = Engine::builder()
            .relation(Relation::Wdc)
            .fanout([AnalysisConfig::new(Relation::Hb, OptLevel::Fto)])
            .build()
            .unwrap();
        let mut session = engine.open();
        let seen2 = Rc::clone(&seen);
        session.set_sink(move |notice: &RaceNotice<'_>| {
            seen2
                .borrow_mut()
                .push((notice.analysis.to_string(), notice.race.event));
        });

        let trace = paper::figure1();
        let events = trace.events();
        // The WDC race is detected at the last event; before it, silence.
        session.feed_batch(&events[..events.len() - 1]).unwrap();
        assert!(seen.borrow().is_empty());
        session.feed(events[events.len() - 1]).unwrap();
        {
            let seen = seen.borrow();
            assert_eq!(seen.len(), 1);
            assert_eq!(seen[0].0, "SmartTrack-WDC");
            assert_eq!(seen[0].1, EventId::new((events.len() - 1) as u32));
        }
        session.finish();
        assert_eq!(seen.borrow().len(), 1, "finish does not re-deliver");
    }

    #[test]
    fn snapshot_exposes_incremental_state() {
        let engine = Engine::builder().relation(Relation::Dc).build().unwrap();
        let mut session = engine.open();
        let trace = paper::figure1();
        session.feed_batch(&trace.events()[..4]).unwrap();
        let mid = session.snapshot();
        assert_eq!(mid.events, 4);
        assert_eq!(mid.lanes.len(), 1);
        assert!(mid.lanes[0].report.is_empty());
        assert!(mid.lanes[0].footprint_bytes > 0);
        assert!(mid.lanes[0].peak_footprint_bytes >= mid.lanes[0].footprint_bytes / 2);

        session.feed_batch(&trace.events()[4..]).unwrap();
        let end = session.snapshot();
        assert_eq!(end.lanes[0].report.dynamic_count(), 1);
        assert!(end.lanes[0].peak_footprint_bytes >= mid.lanes[0].peak_footprint_bytes);
    }

    #[test]
    fn custom_detector_lanes_are_borrowable() {
        let mut det = crate::SmartTrackDc::new();
        {
            let mut session = Session::from_detector(&mut det);
            session.feed_trace(&paper::figure1()).unwrap();
            assert_eq!(session.races().len(), 1);
            assert!(session.finish().is_empty(), "custom lanes yield no outcome");
        }
        assert_eq!(
            det.report().dynamic_count(),
            1,
            "state survives the session"
        );
    }

    #[test]
    fn sessions_from_one_engine_are_independent() {
        let engine = Engine::builder().relation(Relation::Dc).build().unwrap();
        let mut a = engine.open();
        let mut b = engine.open();
        a.feed_trace(&paper::figure1()).unwrap();
        b.feed_trace(&paper::figure4a()).unwrap();
        assert_eq!(a.finish_one().report.dynamic_count(), 1);
        assert_eq!(b.finish_one().report.dynamic_count(), 0);
    }
}

use std::fmt;

use smarttrack_trace::{Event, EventId, Trace};

use crate::{FtoCaseCounters, HotPathStats, Report};

/// The relation computed by an analysis (Table 1 rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Happens-before (non-predictive).
    Hb,
    /// Weak-causally-precedes (sound predictive; Kini et al. 2017).
    Wcp,
    /// Doesn't-commute (high-coverage predictive; Roemer et al. 2018).
    Dc,
    /// Weak-doesn't-commute (this paper's §3: DC without rule (b)).
    Wdc,
    /// Sync-preserving race prediction (Mathur et al. 2021, arXiv
    /// 2010.16385): races with a witness that keeps every lock acquisition
    /// in its observed order. Sound by construction (every report carries a
    /// valid reordering); strictly more predictive than HB. A repro
    /// extension, not a Table 1 row — see [`Relation::ALL`].
    SyncP,
    /// Optimistic synchronization-reversal race prediction (Shi, Mathur &
    /// Pavlogiannis, arXiv 2401.05642): like [`Relation::SyncP`] but
    /// witness reorderings may additionally *reverse* critical sections on
    /// one lock, found by a bounded abort-and-commit search. Sound by
    /// construction (every report carries a replay-scheduled witness);
    /// SyncP ⊆ OSR. A repro extension, not a Table 1 row.
    Osr,
}

impl Relation {
    /// The paper's Table 1 rows, strongest to weakest. [`Relation::SyncP`]
    /// and [`Relation::Osr`] are deliberately absent: Table 1 is the source
    /// paper's matrix, and those rows are this repro's extensions (listed
    /// by [`crate::AnalysisConfig::extended`] instead).
    pub const ALL: [Relation; 4] = [Relation::Hb, Relation::Wcp, Relation::Dc, Relation::Wdc];
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relation::Hb => write!(f, "HB"),
            Relation::Wcp => write!(f, "WCP"),
            Relation::Dc => write!(f, "DC"),
            Relation::Wdc => write!(f, "WDC"),
            Relation::SyncP => write!(f, "SyncP"),
            Relation::Osr => write!(f, "OSR"),
        }
    }
}

/// The optimization level of an analysis (Table 1 columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Vector-clock metadata everywhere (paper Algorithm 1).
    Unopt,
    /// FastTrack2 epochs without ownership (HB only).
    Epochs,
    /// Epoch + ownership optimizations (paper Algorithm 2).
    Fto,
    /// FTO + conflicting-critical-section optimizations (paper Algorithm 3).
    SmartTrack,
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptLevel::Unopt => write!(f, "Unopt"),
            OptLevel::Epochs => write!(f, "FT2"),
            OptLevel::Fto => write!(f, "FTO"),
            OptLevel::SmartTrack => write!(f, "ST"),
        }
    }
}

/// Facts about an event stream that may be known before processing starts.
///
/// Offline analysis of a recorded [`Trace`] knows everything; a live
/// streaming session ([`crate::Session`]) may know nothing, or only a bound
/// communicated by the instrumentation layer. All fields are optional and
/// advisory: detectors must stay correct without them (a known thread bound
/// merely enables optimizations such as sound compaction of DC rule (b)
/// queues).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamHint {
    /// Upper bound on the number of distinct threads, if known.
    pub threads: Option<usize>,
    /// Total number of events the stream will carry, if known.
    pub events: Option<usize>,
    /// Number of distinct shared variables, if known. Pre-sizes the
    /// per-session id interner and the detectors' dense per-variable tables.
    pub vars: Option<usize>,
    /// Number of distinct locks, if known.
    pub locks: Option<usize>,
    /// Number of distinct volatile variables, if known.
    pub volatiles: Option<usize>,
    /// Number of distinct condition variables, if known.
    pub condvars: Option<usize>,
    /// Number of distinct barriers, if known.
    pub barriers: Option<usize>,
}

impl StreamHint {
    /// Most table slots any single hint field is trusted to pre-allocate.
    ///
    /// Hints are *claims* — a corrupt or hostile STB header, or a trace
    /// holding one huge sparse id (cardinalities are `max index + 1`), must
    /// not be able to force a multi-gigabyte allocation before the first
    /// event arrives. Larger hinted cardinalities simply fall back to
    /// growth-on-demand. 65 536 slots covers every calibrated workload's
    /// cardinalities with two orders of magnitude to spare while bounding
    /// a hostile claim to a few megabytes per table.
    pub const MAX_PRESIZE: usize = 1 << 16;

    /// Additional capacity worth reserving for a table currently holding
    /// `len` slots, given this hinted cardinality: clamped to
    /// [`MAX_PRESIZE`](StreamHint::MAX_PRESIZE), zero when unhinted.
    ///
    /// Cardinalities are `max index + 1` of the *raw* id space, so for an
    /// interned session with sparse ids the hint overstates what the lanes
    /// (which only ever see compact slots) will use — the distinct count
    /// is unknowable before the stream runs. The clamp bounds that waste
    /// to a few megabytes per table; unused reserve is reclaimed when the
    /// session drops.
    pub fn presize(hinted: Option<usize>, len: usize) -> usize {
        hinted
            .unwrap_or(0)
            .min(StreamHint::MAX_PRESIZE)
            .saturating_sub(len)
    }

    /// The full-knowledge hint for a recorded trace.
    pub fn of_trace(trace: &Trace) -> Self {
        StreamHint {
            threads: Some(trace.num_threads()),
            events: Some(trace.len()),
            vars: Some(trace.num_vars()),
            locks: Some(trace.num_locks()),
            volatiles: Some(trace.num_volatiles()),
            condvars: Some(trace.num_condvars()),
            barriers: Some(trace.num_barriers()),
        }
    }

    /// Merges two hints field-by-field, preferring `self` where both know a
    /// value (used to layer a per-stream hint over a builder-level one).
    pub fn or(self, fallback: StreamHint) -> Self {
        StreamHint {
            threads: self.threads.or(fallback.threads),
            events: self.events.or(fallback.events),
            vars: self.vars.or(fallback.vars),
            locks: self.locks.or(fallback.locks),
            volatiles: self.volatiles.or(fallback.volatiles),
            condvars: self.condvars.or(fallback.condvars),
            barriers: self.barriers.or(fallback.barriers),
        }
    }

    /// The hint carried by an STB binary trace header, when present (see
    /// [`smarttrack_trace::binary`]): an STB-aware driver announces it to
    /// the session so streaming STB input gets the same pre-sizing and
    /// compaction benefits as whole-trace analysis.
    pub fn of_stb_header(header: &smarttrack_trace::binary::StbHeader) -> Self {
        header.hint.map(Self::from).unwrap_or_default()
    }
}

impl From<smarttrack_trace::binary::StbHint> for StreamHint {
    fn from(hint: smarttrack_trace::binary::StbHint) -> Self {
        StreamHint {
            threads: Some(hint.threads as usize),
            events: Some(hint.events as usize),
            vars: Some(hint.vars as usize),
            locks: Some(hint.locks as usize),
            volatiles: Some(hint.volatiles as usize),
            condvars: Some(hint.condvars as usize),
            barriers: Some(hint.barriers as usize),
        }
    }
}

/// A dynamic race-detection analysis processing an event stream.
///
/// Detectors are deterministic: processing the same trace yields the same
/// report. They keep analyzing after detecting races (§5.1: "After the
/// analysis detects a race, it continues normally").
///
/// Detectors are *incremental*: [`report`](Detector::report),
/// [`footprint_bytes`](Detector::footprint_bytes), and
/// [`case_counters`](Detector::case_counters) are valid at any point of the
/// stream, not only at its end. The lifecycle is
/// [`begin_stream`](Detector::begin_stream) → [`process`](Detector::process)
/// per event → [`finish_stream`](Detector::finish_stream); whole-trace
/// drivers begin with the full-knowledge hint [`StreamHint::of_trace`].
pub trait Detector {
    /// Short name matching the paper's tables (e.g. `"SmartTrack-DC"`).
    fn name(&self) -> &'static str;

    /// The relation this analysis computes.
    fn relation(&self) -> Relation;

    /// The optimization level of this analysis.
    fn opt_level(&self) -> OptLevel;

    /// Announces whatever stream-level facts are known before processing
    /// (all advisory; see [`StreamHint`]). Optional.
    fn begin_stream(&mut self, hint: StreamHint) {
        let _ = hint;
    }

    /// Processes one event. `id` must be the event's index in the stream.
    fn process(&mut self, id: EventId, event: &Event);

    /// Signals that no further events will arrive. Detectors that defer
    /// work until a boundary (e.g. the windowed oracle analysis flushing
    /// its trailing partial window) complete it here; races found during
    /// the flush appear in [`report`](Detector::report) afterwards.
    /// Optional; processing-as-you-go detectors need nothing.
    fn finish_stream(&mut self) {}

    /// The races detected so far.
    fn report(&self) -> &Report;

    /// Exact live metadata bytes (vector clocks, epochs, queues, CS lists,
    /// graphs), deduplicating shared structures. Used for the paper's
    /// memory-usage experiments. May walk all live metadata — call it at
    /// stream boundaries and snapshots, not per event; the per-event
    /// sampling path uses [`state_bytes`](Detector::state_bytes).
    fn footprint_bytes(&self) -> usize;

    /// Cheap running estimate of resident metadata bytes, safe to call on
    /// the per-event sampling stride: O(#tables), never O(#variables).
    ///
    /// Detectors with dense id-indexed tables report their table
    /// capacities plus any incrementally-tracked heap structures;
    /// Rc-shared CCS metadata and heap-spilled clocks beyond
    /// [`smarttrack_clock::INLINE_CLOCKS`] threads are captured exactly by
    /// the end-of-stream [`footprint_bytes`](Detector::footprint_bytes)
    /// walk instead (see [`RunSummary::peak_footprint_bytes`]). Capacities
    /// spread over one entry per lock or per race — the WCP and DC rule (b)
    /// queues, the Unopt and FTO critical-section tables, the report's
    /// prior-thread lists — are running byte counts, kept at each push
    /// that can grow them; debug builds assert every count against the
    /// walk it replaces. The default forwards to the exact walk, which is
    /// correct for detectors whose walks are already cheap.
    fn state_bytes(&self) -> usize {
        self.footprint_bytes()
    }

    /// FTO case frequencies (Appendix Table 12), if this detector tracks
    /// them (FTO-, FT2- and SmartTrack-based detectors do).
    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        None
    }

    /// Fast-path/slow-path hit counts plus resident state bytes — the
    /// hot-path accounting every detector reports. The default derives the
    /// split from [`case_counters`](Detector::case_counters). The Unopt
    /// variants, which keep no FTO case counters, override it to report
    /// their §5.1 same-epoch-like hits as fast and every other access as
    /// slow.
    fn hot_path_stats(&self) -> HotPathStats {
        let (fast_hits, slow_hits) = match self.case_counters() {
            Some(c) => (c.fast_hits(), c.slow_hits()),
            None => (0, 0),
        };
        HotPathStats {
            fast_hits,
            slow_hits,
            state_bytes: self.state_bytes(),
        }
    }

    /// The constraint graph built during analysis, for "w/ G" variants.
    fn graph(&self) -> Option<&crate::ConstraintGraph> {
        None
    }
}

/// Mutable references forward the whole [`Detector`] API, so a session can
/// drive a detector it merely borrows (e.g. the windowed analysis lending
/// its oracle detector to a [`crate::Session`] lane).
impl<D: Detector + ?Sized> Detector for &mut D {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn relation(&self) -> Relation {
        (**self).relation()
    }

    fn opt_level(&self) -> OptLevel {
        (**self).opt_level()
    }

    fn begin_stream(&mut self, hint: StreamHint) {
        (**self).begin_stream(hint);
    }

    fn process(&mut self, id: EventId, event: &Event) {
        (**self).process(id, event);
    }

    fn finish_stream(&mut self) {
        (**self).finish_stream();
    }

    fn report(&self) -> &Report {
        (**self).report()
    }

    fn footprint_bytes(&self) -> usize {
        (**self).footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        (**self).state_bytes()
    }

    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        (**self).case_counters()
    }

    fn hot_path_stats(&self) -> HotPathStats {
        (**self).hot_path_stats()
    }

    fn graph(&self) -> Option<&crate::ConstraintGraph> {
        (**self).graph()
    }
}

/// Summary of one full analysis run produced by [`run_detector`] or a
/// finished [`crate::Session`] lane.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of events processed.
    pub events: usize,
    /// Peak *sampled* metadata footprint in bytes — the memory-usage
    /// analogue of the paper's maximum resident set size.
    ///
    /// Sampling policy: on the in-stream stride (targeting
    /// [`RunSummary::FOOTPRINT_SAMPLES`] samples — whole-trace drivers use
    /// a fixed stride of `len.div_ceil(256)` events, streaming sessions a
    /// stride that doubles every 256 samples) the *cheap* running estimate
    /// [`Detector::state_bytes`] is sampled, and at end of stream the
    /// exact [`Detector::footprint_bytes`] walk is folded in. The peak is
    /// therefore exact for monotonically growing metadata; for analyses
    /// whose footprint oscillates (queue-compacting DC variants) or whose
    /// estimate excludes Rc-shared CCS structures, mid-stream peaks can be
    /// underestimated — the same bias the paper's periodic RSS polling
    /// has. Before the hot-path metadata overhaul every in-stream sample
    /// ran the exact walk, which dominated total analysis time on
    /// epoch-friendly workloads; the estimate/exact split removes that
    /// cost without changing what the final number means. The estimate's
    /// per-lock and per-race terms are running counts (see
    /// [`Detector::state_bytes`]), so a sample costs the same early and
    /// late in a stream; debug builds check each count against its walk.
    pub peak_footprint_bytes: usize,
    /// Exact live metadata bytes at end of stream (the final
    /// [`Detector::footprint_bytes`] walk): the number to compare across
    /// metadata layouts.
    pub final_state_bytes: usize,
    /// Accesses handled by an epoch fast path (see
    /// [`Detector::hot_path_stats`]).
    pub fast_path_hits: u64,
    /// Accesses that ran a full slow-path handler.
    pub slow_path_hits: u64,
}

impl RunSummary {
    /// Target number of footprint samples per run (see
    /// [`peak_footprint_bytes`](RunSummary::peak_footprint_bytes)).
    pub const FOOTPRINT_SAMPLES: usize = 256;
}

/// Periodic footprint sampling shared by every ingestion driver.
///
/// Tracks a peak over values observed on a sampling stride. Two policies:
/// [`for_len`](FootprintSampler::for_len) (known stream length, fixed
/// stride, at most [`RunSummary::FOOTPRINT_SAMPLES`] samples) and
/// [`adaptive`](FootprintSampler::adaptive) (unbounded stream, stride
/// doubles every `FOOTPRINT_SAMPLES` samples, so total samples grow only
/// logarithmically with stream length).
#[derive(Clone, Debug)]
pub struct FootprintSampler {
    stride: usize,
    fixed: bool,
    index: usize,
    next_sample: usize,
    samples: usize,
    peak: usize,
}

impl FootprintSampler {
    /// Fixed-stride policy for a stream of `len` events: stride
    /// `len.div_ceil(256)`, sampling event indices `0, s, 2s, …`.
    pub fn for_len(len: usize) -> Self {
        FootprintSampler {
            stride: len.div_ceil(RunSummary::FOOTPRINT_SAMPLES).max(1),
            fixed: true,
            index: 0,
            next_sample: 0,
            samples: 0,
            peak: 0,
        }
    }

    /// Doubling-stride policy for streams of unknown length: the stride
    /// doubles every [`RunSummary::FOOTPRINT_SAMPLES`] samples, keeping
    /// total sampling cost logarithmic in stream length while staying
    /// dense early (where allocation growth curves are steepest).
    pub fn adaptive() -> Self {
        FootprintSampler {
            stride: 1,
            fixed: false,
            index: 0,
            next_sample: 0,
            samples: 0,
            peak: 0,
        }
    }

    /// Advances past one event, evaluating `footprint` only when this event
    /// index is on the sampling stride.
    pub fn observe<F: FnOnce() -> usize>(&mut self, footprint: F) {
        if self.index == self.next_sample {
            self.peak = self.peak.max(footprint());
            self.samples += 1;
            if !self.fixed && self.samples.is_multiple_of(RunSummary::FOOTPRINT_SAMPLES) {
                self.stride *= 2;
            }
            self.next_sample += self.stride;
        }
        self.index += 1;
    }

    /// Folds in the end-of-stream footprint and returns the peak.
    pub fn finish(&mut self, final_footprint: usize) -> usize {
        self.peak = self.peak.max(final_footprint);
        self.peak
    }

    /// The peak observed so far (without the end-of-stream sample).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Number of events observed so far.
    pub fn events(&self) -> usize {
        self.index
    }
}

/// Drives a detector over an entire trace, sampling metadata footprint
/// periodically to capture the peak (the memory-usage analogue of the paper's
/// maximum resident set size; see
/// [`RunSummary::peak_footprint_bytes`] for the sampling policy).
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, UnoptHb};
/// use smarttrack_trace::paper;
///
/// let mut det = UnoptHb::new();
/// let summary = run_detector(&mut det, &paper::figure2());
/// assert_eq!(summary.events, 12);
/// assert!(summary.peak_footprint_bytes > 0);
/// ```
pub fn run_detector<D: Detector + ?Sized>(detector: &mut D, trace: &Trace) -> RunSummary {
    detector.begin_stream(StreamHint::of_trace(trace));
    let mut sampler = FootprintSampler::for_len(trace.len());
    for (id, event) in trace.iter() {
        detector.process(id, event);
        sampler.observe(|| detector.state_bytes());
    }
    detector.finish_stream();
    let final_state_bytes = detector.footprint_bytes();
    let hot = detector.hot_path_stats();
    RunSummary {
        events: trace.len(),
        peak_footprint_bytes: sampler.finish(final_state_bytes),
        final_state_bytes,
        fast_path_hits: hot.fast_hits,
        slow_path_hits: hot.slow_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Relation::Wdc.to_string(), "WDC");
        assert_eq!(OptLevel::SmartTrack.to_string(), "ST");
        assert_eq!(OptLevel::Epochs.to_string(), "FT2");
    }

    #[test]
    fn relations_ordered_strongest_first() {
        assert_eq!(Relation::ALL[0], Relation::Hb);
        assert_eq!(Relation::ALL[3], Relation::Wdc);
    }

    /// Counts how many times a sampler evaluates the footprint closure over
    /// a stream of `events` events.
    fn samples_taken(mut sampler: FootprintSampler, events: usize) -> usize {
        let mut calls = 0;
        for _ in 0..events {
            sampler.observe(|| {
                calls += 1;
                calls
            });
        }
        calls
    }

    #[test]
    fn fixed_stride_caps_samples_near_target() {
        for len in [0, 1, 100, 256, 257, 300, 1_000, 100_000] {
            let taken = samples_taken(FootprintSampler::for_len(len), len);
            assert!(taken <= RunSummary::FOOTPRINT_SAMPLES, "len {len}: {taken}");
            // Short traces are sampled at every event.
            if len <= RunSummary::FOOTPRINT_SAMPLES {
                assert_eq!(taken, len, "len {len}");
            } else {
                // Long traces still get dense-enough coverage.
                assert!(
                    taken > RunSummary::FOOTPRINT_SAMPLES / 2,
                    "len {len}: {taken}"
                );
            }
        }
    }

    #[test]
    fn adaptive_stride_cost_grows_logarithmically() {
        for len in [10usize, 1_000, 50_000, 400_000] {
            let taken = samples_taken(FootprintSampler::adaptive(), len);
            // At most FOOTPRINT_SAMPLES walks per stride-doubling period.
            let periods = (len.max(1).ilog2() as usize) + 2;
            assert!(
                taken <= RunSummary::FOOTPRINT_SAMPLES * periods,
                "len {len}: {taken}"
            );
            assert!(
                taken >= len.min(RunSummary::FOOTPRINT_SAMPLES),
                "len {len}: {taken}"
            );
        }
    }

    #[test]
    fn sampler_peak_includes_final_state() {
        let mut sampler = FootprintSampler::for_len(4);
        for _ in 0..4 {
            sampler.observe(|| 10);
        }
        assert_eq!(sampler.peak(), 10);
        assert_eq!(sampler.finish(25), 25, "end-of-stream sample wins");
    }
}

//! The offline workloads: STB bytes decoded chunk by chunk into analysis
//! sessions, timed untraced for the end-to-end metrics and traced for the
//! per-layer ones.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use smarttrack::{
    make_detector, Detector, Engine, FtoCaseCounters, HotPathStats, OptLevel, RaceNotice, Relation,
    Report, Session, StreamHint,
};
use smarttrack_detect::FootprintSampler;
use smarttrack_trace::binary::StbReader;
use smarttrack_trace::{Event, EventId, StreamValidator};

use crate::inputs::{prepare, Input, Prepared, Spec, PREDICTIVE_LANES, TABLE1_LANES};
use crate::metrics::{Metric, WorkloadResult};
use crate::spans::{Recorder, ROOT};
use crate::stats::{median, percentile, tail_percentile, Summary};

const MIB: f64 = (1 << 20) as f64;

/// How long and how often a run measures.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Measured phase length; passes run until it is over.
    pub seconds: f64,
    /// Times set-up runs; `setup_s` is their median.
    pub setups: usize,
    /// Fewest measured passes, however long they take.
    pub min_passes: usize,
}

/// What one untraced session produced.
struct SessionRun {
    fed: Result<(), String>,
    reports: Vec<Report>,
    notices: Vec<(u32, Instant)>,
    chunk_starts: Vec<Instant>,
    /// Time spent in `Session::feed`, all chunks together.
    feeding: Duration,
    finish: Duration,
}

/// Decodes `input` one STB chunk at a time and feeds each chunk to
/// `session`, recording when each chunk's decode began and adding the
/// time spent feeding to `feeding`. With a recorder, each chunk's decode
/// and feed become spans.
fn feed_chunks(
    session: &mut Session<'_>,
    input: &Input,
    rec: Option<&RefCell<Recorder>>,
    chunk_starts: &mut Vec<Instant>,
    feeding: &mut Duration,
) -> Result<(), String> {
    let mut reader = StbReader::new(&input.stb[..]).map_err(|e| format!("STB header: {e}"))?;
    let mut buf: Vec<Event> = Vec::with_capacity(smarttrack_trace::binary::DEFAULT_CHUNK_EVENTS);
    for chunk in &input.chunks {
        chunk_starts.push(Instant::now());
        let decode = rec.map(|r| r.borrow_mut().open("trace.decode"));
        buf.clear();
        for _ in 0..chunk.events {
            match reader.next() {
                Some(Ok(event)) => buf.push(event),
                Some(Err(e)) => return Err(format!("STB decode: {e}")),
                None => return Err("STB stream ended early".into()),
            }
        }
        let feed = rec.zip(decode).map(|(r, decode)| {
            let mut r = r.borrow_mut();
            r.close(decode);
            r.open("detect.session.feed")
        });
        let fed_from = Instant::now();
        for &event in &buf {
            session
                .feed(event)
                .map_err(|e| format!("session rejected an event: {e}"))?;
        }
        *feeding += fed_from.elapsed();
        if let Some((r, feed)) = rec.zip(feed) {
            r.borrow_mut().close(feed);
        }
    }
    match reader.next() {
        None => Ok(()),
        Some(_) => Err("STB stream holds more events than its chunks declared".into()),
    }
}

/// Streams one input through an engine session, as a user of the library
/// would: the end-to-end path, untraced.
fn untraced_session(engine: &Engine, input: &Input) -> SessionRun {
    let mut session = engine.open_with_hint(input.hint);
    let notices = Rc::new(RefCell::new(Vec::with_capacity(input.reference_races())));
    let sink = Rc::clone(&notices);
    session.set_sink(move |notice: &RaceNotice<'_>| {
        sink.borrow_mut()
            .push((notice.race.event.raw(), Instant::now()));
    });
    let mut chunk_starts = Vec::with_capacity(input.chunks.len());
    let mut feeding = Duration::ZERO;
    let fed = feed_chunks(&mut session, input, None, &mut chunk_starts, &mut feeding);
    let finishing = Instant::now();
    let reports = session.finish().into_iter().map(|o| o.report).collect();
    let finish = finishing.elapsed();
    let notices = std::mem::take(&mut *notices.borrow_mut());
    SessionRun {
        fed,
        reports,
        notices,
        chunk_starts,
        feeding,
        finish,
    }
}

/// Checks one session's reports against the reference, race for race
/// (which covers the dynamic and static counts and the first and last
/// race), and that the sink saw every race.
fn check_session(
    input: &Input,
    lanes: &[&str],
    fed: &Result<(), String>,
    reports: &[&Report],
    delivered: usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    if let Err(e) = fed {
        failures.push(format!("{}: {e}", input.label));
    }
    if reports.len() != lanes.len() {
        failures.push(format!(
            "{}: {} lane reports for {} lanes",
            input.label,
            reports.len(),
            lanes.len()
        ));
    }
    for ((lane, got), want) in lanes.iter().zip(reports).zip(&input.reference) {
        if *got != want {
            failures.push(format!(
                "{}: {lane} reported {} races ({} static, first {:?}, last {:?}); \
                 the reference has {} ({} static, first {:?}, last {:?})",
                input.label,
                got.dynamic_count(),
                got.static_count(),
                got.first_race_event(),
                got.races().last().map(|r| r.event),
                want.dynamic_count(),
                want.static_count(),
                want.first_race_event(),
                want.races().last().map(|r| r.event),
            ));
        }
    }
    let reported: usize = reports.iter().map(|r| r.dynamic_count()).sum();
    if fed.is_ok() && delivered != reported {
        failures.push(format!(
            "{}: the sink saw {delivered} races, the reports hold {reported}",
            input.label
        ));
    }
    failures
}

/// SyncP ⊆ OSR on the reference reports: every SyncP race event is also
/// an OSR race event.
fn check_inclusion(spec: &Spec, prepared: &Prepared) -> Vec<String> {
    let (Some(syncp), Some(osr)) = (
        spec.lanes.iter().position(|&l| l == "syncp"),
        spec.lanes.iter().position(|&l| l == "osr"),
    ) else {
        return Vec::new();
    };
    let events = |r: &Report| -> std::collections::BTreeSet<u32> {
        r.races().iter().map(|r| r.event.raw()).collect()
    };
    prepared
        .inputs
        .iter()
        .filter_map(|input| {
            let (s, o) = (
                events(&input.reference[syncp]),
                events(&input.reference[osr]),
            );
            let missing = s.difference(&o).count();
            (missing > 0).then(|| {
                format!(
                    "{}: {missing} SyncP races are not OSR races (SyncP ⊆ OSR broken)",
                    input.label
                )
            })
        })
        .collect()
}

fn engine_for(spec: &Spec) -> Engine {
    Engine::builder()
        .fanout(spec.configs())
        .build()
        .expect("benchmark lanes are valid analyses")
}

/// One timed set-up: inputs, references, and a warm-up session.
pub fn setup(spec: &Spec, seed: u64, result: &mut WorkloadResult) -> (Prepared, f64) {
    let started = Instant::now();
    let prepared = prepare(spec, seed);
    let inclusion = check_inclusion(spec, &prepared);
    if spec.lanes.contains(&"syncp") {
        result.check(inclusion);
    }
    let warm = untraced_session(&engine_for(spec), &prepared.inputs[0]);
    let setup_s = started.elapsed().as_secs_f64();
    let reports: Vec<&Report> = warm.reports.iter().collect();
    result.check(check_session(
        &prepared.inputs[0],
        spec.lanes,
        &warm.fed,
        &reports,
        warm.notices.len(),
    ));
    (prepared, setup_s)
}

/// Untraced passes, with the samples the end-to-end metrics come from.
#[derive(Default)]
struct Passes {
    wall_s: Vec<f64>,
    events_per_s: Vec<f64>,
    /// Per pass: race push latencies (ms), and the mean finish time of its
    /// sessions (ms).
    push_ms: Vec<Vec<f64>>,
    finish_ms: Vec<f64>,
    /// Per pass: time in `Session::feed` per event (ns).
    feed_ns_per_event: Vec<f64>,
}

fn untraced_passes(
    spec: &Spec,
    prepared: &Prepared,
    seconds: f64,
    min_passes: usize,
    result: &mut WorkloadResult,
) -> Passes {
    let engine = engine_for(spec);
    let events = prepared.events_per_pass();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Passes::default();
    while passes.wall_s.len() < min_passes || Instant::now() < deadline {
        let started = Instant::now();
        let runs: Vec<SessionRun> = prepared
            .inputs
            .iter()
            .map(|input| untraced_session(&engine, input))
            .collect();
        let wall = started.elapsed().as_secs_f64();
        passes.wall_s.push(wall);
        passes.events_per_s.push(events as f64 / wall);
        let mut push = Vec::new();
        let mut finish = Vec::new();
        for (input, run) in prepared.inputs.iter().zip(&runs) {
            let reports: Vec<&Report> = run.reports.iter().collect();
            result.check(check_session(
                input,
                spec.lanes,
                &run.fed,
                &reports,
                run.notices.len(),
            ));
            finish.push(run.finish.as_secs_f64() * 1e3);
            for &(event, at) in &run.notices {
                if let Some(&start) = run.chunk_starts.get(input.chunk_of(event)) {
                    push.push(at.saturating_duration_since(start).as_secs_f64() * 1e3);
                }
            }
        }
        passes.push_ms.push(push);
        passes
            .finish_ms
            .push(finish.iter().sum::<f64>() / finish.len() as f64);
        let feeding: Duration = runs.iter().map(|run| run.feeding).sum();
        passes
            .feed_ns_per_event
            .push(feeding.as_nanos() as f64 / events as f64);
    }
    passes
}

/// A latency metric: the median over groups of each group's percentile
/// `p`, so a hiccup in one group does not move it. A group is one pass,
/// or several consecutive passes when one holds too few samples to put a
/// hundred beyond the percentile. The pooled samples give the sample
/// count and the highest percentile they support.
pub fn latency_metric(name: &str, per_pass: &[Vec<f64>], p: f64) -> Metric {
    let wanted = (100.0 / (1.0 - p / 100.0)).ceil() as usize;
    let mut groups: Vec<Vec<f64>> = vec![Vec::new()];
    for pass in per_pass {
        if groups.last().is_some_and(|g| g.len() >= wanted) {
            groups.push(Vec::new());
        }
        groups.last_mut().expect("never empty").extend(pass);
    }
    if groups.len() > 1 && groups.last().is_some_and(|g| g.len() < wanted) {
        let short = groups.pop().expect("checked");
        groups.last_mut().expect("checked").extend(short);
    }
    let mut pooled: Vec<f64> = per_pass.iter().flatten().copied().collect();
    pooled.sort_by(f64::total_cmp);
    let per: Vec<f64> = groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .map(|mut g| {
            g.sort_by(f64::total_cmp);
            percentile(&g, p)
        })
        .collect();
    let runs = Summary::of(&per);
    let mut metric = Metric::new(name, "ms", runs.median);
    metric.runs = Some(runs);
    let tail = tail_percentile(pooled.len()).map(|t| (t, percentile(&pooled, t)));
    metric.samples = Some((pooled.len(), tail));
    metric
}

pub fn summary_metric(name: &str, unit: &str, samples: &[f64]) -> Metric {
    let summary = Summary::of(samples);
    let mut metric = Metric::new(name, unit, summary.median);
    metric.runs = Some(summary);
    metric
}

/// The child process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run of an offline workload: the end-to-end metrics.
pub fn run(spec: &Spec, seed: u64, opts: &Options) -> WorkloadResult {
    let mut result = WorkloadResult::new(spec.name, false);
    let (prepared, first_setup_s) = setup(spec, seed, &mut result);
    let passes = untraced_passes(spec, &prepared, opts.seconds, opts.min_passes, &mut result);
    // Read before the extra set-ups, whose freed memory would linger in
    // the allocator and blur the measured phase's peak.
    let peak_rss = peak_rss_mb();
    drop(prepared);
    let mut setup_s = vec![first_setup_s];
    for _ in 1..opts.setups {
        setup_s.push(setup(spec, seed, &mut result).1);
    }
    result.passes = passes.wall_s.len();
    result.push(summary_metric("events_per_s", "1/s", &passes.events_per_s));
    result.push(summary_metric("setup_s", "s", &setup_s));
    result.push(Metric::new("peak_rss_mb", "MiB", peak_rss));
    result.push(latency_metric("race_push_p50_ms", &passes.push_ms, 50.0));
    result.push(latency_metric("race_push_p99_ms", &passes.push_ms, 99.0));
    result.push(summary_metric("report_p50_ms", "ms", &passes.finish_ms));
    result
}

// ---------------------------------------------------------------------------
// The traced run.

/// Share of a lane's time the clock reads around its timed calls may
/// take: three reads per timed call.
const CLOCK_SHARE: f64 = 0.02;
/// Most calls between timed ones.
const MAX_STRIDE: u32 = 1024;

/// Which of a lane's `process` calls are timed, carried across its
/// sessions. About one call in `stride` is timed, with gaps drawn at
/// random so the samples cannot lock onto a periodic pattern in the
/// trace. The stride adapts to the lane's cost so the clock stays near
/// [`CLOCK_SHARE`] of the lane's time: every call of the predictive
/// lanes, one in a few hundred of a fast-path lane's.
struct Sampler {
    stride: u32,
    until: u32,
    rng: u64,
    timed: u64,
    timed_ns: f64,
    clock_ns: f64,
}

impl Sampler {
    fn new(seed: u64) -> Sampler {
        Sampler {
            stride: 1,
            until: 1,
            rng: seed | 1,
            timed: 0,
            timed_ns: 0.0,
            clock_ns: 0.0,
        }
    }

    /// Whether this call is timed.
    fn tick(&mut self) -> bool {
        self.until -= 1;
        self.until == 0
    }

    /// Takes a timed call's duration and the clock cost measured beside
    /// it; returns the estimate the call stands for (duration times the
    /// stride it was drawn at) and draws the next gap.
    fn timed(&mut self, ns: u64, clock: u64) -> f64 {
        let estimate = f64::from(self.stride) * ns as f64;
        self.timed += 1;
        self.timed_ns += ns as f64;
        self.clock_ns += clock as f64;
        let n = self.timed as f64;
        let want = 3.0 * (self.clock_ns / n) / (CLOCK_SHARE * (self.timed_ns / n).max(1.0));
        self.stride = (want.ceil() as u32)
            .clamp(1, MAX_STRIDE)
            .next_power_of_two();
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.until = 1 + (self.rng % u64::from(2 * self.stride - 1)) as u32;
        estimate
    }
}

/// A lane detector wrapped so its work becomes spans: sampled `process`
/// calls become an estimate span per chunk, less the clock's own cost
/// measured beside each timed call; `finish_stream` is timed whole, with
/// the exact footprint walk an engine session runs at finish. The wrapper
/// also marks when its detector reports a new race, where the race's
/// delivery span begins.
///
/// A custom-detector session samples footprints on a doubling stride,
/// thousands of `state_bytes` calls over a long stream, where an engine
/// session that knows the stream length makes 256. Some of those calls
/// cost half a millisecond late in a xalan stream. So the wrapper samples
/// its detector itself, on the engine's fixed stride, and answers the
/// session's calls with the last value.
struct TracedLane<'s> {
    inner: Box<dyn Detector>,
    rec: Rc<RefCell<Recorder>>,
    epoch: Instant,
    process_name: u16,
    finish_name: u16,
    /// The stream facts an engine session would announce; custom-detector
    /// sessions announce none.
    hint: StreamHint,
    sampler: &'s mut Sampler,
    footprint: FootprintSampler,
    last_state: usize,
    races: usize,
}

impl TracedLane<'_> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn note_new_races(&mut self) {
        let races = self.inner.report().dynamic_count();
        if races > self.races {
            self.races = races;
            let now = self.now();
            self.rec.borrow_mut().sink_cursor = now;
        }
    }
}

impl Detector for TracedLane<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn relation(&self) -> Relation {
        self.inner.relation()
    }

    fn opt_level(&self) -> OptLevel {
        self.inner.opt_level()
    }

    fn begin_stream(&mut self, hint: StreamHint) {
        self.inner.begin_stream(self.hint.or(hint));
    }

    fn process(&mut self, id: EventId, event: &Event) {
        if self.sampler.tick() {
            // An empty interval read just before the call: what the clock
            // adds to the timed one, in the same cache and pipeline state.
            let empty = self.now();
            let start = self.now();
            self.inner.process(id, event);
            let end = self.now();
            let clock = start - empty;
            let estimate = self
                .sampler
                .timed((end - start).saturating_sub(clock), clock);
            self.rec
                .borrow_mut()
                .estimate(self.process_name, start, estimate);
        } else {
            self.inner.process(id, event);
        }
        let inner = &self.inner;
        let last_state = &mut self.last_state;
        self.footprint.observe(|| {
            *last_state = inner.state_bytes();
            *last_state
        });
        self.note_new_races();
    }

    fn finish_stream(&mut self) {
        let start = self.now();
        self.inner.finish_stream();
        let footprint = self.inner.footprint_bytes();
        self.footprint.finish(footprint);
        let end = self.now();
        self.rec.borrow_mut().leaf(self.finish_name, start, end);
        self.note_new_races();
    }

    fn report(&self) -> &Report {
        self.inner.report()
    }

    fn footprint_bytes(&self) -> usize {
        self.inner.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        self.last_state
    }

    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        self.inner.case_counters()
    }

    fn hot_path_stats(&self) -> HotPathStats {
        self.inner.hot_path_stats()
    }
}

/// Per-lane state over the traced sessions.
struct LaneTotals {
    sampler: Sampler,
    fast: u64,
    slow: u64,
    peak_state: usize,
}

/// Traced passes and what they add up to.
struct Traced {
    wall_s: Vec<f64>,
    events: usize,
    races: usize,
    lanes: Vec<LaneTotals>,
}

/// Runs one traced session: the same decode and feed as the untraced
/// path, over wrapped detectors in a custom-detector session. Such
/// sessions do not intern ids; the inputs number their ids in first-use
/// order, so an engine session's interning is the identity on them and
/// both paths see the same ids.
fn traced_session(
    spec: &Spec,
    input: &Input,
    rec: &Rc<RefCell<Recorder>>,
    delivered: &Rc<Cell<u64>>,
    totals: &mut [LaneTotals],
) -> Vec<String> {
    let session_span = rec.borrow_mut().open("detect.session");
    let (epoch, timer_ns) = {
        let r = rec.borrow();
        (r.epoch(), r.timer_ns)
    };
    let mut lanes: Vec<TracedLane<'_>> = spec
        .configs()
        .into_iter()
        .zip(spec.lanes)
        .zip(totals.iter_mut())
        .map(|((config, lane), total)| {
            let mut r = rec.borrow_mut();
            TracedLane {
                inner: make_detector(config.relation, config.level, false)
                    .expect("benchmark lanes are valid analyses"),
                rec: Rc::clone(rec),
                epoch,
                process_name: r.name(&format!("detect.{lane}")),
                finish_name: r.name(&format!("detect.{lane}.finish")),
                hint: input.hint,
                sampler: &mut total.sampler,
                footprint: FootprintSampler::for_len(input.events),
                last_state: 0,
                races: 0,
            }
        })
        .collect();
    let before = delivered.get();
    let fed = {
        let mut session = Session::from_detectors(
            lanes
                .iter_mut()
                .map(|lane| Box::new(lane) as Box<dyn Detector + '_>)
                .collect(),
        );
        let sink_rec = Rc::clone(rec);
        let sink_name = rec.borrow_mut().name("detect.sink");
        let sink_count = Rc::clone(delivered);
        session.set_sink(move |_: &RaceNotice<'_>| {
            sink_count.set(sink_count.get() + 1);
            let end = epoch.elapsed().as_nanos() as u64;
            let mut r = sink_rec.borrow_mut();
            let start = r.sink_cursor;
            r.estimate(
                sink_name,
                start,
                end.saturating_sub(start + timer_ns) as f64,
            );
            r.sink_cursor = end;
        });
        let mut feeding = Duration::ZERO;
        let fed = feed_chunks(
            &mut session,
            input,
            Some(rec),
            &mut Vec::new(),
            &mut feeding,
        );
        let finish = rec.borrow_mut().open("detect.session.finish");
        session.finish();
        rec.borrow_mut().close(finish);
        fed
    };
    // The checks are the benchmark's own work: their span is left out of
    // the traced pass time and of the layers.
    let check = rec.borrow_mut().open("bench.check");
    let reports: Vec<&Report> = lanes.iter().map(|l| l.inner.report()).collect();
    let failures = check_session(
        input,
        spec.lanes,
        &fed,
        &reports,
        (delivered.get() - before) as usize,
    );
    let seen: Vec<(HotPathStats, usize)> = lanes
        .iter()
        .map(|l| (l.inner.hot_path_stats(), l.footprint.peak()))
        .collect();
    rec.borrow_mut().close(check);
    // An engine session drops its detectors inside `finish`.
    let drop_span = rec.borrow_mut().open("detect.session.drop");
    drop(lanes);
    rec.borrow_mut().close(drop_span);
    rec.borrow_mut().close(session_span);
    for ((hot, peak), total) in seen.into_iter().zip(totals.iter_mut()) {
        total.fast += hot.fast_hits;
        total.slow += hot.slow_hits;
        total.peak_state = total.peak_state.max(peak);
    }
    failures
}

fn traced_passes(
    spec: &Spec,
    prepared: &Prepared,
    seconds: f64,
    min_passes: usize,
    rec: &Rc<RefCell<Recorder>>,
    result: &mut WorkloadResult,
) -> Traced {
    let delivered = Rc::new(Cell::new(0u64));
    let mut lanes: Vec<LaneTotals> = (0..spec.lanes.len())
        .map(|i| LaneTotals {
            sampler: Sampler::new(0x9e37_79b9_7f4a_7c15 ^ i as u64),
            fast: 0,
            slow: 0,
            peak_state: 0,
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut wall_s = Vec::new();
    while wall_s.len() < min_passes || Instant::now() < deadline {
        rec.borrow_mut().set_group(wall_s.len() as u32);
        let pass = rec.borrow_mut().open("bench.pass");
        let started = Instant::now();
        let failures: Vec<Vec<String>> = prepared
            .inputs
            .iter()
            .map(|input| traced_session(spec, input, rec, &delivered, &mut lanes))
            .collect();
        let elapsed = started.elapsed().as_secs_f64();
        rec.borrow_mut().close(pass);
        let r = rec.borrow();
        let checks: u64 = r.spans[pass as usize..]
            .iter()
            .filter(|s| r.name_of(s.name) == "bench.check")
            .map(|s| s.end - s.start)
            .sum();
        drop(r);
        wall_s.push(elapsed - checks as f64 / 1e9);
        for f in failures {
            result.check(f);
        }
    }
    Traced {
        events: wall_s.len() * prepared.events_per_pass(),
        races: delivered.get() as usize,
        wall_s,
        lanes,
    }
}

/// Admits every event of every input into a fresh `StreamValidator`, the
/// session's first step, on its own; returns ns per event (median of
/// three repetitions).
fn validate_ns_per_event(prepared: &Prepared) -> f64 {
    let decoded: Vec<Vec<Event>> = prepared
        .inputs
        .iter()
        .map(|input| {
            StbReader::new(&input.stb[..])
                .expect("self-encoded STB")
                .map(|e| e.expect("self-encoded STB"))
                .collect()
        })
        .collect();
    let events = prepared.events_per_pass() as f64;
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            for events in &decoded {
                let mut validator = StreamValidator::new();
                for event in events {
                    std::hint::black_box(validator.admit(event).ok());
                }
            }
            started.elapsed().as_nanos() as f64 / events
        })
        .collect();
    median(&times)
}

/// Where traced runs leave their span files.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    // Unit tests run from the package directory; keep them out of it.
    let root = if cfg!(test) {
        std::env::temp_dir().join(format!("smarttrack-benchmark-{}", std::process::id()))
    } else {
        Path::new("target").to_path_buf()
    };
    root.join("benchmark")
        .join(format!("trace-{workload}.json"))
}

/// Per-layer metrics of the trace and detect layers for `spec`: untraced
/// and traced passes of `seconds / 2` each, then a standalone validator
/// pass. Metrics of layers the workload does not run are 0.
pub fn layer_metrics(
    spec: &Spec,
    prepared: &Prepared,
    seconds: f64,
    min_passes: usize,
    result: &mut WorkloadResult,
) -> Vec<Metric> {
    let untraced = untraced_passes(spec, prepared, seconds / 2.0, min_passes, result);
    let rec = Rc::new(RefCell::new(Recorder::new()));
    let traced = traced_passes(spec, prepared, seconds / 2.0, min_passes, &rec, result);
    let validate = validate_ns_per_event(prepared);

    let rec = rec.borrow();
    if let Err(e) = rec.write_trace(&trace_path(spec.name), spec.name) {
        eprintln!("benchmark: could not write the trace file: {e}");
    }
    let selfs: BTreeMap<String, f64> = rec.self_times();
    let self_ns = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let events = traced.events.max(1) as f64;
    let finish_ms: Vec<f64> = rec
        .spans
        .iter()
        .filter(|s| rec.name_of(s.name) == "detect.session.finish")
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect();
    let pass_ns: f64 = rec
        .spans
        .iter()
        .filter(|s| rec.name_of(s.name) == "bench.pass")
        .map(|s| (s.end - s.start) as f64)
        .sum();
    // The session's own share of feeding: the untraced feed time less the
    // lane and sink estimates under the traced feed spans. The traced feed
    // spans' self time would also hold the wrapper's per-call bookkeeping.
    let feed_children_ns: f64 = rec
        .spans
        .iter()
        .filter(|s| {
            s.parent != ROOT
                && rec.name_of(rec.spans[s.parent as usize].name) == "detect.session.feed"
        })
        .map(|s| (s.end - s.start) as f64)
        .sum();
    let session_ns = median(&untraced.feed_ns_per_event) - feed_children_ns / events;
    let stb_bytes: usize = prepared.inputs.iter().map(|i| i.stb.len()).sum();

    let mut out = vec![
        Metric::new(
            "trace.decode_ns_per_event",
            "ns",
            self_ns("trace.decode") / events,
        ),
        Metric::new("trace.validate_ns_per_event", "ns", validate),
        Metric::new(
            "trace.stb_bytes_per_event",
            "B",
            stb_bytes as f64 / prepared.events_per_pass() as f64,
        ),
        Metric::new("detect.session.self_ns_per_event", "ns", session_ns),
        summary_metric("detect.session.finish_ms", "ms", &finish_ms),
        Metric::new(
            "detect.sink.ns_per_race",
            "ns",
            self_ns("detect.sink") / traced.races.max(1) as f64,
        ),
    ];
    let lane_ns = |lane: &str| {
        (self_ns(&format!("detect.{lane}")) + self_ns(&format!("detect.{lane}.finish"))) / events
    };
    for lane in TABLE1_LANES.iter().chain(&PREDICTIVE_LANES) {
        let (ns, fast, races, peak) = match spec.lanes.iter().position(|l| l == lane) {
            Some(i) => {
                let t = &traced.lanes[i];
                let hits = (t.fast + t.slow).max(1) as f64;
                let races: usize = prepared
                    .inputs
                    .iter()
                    .map(|input| input.reference[i].dynamic_count())
                    .sum();
                (
                    lane_ns(lane),
                    t.fast as f64 / hits,
                    races as f64,
                    t.peak_state as f64 / MIB,
                )
            }
            None => (0.0, 0.0, 0.0, 0.0),
        };
        out.push(Metric::new(
            &format!("detect.{lane}.ns_per_event"),
            "ns",
            ns,
        ));
        out.push(Metric::new(
            &format!("detect.{lane}.fast_path_frac"),
            "frac",
            fast,
        ));
        out.push(Metric::new(&format!("detect.{lane}.races"), "count", races));
        out.push(Metric::new(
            &format!("detect.{lane}.peak_state_mb"),
            "MiB",
            peak,
        ));
    }
    let hb = if spec.lanes.contains(&"fto-hb") {
        lane_ns("fto-hb")
    } else {
        0.0
    };
    for lane in &TABLE1_LANES[1..] {
        let ratio = if hb > 0.0 && spec.lanes.contains(lane) {
            lane_ns(lane) / hb
        } else {
            0.0
        };
        out.push(Metric::new(&format!("detect.{lane}.vs_fto-hb"), "x", ratio));
    }
    out.push(Metric::new(
        "bench.tracing_overhead_frac",
        "frac",
        median(&traced.wall_s) / median(&untraced.wall_s) - 1.0,
    ));
    let checks = self_ns("bench.check");
    out.push(Metric::new(
        "bench.accounted_frac",
        "frac",
        1.0 - self_ns("bench.pass") / (pass_ns - checks).max(1.0),
    ));
    result.passes = traced.wall_s.len();
    out
}

/// The traced run of an offline workload: the per-layer metrics.
pub fn run_traced(spec: &Spec, seed: u64, opts: &Options) -> WorkloadResult {
    let mut result = WorkloadResult::new(spec.name, true);
    let (prepared, _) = setup(spec, seed, &mut result);
    let layers = layer_metrics(spec, &prepared, opts.seconds, opts.min_passes, &mut result);
    result.push(Metric::new(
        "workloads.generate_s",
        "s",
        prepared.generate_s,
    ));
    result.push(Metric::new("trace.encode_s", "s", prepared.encode_s));
    for metric in layers {
        result.push(metric);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_groups_hold_a_hundred_samples_beyond_the_percentile() {
        // p50 wants 200 samples a group: three 300-sample passes stay
        // apart, and the median of their medians is the middle pass's.
        let pass = |base: f64| (0..300).map(|i| base + f64::from(i)).collect::<Vec<f64>>();
        let m = latency_metric("l", &[pass(0.0), pass(1000.0), pass(2000.0)], 50.0);
        assert_eq!(m.runs.unwrap().n, 3);
        assert_eq!(m.value, 1149.0);
        assert_eq!(m.samples.unwrap().0, 900);
        // p99 wants 10 000: five 3 000-sample passes form one group, the
        // short remainder folding into it, so the value is the pooled p99.
        let passes: Vec<Vec<f64>> = (0..5)
            .map(|k| (0..3000).map(|i| f64::from(k * 3000 + i)).collect())
            .collect();
        let m = latency_metric("l", &passes, 99.0);
        assert_eq!(m.runs.unwrap().n, 1);
        assert_eq!(m.value, 14_849.0);
    }
}

//! The differential harness every analysis row answers to.
//!
//! SmartTrack's epoch, ownership and CCS optimizations change what an
//! analysis costs, not the races it reports up to the first race (§5.1);
//! the extension rows SyncP (arXiv 2010.16385) and OSR (arXiv 2401.05642)
//! report only real races. This module checks both claims by crossing four
//! tables:
//!
//! * **rows** (`rows`): the 14 Table-1 cells, SyncP, OSR and the two
//!   concurrent lanes;
//! * **trace sources** (`Src`): the paper figures and hand-built shapes
//!   with known answers (`known`), one seeded random family per op
//!   vocabulary with an oracle-sized variant plus lock-free and
//!   nesting-free families (`FAMILIES`), and calibrated profile slices;
//! * **ingest paths** (`Path`): `run_detector` (for a lane, its
//!   deterministic `feed_trace`) is the reference the golden report digest
//!   pins, and every other path must reproduce it bit for bit;
//! * **properties** (`Prop`): the columns of the row × property matrix.
//!
//! `Prop::cell` is that matrix. `SLICES` cuts the cross into named tests:
//! each part runs one property over some sources, the rows of some
//! relations and, for path equivalence, some paths, and fails when a row
//! it runs got no non-vacuous check. A test file compiles this module as
//! `mod harness` (files under `tests/support/` are not test crates) and
//! declares its tests with `harness::slices!`; `tests/differential.rs`
//! prints the matrix and fails on a checked cell, source or path no slice
//! runs. Inputs are plain seeded loops.

// Each test file runs its own slices, so each compiles parts it never calls.
#![allow(dead_code)]

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

use smarttrack::{
    analyze, osr_pair_witness, run_detector, syncp_pair_ideal, AnalysisConfig, BatchJob, Detector,
    Engine, EnginePool, OptLevel, RaceNotice, RaceReport, Relation, Report, Session, StreamHint,
};
use smarttrack_parallel::{
    feed_trace, ConcurrentFtoHb, ConcurrentSmartTrackWdc, OnlineLane, WorldSpec,
};
use smarttrack_trace::binary::{to_stb_bytes, StbAssembler, StbHint, StbReader, StbWriter};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{fmt as text, paper, Event, EventId, Op, ThreadId, Trace};
use smarttrack_vindicate::{
    find_prior_access, validate_reversal_witness, validate_sync_preserving_witness,
    validate_witness, vindicate_pair, DeadlockResult, OracleResult, PredictableRaceOracle,
    VindicationResult,
};
use smarttrack_workloads::profiles;

// ---------------------------------------------------------------------------
// Rows.

/// One analysis row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Row {
    /// A sequential detector: a Table-1 cell, SyncP or OSR.
    Seq(AnalysisConfig),
    /// The concurrent lane of a relation (FTO-HB or SmartTrack-WDC).
    Lane(Relation),
}

pub fn rows() -> Vec<Row> {
    let lanes = [Row::Lane(Relation::Hb), Row::Lane(Relation::Wdc)];
    let seq = AnalysisConfig::extended().into_iter().map(Row::Seq);
    seq.chain(lanes).collect()
}

impl Row {
    pub fn name(self) -> String {
        match self {
            Row::Seq(config) => config.to_string(),
            Row::Lane(_) => format!("{} (parallel)", self.twin().expect("a twin").name()),
        }
    }

    pub fn relation(self) -> Relation {
        match self {
            Row::Seq(config) => config.relation,
            Row::Lane(relation) => relation,
        }
    }

    /// The row whose whole-trace report this one must equal: a
    /// graph-recording cell's plain twin, a lane's sequential twin.
    fn twin(self) -> Option<Row> {
        let level = match self {
            Row::Seq(config) if config.graph => config.level,
            Row::Seq(_) => return None,
            Row::Lane(Relation::Hb) => OptLevel::Fto,
            Row::Lane(_) => OptLevel::SmartTrack,
        };
        Some(Row::Seq(AnalysisConfig::new(self.relation(), level)))
    }

    /// The offline pair check behind a SyncP or OSR report.
    fn pair_witness(self) -> PairWitness {
        match self.relation() {
            Relation::SyncP => syncp_pair_ideal,
            Relation::Osr => osr_pair_witness,
            _ => panic!("{} has no offline pair check", self.name()),
        }
    }
}

/// The concurrent analyses behind the two lanes, sized for one trace.
struct Lanes(ConcurrentFtoHb, ConcurrentSmartTrackWdc);

impl Lanes {
    fn of(trace: &Trace) -> Self {
        let spec = WorldSpec::of_trace(trace);
        let hb = ConcurrentFtoHb::new(spec);
        Lanes(hb, ConcurrentSmartTrackWdc::new(spec))
    }

    /// `row` as a detector: a fresh sequential detector, or an `OnlineLane`
    /// over this trace's concurrent analysis.
    fn detector(&self, row: Row) -> Box<dyn Detector + '_> {
        match row {
            Row::Seq(config) => config.detector().expect("every extended row is available"),
            Row::Lane(Relation::Hb) => Box::new(OnlineLane::new(&self.0)),
            Row::Lane(_) => Box::new(OnlineLane::new(&self.1)),
        }
    }
}

/// `row`'s report through the reference path: `run_detector` for a
/// sequential row, the deterministic `feed_trace` for a lane. Every race
/// names its prior threads in increasing id order.
pub fn reference(row: Row, trace: &Trace) -> Report {
    let report = match row {
        Row::Seq(config) => {
            let mut det = config.detector().expect("every extended row is available");
            run_detector(det.as_mut(), trace);
            det.report().clone()
        }
        Row::Lane(Relation::Hb) => feed_trace(&Lanes::of(trace).0, trace),
        Row::Lane(_) => feed_trace(&Lanes::of(trace).1, trace),
    };
    for race in report.races() {
        let sorted = race.prior_threads.windows(2).all(|w| w[0] < w[1]);
        assert!(
            sorted,
            "{}: prior threads out of order in {race:?}",
            row.name()
        );
    }
    report
}

fn references(rows: &[Row], trace: &Trace) -> Vec<Report> {
    rows.iter().map(|&row| reference(row, trace)).collect()
}

// ---------------------------------------------------------------------------
// Ingest paths.

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Path {
    Analyze,
    Feed,
    FeedBatch,
    FeedTrace,
    FanOut,
    Text,
    StbReader,
    StbSingle,
    StbAssembler,
    Pool,
    Online,
    Rewrite,
}

type Drive<'a> = &'a dyn Fn(&mut Session<'_>);

impl Path {
    pub const ALL: [Path; 12] = [
        Path::Analyze,
        Path::Feed,
        Path::FeedBatch,
        Path::FeedTrace,
        Path::FanOut,
        Path::Text,
        Path::StbReader,
        Path::StbSingle,
        Path::StbAssembler,
        Path::Pool,
        Path::Online,
        Path::Rewrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Path::Analyze => "analyze",
            Path::Feed => "feed",
            Path::FeedBatch => "feed_batch",
            Path::FeedTrace => "feed_trace",
            Path::FanOut => "fan-out session with a race sink",
            Path::Text => "native text",
            Path::StbReader => "StbReader",
            Path::StbSingle => "single-analysis StbReader session (finish_one)",
            Path::StbAssembler => "byte-chunked StbAssembler",
            Path::Pool => "EnginePool",
            Path::Online => "OnlineLane beside every sequential row",
            Path::Rewrite => "nfa→ntf / acqw→acq rewrite",
        }
    }

    /// Why most paths skip the lanes.
    pub const NO_LANES: &'static str =
        "engine sessions and pools take AnalysisConfigs; a lane joins a session as an OnlineLane";

    /// Whether the path carries `row` (see `NO_LANES`).
    pub fn carries(self, row: Row) -> bool {
        matches!(row, Row::Seq(_)) || matches!(self, Path::Text | Path::Online | Path::Rewrite)
    }

    /// Reports of `rows` on every trace of `corpus`.
    fn reports(self, corpus: &[Trace], rows: &[Row]) -> Vec<Vec<Report>> {
        match self {
            Path::Pool => pool_reports(corpus, rows),
            _ => corpus.iter().map(|trace| self.run(trace, rows)).collect(),
        }
    }

    fn run(self, trace: &Trace, rows: &[Row]) -> Vec<Report> {
        let (whole, events) = (StreamHint::default(), trace.len());
        // One single-row session per row.
        let solo = |drive: Drive<'_>| -> Vec<Report> {
            rows.iter()
                .flat_map(|&row| engine_session(&[row], whole, events, drive))
                .collect()
        };
        // Chunk sizes vary with the trace length, so chunk boundaries fall
        // at many offsets across a source.
        let chunk = 1 + trace.len() % 64;
        match self {
            Path::Analyze => configs(rows)
                .map(|config| {
                    let analysis = analyze(trace, config);
                    assert_eq!(analysis.config, config);
                    assert_eq!(analysis.summary.events, events, "{config}: events counted");
                    analysis.report
                })
                .collect(),
            Path::Feed => solo(&|session| {
                for &event in trace.events() {
                    session.feed(event).expect("well-formed");
                }
            }),
            Path::FeedBatch => solo(&|session| session.feed_batch(trace.events()).expect("valid")),
            Path::FeedTrace => solo(&|session| session.feed_trace(trace).expect("well-formed")),
            Path::FanOut => engine_session(rows, whole, events, &|session| {
                session.feed_trace(trace).expect("well-formed")
            }),
            Path::Text => references(rows, &text::parse(&text::render(trace)).expect("parses")),
            Path::StbReader => {
                let bytes = stb_bytes(trace, chunk);
                let reader = || StbReader::new(&bytes[..]).expect("header decodes");
                let hint = StreamHint::of_stb_header(reader().header());
                engine_session(rows, hint, events, &|session| {
                    for event in reader() {
                        session.feed(event.expect("decodes")).expect("well-formed");
                    }
                })
            }
            Path::StbSingle => {
                let bytes = to_stb_bytes(trace);
                let solo = |config: AnalysisConfig| {
                    let mut session = Engine::for_config(config).expect("available").open();
                    for event in StbReader::new(&bytes[..]).expect("header decodes") {
                        session.feed(event.expect("decodes")).expect("well-formed");
                    }
                    let outcome = session.finish_one();
                    assert_eq!(outcome.summary.events, events, "{config}: events counted");
                    outcome.report
                };
                configs(rows).map(solo).collect()
            }
            Path::StbAssembler => {
                let bytes = to_stb_bytes(trace);
                engine_session(rows, whole, events, &|session| {
                    let mut assembler = StbAssembler::new();
                    for piece in bytes.chunks(chunk) {
                        assembler.push(piece).expect("decodes");
                        while let Some(event) = assembler.next_event() {
                            session.feed(event).expect("well-formed");
                        }
                    }
                    assembler.close().expect("terminated");
                })
            }
            Path::Online => {
                let lanes = Lanes::of(trace);
                let mut dets: Vec<_> = rows.iter().map(|&row| lanes.detector(row)).collect();
                let borrowed = dets
                    .iter_mut()
                    .map(|d| Box::new(d.as_mut()) as Box<dyn Detector>);
                let mut session = Session::from_detectors(borrowed.collect());
                session.feed_trace(trace).expect("well-formed");
                session.finish();
                dets.iter().map(|det| det.report().clone()).collect()
            }
            Path::Rewrite => references(rows, &canonical(trace)),
            Path::Pool => unreachable!("the pool runs a whole corpus"),
        }
    }
}

fn configs(rows: &[Row]) -> impl Iterator<Item = AnalysisConfig> + '_ {
    rows.iter().map(|&row| match row {
        Row::Seq(config) => config,
        Row::Lane(_) => panic!("{}", Path::NO_LANES),
    })
}

/// Reports of `rows` from one engine fan-out session `drive` feeds with
/// `events` events: its outcomes keep the lane order and count every event,
/// and its race sink delivers exactly the races of the final reports.
fn engine_session(rows: &[Row], hint: StreamHint, events: usize, drive: Drive<'_>) -> Vec<Report> {
    let engine = Engine::builder().fanout(configs(rows)).hint(hint).build();
    let mut session = engine.expect("available rows").open();
    let delivered: Rc<RefCell<Vec<(String, EventId)>>> = Rc::default();
    let sink = Rc::clone(&delivered);
    session.set_sink(move |notice: &RaceNotice<'_>| {
        let race = (notice.analysis.to_string(), notice.race.event);
        sink.borrow_mut().push(race);
    });
    drive(&mut session);
    let outcomes = session.finish();
    let mut races = Vec::new();
    for (o, config) in outcomes.iter().zip(configs(rows)) {
        assert_eq!(o.config, config, "the fan-out keeps the lane order");
        assert_eq!(o.summary.events, events, "{config}: events counted");
        races.extend(o.report.races().iter().map(|r| (o.name.clone(), r.event)));
    }
    assert_eq!(outcomes.len(), rows.len(), "one outcome per lane");
    let mut delivered = delivered.take();
    races.sort();
    delivered.sort();
    assert_eq!(delivered, races, "the race sink diverged from the reports");
    outcomes.into_iter().map(|o| o.report).collect()
}

/// Reports of `rows` from one `EnginePool` run over the whole corpus.
fn pool_reports(corpus: &[Trace], rows: &[Row]) -> Vec<Vec<Report>> {
    let engine = Engine::builder().fanout(configs(rows)).build();
    let pool = EnginePool::new(engine.expect("available rows")).with_workers(2);
    let jobs = corpus.iter().enumerate();
    let jobs = jobs.map(|(i, trace)| BatchJob::from_trace(i.to_string(), trace.clone()));
    let mut out = vec![Vec::new(); corpus.len()];
    for job in pool.run(jobs.collect()).jobs() {
        let outcomes = &job.result.as_ref().expect("pool job succeeds").outcomes;
        let i: usize = job.label.parse().expect("an index label");
        out[i] = outcomes.iter().map(|o| o.report.clone()).collect();
    }
    out
}

/// `trace` as an STB stream of `chunk`-event chunks. The header carries the
/// trace's hint, except that rwlock ops pin v3 up front: rwlocks share the
/// lock id space, so no hint can declare that need.
fn stb_bytes(trace: &Trace, chunk: usize) -> Vec<u8> {
    let rw = |e: &Event| matches!(e.op, Op::AcqRead(_) | Op::AcqWrite(_) | Op::TryAcqFail(_));
    let mut writer = if trace.events().iter().any(rw) {
        StbWriter::v3(Vec::new())
    } else {
        StbWriter::with_hint(Vec::new(), StbHint::of_trace(trace))
    }
    .chunk_events(chunk);
    for event in trace.events() {
        writer.write(event).expect("Vec sink");
    }
    writer.finish().expect("Vec sink")
}

/// `trace` with each alias op rewritten in place to its canonical op.
fn canonical(trace: &Trace) -> Trace {
    let events = trace.events().iter().map(|&event| {
        let op = match event.op {
            Op::NotifyAll(c) => Op::Notify(c),
            Op::AcqWrite(m) => Op::Acquire(m),
            op => op,
        };
        Event { op, ..event }
    });
    Trace::from_events(events).expect("the canonical op is admitted wherever its alias was")
}

/// The prefix of the first `events` events (a cut mid-section or mid-round
/// is still well-formed).
fn truncated(trace: &Trace, events: usize) -> Trace {
    let prefix = trace.events()[..events].iter().copied();
    Trace::from_events(prefix).expect("a prefix of a valid trace is valid")
}

// ---------------------------------------------------------------------------
// Trace sources.

/// One seeded random family: an op vocabulary at one size.
#[derive(Clone, Copy)]
pub struct Family {
    pub name: &'static str,
    /// Small enough for the exhaustive oracle.
    oracle_sized: bool,
    spec: fn(u64) -> RandomTraceSpec,
}

impl Family {
    const fn new(name: &'static str, oracle_sized: bool, spec: fn(u64) -> RandomTraceSpec) -> Self {
        Family {
            name,
            oracle_sized,
            spec,
        }
    }

    pub fn trace(&self, seed: u64) -> Trace {
        (self.spec)(seed).generate(seed)
    }
}

pub const FAMILIES: [Family; 10] = [
    Family::new("tiny", true, |_| RandomTraceSpec::tiny()),
    Family::new("tiny_flat", true, tiny_flat),
    Family::new("plain", false, plain),
    Family::new("lockfree", false, lockfree),
    Family::new("tiny_sync", true, |_| RandomTraceSpec::tiny_sync()),
    Family::new("sync", false, |seed| with_sync(plain(seed))),
    Family::new("tiny_rw", true, |_| RandomTraceSpec::tiny_rw()),
    Family::new("rw", false, |seed| with_rw(plain(seed))),
    Family::new("tiny_full", true, tiny_full),
    Family::new("full", false, |seed| with_rw(with_sync(plain(seed)))),
];

fn family(name: &str) -> Family {
    let found = FAMILIES.into_iter().find(|f| f.name == name);
    found.unwrap_or_else(|| panic!("no random family is named {name}"))
}

/// SplitMix64, to decorrelate the shape draws of neighbouring seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A full-size lock/volatile/fork-join spec whose shape varies with the
/// seed; one seed in five takes no locks at all.
fn plain(seed: u64) -> RandomTraceSpec {
    let pick = |k: u64, lo: u64, span: u64| lo + mix(seed ^ (k << 56)) % span;
    let locked = pick(6, 0, 5) > 0;
    let volatiles = pick(5, 0, 3) as u32;
    RandomTraceSpec {
        threads: pick(1, 2, 3) as u32,
        events: pick(2, 60, 161) as usize,
        vars: pick(3, 2, 5) as u32,
        locks: pick(4, 1, 3) as u32,
        volatiles,
        volatile_prob: if volatiles > 0 { 0.05 } else { 0.0 },
        acquire_prob: if locked { 0.15 } else { 0.0 },
        release_prob: if locked { 0.2 } else { 0.0 },
        fork_join: pick(7, 0, 2) == 0,
        ..RandomTraceSpec::default()
    }
}

/// Oracle-sized traces whose critical sections never nest, so no
/// predictable deadlock exists.
fn tiny_flat(seed: u64) -> RandomTraceSpec {
    let pick = |k: u64, lo: u64, span: u64| lo + mix(seed ^ (k << 56)) % span;
    RandomTraceSpec {
        threads: pick(1, 2, 2) as u32,
        events: pick(2, 12, 14) as usize,
        max_nesting: 1,
        release_prob: 0.3,
        ..RandomTraceSpec::tiny()
    }
}

/// Full-size fork/join traces with no lock of any kind: every relation
/// orders only fork, join and program order.
fn lockfree(seed: u64) -> RandomTraceSpec {
    let pick = |k: u64, lo: u64, span: u64| lo + mix(seed ^ (k << 56)) % span;
    RandomTraceSpec {
        threads: pick(1, 2, 3) as u32,
        events: pick(2, 40, 160) as usize,
        locks: 0,
        acquire_prob: 0.0,
        release_prob: 0.0,
        fork_join: true,
        ..RandomTraceSpec::default()
    }
}

fn with_sync(spec: RandomTraceSpec) -> RandomTraceSpec {
    RandomTraceSpec {
        condvars: 2,
        condvar_prob: 0.1,
        barriers: 1,
        barrier_prob: 0.05,
        ..spec
    }
}

fn with_rw(spec: RandomTraceSpec) -> RandomTraceSpec {
    RandomTraceSpec {
        rwlocks: 2,
        rw_read_prob: 0.08,
        rw_write_prob: 0.04,
        rw_release_prob: 0.15,
        try_fail_prob: 0.02,
        ..spec
    }
}

/// The tiny preset with every op, one lock leaving mass for the others.
fn tiny_full(seed: u64) -> RandomTraceSpec {
    RandomTraceSpec {
        events: 20,
        locks: 1,
        acquire_prob: 0.15,
        release_prob: 0.25,
        fork_join: seed.is_multiple_of(2),
        ..with_rw(with_sync(RandomTraceSpec::tiny()))
    }
}

/// The extended profiles whose name starts with `prefix`, at `scale`.
fn profile_slices(prefix: &str, scale: f64, seed: u64) -> Vec<(String, Trace)> {
    let chosen = profiles::extended()
        .into_iter()
        .filter(|w| w.name.starts_with(prefix));
    chosen
        .map(|w| (format!("profile/{}", w.name), w.trace(scale, seed)))
        .collect()
}

/// How many seeds of each random family a part draws.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub tiny: u64,
    pub sized: u64,
}

/// A selection of trace sources.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Src {
    /// The known-answer entries whose name starts with this prefix (`""`
    /// selects every entry, `"figure"` the paper figures).
    Known(&'static str),
    /// One random family.
    Family(&'static str),
    /// The profile slices whose workload name starts with this prefix, at
    /// this scale and seed.
    Profile(&'static str, f64, u64),
}

impl Src {
    /// Every single source: each known entry, random family and profile.
    pub fn each() -> Vec<Src> {
        let known = known().into_iter().map(|k| Src::Known(k.name));
        let families = FAMILIES.iter().map(|f| Src::Family(f.name));
        let profiles = profiles::extended()
            .into_iter()
            .map(|w| Src::Profile(w.name, 1e-6, 7));
        known.chain(families).chain(profiles).collect()
    }

    /// Whether this selection takes the single source `one`.
    pub fn selects(self, one: Src) -> bool {
        match (self, one) {
            (Src::Known(prefix), Src::Known(name))
            | (Src::Profile(prefix, ..), Src::Profile(name, ..)) => name.starts_with(prefix),
            (Src::Family(a), Src::Family(b)) => a == b,
            _ => false,
        }
    }

    fn oracle_sized(self) -> bool {
        match self {
            Src::Known(_) => true,
            Src::Family(name) => family(name).oracle_sized,
            Src::Profile(..) => false,
        }
    }

    /// The selected traces, labelled for failure messages.
    fn traces(self, seeds: Seeds) -> Vec<(String, Trace)> {
        match self {
            Src::Known(prefix) => {
                let chosen = known().into_iter().filter(|k| k.name.starts_with(prefix));
                chosen.map(|k| (k.name.to_string(), k.trace)).collect()
            }
            Src::Family(name) => {
                let family = family(name);
                let n = if family.oracle_sized {
                    seeds.tiny
                } else {
                    seeds.sized
                };
                let trace = |seed| (format!("{name}/{seed}"), family.trace(seed));
                (0..n).map(trace).collect()
            }
            Src::Profile(prefix, scale, seed) => profile_slices(prefix, scale, seed),
        }
    }
}

// ---------------------------------------------------------------------------
// Known answers.

/// The rows one expectation covers.
#[derive(Clone, Copy, Debug)]
enum Sel {
    All,
    Is(Relation),
    /// The rows with full vector clocks: the Unopt cells, SyncP and OSR.
    Unopt,
    /// The rows with epochs: FT2, FTO, ST and the lanes.
    Epochs,
}

impl Sel {
    fn covers(self, row: Row) -> bool {
        let unopt = matches!(row, Row::Seq(config) if config.level == OptLevel::Unopt);
        match self {
            Sel::All => true,
            Sel::Is(relation) => row.relation() == relation,
            Sel::Unopt => unopt,
            Sel::Epochs => !unopt,
        }
    }
}

/// What the selected rows report.
#[derive(Clone, Copy, Debug)]
enum Expect {
    Silent,
    /// Exactly one race, at this event.
    Only(u32),
    /// The first race is at this event.
    First(u32),
    /// Some race is at this event.
    Has(u32),
    /// The first race vindicates, with a witness the base validator accepts.
    Vindicated,
    /// The offline witness for `(e1, e2)` is exactly this order.
    Witness(u32, u32, &'static [u32]),
    /// The race at this event names exactly these prior threads.
    Priors(u32, &'static [u32]),
}

struct Known {
    name: &'static str,
    trace: Trace,
    /// Whether the exhaustive oracle finds a predictable race.
    predictable: bool,
    expect: Vec<(Sel, Expect)>,
}

/// A hand-built shape in the native text format, `;`-separated.
fn shape(events: &str) -> Trace {
    text::parse(&events.replace(';', "\n")).expect("a well-formed shape")
}

/// Every paper figure (Figure 1 and 2 races need only dropped critical
/// sections, Figure 3's WDC race is false, Figure 4 is race-free) and the
/// hand-built shapes earlier bugs and op extensions were pinned on.
fn known() -> Vec<Known> {
    use Expect::*;
    use Relation::{Dc, Hb, Osr, SyncP, Wcp, Wdc};
    use Sel::{All, Epochs, Is, Unopt};
    let k = |name, trace, predictable, expect: &[(Sel, Expect)]| Known {
        name,
        trace,
        predictable,
        expect: expect.to_vec(),
    };
    // Answers per relation: HB, WCP, DC, WDC, SyncP, OSR.
    let per = |answers: [Expect; 6]| {
        let relations = [Hb, Wcp, Dc, Wdc, SyncP, Osr].map(Is);
        relations.into_iter().zip(answers).collect::<Vec<_>>()
    };
    let mut figure1 = per([Silent, Only(7), Only(7), Only(7), Only(7), Only(7)]);
    // The paper's Figure 1(b): T1's section, then the racing pair.
    figure1.extend([
        (Is(Wdc), Vindicated),
        (Is(SyncP), Witness(0, 7, &[4, 5, 6, 0, 7])),
    ]);
    let mut figure2 = per([Silent, Silent, Only(11), Only(11), Only(11), Only(11)]);
    figure2.push((Is(Wdc), Vindicated));
    let figure3 = per([Silent, Silent, Silent, Only(21), Silent, Silent]);
    // t1's whole section runs before t0's: a sync reversal.
    let mut reversal = per([Silent, Silent, Silent, Silent, Silent, Only(7)]);
    reversal.push((Is(Osr), Witness(2, 7, &[4, 5, 6, 0, 1, 2, 7])));
    let silent: &[(Sel, Expect)] = &[(All, Silent)];
    let figures = paper::all_figures()
        .into_iter()
        .map(|(name, trace)| match name {
            "figure1" => k(name, trace, true, &figure1),
            "figure2" => k(name, trace, true, &figure2),
            "figure3" => k(name, trace, false, &figure3),
            _ => k(name, trace, false, silent),
        });
    let shapes = [
        // A producer-consumer handoff ordered only by the condvar.
        k(
            "condvar-handoff",
            shape("T0 wr x0; T0 ntf c0; T1 acq m0; T1 wait c0 m0; T1 rd x0; T1 rel m0"),
            false,
            silent,
        ),
        // A write after the notify races with the woken consumer's read.
        k(
            "post-notify-write",
            shape("T0 ntf c0; T0 wr x0; T1 acq m0; T1 wait c0 m0; T1 rd x0; T1 rel m0"),
            true,
            &[(All, Only(4))],
        ),
        // Barrier rounds order accesses across phases, not within one.
        k(
            "barrier-phases",
            shape(
                "T0 wr x0; T1 wr x1; T0 bent b0; T1 bent b0; T0 bext b0; T1 bext b0; \
                 T0 rd x1; T1 rd x0; T0 wr x2; T1 wr x2",
            ),
            true,
            &[(All, Only(9))],
        ),
        // A race while t1 is still inside an open barrier round.
        k(
            "open-barrier-round",
            shape("T0 bent b0; T1 bent b0; T2 wr x0; T0 bext b0; T0 rd x0"),
            true,
            &[(All, Only(4))],
        ),
        // Read sections never exclude each other.
        k(
            "overlapping-read-sections",
            shape("T0 fork T1; T0 acqr m0; T1 acqr m0; T0 wr x0; T1 rd x0; T0 rel m0; T1 rel m0"),
            true,
            &[(All, Only(4))],
        ),
        // Thread-disjoint consecutive rounds: an unconditional enter →
        // previous-exits closure edge would order them and drop the race.
        k(
            "disjoint-barrier-rounds",
            shape(
                "T0 wr x0; T0 bent b0; T1 bent b0; T0 bext b0; T1 bext b0; \
                 T2 bent b0; T3 bent b0; T2 bext b0; T3 bext b0; T2 rd x0",
            ),
            true,
            &[(All, Only(9))],
        ),
        // Round 0 meets t0/t1 and round 1 meets t1/t2: round 0 is partly in
        // the witness through t1, so its exits drain before round 1 enters.
        k(
            "partially-kept-round",
            shape(
                "T0 bent b0; T1 bent b0; T1 bext b0; T0 bext b0; T0 wr x0; \
                 T1 bent b0; T2 bent b0; T1 bext b0; T2 bext b0; T2 wr x0",
            ),
            true,
            &[(All, Only(9))],
        ),
        // Rounds 0 and 2 meet in t3 and round 1 is dropped whole: round 0
        // still drains before round 2 gathers.
        k(
            "skipped-barrier-round",
            shape(
                "T0 bent b0; T1 bent b0; T3 bent b0; T3 bext b0; T0 bext b0; \
                 T1 bext b0; T1 bent b0; T0 bent b0; T0 bext b0; T1 bext b0; \
                 T3 bent b0; T2 rd x2; T3 wr x2",
            ),
            true,
            &[
                (All, Only(12)),
                (Is(SyncP), Witness(11, 12, &[0, 1, 2, 3, 4, 5, 10, 11, 12])),
            ],
        ),
        // t2's write is lock-ordered after t1's and t0's races with both:
        // an epoch keeps only the later write, so it names t2 alone (§5.1
        // counts the race, not its prior threads).
        k(
            "hidden-prior-thread",
            shape("T1 acq m0; T1 wr x0; T1 rel m0; T2 acq m0; T2 wr x0; T2 rel m0; T0 wr x0"),
            true,
            &[
                (All, Only(6)),
                (Unopt, Priors(6, &[1, 2])),
                (Epochs, Priors(6, &[2])),
            ],
        ),
        // t0's second wr(x0) takes the epoch fast path after a wr(x1) t1
        // reads: a fast path that does not advance the candidate checks
        // t1's wr(x0) against t0's first, rf-ordered write only.
        k(
            "fast-path-candidate",
            shape("T0 wr x0; T0 wr x1; T0 wr x0; T1 rd x1; T1 wr x0"),
            true,
            &[(All, First(3)), (All, Has(4))],
        ),
        // Only running t1's section first makes the x0 writes adjacent.
        k(
            "reversal",
            shape("T0 acq m0; T0 wr x1; T0 wr x0; T0 rel m0; T1 acq m0; T1 wr x1; T1 rel m0; T1 wr x0"),
            true,
            &reversal,
        ),
    ];
    figures.chain(shapes).collect()
}

// ---------------------------------------------------------------------------
// Properties.

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Prop {
    Paths,
    Levels,
    Inclusion,
    Witness,
    Oracle,
    Streaming,
    Known,
}

/// How one property treats one row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cell {
    Checked,
    Na(&'static str),
}

impl Prop {
    pub const ALL: [Prop; 7] = [
        Prop::Paths,
        Prop::Levels,
        Prop::Inclusion,
        Prop::Witness,
        Prop::Oracle,
        Prop::Streaming,
        Prop::Known,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Prop::Paths => "path equivalence",
            Prop::Levels => "level agreement",
            Prop::Inclusion => "inclusion chains",
            Prop::Witness => "witness validity",
            Prop::Oracle => "oracle soundness",
            Prop::Streaming => "streaming ≡ offline",
            Prop::Known => "known answers",
        }
    }

    /// The row × property matrix; `None` is an empty cell.
    pub fn cell(self, row: Row) -> Option<Cell> {
        let closure_row = matches!(row.relation(), Relation::SyncP | Relation::Osr);
        Some(match self {
            Prop::Levels if closure_row => {
                Cell::Na("a single optimization level; SyncP ⊆ OSR ties the two rows instead")
            }
            Prop::Streaming if !closure_row => Cell::Na(
                "no closure check behind an epoch cache; path equivalence and level agreement \
                 pin its streaming",
            ),
            _ => Cell::Checked,
        })
    }

    pub fn rows(self) -> Vec<Row> {
        let checked = |row: &Row| self.cell(*row) == Some(Cell::Checked);
        rows().into_iter().filter(checked).collect()
    }

    /// Whether the property reads `src`: the oracle only oracle-sized
    /// sources, known answers their own table and the calibrated profiles,
    /// witness validity only the sync-heavy profiles (vindicating the
    /// others' first races takes seconds per trace in a debug build), and
    /// streaming ≡ offline (quadratic in the trace) no profile slice.
    pub fn reads(self, src: Src) -> bool {
        match (self, src) {
            (Prop::Oracle, _) => src.oracle_sized(),
            (Prop::Witness, Src::Profile(name, ..)) => SYNC_HEAVY.contains(&name),
            (Prop::Known, Src::Family(_)) | (Prop::Streaming, Src::Profile(..)) => false,
            _ => true,
        }
    }

    /// Seeds per random family in a debug run.
    pub fn budget(self) -> Seeds {
        let (tiny, sized) = match self {
            Prop::Paths => (30, 4),
            Prop::Levels => (150, 12),
            Prop::Inclusion => (300, 20),
            Prop::Witness => (150, 8),
            Prop::Oracle => (120, 0),
            Prop::Streaming => (2_000, 20),
            Prop::Known => (0, 0),
        };
        Seeds { tiny, sized }
    }

    /// A part running this property over `sources`, every row it checks,
    /// every path and its debug budget.
    pub const fn on(self, sources: &'static [Src]) -> Part {
        Part {
            prop: self,
            sources,
            relations: &RELATIONS,
            paths: &Path::ALL,
            seeds: None,
            osr_only: false,
        }
    }

    fn check(self, traces: &[(String, Trace)], rows: &[Row], paths: &[Path], tally: &mut Tally) {
        let checker = match self {
            Prop::Paths => return check_paths(traces, rows, paths, tally),
            Prop::Levels => check_levels,
            Prop::Inclusion => check_inclusion,
            Prop::Witness => check_witnesses,
            Prop::Oracle => check_oracle,
            Prop::Streaming => check_streaming,
            Prop::Known => check_known,
        };
        for (label, trace) in traces {
            checker(label, trace, rows, tally);
        }
    }
}

/// The condvar/barrier-heavy and rwlock-heavy profiles.
const SYNC_HEAVY: [&str; 2] = ["condsync", "rwmix"];

/// Every relation: a part runs the rows of the relations it names.
const RELATIONS: [Relation; 6] = [
    Relation::Hb,
    Relation::Wcp,
    Relation::Dc,
    Relation::Wdc,
    Relation::SyncP,
    Relation::Osr,
];

/// One part of a slice: a property over some sources, rows and paths.
#[derive(Clone, Copy, Debug)]
pub struct Part {
    pub prop: Prop,
    pub sources: &'static [Src],
    /// The property's rows of these relations run.
    pub relations: &'static [Relation],
    /// The paths driven (path equivalence only).
    pub paths: &'static [Path],
    /// Seeds per random family; `None` takes the property's budget.
    pub seeds: Option<Seeds>,
    /// Whether an inclusion part must see a race OSR reports on a random
    /// trace at an event SyncP finds clean.
    pub osr_only: bool,
}

impl Part {
    pub const fn only(self, relations: &'static [Relation]) -> Self {
        Part { relations, ..self }
    }

    pub const fn via(self, paths: &'static [Path]) -> Self {
        Part { paths, ..self }
    }

    pub const fn seeds(self, tiny: u64, sized: u64) -> Self {
        let seeds = Some(Seeds { tiny, sized });
        Part { seeds, ..self }
    }

    pub const fn finds_osr_only(self) -> Self {
        Part {
            osr_only: true,
            ..self
        }
    }

    /// Whether the part checks `row`: the property checks it, the part
    /// names its relation and, for path equivalence, a path carries it.
    pub fn runs(&self, row: Row) -> bool {
        let carried = self.prop != Prop::Paths || self.paths.iter().any(|p| p.carries(row));
        let named = self.relations.contains(&row.relation());
        named && carried && self.prop.cell(row) == Some(Cell::Checked)
    }

    /// Runs the part, then fails on a row it runs that no input exercised.
    /// A failing source does not stop the others: the panic names each
    /// failed source at its first failure.
    pub fn run(&self) {
        let seeds = self.seeds.unwrap_or(self.prop.budget());
        let rows: Vec<Row> = rows().into_iter().filter(|&row| self.runs(row)).collect();
        let mut tally = Tally::default();
        let sources = self.sources.iter().filter(|&&src| self.prop.reads(src));
        let failed: Vec<String> = sources
            .filter_map(|&src| {
                let traces = src.traces(seeds);
                assert!(!traces.is_empty(), "{src:?} selects no trace");
                let message = failure(|| self.prop.check(&traces, &rows, self.paths, &mut tally));
                message.map(|m| format!("{src:?}: {m}"))
            })
            .collect();
        let what = format!("{} failed on", self.prop.name());
        assert!(failed.is_empty(), "{what}:\n{}", failed.join("\n"));
        tally.assert_covers(self.prop, &rows);
        let inert = "no random trace races under OSR alone: the reversal machinery is inert";
        assert!(!self.osr_only || tally.osr_only > 0, "{inert}");
    }
}

/// Runs every part listed under `test` in `SLICES`; a failing part does
/// not stop the others.
pub fn run_slice(test: &str) {
    let parts = SLICES.iter().filter(|(name, _)| *name == test);
    let parts: Vec<&Part> = parts.map(|(_, part)| part).collect();
    assert!(!parts.is_empty(), "no slice is listed for {test}");
    let failed: Vec<String> = parts.iter().filter_map(|p| failure(|| p.run())).collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// Declares one `#[test]` per name, each running the parts `SLICES` lists
/// under `file::name` (`file::module::name` inside a module).
macro_rules! slices {
    ($($test:ident),* $(,)?) => {$(
        #[test]
        fn $test() {
            $crate::harness::run_slice(concat!(module_path!(), "::", stringify!($test)));
        }
    )*};
}
pub(crate) use slices;

thread_local! {
    /// How many `failure` calls are catching on this thread. While it is
    /// non-zero the panic hook stays quiet: the catching caller reports the
    /// message, once, with its cell.
    pub static CATCHING: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The panic message of `check`, if it panics. The panic does not print:
/// the caller names it in its own failure.
pub fn failure(check: impl FnOnce()) -> Option<String> {
    static QUIET_HOOK: Once = Once::new();
    QUIET_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CATCHING.get() == 0 {
                previous(info);
            }
        }));
    });
    let depth = CATCHING.replace(CATCHING.get() + 1);
    let result = panic::catch_unwind(AssertUnwindSafe(check));
    CATCHING.set(depth);
    let payload = result.err()?;
    let message = payload.downcast_ref::<String>().cloned();
    Some(
        message
            .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap_or_default(),
    )
}

/// Per row, how many non-vacuous checks ran.
#[derive(Default)]
struct Tally {
    hits: HashMap<String, usize>,
    /// Races OSR reports on random traces at events SyncP finds clean.
    osr_only: usize,
}

impl Tally {
    fn hit(&mut self, row: Row) {
        *self.hits.entry(row.name()).or_default() += 1;
    }

    fn assert_covers(&self, prop: Prop, rows: &[Row]) {
        for row in rows {
            let what = format!("{}: no input exercised {}", prop.name(), row.name());
            assert!(self.hits.get(&row.name()).is_some_and(|&n| n > 0), "{what}");
        }
    }
}

/// Path equivalence: every path reproduces every reference report.
fn check_paths(traces: &[(String, Trace)], rows: &[Row], paths: &[Path], tally: &mut Tally) {
    let corpus: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
    let expected: Vec<Vec<Report>> = corpus.iter().map(|t| references(rows, t)).collect();
    for report in expected.iter().flatten() {
        let counts = report.static_count() <= report.dynamic_count();
        assert!(counts, "more static than dynamic races: {report}");
    }
    for &path in paths {
        let carried: Vec<usize> = (0..rows.len()).filter(|&i| path.carries(rows[i])).collect();
        let carried_rows: Vec<Row> = carried.iter().map(|&i| rows[i]).collect();
        for (t, reports) in path.reports(&corpus, &carried_rows).iter().enumerate() {
            assert_eq!(reports.len(), carried.len());
            for (&i, report) in carried.iter().zip(reports) {
                let (label, row, reference) = (&traces[t].0, rows[i].name(), &expected[t][i]);
                let what = format!("{label}: {row} through {}", path.name());
                assert!(report == reference, "{what}:\n{report}\nvs\n{reference}");
                tally.hit(rows[i]);
            }
        }
    }
}

/// Level agreement: the rows of one relation agree on the first race (and on
/// race freedom, bit for bit). On the trace cut just after it, the
/// relation's Unopt row (Table 1 lists it first) reports one race, and
/// every other row reports one race at the same access (event, location,
/// thread, variable and kind) naming a non-empty subset of its prior
/// threads: §5.1 counts the race, and an epoch keeps only the latest access
/// (see "Prior threads of a race" in `docs/ARCHITECTURE.md`). Twins agree on
/// the whole trace bit for bit.
fn check_levels(label: &str, trace: &Trace, rows: &[Row], tally: &mut Tally) {
    let reports = references(rows, trace);
    for relation in Relation::ALL {
        let of = |i: &usize| rows[*i].relation() == relation;
        let group: Vec<usize> = (0..rows.len()).filter(of).collect();
        if group.is_empty() {
            continue;
        }
        let (base_row, base) = (rows[group[0]].name(), &reports[group[0]]);
        for &i in &group {
            let what = format!("{label}: {} vs {base_row}", rows[i].name());
            let first = reports[i].first_race_event();
            assert_eq!(first, base.first_race_event(), "{what}");
            assert!(!base.is_empty() || reports[i] == *base, "{what}");
            tally.hit(rows[i]);
        }
        let Some(first) = base.first_race_event() else {
            continue;
        };
        let cut = truncated(trace, first.index() + 1);
        let cut_base = reference(rows[group[0]], &cut);
        assert_eq!(
            cut_base.dynamic_count(),
            1,
            "{label}: the cut holds {cut_base}"
        );
        let want = &cut_base.races()[0];
        let access = |r: &RaceReport| (r.event, r.loc, r.tid, r.var, r.kind);
        let named = |u: &ThreadId| want.prior_threads.contains(u);
        let agrees = |r: &RaceReport| {
            let subset = !r.prior_threads.is_empty() && r.prior_threads.iter().all(named);
            access(r) == access(want) && subset
        };
        for &i in &group[1..] {
            let report = reference(rows[i], &cut);
            let what = format!(
                "{label}: cut at the first race, {} vs {base_row}",
                rows[i].name()
            );
            let got = report.races();
            assert!(
                got.len() == 1 && agrees(&got[0]),
                "{what}: {got:?}\nvs {want:?}"
            );
        }
    }
    for (i, row) in rows.iter().enumerate() {
        let Some(twin) = row.twin() else { continue };
        let j = rows
            .iter()
            .position(|&r| r == twin)
            .expect("twins are rows");
        let what = format!("{label}: {} vs its twin", row.name());
        assert_eq!(reports[i], reports[j], "{what}");
    }
}

/// The inclusion chains: HB ⊆ WCP ⊆ DC ⊆ WDC and HB ⊆ SyncP at the first
/// race, every SyncP race kept by OSR, and one relation on lock-free traces.
fn check_inclusion(label: &str, trace: &Trace, rows: &[Row], tally: &mut Tally) {
    let reports = references(rows, trace);
    let firsts = |relation: Relation| {
        let of = move |(row, _): &(&Row, &Report)| row.relation() == relation;
        let firsts = rows.iter().zip(&reports).filter(of);
        firsts.map(|(&row, report)| (row, report.first_race_event()))
    };
    use Relation::{Dc, Hb, SyncP, Wcp, Wdc};
    for (weak, strong) in [(Hb, Wcp), (Wcp, Dc), (Dc, Wdc), (Hb, SyncP)] {
        for (a, first_a) in firsts(weak) {
            let Some(h) = first_a else { continue };
            for (b, first_b) in firsts(strong) {
                let what = format!("{label}: {} races at {h}, {}", a.name(), b.name());
                assert!(first_b.is_some_and(|s| s <= h), "{what} at {first_b:?}");
                tally.hit(a);
                tally.hit(b);
            }
        }
    }
    let row_of = |relation| {
        let i = rows.iter().position(|r| r.relation() == relation)?;
        Some((rows[i], &reports[i]))
    };
    if let (Some((syncp_row, syncp)), Some((osr_row, osr))) = (row_of(SyncP), row_of(Relation::Osr))
    {
        for race in syncp.races() {
            let at = |r: &&RaceReport| r.event == race.event && r.var == race.var;
            let kept = osr.races().iter().find(at).map(|k| &k.prior_threads);
            let all = kept.is_some_and(|k| race.prior_threads.iter().all(|u| k.contains(u)));
            assert!(all, "{label}: OSR lost the SyncP race {race:?}: {kept:?}");
            tally.hit(syncp_row);
            tally.hit(osr_row);
        }
        let osr_first = osr.first_race_event();
        let before = |s| osr_first.is_some_and(|o| o <= s);
        let first_ok = syncp.first_race_event().is_none_or(before);
        assert!(first_ok, "{label}: OSR's first race comes after SyncP's");
        let family = label.split('/').next();
        if FAMILIES.iter().any(|f| Some(f.name) == family) {
            let beyond = |r: &&RaceReport| !syncp.races().iter().any(|s| s.event == r.event);
            tally.osr_only += osr.races().iter().filter(beyond).count();
        }
    }
    let locks = |e: &Event| {
        matches!(
            e.op,
            Op::Acquire(_) | Op::AcqRead(_) | Op::AcqWrite(_) | Op::TryAcqFail(_)
        )
    };
    let lock_free = !trace.events().iter().any(locks);
    if let Some((_, hb)) = firsts(Hb).next().filter(|_| lock_free) {
        for (row, first) in Relation::ALL.into_iter().flat_map(firsts) {
            let what = format!("{label}: {} without locks", row.name());
            assert_eq!(first, hb, "{what}");
        }
    }
}

type PairWitness = fn(&Trace, EventId, EventId) -> Option<Vec<EventId>>;

/// The latest write and the latest read by `tid` before `e2` that conflict
/// with it (a read only when `e2` writes).
fn latest_conflicting(trace: &Trace, e2: EventId, tid: ThreadId) -> Vec<EventId> {
    let later = trace.event(e2);
    let (mut write, mut read) = (None, None);
    for (id, e) in trace.iter().take(e2.index()) {
        if e.tid == tid && e.conflicts_with(later) {
            let latest = if e.op.is_write() {
                &mut write
            } else {
                &mut read
            };
            *latest = Some(id);
        }
    }
    [write, read].into_iter().flatten().collect()
}

/// The racing pair behind every race of a SyncP or OSR report, with its
/// witness. Per prior thread the detector checks that thread's latest
/// conflicting write and read (the latest access alone can be ordered while
/// the older one of the other kind races), so the recovery keeps whichever
/// of the two the row's offline pair check confirms.
fn racing_pairs(
    label: &str,
    trace: &Trace,
    row: Row,
    report: &Report,
) -> Vec<(Pair, Vec<EventId>)> {
    let witness = row.pair_witness();
    let mut pairs = Vec::new();
    for race in report.races() {
        let e2 = race.event;
        for &prior in &race.prior_threads {
            let found = latest_conflicting(trace, e2, prior)
                .into_iter()
                .find_map(|e1| witness(trace, e1, e2).map(|order| ((e1, e2), order)));
            let what = format!("{label}: a {} race by {prior} at {e2}", row.name());
            pairs.push(found.unwrap_or_else(|| panic!("{what} does not reproduce")));
        }
    }
    pairs
}

type Pair = (EventId, EventId);

/// The pair behind a report's first race, against its first prior thread.
fn first_pair(trace: &Trace, report: &Report) -> Option<Pair> {
    let race = report.races().first()?;
    let prior = find_prior_access(trace, race.event, race.var, *race.prior_threads.first()?)?;
    Some((prior, race.event))
}

/// Witness validity: SyncP witnesses pass the base and the strict
/// validator, OSR witnesses the reversal validator, and every vindicated
/// first race of a clock row the base validator.
fn check_witnesses(label: &str, trace: &Trace, rows: &[Row], tally: &mut Tally) {
    let mut vindicated: HashMap<Pair, bool> = HashMap::new();
    for &row in rows {
        let report = reference(row, trace);
        let valid = |result: Result<(), _>, pair: Pair| {
            let name = row.name();
            result.unwrap_or_else(|err| panic!("{label}: {name} witness for {pair:?}: {err}"))
        };
        match row.relation() {
            relation @ (Relation::SyncP | Relation::Osr) => {
                for (pair, order) in racing_pairs(label, trace, row, &report) {
                    if relation == Relation::SyncP {
                        valid(validate_witness(trace, &order, pair), pair);
                        valid(validate_sync_preserving_witness(trace, &order, pair), pair);
                    } else {
                        valid(validate_reversal_witness(trace, &order, pair), pair);
                    }
                    tally.hit(row);
                }
            }
            _ => {
                let Some(pair) = first_pair(trace, &report) else {
                    continue;
                };
                let checked = *vindicated.entry(pair).or_insert_with(|| {
                    let VindicationResult::Race(w) = vindicate_pair(trace, pair.0, pair.1) else {
                        return false;
                    };
                    valid(validate_witness(trace, &w.order, pair), pair);
                    w.to_trace(trace).len() == w.order.len()
                });
                if checked {
                    tally.hit(row);
                }
            }
        }
    }
}

/// Exhaustive-oracle soundness: no SyncP or OSR race and no HB first race is
/// refuted, a refuted WCP first race comes with a predictable deadlock (so
/// none is refuted on a trace whose critical sections never nest), and a
/// refuted DC or WDC first race never vindicates.
fn check_oracle(label: &str, trace: &Trace, rows: &[Row], tally: &mut Tally) {
    let oracle = PredictableRaceOracle::new(trace).with_budget(400_000);
    let mut verdicts: HashMap<Pair, bool> = HashMap::new();
    let mut refuted = |(e1, e2): Pair| {
        let verdict = || oracle.is_predictable_race(e1, e2) == OracleResult::NoRace;
        *verdicts.entry((e1, e2)).or_insert_with(verdict)
    };
    for &row in rows {
        let report = reference(row, trace);
        let name = row.name();
        if matches!(row.relation(), Relation::SyncP | Relation::Osr) {
            for (pair, _) in racing_pairs(label, trace, row, &report) {
                assert!(!refuted(pair), "{label}: {name} {pair:?} refuted");
                tally.hit(row);
            }
            continue;
        }
        let Some(pair) = first_pair(trace, &report) else {
            continue;
        };
        if refuted(pair) {
            // A WCP race may stand for a predictable deadlock instead; a
            // false DC or WDC race must not vindicate.
            let excused = match row.relation() {
                Relation::Wcp => {
                    nests_locks(trace)
                        && oracle.any_predictable_deadlock() != DeadlockResult::NoDeadlock
                }
                Relation::Hb => false,
                _ => vindicate_pair(trace, pair.0, pair.1) == VindicationResult::Unknown,
            };
            assert!(excused, "{label}: {name}'s first race {pair:?} refuted");
        }
        tally.hit(row);
    }
}

/// Whether some thread acquires a lock while it holds another: without
/// that, no predictable deadlock exists.
fn nests_locks(trace: &Trace) -> bool {
    let mut held = vec![0usize; trace.num_threads()];
    trace.events().iter().any(|e| {
        let held = &mut held[e.tid.index()];
        match e.op {
            Op::Acquire(_) | Op::AcqRead(_) | Op::AcqWrite(_) => {
                *held += 1;
                *held > 1
            }
            Op::Release(_) => {
                *held -= 1;
                false
            }
            _ => false,
        }
    })
}

/// Streaming ≡ offline: at every access the epoch cache cannot skip (its
/// thread made no same-kind access to the variable since its last
/// non-access event), the report names exactly the prior threads whose
/// latest conflicting write or read the offline pair check confirms.
fn check_streaming(label: &str, trace: &Trace, rows: &[Row], tally: &mut Tally) {
    let threads = (0..trace.num_threads() as u32).map(ThreadId::new);
    for &row in rows {
        let witness = row.pair_witness();
        let report = reference(row, trace);
        let named = |r: &RaceReport| (r.event, r.prior_threads.iter().copied().collect());
        let reported: HashMap<EventId, BTreeSet<ThreadId>> =
            report.races().iter().map(named).collect();
        // Per thread, the (variable, is-write) accesses since its last
        // non-access event: the ones a cache hit may skip.
        let mut skippable = vec![BTreeSet::new(); trace.num_threads()];
        for (id, e) in trace.iter() {
            let cached = &mut skippable[e.tid.index()];
            let Some(var) = e.op.access_var() else {
                cached.clear();
                continue;
            };
            if !cached.insert((var, e.op.is_write())) {
                continue;
            }
            let confirmed = |&u: &ThreadId| {
                let mut pairs = latest_conflicting(trace, id, u).into_iter();
                u != e.tid && pairs.any(|e1| witness(trace, e1, id).is_some())
            };
            let expected: BTreeSet<ThreadId> = threads.clone().filter(confirmed).collect();
            let got = reported.get(&id).cloned().unwrap_or_default();
            let what = format!("{label}: {} at {id} against the offline check", row.name());
            assert_eq!(got, expected, "{what}");
            tally.hit(row);
        }
    }
}

/// Known answers: a table entry's expectations and oracle verdict, or a
/// profile slice's calibrated distinct race counts.
fn check_known(label: &str, trace: &Trace, rows: &[Row], tally: &mut Tally) {
    let reports = references(rows, trace);
    if let Some(name) = label.strip_prefix("profile/") {
        let w = profiles::extended().into_iter().find(|w| w.name == name);
        let (hb, wcp, dc, wdc) = w.expect("a profile").races.expected_static();
        // Every injected predictable race site is sync-preserving, so
        // SyncP's and OSR's distinct races match the DC column; the Table-1
        // rows match their own columns.
        for (&row, report) in rows.iter().zip(&reports) {
            let expected = match row.relation() {
                Relation::Hb => hb,
                Relation::Wcp => wcp,
                Relation::Wdc => wdc,
                Relation::Dc | Relation::SyncP | Relation::Osr => dc,
            };
            let what = format!("{label}: {}'s distinct races", row.name());
            assert_eq!(report.static_count(), expected as usize, "{what}");
            tally.hit(row);
        }
        return;
    }
    let known = known().into_iter().find(|k| k.name == label);
    let known = known.expect("a known-answer entry");
    let oracle = PredictableRaceOracle::new(trace).any_predictable_race();
    let predictable = matches!(oracle, OracleResult::Race(..));
    assert_eq!(predictable, known.predictable, "{label}: oracle verdict");
    for &(sel, expect) in &known.expect {
        for (&row, report) in rows.iter().zip(&reports) {
            if sel.covers(row) {
                check_answer(label, trace, row, report, expect);
                tally.hit(row);
            }
        }
    }
}

fn check_answer(label: &str, trace: &Trace, row: Row, report: &Report, expect: Expect) {
    let name = row.name();
    let at = |e: u32| Some(EventId::new(e));
    match expect {
        Expect::Silent => assert!(report.is_empty(), "{label}: {name} reports {report}"),
        Expect::Only(e) => {
            let only = report.dynamic_count() == 1 && report.first_race_event() == at(e);
            assert!(only, "{label}: {name} must report only e{e}: {report}");
        }
        Expect::First(e) => assert_eq!(report.first_race_event(), at(e), "{label}: {name}"),
        Expect::Has(e) => {
            let has = report.races().iter().any(|r| Some(r.event) == at(e));
            assert!(has, "{label}: {name} must race at e{e}: {report}");
        }
        Expect::Vindicated => {
            let pair = first_pair(trace, report).expect("a first race");
            let VindicationResult::Race(w) = vindicate_pair(trace, pair.0, pair.1) else {
                panic!("{label}: {name}'s {pair:?} did not vindicate")
            };
            let valid = validate_witness(trace, &w.order, pair);
            assert!(valid.is_ok(), "{label}: {name}: {valid:?}");
        }
        Expect::Witness(e1, e2, order) => {
            let pair = (EventId::new(e1), EventId::new(e2));
            let got = (row.pair_witness())(trace, pair.0, pair.1).expect("a witness");
            let raw: Vec<u32> = got.iter().map(|e| e.raw()).collect();
            assert_eq!(raw, order, "{label}: {name}");
            // The table pins SyncP witnesses, which the strict validator
            // accepts, and OSR witnesses that reverse sections, which it
            // rejects.
            let strict = validate_sync_preserving_witness(trace, &got, pair);
            let what = format!("{label}: {name}: {strict:?}");
            assert_eq!(strict.is_ok(), row.relation() == Relation::SyncP, "{what}");
        }
        Expect::Priors(e, threads) => {
            let race = report.races().iter().find(|r| Some(r.event) == at(e));
            let raw = |r: &RaceReport| r.prior_threads.iter().map(|t| t.raw()).collect();
            let named: Option<Vec<u32>> = race.map(raw);
            assert_eq!(named.as_deref(), Some(threads), "{label}: {name} at e{e}");
        }
    }
}

// ---------------------------------------------------------------------------
// Slices.

const KNOWN: &[Src] = &[Src::Known("")];
const FIGURES: &[Src] = &[Src::Known("figure")];
const PROFILES: &[Src] = &[Src::Profile("", 1e-6, 7)];
const TINY: &[Src] = &[Src::Family("tiny")];
const PLAIN: &[Src] = &[
    Src::Family("tiny"),
    Src::Family("tiny_flat"),
    Src::Family("plain"),
    Src::Family("lockfree"),
];
const SYNC: &[Src] = &[Src::Family("tiny_sync"), Src::Family("sync")];
const RW: &[Src] = &[Src::Family("tiny_rw"), Src::Family("rw")];
const FULL: &[Src] = &[Src::Family("tiny_full"), Src::Family("full")];
pub const RANDOM: &[Src] = &[
    Src::Family("tiny"),
    Src::Family("tiny_flat"),
    Src::Family("plain"),
    Src::Family("lockfree"),
    Src::Family("tiny_sync"),
    Src::Family("sync"),
    Src::Family("tiny_rw"),
    Src::Family("rw"),
    Src::Family("tiny_full"),
    Src::Family("full"),
];
const EVERY: &[Src] = &[
    Src::Known(""),
    Src::Family("tiny"),
    Src::Family("tiny_flat"),
    Src::Family("plain"),
    Src::Family("lockfree"),
    Src::Family("tiny_sync"),
    Src::Family("sync"),
    Src::Family("tiny_rw"),
    Src::Family("rw"),
    Src::Family("tiny_full"),
    Src::Family("full"),
    Src::Profile("", 1e-6, 7),
];

const FEEDS: &[Path] = &[Path::Feed, Path::FeedBatch, Path::FeedTrace];
const STREAMED: &[Path] = &[Path::Text, Path::StbReader, Path::StbAssembler];
const CLOSURE: &[Relation] = &[Relation::SyncP, Relation::Osr];

/// Every slice of the cross, by the test that runs it (`file::name`, the
/// test's module path): a test runs each part listed under its name.
/// `tests/differential.rs` fails on a checked (property, row, source,
/// path) combination no part runs.
#[rustfmt::skip]
pub const SLICES: &[(&str, Part)] = &[
    // The engine's own ingestion styles, and the fan-out session's race sink.
    ("engine_equivalence::all_paper_figures_agree_across_ingestion_styles", Prop::Paths.on(KNOWN).via(FEEDS)),
    ("engine_equivalence::calibrated_workload_traces_agree_across_ingestion_styles", Prop::Paths.on(PROFILES).via(FEEDS)),
    ("engine_equivalence::randomized_traces_agree_across_ingestion_styles", Prop::Paths.on(RANDOM).via(FEEDS)),
    ("engine_equivalence::sink_delivery_matches_final_report", Prop::Paths.on(EVERY).via(&[Path::FanOut])),
    // Streamed ingest: native text, STB through the reader and in byte chunks.
    ("stb_streaming::paper_figures_report_identically_streamed_and_whole", Prop::Paths.on(KNOWN).via(STREAMED)),
    ("stb_streaming::calibrated_workloads_report_identically_streamed_and_whole", Prop::Paths.on(&[Src::Profile("xalan", 2e-6, 7), Src::Profile("avrora", 2e-6, 7)]).via(STREAMED)),
    ("stb_streaming::calibrated_workloads_report_identically_streamed_and_whole", Prop::Paths.on(PROFILES).via(STREAMED)),
    ("stb_streaming::randomized_traces_report_identically_streamed_and_whole", Prop::Paths.on(PLAIN).via(STREAMED)),
    ("stb_streaming::single_analysis_streamed_outcome_matches_legacy_analyze", Prop::Paths.on(EVERY).via(&[Path::Analyze, Path::StbSingle])),
    // The paper figures.
    ("paper_figures::detection_matrix_matches_paper", Prop::Known.on(FIGURES).only(&Relation::ALL)),
    ("paper_figures::figure1_race_is_on_x_at_the_final_write", Prop::Known.on(&[Src::Known("figure1")])),
    ("paper_figures::race_location_is_stable_across_optimization_levels", Prop::Levels.on(FIGURES)),
    ("paper_figures::dynamic_and_static_counts_are_consistent", Prop::Paths.on(FIGURES).via(&[Path::Analyze])),
    // Optimization levels.
    ("opt_equivalence::paper_figures_agree_across_levels_and_paths", Prop::Levels.on(KNOWN)),
    ("opt_equivalence::calibrated_workloads_agree_across_levels_and_paths", Prop::Levels.on(&[Src::Profile("", 1e-6, 21)])),
    ("opt_equivalence::randomized_traces_agree_across_levels_and_paths", Prop::Levels.on(&[Src::Family("plain"), Src::Family("lockfree")])),
    ("opt_equivalence::graph_variants_match_plain_unopt_reports", Prop::Levels.on(&[Src::Family("full")])),
    ("opt_equivalence::epoch_rows_may_name_fewer_prior_threads", Prop::Known.on(&[Src::Known("hidden-prior-thread")])),
    // The relation hierarchy.
    ("relation_inclusion::race_sets_grow_down_the_hierarchy", Prop::Inclusion.on(&[Src::Known(""), Src::Family("tiny"), Src::Family("tiny_flat"), Src::Family("plain")])),
    ("relation_inclusion::without_locks_all_relations_agree", Prop::Inclusion.on(&[Src::Family("lockfree")]).seeds(0, 48)),
    ("relation_inclusion::optimization_levels_agree_up_to_first_race", Prop::Levels.on(&[Src::Family("tiny"), Src::Family("tiny_flat")])),
    ("relation_inclusion::graph_recording_is_observationally_pure", Prop::Levels.on(&[Src::Family("tiny_full")])),
    // Condition variables, barriers and the alias ops.
    ("sync_differential::randomized_sync_traces_agree_everywhere", Prop::Levels.on(&[Src::Family("tiny_sync")])),
    ("sync_differential::randomized_sync_traces_agree_everywhere", Prop::Paths.on(&[Src::Family("tiny_sync")])),
    ("sync_differential::stb_v2_round_trip_preserves_reports", Prop::Paths.on(SYNC).via(STREAMED)),
    ("sync_differential::alias_ops_rewrite_to_their_canonical_ops", Prop::Paths.on(EVERY).via(&[Path::Rewrite])),
    ("sync_differential::oracle_agrees_on_tiny_sync_traces", Prop::Oracle.on(&[Src::Family("tiny_sync")])),
    ("sync_differential::known_patterns::condvar_handoff_is_race_free_in_all_14_cells", Prop::Known.on(&[Src::Known("condvar-handoff")])),
    ("sync_differential::known_patterns::post_notify_write_races_in_all_14_cells", Prop::Known.on(&[Src::Known("post-notify-write")])),
    ("sync_differential::known_patterns::barrier_phases_order_across_not_within_in_all_14_cells", Prop::Known.on(&[Src::Known("barrier-phases")])),
    ("sync_differential::known_patterns::condsync_workload_matches_its_expected_race_mix", Prop::Known.on(&[Src::Profile("condsync", 2e-5, 11)])),
    ("sync_differential::known_patterns::race_inside_an_open_barrier_round_agrees_everywhere", Prop::Known.on(&[Src::Known("open-barrier-round")])),
    ("sync_differential::known_patterns::race_inside_an_open_barrier_round_agrees_everywhere", Prop::Paths.on(&[Src::Known("open-barrier-round")])),
    ("sync_differential::known_patterns::pinned_seeds_agree_everywhere", Prop::Levels.on(&[Src::Family("sync")])),
    ("sync_differential::known_patterns::pinned_seeds_agree_everywhere", Prop::Paths.on(&[Src::Family("sync")])),
    // Reader-writer locks and failed trylocks.
    ("rwlock_differential::all_paths_and_levels_agree_on_rwlock_traces", Prop::Levels.on(RW)),
    ("rwlock_differential::all_paths_and_levels_agree_on_rwlock_traces", Prop::Paths.on(RW)),
    ("rwlock_differential::stb_v3_round_trip_preserves_reports", Prop::Paths.on(RW).via(STREAMED)),
    ("rwlock_differential::relation_inclusion_holds_with_rwlock_ops", Prop::Inclusion.on(RW)),
    ("rwlock_differential::vindication_and_oracle_agree_on_rwlock_traces", Prop::Witness.on(RW)),
    ("rwlock_differential::vindication_and_oracle_agree_on_rwlock_traces", Prop::Oracle.on(RW)),
    ("rwlock_differential::overlapping_read_sections_race_in_every_cell", Prop::Known.on(&[Src::Known("overlapping-read-sections")])),
    // The SyncP row.
    ("syncp_differential::paper_figures_known_answers", Prop::Known.on(FIGURES).only(&[Relation::SyncP])),
    ("syncp_differential::figure1_witness_is_the_paper_reordering", Prop::Known.on(&[Src::Known("figure1")]).only(&[Relation::SyncP])),
    ("syncp_differential::disjoint_barrier_rounds_keep_the_hb_race", Prop::Known.on(&[Src::Known("disjoint-barrier-rounds")])),
    ("syncp_differential::fast_path_candidate_shape_keeps_the_hb_race", Prop::Known.on(&[Src::Known("fast-path-candidate")])),
    ("syncp_differential::partially_kept_barrier_round_yields_a_valid_witness", Prop::Known.on(&[Src::Known("partially-kept-round")])),
    ("syncp_differential::partially_kept_barrier_round_yields_a_valid_witness", Prop::Witness.on(&[Src::Known("partially-kept-round")]).only(CLOSURE)),
    ("syncp_differential::skipped_barrier_round_drains_before_the_later_round", Prop::Known.on(&[Src::Known("skipped-barrier-round")])),
    ("syncp_differential::calibrated_profiles_match_the_predictable_race_mix", Prop::Known.on(&[Src::Profile("", 2e-6, 7)])),
    ("syncp_differential::calibrated_profiles_match_the_predictable_race_mix", Prop::Inclusion.on(&[Src::Profile("", 2e-6, 7)])),
    ("syncp_differential::hb_subset_syncp_on_random_traces", Prop::Inclusion.on(FULL)),
    ("syncp_differential::every_syncp_race_on_tiny_traces_is_vindicated", Prop::Witness.on(SYNC)),
    ("syncp_differential::every_syncp_race_on_tiny_traces_is_vindicated", Prop::Oracle.on(TINY).only(&[Relation::SyncP])),
    ("syncp_differential::sync_heavy_profiles_are_sound_end_to_end", Prop::Witness.on(&[Src::Profile("condsync", 1e-5, 13), Src::Profile("rwmix", 1e-5, 13)])),
    ("syncp_differential::stb_round_trip_preserves_syncp_report", Prop::Paths.on(FULL).via(STREAMED)),
    ("syncp_differential::engine_pool_syncp_lane_matches_offline", Prop::Paths.on(&[Src::Known(""), Src::Family("tiny"), Src::Family("tiny_flat"), Src::Family("plain"), Src::Family("lockfree"), Src::Family("tiny_sync"), Src::Family("sync")]).via(&[Path::Pool])),
    ("syncp_differential::syncp_beside_an_online_lane_in_one_session", Prop::Paths.on(EVERY).via(&[Path::Online])),
    // The OSR row.
    ("osr_differential::paper_figures_known_answers", Prop::Known.on(FIGURES).only(&[Relation::Osr])),
    ("osr_differential::reversal_trace_is_the_pinned_osr_only_race", Prop::Known.on(&[Src::Known("reversal")])),
    ("osr_differential::syncp_subset_osr_on_random_traces", Prop::Inclusion.on(SYNC)),
    ("osr_differential::syncp_subset_osr_sweep_over_10k_seeds", Prop::Inclusion.on(&[Src::Family("tiny"), Src::Family("tiny_sync"), Src::Family("tiny_rw")]).only(CLOSURE).seeds(3_334, 0).finds_osr_only()),
    ("osr_differential::every_osr_race_on_tiny_traces_is_vindicated", Prop::Witness.on(FULL)),
    ("osr_differential::every_osr_race_on_tiny_traces_is_vindicated", Prop::Oracle.on(TINY).only(&[Relation::Osr])),
    ("osr_differential::stb_round_trip_preserves_osr_report", Prop::Paths.on(RANDOM).via(&[Path::StbReader, Path::StbAssembler]).only(&[Relation::Osr])),
    ("osr_differential::engine_pool_osr_lane_matches_offline", Prop::Paths.on(&[Src::Family("tiny_rw"), Src::Family("rw"), Src::Family("tiny_full"), Src::Family("full"), Src::Profile("", 1e-6, 7)]).via(&[Path::Pool])),
    // Vindication and the exhaustive oracle.
    ("vindication_soundness::witnesses_validate_and_oracle_agrees", Prop::Witness.on(PLAIN)),
    ("vindication_soundness::witnesses_validate_and_oracle_agrees", Prop::Oracle.on(TINY).only(&[Relation::Hb])),
    ("vindication_soundness::wcp_races_are_predictable_races", Prop::Oracle.on(&[Src::Family("tiny_flat")])),
    ("vindication_soundness::wcp_races_imply_race_or_deadlock", Prop::Oracle.on(TINY).only(&[Relation::Wcp])),
    ("vindication_soundness::wcp_races_imply_race_or_deadlock", Prop::Oracle.on(&[Src::Family("tiny_full")])),
    ("vindication_soundness::dc_races_checked_against_oracle", Prop::Oracle.on(TINY).only(&[Relation::Dc, Relation::Wdc])),
    ("vindication_soundness::figure3_false_race_is_caught_by_both_oracle_and_vindication", Prop::Known.on(&[Src::Known("figure3")])),
    ("vindication_soundness::figure3_false_race_is_caught_by_both_oracle_and_vindication", Prop::Oracle.on(KNOWN)),
    ("vindication_soundness::paper_figures_1_and_2_vindicate_with_valid_witnesses", Prop::Known.on(&[Src::Known("figure1"), Src::Known("figure2")]).only(&[Relation::Wdc])),
    ("vindication_soundness::paper_figures_1_and_2_vindicate_with_valid_witnesses", Prop::Witness.on(KNOWN)),
    // Streaming ≡ offline behind the SyncP and OSR epoch caches.
    ("differential::streaming_matches_offline", Prop::Streaming.on(EVERY)),
];

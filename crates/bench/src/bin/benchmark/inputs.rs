//! The five workloads and the inputs they are built from: generated
//! traces, their STB encodings cut at chunk boundaries, and the reference
//! reports every timed output is checked against.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Read;
use std::ops::Range;
use std::time::Instant;

use smarttrack::{analyze, AnalysisConfig, Report, StreamHint};
use smarttrack_trace::binary::{to_stb_bytes, StbReader};
use smarttrack_trace::{BarrierId, CondId, LockId, Op, Trace, VarId};
use smarttrack_workloads::{profiles, Workload};

/// Every workload, in the order a full run measures them.
pub const WORKLOADS: [&str; 5] = [
    "xalan-fanout",
    "avrora-fanout",
    "syncops-fanout",
    "predictive-xalan",
    "serve-live",
];

/// The four lanes of `smarttrack analyze` and of the serve daemon: the
/// FTO-HB baseline and the three SmartTrack predictive analyses.
pub const TABLE1_LANES: [&str; 4] = ["fto-hb", "st-wcp", "st-dc", "st-wdc"];

/// The two extension rows beyond the paper's Table 1.
pub const PREDICTIVE_LANES: [&str; 2] = ["syncp", "osr"];

/// Events per second the serve-live open loop offers, over both
/// connections: under half the closed-loop throughput (about 1.9M events/s
/// with one session in flight) on the reference host. A constant, so the
/// offered load never adapts to how fast the server turns out to be.
pub const OPEN_LOOP_EVENTS_PER_S: f64 = 800_000.0;

/// Client connections (and server workers) in serve-live: one per core of
/// the reference host.
pub const SERVE_CONNECTIONS: usize = 2;

/// One workload: the sessions one pass runs and the lanes each runs.
pub struct Spec {
    pub name: &'static str,
    pub lanes: &'static [&'static str],
    /// One session per entry: a calibrated profile at a scale.
    pub sessions: Vec<(Workload, f64)>,
    /// Offered load of the serve-live open loop, in events per second;
    /// `None` for the offline workloads.
    pub open_loop_rate: Option<f64>,
}

impl Spec {
    /// The workload `name` at `size` times its benchmark scale (1.0 for
    /// the benchmark itself; the smoke test uses far smaller inputs).
    pub fn named(name: &str, size: f64) -> Option<Spec> {
        let same = |w: fn() -> Workload, scale: f64, n: usize| vec![(w(), scale * size); n];
        let (name, lanes, sessions, open_loop_rate) = match name {
            "xalan-fanout" => (
                "xalan-fanout",
                &TABLE1_LANES[..],
                same(profiles::xalan, 2e-3, 1),
                None,
            ),
            "avrora-fanout" => (
                "avrora-fanout",
                &TABLE1_LANES[..],
                same(profiles::avrora, 2e-3, 1),
                None,
            ),
            "syncops-fanout" => (
                "syncops-fanout",
                &TABLE1_LANES[..],
                vec![
                    (profiles::condsync(), 5e-3 * size),
                    (profiles::rwmix(), 4e-3 * size),
                ],
                None,
            ),
            "predictive-xalan" => (
                "predictive-xalan",
                &PREDICTIVE_LANES[..],
                same(profiles::xalan, 2e-5, 10),
                None,
            ),
            "serve-live" => {
                // Inputs alternate xalan and avrora, so connection 0 gets
                // every xalan session and connection 1 every avrora one.
                // avrora's scale gives it about xalan's 102k events, so
                // sessions at one offered rate last equally long.
                let (x, a) = (
                    (profiles::xalan(), 2e-4 * size),
                    (profiles::avrora(), 7.3e-5 * size),
                );
                let order = [&x, &a, &x, &a, &x, &a, &x, &a];
                (
                    "serve-live",
                    &TABLE1_LANES[..],
                    order.iter().map(|&w| w.clone()).collect(),
                    Some(OPEN_LOOP_EVENTS_PER_S),
                )
            }
            _ => return None,
        };
        Some(Spec {
            name,
            lanes,
            sessions,
            open_loop_rate,
        })
    }

    pub fn configs(&self) -> Vec<AnalysisConfig> {
        self.lanes
            .iter()
            .map(|lane| lane.parse().expect("lane names are analysis configs"))
            .collect()
    }
}

/// One STB chunk: its bytes (the first chunk also carries the header, the
/// last the end-of-stream terminator) and how many events it holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk {
    pub bytes: Range<usize>,
    pub events: u32,
    /// Events in this and every earlier chunk.
    pub end_event: u64,
}

/// One session's input.
pub struct Input {
    pub label: String,
    pub events: usize,
    pub stb: Vec<u8>,
    pub chunks: Vec<Chunk>,
    pub hint: StreamHint,
    /// Reference report per lane, in lane order.
    pub reference: Vec<Report>,
}

impl Input {
    /// The chunk holding event `event`.
    pub fn chunk_of(&self, event: u32) -> usize {
        self.chunks
            .partition_point(|c| c.end_event <= u64::from(event))
            .min(self.chunks.len() - 1)
    }

    pub fn reference_races(&self) -> usize {
        self.reference.iter().map(Report::dynamic_count).sum()
    }
}

/// A workload's inputs, with what building them cost.
pub struct Prepared {
    pub inputs: Vec<Input>,
    pub generate_s: f64,
    pub encode_s: f64,
}

impl Prepared {
    pub fn events_per_pass(&self) -> usize {
        self.inputs.iter().map(|i| i.events).sum()
    }
}

/// Seed of session `index` of `workload`: a SplitMix64 step over the
/// benchmark seed and the workload name, so workloads and sessions draw
/// independent traces from one `--seed`.
pub fn trace_seed(seed: u64, workload: &str, index: usize) -> u64 {
    let name = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let mut z = (seed ^ name).wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates, encodes and analyzes `spec`'s inputs for `seed`.
pub fn prepare(spec: &Spec, seed: u64) -> Prepared {
    let started = Instant::now();
    let traces: Vec<(String, Trace)> = spec
        .sessions
        .iter()
        .enumerate()
        .map(|(i, (workload, scale))| {
            let trace_seed = trace_seed(seed, spec.name, i);
            (
                format!("{}-{i}", workload.name),
                first_use_ids(&workload.trace(*scale, trace_seed)),
            )
        })
        .collect();
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let encoded: Vec<(Vec<u8>, Vec<Chunk>)> = traces
        .iter()
        .map(|(_, trace)| {
            let stb = to_stb_bytes(trace);
            let chunks = stb_chunks(&stb);
            (stb, chunks)
        })
        .collect();
    let encode_s = started.elapsed().as_secs_f64();

    let configs = spec.configs();
    let inputs = traces
        .into_iter()
        .zip(encoded)
        .map(|((label, trace), (stb, chunks))| Input {
            label,
            events: trace.len(),
            hint: StreamHint::of_trace(&trace),
            reference: configs.iter().map(|&c| analyze(&trace, c).report).collect(),
            stb,
            chunks,
        })
        .collect();
    Prepared {
        inputs,
        generate_s,
        encode_s,
    }
}

/// One id space being renumbered in first-use order.
#[derive(Default)]
struct FirstUse(HashMap<u32, u32>);

impl FirstUse {
    fn id(&mut self, raw: u32) -> u32 {
        let next = self.0.len() as u32;
        *self.0.entry(raw).or_insert(next)
    }
}

/// `trace` with its variable, lock, volatile, condvar and barrier ids
/// renumbered in first-use order, as a live recorder assigns them. The
/// generators draw ids from pools instead. Engine sessions intern ids into
/// exactly this order, so after renumbering their interning is the
/// identity: the traced run's custom-detector sessions, which do not
/// intern, then see the same ids, and the same memory layout, as the
/// untraced engine sessions.
fn first_use_ids(trace: &Trace) -> Trace {
    let (mut vars, mut locks, mut volatiles) = (
        FirstUse::default(),
        FirstUse::default(),
        FirstUse::default(),
    );
    let (mut condvars, mut barriers) = (FirstUse::default(), FirstUse::default());
    let events = trace.events().iter().map(|&event| {
        let mut event = event;
        let var = |ids: &mut FirstUse, x: VarId| VarId::new(ids.id(x.raw()));
        let lock = |ids: &mut FirstUse, m: LockId| LockId::new(ids.id(m.raw()));
        event.op = match event.op {
            Op::Read(x) => Op::Read(var(&mut vars, x)),
            Op::Write(x) => Op::Write(var(&mut vars, x)),
            Op::Acquire(m) => Op::Acquire(lock(&mut locks, m)),
            Op::AcqRead(m) => Op::AcqRead(lock(&mut locks, m)),
            Op::AcqWrite(m) => Op::AcqWrite(lock(&mut locks, m)),
            Op::TryAcqFail(m) => Op::TryAcqFail(lock(&mut locks, m)),
            Op::Release(m) => Op::Release(lock(&mut locks, m)),
            Op::VolatileRead(v) => Op::VolatileRead(var(&mut volatiles, v)),
            Op::VolatileWrite(v) => Op::VolatileWrite(var(&mut volatiles, v)),
            Op::Wait(c, m) => Op::Wait(CondId::new(condvars.id(c.raw())), lock(&mut locks, m)),
            Op::Notify(c) => Op::Notify(CondId::new(condvars.id(c.raw()))),
            Op::NotifyAll(c) => Op::NotifyAll(CondId::new(condvars.id(c.raw()))),
            Op::BarrierEnter(b) => Op::BarrierEnter(BarrierId::new(barriers.id(b.raw()))),
            Op::BarrierExit(b) => Op::BarrierExit(BarrierId::new(barriers.id(b.raw()))),
            other @ (Op::Fork(_) | Op::Join(_)) => other,
        };
        event
    });
    Trace::from_events(events).expect("renaming ids keeps a trace well formed")
}

/// A reader over a byte slice that publishes how far it has read.
struct Tap<'a> {
    bytes: &'a [u8],
    pos: &'a Cell<usize>,
}

impl Read for Tap<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let rest = &self.bytes[self.pos.get()..];
        let n = rest.len().min(buf.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.pos.set(self.pos.get() + n);
        Ok(n)
    }
}

/// Cuts an STB stream at its chunk boundaries. `StbReader` reads exactly
/// the bytes it decodes, so the tap's position after each skipped chunk is
/// that chunk's end.
pub fn stb_chunks(stb: &[u8]) -> Vec<Chunk> {
    let pos = Cell::new(0);
    let mut reader = StbReader::new(Tap {
        bytes: stb,
        pos: &pos,
    })
    .expect("self-encoded STB");
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut start = 0;
    let mut end_event = 0;
    while let Some(events) = reader.skip_chunk().expect("self-encoded STB") {
        end_event += events;
        chunks.push(Chunk {
            bytes: start..pos.get(),
            events: events as u32,
            end_event,
        });
        start = pos.get();
    }
    if let Some(last) = chunks.last_mut() {
        last.bytes.end = stb.len();
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_tile_the_stream_and_decode_alone() {
        let trace = profiles::xalan().trace(2e-5, 3);
        let stb = to_stb_bytes(&trace);
        let chunks = stb_chunks(&stb);
        assert!(chunks.len() > 2, "{} chunks", chunks.len());
        assert_eq!(chunks[0].bytes.start, 0);
        assert_eq!(chunks.last().unwrap().bytes.end, stb.len());
        for pair in chunks.windows(2) {
            assert_eq!(pair[0].bytes.end, pair[1].bytes.start);
        }
        assert_eq!(chunks.last().unwrap().end_event, trace.len() as u64);
        // Fed chunk by chunk, an assembler decodes each chunk's events as
        // soon as its bytes are in: what a Data frame per chunk relies on.
        let mut asm = smarttrack_trace::binary::StbAssembler::new();
        let mut decoded = 0u64;
        for chunk in &chunks {
            asm.push(&stb[chunk.bytes.clone()]).unwrap();
            while asm.next_event().is_some() {
                decoded += 1;
            }
            assert_eq!(decoded, chunk.end_event);
        }
        asm.close().unwrap();
    }

    #[test]
    fn first_use_numbering_is_what_interning_would_do() {
        let trace = profiles::condsync().trace(2e-5, 4);
        let renumbered = first_use_ids(&trace);
        assert_eq!(renumbered.len(), trace.len());
        let mut seen = std::collections::HashSet::new();
        for event in renumbered.events() {
            if let Op::Read(x) | Op::Write(x) = event.op {
                if seen.insert(x.raw()) {
                    assert_eq!(
                        x.raw() as usize,
                        seen.len() - 1,
                        "first use gets the next id"
                    );
                }
            }
        }
        let config: AnalysisConfig = "st-wdc".parse().unwrap();
        assert_eq!(
            analyze(&trace, config).report.dynamic_count(),
            analyze(&renumbered, config).report.dynamic_count()
        );
    }

    #[test]
    fn trace_seeds_differ_by_workload_index_and_seed() {
        let a = trace_seed(11, "xalan-fanout", 0);
        assert_eq!(a, trace_seed(11, "xalan-fanout", 0));
        assert_ne!(a, trace_seed(11, "xalan-fanout", 1));
        assert_ne!(a, trace_seed(11, "avrora-fanout", 0));
        assert_ne!(a, trace_seed(12, "xalan-fanout", 0));
    }
}

//! STB cross-version compatibility battery.
//!
//! The v2 codec revision (condvar/barrier op tags, 4-bit tag field, 7-field
//! header hint) must leave v1 byte streams meaning exactly what they always
//! meant, in both directions:
//!
//! * **Golden v1 bytes** committed below — produced by the v1 writer at the
//!   revision that introduced v2 — decode byte-for-byte identically to the
//!   traces that produced them, forever. The writer also still *emits*
//!   exactly these bytes for v1-expressible traces, so archived recordings
//!   diff clean against fresh ones.
//! * **Truncation fuzz** — every single-byte truncation of a stream
//!   containing every v2 op tag is a precise error, never a panic or a
//!   silent short decode (extending the v1-only fuzz in `binary.rs`).
//! * **Corruption fuzz** — every single-byte *bit flip* of a v2 stream
//!   either fails to decode or decodes to a well-formed trace; it must
//!   never panic.
//! * **Golden decoder outcomes** — `tests/golden/stb_errors.txt` records,
//!   for every cut of five v1–v3 streams (and bit flips of one), what
//!   `StbReader` and `StbAssembler` report: the error variant, offset and
//!   context, the events decoded before it, the bytes the reader read, the
//!   `skip_chunk` walk and the trailing-byte outcome. It was generated
//!   while the two faces still parsed STB independently, and pins the one
//!   decoder that replaced them.
//! * **Exact reads** — `StbReader` reads exactly the header, then exactly
//!   up to each chunk's end, and never past the terminator.
//! * **v3** — streams with reader-writer-lock ops encode as v3 while
//!   rwlock-free ones keep their old version byte, and v3 streams survive
//!   the same truncation and bit-flip fuzz.

use std::cell::Cell;
use std::io::Read;

use smarttrack_trace::binary::{
    from_stb_bytes, to_stb_bytes, StbAssembler, StbError, StbHint, StbReader, StbWriter,
    STB_VERSION, STB_VERSION_2, STB_VERSION_3,
};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{
    paper, BarrierId, CondId, Event, LockId, Op, ThreadId, Trace, TraceBuilder, VarId,
};

#[path = "support/golden.rs"]
mod golden;
use golden::assert_matches_golden;

/// `paper::figure1()` as written by the v1 encoder (34 bytes, header hint
/// included). Committed so that a future revision that changes what these
/// bytes decode to — or what the writer emits for this trace — fails here.
const FIGURE1_V1: &[u8] = &[
    0x89, 0x53, 0x54, 0x42, 0x01, 0x01, 0x08, 0x02, 0x03, 0x01, 0x00, 0x14, 0x08, 0x00, 0x04, 0x08,
    0x00, 0x0a, 0x02, 0x29, 0x02, 0x0b, 0x02, 0x01, 0x04, 0x0a, 0x02, 0x28, 0x02, 0x0b, 0x02, 0x39,
    0x02, 0x00,
];

/// `paper::figure3()` as written by the v1 encoder (64 bytes).
const FIGURE3_V1: &[u8] = &[
    0x89, 0x53, 0x54, 0x42, 0x01, 0x01, 0x16, 0x03, 0x03, 0x03, 0x00, 0x32, 0x16, 0x00, 0x07, 0x0a,
    0x00, 0x2a, 0x02, 0x28, 0x00, 0x09, 0x00, 0x0b, 0x00, 0x18, 0x02, 0x1b, 0x02, 0x01, 0x08, 0x2a,
    0x02, 0x28, 0x00, 0x09, 0x00, 0x0b, 0x00, 0x2a, 0x02, 0x28, 0x00, 0x09, 0x00, 0x0b, 0x00, 0x02,
    0x07, 0x3a, 0x02, 0x4a, 0x02, 0x08, 0x00, 0x09, 0x00, 0x0b, 0x00, 0x3b, 0x02, 0x39, 0x02, 0x00,
];

/// A compact trace containing every v2-only op tag (wait, notify,
/// notifyAll, barrier enter, barrier exit) plus every v1 tag.
fn all_tags_trace() -> Trace {
    let (t0, t1, t2) = (ThreadId::new(0), ThreadId::new(1), ThreadId::new(2));
    let (c0, c1) = (CondId::new(0), CondId::new(1));
    let m = LockId::new(0);
    let bar = BarrierId::new(0);
    let mut b = TraceBuilder::new();
    b.push(t0, Op::Fork(t1)).unwrap();
    b.push(t0, Op::Fork(t2)).unwrap();
    b.push(t0, Op::Write(VarId::new(0))).unwrap();
    b.push(t0, Op::VolatileWrite(VarId::new(0))).unwrap();
    b.push(t1, Op::VolatileRead(VarId::new(0))).unwrap();
    b.push(t0, Op::Notify(c0)).unwrap();
    b.push(t0, Op::NotifyAll(c1)).unwrap();
    b.push(t1, Op::Acquire(m)).unwrap();
    b.push(t1, Op::Wait(c0, m)).unwrap();
    b.push(t1, Op::Read(VarId::new(0))).unwrap();
    b.push(t1, Op::Release(m)).unwrap();
    b.push(t1, Op::BarrierEnter(bar)).unwrap();
    b.push(t2, Op::BarrierEnter(bar)).unwrap();
    b.push(t1, Op::BarrierExit(bar)).unwrap();
    b.push(t2, Op::BarrierExit(bar)).unwrap();
    b.push(t0, Op::Join(t2)).unwrap();
    b.finish()
}

#[test]
fn golden_v1_bytes_decode_identically_under_the_v2_reader() {
    for (name, golden, trace) in [
        ("figure1", FIGURE1_V1, paper::figure1()),
        ("figure3", FIGURE3_V1, paper::figure3()),
    ] {
        assert_eq!(golden[4], STB_VERSION, "{name}: golden bytes are v1");
        let decoded = from_stb_bytes(golden).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, trace, "{name}: golden decode drifted");
        let reader = StbReader::new(golden).unwrap();
        let hint = reader.header().hint.expect("golden streams carry hints");
        assert_eq!(hint.events, trace.len() as u64, "{name}");
        assert_eq!(hint.condvars, 0, "{name}: v1 hints decode zero condvars");
        assert_eq!(hint.barriers, 0, "{name}: v1 hints decode zero barriers");
    }
}

#[test]
fn writer_still_emits_the_golden_v1_bytes() {
    assert_eq!(
        to_stb_bytes(&paper::figure1()),
        FIGURE1_V1,
        "figure1 encoding drifted from the committed v1 bytes"
    );
    assert_eq!(
        to_stb_bytes(&paper::figure3()),
        FIGURE3_V1,
        "figure3 encoding drifted from the committed v1 bytes"
    );
}

#[test]
fn every_new_op_tag_round_trips_in_v2() {
    let trace = all_tags_trace();
    let bytes = to_stb_bytes(&trace);
    assert_eq!(bytes[4], STB_VERSION_2);
    assert_eq!(from_stb_bytes(&bytes).unwrap(), trace);
}

#[test]
fn truncation_anywhere_in_a_v2_stream_is_a_precise_error() {
    let bytes = to_stb_bytes(&all_tags_trace());
    for cut in 0..bytes.len() {
        match from_stb_bytes(&bytes[..cut]) {
            Err(StbError::Truncated { offset, .. }) => {
                assert!(offset <= cut as u64, "offset {offset} past cut {cut}")
            }
            Err(other) => panic!("cut at {cut}: unexpected error {other}"),
            Ok(_) => panic!("cut at {cut}: truncated stream decoded"),
        }
    }
}

#[test]
fn truncation_fuzz_over_random_sync_traces_and_chunk_sizes() {
    for seed in 0..3u64 {
        let trace = RandomTraceSpec::tiny_sync().generate(seed);
        for chunk in [1, 7, 64] {
            let mut w =
                StbWriter::with_hint(Vec::new(), StbHint::of_trace(&trace)).chunk_events(chunk);
            for e in trace.events() {
                w.write(e).unwrap();
            }
            let bytes = w.finish().unwrap();
            for cut in 0..bytes.len() {
                match from_stb_bytes(&bytes[..cut]) {
                    Err(_) => {}
                    Ok(_) => panic!("seed {seed} chunk {chunk}: cut {cut} decoded"),
                }
            }
        }
    }
}

#[test]
fn bit_flips_never_panic_the_v2_decoder() {
    let bytes = to_stb_bytes(&all_tags_trace());
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1 << bit;
            // Any outcome but a panic is acceptable: a precise error, or a
            // decode to some other well-formed trace.
            let _ = from_stb_bytes(&mutated);
        }
    }
}

#[test]
fn v2_streams_skip_chunks_with_sync_ops() {
    let trace = RandomTraceSpec::tiny_sync().generate(9);
    let mut w = StbWriter::with_hint(Vec::new(), StbHint::of_trace(&trace)).chunk_events(8);
    for e in trace.events() {
        w.write(e).unwrap();
    }
    let bytes = w.finish().unwrap();
    let mut reader = StbReader::new(&bytes[..]).unwrap();
    let skipped = reader.skip_chunk().unwrap().expect("first chunk");
    assert_eq!(skipped, 8);
    let rest: Result<Vec<_>, _> = (&mut reader).collect();
    assert_eq!(rest.unwrap(), &trace.events()[8..]);
}

#[test]
fn sessions_presize_from_v2_hints() {
    // The v2 header's condvar/barrier cardinalities flow into StreamHint.
    let trace = all_tags_trace();
    let bytes = to_stb_bytes(&trace);
    let reader = StbReader::new(&bytes[..]).unwrap();
    let hint = smarttrack_detect::StreamHint::of_stb_header(reader.header());
    assert_eq!(hint.condvars, Some(trace.num_condvars()));
    assert_eq!(hint.barriers, Some(trace.num_barriers()));
    // And a session fed from the reader matches whole-trace analysis.
    let config = smarttrack::AnalysisConfig::table1()[0];
    let engine = smarttrack::Engine::for_config(config).unwrap();
    let mut session = engine.open_with_hint(hint);
    for event in StbReader::new(&bytes[..]).unwrap() {
        session.feed(event.unwrap()).unwrap();
    }
    let streamed = session.finish_one().report;
    let whole = smarttrack::analyze(&trace, config).report;
    assert_eq!(streamed, whole);
}

/// Decoder outcomes on every cut of the streams below, pinned while
/// `StbReader` and `StbAssembler` still parsed STB independently.
const ERRORS_GOLDEN: &str = "tests/golden/stb_errors.txt";

/// Bytes placed after a stream's terminator.
const SENTINEL_TAIL: &[u8] = &[0xa5, 0x5a, 0xc3];

/// A `Read` over a byte slice that publishes how far it has read.
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

#[test]
fn rwlock_free_traces_still_emit_their_old_version_byte() {
    // The writer pins the lowest expressible version: archived captures of
    // rwlock-free executions keep diffing clean against fresh encodes.
    let v1 = to_stb_bytes(&paper::figure1());
    assert_eq!(v1[4], STB_VERSION);
    let v3 = to_stb_bytes(&rwlock_trace());
    assert_eq!(v3[4], STB_VERSION_3);
    for seed in 0..20 {
        let trace = RandomTraceSpec::tiny_rw().generate(seed);
        let rw = trace
            .events()
            .iter()
            .any(|e| matches!(e.op, Op::AcqRead(_) | Op::AcqWrite(_) | Op::TryAcqFail(_)));
        if rw {
            assert_eq!(
                to_stb_bytes(&trace)[4],
                STB_VERSION_3,
                "rwlock ops require v3"
            );
        }
    }
}

#[test]
fn truncation_anywhere_in_a_v3_stream_is_a_precise_error() {
    let bytes = to_stb_bytes(&rwlock_trace());
    assert_eq!(bytes[4], STB_VERSION_3);
    for cut in 0..bytes.len() {
        match from_stb_bytes(&bytes[..cut]) {
            Err(StbError::Truncated { offset, .. }) => {
                assert!(offset <= cut as u64, "offset {offset} past cut {cut}")
            }
            Err(other) => panic!("cut at {cut}: unexpected error {other}"),
            Ok(_) => panic!("cut at {cut}: truncated stream decoded"),
        }
    }
}

#[test]
fn truncation_fuzz_over_random_rwlock_traces_and_chunk_sizes() {
    for seed in 0..3u64 {
        let trace = RandomTraceSpec::tiny_rw().generate(seed);
        for chunk in [1, 7, 64] {
            // The hint cannot express v3-need (rwlocks share the lock id
            // space), so live streaming pins v3 up front.
            let mut w = StbWriter::v3(Vec::new()).chunk_events(chunk);
            for e in trace.events() {
                w.write(e).unwrap();
            }
            let bytes = w.finish().unwrap();
            for cut in 0..bytes.len() {
                match from_stb_bytes(&bytes[..cut]) {
                    Err(_) => {}
                    Ok(_) => panic!("seed {seed} chunk {chunk}: cut {cut} decoded"),
                }
            }
        }
    }
}

#[test]
fn bit_flips_never_panic_the_v3_decoder() {
    let bytes = to_stb_bytes(&rwlock_trace());
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1 << bit;
            // Any outcome but a panic is acceptable: a precise error, or a
            // decode to some other well-formed trace.
            let _ = from_stb_bytes(&mutated);
        }
    }
}

/// `events` written in chunks of `chunk` events, with `hint` in the header.
fn encode(events: &[Event], hint: Option<StbHint>, chunk: usize) -> Vec<u8> {
    let writer = match hint {
        Some(hint) => StbWriter::with_hint(Vec::new(), hint),
        None => StbWriter::new(Vec::new()),
    };
    let mut writer = writer.chunk_events(chunk);
    for event in events {
        writer.write(event).unwrap();
    }
    writer.finish().unwrap()
}

/// A trace using every v3-only op tag, opening with a write acquire so a
/// chunked writer picks v3 at its first flush.
fn rwlock_trace() -> Trace {
    let (t0, t1, t2) = (ThreadId::new(0), ThreadId::new(1), ThreadId::new(2));
    let m = LockId::new(0);
    let mut b = TraceBuilder::new();
    b.push(t0, Op::AcqWrite(m)).unwrap();
    b.push(t0, Op::Write(VarId::new(0))).unwrap();
    b.push(t0, Op::Release(m)).unwrap();
    b.push(t1, Op::AcqRead(m)).unwrap();
    b.push(t2, Op::AcqRead(m)).unwrap();
    b.push(t0, Op::TryAcqFail(m)).unwrap();
    b.push(t1, Op::Read(VarId::new(0))).unwrap();
    b.push(t1, Op::Release(m)).unwrap();
    b.push(t2, Op::Release(m)).unwrap();
    b.push(t0, Op::Acquire(LockId::new(1))).unwrap();
    b.push(t0, Op::Release(LockId::new(1))).unwrap();
    b.finish()
}

/// The pinned streams: v1 figures 1 and 3, v2 condvar/barrier ops in
/// 3-event chunks, v3 rwlock ops in 4-event chunks, and an unhinted stream
/// in 2-event chunks.
fn golden_streams() -> Vec<(&'static str, Vec<u8>)> {
    let sync = all_tags_trace();
    let rw = rwlock_trace();
    let streams = vec![
        ("figure1-v1", FIGURE1_V1.to_vec()),
        ("figure3-v1", FIGURE3_V1.to_vec()),
        (
            "sync-v2-c3",
            encode(sync.events(), Some(StbHint::of_trace(&sync)), 3),
        ),
        (
            "rw-v3-c4",
            encode(rw.events(), Some(StbHint::of_trace(&rw)), 4),
        ),
        ("unhinted-c2", encode(paper::figure2().events(), None, 2)),
    ];
    let versions: Vec<u8> = streams.iter().map(|(_, bytes)| bytes[4]).collect();
    assert_eq!(versions, [1, 1, 2, 3, 1]);
    streams
}

fn describe(e: &StbError) -> String {
    match e {
        StbError::Truncated { offset, context } => format!("Truncated@{offset} {context:?}"),
        StbError::Corrupt { offset, message } => format!("Corrupt@{offset} {message:?}"),
        other => format!("{other:?}"),
    }
}

/// `StbReader` drained to its end: the events it yielded, the error it
/// stopped at (and whether it then stays ended), and how many input bytes
/// it had read.
fn reader_outcome(bytes: &[u8]) -> String {
    let pos = Cell::new(0);
    let mut reader = match StbReader::new(Tap { bytes, pos: &pos }) {
        Ok(reader) => reader,
        Err(e) => return format!("{} after 0, read {}", describe(&e), pos.get()),
    };
    let mut events = 0;
    loop {
        match reader.next() {
            Some(Ok(_)) => events += 1,
            Some(Err(e)) => {
                let ended = if reader.next().is_none() {
                    "ended"
                } else {
                    "RESUMED"
                };
                return format!(
                    "{} after {events}, read {}, {ended}",
                    describe(&e),
                    pos.get()
                );
            }
            None => return format!("ok {events}, read {}", pos.get()),
        }
    }
}

/// `StbReader::skip_chunk` until the end: `count@position:read` per call,
/// and after an error whether the reader stays ended.
fn skip_walk(bytes: &[u8]) -> String {
    let pos = Cell::new(0);
    let mut reader = match StbReader::new(Tap { bytes, pos: &pos }) {
        Ok(reader) => reader,
        Err(e) => return format!("{}, read {}", describe(&e), pos.get()),
    };
    let mut steps = Vec::new();
    loop {
        let (step, more) = match reader.skip_chunk() {
            Ok(Some(count)) => (count.to_string(), true),
            Ok(None) => ("end".to_string(), false),
            Err(e) => (describe(&e), false),
        };
        steps.push(format!("{step}@{}:{}", reader.position(), pos.get()));
        if !more {
            if step != "end" {
                let ended = matches!(reader.skip_chunk(), Ok(None));
                steps.push(if ended { "ended" } else { "RESUMED" }.to_string());
            }
            return steps.join(" ");
        }
    }
}

/// One event, then one `skip_chunk`, alternately: `next@position:read` and
/// `count@position:read` per call.
fn mixed_walk(bytes: &[u8]) -> String {
    let pos = Cell::new(0);
    let mut reader = StbReader::new(Tap { bytes, pos: &pos }).unwrap();
    let mut steps = Vec::new();
    while let Some(event) = reader.next() {
        event.unwrap();
        steps.push(format!("next@{}:{}", reader.position(), pos.get()));
        match reader.skip_chunk().unwrap() {
            Some(count) => steps.push(format!("{count}@{}:{}", reader.position(), pos.get())),
            None => break,
        }
    }
    steps.push(format!("end@{}:{}", reader.position(), pos.get()));
    steps.join(" ")
}

/// `StbAssembler` fed `bytes` in `step`-byte pushes, drained after each,
/// then closed: the events it produced and the error it stopped at.
fn assembler_outcome(bytes: &[u8], step: usize) -> String {
    let mut asm = StbAssembler::new();
    let mut events = 0u64;
    for piece in bytes.chunks(step.max(1)) {
        let pushed = asm.push(piece);
        while asm.next_event().is_some() {
            events += 1;
        }
        if let Err(e) = pushed {
            return format!("{} after {events}", describe(&e));
        }
    }
    match asm.close() {
        Ok(total) => {
            assert_eq!(total, events, "close reports the decoded count");
            format!("ok {events}")
        }
        Err(e) => format!("{} after {events}", describe(&e)),
    }
}

/// Every golden line for one input: the reader, the skip walk and the
/// assembler at 1, 3 and all bytes per push.
fn outcome_lines(name: &str, what: &str, bytes: &[u8], lines: &mut Vec<String>) {
    lines.push(format!("{name} {what} reader {}", reader_outcome(bytes)));
    lines.push(format!("{name} {what} skip {}", skip_walk(bytes)));
    for (label, step) in [("push1", 1), ("push3", 3), ("pushall", bytes.len())] {
        let outcome = assembler_outcome(bytes, step);
        lines.push(format!("{name} {what} {label} {outcome}"));
    }
}

fn decoder_outcome_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, bytes) in golden_streams() {
        for cut in 0..=bytes.len() {
            outcome_lines(name, &format!("cut {cut:>3}"), &bytes[..cut], &mut lines);
        }
        let mut tailed = bytes.clone();
        tailed.extend_from_slice(SENTINEL_TAIL);
        outcome_lines(name, "tail", &tailed, &mut lines);
        lines.push(format!("{name} mixed {}", mixed_walk(&tailed)));
        // Corruption: flip the high bit, then every bit, of each byte. Only
        // the unhinted stream, so no flip can contradict a declared count.
        if name == "unhinted-c2" {
            for (mask, i) in [0x80u8, 0xff]
                .into_iter()
                .flat_map(|m| (0..bytes.len()).map(move |i| (m, i)))
            {
                let mut flipped = bytes.clone();
                flipped[i] ^= mask;
                let what = format!("flip {mask:#04x}@{i:>2}");
                lines.push(format!("{name} {what} reader {}", reader_outcome(&flipped)));
                for (label, step) in [("push1", 1), ("pushall", flipped.len())] {
                    let outcome = assembler_outcome(&flipped, step);
                    lines.push(format!("{name} {what} {label} {outcome}"));
                }
            }
        }
    }
    lines
}

#[test]
fn decoder_outcomes_match_the_golden_file() {
    assert_matches_golden(&decoder_outcome_lines(), ERRORS_GOLDEN);
}

#[test]
fn reader_reads_exactly_the_bytes_it_decodes() {
    // Chunk ends come from the writer: an unhinted prefix of whole chunks
    // encodes to the same bytes followed by its own terminator.
    let trace = RandomTraceSpec {
        events: 50,
        ..RandomTraceSpec::default()
    }
    .generate(3);
    let chunk = 8;
    let end_after = |events: usize| encode(&trace.events()[..events], None, chunk).len() - 1;
    let header_end = end_after(0);
    let chunk_ends: Vec<(usize, usize)> = (chunk..trace.len() + chunk)
        .step_by(chunk)
        .map(|events| {
            let events = events.min(trace.len());
            (events, end_after(events))
        })
        .collect();
    let bytes = encode(trace.events(), None, chunk);
    let mut tailed = bytes.clone();
    tailed.extend_from_slice(SENTINEL_TAIL);

    let pos = Cell::new(0);
    let mut reader = StbReader::new(Tap {
        bytes: &tailed,
        pos: &pos,
    })
    .unwrap();
    assert_eq!(pos.get(), header_end, "new reads exactly the header");
    for &(events, end) in &chunk_ends {
        while reader.position() < events as u64 {
            reader.next().unwrap().unwrap();
        }
        assert_eq!(pos.get(), end, "drained through event {events}");
    }
    assert!(reader.next().is_none());
    assert_eq!(
        pos.get(),
        bytes.len(),
        "the terminator is read, the tail is not"
    );

    let pos = Cell::new(0);
    let mut reader = StbReader::new(Tap {
        bytes: &tailed,
        pos: &pos,
    })
    .unwrap();
    for &(events, end) in &chunk_ends {
        reader.skip_chunk().unwrap().expect("a chunk");
        assert_eq!(reader.position(), events as u64);
        assert_eq!(pos.get(), end, "skipped through event {events}");
    }
    assert_eq!(reader.skip_chunk().unwrap(), None);
    assert_eq!(
        pos.get(),
        bytes.len(),
        "the terminator is read, the tail is not"
    );
}

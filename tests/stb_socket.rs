//! STB over non-seekable transports — the serving layer's substrate.
//!
//! `StbReader` must work over anything `impl Read` with no `Seek` and no
//! rewinding: an OS pipe, a loopback `TcpStream`. A connection dropped
//! mid-chunk must surface as a precise [`StbError::Truncated`] that fails
//! only the session fed from that connection, and the push-style
//! [`StbAssembler`] must decode byte-for-byte the same events as
//! `StbReader` however the stream is split.

use std::io::Write;
use std::net::{TcpListener, TcpStream};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smarttrack::{AnalysisConfig, Engine};
use smarttrack_trace::binary::{StbAssembler, StbError, StbReader};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{paper, Trace};

fn stb_bytes(trace: &Trace) -> Vec<u8> {
    smarttrack_trace::binary::to_stb_bytes(trace)
}

/// Streams `bytes` through a writer in small dribbles from another thread,
/// closing the write end when done — the shape of a live producer.
fn drip<W: Write + Send + 'static>(
    mut writer: W,
    bytes: Vec<u8>,
    step: usize,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for piece in bytes.chunks(step) {
            writer.write_all(piece).expect("transport accepts writes");
        }
        // Dropping `writer` closes the transport: EOF on the read side.
    })
}

#[test]
fn stb_reader_decodes_over_an_os_pipe() {
    let trace = paper::figure1();
    let bytes = stb_bytes(&trace);
    let (reader_end, writer_end) = std::io::pipe().expect("pipe");
    let producer = drip(writer_end, bytes, 3);

    let reader = StbReader::new(reader_end).expect("header over pipe");
    let events: Result<Vec<_>, _> = reader.collect();
    assert_eq!(events.expect("pipe stream decodes"), trace.events());
    producer.join().unwrap();
}

#[test]
fn stb_reader_decodes_over_a_tcp_stream() {
    let trace = paper::figure2();
    let bytes = stb_bytes(&trace);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().unwrap();
    let producer = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        drip(stream, bytes, 5).join().unwrap();
    });

    let (conn, _) = listener.accept().expect("accept");
    let reader = StbReader::new(conn).expect("header over tcp");
    let events: Result<Vec<_>, _> = reader.collect();
    assert_eq!(events.expect("tcp stream decodes"), trace.events());
    producer.join().unwrap();
}

/// A connection dropped mid-chunk is a precise `Truncated` error — with the
/// offset where bytes ran out — and poisons only the session it fed.
#[test]
fn mid_chunk_disconnect_is_a_precise_truncation_failing_one_session() {
    let trace = paper::figure1();
    let bytes = stb_bytes(&trace);
    // Cut inside the chunk payload: past the header, before the
    // terminator.
    let cut = bytes.len() - 4;

    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().unwrap();
    let cut_bytes = bytes[..cut].to_vec();
    let producer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("loopback connect");
        stream.write_all(&cut_bytes).expect("write prefix");
        // Drop: TCP FIN mid-chunk.
    });

    let engine = Engine::for_config("st-wdc".parse::<AnalysisConfig>().unwrap()).unwrap();
    let mut wounded = engine.open();
    let mut healthy = engine.open();

    let (conn, _) = listener.accept().expect("accept");
    let mut reader = StbReader::new(conn).expect("header arrives intact");
    let error = loop {
        match reader.next() {
            Some(Ok(event)) => {
                wounded.feed(event).expect("decoded events are well-formed");
            }
            Some(Err(e)) => break e,
            None => panic!("a cut stream must not end cleanly"),
        }
    };
    producer.join().unwrap();

    match &error {
        StbError::Truncated { offset, context } => {
            assert_eq!(*offset, cut as u64, "offset names where bytes ran out");
            assert!(!context.is_empty());
        }
        other => panic!("expected Truncated, got {other}"),
    }

    // Only the wounded session is affected — and even it finishes cleanly
    // on the prefix it saw; the healthy session analyzes the full trace
    // unperturbed.
    let _ = wounded.finish();
    healthy.feed_trace(&trace).expect("full trace");
    let outcome = healthy.finish_one();
    assert_eq!(
        outcome.report,
        smarttrack::analyze(&trace, "st-wdc".parse::<AnalysisConfig>().unwrap()).report,
        "an unrelated session must not observe the disconnect"
    );
}

/// The reader buffers one chunk at a time: a stream much larger than any
/// reasonable buffer decodes over a pipe without materializing the whole
/// input (regression guard against accidental `read_to_end`).
#[test]
fn stb_reader_streams_chunk_by_chunk_over_a_pipe() {
    let trace = RandomTraceSpec {
        threads: 4,
        events: 20_000,
        vars: 64,
        locks: 4,
        ..RandomTraceSpec::default()
    }
    .generate(11);
    let bytes = stb_bytes(&trace);
    let (reader_end, writer_end) = std::io::pipe().expect("pipe");
    // An OS pipe holds ~64 KiB; a reader that tried to slurp the input
    // before yielding events would deadlock against this blocking
    // producer, because we only consume as we go.
    let producer = drip(writer_end, bytes, 4096);
    let mut count = 0usize;
    for event in StbReader::new(reader_end).expect("header") {
        event.expect("well-formed stream");
        count += 1;
    }
    assert_eq!(count, trace.len());
    producer.join().unwrap();
}

/// A small random lock trace over 2 to 4 threads.
fn arb_trace(rng: &mut SmallRng) -> Trace {
    RandomTraceSpec {
        threads: rng.gen_range(2u32..5),
        events: rng.gen_range(40usize..160),
        vars: 4,
        locks: 2,
        acquire_prob: 0.15,
        release_prob: 0.2,
        ..RandomTraceSpec::default()
    }
    .generate(rng.gen())
}

/// Pushing the same bytes into `StbAssembler` at arbitrary split
/// granularity yields exactly `StbReader`'s events, on 16 seeded cases.
#[test]
fn assembler_equals_reader_on_random_traces() {
    for case in 0..16 {
        let rng = &mut SmallRng::seed_from_u64(case);
        let trace = arb_trace(rng);
        let step = rng.gen_range(1usize..97);
        let bytes = stb_bytes(&trace);
        let what = format!("case {case}: step {step}");
        let reader_events: Vec<_> = StbReader::new(&bytes[..])
            .and_then(|reader| reader.collect::<Result<_, _>>())
            .unwrap_or_else(|e| panic!("{what}: the reader fails: {e}"));

        let mut asm = StbAssembler::new();
        let mut asm_events = Vec::new();
        for piece in bytes.chunks(step) {
            let pushed = asm.push(piece);
            pushed.unwrap_or_else(|e| panic!("{what}: the assembler fails: {e}"));
            while let Some(event) = asm.next_event() {
                asm_events.push(event);
            }
        }
        let total = asm
            .close()
            .unwrap_or_else(|e| panic!("{what}: close fails: {e}"));
        assert_eq!(total, reader_events.len() as u64, "{what}");
        assert_eq!(asm_events, reader_events, "{what}");
    }
}

/// A random cut point never panics either decoder and always produces an
/// error (no silent truncation) whose offset is within the stream, on 16
/// seeded cases.
#[test]
fn random_cuts_fail_precisely_not_loudly() {
    for case in 0..16 {
        let rng = &mut SmallRng::seed_from_u64(case);
        let trace = arb_trace(rng);
        let cut_seed: u64 = rng.gen();
        let bytes = stb_bytes(&trace);
        let cut = (cut_seed % bytes.len() as u64) as usize;

        let reader_result: Result<Vec<_>, _> = match StbReader::new(&bytes[..cut]) {
            Ok(reader) => reader.collect(),
            Err(e) => Err(e),
        };
        assert!(
            reader_result.is_err(),
            "case {case}: cut at {cut} must fail"
        );

        let mut asm = StbAssembler::new();
        let asm_result = asm
            .push(&bytes[..cut])
            .and_then(|()| asm.close().map(|_| ()));
        let Err(error) = asm_result else {
            panic!("case {case}: the assembler must fail on a stream cut at {cut}");
        };
        if let StbError::Truncated { offset, .. } = error {
            assert!(
                offset <= cut as u64,
                "case {case}: offset {offset} past the cut {cut}"
            );
        }
    }
}

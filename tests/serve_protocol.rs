//! Serve protocol fuzz battery.
//!
//! A public-facing framed protocol must treat the wire as hostile: every
//! truncation, bit flip, oversized length prefix, garbage hello, and
//! out-of-place frame has to produce a clean protocol error on that one
//! connection — never a panic, a hang, or a poisoned worker. Each case
//! here throws malformed bytes at a live server and then proves the
//! server still analyzes correctly for a well-behaved client
//! (mirroring the corruption battery in `stb_compat.rs`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smarttrack::AnalysisConfig;
use smarttrack_serve::{
    protocol::{encode_frame, Frame, QueryKind, MAX_FRAME_BYTES, PROTOCOL_VERSION},
    ServeClient, Server, ServerConfig,
};
use smarttrack_trace::paper;

fn test_server() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            analyses: vec!["st-wdc".parse::<AnalysisConfig>().unwrap()],
            workers: Some(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind test server")
}

/// Proves the server is alive and sane: a fresh well-behaved client
/// streams figure1 and gets the full report back.
fn assert_server_live(server: &Server, tag: &str) {
    let trace = paper::figure1();
    let mut client = ServeClient::connect(
        server.local_addr(),
        "fuzz-liveness",
        &format!("ok-{tag}"),
        false,
    )
    .unwrap_or_else(|e| panic!("server dead after {tag}: {e}"));
    let streamed = client.stream_trace(&trace, 7);
    streamed.unwrap_or_else(|e| panic!("stream after {tag}: {e}"));
    let report = client
        .finish()
        .unwrap_or_else(|e| panic!("finish after {tag}: {e}"));
    assert_eq!(report.events, trace.len() as u64, "after {tag}");
    assert_eq!(report.lanes.len(), 1, "after {tag}");
}

/// Writes raw bytes at the server and drains whatever comes back until
/// the server closes or goes quiet. Returns the reply bytes.
fn poke(server: &Server, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(150)))
        .unwrap();
    // The server may close mid-write on garbage; that's fine.
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    reply
}

/// A valid one-session conversation: hello, the trace in small data
/// frames, a query, finish.
fn good_conversation(session: &str) -> Vec<u8> {
    conversation_for(session, &paper::figure1())
}

fn conversation_for(session: &str, trace: &smarttrack_trace::Trace) -> Vec<u8> {
    let mut bytes = encode_frame(&Frame::Hello {
        version: PROTOCOL_VERSION,
        resume: false,
        tenant: "fuzz".to_string(),
        session: session.to_string(),
    });
    let stb = smarttrack_trace::binary::to_stb_bytes(trace);
    for piece in stb.chunks(5) {
        bytes.extend_from_slice(&encode_frame(&Frame::Data(piece.to_vec())));
    }
    bytes.extend_from_slice(&encode_frame(&Frame::Query(QueryKind::Races)));
    bytes.extend_from_slice(&encode_frame(&Frame::Finish));
    bytes
}

/// A deterministic trace carrying every v3 STB tag — read-mode and
/// write-mode rwlock acquires plus failed trylocks, including a
/// self-held upgrade probe — so its binary stream pins the v3 wire
/// format end to end.
fn v3_trace() -> smarttrack_trace::Trace {
    use smarttrack_trace::{LockId, Op, ThreadId, TraceBuilder, VarId};
    let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
    let (r, x) = (LockId::new(0), VarId::new(0));
    let mut b = TraceBuilder::new();
    b.push(t0, Op::AcqRead(r)).unwrap();
    b.push(t0, Op::Read(x)).unwrap();
    b.push(t0, Op::TryAcqFail(r)).unwrap(); // self-held upgrade probe
    b.push(t1, Op::AcqRead(r)).unwrap();
    b.push(t1, Op::Read(x)).unwrap();
    b.push(t1, Op::Release(r)).unwrap();
    b.push(t0, Op::Release(r)).unwrap();
    b.push(t1, Op::AcqWrite(r)).unwrap();
    b.push(t1, Op::Write(x)).unwrap();
    b.push(t1, Op::Release(r)).unwrap();
    b.push(t0, Op::TryAcqFail(r)).unwrap();
    b.finish()
}

#[test]
fn garbage_hellos_get_a_clean_error_and_leave_the_server_up() {
    let server = test_server();
    let cases: &[&[u8]] = &[
        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
        b"\x00\x00\x00\x00\x00",
        b"\x89STB\x01\x01",                 // an STB header is not a frame
        &[0x01, 0xff, 0xff, 0xff],          // hello type, truncated length
        &[0x42, 0x04, 0, 0, 0, 1, 2, 3, 4], // unknown frame type
        &[0x81, 0x00, 0, 0, 0],             // server-originated type from client
    ];
    for (i, case) in cases.iter().enumerate() {
        poke(&server, case);
        assert_server_live(&server, &format!("garbage-{i}"));
    }
}

#[test]
fn wrong_protocol_version_is_refused_politely() {
    let server = test_server();
    let hello = encode_frame(&Frame::Hello {
        version: PROTOCOL_VERSION + 9,
        resume: false,
        tenant: "fuzz".to_string(),
        session: "v9".to_string(),
    });
    let reply = poke(&server, &hello);
    // The reply must itself be a well-formed Error frame.
    let (frame, _) = smarttrack_serve::protocol::decode_frame(&reply)
        .expect("reply decodes")
        .expect("reply is complete");
    match frame {
        Frame::Error { message, .. } => assert!(message.contains("version")),
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert_server_live(&server, "bad-version");
}

#[test]
fn oversized_length_prefixes_are_rejected_without_allocation() {
    let server = test_server();
    // Frame header claiming a payload just over the cap, and one claiming
    // u32::MAX; a naive server would try to allocate 4 GiB.
    for huge in [MAX_FRAME_BYTES + 1, u32::MAX] {
        let mut bytes = vec![0x02]; // data frame type
        bytes.extend_from_slice(&huge.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        poke(&server, &bytes);
        assert_server_live(&server, &format!("oversized-{huge}"));
    }
}

#[test]
fn every_truncation_of_a_valid_conversation_is_survivable() {
    let server = test_server();
    let conversation = good_conversation("trunc");
    // Every cut that lands inside the first few frames, then a coarser
    // stride across the rest — each truncated prefix is one connection
    // that drops mid-protocol.
    let mut cuts: Vec<usize> = (0..conversation.len().min(40)).collect();
    cuts.extend((40..conversation.len()).step_by(17));
    for cut in cuts {
        poke(&server, &conversation[..cut]);
    }
    assert_server_live(&server, "truncations");
}

#[test]
fn every_truncation_of_a_v3_conversation_is_survivable() {
    // Same sweep as above, but the payload carries every v3 STB tag
    // (acqr/acqw/tryf), so cuts land inside v3-encoded events too.
    let server = test_server();
    let conversation = conversation_for("trunc-v3", &v3_trace());
    let mut cuts: Vec<usize> = (0..conversation.len().min(40)).collect();
    cuts.extend((40..conversation.len()).step_by(13));
    for cut in cuts {
        poke(&server, &conversation[..cut]);
    }
    assert_server_live(&server, "truncations-v3");
}

#[test]
fn detach_and_resume_across_a_pinned_v3_stream_keeps_decoding() {
    // A session whose already-ingested Data frames carry v3 tags must
    // keep decoding after a detach/resume: the decoder state pinned to
    // the v3 stream (including a chunk cut in half across the detach)
    // survives the reattach. The server also runs the syncp extension
    // lane, so `--analysis syncp` serving is exercised end to end.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            analyses: vec![
                "st-wdc".parse::<AnalysisConfig>().unwrap(),
                "syncp".parse::<AnalysisConfig>().unwrap(),
            ],
            workers: Some(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind test server");
    let addr = server.local_addr();
    let trace = v3_trace();
    let stb = smarttrack_trace::binary::to_stb_bytes(&trace);
    let half = stb.len() / 2;

    let mut first = ServeClient::connect(addr, "fuzz", "v3-resume", false).expect("connect");
    first.stream_bytes(&stb[..half], 16).expect("first half");
    first.detach().expect("detach");
    drop(first);

    // The server processes the detach asynchronously; retry briefly if
    // the reconnect races ahead of it.
    let mut second = {
        let mut attempt = 0;
        loop {
            match ServeClient::connect(addr, "fuzz", "v3-resume", true) {
                Ok(client) => break client,
                Err(smarttrack_serve::ClientError::Server {
                    code: smarttrack_serve::ErrorCode::SessionAttached,
                    ..
                }) if attempt < 200 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("reconnect: {e}"),
            }
        }
    };
    assert!(second.resumed(), "hello with resume reattaches");
    second.stream_bytes(&stb[half..], 16).expect("second half");
    let report = second.finish().expect("finish");
    assert_eq!(report.events, trace.len() as u64);
    assert_eq!(report.lanes.len(), 2);
    for lane in &report.lanes {
        let config: AnalysisConfig = lane.config.parse().expect("lane config");
        let offline = smarttrack::analyze(&trace, config);
        assert_eq!(
            lane.static_count as usize,
            offline.report.static_count(),
            "lane {} must match offline across the resume",
            lane.name
        );
    }
    server.shutdown();
}

#[test]
fn queries_mid_chunk_answer_from_live_session_state() {
    let server = test_server();
    let trace = paper::figure2();
    let stb = smarttrack_trace::binary::to_stb_bytes(&trace);
    let mut client =
        ServeClient::connect(server.local_addr(), "fuzz", "mid-chunk", false).expect("connect");

    // Send roughly half the stream — deliberately cutting inside an STB
    // chunk — then query while the session is mid-decode.
    let half = stb.len() / 2;
    client.send_chunk(&stb[..half]).expect("first half");
    let snapshot = client.query_snapshot().expect("snapshot mid-chunk");
    assert_eq!(snapshot.lanes.len(), 1);
    let races_so_far = client.query_races().expect("races mid-chunk");
    assert!(races_so_far.events <= trace.len() as u64);

    client.send_chunk(&stb[half..]).expect("second half");
    let report = client.finish().expect("finish");
    assert_eq!(report.events, trace.len() as u64);

    let offline = smarttrack::analyze(&trace, "st-wdc".parse::<AnalysisConfig>().unwrap());
    assert_eq!(
        report.lanes[0].races.len(),
        offline.report.races().len(),
        "split-mid-chunk stream must analyze identically to offline"
    );
}

/// LEB128, as the STB chunk framing encodes its length and count fields.
fn varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A valid STB header (v1, no hint) to hang hostile chunk framing off.
fn stb_header() -> Vec<u8> {
    vec![0x89, b'S', b'T', b'B', 0x01, 0x00]
}

#[test]
fn absurd_stb_event_counts_fail_the_session_not_the_server() {
    // A ~20-byte data frame whose STB chunk declares 2^40 events. Before
    // the decoder validated the count, this made `Vec::with_capacity`
    // request terabytes — an allocator *abort* (SIGABRT) that no
    // catch_unwind contains, killing the daemon and every tenant on it.
    let server = test_server();
    let mut stb = stb_header();
    varint(8, &mut stb); // chunk payload length: 8 bytes
    varint(1 << 40, &mut stb); // declared event count: ~10^12
    stb.extend_from_slice(&[0u8; 8]); // the 8 payload bytes

    let mut client =
        ServeClient::connect(server.local_addr(), "fuzz", "count-bomb", false).expect("connect");
    let failed = client.send_chunk(&stb).is_err() || client.finish().is_err();
    assert!(failed, "an absurd event count must fail its session");
    assert_server_live(&server, "count-bomb");
}

#[test]
fn chunks_beyond_the_server_chunk_cap_fail_the_session_not_the_server() {
    // The STB format allows 64 MiB chunks, all of which must buffer
    // contiguously before decoding; a serving daemon caps the declared
    // size (`max_chunk_bytes`) so one stream cannot pin a reassembly
    // buffer far beyond its ingest budget. The rejection happens when
    // the length prefix parses — no payload is ever buffered.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            analyses: vec!["st-wdc".parse::<AnalysisConfig>().unwrap()],
            workers: Some(2),
            max_chunk_bytes: 1024,
            ..ServerConfig::default()
        },
    )
    .expect("bind test server");
    let mut stb = stb_header();
    varint(60 << 20, &mut stb); // declared chunk: 60 MiB, legal STB

    let mut client =
        ServeClient::connect(server.local_addr(), "fuzz", "fat-chunk", false).expect("connect");
    let failed = client.send_chunk(&stb).is_err() || client.finish().is_err();
    assert!(
        failed,
        "a chunk beyond the server cap must fail its session"
    );
    assert_server_live(&server, "fat-chunk");
}

#[test]
fn corrupt_stb_payload_fails_the_session_not_the_server() {
    let server = test_server();
    let mut stb = smarttrack_trace::binary::to_stb_bytes(&paper::figure1());
    // Trash the magic so the assembler rejects the stream immediately.
    stb[0] ^= 0xff;
    let mut client =
        ServeClient::connect(server.local_addr(), "fuzz", "corrupt", false).expect("connect");
    // The data frame itself is well-formed protocol; the error surfaces
    // on a later exchange once the worker has seen the bytes.
    let failed = client.send_chunk(&stb).is_err()
        || client.query_snapshot().is_err()
        || client.finish().is_err();
    assert!(failed, "a corrupt STB stream must fail its session");
    assert_server_live(&server, "corrupt-stb");
}

#[test]
fn contradicting_stb_hint_fails_the_session_not_the_server() {
    use smarttrack_serve::{protocol::ErrorCode, ClientError};
    use smarttrack_trace::binary::{StbHint, StbWriter};
    let server = test_server();
    let trace = smarttrack_trace::gen::RandomTraceSpec::default().generate(3);
    for declared in [trace.len() + 1, trace.len() - 1] {
        let hint = StbHint {
            events: declared as u64,
            ..StbHint::of_trace(&trace)
        };
        let mut writer = StbWriter::with_hint(Vec::new(), hint);
        for event in trace.events() {
            writer.write(event).unwrap();
        }
        let stb = writer.finish().unwrap();
        let tag = format!("hint-{declared}");
        let mut client =
            ServeClient::connect(server.local_addr(), "fuzz", &tag, false).expect("connect");
        let error = client
            .send_chunk(&stb)
            .err()
            .or_else(|| client.query_snapshot().err())
            .or_else(|| client.finish().err())
            .expect("a contradicting hint must fail its session");
        assert!(
            matches!(
                &error,
                ClientError::Server {
                    code: ErrorCode::StreamFailed,
                    ..
                }
            ),
            "{tag}: {error}"
        );
        assert_server_live(&server, &tag);
    }
}

#[test]
fn corrupt_stb_on_an_osr_lane_fails_the_session_not_the_server() {
    // The OSR row buffers the whole stream (O(events)) behind the same
    // session ingest path as every other lane, so hostile bytes must die
    // at the decoder *before* the reversal machinery sees them — one
    // failed session, never a poisoned worker. Afterwards a well-behaved
    // client on the same server must still get the reversal race back.
    use smarttrack_trace::{LockId, Op, ThreadId, TraceBuilder, VarId};
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            analyses: vec!["osr".parse::<AnalysisConfig>().unwrap()],
            workers: Some(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind osr server");

    let (m, x, y) = (LockId::new(0), VarId::new(0), VarId::new(1));
    let t = ThreadId::new;
    let mut b = TraceBuilder::new();
    b.push(t(0), Op::Acquire(m)).unwrap();
    b.push(t(0), Op::Write(y)).unwrap();
    b.push(t(0), Op::Write(x)).unwrap();
    b.push(t(0), Op::Release(m)).unwrap();
    b.push(t(1), Op::Acquire(m)).unwrap();
    b.push(t(1), Op::Write(y)).unwrap();
    b.push(t(1), Op::Release(m)).unwrap();
    b.push(t(1), Op::Write(x)).unwrap();
    let reversal = b.finish();

    let mut stb = smarttrack_trace::binary::to_stb_bytes(&reversal);
    // Trash a payload byte mid-stream so decoding fails after ingest began.
    let idx = stb.len() / 2;
    stb[idx] ^= 0xff;
    let mut client =
        ServeClient::connect(server.local_addr(), "fuzz", "osr-corrupt", false).expect("connect");
    let failed = client.send_chunk(&stb).is_err()
        || client.query_snapshot().is_err()
        || client.finish().is_err();
    assert!(failed, "a corrupt STB stream must fail its osr session");

    let mut clean =
        ServeClient::connect(server.local_addr(), "fuzz", "osr-clean", false).expect("reconnect");
    clean.stream_trace(&reversal, 7).expect("stream");
    let report = clean.finish().expect("finish");
    assert_eq!(report.events, reversal.len() as u64, "after osr-corrupt");
    assert_eq!(report.lanes.len(), 1, "after osr-corrupt");
    assert_eq!(
        report.lanes[0].races.len(),
        1,
        "the osr lane must still see the reversal race after a failed session"
    );
    assert_eq!(report.lanes[0].races[0].event, 7);
    server.shutdown();
}

/// Random bit flips anywhere in a valid conversation, on 12 seeded cases:
/// the connection may fail any way it likes, the server may not. Odd tags
/// flip a conversation whose payload carries every v3 STB tag.
#[test]
fn bit_flips_never_kill_the_server() {
    for case in 0..12 {
        let rng = &mut SmallRng::seed_from_u64(case);
        let (byte_idx, bit) = (rng.gen_range(0usize..400), rng.gen_range(0u8..8));
        let tag = rng.gen_range(0u32..1000);
        let server = test_server();
        let mut conversation = if tag % 2 == 0 {
            good_conversation(&format!("flip-{tag}"))
        } else {
            conversation_for(&format!("flip-{tag}"), &v3_trace())
        };
        let idx = byte_idx % conversation.len();
        conversation[idx] ^= 1 << bit;
        poke(&server, &conversation);
        assert_server_live(&server, &format!("case-{case}-flip-{idx}-{bit}"));
    }
}

/// Pure random byte blobs as the opening bytes of a connection, on 12
/// seeded cases.
#[test]
fn random_blobs_never_kill_the_server() {
    for case in 0..12 {
        let rng = &mut SmallRng::seed_from_u64(case);
        let len = rng.gen_range(1usize..300);
        let blob: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let server = test_server();
        poke(&server, &blob);
        assert_server_live(&server, &format!("case-{case}-blob"));
    }
}

//! serve-live: generated traces streamed over loopback to an in-process
//! serve daemon, first in a closed loop (throughput), then in an open loop
//! at a fixed offered rate (race-push and report latency).
//!
//! The client is the benchmark's own, written against the public protocol
//! codec (`encode_frame` / `FrameBuf`) so it can timestamp every frame.
//! Each connection is stop-and-wait: one request frame in flight, and Race
//! frames read (and timestamped) whenever it waits.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use smarttrack::{AccessKind, RaceReport};
use smarttrack_serve::protocol::{encode_frame, FrameBuf, DEFAULT_DATA_CHUNK};
use smarttrack_serve::{Frame, Server, ServerConfig, WireRace, WireReport, PROTOCOL_VERSION};

use crate::inputs::{prepare, Input, Prepared, Spec, SERVE_CONNECTIONS};
use crate::metrics::{Metric, WorkloadResult};
use crate::offline::{latency_metric, layer_metrics, peak_rss_mb, summary_metric, Options};
use crate::stats::{median, percentile};

const TENANT: &str = "benchmark";

/// Shares of the run length the phases take: the closed loop (at least one
/// round per input), then the open loop.
const CLOSED_SHARE: f64 = 0.3;
const OPEN_SHARE: f64 = 0.6;

/// One input as the client streams it.
struct Wire<'a> {
    input: &'a Input,
    /// The input as a bulk client sends it (closed loop): Data frames of
    /// up to the protocol's recommended payload.
    bulk: Vec<DataFrame>,
    /// The input as a live producer sends it (open loop): one Data frame
    /// per STB chunk, as each chunk fills.
    live: Vec<DataFrame>,
    /// Per lane: the reference races as the server would send them, sorted,
    /// and the reference's static count.
    expected: Vec<(Vec<WireRace>, u32)>,
}

/// One encoded Data frame and the events its chunks hold, counted from
/// the start of the stream.
struct DataFrame {
    bytes: Vec<u8>,
    end_event: u64,
}

/// Packs whole STB chunks into Data frames of at most `max_bytes` (one
/// chunk if a chunk is larger).
fn data_frames(input: &Input, max_bytes: usize) -> Vec<DataFrame> {
    let mut frames: Vec<DataFrame> = Vec::new();
    let mut start = 0;
    for (i, chunk) in input.chunks.iter().enumerate() {
        let next_fits = input
            .chunks
            .get(i + 1)
            .is_some_and(|next| next.bytes.end - start <= max_bytes);
        if !next_fits {
            frames.push(DataFrame {
                bytes: encode_frame(&Frame::Data(input.stb[start..chunk.bytes.end].to_vec())),
                end_event: chunk.end_event,
            });
            start = chunk.bytes.end;
        }
    }
    frames
}

fn wire_race(lane: u16, race: &RaceReport) -> WireRace {
    WireRace {
        lane,
        event: race.event.raw(),
        loc: race.loc.raw(),
        tid: race.tid.raw(),
        var: race.var.raw(),
        write: matches!(race.kind, AccessKind::Write),
        prior_tids: race.prior_threads.iter().map(|t| t.raw()).collect(),
    }
}

fn wires(prepared: &Prepared) -> Vec<Wire<'_>> {
    prepared
        .inputs
        .iter()
        .map(|input| Wire {
            input,
            bulk: data_frames(input, DEFAULT_DATA_CHUNK),
            live: data_frames(input, 0),
            expected: input
                .reference
                .iter()
                .enumerate()
                .map(|(lane, report)| {
                    let mut races: Vec<WireRace> = report
                        .races()
                        .iter()
                        .map(|r| wire_race(lane as u16, r))
                        .collect();
                    races.sort();
                    (races, report.static_count() as u32)
                })
                .collect(),
        })
        .collect()
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    buf: Vec<u8>,
    /// When the bytes of the frames now in `frames` arrived.
    read_at: Instant,
    timeout: Option<Duration>,
    /// Race frames received since the session began, with arrival times.
    pushed: Vec<(WireRace, Instant)>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn {
            stream,
            frames: FrameBuf::new(),
            buf: vec![0; 64 * 1024],
            read_at: Instant::now(),
            timeout: None,
            pushed: Vec::new(),
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// The next frame other than a Race, with its arrival time; `None` if
    /// `until` passes first. Race frames are collected on the way.
    fn next(&mut self, until: Option<Instant>) -> Result<Option<(Frame, Instant)>, String> {
        loop {
            match self.frames.next_frame().map_err(|e| e.to_string())? {
                Some(Frame::Race(race)) => {
                    self.pushed.push((race, self.read_at));
                    continue;
                }
                Some(frame) => return Ok(Some((frame, self.read_at))),
                None => {}
            }
            let timeout = match until {
                None => None,
                Some(until) => match until.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return Ok(None),
                },
            };
            if timeout != self.timeout {
                self.stream
                    .set_read_timeout(timeout)
                    .map_err(|e| format!("read timeout: {e}"))?;
                self.timeout = timeout;
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("the server closed the connection".into()),
                Ok(n) => {
                    self.read_at = Instant::now();
                    self.frames.push(&self.buf[..n]);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }

    /// Reads Race frames until `at`.
    fn wait_until(&mut self, at: Instant) -> Result<(), String> {
        match self.next(Some(at))? {
            None => Ok(()),
            Some((frame, _)) => Err(format!("unexpected {frame:?} while idle")),
        }
    }

    /// The reply to the request just sent.
    fn reply(&mut self) -> Result<(Frame, Instant), String> {
        Ok(self.next(None)?.expect("a blocking read waits for a frame"))
    }
}

/// When an open-loop connection's frames are due: a fixed event rate from
/// a fixed start, whatever the server does.
struct Schedule {
    start: Instant,
    secs_per_event: f64,
    /// Events scheduled by earlier sessions on this connection.
    events: u64,
}

impl Schedule {
    fn at(&self, event: u64) -> Instant {
        self.start + Duration::from_secs_f64((self.events + event) as f64 * self.secs_per_event)
    }
}

/// What one session observed.
#[derive(Default)]
struct SessionLog {
    handshake_ms: f64,
    ack_us: Vec<f64>,
    data_frames: u64,
    busy: u64,
    lag_ms: Vec<f64>,
    report_ms: f64,
    push_ms: Vec<f64>,
    reported: u64,
    pushed: u64,
    failures: Vec<String>,
    /// Open loop: the session's index on its connection. The sessions of
    /// one index, one per connection, form a group holding one xalan and
    /// one avrora session.
    group: usize,
}

/// Streams one input as one session.
fn drive_session(
    conn: &mut Conn,
    session: String,
    wire: &Wire<'_>,
    schedule: Option<&mut Schedule>,
) -> Result<SessionLog, String> {
    let input = wire.input;
    let mut log = SessionLog::default();
    conn.pushed.clear();
    if let Some(s) = schedule.as_deref() {
        conn.wait_until(s.at(0))?;
    }
    let hello = encode_frame(&Frame::Hello {
        version: PROTOCOL_VERSION,
        resume: false,
        tenant: TENANT.to_string(),
        session: session.clone(),
    });
    let sent = Instant::now();
    conn.send(&hello)?;
    match conn.reply()? {
        (Frame::Welcome { .. }, at) => log.handshake_ms = ms(at - sent),
        (other, _) => return Err(format!("{session}: expected Welcome, got {other:?}")),
    }
    let frames = if schedule.is_some() {
        &wire.live
    } else {
        &wire.bulk
    };
    let mut due = Vec::with_capacity(frames.len());
    let mut before = 0u64;
    for frame in frames {
        if let Some(s) = schedule.as_deref() {
            let at = s.at(before);
            conn.wait_until(at)?;
            log.lag_ms
                .push(ms(Instant::now().saturating_duration_since(at)));
            due.push(at);
        }
        before = frame.end_event;
        let mut backoff = Duration::from_micros(200);
        loop {
            let sent = Instant::now();
            conn.send(&frame.bytes)?;
            log.data_frames += 1;
            match conn.reply()? {
                (Frame::Ack { .. }, at) => {
                    log.ack_us.push((at - sent).as_secs_f64() * 1e6);
                    break;
                }
                (Frame::Busy { .. }, _) => {
                    // The frame was dropped: back off and resend it. An
                    // open loop retries at once and shows up as lag.
                    log.busy += 1;
                    if schedule.is_none() {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(50));
                    }
                }
                (other, _) => return Err(format!("{session}: expected Ack, got {other:?}")),
            }
        }
    }
    if let Some(s) = schedule {
        s.events += input.events as u64;
    }
    let sent = Instant::now();
    conn.send(&encode_frame(&Frame::Finish))?;
    let report = match conn.reply()? {
        (Frame::Report(report), at) => {
            log.report_ms = ms(at - sent);
            report
        }
        (other, _) => return Err(format!("{session}: expected Report, got {other:?}")),
    };
    log.failures = check_report(&session, wire, &report, &conn.pushed);
    log.reported = report.lanes.iter().map(|l| l.races.len() as u64).sum();
    log.pushed = conn.pushed.len() as u64;
    for (race, at) in &conn.pushed {
        let frame = frames.partition_point(|f| f.end_event <= u64::from(race.event));
        if let Some(&at_due) = due.get(frame) {
            log.push_ms.push(ms(at.saturating_duration_since(at_due)));
        }
    }
    Ok(log)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The session's report must match offline analysis race for race, and
/// every pushed race must be in it.
fn check_report(
    session: &str,
    wire: &Wire<'_>,
    report: &WireReport,
    pushed: &[(WireRace, Instant)],
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.events != wire.input.events as u64 {
        failures.push(format!(
            "{session}: report covers {} events, the trace has {}",
            report.events, wire.input.events
        ));
    }
    if report.lanes.len() != wire.expected.len() {
        failures.push(format!(
            "{session}: {} lanes reported, {} expected",
            report.lanes.len(),
            wire.expected.len()
        ));
        return failures;
    }
    let mut got: Vec<Vec<WireRace>> = Vec::new();
    for (lane, (want, want_static)) in report.lanes.iter().zip(&wire.expected) {
        let mut races = lane.races.clone();
        races.sort();
        if &races != want || lane.static_count != *want_static {
            failures.push(format!(
                "{session}: {} reported {} races ({} static); offline analysis has {} ({})",
                lane.name,
                races.len(),
                lane.static_count,
                want.len(),
                want_static
            ));
        }
        got.push(races);
    }
    for (race, _) in pushed {
        let known = got
            .get(race.lane as usize)
            .is_some_and(|races| races.binary_search(race).is_ok());
        if !known {
            failures.push(format!(
                "{session}: pushed race at event {} on lane {} is missing from the report",
                race.event, race.lane
            ));
        }
    }
    failures
}

/// How long the client runs each phase.
struct Plan {
    /// The closed loop runs at least this many rounds, and until
    /// `closed_seconds` have passed.
    closed_rounds: usize,
    closed_seconds: f64,
    /// Open-loop offered rate (events per second) and length (seconds).
    open: Option<(f64, f64)>,
}

/// What the client observed.
#[derive(Default)]
struct Phases {
    /// Events per second of each closed-loop round.
    rounds: Vec<f64>,
    closed: Vec<SessionLog>,
    open: Vec<SessionLog>,
    errors: Vec<String>,
}

/// Runs the client over one persistent connection per
/// `SERVE_CONNECTIONS`. Connection `c` owns inputs `c`, `c + 2`, ...: all
/// xalan on one, all avrora on the other.
///
/// Closed loop: a round streams one session on each connection in turn,
/// so one session is in flight at a time. On the reference host's two
/// vCPUs two concurrently busy workers got erratic parallelism, which made
/// a concurrent closed loop's throughput vary by a quarter from run to
/// run.
///
/// Open loop: each connection, on its own thread, streams its inputs with
/// frames due at `rate / SERVE_CONNECTIONS` events per second. Sessions are
/// equally long, and each connection starts half a session after the one
/// before it, so the connections open sessions in turn (the daemon's
/// round-robin then keeps each on its own worker) and never finish at the
/// same moment. No session starts once the phase is over.
fn run_phases(addr: SocketAddr, wires: &[Wire<'_>], plan: &Plan) -> Phases {
    let mut out = Phases::default();
    let mut conns: Vec<Option<Conn>> = (0..SERVE_CONNECTIONS)
        .map(|_| Conn::connect(addr).map_err(|e| out.errors.push(e)).ok())
        .collect();
    let owned = |c: usize, i: usize| &wires[(i * SERVE_CONNECTIONS + c) % wires.len()];

    let deadline = Instant::now() + Duration::from_secs_f64(plan.closed_seconds);
    let mut r = 0;
    while r < plan.closed_rounds || Instant::now() < deadline {
        let started = Instant::now();
        let mut events = 0;
        for (c, conn) in conns.iter_mut().enumerate() {
            let Some(live) = conn.as_mut() else { continue };
            let wire = owned(c, r);
            match drive_session(live, format!("closed-{r}-{c}"), wire, None) {
                Ok(log) => {
                    events += wire.input.events;
                    out.closed.push(log);
                }
                Err(e) => {
                    out.errors.push(e);
                    *conn = None;
                }
            }
        }
        out.rounds
            .push(events as f64 / started.elapsed().as_secs_f64());
        r += 1;
    }

    let Some((rate, seconds)) = plan.open else {
        return out;
    };
    let secs_per_event = SERVE_CONNECTIONS as f64 / rate;
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);
    let offset = |c: usize| {
        let half = owned(0, 0).input.events as f64 * secs_per_event / 2.0;
        Duration::from_secs_f64(half * c as f64 / (SERVE_CONNECTIONS - 1).max(1) as f64)
    };
    let logs: Vec<(Vec<SessionLog>, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .filter_map(|(c, conn)| conn.map(|conn| (c, conn)))
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    let mut schedule = Schedule {
                        start: start + offset(c),
                        secs_per_event,
                        events: 0,
                    };
                    let mut logs = Vec::new();
                    for i in 0.. {
                        if schedule.at(0) >= end {
                            break;
                        }
                        let session = format!("open-{c}-{i}");
                        match drive_session(&mut conn, session, owned(c, i), Some(&mut schedule)) {
                            Ok(mut log) => {
                                log.group = i;
                                logs.push(log);
                            }
                            Err(e) => return (logs, Some(e)),
                        }
                    }
                    (logs, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for (l, e) in logs {
        out.open.extend(l);
        out.errors.extend(e);
    }
    out
}

fn check_logs(result: &mut WorkloadResult, phases: &Phases) {
    for log in phases.closed.iter().chain(&phases.open) {
        result.check(log.failures.clone());
    }
    for e in &phases.errors {
        result.check(vec![e.clone()]);
    }
}

fn bind() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: Some(SERVE_CONNECTIONS),
            ..ServerConfig::default()
        },
    )
    .expect("bind the in-process daemon on loopback")
}

/// Checks the daemon runs the lanes the references were computed for.
fn check_lanes(spec: &Spec, server: &Server) -> Vec<String> {
    let served: Vec<String> = server
        .lanes()
        .iter()
        .map(|l| l.config.to_lowercase())
        .collect();
    if served == spec.lanes {
        Vec::new()
    } else {
        vec![format!(
            "the daemon runs {served:?}, the references {:?}",
            spec.lanes
        )]
    }
}

/// One timed set-up: inputs, references, a bound daemon, and a warm-up
/// closed-loop round.
fn setup(spec: &Spec, seed: u64, result: &mut WorkloadResult) -> (Prepared, Server, f64) {
    let started = Instant::now();
    let prepared = prepare(spec, seed);
    let server = bind();
    let lanes = check_lanes(spec, &server);
    let wires = wires(&prepared);
    let warm = run_phases(
        server.local_addr(),
        &wires,
        &Plan {
            closed_rounds: wires.len() / SERVE_CONNECTIONS,
            closed_seconds: 0.0,
            open: None,
        },
    );
    drop(wires);
    let setup_s = started.elapsed().as_secs_f64();
    result.check(lanes);
    check_logs(result, &warm);
    (prepared, server, setup_s)
}

/// Measures serve-live. Untraced: the end-to-end metrics. Traced: the
/// serve-layer metrics from the same phases, plus the trace and detect
/// layers from an offline replay of the same inputs.
pub fn run(spec: &Spec, seed: u64, opts: &Options, traced: bool) -> WorkloadResult {
    let mut result = WorkloadResult::new(spec.name, traced);
    let rate = spec
        .open_loop_rate
        .expect("serve-live has an open-loop rate");
    let (prepared, server, first_setup_s) = setup(spec, seed, &mut result);
    let addr = server.local_addr();
    let wires = wires(&prepared);
    let (closed_share, open_share) = if traced {
        (CLOSED_SHARE / 2.0, OPEN_SHARE / 2.0)
    } else {
        (CLOSED_SHARE, OPEN_SHARE)
    };

    let phases = run_phases(
        addr,
        &wires,
        &Plan {
            closed_rounds: wires.len() / SERVE_CONNECTIONS,
            closed_seconds: opts.seconds * closed_share,
            open: Some((rate, opts.seconds * open_share)),
        },
    );
    check_logs(&mut result, &phases);
    drop(wires);
    server.shutdown();
    result.passes = phases.rounds.len();
    let Phases {
        rounds: events_per_s,
        closed,
        open,
        ..
    } = phases;

    if !traced {
        // Read before the extra set-ups, whose freed memory would linger
        // in allocator arenas and blur the measured phase's peak.
        let peak_rss = peak_rss_mb();
        drop(prepared);
        let mut setup_s = vec![first_setup_s];
        for _ in 1..opts.setups {
            let (_, server, s) = setup(spec, seed, &mut result);
            server.shutdown();
            setup_s.push(s);
        }
        // Open-loop sessions grouped by index, one xalan and one avrora
        // session each, so every group has the workload's mix. Latency
        // percentiles are per group; the report latency of a group is its
        // mean.
        let mut push = Vec::new();
        let mut report = Vec::new();
        for group in 0.. {
            let logs: Vec<&SessionLog> = open.iter().filter(|l| l.group == group).collect();
            if logs.len() < SERVE_CONNECTIONS {
                break;
            }
            push.push(
                logs.iter()
                    .flat_map(|l| l.push_ms.iter().copied())
                    .collect(),
            );
            report.push(logs.iter().map(|l| l.report_ms).sum::<f64>() / logs.len() as f64);
        }
        result.push(summary_metric("events_per_s", "1/s", &events_per_s));
        result.push(summary_metric("setup_s", "s", &setup_s));
        result.push(Metric::new("peak_rss_mb", "MiB", peak_rss));
        result.push(latency_metric("race_push_p50_ms", &push, 50.0));
        result.push(latency_metric("race_push_p99_ms", &push, 99.0));
        result.push(summary_metric("report_p50_ms", "ms", &report));
        return result;
    }

    let all = || closed.iter().chain(&open);
    let pooled = |f: fn(&SessionLog) -> Vec<f64>| -> Vec<f64> { all().flat_map(f).collect() };
    let mut lag: Vec<f64> = open.iter().flat_map(|l| l.lag_ms.clone()).collect();
    lag.sort_by(f64::total_cmp);
    let busy: u64 = all().map(|l| l.busy).sum();
    let frames: u64 = all().map(|l| l.data_frames).sum();
    let pushed: u64 = all().map(|l| l.pushed).sum();
    let reported: u64 = all().map(|l| l.reported).sum();
    result.push(Metric::new(
        "serve.ack_rtt_p50_us",
        "us",
        median(&pooled(|l| l.ack_us.clone())),
    ));
    result.push(Metric::new(
        "serve.busy_frac",
        "frac",
        busy as f64 / frames.max(1) as f64,
    ));
    result.push(Metric::new(
        "serve.handshake_p50_ms",
        "ms",
        median(&pooled(|l| vec![l.handshake_ms])),
    ));
    result.push(Metric::new(
        "serve.push_frac",
        "frac",
        pushed as f64 / reported.max(1) as f64,
    ));
    result.push(Metric::new(
        "serve.gen_lag_p99_ms",
        "ms",
        percentile(&lag, 99.0),
    ));
    result.push(Metric::new(
        "workloads.generate_s",
        "s",
        prepared.generate_s,
    ));
    result.push(Metric::new("trace.encode_s", "s", prepared.encode_s));
    let passes = result.passes;
    for metric in layer_metrics(
        spec,
        &prepared,
        opts.seconds * 0.5,
        opts.min_passes,
        &mut result,
    ) {
        result.push(metric);
    }
    result.passes = passes;
    result
}

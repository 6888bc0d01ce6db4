//! The serving daemon: many concurrent STB producers, one shared pool of
//! analysis workers.
//!
//! # Architecture
//!
//! Each accepted connection gets a **reader loop** (the accept thread
//! spawns it) and a **writer thread** (owns the socket's write half; every
//! outbound frame funnels through one bounded channel, so worker-pushed
//! race frames and reader-loop replies serialize without locking the
//! socket). Analysis runs on a fixed pool of **worker threads** sized by
//! [`worker_count`] — the same machinery as
//! [`EnginePool`](smarttrack_detect::EnginePool).
//!
//! A [`Session`] is not `Send` (detector lanes
//! hold unsynchronized state by design), so sessions are **owned by one
//! worker each**, assigned round-robin at open and sticky for their
//! lifetime; connections talk to them by message. Per-session byte
//! streams therefore replay in arrival order on one thread, which is what
//! makes server reports deterministic and independent of the worker
//! count. Each session decodes through an
//! [`StbAssembler`], so workers
//! never block on a socket: bytes in, events out.
//!
//! Ingest is bounded end to end: a per-session byte budget covers both
//! the worker's inbound channel and the assembler's reassembly buffer —
//! debited by the reader loop, re-measured by the worker after each
//! frame it digests — and a data frame that would overflow it is
//! **dropped** and answered with [`Frame::Busy`] (the client backs off
//! and resends). Declared STB chunks larger than
//! [`ServerConfig::max_chunk_bytes`] fail their session outright, so a
//! hostile stream cannot demand a 64 MiB reassembly buffer the budget
//! would never admit. Worst-case memory per session is therefore
//! `session_queue_bytes + max_chunk_bytes` plus one in-flight frame. A
//! slow *consumer* (a client not draining its race pushes) costs only
//! dropped race notices, never memory: pushes go through the bounded
//! writer channel with `try_send`.

use std::collections::HashMap;
use std::io::{BufWriter, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smarttrack_detect::{
    worker_count, AccessKind, AnalysisConfig, Engine, RaceNotice, RaceReport, Session,
    SessionSnapshot,
};
use smarttrack_trace::binary::StbAssembler;

use crate::protocol::{
    write_frame, ErrorCode, Frame, FrameBuf, LaneInfo, QueryKind, WireLane, WireLaneState,
    WireRace, WireReport, WireSnapshot, PROTOCOL_VERSION,
};

/// How often blocked reader loops and the housekeeper re-check shutdown
/// and idle state.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Sockets that make zero write progress for this long are declared dead,
/// so a stalled client cannot pin a writer thread past shutdown.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a race push waits for outbound-queue space before shedding.
/// A reading client drains the queue in microseconds, so an attached
/// consumer sees every notice; once a push times out the session is
/// marked degraded and later pushes drop immediately instead of each
/// paying this wait, so a stalled client costs one bounded stall total.
const PUSH_WAIT: Duration = Duration::from_millis(100);

/// Tuning for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The analysis lanes every session runs (deduplicated, in order).
    ///
    /// Note on `syncp` and `osr`: both extension rows buffer the trace,
    /// so their per-session state grows with the number of events
    /// streamed (unlike the vector-clock lanes, whose state is bounded
    /// by threads × variables). A deployment that enables a `syncp` or
    /// `osr` lane should bound session length — finish and reopen
    /// sessions periodically — rather than stream one session
    /// indefinitely; each lane's `footprint_bytes` and
    /// `peak_footprint_bytes` in the Snapshot frame report the growth
    /// honestly.
    pub analyses: Vec<AnalysisConfig>,
    /// Worker pool size; `None` defers to `SMARTTRACK_WORKERS` and then
    /// detected parallelism, exactly like [`worker_count`].
    pub workers: Option<usize>,
    /// Detached sessions idle longer than this are evicted.
    pub idle_timeout: Duration,
    /// Per-session ingest budget in bytes, covering both data frames
    /// queued at the worker and bytes the session's assembler holds for
    /// an incomplete STB chunk: data frames beyond it bounce with
    /// [`Frame::Busy`]. A frame is always admitted when the worker queue
    /// is empty, so progress is possible whatever the frame size.
    pub session_queue_bytes: usize,
    /// Largest STB chunk a streamed session accepts, in bytes. The
    /// format allows chunks up to 64 MiB, each of which must be
    /// reassembled contiguously before it can decode; a multiplexing
    /// server caps the declared size (default 8 MiB — one data frame's
    /// worth) so a hostile stream cannot pin a 64 MiB buffer per
    /// session. A chunk declaring more fails that session with
    /// [`ErrorCode::StreamFailed`].
    pub max_chunk_bytes: usize,
    /// Outbound frame queue per connection (replies + race pushes); race
    /// pushes beyond it are counted and dropped.
    pub outbound_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            analyses: default_analyses(),
            workers: None,
            idle_timeout: Duration::from_secs(60),
            session_queue_bytes: 4 << 20,
            max_chunk_bytes: 8 << 20,
            outbound_queue: 1024,
        }
    }
}

/// The default analysis lanes: the CLI `batch` defaults — FTO-HB plus the
/// three SmartTrack predictive analyses.
pub fn default_analyses() -> Vec<AnalysisConfig> {
    ["fto-hb", "st-wcp", "st-dc", "st-wdc"]
        .iter()
        .map(|name| name.parse().expect("default analyses parse"))
        .collect()
}

/// A failure starting the server.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// The analysis set was empty or invalid for the engine.
    Engine(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Engine(msg) => write!(f, "engine: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// State a session shares between its owning worker, the connection
/// currently driving it, and the housekeeper.
struct SessionShared {
    uid: u64,
    worker: usize,
    /// Bytes admitted but not yet analyzed (the backpressure budget).
    queued_bytes: AtomicUsize,
    /// Bytes the assembler holds for an incomplete STB chunk
    /// (worker-updated after each digested frame; counted against the
    /// same budget so mid-chunk reassembly cannot outgrow it).
    buffered_bytes: AtomicUsize,
    /// Total stream bytes admitted, across resumes (the `Ack` counter).
    accepted_bytes: AtomicU64,
    /// Events analyzed so far (worker-updated; shown in `Welcome` on
    /// resume).
    events: AtomicU64,
    /// Whether a connection is currently driving this session.
    attached: AtomicBool,
    /// First stream failure, if any; set once by the worker.
    failed: Mutex<Option<String>>,
    /// When the session was last detached (eviction clock).
    detached_at: Mutex<Instant>,
    /// Latched when a push times out waiting for queue space; cleared by
    /// the next successful push.
    degraded: AtomicBool,
}

impl SessionShared {
    fn failure(&self) -> Option<String> {
        self.failed.lock().expect("failed lock").clone()
    }
}

/// Commands a worker executes for the sessions it owns. All items for one
/// session flow through its owner's FIFO channel in the order its (sole)
/// driving connection produced them.
enum WorkItem {
    Open {
        shared: Arc<SessionShared>,
        outbound: Outbound,
    },
    Attach {
        uid: u64,
        tx: SyncSender<Frame>,
        /// Answered with the session's analyzed-event count *after* the
        /// worker has drained every data frame admitted before the
        /// detach, so the resume `Welcome` reports an exact figure.
        reply: Sender<u64>,
    },
    Detach {
        uid: u64,
    },
    Data {
        uid: u64,
        bytes: Vec<u8>,
    },
    Query {
        uid: u64,
        kind: QueryKind,
        reply: Sender<Frame>,
    },
    Finish {
        uid: u64,
        reply: Sender<Frame>,
    },
    Evict {
        uid: u64,
    },
    Stop,
}

/// The currently-attached connection's outbound channel, shared with the
/// session's race sink. `None` while detached: pushes are dropped (and
/// counted) rather than buffered unboundedly.
type Outbound = Arc<Mutex<Option<SyncSender<Frame>>>>;

type RegistryKey = (String, String);

struct Shared {
    registry: Mutex<HashMap<RegistryKey, Arc<SessionShared>>>,
    next_uid: AtomicU64,
    next_worker: AtomicUsize,
    worker_txs: Vec<Sender<WorkItem>>,
    shutdown: AtomicBool,
    lanes: Vec<LaneInfo>,
    session_queue_bytes: usize,
    outbound_queue: usize,
    idle_timeout: Duration,
    connections_closed: AtomicU64,
    /// Race pushes dropped across all sessions because no (or a slow)
    /// consumer was attached. Shared with the workers' race sinks.
    dropped_notices: Arc<AtomicU64>,
}

/// A running serve daemon. Dropping (or calling
/// [`shutdown`](Server::shutdown)) drains gracefully: in-flight frames are
/// processed, connected clients get a [`Frame::Goodbye`], workers finish
/// their queues, and every thread is joined.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
    housekeeper: Option<JoinHandle<()>>,
    stopped: bool,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts accepting.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the bind fails, [`ServeError::Engine`] if the
    /// analysis set cannot build an engine.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> Result<Server, ServeError> {
        let mut analyses = Vec::new();
        for a in &config.analyses {
            if !analyses.contains(a) {
                analyses.push(*a);
            }
        }
        let engine = Engine::builder()
            .fanout(analyses)
            .build()
            .map_err(|e| ServeError::Engine(e.to_string()))?;
        // Lane names and order come from the engine itself, via a
        // throwaway zero-event session.
        let lanes: Vec<LaneInfo> = engine
            .open()
            .snapshot()
            .lanes
            .iter()
            .map(|lane| LaneInfo {
                name: lane.name.clone(),
                config: lane.config.map(|c| c.to_string()).unwrap_or_default(),
            })
            .collect();
        let lane_index: Arc<HashMap<String, u16>> = Arc::new(
            lanes
                .iter()
                .enumerate()
                .map(|(i, lane)| (lane.name.clone(), i as u16))
                .collect(),
        );

        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;

        let workers_n = worker_count(config.workers);
        let chunk_cap = config.max_chunk_bytes.max(1) as u64;
        let mut worker_txs = Vec::with_capacity(workers_n);
        let mut worker_handles = Vec::with_capacity(workers_n);
        let dropped_notices = Arc::new(AtomicU64::new(0));
        for i in 0..workers_n {
            let (tx, rx) = mpsc::channel::<WorkItem>();
            worker_txs.push(tx);
            let engine = engine.clone();
            let lane_index = Arc::clone(&lane_index);
            let lanes = lanes.clone();
            let dropped = Arc::clone(&dropped_notices);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(engine, lanes, lane_index, rx, chunk_cap, dropped))
                    .expect("spawn worker"),
            );
        }

        let shared = Arc::new(Shared {
            registry: Mutex::new(HashMap::new()),
            next_uid: AtomicU64::new(0),
            next_worker: AtomicUsize::new(0),
            worker_txs,
            shutdown: AtomicBool::new(false),
            lanes,
            session_queue_bytes: config.session_queue_bytes.max(1),
            outbound_queue: config.outbound_queue.max(1),
            idle_timeout: config.idle_timeout,
            connections_closed: AtomicU64::new(0),
            dropped_notices,
        });

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conns);
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let conn_shared = Arc::clone(&accept_shared);
                    let handle = std::thread::Builder::new()
                        .name("serve-conn".into())
                        .spawn(move || connection_loop(stream, conn_shared))
                        .expect("spawn connection");
                    accept_conns.lock().expect("conns lock").push(handle);
                }
            })
            .expect("spawn accept");

        let hk_shared = Arc::clone(&shared);
        let housekeeper = std::thread::Builder::new()
            .name("serve-housekeeper".into())
            .spawn(move || housekeeper_loop(&hk_shared))
            .expect("spawn housekeeper");

        Ok(Server {
            shared,
            addr: local,
            accept: Some(accept),
            conns,
            workers: worker_handles,
            housekeeper: Some(housekeeper),
            stopped: false,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The advertised analysis lanes, in lane-index order.
    pub fn lanes(&self) -> &[LaneInfo] {
        &self.shared.lanes
    }

    /// Number of analysis workers.
    pub fn workers(&self) -> usize {
        self.shared.worker_txs.len()
    }

    /// Connections fully served and closed so far.
    pub fn connections_closed(&self) -> u64 {
        self.shared.connections_closed.load(Ordering::SeqCst)
    }

    /// Race notices dropped so far, across all sessions: pushed while no
    /// client was attached, or while the attached client did not drain its
    /// outbound queue in time.
    pub fn dropped_notices(&self) -> u64 {
        self.shared.dropped_notices.load(Ordering::SeqCst)
    }

    /// Open sessions currently in the registry (attached or resumable).
    pub fn live_sessions(&self) -> usize {
        self.shared.registry.lock().expect("registry lock").len()
    }

    /// Gracefully drains and stops: no new connections, connected clients
    /// get a [`Frame::Goodbye`], queued analysis work completes, all
    /// threads join.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Reader loops notice the flag within a poll tick, say goodbye,
        // detach, and exit.
        let conns = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for h in conns {
            let _ = h.join();
        }
        // Workers drain every queued item before the Stop sentinel.
        for tx in &self.shared.worker_txs {
            let _ = tx.send(WorkItem::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.housekeeper.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn housekeeper_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(POLL_TICK);
        let now = Instant::now();
        let mut evicted: Vec<Arc<SessionShared>> = Vec::new();
        {
            let mut registry = shared.registry.lock().expect("registry lock");
            registry.retain(|_, s| {
                if s.attached.load(Ordering::SeqCst) {
                    return true;
                }
                let idle = now.duration_since(*s.detached_at.lock().expect("detach lock"));
                if idle <= shared.idle_timeout {
                    return true;
                }
                evicted.push(Arc::clone(s));
                false
            });
        }
        for s in evicted {
            let _ = shared.worker_txs[s.worker].send(WorkItem::Evict { uid: s.uid });
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side: sessions live here.

struct Entry {
    session: Session<'static>,
    asm: StbAssembler,
    shared: Arc<SessionShared>,
    outbound: Outbound,
}

pub(crate) fn wire_race(lane: u16, race: &RaceReport) -> WireRace {
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

/// Delivers one race notice at the attached client's outbound queue.
/// Waits up to [`PUSH_WAIT`] for space (an attached, reading client never
/// needs close to that), drops and counts otherwise.
fn push_notice(outbound: &Outbound, shared: &SessionShared, dropped: &AtomicU64, frame: Frame) {
    let mut pending = frame;
    let deadline = Instant::now() + PUSH_WAIT;
    loop {
        let attempt = match outbound.lock().expect("outbound lock").as_ref() {
            // Detached: nobody to push to. Count and move on.
            None => {
                dropped.fetch_add(1, Ordering::SeqCst);
                return;
            }
            Some(tx) => tx.try_send(pending),
        };
        match attempt {
            Ok(()) => {
                shared.degraded.store(false, Ordering::SeqCst);
                return;
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                dropped.fetch_add(1, Ordering::SeqCst);
                return;
            }
            Err(mpsc::TrySendError::Full(frame)) => {
                if shared.degraded.load(Ordering::SeqCst) || Instant::now() >= deadline {
                    shared.degraded.store(true, Ordering::SeqCst);
                    dropped.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                pending = frame;
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

fn error_frame(code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::Error {
        code,
        message: message.into(),
    }
}

/// Builds the mid-stream or final per-lane race lists from a snapshot.
fn wire_report(lanes: &[LaneInfo], snapshot: &SessionSnapshot) -> WireReport {
    WireReport {
        events: snapshot.events as u64,
        lanes: snapshot
            .lanes
            .iter()
            .zip(lanes)
            .enumerate()
            .map(|(i, (lane, info))| WireLane {
                name: info.name.clone(),
                config: info.config.clone(),
                static_count: lane.report.static_count() as u32,
                races: lane
                    .report
                    .races()
                    .iter()
                    .map(|r| wire_race(i as u16, r))
                    .collect(),
            })
            .collect(),
    }
}

fn wire_snapshot(snapshot: &SessionSnapshot) -> WireSnapshot {
    WireSnapshot {
        events: snapshot.events as u64,
        interner_bytes: snapshot.interner_bytes as u64,
        lanes: snapshot
            .lanes
            .iter()
            .map(|lane| WireLaneState {
                name: lane.name.clone(),
                dynamic: lane.report.dynamic_count() as u64,
                static_count: lane.report.static_count() as u64,
                footprint_bytes: lane.footprint_bytes as u64,
                peak_footprint_bytes: lane.peak_footprint_bytes as u64,
                events: lane.events as u64,
            })
            .collect(),
    }
}

/// Feeds one data payload through the assembler into the session.
fn feed_bytes(entry: &mut Entry, bytes: &[u8]) -> Result<(), String> {
    entry
        .asm
        .push(bytes)
        .map_err(|e| format!("stb stream: {e}"))?;
    while let Some(event) = entry.asm.next_event() {
        entry
            .session
            .feed(event)
            .map_err(|e| format!("malformed event stream: {e}"))?;
    }
    entry
        .shared
        .events
        .store(entry.session.events() as u64, Ordering::SeqCst);
    Ok(())
}

/// Marks the session failed and pushes an error frame at the attached
/// client, best-effort.
fn fail_session(entry: &Entry, message: String) {
    *entry.shared.failed.lock().expect("failed lock") = Some(message.clone());
    if let Some(tx) = entry.outbound.lock().expect("outbound lock").as_ref() {
        let _ = tx.try_send(error_frame(ErrorCode::StreamFailed, message));
    }
}

/// Closes the assembler and finishes the session into its final report.
fn finish_entry(mut entry: Entry, lanes: &[LaneInfo]) -> Frame {
    // A session that never received a byte is an empty stream, not a
    // truncated one: finishing it yields an (empty) report. Clients use
    // this to probe a server's lane set.
    let never_fed = entry.asm.header().is_none() && entry.asm.buffered_bytes() == 0;
    if never_fed {
        return finish_session(entry.session, lanes);
    }
    if let Err(e) = entry.asm.close() {
        return error_frame(ErrorCode::StreamFailed, format!("stb stream: {e}"));
    }
    finish_session(entry.session, lanes)
}

/// Runs `Session::finish` (which flushes end-of-stream race checks) and
/// wire-encodes the outcomes.
fn finish_session(session: Session<'static>, lanes: &[LaneInfo]) -> Frame {
    let events = session.events() as u64;
    let outcomes = session.finish();
    Frame::Report(WireReport {
        events,
        lanes: outcomes
            .iter()
            .enumerate()
            .map(|(i, outcome)| WireLane {
                name: outcome.name.clone(),
                config: lanes[i].config.clone(),
                static_count: outcome.report.static_count() as u32,
                races: outcome
                    .report
                    .races()
                    .iter()
                    .map(|r| wire_race(i as u16, r))
                    .collect(),
            })
            .collect(),
    })
}

fn worker_loop(
    engine: Engine,
    lanes: Vec<LaneInfo>,
    lane_index: Arc<HashMap<String, u16>>,
    rx: Receiver<WorkItem>,
    chunk_cap: u64,
    dropped: Arc<AtomicU64>,
) {
    let mut entries: HashMap<u64, Entry> = HashMap::new();
    while let Ok(item) = rx.recv() {
        match item {
            WorkItem::Open { shared, outbound } => {
                let mut session = engine.open();
                let sink_outbound = Arc::clone(&outbound);
                let sink_lanes = Arc::clone(&lane_index);
                let sink_shared = Arc::clone(&shared);
                let sink_dropped = Arc::clone(&dropped);
                session.set_sink(move |notice: &RaceNotice<'_>| {
                    let lane = sink_lanes.get(notice.analysis).copied().unwrap_or(0);
                    let frame = Frame::Race(wire_race(lane, notice.race));
                    push_notice(&sink_outbound, &sink_shared, &sink_dropped, frame);
                });
                entries.insert(
                    shared.uid,
                    Entry {
                        session,
                        asm: StbAssembler::new().with_chunk_cap(chunk_cap),
                        shared,
                        outbound,
                    },
                );
            }
            WorkItem::Attach { uid, tx, reply } => {
                let mut events = 0;
                if let Some(entry) = entries.get(&uid) {
                    *entry.outbound.lock().expect("outbound lock") = Some(tx);
                    events = entry.session.events() as u64;
                }
                let _ = reply.send(events);
            }
            WorkItem::Detach { uid } => {
                if let Some(entry) = entries.get(&uid) {
                    *entry.outbound.lock().expect("outbound lock") = None;
                }
            }
            WorkItem::Data { uid, bytes } => {
                if let Some(entry) = entries.get_mut(&uid) {
                    if entry.shared.failure().is_none() {
                        match catch_unwind(AssertUnwindSafe(|| feed_bytes(entry, &bytes))) {
                            Ok(Ok(())) => {}
                            Ok(Err(message)) => fail_session(entry, message),
                            Err(_) => fail_session(entry, "analysis panicked".to_string()),
                        }
                    }
                    // Publish the reassembly backlog before crediting the
                    // queue: a racing reader then at worst over-counts
                    // (a spurious Busy), never under-counts the budget.
                    entry
                        .shared
                        .buffered_bytes
                        .store(entry.asm.buffered_bytes(), Ordering::SeqCst);
                    entry
                        .shared
                        .queued_bytes
                        .fetch_sub(bytes.len(), Ordering::SeqCst);
                }
            }
            WorkItem::Query { uid, kind, reply } => {
                let frame = match entries.get(&uid) {
                    None => error_frame(ErrorCode::UnknownSession, "session is gone"),
                    Some(entry) => match entry.shared.failure() {
                        Some(message) => error_frame(ErrorCode::StreamFailed, message),
                        None => {
                            let snapshot = entry.session.snapshot();
                            match kind {
                                QueryKind::Snapshot => Frame::Snapshot(wire_snapshot(&snapshot)),
                                QueryKind::Races => Frame::Races(wire_report(&lanes, &snapshot)),
                            }
                        }
                    },
                };
                let _ = reply.send(frame);
            }
            WorkItem::Finish { uid, reply } => {
                let frame = match entries.remove(&uid) {
                    None => error_frame(ErrorCode::UnknownSession, "session is gone"),
                    Some(entry) => match entry.shared.failure() {
                        Some(message) => error_frame(ErrorCode::StreamFailed, message),
                        None => {
                            match catch_unwind(AssertUnwindSafe(|| finish_entry(entry, &lanes))) {
                                Ok(frame) => frame,
                                Err(_) => {
                                    error_frame(ErrorCode::Internal, "analysis panicked at finish")
                                }
                            }
                        }
                    },
                };
                let _ = reply.send(frame);
            }
            WorkItem::Evict { uid } => {
                entries.remove(&uid);
            }
            WorkItem::Stop => break,
        }
    }
}

// ---------------------------------------------------------------------------
// Connection side.

/// What the reader loop knows about the session it is driving.
struct Attached {
    key: RegistryKey,
    shared: Arc<SessionShared>,
}

/// Sends a reply frame, retrying around a full outbound queue but giving
/// up on shutdown or a dead writer. Returns false when the connection is
/// beyond saving.
fn send_reply(tx: &SyncSender<Frame>, frame: Frame, shutdown: &AtomicBool) -> bool {
    let mut frame = frame;
    loop {
        match tx.try_send(frame) {
            Ok(()) => return true,
            Err(mpsc::TrySendError::Disconnected(_)) => return false,
            Err(mpsc::TrySendError::Full(f)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return false;
                }
                frame = f;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

fn detach_session(shared: &Shared, att: &Attached) {
    let _ = shared.worker_txs[att.shared.worker].send(WorkItem::Detach {
        uid: att.shared.uid,
    });
    *att.shared.detached_at.lock().expect("detach lock") = Instant::now();
    att.shared.attached.store(false, Ordering::SeqCst);
}

/// Outcome of handling one inbound frame.
enum Step {
    Continue,
    Close,
}

struct Conn<'s> {
    shared: &'s Shared,
    out_tx: SyncSender<Frame>,
    attached: Option<Attached>,
}

impl Conn<'_> {
    fn reply(&self, frame: Frame) -> Step {
        if send_reply(&self.out_tx, frame, &self.shared.shutdown) {
            Step::Continue
        } else {
            Step::Close
        }
    }

    fn protocol_error(&self, message: &str) -> Step {
        // Best-effort: tell the client why, then drop the connection — a
        // framing violation cannot be resynchronized.
        let _ = self.reply(error_frame(ErrorCode::Protocol, message));
        Step::Close
    }

    fn handle_hello(
        &mut self,
        version: u16,
        resume: bool,
        tenant: String,
        session: String,
    ) -> Step {
        if self.attached.is_some() {
            return self.protocol_error("hello while a session is attached");
        }
        if version != PROTOCOL_VERSION {
            return self.protocol_error(&format!(
                "protocol version {version} unsupported (this server speaks {PROTOCOL_VERSION})"
            ));
        }
        if self.shared.shutdown.load(Ordering::SeqCst) {
            let _ = self.reply(error_frame(ErrorCode::ShuttingDown, "server is draining"));
            return Step::Close;
        }
        let key = (tenant, session);
        let mut registry = self.shared.registry.lock().expect("registry lock");
        if let Some(existing) = registry.get(&key) {
            if existing.attached.load(Ordering::SeqCst) {
                drop(registry);
                return self.reply(error_frame(
                    ErrorCode::SessionAttached,
                    "another connection is driving this session",
                ));
            }
            if !resume {
                drop(registry);
                return self.reply(error_frame(
                    ErrorCode::SessionExists,
                    "session exists; hello with the resume flag to reattach",
                ));
            }
            let shared_session = Arc::clone(existing);
            shared_session.attached.store(true, Ordering::SeqCst);
            drop(registry);
            let (reply_tx, reply_rx) = mpsc::channel();
            let _ = self.shared.worker_txs[shared_session.worker].send(WorkItem::Attach {
                uid: shared_session.uid,
                tx: self.out_tx.clone(),
                reply: reply_tx,
            });
            // The worker answers only after draining every data frame
            // admitted before the detach (its channel is FIFO), so this
            // count is exact, not a racy snapshot of the atomic.
            let events = reply_rx
                .recv()
                .unwrap_or_else(|_| shared_session.events.load(Ordering::SeqCst));
            self.attached = Some(Attached {
                key,
                shared: shared_session,
            });
            return self.reply(Frame::Welcome {
                resumed: true,
                events,
                lanes: self.shared.lanes.clone(),
            });
        }
        let uid = self.shared.next_uid.fetch_add(1, Ordering::SeqCst);
        let worker =
            self.shared.next_worker.fetch_add(1, Ordering::SeqCst) % self.shared.worker_txs.len();
        let shared_session = Arc::new(SessionShared {
            uid,
            worker,
            queued_bytes: AtomicUsize::new(0),
            buffered_bytes: AtomicUsize::new(0),
            accepted_bytes: AtomicU64::new(0),
            events: AtomicU64::new(0),
            attached: AtomicBool::new(true),
            failed: Mutex::new(None),
            detached_at: Mutex::new(Instant::now()),
            degraded: AtomicBool::new(false),
        });
        registry.insert(key.clone(), Arc::clone(&shared_session));
        drop(registry);
        let outbound: Outbound = Arc::new(Mutex::new(Some(self.out_tx.clone())));
        let _ = self.shared.worker_txs[worker].send(WorkItem::Open {
            shared: Arc::clone(&shared_session),
            outbound,
        });
        self.attached = Some(Attached {
            key,
            shared: shared_session,
        });
        self.reply(Frame::Welcome {
            resumed: false,
            events: 0,
            lanes: self.shared.lanes.clone(),
        })
    }

    fn handle(&mut self, frame: Frame) -> Step {
        match frame {
            Frame::Hello {
                version,
                resume,
                tenant,
                session,
            } => self.handle_hello(version, resume, tenant, session),
            Frame::Data(bytes) => {
                let Some(att) = &self.attached else {
                    return self.protocol_error("data before hello");
                };
                if let Some(message) = att.shared.failure() {
                    return self.reply(error_frame(ErrorCode::StreamFailed, message));
                }
                let len = bytes.len();
                let queued = att.shared.queued_bytes.load(Ordering::SeqCst);
                let buffered = att.shared.buffered_bytes.load(Ordering::SeqCst);
                let capacity = self.shared.session_queue_bytes;
                // Admit any frame into an empty queue so progress is
                // always possible (a partial chunk only drains with more
                // input); otherwise enforce the byte budget over
                // everything the session holds — frames still queued at
                // the worker plus bytes its assembler has buffered for
                // an incomplete chunk.
                let pending = queued + buffered;
                if queued > 0 && pending + len > capacity {
                    return self.reply(Frame::Busy {
                        queued: pending as u64,
                        capacity: capacity as u64,
                    });
                }
                att.shared.queued_bytes.fetch_add(len, Ordering::SeqCst);
                let accepted = att
                    .shared
                    .accepted_bytes
                    .fetch_add(len as u64, Ordering::SeqCst)
                    + len as u64;
                let _ = self.shared.worker_txs[att.shared.worker].send(WorkItem::Data {
                    uid: att.shared.uid,
                    bytes,
                });
                self.reply(Frame::Ack { accepted })
            }
            Frame::Query(kind) => {
                let Some(att) = &self.attached else {
                    return self.protocol_error("query before hello");
                };
                let (reply_tx, reply_rx) = mpsc::channel();
                let _ = self.shared.worker_txs[att.shared.worker].send(WorkItem::Query {
                    uid: att.shared.uid,
                    kind,
                    reply: reply_tx,
                });
                match reply_rx.recv() {
                    Ok(frame) => self.reply(frame),
                    Err(_) => {
                        let _ = self.reply(error_frame(ErrorCode::Internal, "worker gone"));
                        Step::Close
                    }
                }
            }
            Frame::Finish => {
                let Some(att) = self.attached.take() else {
                    return self.protocol_error("finish before hello");
                };
                let (reply_tx, reply_rx) = mpsc::channel();
                let _ = self.shared.worker_txs[att.shared.worker].send(WorkItem::Finish {
                    uid: att.shared.uid,
                    reply: reply_tx,
                });
                let frame = match reply_rx.recv() {
                    Ok(frame) => frame,
                    Err(_) => error_frame(ErrorCode::Internal, "worker gone"),
                };
                self.shared
                    .registry
                    .lock()
                    .expect("registry lock")
                    .remove(&att.key);
                att.shared.attached.store(false, Ordering::SeqCst);
                self.reply(frame)
            }
            Frame::Detach => {
                let Some(att) = self.attached.take() else {
                    return self.protocol_error("detach before hello");
                };
                detach_session(self.shared, &att);
                Step::Continue
            }
            // Server-originated frame types from a client are violations.
            _ => self.protocol_error("server-originated frame type from client"),
        }
    }
}

fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (out_tx, out_rx) = mpsc::sync_channel::<Frame>(shared.outbound_queue);
    let writer = std::thread::Builder::new()
        .name("serve-writer".into())
        .spawn(move || writer_loop(write_half, &out_rx))
        .expect("spawn writer");

    let mut conn = Conn {
        shared: &shared,
        out_tx,
        attached: None,
    };
    let mut frames = FrameBuf::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut reader = &stream;
    'conn: loop {
        loop {
            match frames.next_frame() {
                Ok(Some(frame)) => {
                    if let Step::Close = conn.handle(frame) {
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    conn.protocol_error(&e.to_string());
                    break 'conn;
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = conn.out_tx.try_send(Frame::Goodbye {
                reason: "server shutting down; session detached and resumable".into(),
            });
            break;
        }
        match reader.read(&mut scratch) {
            Ok(0) => break,
            Ok(n) => frames.push(&scratch[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    if let Some(att) = conn.attached.take() {
        detach_session(&shared, &att);
    }
    drop(conn);
    let _ = writer.join();
    shared.connections_closed.fetch_add(1, Ordering::SeqCst);
}

fn writer_loop(stream: TcpStream, rx: &Receiver<Frame>) {
    let mut w = BufWriter::new(stream);
    'writer: while let Ok(frame) = rx.recv() {
        if write_frame(&mut w, &frame).is_err() {
            break;
        }
        // Batch whatever else is queued before paying for a flush.
        while let Ok(frame) = rx.try_recv() {
            if write_frame(&mut w, &frame).is_err() {
                break 'writer;
            }
        }
        if std::io::Write::flush(&mut w).is_err() {
            break;
        }
    }
    let _ = std::io::Write::flush(&mut w);
}

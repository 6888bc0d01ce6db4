//! The capture session: id interning, per-thread buffers, and the
//! sequence-ordered funnel into one [`StbWriter`].
//!
//! # Ordering soundness
//!
//! A recorded trace is only useful if its event order is a *linearization*
//! the validator accepts and the analyses can trust. The session gets one
//! the same way wasmgrind's runtime does: every wrapper records its event
//! **while the underlying primitive is held or ordered by that very
//! operation** — the `Acquire` event is stamped after `lock()` returns
//! (under the lock), the `Release` event before the unlock (still under the
//! lock), a volatile access under its object's internal mutex, a barrier
//! enter/exit inside a double rendezvous. Each stamp draws a ticket from a
//! global atomic sequence counter at that protected moment, so ticket order
//! agrees with the real per-object synchronization order.
//!
//! Events land in per-thread buffers (no global lock on the hot path) and
//! are merged back into ticket order at flush time. The merge may only emit
//! ticket `s` once every ticket below `s` has been handed over, which the
//! session tracks with a per-thread *floor*: before drawing a ticket into
//! an empty buffer, a thread publishes `floor ≤ ticket` (a pre-read of the
//! counter); the floor returns to `u64::MAX` only when the buffer is handed
//! to the emitter. The emitter's watermark is the minimum floor across all
//! threads — every ticket below it is already in the pending set, because
//! any thread still holding a smaller ticket would be pinning the watermark
//! down. (Visibility follows from the release/acquire chain through the
//! shared counter and the emit mutex; `docs/CAPTURE.md` spells the argument
//! out.)

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use smarttrack_clock::ThreadId;
use smarttrack_serve::WireReport;
use smarttrack_trace::binary::StbWriter;
use smarttrack_trace::{BarrierId, CondId, Event, Loc, LockId, Op, VarId};

use crate::sink::CaptureSink;

/// Schedule nudging: configurable yield injection in the wrappers, so the
/// differential battery can cover interleavings without sleeps. Before each
/// recorded operation, the executing thread yields when
/// `(ops_so_far + tid) % period == phase % period`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nudge {
    /// Yield every `period` operations (per thread; minimum 1).
    pub period: u32,
    /// Offset into the period, mixed with the thread id so threads
    /// desynchronize.
    pub phase: u32,
}

/// Tuning knobs of a [`CaptureSession`].
#[derive(Clone, Copy, Debug)]
pub struct CaptureConfig {
    /// Per-thread buffer capacity before an epoch flush hands the buffer to
    /// the emitter (default 256 events).
    pub buffer_events: usize,
    /// STB chunk size handed to [`StbWriter::chunk_events`] (default: the
    /// writer's own default).
    pub chunk_events: usize,
    /// Optional schedule nudging (off by default).
    pub nudge: Option<Nudge>,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            buffer_events: 256,
            chunk_events: smarttrack_trace::binary::DEFAULT_CHUNK_EVENTS,
            nudge: None,
        }
    }
}

/// A failure of the capture runtime.
#[derive(Debug)]
pub enum CaptureError {
    /// The sink failed (file I/O, or the serve daemon refused the stream).
    Sink(io::Error),
    /// [`CaptureSession::finish`] was called while captured threads were
    /// still running (or a foreign thread still holds buffered events).
    ThreadsActive(usize),
    /// The session was already finished.
    AlreadyFinished,
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::Sink(e) => write!(f, "capture sink failed: {e}"),
            CaptureError::ThreadsActive(n) => write!(
                f,
                "{n} captured thread(s) still active (join all spawned threads, and \
                 flush_thread() on any foreign thread, before finish)"
            ),
            CaptureError::AlreadyFinished => write!(f, "capture session already finished"),
        }
    }
}

impl std::error::Error for CaptureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CaptureError::Sink(e) => Some(e),
            _ => None,
        }
    }
}

/// What a finished capture produced.
#[derive(Debug)]
pub struct CaptureReport {
    /// Events emitted into the STB stream.
    pub events: u64,
    /// Distinct threads that recorded at least one event (max id + 1).
    pub threads: u32,
    /// Final reports from any serve sinks (empty for pure file/memory
    /// sinks), in sink order.
    pub serve_reports: Vec<WireReport>,
}

/// Monotonic serial distinguishing sessions, so one OS thread can hold
/// thread contexts for several (sequential or concurrent) sessions.
static SESSION_SERIAL: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's contexts, one per session it has recorded into.
    /// Dropping a context (thread exit, or explicit removal) drains its
    /// buffer into the session.
    static CTXS: RefCell<Vec<ThreadCtx>> = const { RefCell::new(Vec::new()) };
}

/// The per-thread floor: a lower bound on any ticket this thread holds
/// outside the emitter's pending set (`u64::MAX` when it holds none).
struct ThreadSlot {
    floor: AtomicU64,
}

/// One thread's recording state for one session.
struct ThreadCtx {
    inner: Arc<SessionInner>,
    serial: u64,
    tid: ThreadId,
    slot: Arc<ThreadSlot>,
    /// Ticketed events awaiting an epoch flush.
    buf: Vec<(u64, Event)>,
    /// Operations recorded by this thread (drives the nudge schedule).
    ops: u64,
    /// Location intern cache, keyed by (file ptr, line, column) so the hot
    /// path skips the global intern table.
    loc_cache: HashMap<(usize, u32, u32), Loc>,
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        self.inner.drain(&self.slot, &mut self.buf);
    }
}

/// The emitter: the *sole* writer of the STB stream (see the satellite
/// note on [`StbWriter`]'s concurrency posture — the writer itself is
/// single-threaded; this mutex is what funnels every thread through it).
struct EmitState {
    writer: Option<StbWriter<CaptureSink>>,
    /// Flushed events not yet past the watermark, keyed by ticket.
    pending: BTreeMap<u64, Event>,
    emitted: u64,
    sink_error: Option<io::Error>,
}

struct SessionInner {
    serial: u64,
    config: CaptureConfig,
    /// The global ticket counter.
    seq: AtomicU64,
    emit: Mutex<EmitState>,
    /// Every registered thread's floor (lock order: `emit` before `slots`).
    slots: Mutex<Vec<Arc<ThreadSlot>>>,
    /// Threads spawned through the session and not yet exited.
    active: AtomicUsize,
    finished: AtomicBool,
    next_thread: AtomicU32,
    next_lock: AtomicU32,
    next_var: AtomicU32,
    next_volatile: AtomicU32,
    next_cond: AtomicU32,
    next_barrier: AtomicU32,
    locs: Mutex<LocTable>,
}

#[derive(Default)]
struct LocTable {
    by_site: HashMap<(&'static str, u32, u32), Loc>,
    next: u32,
}

impl SessionInner {
    /// Drains a thread's buffer into the pending set and emits everything
    /// below the new watermark. Safe to call repeatedly (idempotent on an
    /// empty buffer); called from epoch flushes, context drops, and finish.
    fn drain(&self, slot: &ThreadSlot, buf: &mut Vec<(u64, Event)>) {
        let mut emit = self.emit.lock().expect("emit mutex");
        for (seq, event) in buf.drain(..) {
            emit.pending.insert(seq, event);
        }
        slot.floor.store(u64::MAX, Ordering::SeqCst);
        self.pump(&mut emit);
    }

    /// Emits every pending event whose ticket is below the watermark.
    fn pump(&self, emit: &mut EmitState) {
        let watermark = {
            let slots = self.slots.lock().expect("slots mutex");
            slots
                .iter()
                .map(|s| s.floor.load(Ordering::SeqCst))
                .min()
                .unwrap_or(u64::MAX)
        };
        while let Some(entry) = emit.pending.first_entry() {
            if *entry.key() >= watermark {
                break;
            }
            let event = entry.remove();
            if let Some(writer) = emit.writer.as_mut() {
                if let Err(e) = writer.write(&event) {
                    if emit.sink_error.is_none() {
                        emit.sink_error = Some(e);
                    }
                    emit.writer = None;
                    break;
                }
            }
            emit.emitted += 1;
        }
    }
}

/// A live recording of one multithreaded execution.
///
/// Cloning the handle is cheap (an `Arc`); every captured object
/// ([`Mutex`](crate::Mutex), [`Condvar`](crate::Condvar), …) holds a clone,
/// and threads spawned through [`CaptureSession::spawn`] record fork/join
/// edges automatically. [`finish`](CaptureSession::finish) closes the STB
/// stream and completes the sink.
///
/// # Examples
///
/// ```
/// use smarttrack_capture::{CaptureConfig, CaptureSession, CaptureSink, Mutex};
///
/// let (sink, bytes) = CaptureSink::memory();
/// let session = CaptureSession::new(sink, CaptureConfig::default());
/// let m = std::sync::Arc::new(Mutex::new(&session, 0u32));
/// let worker = {
///     let m = m.clone();
///     session.spawn(move || *m.lock() += 1)
/// };
/// worker.join().unwrap();
/// *m.lock() += 1;
/// let report = session.finish()?;
/// assert_eq!(report.threads, 2);
/// let trace = smarttrack_trace::binary::from_stb_bytes(&bytes.lock().unwrap())?;
/// assert_eq!(trace.len() as u64, report.events);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct CaptureSession {
    inner: Arc<SessionInner>,
}

impl CaptureSession {
    /// Starts a capture writing STB into `sink`. The calling thread is
    /// registered as thread 0.
    pub fn new(sink: CaptureSink, config: CaptureConfig) -> CaptureSession {
        let serial = SESSION_SERIAL.fetch_add(1, Ordering::Relaxed);
        let writer = StbWriter::v2(sink).chunk_events(config.chunk_events.max(1));
        let inner = Arc::new(SessionInner {
            serial,
            config,
            seq: AtomicU64::new(0),
            emit: Mutex::new(EmitState {
                writer: Some(writer),
                pending: BTreeMap::new(),
                emitted: 0,
                sink_error: None,
            }),
            slots: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
            finished: AtomicBool::new(false),
            next_thread: AtomicU32::new(0),
            next_lock: AtomicU32::new(0),
            next_var: AtomicU32::new(0),
            next_volatile: AtomicU32::new(0),
            next_cond: AtomicU32::new(0),
            next_barrier: AtomicU32::new(0),
            locs: Mutex::new(LocTable::default()),
        });
        let session = CaptureSession { inner };
        // Register the creating thread eagerly so it deterministically gets
        // thread id 0 (children then number 1, 2, … in spawn order).
        session.with_ctx(|_ctx| {});
        session
    }

    // -- id interning -----------------------------------------------------

    pub(crate) fn alloc_lock(&self) -> LockId {
        LockId::new(self.inner.next_lock.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn alloc_var(&self) -> VarId {
        VarId::new(self.inner.next_var.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn alloc_volatile(&self) -> VarId {
        VarId::new(self.inner.next_volatile.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn alloc_cond(&self) -> CondId {
        CondId::new(self.inner.next_cond.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn alloc_barrier(&self) -> BarrierId {
        BarrierId::new(self.inner.next_barrier.fetch_add(1, Ordering::Relaxed))
    }

    fn alloc_thread(&self) -> ThreadId {
        ThreadId::new(self.inner.next_thread.fetch_add(1, Ordering::Relaxed))
    }

    /// Interns a source location into a stable [`Loc`] (first use assigns
    /// the id; repetitions at the same site map to the same `Loc`, which is
    /// what makes the paper's statically-distinct race counting work on
    /// captured traces).
    pub(crate) fn intern_loc(&self, site: &'static Location<'static>) -> Loc {
        let key = (site.file().as_ptr() as usize, site.line(), site.column());
        self.with_ctx(|ctx| {
            if let Some(&loc) = ctx.loc_cache.get(&key) {
                return loc;
            }
            let mut table = ctx.inner.locs.lock().expect("locs mutex");
            let next = table.next;
            let loc = *table
                .by_site
                .entry((site.file(), site.line(), site.column()))
                .or_insert_with(|| Loc::new(next));
            if loc == Loc::new(next) {
                table.next += 1;
            }
            drop(table);
            ctx.loc_cache.insert(key, loc);
            loc
        })
    }

    // -- recording --------------------------------------------------------

    /// Runs `f` on this thread's context for the session, creating and
    /// registering one on first use.
    fn with_ctx<R>(&self, f: impl FnOnce(&mut ThreadCtx) -> R) -> R {
        CTXS.with(|ctxs| {
            let mut ctxs = ctxs.borrow_mut();
            let serial = self.inner.serial;
            let at = match ctxs.iter().position(|c| c.serial == serial) {
                Some(at) => at,
                None => {
                    let slot = Arc::new(ThreadSlot {
                        floor: AtomicU64::new(u64::MAX),
                    });
                    self.inner
                        .slots
                        .lock()
                        .expect("slots mutex")
                        .push(slot.clone());
                    ctxs.push(ThreadCtx {
                        inner: self.inner.clone(),
                        serial,
                        tid: self.alloc_thread(),
                        slot,
                        buf: Vec::new(),
                        ops: 0,
                        loc_cache: HashMap::new(),
                    });
                    ctxs.len() - 1
                }
            };
            f(&mut ctxs[at])
        })
    }

    /// Installs a context with a pre-assigned thread id (used by
    /// [`spawn`](CaptureSession::spawn) so the fork edge and the child's
    /// id agree). Must run on the child thread before it records anything.
    pub(crate) fn adopt(&self, tid: ThreadId) {
        CTXS.with(|ctxs| {
            let mut ctxs = ctxs.borrow_mut();
            debug_assert!(
                !ctxs.iter().any(|c| c.serial == self.inner.serial),
                "thread already registered with this session"
            );
            let slot = Arc::new(ThreadSlot {
                floor: AtomicU64::new(u64::MAX),
            });
            self.inner
                .slots
                .lock()
                .expect("slots mutex")
                .push(slot.clone());
            ctxs.push(ThreadCtx {
                inner: self.inner.clone(),
                serial: self.inner.serial,
                tid,
                slot,
                buf: Vec::new(),
                ops: 0,
                loc_cache: HashMap::new(),
            });
        });
    }

    /// Removes (and thereby drains) the calling thread's context.
    pub(crate) fn retire_thread(&self) {
        CTXS.with(|ctxs| {
            let mut ctxs = ctxs.borrow_mut();
            ctxs.retain(|c| c.serial != self.inner.serial);
        });
    }

    /// Records one event for the calling thread. The caller must hold
    /// whatever real synchronization orders the operation (see the module
    /// docs); the ticket drawn here is what makes the merged stream a valid
    /// linearization.
    pub(crate) fn record(&self, op: Op, loc: Loc) {
        self.with_ctx(|ctx| {
            ctx.ops += 1;
            if ctx.buf.is_empty() {
                // Publish a floor below the ticket we are about to draw
                // *before* drawing it: the pre-read is ≤ the fetch_add
                // result, so the emitter can never emit past us.
                let bound = ctx.inner.seq.load(Ordering::SeqCst);
                ctx.slot.floor.store(bound, Ordering::SeqCst);
            }
            let seq = ctx.inner.seq.fetch_add(1, Ordering::SeqCst);
            ctx.buf.push((seq, Event::with_loc(ctx.tid, op, loc)));
            if ctx.buf.len() >= ctx.inner.config.buffer_events.max(1) {
                let inner = ctx.inner.clone();
                inner.drain(&ctx.slot, &mut ctx.buf);
            }
        });
    }

    /// Yields per the configured [`Nudge`] schedule. Wrappers call this
    /// before their real operation, perturbing interleavings
    /// deterministically-per-thread rather than with sleeps.
    pub(crate) fn nudge(&self) {
        let Some(nudge) = self.inner.config.nudge else {
            return;
        };
        let due = self.with_ctx(|ctx| {
            let period = u64::from(nudge.period.max(1));
            let slot = (ctx.ops + u64::from(ctx.tid.raw())) % period;
            ctx.ops += 1;
            slot == u64::from(nudge.phase) % period
        });
        if due {
            std::thread::yield_now();
        }
    }

    // -- threads ----------------------------------------------------------

    /// Spawns a captured thread, recording the fork edge on the caller (the
    /// fork's ticket is drawn before the child starts, so the edge is
    /// ordered correctly). The child's buffer is drained before its
    /// [`JoinHandle::join`] returns.
    #[track_caller]
    pub fn spawn<F, T>(&self, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let loc = self.intern_loc(Location::caller());
        let child = self.alloc_thread();
        self.record(Op::Fork(child), loc);
        self.inner.active.fetch_add(1, Ordering::SeqCst);
        let session = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("capture-{}", child.raw()))
            .spawn(move || {
                let _guard = AdoptGuard::install(&session, child);
                f()
            })
            .expect("spawn captured thread");
        JoinHandle {
            session: self.clone(),
            child,
            loc,
            handle,
        }
    }

    /// Drains the calling thread's buffer into the emitter (an explicit
    /// epoch flush). Spawned threads flush automatically on exit; a foreign
    /// thread that recorded events must call this before the session can
    /// [`finish`](CaptureSession::finish).
    pub fn flush_thread(&self) {
        self.with_ctx(|ctx| {
            let inner = ctx.inner.clone();
            inner.drain(&ctx.slot, &mut ctx.buf);
        });
    }

    /// Closes the recording: drains the calling thread, emits everything,
    /// terminates the STB stream, and completes the sink (collecting final
    /// reports from any serve sinks).
    ///
    /// # Errors
    ///
    /// [`CaptureError::ThreadsActive`] if spawned threads are still running
    /// or another thread still holds buffered events;
    /// [`CaptureError::Sink`] if the sink failed at any point;
    /// [`CaptureError::AlreadyFinished`] on a second call.
    pub fn finish(&self) -> Result<CaptureReport, CaptureError> {
        let active = self.inner.active.load(Ordering::SeqCst);
        if active > 0 {
            return Err(CaptureError::ThreadsActive(active));
        }
        // Drop (and thereby drain) our own context before checking floors.
        self.retire_thread();
        if self.inner.finished.swap(true, Ordering::SeqCst) {
            return Err(CaptureError::AlreadyFinished);
        }
        let mut emit = self.inner.emit.lock().expect("emit mutex");
        {
            let slots = self.inner.slots.lock().expect("slots mutex");
            let stuck = slots
                .iter()
                .filter(|s| s.floor.load(Ordering::SeqCst) != u64::MAX)
                .count();
            if stuck > 0 {
                self.inner.finished.store(false, Ordering::SeqCst);
                return Err(CaptureError::ThreadsActive(stuck));
            }
        }
        self.inner.pump(&mut emit);
        debug_assert!(
            emit.pending.is_empty(),
            "all floors at MAX yet events pending"
        );
        if let Some(e) = emit.sink_error.take() {
            return Err(CaptureError::Sink(e));
        }
        let writer = emit.writer.take().ok_or(CaptureError::AlreadyFinished)?;
        let sink = writer.finish().map_err(CaptureError::Sink)?;
        let serve_reports = sink.complete()?;
        Ok(CaptureReport {
            events: emit.emitted,
            threads: self.inner.next_thread.load(Ordering::SeqCst),
            serve_reports,
        })
    }
}

/// Child-thread context guard: installs the pre-assigned context on entry;
/// on exit — panic included — drains the buffer and decrements the active
/// count (in that order, so `finish` seeing zero active threads implies
/// every child buffer reached the emitter).
struct AdoptGuard {
    session: CaptureSession,
}

impl AdoptGuard {
    fn install(session: &CaptureSession, tid: ThreadId) -> AdoptGuard {
        session.adopt(tid);
        AdoptGuard {
            session: session.clone(),
        }
    }
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        // Removing the context drops it, which drains the buffer (this runs
        // during unwinding too: a panicking captured thread flushes what it
        // has, and any lock guards already released their events above us).
        self.session.retire_thread();
        self.session.inner.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Handle to a captured thread; [`join`](JoinHandle::join) records the join
/// edge after the child has fully exited (so the edge's ticket exceeds
/// every child ticket).
pub struct JoinHandle<T> {
    session: CaptureSession,
    child: ThreadId,
    loc: Loc,
    handle: std::thread::JoinHandle<T>,
}

impl<T> JoinHandle<T> {
    /// The captured thread id of the child.
    pub fn tid(&self) -> ThreadId {
        self.child
    }

    /// Waits for the child and records the join edge. A panicking child
    /// still gets its join edge (its partial trace already flushed), and
    /// the panic payload is returned exactly like `std`'s join.
    pub fn join(self) -> std::thread::Result<T> {
        let result = self.handle.join();
        self.session.record(Op::Join(self.child), self.loc);
        result
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {}
}

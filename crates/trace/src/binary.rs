//! STB (SmartTrack Binary) — the compact binary trace format.
//!
//! The text formats ([`fmt`](crate::fmt), [`formats`](crate::formats)) cost
//! tens of bytes and a line parse per event; at the hundreds-of-millions of
//! events a real recorded execution produces, parsing dominates analysis.
//! STB encodes the same event model in ~2–3 bytes per event and decodes with
//! no per-line scanning, so recorded executions stream into an analysis
//! session at hardware speed and in bounded memory.
//!
//! The byte-level layout is specified normatively in
//! [`docs/TRACE_FORMATS.md`](https://github.com/paper-repro/smarttrack/blob/main/docs/TRACE_FORMATS.md);
//! in summary:
//!
//! * a **header** — magic `89 53 54 42` (`\x89STB`), a version byte, a flags
//!   byte, and (when the `HAS_HINT` flag is set) an [`StbHint`] carrying the
//!   event count and thread/variable/lock/volatile cardinalities, so a
//!   streaming consumer can pre-size its metadata before the first event;
//! * a sequence of self-contained **chunks**, each framed by its payload
//!   byte length and event count, so readers can skip whole chunks and
//!   resume mid-file;
//! * within a chunk, events are grouped into **same-thread runs** (one run
//!   header per burst of events by one thread) and encoded as
//!   varint/zigzag **deltas** against the previous target id of the same
//!   kind, which is what gets the common case down to one or two bytes.
//!
//! There is one decoder, [`StbAssembler`], with two faces: push bytes into
//! it as they arrive (a server multiplexing many streams), or let an
//! [`StbReader`] pull exactly the bytes it asks for from an `impl Read`
//! (files, pipes, dedicated sockets). Both check the header hint's event
//! count when the terminator arrives.
//!
//! # Examples
//!
//! Eager round trip through memory:
//!
//! ```
//! use smarttrack_trace::{binary, paper};
//!
//! let trace = paper::figure1();
//! let bytes = binary::to_stb_bytes(&trace);
//! assert_eq!(binary::from_stb_bytes(&bytes)?, trace);
//! # Ok::<(), smarttrack_trace::binary::StbError>(())
//! ```
//!
//! Streaming: record through an [`StbWriter`] sink, replay through an
//! [`StbReader`] without ever materializing a [`Trace`]:
//!
//! ```
//! use smarttrack_trace::{binary::{StbReader, StbWriter}, paper};
//!
//! let trace = paper::figure2();
//! let mut writer = StbWriter::new(Vec::new());
//! for event in trace.events() {
//!     writer.write(event)?;
//! }
//! let bytes = writer.finish()?;
//!
//! let reader = StbReader::new(&bytes[..])?;
//! let events: Result<Vec<_>, _> = reader.collect();
//! assert_eq!(events.unwrap(), trace.events());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use smarttrack_clock::ThreadId;

use crate::{BarrierId, CondId, Event, Loc, LockId, Op, Trace, TraceBuilder, TraceError, VarId};

/// The four-byte STB magic number, `\x89STB`. The high bit in the first
/// byte keeps text tools from mistaking STB files for line formats (the
/// same trick as PNG).
pub const STB_MAGIC: [u8; 4] = [0x89, b'S', b'T', b'B'];

/// The baseline STB version: 3-bit op tags (the eight original operations)
/// and five header-hint cardinalities. Readers decode v1 streams forever;
/// writers emit v1 whenever the stream uses no v2 feature, so recordings
/// of v1-expressible traces stay byte-for-byte identical across revisions.
pub const STB_VERSION: u8 = 1;

/// STB revision 2: 4-bit op tags adding the condition-variable
/// (`wait`/`ntf`/`nfa`) and barrier (`bent`/`bext`) operations with their
/// own delta registers, and two extra header-hint cardinalities (condvars,
/// barriers). Everything else — framing, runs, varint/zigzag coding — is
/// unchanged from v1.
pub const STB_VERSION_2: u8 = 2;

/// STB revision 3: three more 4-bit op tags for the reader-writer-lock
/// operations (`acqr`/`acqw`) and failed trylocks (`tryf`), filling the
/// 4-bit tag space exactly. The header layout (including the seven-field
/// v2 hint) and everything else are unchanged from v2; a trace without the
/// new operations still writes its v1 or v2 bytes.
pub const STB_VERSION_3: u8 = 3;

/// Header flag bit: an [`StbHint`] follows the flags byte.
const FLAG_HAS_HINT: u8 = 0b0000_0001;
/// All flag bits a version-1 reader understands.
const KNOWN_FLAGS: u8 = FLAG_HAS_HINT;

/// Default number of events per chunk written by [`StbWriter`].
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;

/// Upper bound accepted for a single chunk's payload, so a corrupt length
/// prefix produces a precise error instead of an allocation blow-up.
/// [`StbAssembler::with_chunk_cap`] can lower (never raise) it for one
/// consumer.
pub const MAX_CHUNK_BYTES: u64 = 64 << 20;

/// Largest chunk size [`StbWriter::chunk_events`] accepts. A worst-case
/// event costs at most 50 encoded bytes (a 20-byte run header plus a
/// 10-byte head varint, a 10-byte second-operand delta for `wait`, and a
/// 10-byte location delta), so chunks of this many events cannot exceed
/// the readers' 64 MiB payload cap.
pub const MAX_CHUNK_EVENTS: usize = (MAX_CHUNK_BYTES / 64) as usize;

/// Rejects a declared chunk event count that cannot be honest *before*
/// anything is sized from it. Every encoded event occupies at least one
/// payload byte (its run's head varint), so `count > len` is provably
/// corrupt, and no conforming writer exceeds [`MAX_CHUNK_EVENTS`].
/// Without this check a ~20-byte crafted frame declaring `count = 1 << 40`
/// would make `Vec::with_capacity` request terabytes — an allocator abort
/// that no `catch_unwind` can contain.
fn check_chunk_count(count: u64, len: u64, offset: u64) -> Result<(), StbError> {
    if count > len || count > MAX_CHUNK_EVENTS as u64 {
        return Err(StbError::Corrupt {
            offset,
            message: format!(
                "chunk declares {count} events in a {len}-byte payload (at most one \
                 event per payload byte, {MAX_CHUNK_EVENTS} events per chunk)"
            ),
        });
    }
    Ok(())
}

/// Stream metadata carried by the STB header when known at write time.
///
/// A streaming consumer can use it to pre-size analysis metadata (the
/// `StreamHint` plumbing of `smarttrack-detect`) and report progress. The
/// cardinalities are advisory — decoding never depends on them — but the
/// event count is checked: a stream that carries a different number of
/// events fails at its terminator as [`StbError::Corrupt`].
/// [`write_stb`] (which sees a whole [`Trace`]) always writes one;
/// [`StbWriter`] (which sees an unbounded stream) omits it unless given
/// one via [`StbWriter::with_hint`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StbHint {
    /// Total number of events in the stream.
    pub events: u64,
    /// Number of distinct threads (max index + 1).
    pub threads: u64,
    /// Number of distinct shared variables (max index + 1).
    pub vars: u64,
    /// Number of distinct locks (max index + 1).
    pub locks: u64,
    /// Number of distinct volatile variables (max index + 1).
    pub volatiles: u64,
    /// Number of distinct condition variables (max index + 1). Carried by
    /// v2 headers only; decodes as 0 from a v1 header.
    pub condvars: u64,
    /// Number of distinct barriers (max index + 1). Carried by v2 headers
    /// only; decodes as 0 from a v1 header.
    pub barriers: u64,
}

impl StbHint {
    /// The full-knowledge hint for a recorded trace.
    pub fn of_trace(trace: &Trace) -> Self {
        StbHint {
            events: trace.len() as u64,
            threads: trace.num_threads() as u64,
            vars: trace.num_vars() as u64,
            locks: trace.num_locks() as u64,
            volatiles: trace.num_volatiles() as u64,
            condvars: trace.num_condvars() as u64,
            barriers: trace.num_barriers() as u64,
        }
    }

    /// Whether this hint carries information only a v2 header can encode.
    fn needs_v2(&self) -> bool {
        self.condvars > 0 || self.barriers > 0
    }
}

/// The decoded STB header: version, flags, and the optional [`StbHint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StbHeader {
    /// The format version ([`STB_VERSION`], [`STB_VERSION_2`], or
    /// [`STB_VERSION_3`]).
    pub version: u8,
    /// Stream metadata, when the writer knew it.
    pub hint: Option<StbHint>,
}

/// Error from STB encoding or decoding.
#[derive(Debug)]
pub enum StbError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The input does not begin with [`STB_MAGIC`].
    BadMagic {
        /// The bytes found where the magic was expected.
        found: [u8; 4],
    },
    /// The version byte names a version this implementation cannot read.
    UnsupportedVersion(u8),
    /// The flags byte sets bits this implementation does not know; a
    /// version-1 reader must refuse rather than silently mis-decode.
    UnknownFlags(u8),
    /// The byte stream violates the STB grammar. `offset` is the position
    /// (from the start of the stream) where the violation was detected.
    Corrupt {
        /// Byte offset of the violation.
        offset: u64,
        /// What was wrong.
        message: String,
    },
    /// The stream ended inside a header, frame, or chunk payload.
    Truncated {
        /// Byte offset at which input ran out.
        offset: u64,
        /// What was being read.
        context: &'static str,
    },
    /// The decoded events do not form a well-formed trace (eager
    /// [`read_stb`] only; [`StbReader`] leaves validation to its consumer).
    Malformed(TraceError),
}

impl fmt::Display for StbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StbError::Io(e) => write!(f, "i/o error: {e}"),
            StbError::BadMagic { found } => write!(
                f,
                "not an STB stream: expected magic {STB_MAGIC:02x?}, found {found:02x?}"
            ),
            StbError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported STB version {v} (this reader understands 1 through 3)"
                )
            }
            StbError::UnknownFlags(flags) => {
                write!(f, "unknown STB header flags {flags:#010b}")
            }
            StbError::Corrupt { offset, message } => {
                write!(f, "corrupt STB stream at byte {offset}: {message}")
            }
            StbError::Truncated { offset, context } => {
                write!(
                    f,
                    "truncated STB stream at byte {offset} while reading {context}"
                )
            }
            StbError::Malformed(e) => write!(f, "malformed trace: {e}"),
        }
    }
}

impl Error for StbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StbError::Io(e) => Some(e),
            StbError::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StbError {
    fn from(e: io::Error) -> Self {
        StbError::Io(e)
    }
}

impl From<TraceError> for StbError {
    fn from(e: TraceError) -> Self {
        StbError::Malformed(e)
    }
}

// ---------------------------------------------------------------------------
// Varint primitives (LEB128 u64, zigzag i64).

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
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

/// Reads one LEB128 u64 from `bytes` starting at `*pos` (offsets relative to
/// `base` for error reporting).
fn read_varint(
    bytes: &[u8],
    pos: &mut usize,
    base: u64,
    context: &'static str,
) -> Result<u64, StbError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(StbError::Truncated {
                offset: base + *pos as u64,
                context,
            });
        };
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(StbError::Corrupt {
                offset: base + *pos as u64 - 1,
                message: format!("varint overflows 64 bits while reading {context}"),
            });
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// Event codec: op tags and per-chunk delta state.

const TAG_READ: u8 = 0;
const TAG_WRITE: u8 = 1;
const TAG_ACQUIRE: u8 = 2;
const TAG_RELEASE: u8 = 3;
const TAG_FORK: u8 = 4;
const TAG_JOIN: u8 = 5;
const TAG_VREAD: u8 = 6;
const TAG_VWRITE: u8 = 7;
// Version-2 tags (the 4-bit tag field); the head delta of TAG_WAIT targets
// the condvar register, and a second varint (the monitor's delta against
// the lock register) follows the head.
const TAG_WAIT: u8 = 8;
const TAG_NOTIFY: u8 = 9;
const TAG_NOTIFY_ALL: u8 = 10;
const TAG_BARRIER_ENTER: u8 = 11;
const TAG_BARRIER_EXIT: u8 = 12;
const MAX_TAG_V2: u8 = TAG_BARRIER_EXIT;
// Version-3 tags: the reader-writer-lock operations, delta-coded against
// the lock register like `acq`/`rel`. They fill the 4-bit tag space.
const TAG_ACQ_READ: u8 = 13;
const TAG_ACQ_WRITE: u8 = 14;
const TAG_TRY_FAIL: u8 = 15;
const MAX_TAG_V3: u8 = TAG_TRY_FAIL;

/// Returns `true` for operations only the v2 chunk grammar can encode.
fn op_needs_v2(op: &Op) -> bool {
    matches!(
        op,
        Op::Wait(..) | Op::Notify(_) | Op::NotifyAll(_) | Op::BarrierEnter(_) | Op::BarrierExit(_)
    )
}

/// Returns `true` for operations only the v3 chunk grammar can encode.
fn op_needs_v3(op: &Op) -> bool {
    matches!(op, Op::AcqRead(_) | Op::AcqWrite(_) | Op::TryAcqFail(_))
}

/// The lowest STB version whose chunk grammar can express every event in
/// `events` — the writer's "lowest expressible version" invariant, which
/// keeps recordings of old traces byte-identical across revisions.
fn needed_version(events: &[Event]) -> u8 {
    let mut version = STB_VERSION;
    for e in events {
        if op_needs_v3(&e.op) {
            return STB_VERSION_3;
        }
        if op_needs_v2(&e.op) {
            version = STB_VERSION_2;
        }
    }
    version
}

/// The largest op tag a version's chunk grammar defines.
fn max_tag(version: u8) -> u8 {
    match version {
        STB_VERSION => TAG_VWRITE,
        STB_VERSION_2 => MAX_TAG_V2,
        _ => MAX_TAG_V3,
    }
}

/// Delta-compression state, reset at every chunk boundary so chunks decode
/// independently (which is what makes skip-and-resume sound).
#[derive(Clone, Copy, Debug, Default)]
struct DeltaState {
    var: u32,
    lock: u32,
    thread: u32,
    volatile: u32,
    condvar: u32,
    barrier: u32,
    loc: u32,
}

impl DeltaState {
    /// Splits an op into its tag and the previous-target register it deltas
    /// against, returning `(tag, prev, raw_target)`. For [`Op::Wait`] the
    /// registered target is the condvar; the monitor is the extra operand
    /// handled by the caller against the lock register.
    fn op_parts(&mut self, op: &Op) -> (u8, &mut u32, u32) {
        match op {
            Op::Read(x) => (TAG_READ, &mut self.var, x.raw()),
            Op::Write(x) => (TAG_WRITE, &mut self.var, x.raw()),
            Op::Acquire(m) => (TAG_ACQUIRE, &mut self.lock, m.raw()),
            Op::Release(m) => (TAG_RELEASE, &mut self.lock, m.raw()),
            Op::Fork(t) => (TAG_FORK, &mut self.thread, t.raw()),
            Op::Join(t) => (TAG_JOIN, &mut self.thread, t.raw()),
            Op::VolatileRead(v) => (TAG_VREAD, &mut self.volatile, v.raw()),
            Op::VolatileWrite(v) => (TAG_VWRITE, &mut self.volatile, v.raw()),
            Op::Wait(c, _) => (TAG_WAIT, &mut self.condvar, c.raw()),
            Op::Notify(c) => (TAG_NOTIFY, &mut self.condvar, c.raw()),
            Op::NotifyAll(c) => (TAG_NOTIFY_ALL, &mut self.condvar, c.raw()),
            Op::BarrierEnter(b) => (TAG_BARRIER_ENTER, &mut self.barrier, b.raw()),
            Op::BarrierExit(b) => (TAG_BARRIER_EXIT, &mut self.barrier, b.raw()),
            Op::AcqRead(m) => (TAG_ACQ_READ, &mut self.lock, m.raw()),
            Op::AcqWrite(m) => (TAG_ACQ_WRITE, &mut self.lock, m.raw()),
            Op::TryAcqFail(m) => (TAG_TRY_FAIL, &mut self.lock, m.raw()),
        }
    }

    fn register_for(&mut self, tag: u8) -> &mut u32 {
        match tag {
            TAG_READ | TAG_WRITE => &mut self.var,
            TAG_ACQUIRE | TAG_RELEASE | TAG_ACQ_READ | TAG_ACQ_WRITE | TAG_TRY_FAIL => {
                &mut self.lock
            }
            TAG_FORK | TAG_JOIN => &mut self.thread,
            TAG_VREAD | TAG_VWRITE => &mut self.volatile,
            TAG_WAIT | TAG_NOTIFY | TAG_NOTIFY_ALL => &mut self.condvar,
            _ => &mut self.barrier,
        }
    }
}

/// The head-varint layout parameters of a version: the tag field is 3 bits
/// wide in v1 and 4 bits in v2 (making room for the condvar/barrier tags),
/// with `has_loc` just above it and the zigzag target delta above that.
#[inline]
fn tag_bits(version: u8) -> u32 {
    if version >= STB_VERSION_2 {
        4
    } else {
        3
    }
}

/// Encodes a burst of same-thread events as one run into `out`.
fn encode_run(
    out: &mut Vec<u8>,
    version: u8,
    tid: ThreadId,
    events: &[Event],
    state: &mut DeltaState,
) {
    debug_assert!(!events.is_empty());
    let bits = tag_bits(version);
    push_varint(out, u64::from(tid.raw()));
    push_varint(out, events.len() as u64);
    for e in events {
        let (tag, prev, target) = state.op_parts(&e.op);
        debug_assert!(tag <= max_tag(version));
        let delta = i64::from(target) - i64::from(*prev);
        *prev = target;
        let has_loc = u64::from(!e.loc.is_unknown());
        push_varint(
            out,
            zigzag(delta) << (bits + 1) | has_loc << bits | u64::from(tag),
        );
        if let Op::Wait(_, m) = e.op {
            let lock_delta = i64::from(m.raw()) - i64::from(state.lock);
            state.lock = m.raw();
            push_varint(out, zigzag(lock_delta));
        }
        if has_loc == 1 {
            let loc_delta = i64::from(e.loc.raw()) - i64::from(state.loc);
            state.loc = e.loc.raw();
            push_varint(out, zigzag(loc_delta));
        }
    }
}

fn id_from_i64(v: i64, offset: u64, what: &str) -> Result<u32, StbError> {
    u32::try_from(v).map_err(|_| StbError::Corrupt {
        offset,
        message: format!("{what} delta decodes to {v}, outside the u32 id range"),
    })
}

/// Decodes the payload of one chunk onto the back of `events`. `version`
/// selects the chunk grammar (v1: 3-bit tags; v2: 4-bit tags plus the
/// condvar/barrier operations); `expected` is the frame's declared event
/// count; `base` the absolute offset of the payload's first byte. On an
/// error, the events already pushed stay; the caller drops them.
fn decode_chunk(
    payload: &[u8],
    version: u8,
    expected: u64,
    base: u64,
    events: &mut VecDeque<Event>,
) -> Result<(), StbError> {
    let bits = tag_bits(version);
    let max_tag = max_tag(version);
    let mut state = DeltaState::default();
    let mut pos = 0usize;
    let mut decoded: u64 = 0;
    while decoded < expected {
        let tid = read_varint(payload, &mut pos, base, "run thread id")?;
        let tid = u32::try_from(tid).map_err(|_| StbError::Corrupt {
            offset: base + pos as u64,
            message: format!("run thread id {tid} outside the u32 id range"),
        })?;
        let run_len = read_varint(payload, &mut pos, base, "run length")?;
        if run_len == 0 {
            return Err(StbError::Corrupt {
                offset: base + pos as u64,
                message: "zero-length run".to_string(),
            });
        }
        if run_len > expected - decoded {
            return Err(StbError::Corrupt {
                offset: base + pos as u64,
                message: format!(
                    "run of {run_len} events overflows the chunk's declared count \
                     ({decoded} of {expected} decoded)"
                ),
            });
        }
        for _ in 0..run_len {
            let head = read_varint(payload, &mut pos, base, "event header")?;
            let tag = (head & ((1 << bits) - 1)) as u8;
            let has_loc = head & (1 << bits) != 0;
            let delta = unzigzag(head >> (bits + 1));
            let here = base + pos as u64;
            if tag > max_tag {
                return Err(StbError::Corrupt {
                    offset: here,
                    message: format!("unknown op tag {tag} (version {version})"),
                });
            }
            let prev = state.register_for(tag);
            let target = id_from_i64(i64::from(*prev) + delta, here, "target id")?;
            *prev = target;
            let op = match tag {
                TAG_READ => Op::Read(VarId::new(target)),
                TAG_WRITE => Op::Write(VarId::new(target)),
                TAG_ACQUIRE => Op::Acquire(LockId::new(target)),
                TAG_RELEASE => Op::Release(LockId::new(target)),
                TAG_FORK => Op::Fork(ThreadId::new(target)),
                TAG_JOIN => Op::Join(ThreadId::new(target)),
                TAG_VREAD => Op::VolatileRead(VarId::new(target)),
                TAG_VWRITE => Op::VolatileWrite(VarId::new(target)),
                TAG_WAIT => {
                    let lock_delta =
                        unzigzag(read_varint(payload, &mut pos, base, "wait monitor delta")?);
                    let m = id_from_i64(i64::from(state.lock) + lock_delta, here, "monitor id")?;
                    state.lock = m;
                    Op::Wait(CondId::new(target), LockId::new(m))
                }
                TAG_NOTIFY => Op::Notify(CondId::new(target)),
                TAG_NOTIFY_ALL => Op::NotifyAll(CondId::new(target)),
                TAG_BARRIER_ENTER => Op::BarrierEnter(BarrierId::new(target)),
                TAG_BARRIER_EXIT => Op::BarrierExit(BarrierId::new(target)),
                TAG_ACQ_READ => Op::AcqRead(LockId::new(target)),
                TAG_ACQ_WRITE => Op::AcqWrite(LockId::new(target)),
                _ => Op::TryAcqFail(LockId::new(target)),
            };
            let loc = if has_loc {
                let loc_delta = unzigzag(read_varint(payload, &mut pos, base, "location delta")?);
                let loc = id_from_i64(i64::from(state.loc) + loc_delta, here, "location")?;
                state.loc = loc;
                Loc::new(loc)
            } else {
                Loc::UNKNOWN
            };
            events.push_back(Event::with_loc(ThreadId::new(tid), op, loc));
        }
        decoded += run_len;
    }
    if pos != payload.len() {
        return Err(StbError::Corrupt {
            offset: base + pos as u64,
            message: format!(
                "{} trailing byte(s) after the chunk's {expected} declared event(s)",
                payload.len() - pos
            ),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Writer.

/// A streaming STB encoder usable as a recording sink: push events with
/// [`write`](StbWriter::write), close the stream with
/// [`finish`](StbWriter::finish).
///
/// Events are buffered into chunks of
/// [`chunk_events`](StbWriter::chunk_events) (default
/// [`DEFAULT_CHUNK_EVENTS`]) and flushed a chunk at a time, so memory stays
/// bounded however long the stream runs.
///
/// # Concurrency posture
///
/// `StbWriter` is **single-writer**: it is not `Sync`-aware, holds
/// cross-call encoder state (delta registers, the pending chunk), and
/// assumes one caller issues every `write` in stream order. Concurrent
/// recorders — the live capture frontend's per-thread buffers, say — must
/// funnel through one serializing owner (`smarttrack-capture` wraps the
/// writer in its session's emit mutex and merges per-thread buffers into
/// global order before writing; see `docs/CAPTURE.md`). What the format
/// does *not* require is any global thread contiguity: events of different
/// threads may alternate arbitrarily between (and within) chunks — a
/// same-thread run header just starts a new run, and each chunk's delta
/// state is self-contained — so out-of-order cross-thread flush
/// interleavings cost only encoding density, never decodability.
///
/// # Examples
///
/// ```
/// use smarttrack_trace::binary::{StbReader, StbWriter};
/// use smarttrack_trace::{Event, Op, ThreadId, VarId};
///
/// let mut writer = StbWriter::new(Vec::new());
/// writer.write(&Event::new(ThreadId::new(0), Op::Write(VarId::new(0))))?;
/// writer.write(&Event::new(ThreadId::new(1), Op::Read(VarId::new(0))))?;
/// let bytes = writer.finish()?;
///
/// assert_eq!(StbReader::new(&bytes[..])?.count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct StbWriter<W: Write> {
    out: W,
    pending: Vec<Event>,
    chunk_events: usize,
    /// Reusable frame-encoding buffer (also carries the header bytes until
    /// the first flush).
    scratch: Vec<u8>,
    hint: Option<StbHint>,
    /// The stream version: forced by [`v2`](StbWriter::v2) or a v2-needing
    /// hint; otherwise `None` until the first header emission *decides* it
    /// from the events seen so far (v1 whenever they allow it, keeping
    /// recordings of v1-expressible streams byte-identical across
    /// revisions).
    version: Option<u8>,
    /// Set once header bytes reached the sink, fixing the version for good.
    header_written: bool,
}

impl<W: Write> StbWriter<W> {
    /// Starts an STB stream with no [`StbHint`] (the usual case for a live
    /// recording, where totals are unknown until the stream ends).
    ///
    /// The version is decided when the first chunk is flushed: v1 unless a
    /// condvar/barrier operation was already seen. A v2-only operation
    /// arriving *after* a v1 header went out is an error — a recorder that
    /// may see such operations late should use [`v2`](StbWriter::v2).
    ///
    /// Construction is infallible: the header is buffered and only reaches
    /// the sink with the first chunk flush, so early I/O failures (e.g. an
    /// unwritable file) surface from [`write`](StbWriter::write) /
    /// [`finish`](StbWriter::finish).
    pub fn new(out: W) -> Self {
        Self::start(out, None, None)
    }

    /// Starts an STB stream pinned to version 2, whatever the events: the
    /// right constructor for live recordings that may see a condvar or
    /// barrier operation after the first chunk was flushed.
    pub fn v2(out: W) -> Self {
        Self::start(out, None, Some(STB_VERSION_2))
    }

    /// Starts an STB stream pinned to version 3: for live recordings that
    /// may see a reader-writer-lock or failed-trylock operation (or any
    /// v2-only operation) after the first chunk was flushed.
    pub fn v3(out: W) -> Self {
        Self::start(out, None, Some(STB_VERSION_3))
    }

    /// Starts an STB stream whose header carries `hint` (use when totals
    /// are known up front, e.g. when re-encoding a recorded trace). A hint
    /// declaring condvars or barriers pins the stream to v2.
    pub fn with_hint(out: W, hint: StbHint) -> Self {
        let version = hint.needs_v2().then_some(STB_VERSION_2);
        Self::start(out, Some(hint), version)
    }

    /// Raises the version floor to at least `version` (never lowers a floor
    /// already pinned). [`write_stb`], which sees the whole trace, uses
    /// this to pin v3 when the trace contains reader-writer-lock operations
    /// — the hint's cardinalities cannot express that need, since rwlocks
    /// share the lock id space.
    fn pin_version(mut self, version: u8) -> Self {
        self.version = Some(self.version.map_or(version, |v| v.max(version)));
        self
    }

    fn start(out: W, hint: Option<StbHint>, version: Option<u8>) -> Self {
        StbWriter {
            out,
            pending: Vec::new(),
            chunk_events: DEFAULT_CHUNK_EVENTS,
            scratch: Vec::new(),
            hint,
            version,
            header_written: false,
        }
    }

    /// Appends the header for `version` to the scratch buffer.
    fn push_header(&mut self, version: u8) {
        self.scratch.extend_from_slice(&STB_MAGIC);
        self.scratch.push(version);
        match self.hint {
            None => self.scratch.push(0),
            Some(h) => {
                self.scratch.push(FLAG_HAS_HINT);
                let mut fields = vec![h.events, h.threads, h.vars, h.locks, h.volatiles];
                if version >= STB_VERSION_2 {
                    fields.push(h.condvars);
                    fields.push(h.barriers);
                }
                for v in fields {
                    push_varint(&mut self.scratch, v);
                }
            }
        }
    }

    /// Sets the number of events per chunk (minimum 1). Smaller chunks make
    /// skipping finer-grained; larger chunks compress runs slightly better.
    ///
    /// The value is clamped to [`MAX_CHUNK_EVENTS`] so that even a
    /// worst-case encoding (every event a fresh run with maximal varints)
    /// stays under the readers' per-chunk payload cap — the writer can
    /// never produce a file its own reader refuses.
    pub fn chunk_events(mut self, events: usize) -> Self {
        self.chunk_events = events.clamp(1, MAX_CHUNK_EVENTS);
        self
    }

    /// Appends one event to the stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flushing a completed chunk (the header is
    /// also flushed lazily with the first chunk).
    pub fn write(&mut self, event: &Event) -> io::Result<()> {
        self.pending.push(*event);
        if self.pending.len() >= self.chunk_events {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Encodes `self.pending` as one chunk and writes it (preceded by the
    /// header if this is the first flush).
    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let needed = needed_version(&self.pending);
        if !self.header_written {
            // Until header bytes reach the sink, a pinned floor may still be
            // raised by the events themselves (a pinned-v2 recorder seeing a
            // rwlock op before its first flush upgrades to v3 cleanly).
            self.version = Some(self.version.map_or(needed, |v| v.max(needed)));
        }
        let version = self.version.unwrap_or(STB_VERSION);
        if needed > version {
            let message = if needed >= STB_VERSION_3 {
                "reader-writer-lock/trylock operations need STB v3, but a lower-version \
                 header was already written; construct the recorder with StbWriter::v3"
            } else {
                "condvar/barrier operations need STB v2, but a v1 header was already \
                 written; construct the recorder with StbWriter::v2 (or a hint that \
                 declares the condvar/barrier cardinalities)"
            };
            return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
        }
        if !self.header_written {
            self.push_header(version);
        }
        let mut payload = Vec::with_capacity(self.pending.len() * 3);
        let mut state = DeltaState::default();
        let mut start = 0;
        for i in 1..=self.pending.len() {
            if i == self.pending.len() || self.pending[i].tid != self.pending[start].tid {
                encode_run(
                    &mut payload,
                    version,
                    self.pending[start].tid,
                    &self.pending[start..i],
                    &mut state,
                );
                start = i;
            }
        }
        push_varint(&mut self.scratch, payload.len() as u64);
        push_varint(&mut self.scratch, self.pending.len() as u64);
        self.out.write_all(&self.scratch)?;
        self.out.write_all(&payload)?;
        self.header_written = true;
        self.scratch.clear();
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final (possibly partial) chunk, writes the end-of-stream
    /// terminator, and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_chunk()?;
        if !self.header_written {
            // Empty stream: the header still has to go out.
            let version = self.version.unwrap_or(STB_VERSION);
            self.push_header(version);
        }
        self.scratch.push(0); // terminator: a zero payload length
        self.out.write_all(&self.scratch)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

// ---------------------------------------------------------------------------
// Decoder: one push parser with a blocking face.

/// How far an [`StbAssembler`] parse attempt got.
enum Advance {
    /// Consumed a header or chunk; try again.
    Progress,
    /// The buffered bytes end mid-structure, which needs at least this
    /// many more; wait for more input.
    NeedMore(usize),
    /// The end-of-stream terminator was consumed.
    Done,
}

/// Maps "ran out of buffered bytes" to `None` (wait for more input) unless
/// the caller has declared end of input, in which case the underlying
/// [`StbError::Truncated`] (with its precise offset and context) stands.
fn or_need_more<T>(r: Result<T, StbError>, eof: bool) -> Result<Option<T>, StbError> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(StbError::Truncated { .. }) if !eof => Ok(None),
        Err(e) => Err(e),
    }
}

/// A fixed-size field `missing` bytes short of complete: wait for them, or
/// at end of input fail with the truncation at `offset`.
fn need_more(
    missing: usize,
    eof: bool,
    offset: u64,
    context: &'static str,
) -> Result<Advance, StbError> {
    if eof {
        return Err(StbError::Truncated { offset, context });
    }
    Ok(Advance::NeedMore(missing))
}

/// The STB decoder, push-style: the owner [`push`es](StbAssembler::push)
/// byte slices as they arrive (cut at *arbitrary* points — mid-header,
/// mid-varint, mid-chunk) and drains decoded events with
/// [`next_event`](StbAssembler::next_event); when the input ends,
/// [`close`](StbAssembler::close) either confirms a well-terminated stream
/// or reports a precise [`Truncated`](StbError::Truncated) error naming the
/// byte offset and what was being read.
///
/// A server multiplexing many streams over a shared worker pool needs this
/// shape: it cannot afford to park a worker thread inside `read`.
/// [`StbReader`] is the blocking face of the same decoder, for files and
/// dedicated sockets: it reads exactly the bytes the assembler asks for
/// next, so both faces fail the same way at the same offsets.
///
/// Memory stays bounded: at most one chunk frame (≤ 64 MiB payload cap,
/// typically a few KiB; [`with_chunk_cap`](StbAssembler::with_chunk_cap)
/// lowers the bound for untrusted peers) is buffered before it decodes,
/// and decode errors
/// are latched — after the first error the assembler refuses further input
/// rather than resynchronizing on garbage.
///
/// When the end-of-stream terminator arrives, a header hint's event count
/// must match the events the stream carried; a contradiction is
/// [`Corrupt`](StbError::Corrupt). Unlike `StbReader`, which stops at the
/// terminator and leaves any trailing bytes to the underlying reader, the
/// assembler owns its whole input and rejects bytes after the terminator
/// as [`Corrupt`](StbError::Corrupt) too.
///
/// # Examples
///
/// ```
/// use smarttrack_trace::{binary, paper};
///
/// let trace = paper::figure1();
/// let bytes = binary::to_stb_bytes(&trace);
///
/// // Feed the stream one byte at a time, as a socket might deliver it.
/// let mut assembler = binary::StbAssembler::new();
/// let mut events = Vec::new();
/// for b in &bytes {
///     assembler.push(std::slice::from_ref(b))?;
///     while let Some(event) = assembler.next_event() {
///         events.push(event);
///     }
/// }
/// assembler.close()?;
/// assert_eq!(events, trace.events());
/// # Ok::<(), binary::StbError>(())
/// ```
pub struct StbAssembler {
    /// Raw bytes not yet parsed; `buf[start..]` is live, the prefix is
    /// already-consumed garbage awaiting compaction.
    buf: Vec<u8>,
    start: usize,
    /// Absolute stream offset of `buf[start]`, so every error names its
    /// position in the stream, not in the buffer.
    consumed: u64,
    header: Option<StbHeader>,
    /// Decoded events awaiting [`next_event`](StbAssembler::next_event).
    events: VecDeque<Event>,
    /// Events decoded so far, plus those of chunks skipped undecoded.
    position: u64,
    /// The fewest further bytes the structure at `buf[start..]` needs
    /// before it parses — exactly what [`StbReader`] reads next.
    need: usize,
    /// Consume the next chunk's payload without decoding it (set by
    /// [`StbReader::skip_chunk`]).
    skip: bool,
    done: bool,
    poisoned: bool,
    /// Largest chunk payload this consumer accepts (≤ [`MAX_CHUNK_BYTES`]),
    /// and therefore the most it will ever buffer awaiting a decode.
    chunk_cap: u64,
}

impl Default for StbAssembler {
    fn default() -> Self {
        Self::new()
    }
}

impl StbAssembler {
    /// An assembler expecting the start of an STB stream.
    pub fn new() -> Self {
        StbAssembler {
            buf: Vec::new(),
            start: 0,
            consumed: 0,
            header: None,
            events: VecDeque::new(),
            position: 0,
            need: STB_MAGIC.len(),
            skip: false,
            done: false,
            poisoned: false,
            chunk_cap: MAX_CHUNK_BYTES,
        }
    }

    /// Lowers the accepted per-chunk payload size below the format's
    /// [`MAX_CHUNK_BYTES`] ceiling (the value is clamped to that range —
    /// the cap can never be raised). A server multiplexing many untrusted
    /// streams sets this near its per-session ingest budget, so no single
    /// stream can pin a 64 MiB reassembly buffer: a chunk declaring more
    /// is rejected as [`Corrupt`](StbError::Corrupt) the moment its
    /// length prefix parses, before any payload is buffered.
    #[must_use]
    pub fn with_chunk_cap(mut self, cap: u64) -> Self {
        self.chunk_cap = cap.clamp(1, MAX_CHUNK_BYTES);
        self
    }

    /// The decoded header, once enough bytes have arrived to parse it.
    pub fn header(&self) -> Option<&StbHeader> {
        self.header.as_ref()
    }

    /// Number of events decoded so far (queued or already drained).
    pub fn position(&self) -> u64 {
        self.position
    }

    /// True once the end-of-stream terminator has been consumed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Bytes pushed but not yet parsed (bounded by one chunk frame plus
    /// whatever the owner pushes between chunks).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Appends `bytes` (split anywhere) and decodes every complete
    /// structure they finish. Decoded events queue up for
    /// [`next_event`](StbAssembler::next_event).
    ///
    /// # Errors
    ///
    /// Any header or chunk error, a header hint the terminator contradicts,
    /// and [`Corrupt`](StbError::Corrupt) for bytes after the terminator.
    /// Errors are latched: every later call fails too.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), StbError> {
        self.check_poison()?;
        if self.done && !bytes.is_empty() {
            return self.poison(trailing_error(self.consumed, bytes.len()));
        }
        self.buf.extend_from_slice(bytes);
        self.parse(false)
    }

    /// Pops the next decoded event, or `None` if decoding is waiting on
    /// more input (or the stream is finished).
    pub fn next_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }

    /// Declares end of input. On a well-terminated stream this returns the
    /// total decoded event count; on a stream cut mid-structure it returns
    /// the precise [`Truncated`](StbError::Truncated) error, naming the
    /// byte offset and what was being read when the bytes ran out.
    ///
    /// # Errors
    ///
    /// [`Truncated`](StbError::Truncated) (or any latched earlier error).
    pub fn close(&mut self) -> Result<u64, StbError> {
        self.check_poison()?;
        self.parse(true)?;
        Ok(self.position)
    }

    fn check_poison(&self) -> Result<(), StbError> {
        if self.poisoned {
            return Err(StbError::Corrupt {
                offset: self.consumed,
                message: "assembler already failed; the stream cannot continue".to_string(),
            });
        }
        Ok(())
    }

    fn poison<T>(&mut self, e: StbError) -> Result<T, StbError> {
        self.poisoned = true;
        Err(e)
    }

    /// Parses every complete structure in the buffer and records what the
    /// next one needs. With `eof` set, an incomplete structure is an error.
    /// Errors poison the assembler.
    fn parse(&mut self, eof: bool) -> Result<(), StbError> {
        loop {
            match self.advance(eof) {
                Ok(Advance::Progress) => {}
                Ok(Advance::NeedMore(missing)) => {
                    assert!(!eof, "advance(eof) never defers");
                    self.need = missing;
                    return Ok(());
                }
                Ok(Advance::Done) => {
                    let trailing = self.buf.len() - self.start;
                    if trailing > 0 {
                        return self.poison(trailing_error(self.consumed, trailing));
                    }
                    return Ok(());
                }
                Err(e) => return self.poison(e),
            }
        }
    }

    /// Marks `n` bytes as parsed and compacts the buffer once the dead
    /// prefix is worth reclaiming.
    fn consume(&mut self, n: usize) {
        self.start += n;
        self.consumed += n as u64;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Attempts to parse one structure (header, chunk, or terminator) from
    /// the buffered bytes. With `eof` set, incomplete input is an error
    /// instead of [`Advance::NeedMore`].
    fn advance(&mut self, eof: bool) -> Result<Advance, StbError> {
        if self.done {
            return Ok(Advance::Done);
        }
        match self.header {
            None => self.advance_header(eof),
            Some(header) => self.advance_chunk(header, eof),
        }
    }

    fn advance_header(&mut self, eof: bool) -> Result<Advance, StbError> {
        let bytes = &self.buf[self.start..];
        let base = self.consumed;
        let end = base + bytes.len() as u64;
        if bytes.len() < 4 {
            return need_more(4 - bytes.len(), eof, end, "magic");
        }
        let magic: [u8; 4] = bytes[..4].try_into().expect("four bytes");
        if magic != STB_MAGIC {
            return Err(StbError::BadMagic { found: magic });
        }
        if bytes.len() < 6 {
            return need_more(6 - bytes.len(), eof, end, "version and flags");
        }
        let (version, flags) = (bytes[4], bytes[5]);
        if !matches!(version, STB_VERSION | STB_VERSION_2 | STB_VERSION_3) {
            return Err(StbError::UnsupportedVersion(version));
        }
        if flags & !KNOWN_FLAGS != 0 {
            return Err(StbError::UnknownFlags(flags));
        }
        let mut pos = 6usize;
        let hint = if flags & FLAG_HAS_HINT != 0 {
            let mut fields = [0u64; 7];
            let count = if version >= STB_VERSION_2 { 7 } else { 5 };
            for field in fields.iter_mut().take(count) {
                match or_need_more(read_varint(bytes, &mut pos, base, "header hint"), eof)? {
                    Some(v) => *field = v,
                    None => return Ok(Advance::NeedMore(1)),
                }
            }
            Some(StbHint {
                events: fields[0],
                threads: fields[1],
                vars: fields[2],
                locks: fields[3],
                volatiles: fields[4],
                condvars: fields[5],
                barriers: fields[6],
            })
        } else {
            None
        };
        self.header = Some(StbHeader { version, hint });
        self.consume(pos);
        Ok(Advance::Progress)
    }

    fn advance_chunk(&mut self, header: StbHeader, eof: bool) -> Result<Advance, StbError> {
        let bytes = &self.buf[self.start..];
        let base = self.consumed;
        let mut pos = 0usize;
        if eof && bytes.is_empty() {
            // Clean end at a frame boundary without the terminator: be
            // strict — a truncated recording should not silently pass.
            return Err(StbError::Truncated {
                offset: base,
                context: "chunk length (missing end-of-stream terminator)",
            });
        }
        let Some(len) = or_need_more(read_varint(bytes, &mut pos, base, "chunk length"), eof)?
        else {
            return Ok(Advance::NeedMore(1));
        };
        if len == 0 {
            self.consume(pos);
            self.done = true;
            if let Some(hint) = header.hint {
                if hint.events != self.position {
                    return Err(StbError::Corrupt {
                        offset: self.consumed,
                        message: format!(
                            "header hint declares {} events but the stream carries {}",
                            hint.events, self.position
                        ),
                    });
                }
            }
            return Ok(Advance::Done);
        }
        if len > self.chunk_cap {
            return Err(StbError::Corrupt {
                offset: base + pos as u64,
                message: format!(
                    "chunk payload of {len} bytes exceeds the {}-byte cap",
                    self.chunk_cap
                ),
            });
        }
        let Some(count) =
            or_need_more(read_varint(bytes, &mut pos, base, "chunk event count"), eof)?
        else {
            return Ok(Advance::NeedMore(1));
        };
        if count == 0 {
            return Err(StbError::Corrupt {
                offset: base + pos as u64,
                message: "chunk declares zero events".to_string(),
            });
        }
        check_chunk_count(count, len, base + pos as u64)?;
        let len = len as usize;
        if bytes.len() - pos < len {
            let end = base + bytes.len() as u64;
            return need_more(len - (bytes.len() - pos), eof, end, "chunk payload");
        }
        if self.skip {
            self.skip = false;
        } else {
            let queued = self.events.len();
            self.events.reserve(count as usize);
            let payload = &bytes[pos..pos + len];
            if let Err(e) = decode_chunk(
                payload,
                header.version,
                count,
                base + pos as u64,
                &mut self.events,
            ) {
                self.events.truncate(queued);
                return Err(e);
            }
        }
        self.position += count;
        self.consume(pos + len);
        Ok(Advance::Progress)
    }
}

fn trailing_error(offset: u64, trailing: usize) -> StbError {
    StbError::Corrupt {
        offset,
        message: format!("{trailing} byte(s) after the end-of-stream terminator"),
    }
}

/// A streaming STB decoder: an iterator of [`Event`]s that reads one chunk
/// at a time, so memory stays bounded by the writer's chunk size however
/// large the file.
///
/// It is the blocking face of [`StbAssembler`]: it reads from its input
/// exactly the bytes the assembler's next header, frame or payload still
/// needs. It never reads past the end-of-stream terminator, and after each
/// chunk its input sits exactly at the next one.
///
/// The reader performs no trace validation — feed its events to an analysis
/// `Session` (which validates the stream) or to a
/// [`TraceBuilder`]. The eager [`read_stb`] wrapper
/// does the latter for you.
///
/// # Examples
///
/// ```
/// use smarttrack_trace::{binary, paper};
///
/// let bytes = binary::to_stb_bytes(&paper::figure1());
/// let mut reader = binary::StbReader::new(&bytes[..])?;
/// assert_eq!(reader.header().hint.unwrap().events, 8);
/// let first = reader.next().unwrap()?;
/// assert_eq!(first.to_string(), "T0:rd(x0)");
/// # Ok::<(), smarttrack_trace::binary::StbError>(())
/// ```
pub struct StbReader<R: Read> {
    input: R,
    asm: StbAssembler,
}

impl<R: Read> StbReader<R> {
    /// Reads and checks the STB header, leaving the reader positioned at
    /// the first chunk.
    ///
    /// # Errors
    ///
    /// [`StbError::BadMagic`] / [`StbError::UnsupportedVersion`] /
    /// [`StbError::UnknownFlags`] for foreign or future inputs,
    /// [`StbError::Truncated`] if the input ends inside the header.
    pub fn new(input: R) -> Result<Self, StbError> {
        let mut reader = StbReader {
            input,
            asm: StbAssembler::new(),
        };
        while reader.asm.header.is_none() {
            reader.pull()?;
        }
        Ok(reader)
    }

    /// The decoded header.
    pub fn header(&self) -> &StbHeader {
        self.asm.header.as_ref().expect("new parsed the header")
    }

    /// Number of events decoded (yielded or skipped) so far.
    pub fn position(&self) -> u64 {
        self.asm.position - self.asm.events.len() as u64
    }

    /// Reads the bytes the assembler needs next and parses them; at end of
    /// input, the assembler's precise truncation error.
    fn pull(&mut self) -> Result<(), StbError> {
        let need = self.asm.need;
        match (&mut self.input)
            .take(need as u64)
            .read_to_end(&mut self.asm.buf)
        {
            Ok(read) => self.asm.parse(read < need),
            Err(e) => self.asm.poison(StbError::Io(e)),
        }
    }

    /// Skips the next whole chunk without decoding its events (any events
    /// already buffered from the current chunk are dropped first). Returns
    /// the number of events skipped, or `None` at end of stream.
    ///
    /// Skipping is sound because every chunk's delta state is
    /// self-contained; it is how a consumer seeks coarsely into a long
    /// recording (e.g. to resume a windowed analysis).
    ///
    /// # Errors
    ///
    /// Frame-level errors only, including a header hint the terminator
    /// contradicts — the skipped payload is not validated.
    pub fn skip_chunk(&mut self) -> Result<Option<u64>, StbError> {
        let queued = self.asm.events.len() as u64;
        if queued > 0 {
            self.asm.events.clear();
            return Ok(Some(queued));
        }
        let before = self.asm.position;
        self.asm.skip = true;
        while self.asm.skip && !self.asm.done && !self.asm.poisoned {
            self.pull()?;
        }
        // Every chunk declares at least one event.
        Ok((self.asm.position > before).then(|| self.asm.position - before))
    }
}

impl<R: Read> Iterator for StbReader<R> {
    type Item = Result<Event, StbError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(event) = self.asm.events.pop_front() {
                return Some(Ok(event));
            }
            if self.asm.done || self.asm.poisoned {
                return None;
            }
            if let Err(e) = self.pull() {
                return Some(Err(e));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Eager faces.

/// Writes `trace` to `out` as an STB stream, header hint included.
///
/// # Errors
///
/// Propagates I/O errors.
///
/// # Examples
///
/// ```
/// use smarttrack_trace::{binary, paper};
///
/// let bytes = binary::write_stb(&paper::figure1(), Vec::new())?;
/// assert!(bytes.starts_with(&binary::STB_MAGIC));
/// assert_eq!(binary::read_stb(&bytes[..])?, paper::figure1());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_stb<W: Write>(trace: &Trace, out: W) -> io::Result<W> {
    let mut writer = StbWriter::with_hint(out, StbHint::of_trace(trace));
    // The hint cannot express v3-need (rwlocks share the lock id space), and
    // a v3 op may first appear past the first chunk — scan the whole trace
    // and pin the version up front.
    if trace.events().iter().any(|e| op_needs_v3(&e.op)) {
        writer = writer.pin_version(STB_VERSION_3);
    }
    for event in trace.events() {
        writer.write(event)?;
    }
    writer.finish()
}

/// Reads a whole STB stream into a validated [`Trace`].
///
/// # Errors
///
/// Decode errors as [`StbError`]; [`StbError::Malformed`] if the decoded
/// events violate trace well-formedness.
pub fn read_stb<R: Read>(input: R) -> Result<Trace, StbError> {
    let mut builder = TraceBuilder::new();
    for event in StbReader::new(input)? {
        builder.push_event(event?)?;
    }
    Ok(builder.finish())
}

/// [`write_stb`] into a fresh byte vector.
pub fn to_stb_bytes(trace: &Trace) -> Vec<u8> {
    write_stb(trace, Vec::new()).expect("writing to a Vec cannot fail")
}

/// [`read_stb`] from a byte slice.
///
/// # Errors
///
/// Same as [`read_stb`].
pub fn from_stb_bytes(bytes: &[u8]) -> Result<Trace, StbError> {
    read_stb(bytes)
}

/// Writes a trace to an STB file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_stb_file<P: AsRef<std::path::Path>>(trace: &Trace, path: P) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = io::BufWriter::new(file);
    write_stb(trace, &mut out)?;
    out.flush()
}

/// Reads a trace from an STB file.
///
/// # Errors
///
/// I/O errors as [`StbError::Io`]; decode errors as the other variants.
pub fn read_stb_file<P: AsRef<std::path::Path>>(path: P) -> Result<Trace, StbError> {
    let file = std::fs::File::open(path)?;
    read_stb(io::BufReader::new(file))
}

impl Trace {
    /// Serializes this trace as STB (see [`binary`](crate::binary)).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_stb<W: Write>(&self, out: W) -> io::Result<W> {
        write_stb(self, out)
    }

    /// Reads a trace from an STB stream (see [`binary`](crate::binary)).
    ///
    /// # Errors
    ///
    /// Same as [`read_stb`].
    pub fn read_stb<R: Read>(input: R) -> Result<Self, StbError> {
        read_stb(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::RandomTraceSpec;
    use crate::paper;

    #[test]
    fn round_trips_paper_figures() {
        for (name, tr) in paper::all_figures() {
            let bytes = to_stb_bytes(&tr);
            let back = from_stb_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, tr, "{name}");
        }
    }

    #[test]
    fn round_trips_random_traces_across_chunk_sizes() {
        for seed in 0..6 {
            let tr = RandomTraceSpec {
                events: 700,
                volatiles: 2,
                volatile_prob: 0.05,
                fork_join: true,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            for chunk in [1, 3, 64, 4096] {
                let mut w =
                    StbWriter::with_hint(Vec::new(), StbHint::of_trace(&tr)).chunk_events(chunk);
                for e in tr.events() {
                    w.write(e).unwrap();
                }
                let bytes = w.finish().unwrap();
                assert_eq!(
                    from_stb_bytes(&bytes).expect("round trip"),
                    tr,
                    "seed {seed} chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn cross_thread_flush_interleavings_stay_decodable_and_validator_clean() {
        // The single-writer posture (see the StbWriter docs) promises that
        // arbitrary cross-thread alternation — the worst case a capture
        // session's out-of-order per-thread flushes can funnel into the
        // writer — costs only density, never decodability: run headers
        // never assume global thread contiguity, and each chunk's delta
        // state is self-contained. Interleave singleton same-thread runs
        // from many threads across tiny v2 chunks and round-trip.
        let mut b = crate::TraceBuilder::new();
        let threads = 5u32;
        for t in 0..threads {
            b.push(ThreadId::new(0), Op::Fork(ThreadId::new(t + 1)))
                .unwrap();
        }
        // Every event switches threads, so every same-thread run is a
        // singleton; each thread works its own lock to keep the stream
        // lock-discipline clean. Rounds mix v1 ops with v2 condvar and
        // barrier ops.
        for round in 0..12u32 {
            for phase in 0..4u32 {
                for t in 1..=threads {
                    let tid = ThreadId::new(t);
                    let own = crate::LockId::new(t);
                    match phase {
                        0 => b.push(tid, Op::Acquire(own)).unwrap(),
                        1 => b.push(tid, Op::Write(VarId::new((round + t) % 7))).unwrap(),
                        2 => b.push(tid, Op::Release(own)).unwrap(),
                        _ => b.push(tid, Op::Notify(crate::CondId::new(t % 2))).unwrap(),
                    };
                }
            }
            // A full rendezvous with interleaved enters and exits.
            let bar = crate::BarrierId::new(round % 2);
            for t in 1..=threads {
                b.push(ThreadId::new(t), Op::BarrierEnter(bar)).unwrap();
            }
            for t in 1..=threads {
                b.push(ThreadId::new(t), Op::BarrierExit(bar)).unwrap();
            }
        }
        let tr = b.finish();
        for chunk in [1, 2, 7, 64] {
            let mut w = StbWriter::v2(Vec::new()).chunk_events(chunk);
            for e in tr.events() {
                w.write(e).unwrap();
            }
            let bytes = w.finish().unwrap();
            // from_stb_bytes replays the stream through TraceBuilder, so a
            // successful decode is also a validator-clean certificate.
            assert_eq!(from_stb_bytes(&bytes).expect("decode"), tr, "chunk {chunk}");
        }
    }

    #[test]
    fn same_thread_runs_cost_a_few_bytes_per_event() {
        // A single-thread burst with clustered variables and locations: the
        // motivating case. Budget: header + ~3 bytes/event.
        let mut b = crate::TraceBuilder::new();
        for i in 0..1000u32 {
            b.push_at(
                ThreadId::new(0),
                Op::Write(VarId::new(i % 8)),
                Loc::new(100 + i % 4),
            )
            .unwrap();
        }
        let tr = b.finish();
        let bytes = to_stb_bytes(&tr);
        assert!(
            bytes.len() <= 24 + 3 * tr.len(),
            "{} bytes for {} events",
            bytes.len(),
            tr.len()
        );
        // And much smaller than the text rendering.
        assert!(bytes.len() * 4 < crate::fmt::render(&tr).len());
    }

    #[test]
    fn empty_trace_round_trips() {
        let tr = Trace::default();
        let bytes = to_stb_bytes(&tr);
        assert_eq!(from_stb_bytes(&bytes).unwrap(), tr);
    }

    #[test]
    fn streaming_writer_without_hint_omits_it() {
        let mut w = StbWriter::new(Vec::new());
        w.write(&Event::new(ThreadId::new(0), Op::Write(VarId::new(0))))
            .unwrap();
        let bytes = w.finish().unwrap();
        let reader = StbReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.header().hint, None);
        assert_eq!(reader.count(), 1);
    }

    #[test]
    fn reader_reports_position_and_header() {
        let tr = paper::figure2();
        let bytes = to_stb_bytes(&tr);
        let mut reader = StbReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.position(), 0);
        let hint = reader.header().hint.expect("eager writes carry a hint");
        assert_eq!(hint.events, tr.len() as u64);
        assert_eq!(hint.threads, tr.num_threads() as u64);
        reader.next().unwrap().unwrap();
        assert_eq!(reader.position(), 1);
    }

    #[test]
    fn skip_chunk_skips_whole_chunks() {
        let tr = RandomTraceSpec {
            events: 100,
            ..RandomTraceSpec::default()
        }
        .generate(9);
        let mut w = StbWriter::new(Vec::new()).chunk_events(40);
        for e in tr.events() {
            w.write(e).unwrap();
        }
        let bytes = w.finish().unwrap();

        let mut reader = StbReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.skip_chunk().unwrap(), Some(40));
        let rest: Result<Vec<_>, _> = (&mut reader).collect();
        assert_eq!(rest.unwrap(), &tr.events()[40..]);
        assert_eq!(reader.skip_chunk().unwrap(), None);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = from_stb_bytes(b"T0 wr x0\n").unwrap_err();
        assert!(matches!(err, StbError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn rejects_future_versions_and_unknown_flags() {
        let mut bytes = to_stb_bytes(&paper::figure1());
        bytes[4] = 9;
        assert!(matches!(
            from_stb_bytes(&bytes).unwrap_err(),
            StbError::UnsupportedVersion(9)
        ));
        let mut bytes = to_stb_bytes(&paper::figure1());
        bytes[5] |= 0b1000_0000;
        assert!(matches!(
            from_stb_bytes(&bytes).unwrap_err(),
            StbError::UnknownFlags(_)
        ));
    }

    #[test]
    fn truncation_anywhere_is_a_precise_error_not_a_panic() {
        let bytes = to_stb_bytes(&paper::figure3());
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
    fn corrupt_chunk_declared_counts_are_rejected() {
        let tr = paper::figure1();
        let bytes = to_stb_bytes(&tr);
        // Locate the chunk frame: header is 4 magic + 1 version + 1 flags +
        // 5 hint varints (all small here, 1 byte each) = 11 bytes.
        let frame = 11;
        let mut fewer = bytes.clone();
        // Event count 8 -> 7: either a run now overflows the declared count
        // or bytes trail the last declared event; both are Corrupt.
        fewer[frame + 1] -= 1;
        match from_stb_bytes(&fewer).unwrap_err() {
            StbError::Corrupt { message, .. } => assert!(
                message.contains("trailing") || message.contains("overflows"),
                "{message}"
            ),
            other => panic!("unexpected {other}"),
        }
        let mut more = bytes.clone();
        more[frame + 1] += 1; // event count 8 -> 9: run overflow / truncation
        assert!(from_stb_bytes(&more).is_err());
    }

    #[test]
    fn corrupt_hint_event_count_is_rejected_eagerly() {
        let mut bytes = to_stb_bytes(&paper::figure1());
        bytes[6] += 1; // hint.events (first varint after flags)
        match from_stb_bytes(&bytes).unwrap_err() {
            StbError::Corrupt { message, .. } => {
                assert!(message.contains("header hint declares"), "{message}")
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn oversized_chunk_length_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STB_MAGIC);
        bytes.push(STB_VERSION);
        bytes.push(0);
        push_varint(&mut bytes, u64::MAX / 2); // absurd payload length
        match StbReader::new(&bytes[..])
            .unwrap()
            .next()
            .unwrap()
            .unwrap_err()
        {
            StbError::Corrupt { message, .. } => assert!(message.contains("cap"), "{message}"),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STB_MAGIC);
        bytes.push(STB_VERSION);
        bytes.push(0);
        bytes.extend_from_slice(&[0xff; 11]); // 11 continuation bytes > 64 bits
        let err = StbReader::new(&bytes[..])
            .unwrap()
            .next()
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, StbError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn eager_read_validates_well_formedness() {
        // Encode an ill-formed stream (release of an unheld lock) directly
        // through the streaming writer, which does not validate.
        let mut w = StbWriter::new(Vec::new());
        w.write(&Event::new(ThreadId::new(0), Op::Release(LockId::new(0))))
            .unwrap();
        let bytes = w.finish().unwrap();
        assert!(matches!(
            from_stb_bytes(&bytes).unwrap_err(),
            StbError::Malformed(TraceError::ReleaseUnheldLock { .. })
        ));
        // The streaming reader yields it raw — validation is the consumer's.
        let events: Result<Vec<_>, _> = StbReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(events.unwrap().len(), 1);
    }

    #[test]
    fn trace_inherent_methods_mirror_the_free_functions() {
        let tr = paper::figure4c();
        let bytes = tr.write_stb(Vec::new()).unwrap();
        assert_eq!(Trace::read_stb(&bytes[..]).unwrap(), tr);
    }

    #[test]
    fn zigzag_is_a_bijection_on_extremes() {
        for v in [0, 1, -1, i64::MAX, i64::MIN, 12345, -54321] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    /// A small trace exercising every v2-only op tag.
    fn sync_trace() -> Trace {
        use crate::{BarrierId, CondId};
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let (c0, c1) = (CondId::new(0), CondId::new(1));
        let m = LockId::new(0);
        let bar = BarrierId::new(0);
        let mut b = crate::TraceBuilder::new();
        b.push(t0, Op::Write(VarId::new(0))).unwrap();
        b.push(t0, Op::Notify(c0)).unwrap();
        b.push(t0, Op::NotifyAll(c1)).unwrap();
        b.push(t1, Op::Acquire(m)).unwrap();
        b.push_at(t1, Op::Wait(c0, m), Loc::new(7)).unwrap();
        b.push(t1, Op::Read(VarId::new(0))).unwrap();
        b.push(t1, Op::Release(m)).unwrap();
        b.push(t0, Op::BarrierEnter(bar)).unwrap();
        b.push(t1, Op::BarrierEnter(bar)).unwrap();
        b.push(t0, Op::BarrierExit(bar)).unwrap();
        b.push(t1, Op::BarrierExit(bar)).unwrap();
        b.finish()
    }

    #[test]
    fn v2_ops_round_trip_and_write_a_v2_header() {
        let tr = sync_trace();
        let bytes = to_stb_bytes(&tr);
        assert_eq!(bytes[4], STB_VERSION_2);
        let reader = StbReader::new(&bytes[..]).unwrap();
        let hint = reader.header().hint.expect("eager writes carry a hint");
        assert_eq!(hint.condvars, 2);
        assert_eq!(hint.barriers, 1);
        assert_eq!(from_stb_bytes(&bytes).unwrap(), tr);
    }

    #[test]
    fn v1_expressible_traces_still_write_v1_bytes() {
        for (name, tr) in paper::all_figures() {
            let bytes = to_stb_bytes(&tr);
            assert_eq!(bytes[4], STB_VERSION, "{name} must stay v1");
        }
    }

    #[test]
    fn v2_round_trips_across_chunk_sizes() {
        let tr = RandomTraceSpec {
            events: 600,
            condvars: 2,
            condvar_prob: 0.1,
            barriers: 2,
            barrier_prob: 0.05,
            volatiles: 1,
            volatile_prob: 0.05,
            ..RandomTraceSpec::default()
        }
        .generate(5);
        assert!(tr.num_condvars() > 0 && tr.num_barriers() > 0);
        for chunk in [1, 3, 64, 4096] {
            let mut w =
                StbWriter::with_hint(Vec::new(), StbHint::of_trace(&tr)).chunk_events(chunk);
            for e in tr.events() {
                w.write(e).unwrap();
            }
            let bytes = w.finish().unwrap();
            assert_eq!(bytes[4], STB_VERSION_2);
            assert_eq!(from_stb_bytes(&bytes).expect("round trip"), tr, "{chunk}");
        }
    }

    #[test]
    fn adaptive_streaming_writer_upgrades_before_the_first_flush() {
        let tr = sync_trace();
        let mut w = StbWriter::new(Vec::new());
        for e in tr.events() {
            w.write(e).unwrap();
        }
        let bytes = w.finish().unwrap();
        assert_eq!(bytes[4], STB_VERSION_2);
        let events: Result<Vec<_>, _> = StbReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(events.unwrap(), tr.events());
    }

    #[test]
    fn late_v2_op_after_a_v1_header_is_a_clear_error() {
        use crate::CondId;
        // Chunk size 1 flushes a v1 header with the first (v1) event.
        let mut w = StbWriter::new(Vec::new()).chunk_events(1);
        w.write(&Event::new(ThreadId::new(0), Op::Write(VarId::new(0))))
            .unwrap();
        let err = w
            .write(&Event::new(ThreadId::new(0), Op::Notify(CondId::new(0))))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("StbWriter::v2"), "{err}");
        // The pinned-v2 constructor handles the same stream fine.
        let mut w = StbWriter::v2(Vec::new()).chunk_events(1);
        w.write(&Event::new(ThreadId::new(0), Op::Write(VarId::new(0))))
            .unwrap();
        w.write(&Event::new(ThreadId::new(0), Op::Notify(CondId::new(0))))
            .unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes[4], STB_VERSION_2);
        assert_eq!(StbReader::new(&bytes[..]).unwrap().count(), 2);
    }

    /// A small trace exercising every v3-only op tag (plus exclusive locks,
    /// so the shared lock register sees both op families).
    fn rw_trace() -> Trace {
        let (t0, t1, t2) = (ThreadId::new(0), ThreadId::new(1), ThreadId::new(2));
        let m = LockId::new(0);
        let mut b = crate::TraceBuilder::new();
        b.push(t0, Op::AcqWrite(m)).unwrap();
        b.push(t0, Op::Write(VarId::new(0))).unwrap();
        b.push(t0, Op::Release(m)).unwrap();
        b.push(t1, Op::AcqRead(m)).unwrap();
        b.push(t2, Op::AcqRead(m)).unwrap();
        b.push_at(t0, Op::TryAcqFail(m), Loc::new(3)).unwrap();
        b.push(t1, Op::Read(VarId::new(0))).unwrap();
        b.push(t1, Op::Release(m)).unwrap();
        b.push(t2, Op::Release(m)).unwrap();
        b.push(t0, Op::Acquire(LockId::new(1))).unwrap();
        b.push(t0, Op::Release(LockId::new(1))).unwrap();
        b.finish()
    }

    #[test]
    fn v3_ops_round_trip_and_write_a_v3_header() {
        let tr = rw_trace();
        let bytes = to_stb_bytes(&tr);
        assert_eq!(bytes[4], STB_VERSION_3);
        assert_eq!(from_stb_bytes(&bytes).unwrap(), tr);
        for chunk in [1, 2, 5, 4096] {
            let mut w =
                StbWriter::with_hint(Vec::new(), StbHint::of_trace(&tr)).chunk_events(chunk);
            w = w.pin_version(STB_VERSION_3);
            for e in tr.events() {
                w.write(e).unwrap();
            }
            let bytes = w.finish().unwrap();
            assert_eq!(from_stb_bytes(&bytes).expect("round trip"), tr, "{chunk}");
        }
    }

    #[test]
    fn v3_truncation_anywhere_is_a_precise_error_not_a_panic() {
        let bytes = to_stb_bytes(&rw_trace());
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
    fn condvar_only_traces_still_write_v2_not_v3() {
        let bytes = to_stb_bytes(&sync_trace());
        assert_eq!(bytes[4], STB_VERSION_2);
    }

    #[test]
    fn adaptive_streaming_writer_upgrades_to_v3_before_the_first_flush() {
        let tr = rw_trace();
        let mut w = StbWriter::new(Vec::new());
        for e in tr.events() {
            w.write(e).unwrap();
        }
        let bytes = w.finish().unwrap();
        assert_eq!(bytes[4], STB_VERSION_3);
        // A pinned-v2 writer likewise upgrades while its header is unsent.
        let mut w = StbWriter::v2(Vec::new());
        for e in tr.events() {
            w.write(e).unwrap();
        }
        let bytes = w.finish().unwrap();
        assert_eq!(bytes[4], STB_VERSION_3);
        let events: Result<Vec<_>, _> = StbReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(events.unwrap(), tr.events());
    }

    #[test]
    fn late_v3_op_after_a_lower_header_is_a_clear_error() {
        // Chunk size 1 flushes a v1 header with the first (v1) event.
        let mut w = StbWriter::new(Vec::new()).chunk_events(1);
        w.write(&Event::new(ThreadId::new(0), Op::Write(VarId::new(0))))
            .unwrap();
        let err = w
            .write(&Event::new(ThreadId::new(1), Op::AcqRead(LockId::new(0))))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("StbWriter::v3"), "{err}");
        // The pinned-v3 constructor handles the same stream fine.
        let mut w = StbWriter::v3(Vec::new()).chunk_events(1);
        w.write(&Event::new(ThreadId::new(0), Op::Write(VarId::new(0))))
            .unwrap();
        w.write(&Event::new(ThreadId::new(1), Op::AcqRead(LockId::new(0))))
            .unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes[4], STB_VERSION_3);
        assert_eq!(StbReader::new(&bytes[..]).unwrap().count(), 2);
    }

    #[test]
    fn v3_tags_in_a_v2_stream_are_rejected_as_corrupt() {
        // Flip the version byte of a v3 stream down to 2: tags 13–15 are
        // outside the v2 grammar and must decode as Corrupt (never as some
        // other op — both grammars use 4-bit tags, so the bit layout is
        // identical and only the max-tag check distinguishes them).
        let mut bytes = to_stb_bytes(&rw_trace());
        assert_eq!(bytes[4], STB_VERSION_3);
        bytes[4] = STB_VERSION_2;
        match from_stb_bytes(&bytes).unwrap_err() {
            StbError::Corrupt { message, .. } => {
                assert!(message.contains("unknown op tag"), "{message}")
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn assembler_decodes_v3_streams_at_every_split_granularity() {
        let tr = rw_trace();
        let mut w = StbWriter::with_hint(Vec::new(), StbHint::of_trace(&tr))
            .pin_version(STB_VERSION_3)
            .chunk_events(3);
        for e in tr.events() {
            w.write(e).unwrap();
        }
        let bytes = w.finish().unwrap();
        for step in [1, 2, 3, 7, bytes.len()] {
            let events = assemble(&bytes, step).expect("assembles");
            assert_eq!(events, tr.events(), "step {step}");
        }
    }

    #[test]
    fn v2_tags_in_a_v1_stream_are_rejected_as_corrupt() {
        // Hand-craft a v1 chunk whose head varint names tag 7 with a big
        // delta — legal — then check a v2 stream decoding the same bytes
        // yields different ops, proving the grammars are dispatched by
        // version (a v1 reader shifted by 4, a v2 reader by 5).
        let tr = sync_trace();
        let mut bytes = to_stb_bytes(&tr);
        // Flip the version byte of a v2 stream down to 1: the payload now
        // parses under the 3-bit grammar and must NOT silently decode to
        // the same events (usually it errors; a well-formed-but-different
        // decode would break the hint count).
        bytes[4] = STB_VERSION;
        if let Ok(decoded) = from_stb_bytes(&bytes) {
            assert_ne!(decoded, tr, "grammars must differ");
        } // Err: expected — truncated hint / corrupt chunk under v1 rules.
    }

    /// Drains an assembler fed `bytes` in `step`-sized pushes.
    fn assemble(bytes: &[u8], step: usize) -> Result<Vec<Event>, StbError> {
        let mut asm = StbAssembler::new();
        let mut events = Vec::new();
        for piece in bytes.chunks(step.max(1)) {
            asm.push(piece)?;
            while let Some(e) = asm.next_event() {
                events.push(e);
            }
        }
        asm.close()?;
        assert!(asm.is_done());
        assert_eq!(asm.position(), events.len() as u64);
        assert_eq!(asm.buffered_bytes(), 0);
        Ok(events)
    }

    #[test]
    fn assembler_matches_reader_at_every_split_granularity() {
        for tr in [paper::figure1(), sync_trace()] {
            let mut w = StbWriter::with_hint(Vec::new(), StbHint::of_trace(&tr)).chunk_events(3);
            for e in tr.events() {
                w.write(e).unwrap();
            }
            let bytes = w.finish().unwrap();
            for step in [1, 2, 3, 7, 64, bytes.len()] {
                let events = assemble(&bytes, step).expect("assembles");
                assert_eq!(events, tr.events(), "step {step}");
            }
        }
    }

    #[test]
    fn assembler_exposes_the_header_once_parsed() {
        let tr = sync_trace();
        let bytes = to_stb_bytes(&tr);
        let mut asm = StbAssembler::new();
        assert!(asm.header().is_none());
        asm.push(&bytes).unwrap();
        let header = asm.header().expect("header parsed");
        assert_eq!(header.version, STB_VERSION_2);
        assert_eq!(header.hint.unwrap().events, tr.len() as u64);
    }

    #[test]
    fn assembler_truncation_anywhere_matches_reader_errors() {
        let tr = sync_trace();
        let bytes = to_stb_bytes(&tr);
        for cut in 0..bytes.len() {
            let reader_err = (|| -> Result<u64, StbError> {
                let mut n = 0;
                for e in StbReader::new(&bytes[..cut])? {
                    e?;
                    n += 1;
                }
                Err(StbError::Truncated {
                    offset: 0,
                    context: "reader finished a truncated stream",
                })
                .map(|()| n)
            })();
            let asm_err = (|| -> Result<u64, StbError> {
                let mut asm = StbAssembler::new();
                asm.push(&bytes[..cut])?;
                asm.close()
            })();
            let reader_err = reader_err.expect_err("cut streams must fail");
            let asm_err = asm_err.unwrap_err();
            // The reader reads the terminator lazily, so some cuts surface
            // as different *variants* only when the reader never looked at
            // the tail; offsets and contexts must agree whenever both
            // raise Truncated.
            if let (
                StbError::Truncated {
                    offset: ro,
                    context: rc,
                },
                StbError::Truncated {
                    offset: ao,
                    context: ac,
                },
            ) = (&reader_err, &asm_err)
            {
                assert_eq!((ro, rc), (ao, ac), "cut {cut}");
            }
        }
    }

    #[test]
    fn assembler_rejects_trailing_bytes_and_latches_errors() {
        let bytes = to_stb_bytes(&paper::figure1());
        let mut asm = StbAssembler::new();
        asm.push(&bytes).unwrap();
        let err = asm.push(&[0x00]).unwrap_err();
        assert!(matches!(err, StbError::Corrupt { .. }), "{err}");
        // Latched: even a now-harmless call keeps failing.
        let err = asm.close().unwrap_err();
        assert!(err.to_string().contains("already failed"), "{err}");
    }

    #[test]
    fn assembler_rejects_bad_magic_and_oversized_chunks_eagerly() {
        let mut asm = StbAssembler::new();
        let err = asm.push(b"GARB").unwrap_err();
        assert!(matches!(err, StbError::BadMagic { .. }), "{err}");

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STB_MAGIC);
        bytes.push(STB_VERSION);
        bytes.push(0); // no hint
        push_varint(&mut bytes, MAX_CHUNK_BYTES + 1);
        let mut asm = StbAssembler::new();
        let err = asm.push(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("exceeds"),
            "oversized length must be rejected before buffering: {err}"
        );
    }

    #[test]
    fn huge_declared_event_counts_are_rejected_before_allocation() {
        // A ~15-byte frame declaring 2^40 events must yield a Corrupt
        // error, not a terabyte `Vec::with_capacity` (an allocator abort
        // that no catch_unwind can contain). Reader and assembler must
        // agree byte-for-byte on the diagnosis.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STB_MAGIC);
        bytes.push(STB_VERSION);
        bytes.push(0); // no hint
        push_varint(&mut bytes, 8); // chunk payload length
        push_varint(&mut bytes, 1 << 40); // declared event count
        bytes.extend_from_slice(&[0u8; 8]); // payload
        bytes.push(0); // terminator

        let reader_err = StbReader::new(&bytes[..])
            .expect("header parses")
            .find_map(Result::err)
            .expect("reader must reject the count");
        assert!(
            matches!(reader_err, StbError::Corrupt { .. }),
            "{reader_err}"
        );

        let mut asm = StbAssembler::new();
        let asm_err = asm.push(&bytes).unwrap_err();
        assert_eq!(asm_err.to_string(), reader_err.to_string());
    }

    #[test]
    fn event_counts_beyond_the_per_chunk_cap_are_rejected() {
        // `count <= len` alone would still let a dense 64 MiB declaration
        // pre-size a 64 Mi-event buffer; the event cap bounds it. The
        // check fires as soon as the two varints parse — no payload needed.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STB_MAGIC);
        bytes.push(STB_VERSION);
        bytes.push(0);
        push_varint(&mut bytes, MAX_CHUNK_BYTES);
        push_varint(&mut bytes, MAX_CHUNK_EVENTS as u64 + 1);
        let mut asm = StbAssembler::new();
        let err = asm.push(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("events"),
            "event-count cap must be enforced: {err}"
        );
    }

    #[test]
    fn assembler_chunk_cap_bounds_reassembly_buffering() {
        let bytes = to_stb_bytes(&paper::figure1());
        // figure1's single chunk is tiny; a generous cap accepts it…
        let mut asm = StbAssembler::new().with_chunk_cap(1 << 16);
        asm.push(&bytes).unwrap();
        asm.close().unwrap();
        // …and a 4-byte cap rejects the declared length before buffering
        // a single payload byte.
        let mut tight = StbAssembler::new().with_chunk_cap(4);
        let err = tight.push(&bytes).unwrap_err();
        assert!(err.to_string().contains("4-byte cap"), "{err}");
    }

    #[test]
    fn assembler_empty_close_is_a_magic_truncation() {
        let err = StbAssembler::new().close().unwrap_err();
        assert!(
            matches!(
                err,
                StbError::Truncated {
                    offset: 0,
                    context: "magic"
                }
            ),
            "{err}"
        );
    }
}

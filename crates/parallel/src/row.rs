//! The one concurrent online row: the sequential rows' access bodies and
//! hard-edge rules, running inside the application threads (§5.1).
//!
//! Metadata partitioning follows the paper's implementation description:
//!
//! * thread clocks `Ct` — and a family's per-thread lock state, such as
//!   SmartTrack's `Ht` — are owned by their thread's [`OnlineCtx`] handle:
//!   no synchronization at all;
//! * each variable's last-access metadata, the same per-variable family
//!   ([`FtoVar`](smarttrack_detect::FtoVar),
//!   [`StVar`](smarttrack_detect::StVar)) the sequential rows keep, sits
//!   behind its own mutex, with lock-free atomic mirrors of `Wx`/`Rx` for
//!   the same-epoch fast paths, refreshed from the metadata after every
//!   locked update;
//! * each lock's family state, and each volatile, condvar and barrier
//!   clock, has its own mutex, touched only at (already-synchronizing)
//!   operations;
//! * fork/join clock handoff goes through dedicated slots whose accesses are
//!   ordered by the application's own fork/join edges.

use parking_lot::Mutex;
use smarttrack_clock::{Epoch, ThreadId, VectorClock};
use smarttrack_detect::{
    lower, AccessKind, FtoCase, FtoCaseCounters, FtoVar, LockMode, OptLevel, RaceReport, Relation,
    Report, SyncCore, SyncObj,
};
use smarttrack_trace::{BarrierId, EventId, Loc, LockId, Op, VarId};

use crate::atomic::AtomicEpoch;
use crate::shared::{AtomicCaseCounters, Handoff, OnlineBarrier, ReportSink};
use crate::world::{table, WorldSpec};
use crate::{OnlineAnalysis, OnlineCtx};

/// What one online row brings to the shared skeleton: its per-variable
/// metadata family and access rules, its per-thread and per-lock state and
/// its lock rules. The tick policy is a compile-time property of the
/// family, as for the sequential rows' thread clocks.
pub trait OnlineFamily: 'static {
    /// Per-variable metadata, guarded by the variable's mutex.
    type Var: Default + Send + std::fmt::Debug;
    /// Per-thread lock state, owned by the thread's context.
    type Thread: Default + Send + std::fmt::Debug;
    /// Per-lock state, guarded by the lock's mutex.
    type Lock: Default + Send + std::fmt::Debug;

    /// `true` for the predictive families: tick after every sync op —
    /// acquires included — except the condvar join in the middle of a
    /// wait. HB ticks only after publishing its time.
    const TICK_EVERY_SYNC: bool;
    /// Short name (the sequential row's, marked parallel).
    const NAME: &'static str;
    /// The relation the row computes.
    const RELATION: Relation;
    /// The row's optimization level.
    const OPT_LEVEL: OptLevel;

    /// The FTO last-access metadata inside `var` (what the mirrors show).
    fn fto(var: &Self::Var) -> &FtoVar;
    /// `rd(x)` or `wr(x)` at `e`, by a thread whose clock is `clock`, that
    /// missed the same-epoch check: the FTO case taken and the racing
    /// prior threads.
    fn access(
        var: &mut Self::Var,
        thread: &mut Self::Thread,
        kind: AccessKind,
        e: Epoch,
        clock: &mut VectorClock,
    ) -> (FtoCase, Vec<ThreadId>);
    /// Acquires `m` in `mode` (before the row's tick).
    fn acquire(
        lock: &Mutex<Self::Lock>,
        thread: &mut Self::Thread,
        clock: &mut VectorClock,
        m: LockId,
        mode: LockMode,
    );
    /// Releases `m` (before the row's tick).
    fn release(
        lock: &Mutex<Self::Lock>,
        thread: &mut Self::Thread,
        clock: &mut VectorClock,
        m: LockId,
    );
}

/// One variable's shadow location: atomic mirrors plus guarded metadata.
/// Cache-line aligned so threads working on adjacent variables (the common
/// disjoint-access pattern) never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct ShadowVar<V> {
    write_mirror: AtomicEpoch,
    read_mirror: AtomicEpoch,
    meta: Mutex<V>,
}

impl<V> ShadowVar<V> {
    /// Re-publishes the mirrors from the metadata (call holding `meta`).
    fn refresh(&self, fto: &FtoVar) {
        self.write_mirror.store(fto.write_epoch());
        match fto.read_epoch() {
            Some(r) => self.read_mirror.store(r),
            None => self.read_mirror.mark_shared(),
        }
    }
}

/// A race-detection row with concurrent metadata, generic over its
/// [`OnlineFamily`]. Use the [`ConcurrentFtoHb`](crate::ConcurrentFtoHb)
/// and [`ConcurrentSmartTrackWdc`](crate::ConcurrentSmartTrackWdc)
/// aliases.
#[derive(Debug)]
pub struct OnlineRow<F: OnlineFamily> {
    vars: Vec<ShadowVar<F::Var>>,
    locks: Vec<Mutex<F::Lock>>,
    volatiles: Vec<Mutex<VectorClock>>,
    condvars: Vec<Mutex<VectorClock>>,
    barriers: Vec<Mutex<OnlineBarrier>>,
    handoff: Handoff,
    sink: ReportSink,
    counters: AtomicCaseCounters,
}

impl<F: OnlineFamily> OnlineRow<F> {
    /// Creates the analysis with metadata tables sized by `spec`.
    pub fn new(spec: WorldSpec) -> Self {
        OnlineRow {
            vars: table(spec.vars),
            locks: table(spec.locks),
            volatiles: table(spec.volatiles),
            condvars: table(spec.condvars),
            barriers: table(spec.barriers),
            handoff: Handoff::new(spec.threads),
            sink: ReportSink::new(),
            counters: AtomicCaseCounters::new(),
        }
    }
}

impl<F: OnlineFamily> OnlineAnalysis for OnlineRow<F> {
    type Ctx<'a> = RowCtx<'a, F>;

    fn name(&self) -> &'static str {
        F::NAME
    }

    fn relation(&self) -> Relation {
        F::RELATION
    }

    fn opt_level(&self) -> OptLevel {
        F::OPT_LEVEL
    }

    fn races_so_far(&self) -> usize {
        self.sink.len()
    }

    fn context(&self, t: ThreadId) -> RowCtx<'_, F> {
        let mut clock = VectorClock::new();
        clock.set(t, 1);
        self.handoff.absorb_start(t, &mut clock);
        RowCtx {
            t,
            clock,
            thread: F::Thread::default(),
            barrier_round: Vec::new(),
            row: self,
        }
    }

    fn report(&self) -> Report {
        self.sink.snapshot()
    }

    fn case_counters(&self) -> FtoCaseCounters {
        self.counters.snapshot()
    }
}

/// Per-thread handle of an [`OnlineRow`].
#[derive(Debug)]
pub struct RowCtx<'a, F: OnlineFamily> {
    t: ThreadId,
    clock: VectorClock,
    thread: F::Thread,
    /// Per barrier: the rendezvous round this thread last entered.
    barrier_round: Vec<u64>,
    row: &'a OnlineRow<F>,
}

impl<F: OnlineFamily> RowCtx<'_, F> {
    fn access(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc, kind: AccessKind) {
        let row = self.row;
        let e = Epoch::new(t, self.clock.get(t));
        let sv = &row.vars[x.index()];
        let (mirror, same_epoch) = match kind {
            AccessKind::Read => (&sv.read_mirror, FtoCase::ReadSameEpoch),
            AccessKind::Write => (&sv.write_mirror, FtoCase::WriteSameEpoch),
        };
        // Lock-free fast path (§5.1): a hit proves the access redundant.
        if mirror.load().is_same_epoch(e) {
            row.counters.hit(same_epoch);
            return;
        }
        let (case, racing) = {
            let mut var = sv.meta.lock();
            // The authoritative same-epoch check: a mirror can be stale.
            let outcome = match F::fto(&var).same_epoch(kind, e) {
                Some(case) => (case, Vec::new()),
                None => F::access(&mut var, &mut self.thread, kind, e, &mut self.clock),
            };
            sv.refresh(F::fto(&var));
            outcome
        };
        row.counters.hit(case);
        if !racing.is_empty() {
            row.sink.push(RaceReport {
                event: id,
                loc,
                tid: t,
                var: x,
                kind,
                prior_threads: racing,
            });
        }
    }

    /// Ticks after an absorbing-only op, per the family's policy.
    fn tick_if_predictive(&mut self) {
        if F::TICK_EVERY_SYNC {
            self.clock.increment(self.t);
        }
    }
}

/// The lowered ops of this context's thread: `t` is always `self.t`. The
/// hard-edge rules match the sequential rows' shared table.
impl<F: OnlineFamily> SyncCore for RowCtx<'_, F> {
    fn read(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        self.access(id, t, x, loc, AccessKind::Read);
    }

    fn write(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        self.access(id, t, x, loc, AccessKind::Write);
    }

    fn acquire(&mut self, _id: EventId, _t: ThreadId, m: LockId, mode: LockMode) {
        F::acquire(
            &self.row.locks[m.index()],
            &mut self.thread,
            &mut self.clock,
            m,
            mode,
        );
        self.tick_if_predictive();
    }

    fn release(&mut self, _id: EventId, _t: ThreadId, m: LockId) {
        F::release(
            &self.row.locks[m.index()],
            &mut self.thread,
            &mut self.clock,
            m,
        );
        self.clock.increment(self.t);
    }

    fn publish(&mut self, _id: EventId, _t: ThreadId, obj: SyncObj) {
        match obj {
            SyncObj::Volatile(v) => {
                let mut vv = self.row.volatiles[v.index()].lock();
                self.clock.join(&vv);
                vv.assign(&self.clock);
            }
            SyncObj::Cond(c) => self.row.condvars[c.index()].lock().join(&self.clock),
        }
        self.clock.increment(self.t);
    }

    fn absorb(&mut self, _id: EventId, _t: ThreadId, obj: SyncObj) {
        match obj {
            SyncObj::Volatile(v) => {
                self.clock.join(&self.row.volatiles[v.index()].lock());
                self.tick_if_predictive();
            }
            // The middle of a wait: its release and reacquire tick.
            SyncObj::Cond(c) => self.clock.join(&self.row.condvars[c.index()].lock()),
        }
    }

    fn fork(&mut self, _id: EventId, _t: ThreadId, u: ThreadId) {
        self.row.handoff.offer_start(u, &self.clock);
        self.clock.increment(self.t);
    }

    fn join(&mut self, _id: EventId, _t: ThreadId, u: ThreadId) {
        self.row.handoff.absorb_final(u, &mut self.clock);
        self.tick_if_predictive();
    }

    fn barrier_enter(&mut self, _id: EventId, _t: ThreadId, b: BarrierId) {
        // Remember which round we joined: a fast peer may seal this round
        // and start gathering the next before our exit hook runs.
        let round = self.row.barriers[b.index()].lock().enter(&self.clock);
        if b.index() >= self.barrier_round.len() {
            self.barrier_round.resize(b.index() + 1, 0);
        }
        self.barrier_round[b.index()] = round;
        self.clock.increment(self.t);
    }

    fn barrier_exit(&mut self, _id: EventId, _t: ThreadId, b: BarrierId) {
        let round = self.barrier_round.get(b.index()).copied().unwrap_or(0);
        let open = self.row.barriers[b.index()].lock().exit(round);
        self.clock.join(&open);
        self.tick_if_predictive();
    }
}

impl<F: OnlineFamily> OnlineCtx for RowCtx<'_, F> {
    fn tid(&self) -> ThreadId {
        self.t
    }

    fn on_event(&mut self, id: EventId, op: Op, loc: Loc) {
        lower(self, id, self.t, op, loc);
    }

    fn publish(&mut self) {
        self.row.handoff.publish_final(self.t, &self.clock);
    }
}

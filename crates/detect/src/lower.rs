//! The one lowering of trace ops to the clock rows' core vocabulary.
//!
//! Every vector-clock analysis — the Table 1 detectors and the concurrent
//! lanes of `smarttrack-parallel` — differs from the others only in how it
//! handles accesses and conflicting critical sections; the synchronization
//! rules are the same for all of them (§5.1). This module is the one place
//! that knows how the compound trace ops decompose (`docs/ARCHITECTURE.md`,
//! "Synchronization model"):
//!
//! | trace op | core ops |
//! |----------|----------|
//! | `rd(x)` / `wr(x)` | [`read`](SyncCore::read) / [`write`](SyncCore::write) |
//! | `acq(m)`, `acqw(m)` | [`acquire`](SyncCore::acquire) in [`LockMode::Exclusive`] |
//! | `acqr(m)` | [`acquire`](SyncCore::acquire) in [`LockMode::Read`] |
//! | `rel(m)` | [`release`](SyncCore::release) |
//! | `tryf(m)` | nothing: a failed trylock orders nothing |
//! | `fork(u)` / `join(u)` | [`fork`](SyncCore::fork) / [`join`](SyncCore::join) |
//! | `vrd(v)` / `vwr(v)` | [`absorb`](SyncCore::absorb) / [`publish`](SyncCore::publish) on [`SyncObj::Volatile`] |
//! | `ntf(c)`, `nfa(c)` | [`publish`](SyncCore::publish) on [`SyncObj::Cond`] |
//! | `wait(c, m)` | `release(m)`, `absorb(Cond(c))`, `acquire(m, Exclusive)` |
//! | `bent(b)` / `bext(b)` | [`barrier_enter`](SyncCore::barrier_enter) / [`barrier_exit`](SyncCore::barrier_exit) |
//!
//! Within the crate, the sequential detectors implement only the access
//! and lock rules ([`ClockRow`]); the hard edges come from the shared
//! [`HardEdges`](crate::edges::HardEdges) table. Graph mode lowers each
//! event a second time onto its recorder, which names the same hard edges.

use smarttrack_clock::ThreadId;
use smarttrack_trace::{BarrierId, CondId, EventId, Loc, LockId, Op, VarId};

use crate::edges::{HardEdges, ThreadClocks};
use crate::report::AccessKind;

/// The hold mode of a lock acquisition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// An exclusive hold: a plain mutex acquire, or a write-mode rwlock
    /// acquire (`acqw`, the reader-writer spelling of the same hold).
    Exclusive,
    /// A read-mode rwlock hold (`acqr`): concurrent with other read holds.
    Read,
}

impl LockMode {
    /// `Exclusive` for a write-mode hold, `Read` otherwise.
    pub(crate) fn of_write(write: bool) -> Self {
        if write {
            LockMode::Exclusive
        } else {
            LockMode::Read
        }
    }
}

/// One `rd(x)` or `wr(x)`, as the clock rows see it.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    /// The event's id.
    pub id: EventId,
    /// The accessing thread.
    pub t: ThreadId,
    /// The accessed variable.
    pub x: VarId,
    /// The source location.
    pub loc: Loc,
    /// Read or write.
    pub kind: AccessKind,
}

/// A synchronization object that carries a clock of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncObj {
    /// A volatile variable: writes publish into it, reads absorb it.
    Volatile(VarId),
    /// A condition variable: notifies publish into it, waits absorb it.
    Cond(CondId),
}

/// The core vocabulary every vector-clock analysis implements.
///
/// [`lower`] maps each trace op onto these methods; implementors never see
/// the compound ops. `id` is the event's id (race reports and graph edges
/// name it) and `t` its thread.
pub trait SyncCore {
    /// `rd(x)`.
    fn read(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc);
    /// `wr(x)`.
    fn write(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc);
    /// Acquires `m` in `mode`.
    fn acquire(&mut self, id: EventId, t: ThreadId, m: LockId, mode: LockMode);
    /// Releases `m`, in whatever mode `t` holds it.
    fn release(&mut self, id: EventId, t: ThreadId, m: LockId);
    /// A release-style hard edge into `obj`'s clock. A volatile write is
    /// also ordered after the previous one (`Vv ← Vv ⊔ Ct`); notifies only
    /// publish (`Nc ⊔= Ct`) and do not order each other. Ticks in every
    /// family.
    fn publish(&mut self, id: EventId, t: ThreadId, obj: SyncObj);
    /// An acquire-style hard edge from `obj`'s clock (`Ct ⊔= O`). A
    /// condvar absorb is only ever the middle of a wait and never ticks:
    /// the wait ticks at its release and reacquire.
    fn absorb(&mut self, id: EventId, t: ThreadId, obj: SyncObj);
    /// `fork(u)`: everything before the fork is ordered before `u`.
    fn fork(&mut self, id: EventId, t: ThreadId, u: ThreadId);
    /// `join(u)`: all of `u` is ordered before the join.
    fn join(&mut self, id: EventId, t: ThreadId, u: ThreadId);
    /// `bent(b)`: publish into the round's rendezvous clock.
    fn barrier_enter(&mut self, id: EventId, t: ThreadId, b: BarrierId);
    /// `bext(b)`: absorb the sealed round (every enter of the round).
    fn barrier_exit(&mut self, id: EventId, t: ThreadId, b: BarrierId);
}

/// Lowers one trace op onto `core`'s vocabulary (see the module table).
#[inline]
pub fn lower<C: SyncCore + ?Sized>(core: &mut C, id: EventId, t: ThreadId, op: Op, loc: Loc) {
    match op {
        Op::Read(x) => core.read(id, t, x, loc),
        Op::Write(x) => core.write(id, t, x, loc),
        Op::Acquire(m) | Op::AcqWrite(m) => core.acquire(id, t, m, LockMode::Exclusive),
        Op::AcqRead(m) => core.acquire(id, t, m, LockMode::Read),
        Op::Release(m) => core.release(id, t, m),
        Op::TryAcqFail(_) => {}
        Op::Fork(u) => core.fork(id, t, u),
        Op::Join(u) => core.join(id, t, u),
        Op::VolatileRead(v) => core.absorb(id, t, SyncObj::Volatile(v)),
        Op::VolatileWrite(v) => core.publish(id, t, SyncObj::Volatile(v)),
        // An atomic release-and-reacquire of the monitor with the condvar
        // hard edge in between: the row's own release/acquire rules (rule
        // (a)/(b) bookkeeping, CS lists) run exactly as for explicit ops.
        Op::Wait(c, m) => {
            core.release(id, t, m);
            core.absorb(id, t, SyncObj::Cond(c));
            core.acquire(id, t, m, LockMode::Exclusive);
        }
        Op::Notify(c) | Op::NotifyAll(c) => core.publish(id, t, SyncObj::Cond(c)),
        Op::BarrierEnter(b) => core.barrier_enter(id, t, b),
        Op::BarrierExit(b) => core.barrier_exit(id, t, b),
    }
}

/// A sequential clock row: its own access and lock rules over the shared
/// hard-edge table. Every [`ClockRow`] is a [`SyncCore`] whose hard edges
/// are the table's.
pub(crate) trait ClockRow {
    /// The family's per-thread clock set and increment policy.
    type Clocks: ThreadClocks;

    /// The row's hard-edge table.
    fn edges(&mut self) -> &mut HardEdges<Self::Clocks>;

    /// `rd(x)` or `wr(x)`.
    fn access(&mut self, a: Access);
    fn acquire(&mut self, id: EventId, t: ThreadId, m: LockId, mode: LockMode);
    fn release(&mut self, id: EventId, t: ThreadId, m: LockId);
}

impl<R: ClockRow> SyncCore for R {
    #[inline]
    fn read(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        let kind = AccessKind::Read;
        self.access(Access {
            id,
            t,
            x,
            loc,
            kind,
        });
    }
    #[inline]
    fn write(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        let kind = AccessKind::Write;
        self.access(Access {
            id,
            t,
            x,
            loc,
            kind,
        });
    }
    fn acquire(&mut self, id: EventId, t: ThreadId, m: LockId, mode: LockMode) {
        ClockRow::acquire(self, id, t, m, mode);
    }
    fn release(&mut self, id: EventId, t: ThreadId, m: LockId) {
        ClockRow::release(self, id, t, m);
    }
    fn publish(&mut self, _id: EventId, t: ThreadId, obj: SyncObj) {
        self.edges().publish(t, obj);
    }
    fn absorb(&mut self, _id: EventId, t: ThreadId, obj: SyncObj) {
        self.edges().absorb(t, obj);
    }
    fn fork(&mut self, _id: EventId, t: ThreadId, u: ThreadId) {
        self.edges().fork(t, u);
    }
    fn join(&mut self, _id: EventId, t: ThreadId, u: ThreadId) {
        self.edges().join(t, u);
    }
    fn barrier_enter(&mut self, _id: EventId, t: ThreadId, b: BarrierId) {
        self.edges().barrier_enter(t, b);
    }
    fn barrier_exit(&mut self, _id: EventId, t: ThreadId, b: BarrierId) {
        self.edges().barrier_exit(t, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Detector, Report, UnoptHb};
    use smarttrack_trace::TraceBuilder;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }

    fn run(b: TraceBuilder) -> Report {
        let mut det = UnoptHb::new();
        run_detector(&mut det, &b.finish());
        det.report().clone()
    }

    #[test]
    fn notify_then_wait_orders_producer_before_consumer() {
        let (c, m) = (CondId::new(0), LockId::new(0));
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Notify(c)).unwrap();
        b.push(t(1), Op::Acquire(m)).unwrap();
        b.push(t(1), Op::Wait(c, m)).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Release(m)).unwrap();
        assert!(run(b).is_empty(), "handoff through the condvar orders rd");
    }

    #[test]
    fn write_after_notify_races_with_woken_reader() {
        let (c, m) = (CondId::new(0), LockId::new(0));
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Notify(c)).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap(); // after the notify: unordered
        b.push(t(1), Op::Acquire(m)).unwrap();
        b.push(t(1), Op::Wait(c, m)).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Release(m)).unwrap();
        assert_eq!(run(b).dynamic_count(), 1);
    }
}

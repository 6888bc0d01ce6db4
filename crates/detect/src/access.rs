//! The per-variable access rules, written once per metadata family.
//!
//! Every analysis row checks an access the same way within its family;
//! rows differ only in the clock the check runs against (HB's `Ct`, WCP's
//! `Pt` with the own entry taken from `Ht`, DC's `Ct` after rule (a)
//! joins). So each body takes the row's ordering test as an argument and
//! returns what it decided — the FTO case it took and the prior threads it
//! found racing. The column around the body adds the rule (a) joins and
//! the counting (see the `column` module); the row keeps only its checking
//! clock, its rule (b) bookkeeping and its lock rules.
//!
//! * [`FtoVar`] — FastTrack-Ownership's `Wx` epoch and `Rx` read metadata:
//!   the same-epoch checks and the eight other FTO cases (Algorithm 2),
//!   shared by the FTO rows and the concurrent FTO-HB lane.
//! * [`Ft2Var`] — FastTrack2's `Wx` epoch and adaptive `Rx` (the Epochs
//!   column, HB only): the FTO metadata without the ownership cases.
//! * [`UnoptVar`] — the vector-clock pair `Wx`/`Rx` of the Unopt rows
//!   (Algorithm 1), with the §5.1 same-epoch-like checks.
//! * [`StVar`](crate::StVar) — SmartTrack's Algorithm 3 (FTO plus CS
//!   lists and extras), in the `ccs` module next to the CS lists it
//!   updates; shared by the SmartTrack rows and the concurrent
//!   SmartTrack-WDC lane.
//!
//! The concurrent lanes of `smarttrack-parallel` run the same bodies
//! behind a per-variable mutex; what they add is only the locking, the
//! lock-free epoch mirrors and the thread-safe CS-list cells.

use smarttrack_clock::{ClockValue, Epoch, ReadMeta, SameEpoch, ThreadId, VectorClock};

use crate::column::VarRule;
use crate::counters::{FtoCase, FtoCaseCounters, PathCounters};
use crate::lower::Access;
use crate::report::AccessKind;
use crate::OptLevel;

/// The threads whose entries in `vc` are not ordered before the current
/// access by the row's test `ordered` (the racing prior threads).
pub(crate) fn racing_threads(vc: &VectorClock, ordered: impl Fn(Epoch) -> bool) -> Vec<ThreadId> {
    vc.iter_nonzero()
        .filter(|&(u, c)| !ordered(Epoch::new(u, c)))
        .map(|(u, _)| u)
        .collect()
}

/// FastTrack-Ownership last-access metadata of one variable: the last
/// write `Wx` and the last read(s) `Rx` (which a write also sets, so `Rx`
/// names the latest reads *and* write: after a write `Wx = Rx = Ct(t)@t`).
///
/// # Examples
///
/// ```
/// use smarttrack_clock::{Epoch, ThreadId};
/// use smarttrack_detect::{AccessKind, FtoCase, FtoVar};
///
/// let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
/// let write = AccessKind::Write;
/// let mut x = FtoVar::default();
/// // t0 writes, then t1 writes with no ordering between them: a race.
/// let first = x.access(write, Epoch::new(t0, 1), |_| false);
/// assert_eq!(first, (FtoCase::WriteExclusive, vec![]));
/// assert_eq!(x.same_epoch(write, Epoch::new(t0, 1)), Some(FtoCase::WriteSameEpoch));
/// let second = x.access(write, Epoch::new(t1, 1), |a| a.tid() == t1);
/// assert_eq!(second, (FtoCase::WriteExclusive, vec![t0]));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FtoVar {
    pub(crate) write: Epoch,
    pub(crate) read: ReadMeta,
}

impl FtoVar {
    /// `[Read Same Epoch]`, `[Shared Same Epoch]` or `[Write Same Epoch]`:
    /// the access at `e` is redundant and needs no ordering test.
    #[inline]
    pub fn same_epoch(&self, kind: AccessKind, e: Epoch) -> Option<FtoCase> {
        match kind {
            AccessKind::Read => self.read.same_epoch(e.tid(), e.clock()).map(|s| match s {
                SameEpoch::Exclusive => FtoCase::ReadSameEpoch,
                SameEpoch::Shared => FtoCase::SharedSameEpoch,
            }),
            AccessKind::Write => (self.write == e).then_some(FtoCase::WriteSameEpoch),
        }
    }

    /// An access at `e` that missed [`same_epoch`](Self::same_epoch): the
    /// FTO case taken and the racing prior threads. `ordered(a)` tells
    /// whether the access at epoch `a` is ordered before this one in the
    /// row's relation; it is never asked about `⊥ₑ` (no access), which is
    /// ordered before everything.
    pub fn access(
        &mut self,
        kind: AccessKind,
        e: Epoch,
        ordered: impl Fn(Epoch) -> bool,
    ) -> (FtoCase, Vec<ThreadId>) {
        let ordered = |a: Epoch| a.is_none() || ordered(a);
        match kind {
            AccessKind::Read => self.read(e, ordered),
            AccessKind::Write => self.write(e, ordered),
        }
    }

    fn read(&mut self, e: Epoch, ordered: impl Fn(Epoch) -> bool) -> (FtoCase, Vec<ThreadId>) {
        let t = e.tid();
        let mut racing = Vec::new();
        let case = match &mut self.read {
            ReadMeta::Epoch(r) if r.is_owned_by(t) => {
                self.read = ReadMeta::Epoch(e);
                FtoCase::ReadOwned
            }
            ReadMeta::Epoch(r) if ordered(*r) => {
                self.read = ReadMeta::Epoch(e);
                FtoCase::ReadExclusive
            }
            ReadMeta::Epoch(_) => {
                if !ordered(self.write) {
                    racing.push(self.write.tid());
                }
                self.read.share(e);
                FtoCase::ReadShare
            }
            ReadMeta::Vc(vc) => {
                let owned = vc.get(t) != 0;
                vc.set(t, e.clock());
                if owned {
                    FtoCase::ReadSharedOwned
                } else {
                    if !ordered(self.write) {
                        racing.push(self.write.tid());
                    }
                    FtoCase::ReadShared
                }
            }
        };
        (case, racing)
    }

    fn write(&mut self, e: Epoch, ordered: impl Fn(Epoch) -> bool) -> (FtoCase, Vec<ThreadId>) {
        let (case, racing) = match &self.read {
            ReadMeta::Epoch(r) if r.is_owned_by(e.tid()) => (FtoCase::WriteOwned, Vec::new()),
            &ReadMeta::Epoch(r) => {
                let racing = if ordered(r) {
                    Vec::new()
                } else {
                    vec![r.tid()]
                };
                (FtoCase::WriteExclusive, racing)
            }
            ReadMeta::Vc(vc) => (FtoCase::WriteShared, racing_threads(vc, ordered)),
        };
        self.write = e;
        self.read = ReadMeta::Epoch(e);
        (case, racing)
    }

    /// The last write `Wx`.
    #[inline]
    pub fn write_epoch(&self) -> Epoch {
        self.write
    }

    /// The last read `Rx` while it is a single epoch; `None` once reads
    /// are shared (vector form).
    #[inline]
    pub fn read_epoch(&self) -> Option<Epoch> {
        self.read.as_epoch()
    }
}

impl VarRule for FtoVar {
    const LEVEL: OptLevel = OptLevel::Fto;
    type Counts = FtoCaseCounters;

    fn fast_path(&self, a: &Access, local: ClockValue, counts: &mut FtoCaseCounters) -> bool {
        let case = self.same_epoch(a.kind, Epoch::new(a.t, local));
        case.map(|case| counts.hit(case)).is_some()
    }

    fn slow_path(
        &mut self,
        a: &Access,
        local: ClockValue,
        ordered: impl Fn(Epoch) -> bool,
        counts: &mut FtoCaseCounters,
    ) -> Vec<ThreadId> {
        let (case, racing) = self.access(a.kind, Epoch::new(a.t, local), ordered);
        counts.hit(case);
        racing
    }

    /// A shared `Rx`'s spill.
    fn heap_bytes(&self) -> usize {
        self.read.footprint_bytes()
    }
}

/// FastTrack2's last-access metadata of one variable (the Epochs column):
/// the `Wx` epoch and adaptive `Rx` of [`FtoVar`], with the same
/// same-epoch checks, but without the ownership cases — and a write leaves
/// `Rx` alone.
#[derive(Clone, Debug, Default)]
pub struct Ft2Var(FtoVar);

impl Ft2Var {
    /// See [`FtoVar::same_epoch`].
    pub(crate) fn same_epoch(&self, kind: AccessKind, e: Epoch) -> Option<FtoCase> {
        self.0.same_epoch(kind, e)
    }

    /// The last write `Wx`.
    pub(crate) fn write_epoch(&self) -> Epoch {
        self.0.write
    }

    /// An access at `e` that missed [`same_epoch`](Self::same_epoch): the
    /// case taken and the racing prior threads, the last writer first.
    /// `ordered` is the row's test, as for [`FtoVar::access`].
    pub(crate) fn access(
        &mut self,
        kind: AccessKind,
        e: Epoch,
        ordered: impl Fn(Epoch) -> bool,
    ) -> (FtoCase, Vec<ThreadId>) {
        let FtoVar { write, read } = &mut self.0;
        let ordered = |a: Epoch| a.is_none() || ordered(a);
        let mut racing = Vec::new();
        if !ordered(*write) {
            racing.push(write.tid());
        }
        let case = match kind {
            AccessKind::Read => match read {
                ReadMeta::Epoch(r) if ordered(*r) => {
                    *read = ReadMeta::Epoch(e);
                    FtoCase::ReadExclusive
                }
                ReadMeta::Epoch(_) => {
                    read.share(e);
                    FtoCase::ReadShare
                }
                ReadMeta::Vc(vc) => {
                    vc.set(e.tid(), e.clock());
                    FtoCase::ReadShared
                }
            },
            AccessKind::Write => {
                let (case, readers) = match read {
                    &mut ReadMeta::Epoch(r) if ordered(r) => (FtoCase::WriteExclusive, Vec::new()),
                    &mut ReadMeta::Epoch(r) => (FtoCase::WriteExclusive, vec![r.tid()]),
                    ReadMeta::Vc(vc) => (FtoCase::WriteShared, racing_threads(vc, ordered)),
                };
                for u in readers {
                    if !racing.contains(&u) {
                        racing.push(u);
                    }
                }
                *write = e;
                case
            }
        };
        (case, racing)
    }
}

impl VarRule for Ft2Var {
    const LEVEL: OptLevel = OptLevel::Epochs;
    type Counts = FtoCaseCounters;

    fn fast_path(&self, a: &Access, local: ClockValue, counts: &mut FtoCaseCounters) -> bool {
        self.0.fast_path(a, local, counts)
    }

    fn slow_path(
        &mut self,
        a: &Access,
        local: ClockValue,
        ordered: impl Fn(Epoch) -> bool,
        counts: &mut FtoCaseCounters,
    ) -> Vec<ThreadId> {
        let (case, racing) = self.access(a.kind, Epoch::new(a.t, local), ordered);
        counts.hit(case);
        racing
    }

    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// The Unopt rows' last-access metadata of one variable: vector clocks of
/// the last write (`Wx`) and last read (`Rx`) of every thread — every race
/// check is a pointwise comparison costing `O(T)`, the cost FastTrack's
/// epochs remove.
#[derive(Clone, Debug, Default)]
pub struct UnoptVar {
    write: VectorClock,
    read: VectorClock,
}

impl UnoptVar {
    /// §5.1: the Unopt implementations perform a `[Shared Same Epoch]`-like
    /// check at reads and writes — `t` already accessed `x` this way at its
    /// local time `local`.
    #[inline]
    pub(crate) fn same_epoch(&self, kind: AccessKind, t: ThreadId, local: ClockValue) -> bool {
        let last = match kind {
            AccessKind::Read => &self.read,
            AccessKind::Write => &self.write,
        };
        local != 0 && last.get(t) == local
    }

    /// An access by `t` at local time `local`: records it and returns the
    /// prior threads it races with — writers, then (for a write) readers,
    /// each thread once. `ordered` is the row's test, as for
    /// [`FtoVar::access`].
    pub(crate) fn access(
        &mut self,
        kind: AccessKind,
        t: ThreadId,
        local: ClockValue,
        ordered: impl Fn(Epoch) -> bool,
    ) -> Vec<ThreadId> {
        let mut racing = racing_threads(&self.write, &ordered);
        match kind {
            AccessKind::Read => self.read.set(t, local),
            AccessKind::Write => {
                self.write.set(t, local);
                for u in racing_threads(&self.read, &ordered) {
                    if !racing.contains(&u) {
                        racing.push(u);
                    }
                }
            }
        }
        racing
    }
}

impl VarRule for UnoptVar {
    const LEVEL: OptLevel = OptLevel::Unopt;
    type Counts = PathCounters;

    fn fast_path(&self, a: &Access, local: ClockValue, counts: &mut PathCounters) -> bool {
        let hit = self.same_epoch(a.kind, a.t, local);
        if hit {
            counts.fast += 1;
        } else {
            counts.slow += 1;
        }
        hit
    }

    fn slow_path(
        &mut self,
        a: &Access,
        local: ClockValue,
        ordered: impl Fn(Epoch) -> bool,
        _counts: &mut PathCounters,
    ) -> Vec<ThreadId> {
        self.access(a.kind, a.t, local, ordered)
    }

    /// The spill of clocks wider than [`smarttrack_clock::INLINE_CLOCKS`].
    fn heap_bytes(&self) -> usize {
        self.write.heap_bytes() + self.read.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessKind::{Read, Write};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn e(tid: u32, c: ClockValue) -> Epoch {
        Epoch::new(t(tid), c)
    }

    #[test]
    fn read_cases_follow_the_owner_and_the_ordering_test() {
        let mut x = FtoVar::default();
        // A first access is ordered after nothing: [Read Exclusive].
        assert_eq!(x.access(Read, e(0, 1), |_| false).0, FtoCase::ReadExclusive);
        assert_eq!(x.same_epoch(Read, e(0, 1)), Some(FtoCase::ReadSameEpoch));
        assert_eq!(x.access(Read, e(0, 2), |_| false).0, FtoCase::ReadOwned);
        // Unordered reader: share, no write to race with.
        assert_eq!(
            x.access(Read, e(1, 1), |_| false),
            (FtoCase::ReadShare, vec![])
        );
        assert_eq!(x.read_epoch(), None);
        assert_eq!(x.same_epoch(Read, e(1, 1)), Some(FtoCase::SharedSameEpoch));
        assert_eq!(
            x.access(Read, e(1, 2), |_| false).0,
            FtoCase::ReadSharedOwned
        );
        assert_eq!(
            x.access(Read, e(2, 1), |_| true),
            (FtoCase::ReadShared, vec![])
        );
    }

    #[test]
    fn shared_write_reports_every_unordered_reader() {
        let mut x = FtoVar::default();
        x.access(Read, e(0, 1), |_| true);
        x.access(Read, e(1, 1), |_| false);
        let (case, racing) = x.access(Write, e(2, 1), |a| a.tid() == t(0));
        assert_eq!((case, racing), (FtoCase::WriteShared, vec![t(1)]));
        assert_eq!(x.write_epoch(), e(2, 1));
        assert_eq!(x.read_epoch(), Some(e(2, 1)), "a write resets Rx");
    }

    #[test]
    fn unopt_write_races_with_writers_then_readers_once_each() {
        let mut x = UnoptVar::default();
        assert!(x.access(Write, t(0), 1, |_| false).is_empty());
        assert_eq!(x.access(Read, t(1), 1, |_| false), vec![t(0)]);
        x.access(Read, t(0), 1, |_| false);
        assert!(x.same_epoch(Read, t(0), 1) && !x.same_epoch(Read, t(0), 0));
        assert_eq!(x.access(Write, t(2), 1, |_| false), vec![t(0), t(1)]);
    }
}

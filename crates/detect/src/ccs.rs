//! SmartTrack's conflicting-critical-section (CCS) machinery: critical-
//! section lists, the `MultiCheck` combined CCS-and-race check, the
//! "extra" fall-back metadata (paper §4.2), and Algorithm 3's per-variable
//! access rules built on them ([`StVar`]). The SmartTrack column keeps its
//! `Ht` stacks and variables in a [`CcsState`]; the concurrent
//! SmartTrack-WDC lane runs the same [`StVar`] bodies behind a
//! per-variable mutex, over the thread-safe [`ArcCells`] family.

use std::cell::OnceCell;
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use smarttrack_clock::{ClockValue, Epoch, ReadMeta, ThreadId, VectorClock};
use smarttrack_trace::{EventId, LockId};

use crate::access::FtoVar;
use crate::column::{Column, Sections, VarRule};
use crate::common::slot;
use crate::counters::{FtoCase, FtoCaseCounters};
use crate::graph::GraphRecorder;
use crate::lower::{Access, LockMode};
use crate::queues::AcqEntry;
use crate::report::{AccessKind, Report};
use crate::{OptLevel, StreamHint};

/// How CS lists share their entry vectors and the deferred release times
/// of their critical sections (Algorithm 3 lines 3–5 and 13–15). A release
/// cell is written once, when the section releases; until then it reads
/// as the paper's `∞`, so a pending section is never ordered before
/// anything. Every CS list holding the cell observes the write.
///
/// The family is a compile-time property of the analysis, not an option:
/// the sequential rows use [`RcCells`], the concurrent lanes [`ArcCells`]
/// (whose write-once publication also carries the happens-before edge
/// from the releasing thread to every later reader).
pub trait CsCells: Clone + fmt::Debug + Default + 'static {
    /// A write-once release-time cell, unset (`∞`) until the release.
    type Cell: Clone + fmt::Debug + Default;
    /// A shared, immutable entry vector: `Lrx ← Ht` copies the reference.
    type Entries: Clone + fmt::Debug + Deref<Target = Vec<CsEntry<Self>>>;

    /// The published release time, or `None` while the section is open.
    fn get(cell: &Self::Cell) -> Option<&VectorClock>;
    /// Publishes the release time; `false` if one was already published.
    fn set(cell: &Self::Cell, release: VectorClock) -> bool;
    /// Shares an entry vector.
    fn share(entries: Vec<CsEntry<Self>>) -> Self::Entries;
}

/// The sequential rows' cells: `Rc<OnceCell<VectorClock>>`, `Rc` entry
/// vectors.
#[derive(Clone, Copy, Debug, Default)]
pub struct RcCells;

impl CsCells for RcCells {
    type Cell = Rc<OnceCell<VectorClock>>;
    type Entries = Rc<Vec<CsEntry<RcCells>>>;

    #[inline]
    fn get(cell: &Self::Cell) -> Option<&VectorClock> {
        cell.get()
    }

    fn set(cell: &Self::Cell, release: VectorClock) -> bool {
        cell.set(release).is_ok()
    }

    fn share(entries: Vec<CsEntry<RcCells>>) -> Self::Entries {
        Rc::new(entries)
    }
}

/// The concurrent lanes' cells: `Arc<OnceLock<VectorClock>>`, `Arc` entry
/// vectors.
#[derive(Clone, Copy, Debug, Default)]
pub struct ArcCells;

impl CsCells for ArcCells {
    type Cell = Arc<OnceLock<VectorClock>>;
    type Entries = Arc<Vec<CsEntry<ArcCells>>>;

    #[inline]
    fn get(cell: &Self::Cell) -> Option<&VectorClock> {
        cell.get()
    }

    fn set(cell: &Self::Cell, release: VectorClock) -> bool {
        cell.set(release).is_ok()
    }

    fn share(entries: Vec<CsEntry<ArcCells>>) -> Self::Entries {
        Arc::new(entries)
    }
}

/// One element `⟨C, m⟩` of a CS list: a lock and a reference to the release
/// time of the critical section on that lock.
#[derive(Clone, Debug)]
pub struct CsEntry<F: CsCells = RcCells> {
    /// The lock of the critical section.
    pub lock: LockId,
    /// Whether the section holds the lock exclusively (plain acquires and
    /// write-mode rwlock acquires). Read-mode sections only conflict with
    /// write-involved holds — two read sections on the same lock never do.
    pub write: bool,
    /// The (possibly still pending) release-time cell.
    pub release: F::Cell,
}

impl<F: CsCells> CsEntry<F> {
    /// A pending entry for an acquire of `lock` in `mode` (release time
    /// `∞`).
    pub fn pending(lock: LockId, mode: LockMode) -> Self {
        CsEntry {
            lock,
            write: mode == LockMode::Exclusive,
            release: F::Cell::default(),
        }
    }

    /// The published release time, or `None` while the section is still
    /// open (the `∞` state).
    #[inline]
    pub fn release_time(&self) -> Option<&VectorClock> {
        F::get(&self.release)
    }

    /// Publishes the release time (Algorithm 3 lines 13–15).
    ///
    /// # Panics
    ///
    /// Panics if the section was already resolved: each critical section
    /// releases exactly once.
    pub fn resolve(&self, release: VectorClock) {
        assert!(
            F::set(&self.release, release),
            "a critical section releases exactly once"
        );
    }
}

/// A critical-section list: the active critical sections of `owner` at some
/// access, **outermost first** (the paper's list is innermost-first; its
/// "tail-to-head" traversal order is our forward order).
///
/// Entries live behind a shared pointer: assigning `Lrx ← Ht` is a
/// reference copy, exactly the paper's `⟨C,m⟩ ⊕ Ht` shared-structure list
/// (Algorithm 3 line 5) — cloning a CS list is O(1).
///
/// The owning thread is stored in the list so that release-ordering checks
/// always compare the release's own clock entry — the only reading of
/// Algorithm 3's `C(u) ⪯ Ct` check under which the deferred-`∞` trick works.
#[derive(Clone, Debug)]
pub struct CsList<F: CsCells = RcCells> {
    /// The thread whose critical sections these are.
    pub owner: ThreadId,
    /// Entries, outermost first (shared between `Ht` snapshots and the
    /// per-variable metadata referencing them).
    pub entries: F::Entries,
}

impl<F: CsCells> CsList<F> {
    /// An empty list owned by `owner`.
    pub fn empty(owner: ThreadId) -> Self {
        Self::from_entries(owner, Vec::new())
    }

    /// A list from explicit entries.
    pub fn from_entries(owner: ThreadId, entries: Vec<CsEntry<F>>) -> Self {
        CsList {
            owner,
            entries: F::share(entries),
        }
    }

    /// The outermost entry (the paper's `tail(Lrx)`), if any.
    pub fn outermost(&self) -> Option<&CsEntry<F>> {
        self.entries.first()
    }
}

/// `Ht`: one thread's active critical sections, outermost first, plus a
/// cached shared snapshot rebuilt only after lock operations (so
/// `Lrx ← Ht` stays an O(1) reference copy, the paper's shared-structure
/// CS list).
#[derive(Clone, Debug, Default)]
pub struct HeldSections<F: CsCells = RcCells> {
    stack: Vec<CsEntry<F>>,
    snapshot: Option<CsList<F>>,
}

impl<F: CsCells> HeldSections<F> {
    /// `acq(m)` in `mode`: opens a pending section (release time `∞`,
    /// Algorithm 3 lines 3–5).
    pub fn acquire(&mut self, m: LockId, mode: LockMode) {
        self.stack.push(CsEntry::pending(m, mode));
        self.snapshot = None;
    }

    /// `rel(m)`: closes the innermost section on `m` — searched from the
    /// innermost end to tolerate non-LIFO unlocking — and returns it. Its
    /// mode gates rule (b); the caller resolves its release time
    /// (Algorithm 3 lines 13–15) once rule (b) has run.
    pub fn release(&mut self, m: LockId) -> Option<CsEntry<F>> {
        self.snapshot = None;
        let pos = self.stack.iter().rposition(|e| e.lock == m)?;
        Some(self.stack.remove(pos))
    }

    /// Whether a held section conflicts with a section on `m` (write-mode
    /// iff `write`): the same lock, and at least one side write-mode.
    fn conflicts(&self, m: LockId, write: bool) -> bool {
        self.stack.iter().any(|h| h.lock == m && (h.write || write))
    }

    /// `Ht` as a shared CS list owned by `owner`.
    fn snapshot(&mut self, owner: ThreadId) -> CsList<F> {
        let stack = &self.stack;
        self.snapshot
            .get_or_insert_with(|| CsList::from_entries(owner, stack.clone()))
            .clone()
    }
}

/// Fidelity mode for the CCS optimizations.
///
/// `Paper` reproduces Algorithm 3 verbatim. `Strict` (the default) adds two
/// conservative refinements that keep SmartTrack's computed relation exactly
/// equal to FTO's before the first race:
///
/// 1. `[Read Shared Owned]` also performs a race-check-free `MultiCheck`
///    against `Lwx` (verbatim Algorithm 3 can skip a rule (a) join when the
///    last write's critical sections resolve after the reader's previous
///    access);
/// 2. "extra" metadata residuals are merged per lock instead of replacing the
///    per-thread map, and writes absorb both `Erx` and `Ewx` entries for held
///    locks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CcsFidelity {
    /// Algorithm 3 exactly as printed.
    Paper,
    /// Algorithm 3 plus the conservative refinements (default).
    #[default]
    Strict,
}

/// Read-side CS metadata of one variable, mirroring the representation of
/// `Rx`: a single CS list while `Rx` is an epoch, per-thread CS lists once
/// `Rx` is a vector clock (an association list — shared-read thread sets
/// are tiny, and linear probes beat hashing at that size).
#[derive(Clone, Debug)]
enum LrMeta<F: CsCells> {
    Single(Option<CsList<F>>),
    PerThread(Vec<(ThreadId, CsList<F>)>),
}

impl<F: CsCells> Default for LrMeta<F> {
    fn default() -> Self {
        LrMeta::Single(None)
    }
}

impl<F: CsCells> LrMeta<F> {
    /// The CS list recorded for `u`'s prior access: the single list while
    /// `Rx` is an epoch, `u`'s entry once `Rx` is a vector clock.
    fn of(&self, u: ThreadId) -> Option<&CsList<F>> {
        match self {
            LrMeta::Single(l) => l.as_ref(),
            LrMeta::PerThread(map) => map.iter().find(|(w, _)| *w == u).map(|(_, l)| l),
        }
    }

    /// Inserts or replaces `t`'s list in the per-thread form.
    ///
    /// # Panics
    ///
    /// Panics in single form (vector `Rx` implies per-thread `Lrx`).
    fn set(&mut self, t: ThreadId, list: CsList<F>) {
        match self {
            LrMeta::PerThread(map) => match map.iter_mut().find(|(w, _)| *w == t) {
                Some(entry) => entry.1 = list,
                None => map.push((t, list)),
            },
            LrMeta::Single(_) => unreachable!("vector Rx implies per-thread Lrx"),
        }
    }
}

/// Per-lock extra CCS entries of one thread: a tiny association list
/// (threads hold a handful of locks; linear scans beat hashing at this
/// size, and iteration order — insertion order — is deterministic).
///
/// Entries are keyed by `(lock, mode)` — a thread can stash both a
/// read-mode and a write-mode residual section on the same rwlock, and only
/// write-involved pairs conflict when a later access absorbs them.
#[derive(Clone, Debug, Default)]
struct ExtraLocks<F: CsCells> {
    entries: Vec<(LockId, bool, F::Cell)>,
}

impl<F: CsCells> ExtraLocks<F> {
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or replaces the entry for `(m, write)`.
    fn insert(&mut self, m: LockId, write: bool, cell: F::Cell) {
        match self
            .entries
            .iter_mut()
            .find(|(l, w, _)| *l == m && *w == write)
        {
            Some(entry) => entry.2 = cell,
            None => self.entries.push((m, write, cell)),
        }
    }

    /// The stashed sections on `m` that conflict with a hold of mode
    /// `held_write` (write-involved pairs only).
    fn conflicting(&self, m: LockId, held_write: bool) -> impl Iterator<Item = &F::Cell> {
        self.entries
            .iter()
            .filter(move |(l, w, _)| *l == m && (*w || held_write))
            .map(|(_, _, cell)| cell)
    }

    /// Drops the entries [`Self::conflicting`] would yield for `(m,
    /// held_write)` — they have been absorbed into the current clock.
    fn remove_conflicting(&mut self, m: LockId, held_write: bool) {
        self.entries
            .retain(|(l, w, _)| !(*l == m && (*w || held_write)));
    }

    fn cells(&self) -> impl Iterator<Item = &F::Cell> {
        self.entries.iter().map(|(_, _, cell)| cell)
    }

    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(LockId, bool, F::Cell)>()
    }
}

/// Per-thread, per-lock extra CCS metadata (`Erx`/`Ewx`): critical sections
/// containing accesses to the variable that are no longer captured by
/// `Lrx`/`Lwx` (paper §4.2, "Using extra metadata"). Extras are rare and
/// tiny ("empty in most cases", §4.2), so nested association lists avoid
/// per-access hashing entirely.
#[derive(Clone, Debug, Default)]
struct ExtraMap<F: CsCells> {
    by_thread: Vec<(ThreadId, ExtraLocks<F>)>,
}

impl<F: CsCells> ExtraMap<F> {
    fn is_empty(&self) -> bool {
        self.by_thread.iter().all(|(_, l)| l.is_empty())
    }

    /// The extra locks recorded for thread `t`, if any (tests).
    #[cfg(test)]
    fn of(&self, t: ThreadId) -> Option<&ExtraLocks<F>> {
        self.by_thread.iter().find(|(u, _)| *u == t).map(|(_, l)| l)
    }

    fn of_mut_or_insert(&mut self, t: ThreadId) -> &mut ExtraLocks<F> {
        if let Some(i) = self.by_thread.iter().position(|(u, _)| *u == t) {
            return &mut self.by_thread[i].1;
        }
        self.by_thread.push((t, ExtraLocks::default()));
        &mut self.by_thread.last_mut().expect("just pushed").1
    }

    fn remove_thread(&mut self, t: ThreadId) {
        self.by_thread.retain(|(u, _)| *u != t);
    }

    /// Joins into `now` every stashed section of a thread other than `t`
    /// that conflicts with a hold of `m` (write-mode iff `held_write`).
    fn absorb_conflicting(&self, t: ThreadId, m: LockId, held_write: bool, now: &mut VectorClock) {
        for (u, map) in &self.by_thread {
            if *u != t {
                for cell in map.conflicting(m, held_write) {
                    now.join(resolved::<F>(cell));
                }
            }
        }
    }

    /// Drops what [`absorb_conflicting`](Self::absorb_conflicting) joined.
    fn remove_conflicting(&mut self, t: ThreadId, m: LockId, held_write: bool) {
        for (u, map) in &mut self.by_thread {
            if *u != t {
                map.remove_conflicting(m, held_write);
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        self.by_thread.capacity() * std::mem::size_of::<(ThreadId, ExtraLocks<F>)>()
            + self
                .by_thread
                .iter()
                .map(|(_, l)| l.heap_bytes())
                .sum::<usize>()
    }
}

/// The extra metadata of one variable.
#[derive(Clone, Debug, Default)]
struct Extras<F: CsCells> {
    /// `Erx`: read-or-write critical sections.
    read: ExtraMap<F>,
    /// `Ewx`: write critical sections.
    write: ExtraMap<F>,
}

impl<F: CsCells> Extras<F> {
    fn is_empty(&self) -> bool {
        self.read.is_empty() && self.write.is_empty()
    }
}

/// Reads a stashed release cell. Extras are only absorbed for locks the
/// current thread holds in a conflicting mode, so the stashed section has
/// released: write-involved holds of one lock exclude each other, and the
/// release happens before the current hold's acquire.
fn resolved<F: CsCells>(cell: &F::Cell) -> &VectorClock {
    F::get(cell).expect("extras for held locks reference completed critical sections")
}

/// The combined CCS-and-race check (Algorithm 3's `MultiCheck`).
///
/// Traverses `list` outermost-to-innermost looking for a critical section of
/// the list's owner that is either already ordered before `now` (subsumes
/// everything inner *and* the race check) or on a lock `held` by the current
/// thread in a conflicting mode — at least one side write-involved — (a
/// conflicting critical section: its release time is joined into `now`,
/// adding rule (a) ordering). Entries that are neither become the
/// *residual* `E`, and only if no entry matched is the race check against
/// `check` performed (`⊥ₑ` never races).
///
/// `ordered(check, now)` is the row's `a ⪯ Ct` (DC uses the plain epoch
/// check; WCP compares the current thread's entry against its HB clock
/// instead).
///
/// Returns `(residual, raced)`.
fn multi_check<F: CsCells>(
    now: &mut VectorClock,
    held: &HeldSections<F>,
    list: Option<&CsList<F>>,
    check: Epoch,
    ordered: impl Fn(Epoch, &VectorClock) -> bool,
) -> (Vec<CsEntry<F>>, bool) {
    let mut residual = Vec::new();
    if let Some(l) = list {
        for entry in l.entries.iter() {
            match entry.release_time() {
                Some(rel) => {
                    if rel.get(l.owner) <= now.get(l.owner) {
                        return (residual, false);
                    }
                    if held.conflicts(entry.lock, entry.write) {
                        now.join(rel);
                        return (residual, false);
                    }
                }
                // A pending entry is never ordered, and never on a
                // conflicting held lock: the real lock makes its owner
                // release first (write-involved holds exclude each other),
                // and a thread's own sections are short-circuited by an
                // ordered outer entry. A pending *read* section under a
                // read-mode hold is reachable — read sections overlap —
                // and rightly lands in the residual.
                None => debug_assert!(
                    !held.conflicts(entry.lock, entry.write),
                    "cannot hold a lock whose conflicting critical section is still pending"
                ),
            }
            residual.push(entry.clone());
        }
    }
    let raced = !check.is_none() && !ordered(check, now);
    (residual, raced)
}

/// Stores a residual into one side of the extra metadata for `owner`.
///
/// `Strict` merges per lock (a thread's newer release time on the same lock
/// dominates its older one, so overwriting per lock is exact); `Paper`
/// replaces the whole per-thread map, as Algorithm 3's `Erx(u) ← E` reads.
fn stash_residual<F: CsCells>(
    side: &mut ExtraMap<F>,
    owner: ThreadId,
    residual: Vec<CsEntry<F>>,
    fidelity: CcsFidelity,
) {
    let map = side.of_mut_or_insert(owner);
    if fidelity == CcsFidelity::Paper {
        map.entries.clear();
    }
    for e in residual {
        map.insert(e.lock, e.write, e.release);
    }
}

/// SmartTrack's per-variable metadata and access rules (Algorithm 3): FTO's
/// last-access epochs, the CS lists mirroring them (`Lwx`, `Lrx`) and the
/// lazily allocated extras (`Ewx`, `Erx`).
///
/// [`access`](Self::access) takes the accessing thread's `Ht`, the row's
/// checking clock — which absorbs the rule (a) joins — and the row's
/// epoch-ordering test against it, and returns the FTO case taken and the
/// racing prior threads.
#[derive(Clone, Debug, Default)]
pub struct StVar<F: CsCells = RcCells> {
    fto: FtoVar,
    /// `Lwx`: CS list of the last write.
    lw: Option<CsList<F>>,
    /// `Lrx`: CS list(s) of the last read(s)/write.
    lr: LrMeta<F>,
    /// `Erx`/`Ewx`, allocated lazily (empty "in most cases", §4.2).
    extras: Option<Box<Extras<F>>>,
}

impl<F: CsCells> StVar<F> {
    /// FTO's last-access metadata (`Wx`, `Rx`).
    pub fn fto(&self) -> &FtoVar {
        &self.fto
    }

    /// `rd(x)` or `wr(x)` at `e` that missed the [`FtoVar::same_epoch`]
    /// check of [`fto`](Self::fto). `held` is the accessing thread's `Ht`,
    /// `clock` the row's checking clock and `ordered(a, now)` its
    /// epoch-ordering test (never asked about `⊥ₑ`).
    pub fn access(
        &mut self,
        kind: AccessKind,
        e: Epoch,
        held: &mut HeldSections<F>,
        clock: &mut VectorClock,
        ordered: impl Fn(Epoch, &VectorClock) -> bool + Copy,
        fidelity: CcsFidelity,
    ) -> (FtoCase, Vec<ThreadId>) {
        let mut now = clock.clone();
        let outcome = match kind {
            AccessKind::Read => self.read(e, held, &mut now, ordered, fidelity),
            AccessKind::Write => self.write(e, held, &mut now, ordered, fidelity),
        };
        clock.assign(&now);
        outcome
    }

    /// Algorithm 3's read rules, joining into the checking clock `now`.
    fn read(
        &mut self,
        e: Epoch,
        held: &mut HeldSections<F>,
        now: &mut VectorClock,
        ordered: impl Fn(Epoch, &VectorClock) -> bool + Copy,
        fidelity: CcsFidelity,
    ) -> (FtoCase, Vec<ThreadId>) {
        let t = e.tid();
        self.absorb_extras_at_read(t, held, now);
        let snapshot = held.snapshot(t);
        let held = &*held;
        let mut raced_with_write = false;
        let case = match &mut self.fto.read {
            ReadMeta::Epoch(r) if r.is_owned_by(t) || r.is_none() => {
                // A first access to x is trivially ordered.
                let case = if r.is_none() {
                    FtoCase::ReadExclusive
                } else {
                    FtoCase::ReadOwned
                };
                self.lr = LrMeta::Single(Some(snapshot));
                self.fto.read = ReadMeta::Epoch(e);
                case
            }
            ReadMeta::Epoch(r) => {
                let (r, u) = (*r, r.tid());
                // Line 11: the outermost release of the prior access's CS
                // list (pending: `∞`), or Rx itself if the list is empty.
                let ordered_before = match self.lr.of(u).and_then(CsList::outermost) {
                    Some(outer) => outer
                        .release_time()
                        .is_some_and(|rel| rel.get(u) <= now.get(u)),
                    None => ordered(r, now),
                };
                if ordered_before {
                    self.lr = LrMeta::Single(Some(snapshot));
                    self.fto.read = ReadMeta::Epoch(e);
                    FtoCase::ReadExclusive
                } else {
                    let lw = self.lw.as_ref();
                    raced_with_write = multi_check(now, held, lw, self.fto.write, ordered).1;
                    let old = match std::mem::take(&mut self.lr) {
                        LrMeta::Single(l) => l.unwrap_or_else(|| CsList::empty(u)),
                        LrMeta::PerThread(_) => unreachable!("epoch Rx implies single Lrx"),
                    };
                    self.lr = LrMeta::PerThread(vec![(u, old), (t, snapshot)]);
                    self.fto.read.share(e);
                    FtoCase::ReadShare
                }
            }
            ReadMeta::Vc(rvc) => {
                let owned = rvc.get(t) != 0;
                rvc.set(t, e.clock());
                let lw = self.lw.as_ref();
                let case = if owned {
                    // Strict refinement: keep rule (a) ordering from the last
                    // write's critical sections (join-only, no race check).
                    if fidelity == CcsFidelity::Strict && lw.is_some_and(|l| l.owner != t) {
                        multi_check(now, held, lw, Epoch::NONE, ordered);
                    }
                    FtoCase::ReadSharedOwned
                } else {
                    raced_with_write = multi_check(now, held, lw, self.fto.write, ordered).1;
                    FtoCase::ReadShared
                };
                self.lr.set(t, snapshot);
                case
            }
        };
        let racing = if raced_with_write {
            vec![self.fto.write.tid()]
        } else {
            Vec::new()
        };
        (case, racing)
    }

    /// Algorithm 3's write rules, joining into the checking clock `now`.
    fn write(
        &mut self,
        e: Epoch,
        held: &mut HeldSections<F>,
        now: &mut VectorClock,
        ordered: impl Fn(Epoch, &VectorClock) -> bool + Copy,
        fidelity: CcsFidelity,
    ) -> (FtoCase, Vec<ThreadId>) {
        let t = e.tid();
        self.absorb_extras_at_write(t, held, now, fidelity);
        let snapshot = held.snapshot(t);
        let held = &*held;
        let mut racing = Vec::new();
        let case = match &self.fto.read {
            ReadMeta::Epoch(r) if r.is_owned_by(t) => FtoCase::WriteOwned,
            // A first access to x: nothing to check.
            ReadMeta::Epoch(r) if r.is_none() => FtoCase::WriteExclusive,
            &ReadMeta::Epoch(r) => {
                self.check_prior(r, held, now, &mut racing, ordered, fidelity);
                FtoCase::WriteExclusive
            }
            ReadMeta::Vc(rvc) => {
                let rvc = rvc.clone();
                for (u, c) in rvc.iter_nonzero() {
                    if u != t {
                        let prior = Epoch::new(u, c);
                        self.check_prior(prior, held, now, &mut racing, ordered, fidelity);
                    }
                }
                FtoCase::WriteShared
            }
        };
        // Lines 36–37: Lwx ← Lrx ← Ht; Wx ← Rx ← Ct(t).
        self.lw = Some(snapshot.clone());
        self.lr = LrMeta::Single(Some(snapshot));
        self.fto.write = e;
        self.fto.read = ReadMeta::Epoch(e);
        (case, racing)
    }

    /// Checks the prior access at `a` against its CS list, stashing what
    /// the lists can no longer represent.
    fn check_prior(
        &mut self,
        a: Epoch,
        held: &HeldSections<F>,
        now: &mut VectorClock,
        racing: &mut Vec<ThreadId>,
        ordered: impl Fn(Epoch, &VectorClock) -> bool + Copy,
        fidelity: CcsFidelity,
    ) {
        let u = a.tid();
        let (residual, raced) = multi_check(now, held, self.lr.of(u), a, ordered);
        if raced {
            racing.push(u);
        }
        if residual.is_empty() {
            return;
        }
        let ex = self.extras.get_or_insert_with(Default::default);
        stash_residual(&mut ex.read, u, residual, fidelity);
        if self.lw.as_ref().is_some_and(|l| l.owner == u) {
            let (wres, _) = multi_check(now, held, self.lw.as_ref(), Epoch::NONE, ordered);
            let ex = self.extras.get_or_insert_with(Default::default);
            stash_residual(&mut ex.write, u, wres, fidelity);
        }
    }

    /// Absorbs and clears extra metadata at a write (Algorithm 3 lines
    /// 19–23). In `Strict` mode, write-side extras for held locks are
    /// absorbed as well. Only stashed sections *conflicting* with a current
    /// hold are absorbed and removed: read-mode residuals survive read-mode
    /// holds for a later write-involved pair.
    fn absorb_extras_at_write(
        &mut self,
        t: ThreadId,
        held: &HeldSections<F>,
        now: &mut VectorClock,
        fidelity: CcsFidelity,
    ) {
        let Some(ex) = self.extras.as_mut() else {
            return;
        };
        let strict = fidelity == CcsFidelity::Strict;
        if ex.read.is_empty() && (!strict || ex.write.is_empty()) {
            return;
        }
        for h in &held.stack {
            ex.read.absorb_conflicting(t, h.lock, h.write, now);
            if strict {
                ex.write.absorb_conflicting(t, h.lock, h.write, now);
            }
            ex.read.remove_conflicting(t, h.lock, h.write);
            ex.write.remove_conflicting(t, h.lock, h.write);
        }
        ex.read.remove_thread(t);
        ex.write.remove_thread(t);
        if ex.is_empty() {
            self.extras = None;
        }
    }

    /// Absorbs write-side extra metadata at a read (Algorithm 3 lines 4–6).
    fn absorb_extras_at_read(&self, t: ThreadId, held: &HeldSections<F>, now: &mut VectorClock) {
        let Some(ex) = self.extras.as_ref() else {
            return;
        };
        if ex.write.is_empty() {
            return;
        }
        for h in &held.stack {
            ex.write.absorb_conflicting(t, h.lock, h.write, now);
        }
    }
}

/// Hashes already-well-distributed keys (pointer addresses) by identity:
/// the footprint walks deduplicate millions of `Rc` pointers, where SipHash
/// would dominate the walk.
#[derive(Default)]
pub(crate) struct PtrHasher(u64);

impl Hasher for PtrHasher {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PtrSet only hashes usize keys");
    }

    #[inline]
    fn write_usize(&mut self, p: usize) {
        // Shift out alignment zeros, then spread with a Fibonacci constant.
        self.0 = ((p >> 3) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of raw pointer addresses with identity hashing, reused by the
/// exact footprint walks.
pub(crate) type PtrSet = HashSet<usize, BuildHasherDefault<PtrHasher>>;

/// Estimates the unique heap bytes of a release cell, deduplicating shared
/// `Rc`s via `seen`.
fn release_cell_bytes(cell: &Rc<OnceCell<VectorClock>>, seen: &mut PtrSet) -> usize {
    if seen.insert(Rc::as_ptr(cell) as usize) {
        std::mem::size_of::<OnceCell<VectorClock>>()
            + cell.get().map_or(0, VectorClock::heap_bytes)
            + 16
    } else {
        std::mem::size_of::<Rc<OnceCell<VectorClock>>>()
    }
}

/// The SmartTrack column (Algorithm 3): per-thread `Ht` stacks,
/// per-variable [`StVar`] metadata, the report and the FTO case counters.
/// Its rule (a) is part of the access rule (`MultiCheck` over the CS lists),
/// so it serves only the predictive rows.
#[derive(Clone, Debug, Default)]
pub struct CcsState {
    ht: Vec<HeldSections>,
    vars: Vec<StVar>,
    fidelity: CcsFidelity,
    report: Report,
    counters: FtoCaseCounters,
}

impl CcsState {
    /// Empty state in the given fidelity mode.
    pub(crate) fn new(fidelity: CcsFidelity) -> Self {
        CcsState {
            fidelity,
            ..CcsState::default()
        }
    }
}

impl Column for CcsState {
    const LEVEL: OptLevel = OptLevel::SmartTrack;
    type Counts = FtoCaseCounters;

    fn access<'c, const RULE_A: bool>(
        &mut self,
        a: Access,
        local: ClockValue,
        clock: impl FnOnce() -> &'c mut VectorClock,
        check: impl Fn(Epoch, &VectorClock) -> bool + Copy,
        _recorder: Option<&mut GraphRecorder>,
    ) {
        let e = Epoch::new(a.t, local);
        let var = slot(&mut self.vars, a.x.index());
        if let Some(case) = var.fto.same_epoch(a.kind, e) {
            self.counters.hit(case);
            return;
        }
        let held = slot(&mut self.ht, a.t.index());
        let (case, racing) = var.access(a.kind, e, held, clock(), check, self.fidelity);
        self.counters.hit(case);
        self.report.record(a.id, a.loc, a.t, a.x, a.kind, racing);
    }

    fn report(&self) -> &Report {
        &self.report
    }

    fn counts(&self) -> &FtoCaseCounters {
        &self.counters
    }

    /// Exact heap bytes, report included: walks the `Ht` stacks and every
    /// variable's CS lists and extras, counting each `Rc`-shared structure
    /// once.
    fn footprint_bytes(&self) -> usize {
        let mut seen = PtrSet::default();
        let mut bytes = self.report.footprint_bytes();
        bytes += self.ht.capacity() * std::mem::size_of::<HeldSections>();
        for held in &self.ht {
            for e in &held.stack {
                bytes += release_cell_bytes(&e.release, &mut seen);
            }
            bytes += held.stack.capacity() * std::mem::size_of::<CsEntry>();
        }
        let mut list_vecs = PtrSet::default();
        let mut list_bytes = |l: &CsList, seen: &mut PtrSet| {
            let mut b = std::mem::size_of::<CsList>();
            if list_vecs.insert(Rc::as_ptr(&l.entries) as usize) {
                b += l.entries.capacity() * std::mem::size_of::<CsEntry>();
                for e in l.entries.iter() {
                    b += release_cell_bytes(&e.release, seen);
                }
            }
            b
        };
        bytes += self.vars.capacity() * std::mem::size_of::<StVar>();
        for v in &self.vars {
            bytes += v.fto.heap_bytes();
            if let Some(l) = &v.lw {
                bytes += list_bytes(l, &mut seen);
            }
            match &v.lr {
                LrMeta::Single(Some(l)) => bytes += list_bytes(l, &mut seen),
                LrMeta::PerThread(map) => {
                    for (_, l) in map {
                        bytes += list_bytes(l, &mut seen);
                    }
                }
                LrMeta::Single(None) => {}
            }
            if let Some(ex) = &v.extras {
                for side in [&ex.read, &ex.write] {
                    for (_, map) in &side.by_thread {
                        for cell in map.cells() {
                            bytes += release_cell_bytes(cell, &mut seen);
                        }
                    }
                    bytes += side.heap_bytes();
                }
            }
        }
        bytes
    }

    /// Cheap running estimate, report included: table capacities only. The
    /// Rc-shared CS lists hanging off the variables are deduplicated by the
    /// exact [`footprint_bytes`](Self::footprint_bytes) walk at stream end.
    fn resident_bytes(&self) -> usize {
        self.report.footprint_bytes()
            + self.ht.capacity() * std::mem::size_of::<HeldSections>()
            + self
                .ht
                .iter()
                .map(|h| h.stack.capacity() * std::mem::size_of::<CsEntry>())
                .sum::<usize>()
            + self.vars.capacity() * std::mem::size_of::<StVar>()
    }

    fn reserve(&mut self, hint: &StreamHint) {
        self.vars
            .reserve(StreamHint::presize(hint.vars, self.vars.len()));
    }
}

impl Sections for CcsState {
    /// The ended section's entry, whose deferred release time `close`
    /// resolves (Algorithm 3 lines 13–15).
    type Ended = Option<CsEntry>;

    fn acq_entry(t: ThreadId, clock: &VectorClock) -> AcqEntry {
        AcqEntry::Epoch(clock.get(t))
    }

    fn acquire(&mut self, t: ThreadId, m: LockId, mode: LockMode) {
        slot(&mut self.ht, t.index()).acquire(m, mode);
    }

    fn release(&mut self, t: ThreadId, m: LockId) -> (LockMode, Option<CsEntry>) {
        let entry = slot(&mut self.ht, t.index()).release(m);
        let write = entry.as_ref().is_none_or(|e| e.write);
        (LockMode::of_write(write), entry)
    }

    fn close(
        &mut self,
        _t: ThreadId,
        _m: LockId,
        ended: Option<CsEntry>,
        clock: &VectorClock,
        _id: EventId,
    ) {
        if let Some(entry) = ended {
            entry.resolve(clock.clone());
        }
    }

    fn reserve_sections(&mut self, hint: &StreamHint) {
        self.ht
            .reserve(StreamHint::presize(hint.threads, self.ht.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }
    fn dc_check(e: Epoch, vc: &VectorClock) -> bool {
        e.leq_vc(vc)
    }

    fn list_with(owner: ThreadId, entries: Vec<CsEntry>) -> CsList {
        CsList::from_entries(owner, entries)
    }

    fn resolved_entry(lock: LockId, mode: LockMode, release: &[(ThreadId, u32)]) -> CsEntry {
        let entry = CsEntry::pending(lock, mode);
        entry.resolve(release.iter().copied().collect());
        entry
    }

    /// A thread's `Ht` holding `locks` (`true`: write-mode).
    fn holding(locks: &[(LockId, bool)]) -> HeldSections {
        let mut held = HeldSections::default();
        for &(lock, write) in locks {
            held.acquire(lock, LockMode::of_write(write));
        }
        held
    }

    #[test]
    fn pending_entries_are_never_ordered() {
        let entry = CsEntry::pending(m(0), LockMode::Exclusive);
        let mut now: VectorClock = [(t(1), 5)].into_iter().collect();
        let list = list_with(t(0), vec![entry]);
        let (residual, raced) =
            multi_check(&mut now, &holding(&[]), Some(&list), Epoch::NONE, dc_check);
        assert_eq!(residual.len(), 1, "pending entry becomes residual");
        assert!(!raced, "⊥ never races");
    }

    #[test]
    fn ordered_outermost_subsumes_inner_and_race_check() {
        let outer = resolved_entry(m(0), LockMode::Exclusive, &[(t(0), 3)]);
        let inner = CsEntry::pending(m(1), LockMode::Exclusive);
        let list = list_with(t(0), vec![outer, inner]);
        let mut now: VectorClock = [(t(0), 4), (t(1), 2)].into_iter().collect();
        // check epoch 9@t0 would fail, but the ordered entry subsumes it.
        let (residual, raced) = multi_check(
            &mut now,
            &holding(&[]),
            Some(&list),
            Epoch::new(t(0), 9),
            dc_check,
        );
        assert!(residual.is_empty());
        assert!(!raced);
    }

    #[test]
    fn held_lock_joins_release_time() {
        let entry = resolved_entry(m(2), LockMode::Exclusive, &[(t(0), 7), (t(2), 4)]);
        let list = list_with(t(0), vec![entry]);
        let mut now: VectorClock = [(t(1), 1)].into_iter().collect();
        let (residual, raced) = multi_check(
            &mut now,
            &holding(&[(m(2), true)]),
            Some(&list),
            Epoch::new(t(0), 9),
            dc_check,
        );
        assert!(residual.is_empty());
        assert!(!raced, "join subsumes the race check");
        assert_eq!(now.get(t(0)), 7);
        assert_eq!(now.get(t(2)), 4);
    }

    #[test]
    fn no_match_falls_through_to_race_check() {
        let entry = CsEntry::pending(m(0), LockMode::Exclusive);
        let list = list_with(t(0), vec![entry]);
        let mut now: VectorClock = [(t(1), 3)].into_iter().collect();
        let (residual, raced) = multi_check(
            &mut now,
            &holding(&[(m(1), true)]),
            Some(&list),
            Epoch::new(t(0), 2),
            dc_check,
        );
        assert_eq!(residual.len(), 1);
        assert!(raced, "0@... < 2@t0 unordered: race");
    }

    #[test]
    fn empty_list_is_a_plain_race_check() {
        let mut now: VectorClock = [(t(0), 5)].into_iter().collect();
        let none = holding(&[]);
        let (_, ok) = multi_check(&mut now, &none, None, Epoch::new(t(0), 5), dc_check);
        assert!(!ok);
        let (_, raced) = multi_check(&mut now, &none, None, Epoch::new(t(0), 6), dc_check);
        assert!(raced);
    }

    #[test]
    fn read_read_pairs_are_not_conflicting() {
        // Prior section held m2 in *read* mode; current thread also holds
        // m2 in read mode. No write involved: the entry must fall through
        // to residual + race check instead of joining the release time.
        let entry = resolved_entry(m(2), LockMode::Read, &[(t(0), 7)]);
        let list = list_with(t(0), vec![entry]);
        let mut now: VectorClock = [(t(1), 1)].into_iter().collect();
        let (residual, raced) = multi_check(
            &mut now,
            &holding(&[(m(2), false)]),
            Some(&list),
            Epoch::new(t(0), 9),
            dc_check,
        );
        assert_eq!(residual.len(), 1, "read-read entry becomes residual");
        assert!(raced, "no rule (a) edge between two read sections");
        assert_eq!(now.get(t(0)), 0, "release time not joined");
    }

    #[test]
    fn write_involved_pairs_still_join() {
        // Read-mode entry vs write-mode hold, and write-mode entry vs
        // read-mode hold, both conflict.
        for (entry_write, held_write) in [(false, true), (true, false)] {
            let entry = resolved_entry(m(2), LockMode::of_write(entry_write), &[(t(0), 7)]);
            let list = list_with(t(0), vec![entry]);
            let mut now: VectorClock = [(t(1), 1)].into_iter().collect();
            let (residual, raced) = multi_check(
                &mut now,
                &holding(&[(m(2), held_write)]),
                Some(&list),
                Epoch::new(t(0), 9),
                dc_check,
            );
            assert!(residual.is_empty());
            assert!(!raced);
            assert_eq!(now.get(t(0)), 7, "release time joined");
        }
    }

    #[test]
    fn extras_key_by_lock_and_mode() {
        let mut ex = ExtraLocks::<RcCells>::default();
        let cell = |v: u32| resolved_entry(m(9), LockMode::Exclusive, &[(t(0), v)]).release;
        ex.insert(m(0), false, cell(3));
        ex.insert(m(0), true, cell(5));
        assert_eq!(ex.cells().count(), 2, "read and write entries coexist");
        assert_eq!(
            ex.conflicting(m(0), false).count(),
            1,
            "read hold conflicts only with the write entry"
        );
        assert_eq!(ex.conflicting(m(0), true).count(), 2);
        ex.remove_conflicting(m(0), false);
        assert_eq!(ex.cells().count(), 1, "write entry absorbed");
        assert_eq!(ex.conflicting(m(0), true).count(), 1);
    }

    #[test]
    fn stash_paper_replaces_strict_merges() {
        let mk = |lock: u32| CsEntry::pending(m(lock), LockMode::Exclusive);
        let mut paper = ExtraMap::<RcCells>::default();
        stash_residual(&mut paper, t(0), vec![mk(0)], CcsFidelity::Paper);
        stash_residual(&mut paper, t(0), vec![mk(1)], CcsFidelity::Paper);
        assert_eq!(
            paper.of(t(0)).unwrap().cells().count(),
            1,
            "paper mode replaces"
        );
        let mut strict = ExtraMap::<RcCells>::default();
        stash_residual(&mut strict, t(0), vec![mk(0)], CcsFidelity::Strict);
        stash_residual(&mut strict, t(0), vec![mk(1)], CcsFidelity::Strict);
        assert_eq!(
            strict.of(t(0)).unwrap().cells().count(),
            2,
            "strict mode merges"
        );
    }

    #[test]
    fn resolution_is_visible_across_threads() {
        let entry = CsEntry::<ArcCells>::pending(m(0), LockMode::Exclusive);
        let reader = entry.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                entry.resolve([(t(0), 1)].into_iter().collect());
            });
            s.spawn(move || {
                // Spin until the resolution is visible; the OnceLock
                // publication guarantees the full clock is then readable.
                loop {
                    if let Some(rel) = reader.release_time() {
                        assert_eq!(rel.get(t(0)), 1);
                        break;
                    }
                    std::hint::spin_loop();
                }
            });
        });
    }
}

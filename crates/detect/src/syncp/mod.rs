//! Sync-preserving race prediction (Mathur, Pavlogiannis & Viswanathan,
//! arXiv 2010.16385): the `SyncP` analysis row.
//!
//! A pair of conflicting accesses is a *sync-preserving race* when some
//! correct reordering of the observed trace makes them adjacent while
//! keeping every lock acquisition in its observed order. Sync-preserving
//! reorderings may *drop* whole critical sections (that is what exposes the
//! paper's Figure 1 race), but never commute two acquisitions of one lock.
//! Every report is sound by construction: the closure that certifies a race
//! simultaneously *is* a witness reordering, which
//! [`syncp_pair_ideal`] exposes so the vindication layer can replay it
//! through `validate_witness` with no search.
//!
//! # The closure check
//!
//! For a candidate pair `(e1, e2)` with `e1` trace-earlier, build the
//! smallest set `I` (an *ideal*: per-thread prefix-closed) containing the
//! proper program-order prefixes of both events and closed under the rules
//! below; the pair races iff neither endpoint is forced into `I`. All rules
//! point trace-backward, so `I` only ever contains events before `e2` and
//! the events of `I` **in original trace order, followed by `e1, e2`**, form
//! a valid predicted trace.
//!
//! Normative rules (the post-paper ops follow `docs/ARCHITECTURE.md`):
//!
//! 1. **Program order** — `I` is per-thread prefix-closed.
//! 2. **Observation** — a read in `I` keeps its observed last writer: the
//!    writer joins `I`. Volatile reads likewise (separate namespace).
//! 3. **Lock semantics** — when two acquisitions `a1 <tr a2` of one lock
//!    are both in `I` and they are not both read-mode (`acqr`), the
//!    matching release of `a1` joins `I` (an open section would otherwise
//!    block the later observed acquisition). Crucially the rule fires only
//!    when *both* acquisitions are in `I`: an acquisition alone never drags
//!    in earlier sections, which is exactly how droppable critical sections
//!    stay dropped. Two read-mode sections never constrain each other, and
//!    a failed trylock (`tryf`) constrains nothing in any direction.
//! 4. **Condvar/barrier** — a `wait` in `I` keeps the notifies that
//!    preceded it (latest per notifying thread); a barrier exit keeps its
//!    round's enters. Rounds order *conditionally*: when any event of
//!    round `r` and an enter of any later round are both in `I`, round
//!    `r`'s exits join `I` (the trace model forbids gathering a new round
//!    while one drains, so a witness interleaving them is invalid). The
//!    later round need not be `r + 1`: the rounds between may be wholly
//!    absent. Wholly-absent rounds stay droppable — an unconditional
//!    enter → previous-exits edge would out-order the rendezvous clocks
//!    and break HB ⊆ SyncP on thread-disjoint consecutive rounds.
//! 5. **Fork/join** — a forked thread's first event keeps its fork; a
//!    `join` keeps the joined thread's entire projection.
//!
//! # Algorithmic profile
//!
//! Unlike the vector-clock rows, [`SyncP`] buffers the stream (the closure
//! is defined over prefixes of the observed trace) and answers per-access
//! race checks against each other thread's latest conflicting access. Two
//! O(1) prefilters dismiss the overwhelmingly common ordered cases before
//! any closure runs: a *strong clock* (program order + fork/join +
//! notify→wait + barrier rendezvous + reads-from edges — every
//! unconditional closure rule, and no lock edges) and a common-lock check
//! (both accesses holding one lock in conflicting modes). Only pairs that
//! survive both run the worklist closure, with an epoch-style cache
//! skipping repeated accesses under an unchanged synchronization context
//! (the cache skips only the checks — the per-variable candidate still
//! advances, because plain writes publish reads-from edges without
//! changing the context).
//!
//! Buffering the stream means state is O(events), not O(threads × vars):
//! fine for bounded inputs (`analyze`/`batch`), but a long-running
//! `serve` session carrying a SyncP lane grows without limit — bound the
//! session's lifetime, or run SyncP offline via the windowed pipeline.
//!
//! # One engine for SyncP and OSR
//!
//! Optimistic synchronization-reversal prediction (Shi, Mathur &
//! Pavlogiannis, arXiv 2401.05642) relaxes rule 3's
//! observed-acquisition-order constraint with a bounded search over
//! acquisition commutations, and the code mirrors that relationship. This
//! module holds everything the two rows share: the buffered trace metadata
//! ([`SyncPCore`]: sections, observation edges, rendezvous rounds), the
//! worklist [`Closure`] engine for rules 1, 2, 4 and 5, and the streaming
//! front-end [`ClosureRow`] (epoch cache, candidates, prefilters,
//! `process`, footprint accounting). Rule 3 is the only per-row step,
//! supplied through [`LockRule`]: [`ObservedOrder`] here, and the
//! directive-aware pairwise rule of [`crate::Osr`] in the sibling module.

pub(crate) mod strong;

use std::mem::size_of;

use smarttrack_clock::ThreadId;
use smarttrack_trace::{Event, EventId, Op, Trace, VarId};

use crate::common::slot;
use crate::counters::PathCounters;
use crate::report::{AccessKind, RaceReport, Report};
use crate::{Detector, HotPathStats, OptLevel, Relation};

use strong::StrongState;

pub(crate) const NONE: u32 = u32::MAX;

/// Per-event metadata retained for closure checks. `aux` is op-specific:
/// the observed last writer (reads), the prerequisite list index
/// (wait/barrier ops), or the section index (lock ops).
#[derive(Clone, Copy, Debug)]
pub(crate) struct EventMeta {
    pub(crate) tid: u32,
    /// Position within the thread's projection.
    pub(crate) tpos: u32,
    pub(crate) op: Op,
    pub(crate) aux: u32,
}

/// One critical section on one lock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Section {
    pub(crate) lock: u32,
    /// Event index of the acquisition.
    pub(crate) acq: u32,
    /// Event index of the matching release ([`NONE`] while open).
    pub(crate) rel: u32,
    /// Exclusive (`acq`/`acqw`) vs read-mode (`acqr`).
    pub(crate) write: bool,
}

#[derive(Clone, Debug, Default)]
pub(crate) struct ThreadState {
    /// Event indexes of this thread's events, in order.
    pub(crate) proj: Vec<u32>,
    /// Currently held locks: `(lock, write-mode, section index)`.
    pub(crate) held: Vec<(u32, bool, u32)>,
    /// Event index of the fork that created this thread ([`NONE`] = root).
    pub(crate) fork: u32,
    /// Bumped at every synchronization op by this thread; part of the
    /// epoch-style cache key that lets unchanged-context re-accesses skip
    /// the race checks entirely.
    pub(crate) ctx: u32,
}

/// The latest access to one variable by one thread, with the lock holds at
/// the access (for the common-lock prefilter). The holds vector is reused
/// in place across updates, so steady-state accesses allocate nothing.
#[derive(Clone, Debug, Default)]
struct Candidate {
    tid: u32,
    idx: u32,
    holds: Vec<(u32, bool)>,
}

#[derive(Clone, Debug)]
struct VarState {
    /// Latest write per thread (insertion order — small).
    writes: Vec<Candidate>,
    /// Latest read per thread.
    reads: Vec<Candidate>,
    /// Bumped whenever either candidate list changes.
    version: u32,
    /// `(tid, thread ctx, table version)` of the last completed read /
    /// write check — a repeat with identical context is a fast-path skip.
    read_check: (u32, u32, u32),
    write_check: (u32, u32, u32),
}

impl Default for VarState {
    fn default() -> Self {
        VarState {
            writes: Vec::new(),
            reads: Vec::new(),
            version: 0,
            // The NONE tid matches no real thread, so a fresh variable
            // never aliases a genuine (tid 0, ctx 0, version 0) check.
            read_check: (NONE, 0, 0),
            write_check: (NONE, 0, 0),
        }
    }
}

#[derive(Clone, Debug, Default)]
pub(crate) struct BarrierState {
    /// Enter event indexes of the round currently gathering.
    pub(crate) gather: Vec<u32>,
    pub(crate) drain_remaining: u32,
    /// Sealed rounds, in rendezvous order: `(enters, exits)` prereq-pool
    /// indexes. The exits pool fills in as the round drains. Barrier
    /// event `aux` is a round index into this table (for an enter of a
    /// round that never seals, the index is one past the end).
    pub(crate) rounds: Vec<(u32, u32)>,
}

/// The buffered trace metadata every closure rule reads, shared by SyncP
/// and OSR. Kept apart from the [`Closure`] scratch so a check can borrow
/// the metadata immutably while mutating only the scratch.
#[derive(Clone, Debug, Default)]
pub struct SyncPCore {
    pub(crate) meta: Vec<EventMeta>,
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) sections: Vec<Section>,
    /// Wait / barrier prerequisite lists (and previous-round exit lists).
    pub(crate) prereqs: Vec<Vec<u32>>,
    /// Latest notify per (condvar, thread): `(tid, event index)`.
    pub(crate) cond_notifies: Vec<Vec<(u32, u32)>>,
    pub(crate) barriers: Vec<BarrierState>,
    /// Latest plain / volatile write per variable (event indexes).
    pub(crate) var_lw: Vec<u32>,
    pub(crate) vol_lw: Vec<u32>,
}

/// Grows-and-indexes for the last-writer tables, whose empty slots must be
/// [`NONE`] (a defaulted `0` would alias event 0 — `slot()` is wrong here).
pub(crate) fn lw_slot(v: &mut Vec<u32>, i: usize) -> &mut u32 {
    if i >= v.len() {
        v.resize(i + 1, NONE);
    }
    &mut v[i]
}

impl SyncPCore {
    pub(crate) fn thread(&mut self, t: usize) -> &mut ThreadState {
        if t >= self.threads.len() {
            self.threads.resize_with(t + 1, || ThreadState {
                fork: NONE,
                ..ThreadState::default()
            });
        }
        &mut self.threads[t]
    }

    /// Records `event` (already assigned index `idx`) into the metadata
    /// tables and returns its meta entry.
    pub(crate) fn ingest(&mut self, idx: u32, event: &Event) -> EventMeta {
        let t = event.tid.index();
        let aux = match event.op {
            Op::Read(x) => self.var_lw.get(x.index()).copied().unwrap_or(NONE),
            Op::Write(x) => {
                *lw_slot(&mut self.var_lw, x.index()) = idx;
                NONE
            }
            Op::VolatileRead(v) => self.vol_lw.get(v.index()).copied().unwrap_or(NONE),
            Op::VolatileWrite(v) => {
                *lw_slot(&mut self.vol_lw, v.index()) = idx;
                NONE
            }
            Op::Acquire(m) | Op::AcqWrite(m) | Op::AcqRead(m) => {
                let write = !matches!(event.op, Op::AcqRead(_));
                let sidx = self.sections.len() as u32;
                self.sections.push(Section {
                    lock: m.raw(),
                    acq: idx,
                    rel: NONE,
                    write,
                });
                self.thread(t).held.push((m.raw(), write, sidx));
                sidx
            }
            Op::Release(m) => {
                let held = &mut self.thread(t).held;
                match held.iter().rposition(|&(l, ..)| l == m.raw()) {
                    Some(pos) => {
                        let (.., sidx) = held.remove(pos);
                        self.sections[sidx as usize].rel = idx;
                        sidx
                    }
                    // Release of an unheld lock (raw unvalidated stream):
                    // benign, constrains nothing.
                    None => NONE,
                }
            }
            Op::TryAcqFail(_) => NONE,
            Op::Fork(u) => {
                self.thread(u.index()).fork = idx;
                NONE
            }
            Op::Join(_) => NONE,
            Op::Wait(c, _) => {
                let latest = self
                    .cond_notifies
                    .get(c.index())
                    .map(|l| l.iter().map(|&(_, n)| n).collect::<Vec<_>>())
                    .unwrap_or_default();
                self.prereqs.push(latest);
                (self.prereqs.len() - 1) as u32
            }
            Op::Notify(c) | Op::NotifyAll(c) => {
                let latest = slot(&mut self.cond_notifies, c.index());
                match latest.iter_mut().find(|(u, _)| *u == t as u32) {
                    Some(entry) => entry.1 = idx,
                    None => latest.push((t as u32, idx)),
                }
                NONE
            }
            // Barrier aux is a round index into `BarrierState::rounds`.
            // An enter constrains nothing unconditionally: whole rounds
            // are droppable, and surviving rounds keep their grouping and
            // ordering via the closure's exit rule and conditional
            // cross-round rule (an unconditional enter → previous-exits
            // edge would order thread-disjoint consecutive rounds,
            // breaking HB ⊆ SyncP).
            Op::BarrierEnter(b) => {
                if self.barriers.len() <= b.index() {
                    self.barriers
                        .resize_with(b.index() + 1, BarrierState::default);
                }
                let bs = &mut self.barriers[b.index()];
                if bs.drain_remaining > 0 {
                    // Out-of-protocol enter while draining (impossible on
                    // validated streams): start a fresh round benignly.
                    bs.drain_remaining = 0;
                }
                bs.gather.push(idx);
                bs.rounds.len() as u32
            }
            Op::BarrierExit(b) => {
                if self.barriers.len() <= b.index() {
                    self.barriers
                        .resize_with(b.index() + 1, BarrierState::default);
                }
                let bs = &mut self.barriers[b.index()];
                if bs.drain_remaining == 0 {
                    // First exit seals the gathering round.
                    let enters = std::mem::take(&mut bs.gather);
                    bs.drain_remaining = enters.len().max(1) as u32;
                    self.prereqs.push(enters);
                    self.prereqs.push(Vec::new());
                    let n = self.prereqs.len() as u32;
                    bs.rounds.push((n - 2, n - 1));
                }
                let r = bs.rounds.len() as u32 - 1;
                self.prereqs[bs.rounds[r as usize].1 as usize].push(idx);
                bs.drain_remaining -= 1;
                r
            }
        };
        let ts = self.thread(t);
        let tpos = ts.proj.len() as u32;
        ts.proj.push(idx);
        let meta = EventMeta {
            tid: t as u32,
            tpos,
            op: event.op,
            aux,
        };
        self.meta.push(meta);
        meta
    }

    pub(crate) fn resident_bytes(&self) -> usize {
        self.meta.capacity() * size_of::<EventMeta>()
            + self.sections.capacity() * size_of::<Section>()
            + self.threads.capacity() * size_of::<ThreadState>()
            + self
                .threads
                .iter()
                .map(|ts| {
                    ts.proj.capacity() * size_of::<u32>()
                        + ts.held.capacity() * size_of::<(u32, bool, u32)>()
                })
                .sum::<usize>()
            + self.prereqs.capacity() * size_of::<Vec<u32>>()
            + self.var_lw.capacity() * size_of::<u32>()
            + self.vol_lw.capacity() * size_of::<u32>()
    }

    pub(crate) fn footprint_bytes(&self) -> usize {
        self.resident_bytes()
            + self
                .prereqs
                .iter()
                .map(|p| p.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self
                .cond_notifies
                .iter()
                .map(|l| l.capacity() * size_of::<(u32, u32)>())
                .sum::<usize>()
            + self.cond_notifies.capacity() * size_of::<Vec<(u32, u32)>>()
            + self.barriers.capacity() * size_of::<BarrierState>()
            + self
                .barriers
                .iter()
                .map(|b| {
                    b.gather.capacity() * size_of::<u32>()
                        + b.rounds.capacity() * size_of::<(u32, u32)>()
                })
                .sum::<usize>()
    }
}

/// The per-row step of the closure: rule 3 (lock semantics), plus the pair
/// check built on the closure. Everything else — program order, the racing
/// events' forks, observation, wait, barrier rounds and join — is the
/// shared [`Closure`] engine.
///
/// Public (with [`Closure`] and [`SyncPCore`]) only because the public
/// [`SyncP`] and [`crate::Osr`] aliases name their rows; the module is
/// private, so no other crate can name or implement it.
pub trait LockRule: Clone + std::fmt::Debug + Default {
    /// The row's name in the paper-style tables.
    const NAME: &'static str;
    /// The relation the row predicts.
    const RELATION: Relation;

    /// Called once per closure run, before any rule fires.
    fn begin(&mut self) {}

    /// The acquisition of section `s` joined the ideal: push the sections
    /// whose releases rule 3 now demands onto `need`. `gen` stamps this
    /// closure run.
    fn acquire(&mut self, core: &SyncPCore, gen: u32, s: u32, need: &mut Vec<u32>);

    /// The release of section `s` joined the ideal.
    fn release(&mut self, _core: &SyncPCore, _gen: u32, _s: u32) {}

    /// Does the conflicting pair at event indexes `a < b` race?
    fn races(closure: &mut Closure<Self>, core: &SyncPCore, a: u32, b: u32) -> bool;

    /// Exact heap bytes of the rule's scratch, per-lock lists included.
    fn footprint_bytes(&self) -> usize;

    /// The rule's top-level table capacities only: O(1).
    fn resident_bytes(&self) -> usize;
}

/// Per-barrier closure scratch for the conditional cross-round rule: a
/// round partially in the ideal must finish draining before the enter of
/// any later round in it (the trace model forbids gathering while a round
/// drains), but wholly-absent rounds are droppable.
#[derive(Clone, Debug, Default)]
struct BarrierScratch {
    /// Per round: stamped with the closure gen once any event of the
    /// round is in the ideal.
    touched: Vec<u32>,
    /// `(gen, r)`: in closure `gen`, the latest round with an enter in the
    /// ideal is `r`, and every touched round before `r` has been drained.
    latest_enter: (u32, u32),
}

/// The ideal under construction: per-thread prefix lengths plus the
/// worklist of threads with unprocessed events.
#[derive(Clone, Debug, Default)]
struct Frontier {
    /// Per thread: number of events included in the ideal.
    upto: Vec<u32>,
    /// Per thread: how many included events have been rule-processed.
    processed: Vec<u32>,
    /// Threads with `processed < upto`.
    dirty: Vec<u32>,
    /// The racing pair's `(thread, position)`: both must stay outside
    /// the ideal.
    pair: [(u32, u32); 2],
}

impl Frontier {
    /// Includes the first `upto` events of thread `t`. Returns `true` as
    /// soon as a rule forces either endpoint into the ideal — the pair is
    /// then synchronization-ordered, not a race.
    fn raise(&mut self, t: u32, upto: u32) -> bool {
        if upto > self.upto[t as usize] {
            if self.pair.iter().any(|&(pt, pos)| t == pt && upto > pos) {
                return true;
            }
            self.upto[t as usize] = upto;
            self.dirty.push(t);
        }
        false
    }

    /// Includes event `e` and its program-order prefix.
    fn raise_through(&mut self, core: &SyncPCore, e: u32) -> bool {
        let m = core.meta[e as usize];
        self.raise(m.tid, m.tpos + 1)
    }

    /// Includes every event of the prerequisite pool `pool`.
    fn raise_pool(&mut self, core: &SyncPCore, pool: u32) -> bool {
        let mut ordered = false;
        for &p in &core.prereqs[pool as usize] {
            ordered |= self.raise_through(core, p);
        }
        ordered
    }

    /// A thread's first event keeps the fork that created it.
    fn raise_fork(&mut self, core: &SyncPCore, t: u32) -> bool {
        let f = core.threads[t as usize].fork;
        f != NONE && self.raise_through(core, f)
    }
}

/// The worklist closure engine with reusable scratch, generic over the
/// row's rule 3. Per-lock and per-barrier entries are generation stamped so
/// resets are O(threads), not O(locks ever seen).
#[derive(Clone, Debug, Default)]
pub struct Closure<R> {
    frontier: Frontier,
    gen: u32,
    barriers: Vec<BarrierScratch>,
    /// Buffered pulls of one rule firing (split borrows: the rule's state
    /// and the frontier are mutated separately).
    need: Vec<u32>,
    pub(crate) rule: R,
}

impl<R: LockRule> Closure<R> {
    /// Runs the closure for the conflicting pair at event indexes `a < b`:
    /// the smallest ideal containing the proper program-order prefixes of
    /// both events and closed under the module's rules. Returns `true` when
    /// it stabilizes without forcing either endpoint (see
    /// [`ideal`](Self::ideal)).
    pub(crate) fn close(&mut self, core: &SyncPCore, a: u32, b: u32) -> bool {
        let (ma, mb) = (core.meta[a as usize], core.meta[b as usize]);
        debug_assert_ne!(ma.tid, mb.tid);
        self.gen = self.gen.wrapping_add(1);
        self.rule.begin();
        let nthreads = core.threads.len();
        let fr = &mut self.frontier;
        fr.pair = [(ma.tid, ma.tpos), (mb.tid, mb.tpos)];
        fr.upto.clear();
        fr.upto.resize(nthreads, 0);
        fr.processed.clear();
        fr.processed.resize(nthreads, 0);
        fr.dirty.clear();
        let mut ordered = fr.raise(ma.tid, ma.tpos) || fr.raise(mb.tid, mb.tpos);
        // A racing event that is its thread's first must still be
        // enabled: its fork joins the ideal.
        for m in [ma, mb] {
            if m.tpos == 0 {
                ordered |= fr.raise_fork(core, m.tid);
            }
        }
        if ordered {
            return false;
        }

        'outer: while let Some(t) = self.frontier.dirty.pop() {
            while self.frontier.processed[t as usize] < self.frontier.upto[t as usize] {
                if ordered {
                    break 'outer;
                }
                let fr = &mut self.frontier;
                let pos = fr.processed[t as usize];
                fr.processed[t as usize] = pos + 1;
                let idx = core.threads[t as usize].proj[pos as usize];
                let m = core.meta[idx as usize];
                if m.tpos == 0 {
                    ordered |= fr.raise_fork(core, t);
                }
                match m.op {
                    Op::Read(_) | Op::VolatileRead(_) if m.aux != NONE => {
                        ordered |= fr.raise_through(core, m.aux);
                    }
                    Op::Wait(..) if m.aux != NONE => ordered |= fr.raise_pool(core, m.aux),
                    // Rule 4's barrier half. `m.aux` is the event's round
                    // index; an exit pulls its round's enters, and the
                    // conditional cross-round rule pulls round r's exits
                    // once both some event of round r and an enter of any
                    // later round are included (whichever lands second
                    // fires the pull).
                    Op::BarrierEnter(bar) | Op::BarrierExit(bar) => {
                        let rounds = &core.barriers[bar.index()].rounds;
                        let r = m.aux as usize;
                        let gen = self.gen;
                        let bsc = slot(&mut self.barriers, bar.index());
                        if bsc.touched.len() < rounds.len() {
                            bsc.touched.resize(rounds.len(), 0);
                        }
                        let (stamp, latest) = bsc.latest_enter;
                        let latest = if stamp == gen { latest as usize } else { 0 };
                        if matches!(m.op, Op::BarrierExit(_)) {
                            self.need.push(rounds[r].0);
                        }
                        // An enter of a still-gathering round has
                        // `r == rounds.len()`: nothing to mark or pull for
                        // its own round yet.
                        if r < rounds.len() {
                            bsc.touched[r] = gen;
                            if r < latest {
                                self.need.push(rounds[r].1);
                            }
                        }
                        if matches!(m.op, Op::BarrierEnter(_)) && r > latest {
                            bsc.latest_enter = (gen, r as u32);
                            let between = bsc.touched[latest..r].iter().zip(&rounds[latest..r]);
                            for (&stamp, &(_, exits)) in between {
                                if stamp == gen {
                                    self.need.push(exits);
                                }
                            }
                        }
                        for pool in self.need.drain(..) {
                            ordered |= fr.raise_pool(core, pool);
                        }
                    }
                    Op::Join(u) => {
                        let len = core.threads[u.index()].proj.len() as u32;
                        ordered |= fr.raise(u.index() as u32, len);
                    }
                    // Rule 3, the row's own step: it names the sections
                    // whose releases the new acquisition demands.
                    Op::Acquire(_) | Op::AcqWrite(_) | Op::AcqRead(_) if m.aux != NONE => {
                        self.rule.acquire(core, self.gen, m.aux, &mut self.need);
                        for s in self.need.drain(..) {
                            let rel = core.sections[s as usize].rel;
                            // A demanded release that never happened (open
                            // section) is not schedulable either way: the
                            // pair is ordered. Unreachable on well-formed
                            // traces.
                            ordered |= rel == NONE || fr.raise_through(core, rel);
                        }
                    }
                    Op::Release(_) if m.aux != NONE => self.rule.release(core, self.gen, m.aux),
                    _ => {}
                }
            }
        }
        !ordered
    }

    /// Exact heap bytes of the scratch: the frontier, the pull buffer, the
    /// barrier rounds and the rule's per-lock state.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.table_bytes()
            + self
                .barriers
                .iter()
                .map(|b| b.touched.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self.rule.footprint_bytes()
    }

    /// The scratch's top-level capacities only: O(1).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.table_bytes() + self.rule.resident_bytes()
    }

    fn table_bytes(&self) -> usize {
        let fr = &self.frontier;
        (fr.upto.capacity() + fr.processed.capacity() + fr.dirty.capacity() + self.need.capacity())
            * size_of::<u32>()
            + self.barriers.capacity() * size_of::<BarrierScratch>()
    }

    /// The ideal of the last successful [`close`](Self::close), as event
    /// indexes in trace order.
    pub(crate) fn ideal(&self, core: &SyncPCore) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for (t, ts) in core.threads.iter().enumerate() {
            let upto = self.frontier.upto.get(t).copied().unwrap_or(0) as usize;
            out.extend_from_slice(&ts.proj[..upto.min(ts.proj.len())]);
        }
        out.sort_unstable();
        out
    }
}

/// SyncP's rule 3: when two acquisitions `a1 <tr a2` of one lock are both
/// in the ideal and not both read-mode, `a1`'s release joins it. Encoded
/// per lock as the latest included (write-mode) acquisition plus the
/// included sections whose release is not yet scheduled, so a firing costs
/// O(pending), not O(sections).
#[derive(Clone, Debug, Default)]
pub struct ObservedOrder {
    locks: Vec<LockScratch>,
}

#[derive(Clone, Debug, Default)]
struct LockScratch {
    gen: u32,
    /// Latest included acquisition (event index + 1; 0 = none).
    max_any: u32,
    /// Latest included *write-mode* acquisition (event index + 1).
    max_w: u32,
    /// Included sections whose release is not yet scheduled.
    pending: Vec<u32>,
}

impl LockRule for ObservedOrder {
    const NAME: &'static str = "SyncP";
    const RELATION: Relation = Relation::SyncP;

    fn acquire(&mut self, core: &SyncPCore, gen: u32, si: u32, need: &mut Vec<u32>) {
        let s = core.sections[si as usize];
        let ls = slot(&mut self.locks, s.lock as usize);
        if ls.gen != gen {
            ls.gen = gen;
            ls.max_any = 0;
            ls.max_w = 0;
            ls.pending.clear();
        }
        let later = if s.write { ls.max_any } else { ls.max_w };
        if later > s.acq {
            need.push(si);
        } else {
            ls.pending.push(si);
        }
        ls.pending.retain(|&p| {
            let ps = core.sections[p as usize];
            if p != si && ps.acq < s.acq && (ps.write || s.write) {
                need.push(p);
                false
            } else {
                true
            }
        });
        ls.max_any = ls.max_any.max(s.acq + 1);
        if s.write {
            ls.max_w = ls.max_w.max(s.acq + 1);
        }
    }

    fn release(&mut self, core: &SyncPCore, gen: u32, si: u32) {
        let ls = slot(&mut self.locks, core.sections[si as usize].lock as usize);
        if ls.gen == gen {
            ls.pending.retain(|&p| p != si);
        }
    }

    fn races(closure: &mut Closure<Self>, core: &SyncPCore, a: u32, b: u32) -> bool {
        closure.close(core, a, b)
    }

    fn footprint_bytes(&self) -> usize {
        self.resident_bytes()
            + self
                .locks
                .iter()
                .map(|l| l.pending.capacity() * size_of::<u32>())
                .sum::<usize>()
    }

    fn resident_bytes(&self) -> usize {
        self.locks.capacity() * size_of::<LockScratch>()
    }
}

/// The streaming front-end shared by [`SyncP`] and [`crate::Osr`]: the
/// buffered trace core, the strong-clock and common-lock prefilters, the
/// epoch-style check cache and the per-variable candidates, generic over
/// the row's rule 3 and pair check.
#[derive(Clone, Debug, Default)]
pub struct ClosureRow<R> {
    pub(crate) core: SyncPCore,
    strong: StrongState,
    vars: Vec<VarState>,
    closure: Closure<R>,
    report: Report,
    paths: PathCounters,
}

/// The sync-preserving race predictor (`SyncP`) — see the module docs for
/// the relation and the closure rules.
///
/// # Examples
///
/// SyncP detects the paper's Figure 1 predictable race, which HB misses:
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, SyncP};
/// use smarttrack_trace::paper;
///
/// let mut det = SyncP::new();
/// run_detector(&mut det, &paper::figure1());
/// assert_eq!(det.report().dynamic_count(), 1);
/// ```
pub type SyncP = ClosureRow<ObservedOrder>;

impl<R: LockRule> ClosureRow<R> {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        ClosureRow::default()
    }

    /// Strong-clock order test: is the access at `idx` ordered before the
    /// current point of thread `t`?
    #[inline]
    fn strong_ordered(&self, t: usize, idx: u32) -> bool {
        let m = self.core.meta[idx as usize];
        self.strong.ordered_before(t, ThreadId::new(m.tid), m.tpos)
    }

    /// Common-lock prefilter: both endpoints hold `l` and at least one
    /// hold is write-mode ⇒ mutual exclusion orders them under *any*
    /// section order, reversed or not.
    #[inline]
    fn common_lock(cur: &[(u32, bool, u32)], cand: &[(u32, bool)]) -> bool {
        cur.iter()
            .any(|&(l, w, _)| cand.iter().any(|&(cl, cw)| cl == l && (w || cw)))
    }

    fn access(&mut self, id: EventId, event: &Event, x: VarId, is_write: bool) {
        let idx = (self.core.meta.len() - 1) as u32; // ingest() already ran
        let t = event.tid.index();
        let vs = slot(&mut self.vars, x.index());
        let key = (t as u32, self.core.threads[t].ctx, vs.version);
        let cached = if is_write {
            vs.write_check
        } else {
            vs.read_check
        };
        if cached == key {
            // Same thread, unchanged sync context, unchanged candidates:
            // the race-check outcome would repeat — the epoch-style fast
            // path skips the closure work. The candidate entry must still
            // advance to *this* event, though: plain writes to other
            // variables publish reads-from edges without bumping `ctx`, so
            // a peer's strong clock can come to cover the stale candidate
            // while this thread's true latest access still races.
            self.paths.fast += 1;
            let vs = &mut self.vars[x.index()];
            let list = if is_write {
                &mut vs.writes
            } else {
                &mut vs.reads
            };
            let c = list
                .iter_mut()
                .find(|c| c.tid == t as u32)
                .expect("a matching cache key implies a stored candidate");
            c.idx = idx;
            vs.version += 1;
            let key = (t as u32, self.core.threads[t].ctx, vs.version);
            if is_write {
                vs.write_check = key;
            } else {
                vs.read_check = key;
            }
            return;
        }
        self.paths.slow += 1;

        let mut prior: Vec<ThreadId> = Vec::new();
        let cur_holds = self.core.threads[t].held.clone();
        let n_writes = self.vars[x.index()].writes.len();
        let n_reads = if is_write {
            self.vars[x.index()].reads.len()
        } else {
            0
        };
        for ci in 0..n_writes + n_reads {
            let vs = &self.vars[x.index()];
            let c = if ci < n_writes {
                &vs.writes[ci]
            } else {
                &vs.reads[ci - n_writes]
            };
            let tid = ThreadId::new(c.tid);
            if c.tid == t as u32
                || prior.contains(&tid)
                || self.strong_ordered(t, c.idx)
                || Self::common_lock(&cur_holds, &c.holds)
            {
                continue;
            }
            if R::races(&mut self.closure, &self.core, c.idx, idx) {
                prior.push(tid);
            }
        }
        if !prior.is_empty() {
            self.report.push(RaceReport {
                event: id,
                loc: event.loc,
                tid: event.tid,
                var: x,
                kind: if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                prior_threads: prior,
            });
        }

        // Record this access as its thread's latest candidate and refresh
        // the fast-path cache key against the bumped table version.
        let vs = &mut self.vars[x.index()];
        let list = if is_write {
            &mut vs.writes
        } else {
            &mut vs.reads
        };
        let c = match list.iter_mut().find(|c| c.tid == t as u32) {
            Some(c) => c,
            None => {
                list.push(Candidate {
                    tid: t as u32,
                    ..Candidate::default()
                });
                list.last_mut().expect("just pushed")
            }
        };
        c.idx = idx;
        c.holds.clear();
        c.holds.extend(cur_holds.iter().map(|&(l, w, _)| (l, w)));
        vs.version += 1;
        let key = (t as u32, self.core.threads[t].ctx, vs.version);
        if is_write {
            vs.write_check = key;
        } else {
            vs.read_check = key;
        }
    }
}

impl<R: LockRule> Detector for ClosureRow<R> {
    fn name(&self) -> &'static str {
        R::NAME
    }

    fn relation(&self) -> Relation {
        R::RELATION
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::Unopt
    }

    fn begin_stream(&mut self, hint: crate::StreamHint) {
        use crate::StreamHint;
        self.core
            .meta
            .reserve(StreamHint::presize(hint.events, self.core.meta.len()));
        self.vars
            .reserve(StreamHint::presize(hint.vars, self.vars.len()));
        self.strong.reserve_threads(StreamHint::presize(
            hint.threads,
            self.strong.thread_count(),
        ));
    }

    fn process(&mut self, id: EventId, event: &Event) {
        let t = event.tid;
        self.core.ingest(self.core.meta.len() as u32, event);
        let tpos = self.core.meta.last().expect("just ingested").tpos;
        // Position component first: the event's own slot in the strong
        // clock. Accesses run their race checks *before* absorbing their
        // reads-from edge — the racing pair itself is exempt from
        // observation (the witness validator exempts it too).
        self.strong.stamp(t, tpos);
        match event.op {
            Op::Read(x) => {
                self.access(id, event, x, false);
                let m = self.core.meta.last().expect("present");
                if m.aux != NONE {
                    self.strong.absorb_read_from(t, x.index());
                }
                return;
            }
            Op::Write(x) => {
                self.access(id, event, x, true);
                self.strong.stamp_last_write(t, x.index());
                return;
            }
            Op::VolatileRead(v) => self.strong.absorb_volatile(t, v.index()),
            Op::VolatileWrite(v) => self.strong.stamp_volatile(t, v.index()),
            Op::Fork(u) => self.strong.fork(t, u),
            Op::Join(u) => self.strong.join_child(t, u),
            Op::Wait(c, _) => self.strong.absorb_notifies(t, c.index()),
            Op::Notify(c) | Op::NotifyAll(c) => self.strong.publish_notify(t, c.index()),
            Op::BarrierEnter(b) => self.strong.barrier_enter(t, b.index()),
            Op::BarrierExit(b) => self.strong.barrier_exit(t, b.index()),
            // No strong edges: lock order is rule 3's conditional business.
            Op::Acquire(_)
            | Op::AcqRead(_)
            | Op::AcqWrite(_)
            | Op::Release(_)
            | Op::TryAcqFail(_) => {}
        }
        // Every synchronization op changes the thread's sync context.
        self.core.thread(t.index()).ctx += 1;
    }

    fn report(&self) -> &Report {
        &self.report
    }

    fn footprint_bytes(&self) -> usize {
        self.core.footprint_bytes()
            + self.strong.footprint_bytes()
            + self.closure.footprint_bytes()
            + self.vars.capacity() * size_of::<VarState>()
            + self
                .vars
                .iter()
                .map(|vs| {
                    vs.writes
                        .iter()
                        .chain(vs.reads.iter())
                        .map(|c| c.holds.capacity() * size_of::<(u32, bool)>())
                        .sum::<usize>()
                        + (vs.writes.capacity() + vs.reads.capacity()) * size_of::<Candidate>()
                })
                .sum::<usize>()
            + self.report.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        // The buffered event log dominates — the closure rows' state grows
        // with the trace, unlike the vector-clock rows. The cheap estimate
        // skips per-variable candidate walks.
        self.core.resident_bytes()
            + self.strong.resident_bytes()
            + self.closure.resident_bytes()
            + self.vars.capacity() * size_of::<VarState>()
            + self.report.footprint_bytes()
    }

    fn hot_path_stats(&self) -> HotPathStats {
        HotPathStats {
            fast_hits: self.paths.fast,
            slow_hits: self.paths.slow,
            state_bytes: self.state_bytes(),
        }
    }
}

/// Replays `trace` up to the later of the conflicting pair `(e1, e2)` into
/// a fresh core, for the offline witness entry points. Returns the core and
/// the pair's event indexes in trace order.
///
/// # Panics
///
/// Panics if either id is out of bounds or the events do not conflict.
pub(crate) fn replay_prefix(
    trace: &Trace,
    e1: EventId,
    e2: EventId,
    caller: &str,
) -> (SyncPCore, u32, u32) {
    let (a, b) = if e1.index() <= e2.index() {
        (e1, e2)
    } else {
        (e2, e1)
    };
    assert!(
        trace.event(a).conflicts_with(trace.event(b)),
        "{caller} wants a conflicting pair"
    );
    let mut core = SyncPCore::default();
    for (id, event) in trace.iter().take(b.index() + 1) {
        core.ingest(id.index() as u32, event);
    }
    (core, a.index() as u32, b.index() as u32)
}

/// Offline pair check exposing the witness: replays `trace` up to the later
/// of `(e1, e2)`, runs the sync-preserving closure, and — when the pair
/// races — returns the full witness reordering: the closure ideal in
/// original trace order, followed by the pair itself. The returned order
/// passes `validate_witness` (the vindication layer's §2.2 checker) by
/// construction; `None` means the pair is synchronization-ordered (not a
/// sync-preserving race).
///
/// # Panics
///
/// Panics if either id is out of bounds or the events do not conflict.
pub fn syncp_pair_ideal(trace: &Trace, e1: EventId, e2: EventId) -> Option<Vec<EventId>> {
    let (core, a, b) = replay_prefix(trace, e1, e2, "syncp_pair_ideal");
    let mut closure = Closure::<ObservedOrder>::default();
    if !closure.close(&core, a, b) {
        return None;
    }
    let mut order = closure.ideal(&core);
    order.extend([a, b]);
    Some(order.into_iter().map(EventId::new).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_detector;
    use smarttrack_trace::{paper, LockId, ThreadId, TraceBuilder};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    fn run(b: TraceBuilder) -> Report {
        let mut det = SyncP::new();
        run_detector(&mut det, &b.finish());
        det.report().clone()
    }

    #[test]
    fn detects_unsynchronized_write_write() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.races()[0].prior_threads, vec![t(0)]);
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let mut b = TraceBuilder::new();
        for i in 0..2 {
            b.push(t(i), Op::Acquire(m(0))).unwrap();
            b.push(t(i), Op::Write(x(0))).unwrap();
            b.push(t(i), Op::Release(m(0))).unwrap();
        }
        assert!(run(b).is_empty());
    }

    #[test]
    fn detects_figure1_sync_preserving_race() {
        let mut det = SyncP::new();
        run_detector(&mut det, &paper::figure1());
        let r = det.report();
        assert_eq!(r.dynamic_count(), 1, "figure 1 is a sync-preserving race");
        // The race is on x, detected at T2's wr(x) (event 7).
        assert_eq!(r.races()[0].event, EventId::new(7));
    }

    #[test]
    fn figure1_ideal_is_the_paper_witness_shape() {
        let tr = paper::figure1();
        let order =
            syncp_pair_ideal(&tr, EventId::new(0), EventId::new(7)).expect("figure 1 pair races");
        // The ideal must drop T1's critical section entirely (events 1-3)
        // and keep T2's whole section (events 4-6), mirroring Figure 1(b).
        let ids: Vec<usize> = order.iter().map(|e| e.index()).collect();
        assert_eq!(ids, vec![4, 5, 6, 0, 7]);
    }

    #[test]
    fn misses_figure3_unpredictable_race() {
        let mut det = SyncP::new();
        run_detector(&mut det, &paper::figure3());
        assert!(
            det.report().is_empty(),
            "figure 3 has no predictable race, so sound-by-construction \
             SyncP must stay silent"
        );
    }

    #[test]
    fn observed_reads_pin_their_writers() {
        // t0 writes x under no lock; t1 reads x (observing t0's write),
        // then t0 writes again. (w1, r) race; (r, w2)… r's prefix is empty,
        // w2's prefix contains w1 and r is not pulled — the pair races too,
        // but the *reported* race at r is against w1.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.races()[0].kind, AccessKind::Read);
    }

    #[test]
    fn reads_from_edge_orders_later_accesses() {
        // t1 reads t0's write, then t1 writes a second variable that t0
        // wrote *before* its x-write: the rf edge orders them.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(1))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap(); // rf: observes t0's wr(x0)
        b.push(t(1), Op::Write(x(1))).unwrap(); // ordered after wr(x1)? NO —
                                                // dropping rd(x0) from the ideal is not allowed (it is in t1's
                                                // prefix), and rd(x0) pins wr(x0), whose prefix contains wr(x1).
        let r = run(b);
        // rd(x0) itself races with wr(x0)'s *absence of sync* — expected:
        // the read is reported; the wr(x1) pair is ordered via the rf edge.
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.races()[0].kind, AccessKind::Read);
    }

    #[test]
    fn read_sections_stay_mutually_unordered() {
        // Two overlapping read-mode sections; writes inside them race
        // (the captured-RwLock bug shape).
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::AcqRead(m(0))).unwrap();
        b.push(t(1), Op::AcqRead(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1, "read-mode holds do not exclude");
    }

    #[test]
    fn write_mode_sections_exclude() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::AcqWrite(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::AcqRead(m(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        assert!(run(b).is_empty(), "writer/reader sections exclude");
    }

    #[test]
    fn trylock_failure_constrains_nothing() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::TryAcqFail(m(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1, "tryf adds no ordering");
    }

    #[test]
    fn fast_path_refreshes_candidate_past_rf_publishing_writes() {
        // t0's second wr(x0) takes the epoch fast path (same ctx,
        // unchanged candidates for x0). The wr(x1) in between publishes a
        // reads-from edge without bumping ctx; t1's rd(x1) absorbs it,
        // which strong-orders t0's *first* wr(x0) but not the second. A
        // fast path that leaves the candidate stale would dismiss t1's
        // wr(x0) as ordered, violating HB ⊆ SyncP.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Write(x(1))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap(); // epoch fast path
        b.push(t(1), Op::Read(x(1))).unwrap(); // rf: covers t0 up to wr(x1)
        b.push(t(1), Op::Write(x(0))).unwrap(); // races with the 2nd wr(x0)
        let r = run(b);
        assert!(
            r.races()
                .iter()
                .any(|race| race.var == x(0) && race.tid == t(1)),
            "t1's wr(x0) must race with t0's latest wr(x0): {:?}",
            r.races()
        );
    }

    #[test]
    fn fork_join_order() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Fork(t(1))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Join(t(1))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        assert!(run(b).is_empty());
    }

    #[test]
    fn droppable_section_does_not_shield() {
        // Like figure 1 but distilled: t0's lock section is irrelevant to
        // the racing pair and must be droppable.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Read(x(0))).unwrap();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1, "the m-sections are droppable");
    }

    #[test]
    fn same_lock_observation_chain_orders() {
        // The classic case the closure must keep ordered: t1's section
        // *observes* t0's section (reads y written inside it), so dropping
        // is impossible and lock order applies transitively to the
        // accesses.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(1))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Read(x(1))).unwrap(); // observes t0's wr(x1)
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert!(
            run(b).is_empty(),
            "observation pins the first section; lock order + PO order the pair"
        );
    }

    #[test]
    fn wait_keeps_notifier() {
        use smarttrack_trace::CondId;
        let (c, l) = (CondId::new(0), m(0));
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Notify(c)).unwrap();
        b.push(t(1), Op::Acquire(l)).unwrap();
        b.push(t(1), Op::Wait(c, l)).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Release(l)).unwrap();
        assert!(run(b).is_empty(), "the wait pins its notify");
    }

    #[test]
    fn barrier_orders_across_rounds() {
        use smarttrack_trace::BarrierId;
        let bar = BarrierId::new(0);
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::BarrierEnter(bar)).unwrap();
        b.push(t(1), Op::BarrierEnter(bar)).unwrap();
        b.push(t(0), Op::BarrierExit(bar)).unwrap();
        b.push(t(1), Op::BarrierExit(bar)).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        assert!(run(b).is_empty(), "the exit pins the round's enters");
    }

    #[test]
    fn disjoint_barrier_rounds_do_not_order() {
        // Round 1 rendezvouses t0/t1, round 2 rendezvouses t2/t3 — no
        // shared thread. t0's pre-round-1 write still races with t2's
        // post-round-2 read: round 1 is droppable wholesale, so an
        // unconditional enter → previous-round-exits edge would be wrong
        // (HB reports this race; the exhaustive oracle confirms it).
        use smarttrack_trace::BarrierId;
        let bar = BarrierId::new(0);
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::BarrierEnter(bar)).unwrap();
        b.push(t(1), Op::BarrierEnter(bar)).unwrap();
        b.push(t(0), Op::BarrierExit(bar)).unwrap();
        b.push(t(1), Op::BarrierExit(bar)).unwrap();
        b.push(t(2), Op::BarrierEnter(bar)).unwrap();
        b.push(t(3), Op::BarrierEnter(bar)).unwrap();
        b.push(t(2), Op::BarrierExit(bar)).unwrap();
        b.push(t(3), Op::BarrierExit(bar)).unwrap();
        b.push(t(2), Op::Read(x(0))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1, "disjoint rounds do not order");
        assert_eq!(r.races()[0].event, EventId::new(9));
    }

    #[test]
    fn partially_kept_round_finishes_draining_before_the_next_enter() {
        // Round 0 rendezvouses t0/t1, round 1 rendezvouses t1/t2. t0's
        // post-round-0 write races with t2's post-round-1 write (no HB
        // path: t0 sits out round 1), but the witness must include t0's
        // round-0 exit: round 0 is partially in the ideal through t1,
        // round 1's enter is too, and replay forbids gathering a new
        // round while one drains. Dropping the whole of round 0 is not
        // an option either — t1's kept exit pins its enters.
        use smarttrack_trace::BarrierId;
        let bar = BarrierId::new(0);
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::BarrierEnter(bar)).unwrap(); // 0
        b.push(t(1), Op::BarrierEnter(bar)).unwrap(); // 1
        b.push(t(1), Op::BarrierExit(bar)).unwrap(); // 2
        b.push(t(0), Op::BarrierExit(bar)).unwrap(); // 3
        b.push(t(0), Op::Write(x(0))).unwrap(); // 4
        b.push(t(1), Op::BarrierEnter(bar)).unwrap(); // 5
        b.push(t(2), Op::BarrierEnter(bar)).unwrap(); // 6
        b.push(t(1), Op::BarrierExit(bar)).unwrap(); // 7
        b.push(t(2), Op::BarrierExit(bar)).unwrap(); // 8
        b.push(t(2), Op::Write(x(0))).unwrap(); // 9
        let tr = b.finish();
        let mut det = SyncP::new();
        run_detector(&mut det, &tr);
        assert_eq!(det.report().dynamic_count(), 1);
        assert_eq!(det.report().races()[0].event, EventId::new(9));
        let order =
            syncp_pair_ideal(&tr, EventId::new(4), EventId::new(9)).expect("the pair races");
        let ids: Vec<usize> = order.iter().map(|e| e.index()).collect();
        assert!(
            ids.contains(&3),
            "t0's round-0 exit must be pulled into the witness, got {ids:?}"
        );
        assert_eq!(ids, vec![0, 1, 2, 3, 5, 6, 8, 4, 9]);
    }

    #[test]
    fn every_reported_race_has_a_valid_ideal() {
        // The witness-extraction path agrees with the streaming detector
        // on the paper figures.
        for tr in [paper::figure1(), paper::figure2()] {
            let mut det = SyncP::new();
            run_detector(&mut det, &tr);
            for race in det.report().races() {
                // Recover one racing pair: the reported access vs the
                // prior thread's latest earlier conflicting access.
                let e2 = race.event;
                let prior = race.prior_threads[0];
                let e1 = tr
                    .iter()
                    .filter(|(id, e)| {
                        id.index() < e2.index() && e.tid == prior && e.conflicts_with(tr.event(e2))
                    })
                    .map(|(id, _)| id)
                    .last()
                    .expect("a prior conflicting access exists");
                assert!(
                    syncp_pair_ideal(&tr, e1, e2).is_some(),
                    "reported race ({e1:?}, {e2:?}) reproduces offline"
                );
            }
        }
    }

    #[test]
    fn state_accounting_is_nonzero_and_monotone_in_events() {
        let mut det = SyncP::new();
        run_detector(&mut det, &paper::figure1());
        let small = det.state_bytes();
        assert!(small > 0);
        assert!(det.footprint_bytes() >= det.core.resident_bytes());
        let stats = det.hot_path_stats();
        assert_eq!(stats.state_bytes, small);
        assert!(stats.fast_hits + stats.slow_hits > 0);
    }
}

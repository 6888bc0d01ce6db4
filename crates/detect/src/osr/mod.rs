//! Optimistic synchronization-reversal race prediction (Shi, Mathur &
//! Pavlogiannis, arXiv 2401.05642): the `OSR` analysis row.
//!
//! OSR is SyncP's closure with one rule relaxed. A *sync-preserving*
//! reordering may drop whole critical sections but never commutes two
//! acquisitions of one lock; OSR additionally permits a bounded number of
//! critical-section *reversals* — the later section of a same-lock pair
//! completes before the earlier one starts — which predicts strictly more
//! true races at near-SyncP cost. Every report stays sound by
//! construction: a reversal-carrying closure is only believed once a
//! concrete replay schedule of its ideal has been found, and that schedule
//! *is* the witness ([`osr_pair_witness`] exposes it; the vindication
//! layer's reversal-tolerant validator replays it).
//!
//! # The abort-and-commit check
//!
//! For a candidate pair, run the sync-preserving closure (the exact rule
//! table of [`crate::syncp`]) under a set `R` of reversal *directives* —
//! section pairs `(early, late)` on one lock whose scheduled order is
//! flipped, so rule 3 demands the **later** section's release instead of
//! the earlier's. The search starts from `R = ∅`:
//!
//! 1. **Commit.** If the closure stabilizes without forcing either
//!    endpoint and `R = ∅`, the run was exactly the SyncP closure and the
//!    ideal in trace order is a witness (hence SyncP ⊆ OSR, structurally).
//!    With `R ≠ ∅` the ideal has no trace-order schedule, so a bounded
//!    DFS replay scheduler searches for a concrete linearization obeying
//!    program order, mutual exclusion, exact reads-from, wait/notify
//!    prerequisites, and the barrier gather/drain protocol; the pair is
//!    reported only if one is found.
//! 2. **Abort.** If a rule-3 release pull forced an endpoint, the culprit
//!    section pair is *reversed* (added to `R`) and the closure restarts —
//!    at most [`MAX_ATTEMPTS`] times. An abort with no lock culprit (the
//!    endpoint was forced by reads-from, program order, fork/join, or a
//!    barrier round) is final: no reversal can help, the pair is ordered.
//!
//! Everything but rule 3 is SyncP's code: the streaming front-end (epoch
//! cache, strong-clock and common-lock prefilters, candidates) and the
//! closure engine are shared through [`crate::syncp`], and this module
//! supplies only the [`Reversals`] rule-3 step, the abort-and-commit loop
//! and the replay scheduler. The prefilters and the epoch cache remain
//! sound under reversals: the strong clock tracks only edges no correct
//! reordering of any kind can break (it has no lock edges), and mutual
//! exclusion holds whatever order two same-lock sections run in.
//!
//! Like SyncP, OSR buffers the stream — state is O(events) — so bound the
//! lifetime of `serve` sessions carrying an `osr` lane, or run it offline.

use std::collections::HashSet;
use std::mem::size_of;

use smarttrack_trace::{EventId, Op, Trace};

use crate::common::slot;
use crate::syncp::{lw_slot, replay_prefix, Closure, ClosureRow, LockRule, SyncPCore, NONE};
use crate::Relation;

/// Maximum closure restarts per pair. Each restart commits one more
/// reversal directive, so this bounds both the search and `|R|`.
const MAX_ATTEMPTS: usize = 16;

/// Maximum distinct replay states the DFS scheduler explores per pair
/// before giving up (giving up means *not* reporting — sound).
const DFS_STATE_BUDGET: usize = 1 << 17;

/// One reversal directive: the same-lock section pair `(early, late)` (by
/// acquisition trace order) is scheduled in reverse — `late` completes
/// before `early` starts.
type Directive = (u32, u32);

/// OSR's rule 3: pairwise against every included section of the lock,
/// because directive membership is per pair. The pull of a same-lock
/// section pair `(early, late)` demands `early`'s release, or `late`'s when
/// the pair is a reversal directive; every pull is journaled for the abort
/// handler.
#[derive(Clone, Debug, Default)]
pub struct Reversals {
    /// Per lock: `(closure run stamp, sections whose acquisition is in
    /// the ideal)`; a stale stamp means the list belongs to an earlier run.
    locks: Vec<(u32, Vec<u32>)>,
    /// The directives of the current attempt.
    directives: Vec<Directive>,
    /// Rule-3 pulls executed this attempt: `(early, late, reversed)`.
    pulls: Vec<(u32, u32, bool)>,
}

impl LockRule for Reversals {
    const NAME: &'static str = "OSR";
    const RELATION: Relation = Relation::Osr;

    fn begin(&mut self) {
        self.pulls.clear();
    }

    fn acquire(&mut self, core: &SyncPCore, gen: u32, s_idx: u32, need: &mut Vec<u32>) {
        let s = core.sections[s_idx as usize];
        let (stamp, sections) = slot(&mut self.locks, s.lock as usize);
        if *stamp != gen {
            *stamp = gen;
            sections.clear();
        }
        for &p_idx in sections.iter() {
            let ps = core.sections[p_idx as usize];
            if !(ps.write || s.write) {
                continue; // two read-mode sections: unordered
            }
            let (early, late) = if ps.acq < s.acq {
                (p_idx, s_idx)
            } else {
                (s_idx, p_idx)
            };
            let reversed = self.directives.contains(&(early, late));
            self.pulls.push((early, late, reversed));
            need.push(if reversed { late } else { early });
        }
        sections.push(s_idx);
    }

    fn races(closure: &mut Closure<Self>, core: &SyncPCore, a: u32, b: u32) -> bool {
        osr_check(closure, core, a, b).is_some()
    }

    fn footprint_bytes(&self) -> usize {
        self.resident_bytes()
            + self
                .locks
                .iter()
                .map(|(_, sections)| sections.capacity() * size_of::<u32>())
                .sum::<usize>()
    }

    /// The pull journal keeps its peak capacity: a lock with `k` sections
    /// in the ideal journals `k(k − 1)/2` pulls per attempt.
    fn resident_bytes(&self) -> usize {
        self.locks.capacity() * size_of::<(u32, Vec<u32>)>()
            + self.directives.capacity() * size_of::<Directive>()
            + self.pulls.capacity() * size_of::<(u32, u32, bool)>()
    }
}

#[derive(Clone, Debug, Default)]
struct LockRep {
    write_held: bool,
    readers: u32,
}

#[derive(Clone, Debug, Default)]
struct BarRep {
    gathered: u32,
    draining: u32,
}

/// Undo record for one replayed event (the DFS backtracks through these).
enum Undo {
    Nothing,
    Lw { x: usize, prev: u32 },
    VolLw { v: usize, prev: u32 },
    LockW { l: usize },
    LockR { l: usize },
    RelW { l: usize },
    RelR { l: usize },
    Enter { b: usize },
    Exit { b: usize, sealed_from: Option<u32> },
}

/// The bounded DFS replay scheduler: searches for a linearization of the
/// ideal that a real execution could take — program order, exact
/// reads-from (plain and volatile), lock mutual exclusion (read-mode
/// sections may overlap), wait-after-notify, the barrier gather/drain
/// protocol, and fork/join gating. Mirrors the enabledness model of the
/// vindication oracle, with the trace model's stricter barrier rule (no
/// gathering while a round drains).
struct Replay<'c> {
    core: &'c SyncPCore,
    /// The ideal, split per thread (each list in trace = program order).
    per_thread: Vec<Vec<u32>>,
    positions: Vec<u32>,
    executed: Vec<bool>,
    lw: Vec<u32>,
    vol_lw: Vec<u32>,
    locks: Vec<LockRep>,
    bars: Vec<BarRep>,
    visited: HashSet<Vec<u32>>,
    states: usize,
    out: Vec<u32>,
    remaining: usize,
}

impl<'c> Replay<'c> {
    fn new(core: &'c SyncPCore, ideal: &[u32]) -> Self {
        let nthreads = core.threads.len();
        let mut per_thread: Vec<Vec<u32>> = vec![Vec::new(); nthreads];
        for &e in ideal {
            per_thread[core.meta[e as usize].tid as usize].push(e);
        }
        Replay {
            core,
            per_thread,
            positions: vec![0; nthreads],
            executed: vec![false; core.meta.len()],
            lw: Vec::new(),
            vol_lw: Vec::new(),
            locks: Vec::new(),
            bars: Vec::new(),
            visited: HashSet::new(),
            states: 0,
            out: Vec::with_capacity(ideal.len()),
            remaining: ideal.len(),
        }
    }

    fn enabled(&self, e: u32) -> bool {
        let m = self.core.meta[e as usize];
        if m.tpos == 0 {
            let f = self.core.threads[m.tid as usize].fork;
            if f != NONE && !self.executed[f as usize] {
                return false;
            }
        }
        match m.op {
            Op::Read(x) => self.lw.get(x.index()).copied().unwrap_or(NONE) == m.aux,
            Op::VolatileRead(v) => self.vol_lw.get(v.index()).copied().unwrap_or(NONE) == m.aux,
            Op::Acquire(l) | Op::AcqWrite(l) => self
                .locks
                .get(l.index())
                .is_none_or(|st| !st.write_held && st.readers == 0),
            Op::AcqRead(l) => self.locks.get(l.index()).is_none_or(|st| !st.write_held),
            Op::Wait(..) if m.aux != NONE => self.core.prereqs[m.aux as usize]
                .iter()
                .all(|&p| self.executed[p as usize]),
            Op::Join(u) => {
                let u = u.index();
                self.positions.get(u).copied().unwrap_or(0) as usize
                    == self.per_thread.get(u).map_or(0, Vec::len)
            }
            Op::BarrierEnter(bar) => self.bars.get(bar.index()).is_none_or(|st| st.draining == 0),
            Op::BarrierExit(bar) => {
                let st = self.bars.get(bar.index());
                let live = st.is_some_and(|st| st.draining > 0 || st.gathered > 0);
                let r = m.aux as usize;
                live && self.core.prereqs[self.core.barriers[bar.index()].rounds[r].0 as usize]
                    .iter()
                    .all(|&p| self.executed[p as usize])
            }
            _ => true,
        }
    }

    fn step(&mut self, e: u32) -> Undo {
        let m = self.core.meta[e as usize];
        self.executed[e as usize] = true;
        self.positions[m.tid as usize] += 1;
        self.remaining -= 1;
        self.out.push(e);
        match m.op {
            Op::Write(x) => {
                let cell = lw_slot(&mut self.lw, x.index());
                let prev = *cell;
                *cell = e;
                Undo::Lw { x: x.index(), prev }
            }
            Op::VolatileWrite(v) => {
                let cell = lw_slot(&mut self.vol_lw, v.index());
                let prev = *cell;
                *cell = e;
                Undo::VolLw { v: v.index(), prev }
            }
            Op::Acquire(l) | Op::AcqWrite(l) => {
                slot(&mut self.locks, l.index()).write_held = true;
                Undo::LockW { l: l.index() }
            }
            Op::AcqRead(l) => {
                slot(&mut self.locks, l.index()).readers += 1;
                Undo::LockR { l: l.index() }
            }
            Op::Release(l) if m.aux != NONE => {
                let write = self.core.sections[m.aux as usize].write;
                let st = slot(&mut self.locks, l.index());
                if write {
                    st.write_held = false;
                    Undo::RelW { l: l.index() }
                } else {
                    st.readers -= 1;
                    Undo::RelR { l: l.index() }
                }
            }
            Op::BarrierEnter(bar) => {
                slot(&mut self.bars, bar.index()).gathered += 1;
                Undo::Enter { b: bar.index() }
            }
            Op::BarrierExit(bar) => {
                let st = slot(&mut self.bars, bar.index());
                let sealed_from = if st.draining == 0 {
                    let g = st.gathered;
                    st.draining = g;
                    st.gathered = 0;
                    Some(g)
                } else {
                    None
                };
                st.draining -= 1;
                Undo::Exit {
                    b: bar.index(),
                    sealed_from,
                }
            }
            _ => Undo::Nothing,
        }
    }

    fn unstep(&mut self, e: u32, undo: Undo) {
        let m = self.core.meta[e as usize];
        self.executed[e as usize] = false;
        self.positions[m.tid as usize] -= 1;
        self.remaining += 1;
        self.out.pop();
        match undo {
            Undo::Nothing => {}
            Undo::Lw { x, prev } => self.lw[x] = prev,
            Undo::VolLw { v, prev } => self.vol_lw[v] = prev,
            Undo::LockW { l } => self.locks[l].write_held = false,
            Undo::LockR { l } => self.locks[l].readers -= 1,
            Undo::RelW { l } => self.locks[l].write_held = true,
            Undo::RelR { l } => self.locks[l].readers += 1,
            Undo::Enter { b } => self.bars[b].gathered -= 1,
            Undo::Exit { b, sealed_from } => {
                let st = &mut self.bars[b];
                st.draining += 1;
                if let Some(g) = sealed_from {
                    st.gathered = g;
                    st.draining = 0;
                }
            }
        }
    }

    fn dfs(&mut self) -> bool {
        if self.remaining == 0 {
            return true;
        }
        if self.states >= DFS_STATE_BUDGET || !self.visited.insert(self.positions.clone()) {
            return false;
        }
        self.states += 1;
        // Deterministic order: lowest event index first.
        let mut cands: Vec<u32> = (0..self.per_thread.len())
            .filter_map(|t| {
                self.per_thread[t]
                    .get(self.positions[t] as usize)
                    .copied()
                    .filter(|&e| self.enabled(e))
            })
            .collect();
        cands.sort_unstable();
        for e in cands {
            let undo = self.step(e);
            if self.dfs() {
                return true;
            }
            self.unstep(e, undo);
        }
        false
    }
}

/// The full abort-and-commit check for one conflicting pair `a < b`.
/// Returns the witness order (event indexes in schedule order, pair
/// appended) when the pair is an OSR race, `None` otherwise.
fn osr_check(
    closure: &mut Closure<Reversals>,
    core: &SyncPCore,
    a: u32,
    b: u32,
) -> Option<Vec<u32>> {
    closure.rule.directives.clear();
    let mut tried: Vec<Directive> = Vec::new();
    for _ in 0..MAX_ATTEMPTS {
        if closure.close(core, a, b) {
            let ideal = closure.ideal(core);
            let mut order = if closure.rule.directives.is_empty() {
                // Exactly the SyncP closure: its trace-order ideal is the
                // witness, no scheduling needed (SyncP ⊆ OSR lives here).
                ideal
            } else {
                let mut replay = Replay::new(core, &ideal);
                if !replay.dfs() {
                    return None;
                }
                replay.out
            };
            order.extend([a, b]);
            return Some(order);
        }
        // Aborted. Reverse the most recent lock culprit not yet tried; if
        // the abort had no reversible lock pull, no reversal can help.
        let next = closure.rule.pulls.iter().rev().find(|&&(e, l, rev)| {
            !rev && !tried.contains(&(e, l))
                && core.sections[e as usize].rel != NONE
                && core.sections[l as usize].rel != NONE
        });
        match next {
            Some(&(e, l, _)) => {
                tried.push((e, l));
                closure.rule.directives.push((e, l));
            }
            None => return None,
        }
    }
    None
}

/// The optimistic synchronization-reversal race predictor (`OSR`) — see
/// the module docs for the relation and the abort-and-commit check.
///
/// # Examples
///
/// OSR detects a race hidden behind a same-lock section reversal, which
/// SyncP provably cannot report:
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, Osr, SyncP};
/// use smarttrack_trace::{LockId, Op, ThreadId, TraceBuilder, VarId};
///
/// let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
/// let (l, x, y) = (LockId::new(0), VarId::new(0), VarId::new(1));
/// let mut b = TraceBuilder::new();
/// b.push(t1, Op::Acquire(l)).unwrap();
/// b.push(t1, Op::Write(y)).unwrap();
/// b.push(t1, Op::Write(x)).unwrap(); // e1
/// b.push(t1, Op::Release(l)).unwrap();
/// b.push(t2, Op::Acquire(l)).unwrap();
/// b.push(t2, Op::Write(y)).unwrap();
/// b.push(t2, Op::Release(l)).unwrap();
/// b.push(t2, Op::Write(x)).unwrap(); // e2: races with e1 under OSR only
/// let trace = b.finish();
///
/// let mut syncp = SyncP::new();
/// run_detector(&mut syncp, &trace);
/// assert_eq!(syncp.report().dynamic_count(), 0);
///
/// let mut osr = Osr::new();
/// run_detector(&mut osr, &trace);
/// assert_eq!(osr.report().dynamic_count(), 1);
/// ```
pub type Osr = ClosureRow<Reversals>;

/// Offline pair check exposing the witness: replays `trace` up to the
/// later of `(e1, e2)`, runs the abort-and-commit check, and — when the
/// pair races — returns the full witness reordering in *schedule* order
/// (trace order for a directive-free closure, the DFS scheduler's
/// linearization when sections were reversed), followed by the pair
/// itself. The returned order passes the vindication layer's
/// reversal-tolerant validator by construction; `None` means no
/// reversal-permitting witness exists within the search bounds.
///
/// # Panics
///
/// Panics if either id is out of bounds or the events do not conflict.
pub fn osr_pair_witness(trace: &Trace, e1: EventId, e2: EventId) -> Option<Vec<EventId>> {
    let (core, a, b) = replay_prefix(trace, e1, e2, "osr_pair_witness");
    osr_check(&mut Closure::default(), &core, a, b)
        .map(|order| order.into_iter().map(EventId::new).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Detector, Report};
    use smarttrack_trace::{paper, LockId, ThreadId, TraceBuilder, VarId};

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
        let mut det = Osr::new();
        run_detector(&mut det, &b.finish());
        det.report().clone()
    }

    /// The canonical reversal trace: t1's section writes y then x (inside
    /// the section), t2's section writes y, then t2 writes x *outside*.
    /// Reversing the sections schedules t2's section first and makes the
    /// two x-writes adjacent.
    fn reversal_trace() -> smarttrack_trace::Trace {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap(); // 0
        b.push(t(0), Op::Write(x(1))).unwrap(); // 1: w(y)
        b.push(t(0), Op::Write(x(0))).unwrap(); // 2: e1 = w(x)
        b.push(t(0), Op::Release(m(0))).unwrap(); // 3
        b.push(t(1), Op::Acquire(m(0))).unwrap(); // 4
        b.push(t(1), Op::Write(x(1))).unwrap(); // 5: w(y)
        b.push(t(1), Op::Release(m(0))).unwrap(); // 6
        b.push(t(1), Op::Write(x(0))).unwrap(); // 7: e2 = w(x)
        b.finish()
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
        assert!(run(b).is_empty(), "mutual exclusion survives reversal");
    }

    #[test]
    fn detects_the_reversal_race_syncp_misses() {
        let tr = reversal_trace();
        let mut syncp = crate::SyncP::new();
        run_detector(&mut syncp, &tr);
        assert!(syncp.report().is_empty(), "SyncP is forced by rule 3");

        let mut osr = Osr::new();
        run_detector(&mut osr, &tr);
        assert_eq!(osr.report().dynamic_count(), 1);
        assert_eq!(osr.report().races()[0].event, EventId::new(7));
    }

    #[test]
    fn reversal_witness_schedules_the_later_section_first() {
        let tr = reversal_trace();
        let order = osr_pair_witness(&tr, EventId::new(2), EventId::new(7))
            .expect("the reversal pair races");
        let ids: Vec<usize> = order.iter().map(|e| e.index()).collect();
        // t2's whole section must run before t1's acquire; the pair comes
        // last, adjacent.
        assert_eq!(ids, vec![4, 5, 6, 0, 1, 2, 7]);
        let acq_t2 = ids.iter().position(|&i| i == 4).unwrap();
        let acq_t1 = ids.iter().position(|&i| i == 0).unwrap();
        assert!(acq_t2 < acq_t1, "sections reversed in the schedule");
    }

    #[test]
    fn figure1_still_races_with_the_syncp_witness() {
        let tr = paper::figure1();
        let mut det = Osr::new();
        run_detector(&mut det, &tr);
        assert_eq!(det.report().dynamic_count(), 1);
        let order = osr_pair_witness(&tr, EventId::new(0), EventId::new(7)).expect("races");
        let ids: Vec<usize> = order.iter().map(|e| e.index()).collect();
        assert_eq!(ids, vec![4, 5, 6, 0, 7], "R = ∅ keeps the SyncP ideal");
    }

    #[test]
    fn stays_silent_on_figure3() {
        let mut det = Osr::new();
        run_detector(&mut det, &paper::figure3());
        assert!(
            det.report().is_empty(),
            "figure 3 has no predictable race; sound OSR must stay silent"
        );
    }

    #[test]
    fn observation_chain_across_sections_still_orders() {
        // t2's section *reads* what t1's section wrote: reversing the
        // sections would break reads-from, and keeping order runs into
        // rule 3 — the pair stays ordered under OSR too.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(1))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Read(x(1))).unwrap(); // observes t0's w(x1)
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert!(run(b).is_empty(), "observation pins the section order");
    }

    #[test]
    fn reversal_blocked_by_reads_from_inside_sections() {
        // Like the canonical trace, but t1's section *reads* y and t2's
        // writes it: in trace order rule 3 forces the endpoint; reversed,
        // t2's w(y) would become the read's last writer, breaking the
        // observed reads-from (the read saw no writer). The DFS finds no
        // schedule; OSR must not report.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Read(x(1))).unwrap(); // observed last writer: none
        b.push(t(0), Op::Write(x(0))).unwrap(); // e1
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Write(x(1))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap(); // e2
        assert!(run(b).is_empty(), "reversal would re-target the read");
    }

    #[test]
    fn common_lock_still_excludes_under_reversal() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        assert!(run(b).is_empty());
    }

    #[test]
    fn state_accounting_is_nonzero() {
        let mut det = Osr::new();
        run_detector(&mut det, &paper::figure1());
        assert!(det.state_bytes() > 0);
        assert!(det.footprint_bytes() >= det.core.resident_bytes());
        let stats = det.hot_path_stats();
        assert!(stats.fast_hits + stats.slow_hits > 0);
    }
}

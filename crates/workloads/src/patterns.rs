//! Race-pattern building blocks, taken from the paper's figures.
//!
//! Each pattern is emitted as a contiguous block with fresh variables and
//! locks, so its detectability is exactly that of the corresponding figure
//! regardless of the surrounding workload:
//!
//! * [`PatternKind::HbRace`] — an unsynchronized conflicting pair: detected
//!   by every relation.
//! * [`PatternKind::Predictive`] — Figure 1(a): ordered by HB through an
//!   unrelated critical section, detected by WCP/DC/WDC only.
//! * [`PatternKind::DcOnly`] — Figure 2(a): WCP orders it via HB
//!   composition; only DC/WDC detect it.
//! * [`PatternKind::WdcFalse`] — Figure 3: a false race only WDC reports.
//! * [`PatternKind::CondvarHandoff`] — producer-consumer via `notify`/`wait`:
//!   ordered purely through the condvar, race-free under every relation.
//! * [`PatternKind::CondvarRace`] — a write issued *after* the notify races
//!   with the woken consumer's read: detected by every relation.
//! * [`PatternKind::BarrierPhase`] — phased double-buffering through a
//!   barrier: cross-phase accesses ordered by the rendezvous, race-free.
//! * [`PatternKind::BarrierRace`] — same-phase accesses after a rendezvous
//!   are unordered: detected by every relation.
//! * [`PatternKind::ReaderOverlap`] — a write inside a read-mode rwlock
//!   section vs overlapping readers: detected by every relation (and hidden
//!   entirely if read-acquires are lowered to exclusive ones).
//! * [`PatternKind::Reversal`] — a race exposed only by *reversing* two
//!   same-lock critical sections: invisible to every Table 1 relation and
//!   to SyncP, detected exactly once by the OSR extension row.

use smarttrack_clock::ThreadId;
use smarttrack_trace::{BarrierId, CondId, Loc, LockId, Op, TraceBuilder, VarId};

/// The kinds of injectable race patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Detected by HB and everything weaker.
    HbRace,
    /// Detected by WCP/DC/WDC but not HB (Figure 1(a)).
    Predictive,
    /// Detected by DC/WDC but not WCP or HB (Figure 2(a)).
    DcOnly,
    /// Reported only by WDC; not a predictable race (Figure 3).
    WdcFalse,
    /// Producer-consumer handoff via condvar `notify`/`wait`: race-free
    /// (the consumer's read is ordered after the producer's write purely
    /// through the notify edge).
    CondvarHandoff,
    /// A write *after* the notify races with the woken consumer's read:
    /// detected by every relation.
    CondvarRace,
    /// Barrier-phased double-buffering: each thread writes its buffer
    /// before the rendezvous and reads the other's after it — race-free.
    BarrierPhase,
    /// Unordered same-phase accesses after a rendezvous: detected by every
    /// relation.
    BarrierRace,
    /// A write inside a *read-mode* rwlock section races with two
    /// overlapping readers' reads of the same variable: read sections never
    /// exclude each other, so every relation detects it. Lowering the
    /// read-acquires to exclusive acquires masks the race completely —
    /// the regression the captured-`RwLock` fix pins.
    ReaderOverlap,
    /// A race hidden behind a same-lock critical-section *reversal*: the
    /// first thread writes `x` inside its section, the second writes `x`
    /// right after its own section of the same lock, and the sections
    /// conflict on a second variable so neither can be dropped. Only
    /// scheduling the second section *before* the first exposes the pair —
    /// invisible to HB/WCP/DC/WDC *and* SyncP (rule 3 forces the
    /// endpoint), reported exactly once by OSR.
    Reversal,
}

impl PatternKind {
    /// Threads the pattern needs.
    pub fn threads_needed(self) -> usize {
        match self {
            PatternKind::HbRace
            | PatternKind::Predictive
            | PatternKind::CondvarHandoff
            | PatternKind::CondvarRace
            | PatternKind::BarrierPhase
            | PatternKind::BarrierRace
            | PatternKind::Reversal => 2,
            PatternKind::DcOnly | PatternKind::WdcFalse | PatternKind::ReaderOverlap => 3,
        }
    }

    /// Statically distinct races one instance of this pattern contributes
    /// under each relation, as `(HB, WCP, DC, WDC)`. This is the per-site
    /// decomposition of [`RaceMix::expected_static`], exposed so external
    /// batteries (e.g. the live-capture differential tests) can pin a
    /// single pattern's expectation without assembling a whole mix.
    pub fn expected_static_races(self) -> (u32, u32, u32, u32) {
        match self {
            PatternKind::HbRace
            | PatternKind::CondvarRace
            | PatternKind::BarrierRace
            | PatternKind::ReaderOverlap => (1, 1, 1, 1),
            PatternKind::Predictive => (0, 1, 1, 1),
            PatternKind::DcOnly => (0, 0, 1, 1),
            PatternKind::WdcFalse => (0, 0, 0, 1),
            // The reversal pattern's race is invisible to every Table 1
            // relation (and to SyncP): only OSR's reversal-permitting
            // closure reports it — exactly once, pinned by the capture
            // differential and `tests/osr_differential.rs`.
            PatternKind::CondvarHandoff | PatternKind::BarrierPhase | PatternKind::Reversal => {
                (0, 0, 0, 0)
            }
        }
    }
}

/// The statically distinct race mix of one workload, derived from Table 7
/// (`predictive = WCP − HB` races, `dc_only = DC − WCP` races).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RaceMix {
    /// Races every relation detects.
    pub hb: u32,
    /// Races only the predictive relations detect (Figure 1 pattern).
    pub predictive: u32,
    /// Races only DC/WDC detect (Figure 2 pattern).
    pub dc_only: u32,
    /// False WDC-only reports (Figure 3 pattern); 0 for all DaCapo profiles,
    /// matching the paper's finding that WDC reports no false races on them.
    pub wdc_false: u32,
    /// Races between a post-notify write and the woken consumer
    /// ([`PatternKind::CondvarRace`]); detected by every relation.
    pub condvar: u32,
    /// Races between unordered same-phase accesses after a rendezvous
    /// ([`PatternKind::BarrierRace`]); detected by every relation.
    pub barrier: u32,
    /// Race-free condvar handoffs ([`PatternKind::CondvarHandoff`]);
    /// exercise the notify/wait machinery without adding races.
    pub condvar_handoff: u32,
    /// Race-free barrier phases ([`PatternKind::BarrierPhase`]).
    pub barrier_phase: u32,
    /// Races between a write in a read-mode rwlock section and overlapping
    /// readers ([`PatternKind::ReaderOverlap`]); detected by every relation.
    pub reader_overlap: u32,
    /// Dynamic repetitions per static race site.
    pub repeats_per_site: u32,
}

impl RaceMix {
    /// Expected statically distinct races under each relation
    /// `(HB, WCP, DC, WDC)`.
    pub fn expected_static(&self) -> (u32, u32, u32, u32) {
        // Condvar, barrier, and reader-overlap races are unsynchronized
        // under every relation, so they count like plain HB races.
        let hb = self.hb + self.condvar + self.barrier + self.reader_overlap;
        let wcp = hb + self.predictive;
        let dc = wcp + self.dc_only;
        let wdc = dc + self.wdc_false;
        (hb, wcp, dc, wdc)
    }

    /// All pattern instances to inject, as `(kind, site_index)` pairs.
    pub fn sites(&self) -> Vec<(PatternKind, u32)> {
        let mut out = Vec::new();
        for i in 0..self.hb {
            out.push((PatternKind::HbRace, i));
        }
        for i in 0..self.predictive {
            out.push((PatternKind::Predictive, self.hb + i));
        }
        for i in 0..self.dc_only {
            out.push((PatternKind::DcOnly, self.hb + self.predictive + i));
        }
        for i in 0..self.wdc_false {
            out.push((
                PatternKind::WdcFalse,
                self.hb + self.predictive + self.dc_only + i,
            ));
        }
        let mut next = self.hb + self.predictive + self.dc_only + self.wdc_false;
        for (kind, count) in [
            (PatternKind::CondvarRace, self.condvar),
            (PatternKind::BarrierRace, self.barrier),
            (PatternKind::ReaderOverlap, self.reader_overlap),
            (PatternKind::CondvarHandoff, self.condvar_handoff),
            (PatternKind::BarrierPhase, self.barrier_phase),
        ] {
            for i in 0..count {
                out.push((kind, next + i));
            }
            next += count;
        }
        out
    }
}

/// Resource allocator for pattern emission: fresh ids beyond the body's.
pub(crate) struct PatternAlloc {
    pub next_var: u32,
    pub next_lock: u32,
    pub next_condvar: u32,
    pub next_barrier: u32,
    /// Location block per site: locations must be stable across repetitions
    /// of the same site (dynamic races at one static location) and distinct
    /// across sites.
    pub loc_base: u32,
}

const LOCS_PER_SITE: u32 = 32;

/// Emits one repetition of `kind` at static site `site` using `threads`
/// (which must currently hold no locks). Allocates fresh vars/locks from
/// `alloc`; locations are stable per site.
pub(crate) fn emit(
    b: &mut TraceBuilder,
    kind: PatternKind,
    site: u32,
    threads: &[ThreadId],
    alloc: &mut PatternAlloc,
) {
    assert!(threads.len() >= kind.threads_needed(), "not enough threads");
    debug_assert!(
        threads[..kind.threads_needed()]
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len()
            == kind.threads_needed(),
        "pattern threads must be distinct"
    );
    let var = |a: &mut PatternAlloc| {
        let v = VarId::new(a.next_var);
        a.next_var += 1;
        v
    };
    let lock = |a: &mut PatternAlloc| {
        let l = LockId::new(a.next_lock);
        a.next_lock += 1;
        l
    };
    let condvar = |a: &mut PatternAlloc| {
        let c = CondId::new(a.next_condvar);
        a.next_condvar += 1;
        c
    };
    let barrier = |a: &mut PatternAlloc| {
        let bar = BarrierId::new(a.next_barrier);
        a.next_barrier += 1;
        bar
    };
    let loc_base = alloc.loc_base;
    let loc = move |i: u32| Loc::new(loc_base + site * LOCS_PER_SITE + i);
    let (ta, tb) = (threads[0], threads[1]);
    match kind {
        PatternKind::HbRace => {
            let x = var(alloc);
            b.push_at(ta, Op::Write(x), loc(0)).expect("well-formed");
            b.push_at(tb, Op::Write(x), loc(1)).expect("well-formed");
        }
        PatternKind::Predictive => {
            // Figure 1(a): the critical sections share no data.
            let (x, y, z) = (var(alloc), var(alloc), var(alloc));
            let m = lock(alloc);
            b.push_at(ta, Op::Read(x), loc(0)).expect("well-formed");
            b.push_at(ta, Op::Acquire(m), loc(1)).expect("well-formed");
            b.push_at(ta, Op::Write(y), loc(2)).expect("well-formed");
            b.push_at(ta, Op::Release(m), loc(3)).expect("well-formed");
            b.push_at(tb, Op::Acquire(m), loc(4)).expect("well-formed");
            b.push_at(tb, Op::Read(z), loc(5)).expect("well-formed");
            b.push_at(tb, Op::Release(m), loc(6)).expect("well-formed");
            b.push_at(tb, Op::Write(x), loc(7)).expect("well-formed");
        }
        PatternKind::DcOnly => {
            // Figure 2(a).
            let tc = threads[2];
            let (x, y) = (var(alloc), var(alloc));
            let (m, n) = (lock(alloc), lock(alloc));
            b.push_at(ta, Op::Read(x), loc(0)).expect("well-formed");
            b.push_at(ta, Op::Acquire(m), loc(1)).expect("well-formed");
            b.push_at(ta, Op::Write(y), loc(2)).expect("well-formed");
            b.push_at(ta, Op::Release(m), loc(3)).expect("well-formed");
            b.push_at(tb, Op::Acquire(m), loc(4)).expect("well-formed");
            b.push_at(tb, Op::Read(y), loc(5)).expect("well-formed");
            b.push_at(tb, Op::Release(m), loc(6)).expect("well-formed");
            b.push_at(tb, Op::Acquire(n), loc(7)).expect("well-formed");
            b.push_at(tb, Op::Release(n), loc(8)).expect("well-formed");
            b.push_at(tc, Op::Acquire(n), loc(9)).expect("well-formed");
            b.push_at(tc, Op::Release(n), loc(10)).expect("well-formed");
            b.push_at(tc, Op::Write(x), loc(11)).expect("well-formed");
        }
        PatternKind::WdcFalse => {
            // Figure 3, with sync(o) = acq;rd;wr;rel.
            let tc = threads[2];
            let (x, ov, pv) = (var(alloc), var(alloc), var(alloc));
            let (m, o, p) = (lock(alloc), lock(alloc), lock(alloc));
            let sync = |b: &mut TraceBuilder, t: ThreadId, l: LockId, v: VarId, at: Loc| {
                b.push_at(t, Op::Acquire(l), at).expect("well-formed");
                b.push_at(t, Op::Read(v), at).expect("well-formed");
                b.push_at(t, Op::Write(v), at).expect("well-formed");
                b.push_at(t, Op::Release(l), at).expect("well-formed");
            };
            b.push_at(ta, Op::Acquire(m), loc(0)).expect("well-formed");
            sync(b, ta, o, ov, loc(1));
            b.push_at(ta, Op::Read(x), loc(2)).expect("well-formed");
            b.push_at(ta, Op::Release(m), loc(3)).expect("well-formed");
            sync(b, tb, o, ov, loc(4));
            sync(b, tb, p, pv, loc(5));
            b.push_at(tc, Op::Acquire(m), loc(6)).expect("well-formed");
            sync(b, tc, p, pv, loc(7));
            b.push_at(tc, Op::Release(m), loc(8)).expect("well-formed");
            b.push_at(tc, Op::Write(x), loc(9)).expect("well-formed");
        }
        PatternKind::CondvarHandoff => {
            // Producer writes, then notifies; the woken consumer's read is
            // ordered purely through the notify edge (no common lock on the
            // data: the monitor protects nothing else).
            let x = var(alloc);
            let m = lock(alloc);
            let c = condvar(alloc);
            b.push_at(ta, Op::Write(x), loc(0)).expect("well-formed");
            b.push_at(ta, Op::Notify(c), loc(1)).expect("well-formed");
            b.push_at(tb, Op::Acquire(m), loc(2)).expect("well-formed");
            b.push_at(tb, Op::Wait(c, m), loc(3)).expect("well-formed");
            b.push_at(tb, Op::Read(x), loc(4)).expect("well-formed");
            b.push_at(tb, Op::Release(m), loc(5)).expect("well-formed");
        }
        PatternKind::CondvarRace => {
            // The producer writes *after* notifying: the woken consumer's
            // read is unordered with the write under every relation.
            let x = var(alloc);
            let m = lock(alloc);
            let c = condvar(alloc);
            b.push_at(ta, Op::Notify(c), loc(0)).expect("well-formed");
            b.push_at(ta, Op::Write(x), loc(1)).expect("well-formed");
            b.push_at(tb, Op::Acquire(m), loc(2)).expect("well-formed");
            b.push_at(tb, Op::Wait(c, m), loc(3)).expect("well-formed");
            b.push_at(tb, Op::Read(x), loc(4)).expect("well-formed");
            b.push_at(tb, Op::Release(m), loc(5)).expect("well-formed");
        }
        PatternKind::BarrierPhase => {
            // Phase 1: each thread writes its own buffer; rendezvous; phase
            // 2: each reads the *other* thread's buffer. All-to-all ordering
            // makes this race-free.
            let (x0, x1) = (var(alloc), var(alloc));
            let bar = barrier(alloc);
            b.push_at(ta, Op::Write(x0), loc(0)).expect("well-formed");
            b.push_at(tb, Op::Write(x1), loc(1)).expect("well-formed");
            b.push_at(ta, Op::BarrierEnter(bar), loc(2))
                .expect("well-formed");
            b.push_at(tb, Op::BarrierEnter(bar), loc(3))
                .expect("well-formed");
            b.push_at(ta, Op::BarrierExit(bar), loc(4))
                .expect("well-formed");
            b.push_at(tb, Op::BarrierExit(bar), loc(5))
                .expect("well-formed");
            b.push_at(ta, Op::Read(x1), loc(6)).expect("well-formed");
            b.push_at(tb, Op::Read(x0), loc(7)).expect("well-formed");
        }
        PatternKind::BarrierRace => {
            // Both threads leave the rendezvous and touch the same variable
            // in the same phase: the barrier orders nothing between them.
            let x = var(alloc);
            let bar = barrier(alloc);
            b.push_at(ta, Op::BarrierEnter(bar), loc(0))
                .expect("well-formed");
            b.push_at(tb, Op::BarrierEnter(bar), loc(1))
                .expect("well-formed");
            b.push_at(ta, Op::BarrierExit(bar), loc(2))
                .expect("well-formed");
            b.push_at(tb, Op::BarrierExit(bar), loc(3))
                .expect("well-formed");
            b.push_at(ta, Op::Write(x), loc(4)).expect("well-formed");
            b.push_at(tb, Op::Read(x), loc(5)).expect("well-formed");
        }
        PatternKind::ReaderOverlap => {
            // A buggy writer mutates x inside a *read-mode* section; two
            // readers read x in literally overlapping read sections. Read
            // sections never exclude each other, so nothing orders the
            // write before either read: every relation reports. Both reads
            // share one static site, so the pattern contributes exactly one
            // statically-distinct race. Lowering the three `acqr`s to plain
            // `acq` serializes the sections and rule (a)/HB hides the race
            // entirely (pinned by the capture differential battery).
            let tc = threads[2];
            let x = var(alloc);
            let m = lock(alloc);
            b.push_at(ta, Op::AcqRead(m), loc(0)).expect("well-formed");
            b.push_at(ta, Op::Write(x), loc(1)).expect("well-formed");
            b.push_at(ta, Op::Release(m), loc(2)).expect("well-formed");
            b.push_at(tb, Op::AcqRead(m), loc(3)).expect("well-formed");
            b.push_at(tc, Op::AcqRead(m), loc(4)).expect("well-formed");
            b.push_at(tb, Op::Read(x), loc(5)).expect("well-formed");
            b.push_at(tc, Op::Read(x), loc(5)).expect("well-formed");
            b.push_at(tb, Op::Release(m), loc(6)).expect("well-formed");
            b.push_at(tc, Op::Release(m), loc(7)).expect("well-formed");
        }
        PatternKind::Reversal => {
            // The canonical OSR-beats-SyncP shape: both sections write y
            // (so neither is droppable), ta's x-write sits *inside* its
            // section, tb's sits *after* its own. In trace order rule 3
            // forces ta's release before its x-write — SyncP (and every
            // Table 1 relation) stays silent; reversing the sections runs
            // tb's section first and makes the two x-writes adjacent.
            let (x, y) = (var(alloc), var(alloc));
            let m = lock(alloc);
            b.push_at(ta, Op::Acquire(m), loc(0)).expect("well-formed");
            b.push_at(ta, Op::Write(y), loc(1)).expect("well-formed");
            b.push_at(ta, Op::Write(x), loc(2)).expect("well-formed");
            b.push_at(ta, Op::Release(m), loc(3)).expect("well-formed");
            b.push_at(tb, Op::Acquire(m), loc(4)).expect("well-formed");
            b.push_at(tb, Op::Write(y), loc(5)).expect("well-formed");
            b.push_at(tb, Op::Release(m), loc(6)).expect("well-formed");
            b.push_at(tb, Op::Write(x), loc(7)).expect("well-formed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarttrack_trace::Trace;

    fn emit_one(kind: PatternKind) -> Trace {
        let mut b = TraceBuilder::new();
        let mut alloc = PatternAlloc {
            next_var: 0,
            next_lock: 0,
            next_condvar: 0,
            next_barrier: 0,
            loc_base: 0,
        };
        let threads: Vec<ThreadId> = (0..3).map(ThreadId::new).collect();
        emit(&mut b, kind, 0, &threads, &mut alloc);
        b.finish()
    }

    #[test]
    fn patterns_are_well_formed() {
        for kind in [
            PatternKind::HbRace,
            PatternKind::Predictive,
            PatternKind::DcOnly,
            PatternKind::WdcFalse,
            PatternKind::CondvarHandoff,
            PatternKind::CondvarRace,
            PatternKind::BarrierPhase,
            PatternKind::BarrierRace,
            PatternKind::ReaderOverlap,
            PatternKind::Reversal,
        ] {
            let tr = emit_one(kind);
            Trace::from_events(tr.events().iter().copied())
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn race_mix_site_counts() {
        let mix = RaceMix {
            hb: 2,
            predictive: 3,
            dc_only: 1,
            wdc_false: 0,
            condvar: 2,
            barrier: 1,
            condvar_handoff: 4,
            barrier_phase: 4,
            reader_overlap: 2,
            repeats_per_site: 5,
        };
        assert_eq!(mix.sites().len(), 19);
        // Condvar/barrier/reader-overlap races count under every relation,
        // like HB races; the handoff/phase sites add no races.
        assert_eq!(mix.expected_static(), (7, 10, 11, 11));
        // Site indices are globally unique.
        let mut idx: Vec<u32> = mix.sites().iter().map(|&(_, i)| i).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 19);
    }

    #[test]
    fn per_pattern_expectations_decompose_the_mix() {
        // Summing every emitted site's per-pattern expectation must equal
        // the mix-level expectation, for any mix shape.
        for mix in [
            RaceMix {
                hb: 2,
                predictive: 3,
                dc_only: 1,
                wdc_false: 2,
                condvar: 2,
                barrier: 1,
                condvar_handoff: 4,
                barrier_phase: 4,
                reader_overlap: 1,
                repeats_per_site: 5,
            },
            RaceMix {
                condvar: 1,
                barrier_phase: 2,
                repeats_per_site: 1,
                ..RaceMix::default()
            },
        ] {
            let mut sum = (0, 0, 0, 0);
            for (kind, _) in mix.sites() {
                let (hb, wcp, dc, wdc) = kind.expected_static_races();
                sum = (sum.0 + hb, sum.1 + wcp, sum.2 + dc, sum.3 + wdc);
            }
            assert_eq!(sum, mix.expected_static(), "{mix:?}");
        }
    }
}

//! The optimization columns of Table 1, each written once.
//!
//! A Table 1 cell is one relation row — [`HbRow`](crate::hb::HbRow),
//! [`WcpRow`](crate::wcp::WcpRow) or [`DcRow`](crate::dc::DcRow) — over
//! one column. The row owns its clocks and its lock and ordering rules. The
//! column owns what the optimization level changes: the per-variable
//! metadata, the access path with its rule (a) joins, the report and the
//! counters.
//!
//! | column | per-variable metadata | conflicting critical sections |
//! |--------|-----------------------|-------------------------------|
//! | [`UnoptColumn`] | [`UnoptVar`] vector clocks | [`CsTables`] (Algorithm 1) |
//! | [`Ft2Column`] | [`Ft2Var`] epochs | none: HB only |
//! | [`FtoColumn`] | [`FtoVar`] epochs and ownership | [`CsTables`], `Rm` marking reads and writes (Algorithm 2) |
//! | [`CcsState`](crate::ccs::CcsState) | [`StVar`](crate::StVar) | per-variable CS lists and extras (Algorithm 3) |
//!
//! The first three differ only in their per-variable metadata, so they are
//! one [`VarColumn`] over a [`VarRule`]; SmartTrack also replaces the
//! section tables. Rows and columns are type parameters, so every cell
//! compiles to its own code: the HB instantiations skip rule (a) at compile
//! time, and only the Unopt DC/WDC cells pass a [`GraphRecorder`].

use std::fmt;

use smarttrack_clock::{ClockValue, Epoch, ThreadId, VectorClock};
use smarttrack_trace::{EventId, LockId};

use crate::access::{Ft2Var, FtoVar, UnoptVar};
use crate::common::{slot, CsTables};
use crate::counters::{FtoCaseCounters, PathCounters};
use crate::graph::GraphRecorder;
use crate::lower::{Access, LockMode};
use crate::queues::AcqEntry;
use crate::report::{AccessKind, Report};
use crate::{OptLevel, StreamHint};

/// An optimization column: the per-variable side of a Table 1 cell.
pub trait Column: Clone + fmt::Debug + Default {
    /// The Table 1 column.
    const LEVEL: OptLevel;

    /// What the column counts.
    type Counts: Counts;

    /// Checks and records the access `a` by a thread at local time `local`.
    ///
    /// `clock` yields the row's checking clock; it is fetched only once the
    /// same-epoch checks miss. `check(e, clock)` is the row's test of
    /// whether the access at epoch `e` is ordered before this one. With
    /// `RULE_A`, the release times of the held locks' prior conflicting
    /// critical sections are first joined into the clock (rule (a)) and
    /// reported to `recorder`. Only the HB row passes `false`; it never runs
    /// over SmartTrack (an N/A cell), and the Epochs column is HB only.
    fn access<'c, const RULE_A: bool>(
        &mut self,
        a: Access,
        local: ClockValue,
        clock: impl FnOnce() -> &'c mut VectorClock,
        check: impl Fn(Epoch, &VectorClock) -> bool + Copy,
        recorder: Option<&mut GraphRecorder>,
    );

    /// The races detected so far.
    fn report(&self) -> &Report;

    /// The access counts so far.
    fn counts(&self) -> &Self::Counts;

    /// Exact heap bytes, report included.
    fn footprint_bytes(&self) -> usize;

    /// Cheap running estimate (capacities only), report included.
    fn resident_bytes(&self) -> usize;

    /// Pre-sizes the per-variable table.
    fn reserve(&mut self, hint: &StreamHint);
}

/// A column that tracks critical sections: every column but Epochs. The
/// predictive rows (WCP, DC, WDC) call these at lock operations; the HB row
/// never does.
pub trait Sections: Column {
    /// A section a release ended, until its release time is known.
    type Ended;

    /// The DC rule (b) queue entry for an acquire by `t` at `clock`: the
    /// whole clock, or under SmartTrack only `t`'s own entry (Algorithm 3's
    /// epoch queues, sound because predictive rows tick at acquires).
    fn acq_entry(t: ThreadId, clock: &VectorClock) -> AcqEntry;

    /// `acq(m)` by `t` in `mode`: opens a section.
    fn acquire(&mut self, t: ThreadId, m: LockId, mode: LockMode);

    /// `rel(m)` by `t`: ends the innermost section on `m` and returns its
    /// hold mode, which gates rule (b) and the lock-clock publication.
    fn release(&mut self, t: ThreadId, m: LockId) -> (LockMode, Self::Ended);

    /// Records `clock` — the releasing thread's time after rule (b) — as
    /// the ended section's release time, for later rule (a) joins.
    fn close(
        &mut self,
        t: ThreadId,
        m: LockId,
        ended: Self::Ended,
        clock: &VectorClock,
        id: EventId,
    );

    /// Pre-sizes the section tables.
    fn reserve_sections(&mut self, hint: &StreamHint);
}

/// A column's access counts: FTO cases, or only fast and slow.
pub trait Counts: Clone + fmt::Debug + Default {
    /// The FTO case frequencies, if counted.
    fn case_counters(&self) -> Option<&FtoCaseCounters>;

    /// Accesses handled by a same-epoch check, and the rest.
    fn hits(&self) -> PathCounters;
}

impl Counts for PathCounters {
    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        None
    }

    fn hits(&self) -> PathCounters {
        *self
    }
}

impl Counts for FtoCaseCounters {
    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        Some(self)
    }

    fn hits(&self) -> PathCounters {
        PathCounters {
            fast: self.fast_hits(),
            slow: self.slow_hits(),
        }
    }
}

/// The per-variable metadata of a [`VarColumn`]: one family's access rule,
/// split at its same-epoch checks, counting what each access took.
pub trait VarRule: Clone + fmt::Debug + Default {
    /// The Table 1 column this metadata makes.
    const LEVEL: OptLevel;

    /// What the column counts.
    type Counts: Counts;

    /// Whether a same-epoch check handles the access `a` at local time
    /// `local`.
    fn fast_path(&self, a: &Access, local: ClockValue, counts: &mut Self::Counts) -> bool;

    /// Any other access: records it and returns the racing prior threads.
    /// `ordered` is the row's test.
    fn slow_path(
        &mut self,
        a: &Access,
        local: ClockValue,
        ordered: impl Fn(Epoch) -> bool,
        counts: &mut Self::Counts,
    ) -> Vec<ThreadId>;

    /// Heap bytes beyond the struct itself.
    fn heap_bytes(&self) -> usize;
}

/// The Unopt column (Algorithm 1): vector-clock metadata and plain
/// fast/slow counters — its only fast path is the §5.1 same-epoch-like
/// check.
pub type UnoptColumn = VarColumn<UnoptVar>;
/// The Epochs column (FastTrack2, HB only).
pub type Ft2Column = VarColumn<Ft2Var>;
/// The FTO column (Algorithm 2).
pub type FtoColumn = VarColumn<FtoVar>;

/// The columns that find conflicting critical sections in per-(lock,
/// variable) [`CsTables`] (Algorithms 1 and 2), over per-variable metadata
/// `V`. In the HB row the tables stay empty.
#[derive(Clone, Debug, Default)]
pub struct VarColumn<V: VarRule> {
    vars: Vec<V>,
    cs: CsTables,
    report: Report,
    counts: V::Counts,
}

impl<V: VarRule> VarColumn<V> {
    /// `track_sources` keeps each section time's release events, so graph
    /// mode can record rule (a) edges.
    pub(crate) fn new(track_sources: bool) -> Self {
        VarColumn {
            cs: CsTables::new(track_sources),
            ..VarColumn::default()
        }
    }
}

impl<V: VarRule> Column for VarColumn<V> {
    const LEVEL: OptLevel = V::LEVEL;
    type Counts = V::Counts;

    /// Rule (a) as in Algorithm 1 lines 14–16 / 21–23 and Algorithm 2 lines
    /// 16–19 / 29–31: the held locks' prior conflicting section times join
    /// a copy of the row's clock, the access is checked against the copy,
    /// and the copy is written back.
    fn access<'c, const RULE_A: bool>(
        &mut self,
        a: Access,
        local: ClockValue,
        clock: impl FnOnce() -> &'c mut VectorClock,
        check: impl Fn(Epoch, &VectorClock) -> bool + Copy,
        mut recorder: Option<&mut GraphRecorder>,
    ) {
        let var = slot(&mut self.vars, a.x.index());
        if var.fast_path(&a, local, &mut self.counts) {
            return;
        }
        let clock = clock();
        let racing = if RULE_A {
            let mut now = clock.clone();
            let write = a.kind == AccessKind::Write;
            // Algorithm 2 marks reads *and* writes in `Rm`.
            let fto = V::LEVEL == OptLevel::Fto;
            self.cs.rule_a(a.t, a.x, write, fto, |lt| {
                now.join(&lt.clock);
                if let Some(r) = recorder.as_deref_mut() {
                    r.rule_a(lt, a.id);
                }
            });
            let racing = var.slow_path(&a, local, |e| check(e, &now), &mut self.counts);
            clock.assign(&now);
            racing
        } else {
            var.slow_path(&a, local, |e| check(e, clock), &mut self.counts)
        };
        self.report.record(a.id, a.loc, a.t, a.x, a.kind, racing);
    }

    fn report(&self) -> &Report {
        &self.report
    }

    fn counts(&self) -> &V::Counts {
        &self.counts
    }

    fn footprint_bytes(&self) -> usize {
        self.cs.footprint_bytes()
            + self.vars.capacity() * std::mem::size_of::<V>()
            + self.vars.iter().map(V::heap_bytes).sum::<usize>()
            + self.report.footprint_bytes()
    }

    fn resident_bytes(&self) -> usize {
        self.cs.resident_bytes()
            + self.vars.capacity() * std::mem::size_of::<V>()
            + self.report.footprint_bytes()
    }

    fn reserve(&mut self, hint: &StreamHint) {
        self.vars
            .reserve(StreamHint::presize(hint.vars, self.vars.len()));
    }
}

impl<V: VarRule> Sections for VarColumn<V> {
    type Ended = LockMode;

    fn acq_entry(_t: ThreadId, clock: &VectorClock) -> AcqEntry {
        AcqEntry::Vc(clock.clone())
    }

    fn acquire(&mut self, t: ThreadId, m: LockId, mode: LockMode) {
        self.cs.acquire(t, m, mode);
    }

    fn release(&mut self, t: ThreadId, m: LockId) -> (LockMode, LockMode) {
        let mode = self.cs.release(t, m);
        (mode, mode)
    }

    fn close(&mut self, t: ThreadId, m: LockId, mode: LockMode, clock: &VectorClock, id: EventId) {
        self.cs.fold(t, m, mode, clock, id);
    }

    fn reserve_sections(&mut self, hint: &StreamHint) {
        self.cs.reserve_locks(hint.locks);
    }
}

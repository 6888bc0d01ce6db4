//! WCP analyses at all three optimization levels.
//!
//! WCP (weak-causally-precedes, Kini et al. 2017) is the sound predictive
//! relation: it differs from DC by composing with HB instead of PO (§2.4).
//! The analyses therefore track *two* clocks per thread — an HB clock `Ht`
//! and a WCP clock `Pt` — and exploit HB composition in two ways:
//!
//! * release→acquire lock clocks propagate both HB and WCP knowledge
//!   (right-composition with HB);
//! * rule (a) and rule (b) join the *HB* clocks of the earlier releases into
//!   `Pt` (left-composition with HB);
//! * rule (b) needs only per-lock per-acquiring-thread queues instead of
//!   per-pair queues (footnote 6).
//!
//! The race check is `metadata ⊑ Pt` with the current thread's own component
//! compared against `Ht` (conflicting accesses are cross-thread, but own
//! entries must pass trivially — PO is part of neither clock's cross
//! entries).
//!
//! Every Table 1 WCP cell is one [`WcpRow`] over an optimization column:
//! [`UnoptWcp`], [`FtoWcp`] and [`SmartTrackWcp`].

mod fto;
mod st;
mod unopt;

pub use fto::FtoWcp;
pub use st::SmartTrackWcp;
pub use unopt::UnoptWcp;

use smarttrack_clock::{ClockValue, Epoch, ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, LockId};

use crate::ccs::{CcsFidelity, CcsState};
use crate::column::{Counts, Sections};
use crate::common::{slot, vc_table_bytes, vc_table_resident_bytes};
use crate::edges::{HardEdges, LockClocks, ThreadClocks};
use crate::lower::{lower, Access, ClockRow, LockMode};
use crate::queues::WcpRuleBQueues;
use crate::{Detector, FtoCaseCounters, HotPathStats, OptLevel, Relation, Report, StreamHint};

/// The WCP family's thread clocks: an HB clock `Ht` (the clock hard edges
/// publish) and a WCP clock `Pt` per thread. Predictive analyses increment
/// at acquires too (§5.1), so the family ticks at every sync op.
#[derive(Clone, Debug, Default)]
pub(crate) struct WcpThreads {
    hb: Vec<VectorClock>,
    wcp: Vec<VectorClock>,
}

impl WcpThreads {
    /// The WCP clock `Pt` (own entry is *not* mirrored from `Ht`; WCP does
    /// not include PO).
    fn wcp(&mut self, t: ThreadId) -> &mut VectorClock {
        slot(&mut self.wcp, t.index())
    }
}

impl ThreadClocks for WcpThreads {
    const TICK_EVERY_SYNC: bool = true;

    fn clock(&mut self, t: ThreadId) -> &mut VectorClock {
        let c = slot(&mut self.hb, t.index());
        if c.get(t) == 0 {
            c.set(t, 1);
        }
        c
    }

    fn clock_ref(&self, t: ThreadId) -> &VectorClock {
        &self.hb[t.index()]
    }

    /// Hard edges (fork, join, volatiles, condvars, barriers) absorb the
    /// earlier thread's full HB clock into both `Ht` and `Pt`: everything
    /// HB-before them is ordered in every relation (§5.1).
    fn absorb(&mut self, t: ThreadId, c: &VectorClock) {
        self.clock(t).join(c);
        self.wcp(t).join(c);
    }

    fn footprint_bytes(&self) -> usize {
        vc_table_bytes(&self.hb) + vc_table_bytes(&self.wcp)
    }

    fn resident_bytes(&self) -> usize {
        vc_table_resident_bytes(&self.hb) + vc_table_resident_bytes(&self.wcp)
    }

    fn reserve(&mut self, threads: Option<usize>) {
        self.hb.reserve(StreamHint::presize(threads, self.hb.len()));
        self.wcp
            .reserve(StreamHint::presize(threads, self.wcp.len()));
    }
}

/// Dual HB/WCP clock state shared by the WCP analyses: the hard-edge table
/// over [`WcpThreads`] plus HB (`Hm`/`HRm`) and WCP (`Pm`/`PRm`) lock
/// clocks.
#[derive(Clone, Debug, Default)]
pub(crate) struct WcpClocks {
    pub(crate) edges: HardEdges<WcpThreads>,
    hb_locks: LockClocks,
    wcp_locks: LockClocks,
}

impl WcpClocks {
    /// The HB clock `Ht`, initializing `Ht(t) = 1` on first use.
    pub fn hb(&mut self, t: ThreadId) -> &mut VectorClock {
        self.edges.clock(t)
    }

    /// The WCP clock `Pt`.
    pub fn wcp(&mut self, t: ThreadId) -> &mut VectorClock {
        self.edges.threads.wcp(t)
    }

    /// `acq(m)`: right HB composition through the lock — `Ht ⊔= Hm` and
    /// `Pt ⊔= Pm` (plus the reader aggregates for an exclusive hold, see
    /// [`LockClocks::acquire`]) — then increment.
    pub fn acquire(&mut self, t: ThreadId, m: LockId, mode: LockMode) {
        self.hb_locks.acquire(m, self.edges.clock(t), mode);
        self.wcp_locks.acquire(m, self.edges.threads.wcp(t), mode);
        self.edges.tick(t);
    }

    /// Publishes `Ht`/`Pt` into `m`'s clocks at `rel(m)` (after rule (b)
    /// consumption; see [`LockClocks::release`]) and increments.
    pub fn release_publish(&mut self, t: ThreadId, m: LockId, mode: LockMode) {
        self.hb_locks.release(m, self.edges.clock(t), mode);
        self.wcp_locks.release(m, self.edges.threads.wcp(t), mode);
        self.edges.tick(t);
    }

    /// Approximate heap bytes (exact: includes per-clock heap spill).
    pub fn footprint_bytes(&self) -> usize {
        self.edges.footprint_bytes()
            + self.hb_locks.footprint_bytes()
            + self.wcp_locks.footprint_bytes()
    }

    /// Cheap resident bytes (capacities only, O(1)).
    pub fn resident_bytes(&self) -> usize {
        self.edges.resident_bytes()
            + self.hb_locks.resident_bytes()
            + self.wcp_locks.resident_bytes()
    }

    /// Pre-sizes the clock tables from a [`StreamHint`] (clamped, see
    /// [`StreamHint::presize`]).
    pub fn reserve(&mut self, hint: &StreamHint) {
        self.edges.reserve(hint);
        self.hb_locks.reserve(hint.locks);
        self.wcp_locks.reserve(hint.locks);
    }
}

/// The WCP row of Table 1 over column `C`: HB and WCP lock clocks, and
/// WCP's rule (b) queues (per lock and acquiring thread, footnote 6). Rule
/// (a) and rule (b) join the *HB* release times of earlier sections into
/// `Pt` (left composition with HB), so sections close at `Ht`.
#[derive(Clone, Debug, Default)]
pub struct WcpRow<C> {
    clocks: WcpClocks,
    col: C,
    queues: WcpRuleBQueues,
}

impl<C: Sections> WcpRow<C> {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        WcpRow::default()
    }
}

impl WcpRow<CcsState> {
    /// Creates the analysis with an explicit CCS fidelity mode
    /// ([`new`](Self::new) is [`CcsFidelity::Strict`]).
    pub fn with_fidelity(fidelity: CcsFidelity) -> Self {
        WcpRow {
            col: CcsState::new(fidelity),
            ..WcpRow::default()
        }
    }
}

impl<C: Sections> ClockRow for WcpRow<C> {
    type Clocks = WcpThreads;

    fn edges(&mut self) -> &mut HardEdges<WcpThreads> {
        &mut self.clocks.edges
    }

    /// Accesses check against the WCP clock `Pt`, with the own-thread
    /// entry compared against `Ht` (see `wcp_epoch_ordered`).
    fn access(&mut self, a: Access) {
        // `Ht(t)`: the local clock of epochs and same-epoch checks.
        let h_own = self.clocks.edges.local(a.t);
        let check = move |e, p: &VectorClock| wcp_epoch_ordered(e, a.t, h_own, p);
        let clocks = &mut self.clocks;
        self.col
            .access::<true>(a, h_own, || clocks.wcp(a.t), check, None);
    }

    fn acquire(&mut self, _id: EventId, t: ThreadId, m: LockId, mode: LockMode) {
        // Enqueue the acquire's local HB time before the clock increment
        // performed inside `acquire`.
        let local = self.clocks.hb(t).get(t);
        self.queues
            .on_acquire(m, t, local, mode == LockMode::Exclusive);
        self.clocks.acquire(t, m, mode);
        self.col.acquire(t, m, mode);
    }

    fn release(&mut self, id: EventId, t: ThreadId, m: LockId) {
        // The ended section's mode gates both the rule (b) consumption and
        // the clock publication below.
        let (mode, ended) = self.col.release(t, m);
        let mut p = self.clocks.wcp(t).clone();
        self.queues
            .consume(m, t, &mut p, mode == LockMode::Exclusive, |_| {});
        self.clocks.wcp(t).assign(&p);
        let hb = self.clocks.hb(t).clone();
        self.queues.on_release_publish(m, t, &hb, id);
        self.col.close(t, m, ended, &hb, id);
        self.clocks.release_publish(t, m, mode);
    }
}

impl<C: Sections> Detector for WcpRow<C> {
    fn name(&self) -> &'static str {
        match C::LEVEL {
            OptLevel::Unopt => "Unopt-WCP",
            OptLevel::Fto => "FTO-WCP",
            OptLevel::SmartTrack => "SmartTrack-WCP",
            OptLevel::Epochs => unreachable!("Epochs-WCP is an N/A cell"),
        }
    }

    fn relation(&self) -> Relation {
        Relation::Wcp
    }

    fn opt_level(&self) -> OptLevel {
        C::LEVEL
    }

    fn begin_stream(&mut self, hint: StreamHint) {
        self.clocks.reserve(&hint);
        self.col.reserve_sections(&hint);
        self.col.reserve(&hint);
    }

    fn process(&mut self, id: EventId, event: &Event) {
        lower(self, id, event.tid, event.op, event.loc);
    }

    fn report(&self) -> &Report {
        self.col.report()
    }

    fn footprint_bytes(&self) -> usize {
        self.clocks.footprint_bytes() + self.queues.footprint_bytes() + self.col.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        self.clocks.resident_bytes() + self.queues.resident_bytes() + self.col.resident_bytes()
    }

    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        self.col.counts().case_counters()
    }

    fn hot_path_stats(&self) -> HotPathStats {
        HotPathStats::of(self.col.counts().hits(), self.state_bytes())
    }
}

/// The WCP ordering check for an epoch `c@u` against thread `t`'s clocks:
/// own-thread entries are PO-ordered (compared against `Ht(t)`), cross-thread
/// entries against `Pt(u)`.
#[inline]
pub(crate) fn wcp_epoch_ordered(e: Epoch, t: ThreadId, h_own: ClockValue, p: &VectorClock) -> bool {
    if e.is_none() {
        return true;
    }
    if e.tid() == t {
        e.clock() <= h_own
    } else {
        e.clock() <= p.get(e.tid())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn wcp_clock_does_not_mirror_po() {
        let mut c = WcpClocks::default();
        c.hb(t(0)).set(t(0), 5);
        assert_eq!(c.wcp(t(0)).get(t(0)), 0, "Pt must not include own PO");
    }

    #[test]
    fn lock_transfer_carries_wcp_knowledge() {
        let mut c = WcpClocks::default();
        let m = LockId::new(0);
        c.wcp(t(0)).set(t(2), 9);
        c.release_publish(t(0), m, LockMode::Exclusive);
        c.acquire(t(1), m, LockMode::Exclusive);
        assert_eq!(
            c.wcp(t(1)).get(t(2)),
            9,
            "WCP-before-release composes through HB to the next acquire"
        );
    }

    #[test]
    fn epoch_check_uses_hb_for_own_thread() {
        let p = VectorClock::new();
        assert!(wcp_epoch_ordered(Epoch::new(t(0), 4), t(0), 5, &p));
        assert!(!wcp_epoch_ordered(Epoch::new(t(1), 1), t(0), 5, &p));
        assert!(wcp_epoch_ordered(Epoch::NONE, t(0), 0, &p));
    }

    #[test]
    fn racing_threads_excludes_ordered_entries() {
        let meta: VectorClock = [(t(0), 3), (t(1), 2), (t(2), 8)].into_iter().collect();
        let p: VectorClock = [(t(1), 2)].into_iter().collect();
        // current thread t0 with h_own = 3: own entry ordered; t1 ordered via
        // P; t2 races.
        let ordered = |a: Epoch| wcp_epoch_ordered(a, t(0), 3, &p);
        assert_eq!(crate::access::racing_threads(&meta, ordered), vec![t(2)]);
    }
}

//! Synchronization-clock state shared by all HB analyses.

use smarttrack_clock::ThreadId;
use smarttrack_trace::LockId;

use crate::common::slot;
use crate::edges::{HardEdges, LockClocks, ThreadTable};
use crate::lower::LockMode;

/// The HB family's thread clocks: one clock per thread, ticked only after
/// publishing (release, fork, volatile write, notify, barrier enter),
/// following FastTrack.
pub(crate) type HbClocks = ThreadTable<false>;

/// Per-thread clocks and the hard-edge table, plus the HB lock rules: lock
/// clocks order every release before later acquires (§5.1).
#[derive(Clone, Debug, Default)]
pub(crate) struct HbSyncState {
    pub(crate) edges: HardEdges<HbClocks>,
    locks: LockClocks,
    /// Per thread: rwlocks currently held in *read* mode (write-mode holds
    /// are indistinguishable from plain mutex holds and are not tracked).
    rw_held: Vec<Vec<LockId>>,
}

impl HbSyncState {
    /// `acq(m)`: `Ct ← Ct ⊔ Lm`, and `⊔ LRm` for an exclusive hold (see
    /// [`LockClocks::acquire`]).
    pub fn acquire(&mut self, t: ThreadId, m: LockId, mode: LockMode) {
        self.locks.acquire(m, self.edges.clock(t), mode);
        if mode == LockMode::Read {
            slot(&mut self.rw_held, t.index()).push(m);
        }
    }

    /// `rel(m)`: publishes `Ct` into `m`'s clock for the mode `t` holds it
    /// in (see [`LockClocks::release`]), then increments `Ct(t)`.
    pub fn release(&mut self, t: ThreadId, m: LockId) {
        let read_mode = self
            .rw_held
            .get_mut(t.index())
            .and_then(|h| h.iter().rposition(|&l| l == m).map(|pos| h.remove(pos)))
            .is_some();
        let mode = if read_mode {
            LockMode::Read
        } else {
            LockMode::Exclusive
        };
        self.locks.release(m, self.edges.clock(t), mode);
        self.edges.tick(t);
    }

    /// Approximate heap bytes (exact: includes per-clock heap spill).
    pub fn footprint_bytes(&self) -> usize {
        self.edges.footprint_bytes()
            + self.locks.footprint_bytes()
            + self
                .rw_held
                .iter()
                .map(|h| h.capacity() * std::mem::size_of::<LockId>())
                .sum::<usize>()
    }

    /// Cheap resident bytes (capacities only, O(1)).
    pub fn resident_bytes(&self) -> usize {
        self.edges.resident_bytes()
            + self.locks.resident_bytes()
            + self.rw_held.capacity() * std::mem::size_of::<Vec<LockId>>()
    }

    /// Pre-sizes the clock tables from a [`crate::StreamHint`] (clamped,
    /// see [`crate::StreamHint::presize`]).
    pub fn reserve(&mut self, hint: &crate::StreamHint) {
        self.edges.reserve(hint);
        self.locks.reserve(hint.locks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::SyncObj;
    use smarttrack_trace::VarId;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn clocks_start_at_one() {
        let mut s = HbSyncState::default();
        assert_eq!(s.edges.clock(t(2)).get(t(2)), 1);
    }

    #[test]
    fn release_acquire_transfers_knowledge() {
        let mut s = HbSyncState::default();
        let m = LockId::new(0);
        s.edges.clock(t(0)).set(t(0), 5);
        s.release(t(0), m);
        assert_eq!(s.edges.clock(t(0)).get(t(0)), 6, "incremented at release");
        s.acquire(t(1), m, LockMode::Exclusive);
        assert_eq!(s.edges.clock(t(1)).get(t(0)), 5, "absorbed releaser's time");
    }

    #[test]
    fn fork_join_round_trip() {
        let mut s = HbSyncState::default();
        s.edges.clock(t(0)).set(t(0), 3);
        s.edges.fork(t(0), t(1));
        assert_eq!(s.edges.clock(t(1)).get(t(0)), 3);
        s.edges.clock(t(1)).set(t(1), 9);
        s.edges.join(t(0), t(1));
        assert_eq!(s.edges.clock(t(0)).get(t(1)), 9);
    }

    #[test]
    fn readers_order_with_writers_but_not_each_other() {
        let mut s = HbSyncState::default();
        let m = LockId::new(0);
        // Writer publishes 5, then two concurrent readers.
        s.edges.clock(t(0)).set(t(0), 5);
        s.acquire(t(0), m, LockMode::Exclusive);
        s.release(t(0), m);
        s.edges.clock(t(1)).set(t(1), 7);
        s.acquire(t(1), m, LockMode::Read);
        assert_eq!(
            s.edges.clock(t(1)).get(t(0)),
            5,
            "reader after write release"
        );
        s.edges.clock(t(2)).set(t(2), 9);
        s.acquire(t(2), m, LockMode::Read);
        s.release(t(1), m);
        assert_eq!(
            s.edges.clock(t(2)).get(t(1)),
            0,
            "concurrent readers stay unordered"
        );
        s.release(t(2), m);
        // The next writer is ordered after both read sections.
        s.acquire(t(3), m, LockMode::Exclusive);
        assert_eq!(s.edges.clock(t(3)).get(t(1)), 7);
        assert_eq!(s.edges.clock(t(3)).get(t(2)), 9);
        assert_eq!(s.edges.clock(t(3)).get(t(0)), 5);
        // And a later reader sees only the write release, not the readers.
        s.acquire(t(4), m, LockMode::Read);
        assert_eq!(s.edges.clock(t(4)).get(t(1)), 0);
    }

    #[test]
    fn read_release_joins_instead_of_assigning() {
        let mut s = HbSyncState::default();
        let m = LockId::new(0);
        s.edges.clock(t(0)).set(t(0), 3);
        s.acquire(t(0), m, LockMode::Read);
        s.release(t(0), m);
        s.edges.clock(t(1)).set(t(1), 4);
        s.acquire(t(1), m, LockMode::Read);
        s.release(t(1), m);
        // Both read releases survive in the aggregate.
        s.acquire(t(2), m, LockMode::Exclusive);
        assert_eq!(s.edges.clock(t(2)).get(t(0)), 3);
        assert_eq!(s.edges.clock(t(2)).get(t(1)), 4);
    }

    #[test]
    fn volatile_write_read_orders() {
        let mut s = HbSyncState::default();
        let v = SyncObj::Volatile(VarId::new(0));
        s.edges.clock(t(0)).set(t(0), 4);
        s.edges.publish(t(0), v);
        s.edges.absorb(t(1), v);
        assert_eq!(s.edges.clock(t(1)).get(t(0)), 4);
    }
}

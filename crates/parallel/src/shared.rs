//! Shared-state building blocks used by both parallel analyses: atomic FTO
//! case counters, the race sink, and the fork/join clock handoff slots.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use smarttrack_clock::{ThreadId, VectorClock};
use smarttrack_detect::{FtoCase, FtoCaseCounters, RaceReport, Report};

use crate::world::table;

/// FTO case counters that many threads update concurrently (relaxed atomics:
/// counters are statistics, not synchronization).
#[derive(Debug)]
pub(crate) struct AtomicCaseCounters {
    counts: [AtomicU64; 11],
}

impl AtomicCaseCounters {
    pub fn new() -> Self {
        AtomicCaseCounters {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    pub fn hit(&self, case: FtoCase) {
        self.counts[case.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> FtoCaseCounters {
        let mut out = FtoCaseCounters::new();
        for (i, case) in FtoCase::ALL.into_iter().enumerate() {
            out.add(case, self.counts[i].load(Ordering::Relaxed));
        }
        out
    }
}

/// Collects races reported from many threads.
///
/// A mutex (not a lock-free list) is deliberate: races are rare relative to
/// accesses, and the paper's implementations likewise serialize race
/// reporting. The count mirror lets [`len`](ReportSink::len) answer "any
/// new races?" without touching the mutex at all — it sits on the
/// per-event path of the sequential [`crate::OnlineLane`] bridge.
#[derive(Debug, Default)]
pub(crate) struct ReportSink {
    races: Mutex<Report>,
    count: std::sync::atomic::AtomicUsize,
}

impl ReportSink {
    pub fn new() -> Self {
        ReportSink::default()
    }

    pub fn push(&self, race: RaceReport) {
        let mut races = self.races.lock();
        races.push(race);
        // Published under the lock so `len() <= snapshot().dynamic_count()`
        // always holds for a racing reader.
        self.count.store(races.dynamic_count(), Ordering::Release);
    }

    pub fn snapshot(&self) -> Report {
        self.races.lock().clone()
    }

    /// Dynamic race count without locking or cloning the report.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }
}

/// Concurrent barrier rendezvous state.
///
/// The sequential detectors' `BarrierRendezvous` assumes validated
/// total-trace ordering: no enter arrives while a round is draining. Under
/// true concurrency that assumption fails — a fast thread can trip the
/// rendezvous, run its exit hook, loop around, and *enter the next round*
/// before a slow peer's exit hook for the previous round has run (exit
/// hooks carry no cross-thread ordering). This state therefore keys every
/// membership on an explicit **round number**: an enter joins the current
/// gather and returns the round it joined; the round's first exit seals
/// it into a per-round table (with its party count); a late exit looks its
/// own round up by number, so concurrent rounds never steal each other's
/// clocks. Sealed rounds are dropped once every party exited, keeping the
/// table bounded by the number of simultaneously draining rounds.
///
/// **Hook-placement contract** (the symmetric hazard): the *enter* hook
/// must run when the thread arrives at the real barrier, before blocking
/// on it — then every enter hook of a round happens-before the rendezvous
/// release, which happens-before every exit hook, so an enter can never
/// lag into a peer's drained round. This mirrors the driver's
/// release-hook-inside-the-critical-section rule. Today only the
/// deterministic single-threaded feed reaches these handlers (the runtime
/// `ProgramOp` has no condvar/barrier operations yet); the differential in
/// `tests/parallel_integration.rs` pins them against the sequential
/// detectors.
#[derive(Debug, Default)]
pub(crate) struct OnlineBarrier {
    /// The round currently gathering.
    round: u64,
    gather: VectorClock,
    entered: u32,
    /// Sealed rounds still draining: round → (rendezvous clock, exits left).
    sealed: Vec<(u64, VectorClock, u32)>,
}

impl OnlineBarrier {
    /// Records an enter by a thread whose clock is `now`; returns the round
    /// number the thread joined (pass it back to [`exit`](Self::exit)).
    pub fn enter(&mut self, now: &VectorClock) -> u64 {
        self.gather.join(now);
        self.entered += 1;
        self.round
    }

    /// Records an exit from `round` and returns the sealed rendezvous clock
    /// the leaving thread must join. The first exit of the gathering round
    /// seals it and opens the next.
    pub fn exit(&mut self, round: u64) -> VectorClock {
        if round == self.round {
            // First exit of the gathering round: seal it.
            let clock = std::mem::take(&mut self.gather);
            // Defensive `max(1)`: an exit without a matching enter (raw
            // misuse; validated feeds cannot produce it) must not underflow.
            let parties = self.entered.max(1);
            self.sealed.push((round, clock, parties));
            self.round += 1;
            self.entered = 0;
        }
        let i = self
            .sealed
            .iter()
            .position(|&(r, _, _)| r == round)
            .expect("exit of a round that was entered");
        self.sealed[i].2 -= 1;
        if self.sealed[i].2 == 0 {
            self.sealed.swap_remove(i).1
        } else {
            self.sealed[i].1.clone()
        }
    }
}

/// Fork/join clock handoff.
///
/// `fork(u)` by the parent stores a snapshot of the parent's clock in `u`'s
/// *start slot* before `u` begins; `u`'s context absorbs it on creation.
/// A thread publishes its clock into its *final slot* (at thread end, or —
/// in the deterministic feed — just before a `join` of it is processed);
/// `join(u)` absorbs the final slot.
///
/// Both directions are race-free at the application level (fork
/// happens-before child start; child end happens-before join), so these
/// mutexes are uncontended; they exist to satisfy Rust's aliasing rules and
/// to carry the happens-before edge for the clock data itself.
#[derive(Debug)]
pub(crate) struct Handoff {
    starts: Vec<Mutex<VectorClock>>,
    finals: Vec<Mutex<VectorClock>>,
}

impl Handoff {
    pub fn new(threads: usize) -> Self {
        Handoff {
            starts: table(threads),
            finals: table(threads),
        }
    }

    /// Parent side of `fork(u)`: merge the parent clock into `u`'s start slot.
    pub fn offer_start(&self, u: ThreadId, parent_clock: &VectorClock) {
        self.starts[u.index()].lock().join(parent_clock);
    }

    /// Child side: absorb any pending fork edge into `clock`.
    pub fn absorb_start(&self, u: ThreadId, clock: &mut VectorClock) {
        clock.join(&self.starts[u.index()].lock());
    }

    /// Publish `u`'s current clock for joiners.
    pub fn publish_final(&self, u: ThreadId, clock: &VectorClock) {
        self.finals[u.index()].lock().assign(clock);
    }

    /// Joiner side of `join(u)`: absorb `u`'s published clock.
    pub fn absorb_final(&self, u: ThreadId, clock: &mut VectorClock) {
        clock.join(&self.finals[u.index()].lock());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarttrack_clock::ThreadId;
    use smarttrack_detect::AccessKind;
    use smarttrack_trace::{EventId, Loc, VarId};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn online_barrier_survives_reentry_before_a_slow_exit() {
        // The concurrent hazard: B exits round 0 and enters round 1 before
        // A's round-0 exit hook runs. A must still join round 0's full
        // rendezvous clock, and round 1's gather must be untouched.
        let mut bar = OnlineBarrier::default();
        let a: VectorClock = [(t(0), 5)].into_iter().collect();
        let b: VectorClock = [(t(1), 7)].into_iter().collect();
        let r0a = bar.enter(&a);
        let r0b = bar.enter(&b);
        assert_eq!(r0a, r0b);
        // B exits first (seals round 0), then immediately re-enters.
        let b_sees = bar.exit(r0b);
        assert_eq!(b_sees.get(t(0)), 5);
        let b2: VectorClock = [(t(1), 9)].into_iter().collect();
        let r1b = bar.enter(&b2);
        assert_ne!(r0b, r1b, "re-entry joins a fresh round");
        // A's late exit still finds round 0's sealed clock.
        let a_sees = bar.exit(r0a);
        assert_eq!(a_sees.get(t(1)), 7, "A joins B's round-0 enter clock");
        assert_eq!(a_sees.get(t(0)), 5);
        // Round 1 drains independently with only B2's clock gathered so far.
        let c: VectorClock = [(t(2), 1)].into_iter().collect();
        let r1c = bar.enter(&c);
        assert_eq!(r1b, r1c);
        let c_sees = bar.exit(r1c);
        assert_eq!(c_sees.get(t(1)), 9);
        assert_eq!(c_sees.get(t(0)), 0, "round 0's clock was not stolen");
        let _ = bar.exit(r1b);
        assert!(bar.sealed.is_empty(), "drained rounds are dropped");
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let c = AtomicCaseCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.hit(FtoCase::ReadOwned);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().count(FtoCase::ReadOwned), 4000);
        assert_eq!(c.snapshot().count(FtoCase::WriteOwned), 0);
    }

    #[test]
    fn sink_collects_from_threads() {
        let sink = ReportSink::new();
        std::thread::scope(|s| {
            for i in 0..3u32 {
                let sink = &sink;
                s.spawn(move || {
                    sink.push(RaceReport {
                        event: EventId::new(i),
                        loc: Loc::new(i),
                        tid: t(i),
                        var: VarId::new(0),
                        kind: AccessKind::Write,
                        prior_threads: vec![],
                    });
                });
            }
        });
        assert_eq!(sink.snapshot().dynamic_count(), 3);
    }

    #[test]
    fn handoff_carries_fork_and_join_edges() {
        let h = Handoff::new(2);
        let parent: VectorClock = [(t(0), 5)].into_iter().collect();
        h.offer_start(t(1), &parent);
        let mut child = VectorClock::new();
        child.set(t(1), 1);
        h.absorb_start(t(1), &mut child);
        assert_eq!(child.get(t(0)), 5);

        child.set(t(1), 9);
        h.publish_final(t(1), &child);
        let mut joiner = parent.clone();
        h.absorb_final(t(1), &mut joiner);
        assert_eq!(joiner.get(t(1)), 9);
    }
}

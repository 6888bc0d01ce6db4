//! Seeded random generation of well-formed execution traces.
//!
//! The generator simulates a set of threads taking randomized steps (accesses
//! in bursts, lock acquire/release with bounded nesting, volatile accesses,
//! optional fork/join structure) and emits a well-formed [`Trace`]. It is the
//! workhorse behind the property-based differential tests and the
//! DaCapo-style workloads (`smarttrack-workloads` layers calibrated
//! parameters on top of it).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smarttrack_clock::ThreadId;

use crate::{BarrierId, CondId, Loc, LockId, Op, Trace, TraceBuilder, VarId};

/// Parameters for random trace generation.
///
/// All probabilities are per *step decision*: one roll is tested against
/// their running sum, branch by branch in field order, and the remaining
/// probability mass goes to plain reads/writes. A family whose object count
/// is zero (no locks, no volatiles, no condvars, no barriers, no rwlocks)
/// never fires, but a roll in its interval falls through to the next
/// branch, not to the accesses: only the mass above the running sum through
/// the last enabled family is left for reads and writes (see
/// [`generate`](RandomTraceSpec::generate)).
///
/// # Examples
///
/// ```
/// use smarttrack_trace::gen::RandomTraceSpec;
///
/// let spec = RandomTraceSpec { threads: 3, events: 200, ..RandomTraceSpec::default() };
/// let a = spec.generate(42);
/// let b = spec.generate(42);
/// assert_eq!(a, b, "generation is deterministic per seed");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RandomTraceSpec {
    /// Number of worker threads.
    pub threads: u32,
    /// Target number of events (the result may slightly exceed this because
    /// open critical sections are closed and joins appended).
    pub events: usize,
    /// Number of shared variables.
    pub vars: u32,
    /// Number of locks.
    pub locks: u32,
    /// Number of volatile variables (0 disables volatile events).
    pub volatiles: u32,
    /// Fraction of accesses that are writes.
    pub write_frac: f64,
    /// Probability a step acquires a (free, random) lock.
    pub acquire_prob: f64,
    /// Probability a step releases the innermost held lock.
    pub release_prob: f64,
    /// Probability a step performs a volatile access.
    pub volatile_prob: f64,
    /// Maximum lock nesting depth per thread.
    pub max_nesting: usize,
    /// Mean length of same-variable access bursts (drives the same-epoch
    /// access fraction of Table 2).
    pub mean_burst: usize,
    /// Skew of variable selection toward low indices (`0.0` = uniform;
    /// higher values concentrate accesses on few variables, creating more
    /// sharing and more races).
    pub var_skew: f64,
    /// Wrap the trace in fork/join structure: thread 0 forks all workers
    /// first and joins them at the end.
    pub fork_join: bool,
    /// Number of distinct static program locations to attribute accesses to.
    pub locs: u32,
    /// Number of condition variables (0 disables condvar events).
    pub condvars: u32,
    /// Probability a step performs a condvar operation: a `wait` on the
    /// innermost held lock when the thread holds one, otherwise a
    /// `notify`/`notifyAll`.
    pub condvar_prob: f64,
    /// Number of barriers (0 disables barrier events).
    pub barriers: u32,
    /// Probability a step emits a whole barrier *round*: a random subset of
    /// threads enters (in random order) and then exits (in random order),
    /// keeping the parties of every round matched by construction.
    pub barrier_prob: f64,
    /// Number of reader-writer locks (0 disables rwlock events). Rwlocks
    /// share the lock id space, numbered above the plain locks
    /// (`LockId::new(locks + k)`).
    pub rwlocks: u32,
    /// Probability a step read-acquires a random rwlock the thread may
    /// share (no writer, not already read-held by this thread).
    pub rw_read_prob: f64,
    /// Probability a step write-acquires a random free rwlock.
    pub rw_write_prob: f64,
    /// Probability a step releases this thread's most recent rwlock hold.
    pub rw_release_prob: f64,
    /// Probability a step records a failed trylock (`tryf`) on a random
    /// rwlock the thread does not itself hold.
    pub try_fail_prob: f64,
}

impl Default for RandomTraceSpec {
    fn default() -> Self {
        RandomTraceSpec {
            threads: 4,
            events: 1_000,
            vars: 12,
            locks: 4,
            volatiles: 0,
            write_frac: 0.35,
            acquire_prob: 0.08,
            release_prob: 0.10,
            volatile_prob: 0.0,
            max_nesting: 3,
            mean_burst: 2,
            var_skew: 1.0,
            fork_join: false,
            locs: 40,
            condvars: 0,
            condvar_prob: 0.0,
            barriers: 0,
            barrier_prob: 0.0,
            rwlocks: 0,
            rw_read_prob: 0.0,
            rw_write_prob: 0.0,
            rw_release_prob: 0.0,
            try_fail_prob: 0.0,
        }
    }
}

impl RandomTraceSpec {
    /// A tiny-spec preset suitable for exhaustive-oracle cross-checking
    /// (traces of a few dozen events, 2–3 threads).
    pub fn tiny() -> Self {
        RandomTraceSpec {
            threads: 3,
            events: 18,
            vars: 3,
            locks: 2,
            volatiles: 0,
            write_frac: 0.5,
            acquire_prob: 0.25,
            release_prob: 0.35,
            volatile_prob: 0.0,
            max_nesting: 2,
            mean_burst: 1,
            var_skew: 1.0,
            fork_join: false,
            locs: 12,
            condvars: 0,
            condvar_prob: 0.0,
            barriers: 0,
            barrier_prob: 0.0,
            rwlocks: 0,
            rw_read_prob: 0.0,
            rw_write_prob: 0.0,
            rw_release_prob: 0.0,
            try_fail_prob: 0.0,
        }
    }

    /// The tiny preset with condvar and barrier events mixed in, for
    /// oracle-checkable synchronization-heavy traces.
    pub fn tiny_sync() -> Self {
        RandomTraceSpec {
            condvars: 2,
            condvar_prob: 0.15,
            barriers: 1,
            barrier_prob: 0.06,
            ..RandomTraceSpec::tiny()
        }
    }

    /// The tiny preset with reader-writer lock events mixed in (shared read
    /// sections, exclusive write sections, failed trylocks), for
    /// oracle-checkable rwlock traces.
    pub fn tiny_rw() -> Self {
        RandomTraceSpec {
            acquire_prob: 0.12,
            release_prob: 0.18,
            rwlocks: 2,
            rw_read_prob: 0.12,
            rw_write_prob: 0.06,
            rw_release_prob: 0.20,
            try_fail_prob: 0.03,
            ..RandomTraceSpec::tiny()
        }
    }

    /// The step probability the sync branches can take: the running sum of
    /// the branch probabilities through the last family whose object count
    /// is non-zero, disabled families before it included (a roll in their
    /// interval falls through to the next branch).
    fn sync_mass(&self) -> f64 {
        let rw = self.rw_read_prob + self.rw_write_prob + self.rw_release_prob + self.try_fail_prob;
        let families = [
            (self.locks, self.acquire_prob + self.release_prob),
            (self.volatiles, self.volatile_prob),
            (self.condvars, self.condvar_prob),
            (self.barriers, self.barrier_prob),
            (self.rwlocks, rw),
        ];
        let (mut running, mut mass) = (0.0, 0.0);
        for (count, prob) in families {
            running += prob;
            if count > 0 {
                mass = running;
            }
        }
        mass
    }

    /// Generates a well-formed trace deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, if `vars == 0` while `events > 0`, or if
    /// the running sum of the branch probabilities through the last family
    /// whose object count is non-zero reaches 1 — such a spec would leave
    /// plain reads and writes no mass.
    pub fn generate(&self, seed: u64) -> Trace {
        assert!(self.threads > 0, "need at least one thread");
        assert!(
            self.vars > 0 || self.events == 0,
            "need at least one variable"
        );
        let sync_mass = self.sync_mass();
        assert!(
            sync_mass < 1.0,
            "sync branch probabilities reach {sync_mass} in the roll, leaving reads and writes no mass"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_5eed_0000_0000);
        let mut b = TraceBuilder::new();
        let nthreads = self.threads as usize;

        let mut held: Vec<Vec<LockId>> = vec![Vec::new(); nthreads];
        let mut burst: Vec<Option<(VarId, usize)>> = vec![None; nthreads];
        let mut lock_free = vec![true; self.locks as usize];

        // Rwlocks share the lock id space above the plain locks. Per rwlock
        // we mirror the holder state (one writer xor any readers); per thread
        // we keep the open rwlock sections as `(rwlock index, write mode)`.
        let rw_id = |k: usize| LockId::new(self.locks + k as u32);
        let mut rw_writer: Vec<Option<usize>> = vec![None; self.rwlocks as usize];
        let mut rw_readers: Vec<Vec<usize>> = vec![Vec::new(); self.rwlocks as usize];
        let mut rw_held: Vec<Vec<(usize, bool)>> = vec![Vec::new(); nthreads];

        if self.fork_join {
            for child in 1..self.threads {
                b.push_at(
                    ThreadId::new(0),
                    Op::Fork(ThreadId::new(child)),
                    Loc::new(0),
                )
                .expect("fork of fresh thread is well-formed");
            }
        }

        // Cumulative probability mass of the non-rwlock sync branches; the
        // rwlock branches slot in after them in the roll cascade.
        let sync5 = self.acquire_prob
            + self.release_prob
            + self.volatile_prob
            + self.condvar_prob
            + self.barrier_prob;

        while b.len() < self.events {
            let ti = rng.gen_range(0..nthreads);
            let tid = ThreadId::new(ti as u32);
            let loc = Loc::new(rng.gen_range(0..self.locs.max(1)));

            // Continue an access burst if one is active.
            if let Some((var, left)) = burst[ti] {
                let op = if rng.gen_bool(self.write_frac) {
                    Op::Write(var)
                } else {
                    Op::Read(var)
                };
                b.push_at(tid, op, loc).expect("accesses are well-formed");
                burst[ti] = if left > 1 {
                    Some((var, left - 1))
                } else {
                    None
                };
                continue;
            }

            let roll: f64 = rng.gen();
            if roll < self.acquire_prob
                && held[ti].len() < self.max_nesting
                && lock_free.iter().any(|&f| f)
            {
                let free: Vec<usize> = (0..lock_free.len()).filter(|&i| lock_free[i]).collect();
                let l = free[rng.gen_range(0..free.len())];
                lock_free[l] = false;
                let lock = LockId::new(l as u32);
                held[ti].push(lock);
                b.push_at(tid, Op::Acquire(lock), loc)
                    .expect("acquire of free lock is well-formed");
            } else if roll < self.acquire_prob + self.release_prob && !held[ti].is_empty() {
                let lock = held[ti].pop().expect("nonempty");
                lock_free[lock.index()] = true;
                b.push_at(tid, Op::Release(lock), loc)
                    .expect("release of held lock is well-formed");
            } else if roll < self.acquire_prob + self.release_prob + self.volatile_prob
                && self.volatiles > 0
            {
                let v = VarId::new(rng.gen_range(0..self.volatiles));
                let op = if rng.gen_bool(0.5) {
                    Op::VolatileRead(v)
                } else {
                    Op::VolatileWrite(v)
                };
                b.push_at(tid, op, loc).expect("volatiles are well-formed");
            } else if roll
                < self.acquire_prob + self.release_prob + self.volatile_prob + self.condvar_prob
                && self.condvars > 0
            {
                let c = CondId::new(rng.gen_range(0..self.condvars));
                // A wait needs a held monitor; threads holding none notify.
                let op = match held[ti].last() {
                    Some(&m) if rng.gen_bool(0.5) => Op::Wait(c, m),
                    _ if rng.gen_bool(0.5) => Op::Notify(c),
                    _ => Op::NotifyAll(c),
                };
                b.push_at(tid, op, loc)
                    .expect("condvar events are well-formed");
            } else if roll
                < self.acquire_prob
                    + self.release_prob
                    + self.volatile_prob
                    + self.condvar_prob
                    + self.barrier_prob
                && self.barriers > 0
                && nthreads >= 2
            {
                // Emit a whole rendezvous round: a random subset of threads
                // enters in random order, then exits in random order, so the
                // parties of every round match by construction.
                let bar = BarrierId::new(rng.gen_range(0..self.barriers));
                let k = rng.gen_range(2..=nthreads);
                let mut parties: Vec<u32> = (0..nthreads as u32).collect();
                for i in (1..parties.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    parties.swap(i, j);
                }
                parties.truncate(k);
                for &p in &parties {
                    b.push_at(ThreadId::new(p), Op::BarrierEnter(bar), loc)
                        .expect("round enters are well-formed");
                }
                for i in (1..parties.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    parties.swap(i, j);
                }
                for &p in &parties {
                    b.push_at(ThreadId::new(p), Op::BarrierExit(bar), loc)
                        .expect("round exits are well-formed");
                }
            } else if roll < sync5 + self.rw_read_prob
                && self.rwlocks > 0
                && held[ti].len() + rw_held[ti].len() < self.max_nesting
                && (0..rw_writer.len())
                    .any(|k| rw_writer[k].is_none() && !rw_readers[k].contains(&ti))
            {
                // Read-acquire any rwlock with no writer that this thread is
                // not already reading; concurrent readers are the point.
                let sharable: Vec<usize> = (0..rw_writer.len())
                    .filter(|&k| rw_writer[k].is_none() && !rw_readers[k].contains(&ti))
                    .collect();
                let k = sharable[rng.gen_range(0..sharable.len())];
                rw_readers[k].push(ti);
                rw_held[ti].push((k, false));
                b.push_at(tid, Op::AcqRead(rw_id(k)), loc)
                    .expect("read acquire of a writer-free rwlock is well-formed");
            } else if roll < sync5 + self.rw_read_prob + self.rw_write_prob
                && self.rwlocks > 0
                && held[ti].len() + rw_held[ti].len() < self.max_nesting
                && (0..rw_writer.len()).any(|k| rw_writer[k].is_none() && rw_readers[k].is_empty())
            {
                let free: Vec<usize> = (0..rw_writer.len())
                    .filter(|&k| rw_writer[k].is_none() && rw_readers[k].is_empty())
                    .collect();
                let k = free[rng.gen_range(0..free.len())];
                rw_writer[k] = Some(ti);
                rw_held[ti].push((k, true));
                b.push_at(tid, Op::AcqWrite(rw_id(k)), loc)
                    .expect("write acquire of a free rwlock is well-formed");
            } else if roll < sync5 + self.rw_read_prob + self.rw_write_prob + self.rw_release_prob
                && !rw_held[ti].is_empty()
            {
                let (k, write) = rw_held[ti].pop().expect("nonempty");
                if write {
                    rw_writer[k] = None;
                } else {
                    rw_readers[k].retain(|&r| r != ti);
                }
                b.push_at(tid, Op::Release(rw_id(k)), loc)
                    .expect("release of a held rwlock is well-formed");
            } else if roll
                < sync5
                    + self.rw_read_prob
                    + self.rw_write_prob
                    + self.rw_release_prob
                    + self.try_fail_prob
                && self.rwlocks > 0
                && (0..rw_writer.len())
                    .any(|k| rw_writer[k] != Some(ti) && !rw_readers[k].contains(&ti))
            {
                // A failed trylock only requires that this thread does not
                // itself hold the target (the contender may have released
                // before this event serialized).
                let targets: Vec<usize> = (0..rw_writer.len())
                    .filter(|&k| rw_writer[k] != Some(ti) && !rw_readers[k].contains(&ti))
                    .collect();
                let k = targets[rng.gen_range(0..targets.len())];
                b.push_at(tid, Op::TryAcqFail(rw_id(k)), loc)
                    .expect("failed trylock on an unheld rwlock is well-formed");
            } else {
                let var = self.pick_var(&mut rng);
                let len = 1 + rng.gen_range(0..=(2 * self.mean_burst.max(1)).saturating_sub(1));
                let op = if rng.gen_bool(self.write_frac) {
                    Op::Write(var)
                } else {
                    Op::Read(var)
                };
                b.push_at(tid, op, loc).expect("accesses are well-formed");
                if len > 1 {
                    burst[ti] = Some((var, len - 1));
                }
            }
        }

        // Close all open critical sections (innermost first).
        for (ti, stack) in held.iter_mut().enumerate() {
            while let Some(lock) = stack.pop() {
                lock_free[lock.index()] = true;
                b.push(ThreadId::new(ti as u32), Op::Release(lock))
                    .expect("closing releases are well-formed");
            }
        }
        for (ti, holds) in rw_held.iter_mut().enumerate() {
            while let Some((k, write)) = holds.pop() {
                if write {
                    rw_writer[k] = None;
                } else {
                    rw_readers[k].retain(|&r| r != ti);
                }
                b.push(ThreadId::new(ti as u32), Op::Release(rw_id(k)))
                    .expect("closing rwlock releases are well-formed");
            }
        }

        if self.fork_join {
            for child in 1..self.threads {
                b.push_at(
                    ThreadId::new(0),
                    Op::Join(ThreadId::new(child)),
                    Loc::new(0),
                )
                .expect("join of forked thread is well-formed");
            }
        }

        b.finish()
    }

    fn pick_var(&self, rng: &mut SmallRng) -> VarId {
        let r: f64 = rng.gen();
        let skewed = r.powf(1.0 + self.var_skew);
        VarId::new(((skewed * self.vars as f64) as u32).min(self.vars - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn generates_requested_size() {
        let spec = RandomTraceSpec::default();
        let tr = spec.generate(7);
        assert!(tr.len() >= spec.events);
        // Slack only for closing releases and joins.
        assert!(tr.len() <= spec.events + spec.threads as usize * spec.max_nesting + 8);
    }

    #[test]
    fn deterministic_per_seed_and_sensitive_to_seed() {
        let spec = RandomTraceSpec::default();
        assert_eq!(spec.generate(1), spec.generate(1));
        assert_ne!(spec.generate(1), spec.generate(2));
    }

    #[test]
    fn generated_traces_revalidate() {
        for seed in 0..20 {
            let tr = RandomTraceSpec::default().generate(seed);
            Trace::from_events(tr.events().iter().copied()).expect("well-formed");
        }
    }

    #[test]
    fn fork_join_wraps_workers() {
        let spec = RandomTraceSpec {
            fork_join: true,
            threads: 4,
            events: 100,
            ..RandomTraceSpec::default()
        };
        let tr = spec.generate(3);
        Trace::from_events(tr.events().iter().copied()).expect("well-formed");
        let forks = tr
            .events()
            .iter()
            .filter(|e| matches!(e.op, Op::Fork(_)))
            .count();
        let joins = tr
            .events()
            .iter()
            .filter(|e| matches!(e.op, Op::Join(_)))
            .count();
        assert_eq!(forks, 3);
        assert_eq!(joins, 3);
    }

    #[test]
    fn volatile_prob_emits_volatiles() {
        let spec = RandomTraceSpec {
            volatiles: 2,
            volatile_prob: 0.2,
            events: 500,
            ..RandomTraceSpec::default()
        };
        let tr = spec.generate(11);
        assert!(tr
            .events()
            .iter()
            .any(|e| matches!(e.op, Op::VolatileRead(_) | Op::VolatileWrite(_))));
        assert_eq!(tr.num_volatiles(), 2);
    }

    #[test]
    fn rw_probs_emit_rwlock_ops_that_revalidate() {
        for seed in 0..20 {
            let tr = RandomTraceSpec::tiny_rw().generate(seed);
            Trace::from_events(tr.events().iter().copied()).expect("well-formed");
        }
        let spec = RandomTraceSpec {
            rwlocks: 2,
            rw_read_prob: 0.10,
            rw_write_prob: 0.06,
            rw_release_prob: 0.20,
            try_fail_prob: 0.04,
            events: 800,
            ..RandomTraceSpec::default()
        };
        let tr = spec.generate(9);
        Trace::from_events(tr.events().iter().copied()).expect("well-formed");
        assert!(tr.events().iter().any(|e| matches!(e.op, Op::AcqRead(_))));
        assert!(tr.events().iter().any(|e| matches!(e.op, Op::AcqWrite(_))));
        assert!(tr
            .events()
            .iter()
            .any(|e| matches!(e.op, Op::TryAcqFail(_))));
        // Rwlock ids are numbered above the plain locks.
        assert!(tr.events().iter().all(|e| match e.op {
            Op::AcqRead(m) | Op::AcqWrite(m) | Op::TryAcqFail(m) => m.raw() >= spec.locks,
            Op::Acquire(m) => m.raw() < spec.locks,
            _ => true,
        }));
    }

    #[test]
    fn zero_rw_probs_leave_old_seeds_unchanged() {
        // The rwlock branches must not draw from the rng unless they fire,
        // so a spec with rwlocks but zero mass generates the same trace.
        let plain = RandomTraceSpec::default();
        let with_idle_rwlocks = RandomTraceSpec {
            rwlocks: 0,
            rw_read_prob: 0.5,
            rw_write_prob: 0.5,
            rw_release_prob: 0.5,
            try_fail_prob: 0.5,
            ..RandomTraceSpec::default()
        };
        for seed in 0..10 {
            assert_eq!(plain.generate(seed), with_idle_rwlocks.generate(seed));
        }
    }

    #[test]
    fn presets_emit_reads_and_writes() {
        // Sync-heavy presets may leave a rare trace without accesses, so
        // the bar is per sample: nine in ten of the first 50 traces access
        // a variable, and reads and writes each show up in most of them.
        for (name, spec) in [
            ("default", RandomTraceSpec::default()),
            ("tiny", RandomTraceSpec::tiny()),
            ("tiny_sync", RandomTraceSpec::tiny_sync()),
            ("tiny_rw", RandomTraceSpec::tiny_rw()),
        ] {
            let (mut reads, mut writes, mut accesses) = (0, 0, 0);
            for seed in 0..50 {
                let tr = spec.generate(seed);
                let read = tr.events().iter().any(|e| matches!(e.op, Op::Read(_)));
                let write = tr.events().iter().any(|e| matches!(e.op, Op::Write(_)));
                reads += usize::from(read);
                writes += usize::from(write);
                accesses += usize::from(read || write);
            }
            let counts = format!("{accesses} access, {reads} read, {writes} write");
            assert!(
                accesses >= 45 && reads >= 25 && writes >= 25,
                "{name}: {counts}"
            );
        }
    }

    #[test]
    fn enabled_probabilities_summing_to_one_panic() {
        let panics = |spec: RandomTraceSpec| {
            let result = std::panic::catch_unwind(|| spec.generate(0));
            let message = result.expect_err("the spec must panic");
            let message = message
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(
                message.contains("leaving reads and writes no mass"),
                "{message}"
            );
        };
        panics(RandomTraceSpec {
            rwlocks: 1,
            acquire_prob: 0.4,
            release_prob: 0.4,
            rw_read_prob: 0.1,
            rw_release_prob: 0.1,
            ..RandomTraceSpec::tiny()
        });
        // With no plain locks the lock branches never fire, but their 0.6
        // still sits below the rwlock branches in the roll.
        panics(RandomTraceSpec {
            locks: 0,
            rwlocks: 2,
            rw_read_prob: 0.2,
            rw_write_prob: 0.1,
            rw_release_prob: 0.2,
            ..RandomTraceSpec::tiny()
        });
    }

    #[test]
    fn burst_length_raises_same_epoch_fraction() {
        let base = RandomTraceSpec {
            events: 4_000,
            mean_burst: 1,
            ..RandomTraceSpec::default()
        };
        let bursty = RandomTraceSpec {
            mean_burst: 8,
            ..base.clone()
        };
        let s1 = TraceStats::compute(&base.generate(5));
        let s2 = TraceStats::compute(&bursty.generate(5));
        assert!(
            s2.nsea_fraction() < s1.nsea_fraction(),
            "longer bursts must lower the NSEA fraction ({} vs {})",
            s2.nsea_fraction(),
            s1.nsea_fraction()
        );
    }
}

//! Shared machinery for the detectors: dense growable tables, held-lock
//! tracking, per-(lock, variable) critical-section metadata, and footprint
//! estimation helpers.

use smarttrack_clock::{ThreadId, VectorClock};
use smarttrack_trace::{EventId, LockId, VarId};

use crate::lower::LockMode;

/// Returns a mutable reference to `v[i]`, growing `v` with defaults.
#[inline]
pub fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// Pushes `x` onto `v` and adds the bytes of any capacity growth to
/// `bytes`: the running counts that keep the `resident_bytes` estimates
/// O(1) grow here.
#[inline]
pub fn push_counted<T>(v: &mut Vec<T>, x: T, bytes: &mut usize) {
    let before = v.capacity();
    v.push(x);
    *bytes += (v.capacity() - before) * std::mem::size_of::<T>();
}

/// Tracks the set of locks held by each thread, in acquisition order
/// (`HeldLocks(t)` in the paper's algorithms), with the hold *mode*: `true`
/// for exclusive/write holds (plain acquires and `acqw`), `false` for
/// read-mode rwlock holds (`acqr`).
#[derive(Clone, Debug, Default)]
pub struct HeldLocks {
    held: Vec<Vec<(LockId, bool)>>,
}

impl HeldLocks {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        HeldLocks::default()
    }

    /// Records an acquire in `mode`.
    pub fn acquire(&mut self, t: ThreadId, m: LockId, mode: LockMode) {
        slot(&mut self.held, t.index()).push((m, mode == LockMode::Exclusive));
    }

    /// Records a release and returns the mode of the ended hold. Releases
    /// of unheld locks are ignored (the trace layer already guarantees
    /// well-formedness) and reported as exclusive.
    pub fn release(&mut self, t: ThreadId, m: LockId) -> LockMode {
        if let Some(h) = self.held.get_mut(t.index()) {
            if let Some(pos) = h.iter().rposition(|&(l, _)| l == m) {
                return LockMode::of_write(h.remove(pos).1);
            }
        }
        LockMode::Exclusive
    }

    /// The `(lock, write-mode)` holds of `t`, outermost first.
    pub fn of(&self, t: ThreadId) -> &[(LockId, bool)] {
        self.held
            .get(t.index())
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Approximate heap bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.held
            .iter()
            .map(|h| h.capacity() * std::mem::size_of::<(LockId, bool)>())
            .sum::<usize>()
            + self.held.capacity() * std::mem::size_of::<Vec<(LockId, bool)>>()
    }
}

/// A critical-section time: the join of the release times of prior critical
/// sections (on one lock) that accessed one variable.
#[derive(Clone, Debug, Default)]
pub struct LTime {
    /// Join of release-time clocks.
    pub clock: VectorClock,
    /// Latest contributing release event per releasing thread (graph mode).
    pub sources: Vec<(ThreadId, EventId)>,
}

impl LTime {
    fn absorb(&mut self, clock: &VectorClock, source: Option<(ThreadId, EventId)>) {
        self.clock.join(clock);
        if let Some((t, e)) = source {
            match self.sources.iter_mut().find(|(u, _)| *u == t) {
                Some(entry) => entry.1 = e,
                None => self.sources.push((t, e)),
            }
        }
    }
}

/// One (variable, lock) node of a [`LockVarTable`]: lives in the shared
/// entry pool, chained per variable (`next`). Carries the positions of the
/// folded `Lr`/`Lw` times (`+1`, 0 = none) and the generation stamps of
/// the ongoing critical section's `Rm`/`Wm` membership.
#[derive(Clone, Debug)]
struct PairEntry {
    lock: LockId,
    /// Next entry of the same variable's chain (`+1`, 0 = end).
    next: u32,
    /// `Lr_{m,x}` position in `read_times` (`+1`, 0 = none).
    read_pos: u32,
    /// `Lw_{m,x}` position in `write_times` (`+1`, 0 = none).
    write_pos: u32,
    /// Generation of the lock's critical section that last marked this
    /// pair as read (`Rm`).
    read_gen: u32,
    /// Generation that last marked this pair as written (`Wm`).
    write_gen: u32,
}

/// Per-lock bookkeeping of the ongoing critical section.
#[derive(Clone, Debug)]
struct LockCs {
    /// Generation of the ongoing critical section. Bumped at every
    /// release, which lazily invalidates all membership stamps in O(1) —
    /// no per-release clearing walk. Stamps start at 0, so the live
    /// generation is never 0.
    gen: u32,
    /// Variables marked read (`Rm`) / written (`Wm`) since the last
    /// release, each at most once (guarded by the generation stamps).
    cur_read: Vec<VarId>,
    cur_write: Vec<VarId>,
}

impl Default for LockCs {
    fn default() -> Self {
        LockCs {
            gen: 1,
            cur_read: Vec::new(),
            cur_write: Vec::new(),
        }
    }
}

/// Per-(lock, variable) critical-section access times: the paper's
/// `Lr_{m,x}` and `Lw_{m,x}` plus the `Rm`/`Wm` variable sets of the ongoing
/// critical section (Algorithms 1 and 2).
///
/// The paper notes this metadata "entails storing information for
/// lock–variable pairs, requiring indirect metadata lookups (e.g., an
/// implementation can use per-lock hash tables keyed by variables)". The
/// pre-overhaul implementation was exactly that — per-lock `HashMap<VarId,
/// LTime>` — which put a hash and a probe on every rule (a) lookup and
/// load-factor slack on every table. The overhauled layout is a *chained
/// per-variable pool*: a dense `heads` array (one `u32` per interned
/// variable) points into one shared pair-entry pool, chained per
/// variable. An access walks its variable's chain — as long as the number
/// of locks the variable has ever been accessed under, almost always 1–2 —
/// and the per-critical-section `Rm`/`Wm` membership check is a
/// generation-stamp compare on the entry instead of hashing into a set
/// (generations bump at release, lazily clearing all stamps at once).
/// Memory is proportional to *occupied* (lock, variable) pairs plus one
/// word per variable; no per-lock universe-sized tables.
///
/// For the "w/ G" graph-building variants, each `Lr`/`Lw` time also carries
/// the ids of the release events that contributed to it (latest per thread),
/// so rule (a) joins can be recorded as graph edges.
#[derive(Debug, Default)]
pub struct LockVarTable {
    /// Per variable: head of its pair-entry chain (`+1`, 0 = empty).
    heads: Vec<u32>,
    /// The shared (variable, lock) pair pool.
    pool: Vec<PairEntry>,
    /// Folded `Lr` / `Lw` times, positions referenced from pool entries.
    read_times: Vec<LTime>,
    write_times: Vec<LTime>,
    /// Per lock: ongoing critical-section bookkeeping.
    locks: Vec<LockCs>,
    /// Whether to track contributing release events for graph recording.
    track_sources: bool,
    /// Running sum of every lock's `cur_read`/`cur_write` capacity, in
    /// bytes: grown by the marks, never shrunk (a release clears the
    /// buffers but keeps them), so [`resident_bytes`](Self::resident_bytes)
    /// is O(1).
    marks: usize,
}

/// A cloned `Vec` has capacity equal to its length, so the copy recounts.
impl Clone for LockVarTable {
    fn clone(&self) -> Self {
        let mut copy = LockVarTable {
            heads: self.heads.clone(),
            pool: self.pool.clone(),
            read_times: self.read_times.clone(),
            write_times: self.write_times.clone(),
            locks: self.locks.clone(),
            track_sources: self.track_sources,
            marks: 0,
        };
        copy.marks = copy.walk_mark_bytes();
        copy
    }
}

impl LockVarTable {
    /// Creates a table; `track_sources` enables graph-edge recording.
    pub fn new(track_sources: bool) -> Self {
        LockVarTable {
            track_sources,
            ..LockVarTable::default()
        }
    }

    /// Pre-sizes the per-lock table (from a [`crate::StreamHint`];
    /// clamped, see [`crate::StreamHint::presize`]).
    pub fn reserve_locks(&mut self, locks: usize) {
        self.locks
            .reserve(crate::StreamHint::presize(Some(locks), self.locks.len()));
    }

    /// Index of the pair entry for `(x, m)`, if present.
    #[inline]
    fn find(&self, m: LockId, x: VarId) -> Option<usize> {
        let mut i = *self.heads.get(x.index())?;
        while i != 0 {
            let e = &self.pool[i as usize - 1];
            if e.lock == m {
                return Some(i as usize - 1);
            }
            i = e.next;
        }
        None
    }

    /// Index of the pair entry for `(x, m)`, inserting an empty one at the
    /// chain head if absent.
    #[inline]
    fn find_or_insert(&mut self, m: LockId, x: VarId) -> usize {
        if let Some(i) = self.find(m, x) {
            return i;
        }
        let head = slot(&mut self.heads, x.index());
        self.pool.push(PairEntry {
            lock: m,
            next: *head,
            read_pos: 0,
            write_pos: 0,
            read_gen: 0,
            write_gen: 0,
        });
        *head = self.pool.len() as u32;
        self.pool.len() - 1
    }

    /// Marks `x` as read in the ongoing critical section on `m` (`Rm ∪= {x}`).
    #[inline]
    pub fn mark_read(&mut self, m: LockId, x: VarId) {
        let gen = slot(&mut self.locks, m.index()).gen;
        let i = self.find_or_insert(m, x);
        let e = &mut self.pool[i];
        if e.read_gen != gen {
            e.read_gen = gen;
            push_counted(&mut self.locks[m.index()].cur_read, x, &mut self.marks);
        }
    }

    /// Marks `x` as written in the ongoing critical section on `m`
    /// (`Wm ∪= {x}`).
    #[inline]
    pub fn mark_write(&mut self, m: LockId, x: VarId) {
        let gen = slot(&mut self.locks, m.index()).gen;
        let i = self.find_or_insert(m, x);
        let e = &mut self.pool[i];
        if e.write_gen != gen {
            e.write_gen = gen;
            push_counted(&mut self.locks[m.index()].cur_write, x, &mut self.marks);
        }
    }

    /// The read-time `Lr_{m,x}`, if any prior critical section on `m` read
    /// (or, for FTO, accessed) `x`.
    #[inline]
    pub fn read_time(&self, m: LockId, x: VarId) -> Option<&LTime> {
        let e = &self.pool[self.find(m, x)?];
        if e.read_pos == 0 {
            None
        } else {
            Some(&self.read_times[e.read_pos as usize - 1])
        }
    }

    /// The write-time `Lw_{m,x}`.
    #[inline]
    pub fn write_time(&self, m: LockId, x: VarId) -> Option<&LTime> {
        let e = &self.pool[self.find(m, x)?];
        if e.write_pos == 0 {
            None
        } else {
            Some(&self.write_times[e.write_pos as usize - 1])
        }
    }

    /// Applies a release of `m` at time `now` (Algorithm 1 lines 9–11 /
    /// Algorithm 2 lines 10–12): folds the ongoing critical section's
    /// accessed-variable sets into `Lr`/`Lw` and clears them (by bumping
    /// the lock's generation).
    ///
    /// `release_event` identifies the release for graph recording.
    pub fn on_release(
        &mut self,
        t: ThreadId,
        m: LockId,
        now: &VectorClock,
        release_event: EventId,
    ) {
        let source = self.track_sources.then_some((t, release_event));
        let cs = slot(&mut self.locks, m.index());
        let reads = std::mem::take(&mut cs.cur_read);
        let writes = std::mem::take(&mut cs.cur_write);
        for &x in &reads {
            let i = self.find(m, x).expect("marked pairs have entries");
            let e = &mut self.pool[i];
            if e.read_pos == 0 {
                self.read_times.push(LTime::default());
                e.read_pos = self.read_times.len() as u32;
            }
            self.read_times[e.read_pos as usize - 1].absorb(now, source);
        }
        for &x in &writes {
            let i = self.find(m, x).expect("marked pairs have entries");
            let e = &mut self.pool[i];
            if e.write_pos == 0 {
                self.write_times.push(LTime::default());
                e.write_pos = self.write_times.len() as u32;
            }
            self.write_times[e.write_pos as usize - 1].absorb(now, source);
        }
        // Return the (now empty) buffers to reuse their capacity.
        let cs = &mut self.locks[m.index()];
        cs.cur_read = reads;
        cs.cur_read.clear();
        cs.cur_write = writes;
        cs.cur_write.clear();
        cs.gen = match cs.gen.checked_add(1) {
            Some(g) => g,
            None => {
                // Astronomically rare wrap: clear this lock's stamps
                // eagerly so stale stamps cannot collide with generation 1.
                for e in &mut self.pool {
                    if e.lock == m {
                        e.read_gen = 0;
                        e.write_gen = 0;
                    }
                }
                1
            }
        };
    }

    /// Cheap resident bytes (capacities only, O(1)) — the running
    /// estimate sampled per event.
    pub fn resident_bytes(&self) -> usize {
        debug_assert_eq!(self.marks, self.walk_mark_bytes(), "section mark bytes");
        self.heads.capacity() * std::mem::size_of::<u32>()
            + self.pool.capacity() * std::mem::size_of::<PairEntry>()
            + (self.read_times.capacity() + self.write_times.capacity())
                * std::mem::size_of::<LTime>()
            + self.locks.capacity() * std::mem::size_of::<LockCs>()
            + self.marks
    }

    /// What the running mark count holds, by walking every lock: O(#locks).
    fn walk_mark_bytes(&self) -> usize {
        self.locks
            .iter()
            .map(|cs| {
                (cs.cur_read.capacity() + cs.cur_write.capacity()) * std::mem::size_of::<VarId>()
            })
            .sum()
    }

    /// Exact heap bytes including per-entry clock spill (the dominant cost
    /// of unoptimized predictive analysis on lock-heavy programs).
    pub fn footprint_bytes(&self) -> usize {
        self.resident_bytes()
            + self
                .read_times
                .iter()
                .chain(self.write_times.iter())
                .map(|lt| {
                    lt.clock.heap_bytes()
                        + lt.sources.capacity() * std::mem::size_of::<(ThreadId, EventId)>()
                })
                .sum::<usize>()
    }

    /// What the same occupancy cost in the *pre-overhaul* layout — per-lock
    /// `HashMap<VarId, LTime>` with heap-vector clocks: per side and lock,
    /// a swiss table of `next_pow2(n·8/7)` buckets (key + value slot +
    /// one control byte each), plus each entry's clock as a separate heap
    /// vector (the pre-overhaul `VectorClock` had no small-size inline
    /// representation). Used by the fast-path accounting tests to prove the
    /// chained dense layout shrinks state, without keeping the old
    /// implementation alive.
    pub fn hashmap_equivalent_bytes(&self) -> usize {
        fn swiss_bytes(n: usize, entry: usize) -> usize {
            if n == 0 {
                return 0;
            }
            let buckets = ((n * 8).div_ceil(7)).next_power_of_two();
            buckets * (entry + 1)
        }
        // Pre-overhaul LTime: Vec-backed clock (24) + sources Vec (24).
        let old_ltime = 48;
        let entry = std::mem::size_of::<VarId>() + old_ltime + 8;
        let mut per_lock_read = vec![0usize; self.locks.len()];
        let mut per_lock_write = vec![0usize; self.locks.len()];
        for e in &self.pool {
            let m = e.lock.index();
            if m >= per_lock_read.len() {
                continue;
            }
            per_lock_read[m] += (e.read_pos != 0) as usize;
            per_lock_write[m] += (e.write_pos != 0) as usize;
        }
        let maps: usize = per_lock_read
            .iter()
            .chain(per_lock_write.iter())
            .map(|&n| {
                swiss_bytes(n, entry)
                    + std::mem::size_of::<std::collections::HashMap<VarId, LTime>>()
            })
            .sum();
        // Each folded time's clock was a separate heap vector of its
        // current dimension (plus what the small-size layout still spills).
        let clocks: usize = self
            .read_times
            .iter()
            .chain(self.write_times.iter())
            .map(|lt| {
                lt.clock.dim() * std::mem::size_of::<u32>()
                    + lt.clock.heap_bytes()
                    + lt.sources.capacity() * std::mem::size_of::<(ThreadId, EventId)>()
            })
            .sum();
        maps + clocks
    }
}

/// Per-lock state of [`ReadSectionTable`]: the ongoing *read-mode* critical
/// sections (several can be open at once — that is the point of an rwlock,
/// and why [`LockVarTable`]'s one-generation-per-lock protocol cannot host
/// them) plus the folded access times of completed read sections.
#[derive(Clone, Debug, Default)]
struct ReadLockState {
    /// Open read sections: `(thread, vars read, vars written)`. Vars are
    /// deduplicated by linear scan — read sections are short and rare
    /// relative to accesses.
    ongoing: Vec<(ThreadId, Vec<VarId>, Vec<VarId>)>,
    /// `Lr_r(m,x)`: per variable, the joined release times of completed
    /// read-mode sections that read it.
    read_times: Vec<(VarId, LTime)>,
    /// `Lw_r(m,x)`: likewise for writes (a read-mode section may well
    /// contain writes — that is exactly the captured-RwLock bug shape).
    write_times: Vec<(VarId, LTime)>,
}

impl ReadLockState {
    /// Folds `vars` into `into` at `now`, adding any capacity growth to
    /// `bytes`.
    fn fold(
        into: &mut Vec<(VarId, LTime)>,
        vars: &[VarId],
        now: &VectorClock,
        source: Option<(ThreadId, EventId)>,
        bytes: &mut usize,
    ) {
        for &x in vars {
            match into.iter_mut().find(|(v, _)| *v == x) {
                Some((_, lt)) => lt.absorb(now, source),
                None => {
                    let mut lt = LTime::default();
                    lt.absorb(now, source);
                    push_counted(into, (x, lt), bytes);
                }
            }
        }
    }

    /// Resident bytes: the capacities of the lock's lists.
    fn resident_bytes(&self) -> usize {
        (self.read_times.capacity() + self.write_times.capacity())
            * std::mem::size_of::<(VarId, LTime)>()
            + self.ongoing.capacity() * std::mem::size_of::<(ThreadId, Vec<VarId>, Vec<VarId>)>()
            + self
                .ongoing
                .iter()
                .map(|(_, r, w)| (r.capacity() + w.capacity()) * std::mem::size_of::<VarId>())
                .sum::<usize>()
    }
}

/// Rule (a) metadata for *read-mode* critical sections, the read-side
/// counterpart of [`LockVarTable`]. Kept separate because the mutex table's
/// generation protocol assumes at most one ongoing section per lock, while
/// read sections overlap by design.
///
/// Queries are gated by the *current* hold mode at the access site: a
/// write-mode section conflicts with every prior section, but a read-mode
/// section conflicts only with prior write-mode sections — two read sections
/// on the same lock can overlap in a reordering, so rule (a) must not order
/// them (Genç et al., arXiv:1904.13088).
#[derive(Debug, Default)]
pub struct ReadSectionTable {
    per_lock: Vec<ReadLockState>,
    /// Whether any read section was ever opened — lets the non-rwlock hot
    /// path skip every query with one branch.
    any: bool,
    track_sources: bool,
    /// Running sum of every lock's list capacities, in bytes: grown by
    /// pushes, and shrunk when a closing section's variable lists are
    /// dropped, so [`resident_bytes`](Self::resident_bytes) is O(1).
    lists: usize,
}

/// A cloned `Vec` has capacity equal to its length, so the copy recounts.
impl Clone for ReadSectionTable {
    fn clone(&self) -> Self {
        let mut copy = ReadSectionTable {
            per_lock: self.per_lock.clone(),
            any: self.any,
            track_sources: self.track_sources,
            lists: 0,
        };
        copy.lists = copy.walk_list_bytes();
        copy
    }
}

impl ReadSectionTable {
    /// Creates a table; `track_sources` enables graph-edge recording.
    pub fn new(track_sources: bool) -> Self {
        ReadSectionTable {
            track_sources,
            ..ReadSectionTable::default()
        }
    }

    /// `true` while no read-mode section has ever been opened.
    #[inline]
    pub fn is_empty(&self) -> bool {
        !self.any
    }

    /// Opens a read section on `m` by `t` (at `acqr`).
    pub fn open(&mut self, t: ThreadId, m: LockId) {
        self.any = true;
        let st = slot(&mut self.per_lock, m.index());
        if !st.ongoing.iter().any(|(u, ..)| *u == t) {
            push_counted(
                &mut st.ongoing,
                (t, Vec::new(), Vec::new()),
                &mut self.lists,
            );
        }
    }

    /// Marks `x` as read in `t`'s ongoing read section on `m`.
    pub fn mark_read(&mut self, t: ThreadId, m: LockId, x: VarId) {
        let st = slot(&mut self.per_lock, m.index());
        if let Some((_, reads, _)) = st.ongoing.iter_mut().find(|(u, ..)| *u == t) {
            if !reads.contains(&x) {
                push_counted(reads, x, &mut self.lists);
            }
        }
    }

    /// Marks `x` as written in `t`'s ongoing read section on `m`.
    pub fn mark_write(&mut self, t: ThreadId, m: LockId, x: VarId) {
        let st = slot(&mut self.per_lock, m.index());
        if let Some((.., writes)) = st.ongoing.iter_mut().find(|(u, ..)| *u == t) {
            if !writes.contains(&x) {
                push_counted(writes, x, &mut self.lists);
            }
        }
    }

    /// Closes `t`'s read section on `m` at time `now`, folding its accessed
    /// variables into the completed-section times.
    pub fn close(&mut self, t: ThreadId, m: LockId, now: &VectorClock, release_event: EventId) {
        let source = self.track_sources.then_some((t, release_event));
        let st = slot(&mut self.per_lock, m.index());
        if let Some(pos) = st.ongoing.iter().position(|(u, ..)| *u == t) {
            let (_, reads, writes) = st.ongoing.remove(pos);
            self.lists -= (reads.capacity() + writes.capacity()) * std::mem::size_of::<VarId>();
            ReadLockState::fold(&mut st.read_times, &reads, now, source, &mut self.lists);
            ReadLockState::fold(&mut st.write_times, &writes, now, source, &mut self.lists);
        }
    }

    /// `Lr_r(m,x)` — joined release times of completed read sections on `m`
    /// that read `x`.
    #[inline]
    pub fn read_time(&self, m: LockId, x: VarId) -> Option<&LTime> {
        self.per_lock
            .get(m.index())?
            .read_times
            .iter()
            .find(|(v, _)| *v == x)
            .map(|(_, lt)| lt)
    }

    /// `Lw_r(m,x)` — likewise for writes performed under read-mode holds.
    #[inline]
    pub fn write_time(&self, m: LockId, x: VarId) -> Option<&LTime> {
        self.per_lock
            .get(m.index())?
            .write_times
            .iter()
            .find(|(v, _)| *v == x)
            .map(|(_, lt)| lt)
    }

    /// Exact heap bytes including per-entry clock spill.
    pub fn footprint_bytes(&self) -> usize {
        self.resident_bytes()
            + self
                .per_lock
                .iter()
                .flat_map(|st| st.read_times.iter().chain(st.write_times.iter()))
                .map(|(_, lt)| {
                    lt.clock.heap_bytes()
                        + lt.sources.capacity() * std::mem::size_of::<(ThreadId, EventId)>()
                })
                .sum::<usize>()
    }

    /// Cheap resident bytes (capacities only, O(1)).
    pub fn resident_bytes(&self) -> usize {
        debug_assert_eq!(self.lists, self.walk_list_bytes(), "read section bytes");
        self.per_lock.capacity() * std::mem::size_of::<ReadLockState>() + self.lists
    }

    /// What the running list count holds, by walking every lock: O(#locks).
    fn walk_list_bytes(&self) -> usize {
        self.per_lock
            .iter()
            .map(ReadLockState::resident_bytes)
            .sum()
    }
}

/// The conflicting-critical-section metadata of Algorithms 1 and 2: the
/// held locks, the per-(lock, variable) access times of exclusive sections,
/// and the times of read-mode sections. Shared by the Unopt and FTO rows of
/// WCP, DC and WDC.
#[derive(Clone, Debug, Default)]
pub struct CsTables {
    held: HeldLocks,
    lockvar: LockVarTable,
    read_sections: ReadSectionTable,
}

impl CsTables {
    /// Creates the tables; `track_sources` enables graph-edge recording.
    pub fn new(track_sources: bool) -> Self {
        CsTables {
            held: HeldLocks::new(),
            lockvar: LockVarTable::new(track_sources),
            read_sections: ReadSectionTable::new(track_sources),
        }
    }

    /// At `acq(m)` by `t`: records the hold (a read-mode hold also opens a
    /// read section).
    pub fn acquire(&mut self, t: ThreadId, m: LockId, mode: LockMode) {
        self.held.acquire(t, m, mode);
        if mode == LockMode::Read {
            self.read_sections.open(t, m);
        }
    }

    /// At `rel(m)` by `t`: ends the hold and returns its mode.
    pub fn release(&mut self, t: ThreadId, m: LockId) -> LockMode {
        self.held.release(t, m)
    }

    /// Folds the section `t` just released on `m` (in `mode`) into the
    /// access times, at release time `now` (Algorithm 1 lines 9–11 /
    /// Algorithm 2 lines 10–12). `release_event` identifies the release for
    /// graph recording.
    pub fn fold(
        &mut self,
        t: ThreadId,
        m: LockId,
        mode: LockMode,
        now: &VectorClock,
        release_event: EventId,
    ) {
        match mode {
            LockMode::Exclusive => self.lockvar.on_release(t, m, now, release_event),
            LockMode::Read => self.read_sections.close(t, m, now, release_event),
        }
    }

    /// Rule (a) for an access to `x` by `t` (Algorithm 1 lines 14–16 /
    /// 21–23, Algorithm 2 lines 16–19 / 29–31): for every held lock, passes
    /// the recorded times of prior conflicting critical sections to `join`,
    /// then marks `x` in the ongoing section.
    ///
    /// A write conflicts with prior reads and writes, a read with prior
    /// writes. `fto` selects Algorithm 2's marking, where `Rm` stands for
    /// reads *and* writes. Prior read-mode sections conflict only when the
    /// current hold is write-mode (read/read section pairs never do).
    pub fn rule_a(
        &mut self,
        t: ThreadId,
        x: VarId,
        write: bool,
        fto: bool,
        mut join: impl FnMut(&LTime),
    ) {
        for &(m, held_write) in self.held.of(t) {
            let mut times = [
                self.lockvar.read_time(m, x).filter(|_| write),
                self.lockvar.write_time(m, x),
                None,
                None,
            ];
            if !self.read_sections.is_empty() && held_write {
                times[2] = self.read_sections.read_time(m, x).filter(|_| write);
                times[3] = self.read_sections.write_time(m, x);
            }
            times.into_iter().flatten().for_each(&mut join);
            let (mark_read, mark_write) = (fto || !write, write);
            if held_write {
                if mark_read {
                    self.lockvar.mark_read(m, x);
                }
                if mark_write {
                    self.lockvar.mark_write(m, x);
                }
            } else {
                if mark_read {
                    self.read_sections.mark_read(t, m, x);
                }
                if mark_write {
                    self.read_sections.mark_write(t, m, x);
                }
            }
        }
    }

    /// Pre-sizes the per-lock table.
    pub fn reserve_locks(&mut self, locks: Option<usize>) {
        if let Some(locks) = locks {
            self.lockvar.reserve_locks(locks);
        }
    }

    /// Exact heap bytes including per-entry clock spill.
    pub fn footprint_bytes(&self) -> usize {
        self.held.footprint_bytes()
            + self.lockvar.footprint_bytes()
            + self.read_sections.footprint_bytes()
    }

    /// Cheap resident bytes (capacities only).
    pub fn resident_bytes(&self) -> usize {
        self.held.footprint_bytes()
            + self.lockvar.resident_bytes()
            + self.read_sections.resident_bytes()
    }
}

/// Per-barrier rendezvous clock state shared by every detector family.
///
/// A barrier round is an all-to-all release/acquire: every
/// [`enter`](BarrierRendezvous::enter) publishes the arriving thread's
/// clock into the round's *gather* clock, and every
/// [`exit`](BarrierRendezvous::exit) of the round joins the gathered clock
/// (the join of **all** enter-time clocks) back into the leaving thread.
/// The first exit seals the round — the trace layer guarantees no further
/// enters until every party of the round has exited (see
/// `StreamValidator`), and when a detector is driven with raw unvalidated
/// events an out-of-protocol enter simply starts a fresh round.
///
/// Graph mode gathers the rounds' enter events instead of their clocks
/// (`T = Vec<EventId>`), so its edges follow the same rounds.
#[derive(Clone, Debug, Default)]
pub struct BarrierRendezvous<T = VectorClock> {
    /// What the round currently gathering collected from its enters.
    gather: T,
    /// The sealed gather of the round currently draining.
    open: T,
    /// Parties that entered the gathering round.
    entered: u32,
    /// Parties of the draining round that have exited (0 = gathering).
    exited: u32,
}

impl BarrierRendezvous {
    /// Records an enter by a thread whose clock is `now`.
    pub fn enter(&mut self, now: &VectorClock) {
        self.enter_with(|gather| gather.join(now));
    }

    /// Exact heap bytes of the two clocks.
    pub fn heap_bytes(&self) -> usize {
        self.gather.heap_bytes() + self.open.heap_bytes()
    }
}

impl<T: Default> BarrierRendezvous<T> {
    /// Records an enter, which `add` folds into the gathering round.
    pub fn enter_with(&mut self, add: impl FnOnce(&mut T)) {
        if self.exited > 0 {
            // Out-of-protocol enter while draining (impossible on validated
            // streams): be benign and start a fresh round.
            self.entered = 0;
            self.exited = 0;
        }
        add(&mut self.gather);
        self.entered += 1;
    }

    /// Records an exit and returns the sealed rendezvous gather (the clock
    /// the leaving thread must join).
    pub fn exit(&mut self) -> &T {
        if self.exited == 0 {
            // First exit seals the round.
            self.open = std::mem::take(&mut self.gather);
        }
        self.exited += 1;
        if self.exited >= self.entered {
            // Round complete: the next round gathers afresh.
            self.entered = 0;
            self.exited = 0;
        }
        &self.open
    }
}

/// Exact bytes of a table of barrier rendezvous states: slot capacity plus
/// each clock's heap spill.
#[allow(clippy::ptr_arg)]
pub fn barrier_table_bytes(barriers: &Vec<BarrierRendezvous>) -> usize {
    barriers
        .iter()
        .map(BarrierRendezvous::heap_bytes)
        .sum::<usize>()
        + barrier_table_resident_bytes(barriers)
}

/// Cheap resident bytes of a table of barrier rendezvous states: O(1),
/// capacity only.
#[allow(clippy::ptr_arg)]
#[inline]
pub fn barrier_table_resident_bytes(barriers: &Vec<BarrierRendezvous>) -> usize {
    barriers.capacity() * std::mem::size_of::<BarrierRendezvous>()
}

/// Exact bytes of a table of vector clocks: slot capacity plus each
/// clock's heap spill. Always at least [`vc_table_resident_bytes`].
#[allow(clippy::ptr_arg)]
pub fn vc_table_bytes(vcs: &Vec<VectorClock>) -> usize {
    vcs.iter().map(VectorClock::heap_bytes).sum::<usize>() + vc_table_resident_bytes(vcs)
}

/// Cheap resident bytes of a table of vector clocks: O(1), capacity only.
/// Heap spills (clocks wider than [`smarttrack_clock::INLINE_CLOCKS`])
/// are picked up by the exact end-of-stream walk instead.
#[allow(clippy::ptr_arg)]
#[inline]
pub fn vc_table_resident_bytes(vcs: &Vec<VectorClock>) -> usize {
    vcs.capacity() * std::mem::size_of::<VectorClock>()
}

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }

    /// Seeded traffic through [`CsTables`]: 14 threads nest up to three
    /// read- or write-mode sections over 30 locks and access 40 variables
    /// under them, and the tables are cloned mid-stream. After every
    /// operation the running mark and list counts equal their walks.
    #[test]
    fn running_table_counts_match_the_walks() {
        for seed in 0..4u32 {
            let mut rng = SmallRng::seed_from_u64(seed.into());
            let mut cs = CsTables::new(seed % 2 == 1);
            let mut holds: Vec<Vec<LockId>> = vec![Vec::new(); 14];
            for step in 0..3_000u32 {
                let ti = rng.gen_range(0..14);
                let (tid, held) = (t(ti), &mut holds[ti as usize]);
                match rng.gen_range(0..4) {
                    0 if held.len() < 3 => {
                        let lock = m(rng.gen_range(0..30));
                        if !held.contains(&lock) {
                            let read = rng.gen_bool(0.3);
                            let mode = LockMode::of_write(!read);
                            cs.acquire(tid, lock, mode);
                            held.push(lock);
                        }
                    }
                    1 if !held.is_empty() => {
                        let lock = held.remove(rng.gen_range(0..held.len()));
                        let mode = cs.release(tid, lock);
                        let now: VectorClock = [(tid, step + 1)].into_iter().collect();
                        cs.fold(tid, lock, mode, &now, EventId::new(step));
                    }
                    _ => {
                        let var = x(rng.gen_range(0..40));
                        cs.rule_a(tid, var, rng.gen_bool(0.5), seed % 2 == 0, |_| {});
                    }
                }
                if step == 1_500 {
                    cs = cs.clone();
                }
                let at = format!("seed {seed}, step {step}");
                let (lockvar, reads) = (&cs.lockvar, &cs.read_sections);
                assert_eq!(lockvar.marks, lockvar.walk_mark_bytes(), "{at}");
                assert_eq!(reads.lists, reads.walk_list_bytes(), "{at}");
            }
            assert!(cs.lockvar.marks > 0 && cs.read_sections.lists > 0);
        }
    }

    #[test]
    fn held_locks_track_nesting_and_release() {
        let mut h = HeldLocks::new();
        h.acquire(t(0), m(0), LockMode::Exclusive);
        h.acquire(t(0), m(1), LockMode::Exclusive);
        assert_eq!(h.of(t(0)), &[(m(0), true), (m(1), true)]);
        assert_eq!(
            h.release(t(0), m(0)),
            LockMode::Exclusive,
            "non-LIFO release allowed"
        );
        assert_eq!(h.of(t(0)), &[(m(1), true)]);
        assert!(h.of(t(1)).is_empty());
    }

    #[test]
    fn held_locks_report_read_mode_holds() {
        let mut h = HeldLocks::new();
        h.acquire(t(0), m(0), LockMode::Read);
        h.acquire(t(0), m(1), LockMode::Exclusive);
        assert_eq!(h.of(t(0)), &[(m(0), false), (m(1), true)]);
        assert_eq!(
            h.release(t(0), m(0)),
            LockMode::Read,
            "read-mode hold ends as read-mode"
        );
        assert_eq!(h.release(t(0), m(1)), LockMode::Exclusive);
    }

    #[test]
    fn read_section_table_folds_overlapping_sections() {
        let mut rt = ReadSectionTable::new(false);
        assert!(rt.is_empty());
        // Two overlapping read sections on m0, one writing x0, one reading.
        rt.open(t(0), m(0));
        rt.open(t(1), m(0));
        assert!(!rt.is_empty());
        rt.mark_write(t(0), m(0), x(0));
        rt.mark_read(t(1), m(0), x(0));
        assert!(rt.write_time(m(0), x(0)).is_none(), "not folded yet");
        let now0: VectorClock = [(t(0), 4)].into_iter().collect();
        rt.close(t(0), m(0), &now0, EventId::new(5));
        let now1: VectorClock = [(t(1), 6)].into_iter().collect();
        rt.close(t(1), m(0), &now1, EventId::new(8));
        assert_eq!(rt.write_time(m(0), x(0)).unwrap().clock.get(t(0)), 4);
        let read = rt.read_time(m(0), x(0)).unwrap();
        assert_eq!(read.clock.get(t(1)), 6);
        assert_eq!(read.clock.get(t(0)), 0, "sections fold independently");
    }

    #[test]
    fn read_section_table_records_sources_in_graph_mode() {
        let mut rt = ReadSectionTable::new(true);
        rt.open(t(0), m(0));
        rt.mark_read(t(0), m(0), x(1));
        let now: VectorClock = [(t(0), 2)].into_iter().collect();
        rt.close(t(0), m(0), &now, EventId::new(7));
        assert_eq!(
            rt.read_time(m(0), x(1)).unwrap().sources,
            vec![(t(0), EventId::new(7))]
        );
    }

    #[test]
    fn lockvar_table_folds_release_times() {
        let mut lt = LockVarTable::new(false);
        lt.mark_read(m(0), x(1));
        lt.mark_write(m(0), x(2));
        assert!(lt.read_time(m(0), x(1)).is_none(), "not folded yet");
        let now: VectorClock = [(t(0), 5)].into_iter().collect();
        lt.on_release(t(0), m(0), &now, EventId::new(9));
        assert_eq!(lt.read_time(m(0), x(1)).unwrap().clock.get(t(0)), 5);
        assert_eq!(lt.write_time(m(0), x(2)).unwrap().clock.get(t(0)), 5);
        assert!(lt.read_time(m(0), x(2)).is_none());
        // Current sets cleared.
        let now2: VectorClock = [(t(0), 9)].into_iter().collect();
        lt.on_release(t(0), m(0), &now2, EventId::new(12));
        assert_eq!(
            lt.read_time(m(0), x(1)).unwrap().clock.get(t(0)),
            5,
            "second critical section did not access x1"
        );
    }

    #[test]
    fn lockvar_table_records_sources_in_graph_mode() {
        let mut lt = LockVarTable::new(true);
        lt.mark_write(m(0), x(0));
        let now: VectorClock = [(t(1), 2)].into_iter().collect();
        lt.on_release(t(1), m(0), &now, EventId::new(4));
        let time = lt.write_time(m(0), x(0)).unwrap();
        assert_eq!(time.sources, vec![(t(1), EventId::new(4))]);
        // A later release by the same thread replaces the source.
        lt.mark_write(m(0), x(0));
        let now2: VectorClock = [(t(1), 7)].into_iter().collect();
        lt.on_release(t(1), m(0), &now2, EventId::new(11));
        let time = lt.write_time(m(0), x(0)).unwrap();
        assert_eq!(time.sources, vec![(t(1), EventId::new(11))]);
    }

    #[test]
    fn duplicate_marks_within_one_critical_section_fold_once() {
        let mut lt = LockVarTable::new(false);
        lt.mark_read(m(0), x(0));
        lt.mark_read(m(0), x(0));
        lt.mark_read(m(0), x(0));
        let now: VectorClock = [(t(0), 3)].into_iter().collect();
        lt.on_release(t(0), m(0), &now, EventId::new(1));
        assert_eq!(lt.read_time(m(0), x(0)).unwrap().clock.get(t(0)), 3);
        // Marks in a *new* critical section are fresh despite identical
        // stamps space (generation bumped).
        lt.mark_read(m(0), x(0));
        let now2: VectorClock = [(t(0), 8)].into_iter().collect();
        lt.on_release(t(0), m(0), &now2, EventId::new(2));
        assert_eq!(lt.read_time(m(0), x(0)).unwrap().clock.get(t(0)), 8);
    }

    #[test]
    fn dense_layout_undercuts_hashmap_equivalent() {
        let mut lt = LockVarTable::new(false);
        for v in 0..64u32 {
            lt.mark_read(m(0), x(v));
            lt.mark_write(m(1), x(v));
        }
        let now: VectorClock = [(t(0), 2)].into_iter().collect();
        lt.on_release(t(0), m(0), &now, EventId::new(1));
        lt.on_release(t(0), m(1), &now, EventId::new(2));
        assert!(lt.footprint_bytes() > 0, "dense tables report their bytes");
    }
}

use std::collections::HashSet;
use std::fmt;

use smarttrack_clock::ThreadId;
use smarttrack_trace::{EventId, Loc, VarId};

/// The kind of an access (in a race report: of the access that detected
/// the race).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The detecting access is a read (write–read race).
    Read,
    /// The detecting access is a write (write–write and/or read–write race).
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// A race detected at a single access event.
///
/// Following the paper (§5.1), multiple failed race checks at one access
/// (e.g. a write racing with several last readers) count as a *single*
/// dynamic race; the threads of all prior conflicting accesses are collected
/// in [`RaceReport::prior_threads`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// The access event that detected the race.
    pub event: EventId,
    /// The static program location of that access (what "statically distinct
    /// races" are counted by).
    pub loc: Loc,
    /// The thread performing the detecting access.
    pub tid: ThreadId,
    /// The variable raced on.
    pub var: VarId,
    /// Whether the detecting access is a read or a write.
    pub kind: AccessKind,
    /// Threads of the prior conflicting accesses found unordered, in
    /// increasing id order once recorded in a [`Report`].
    pub prior_threads: Vec<ThreadId>,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "race on {} at {} ({} by {} at {})",
            self.var, self.event, self.kind, self.tid, self.loc
        )
    }
}

/// All races reported by one analysis run.
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, UnoptWdc};
/// use smarttrack_trace::paper;
///
/// let mut det = UnoptWdc::new();
/// run_detector(&mut det, &paper::figure1());
/// let report = det.report();
/// assert_eq!(report.dynamic_count(), 1);
/// assert_eq!(report.static_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Report {
    races: Vec<RaceReport>,
    /// Running sum of the races' prior-thread list capacities, in bytes:
    /// each list is complete when its race is pushed, so
    /// [`footprint_bytes`](Report::footprint_bytes) is O(1).
    prior_bytes: usize,
}

/// A cloned `Vec` has capacity equal to its length, so the copy recounts.
impl Clone for Report {
    fn clone(&self) -> Self {
        let races = self.races.clone();
        let prior_bytes = Report::walk_prior_bytes(&races);
        Report { races, prior_bytes }
    }
}

/// Reports are equal when their races are; capacities do not matter.
impl PartialEq for Report {
    fn eq(&self, other: &Self) -> bool {
        self.races == other.races
    }
}

impl Eq for Report {}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records a race (one per detecting access), its prior threads sorted
    /// by thread id.
    pub fn push(&mut self, mut race: RaceReport) {
        race.prior_threads.sort_unstable();
        self.prior_bytes += race.prior_threads.capacity() * std::mem::size_of::<ThreadId>();
        self.races.push(race);
    }

    /// Records the race an access found, if its check named any racing
    /// prior thread (one dynamic race per detecting access, §5.1).
    pub(crate) fn record(
        &mut self,
        event: EventId,
        loc: Loc,
        tid: ThreadId,
        var: VarId,
        kind: AccessKind,
        prior_threads: Vec<ThreadId>,
    ) {
        if !prior_threads.is_empty() {
            self.push(RaceReport {
                event,
                loc,
                tid,
                var,
                kind,
                prior_threads,
            });
        }
    }

    /// All reported races in detection order.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Total dynamic races (one per access event that detected ≥ 1 race).
    pub fn dynamic_count(&self) -> usize {
        self.races.len()
    }

    /// Statically distinct races: distinct program locations that detected a
    /// race (§5.6: "Two dynamic races detected at the same static program
    /// location are the same statically unique race").
    pub fn static_count(&self) -> usize {
        self.races
            .iter()
            .map(|r| r.loc)
            .collect::<HashSet<_>>()
            .len()
    }

    /// Event id of the first detected race, if any (used by the differential
    /// tests: all optimization levels of one relation agree up to the first
    /// race).
    pub fn first_race_event(&self) -> Option<EventId> {
        self.races.first().map(|r| r.event)
    }

    /// Returns `true` if no races were detected.
    pub fn is_empty(&self) -> bool {
        self.races.is_empty()
    }

    /// Approximate heap bytes held by the report (part of analysis state):
    /// O(1), from the running prior-thread count.
    pub fn footprint_bytes(&self) -> usize {
        debug_assert_eq!(self.prior_bytes, Report::walk_prior_bytes(&self.races));
        self.races.capacity() * std::mem::size_of::<RaceReport>() + self.prior_bytes
    }

    /// What the running prior-thread count holds, by walking `races`.
    fn walk_prior_bytes(races: &[RaceReport]) -> usize {
        races
            .iter()
            .map(|r| r.prior_threads.capacity() * std::mem::size_of::<ThreadId>())
            .sum()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} static / {} dynamic races",
            self.static_count(),
            self.dynamic_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn report_at(event: u32, loc: u32) -> RaceReport {
        RaceReport {
            event: EventId::new(event),
            loc: Loc::new(loc),
            tid: ThreadId::new(0),
            var: VarId::new(0),
            kind: AccessKind::Write,
            prior_threads: vec![ThreadId::new(1)],
        }
    }

    #[test]
    fn static_count_dedupes_by_location() {
        let mut r = Report::new();
        r.push(report_at(1, 10));
        r.push(report_at(5, 10));
        r.push(report_at(9, 11));
        assert_eq!(r.dynamic_count(), 3);
        assert_eq!(r.static_count(), 2);
        assert_eq!(r.first_race_event(), Some(EventId::new(1)));
    }

    /// Seeded races with prior-thread lists of assorted capacities, some
    /// recorded empty: after every one the running count equals the walk,
    /// across a mid-stream `clone()`, and the clone equals the original.
    #[test]
    fn running_prior_bytes_match_the_walk() {
        for seed in 0..4 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut r = Report::new();
            for i in 0..500u32 {
                let mut prior = Vec::with_capacity(rng.gen_range(0..9));
                for _ in 0..rng.gen_range(0..6) {
                    prior.push(ThreadId::new(rng.gen_range(0..20)));
                }
                let (e, l) = (EventId::new(i), Loc::new(i % 7));
                let (t, x) = (ThreadId::new(0), VarId::new(i % 3));
                r.record(e, l, t, x, AccessKind::Read, prior);
                if i == 250 {
                    let copy = r.clone();
                    assert_eq!(copy, r);
                    r = copy;
                }
                let walk = r.races.capacity() * std::mem::size_of::<RaceReport>()
                    + Report::walk_prior_bytes(&r.races);
                assert_eq!(r.footprint_bytes(), walk, "seed {seed}, race {i}");
            }
        }
    }

    #[test]
    fn empty_report() {
        let r = Report::new();
        assert!(r.is_empty());
        assert_eq!(r.first_race_event(), None);
        assert_eq!(r.to_string(), "0 static / 0 dynamic races");
    }
}

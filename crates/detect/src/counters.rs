//! FTO case frequency counters (Appendix B, Table 12) and hot-path
//! accounting.
//!
//! Table 12 reports, for SmartTrack-WDC, the share of non-same-epoch reads
//! and writes handled by each FTO case. The counters are maintained by every
//! FTO- and SmartTrack-based detector in this crate (and, since the hot-path
//! metadata overhaul, by [`Ft2`](crate::Ft2) too). [`HotPathStats`]
//! condenses them into the fast-path/slow-path split every detector
//! reports, paired with its resident state bytes.

use std::fmt;

/// One case of the FTO/SmartTrack access handlers (paper Algorithms 2 and 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FtoCase {
    /// `[Read Same Epoch]`
    ReadSameEpoch,
    /// `[Shared Same Epoch]`
    SharedSameEpoch,
    /// `[Read Owned]` — "Owned Excl" in Table 12.
    ReadOwned,
    /// `[Read Shared Owned]` — "Owned Shared".
    ReadSharedOwned,
    /// `[Read Exclusive]` — "Unowned Excl".
    ReadExclusive,
    /// `[Read Share]` — "Unowned Share".
    ReadShare,
    /// `[Read Shared]` — "Unowned Shared".
    ReadShared,
    /// `[Write Same Epoch]`
    WriteSameEpoch,
    /// `[Write Owned]` — "Owned Excl".
    WriteOwned,
    /// `[Write Exclusive]` — "Unowned Excl".
    WriteExclusive,
    /// `[Write Shared]` — "Shared".
    WriteShared,
}

impl FtoCase {
    const COUNT: usize = 11;

    /// The case's position in [`FtoCase::ALL`] (a dense counter index).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FtoCase::ReadSameEpoch => 0,
            FtoCase::SharedSameEpoch => 1,
            FtoCase::ReadOwned => 2,
            FtoCase::ReadSharedOwned => 3,
            FtoCase::ReadExclusive => 4,
            FtoCase::ReadShare => 5,
            FtoCase::ReadShared => 6,
            FtoCase::WriteSameEpoch => 7,
            FtoCase::WriteOwned => 8,
            FtoCase::WriteExclusive => 9,
            FtoCase::WriteShared => 10,
        }
    }

    /// All cases, in Table 12 presentation order.
    pub const ALL: [FtoCase; 11] = [
        FtoCase::ReadSameEpoch,
        FtoCase::SharedSameEpoch,
        FtoCase::ReadOwned,
        FtoCase::ReadSharedOwned,
        FtoCase::ReadExclusive,
        FtoCase::ReadShare,
        FtoCase::ReadShared,
        FtoCase::WriteSameEpoch,
        FtoCase::WriteOwned,
        FtoCase::WriteExclusive,
        FtoCase::WriteShared,
    ];
}

impl fmt::Display for FtoCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FtoCase::ReadSameEpoch => "Read Same Epoch",
            FtoCase::SharedSameEpoch => "Shared Same Epoch",
            FtoCase::ReadOwned => "Read Owned",
            FtoCase::ReadSharedOwned => "Read Shared Owned",
            FtoCase::ReadExclusive => "Read Exclusive",
            FtoCase::ReadShare => "Read Share",
            FtoCase::ReadShared => "Read Shared",
            FtoCase::WriteSameEpoch => "Write Same Epoch",
            FtoCase::WriteOwned => "Write Owned",
            FtoCase::WriteExclusive => "Write Exclusive",
            FtoCase::WriteShared => "Write Shared",
        };
        f.write_str(name)
    }
}

/// Frequencies of the FTO cases over one analysis run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FtoCaseCounters {
    counts: [u64; FtoCase::COUNT],
}

impl FtoCaseCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        FtoCaseCounters::default()
    }

    /// Records one occurrence of `case`.
    #[inline]
    pub fn hit(&mut self, case: FtoCase) {
        self.counts[case.index()] += 1;
    }

    /// Records `n` occurrences of `case` at once (used when merging counters
    /// collected elsewhere, e.g. the parallel analyses' atomic counters).
    #[inline]
    pub fn add(&mut self, case: FtoCase, n: u64) {
        self.counts[case.index()] += n;
    }

    /// Occurrences of `case`.
    pub fn count(&self, case: FtoCase) -> u64 {
        self.counts[case.index()]
    }

    /// Total non-same-epoch reads (Table 12's read `Total` column).
    pub fn nse_reads(&self) -> u64 {
        self.count(FtoCase::ReadOwned)
            + self.count(FtoCase::ReadSharedOwned)
            + self.count(FtoCase::ReadExclusive)
            + self.count(FtoCase::ReadShare)
            + self.count(FtoCase::ReadShared)
    }

    /// Total non-same-epoch writes (Table 12's write `Total` column).
    pub fn nse_writes(&self) -> u64 {
        self.count(FtoCase::WriteOwned)
            + self.count(FtoCase::WriteExclusive)
            + self.count(FtoCase::WriteShared)
    }

    /// Percentage of non-same-epoch reads taking `case` (0 if none).
    pub fn read_pct(&self, case: FtoCase) -> f64 {
        let total = self.nse_reads();
        if total == 0 {
            0.0
        } else {
            100.0 * self.count(case) as f64 / total as f64
        }
    }

    /// Percentage of non-same-epoch writes taking `case` (0 if none).
    pub fn write_pct(&self, case: FtoCase) -> f64 {
        let total = self.nse_writes();
        if total == 0 {
            0.0
        } else {
            100.0 * self.count(case) as f64 / total as f64
        }
    }

    /// Accesses handled by a same-epoch fast path (`[Read Same Epoch]`,
    /// `[Shared Same Epoch]`, `[Write Same Epoch]`): O(1), no clock walked,
    /// no metadata updated — the paths SmartTrack's design keeps hot.
    pub fn fast_hits(&self) -> u64 {
        self.count(FtoCase::ReadSameEpoch)
            + self.count(FtoCase::SharedSameEpoch)
            + self.count(FtoCase::WriteSameEpoch)
    }

    /// Accesses that fell through to a non-same-epoch case.
    pub fn slow_hits(&self) -> u64 {
        self.nse_reads() + self.nse_writes()
    }
}

/// The fast-path/slow-path split of one analysis run, paired with its
/// resident metadata bytes — the accounting every [`Detector`](crate::Detector)
/// reports via [`hot_path_stats`](crate::Detector::hot_path_stats).
///
/// *Fast* hits are accesses fully handled by a same-epoch check (no vector
/// clock touched); *slow* hits are every other access. Synchronization
/// operations are counted in neither. The Unopt variants, which keep no FTO
/// case counters, count their §5.1 same-epoch-like hits as fast.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotPathStats {
    /// Accesses handled entirely by an epoch fast path.
    pub fast_hits: u64,
    /// Accesses that ran a full (vector-clock or CCS) handler.
    pub slow_hits: u64,
    /// Resident metadata bytes right now (the cheap running estimate, see
    /// [`Detector::state_bytes`](crate::Detector::state_bytes)).
    pub state_bytes: usize,
}

impl HotPathStats {
    /// The split of `hits`, beside `state_bytes`.
    pub(crate) fn of(hits: PathCounters, state_bytes: usize) -> Self {
        HotPathStats {
            fast_hits: hits.fast,
            slow_hits: hits.slow,
            state_bytes,
        }
    }

    /// Fraction of accesses taking the fast path (0 when no accesses ran).
    pub fn fast_fraction(&self) -> f64 {
        let total = self.fast_hits + self.slow_hits;
        if total == 0 {
            0.0
        } else {
            self.fast_hits as f64 / total as f64
        }
    }
}

/// Plain fast/slow hit counters: what detectors that do not track the full
/// FTO case vector keep (the Unopt variants, whose only fast path is the
/// §5.1 same-epoch-like check), and the split every column reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathCounters {
    /// Accesses a same-epoch check handled.
    pub fast: u64,
    /// Every other access.
    pub slow: u64,
}

impl fmt::Display for HotPathStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fast / {} slow ({:.1}% fast), {} state bytes",
            self.fast_hits,
            self.slow_hits,
            100.0 * self.fast_fraction(),
            self.state_bytes
        )
    }
}

impl fmt::Display for FtoCaseCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for case in FtoCase::ALL {
            writeln!(f, "{case}: {}", self.count(case))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_split_reads_and_writes() {
        let mut c = FtoCaseCounters::new();
        c.hit(FtoCase::ReadOwned);
        c.hit(FtoCase::ReadOwned);
        c.hit(FtoCase::ReadShare);
        c.hit(FtoCase::WriteExclusive);
        c.hit(FtoCase::ReadSameEpoch); // not a NSE access
        assert_eq!(c.nse_reads(), 3);
        assert_eq!(c.nse_writes(), 1);
        assert!((c.read_pct(FtoCase::ReadOwned) - 66.66).abs() < 0.01);
        assert!((c.write_pct(FtoCase::WriteExclusive) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_totals_give_zero_percentages() {
        let c = FtoCaseCounters::new();
        assert_eq!(c.read_pct(FtoCase::ReadOwned), 0.0);
        assert_eq!(c.write_pct(FtoCase::WriteShared), 0.0);
    }
}

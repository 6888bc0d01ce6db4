//! Happens-before analyses: the non-predictive baselines of the paper.
//!
//! Every Table 1 HB cell is one [`HbRow`] over an optimization column:
//!
//! * [`UnoptHb`] — classic vector-clock (DJIT+-style) HB analysis.
//! * [`Ft2`] — the FastTrack2 algorithm (Flanagan & Freund 2017).
//! * [`FtoHb`] — FastTrack-Ownership (Wood et al. 2017), the HB baseline the
//!   paper compares everything against.
//!
//! [`RoadRunnerFt2`] stays its own struct: its §5.4 race handling deviates
//! on purpose.

mod ft2;
mod fto;
mod rrft2;
mod sync_state;
mod unopt;

pub use ft2::Ft2;
pub use fto::FtoHb;
pub use rrft2::RoadRunnerFt2;
pub use unopt::UnoptHb;

pub(crate) use sync_state::{HbClocks, HbSyncState};

use smarttrack_clock::{Epoch, ThreadId};
use smarttrack_trace::{Event, EventId, LockId};

use crate::column::{Column, Counts};
use crate::edges::HardEdges;
use crate::lower::{lower, Access, ClockRow, LockMode};
use crate::{Detector, FtoCaseCounters, HotPathStats, OptLevel, Relation, Report, StreamHint};

/// The HB row of Table 1 over column `C`: lock clocks order every release
/// before later acquires (§5.1), and there are no conflicting critical
/// sections, so the column skips rule (a) and never opens a section.
#[derive(Clone, Debug, Default)]
pub struct HbRow<C> {
    sync: HbSyncState,
    col: C,
}

impl<C: Column> HbRow<C> {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        HbRow::default()
    }
}

impl<C: Column> ClockRow for HbRow<C> {
    type Clocks = HbClocks;

    fn edges(&mut self) -> &mut HardEdges<HbClocks> {
        &mut self.sync.edges
    }

    fn access(&mut self, a: Access) {
        let local = self.sync.edges.local(a.t);
        let edges = &mut self.sync.edges;
        self.col
            .access::<false>(a, local, || edges.clock(a.t), Epoch::leq_vc, None);
    }

    fn acquire(&mut self, _id: EventId, t: ThreadId, m: LockId, mode: LockMode) {
        self.sync.acquire(t, m, mode);
    }

    fn release(&mut self, _id: EventId, t: ThreadId, m: LockId) {
        self.sync.release(t, m);
    }
}

impl<C: Column> Detector for HbRow<C> {
    fn name(&self) -> &'static str {
        match C::LEVEL {
            OptLevel::Unopt => "Unopt-HB",
            OptLevel::Epochs => "FT2",
            OptLevel::Fto => "FTO-HB",
            OptLevel::SmartTrack => unreachable!("SmartTrack-HB is an N/A cell"),
        }
    }

    fn relation(&self) -> Relation {
        Relation::Hb
    }

    fn opt_level(&self) -> OptLevel {
        C::LEVEL
    }

    fn begin_stream(&mut self, hint: StreamHint) {
        self.sync.reserve(&hint);
        self.col.reserve(&hint);
    }

    fn process(&mut self, id: EventId, event: &Event) {
        lower(self, id, event.tid, event.op, event.loc);
    }

    fn report(&self) -> &Report {
        self.col.report()
    }

    fn footprint_bytes(&self) -> usize {
        self.sync.footprint_bytes() + self.col.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        self.sync.resident_bytes() + self.col.resident_bytes()
    }

    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        self.col.counts().case_counters()
    }

    fn hot_path_stats(&self) -> HotPathStats {
        HotPathStats::of(self.col.counts().hits(), self.state_bytes())
    }
}

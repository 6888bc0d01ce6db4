//! Constraint-graph recording for the "Unopt w/ G" analysis variants.
//!
//! Prior work (Roemer et al. 2018) "builds a constraint graph during DC
//! analysis, where nodes represent events and edges represent DC ordering
//! between events, and later uses the constraint graph to build a predicted
//! trace that exposes the race" (§2.4). The recording exists to reproduce
//! the extra time and memory Table 3 measures for it. Nothing here consumes
//! the graph: the `smarttrack-vindicate` crate builds its own.
//!
//! Nodes are event ids; program order is implicit (derivable from the trace),
//! so only cross-thread ordering edges are stored.
//!
//! Only the Unopt DC/WDC cells carry a [`GraphRecorder`]; in every other
//! cell the [`GraphMode`] is [`NoGraph`], and the recording hooks compile
//! away. The row reports its rule (a) and rule (b) joins to the recorder,
//! and lowers each event onto it a second time (it is a [`SyncCore`]), so
//! the recorder names the same hard edges the clock rows apply.

use std::collections::HashMap;
use std::fmt;

use smarttrack_clock::ThreadId;
use smarttrack_trace::{BarrierId, EventId, Loc, LockId, VarId};

use crate::common::{slot, BarrierRendezvous, LTime};
use crate::lower::{LockMode, SyncCore, SyncObj};

/// The analysis rule that produced an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// DC/WDC/WCP rule (a): release of an earlier conflicting critical
    /// section ordered to an access in a later one.
    RuleA,
    /// DC rule (b): release–release ordering of ordered critical sections.
    RuleB,
    /// Hard synchronization order: fork, join, volatile, notify → wait and
    /// barrier edges.
    Sync,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::RuleA => write!(f, "rule-a"),
            EdgeKind::RuleB => write!(f, "rule-b"),
            EdgeKind::Sync => write!(f, "sync"),
        }
    }
}

/// An append-only event graph of cross-thread ordering edges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstraintGraph {
    edges: Vec<(EventId, EventId, EdgeKind)>,
}

impl ConstraintGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        ConstraintGraph::default()
    }

    /// Records the edge `from → to`.
    #[inline]
    pub fn add_edge(&mut self, from: EventId, to: EventId, kind: EdgeKind) {
        self.edges.push((from, to, kind));
    }

    /// All recorded edges in insertion order.
    pub fn edges(&self) -> &[(EventId, EventId, EdgeKind)] {
        &self.edges
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if no edges were recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Approximate heap bytes (this is the memory overhead Table 3's "w/ G"
    /// columns measure).
    pub fn footprint_bytes(&self) -> usize {
        self.edges.capacity() * std::mem::size_of::<(EventId, EventId, EdgeKind)>()
    }
}

impl fmt::Display for ConstraintGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "constraint graph with {} edges", self.len())
    }
}

/// Whether a DC/WDC row records its constraint graph: [`NoGraph`] never,
/// so its hooks compile away; `Option<GraphRecorder>` when `Some`, which
/// the Unopt DC/WDC cells choose at run time.
pub trait GraphMode: Clone + fmt::Debug + Default {
    /// The recorder, while recording.
    fn recorder(&mut self) -> Option<&mut GraphRecorder> {
        None
    }

    /// The graph recorded so far, if recording.
    fn graph(&self) -> Option<&ConstraintGraph> {
        None
    }

    /// Heap bytes of the recorded graph.
    fn footprint_bytes(&self) -> usize {
        self.graph().map_or(0, ConstraintGraph::footprint_bytes)
    }
}

/// Records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoGraph;

impl GraphMode for NoGraph {}

impl GraphMode for Option<GraphRecorder> {
    fn recorder(&mut self) -> Option<&mut GraphRecorder> {
        self.as_mut()
    }

    fn graph(&self) -> Option<&ConstraintGraph> {
        self.as_ref().map(|r| &r.graph)
    }
}

/// Graph mode ("w/ G"): a [`ConstraintGraph`] plus the bookkeeping that
/// names each hard edge's source events.
#[derive(Clone, Debug, Default)]
pub struct GraphRecorder {
    graph: ConstraintGraph,
    /// Last volatile-write event per volatile.
    last_volatile_write: Vec<Option<EventId>>,
    /// Last event per thread (for join edges).
    last_event: Vec<Option<EventId>>,
    /// Pending fork edges: child → fork event.
    pending_fork: HashMap<ThreadId, EventId>,
    /// Latest notify event per (condvar, notifying thread): a wait absorbs
    /// every notifier's clock, so its graph edges come from each notifier's
    /// latest notify (earlier ones are PO-dominated).
    last_notify: Vec<Vec<(ThreadId, EventId)>>,
    /// The enter events of each barrier's rounds.
    barrier_rounds: Vec<BarrierRendezvous<Vec<EventId>>>,
}

impl GraphRecorder {
    /// Event `id` by `t`, before the row handles it: the edge from a
    /// pending fork of `t`.
    pub(crate) fn event(&mut self, id: EventId, t: ThreadId) {
        if let Some(fork) = self.pending_fork.remove(&t) {
            self.graph.add_edge(fork, id, EdgeKind::Sync);
        }
        *slot(&mut self.last_event, t.index()) = Some(id);
    }

    /// Rule (a) joined the section time `time` into the access `to`.
    pub(crate) fn rule_a(&mut self, time: &LTime, to: EventId) {
        for &(_, src) in &time.sources {
            self.graph.add_edge(src, to, EdgeKind::RuleA);
        }
    }

    /// Rule (b) joined the release `from` into the release `to`.
    pub(crate) fn rule_b(&mut self, from: EventId, to: EventId) {
        self.graph.add_edge(from, to, EdgeKind::RuleB);
    }
}

/// The hard edges, lowered onto the recorder exactly as onto the clock
/// rows; accesses and locks order nothing here.
impl SyncCore for GraphRecorder {
    fn read(&mut self, _id: EventId, _t: ThreadId, _x: VarId, _loc: Loc) {}

    fn write(&mut self, _id: EventId, _t: ThreadId, _x: VarId, _loc: Loc) {}

    fn acquire(&mut self, _id: EventId, _t: ThreadId, _m: LockId, _mode: LockMode) {}

    fn release(&mut self, _id: EventId, _t: ThreadId, _m: LockId) {}

    fn publish(&mut self, id: EventId, t: ThreadId, obj: SyncObj) {
        match obj {
            SyncObj::Volatile(v) => {
                if let Some(src) = slot(&mut self.last_volatile_write, v.index()).replace(id) {
                    self.graph.add_edge(src, id, EdgeKind::Sync);
                }
            }
            SyncObj::Cond(c) => {
                let sources = slot(&mut self.last_notify, c.index());
                match sources.iter_mut().find(|(u, _)| *u == t) {
                    Some(entry) => entry.1 = id,
                    None => sources.push((t, id)),
                }
            }
        }
    }

    fn absorb(&mut self, id: EventId, _t: ThreadId, obj: SyncObj) {
        match obj {
            SyncObj::Volatile(v) => {
                if let Some(src) = self.last_volatile_write.get(v.index()).copied().flatten() {
                    self.graph.add_edge(src, id, EdgeKind::Sync);
                }
            }
            // The wait absorbs every notifier's clock, so its edges come
            // from each notifier's latest notify.
            SyncObj::Cond(c) => {
                for &(_, src) in self.last_notify.get(c.index()).into_iter().flatten() {
                    self.graph.add_edge(src, id, EdgeKind::Sync);
                }
            }
        }
    }

    fn fork(&mut self, id: EventId, _t: ThreadId, u: ThreadId) {
        self.pending_fork.insert(u, id);
    }

    fn join(&mut self, id: EventId, _t: ThreadId, u: ThreadId) {
        if let Some(last) = self.last_event.get(u.index()).copied().flatten() {
            self.graph.add_edge(last, id, EdgeKind::Sync);
        }
    }

    fn barrier_enter(&mut self, id: EventId, _t: ThreadId, b: BarrierId) {
        slot(&mut self.barrier_rounds, b.index()).enter_with(|round| round.push(id));
    }

    fn barrier_exit(&mut self, id: EventId, _t: ThreadId, b: BarrierId) {
        // The exit's own enter is PO-ordered anyway; the redundant self-edge
        // is harmless.
        for &src in slot(&mut self.barrier_rounds, b.index()).exit() {
            self.graph.add_edge(src, id, EdgeKind::Sync);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Detector, UnoptDc, UnoptWdc};
    use smarttrack_trace::{
        paper, BarrierId, CondId, LockId, Op, ThreadId, Trace, TraceBuilder, VarId,
    };

    /// Every hard-edge kind graph mode records: a fork, a chain of volatile
    /// writes and a read of it, notifies from two threads into one wait, two
    /// barrier rounds with different parties, and a join.
    fn hard_edge_trace() -> Trace {
        let t = ThreadId::new;
        let (v, c, m, bar) = (
            VarId::new(0),
            CondId::new(0),
            LockId::new(0),
            BarrierId::new(0),
        );
        let mut b = TraceBuilder::new();
        for (tid, op) in [
            (0, Op::Write(VarId::new(0))), // e0
            (0, Op::Fork(t(1))),           // e1
            (1, Op::VolatileWrite(v)),     // e2: the child's first event
            (0, Op::VolatileWrite(v)),     // e3: after e2's write
            (2, Op::VolatileRead(v)),      // e4
            (1, Op::Write(VarId::new(1))), // e5
            (1, Op::Notify(c)),            // e6
            (2, Op::NotifyAll(c)),         // e7
            (1, Op::Notify(c)),            // e8: replaces e6 as t1's latest
            (0, Op::Acquire(m)),           // e9
            (0, Op::Wait(c, m)),           // e10
            (0, Op::Release(m)),           // e11
            (1, Op::BarrierEnter(bar)),    // e12
            (2, Op::BarrierEnter(bar)),    // e13
            (1, Op::BarrierExit(bar)),     // e14
            (2, Op::BarrierExit(bar)),     // e15
            (0, Op::Join(t(1))),           // e16: t1 ended at e14
            (0, Op::BarrierEnter(bar)),    // e17
            (2, Op::BarrierEnter(bar)),    // e18
            (2, Op::BarrierExit(bar)),     // e19
            (0, Op::BarrierExit(bar)),     // e20
        ] {
            b.push(t(tid), op).expect("well-formed");
        }
        b.finish()
    }

    fn edges_of(mut det: impl Detector, trace: &Trace) -> Vec<(u32, u32, EdgeKind)> {
        run_detector(&mut det, trace);
        let graph = det.graph().expect("graph mode records a graph");
        graph
            .edges()
            .iter()
            .map(|&(from, to, kind)| (from.raw(), to.raw(), kind))
            .collect()
    }

    #[test]
    fn graph_mode_pins_every_edge() {
        use EdgeKind::{RuleA, RuleB, Sync};
        let dc = |tr: &Trace| edges_of(UnoptDc::with_graph_recording(true), tr);
        let wdc = |tr: &Trace| edges_of(UnoptWdc::with_graph_recording(true), tr);
        // Figure 3: the o- and p-syncs conflict (rule (a), once per joined
        // read and write time); DC's rule (b) also orders the o-, p- and
        // m-releases, which WDC leaves out.
        let fig3 = paper::figure3();
        let rule_a = [
            (4, 8, RuleA),
            (4, 9, RuleA),
            (4, 9, RuleA),
            (14, 17, RuleA),
            (14, 18, RuleA),
            (14, 18, RuleA),
        ];
        let mut with_rule_b = rule_a.to_vec();
        with_rule_b.insert(3, (4, 10, RuleB));
        with_rule_b.extend([(14, 19, RuleB), (6, 20, RuleB)]);
        assert_eq!(dc(&fig3), with_rule_b);
        assert_eq!(wdc(&fig3), rule_a);
        // The hard edges are the same in both relations: fork → the child's
        // first event, volatile write → next write → read, each notifier's
        // latest notify → wait, every enter of a round → each exit of it,
        // and the child's last event → join.
        let hard = hard_edge_trace();
        let sync = [
            (1, 2, Sync),
            (2, 3, Sync),
            (3, 4, Sync),
            (8, 10, Sync),
            (7, 10, Sync),
            (12, 14, Sync),
            (13, 14, Sync),
            (12, 15, Sync),
            (13, 15, Sync),
            (14, 16, Sync),
            (17, 19, Sync),
            (18, 19, Sync),
            (17, 20, Sync),
            (18, 20, Sync),
        ];
        assert_eq!(dc(&hard), sync);
        assert_eq!(wdc(&hard), sync);
    }

    #[test]
    fn records_edges_in_order() {
        let mut g = ConstraintGraph::new();
        assert!(g.is_empty());
        g.add_edge(EventId::new(1), EventId::new(5), EdgeKind::RuleA);
        g.add_edge(EventId::new(3), EventId::new(7), EdgeKind::RuleB);
        assert_eq!(g.len(), 2);
        assert_eq!(
            g.edges()[0],
            (EventId::new(1), EventId::new(5), EdgeKind::RuleA)
        );
        assert!(g.footprint_bytes() > 0);
    }
}

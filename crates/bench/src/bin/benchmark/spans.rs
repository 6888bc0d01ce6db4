//! In-memory span recording for the traced run, self-time derivation, and
//! the trace file.
//!
//! A span is one interval at a layer boundary: a name, start and end (ns
//! since the recorder was created), the span that caused it, and the
//! group (pass) it belongs to. Work timed only in samples (one call in
//! `stride`) becomes an *estimate* span: it starts at the first timed
//! call and lasts the estimated total, the timed durations each scaled by
//! the stride they were drawn at. One estimate span per name is written
//! under the enclosing span when that span closes.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// Index of a span in its recorder; also a parent reference.
pub type SpanId = u32;

/// Parent of a root span.
pub const ROOT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: u16,
    pub parent: SpanId,
    pub group: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans. Nesting follows [`open`](Recorder::open) /
/// [`close`](Recorder::close); [`leaf`](Recorder::leaf) spans hang off
/// whichever span is open.
pub struct Recorder {
    epoch: Instant,
    names: Vec<String>,
    pub spans: Vec<Span>,
    current: SpanId,
    group: u32,
    /// When the delivery of the next race began: set when a lane reports
    /// a new race, advanced by each delivery span.
    pub sink_cursor: u64,
    /// What timing an empty interval reads, in ns: the cost of one clock
    /// read, which every span timed around a call also contains.
    pub timer_ns: u64,
    /// Estimates of sampled work under the open span: name, first timed
    /// start, estimated total ns.
    pending: Vec<(u16, u64, f64)>,
}

impl Recorder {
    pub fn new() -> Recorder {
        let epoch = Instant::now();
        let mut empty: Vec<u64> = (0..1001)
            .map(|_| {
                let start = epoch.elapsed();
                (epoch.elapsed() - start).as_nanos() as u64
            })
            .collect();
        empty.sort_unstable();
        Recorder {
            epoch,
            names: Vec::new(),
            spans: Vec::new(),
            current: ROOT,
            group: 0,
            sink_cursor: 0,
            timer_ns: empty[empty.len() / 2],
            pending: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Interns a span name.
    pub fn name(&mut self, name: &str) -> u16 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u16
            }
        }
    }

    pub fn name_of(&self, id: u16) -> &str {
        &self.names[id as usize]
    }

    /// Sets the group later spans are tagged with.
    pub fn set_group(&mut self, group: u32) {
        self.group = group;
    }

    /// Starts a span under the open one and makes it the open span.
    pub fn open(&mut self, name: &str) -> SpanId {
        let name = self.name(name);
        let start = self.now();
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            parent: self.current,
            group: self.group,
            start,
            end: start,
        });
        self.current = id;
        id
    }

    /// Ends span `id`, which must be the open one, writes the estimates
    /// made under it, and reopens its parent.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end = end;
        self.current = span.parent;
        let group = span.group;
        for (name, start, ns) in std::mem::take(&mut self.pending) {
            self.spans.push(Span {
                name,
                parent: id,
                group,
                start,
                end: start + ns.round() as u64,
            });
        }
    }

    /// Records an already-timed span under the open one.
    pub fn leaf(&mut self, name: u16, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            parent: self.current,
            group: self.group,
            start,
            end,
        });
    }

    /// Adds `ns` of estimated work to name `name` under the open span.
    pub fn estimate(&mut self, name: u16, start: u64, ns: f64) {
        match self.pending.iter_mut().find(|p| p.0 == name) {
            Some(p) => p.2 += ns,
            None => self.pending.push((name, start, ns)),
        }
    }

    /// Total self time per span name, in ns: each span's duration minus
    /// the durations of its children. Summed over all names this equals
    /// the summed duration of the root spans, so nothing is counted twice
    /// or lost.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        self_times(&self.spans)
            .into_iter()
            .map(|(name, ns)| (self.names[name as usize].clone(), ns))
            .collect()
    }

    /// Writes every span as JSON (see the README's "Trace files").
    pub fn write_trace(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let names = Value::Arr(self.names.iter().map(|n| Value::from(n.as_str())).collect());
        writeln!(
            out,
            "{{\"workload\": {}, \"names\": {names},",
            Value::from(workload)
        )?;
        writeln!(
            out,
            "\"columns\": [\"name\", \"parent\", \"group\", \"start_ns\", \"end_ns\"],"
        )?;
        writeln!(out, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{}, {parent}, {}, {}, {}]{sep}",
                s.name, s.group, s.start, s.end
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time per name id; see [`Recorder::self_times`].
pub fn self_times(spans: &[Span]) -> BTreeMap<u16, f64> {
    let mut children = vec![0f64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize] += s.duration() as f64;
        }
    }
    let mut out = BTreeMap::new();
    for (s, child) in spans.iter().zip(children) {
        *out.entry(s.name).or_insert(0.0) += s.duration() as f64 - child;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u16, parent: SpanId, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            group: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // pass [0,100]
        //   decode [0,20]
        //   feed [20,90]
        //     lane estimate [30,70] (40 ns)
        //     sink estimate [60,62]
        //   finish [90,100]
        //     lane finish [91,95]
        let (pass, decode, feed, lane, sink, finish, lane_finish) = (0, 1, 2, 3, 4, 5, 6);
        let spans = [
            span(pass, ROOT, 0, 100),
            span(decode, 0, 0, 20),
            span(feed, 0, 20, 90),
            span(lane, 2, 30, 70),
            span(sink, 2, 60, 62),
            span(finish, 0, 90, 100),
            span(lane_finish, 5, 91, 95),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&pass], 0.0);
        assert_eq!(t[&decode], 20.0);
        assert_eq!(t[&feed], 70.0 - 40.0 - 2.0);
        assert_eq!(t[&lane], 40.0);
        assert_eq!(t[&sink], 2.0);
        assert_eq!(t[&finish], 6.0);
        assert_eq!(t[&lane_finish], 4.0);
        assert_eq!(
            t.values().sum::<f64>(),
            100.0,
            "self times partition the root"
        );
    }

    #[test]
    fn recorder_nests_spans_and_folds_estimates_into_the_closing_span() {
        let mut rec = Recorder::new();
        rec.set_group(7);
        let outer = rec.open("outer");
        let inner = rec.open("inner");
        let lane = rec.name("lane");
        let now = rec.now();
        rec.estimate(lane, now, 5.0);
        rec.estimate(lane, now + 9, 2.4);
        rec.close(inner);
        rec.close(outer);
        let s = &rec.spans;
        assert_eq!(s.len(), 3, "the two estimates fold into one span");
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (ROOT, outer, inner)
        );
        assert_eq!((s[2].start, s[2].end), (now, now + 7));
        assert!(s.iter().all(|s| s.group == 7));
        let total: f64 = rec.self_times().values().sum();
        assert_eq!(total, s[0].duration() as f64);
    }
}

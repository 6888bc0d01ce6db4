//! Metric names, units and directions, and the per-workload result a
//! measuring child process hands back to its parent.

use crate::inputs::{PREDICTIVE_LANES, TABLE1_LANES};
use crate::json::{obj, Value};
use crate::stats::Summary;

/// Whether a larger value is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The end-to-end metrics an untraced run reports for every workload.
pub const END_TO_END: [(&str, &str, Better); 6] = [
    ("events_per_s", "1/s", Better::Higher),
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
    ("race_push_p50_ms", "ms", Better::Lower),
    ("race_push_p99_ms", "ms", Better::Lower),
    ("report_p50_ms", "ms", Better::Lower),
];

/// The per-layer metrics a traced run reports for every workload, with
/// their units and directions. A layer a workload does not run reports 0.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    use Better::*;
    let mut out: Vec<(String, &'static str, Better)> = [
        ("trace.decode_ns_per_event", "ns", Lower),
        ("trace.validate_ns_per_event", "ns", Lower),
        ("trace.stb_bytes_per_event", "B", Lower),
        ("trace.encode_s", "s", Lower),
        ("workloads.generate_s", "s", Lower),
        ("detect.session.self_ns_per_event", "ns", Lower),
        ("detect.session.finish_ms", "ms", Lower),
        ("detect.sink.ns_per_race", "ns", Lower),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect();
    for lane in TABLE1_LANES.iter().chain(&PREDICTIVE_LANES) {
        out.push((format!("detect.{lane}.ns_per_event"), "ns", Lower));
        out.push((format!("detect.{lane}.fast_path_frac"), "frac", Higher));
        out.push((format!("detect.{lane}.races"), "count", Higher));
        out.push((format!("detect.{lane}.peak_state_mb"), "MiB", Lower));
    }
    for lane in &TABLE1_LANES[1..] {
        out.push((format!("detect.{lane}.vs_fto-hb"), "x", Lower));
    }
    for (name, unit, better) in [
        ("serve.ack_rtt_p50_us", "us", Lower),
        ("serve.busy_frac", "frac", Lower),
        ("serve.handshake_p50_ms", "ms", Lower),
        ("serve.push_frac", "frac", Higher),
        ("serve.gen_lag_p99_ms", "ms", Lower),
        ("bench.tracing_overhead_frac", "frac", Lower),
        ("bench.accounted_frac", "frac", Higher),
    ] {
        out.push((name.to_string(), unit, better));
    }
    out
}

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Spread of the per-operation values (one per pass, round or
    /// session) the value summarizes, when there are several.
    pub runs: Option<Summary>,
    /// Latency samples pooled into the value, and the highest percentile
    /// they support with its value.
    pub samples: Option<(usize, Option<(f64, f64)>)>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            runs: None,
            samples: None,
        }
    }

    fn to_json(&self) -> Value {
        let mut members = vec![
            ("value".to_string(), Value::from(self.value)),
            ("unit".to_string(), Value::from(self.unit.as_str())),
        ];
        if let Some(r) = self.runs {
            members.push(("median".into(), r.median.into()));
            members.push(("q1".into(), r.q1.into()));
            members.push(("q3".into(), r.q3.into()));
            members.push(("n".into(), r.n.into()));
        }
        if let Some((n, tail)) = self.samples {
            members.push(("samples".into(), n.into()));
            if let Some((pct, value)) = tail {
                members.push(("tail_pct".into(), pct.into()));
                members.push(("tail".into(), value.into()));
            }
        }
        Value::Obj(members)
    }

    fn from_json(name: &str, v: &Value) -> Option<Metric> {
        let num = |key: &str| v.get(key).and_then(Value::as_f64);
        let runs = match (num("median"), num("q1"), num("q3"), num("n")) {
            (Some(median), Some(q1), Some(q3), Some(n)) => Some(Summary {
                median,
                q1,
                q3,
                n: n as usize,
            }),
            _ => None,
        };
        let tail = num("tail_pct").zip(num("tail"));
        Some(Metric {
            name: name.to_string(),
            unit: v.get("unit")?.as_str()?.to_string(),
            value: num("value")?,
            runs,
            samples: num("samples").map(|n| (n as usize, tail)),
        })
    }
}

/// What one workload run measured and checked.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub traced: bool,
    /// Operations (sessions) whose output was checked.
    pub attempted: u64,
    /// Operations that failed a check; each failure is described in
    /// `failures`.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Measured passes (rounds for multi-session workloads).
    pub passes: usize,
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    pub fn new(workload: &str, traced: bool) -> WorkloadResult {
        WorkloadResult {
            workload: workload.to_string(),
            traced,
            ..WorkloadResult::default()
        }
    }

    /// Records one checked operation and its failures, if any.
    pub fn check(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Puts the metrics in catalogue order (end-to-end for an untraced
    /// run, per-layer for a traced one) and reports 0 for every catalogued
    /// metric of a layer this workload does not run.
    pub fn complete(&mut self) {
        let catalogue: Vec<(String, &str)> = if self.traced {
            per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u, _)| (n.to_string(), u))
                .collect()
        };
        let mut measured = std::mem::take(&mut self.metrics);
        for (name, unit) in catalogue {
            match measured.iter().position(|m| m.name == name) {
                Some(i) => self.metrics.push(measured.swap_remove(i)),
                None => self.metrics.push(Metric::new(&name, unit, 0.0)),
            }
        }
        self.metrics.extend(measured);
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("workload", Value::from(self.workload.as_str())),
            ("traced", Value::from(self.traced)),
            (
                "correct",
                Value::from(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("error_rate", Value::from(self.error_rate())),
            ("passes", Value::from(self.passes)),
            (
                "failures",
                Value::Arr(
                    self.failures
                        .iter()
                        .map(|f| Value::from(f.as_str()))
                        .collect(),
                ),
            ),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<WorkloadResult> {
        let count = |key: &str| v.get(key).and_then(Value::as_f64).map(|n| n as u64);
        Some(WorkloadResult {
            workload: v.get("workload")?.as_str()?.to_string(),
            traced: v.get("traced")?.as_bool()?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            failures: v
                .get("failures")?
                .as_arr()?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            passes: count("passes")? as usize,
            metrics: v
                .get("metrics")?
                .as_obj()?
                .iter()
                .map(|(name, m)| Metric::from_json(name, m))
                .collect::<Option<_>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_survives_the_child_to_parent_handoff() {
        let mut r = WorkloadResult::new("xalan-fanout", false);
        r.check(vec![]);
        r.check(vec!["pass 2: ST-DC report differs".into()]);
        r.passes = 12;
        let mut m = Metric::new("race_push_p50_ms", "ms", 0.4213);
        m.runs = Some(Summary::of(&[0.41, 0.42, 0.43]));
        m.samples = Some((35_000, Some((99.9, 2.5))));
        r.push(m);
        r.push(Metric::new("peak_rss_mb", "MiB", 312.5));
        let text = r.to_json().to_string();
        let back = WorkloadResult::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.error_rate(), 0.5);
    }

    #[test]
    fn metric_names_fit_the_naming_rules() {
        let layer = per_layer();
        assert!(layer.len() <= 128);
        let mut names: Vec<&str> = layer.iter().map(|(n, _, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _, _)| *n));
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "names are unique");
    }
}

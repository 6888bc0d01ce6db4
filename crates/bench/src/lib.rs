//! The experiment harness: regenerates every table of the paper's evaluation
//! (§5, Tables 2–7 and Appendix Tables 8–12) on the synthetic DaCapo-style
//! workloads.
//!
//! Methodology mapping (see "Methodology substitutions" under "Deviations
//! from the paper" in docs/ARCHITECTURE.md for the full substitution table):
//!
//! * *slowdown vs. uninstrumented execution* → analysis wall-clock time
//!   divided by the time of a null pass over the same trace (the
//!   "uninstrumented" event stream). Absolute factors differ from the
//!   paper's (a JVM executes real work between events; our baseline is
//!   nearly free), but the *ratios between analyses* — the paper's actual
//!   claims — carry over and are what the `repro` tables compare.
//! * *memory vs. uninstrumented execution* → peak analysis metadata bytes
//!   divided by the trace-representation bytes.
//! * *10 trials, 95% confidence intervals* → configurable trials over
//!   different workload seeds; Student-t intervals ([`stats`]).
//!
//! Use the `repro` binary to print any table:
//!
//! ```text
//! cargo run --release -p smarttrack-bench --bin repro -- --table 5 --scale 2e-5 --trials 3
//! ```

pub mod ablation;
pub mod measure;
pub mod parallel_scaling;
pub mod stats;
pub mod tables;

pub use measure::{measure_analysis, null_pass_nanos, Measurement};
pub use stats::{ci95, geomean, mean, Summary};

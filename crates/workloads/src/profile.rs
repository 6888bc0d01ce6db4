//! The ten DaCapo workload profiles, calibrated against the paper's Table 2
//! (run-time characteristics) and Table 7 (race counts).

use smarttrack_trace::Trace;

use crate::patterns::RaceMix;
use crate::synth::Synthesizer;

/// The paper's Table 2 row for one program: measured characteristics the
/// synthetic workload is calibrated against (and reported next to, in the
/// reproduction's Table 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table2Row {
    /// Total threads (the parenthesized max-live count is `live_threads`).
    pub threads: u32,
    /// Maximum simultaneously live threads.
    pub live_threads: u32,
    /// Total events, in millions.
    pub events_m: f64,
    /// Non-same-epoch accesses, in millions.
    pub nsea_m: f64,
    /// Percent of NSEAs holding ≥ 1 lock.
    pub pct_ge1: f64,
    /// Percent of NSEAs holding ≥ 2 locks.
    pub pct_ge2: f64,
    /// Percent of NSEAs holding ≥ 3 locks.
    pub pct_ge3: f64,
}

/// A DaCapo-style workload: paper-measured targets plus a scalable synthetic
/// generator.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Program name as in the paper's tables.
    pub name: &'static str,
    /// The paper's measured characteristics (calibration target).
    pub paper: Table2Row,
    /// Race sites to inject, from Table 7's statically distinct counts.
    pub races: RaceMix,
    /// Fraction of synthetic accesses that are writes.
    pub write_frac: f64,
    /// Fraction of locked body blocks that take their outermost lock as a
    /// reader-writer lock (mostly read-mode, with calibrated write-mode and
    /// failed-trylock traffic). 0 for the DaCapo profiles — the Java
    /// benchmarks' monitors are exclusive — and positive for [`profiles::
    /// rwmix`].
    pub rw_frac: f64,
}

impl Workload {
    /// Generates the workload trace at `scale` (events ≈ `paper.events_m` ×
    /// 10⁶ × `scale`), deterministically per `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` would produce an empty trace.
    pub fn trace(&self, scale: f64, seed: u64) -> Trace {
        let events = (self.paper.events_m * 1e6 * scale) as usize;
        assert!(events > 0, "scale too small for {}", self.name);
        Synthesizer::new(self, events, self.effective_repeats(scale), seed).generate()
    }

    /// Dynamic repetitions per race site at `scale`.
    ///
    /// `races.repeats_per_site` is calibrated for the reference scale `1e-4`;
    /// dynamic race counts scale with trace length (like the paper's, which
    /// are proportional to executed events), while statically distinct sites
    /// stay constant.
    pub fn effective_repeats(&self, scale: f64) -> u32 {
        ((self.races.repeats_per_site as f64 * scale / 1e-4).round() as u32).max(1)
    }

    /// Target same-epoch-access ratio (`All / NSEAs` from Table 2).
    pub fn burst_target(&self) -> f64 {
        // Accesses are roughly half of all events in the DaCapo traces; the
        // burst length controls how many same-epoch accesses follow each
        // non-same-epoch access.
        (self.paper.events_m / self.paper.nsea_m).max(1.0)
    }
}

/// The ten profiles with the paper's Table 2 numbers and Table 7-derived
/// race mixes (using the `Unopt-` column's statically distinct races, made
/// monotone across relations where run-to-run variation in the paper broke
/// monotonicity — see "Profile calibration monotonicity" in
/// docs/ARCHITECTURE.md).
pub mod profiles {
    use super::*;

    fn row(
        threads: u32,
        live: u32,
        events_m: f64,
        nsea_m: f64,
        p1: f64,
        p2: f64,
        p3: f64,
    ) -> Table2Row {
        Table2Row {
            threads,
            live_threads: live,
            events_m,
            nsea_m,
            pct_ge1: p1,
            pct_ge2: p2,
            pct_ge3: p3,
        }
    }

    fn mix(hb: u32, predictive: u32, dc_only: u32, repeats: u32) -> RaceMix {
        RaceMix {
            hb,
            predictive,
            dc_only,
            repeats_per_site: repeats.max(1),
            ..RaceMix::default()
        }
    }

    /// avrora: AVR microcontroller simulation.
    pub fn avrora() -> Workload {
        Workload {
            name: "avrora",
            paper: row(7, 7, 1_400.0, 140.0, 5.89, 0.1, 0.0),
            races: mix(6, 0, 0, 12),
            write_frac: 0.35,
            rw_frac: 0.0,
        }
    }

    /// batik: SVG rasterizer (race-free in the paper).
    pub fn batik() -> Workload {
        Workload {
            name: "batik",
            paper: row(7, 2, 160.0, 5.8, 46.1, 0.1, 0.1),
            races: RaceMix {
                repeats_per_site: 1,
                ..RaceMix::default()
            },
            write_frac: 0.4,
            rw_frac: 0.0,
        }
    }

    /// h2: in-memory SQL database — the paper's most lock-intensive program
    /// together with xalan.
    pub fn h2() -> Workload {
        Workload {
            name: "h2",
            paper: row(10, 9, 3_800.0, 300.0, 82.8, 80.1, 0.17),
            races: mix(13, 0, 0, 10),
            write_frac: 0.3,
            rw_frac: 0.0,
        }
    }

    /// jython: Python interpreter (two threads).
    ///
    /// The paper's Table 7 reports more DC- than WCP-races for jython; the
    /// Figure 2 pattern that separates DC from WCP needs three threads, which
    /// jython does not have, so this profile folds those sites into the
    /// two-thread predictive pattern (expected counts: HB 21, WCP/DC/WDC 22;
    /// see "Profile calibration monotonicity" in docs/ARCHITECTURE.md).
    pub fn jython() -> Workload {
        Workload {
            name: "jython",
            paper: row(2, 2, 730.0, 170.0, 3.82, 0.23, 0.1),
            races: mix(21, 1, 0, 1),
            write_frac: 0.35,
            rw_frac: 0.0,
        }
    }

    /// luindex: document indexing.
    pub fn luindex() -> Workload {
        Workload {
            name: "luindex",
            paper: row(3, 3, 400.0, 41.0, 25.8, 25.4, 25.3),
            races: mix(1, 0, 0, 1),
            write_frac: 0.35,
            rw_frac: 0.0,
        }
    }

    /// lusearch: text search (race-free in the paper).
    pub fn lusearch() -> Workload {
        Workload {
            name: "lusearch",
            paper: row(10, 10, 1_400.0, 140.0, 3.79, 0.39, 0.1),
            races: RaceMix {
                repeats_per_site: 1,
                ..RaceMix::default()
            },
            write_frac: 0.35,
            rw_frac: 0.0,
        }
    }

    /// pmd: source-code analyzer.
    pub fn pmd() -> Workload {
        Workload {
            name: "pmd",
            paper: row(9, 9, 200.0, 7.9, 1.13, 0.0, 0.0),
            races: mix(6, 0, 4, 20),
            write_frac: 0.35,
            rw_frac: 0.0,
        }
    }

    /// sunflow: ray tracer — extreme same-epoch access ratio.
    pub fn sunflow() -> Workload {
        Workload {
            name: "sunflow",
            paper: row(17, 16, 9_700.0, 3.5, 0.78, 0.1, 0.0),
            races: mix(6, 12, 1, 3),
            write_frac: 0.4,
            rw_frac: 0.0,
        }
    }

    /// tomcat: servlet container — many threads, many distinct race sites.
    pub fn tomcat() -> Workload {
        Workload {
            name: "tomcat",
            paper: row(37, 37, 49.0, 11.0, 14.0, 8.45, 3.95),
            races: mix(120, 3, 4, 25),
            write_frac: 0.35,
            rw_frac: 0.0,
        }
    }

    /// xalan: XSLT processor — nearly every NSEA holds a lock; the biggest
    /// beneficiary of SmartTrack's CCS optimizations.
    pub fn xalan() -> Workload {
        Workload {
            name: "xalan",
            paper: row(9, 9, 630.0, 240.0, 99.9, 99.7, 1.27),
            races: mix(8, 55, 11, 8),
            write_frac: 0.35,
            rw_frac: 0.0,
        }
    }

    /// condsync: a reproduction-specific workload (not one of the paper's
    /// ten) whose synchronization is dominated by condvar handoffs and
    /// barrier phases — xalan/avrora-class programs coordinate worker pools
    /// exactly this way. It drives the `wait`/`notify`/barrier clock rules
    /// on every analysis hot path: the race mix carries a few condvar and
    /// barrier races (detected by every relation) atop a large body of
    /// race-free handoffs and phases. Not part of [`all`] (which mirrors
    /// the paper's Table 2), but included in the hotpath bench lanes.
    pub fn condsync() -> Workload {
        Workload {
            name: "condsync",
            paper: row(8, 8, 100.0, 20.0, 35.0, 2.0, 0.0),
            races: RaceMix {
                hb: 2,
                condvar: 3,
                barrier: 3,
                condvar_handoff: 20,
                barrier_phase: 20,
                repeats_per_site: 10,
                ..RaceMix::default()
            },
            write_frac: 0.35,
            rw_frac: 0.0,
        }
    }

    /// rwmix: a reproduction-specific reader-writer-lock contention profile
    /// (not one of the paper's ten — the DaCapo monitors are exclusive).
    /// Calibrated on the shapes rwlock microbenchmark suites converge on:
    /// a handful of hot shared maps guarded by rwlocks, ~90% read-mode
    /// acquisitions against ~10% write-mode, trylock fall-back paths that
    /// fail under contention, and a worker pool several times larger than
    /// the lock count. Most locked body blocks take the outermost lock in
    /// read mode; the race mix injects
    /// [`PatternKind::ReaderOverlap`](crate::patterns::PatternKind::ReaderOverlap)
    /// sites
    /// (the write-under-read-lock bug class exclusive lowering masks) atop
    /// plain HB races. Exercises `acqr`/`acqw`/`tryf` on every analysis hot
    /// path; surfaced by `generate`/`list` and the hotpath bench lanes.
    pub fn rwmix() -> Workload {
        Workload {
            name: "rwmix",
            paper: row(12, 12, 150.0, 30.0, 60.0, 5.0, 0.0),
            races: RaceMix {
                hb: 2,
                reader_overlap: 4,
                repeats_per_site: 10,
                ..RaceMix::default()
            },
            write_frac: 0.3,
            rw_frac: 0.8,
        }
    }

    /// All ten profiles in the paper's table order.
    pub fn all() -> Vec<Workload> {
        vec![
            avrora(),
            batik(),
            h2(),
            jython(),
            luindex(),
            lusearch(),
            pmd(),
            sunflow(),
            tomcat(),
            xalan(),
        ]
    }

    /// The paper's ten profiles plus the reproduction-specific extensions
    /// ([`condsync`] and [`rwmix`]) — the single list the CLI's `generate`
    /// and `list` surfaces present, so the two can never drift apart.
    pub fn extended() -> Vec<Workload> {
        let mut out = all();
        out.push(condsync());
        out.push(rwmix());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarttrack_trace::stats::TraceStats;

    #[test]
    fn all_profiles_generate_well_formed_traces() {
        for w in profiles::all() {
            let tr = w.trace(0.00001, 7);
            Trace::from_events(tr.events().iter().copied())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(tr.len() > 100, "{} too small: {}", w.name, tr.len());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let w = profiles::avrora();
        assert_eq!(w.trace(0.00001, 3), w.trace(0.00001, 3));
        assert_ne!(w.trace(0.00001, 3), w.trace(0.00001, 4));
    }

    #[test]
    fn thread_counts_match_paper() {
        for w in profiles::all() {
            let tr = w.trace(0.00002, 1);
            let stats = TraceStats::compute(&tr);
            assert!(
                stats.threads_total >= w.paper.threads as usize,
                "{}: {} threads < paper's {}",
                w.name,
                stats.threads_total,
                w.paper.threads
            );
        }
    }

    #[test]
    fn lock_intensity_ordering_matches_paper() {
        // xalan and h2 must be far more lock-intensive than pmd and sunflow
        // (the property driving Table 5's performance differences).
        let pct = |w: &Workload| {
            let tr = w.trace(0.00002, 5);
            TraceStats::compute(&tr).pct_nsea_holding(1)
        };
        let xalan = pct(&profiles::xalan());
        let h2 = pct(&profiles::h2());
        let pmd = pct(&profiles::pmd());
        let sunflow = pct(&profiles::sunflow());
        assert!(xalan > 80.0, "xalan {xalan:.1}%");
        assert!(h2 > 60.0, "h2 {h2:.1}%");
        assert!(pmd < 20.0, "pmd {pmd:.1}%");
        assert!(sunflow < 20.0, "sunflow {sunflow:.1}%");
    }

    #[test]
    fn nsea_fraction_tracks_burst_target() {
        // sunflow has an extreme same-epoch ratio; avrora a moderate one.
        let frac = |w: &Workload| {
            let tr = w.trace(0.00002, 9);
            TraceStats::compute(&tr).nsea_fraction()
        };
        assert!(
            frac(&profiles::sunflow()) < frac(&profiles::avrora()),
            "sunflow must have a (much) lower NSEA fraction"
        );
    }
}

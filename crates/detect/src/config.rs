use std::fmt;

use smarttrack_trace::Trace;

use crate::{
    make_detector, Detector, Engine, FtoCaseCounters, OptLevel, Relation, Report, RunSummary,
};

/// Selects one analysis from the paper's Table 1.
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{AnalysisConfig, OptLevel, Relation};
///
/// let cfg = AnalysisConfig::new(Relation::Wcp, OptLevel::SmartTrack);
/// assert_eq!(cfg.to_string(), "ST-WCP");
/// assert!(cfg.is_available());
/// // HB has no SmartTrack variant (no conflicting critical sections to
/// // optimize): an N/A cell.
/// assert!(!AnalysisConfig::new(Relation::Hb, OptLevel::SmartTrack).is_available());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AnalysisConfig {
    /// The relation (Table 1 row).
    pub relation: Relation,
    /// The optimization level (Table 1 column).
    pub level: OptLevel,
    /// Build a constraint graph during analysis ("w/ G"; Unopt DC/WDC only).
    pub graph: bool,
}

impl AnalysisConfig {
    /// Creates a configuration without graph building.
    pub fn new(relation: Relation, level: OptLevel) -> Self {
        AnalysisConfig {
            relation,
            level,
            graph: false,
        }
    }

    /// Enables constraint-graph recording (valid for Unopt DC/WDC).
    pub fn with_graph(mut self) -> Self {
        self.graph = true;
        self
    }

    /// Whether this cell of Table 1 exists.
    pub fn is_available(&self) -> bool {
        make_detector(self.relation, self.level, self.graph).is_some()
    }

    /// Instantiates the detector, or `None` for N/A cells.
    pub fn detector(&self) -> Option<Box<dyn Detector>> {
        make_detector(self.relation, self.level, self.graph)
    }

    /// The twelve analyses of Table 1 plus the two "w/ G" variants, in the
    /// paper's Table 1 order.
    pub fn table1() -> Vec<AnalysisConfig> {
        crate::table1_configs()
            .into_iter()
            .map(|(relation, level, graph)| AnalysisConfig {
                relation,
                level,
                graph,
            })
            .collect()
    }

    /// [`AnalysisConfig::table1`] plus this repro's extension rows that are
    /// not cells of the source paper's matrix (the sync-preserving `SyncP`
    /// analysis and its synchronization-reversal refinement `OSR`). The
    /// `list` subcommand and tooling that wants "every runnable analysis"
    /// should use this; Table-1-shaped consumers (the paper-table benches,
    /// `analyze_all`) stay on [`AnalysisConfig::table1`].
    pub fn extended() -> Vec<AnalysisConfig> {
        let mut all = AnalysisConfig::table1();
        all.push(AnalysisConfig::new(Relation::SyncP, OptLevel::Unopt));
        all.push(AnalysisConfig::new(Relation::Osr, OptLevel::Unopt));
        all
    }
}

impl fmt::Display for AnalysisConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = match (self.relation, self.level) {
            (Relation::Hb, OptLevel::Epochs) => "FT2".to_string(),
            // The SyncP and OSR rows have one implementation each, not a
            // Table 1 opt column, so they go by the bare relation name.
            (Relation::SyncP, _) => "SyncP".to_string(),
            (Relation::Osr, _) => "OSR".to_string(),
            (r, l) => format!("{l}-{r}"),
        };
        if self.graph {
            write!(f, "{base} w/G")
        } else {
            write!(f, "{base}")
        }
    }
}

/// Error returned when parsing an [`AnalysisConfig`] from a string fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAnalysisConfigError {
    input: String,
    /// A targeted explanation for inputs that name a real analysis but an
    /// unavailable variant of it (e.g. `syncp+g`).
    detail: Option<&'static str>,
}

impl fmt::Display for ParseAnalysisConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(detail) = self.detail {
            return write!(f, "analysis `{}`: {detail}", self.input);
        }
        write!(
            f,
            "unknown analysis `{}` (expected ft2, syncp, osr, or \
             <unopt|fto|st>-<hb|wcp|dc|wdc>, optionally +g for graph recording; \
             st-hb and <unopt-*>+g outside dc/wdc are N/A cells of Table 1)",
            self.input
        )
    }
}

impl std::error::Error for ParseAnalysisConfigError {}

impl std::str::FromStr for AnalysisConfig {
    type Err = ParseAnalysisConfigError;

    /// Parses the paper's table names, case-insensitively: `ft2`,
    /// `unopt-hb`, `fto-wcp`, `st-dc` / `smarttrack-dc`, …; a `+g` suffix
    /// selects the graph-recording ("w/ G") variants. Only cells that exist
    /// in Table 1 parse successfully.
    ///
    /// # Examples
    ///
    /// ```
    /// use smarttrack_detect::{AnalysisConfig, OptLevel, Relation};
    ///
    /// let cfg: AnalysisConfig = "st-wdc".parse()?;
    /// assert_eq!(cfg, AnalysisConfig::new(Relation::Wdc, OptLevel::SmartTrack));
    /// let cfg: AnalysisConfig = "unopt-dc+g".parse()?;
    /// assert!(cfg.graph);
    /// assert!("st-hb".parse::<AnalysisConfig>().is_err()); // N/A cell
    /// # Ok::<(), smarttrack_detect::ParseAnalysisConfigError>(())
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAnalysisConfigError {
            input: s.to_string(),
            detail: None,
        };
        let mut norm = s.trim().to_ascii_lowercase();
        let mut graph = false;
        for suffix in ["+g", " w/g"] {
            if let Some(stripped) = norm.strip_suffix(suffix) {
                graph = true;
                norm = stripped.trim_end().to_string();
                break;
            }
        }
        let config = if norm == "ft2" {
            AnalysisConfig::new(Relation::Hb, OptLevel::Epochs)
        } else if norm == "syncp" || norm == "sync-preserving" {
            if graph {
                // Fail here with a targeted message rather than via the
                // generic is_available() check, whose error only explains
                // the Table 1 N/A cells.
                return Err(ParseAnalysisConfigError {
                    input: s.to_string(),
                    detail: Some(
                        "syncp has no graph-recording (+g) variant — constraint \
                         graphs belong to the Unopt DC/WDC rows",
                    ),
                });
            }
            AnalysisConfig::new(Relation::SyncP, OptLevel::Unopt)
        } else if norm == "osr" || norm == "sync-reversal" {
            if graph {
                // Same targeted treatment as syncp+g: name the real reason
                // instead of the generic Table 1 N/A explanation.
                return Err(ParseAnalysisConfigError {
                    input: s.to_string(),
                    detail: Some(
                        "osr has no graph-recording (+g) variant — constraint \
                         graphs belong to the Unopt DC/WDC rows",
                    ),
                });
            }
            AnalysisConfig::new(Relation::Osr, OptLevel::Unopt)
        } else {
            let (level, relation) = norm.split_once('-').ok_or_else(err)?;
            let level = match level {
                "unopt" => OptLevel::Unopt,
                "ft2" => OptLevel::Epochs,
                "fto" => OptLevel::Fto,
                "st" | "smarttrack" => OptLevel::SmartTrack,
                _ => return Err(err()),
            };
            let relation = match relation {
                "hb" => Relation::Hb,
                "wcp" => Relation::Wcp,
                "dc" => Relation::Dc,
                "wdc" => Relation::Wdc,
                _ => return Err(err()),
            };
            AnalysisConfig::new(relation, level)
        };
        let config = if graph { config.with_graph() } else { config };
        if config.is_available() {
            Ok(config)
        } else {
            Err(err())
        }
    }
}

/// The result of running one analysis over one event stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalysisOutcome {
    /// Analysis name (as in the paper's tables).
    pub name: String,
    /// The configuration that produced this outcome.
    pub config: AnalysisConfig,
    /// All detected races.
    pub report: Report,
    /// Events processed and peak metadata footprint.
    pub summary: RunSummary,
    /// FTO case frequencies, when the analysis tracks them.
    pub cases: Option<FtoCaseCounters>,
}

/// Runs one analysis over a trace.
///
/// This is the one-shot convenience wrapper over the streaming
/// [`Engine`]/[`crate::Session`] API — equivalent to opening a
/// single-lane session, feeding the whole trace, and finishing. Prefer the
/// session API for incremental ingestion, fan-out over several analyses in
/// one pass, or race callbacks.
///
/// # Panics
///
/// Panics if `config` selects an N/A cell of Table 1 (check
/// [`AnalysisConfig::is_available`] first for dynamic configurations).
pub fn analyze(trace: &Trace, config: AnalysisConfig) -> AnalysisOutcome {
    let engine =
        Engine::for_config(config).unwrap_or_else(|_| panic!("{config} is an N/A cell of Table 1"));
    let mut session = engine.open();
    session
        .feed_trace(trace)
        .expect("a validated Trace re-admits cleanly");
    session.finish_one()
}

/// Runs every Table 1 analysis over the trace — in a *single pass* over the
/// event stream (one fan-out [`crate::Session`] with fourteen lanes), not
/// one pass per analysis.
pub fn analyze_all(trace: &Trace) -> Vec<AnalysisOutcome> {
    let engine = Engine::builder()
        .table1()
        .build()
        .expect("every Table 1 cell is available");
    let mut session = engine.open();
    session
        .feed_trace(trace)
        .expect("a validated Trace re-admits cleanly");
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_detector;
    use smarttrack_trace::paper;

    #[test]
    fn table1_has_fourteen_runnable_configs() {
        // 11 analyses + w/G variants for Unopt-DC and Unopt-WDC, minus the
        // FT2-only Epochs column for predictive relations.
        let configs = AnalysisConfig::table1();
        assert_eq!(configs.len(), 14);
        for cfg in configs {
            assert!(cfg.is_available(), "{cfg}");
        }
    }

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(
            AnalysisConfig::new(Relation::Hb, OptLevel::Epochs).to_string(),
            "FT2"
        );
        assert_eq!(
            AnalysisConfig::new(Relation::Dc, OptLevel::Unopt)
                .with_graph()
                .to_string(),
            "Unopt-DC w/G"
        );
        assert_eq!(
            AnalysisConfig::new(Relation::Wdc, OptLevel::SmartTrack).to_string(),
            "ST-WDC"
        );
    }

    #[test]
    fn parsing_accepts_all_table1_names_and_rejects_na_cells() {
        for cfg in AnalysisConfig::table1() {
            let round_tripped: AnalysisConfig = cfg.to_string().parse().unwrap();
            assert_eq!(round_tripped, cfg, "{cfg}");
        }
        for bad in ["st-hb", "ft2-wcp", "fto-hb+g", "epoch-dc", "wdc", ""] {
            assert!(bad.parse::<AnalysisConfig>().is_err(), "{bad:?}");
        }
        assert_eq!(
            "SmartTrack-DC".parse::<AnalysisConfig>().unwrap(),
            AnalysisConfig::new(Relation::Dc, OptLevel::SmartTrack)
        );
    }

    #[test]
    fn syncp_graph_variant_is_rejected_with_a_targeted_message() {
        for bad in ["syncp+g", "SyncP w/g", "sync-preserving+g"] {
            let err = bad.parse::<AnalysisConfig>().unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("no graph-recording"),
                "{bad:?} should explain the missing +g variant, got: {msg}"
            );
        }
        // The plain name still parses.
        assert!("syncp".parse::<AnalysisConfig>().is_ok());
    }

    #[test]
    fn osr_graph_variant_is_rejected_with_a_targeted_message() {
        for bad in ["osr+g", "OSR w/g", "sync-reversal+g"] {
            let err = bad.parse::<AnalysisConfig>().unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("no graph-recording"),
                "{bad:?} should explain the missing +g variant, got: {msg}"
            );
        }
        assert!("osr".parse::<AnalysisConfig>().is_ok());
    }

    /// The CLI-facing config plumbing: parse, display, availability, listing.
    #[test]
    fn syncp_config_round_trips() {
        let config: AnalysisConfig = "syncp".parse().expect("syncp parses");
        assert_eq!(
            config,
            AnalysisConfig::new(Relation::SyncP, OptLevel::Unopt)
        );
        assert_eq!(config.to_string(), "SyncP");
        assert_eq!("SyncP".parse::<AnalysisConfig>().unwrap(), config);
        assert_eq!("sync-preserving".parse::<AnalysisConfig>().unwrap(), config);
        assert!(config.is_available());
        assert!(
            !AnalysisConfig::table1().contains(&config),
            "SyncP is not a Table 1 cell"
        );
        assert!(
            AnalysisConfig::extended().contains(&config),
            "extended listing carries the SyncP row"
        );
        assert!(
            "syncp+g".parse::<AnalysisConfig>().is_err(),
            "no graph variant"
        );
    }

    /// The CLI-facing config plumbing: parse, display, availability, listing,
    /// and the targeted `osr+g` rejection.
    #[test]
    fn osr_config_round_trips() {
        let config: AnalysisConfig = "osr".parse().expect("osr parses");
        assert_eq!(config, AnalysisConfig::new(Relation::Osr, OptLevel::Unopt));
        assert_eq!(config.to_string(), "OSR");
        assert_eq!("OSR".parse::<AnalysisConfig>().unwrap(), config);
        assert_eq!("sync-reversal".parse::<AnalysisConfig>().unwrap(), config);
        assert!(config.is_available());
        assert!(
            !AnalysisConfig::table1().contains(&config),
            "OSR is not a Table 1 cell"
        );
        assert!(
            AnalysisConfig::extended().contains(&config),
            "extended listing carries the OSR row"
        );
        let err = "osr+g"
            .parse::<AnalysisConfig>()
            .expect_err("no graph variant");
        assert!(
            err.to_string().contains("no graph-recording"),
            "rejection must explain itself: {err}"
        );
    }

    #[test]
    fn extended_rows_display_and_round_trip() {
        let extended = AnalysisConfig::extended();
        assert_eq!(extended.len(), 16, "Table 1 plus SyncP and OSR");
        for cfg in &extended[14..] {
            assert!(cfg.is_available(), "{cfg}");
            let round_tripped: AnalysisConfig = cfg.to_string().parse().unwrap();
            assert_eq!(round_tripped, *cfg, "{cfg}");
        }
        assert_eq!(
            AnalysisConfig::new(Relation::Osr, OptLevel::Unopt).to_string(),
            "OSR"
        );
    }

    #[test]
    fn analyze_all_is_consistent_on_figure3() {
        let outcomes = analyze_all(&paper::figure3());
        assert_eq!(outcomes.len(), 14, "one outcome per Table 1 cell");
        for o in outcomes {
            let expect_race = o.config.relation == Relation::Wdc;
            assert_eq!(
                o.report.dynamic_count() > 0,
                expect_race,
                "{}: figure 3 is a WDC-only (false) race",
                o.name
            );
        }
    }

    #[test]
    fn analyze_matches_direct_detector_run() {
        for trace in [paper::figure1(), paper::figure2()] {
            for config in AnalysisConfig::table1() {
                let outcome = analyze(&trace, config);
                let mut det = config.detector().unwrap();
                let summary = run_detector(det.as_mut(), &trace);
                assert_eq!(outcome.report, *det.report(), "{config}");
                assert_eq!(outcome.summary, summary, "{config}");
                assert_eq!(outcome.name, det.name());
            }
        }
    }

    #[test]
    fn graph_variants_expose_graphs() {
        let cfg = AnalysisConfig::new(Relation::Dc, OptLevel::Unopt).with_graph();
        let mut det = cfg.detector().unwrap();
        run_detector(det.as_mut(), &paper::figure3());
        assert!(det.graph().is_some());
        assert!(!det.graph().unwrap().is_empty());
    }
}

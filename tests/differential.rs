//! The row × property matrix of the differential harness
//! (`tests/support/differential.rs`), the liveness of its random families,
//! the streaming ≡ offline column and the release-only soak.
//!
//! The battery files (`opt_equivalence`, `engine_equivalence`,
//! `stb_streaming`, `paper_figures`, `relation_inclusion`,
//! `sync_differential`, `rwlock_differential`, `syncp_differential`,
//! `osr_differential`, `vindication_soundness`) each list their tests as
//! slices of the harness. The 10k-seed sweeps run in the soak:
//! `cargo test --release --test differential -- --include-ignored`.

use std::collections::BTreeSet;

use smarttrack::{AnalysisConfig, OptLevel, Relation};
use smarttrack_trace::Trace;

#[path = "support/differential.rs"]
mod harness;

use harness::{failure, reference, rows, Cell, Path, Prop, Row, Src, FAMILIES, RANDOM, SLICES};

harness::slices!(streaming_matches_offline);

/// A random family whose traces hold no accesses, or never race, checks
/// nothing: nine in ten of 200 traces must access a variable, and one in ten
/// must race under ST-WDC.
#[test]
fn random_families_are_live() {
    let st_wdc = Row::Seq(AnalysisConfig::new(Relation::Wdc, OptLevel::SmartTrack));
    let accesses = |t: &Trace| t.events().iter().any(|e| e.op.access_var().is_some());
    for family in &FAMILIES {
        let traces: Vec<Trace> = (0..200).map(|seed| family.trace(seed)).collect();
        let accessing = traces.iter().filter(|t| accesses(t)).count();
        let racy = traces
            .iter()
            .filter(|t| !reference(st_wdc, t).is_empty())
            .count();
        let name = family.name;
        println!("{name}: {accessing}/200 traces access a variable, {racy} race under ST-WDC");
        assert!(accessing >= 180 && racy >= 20, "family {name} is not live");
    }
}

/// Prints rows × properties and fails on a cell that is neither checked nor
/// N/A with a reason, and on a checked row, source or path no slice runs.
#[test]
fn matrix_has_no_empty_cell() {
    let rows = rows();
    let width = rows.iter().map(|r| r.name().len()).max().unwrap_or(0);
    let mut out = format!("{:width$}", "");
    let (mut na, mut empty) = (BTreeSet::new(), Vec::new());
    for prop in Prop::ALL {
        out += &format!(" | {}", prop.name());
    }
    for &row in &rows {
        out += &format!("\n{:width$}", row.name());
        for prop in Prop::ALL {
            let mark = match prop.cell(row) {
                Some(Cell::Checked) => "✓",
                Some(Cell::Na(reason)) if !reason.is_empty() => {
                    na.insert((prop.name(), reason));
                    "N/A"
                }
                _ => {
                    empty.push(format!("{} × {}", prop.name(), row.name()));
                    "EMPTY"
                }
            };
            out += &format!(" | {mark:^w$}", w = prop.name().chars().count());
        }
    }
    println!("{out}\n\nN/A cells:");
    na.iter()
        .for_each(|(prop, reason)| println!("  {prop}: {reason}"));
    println!("\ndebug seeds per random family (oracle-sized/full-size):");
    for prop in Prop::ALL {
        let seeds = prop.budget();
        let slices = SLICES.iter().filter(|(_, part)| part.prop == prop).count();
        println!(
            "  {}: {}/{} in {slices} slice parts",
            prop.name(),
            seeds.tiny,
            seeds.sized
        );
    }
    println!("\npaths reproducing the reference (run_detector; a lane's feed_trace):");
    for path in Path::ALL {
        let lanes = if rows.iter().all(|&r| path.carries(r)) {
            ""
        } else {
            " but the lanes"
        };
        println!("  {}: every row{lanes}", path.name());
    }
    println!("  (lanes: {})", Path::NO_LANES);
    assert!(empty.is_empty(), "empty matrix cells: {empty:?}");
    let mut unrun = Vec::new();
    for prop in Prop::ALL {
        for row in prop.rows() {
            let carried = Path::ALL.into_iter().filter(|p| p.carries(row));
            let paths: Vec<Option<Path>> = match prop {
                Prop::Paths => carried.map(Some).collect(),
                _ => vec![None],
            };
            let sources = Src::each().into_iter().filter(|&src| prop.reads(src));
            for (src, path) in sources.flat_map(|s| paths.iter().map(move |&p| (s, p))) {
                let runs = SLICES.iter().any(|(_, part)| {
                    let via = path.is_none_or(|p| part.paths.contains(&p));
                    let from = part.sources.iter().any(|s| s.selects(src));
                    part.prop == prop && part.runs(row) && from && via
                });
                if !runs {
                    let via = path
                        .map(|p| format!(" via {}", p.name()))
                        .unwrap_or_default();
                    unrun.push(format!("{} × {} on {src:?}{via}", prop.name(), row.name()));
                }
            }
        }
    }
    assert!(unrun.is_empty(), "no slice runs:\n{}", unrun.join("\n"));
}

/// `failure` returns a check's panic message without printing it, and
/// restores the catching depth on every exit, nested calls included.
#[test]
fn failure_catches_quietly_and_restores_its_depth() {
    let depth = || harness::CATCHING.get();
    assert_eq!(failure(|| panic!("boom")).as_deref(), Some("boom"));
    assert_eq!(depth(), 0);
    let outer = failure(|| {
        assert_eq!(depth(), 1);
        let inner = failure(|| panic!("inner {}", 2));
        assert_eq!(inner.as_deref(), Some("inner 2"));
        assert_eq!(depth(), 1, "the inner catch restores the outer depth");
        panic!("outer");
    });
    assert_eq!(outer.as_deref(), Some("outer"));
    assert_eq!(depth(), 0);
    assert_eq!(failure(|| {}), None);
    assert_eq!(depth(), 0);
}

/// Each slice names a test its file declares with `slices!`.
#[test]
fn every_slice_names_a_declared_test() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    for (test, _) in SLICES {
        let (file, name) = test.split_once("::").expect("a file::name key");
        let name = name.rsplit("::").next().expect("a test name");
        let source = std::fs::read_to_string(dir.join(format!("{file}.rs")))
            .unwrap_or_else(|e| panic!("{test}: tests/{file}.rs: {e}"));
        let lists = source.split("slices!(").skip(1);
        let names = lists.flat_map(|list| list.split(')').next().unwrap_or("").split(','));
        let declared = names.map(str::trim).any(|n| n == name);
        assert!(declared, "{test}: tests/{file}.rs declares no slice {name}");
    }
}

/// The 10k-seed sweeps: every property but path equivalence (which the
/// debug slices drive down every path) and the known answers, over 10,000
/// seeds of each oracle-sized family and 250 of each full-size one. A
/// failing property does not stop the others.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only soak (run with --release)")]
fn soak_10k_seeds() {
    let props = Prop::ALL
        .into_iter()
        .filter(|p| !matches!(p, Prop::Paths | Prop::Known));
    let failed: Vec<String> = props
        .filter_map(|p| {
            let part = p.on(RANDOM).seeds(10_000, 250);
            let part = if p == Prop::Inclusion {
                part.finds_osr_only()
            } else {
                part
            };
            failure(|| part.run())
        })
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

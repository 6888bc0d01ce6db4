//! Property-based tests for the trace layer: serialization round-trips,
//! well-formedness of generated traces, and statistics invariants. Each
//! property runs 64 seeded cases; a failure names its case, which
//! `SmallRng::seed_from_u64` replays.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smarttrack_trace::binary::{self, StbHint, StbReader, StbWriter};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::stats::TraceStats;
use smarttrack_trace::{fmt, formats, Op, Trace};

const CASES: u64 = 64;

/// A random trace over every shape knob of [`RandomTraceSpec`].
fn arb_trace(rng: &mut SmallRng) -> Trace {
    let threads = rng.gen_range(1u32..6);
    let events = rng.gen_range(0usize..500);
    let vars = rng.gen_range(1u32..10);
    let locks = rng.gen_range(1u32..5);
    let volatiles = rng.gen_range(0u32..3);
    let (seed, fork_join) = (rng.gen(), rng.gen());
    let max_nesting = rng.gen_range(1usize..4);
    let spec = RandomTraceSpec {
        threads,
        events,
        vars,
        locks,
        volatiles,
        volatile_prob: if volatiles > 0 { 0.08 } else { 0.0 },
        max_nesting,
        fork_join,
        ..RandomTraceSpec::default()
    };
    spec.generate(seed)
}

#[test]
fn generated_traces_are_well_formed() {
    for case in 0..CASES {
        let tr = arb_trace(&mut SmallRng::seed_from_u64(case));
        let valid = Trace::from_events(tr.events().iter().copied());
        assert!(valid.is_ok(), "case {case}: {valid:?}");
    }
}

#[test]
fn text_format_round_trips() {
    for case in 0..CASES {
        let tr = arb_trace(&mut SmallRng::seed_from_u64(case));
        let back = fmt::parse(&fmt::render(&tr)).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(tr, back, "case {case}");
    }
}

#[test]
fn stb_round_trips() {
    for case in 0..CASES {
        let tr = arb_trace(&mut SmallRng::seed_from_u64(case));
        let back = binary::from_stb_bytes(&binary::to_stb_bytes(&tr));
        let back = back.unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(tr, back, "case {case}");
    }
}

#[test]
fn stb_round_trips_across_chunk_sizes() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let tr = arb_trace(rng);
        let chunk = rng.gen_range(1usize..64);
        let mut w = StbWriter::with_hint(Vec::new(), StbHint::of_trace(&tr)).chunk_events(chunk);
        for e in tr.events() {
            w.write(e).expect("Vec sink");
        }
        let bytes = w.finish().expect("Vec sink");
        let back = binary::from_stb_bytes(&bytes);
        let back = back.unwrap_or_else(|e| panic!("case {case}: chunk {chunk}: {e}"));
        assert_eq!(tr, back, "case {case}: chunk {chunk}");
    }
}

#[test]
fn stb_streaming_reader_yields_the_exact_event_sequence() {
    for case in 0..CASES {
        let tr = arb_trace(&mut SmallRng::seed_from_u64(case));
        let bytes = binary::to_stb_bytes(&tr);
        let reader = StbReader::new(&bytes[..]).unwrap_or_else(|e| panic!("case {case}: {e}"));
        let hint = reader.header().hint;
        assert_eq!(hint, Some(StbHint::of_trace(&tr)), "case {case}");
        let events: Result<Vec<_>, _> = reader.collect();
        let events = events.unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(events, tr.events(), "case {case}");
    }
}

#[test]
fn stb_truncation_never_panics_and_never_decodes() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let tr = arb_trace(rng);
        let sel = rng.gen_range(0usize..10_000);
        let bytes = binary::to_stb_bytes(&tr);
        let cut = bytes.len() * sel / 10_000; // strictly < len
        let decoded = binary::from_stb_bytes(&bytes[..cut]);
        assert!(decoded.is_err(), "case {case}: cut at {cut} decodes");
    }
}

#[test]
fn parse_bytes_round_trips_every_format() {
    for case in 0..CASES {
        let tr = arb_trace(&mut SmallRng::seed_from_u64(case));
        use formats::TraceFormat::*;
        for format in [Native, Std, Csv, Stb] {
            let bytes = formats::render_bytes(&tr, format);
            let back = formats::parse_bytes(&bytes, format);
            assert_eq!(back.as_ref(), Ok(&tr), "case {case}: {format}");
        }
    }
}

#[test]
fn stats_invariants_hold() {
    for case in 0..CASES {
        let tr = arb_trace(&mut SmallRng::seed_from_u64(case));
        let s = TraceStats::compute(&tr);
        assert_eq!(s.total_events, tr.len(), "case {case}");
        assert!(s.nsea_count <= s.access_count, "case {case}");
        assert!(
            s.access_count + s.sync_count == s.total_events,
            "case {case}"
        );
        // The held-lock distribution is monotone: ≥1 ⊇ ≥2 ⊇ ≥3.
        assert!(s.nsea_holding[0] >= s.nsea_holding[1], "case {case}");
        assert!(s.nsea_holding[1] >= s.nsea_holding[2], "case {case}");
        assert!(s.nsea_holding[0] <= s.nsea_count, "case {case}");
        assert!(s.threads_max_live <= s.threads_total, "case {case}");
    }
}

#[test]
fn thread_projections_partition_the_trace() {
    for case in 0..CASES {
        let tr = arb_trace(&mut SmallRng::seed_from_u64(case));
        let mut total = 0;
        for t in 0..tr.num_threads() {
            let proj = tr.thread_projection(smarttrack_trace::ThreadId::new(t as u32));
            // Projections are strictly increasing event ids.
            let increasing = proj.windows(2).all(|w| w[0] < w[1]);
            assert!(increasing, "case {case}: thread {t}");
            total += proj.len();
        }
        assert_eq!(total, tr.len(), "case {case}");
    }
}

#[test]
fn last_writers_point_backwards_to_same_variable() {
    for case in 0..CASES {
        let tr = arb_trace(&mut SmallRng::seed_from_u64(case));
        for (read, writer) in tr.last_writers() {
            let what = format!("case {case}: read {read}, writer {writer:?}");
            assert!(matches!(tr.event(read).op, Op::Read(_)), "{what}");
            if let Some(w) = writer {
                assert!(w < read, "{what}");
                let (wvar, rvar) = (tr.event(w).op.access_var(), tr.event(read).op.access_var());
                assert_eq!(wvar, rvar, "{what}");
                assert!(tr.event(w).op.is_write(), "{what}");
            }
        }
    }
}

#[test]
fn held_locks_series_is_consistent_with_projection() {
    for case in 0..CASES {
        let tr = arb_trace(&mut SmallRng::seed_from_u64(case));
        let series = tr.held_locks_series();
        assert_eq!(series.len(), tr.len(), "case {case}");
        for (i, e) in tr.events().iter().enumerate() {
            // The acquired/released lock is in its own event's held set.
            if let Op::Acquire(m) | Op::Release(m) = e.op {
                assert!(series[i].contains(&m), "case {case}: event {i}");
            }
        }
    }
}

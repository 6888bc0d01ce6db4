//! Property test for the Eraser baseline: on executions that follow a
//! consistent lock discipline (every access to a variable holds that
//! variable's guard lock), lockset analysis is silent — and so is every
//! analysis in the paper's Table 1 matrix, because guarded accesses cannot
//! race under any of the four relations.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smarttrack_detect::{make_detector, run_detector, table1_configs, EraserLockset};
use smarttrack_trace::{LockId, Op, ThreadId, Trace, TraceBuilder, VarId};

/// One guarded access: thread, variable (its guard lock is `lock(var)`),
/// write?, and whether an extra outer lock wraps the critical section.
type GuardedAccess = (u32, u32, bool, bool);

fn disciplined_trace(accesses: &[GuardedAccess]) -> Trace {
    let outer = LockId::new(100);
    let mut b = TraceBuilder::new();
    for &(thread, var, is_write, nested) in accesses {
        let t = ThreadId::new(thread);
        let guard = LockId::new(var);
        let x = VarId::new(var);
        // Each critical section is contiguous in the linearization, so the
        // builder's well-formedness (no acquiring a held lock) holds by
        // construction.
        if nested {
            b.push(t, Op::Acquire(outer)).unwrap();
        }
        b.push(t, Op::Acquire(guard)).unwrap();
        b.push(t, if is_write { Op::Write(x) } else { Op::Read(x) })
            .unwrap();
        b.push(t, Op::Release(guard)).unwrap();
        if nested {
            b.push(t, Op::Release(outer)).unwrap();
        }
    }
    b.finish()
}

/// 48 seeded cases of 1 to 49 guarded accesses by 4 threads to 3 variables.
#[test]
fn disciplined_traces_are_silent_everywhere() {
    for case in 0..48 {
        let rng = &mut SmallRng::seed_from_u64(case);
        let len = rng.gen_range(1usize..50);
        let accesses: Vec<GuardedAccess> = (0..len)
            .map(|_| {
                (
                    rng.gen_range(0..4),
                    rng.gen_range(0..3),
                    rng.gen(),
                    rng.gen(),
                )
            })
            .collect();
        let trace = disciplined_trace(&accesses);

        let mut eraser = EraserLockset::new();
        eraser.run(&trace);
        let what = format!("case {case}: lockset discipline holds");
        assert_eq!(eraser.report().dynamic_count(), 0, "{what}");

        for (relation, level, with_graph) in table1_configs() {
            let mut det = make_detector(relation, level, with_graph).expect("valid config");
            run_detector(det.as_mut(), &trace);
            let what = format!("case {case}: {} races on a guarded trace", det.name());
            assert_eq!(det.report().dynamic_count(), 0, "{what}");
        }
    }
}

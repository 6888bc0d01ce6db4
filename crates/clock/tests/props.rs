//! Property-based tests for the clock lattice. Each property runs 64 seeded
//! cases; a failure names its case, which `SmallRng::seed_from_u64` replays.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smarttrack_clock::{Epoch, ReadMeta, ThreadId, VectorClock};

const CASES: u64 = 64;

/// A clock over fewer than 8 threads, each entry below 50.
fn arb_vc(rng: &mut SmallRng) -> VectorClock {
    let len = rng.gen_range(0u32..8);
    (0..len)
        .map(|i| (ThreadId::new(i), rng.gen_range(0u32..50)))
        .collect()
}

#[test]
fn join_is_upper_bound() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let (a, b) = (arb_vc(rng), arb_vc(rng));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.leq(&j) && b.leq(&j), "case {case}: {a:?} ⊔ {b:?} = {j:?}");
    }
}

#[test]
fn join_is_least_upper_bound() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let (a, b, c) = (arb_vc(rng), arb_vc(rng), arb_vc(rng));
        // If c is an upper bound of a and b then join(a, b) ⊑ c.
        let mut ub = c.clone();
        ub.join(&a);
        ub.join(&b);
        let mut j = a.clone();
        j.join(&b);
        assert!(j.leq(&ub), "case {case}: {j:?} ⋢ {ub:?}");
    }
}

#[test]
fn join_commutes() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let (a, b) = (arb_vc(rng), arb_vc(rng));
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        for i in 0..8u32 {
            let t = ThreadId::new(i);
            assert_eq!(ab.get(t), ba.get(t), "case {case}: entry {i}");
        }
    }
}

#[test]
fn join_is_idempotent() {
    for case in 0..CASES {
        let a = arb_vc(&mut SmallRng::seed_from_u64(case));
        let mut aa = a.clone();
        aa.join(&a);
        assert!(aa.leq(&a) && a.leq(&aa), "case {case}: {a:?}");
    }
}

#[test]
fn leq_is_transitive() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let (a, b, c) = (arb_vc(rng), arb_vc(rng), arb_vc(rng));
        if a.leq(&b) && b.leq(&c) {
            assert!(a.leq(&c), "case {case}: {a:?} ⊑ {b:?} ⊑ {c:?}");
        }
    }
}

#[test]
fn leq_antisymmetric_up_to_entries() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let (a, b) = (arb_vc(rng), arb_vc(rng));
        if a.leq(&b) && b.leq(&a) {
            for i in 0..8u32 {
                let t = ThreadId::new(i);
                assert_eq!(a.get(t), b.get(t), "case {case}: entry {i}");
            }
        }
    }
}

#[test]
fn epoch_leq_agrees_with_singleton_vc() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let tid = ThreadId::new(rng.gen_range(0u32..8));
        let c = rng.gen_range(0u32..50);
        let vc = arb_vc(rng);
        let e = Epoch::new(tid, c);
        let singleton: VectorClock = [(tid, c)].into_iter().collect();
        assert_eq!(e.leq_vc(&vc), singleton.leq(&vc), "case {case}: {e:?}");
    }
}

#[test]
fn share_never_loses_access_times() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let (tid1, c1) = (rng.gen_range(0u32..4), rng.gen_range(1u32..50));
        let (tid2, c2) = (rng.gen_range(0u32..4), rng.gen_range(1u32..50));
        let mut rx = ReadMeta::from(Epoch::new(ThreadId::new(tid1), c1));
        rx.share(Epoch::new(ThreadId::new(tid2), c2));
        // After sharing, the recorded clock per thread is the newest value.
        if tid1 != tid2 {
            assert_eq!(rx.clock_of(ThreadId::new(tid1)), c1, "case {case}");
        }
        assert_eq!(rx.clock_of(ThreadId::new(tid2)), c2, "case {case}");
    }
}

#[test]
fn readmeta_leq_vector_form_is_conjunction() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let len = rng.gen_range(1usize..5);
        let vals: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..20)).collect();
        let vc = arb_vc(rng);
        let mut rx = ReadMeta::none();
        for (i, &c) in vals.iter().enumerate() {
            if c > 0 {
                rx.share(Epoch::new(ThreadId::new(i as u32), c));
            }
        }
        let expected = vals
            .iter()
            .enumerate()
            .all(|(i, &c)| c == 0 || Epoch::new(ThreadId::new(i as u32), c).leq_vc(&vc));
        // Only meaningful once in vector form.
        if rx.as_vc().is_some() {
            assert_eq!(rx.leq_vc(&vc), expected, "case {case}: {vals:?} vs {vc:?}");
        }
    }
}

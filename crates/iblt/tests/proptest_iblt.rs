//! Property-based tests for the IBLT: recovery correctness under arbitrary
//! signed-set contents (the structure's contract: net multiplicity of each
//! key in {−1, 0, +1} at recovery time), serial/parallel agreement, and
//! subtraction algebra.

use proptest::prelude::*;
use std::collections::BTreeMap;

use peel_iblt::cell::{fold48, Cell, SwarCell};
use peel_iblt::{reconcile, AtomicIblt, Iblt, IbltConfig, IbltHasher};

/// A signed set: each key appears with net +1 or −1 (0-net keys are
/// represented by inserting *and* deleting them, exercising cancellation).
#[derive(Debug, Clone)]
struct Content {
    /// key → net sign (+1 / −1)
    net: BTreeMap<u64, i64>,
    /// keys churned through the table with net 0
    churn: Vec<u64>,
}

fn arb_content(max_live: usize, max_churn: usize) -> impl Strategy<Value = Content> {
    (
        proptest::collection::btree_map(
            0u64..5_000,
            prop_oneof![Just(1i64), Just(-1)],
            0..max_live,
        ),
        proptest::collection::vec(5_000u64..10_000, 0..max_churn),
    )
        .prop_map(|(net, churn)| Content { net, churn })
}

fn load(t: &Iblt, content: &Content) -> Iblt {
    let mut t = t.clone();
    for (&k, &sign) in &content.net {
        if sign > 0 {
            t.insert(k);
        } else {
            t.delete(k);
        }
    }
    for &k in &content.churn {
        t.insert(k);
        t.delete(k);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever recovery returns is genuine: positive keys have net +1,
    /// negative keys −1, nothing is reported twice, and a complete
    /// recovery lists the entire net content.
    #[test]
    fn recovery_is_sound(content in arb_content(60, 30)) {
        let cfg = IbltConfig::new(3, 200, 7);
        let t = load(&Iblt::new(cfg), &content);
        let out = t.recover();

        for &k in &out.positive {
            prop_assert_eq!(content.net.get(&k), Some(&1), "false positive {}", k);
        }
        for &k in &out.negative {
            prop_assert_eq!(content.net.get(&k), Some(&-1), "false negative {}", k);
        }
        let mut all: Vec<u64> = out.positive.iter().chain(&out.negative).copied().collect();
        let len_before = all.len();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), len_before, "key reported twice");

        if out.complete {
            prop_assert_eq!(
                out.positive.len() + out.negative.len(),
                content.net.len(),
                "complete recovery must list the whole net content"
            );
        }
    }

    /// The exact characterization from the paper: recovery completes **iff**
    /// the 2-core of the key/cell hypergraph is empty (checksum collisions
    /// aside, probability ~2^-64). Cross-validated against `peel-core`'s
    /// independent k-core computation. This also pins down the finite-size
    /// failure the paper remarks on (two keys sharing all r cells form an
    /// unpeelable duplicate-edge pair — proptest finds such pairs at these
    /// tiny table sizes).
    #[test]
    fn decode_completes_iff_2core_empty(
        keys in proptest::collection::btree_set(any::<u64>(), 0..100),
    ) {
        let cfg = IbltConfig::new(3, 70, 3); // 210 cells for ≤100 keys
        let hasher = IbltHasher::new(&cfg);
        let mut t = Iblt::new(cfg);
        let mut builder =
            peel_graph::HypergraphBuilder::new(cfg.total_cells(), cfg.hashes)
                .skip_distinct_check();
        for &k in &keys {
            t.insert(k);
            let cells: Vec<u32> = (0..cfg.hashes)
                .map(|j| hasher.global_cell(j, k) as u32)
                .collect();
            builder.push_edge(&cells);
        }
        let graph = builder.build().unwrap();
        let core_empty = peel_core::kcore_vertices(&graph, 2).is_empty();

        let out = t.recover();
        prop_assert_eq!(
            out.complete,
            core_empty,
            "decode completeness must coincide with 2-core emptiness"
        );
        if out.complete {
            prop_assert_eq!(out.positive.len(), keys.len());
        }
    }

    /// Parallel (dense and frontier) and serial recovery return identical
    /// key sets on any in-contract content — alone in a small table
    /// (candidate mode), and on top of a fixed ballast in a table whose
    /// subtables are wide enough to split (dense mode). The parallel side
    /// runs in a 4-thread pool, so the scoped-thread path of the fused
    /// kernel is exercised on a single-core machine too.
    #[test]
    fn parallel_matches_serial(content in arb_content(80, 20)) {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let mut ballast = Iblt::new(IbltConfig::new(3, 4_096, 11));
        (10_000..15_000u64).for_each(|k| ballast.insert(k));
        for base in [Iblt::new(IbltConfig::new(3, 250, 11)), ballast] {
            let serial_table = load(&base, &content);
            let s = serial_table.recover();

            let (dense, frontier) = pool.install(|| (
                AtomicIblt::from_serial(&serial_table).par_recover(),
                AtomicIblt::from_serial(&serial_table).par_recover_frontier(),
            ));
            prop_assert_eq!(&dense.per_subround, &frontier.per_subround);
            for par in [dense, frontier] {
                prop_assert_eq!(s.complete, par.complete);
                let mut sp = s.positive.clone();
                sp.sort_unstable();
                let mut pp = par.positive.clone();
                pp.sort_unstable();
                prop_assert_eq!(sp, pp);
                let mut sn = s.negative.clone();
                sn.sort_unstable();
                let mut pn = par.negative.clone();
                pn.sort_unstable();
                prop_assert_eq!(sn, pn);
            }
        }
    }

    /// a − b decodes to the symmetric difference whenever it decodes at
    /// all; and (a − b) mirrored equals (b − a).
    #[test]
    fn subtraction_algebra(
        a_keys in proptest::collection::btree_set(0u64..5_000, 0..50),
        b_keys in proptest::collection::btree_set(0u64..5_000, 0..50),
    ) {
        let a_keys: Vec<u64> = a_keys.into_iter().collect();
        let b_keys: Vec<u64> = b_keys.into_iter().collect();

        let cfg = IbltConfig::new(3, 220, 13);
        let mut a = Iblt::new(cfg);
        for &k in &a_keys { a.insert(k); }
        let mut b = Iblt::new(cfg);
        for &k in &b_keys { b.insert(k); }

        let d1 = reconcile(&a, &b);
        let d2 = reconcile(&b, &a);
        prop_assert_eq!(d1.complete, d2.complete);
        prop_assert_eq!(&d1.only_in_a, &d2.only_in_b);
        prop_assert_eq!(&d1.only_in_b, &d2.only_in_a);

        if d1.complete {
            let want_a: Vec<u64> =
                a_keys.iter().filter(|k| !b_keys.contains(k)).copied().collect();
            let want_b: Vec<u64> =
                b_keys.iter().filter(|k| !a_keys.contains(k)).copied().collect();
            prop_assert_eq!(d1.only_in_a, want_a);
            prop_assert_eq!(d1.only_in_b, want_b);
        } else {
            for k in &d1.only_in_a {
                prop_assert!(a_keys.contains(k) && !b_keys.contains(k));
            }
            for k in &d1.only_in_b {
                prop_assert!(b_keys.contains(k) && !a_keys.contains(k));
            }
        }
    }

    /// The packed SWAR cell tracks the scalar cell bit for bit under any
    /// signed update sequence: folding per update equals folding the
    /// scalar accumulator once at the end (fold48 linearity), and the
    /// count, emptiness, and purity views agree at every prefix.
    #[test]
    fn swar_fold_matches_scalar_cell(
        ops in proptest::collection::vec((any::<u64>(), prop_oneof![Just(1i64), Just(-1)]), 0..200),
    ) {
        let hasher = IbltHasher::new(&IbltConfig::new(3, 64, 23));
        let mut scalar = Cell::default();
        let mut swar = SwarCell::default();
        for &(key, dir) in &ops {
            let check = hasher.checksum(key);
            scalar.apply(key, check, dir);
            swar.apply(key, fold48(check), dir);
            prop_assert_eq!(swar, scalar.to_swar());
            prop_assert_eq!(swar.count(), scalar.count);
            prop_assert_eq!(swar.is_empty(), scalar.is_empty());
            prop_assert_eq!(swar.is_pure(&hasher), scalar.is_pure(&hasher));
        }
    }

    /// Insert-then-delete of the same key sequence always leaves a
    /// completely empty, trivially decodable table.
    #[test]
    fn perfect_cancellation(keys in proptest::collection::vec(any::<u64>(), 0..100)) {
        let cfg = IbltConfig::new(4, 64, 17);
        let mut t = Iblt::new(cfg);
        for &k in &keys { t.insert(k); }
        for &k in &keys { t.delete(k); }
        prop_assert!(t.cells().iter().all(|c| c.is_empty()));
        let out = t.recover();
        prop_assert!(out.complete);
        prop_assert!(out.positive.is_empty() && out.negative.is_empty());
    }
}

//! Property-based tests: all peeling engines agree, and their outputs
//! satisfy the defining invariants of the k-core and of claim schedules.

use proptest::prelude::*;

use peel_core::parallel::{peel_parallel, ParallelOpts, Strategy as PeelStrategy};
use peel_core::peel_parallel_in;
use peel_core::sequential::{peel_greedy, peel_rounds_serial};
use peel_core::subtable::{peel_subtables, SubtableOpts};
use peel_core::trace::UNPEELED;
use peel_core::workspace::PeelWorkspace;
use peel_graph::models::{Gnm, Partitioned};
use peel_graph::rng::Xoshiro256StarStar;
use peel_graph::{Hypergraph, HypergraphBuilder};

/// Strategy: a random r-uniform hypergraph described by (n, r, edge list).
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..=5, 5usize..=80).prop_flat_map(|(r, n)| {
        let n = n.max(r + 1);
        let max_edges = 3 * n;
        proptest::collection::vec(proptest::collection::vec(0..n as u32, r), 0..max_edges).prop_map(
            move |mut edges| {
                // Repair duplicate endpoints inside an edge by re-rolling
                // deterministically (shift until distinct).
                for e in edges.iter_mut() {
                    for i in 0..e.len() {
                        let mut guard = 0;
                        while e[..i].contains(&e[i]) {
                            e[i] = (e[i] + 1) % n as u32;
                            guard += 1;
                            assert!(guard <= n, "cannot make edge distinct");
                        }
                    }
                }
                let mut b = HypergraphBuilder::new(n, r);
                for e in &edges {
                    b.push_edge(e);
                }
                b.build().expect("repaired edges are valid")
            },
        )
    })
}

/// Strategy: a random partitioned hypergraph (one endpoint per subtable).
fn arb_partitioned() -> impl Strategy<Value = Hypergraph> {
    (2usize..=4, 3usize..=20).prop_flat_map(|(r, per_part)| {
        let n = r * per_part;
        let max_edges = 3 * n;
        proptest::collection::vec(
            proptest::collection::vec(0..per_part as u32, r),
            0..max_edges,
        )
        .prop_map(move |edges| {
            let mut b = HypergraphBuilder::new(n, r).with_partition(r);
            for e in &edges {
                let abs: Vec<u32> = e
                    .iter()
                    .enumerate()
                    .map(|(j, &off)| (j * per_part) as u32 + off)
                    .collect();
                b.push_edge(&abs);
            }
            b.build().expect("partitioned edges are valid")
        })
    })
}

const STRATEGIES: [PeelStrategy; 3] = [
    PeelStrategy::Dense,
    PeelStrategy::Frontier,
    PeelStrategy::Adaptive,
];

/// A 1-thread and a 4-thread pool: the width-sensitive parts of the
/// engines (bucket slots, vertex-block size) follow the installed pool.
fn pools() -> [rayon::ThreadPool; 2] {
    [1, 4].map(|t| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap()
    })
}

fn core_set(peel_round: &[u32]) -> Vec<u32> {
    peel_round
        .iter()
        .enumerate()
        .filter(|(_, &r)| r == UNPEELED)
        .map(|(v, _)| v as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The k-core is unique: greedy, serial-rounds, dense, frontier, and
    /// adaptive all find the same core vertex set.
    #[test]
    fn engines_agree_on_core(g in arb_hypergraph(), k in 1u32..=4) {
        let greedy = peel_greedy(&g, k);
        let serial = peel_rounds_serial(&g, k);

        prop_assert_eq!(serial.core_vertices, greedy.core_vertices);
        prop_assert_eq!(serial.core_edges, greedy.core_edges);
        let want = core_set(&serial.peel_round);
        for strategy in [PeelStrategy::Dense, PeelStrategy::Frontier, PeelStrategy::Adaptive] {
            let out = peel_parallel(&g, k, &ParallelOpts { strategy, ..Default::default() });
            prop_assert_eq!(&core_set(&out.peel_round), &want, "{:?}", strategy);
        }
    }

    /// Synchronous semantics are engine- and width-independent: identical
    /// round counts, per-vertex peel rounds, and survivor series, under
    /// 1- and 4-thread pools.
    #[test]
    fn engines_agree_on_rounds(g in arb_hypergraph(), k in 1u32..=4) {
        let serial = peel_rounds_serial(&g, k);
        for pool in &pools() {
            for strategy in STRATEGIES {
                let out = pool.install(|| {
                    peel_parallel(&g, k, &ParallelOpts { strategy, ..Default::default() })
                });
                prop_assert_eq!(out.rounds, serial.rounds, "{:?}", strategy);
                prop_assert_eq!(&out.peel_round, &serial.peel_round, "{:?}", strategy);
                prop_assert_eq!(&out.edge_kill_round, &serial.edge_kill_round, "{:?}", strategy);
                prop_assert_eq!(out.survivor_series(), serial.survivor_series(), "{:?}", strategy);
            }
        }
    }

    /// ISSUE 4 satellite: `Strategy::Adaptive` agrees with the serial
    /// reference (rounds, per-vertex peel rounds, core size) on random
    /// `Gnm` instances across seeds and k ∈ {2, 3} — run through a reused
    /// workspace, so the steady-state pooled path is what's validated.
    #[test]
    fn adaptive_agrees_with_serial_on_gnm(
        seed in any::<u64>(),
        n in 100usize..1500,
        c in 0.3f64..1.2,
        r in 3usize..=4,
        k in 2u32..=3,
    ) {
        let g = Gnm::new(n, c, r).sample(&mut Xoshiro256StarStar::new(seed));
        let serial = peel_rounds_serial(&g, k);
        let mut ws = PeelWorkspace::new();
        let opts = ParallelOpts { strategy: PeelStrategy::Adaptive, ..Default::default() };
        let run = peel_parallel_in(&g, k, &opts, &mut ws);
        prop_assert_eq!(run.rounds, serial.rounds);
        prop_assert_eq!(run.core_vertices, serial.core_vertices);
        prop_assert_eq!(run.core_edges, serial.core_edges);
        let out = ws.outcome(&run);
        prop_assert_eq!(&out.peel_round, &serial.peel_round);
        prop_assert_eq!(&out.edge_kill_round, &serial.edge_kill_round);
    }

    /// ISSUE 8 satellite: the CSR kill phases (vertex-sorted endpoint
    /// runs, bucketed degree decrements, prefetch) must be *bit-identical*
    /// to the serial reference — every strategy, both random models,
    /// k ∈ {2, 3}, across seeds. Runs through one reused workspace so the
    /// steady-state CSR/bucket buffers (not fresh allocations) are what
    /// gets validated, and compares the complete per-vertex and per-edge
    /// round arrays, not just aggregate counts.
    #[test]
    fn csr_kill_phases_bit_identical_to_serial(
        seed in any::<u64>(),
        size in 60usize..900,
        c in 0.3f64..1.2,
        r in 3usize..=4,
        k in 2u32..=3,
        partitioned in any::<bool>(),
    ) {
        let g = if partitioned {
            Partitioned::new(size.div_ceil(r) * r, c, r)
                .sample(&mut Xoshiro256StarStar::new(seed))
        } else {
            Gnm::new(size, c, r).sample(&mut Xoshiro256StarStar::new(seed))
        };
        let serial = peel_rounds_serial(&g, k);
        let mut ws = PeelWorkspace::new();
        for strategy in [PeelStrategy::Dense, PeelStrategy::Frontier, PeelStrategy::Adaptive] {
            let opts = ParallelOpts { strategy, ..Default::default() };
            let run = peel_parallel_in(&g, k, &opts, &mut ws);
            prop_assert_eq!(run.rounds, serial.rounds, "{:?}", strategy);
            let out = ws.outcome(&run);
            prop_assert_eq!(&out.peel_round, &serial.peel_round, "{:?}", strategy);
            prop_assert_eq!(&out.edge_kill_round, &serial.edge_kill_round, "{:?}", strategy);
            prop_assert_eq!(out.survivor_series(), serial.survivor_series(), "{:?}", strategy);
        }
    }

    /// Same agreement on the partitioned (subtable) model.
    #[test]
    fn adaptive_agrees_with_serial_on_partitioned(
        seed in any::<u64>(),
        per_part in 30usize..400,
        c in 0.3f64..1.2,
        r in 3usize..=4,
        k in 2u32..=3,
    ) {
        let g = Partitioned::new(per_part * r, c, r).sample(&mut Xoshiro256StarStar::new(seed));
        let serial = peel_rounds_serial(&g, k);
        let opts = ParallelOpts { strategy: PeelStrategy::Adaptive, ..Default::default() };
        let out = peel_parallel(&g, k, &opts);
        prop_assert_eq!(out.rounds, serial.rounds);
        prop_assert_eq!(out.core_vertices, serial.core_vertices);
        prop_assert_eq!(&out.peel_round, &serial.peel_round);
    }

    /// The surviving subgraph really is a k-core: every surviving vertex has
    /// at least k surviving incident edges, and every surviving edge has all
    /// endpoints surviving.
    #[test]
    fn core_satisfies_degree_invariant(g in arb_hypergraph(), k in 1u32..=4) {
        let out = peel_rounds_serial(&g, k);
        let alive_edge: Vec<bool> = out.edge_kill_round.iter().map(|&r| r == UNPEELED).collect();
        for v in 0..g.num_vertices() as u32 {
            if out.peel_round[v as usize] == UNPEELED {
                let live_deg = g.incident(v).iter().filter(|&&e| alive_edge[e as usize]).count();
                prop_assert!(live_deg >= k as usize,
                    "core vertex {v} has live degree {live_deg} < k={k}");
            }
        }
        for (e, &alive) in alive_edge.iter().enumerate() {
            if alive {
                for &w in g.edge(e as u32) {
                    prop_assert_eq!(out.peel_round[w as usize], UNPEELED,
                        "core edge {} touches peeled vertex {}", e, w);
                }
            }
        }
    }

    /// Maximality: peeling the complement in any order is impossible — i.e.
    /// re-running greedy on the core subgraph peels nothing.
    #[test]
    fn core_is_maximal(g in arb_hypergraph(), k in 1u32..=3) {
        let out = peel_greedy(&g, k);
        // Rebuild the core as its own graph.
        let alive: Vec<bool> = {
            let mut peeled = vec![false; g.num_vertices()];
            for &v in &out.peel_order { peeled[v as usize] = true; }
            peeled.iter().map(|&p| !p).collect()
        };
        let mut b = HypergraphBuilder::new(g.num_vertices(), g.arity());
        for (e, vs) in g.edges() {
            if out.edge_killer[e as usize] == UNPEELED {
                prop_assert!(vs.iter().all(|&v| alive[v as usize]));
                b.push_edge(vs);
            }
        }
        let core_graph = b.build().unwrap();
        let again = peel_greedy(&core_graph, k);
        // Only vertices outside the core (now isolated) may peel.
        for &v in &again.peel_order {
            prop_assert!(!alive[v as usize],
                "core vertex {v} peeled on re-run: core not maximal");
        }
    }

    /// Claim validity, under 1- and 4-thread pools: the killer of each
    /// dead edge is the smallest of its endpoints peeled in the edge's
    /// kill round (so an endpoint, peeled in that round), and for k<=2
    /// each vertex claims at most one edge.
    #[test]
    fn claims_are_valid(g in arb_hypergraph(), k in 1u32..=4) {
        for pool in &pools() {
            for strategy in STRATEGIES {
                let out = pool.install(|| {
                    peel_parallel(&g, k, &ParallelOpts { strategy, ..Default::default() })
                });
                let mut per_vertex = vec![0u32; g.num_vertices()];
                for (e, (&killer, &kr)) in out.edge_killer.iter().zip(&out.edge_kill_round).enumerate() {
                    prop_assert_eq!(killer == UNPEELED, kr == UNPEELED);
                    if killer != UNPEELED {
                        let smallest = g.edge(e as u32).iter().copied()
                            .filter(|&w| out.peel_round[w as usize] == kr)
                            .min();
                        prop_assert_eq!(smallest, Some(killer), "{:?}: edge {}", strategy, e);
                        per_vertex[killer as usize] += 1;
                    }
                }
                if k <= 2 {
                    prop_assert!(per_vertex.iter().all(|&c| c <= 1),
                        "k<=2 must give at most one claim per vertex");
                }
            }
        }
    }

    /// Trace bookkeeping adds up.
    #[test]
    fn trace_is_conserved(g in arb_hypergraph(), k in 1u32..=4) {
        let out = peel_parallel(&g, k, &ParallelOpts::default());
        let peeled: u64 = out.trace.iter().map(|s| s.peeled_vertices).sum();
        let killed: u64 = out.trace.iter().map(|s| s.peeled_edges).sum();
        prop_assert_eq!(peeled + out.core_vertices, g.num_vertices() as u64);
        prop_assert_eq!(killed + out.core_edges, g.num_edges() as u64);
        for w in out.trace.windows(2) {
            prop_assert!(w[1].unpeeled_vertices < w[0].unpeeled_vertices);
            prop_assert!(w[1].live_edges <= w[0].live_edges);
            prop_assert_eq!(w[1].round, w[0].round + 1);
        }
        if let Some(last) = out.trace.last() {
            prop_assert_eq!(last.unpeeled_vertices, out.core_vertices);
            prop_assert_eq!(last.live_edges, out.core_edges);
        }
    }

    /// Subtable engine: same core as greedy, and a valid subround structure.
    #[test]
    fn subtable_agrees_and_is_wellformed(g in arb_partitioned(), k in 1u32..=3) {
        let greedy = peel_greedy(&g, k);
        let out = peel_subtables(&g, k, &SubtableOpts::default());
        prop_assert_eq!(out.core_vertices, greedy.core_vertices);
        prop_assert_eq!(out.core_edges, greedy.core_edges);

        let parts = g.partition().unwrap();
        // A vertex peeled in subround s must belong to subtable (s-1) % r.
        for (v, &s) in out.peel_subround.iter().enumerate() {
            if s != UNPEELED {
                let expect = ((s - 1) as usize) % parts.parts;
                prop_assert_eq!(parts.part_of(v as u32), expect);
            }
        }
        // Claims valid.
        for (e, &killer) in out.edge_killer.iter().enumerate() {
            if killer != UNPEELED {
                prop_assert!(g.edge(e as u32).contains(&killer));
            }
        }
    }

    /// Subtable peeling never needs more than r × the plain synchronous
    /// rounds' subround budget (one plain round is at most r subrounds) and
    /// never fewer subrounds than plain rounds.
    #[test]
    fn subtable_round_bounds(g in arb_partitioned()) {
        let k = 2u32;
        let plain = peel_rounds_serial(&g, k);
        let sub = peel_subtables(&g, k, &SubtableOpts::default());
        let r = g.partition().unwrap().parts as u32;
        if plain.core_vertices == g.num_vertices() as u64 {
            // Nothing peelable at all.
            prop_assert_eq!(sub.subrounds, 0);
        } else {
            prop_assert!(sub.subrounds <= plain.rounds * r,
                "subrounds {} > r*rounds {}", sub.subrounds, plain.rounds * r);
            // Subround progress dominates plain progress round-for-round,
            // so finishing cannot take more rounds (in full-round units).
            prop_assert!(sub.rounds <= plain.rounds,
                "subtable rounds {} > plain rounds {}", sub.rounds, plain.rounds);
        }
    }
}

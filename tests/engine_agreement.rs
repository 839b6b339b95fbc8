//! Round-synchronous engine agreement (ISSUE 1 satellite; extended with
//! the direction-optimizing engine in ISSUE 4).
//!
//! The paper's analysis is about one process — synchronous round peeling —
//! and this workspace ships four engines claiming to implement it:
//! `peel_rounds_serial`, the dense parallel scan, the work-efficient
//! frontier engine, and the adaptive (direction-optimizing) engine. On any
//! fixed graph all four must therefore produce *identical* per-round peel
//! counts (vertices and edges per round) and the same final k-core, both
//! below the threshold `c*_{2,4} ≈ 0.772` (empty 2-core, ~log log n
//! rounds) and above it (large 2-core survives). The three parallel
//! engines also share one claim rule, so their per-edge killers must be
//! identical too, under any pool width.

use parallel_peeling::analysis::c_star;
use parallel_peeling::core::{
    peel_parallel, peel_rounds_serial, ParallelOpts, PeelOutcome, Strategy, UNPEELED,
};
use parallel_peeling::graph::models::Gnm;
use parallel_peeling::graph::rng::SplitMix64;
use parallel_peeling::graph::Hypergraph;

const N: usize = 40_000;
const R: usize = 4;
const K: u32 = 2;
const SEED: u64 = 0xA5EED;
const STRATEGIES: [Strategy; 3] = [Strategy::Dense, Strategy::Frontier, Strategy::Adaptive];

fn instance(c: f64) -> Hypergraph {
    Gnm::new(N, c, R).sample(&mut SplitMix64::new(SEED))
}

/// Per-round peels as `(round, count)` pairs.
type RoundSeries = Vec<(u32, u64)>;

/// (per-round vertex peels, per-round edge peels, sorted core vertices).
fn summary(out: &PeelOutcome) -> (RoundSeries, RoundSeries, Vec<u32>) {
    let vertices = out
        .trace
        .iter()
        .map(|s| (s.round, s.peeled_vertices))
        .collect();
    let edges = out
        .trace
        .iter()
        .map(|s| (s.round, s.peeled_edges))
        .collect();
    (vertices, edges, out.core_vertex_ids())
}

/// Assert that the killer of every dead edge is the smallest of its
/// endpoints peeled in the edge's kill round — the claim rule all three
/// parallel engines share.
fn assert_claims_are_smallest_peeled(g: &Hypergraph, out: &PeelOutcome, what: &str) {
    for (e, (&killer, &round)) in out.edge_killer.iter().zip(&out.edge_kill_round).enumerate() {
        if killer == UNPEELED {
            continue;
        }
        let smallest = g
            .edge(e as u32)
            .iter()
            .copied()
            .filter(|&w| out.peel_round[w as usize] == round)
            .min();
        assert_eq!(
            smallest,
            Some(killer),
            "{what}: edge {e} killed in round {round} by {killer}"
        );
    }
}

fn assert_engines_agree(g: &Hypergraph, expect_empty_core: bool) {
    let serial = peel_rounds_serial(g, K);
    let s = summary(&serial);

    for strategy in STRATEGIES {
        let out = peel_parallel(
            g,
            K,
            &ParallelOpts {
                strategy,
                ..Default::default()
            },
        );
        let p = summary(&out);
        assert_eq!(
            s.0, p.0,
            "serial vs {strategy:?} per-round vertex peels differ"
        );
        assert_eq!(
            s.1, p.1,
            "serial vs {strategy:?} per-round edge peels differ"
        );
        assert_eq!(s.2, p.2, "serial vs {strategy:?} final core differs");
        assert_eq!(serial.rounds, out.rounds, "{strategy:?}");
    }

    assert_eq!(
        serial.success(),
        expect_empty_core,
        "unexpected core outcome: {} core vertices at this density",
        serial.core_vertices
    );
}

#[test]
fn engines_agree_below_threshold() {
    let c = 0.70;
    assert!(c < c_star(K, R as u32).unwrap());
    assert_engines_agree(&instance(c), true);
}

#[test]
fn engines_agree_above_threshold() {
    let c = 0.85;
    assert!(c > c_star(K, R as u32).unwrap());
    assert_engines_agree(&instance(c), false);
}

#[test]
fn engines_agree_under_multithreaded_pool() {
    // Force a >1 worker pool so the parallel engines' kill and apply
    // phases run genuinely concurrently even on single-core CI machines;
    // round semantics must be unaffected by the worker count.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    pool.install(|| {
        assert_engines_agree(&instance(0.70), true);
        assert_engines_agree(&instance(0.85), false);
    });
}

#[test]
fn edge_killers_are_identical_across_engines_and_pool_widths() {
    // Claims are decided by a rule, not by a race: every engine under
    // every pool width must record the same killer for every edge, and
    // that killer is the smallest endpoint peeled in the edge's round.
    for c in [0.70, 0.85] {
        let g = instance(c);
        let mut first: Option<Vec<u32>> = None;
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for strategy in STRATEGIES {
                let opts = ParallelOpts {
                    strategy,
                    ..Default::default()
                };
                let out = pool.install(|| peel_parallel(&g, K, &opts));
                let what = format!("c = {c}, {threads} threads, {strategy:?}");
                assert_claims_are_smallest_peeled(&g, &out, &what);
                match &first {
                    None => first = Some(out.edge_killer),
                    Some(killers) => {
                        assert!(*killers == out.edge_killer, "{what}: killers differ")
                    }
                }
            }
        }
    }
}

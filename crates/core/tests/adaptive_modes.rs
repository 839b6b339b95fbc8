//! Regression pins for [`Strategy::Adaptive`]'s per-round direction
//! decisions.
//!
//! The adaptive engine's mode sequence is a pure function of the trace
//! (frontier sizes and live-edge counts, which are round-identical across
//! every engine) and the switch coefficient α. Pinning the exact sequence
//! on fixed-seed graphs turns any accidental change to the heuristic — a
//! re-fit of [`ADAPTIVE_DENSE_ALPHA`], a refactor of the division-free
//! test, a cost-model drift in the kill phases that should have triggered
//! a re-fit — into a loud test failure instead of a silent perf
//! regression like the α = 8 mispredict at n = 4×10⁵, c = 0.70 that
//! motivated the current fit.

use peel_core::parallel::{adaptive_picks_dense, ADAPTIVE_DENSE_ALPHA};
use peel_core::{peel_rounds_serial, PeelOutcome};
use peel_graph::models::{Gnm, Partitioned};
use peel_graph::rng::Xoshiro256StarStar;
use peel_graph::Hypergraph;

/// Reconstruct the adaptive direction sequence from a trace: `'D'` =
/// dense edge scan, `'F'` = frontier propagation. `RoundStats` records
/// the frontier the round peeled; live edges start at `m` and shrink by
/// each round's `peeled_edges`.
fn mode_string(g: &Hypergraph, out: &PeelOutcome, alpha: u64) -> String {
    let (n, m, r) = (
        g.num_vertices() as u64,
        g.num_edges() as u64,
        g.arity() as u64,
    );
    let mut live = m;
    let mut s = String::new();
    for round in &out.trace {
        let dense = adaptive_picks_dense(round.peeled_vertices, n, m, r, live, alpha);
        s.push(if dense { 'D' } else { 'F' });
        live -= round.peeled_edges;
    }
    s
}

#[test]
fn pinned_mode_sequences_at_default_alpha() {
    // Each case pins the full decision string for one fixed-seed graph at
    // the shipped α. If a legitimate α re-fit changes these, re-pin them
    // from the test's own failure output — but only after the traced
    // `peel-below` / `peel-above` benchmark runs confirm the new fit wins.
    // (label, graph, k, peels-to-empty?, pinned decision string). The
    // c = 0.85 case sits above c*_{2,4} ≈ 0.772: the 2-core survives, and
    // the decision string covers the truncated cascade to fixpoint.
    let cases: [(&str, Hypergraph, u32, bool, &str); 3] = [
        (
            "gnm-50k-c0.70-r4-seed24",
            Gnm::new(50_000, 0.70, 4).sample(&mut Xoshiro256StarStar::new(24)),
            2,
            true,
            "FFFFFFFFFDDFF",
        ),
        (
            "gnm-50k-c0.85-r4-seed24",
            Gnm::new(50_000, 0.85, 4).sample(&mut Xoshiro256StarStar::new(24)),
            2,
            false,
            "FFFFFFFFFFFF",
        ),
        (
            "part-30k-c0.75-r3-seed7",
            Partitioned::new(30_000, 0.75, 3).sample(&mut Xoshiro256StarStar::new(7)),
            2,
            true,
            "DFFFFFFFFFFFFFFF",
        ),
    ];
    for (label, g, k, empties, expected) in cases {
        let out = peel_rounds_serial(&g, k);
        assert_eq!(out.success(), empties, "{label}: unexpected core");
        let got = mode_string(&g, &out, ADAPTIVE_DENSE_ALPHA);
        assert_eq!(got, expected, "{label}: adaptive mode sequence drifted");
    }
}

#[test]
fn alpha_monotonicity_on_fixed_trace() {
    // Structural property behind the pins: raising α can only turn F
    // rounds into D rounds, never the reverse — the decision is monotone
    // in α at every round of a fixed trace.
    let g = Gnm::new(50_000, 0.70, 4).sample(&mut Xoshiro256StarStar::new(24));
    let out = peel_rounds_serial(&g, 2);
    let mut prev = mode_string(&g, &out, 1);
    for alpha in [2u64, 4, 8, 16, 32] {
        let cur = mode_string(&g, &out, alpha);
        for (p, c) in prev.chars().zip(cur.chars()) {
            assert!(
                !(p == 'D' && c == 'F'),
                "alpha={alpha}: dense round reverted to frontier"
            );
        }
        prev = cur;
    }
}

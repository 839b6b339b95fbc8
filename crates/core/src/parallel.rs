//! Round-synchronous parallel peeling (Sections 1, 3–5 of the paper),
//! direction-optimizing and allocation-free in steady state.
//!
//! All strategies implement the same synchronous semantics — a vertex is
//! peeled in round `t` iff it is alive with degree `< k` at the start of
//! round `t` — and the same claim rule — a dead edge is claimed by its
//! smallest-id endpoint peeled in the edge's kill round. They therefore
//! produce identical round counts, per-vertex peel rounds, per-edge kill
//! rounds and killers, whatever the worker count; they differ only in how
//! much work each round performs:
//!
//! * [`Strategy::Dense`] mirrors the paper's GPU implementation: every round
//!   launches one task per edge to test removal. Total work
//!   `O(n + m·rounds)`, perfectly regular.
//! * [`Strategy::Frontier`] is the work-efficient CPU variant: each round
//!   touches only the frontier and its incident edges, for `O(n + rm)`
//!   total work across all rounds.
//! * [`Strategy::Adaptive`] (the default) switches per round between the two
//!   kill phases, Beamer-style direction optimization: early rounds with a
//!   broad frontier take the dense edge scan (sequential memory traffic);
//!   as the frontier collapses — and below the threshold it collapses
//!   doubly exponentially — rounds switch to frontier propagation and stop
//!   paying the full-table scan. See [`ADAPTIVE_DENSE_ALPHA`] for the
//!   switch rule.
//!
//! ## One round: mark, kill, apply
//!
//! Only round 1 finds its frontier by scanning every vertex. Each round
//! then runs three phases separated by fork-join barriers:
//!
//! 1. **Mark.** The frontier's `peeled` bits and peel rounds are set.
//! 2. **Kill.** Every live edge with a peeled endpoint dies, found by the
//!    dense edge scan or the frontier walk. Every peeled endpoint of a
//!    live edge was peeled this round (an earlier peel would have killed
//!    it), and the smallest-id one claims it: plain loads of the bitset
//!    decide the claim, so exactly one task kills each edge, with no race.
//!    The claimer appends each endpoint that is not peeled to its task's
//!    [`Buckets`] slot, in the bin of its vertex block (`w >> block_shift`).
//! 3. **Apply.** Each task owns whole vertex blocks, each an L2-sized
//!    slice of the degree array. It drains their bins, applies the
//!    decrements with plain load and store, and emits exactly the vertices
//!    whose degree passes from `k` to `k − 1`: the next frontier, grouped
//!    by block. The crossing is unique per vertex, because an unpeeled
//!    vertex starts each round at degree ≥ k and peeled endpoints are
//!    never decremented.
//!
//! Every buffer lives in a [`PeelWorkspace`] and is reused across runs
//! ([`peel_parallel_in`]).
//!
//! ## Cache-conscious data path
//!
//! * The dense kill walks the flat endpoint table sequentially and tests
//!   peeled-ness in the packed `peeled` bitset (one cache line covers 512
//!   vertices).
//! * The frontier kill reads each vertex's CSR *adjacency run*
//!   ([`Hypergraph::adjacency`]) — edge id and other endpoints inlined in
//!   one contiguous region.
//! * Neither kill direction touches the degree array. Decrements stream
//!   into a few bins per task, and the apply phase's random updates stay
//!   inside one block, in L2, where a per-endpoint atomic decrement would
//!   miss the whole array and serialise the misses around it.
//! * Every phase issues software prefetches ([`peel_graph::prefetch`]) a
//!   few iterations ahead for its data-dependent reads.
//!
//! ## Memory-ordering argument
//!
//! All atomics use `Relaxed` ordering. Within a phase every written
//! location has one owner, or takes a commutative RMW:
//!
//! * `peel_round[v]`: the mark task holding frontier entry `v`;
//! * a killed edge's `edge_kill_round` and `edge_killer`: its claimer,
//!   unique by the claim rule;
//! * `deg[w]`, read and written with plain load and store: the apply task
//!   owning `w`'s block;
//! * the `peeled` and `edge_alive` words (64 flags each): commuting
//!   `fetch_or`/`fetch_and` on disjoint bits. A kill task may read an
//!   `edge_alive` bit while its claimer clears it, but only the claimer
//!   acts on that bit.
//!
//! Cross-phase visibility comes from rayon's fork-join barriers: each
//! phase completes (with synchronizes-with edges to the caller) before the
//! next starts. The kill barrier thus orders every bucket push before the
//! apply drain that reads it, the protocol the bucket loom model in
//! `peel-graph` checks.

use rayon::prelude::*;
// ordering: Relaxed throughout — within a phase every written location has
// one owner (a killed edge's metadata its claimer, a block's degrees its
// apply task) or takes a commutative bitset RMW on disjoint bits, and rayon
// fork-join barriers between phases carry the happens-before (module docs).
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use peel_graph::bits::{AtomicBitset, BucketWriter, Buckets, Striped};
use peel_graph::prefetch::prefetch_index;
use peel_graph::Hypergraph;

use crate::trace::{PeelOutcome, RoundStats};
use crate::workspace::{PeelRun, PeelWorkspace};

/// Work-distribution strategy for [`peel_parallel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// GPU-style scan of every edge each round. Like every strategy, it
    /// takes its next frontier from the apply phase; only round 1 scans
    /// the vertices.
    Dense,
    /// Work-efficient frontier propagation.
    Frontier,
    /// Direction-optimizing: dense edge scan while the frontier is broad,
    /// frontier propagation once it collapses (default).
    #[default]
    Adaptive,
}

/// [`Strategy::Adaptive`]'s default switch coefficient: a round takes the
/// dense edge scan when the frontier's expected incident endpoints
/// (`|F| · m·r/n`, i.e. frontier size × average degree — the propagation
/// cost) exceed `1/α` of the dense scan's cost (`m` bitset probes plus
/// `live·r` endpoint loads), with `α =` this constant. Rearranged to the
/// division-free integer test in [`adaptive_picks_dense`]. Larger α holds
/// the dense direction longer.
///
/// Fitted by sweeping α ∈ {2..48} over `Gnm(n, c, 4)` for n ∈ {10⁵,
/// 4×10⁵}, c ∈ {0.70, 0.85} on the CSR engine with per-thread degree
/// counters: cheaper adjacency runs helped the frontier walk more than
/// the dense sweep, moving the crossover from 8 down to ≈ 4.
///
/// Deliberately not re-fitted for the owner-computes kill rounds, which
/// took the per-endpoint atomics out of both directions alike, so the
/// pins in `tests/adaptive_modes.rs` stand. The traced `peel-below` run
/// of that change (2 cores, T = 2) read `core.dense_tmax_ms` 137,
/// `core.frontier_tmax_ms` 143 and `core.adaptive_tmax_ms` 136. After
/// any change to the kill phases' per-edge costs, re-check the fit
/// against those rows of the traced `peel-below` / `peel-above` runs.
pub const ADAPTIVE_DENSE_ALPHA: u64 = 4;

/// The per-round direction decision of [`Strategy::Adaptive`]:
/// `true` = dense edge scan, `false` = frontier propagation. Exposed so
/// tests and benches can audit which direction a recorded round took.
/// `alpha` is the switch coefficient; the engine uses
/// [`ADAPTIVE_DENSE_ALPHA`].
#[inline]
pub fn adaptive_picks_dense(
    frontier_len: u64,
    n: u64,
    m: u64,
    r: u64,
    live_edges: u64,
    alpha: u64,
) -> bool {
    // frontier_len · (m·r/n) · α  >  m + live·r, division-free. u128: the
    // left side multiplies four u64s that can each be large.
    (frontier_len as u128) * (m as u128) * (r as u128) * (alpha as u128)
        > (n as u128) * ((m as u128) + (live_edges as u128) * (r as u128))
}

/// Options for [`peel_parallel`].
#[derive(Debug, Clone)]
pub struct ParallelOpts {
    /// Work-distribution strategy.
    pub strategy: Strategy,
    /// Stop after this many rounds even if not at fixpoint (useful for
    /// "survivors after t rounds" experiments). `u32::MAX` = run to fixpoint.
    pub max_rounds: u32,
    /// Record the per-round [`RoundStats`] trace (cheap; on by default).
    pub collect_trace: bool,
}

impl Default for ParallelOpts {
    fn default() -> Self {
        ParallelOpts {
            strategy: Strategy::Adaptive,
            max_rounds: u32::MAX,
            collect_trace: true,
        }
    }
}

/// Peel `g` to its k-core with synchronous parallel rounds, using a
/// throwaway workspace.
///
/// Runs on the current rayon thread pool (install a custom pool around the
/// call to control the thread count, e.g. for scaling experiments). For
/// repeated peeling, keep a [`PeelWorkspace`] and call
/// [`peel_parallel_in`] — this wrapper allocates the full working set per
/// call.
pub fn peel_parallel(g: &Hypergraph, k: u32, opts: &ParallelOpts) -> PeelOutcome {
    let mut ws = PeelWorkspace::new();
    let run = peel_parallel_in(g, k, opts, &mut ws);
    ws.outcome(&run)
}

/// Peel `g` to its k-core inside `ws`, reusing its buffers.
///
/// Steady-state allocation-free: once `ws` has peeled a graph with at
/// least as many vertices/edges, no call touches the allocator. The
/// per-vertex/per-edge results stay in `ws` (accessors, or
/// [`PeelWorkspace::outcome`] to materialize them).
pub fn peel_parallel_in(
    g: &Hypergraph,
    k: u32,
    opts: &ParallelOpts,
    ws: &mut PeelWorkspace,
) -> PeelRun {
    assert!(k >= 1, "peeling threshold k must be >= 1");
    ws.reset_for(g);
    let n = g.num_vertices();
    let m = g.num_edges();
    let PeelWorkspace {
        deg,
        peel_round,
        peeled,
        edge_kill_round,
        edge_killer,
        edge_alive,
        frontier,
        stripes,
        decrements,
        block_shift,
        trace,
    } = ws;

    // Round-1 frontier: dense vertex scan (all strategies start here; no
    // cheaper source of the initial sub-threshold set exists).
    collect_frontier_scan(g, k, deg, peeled, stripes, frontier);

    let mut round = 0u32;
    let mut unpeeled = n as u64;
    let mut live_edges = m as u64;

    while !frontier.is_empty() && round < opts.max_rounds {
        round += 1;

        // Phase 1: mark the frontier peeled (before any edge removal, so
        // the kill phase observes a consistent "peeled this round"
        // predicate). The packed `peeled` bit is what the kill phases
        // test; `peel_round` carries the round number for the outputs.
        let marks = &*frontier;
        marks.par_iter().enumerate().for_each(|(i, &v)| {
            if let Some(&ahead) = marks.get(i + INDEX_PREFETCH_AHEAD) {
                prefetch_index(peel_round, ahead as usize);
            }
            peel_round[v as usize].store(round, Relaxed);
            peeled.set(v as usize);
        });

        // Direction choice for this round's kill phase. Pure strategies
        // pin it; Adaptive compares the frontier's expected incident
        // endpoints against the live endpoints (see
        // [`ADAPTIVE_DENSE_ALPHA`]).
        let dense = match opts.strategy {
            Strategy::Dense => true,
            Strategy::Frontier => false,
            Strategy::Adaptive => adaptive_picks_dense(
                frontier.len() as u64,
                n as u64,
                m as u64,
                g.arity() as u64,
                live_edges,
                ADAPTIVE_DENSE_ALPHA,
            ),
        };

        // Phase 2: kill the edges incident to the frontier, binning the
        // degree decrements by vertex block.
        let kill = KillPhase {
            g,
            round,
            peeled,
            edge_alive,
            edge_kill_round,
            edge_killer,
            decrements,
            block_shift: *block_shift,
        };
        let killed = if dense {
            kill.dense()
        } else {
            kill.frontier(frontier)
        };

        unpeeled -= frontier.len() as u64;
        live_edges -= killed;
        // Structured per-round trace for a live subscriber (flight
        // recorder). Behind the `enabled` gate so an untraced run pays
        // one relaxed load per round, not field packing.
        if tracing::enabled() {
            tracing::event(
                "peel_round",
                &[
                    ("round", round.into()),
                    ("peeled", (frontier.len() as u64).into()),
                    ("killed", killed.into()),
                    ("unpeeled", unpeeled.into()),
                    ("live_edges", live_edges.into()),
                    ("dense", dense.into()),
                ],
            );
        }
        if opts.collect_trace {
            trace.push(RoundStats {
                round,
                peeled_vertices: frontier.len() as u64,
                peeled_edges: killed,
                unpeeled_vertices: unpeeled,
                live_edges,
            });
        }

        // Phase 3: apply the decrements block by block; the vertices they
        // carry below the threshold are the next frontier.
        frontier.clear();
        let decrements_in_flight = killed as usize * g.arity();
        apply_decrements(k, deg, decrements, decrements_in_flight, stripes, frontier);
    }

    PeelRun {
        k,
        rounds: round,
        core_vertices: unpeeled,
        core_edges: live_edges,
    }
}

/// How many edges ahead the dense kill phase prefetches its endpoints'
/// peeled-bitset words (the only data-dependent reads on its hot path).
const DENSE_PREFETCH_AHEAD: usize = 8;

/// How many frontier entries ahead the frontier kill phase prefetches the
/// adjacency run (the per-vertex region all its reads come from).
const FRONTIER_PREFETCH_AHEAD: usize = 4;

/// How many entries ahead the mark and apply phases, which walk a vertex
/// list and update one word per vertex, prefetch that word.
const INDEX_PREFETCH_AHEAD: usize = 16;

/// Below this much work (edges, frontier vertices or decrements) a phase
/// runs as one inline task, because starting workers would cost more than
/// the work. It matches the rayon shim's own inline cut-off.
const PAR_MIN_WORK: usize = 2048;

/// Number of tasks a phase with `work` items splits into: one per bucket
/// slot, or one in all.
fn tasks_for(work: usize, slots: usize) -> usize {
    if work < PAR_MIN_WORK {
        1
    } else {
        slots
    }
}

/// Dense vertex scan: gather every alive vertex with degree `< k` into
/// `out` via the striped buffers (source order per stripe, stripes merged
/// by offset — no per-round allocation).
fn collect_frontier_scan(
    g: &Hypergraph,
    k: u32,
    deg: &[AtomicU32],
    peeled: &AtomicBitset,
    stripes: &mut Striped<u32>,
    out: &mut Vec<u32>,
) {
    let n = g.num_vertices();
    {
        let stripes = &*stripes;
        (0..n as u32).into_par_iter().for_each(|v| {
            if !peeled.get(v as usize) && deg[v as usize].load(Relaxed) < k {
                stripes
                    .lock(Striped::<u32>::stripe_of(v as usize, n))
                    .push(v);
            }
        });
    }
    stripes.drain_into(out);
}

/// The state one round's kill phase reads and writes. Task `s` of either
/// direction writes bucket slot `s` and nothing else of `decrements`.
struct KillPhase<'a> {
    g: &'a Hypergraph,
    round: u32,
    peeled: &'a AtomicBitset,
    edge_alive: &'a AtomicBitset,
    edge_kill_round: &'a [AtomicU32],
    edge_killer: &'a [AtomicU32],
    decrements: &'a Buckets<u32>,
    block_shift: u32,
}

impl KillPhase<'_> {
    /// Kill live edge `e` for its claimer `killer`, and bin one decrement
    /// for each entry of `verts` that is not peeled (a repeated endpoint
    /// is listed, and decremented, once per occurrence).
    #[inline]
    fn kill(&self, e: usize, killer: u32, verts: &[u32], out: &mut BucketWriter<'_, u32>) {
        self.edge_alive.clear(e);
        self.edge_kill_round[e].store(self.round, Relaxed);
        self.edge_killer[e].store(killer, Relaxed);
        for &w in verts {
            if !self.peeled.get(w as usize) {
                out.push((w >> self.block_shift) as usize, w);
            }
        }
    }

    /// Dense direction: task `s` scans the contiguous edge range
    /// `s*m/T .. (s+1)*m/T`, and a live edge with a peeled endpoint dies,
    /// claimed by the smallest one. Returns the number of edges killed.
    fn dense(&self) -> u64 {
        let m = self.g.num_edges();
        let r = self.g.arity();
        let endpoints = self.g.endpoints_flat();
        let tasks = tasks_for(m, self.decrements.slots());
        // `with_min_len(1)` makes the T-element dispatch actually split
        // (T is far below the shim's default inline threshold).
        (0..tasks)
            .into_par_iter()
            .with_min_len(1)
            .map(|s| {
                let mut out = self.decrements.writer(s);
                let (lo, hi) = (s * m / tasks, (s + 1) * m / tasks);
                let mut killed = 0u64;
                for e in lo..hi {
                    // The endpoint table streams sequentially; the
                    // peeled-bit probes are the data-dependent reads, so
                    // issue them a few edges early.
                    if e + DENSE_PREFETCH_AHEAD < hi {
                        let base = (e + DENSE_PREFETCH_AHEAD) * r;
                        for &w in &endpoints[base..base + r] {
                            self.peeled.prefetch_bit(w as usize);
                        }
                    }
                    if !self.edge_alive.get(e) {
                        continue;
                    }
                    let verts = &endpoints[e * r..e * r + r];
                    let claimer = verts
                        .iter()
                        .copied()
                        .filter(|&w| self.peeled.get(w as usize))
                        .min();
                    if let Some(killer) = claimer {
                        self.kill(e, killer, verts, &mut out);
                        killed += 1;
                    }
                }
                killed
            })
            .sum()
    }

    /// Frontier direction: task `s` walks the `s`-th contiguous chunk of
    /// the frontier, reading each vertex's CSR adjacency run, and a
    /// frontier vertex kills each live incident edge it is the smallest
    /// peeled endpoint of. Returns the number of edges killed.
    fn frontier(&self, frontier: &[u32]) -> u64 {
        let r = self.g.arity();
        let len = frontier.len();
        let tasks = tasks_for(len, self.decrements.slots());
        (0..tasks)
            .into_par_iter()
            .with_min_len(1)
            .map(|s| {
                let mut out = self.decrements.writer(s);
                let chunk = &frontier[s * len / tasks..(s + 1) * len / tasks];
                let mut killed = 0u64;
                for (i, &v) in chunk.iter().enumerate() {
                    // The adjacency run of a later frontier entry is this
                    // loop's only unpredictable read region; hint it a few
                    // entries ahead.
                    if let Some(&ahead) = chunk.get(i + FRONTIER_PREFETCH_AHEAD) {
                        self.g.prefetch_adjacency(ahead);
                    }
                    // A repeated endpoint lists its edge once per
                    // occurrence; the first claim clears the alive bit,
                    // so the later runs skip the edge.
                    for run in self.g.adjacency(v).chunks_exact(r) {
                        let (e, others) = (run[0], &run[1..]);
                        if !self.edge_alive.get(e as usize) {
                            continue;
                        }
                        if others.iter().any(|&u| u < v && self.peeled.get(u as usize)) {
                            continue; // a smaller peeled endpoint claims it
                        }
                        self.kill(e as usize, v, others, &mut out);
                        killed += 1;
                    }
                }
                killed
            })
            .sum()
    }
}

/// Apply phase: each task owns whole vertex blocks (bins of
/// `decrements`), drains every slot's decrements for them, and updates
/// the block's degrees with plain load and store — it is their only
/// writer. A vertex whose degree passes from `k` to `k − 1` joins the next
/// frontier: it is unpeeled (peeled endpoints are never binned) and
/// started the round at degree ≥ k, so it crosses exactly once. A
/// block's crossings land together in its stripe, so the frontier comes
/// out grouped by block. `in_flight` bounds the number of binned
/// decrements (it sizes the dispatch).
fn apply_decrements(
    k: u32,
    deg: &[AtomicU32],
    decrements: &Buckets<u32>,
    in_flight: usize,
    stripes: &mut Striped<u32>,
    frontier: &mut Vec<u32>,
) {
    let bins = decrements.bins();
    let min_len = if in_flight < PAR_MIN_WORK { bins } else { 1 };
    {
        let stripes = &*stripes;
        (0..bins)
            .into_par_iter()
            .with_min_len(min_len)
            .for_each(|b| {
                let mut next = None;
                decrements.drain_bin(b, |ws| {
                    for (i, &w) in ws.iter().enumerate() {
                        if let Some(&ahead) = ws.get(i + INDEX_PREFETCH_AHEAD) {
                            prefetch_index(deg, ahead as usize);
                        }
                        let d = deg[w as usize].load(Relaxed);
                        debug_assert!(
                            d > 0,
                            "degree underflow at vertex {w} (graph built with repeated \
                             endpoints beyond its incidence table?)"
                        );
                        deg[w as usize].store(d - 1, Relaxed);
                        if d == k {
                            next.get_or_insert_with(|| {
                                stripes.lock(Striped::<u32>::stripe_of(b, bins))
                            })
                            .push(w);
                        }
                    }
                });
            });
    }
    stripes.drain_into(frontier);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::{peel_greedy, peel_rounds_serial};
    use crate::trace::UNPEELED;
    use peel_graph::models::{Gnm, Partitioned};
    use peel_graph::rng::Xoshiro256StarStar;
    use peel_graph::HypergraphBuilder;

    fn all_strategies() -> [ParallelOpts; 3] {
        [
            ParallelOpts {
                strategy: Strategy::Dense,
                ..Default::default()
            },
            ParallelOpts {
                strategy: Strategy::Frontier,
                ..Default::default()
            },
            ParallelOpts {
                strategy: Strategy::Adaptive,
                ..Default::default()
            },
        ]
    }

    fn path5() -> Hypergraph {
        let mut b = HypergraphBuilder::new(5, 2);
        b.push_edge(&[0, 1]);
        b.push_edge(&[1, 2]);
        b.push_edge(&[2, 3]);
        b.push_edge(&[3, 4]);
        b.build().unwrap()
    }

    #[test]
    fn path_rounds_match_all_strategies() {
        for opts in all_strategies() {
            let out = peel_parallel(&path5(), 2, &opts);
            assert!(out.success());
            assert_eq!(out.rounds, 3, "{:?}", opts.strategy);
            assert_eq!(out.peel_round, vec![1, 2, 3, 2, 1]);
            assert_eq!(out.survivor_series(), vec![3, 1, 0]);
        }
    }

    #[test]
    fn agrees_with_serial_reference_on_random_graphs() {
        for seed in 0..5u64 {
            let mut rng = Xoshiro256StarStar::new(seed);
            let g = Gnm::new(3000, 0.75, 3).sample(&mut rng);
            let reference = peel_rounds_serial(&g, 2);
            for opts in all_strategies() {
                let out = peel_parallel(&g, 2, &opts);
                assert_eq!(out.rounds, reference.rounds, "seed {seed}");
                assert_eq!(out.peel_round, reference.peel_round, "seed {seed}");
                assert_eq!(out.edge_kill_round, reference.edge_kill_round);
                assert_eq!(out.core_vertices, reference.core_vertices);
                assert_eq!(
                    out.survivor_series(),
                    reference.survivor_series(),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_greedy_core() {
        for seed in 0..4u64 {
            let mut rng = Xoshiro256StarStar::new(100 + seed);
            let g = Gnm::new(2000, 0.9, 4).sample(&mut rng); // above c*_{2,4}: core likely
            let greedy = peel_greedy(&g, 2);
            for opts in all_strategies() {
                let out = peel_parallel(&g, 2, &opts);
                assert_eq!(out.core_vertices, greedy.core_vertices);
                assert_eq!(out.core_edges, greedy.core_edges);
            }
        }
    }

    #[test]
    fn k3_core_agreement() {
        for seed in 0..3u64 {
            let mut rng = Xoshiro256StarStar::new(200 + seed);
            let g = Gnm::new(2000, 1.4, 3).sample(&mut rng); // near c*_{3,3}
            let greedy = peel_greedy(&g, 3);
            for opts in all_strategies() {
                let out = peel_parallel(&g, 3, &opts);
                assert_eq!(out.core_vertices, greedy.core_vertices, "seed {seed}");
            }
        }
    }

    #[test]
    fn below_threshold_succeeds_with_loglog_rounds() {
        let mut rng = Xoshiro256StarStar::new(7);
        let g = Gnm::new(100_000, 0.70, 4).sample(&mut rng);
        let out = peel_parallel(&g, 2, &ParallelOpts::default());
        assert!(out.success());
        // Table 1: ~12.9 rounds at n = 80k–160k.
        assert!(
            out.rounds >= 10 && out.rounds <= 16,
            "rounds = {}",
            out.rounds
        );
    }

    #[test]
    fn above_threshold_fails_with_nonempty_core() {
        let mut rng = Xoshiro256StarStar::new(8);
        let g = Gnm::new(100_000, 0.85, 4).sample(&mut rng);
        let out = peel_parallel(&g, 2, &ParallelOpts::default());
        assert!(!out.success());
        // Section 4 / Table 2: the core holds ≈ 77.5% of vertices at c=0.85.
        let frac = out.core_vertices as f64 / 100_000.0;
        assert!((frac - 0.775).abs() < 0.01, "core fraction {frac}");
    }

    #[test]
    fn max_rounds_truncates() {
        let mut rng = Xoshiro256StarStar::new(9);
        let g = Gnm::new(50_000, 0.70, 4).sample(&mut rng);
        for strategy in [Strategy::Dense, Strategy::Frontier, Strategy::Adaptive] {
            let opts = ParallelOpts {
                strategy,
                max_rounds: 3,
                ..Default::default()
            };
            let out = peel_parallel(&g, 2, &opts);
            assert_eq!(out.rounds, 3);
            assert!(!out.success()); // truncated before the fixpoint
            let full = peel_parallel(
                &g,
                2,
                &ParallelOpts {
                    strategy,
                    ..Default::default()
                },
            );
            // The 3-round survivor count matches the full run's trace.
            assert_eq!(
                out.trace.last().unwrap().unpeeled_vertices,
                full.trace[2].unpeeled_vertices
            );
        }
    }

    #[test]
    fn dense_claims_are_deterministic_endpoints() {
        let mut rng = Xoshiro256StarStar::new(10);
        let g = Gnm::new(5000, 0.7, 3).sample(&mut rng);
        let opts = ParallelOpts {
            strategy: Strategy::Dense,
            ..Default::default()
        };
        let a = peel_parallel(&g, 2, &opts);
        let b = peel_parallel(&g, 2, &opts);
        assert_eq!(
            a.edge_killer, b.edge_killer,
            "dense engine is deterministic"
        );
        for (e, &killer) in a.edge_killer.iter().enumerate() {
            if killer != UNPEELED {
                assert!(g.edge(e as u32).contains(&killer));
            }
        }
    }

    #[test]
    fn frontier_claims_are_valid_k2() {
        let mut rng = Xoshiro256StarStar::new(11);
        let g = Gnm::new(5000, 0.7, 3).sample(&mut rng);
        for opts in all_strategies() {
            let out = peel_parallel(&g, 2, &opts);
            // k=2 invariant: each vertex claims at most one edge, claimed in
            // the round the vertex was peeled.
            let mut claims = vec![0u32; g.num_vertices()];
            for (e, (&killer, &kround)) in out
                .edge_killer
                .iter()
                .zip(out.edge_kill_round.iter())
                .enumerate()
            {
                if killer != UNPEELED {
                    claims[killer as usize] += 1;
                    assert!(g.edge(e as u32).contains(&killer));
                    assert_eq!(out.peel_round[killer as usize], kround);
                }
            }
            assert!(claims.iter().all(|&c| c <= 1), "k=2: one claim per vertex");
        }
    }

    #[test]
    fn works_on_partitioned_graphs_too() {
        let mut rng = Xoshiro256StarStar::new(12);
        let g = Partitioned::new(40_000, 0.70, 4).sample(&mut rng);
        let out = peel_parallel(&g, 2, &ParallelOpts::default());
        assert!(out.success());
    }

    #[test]
    fn trace_disabled_still_counts_rounds() {
        let g = path5();
        let opts = ParallelOpts {
            collect_trace: false,
            ..Default::default()
        };
        let out = peel_parallel(&g, 2, &opts);
        assert_eq!(out.rounds, 3);
        assert!(out.trace.is_empty());
    }

    #[test]
    fn workspace_reuse_is_stable_across_runs_and_sizes() {
        // One workspace peels a large graph, then a smaller one, then the
        // large one again (buffer shrink + regrow paths); every run must
        // match a fresh-workspace reference exactly.
        let mut ws = PeelWorkspace::new();
        let mut rng = Xoshiro256StarStar::new(21);
        let big = Gnm::new(20_000, 0.72, 4).sample(&mut rng);
        let small = Gnm::new(500, 0.9, 3).sample(&mut rng);
        for g in [&big, &small, &big, &small] {
            let reference = peel_rounds_serial(g, 2);
            for strategy in [Strategy::Dense, Strategy::Frontier, Strategy::Adaptive] {
                let opts = ParallelOpts {
                    strategy,
                    ..Default::default()
                };
                let run = peel_parallel_in(g, 2, &opts, &mut ws);
                assert_eq!(run.rounds, reference.rounds);
                assert_eq!(run.core_vertices, reference.core_vertices);
                assert_eq!(run.core_edges, reference.core_edges);
                let out = ws.outcome(&run);
                assert_eq!(out.peel_round, reference.peel_round);
                assert_eq!(out.edge_kill_round, reference.edge_kill_round);
                assert_eq!(ws.trace().len(), reference.trace.len());
            }
        }
    }

    #[test]
    fn workspace_reuse_after_truncated_run() {
        // A max_rounds-truncated run leaves partial state (and, for the
        // propagating strategies, a collected-but-unused next frontier);
        // the following full run on the same workspace must be unaffected.
        let mut rng = Xoshiro256StarStar::new(22);
        let g = Gnm::new(10_000, 0.70, 4).sample(&mut rng);
        let reference = peel_rounds_serial(&g, 2);
        let mut ws = PeelWorkspace::new();
        for strategy in [Strategy::Dense, Strategy::Frontier, Strategy::Adaptive] {
            let truncated = ParallelOpts {
                strategy,
                max_rounds: 2,
                ..Default::default()
            };
            let run = peel_parallel_in(&g, 2, &truncated, &mut ws);
            assert_eq!(run.rounds, 2);
            let full = ParallelOpts {
                strategy,
                ..Default::default()
            };
            let run = peel_parallel_in(&g, 2, &full, &mut ws);
            assert_eq!(run.rounds, reference.rounds, "{strategy:?}");
            assert_eq!(run.core_vertices, reference.core_vertices);
        }
    }

    #[test]
    fn repeated_endpoint_edges_do_not_underflow_degrees() {
        // Regression (ISSUE 4 satellite): an edge listing the same vertex
        // twice contributes two incidence slots to it, so the kill-phase
        // decrement runs twice for one edge — the engines must neither
        // underflow the degree counter (the debug_assert in the kill
        // phases) nor disagree with the serial reference. Such graphs only
        // arise via `skip_distinct_check`; the builder rejects them by
        // default.
        let mut b = HypergraphBuilder::new(6, 2).skip_distinct_check();
        b.push_edge(&[0, 0]); // self-loop: deg(0) = 2
        b.push_edge(&[0, 1]);
        b.push_edge(&[1, 2]);
        b.push_edge(&[3, 3]); // isolated self-loop component
        b.push_edge(&[4, 5]);
        let g = b.build().unwrap();
        let reference = peel_rounds_serial(&g, 2);
        for opts in all_strategies() {
            let out = peel_parallel(&g, 2, &opts);
            assert_eq!(out.rounds, reference.rounds, "{:?}", opts.strategy);
            assert_eq!(out.peel_round, reference.peel_round, "{:?}", opts.strategy);
            assert_eq!(out.edge_kill_round, reference.edge_kill_round);
            assert_eq!(out.core_vertices, reference.core_vertices);
        }
        // Larger randomized variant with a sprinkle of duplicate-endpoint
        // edges, k = 3 to exercise multi-decrement crossings.
        let mut rng = Xoshiro256StarStar::new(23);
        let base = Gnm::new(2_000, 1.2, 3).sample(&mut rng);
        let mut b = HypergraphBuilder::new(2_000, 3).skip_distinct_check();
        for (_, vs) in base.edges() {
            b.push_edge(vs);
        }
        for i in 0..50u32 {
            let v = (i * 37) % 2_000;
            b.push_edge(&[v, v, (v + 1) % 2_000]);
        }
        let g = b.build().unwrap();
        let reference = peel_rounds_serial(&g, 3);
        let n = g.num_vertices() as u64;
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for opts in all_strategies() {
                let out = pool.install(|| peel_parallel(&g, 3, &opts));
                assert_eq!(out.peel_round, reference.peel_round, "{:?}", opts.strategy);
                // A doubly decremented vertex crosses k once: no vertex may
                // join two frontiers.
                let peeled: u64 = out.trace.iter().map(|s| s.peeled_vertices).sum();
                assert_eq!(peeled, n - reference.core_vertices, "{:?}", opts.strategy);
            }
        }
    }

    #[test]
    fn workspace_reuse_across_pool_widths_matches_serial() {
        // The benchmark shares one workspace between a 1-thread and a
        // many-thread lane. Bucket slots and the vertex-block size follow
        // each run's pool, and every run must still match the serial
        // reference, with the same killers at every width.
        let mut rng = Xoshiro256StarStar::new(25);
        let g = Gnm::new(20_000, 0.72, 4).sample(&mut rng);
        let reference = peel_rounds_serial(&g, 2);
        let mut ws = PeelWorkspace::new();
        let mut killers = Vec::new();
        for threads in [1, 4, 1] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for opts in all_strategies() {
                let run = pool.install(|| peel_parallel_in(&g, 2, &opts, &mut ws));
                let out = ws.outcome(&run);
                let what = format!("{threads} threads, {:?}", opts.strategy);
                assert_eq!(out.rounds, reference.rounds, "{what}");
                assert_eq!(out.peel_round, reference.peel_round, "{what}");
                assert_eq!(out.edge_kill_round, reference.edge_kill_round, "{what}");
                assert_eq!(out.core_edges, reference.core_edges, "{what}");
                if killers.is_empty() {
                    killers = out.edge_killer;
                } else {
                    assert!(killers == out.edge_killer, "{what}: killers differ");
                }
            }
        }
    }

    #[test]
    fn adaptive_uses_both_directions_below_threshold() {
        // Sanity check on the direction heuristic itself: at c = 0.70 the
        // peel avalanche broadens the frontier mid-cascade (dense pays
        // off there — with the post-CSR α = 4 fit the early rounds stay
        // frontier and the switch fires at the cascade peak) and the tail
        // rounds collapse it (propagation pays off). The switch rule must
        // select dense somewhere and frontier by the end — otherwise
        // "adaptive" is silently degenerate. The exact per-round
        // decisions are pinned in tests/adaptive_modes.rs.
        let mut rng = Xoshiro256StarStar::new(24);
        let g = Gnm::new(50_000, 0.70, 4).sample(&mut rng);
        let out = peel_parallel(&g, 2, &ParallelOpts::default());
        assert!(out.success());
        let n = g.num_vertices() as u64;
        let m = g.num_edges() as u64;
        let r = g.arity() as u64;
        let mut live = m;
        let mut modes = Vec::new();
        for s in &out.trace {
            modes.push(adaptive_picks_dense(
                s.peeled_vertices,
                n,
                m,
                r,
                live,
                ADAPTIVE_DENSE_ALPHA,
            ));
            live -= s.peeled_edges;
        }
        assert!(
            modes.iter().any(|&d| d),
            "some round should take the dense direction"
        );
        assert!(
            !modes.last().unwrap(),
            "final rounds should take the frontier direction"
        );
    }
}

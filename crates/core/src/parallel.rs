//! Round-synchronous parallel peeling (Sections 1, 3–5 of the paper),
//! direction-optimizing and allocation-free in steady state.
//!
//! All strategies implement the same synchronous semantics — a vertex is
//! peeled in round `t` iff it is alive with degree `< k` at the start of
//! round `t` — so they produce identical round counts, per-round peel
//! counts, and survivor series; they differ only in how much work each
//! round performs:
//!
//! * [`Strategy::Dense`] mirrors the paper's GPU implementation: every round
//!   launches one task per vertex (to test the peel condition) and one task
//!   per edge (to test removal). Total work `O((n+m)·rounds)`, perfectly
//!   regular, fully deterministic (each edge is examined by exactly one task
//!   per round, and the recorded claim is the smallest-index peeled
//!   endpoint).
//! * [`Strategy::Frontier`] is the work-efficient CPU variant: each round
//!   touches only the frontier and its incident edges, for `O(n + rm)`
//!   total work across all rounds. Edge removal races are resolved with an
//!   atomic test-and-clear per edge, so claim winners (but nothing else)
//!   are scheduling-dependent.
//! * [`Strategy::Adaptive`] (the default) switches per round between the two
//!   kill phases, Beamer-style direction optimization: early rounds with a
//!   broad frontier take the dense edge scan (sequential memory traffic, no
//!   claim contention); as the frontier collapses — and below the threshold
//!   it collapses doubly exponentially — rounds switch to frontier
//!   propagation and stop paying the full-table scan. See
//!   [`ADAPTIVE_DENSE_ALPHA`] for the switch rule.
//!
//! Every engine runs out of a [`PeelWorkspace`]: degrees, peel rounds, kill
//! metadata, the alive/peeled/queued bitsets, the frontier, striped
//! per-thread collection buffers, and striped decrement counters are
//! allocated once and reused across runs ([`peel_parallel_in`]); the next
//! frontier is gathered into the striped buffers and merged by offset
//! instead of the old `fold(Vec::new)` / `reduce(append)` churn.
//!
//! ## Cache-conscious data path
//!
//! Both kill phases are laid out so the hot loops stream memory instead of
//! chasing it:
//!
//! * the dense phase walks the flat endpoint table sequentially, tests
//!   peeled-ness in the packed `peeled` bitset (one cache line covers 512
//!   vertices), and *batches* degree decrements into per-task
//!   [`StripedCounters`] stripes (plain load+store on thread-private
//!   lines) — one post-barrier merge per round applies the summed deltas
//!   and detects every threshold crossing exactly, replacing two atomic
//!   RMWs per endpoint (`fetch_sub` + `queued` test-and-set) with none;
//! * the frontier phase reads each vertex's CSR *adjacency run*
//!   ([`Hypergraph::adjacency`]) — edge id and other endpoints inlined in
//!   one contiguous region — instead of bouncing between the incidence
//!   and endpoint tables, and batches the vertex's own decrements into a
//!   single `fetch_sub`;
//! * both phases issue software prefetches (`peel-graph`'s
//!   [`peel_graph::prefetch`]) a few iterations ahead for the
//!   data-dependent reads the hardware prefetcher cannot predict.
//!
//! ## Memory-ordering argument
//!
//! All atomics use `Relaxed` ordering. Correctness does not rest on
//! intra-round ordering: within a phase each location has either a single
//! logical writer (`peel_round[v]` is written only by the task that owns
//! frontier entry `v`; a dead edge's metadata is written only by the task
//! that won its kill; a decrement stripe is written only by the task that
//! owns it, and a merged vertex block only by its merge task) or
//! commutative RMWs (`fetch_sub` on degrees, `fetch_or`/`fetch_and` on the
//! bitset words). The bitsets pack 64 flags per atomic word, so two tasks
//! claiming *different* edges may now RMW the *same* word — that is still
//! a commutative update of disjoint bits, and the winner of any single bit
//! is decided by the one `fetch_and` that observed it set, exactly as the
//! old per-edge `AtomicBool::swap` did. Cross-phase visibility is provided
//! by rayon's fork-join barriers: every `par_iter` completes (with
//! synchronizes-with edges to the caller) before the next phase starts —
//! in particular the dense kill barrier orders every stripe write before
//! the merge that reads it (the protocol checked by the striped-counter
//! loom model in `peel-graph`).

use rayon::prelude::*;
// ordering: Relaxed throughout — writes are idempotent claims (every
// racer stores the same round number), single-winner bitset RMWs, or
// commutative degree updates, and rounds are separated by rayon
// fork-join barriers that carry the cross-round happens-before (see the
// module docs above for the full argument).
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

use peel_graph::bits::{AtomicBitset, Striped, StripedCounters};
use peel_graph::Hypergraph;

use crate::trace::{PeelOutcome, RoundStats};
use crate::workspace::{PeelRun, PeelWorkspace};

/// Work-distribution strategy for [`peel_parallel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// GPU-style full scan of vertices and edges each round; deterministic.
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
/// Fitted against the CSR/striped-counter engine by sweeping α ∈ {2..48}
/// over `Gnm(n, c, 4)` for n ∈ {10⁵, 4×10⁵}, c ∈ {0.70, 0.85}: the CSR
/// rewrite cheapened *both* directions, but the frontier walk gained
/// more — sequential adjacency runs replaced its per-edge pointer
/// chasing, while the dense scan still pays the full `m`-edge sweep plus
/// the striped-counter merge every round — so the crossover moved
/// *down*, from the old fit's 8 to ≈ 4. The α = 8 fit held the dense
/// direction too long and lost to serial at n = 4×10⁵, c = 0.70. After
/// any change to the kill phases' per-edge costs, re-check the fit
/// against the `core.adaptive_*` and `core.frontier_*` rows of the
/// traced `peel-below` / `peel-above` benchmark runs.
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
        queued,
        frontier,
        stripes,
        dec,
        trace,
        ..
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
        frontier.par_iter().for_each(|&v| {
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
        // Pure Dense rediscovers each frontier by vertex scan (that full
        // rescan is its documented work profile); the other strategies
        // collect crossing vertices during the kill phase.
        let collect_next = opts.strategy != Strategy::Dense;

        // Phase 2: kill edges incident to the frontier.
        let killed = if dense {
            kill_dense(
                g,
                k,
                round,
                deg,
                peeled,
                edge_kill_round,
                edge_killer,
                edge_alive,
                dec,
                stripes,
                collect_next,
            )
        } else {
            kill_frontier(
                g,
                k,
                round,
                frontier,
                deg,
                peeled,
                edge_kill_round,
                edge_killer,
                edge_alive,
                queued,
                stripes,
            )
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

        // Phase 3: assemble the next frontier (skipped when max_rounds
        // truncates the run here).
        frontier.clear();
        if round < opts.max_rounds {
            if collect_next {
                stripes.drain_into(frontier);
            } else {
                collect_frontier_scan(g, k, deg, peeled, stripes, frontier);
            }
        }
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

/// Dense kill phase: contiguous edge ranges, one per decrement stripe; a
/// live edge with a peeled endpoint dies, claimed by its first peeled
/// endpoint in edge order (all peeled endpoints of a live edge were
/// necessarily peeled *this* round, since an earlier peel would have
/// killed the edge already). Degree decrements are *batched* into the
/// task's own [`StripedCounters`] stripe — no atomic RMW per endpoint —
/// and a post-barrier merge applies the summed deltas. With
/// `collect_next`, the merge also collects the next frontier *exactly*:
/// every unpeeled vertex has degree ≥ k when the round starts (anything
/// below the threshold was collected into an earlier frontier and
/// peeled), so a merged degree < k identifies precisely the vertices that
/// crossed this round, each seen by exactly one merge task — no `queued`
/// dedup bitset needed on this path.
#[allow(clippy::too_many_arguments)] // engine phase over one shared state bundle
fn kill_dense(
    g: &Hypergraph,
    k: u32,
    round: u32,
    deg: &[AtomicU32],
    peeled: &AtomicBitset,
    edge_kill_round: &[AtomicU32],
    edge_killer: &[AtomicU32],
    edge_alive: &AtomicBitset,
    dec: &StripedCounters,
    stripes: &Striped<u32>,
    collect_next: bool,
) -> u64 {
    let m = g.num_edges();
    let r = g.arity();
    let endpoints = g.endpoints_flat();
    let nstripes = dec.stripes();
    let killed = AtomicU64::new(0);
    // Accumulate phase: stripe `s` owns edges `s*m/S .. (s+1)*m/S` and is
    // the single writer of decrement stripe `s`. `with_min_len(1)` makes
    // the S-element dispatch actually split (S is far below the shim's
    // default inline threshold).
    (0..nstripes).into_par_iter().with_min_len(1).for_each(|s| {
        let lo = s * m / nstripes;
        let hi = (s + 1) * m / nstripes;
        let mut local_killed = 0u64;
        for e in lo..hi {
            // The endpoint table streams sequentially; the peeled-bit
            // probes are the data-dependent reads, so issue them a few
            // edges early.
            if e + DENSE_PREFETCH_AHEAD < hi {
                let base = (e + DENSE_PREFETCH_AHEAD) * r;
                for &w in &endpoints[base..base + r] {
                    peeled.prefetch_bit(w as usize);
                }
            }
            // Exactly one task examines each edge per round: plain
            // loads and stores suffice, the alive bit is only cleared
            // (never contended) here.
            if !edge_alive.get(e) {
                continue;
            }
            let verts = &endpoints[e * r..e * r + r];
            let Some(&killer) = verts.iter().find(|&&w| peeled.get(w as usize)) else {
                continue;
            };
            edge_alive.clear(e);
            edge_kill_round[e].store(round, Relaxed);
            edge_killer[e].store(killer, Relaxed);
            local_killed += 1;
            for &w in verts {
                dec.add(s, w as usize);
            }
        }
        if local_killed > 0 {
            killed.fetch_add(local_killed, Relaxed);
        }
    });

    // Merge phase (the accumulate barrier has passed): sum each touched
    // vertex's stripes, apply the delta, and detect threshold crossings.
    // Merge tasks own disjoint block ranges, so degree updates are plain
    // load/store and each crossing vertex is pushed exactly once.
    let n = g.num_vertices();
    let blocks = dec.num_blocks();
    (0..blocks).into_par_iter().with_min_len(8).for_each(|b| {
        dec.drain_block(b, |v, delta| {
            let old = deg[v].load(Relaxed);
            debug_assert!(
                old >= delta,
                "degree underflow at vertex {v}: merged decrement {delta} exceeds degree {old} \
                 (graph built with repeated endpoints beyond its incidence table?)"
            );
            let new = old - delta;
            deg[v].store(new, Relaxed);
            if collect_next && new < k && !peeled.get(v) {
                stripes.lock(Striped::<u32>::stripe_of(v, n)).push(v as u32);
            }
        });
    });
    killed.into_inner()
}

/// Frontier kill phase: each frontier vertex streams its CSR adjacency
/// run — edge id and the other endpoints inlined in one contiguous
/// region — claiming live edges via an atomic test-and-clear on the
/// edge-alive bitset (first claimer wins), decrementing the *other*
/// endpoints as it goes (its own decrements are batched into one
/// `fetch_sub` at the end: a frontier vertex is already peeled, so it can
/// never re-cross the threshold), and queues endpoints that cross the
/// threshold for the next frontier.
#[allow(clippy::too_many_arguments)] // engine phase over one shared state bundle
fn kill_frontier(
    g: &Hypergraph,
    k: u32,
    round: u32,
    frontier: &[u32],
    deg: &[AtomicU32],
    peeled: &AtomicBitset,
    edge_kill_round: &[AtomicU32],
    edge_killer: &[AtomicU32],
    edge_alive: &AtomicBitset,
    queued: &AtomicBitset,
    stripes: &Striped<u32>,
) -> u64 {
    let len = frontier.len();
    let r = g.arity();
    let killed = AtomicU64::new(0);
    frontier.par_iter().enumerate().for_each(|(i, &v)| {
        // The adjacency run of a later frontier entry is this loop's only
        // unpredictable read region; hint it a few entries ahead.
        if let Some(&ahead) = frontier.get(i + FRONTIER_PREFETCH_AHEAD) {
            g.prefetch_adjacency(ahead);
        }
        // One stripe guard per frontier vertex, taken lazily on the first
        // queued discovery.
        let mut pushed = None;
        let mut local_killed = 0u64;
        for run in g.adjacency(v).chunks_exact(r) {
            let e = run[0] as usize;
            // First claimer wins; the bitset test-and-clear is the CAS.
            if edge_alive.test_and_clear(e) {
                edge_kill_round[e].store(round, Relaxed);
                edge_killer[e].store(v, Relaxed);
                local_killed += 1;
                for &w in &run[1..] {
                    let old = deg[w as usize].fetch_sub(1, Relaxed);
                    debug_assert!(
                        old > 0,
                        "degree underflow at vertex {w}: edge {e} decremented past zero \
                         (graph built with repeated endpoints beyond its incidence table?)"
                    );
                    // The decrement that crosses the k boundary (and any
                    // later one) sees old - 1 < k; `queued` deduplicates,
                    // `peeled` excludes vertices peeled this round or
                    // earlier.
                    if old - 1 < k && !peeled.get(w as usize) && !queued.test_and_set(w as usize) {
                        pushed
                            .get_or_insert_with(|| stripes.lock(Striped::<u32>::stripe_of(i, len)))
                            .push(w);
                    }
                }
            }
        }
        if local_killed > 0 {
            // v's own decrement for each edge it claimed, batched; other
            // claimants of v's edges decrement v through their runs'
            // "other endpoint" entries as usual.
            let old = deg[v as usize].fetch_sub(local_killed as u32, Relaxed);
            debug_assert!(old >= local_killed as u32, "degree underflow at vertex {v}");
            killed.fetch_add(local_killed, Relaxed);
        }
    });
    killed.into_inner()
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
        for opts in all_strategies() {
            let out = peel_parallel(&g, 3, &opts);
            assert_eq!(out.peel_round, reference.peel_round, "{:?}", opts.strategy);
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

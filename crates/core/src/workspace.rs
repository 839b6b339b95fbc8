//! Reusable peeling state: allocate once, peel many graphs.
//!
//! Every hot-path buffer a parallel peel needs lives in a
//! [`PeelWorkspace`]: per-vertex degrees and peel rounds, per-edge kill
//! metadata, the alive/peeled bitsets, the frontier vector, the striped
//! collection buffers, the decrement buckets, and the round trace. A
//! fresh workspace owns nothing; the first peel sizes it, and every
//! later peel of a same-or-smaller graph reuses the buffers without
//! touching the allocator — which is what makes repeated peeling (service
//! reconcile epochs, simulation sweeps, benchmarks) allocation-free in
//! steady state.
//!
//! [`crate::parallel::peel_parallel`] wraps a throwaway workspace for
//! one-shot callers; [`crate::parallel::peel_parallel_in`] borrows yours.

// ordering: Relaxed — the workspace only resets and reads engine state
// outside the parallel phases (exclusive &mut or post-join), so the
// atomics exist for type compatibility with the engines, not for
// synchronization; the engines' rayon barriers carry every needed edge.
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use peel_graph::bits::{AtomicBitset, Buckets, Striped};
use peel_graph::Hypergraph;
use rayon::prelude::*;

use crate::trace::{PeelOutcome, RoundStats, UNPEELED};

/// Summary of one peel run executed in a [`PeelWorkspace`].
///
/// The cheap-to-copy part of a [`PeelOutcome`]; the per-vertex/per-edge
/// arrays stay in the workspace (read them through its accessors, or
/// materialize everything with [`PeelWorkspace::outcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeelRun {
    /// The `k` threshold used.
    pub k: u32,
    /// Number of productive rounds.
    pub rounds: u32,
    /// Vertices left in the k-core (0 iff peeling succeeded).
    pub core_vertices: u64,
    /// Edges left in the k-core.
    pub core_edges: u64,
}

impl PeelRun {
    /// Did peeling reach the empty k-core?
    #[inline]
    pub fn success(&self) -> bool {
        self.core_vertices == 0
    }
}

/// Reusable buffers for [`crate::parallel::peel_parallel_in`].
///
/// All atomics are plain data between runs; the engine's phase barriers
/// (see the memory-ordering notes in [`crate::parallel`]) make the
/// in-run concurrent access sound.
#[derive(Debug)]
pub struct PeelWorkspace {
    /// Live degree of each vertex.
    pub(crate) deg: Vec<AtomicU32>,
    /// Round each vertex was peeled in ([`UNPEELED`] = still alive).
    pub(crate) peel_round: Vec<AtomicU32>,
    /// One bit per vertex mirroring `peel_round != UNPEELED` — the kill
    /// phases test peeled-ness through this 8-bytes-per-512-vertices
    /// bitset instead of the 4-bytes-per-vertex round array, so the dense
    /// scan's hottest random reads stay cache-resident.
    pub(crate) peeled: AtomicBitset,
    /// Round each edge was removed in.
    pub(crate) edge_kill_round: Vec<AtomicU32>,
    /// Peeled endpoint that claimed each edge.
    pub(crate) edge_killer: Vec<AtomicU32>,
    /// One bit per edge: still live?
    pub(crate) edge_alive: AtomicBitset,
    /// The current round's frontier.
    pub(crate) frontier: Vec<u32>,
    /// Striped buffers the next frontier is collected into.
    pub(crate) stripes: Striped<u32>,
    /// Degree decrements in flight: one slot per kill-phase task, one bin
    /// per vertex block of `1 << block_shift` vertices.
    pub(crate) decrements: Buckets<u32>,
    /// `log2` of the vertex-block size the decrements are binned by.
    pub(crate) block_shift: u32,
    /// Per-round statistics of the current/last run.
    pub(crate) trace: Vec<RoundStats>,
}

impl Default for PeelWorkspace {
    fn default() -> Self {
        PeelWorkspace {
            deg: Vec::new(),
            peel_round: Vec::new(),
            peeled: AtomicBitset::new(),
            edge_kill_round: Vec::new(),
            edge_killer: Vec::new(),
            edge_alive: AtomicBitset::new(),
            frontier: Vec::new(),
            stripes: Striped::new(),
            decrements: Buckets::new(),
            block_shift: 0,
            trace: Vec::new(),
        }
    }
}

/// `log2` of the vertex-block size for `n` vertices and `threads` workers:
/// about four blocks per worker, between 64 vertices and 2¹⁶ (a 256 KiB
/// slice of the degree array, which its apply task updates inside L2).
fn block_shift(n: usize, threads: usize) -> u32 {
    (n / (4 * threads)).max(1).ilog2().clamp(6, 16)
}

fn reset_atomic_vec(v: &mut Vec<AtomicU32>, len: usize) {
    v.resize_with(len, || AtomicU32::new(0));
}

impl PeelWorkspace {
    /// Fresh, empty workspace (sized lazily by the first peel).
    pub fn new() -> Self {
        PeelWorkspace::default()
    }

    /// Resize every buffer for `g` and reinitialize the per-run state.
    /// Allocation-free when the workspace has already peeled a graph at
    /// least this large.
    pub(crate) fn reset_for(&mut self, g: &Hypergraph) {
        let n = g.num_vertices();
        let m = g.num_edges();
        reset_atomic_vec(&mut self.deg, n);
        reset_atomic_vec(&mut self.peel_round, n);
        reset_atomic_vec(&mut self.edge_kill_round, m);
        reset_atomic_vec(&mut self.edge_killer, m);
        self.edge_alive.reset(m, true);
        self.peeled.reset(n, false);
        // One decrement slot per worker of the current pool (each kill
        // task writes one slot), one bin per vertex block.
        let threads = rayon::current_num_threads().max(1);
        self.block_shift = block_shift(n, threads);
        let blocks = n.div_ceil(1 << self.block_shift);
        self.decrements.reset(threads, blocks);
        self.frontier.clear();
        self.trace.clear();
        // Value initialization, in parallel for large graphs.
        let (deg, peel_round) = (&self.deg, &self.peel_round);
        (0..n as u32).into_par_iter().for_each(|v| {
            deg[v as usize].store(g.degree(v), Relaxed);
            peel_round[v as usize].store(UNPEELED, Relaxed);
        });
        let (kill_round, killer) = (&self.edge_kill_round, &self.edge_killer);
        (0..m as u32).into_par_iter().for_each(|e| {
            kill_round[e as usize].store(UNPEELED, Relaxed);
            killer[e as usize].store(UNPEELED, Relaxed);
        });
    }

    /// Per-round statistics of the last run (empty if tracing was off).
    pub fn trace(&self) -> &[RoundStats] {
        &self.trace
    }

    /// Round vertex `v` was peeled in during the last run
    /// ([`UNPEELED`] for core vertices).
    #[inline]
    pub fn peel_round_of(&self, v: u32) -> u32 {
        self.peel_round[v as usize].load(Relaxed)
    }

    /// Round edge `e` was removed in during the last run.
    #[inline]
    pub fn edge_kill_round_of(&self, e: u32) -> u32 {
        self.edge_kill_round[e as usize].load(Relaxed)
    }

    /// The peeled endpoint that claimed edge `e` during the last run.
    #[inline]
    pub fn edge_killer_of(&self, e: u32) -> u32 {
        self.edge_killer[e as usize].load(Relaxed)
    }

    /// Materialize the last run as an owned [`PeelOutcome`] (copies the
    /// per-vertex/per-edge arrays — one-shot callers only; steady-state
    /// consumers should read through the accessors instead).
    pub fn outcome(&self, run: &PeelRun) -> PeelOutcome {
        PeelOutcome {
            k: run.k,
            rounds: run.rounds,
            trace: self.trace.clone(),
            peel_round: self.peel_round.iter().map(|a| a.load(Relaxed)).collect(),
            edge_kill_round: self
                .edge_kill_round
                .iter()
                .map(|a| a.load(Relaxed))
                .collect(),
            edge_killer: self.edge_killer.iter().map(|a| a.load(Relaxed)).collect(),
            core_vertices: run.core_vertices,
            core_edges: run.core_edges,
        }
    }
}

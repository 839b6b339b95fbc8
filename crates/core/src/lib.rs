//! # peel-core — parallel peeling engines for random hypergraphs
//!
//! This crate is the primary contribution of the reproduction of *Parallel
//! Peeling Algorithms* (Jiang, Mitzenmacher, Thaler; SPAA 2014): a family of
//! k-core peeling engines over [`peel_graph::Hypergraph`], all implementing
//! the same *synchronous round semantics* the paper analyzes —
//!
//! > in each round, **every** vertex whose degree (number of live incident
//! > edges) at the start of the round is `< k` is removed, together with all
//! > of its incident edges.
//!
//! The fixpoint of this process is the (unique, order-independent) k-core.
//!
//! ## Engines
//!
//! | Engine | Module | Work per round | Notes |
//! |---|---|---|---|
//! | Greedy sequential | [`sequential::peel_greedy`] | — (no rounds) | classic queue peeler, `O(n + rm)` total; the serial baseline |
//! | Serial round-synchronous | [`sequential::peel_rounds_serial`] | `O(frontier)` | same semantics as the parallel engines, useful for cross-validation and cheap trials |
//! | Parallel dense | [`parallel::peel_parallel`] with [`Strategy::Dense`] | `O(m)` scan | GPU-style: one task per edge every round |
//! | Parallel frontier | [`parallel::peel_parallel`] with [`Strategy::Frontier`] | `O(frontier + touched edges)` | work-efficient CPU variant; identical rounds and claims |
//! | Parallel adaptive | [`parallel::peel_parallel`] with [`Strategy::Adaptive`] (default) | min of the above | direction-optimizing: dense edge scan while the frontier is broad, frontier propagation once it collapses |
//! | Subtable / subround | [`subtable::peel_subtables`] | `O(part + touched)` | Appendix B's variant: `r` subrounds per round, one subtable each — the IBLT discipline that avoids double-peeling |
//!
//! The parallel engines run out of a reusable [`workspace::PeelWorkspace`]
//! (degrees, rounds, kill metadata, bitsets, frontier and decrement
//! buffers): call
//! [`parallel::peel_parallel_in`] with your own workspace and repeated
//! peels are allocation-free in steady state — the hot-path contract the
//! `peel-service` reconcile scheduler and the benches rely on.
//!
//! All engines produce a [`trace::PeelOutcome`] recording, per round, how
//! many vertices/edges were peeled and how many survive — exactly the series
//! the paper's Tables 1, 2, 5, and 6 report — plus per-edge *claims* (which
//! vertex removed each edge, in which round). Claims are what downstream
//! consumers need: `peel-fn` replays them in reverse to assign static
//! functions, `peel-codes` replays them forward to decode.
//!
//! ## Example
//!
//! ```
//! use peel_graph::models::Gnm;
//! use peel_graph::rng::SplitMix64;
//! use peel_core::parallel::{peel_parallel, ParallelOpts};
//!
//! let g = Gnm::new(20_000, 0.70, 4).sample(&mut SplitMix64::new(7));
//! let out = peel_parallel(&g, 2, &ParallelOpts::default());
//! // c = 0.70 < c*_{2,4} ≈ 0.772: the 2-core is empty w.h.p. ...
//! assert!(out.success());
//! // ... and it takes ~13 rounds at this size (log log n scaling).
//! assert!(out.rounds >= 8 && out.rounds <= 20, "rounds = {}", out.rounds);
//! ```

#![warn(missing_docs)]

pub mod coreness;
pub mod parallel;
pub mod sequential;
pub mod subtable;
pub mod trace;
pub mod workspace;

pub use coreness::{coreness, degeneracy};
pub use parallel::{peel_parallel, peel_parallel_in, ParallelOpts, Strategy};
pub use sequential::{kcore_vertices, peel_greedy, peel_rounds_serial};
pub use subtable::{peel_subtables, SubtableOpts};
pub use trace::{PeelOutcome, RoundStats, SubroundStats, SubtableOutcome, UNPEELED};
pub use workspace::{PeelRun, PeelWorkspace};

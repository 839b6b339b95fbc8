//! # parallel-peeling — umbrella crate for the SPAA 2014 reproduction
//!
//! This crate re-exports the whole workspace so applications can depend on
//! a single crate:
//!
//! * [`graph`] — random hypergraph models and the CSR [`graph::Hypergraph`]
//!   (`peel-graph`).
//! * [`core`] — the peeling engines: sequential, parallel (dense/frontier),
//!   and subtable/subround (`peel-core`).
//! * [`analysis`] — thresholds `c*_{k,r}`, survival recurrences, round
//!   predictions (`peel-analysis`).
//! * [`iblt`] — Invertible Bloom Lookup Tables with parallel recovery
//!   (`peel-iblt`).
//! * [`codes`] — peeling-based systematic erasure codes (`peel-codes`).
//! * [`staticfn`] — XORSAT solving and Bloomier-style static functions
//!   (`peel-fn`).
//! * [`sat`] — the pure literal rule as parallel peeling (`peel-sat`).
//! * [`service`] — sharded, batched set-reconciliation service over TCP,
//!   with primary→follower replication healed by IBLT anti-entropy
//!   (`peel-service`).
//!
//! See the repository README for the architecture overview, the
//! `peel-bench` binaries for the paper's tables and figures, and
//! `benchmark/` for the measured wall-clock numbers.
//!
//! ## Quickstart
//!
//! ```
//! use parallel_peeling::analysis::c_star;
//! use parallel_peeling::core::{peel_parallel, ParallelOpts};
//! use parallel_peeling::graph::models::Gnm;
//! use parallel_peeling::graph::rng::SplitMix64;
//!
//! // Edge density 0.70 is below c*_{2,4} ≈ 0.772, so the 2-core is empty
//! // w.h.p. and parallel peeling finishes in ~log log n rounds.
//! assert!(0.70 < c_star(2, 4).unwrap());
//! let g = Gnm::new(50_000, 0.70, 4).sample(&mut SplitMix64::new(1));
//! let out = peel_parallel(&g, 2, &ParallelOpts::default());
//! assert!(out.success());
//! ```

#![warn(missing_docs)]

/// Threshold and recurrence theory (`peel-analysis`).
pub use peel_analysis as analysis;
/// Erasure codes (`peel-codes`).
pub use peel_codes as codes;
/// Peeling engines (`peel-core`).
pub use peel_core as core;
/// Static functions and XORSAT (`peel-fn`).
pub use peel_fn as staticfn;
/// Hypergraph substrate (`peel-graph`).
pub use peel_graph as graph;
/// Invertible Bloom Lookup Tables (`peel-iblt`).
pub use peel_iblt as iblt;
/// Pure literal rule (`peel-sat`).
pub use peel_sat as sat;
/// Sharded, batched, replicated set-reconciliation service
/// (`peel-service`).
pub use peel_service as service;

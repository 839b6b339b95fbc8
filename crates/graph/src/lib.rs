//! # peel-graph — random hypergraph substrate for peeling algorithms
//!
//! This crate provides the probability models and the in-memory hypergraph
//! representation used by the peeling engines in `peel-core` and by the
//! applications built on top of them (`peel-iblt`, `peel-codes`, `peel-fn`).
//!
//! The paper *Parallel Peeling Algorithms* (Jiang, Mitzenmacher, Thaler;
//! SPAA 2014) analyzes peeling on three closely related random models, all of
//! which are implemented here:
//!
//! * [`models::Gnm`] — the `G^r_{n,cn}` model: exactly `m = cn` edges, each an
//!   independently chosen set of `r` distinct vertices out of `n`.
//! * [`models::Binomial`] — the `G^r_c` model: every one of the `C(n,r)`
//!   potential edges appears independently with probability `q = cn / C(n,r)`
//!   (the model the paper's proofs work in; see Lemma 1).
//! * [`models::Partitioned`] — vertices are split into `r` equal *subtables*
//!   and each edge has exactly one endpoint in each subtable. This is the
//!   hypergraph underlying the paper's IBLT implementation (Section 6 and
//!   Appendix B).
//!
//! The central type is [`Hypergraph`]: an immutable r-uniform hypergraph in
//! compressed sparse row (CSR) form, storing both the edge → vertex table and
//! the vertex → incident-edge table so peeling engines can traverse in both
//! directions without allocation.
//!
//! The crate also ships:
//!
//! * [`rng`] — tiny, fast, seedable PRNGs (`SplitMix64`, `Xoshiro256StarStar`)
//!   implementing [`rand::RngCore`] so deterministic experiments are cheap.
//! * [`poisson`] — an exact Poisson sampler (Knuth product method below mean
//!   10, Hörmann's PTRS transformed rejection above) used by the binomial
//!   model and the branching-process simulator.
//! * [`branching`] — a Monte-Carlo simulator of the paper's *idealized
//!   branching process* (Section 3.1), used to validate the recurrences in
//!   `peel-analysis` against an independent implementation.
//! * [`stats`] — degree statistics of generated graphs (used in tests to
//!   check that empirical degrees match the Poisson(rc) prediction).
//! * [`bits`] — shared parallel-engine primitives: an atomic bitset and
//!   striped, reusable collection buffers (the allocation-free substitutes
//!   for per-round `AtomicBool` arrays and `fold`/`reduce` vector churn in
//!   `peel-core` and `peel-iblt`).
//!
//! ## Quick example
//!
//! ```
//! use peel_graph::models::Gnm;
//! use peel_graph::rng::SplitMix64;
//!
//! let mut rng = SplitMix64::new(42);
//! // 10_000 vertices, edge density c = 0.7, 4-uniform edges.
//! let g = Gnm::new(10_000, 0.7, 4).sample(&mut rng);
//! assert_eq!(g.num_edges(), 7_000);
//! assert_eq!(g.arity(), 4);
//! // Every edge has 4 distinct endpoints.
//! for e in 0..g.num_edges() as u32 {
//!     let vs = g.edge(e);
//!     assert_eq!(vs.len(), 4);
//! }
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod branching;
pub mod components;
pub mod error;
pub mod hypergraph;
pub mod models;
pub mod poisson;
pub mod prefetch;
pub mod rng;
pub mod stats;
pub(crate) mod sync;

pub use bits::{AtomicBitset, Buckets, Striped};
pub use components::{edge_subgraph, Components, UnionFind};
pub use error::GraphError;
pub use hypergraph::{EdgeId, Hypergraph, HypergraphBuilder, Partition, VertexId};

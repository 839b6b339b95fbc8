//! # peel-iblt — Invertible Bloom Lookup Tables with parallel recovery
//!
//! An IBLT (Goodrich & Mitzenmacher) stores a *set* of keys in `O(n)` cells
//! such that, as long as the number of stored keys is below the peeling
//! threshold for the underlying hypergraph, the entire set can be listed
//! back out. It is the application the paper implements on a GPU
//! (Section 6); this crate reproduces that implementation on a multicore
//! CPU with rayon.
//!
//! ## Structure
//!
//! The table is split into `r` equal **subtables**; a key is hashed to
//! exactly one cell in each subtable. Every cell holds
//!
//! ```text
//! count     — signed number of keys in the cell
//! key_sum   — XOR of the keys in the cell
//! check_sum — XOR of checksum(key) over the keys in the cell
//! ```
//!
//! Insertion XORs the key into its `r` cells; deletion is the same with
//! `count -= 1`. A cell is **pure** when `count == ±1` and
//! `checksum(key_sum) == check_sum`; recovery repeatedly extracts the key
//! of a pure cell and removes it from its other cells — which *is* peeling
//! on the hypergraph whose vertices are cells and whose edges are keys
//! (pure cell ⇔ vertex of degree < 2).
//!
//! ## Contract: net multiplicities in {−1, 0, +1}
//!
//! Like all IBLTs, the structure stores a *signed set*: by recovery time,
//! each key's net count (inserts − deletes) must be −1, 0, or +1. Keys at
//! net ±2 or beyond leave cancelled XOR pairs in their cells (e.g. a net −2
//! key contributes `count −2, key_sum 0`), which can make an overlapping
//! cell of some *other* key pass the pure test with the wrong sign and
//! misattribute that key's direction. Transient violations during a stream
//! are fine — only the state at recovery matters.
//!
//! ## Parallel recovery
//!
//! [`AtomicIblt::par_recover`] follows the paper's scheme exactly:
//! proceed in rounds of `r` subrounds; in subround `j`, scan subtable `j`
//! for pure cells in parallel (one logical thread per cell), then delete
//! the recovered keys from all subtables with atomic XOR / add operations.
//! Because a key occupies a single cell per subtable, a key can be
//! discovered in only one pure cell per subround — this is how the paper
//! avoids deleting an item multiple times, and it is why the subtable
//! recurrence of Appendix B (implemented in `peel_analysis::subtable`)
//! governs the subround count.
//!
//! For repeated decoding (a reconciliation service running every epoch),
//! [`AtomicIblt::par_recover_in`] runs the same subrounds as one fused
//! pass each (a pure cell's key is deleted from the other subtables by
//! the thread that found it, no barrier inside the subround), with
//! candidate tracking, out of a reusable [`RecoveryWorkspace`], and
//! [`AtomicIblt::snapshot_into`] / [`AtomicIblt::load_iblt`] /
//! [`Iblt::subtract_assign`] overwrite pooled tables in place — together
//! they make the whole snapshot → subtract → recover cycle
//! allocation-free in steady state.
//!
//! ## Applications included
//!
//! * [`sparse::SparseRecovery`] — insert N keys, delete all but n, list the
//!   survivors (the paper's motivating application).
//! * [`reconcile`] — set reconciliation: subtract two IBLTs and decode the
//!   symmetric difference (Eppstein et al.).
//!
//! ## Example
//!
//! ```
//! use peel_iblt::{Iblt, IbltConfig};
//!
//! // 3 hash functions, room for ~1000 keys at load 0.7 (< c*_{2,3} ≈ 0.818).
//! let cfg = IbltConfig::for_load(3, 1000, 0.7, 42);
//! let mut t = Iblt::new(cfg);
//! for key in 0..1000u64 {
//!     t.insert(key);
//! }
//! let out = t.recover();
//! assert!(out.complete);
//! assert_eq!(out.positive.len(), 1000);
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod config;
pub mod hashing;
pub mod kv;
pub mod parallel;
pub mod reconcile;
pub mod serial;
pub mod sparse;
pub(crate) mod sync;
pub mod workspace;

pub use cell::{Cell, SwarCell};
pub use config::IbltConfig;
pub use hashing::IbltHasher;
pub use kv::{AtomicKvIblt, GetResult, KvIblt, KvRecovery};
pub use parallel::{AtomicIblt, ParRecovery};
pub use reconcile::{reconcile, SetDiff};
pub use serial::{Iblt, Recovery};
pub use workspace::RecoveryWorkspace;

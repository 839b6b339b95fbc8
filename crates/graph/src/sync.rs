//! Concurrency-primitive indirection for model checking.
//!
//! Built normally, this re-exports the `std::sync` types the crate's
//! hot paths use. Built with `RUSTFLAGS="--cfg loom"`, the same names
//! resolve to the vendored loom shims, whose operations participate in
//! exhaustive interleaving exploration inside `loom::model` (and
//! delegate straight back to `std` outside one). Keeping the swap in
//! one module means `bits.rs` and friends never mention `cfg(loom)`.

#[cfg(loom)]
pub(crate) use loom::sync::atomic::AtomicU64;
#[cfg(loom)]
pub(crate) use loom::sync::{Mutex, MutexGuard};

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::AtomicU64;
#[cfg(not(loom))]
pub(crate) use std::sync::{Mutex, MutexGuard};

//! Reusable recovery state: decode many tables, allocate once.
//!
//! A subround recovery ([`crate::AtomicIblt::par_recover_in`]) needs the
//! packed decode lanes, a queued-cell bitset, per-subtable candidate
//! lists, a private output buffer per worker of the fused kernel, and the
//! output [`ParRecovery`] vectors. A [`RecoveryWorkspace`] owns them all;
//! reusing one across recoveries (as `peel-service`'s reconcile pool does
//! every epoch) makes repeated decoding allocation-free in steady state.

// ordering: Relaxed throughout — a lane sees commuting RMWs or one writer.
// In a subround the only cell of the scanned subtable anyone writes is
// the pure cell a worker stands on (its own plain store of zero: purity
// includes the own-index test); every other write is a commutative RMW
// into a subtable nobody reads before the fork-join barrier that ends the
// subround. Seeding is under &mut. Checked by the loom model below.
use std::sync::atomic::Ordering::Relaxed;

use parking_lot::Mutex;
use peel_graph::bits::AtomicBitset;

use crate::cell::{count_delta, SwarCell};
use crate::parallel::ParRecovery;
use crate::sync::AtomicU64;

/// One decode cell in packed SWAR form: the two lanes of a
/// [`SwarCell`], atomic and adjacent in memory, so a recovery touch
/// (scan or delete) of a cell hits 16 contiguous bytes instead of three
/// parallel arrays.
#[derive(Debug, Default)]
pub(crate) struct AtomicSwarCell {
    pub(crate) key: AtomicU64,
    pub(crate) meta: AtomicU64,
}

impl AtomicSwarCell {
    /// Snapshot both lanes. Consistent only for a cell nobody else is
    /// writing: between subrounds, or a cell of the scanned subtable.
    #[inline]
    pub(crate) fn load(&self) -> SwarCell {
        SwarCell {
            key: self.key.load(Relaxed),
            meta: self.meta.load(Relaxed),
        }
    }

    /// Overwrite both lanes (single-writer contexts: the seeding
    /// sweeps, and the fused kernel zeroing the pure cell it just read).
    #[inline]
    pub(crate) fn store(&self, c: SwarCell) {
        self.key.store(c.key, Relaxed);
        self.meta.store(c.meta, Relaxed);
    }

    /// Concurrently apply a signed update of `key` with folded checksum
    /// `check48`. The three RMWs all commute (XOR with XOR, ADD with
    /// ADD, and the count addend has zero low bits so it never carries
    /// into the checksum lane), exactly like the scalar cell's
    /// fetch_add/fetch_xor triple — contending deletions of distinct
    /// recovered keys resolve in any order.
    #[inline]
    pub(crate) fn apply(&self, key: u64, check48: u64, dir: i64) {
        self.key.fetch_xor(key, Relaxed);
        self.meta.fetch_add(count_delta(dir), Relaxed);
        self.meta.fetch_xor(check48, Relaxed);
    }
}

/// What one worker of the fused subround kernel produced. On its own
/// cache-line pair: every find bumps a vector length in here, and two
/// workers' headers sharing a line cost the dense decode its speedup.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct WorkerBuf {
    /// Keys (with signs) recovered from the worker's share, in cell order.
    pub(crate) found: Vec<(u64, i64)>,
    /// Candidate mode: other subtables' cells its deletions touched first.
    pub(crate) touched: Vec<usize>,
}

/// Reusable buffers for [`crate::AtomicIblt::par_recover_in`].
#[derive(Debug, Default)]
pub struct RecoveryWorkspace {
    /// One bit per cell: queued for its subtable's next candidate scan?
    pub(crate) queued: AtomicBitset,
    /// Candidate cell indices per subtable.
    pub(crate) pending: Vec<Vec<usize>>,
    /// One buffer per worker, by the worker's position in the subtable.
    /// Each mutex is taken once a subround by its one worker: it turns a
    /// shared borrow into exclusive buffers and is never contended.
    pub(crate) workers: Vec<Mutex<WorkerBuf>>,
    /// The packed decode table: one [`AtomicSwarCell`] per cell of the
    /// table being recovered. The engines seed every lane on entry
    /// (candidate mode seeds during the serial occupancy walk, dense
    /// mode with a parallel fold sweep), so `reset` only sizes the
    /// vector — stale contents are always overwritten before use.
    pub(crate) lanes: Vec<AtomicSwarCell>,
    /// Did the previous decode in this workspace cross the dense
    /// occupancy threshold? Epoch loops decode a stable workload, so
    /// the fused reconcile path uses this to skip the candidate-seeding
    /// bookkeeping (queued bits, pending pushes) a dense run never
    /// reads. Self-correcting: every fused decode recounts occupancy
    /// and refreshes the flag, so a workload that turns sparse
    /// re-enables seeding one epoch later. Survives `reset` deliberately.
    pub(crate) prev_dense: bool,
    /// The recovery being (or last) built; vectors are reused run-to-run.
    pub(crate) out: ParRecovery,
}

impl RecoveryWorkspace {
    /// Fresh, empty workspace (sized lazily by the first recovery).
    pub fn new() -> Self {
        RecoveryWorkspace::default()
    }

    /// The last recovery decoded in this workspace.
    pub fn recovery(&self) -> &ParRecovery {
        &self.out
    }

    /// Reinitialize for a table of `r` subtables × `per_table` cells with
    /// empty candidate lists (the recovery seeds them with the table's
    /// nonempty cells — an empty cell can never test pure, and any cell a
    /// deletion later touches is queued then, so skipping empties changes
    /// nothing about which subround finds which key). Allocation-free
    /// once the workspace has decoded a table at least this large.
    pub(crate) fn reset(&mut self, r: usize, per_table: usize) {
        self.queued.reset(r * per_table, false);
        self.pending.resize_with(r, Vec::new);
        for p in self.pending.iter_mut() {
            p.clear();
        }
        self.lanes.resize_with(r * per_table, Default::default);
        self.out.clear();
    }
}

#[cfg(all(test, loom))]
mod loom_model {
    use super::*;
    use crate::cell::fold48;
    use loom::sync::Arc;

    /// Two workers of one fused subround: each zeroes the pure cell it
    /// owns in the scanned subtable with a plain store, and both delete
    /// their key from the *same* cell of another subtable. Under every
    /// schedule the lanes must end where the serial order leaves them:
    /// the own cells empty, the shared cell holding only the bystander.
    #[test]
    fn fused_workers_zero_own_cells_and_commute_on_a_shared_one() {
        loom::model(|| {
            let (k1, k2, bystander) = (0x1111u64, 0x2222u64, 0x4444u64);
            let check = |k: u64| fold48(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let cell_of = |keys: &[u64]| {
                let mut c = SwarCell::default();
                for &k in keys {
                    c.apply(k, check(k), 1);
                }
                c
            };
            // Cells 0 and 1: subtable j, one pure cell per worker.
            // Cell 2: a cell of another subtable all three keys hash to.
            let lanes: Arc<Vec<AtomicSwarCell>> =
                Arc::new((0..3).map(|_| AtomicSwarCell::default()).collect());
            lanes[0].store(cell_of(&[k1]));
            lanes[1].store(cell_of(&[k2]));
            lanes[2].store(cell_of(&[k1, k2, bystander]));

            let worker = |lanes: &[AtomicSwarCell], own: usize| {
                let cell = lanes[own].load();
                assert_eq!(cell.count(), 1, "nobody else writes the own cell");
                lanes[own].store(SwarCell::default());
                lanes[2].apply(cell.key, cell.check48(), -cell.count());
            };
            let th = {
                let lanes = Arc::clone(&lanes);
                loom::thread::spawn(move || worker(&lanes, 1))
            };
            worker(&lanes, 0);
            th.join().unwrap();

            assert!(lanes[0].load().is_empty());
            assert!(lanes[1].load().is_empty());
            assert_eq!(lanes[2].load(), cell_of(&[bystander]));
        });
    }
}

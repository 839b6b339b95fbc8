//! The parallel IBLT — the paper's GPU implementation, on rayon.
//!
//! Cells are stored struct-of-arrays as atomics so that concurrent inserts,
//! deletes, and recovery-phase removals compose exactly like the paper's
//! atomic-XOR CUDA kernels:
//!
//! * `count` — `AtomicI64`, updated with `fetch_add`;
//! * `key_sum`, `check_sum` — `AtomicU64`, updated with `fetch_xor`.
//!
//! Recovery proceeds in **subrounds** (Section 6): subround `j` visits
//! subtable `j`, and the thread that finds a pure cell removes its key
//! from the *other* subtables in the same pass — one kernel launch per
//! subround, no barrier inside it. A key occupies exactly one cell of the
//! scanned subtable, the pure cell its finder stands on, so nothing else
//! writes subtable `j` during subround `j`; every other write is a
//! commuting atomic update into a subtable nobody is reading (that
//! contention is why the paper needs atomic XOR at all), and a key is
//! found at most once per subround — the duplicate-peel hazard the
//! subtable scheme exists to prevent. [`AtomicIblt::par_recover`] keeps
//! the plain scan-*then*-delete form as the tests' reference.

use rayon::prelude::*;
// ordering: every cell access is Relaxed — count/key_sum/check_sum updates
// are commutative RMWs (fetch_add/fetch_xor) exactly like the paper's
// atomic-XOR CUDA kernels, and subrounds are separated by rayon fork-join
// barriers that order a subround's deletions before the next one's scan.
// Checked by the loom models in tests/loom_cells.rs and workspace.rs.
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use peel_graph::bits::AtomicBitset;
use peel_graph::prefetch::prefetch_read;

use crate::sync::{AtomicI64, AtomicU64};

use crate::cell::{fold48, Cell, SwarCell};
use crate::config::IbltConfig;
use crate::hashing::IbltHasher;
use crate::serial::{Iblt, Recovery};
use crate::workspace::{AtomicSwarCell, RecoveryWorkspace, WorkerBuf};

/// Finds a fused worker keeps between prefetching a key's other cells and
/// deleting from them, so a batch's cache misses overlap.
const DELETE_LAG: usize = 16;
/// Smallest share of a subround worth a worker of its own.
const MIN_SHARE: usize = 1024;

/// A concurrently updatable IBLT with parallel (subround) recovery.
pub struct AtomicIblt {
    cfg: IbltConfig,
    hasher: IbltHasher,
    count: Vec<AtomicI64>,
    key_sum: Vec<AtomicU64>,
    check_sum: Vec<AtomicU64>,
}

/// Result of a parallel recovery, with the subround trace the paper's
/// Appendix B analysis predicts.
#[derive(Debug, Clone, Default)]
pub struct ParRecovery {
    /// Keys recovered with positive sign.
    pub positive: Vec<u64>,
    /// Keys recovered with negative sign.
    pub negative: Vec<u64>,
    /// True iff the table decoded completely.
    pub complete: bool,
    /// Index of the last productive subround (Table 5's metric).
    pub subrounds: u32,
    /// Full rounds spanned (`ceil(subrounds / r)`).
    pub rounds: u32,
    /// Keys recovered in each productive subround.
    pub per_subround: Vec<u64>,
    /// Wall time of each productive subround, in nanoseconds, aligned
    /// with `per_subround` — the attribution trace `peel-service` ships
    /// in its `Stats` metrics.
    pub per_subround_ns: Vec<u64>,
}

impl ParRecovery {
    /// Clear for reuse, keeping every vector's capacity.
    pub(crate) fn clear(&mut self) {
        self.positive.clear();
        self.negative.clear();
        self.complete = false;
        self.subrounds = 0;
        self.rounds = 0;
        self.per_subround.clear();
        self.per_subround_ns.clear();
    }
}

impl AtomicIblt {
    /// Fresh empty table.
    pub fn new(cfg: IbltConfig) -> Self {
        let hasher = IbltHasher::new(&cfg);
        let total = cfg.total_cells();
        AtomicIblt {
            cfg,
            hasher,
            count: (0..total).map(|_| AtomicI64::new(0)).collect(),
            key_sum: (0..total).map(|_| AtomicU64::new(0)).collect(),
            check_sum: (0..total).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IbltConfig {
        &self.cfg
    }

    /// Insert a key; safe to call concurrently from many threads.
    pub fn insert(&self, key: u64) {
        self.update(key, 1);
    }

    /// Delete a key; safe to call concurrently from many threads.
    pub fn delete(&self, key: u64) {
        self.update(key, -1);
    }

    fn update(&self, key: u64, dir: i64) {
        let check = self.hasher.checksum(key);
        for j in 0..self.cfg.hashes {
            let idx = self.hasher.global_cell(j, key);
            self.count[idx].fetch_add(dir, Relaxed);
            self.key_sum[idx].fetch_xor(key, Relaxed);
            self.check_sum[idx].fetch_xor(check, Relaxed);
        }
    }

    /// Insert a batch in parallel (one rayon task per chunk of keys) — the
    /// paper's parallel insertion phase.
    pub fn par_insert(&self, keys: &[u64]) {
        keys.par_iter().for_each(|&k| self.insert(k));
    }

    /// Delete a batch in parallel.
    pub fn par_delete(&self, keys: &[u64]) {
        keys.par_iter().for_each(|&k| self.delete(k));
    }

    /// Snapshot a cell (only meaningful between phases — `par_recover`
    /// relies on its scan/delete barriers for consistency).
    fn read_cell(&self, idx: usize) -> Cell {
        Cell {
            count: self.count[idx].load(Relaxed),
            key_sum: self.key_sum[idx].load(Relaxed),
            check_sum: self.check_sum[idx].load(Relaxed),
        }
    }

    /// Parallel recovery by subrounds; peels the table down in place —
    /// the reference form (scan, barrier, delete; allocating).
    ///
    /// Terminates when a full round of `r` silent subrounds passes (global
    /// fixpoint) — on success that means the table is empty.
    pub fn par_recover(&self) -> ParRecovery {
        let r = self.cfg.hashes;
        let per_table = self.cfg.cells_per_table;
        let mut out = ParRecovery::default();
        let mut subround = 0u32;
        let mut idle_streak = 0usize;

        loop {
            let j = (subround as usize) % r;
            subround += 1;
            let started = Instant::now();

            // Phase 1: scan subtable j for pure cells (no mutation).
            let base = j * per_table;
            let found: Vec<(u64, i64)> = (base..base + per_table)
                .into_par_iter()
                .filter_map(|idx| {
                    let cell = self.read_cell(idx);
                    cell.is_pure(&self.hasher)
                        .then_some((cell.key_sum, cell.count))
                })
                .collect();

            if found.is_empty() {
                idle_streak += 1;
                if idle_streak >= r {
                    break;
                }
                continue;
            }
            idle_streak = 0;

            // Phase 2: delete every recovered key from all subtables
            // (atomic ops resolve collisions between distinct keys).
            found.par_iter().for_each(|&(key, dir)| {
                self.update(key, -dir);
            });

            out.subrounds = subround;
            out.per_subround.push(found.len() as u64);
            out.per_subround_ns
                .push(started.elapsed().as_nanos() as u64);
            for (key, dir) in found {
                if dir > 0 {
                    out.positive.push(key);
                } else {
                    out.negative.push(key);
                }
            }
        }

        out.rounds = out.subrounds.div_ceil(r as u32);
        out.complete = (0..self.cfg.total_cells())
            .into_par_iter()
            .all(|idx| self.read_cell(idx).is_empty());
        out
    }

    /// Parallel recovery with *candidate tracking*, throwaway-workspace
    /// form of [`Self::par_recover_in`]: each subround scans only cells
    /// that were touched (by a deletion) since their subtable's previous
    /// scan, instead of the whole subtable.
    ///
    /// Semantically identical to [`Self::par_recover`] — a cell can only
    /// *become* pure when its contents change, so unscanned untouched
    /// cells are never missed, and the subround structure (hence the
    /// recovered set and the subround count) is preserved. On wide
    /// machines (the paper's GPU) the dense scan is free because
    /// cells-per-thread is O(1); on CPUs with few cores this variant
    /// removes the `O(cells × subrounds)` scan term that otherwise
    /// dominates below-threshold recovery. Unlike [`Self::par_recover`]
    /// it does not consume the table: the decode peels a packed copy in
    /// the workspace, leaving `self` intact.
    pub fn par_recover_frontier(&self) -> ParRecovery {
        let mut ws = RecoveryWorkspace::new();
        self.par_recover_in(&mut ws);
        ws.out
    }

    /// Direction-optimizing parallel recovery into a reusable
    /// [`RecoveryWorkspace`] — the steady-state-allocation-free engine
    /// behind [`Self::par_recover_frontier`], and the one
    /// `peel-service`'s pooled reconcile path runs every epoch.
    ///
    /// Each subround visits its subtable in whichever direction is
    /// cheaper: a **dense** linear sweep of the whole subtable when the
    /// candidate list is broad (sequential loads, no per-cell
    /// bookkeeping), or a **candidate** scan of just the queued cells
    /// when it is sparse (skipping the `O(cells)` term entirely). Both
    /// find exactly the same pure cells — the queued-cell bitset
    /// maintains the invariant that every cell that changed since its
    /// subtable's last scan is in its pending list, and an unchanged or
    /// empty cell cannot have become pure — so the subround trace is
    /// identical to [`Self::par_recover`]'s either way (modulo the
    /// `2^{-48}` folded-checksum caveat below), and each subround's keys
    /// are listed in cell order whatever the thread count. Returns a
    /// borrow of the workspace's [`ParRecovery`].
    ///
    /// The decode itself runs over the workspace's **packed SWAR
    /// lanes** ([`SwarCell`] layout): the entry pass folds every cell
    /// into two adjacent `u64` words, and all subsequent scans and
    /// deletions touch only that 16-byte-per-cell table — `self` is
    /// never mutated. Purity false-positives rise from `2^{-64}` to
    /// `2^{-48}` on this ephemeral copy; the table's own full-width
    /// checksums (which digests and snapshots compare) are unaffected.
    pub fn par_recover_in<'ws>(&self, ws: &'ws mut RecoveryWorkspace) -> &'ws ParRecovery {
        let per_table = self.cfg.cells_per_table;
        let total = self.cfg.total_cells();
        ws.reset(self.cfg.hashes, per_table);

        // Direction decision, one occupancy probe per run. An empty cell
        // cannot test pure, and any cell a deletion later touches is
        // queued then — so only nonempty cells matter. If more than 1/8
        // of the table is occupied, run **dense mode**: full subtable
        // sweeps with zero queue bookkeeping, which sequential
        // prefetching makes cheaper than index-chasing unless the table
        // is mostly air. The probe seeds the candidate lists and the
        // workspace's packed SWAR lanes as it goes (plain stores — the
        // workspace is exclusively borrowed) and bails out the moment
        // the threshold is crossed, so ordinarily-loaded tables pay a
        // fraction of one walk before the parallel fold sweep takes
        // over. Sparse tables (a few diff keys in a generously
        // provisioned sketch) finish the walk seeded and run
        // **candidate mode**, touching O(keys·r) cells per round
        // instead of O(cells).
        let mut nonempty = 0usize;
        let mut dense_mode = false;
        for idx in 0..total {
            let cell = self.read_cell(idx);
            let packed = cell.to_swar();
            *ws.lanes[idx].key.get_mut() = packed.key;
            *ws.lanes[idx].meta.get_mut() = packed.meta;
            if !cell.is_empty() {
                nonempty += 1;
                if nonempty * 8 > total {
                    dense_mode = true;
                    break;
                }
                ws.queued.set_mut(idx);
                ws.pending[idx / per_table].push(idx);
            }
        }
        if dense_mode {
            // Dense mode never reads the partial seed. Fold the whole
            // table into the SWAR lanes in one parallel sweep (the serial
            // walk stopped early). Each index has exactly one writer, so
            // plain relaxed stores suffice.
            let lanes = &ws.lanes;
            (0..total).into_par_iter().for_each(|idx| {
                lanes[idx].store(self.read_cell(idx).to_swar());
            });
        }
        self.recover_core(ws, dense_mode)
    }

    /// Fused reconcile decode: overwrite this pooled table with the
    /// cellwise difference `a − b`, seed the recovery workspace — the
    /// packed SWAR decode lanes included — from the very same pass (the
    /// diff cells are in registers as they are stored, so lane folding,
    /// occupancy probing, and candidate seeding cost nothing extra),
    /// and decode. One sweep over the table replaces the subtract +
    /// load + probe passes of the unfused path — this is what
    /// `peel-service` runs per shard per reconcile epoch. The decode
    /// consumes only the workspace lanes, so `self` still holds the
    /// full difference afterwards (it is overwritten again next epoch).
    ///
    /// # Panics
    /// Panics if `a` and `b` have different configs.
    pub fn recover_subtracted_in<'ws>(
        &mut self,
        a: &Iblt,
        b: &Iblt,
        ws: &'ws mut RecoveryWorkspace,
    ) -> &'ws ParRecovery {
        assert_eq!(
            a.config(),
            b.config(),
            "subtracting incompatible IBLTs (configs differ)"
        );
        self.retarget(*a.config());
        let per_table = self.cfg.cells_per_table;
        let total = self.cfg.total_cells();
        ws.reset(self.cfg.hashes, per_table);

        let (nonempty, dense_mode) = if ws.prev_dense {
            // The previous decode of this workspace crossed the dense
            // occupancy threshold — a tightly provisioned sketch stays
            // dense every epoch, so skip the candidate-seeding
            // bookkeeping a dense run would discard and run the fused
            // diff + SWAR-fold sweep in parallel instead (the serial
            // seeding walk is the probe cost the tight regime could not
            // amortize). Occupancy is still counted, so the hint
            // self-corrects the moment the workload turns sparse.
            let this = &*self;
            let (ac, bc) = (a.cells(), b.cells());
            let lanes = &ws.lanes[..];
            let counted = AtomicUsize::new(0);
            let chunk = 4_096usize;
            (0..total.div_ceil(chunk)).into_par_iter().for_each(|ci| {
                let (lo, hi) = (ci * chunk, ((ci + 1) * chunk).min(total));
                let mut local = 0usize;
                for idx in lo..hi {
                    let d = ac[idx].subtract(&bc[idx]);
                    this.count[idx].store(d.count, Relaxed);
                    this.key_sum[idx].store(d.key_sum, Relaxed);
                    this.check_sum[idx].store(d.check_sum, Relaxed);
                    lanes[idx].store(d.to_swar());
                    local += usize::from(!d.is_empty());
                }
                counted.fetch_add(local, Relaxed);
            });
            (counted.into_inner(), true)
        } else {
            let mut nonempty = 0usize;
            for (idx, (ca, cb)) in a.cells().iter().zip(b.cells()).enumerate() {
                let d = ca.subtract(cb);
                *self.count[idx].get_mut() = d.count;
                *self.key_sum[idx].get_mut() = d.key_sum;
                *self.check_sum[idx].get_mut() = d.check_sum;
                // The diff cell is in registers right now — folding it
                // into the packed decode lanes costs two stores, saving
                // the decode any second pass over the scalar arrays.
                let packed = d.to_swar();
                *ws.lanes[idx].key.get_mut() = packed.key;
                *ws.lanes[idx].meta.get_mut() = packed.meta;
                if !d.is_empty() {
                    nonempty += 1;
                    // Seed only while candidate mode is still possible;
                    // once the occupancy crosses the dense threshold
                    // further bookkeeping would be discarded anyway.
                    if nonempty * 8 <= total {
                        ws.queued.set_mut(idx);
                        ws.pending[idx / per_table].push(idx);
                    }
                }
            }
            (nonempty, nonempty * 8 > total)
        };
        ws.prev_dense = nonempty * 8 > total;
        self.recover_core(ws, dense_mode)
    }

    /// The shared subround loop of the pooled recoveries: one
    /// [`Self::fused_pass`] per subround, each worker over its contiguous
    /// share of subtable `j` (or of `pending[j]`), entirely over the
    /// workspace's packed SWAR lanes — a cell touch hits one 16-byte
    /// record instead of three parallel 8-byte arrays. `ws` must be
    /// reset for this table's geometry with every lane seeded; in
    /// candidate mode (`dense_mode == false`) the pending lists must
    /// hold every nonempty cell. The scalar cell arrays of `self` are
    /// *not* consumed, which is why [`Self::par_recover_in`] can take
    /// `&self`.
    fn recover_core<'ws>(
        &self,
        ws: &'ws mut RecoveryWorkspace,
        dense_mode: bool,
    ) -> &'ws ParRecovery {
        let r = self.cfg.hashes;
        let per_table = self.cfg.cells_per_table;
        let (lanes, out, pending) = (&ws.lanes[..], &mut ws.out, &mut ws.pending);
        let queued = (!dense_mode).then_some(&ws.queued);
        let threads = rayon::current_num_threads();
        let workers = &mut ws.workers;
        workers.resize_with(workers.len().max(threads), Default::default);

        let mut subround = 0u32;
        let mut idle_streak = 0usize;
        while idle_streak < r {
            let j = (subround as usize) % r;
            subround += 1;
            let started = Instant::now();

            // In candidate mode every cell that could have become pure
            // since the subtable's last scan is in its pending list; a
            // broad list is still swept linearly — cheaper per cell than
            // chasing indices and unmarking bits one by one. Subtable
            // `j`'s queued flags are retired before or at the visit (this
            // subround's deletions flag other subtables only); sorting
            // makes the visit cell order whoever queued a cell first.
            let base = j * per_table;
            let candidates = &mut pending[j];
            let sweep = dense_mode || candidates.len() * 4 > per_table;
            match queued {
                Some(q) if sweep => q.clear_range(base, base + per_table),
                Some(_) => candidates.sort_unstable(),
                None => {}
            }
            let cells = if sweep { per_table } else { candidates.len() };
            let share = cells.div_ceil(threads).max(MIN_SHARE);
            let active = cells.div_ceil(share);
            {
                let (candidates, workers) = (&candidates[..], &workers[..]);
                (0..active).into_par_iter().with_min_len(1).for_each(|w| {
                    let (lo, hi) = (w * share, ((w + 1) * share).min(cells));
                    let buf = &mut *workers[w].lock();
                    if sweep {
                        self.fused_pass(lanes, queued, j, base + lo..base + hi, buf);
                    } else if let Some(q) = queued {
                        // (Dense mode always sweeps.)
                        let share = candidates[lo..hi].iter().copied();
                        self.fused_pass(lanes, queued, j, share.inspect(|&idx| q.clear(idx)), buf);
                    }
                });
            }
            candidates.clear();

            // Worker buffers in share order: cell order.
            let mut found = 0u64;
            for buf in workers[..active].iter_mut().map(|w| w.get_mut()) {
                found += buf.found.len() as u64;
                for &(key, dir) in &buf.found {
                    if dir > 0 {
                        out.positive.push(key);
                    } else {
                        out.negative.push(key);
                    }
                }
                for &idx in &buf.touched {
                    pending[idx / per_table].push(idx);
                }
            }
            if found == 0 {
                idle_streak += 1;
                continue;
            }
            idle_streak = 0;
            out.subrounds = subround;
            out.per_subround.push(found);
            out.per_subround_ns
                .push(started.elapsed().as_nanos() as u64);
        }

        out.rounds = out.subrounds.div_ceil(r as u32);
        out.complete = lanes.par_iter().all(|lane| lane.load().is_empty());
        &ws.out
    }

    /// The fused subround kernel (the paper's Section 6 launch): visit
    /// `cells` of subtable `j`; at a pure cell, zero it, record its key,
    /// prefetch the key's cells in the other subtables and, [`DELETE_LAG`]
    /// finds later, delete from them. In candidate mode (`queued`) a
    /// deleted-from cell not yet flagged is flagged and recorded for its
    /// subtable's next scan; the own cell is empty and needs none.
    ///
    /// Pure includes "the key hashes *to this cell*": never false for an
    /// honest table, and against a checksum false positive or a crafted
    /// digest it keeps what the race freedom rests on — a worker writes
    /// no cell of subtable `j` but the one it stands on — and keeps a key
    /// from being "deleted" from cells it was never in.
    fn fused_pass(
        &self,
        lanes: &[AtomicSwarCell],
        queued: Option<&AtomicBitset>,
        j: usize,
        cells: impl Iterator<Item = usize>,
        buf: &mut WorkerBuf,
    ) {
        let others = |key: u64| {
            (0..self.cfg.hashes)
                .filter(move |&h| h != j)
                .map(move |h| self.hasher.global_cell(h, key))
        };
        let WorkerBuf { found, touched } = buf;
        found.clear();
        touched.clear();
        let delete = |&(key, dir): &(u64, i64), touched: &mut Vec<usize>| {
            let check48 = fold48(self.hasher.checksum(key));
            for idx in others(key) {
                lanes[idx].apply(key, check48, -dir);
                if queued.is_some_and(|q| !q.test_and_set(idx)) {
                    touched.push(idx);
                }
            }
        };
        let mut deleted = 0;
        for idx in cells {
            let cell = lanes[idx].load();
            if cell.is_pure(&self.hasher) && self.hasher.global_cell(j, cell.key) == idx {
                lanes[idx].store(SwarCell::default());
                others(cell.key).for_each(|o| prefetch_read(&lanes[o]));
                found.push((cell.key, cell.count()));
                if found.len() - deleted > DELETE_LAG {
                    delete(&found[deleted], touched);
                    deleted += 1;
                }
            }
        }
        found[deleted..].iter().for_each(|f| delete(f, touched));
    }

    /// Copy the current cell contents into a serial [`Iblt`] snapshot
    /// (e.g. to ship over the network or to run recovery on a frozen view
    /// while ingest continues on `self`).
    ///
    /// The copy is sequential on purpose: callers typically hold an
    /// update fence while snapshotting (see below), and for realistic
    /// table sizes a straight copy of three flat arrays is faster than
    /// any fork/join overhead — keeping the fenced window minimal.
    ///
    /// The loads are relaxed and per-cell: if updates race with the
    /// snapshot, a key's `r` cell writes may be only partially captured.
    /// Callers that need a consistent view (such as `peel-service`'s
    /// recovery scheduler) must fence updates around the copy.
    pub fn snapshot(&self) -> Iblt {
        let mut t = Iblt::new(self.cfg);
        self.snapshot_into(&mut t);
        t
    }

    /// Copy the current cell contents into an existing serial [`Iblt`],
    /// retargeting its config and reusing its cell buffer — the
    /// allocation-free form of [`Self::snapshot`] for pooled snapshots
    /// (`peel-service` re-snapshots the same shard every reconcile
    /// epoch). Same consistency caveats as [`Self::snapshot`]: callers
    /// needing a consistent view must fence updates around the copy.
    pub fn snapshot_into(&self, out: &mut Iblt) {
        let cells = out.prepare_overwrite(self.cfg);
        for (i, c) in cells.iter_mut().enumerate() {
            *c = self.read_cell(i);
        }
        out.refresh_items();
    }

    /// Convert to a serial [`Iblt`] (alias of [`Self::snapshot`]).
    pub fn to_serial(&self) -> Iblt {
        self.snapshot()
    }

    /// Build an atomic table holding exactly a serial table's contents
    /// (e.g. a subtracted difference about to be recovered in parallel).
    pub fn from_iblt(t: &Iblt) -> Self {
        let mut out = AtomicIblt::new(*t.config());
        out.load_iblt(t);
        out
    }

    /// Overwrite this table with a serial table's contents, retargeting
    /// the config and reusing the cell arrays — the allocation-free form
    /// of [`Self::from_iblt`] for pooled diff tables that are reloaded
    /// every reconcile epoch. Exclusive access makes the writes plain
    /// stores, not atomic RMWs.
    pub fn load_iblt(&mut self, t: &Iblt) {
        self.retarget(*t.config());
        for (i, c) in t.cells().iter().enumerate() {
            *self.count[i].get_mut() = c.count;
            *self.key_sum[i].get_mut() = c.key_sum;
            *self.check_sum[i].get_mut() = c.check_sum;
        }
    }

    /// Overwrite this table with the cellwise difference `a − b` in one
    /// pass — [`Iblt::subtract`] and [`Self::load_iblt`] fused, so the
    /// reconcile hot path (snapshot − digest → decode) writes the diff
    /// straight into the pooled atomic table instead of materializing it
    /// in a serial intermediary first.
    ///
    /// # Panics
    /// Panics if `a` and `b` have different configs (incompatible hash
    /// functions).
    pub fn load_subtract(&mut self, a: &Iblt, b: &Iblt) {
        assert_eq!(
            a.config(),
            b.config(),
            "subtracting incompatible IBLTs (configs differ)"
        );
        self.retarget(*a.config());
        for (i, (ca, cb)) in a.cells().iter().zip(b.cells()).enumerate() {
            let d = ca.subtract(cb);
            *self.count[i].get_mut() = d.count;
            *self.key_sum[i].get_mut() = d.key_sum;
            *self.check_sum[i].get_mut() = d.check_sum;
        }
    }

    /// Adopt `cfg`, resizing the cell arrays (reusing capacity where
    /// possible) and rebuilding the hasher only on an actual change.
    fn retarget(&mut self, cfg: IbltConfig) {
        if self.cfg != cfg {
            self.hasher = IbltHasher::new(&cfg);
            self.cfg = cfg;
        }
        let total = cfg.total_cells();
        self.count.resize_with(total, || AtomicI64::new(0));
        self.key_sum.resize_with(total, || AtomicU64::new(0));
        self.check_sum.resize_with(total, || AtomicU64::new(0));
    }

    /// Build from a serial table (alias of [`Self::from_iblt`]).
    pub fn from_serial(t: &Iblt) -> Self {
        Self::from_iblt(t)
    }

    /// Serial recovery of the same table contents (for baseline timing).
    pub fn recover_serial(&self) -> Recovery {
        self.to_serial().recover_destructive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) ^ 0xabcd)
            .collect()
    }

    #[test]
    fn par_roundtrip() {
        let cfg = IbltConfig::for_load(3, 5_000, 0.7, 11);
        let t = AtomicIblt::new(cfg);
        let ks = keys(5_000);
        t.par_insert(&ks);
        let got = t.par_recover();
        assert!(got.complete);
        assert!(got.negative.is_empty());
        let mut sorted = got.positive.clone();
        sorted.sort_unstable();
        let mut want = ks;
        want.sort_unstable();
        assert_eq!(sorted, want);
    }

    #[test]
    fn parallel_matches_serial_recovery_set() {
        let cfg = IbltConfig::for_load(4, 3_000, 0.7, 12);
        let t = AtomicIblt::new(cfg);
        let ks = keys(3_000);
        t.par_insert(&ks);
        let serial = t.recover_serial();
        let par = t.par_recover();
        assert_eq!(serial.complete, par.complete);
        let mut a = serial.positive;
        a.sort_unstable();
        let mut b = par.positive;
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn subround_count_tracks_appendix_b() {
        // r=4, load 0.7: Appendix B / Table 5 predict ≈26–28 subrounds at
        // moderate sizes.
        let cfg = IbltConfig::for_load(4, 70_000, 0.7, 13);
        let t = AtomicIblt::new(cfg);
        t.par_insert(&keys(70_000));
        let got = t.par_recover();
        assert!(got.complete);
        assert!(
            got.subrounds >= 20 && got.subrounds <= 34,
            "subrounds = {}",
            got.subrounds
        );
        // Trace is self-consistent.
        assert_eq!(
            got.per_subround.iter().sum::<u64>(),
            got.positive.len() as u64
        );
    }

    #[test]
    fn overload_reports_incomplete() {
        let cfg = IbltConfig::new(4, 250, 14); // 1000 cells
        let t = AtomicIblt::new(cfg);
        t.par_insert(&keys(850)); // load 0.85 > c*_{2,4} ≈ 0.772
        let got = t.par_recover();
        assert!(!got.complete);
        assert!(got.positive.len() < 850);
    }

    #[test]
    fn concurrent_insert_delete_consistency() {
        let cfg = IbltConfig::for_load(3, 2_000, 0.5, 15);
        let t = AtomicIblt::new(cfg);
        let ks = keys(4_000);
        // Insert everything and delete the second half concurrently.
        rayon::join(|| t.par_insert(&ks), || t.par_delete(&ks[2_000..]));
        // Net content: first 2000 keys inserted, second half cancelled...
        // except deletes of the second half may land before inserts; either
        // way the *net* cell state is identical because the ops commute.
        let got = t.par_recover();
        assert!(got.complete);
        let mut pos = got.positive.clone();
        pos.sort_unstable();
        let mut want = ks[..2_000].to_vec();
        want.sort_unstable();
        assert_eq!(pos, want);
        assert!(got.negative.is_empty());
    }

    #[test]
    fn frontier_recovery_matches_dense() {
        for load in [0.6f64, 0.83] {
            let cfg = IbltConfig::with_total_cells(4, 4_000, 17);
            let items = (load * cfg.total_cells() as f64) as usize;
            let ks = keys(items as u64);
            let a = AtomicIblt::new(cfg);
            a.par_insert(&ks);
            let b = AtomicIblt::new(cfg);
            b.par_insert(&ks);
            let dense = a.par_recover();
            let frontier = b.par_recover_frontier();
            assert_eq!(dense.complete, frontier.complete, "load {load}");
            assert_eq!(dense.subrounds, frontier.subrounds, "load {load}");
            assert_eq!(dense.per_subround, frontier.per_subround);
            let mut x = dense.positive;
            x.sort_unstable();
            let mut y = frontier.positive;
            y.sort_unstable();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn frontier_recovery_handles_negatives() {
        let cfg = IbltConfig::with_total_cells(3, 600, 18);
        let t = AtomicIblt::new(cfg);
        t.par_insert(&keys(100));
        let extra: Vec<u64> = (500..560u64).collect();
        t.par_delete(&extra);
        let got = t.par_recover_frontier();
        assert!(got.complete);
        assert_eq!(got.positive.len(), 100);
        let mut neg = got.negative;
        neg.sort_unstable();
        assert_eq!(neg, extra);
    }

    #[test]
    fn snapshot_then_recover_matches_locked_and_serial() {
        // Same key set through two paths: atomic + snapshot, and a plain
        // serial table (the reference). Both recoveries must agree
        // exactly. (The name predates the removal of the lock-striped
        // leg; it is kept so the test's identity stays stable.)
        let cfg = IbltConfig::for_load(3, 3_000, 0.65, 31);
        let ks = keys(3_000);

        let atomic = AtomicIblt::new(cfg);
        atomic.par_insert(&ks);
        let mut from_snapshot = atomic.snapshot().recover_destructive();

        let mut serial = Iblt::new(cfg);
        for &k in &ks {
            serial.insert(k);
        }
        let mut from_serial = serial.recover_destructive();

        for rec in [&mut from_snapshot, &mut from_serial] {
            rec.positive.sort_unstable();
        }
        assert!(from_snapshot.complete && from_serial.complete);
        assert_eq!(from_snapshot.positive, from_serial.positive);
        assert!(from_snapshot.negative.is_empty());
    }

    #[test]
    fn snapshot_is_a_frozen_copy() {
        // Mutating the source after the snapshot must not affect it.
        let cfg = IbltConfig::for_load(3, 1_000, 0.5, 32);
        let t = AtomicIblt::new(cfg);
        t.par_insert(&keys(1_000));
        let snap = t.snapshot();
        t.par_delete(&keys(1_000));
        assert_eq!(snap.items(), 1_000);
        let got = snap.recover();
        assert!(got.complete);
        assert_eq!(got.positive.len(), 1_000);
    }

    #[test]
    fn from_iblt_roundtrips_signed_contents() {
        // Signed (post-subtraction-style) contents survive the conversion
        // in both directions.
        let cfg = IbltConfig::for_load(4, 200, 0.4, 33);
        let mut serial = Iblt::new(cfg);
        for k in 0..80u64 {
            serial.insert(k);
        }
        for k in 1_000..1_040u64 {
            serial.delete(k);
        }
        let atomic = AtomicIblt::from_iblt(&serial);
        assert_eq!(atomic.snapshot(), serial);
        let got = atomic.par_recover();
        assert!(got.complete);
        assert_eq!(got.positive.len(), 80);
        assert_eq!(got.negative.len(), 40);
    }

    #[test]
    fn workspace_recovery_reuse_matches_dense_across_tables() {
        // One workspace decodes tables of different sizes and configs in a
        // row; every decode must match the dense reference, and timing
        // trace stays aligned with the per-subround key counts.
        let mut ws = RecoveryWorkspace::new();
        for (r, items, seed) in [(4usize, 3_000u64, 40u64), (3, 500, 41), (4, 3_000, 42)] {
            let cfg = IbltConfig::for_load(r, items as usize, 0.65, seed);
            let a = AtomicIblt::new(cfg);
            a.par_insert(&keys(items));
            let b = AtomicIblt::new(cfg);
            b.par_insert(&keys(items));
            let dense = a.par_recover();
            let got = b.par_recover_in(&mut ws);
            assert_eq!(got.complete, dense.complete);
            assert_eq!(got.subrounds, dense.subrounds);
            assert_eq!(got.per_subround, dense.per_subround);
            assert_eq!(got.per_subround_ns.len(), got.per_subround.len());
            let mut x = got.positive.clone();
            x.sort_unstable();
            let mut y = dense.positive.clone();
            y.sort_unstable();
            assert_eq!(x, y);
            // The workspace keeps the last recovery readable.
            assert_eq!(ws.recovery().subrounds, dense.subrounds);
        }
    }

    #[test]
    fn snapshot_into_reuses_and_retargets() {
        let cfg_a = IbltConfig::for_load(3, 1_000, 0.5, 50);
        let cfg_b = IbltConfig::for_load(4, 200, 0.5, 51);
        let a = AtomicIblt::new(cfg_a);
        a.par_insert(&keys(1_000));
        let b = AtomicIblt::new(cfg_b);
        b.par_insert(&keys(200));
        // One pooled snapshot target serves both tables, config switch
        // included, and matches the allocating snapshot exactly.
        let mut snap = Iblt::new(cfg_b);
        a.snapshot_into(&mut snap);
        assert_eq!(snap, a.snapshot());
        assert_eq!(snap.items(), 1_000);
        b.snapshot_into(&mut snap);
        assert_eq!(snap, b.snapshot());
        assert_eq!(snap.items(), 200);
    }

    #[test]
    fn load_iblt_reuses_and_retargets() {
        let cfg_a = IbltConfig::for_load(3, 800, 0.5, 52);
        let cfg_b = IbltConfig::for_load(4, 100, 0.4, 53);
        let mut serial_a = Iblt::new(cfg_a);
        for k in keys(800) {
            serial_a.insert(k);
        }
        let mut serial_b = Iblt::new(cfg_b);
        for k in keys(100) {
            serial_b.insert(k);
        }
        let mut pooled = AtomicIblt::new(cfg_b);
        pooled.load_iblt(&serial_a);
        assert_eq!(pooled.snapshot(), serial_a);
        assert!(pooled.par_recover().complete);
        // Recovery peeled the pooled table down; reload with the other
        // config and decode again.
        pooled.load_iblt(&serial_b);
        assert_eq!(pooled.snapshot(), serial_b);
        let got = pooled.par_recover();
        assert!(got.complete);
        assert_eq!(got.positive.len(), 100);
    }

    #[test]
    fn load_subtract_matches_subtract_then_load() {
        let cfg = IbltConfig::for_load(4, 300, 0.4, 54);
        let mut a = Iblt::new(cfg);
        let mut b = Iblt::new(cfg);
        for k in keys(250) {
            a.insert(k);
            b.insert(k);
        }
        for k in 0..30u64 {
            a.insert(k);
        }
        for k in 100..120u64 {
            b.insert(k);
        }
        let mut fused = AtomicIblt::new(IbltConfig::new(2, 7, 0));
        fused.load_subtract(&a, &b);
        assert_eq!(fused.snapshot(), a.subtract(&b));
        let got = fused.par_recover();
        assert!(got.complete);
        assert_eq!(got.positive.len(), 30);
        assert_eq!(got.negative.len(), 20);
    }

    #[test]
    fn fused_reconcile_dense_hint_epochs_match() {
        // A tight sketch (diff occupancy well over the 1/8 dense
        // threshold) decoded for several epochs from one workspace: the
        // first epoch probes and sets the dense hint, later epochs take
        // the parallel probe-skip sweep. Every epoch must produce the
        // identical recovery, and the diff table must hold the full
        // difference afterwards.
        let cfg = IbltConfig::for_load(3, 120, 0.6, 61);
        let mut a = Iblt::new(cfg);
        let mut b = Iblt::new(cfg);
        for k in keys(400) {
            a.insert(k);
            b.insert(k);
        }
        for k in 0..120u64 {
            a.insert(k);
        }
        let reference = AtomicIblt::from_iblt(&a.subtract(&b)).par_recover();
        assert!(reference.complete);

        let mut ws = RecoveryWorkspace::new();
        let mut pooled = AtomicIblt::new(cfg);
        for epoch in 0..3 {
            let probe_skipped = ws.prev_dense;
            assert_eq!(probe_skipped, epoch > 0, "hint should arm after epoch 0");
            let got = pooled.recover_subtracted_in(&a, &b, &mut ws);
            assert!(got.complete, "epoch {epoch}");
            assert_eq!(got.subrounds, reference.subrounds, "epoch {epoch}");
            assert_eq!(got.per_subround, reference.per_subround);
            let mut x = got.positive.clone();
            x.sort_unstable();
            let mut y = reference.positive.clone();
            y.sort_unstable();
            assert_eq!(x, y, "epoch {epoch}");
            assert!(got.negative.is_empty());
            assert_eq!(pooled.snapshot(), a.subtract(&b), "diff table intact");
        }

        // A sparse epoch through the same workspace still decodes
        // correctly (the hinted dense sweep is merely suboptimal) and
        // disarms the hint for the next epoch.
        let mut c = b.clone();
        c.delete(5_000);
        let got = pooled.recover_subtracted_in(&b, &c, &mut ws);
        assert!(got.complete);
        assert_eq!(got.positive, vec![5_000]);
        assert!(!ws.prev_dense, "sparse epoch must disarm the dense hint");
    }

    /// Plant `key`, with its genuine checksum and `count = 1`, in the
    /// empty cell `idx` of subtable 0 — a cell `key` does not hash to.
    fn plant_stray(t: &AtomicIblt, idx: usize, key: u64) {
        assert_ne!(t.hasher.global_cell(0, key), idx);
        assert!(t.read_cell(idx).is_empty());
        t.count[idx].store(1, Relaxed);
        t.key_sum[idx].store(key, Relaxed);
        t.check_sum[idx].store(t.hasher.checksum(key), Relaxed);
    }

    #[test]
    fn key_in_a_cell_it_does_not_hash_to_is_not_pure() {
        // What a checksum false positive or a crafted digest looks like:
        // count and checksum say "pure", the key's own hash says
        // "not my cell". Recovery must not report the key, must not
        // "delete" it from the cells it really hashes to, and must say
        // the table did not decode — in candidate mode (the stray is all
        // there is) and in dense mode (stray beside honest keys).
        let cfg = IbltConfig::with_total_cells(4, 4_000, 71);
        let per_table = cfg.cells_per_table;
        let stray = 0xdead_beefu64;
        for honest in [0u64, 1_500] {
            let t = AtomicIblt::new(cfg);
            let ks = keys(honest);
            t.par_insert(&ks);
            let idx = (0..per_table)
                .find(|&i| t.read_cell(i).is_empty() && t.hasher.global_cell(0, stray) != i)
                .expect("subtable 0 has an empty cell");
            plant_stray(&t, idx, stray);

            let mut ws = RecoveryWorkspace::new();
            let got = t.par_recover_in(&mut ws);
            assert!(!got.complete, "{honest} honest keys");
            assert!(got.negative.is_empty());
            let mut found = got.positive.clone();
            found.sort_unstable();
            let mut want = ks;
            want.sort_unstable();
            assert_eq!(found, want, "only the honest keys come back");
            for (i, lane) in ws.lanes.iter().enumerate() {
                let cell = lane.load();
                if i == idx {
                    assert_eq!((cell.key, cell.count()), (stray, 1), "stray cell kept");
                } else {
                    assert!(cell.is_empty(), "cell {i} written by a bogus deletion");
                }
            }
        }
    }

    /// `par_recover_in` and `recover_subtracted_in` of `a − b`, on
    /// pinned 1- and 4-thread pools: all four decodes must return the
    /// very same vectors, with `par_recover`'s subround trace.
    fn assert_deterministic_and_matching(a: &Iblt, b: &Iblt) -> ParRecovery {
        let diff = a.subtract(b);
        let reference = AtomicIblt::from_iblt(&diff).par_recover();
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut ws = RecoveryWorkspace::new();
                runs.push(AtomicIblt::from_iblt(&diff).par_recover_in(&mut ws).clone());
                let mut pooled = AtomicIblt::new(*a.config());
                runs.push(pooled.recover_subtracted_in(a, b, &mut ws).clone());
            });
        }
        for got in &runs {
            assert_eq!(got.complete, reference.complete);
            assert_eq!(got.subrounds, reference.subrounds);
            assert_eq!(got.per_subround, reference.per_subround);
            assert_eq!(got.positive, runs[0].positive, "order depends on threads");
            assert_eq!(got.negative, runs[0].negative, "order depends on threads");
        }
        let sorted = |v: &[u64]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&runs[0].positive), sorted(&reference.positive));
        assert_eq!(sorted(&runs[0].negative), sorted(&reference.negative));
        reference
    }

    #[test]
    fn pooled_recovery_is_deterministic_across_thread_counts() {
        // 16 384 cells a subtable: four workers get a real share each,
        // in the sweep and (1 500 diff keys, about 1 450 candidates a
        // subtable) in the candidate scan.
        let cfg = IbltConfig::with_total_cells(4, 1 << 16, 72);
        let table = |ks: &[u64]| {
            let mut t = Iblt::new(cfg);
            ks.iter().for_each(|&k| t.insert(k));
            t
        };
        let empty = Iblt::new(cfg);
        let total = cfg.total_cells() as f64;

        // Dense, below the threshold.
        let dense = assert_deterministic_and_matching(&table(&keys((0.7 * total) as u64)), &empty);
        assert!(dense.complete && dense.negative.is_empty());

        // Dense, above it: the 2-core stays.
        let over = assert_deterministic_and_matching(&table(&keys((0.85 * total) as u64)), &empty);
        assert!(!over.complete);

        // A sparse signed difference: candidate mode.
        let ks = keys(31_500);
        let diff = assert_deterministic_and_matching(&table(&ks[..31_000]), &table(&ks[1_000..]));
        assert!(diff.complete);
        assert_eq!((diff.positive.len(), diff.negative.len()), (1_000, 500));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn load_subtract_requires_same_config() {
        let a = Iblt::new(IbltConfig::new(3, 50, 1));
        let b = Iblt::new(IbltConfig::new(3, 50, 2));
        AtomicIblt::new(IbltConfig::new(3, 50, 1)).load_subtract(&a, &b);
    }

    #[test]
    fn serial_parallel_conversion_roundtrip() {
        let cfg = IbltConfig::for_load(3, 500, 0.5, 16);
        let t = AtomicIblt::new(cfg);
        t.par_insert(&keys(500));
        let serial = t.to_serial();
        let back = AtomicIblt::from_serial(&serial);
        let got = back.par_recover();
        assert!(got.complete);
        assert_eq!(got.positive.len(), 500);
    }
}

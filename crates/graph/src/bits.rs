//! Shared-memory primitives for the parallel peeling engines: an atomic
//! bitset, striped collection buffers, and bucketed scatter buffers.
//!
//! All three exist to make the hot loops of `peel-core` and `peel-iblt`
//! allocation-free in steady state:
//!
//! * [`AtomicBitset`] packs per-edge / per-cell boolean state (alive flags,
//!   queued flags) 64 entries to the cache line instead of one `AtomicBool`
//!   per entry, cutting the memory traffic of the scan phases by ~8× while
//!   keeping the same relaxed-RMW claiming semantics (`fetch_or` /
//!   `fetch_and` are commutative, so concurrent claims on neighbouring bits
//!   of one word compose exactly like independent `swap`s on separate
//!   bools).
//! * [`Buckets`] carries the kill phase's degree decrements to their
//!   owners: each writer appends to its own slot's bins with plain pushes,
//!   and after a barrier each bin's owner drains it from every slot — the
//!   owner then updates its vertex block without synchronisation.
//! * [`Striped`] replaces the `fold(Vec::new).reduce(append)` frontier
//!   collection pattern — which allocates one accumulator per rayon chunk
//!   per round — with a fixed set of reusable buffers. Producers push into
//!   the stripe owning their source index (contiguous source ranges map to
//!   contiguous stripes, so threads working on disjoint ranges rarely share
//!   a stripe), and a sequential drain merges the stripes into one output
//!   vector by offset. `clear()` keeps every buffer's capacity, so after
//!   warm-up no round allocates.

// ordering: every atomic op in this module is Relaxed — the bitset's RMWs
// (fetch_or/fetch_and) are commutative claims whose winner is decided by RMW
// atomicity alone, and cross-phase visibility is sequenced by the engines'
// fork-join barriers (rayon join/scope), not by these accesses. Checked by
// the loom models in tests/loom_bits.rs.
use std::sync::atomic::Ordering::Relaxed;

use crate::sync::{AtomicU64, Mutex, MutexGuard};

/// A fixed-length bitset over atomic 64-bit words.
///
/// All atomic operations are `Relaxed`: callers sequence phases with
/// fork-join barriers (see the memory-ordering notes in `peel-core`), and
/// within a phase the word-level RMWs commute.
#[derive(Debug, Default)]
pub struct AtomicBitset {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitset {
    /// Empty bitset (length 0); grow it with [`AtomicBitset::reset`].
    pub fn new() -> Self {
        AtomicBitset::default()
    }

    /// Bitset of `len` bits, all set to `fill`.
    pub fn with_len(len: usize, fill: bool) -> Self {
        let mut s = AtomicBitset::new();
        s.reset(len, fill);
        s
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the bitset has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resize to `len` bits and set every bit to `fill`, reusing the word
    /// buffer when capacity allows (the steady-state path allocates
    /// nothing).
    pub fn reset(&mut self, len: usize, fill: bool) {
        let words = len.div_ceil(64);
        let word = if fill { u64::MAX } else { 0 };
        self.words.truncate(words);
        for w in &mut self.words {
            *w.get_mut() = word;
        }
        self.words.resize_with(words, || AtomicU64::new(word));
        self.len = len;
        if fill {
            self.mask_tail();
        }
    }

    /// Zero the bits past `len` in the last word so whole-word scans (e.g.
    /// [`AtomicBitset::count_ones`]) never see phantom entries.
    fn mask_tail(&mut self) {
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last.get_mut() &= (1u64 << (self.len % 64)) - 1;
            }
        }
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64].load(Relaxed) & (1 << (i % 64)) != 0
    }

    /// Set bit `i`, returning its previous value (atomic test-and-set).
    #[inline]
    pub fn test_and_set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        self.words[i / 64].fetch_or(mask, Relaxed) & mask != 0
    }

    /// Clear bit `i`, returning its previous value (atomic test-and-clear —
    /// the "first claimer wins" primitive: exactly one concurrent caller
    /// observes `true`).
    #[inline]
    pub fn test_and_clear(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        self.words[i / 64].fetch_and(!mask, Relaxed) & mask != 0
    }

    /// Set bit `i` without reading it.
    #[inline]
    pub fn set(&self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64].fetch_or(1u64 << (i % 64), Relaxed);
    }

    /// Clear bit `i` without reading it.
    #[inline]
    pub fn clear(&self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64].fetch_and(!(1u64 << (i % 64)), Relaxed);
    }

    /// Prefetch the cache line holding bit `i` (see [`crate::prefetch`]).
    #[inline]
    pub fn prefetch_bit(&self, i: usize) {
        crate::prefetch::prefetch_index(&self.words, i / 64);
    }

    /// Set bit `i` through exclusive access — a plain read-modify-write,
    /// no atomic RMW, for single-threaded seeding phases.
    #[inline]
    pub fn set_mut(&mut self, i: usize) {
        debug_assert!(i < self.len);
        *self.words[i / 64].get_mut() |= 1u64 << (i % 64);
    }

    /// Clear every bit in `lo..hi` with word-granularity RMWs (edge words
    /// masked, interior words stored whole) — O(range/64) operations, for
    /// consumers that retire a contiguous block of flags at once.
    pub fn clear_range(&self, lo: usize, hi: usize) {
        debug_assert!(lo <= hi && hi <= self.len);
        if lo >= hi {
            return;
        }
        let (first_word, last_word) = (lo / 64, (hi - 1) / 64);
        for w in first_word..=last_word {
            let mut keep = 0u64;
            if w == first_word && !lo.is_multiple_of(64) {
                keep |= (1u64 << (lo % 64)) - 1; // bits below lo survive
            }
            if w == last_word && !hi.is_multiple_of(64) {
                keep |= !((1u64 << (hi % 64)) - 1); // bits at/above hi survive
            }
            if keep == 0 {
                self.words[w].store(0, Relaxed);
            } else {
                self.words[w].fetch_and(keep, Relaxed);
            }
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Relaxed).count_ones() as usize)
            .sum()
    }
}

/// Number of stripes a [`Striped`] buffer set uses. Comfortably above any
/// realistic worker count, so contiguous source chunks (one per rayon
/// worker) touch mostly disjoint stripes; small enough that draining stays
/// a handful of `memcpy`s.
pub const STRIPES: usize = 32;

/// Reusable striped collection buffers: `STRIPES` mutex-guarded vectors
/// that parallel producers push into by source index, merged by offset into
/// one output vector afterwards.
#[derive(Debug)]
pub struct Striped<T> {
    bufs: Vec<Mutex<Vec<T>>>,
}

impl<T> Default for Striped<T> {
    fn default() -> Self {
        Striped {
            bufs: (0..STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }
}

impl<T> Striped<T> {
    /// Fresh buffer set (buffers start empty and grow on first use).
    pub fn new() -> Self {
        Striped::default()
    }

    /// The stripe owning source index `i` of a source of length `len`.
    /// Contiguous index ranges map to contiguous stripes.
    #[inline]
    pub fn stripe_of(i: usize, len: usize) -> usize {
        debug_assert!(i < len.max(1));
        i * STRIPES / len.max(1)
    }

    /// Lock one stripe for pushing. Producers working on one source element
    /// should take the guard once and push all of that element's outputs
    /// through it, rather than locking per push.
    #[inline]
    pub fn lock(&self, stripe: usize) -> MutexGuard<'_, Vec<T>> {
        // A poisoned stripe means a producer panicked mid-round; the whole
        // peel is abandoned then, so propagating the panic is correct.
        self.bufs[stripe].lock().unwrap()
    }

    /// Move every stripe's contents into `out` (appended in stripe order —
    /// the merge-by-offset step), leaving all stripes empty *with their
    /// capacity intact*.
    pub fn drain_into(&mut self, out: &mut Vec<T>) {
        for buf in &mut self.bufs {
            out.append(buf.get_mut().unwrap());
        }
    }

    /// Total buffered elements (diagnostics/tests).
    pub fn len(&mut self) -> usize {
        self.bufs
            .iter_mut()
            .map(|b| b.get_mut().unwrap().len())
            .sum()
    }

    /// True iff no stripe holds an element.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
}

/// Bucketed scatter buffers: `slots × bins` vectors, written by one
/// writer per slot and drained by one owner per bin.
///
/// The owner-computes exchange of the peeling engines' kill phase: a
/// writer routes each item to the bin of the task that will consume it
/// (the engines bin degree decrements by vertex block), and after a
/// fork-join barrier the owner of a bin visits its items from every
/// slot, in slot order. Each slot's bins sit behind one mutex that its
/// writer takes once per phase ([`Buckets::writer`]), so a push is a
/// plain `Vec::push` — no atomic read-modify-write per item. A drain
/// ([`Buckets::drain_bin`]) takes each slot's mutex only to swap the
/// bin's vector out and back, so owners of different bins never hold a
/// slot for longer than that swap.
///
/// Neither phase reallocates once warm: [`Buckets::reset`] empties bins
/// but keeps every slot and bin buffer it has ever held, so alternating
/// between worker counts (a one-thread and a many-thread pool sharing a
/// workspace) reuses the buffers of both. The protocol — writers on
/// distinct slots, a join, then an owner drain — is checked by the loom
/// model in `tests/loom_bits.rs`.
#[derive(Debug)]
pub struct Buckets<T> {
    /// Per-slot bin vectors; grow-only, only the first `active` are used.
    slots: Vec<Mutex<Vec<Vec<T>>>>,
    active: usize,
    bins: usize,
}

/// A poisoned slot means a writer panicked mid-phase, and the parallel
/// phase around it propagates that panic.
const POISONED_SLOT: &str = "a bucket writer panicked";

impl<T> Default for Buckets<T> {
    fn default() -> Self {
        Buckets {
            slots: Vec::new(),
            active: 0,
            bins: 0,
        }
    }
}

impl<T> Buckets<T> {
    /// Empty bucket set; size it with [`Buckets::reset`].
    pub fn new() -> Self {
        Buckets::default()
    }

    /// Shape the set as `slots × bins`, every bin empty. Buffers held from
    /// earlier shapes are kept (emptied), so the steady state allocates
    /// nothing. Call only between parallel phases (takes `&mut`).
    pub fn reset(&mut self, slots: usize, bins: usize) {
        if self.slots.len() < slots {
            self.slots.resize_with(slots, || Mutex::new(Vec::new()));
        }
        for slot in &mut self.slots {
            let slot = slot.get_mut().expect(POISONED_SLOT);
            if slot.len() < bins {
                slot.resize_with(bins, Vec::new);
            }
            slot.iter_mut().for_each(Vec::clear);
        }
        self.active = slots;
        self.bins = bins;
    }

    /// Number of writer slots.
    #[inline]
    pub fn slots(&self) -> usize {
        self.active
    }

    /// Number of bins per slot.
    #[inline]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Write access to slot `s` for one phase. Single-writer protocol:
    /// during a write phase each slot has exactly one writer, so this lock
    /// is uncontended and taken once per phase, not once per item.
    pub fn writer(&self, s: usize) -> BucketWriter<'_, T> {
        assert!(s < self.active, "slot {s} of {} slots", self.active);
        BucketWriter {
            bins: self.slots[s].lock().expect(POISONED_SLOT),
            len: self.bins,
        }
    }

    /// Empty bin `b`, handing `f` each slot's items for it as one slice
    /// (slot 0 first, items in push order); the bin's buffers keep their
    /// capacity. Owner protocol: runs after the barrier that ends the
    /// write phase, with one owner per bin.
    pub fn drain_bin(&self, b: usize, mut f: impl FnMut(&[T])) {
        debug_assert!(b < self.bins);
        for slot in &self.slots[..self.active] {
            let mut items = std::mem::take(&mut slot.lock().expect(POISONED_SLOT)[b]);
            f(&items);
            items.clear();
            slot.lock().expect(POISONED_SLOT)[b] = items;
        }
    }
}

/// One slot's bins, held by that slot's single writer
/// ([`Buckets::writer`]).
pub struct BucketWriter<'a, T> {
    bins: MutexGuard<'a, Vec<Vec<T>>>,
    len: usize,
}

impl<T> BucketWriter<'_, T> {
    /// Append `item` to bin `bin` of this slot.
    #[inline]
    pub fn push(&mut self, bin: usize, item: T) {
        debug_assert!(bin < self.len);
        self.bins[bin].push(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_clear_roundtrip() {
        let bs = AtomicBitset::with_len(130, false);
        assert_eq!(bs.len(), 130);
        assert!(!bs.get(0) && !bs.get(129));
        assert!(!bs.test_and_set(65));
        assert!(bs.test_and_set(65));
        assert!(bs.get(65));
        assert!(bs.test_and_clear(65));
        assert!(!bs.test_and_clear(65));
        assert!(!bs.get(65));
    }

    #[test]
    fn bitset_reset_refills_and_masks_tail() {
        let mut bs = AtomicBitset::with_len(70, true);
        assert_eq!(bs.count_ones(), 70);
        bs.reset(10, false);
        assert_eq!(bs.len(), 10);
        assert_eq!(bs.count_ones(), 0);
        bs.reset(100, true);
        assert_eq!(bs.count_ones(), 100);
        assert!(bs.get(99));
    }

    #[test]
    fn bitset_clear_range_hits_exact_bits() {
        for (lo, hi) in [(0, 0), (0, 130), (3, 64), (64, 128), (5, 200), (63, 65)] {
            let bs = AtomicBitset::with_len(200, true);
            bs.clear_range(lo, hi);
            for i in 0..200 {
                assert_eq!(
                    bs.get(i),
                    !(lo <= i && i < hi),
                    "bit {i} after clear {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn bitset_claims_are_exclusive_under_contention() {
        use std::sync::atomic::AtomicUsize;
        let bs = AtomicBitset::with_len(4096, true);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..4096 {
                        if bs.test_and_clear(i) {
                            wins.fetch_add(1, Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Relaxed), 4096, "each bit claimed exactly once");
        assert_eq!(bs.count_ones(), 0);
    }

    #[test]
    fn striped_drain_preserves_per_stripe_order() {
        let mut st: Striped<u32> = Striped::new();
        let len = 100;
        for i in (0..len).rev() {
            st.lock(Striped::<u32>::stripe_of(i, len)).push(i as u32);
        }
        let mut out = Vec::new();
        st.drain_into(&mut out);
        assert_eq!(out.len(), len);
        // Stripes drain in index order: the stripe of each element never
        // decreases along the drained output.
        let stripes: Vec<usize> = out
            .iter()
            .map(|&v| Striped::<u32>::stripe_of(v as usize, len))
            .collect();
        assert!(stripes.windows(2).all(|w| w[0] <= w[1]));
        assert!(st.is_empty());
        // Buffers kept their capacity for reuse.
        assert!(st
            .bufs
            .iter_mut()
            .any(|b| b.get_mut().unwrap().capacity() > 0));
    }

    #[test]
    fn buckets_drain_each_bin_in_slot_order() {
        let mut bk: Buckets<u32> = Buckets::new();
        bk.reset(3, 2);
        assert_eq!((bk.slots(), bk.bins()), (3, 2));
        // Slot 2 writes first: the drain order is slot order, not
        // arrival order.
        bk.writer(2).push(1, 20);
        let mut w0 = bk.writer(0);
        w0.push(1, 0);
        w0.push(0, 1);
        w0.push(1, 2);
        drop(w0);
        bk.writer(1).push(1, 10);
        let mut seen = Vec::new();
        bk.drain_bin(1, |xs| seen.extend_from_slice(xs));
        assert_eq!(seen, vec![0, 2, 10, 20]);
        seen.clear();
        bk.drain_bin(0, |xs| seen.extend_from_slice(xs));
        assert_eq!(seen, vec![1]);
        for b in 0..2 {
            bk.drain_bin(b, |xs| {
                assert!(xs.is_empty(), "a drained bin must be empty")
            });
        }
    }

    #[test]
    fn buckets_reset_empties_and_keeps_buffers_across_shapes() {
        let mut bk: Buckets<u32> = Buckets::new();
        bk.reset(4, 8);
        for s in 0..4 {
            let mut w = bk.writer(s);
            for b in 0..8 {
                w.push(b, (s * 8 + b) as u32);
            }
        }
        // Narrow, then widen again: residue from the wide shape never
        // shows, and the wide shape's buffers survive the narrow one.
        bk.reset(1, 2);
        for b in 0..2 {
            bk.drain_bin(b, |xs| assert!(xs.is_empty(), "reset must empty every bin"));
        }
        bk.reset(4, 8);
        for b in 0..8 {
            bk.drain_bin(b, |xs| assert!(xs.is_empty(), "reset must empty every bin"));
        }
        assert!(bk
            .slots
            .iter_mut()
            .all(|s| s.get_mut().unwrap()[7].capacity() > 0));
    }

    #[test]
    fn buckets_concurrent_writers_then_owner_drains() {
        let (slots, bins, per_slot) = (4usize, 8usize, 10_000u32);
        let mut bk: Buckets<u32> = Buckets::new();
        bk.reset(slots, bins);
        std::thread::scope(|sc| {
            for s in 0..slots {
                let bk = &bk;
                sc.spawn(move || {
                    let mut w = bk.writer(s);
                    for i in 0..per_slot {
                        let item = s as u32 * per_slot + i;
                        w.push(item as usize % bins, item);
                    }
                });
            }
        });
        // Writers joined: the barrier. One owner per bin drains in parallel.
        let total = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|sc| {
            for b in 0..bins {
                let (bk, total) = (&bk, &total);
                sc.spawn(move || {
                    let mut prev = None;
                    bk.drain_bin(b, |items| {
                        for &item in items {
                            assert_eq!(item as usize % bins, b);
                            // Slot order, push order within a slot: increasing.
                            assert!(prev < Some(item));
                            prev = Some(item);
                        }
                        total.fetch_add(items.len() as u64, Relaxed);
                    });
                });
            }
        });
        assert_eq!(total.into_inner(), u64::from(per_slot) * slots as u64);
    }

    #[test]
    fn stripe_of_is_monotone_and_in_range() {
        for len in [1usize, 5, 31, 32, 33, 1000] {
            let mut prev = 0;
            for i in 0..len {
                let s = Striped::<u32>::stripe_of(i, len);
                assert!(s < STRIPES);
                assert!(s >= prev);
                prev = s;
            }
        }
    }
}

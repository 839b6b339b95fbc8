//! Exhaustive interleaving models for the atomic IBLT cell protocol.
//!
//! Build and run with `RUSTFLAGS="--cfg loom" cargo test -p peel-iblt
//! --test loom_cells`. The paper's concurrent-update model (Section 6)
//! rests on one claim: cell updates — `fetch_add` on `count`,
//! `fetch_xor` on the sums — commute, so any interleaving of insert and
//! delete traffic leaves the table in the same state as some serial
//! order. These models check that claim at `Relaxed` under every
//! schedule (within the preemption bound), including stale relaxed
//! reads, which is exactly what the CUDA atomic-XOR kernels the code
//! mirrors must survive.
//!
//! The pooled recovery's fused subround kernel has its own model next
//! to the crate-private decode lanes it runs over
//! (`src/workspace.rs`, `cargo test -p peel-iblt --lib loom_model`
//! under the same `RUSTFLAGS`).
//!
//! Models use the serial per-key `insert`/`delete` entry points, not the
//! rayon `par_*` wrappers: rayon pool threads are outside the model
//! scheduler. The wrappers add only work splitting, no new cell ops.

#![cfg(loom)]

use loom::sync::Arc;
use peel_iblt::{AtomicIblt, AtomicKvIblt, Iblt, IbltConfig, KvIblt};

fn cfg() -> IbltConfig {
    // Two subtables of two cells each: the smallest geometry where two
    // keys can collide in one cell while differing in another.
    IbltConfig::new(2, 2, 0x5eed)
}

/// Racing insert ∥ delete of different keys must land in the same state
/// as the serial order — no lost cell update under any interleaving.
#[test]
fn insert_delete_commute_with_serial_order() {
    loom::model(|| {
        let t = Arc::new(AtomicIblt::new(cfg()));
        let th = {
            let t = Arc::clone(&t);
            loom::thread::spawn(move || t.insert(1))
        };
        t.delete(2);
        th.join().unwrap();

        let mut serial = Iblt::new(cfg());
        serial.insert(1);
        serial.delete(2);
        assert_eq!(t.snapshot(), serial, "racing cell RMWs must commute");
    });
}

/// Racing inserts of *colliding* keys: XOR sums and counts must both
/// survive contention on the same cells.
#[test]
fn colliding_inserts_commute() {
    loom::model(|| {
        let t = Arc::new(AtomicIblt::new(cfg()));
        let th = {
            let t = Arc::clone(&t);
            loom::thread::spawn(move || t.insert(3))
        };
        t.insert(4);
        th.join().unwrap();

        let mut serial = Iblt::new(cfg());
        serial.insert(4);
        serial.insert(3);
        assert_eq!(t.snapshot(), serial);
        // Whatever peeling can or cannot decode from this tiny geometry,
        // it must decode identically from both (the tables are equal).
        let par = t.snapshot().recover();
        let ser = serial.recover();
        assert_eq!(par.complete, ser.complete);
        assert_eq!(par.positive, ser.positive);
    });
}

/// A snapshot racing a single insert sees each *sum* either before or
/// after that insert's RMW on it — per-cell tearing across the three
/// sums is allowed (and documented on `snapshot`), but every observed
/// count must be a value the modification order actually contained.
#[test]
fn concurrent_snapshot_reads_are_per_sum_atomic() {
    loom::model(|| {
        let t = Arc::new(AtomicIblt::new(IbltConfig::new(2, 2, 9)));
        let th = {
            let t = Arc::clone(&t);
            loom::thread::spawn(move || t.insert(5))
        };
        let racing = t.snapshot();
        th.join().unwrap();
        for c in racing.cells() {
            assert!(c.count == 0 || c.count == 1, "count can only be 0 or 1");
        }
        // After the join fence the snapshot is exact.
        let mut serial = Iblt::new(*t.config());
        serial.insert(5);
        assert_eq!(t.snapshot(), serial);
    });
}

/// The key-value table carries a fourth XOR sum (`value_sum`) through
/// the same protocol; racing upsert traffic must commute identically.
#[test]
fn kv_insert_delete_commute_with_serial_order() {
    loom::model(|| {
        let t = Arc::new(AtomicKvIblt::new(cfg()));
        let th = {
            let t = Arc::clone(&t);
            loom::thread::spawn(move || t.insert(1, 10))
        };
        t.delete(2, 20);
        th.join().unwrap();

        let mut serial = KvIblt::new(cfg());
        serial.insert(1, 10);
        serial.delete(2, 20);
        assert_eq!(t.snapshot(), serial);
    });
}

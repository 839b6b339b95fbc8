//! Exhaustive interleaving models for [`peel_graph::bits::AtomicBitset`]
//! and [`peel_graph::bits::Buckets`].
//!
//! Build and run with `RUSTFLAGS="--cfg loom" cargo test -p peel-graph
//! --test loom_bits`. Under that cfg the bitset's words are the vendored
//! loom shims, so `loom::model` explores every schedule (within the
//! preemption bound) including stale relaxed reads — which is exactly
//! the memory model the bitset's Relaxed word RMWs must survive.

#![cfg(loom)]

use loom::sync::Arc;
use peel_graph::bits::{AtomicBitset, Buckets};

/// The peeling claim protocol: `test_and_set` is a word `fetch_or`, so
/// of two racing claimants for the same vertex exactly one sees the bit
/// clear. This is what makes duplicate peels impossible in the
/// paper's parallel subrounds.
#[test]
fn test_and_set_grants_one_claim() {
    loom::model(|| {
        let bs = Arc::new(AtomicBitset::with_len(64, false));
        let t = {
            let bs = Arc::clone(&bs);
            loom::thread::spawn(move || bs.test_and_set(7))
        };
        let mine = bs.test_and_set(7);
        let theirs = t.join().unwrap();
        assert!(
            mine != theirs,
            "exactly one of two racing test_and_set calls must claim the bit"
        );
        assert!(bs.get(7));
    });
}

/// Neighboring bits share a word; their RMWs must commute. Two threads
/// claiming different bits in the same `AtomicU64` word must both
/// succeed and neither update may be lost — the fetch_or read-modify-
/// write cycle is atomic even at `Relaxed`.
#[test]
fn same_word_claims_commute() {
    loom::model(|| {
        let bs = Arc::new(AtomicBitset::with_len(64, false));
        let t = {
            let bs = Arc::clone(&bs);
            loom::thread::spawn(move || bs.test_and_set(3))
        };
        assert!(!bs.test_and_set(4), "bit 4 has no competitor");
        assert!(!t.join().unwrap(), "bit 3 has no competitor");
        assert!(bs.get(3) && bs.get(4), "no word update may be lost");
    });
}

/// `test_and_clear` is the release direction of the same protocol: two
/// racing clears of a set bit grant exactly one.
#[test]
fn test_and_clear_grants_one_claim() {
    loom::model(|| {
        let bs = Arc::new(AtomicBitset::with_len(64, true));
        let t = {
            let bs = Arc::clone(&bs);
            loom::thread::spawn(move || bs.test_and_clear(11))
        };
        let mine = bs.test_and_clear(11);
        let theirs = t.join().unwrap();
        assert!(mine != theirs);
        assert!(!bs.get(11));
    });
}

/// The broken variant the RMW protocol exists to rule out: a get-then-
/// clear claim is *not* atomic, and the checker finds the double-claim
/// interleaving and reproduces it from its recorded schedule. This is
/// the suite's deliberately-injected race — it documents both that the
/// model is strong enough to catch the bug class and how to replay one.
#[test]
fn get_then_clear_double_claim_is_caught_and_replays() {
    let claim_via_get_then_clear = || {
        let bs = Arc::new(AtomicBitset::with_len(64, true));
        let t = {
            let bs = Arc::clone(&bs);
            loom::thread::spawn(move || {
                if bs.get(5) {
                    bs.clear(5);
                    return true;
                }
                false
            })
        };
        let mine = if bs.get(5) {
            bs.clear(5);
            true
        } else {
            false
        };
        let theirs = t.join().unwrap();
        assert!(
            !(mine && theirs),
            "non-atomic get-then-clear granted the same bit twice"
        );
    };
    let failure = loom::explore(claim_via_get_then_clear)
        .expect_err("the checker must find the double-claim interleaving");
    assert!(failure.message.contains("granted the same bit twice"));
    // The recorded schedule replays the exact failing interleaving.
    let replayed = loom::model::Builder {
        replay: Some(failure.schedule.clone()),
        ..Default::default()
    }
    .explore(claim_via_get_then_clear)
    .expect_err("replaying the schedule must reproduce the failure");
    assert_eq!(replayed.message, failure.message);
}

/// The kill phase's owner-computes exchange: two writers fill their own
/// slots of a [`Buckets`] (plain `Vec` pushes behind a once-per-phase
/// slot lock), the fork-join barrier ends the write phase, and each
/// bin's owner drains it. Under loom this checks that the join is enough
/// for the owner to see every entry exactly once, in slot order, however
/// the writers interleave.
#[test]
fn bucket_writers_then_owner_drain_sees_each_entry_once() {
    loom::model(|| {
        let mut bk = Buckets::new();
        bk.reset(2, 2);
        let bk = Arc::new(bk);
        let t = {
            let bk = Arc::clone(&bk);
            loom::thread::spawn(move || {
                // Slot 1's writer.
                let mut w = bk.writer(1);
                w.push(0, 10u32);
                w.push(1, 11);
            })
        };
        // Slot 0's writer runs concurrently with the spawned one.
        let mut w = bk.writer(0);
        w.push(0, 0u32);
        w.push(0, 1);
        drop(w);
        t.join().unwrap(); // the barrier that ends the write phase
        let drained = |b| {
            let mut items = Vec::new();
            bk.drain_bin(b, |xs| items.extend_from_slice(xs));
            items
        };
        assert_eq!(
            drained(0),
            vec![0, 1, 10],
            "bin 0 lost or reordered an entry"
        );
        assert_eq!(drained(1), vec![11], "bin 1 lost or reordered an entry");
        assert!(
            drained(0).is_empty() && drained(1).is_empty(),
            "a drain must empty its bin"
        );
    });
}

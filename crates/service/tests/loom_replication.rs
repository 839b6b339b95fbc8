//! Exhaustive interleaving models for
//! [`peel_service::replication::ReplicationHub`].
//!
//! Build and run with `RUSTFLAGS="--cfg loom" cargo test -p peel-service
//! --test loom_replication`. Three properties:
//!
//! * **Drop-oldest sequencing**: under publisher ∥ consumer races on a
//!   capacity-1 stream, received sequence numbers are strictly
//!   increasing and every published batch is either received or counted
//!   in `batches_dropped` — evicted from the *old* end, never lost
//!   silently, never delivered out of order.
//! * **Subscribe ∥ close**: a subscription racing `close` always
//!   terminates its `recv` — either `close` saw it in the list, or it
//!   was born closed. The *buggy* variant (sampling the closed flag
//!   before taking the subs lock — what `subscribe` did before the PR-6
//!   audit) is modeled inline below; the checker finds the lost-close
//!   interleaving, proving the model is sharp enough to have caught the
//!   bug, and its replay schedule is recorded in CHANGES.md.
//! * **Epoch bump ∥ subscribe**: a subscription racing an election's
//!   `bump_epoch` is either stamped with the post-bump epoch or closed
//!   — never left alive pinned to the fenced epoch, which would orphan
//!   a follower on a stream no fence will ever cut again.
//! * **Sender smoke**: a `WindowedSender` fed a seeded ack script
//!   (clean and fault-mangled) never panics, and everything it emits is
//!   a well-formed `Replicate` frame with strictly increasing sequence
//!   numbers.

#![cfg(loom)]

use std::time::Instant;

use loom::sync::Arc;
use peel_service::queue::Op;
use peel_service::replication::{
    ReplicationHub, SenderFrame, StreamConfig, StreamItem, WindowedSender,
};
use peel_service::transport::FaultPlan;
use peel_service::wire::{decode_response, encode_request, Request, Response};

fn batch(key: u64) -> Vec<Op> {
    vec![Op { key, dir: 1 }]
}

/// Publisher ∥ consumer on a capacity-1 subscription: strict sequence
/// order, and received + dropped accounts for every publish.
#[test]
fn drop_oldest_keeps_sequence_order_and_accounts_for_every_batch() {
    loom::model(|| {
        let hub = Arc::new(ReplicationHub::new(1));
        let sub = hub.subscribe();
        let publisher = {
            let hub = Arc::clone(&hub);
            loom::thread::spawn(move || {
                assert_eq!(hub.publish(&batch(10)), 1);
                assert_eq!(hub.publish(&batch(20)), 2);
                hub.close();
            })
        };
        let mut seqs = Vec::new();
        while let Some(item) = sub.recv() {
            if let StreamItem::Batch(seq, _) = item {
                seqs.push(seq);
            }
        }
        publisher.join().unwrap();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "sequence numbers must be strictly increasing, got {seqs:?}"
        );
        let dropped = hub.stats().batches_dropped;
        assert_eq!(
            seqs.len() as u64 + dropped,
            2,
            "every publish is received or counted dropped (got {seqs:?}, dropped {dropped})"
        );
    });
}

/// Regression model for the subscribe-vs-close race fixed in this PR:
/// with `subscribe` sampling the closed flag under the subs lock, a
/// subscription can never miss the close — `recv` always terminates.
/// (A lost close parks `recv` forever; the checker reports it as a
/// deadlock, so an exhaustive pass *is* the proof.)
#[test]
fn subscribe_racing_close_always_terminates() {
    loom::model(|| {
        let hub = Arc::new(ReplicationHub::new(1));
        let closer = {
            let hub = Arc::clone(&hub);
            loom::thread::spawn(move || hub.close())
        };
        let sub = hub.subscribe();
        assert!(sub.recv().is_none(), "a closed hub streams nothing");
        closer.join().unwrap();
    });
}

/// Election fencing racing a late subscriber — the interleaving behind
/// a failover while a follower chain is still attaching. `bump_epoch`
/// stamps the new epoch and closes older-epoch subscriptions under the
/// same lock `subscribe` stamps birth epochs under, so once the bump
/// returns every subscription is either at the new epoch or closed.
/// The broken alternative (stamping the birth epoch outside the lock)
/// leaves a live subscription pinned to the fenced epoch: its follower
/// keeps applying a stream the rest of the mesh has deposed.
#[test]
fn epoch_bump_racing_subscribe_never_orphans_a_subscription() {
    loom::model(|| {
        let hub = Arc::new(ReplicationHub::new(1));
        let bumper = {
            let hub = Arc::clone(&hub);
            loom::thread::spawn(move || hub.bump_epoch(2))
        };
        let sub = hub.subscribe();
        bumper.join().unwrap();
        assert!(
            sub.stream_epoch() == hub.epoch() || sub.is_closed(),
            "subscription alive at fenced epoch {} while the hub is at {}",
            sub.stream_epoch(),
            hub.epoch()
        );
    });
}

/// The pre-fix `subscribe`, distilled onto the loom primitives: the
/// closed flag is sampled *before* the list lock. The checker must find
/// the interleaving where `close` runs entirely inside that window —
/// the subscription is born open and never notified, and its receiver
/// deadlocks — and must reproduce it from the recorded schedule. (The
/// schedule string for this model is the one quoted in CHANGES.md.)
#[test]
fn early_closed_sample_loses_the_close_and_replays() {
    // ordering: Relaxed is the point of this model — the buggy subscribe
    // samples `closed` with no ordering relative to the subs lock, which
    // is exactly the window the checker must drive `close` through.
    use loom::sync::atomic::{AtomicBool, Ordering::Relaxed};
    use loom::sync::{Condvar, Mutex};

    struct MiniSub {
        closed: Mutex<bool>,
        ready: Condvar,
    }
    struct MiniHub {
        closed: AtomicBool,
        subs: Mutex<Vec<Arc<MiniSub>>>,
    }

    let buggy = || {
        let hub = Arc::new(MiniHub {
            closed: AtomicBool::new(false),
            subs: Mutex::new(Vec::new()),
        });
        let closer = {
            let hub = Arc::clone(&hub);
            loom::thread::spawn(move || {
                hub.closed.store(true, Relaxed);
                for sub in hub.subs.lock().unwrap().iter() {
                    *sub.closed.lock().unwrap() = true;
                    sub.ready.notify_all();
                }
            })
        };
        // BUG (the pre-fix subscribe): sample closed before the lock.
        let born_closed = hub.closed.load(Relaxed);
        let sub = Arc::new(MiniSub {
            closed: Mutex::new(born_closed),
            ready: Condvar::new(),
        });
        hub.subs.lock().unwrap().push(Arc::clone(&sub));
        // recv(): park until closed. With the lost close nobody ever
        // notifies — the model deadlocks here.
        let mut closed = sub.closed.lock().unwrap();
        while !*closed {
            closed = sub.ready.wait(closed).unwrap();
        }
        drop(closed);
        closer.join().unwrap();
    };

    let failure = loom::explore(buggy).expect_err("the checker must find the lost-close deadlock");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {}",
        failure.message
    );
    eprintln!("lost-close replay schedule: {}", failure.schedule);
    let replayed = loom::model::Builder {
        replay: Some(failure.schedule.clone()),
        ..Default::default()
    }
    .explore(buggy)
    .expect_err("replaying the schedule must reproduce the deadlock");
    assert!(replayed.message.contains("deadlock"));
}

/// One step of a follower connection driving a [`WindowedSender`]: pump
/// the subscription, then, if a frame is in flight, feed it the next
/// scripted ack. `false` once the stream is over — finished, the ack
/// script ran out (the follower hung up), or an ack was not a valid
/// same-epoch `ReplicateAck`.
fn step(
    sender: &mut WindowedSender,
    acks: &mut impl Iterator<Item = Vec<u8>>,
    sent: &mut Vec<Vec<u8>>,
    now: Instant,
) -> bool {
    if !sender.pump(now, &mut |frame| sent.push(frame.to_vec())) {
        return false;
    }
    // The retransmit timer is armed exactly while a frame is in flight.
    if sender.deadline().is_none() {
        return true;
    }
    match acks.next() {
        Some(ack) => sender.on_frame(&ack, now) == SenderFrame::Continue,
        None => false,
    }
}

/// [`WindowedSender`] fed a scripted ack stream: with clean acks and
/// with seed-mangled acks, the sender never panics and every frame it
/// emits is a well-formed `Replicate` in strictly increasing sequence
/// order, under every publisher interleaving. The sender never blocks,
/// so the model races a bounded number of steps against the publisher,
/// then joins it and drains (a spin-wait would never end once the
/// checker's preemption budget is spent).
#[test]
fn windowed_sender_stream_smoke() {
    for plan in [FaultPlan::clean(42), FaultPlan::for_seed(7)] {
        loom::model(move || {
            let hub = Arc::new(ReplicationHub::new(1));
            let mut sender = WindowedSender::new(hub.subscribe(), 0, StreamConfig::default());
            let publisher = {
                let hub = Arc::clone(&hub);
                loom::thread::spawn(move || {
                    hub.publish(&batch(1));
                    hub.publish(&batch(2));
                    hub.close();
                })
            };
            let acks: Vec<Vec<u8>> = (1..=2u64)
                .map(|seq| encode_request(&Request::ReplicateAck { epoch: 0, seq }))
                .collect();
            let mut acks = plan.mangle(&acks).into_iter();
            let mut sent = Vec::new();
            let now = Instant::now();
            let mut live = (0..2).all(|_| step(&mut sender, &mut acks, &mut sent, now));
            publisher.join().unwrap();
            while live {
                live = step(&mut sender, &mut acks, &mut sent, now);
            }
            let mut last = 0u64;
            for frame in &sent {
                match decode_response(frame) {
                    Ok(Response::Replicate { seq, .. }) => {
                        assert!(seq > last, "stream went backwards: {seq} after {last}");
                        last = seq;
                    }
                    other => panic!("sender emitted a non-Replicate frame: {other:?}"),
                }
            }
        });
    }
}

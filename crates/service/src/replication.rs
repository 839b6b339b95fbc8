//! Primary→follower replication: the sealed-batch tee and the stream
//! loops on both ends.
//!
//! ## Fast path
//!
//! Every batch the ingest pipeline seals is *published* to the
//! [`ReplicationHub`] — assigned a global sequence number and offered to
//! each live follower [`Subscription`]. Publishing never blocks: a
//! follower whose bounded stream queue is full loses its **oldest**
//! queued item (counted, and healed later by anti-entropy), so a slow
//! or dead follower can never apply backpressure to primary ingest.
//!
//! On a subscribed connection the primary's reactor hosts a
//! [`WindowedSender`]: it keeps up to [`StreamConfig::window`]
//! unacknowledged `Replicate` frames in flight, reading cumulative
//! `ReplicateAck`s (each carries the follower's highest applied sequence
//! number, which retires every in-flight frame at or below it and feeds
//! the per-follower lag gauge). An ack that fails to arrive within
//! [`StreamConfig::ack_timeout`] triggers a retransmit of the whole
//! window, up to [`StreamConfig::max_retries`] times. The follower runs
//! [`apply_replication_stream`]: decode, deduplicate by sequence number,
//! apply through its own ingest pipeline, ack.
//!
//! ## Epoch fencing
//!
//! The hub owns the node's **replication epoch** — the monotone counter
//! a failover election bumps to fence a deposed primary. Every
//! `Replicate` frame carries the sender's epoch and every ack carries
//! the receiver's: a follower at a higher epoch refuses the frame and
//! acks its own epoch back, and a sender that sees a higher epoch in an
//! ack stops streaming ([`SenderFrame::Fenced`]). Bumping the epoch also
//! closes every subscription born under an older epoch, so a whole
//! follower chain parts from a stale primary at once.
//!
//! ## Repair path
//!
//! The stream is deliberately best-effort; whatever it drops (queue
//! overflow, follower crash, torn frames) is repaired by the follower's
//! periodic anti-entropy loop ([`crate::follower`]), which digests each
//! local shard against the primary via the existing `Reconcile`
//! machinery and applies the decoded symmetric difference. The applier
//! is written against [`Transport`](crate::transport::Transport), so the
//! fault-injection tests drive it over an in-memory double; the sender
//! does no IO at all, so tests drive it with plain byte slices and
//! explicit `Instant`s.

use std::collections::VecDeque;
// ordering: all hub atomics are Relaxed. Sequence assignment (published),
// fan-out, and epoch bumps mutate under the subs mutex, whose lock/unlock
// edges give the cross-thread ordering; closed is read back under that
// same mutex (see subscribe), and so is the sub's birth epoch;
// streamed/dropped/acked are monotone gauges whose readers tolerate
// staleness. Checked by the loom models in tests/loom_replication.rs.
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::{AtomicBool, AtomicU64, Condvar, Mutex};

use crate::lock::{plock, pwait};
use crate::metrics::{AtomicHistogram, FollowerStats, ReplicationStats};
use crate::queue::Batch;
use crate::service::PeelService;
use crate::transport::Transport;
use crate::wire::{
    decode_request, decode_response, encode_replicate, encode_request, encode_response, Request,
    Response, WireError,
};

/// One item in a follower's stream queue.
#[derive(Debug, Clone)]
pub enum StreamItem {
    /// A sealed batch with its replication sequence number.
    Batch(u64, Arc<Batch>),
    /// The primary committed a reshard: followers that see this notice
    /// adopt the new shard count immediately, cutting a whole chain
    /// over together (a lost notice is healed by the repair loop's
    /// per-round generation adoption).
    Generation {
        /// The new generation number.
        generation: u64,
        /// Shard count of the new generation.
        shards: u32,
    },
}

impl StreamItem {
    /// The batch's sequence number, if this is a batch.
    pub fn seq(&self) -> Option<u64> {
        match self {
            StreamItem::Batch(seq, _) => Some(*seq),
            StreamItem::Generation { .. } => None,
        }
    }
}

struct SubState {
    queue: VecDeque<StreamItem>,
    closed: bool,
}

struct SubShared {
    /// Stable identifier for this subscription (assigned at subscribe
    /// time, never reused) — keys the per-follower stats rows.
    id: u64,
    /// The hub epoch this subscription was born under; an epoch bump
    /// past it closes the subscription (set under the subs lock).
    epoch: u64,
    state: Mutex<SubState>,
    ready: Condvar,
    /// Highest sequence number the follower has acknowledged applying.
    acked: AtomicU64,
}

/// Final rows of recently disconnected followers kept for the stats
/// view, so dashboards see the disconnect instead of a phantom row (or
/// no trace at all).
const DEAD_ROWS_KEPT: usize = 8;

struct HubShared {
    subs: Mutex<Vec<Arc<SubShared>>>,
    /// Sequence number of the most recently published batch (they start
    /// at 1, so this doubles as a published-batch count).
    published: AtomicU64,
    /// Replication epoch this node is fenced at (bumped under the subs
    /// lock; see `bump_epoch`).
    epoch: AtomicU64,
    /// Batches written to follower connections.
    streamed: AtomicU64,
    /// Batches evicted from overflowing follower queues.
    dropped: AtomicU64,
    /// Next subscription id (monotone; mutated under the subs lock).
    next_id: AtomicU64,
    /// Distribution of per-ack replication lag (published − acked
    /// sequence), recorded every time a follower acks.
    lag: AtomicHistogram,
    /// Final rows of recently dropped subscriptions, newest last.
    dead: Mutex<VecDeque<FollowerStats>>,
    closed: AtomicBool,
    capacity: usize,
    /// Wake callbacks fired after items are offered, the hub closes, or
    /// the epoch bumps — how a readiness loop hosting [`WindowedSender`]s
    /// learns there is stream work without blocking in
    /// [`Subscription::recv`]. Fired outside the subs lock.
    notifiers: Mutex<Vec<Arc<dyn Fn() + Send + Sync>>>,
}

/// The fan-out point between the ingest pipeline and follower
/// connections: sealed batches go in, per-follower bounded streams come
/// out. Owned by the [`PeelService`]; followers attach via
/// [`ReplicationHub::subscribe`]. Also the node's replication-epoch
/// authority (see [`ReplicationHub::bump_epoch`]).
pub struct ReplicationHub {
    shared: Arc<HubShared>,
}

impl ReplicationHub {
    /// A hub whose per-follower stream queues hold at most `capacity`
    /// items (overflow evicts the oldest).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "replication queue capacity must be ≥ 1");
        ReplicationHub {
            shared: Arc::new(HubShared {
                subs: Mutex::new(Vec::new()),
                published: AtomicU64::new(0),
                epoch: AtomicU64::new(0),
                streamed: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                next_id: AtomicU64::new(0),
                lag: AtomicHistogram::new(),
                dead: Mutex::new(VecDeque::new()),
                closed: AtomicBool::new(false),
                capacity,
                notifiers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Register a callback fired after stream items are offered, the hub
    /// closes, or the epoch bumps. The reactor server installs its poller
    /// waker here so `Replicate` frames flow without a blocked sender
    /// thread per follower. Callbacks must be cheap and non-blocking;
    /// they run on the publishing thread.
    pub fn add_notifier(&self, f: Arc<dyn Fn() + Send + Sync>) {
        plock(&self.shared.notifiers).push(f);
    }

    fn notify(&self) {
        for f in plock(&self.shared.notifiers).iter() {
            f();
        }
    }

    fn offer(&self, sub: &SubShared, item: StreamItem) {
        let mut st = plock(&sub.state);
        if st.closed {
            return;
        }
        if st.queue.len() >= self.shared.capacity {
            st.queue.pop_front();
            self.shared.dropped.fetch_add(1, Relaxed);
        }
        st.queue.push_back(item);
        drop(st);
        sub.ready.notify_one();
    }

    /// Assign the next sequence number to `batch` and offer it to every
    /// live follower. Never blocks on followers; bounded work per
    /// follower (one shared clone of the batch total, not one per
    /// follower).
    pub fn publish(&self, batch: &Batch) -> u64 {
        let h = &self.shared;
        // Sequence assignment and fan-out share one critical section:
        // concurrent publishers serialize here, so queue order always
        // matches sequence order — the follower's high-water dedup
        // would otherwise permanently skip a batch that two racing
        // submitters enqueued out of order.
        let subs = plock(&h.subs);
        let seq = h.published.fetch_add(1, Relaxed) + 1;
        if h.closed.load(Relaxed) || subs.is_empty() {
            return seq;
        }
        let shared_batch = Arc::new(batch.clone());
        for sub in subs.iter() {
            self.offer(sub, StreamItem::Batch(seq, Arc::clone(&shared_batch)));
        }
        drop(subs);
        self.notify();
        seq
    }

    /// Offer an in-stream generation-change notice to every live
    /// follower (called by the service after a reshard commit). Subject
    /// to the same bounded-queue eviction as batches — a follower that
    /// loses the notice adopts the new generation on its next
    /// anti-entropy round instead.
    pub fn publish_generation(&self, generation: u64, shards: u32) {
        let h = &self.shared;
        let subs = plock(&h.subs);
        if h.closed.load(Relaxed) {
            return;
        }
        for sub in subs.iter() {
            self.offer(sub, StreamItem::Generation { generation, shards });
        }
        drop(subs);
        self.notify();
    }

    /// Attach a follower. The subscription sees batches published from
    /// now on; history is the anti-entropy loop's job.
    pub fn subscribe(&self) -> Subscription {
        // The closed flag must be sampled *under* the subs lock: with an
        // early read, a close() running between the read (false) and the
        // push would iterate the list without this subscription, leaving
        // it open forever — its recv() then blocks for good. Under the
        // lock, either close() sees the subscription or the subscription
        // sees closed == true (the lock's release/acquire edge makes the
        // relaxed load exact). Found by the subscribe-vs-close loom model
        // in tests/loom_replication.rs; replay schedule in CHANGES.md.
        // The birth epoch is stamped under the same lock for the same
        // reason: a concurrent bump_epoch either sees the subscription
        // (and closes it) or the subscription is born at the new epoch —
        // never a live subscription pinned to a fenced epoch (checked by
        // the bump-vs-subscribe loom model).
        let mut subs = plock(&self.shared.subs);
        let sub = Arc::new(SubShared {
            id: self.shared.next_id.fetch_add(1, Relaxed),
            epoch: self.shared.epoch.load(Relaxed),
            state: Mutex::new(SubState {
                queue: VecDeque::new(),
                closed: self.shared.closed.load(Relaxed),
            }),
            ready: Condvar::new(),
            acked: AtomicU64::new(self.shared.published.load(Relaxed)),
        });
        subs.push(Arc::clone(&sub));
        Subscription {
            shared: sub,
            hub: Arc::clone(&self.shared),
        }
    }

    /// Raise the replication epoch to `new` (no-op if not higher) and
    /// close every subscription born under an older epoch — their
    /// senders return and the fenced followers re-parent. Returns the
    /// epoch in force afterwards. Monotone and idempotent.
    pub fn bump_epoch(&self, new: u64) -> u64 {
        let subs = plock(&self.shared.subs);
        let cur = self.shared.epoch.load(Relaxed);
        if new <= cur {
            return cur;
        }
        self.shared.epoch.store(new, Relaxed);
        for sub in subs.iter() {
            if sub.epoch < new {
                plock(&sub.state).closed = true;
                sub.ready.notify_all();
            }
        }
        drop(subs);
        self.notify();
        new
    }

    /// The replication epoch this node is fenced at.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Relaxed)
    }

    /// Close every subscription (drained, then `recv` returns `None`)
    /// and refuse new traffic. Idempotent.
    pub fn close(&self) {
        self.shared.closed.store(true, Relaxed);
        for sub in plock(&self.shared.subs).iter() {
            plock(&sub.state).closed = true;
            sub.ready.notify_all();
        }
        self.notify();
    }

    /// Live follower subscriptions.
    pub fn followers(&self) -> usize {
        plock(&self.shared.subs).len()
    }

    /// Sequence number of the most recently published batch.
    pub fn published_seq(&self) -> u64 {
        self.shared.published.load(Relaxed)
    }

    /// The hub half of the replication stats: follower count, epoch,
    /// sequence gauges, per-follower lag, stream counters. Live
    /// followers report `alive = true`; the final rows of the most
    /// recently disconnected followers follow them with `alive = false`
    /// (bounded, oldest expired first) so a disconnect is visible on
    /// dashboards instead of lingering as phantom lag.
    pub fn stats(&self) -> ReplicationStats {
        let published = self.shared.published.load(Relaxed);
        let mut acked_min = published;
        let mut max_lag = 0u64;
        let subs = plock(&self.shared.subs);
        let mut per_follower = Vec::with_capacity(subs.len());
        for sub in subs.iter() {
            let acked = sub.acked.load(Relaxed);
            acked_min = acked_min.min(acked);
            let lag = published.saturating_sub(acked);
            max_lag = max_lag.max(lag);
            per_follower.push(FollowerStats {
                id: sub.id,
                published,
                acked,
                lag,
                alive: true,
            });
        }
        let followers = subs.len() as u64;
        drop(subs);
        per_follower.sort_unstable_by_key(|f| f.id);
        per_follower.extend(plock(&self.shared.dead).iter().copied());
        ReplicationStats {
            followers,
            published_seq: published,
            acked_min,
            max_lag,
            batches_streamed: self.shared.streamed.load(Relaxed),
            batches_dropped: self.shared.dropped.load(Relaxed),
            per_follower,
            lag: self.shared.lag.snapshot(),
            epoch: self.shared.epoch.load(Relaxed),
            ..ReplicationStats::default()
        }
    }
}

/// One follower's view of the hub: a bounded stream of [`StreamItem`]s.
/// Dropping the subscription detaches the follower (its final stats row
/// is kept briefly, marked dead).
pub struct Subscription {
    shared: Arc<SubShared>,
    hub: Arc<HubShared>,
}

impl Subscription {
    /// Next item, blocking while the stream is empty. `None` once the
    /// subscription is closed (hub shutdown or epoch fence) and the
    /// queue is drained.
    pub fn recv(&self) -> Option<StreamItem> {
        let mut st = plock(&self.shared.state);
        loop {
            if let Some(x) = st.queue.pop_front() {
                return Some(x);
            }
            if st.closed {
                return None;
            }
            st = pwait(&self.shared.ready, st);
        }
    }

    /// Next item if one is already queued (test and drain helper).
    pub fn try_recv(&self) -> Option<StreamItem> {
        plock(&self.shared.state).queue.pop_front()
    }

    /// Stable identifier of this subscription within its hub.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The hub epoch this subscription was born under.
    pub fn stream_epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// The hub's current replication epoch.
    pub fn hub_epoch(&self) -> u64 {
        self.hub.epoch.load(Relaxed)
    }

    /// True once the subscription has been closed (hub shutdown or an
    /// epoch bump past its birth epoch). A closed subscription still
    /// drains its queue.
    pub fn is_closed(&self) -> bool {
        plock(&self.shared.state).closed
    }

    /// Record the follower's highest applied sequence number. Each ack
    /// also records the instantaneous lag (published − acked) into the
    /// hub's lag distribution.
    pub fn ack(&self, seq: u64) {
        self.shared.acked.fetch_max(seq, Relaxed);
        let published = self.hub.published.load(Relaxed);
        self.hub.lag.record(published.saturating_sub(seq));
    }

    /// Highest acknowledged sequence number.
    pub fn acked(&self) -> u64 {
        self.shared.acked.load(Relaxed)
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        plock(&self.hub.subs).retain(|s| !Arc::ptr_eq(s, &self.shared));
        // Freeze the final stats row so the disconnect stays visible
        // (briefly) instead of the row simply vanishing mid-dashboard.
        let published = self.hub.published.load(Relaxed);
        let acked = self.shared.acked.load(Relaxed);
        let mut dead = plock(&self.hub.dead);
        if dead.len() >= DEAD_ROWS_KEPT {
            dead.pop_front();
        }
        dead.push_back(FollowerStats {
            id: self.shared.id,
            published,
            acked,
            lag: published.saturating_sub(acked),
            alive: false,
        });
    }
}

/// Tunables for the primary-side windowed sender ([`WindowedSender`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Maximum unacknowledged `Replicate` frames in flight. 1 restores
    /// the old one-batch-in-flight ack pacing; larger windows hide the
    /// network round-trip (a WAN RTT no longer gates per-batch
    /// throughput).
    pub window: usize,
    /// How long to wait for an ack before retransmitting the window.
    pub ack_timeout: Duration,
    /// Consecutive ack timeouts tolerated before the follower is
    /// declared dead and dropped.
    pub max_retries: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 32,
            ack_timeout: Duration::from_secs(1),
            max_retries: 5,
        }
    }
}

/// What feeding one incoming frame to a [`WindowedSender`] concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderFrame {
    /// A valid cumulative ack; keep streaming.
    Continue,
    /// The ack carried an epoch above ours: this primary has been
    /// deposed. The caller should adopt the fence and close the stream.
    Fenced(u64),
    /// The frame was not a `ReplicateAck` — a protocol violation; drop
    /// the follower (it will reconnect).
    Protocol,
}

/// The primary-side windowed sender as a poll-driven state machine
/// (cumulative acks, window retransmit on ack timeout, epoch fencing,
/// generation pass-through) with no IO and no clock of its own, so a
/// single-threaded readiness loop can host one per subscribed
/// connection:
///
/// - [`WindowedSender::pump`] drains whatever the subscription has
///   queued (never blocks) and emits encoded frames;
/// - [`WindowedSender::on_frame`] consumes an incoming ack;
/// - [`WindowedSender::deadline`] exposes the retransmit timer for the
///   loop's poll timeout, and [`WindowedSender::on_deadline`] fires it.
///
/// The loop learns about freshly published batches through
/// [`ReplicationHub::add_notifier`] (typically a poller waker).
pub struct WindowedSender {
    sub: Subscription,
    resume_after: u64,
    cfg: StreamConfig,
    inflight: VecDeque<(u64, Vec<u8>)>,
    retries: u32,
    deadline: Option<Instant>,
}

impl WindowedSender {
    /// Wrap a subscription. Batches at or below `resume_after` are
    /// skipped — the follower already has them.
    pub fn new(sub: Subscription, resume_after: u64, cfg: StreamConfig) -> Self {
        let cfg = StreamConfig {
            window: cfg.window.max(1),
            ..cfg
        };
        WindowedSender {
            sub,
            resume_after,
            cfg,
            inflight: VecDeque::new(),
            retries: 0,
            deadline: None,
        }
    }

    /// The underlying subscription (stats/identity).
    pub fn subscription(&self) -> &Subscription {
        &self.sub
    }

    /// Drain queued stream items into encoded frames (up to the window),
    /// without blocking. Returns `false` once the stream is finished —
    /// the subscription is closed (hub shutdown or epoch fence), its
    /// queue is drained, and nothing is left in flight — at which point
    /// the caller should flush and close the connection.
    pub fn pump(&mut self, now: Instant, emit: &mut dyn FnMut(&[u8])) -> bool {
        let mut drained = false;
        while self.inflight.len() < self.cfg.window {
            match self.sub.try_recv() {
                Some(StreamItem::Batch(seq, ops)) => {
                    if seq <= self.resume_after {
                        continue;
                    }
                    let frame = encode_replicate(self.sub.hub_epoch(), seq, &ops);
                    emit(&frame);
                    self.sub.hub.streamed.fetch_add(1, Relaxed);
                    self.inflight.push_back((seq, frame));
                    if self.deadline.is_none() {
                        self.deadline = Some(now + self.cfg.ack_timeout);
                    }
                }
                Some(StreamItem::Generation { generation, shards }) => {
                    // Forwarded immediately, never retransmitted (lost
                    // notices are healed by anti-entropy adoption).
                    emit(&encode_response(&Response::GenerationChange {
                        epoch: self.sub.hub_epoch(),
                        generation,
                        shards,
                    }));
                }
                None => {
                    drained = true;
                    break;
                }
            }
        }
        !(drained && self.inflight.is_empty() && self.sub.is_closed())
    }

    /// Consume one frame read from the subscribed connection (must be a
    /// cumulative `ReplicateAck`).
    pub fn on_frame(&mut self, payload: &[u8], now: Instant) -> SenderFrame {
        match decode_request(payload) {
            Ok(Request::ReplicateAck { epoch, seq }) => {
                if epoch > self.sub.hub_epoch() {
                    return SenderFrame::Fenced(epoch);
                }
                self.sub.ack(seq);
                while self.inflight.front().is_some_and(|&(s, _)| s <= seq) {
                    self.inflight.pop_front();
                }
                self.retries = 0;
                self.deadline = if self.inflight.is_empty() {
                    None
                } else {
                    Some(now + self.cfg.ack_timeout)
                };
                SenderFrame::Continue
            }
            _ => SenderFrame::Protocol,
        }
    }

    /// When the retransmit timer fires (None while nothing is in
    /// flight). Feed into the readiness loop's poll timeout.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Fire the retransmit timer if it has expired: re-emit the whole
    /// in-flight window in order (the follower's sequence dedup makes
    /// duplicates harmless). Returns `false` once the consecutive-retry
    /// budget is spent — the follower is presumed dead; drop it.
    pub fn on_deadline(&mut self, now: Instant, emit: &mut dyn FnMut(&[u8])) -> bool {
        let Some(at) = self.deadline else { return true };
        if now < at {
            return true;
        }
        self.retries += 1;
        if self.retries > self.cfg.max_retries {
            return false;
        }
        for (_, frame) in &self.inflight {
            emit(frame);
        }
        self.deadline = Some(now + self.cfg.ack_timeout);
        true
    }
}

/// What one run of [`apply_replication_stream`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Batches applied to the local service.
    pub applied: u64,
    /// Batches skipped as duplicates or stale reorders.
    pub skipped: u64,
    /// Frames that failed to decode (dropped).
    pub decode_errors: u64,
    /// Frames refused because they carried a stale epoch (a fenced
    /// ex-primary still streaming after a failover).
    pub fenced: u64,
    /// Generation-change notices adopted (local reshards run).
    pub generation_changes: u64,
}

/// Follower-side applier: read `Replicate` frames from `transport`,
/// apply each batch exactly once to `svc` (frames whose sequence number
/// is not strictly greater than `last_applied` are duplicates or stale
/// reorders and are skipped), and answer every frame with a cumulative
/// `ReplicateAck` carrying the highest applied sequence number and the
/// local epoch.
///
/// Epoch fencing happens here: a frame below the local epoch is refused
/// (not applied, counted in [`ApplyOutcome::fenced`]) and the ack's
/// higher epoch tells the stale primary it has been deposed; a frame
/// *above* the local epoch raises the local fence first — the sender is
/// a legitimately elected new primary. In-stream `GenerationChange`
/// notices at or above the local epoch reshard the local service to the
/// primary's new shard count immediately.
///
/// `last_applied` persists across reconnects so a resumed stream cannot
/// double-apply. Frames that fail to decode are counted and dropped —
/// anti-entropy repairs whatever they carried. Returns on clean close,
/// transport error, or when `stop` is raised.
pub fn apply_replication_stream<T: Transport>(
    transport: &mut T,
    svc: &PeelService,
    stop: &AtomicBool,
    last_applied: &AtomicU64,
) -> Result<ApplyOutcome, WireError> {
    let metrics = svc.metrics_handle();
    let mut out = ApplyOutcome::default();
    while !stop.load(Relaxed) {
        let Some(payload) = transport.recv()? else {
            break;
        };
        match decode_response(&payload) {
            Ok(Response::Replicate { epoch, seq, ops }) => {
                let local = svc.repl_epoch();
                if epoch < local {
                    // Stale primary: refuse the batch and let the ack's
                    // higher epoch depose it.
                    metrics.repl_fenced.fetch_add(1, Relaxed);
                    out.fenced += 1;
                    transport.send(&encode_request(&Request::ReplicateAck {
                        epoch: local,
                        seq: last_applied.load(Relaxed),
                    }))?;
                    continue;
                }
                if epoch > local {
                    // A legitimately elected new primary: adopt its
                    // fence before applying anything from it.
                    svc.fence_epoch(epoch);
                }
                svc.note_stream_seq(seq);
                if seq > last_applied.load(Relaxed) {
                    if !svc.ingest_batch(ops) {
                        // The local service is shutting down and refused
                        // the batch: don't claim it, don't ack it.
                        break;
                    }
                    last_applied.store(seq, Relaxed);
                    svc.note_applied_seq(seq);
                    metrics.repl_applied.fetch_add(1, Relaxed);
                    out.applied += 1;
                } else {
                    metrics.repl_skipped.fetch_add(1, Relaxed);
                    out.skipped += 1;
                }
                transport.send(&encode_request(&Request::ReplicateAck {
                    epoch: svc.repl_epoch(),
                    seq: last_applied.load(Relaxed),
                }))?;
            }
            Ok(Response::GenerationChange {
                epoch,
                generation: _,
                shards,
            }) => {
                // A stale primary's reshard is not ours to follow. A
                // failed local reshard is retried by the repair loop's
                // per-round generation adoption.
                if epoch >= svc.repl_epoch()
                    && svc.shards() != shards
                    && svc.reshard(shards).is_ok()
                {
                    out.generation_changes += 1;
                }
            }
            Ok(_) | Err(_) => {
                // Torn or foreign frame: count it and move on. No ack is
                // owed — over TCP a frame is either whole or the
                // connection is already dead.
                metrics.repl_decode_errors.fetch_add(1, Relaxed);
                out.decode_errors += 1;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Op;

    fn batch(tag: u64, n: u64) -> Batch {
        (0..n)
            .map(|i| Op {
                key: tag * 1000 + i,
                dir: 1,
            })
            .collect()
    }

    fn recv_seq(sub: &Subscription) -> Option<u64> {
        sub.try_recv().and_then(|item| item.seq())
    }

    #[test]
    fn publish_fans_out_in_order_with_sequence_numbers() {
        let hub = ReplicationHub::new(8);
        let a = hub.subscribe();
        let b = hub.subscribe();
        assert_eq!(hub.followers(), 2);
        assert_eq!(hub.publish(&batch(1, 3)), 1);
        assert_eq!(hub.publish(&batch(2, 3)), 2);
        for sub in [&a, &b] {
            assert_eq!(recv_seq(sub), Some(1));
            assert_eq!(recv_seq(sub), Some(2));
            assert!(sub.try_recv().is_none());
        }
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops() {
        let hub = ReplicationHub::new(2);
        let sub = hub.subscribe();
        for i in 0..5 {
            hub.publish(&batch(i, 1));
        }
        // Queue holds the newest two; three were evicted.
        assert_eq!(recv_seq(&sub), Some(4));
        assert_eq!(recv_seq(&sub), Some(5));
        assert!(sub.try_recv().is_none());
        assert_eq!(hub.stats().batches_dropped, 3);
    }

    #[test]
    fn lag_tracks_acks_and_drop_detaches() {
        let hub = ReplicationHub::new(8);
        let sub = hub.subscribe();
        hub.publish(&batch(1, 1));
        hub.publish(&batch(2, 1));
        let s = hub.stats();
        assert_eq!(s.published_seq, 2);
        assert_eq!(s.max_lag, 2);
        sub.ack(2);
        let s = hub.stats();
        assert_eq!(s.max_lag, 0);
        assert_eq!(s.acked_min, 2);
        drop(sub);
        assert_eq!(hub.followers(), 0);
        // With no followers the gauges read "caught up".
        assert_eq!(hub.stats().max_lag, 0);
    }

    #[test]
    fn close_wakes_blocked_receivers() {
        let hub = Arc::new(ReplicationHub::new(4));
        let sub = hub.subscribe();
        let h = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                hub.close();
            })
        };
        assert!(sub.recv().is_none(), "recv must return None after close");
        h.join().unwrap();
        // A post-close subscription is born closed.
        assert!(hub.subscribe().recv().is_none());
    }

    #[test]
    fn subscriptions_start_acked_at_current_seq() {
        // A follower that attaches late must not read as "lagging" by
        // the entire pre-subscription history.
        let hub = ReplicationHub::new(4);
        for i in 0..10 {
            hub.publish(&batch(i, 1));
        }
        let _sub = hub.subscribe();
        assert_eq!(hub.stats().max_lag, 0);
    }

    #[test]
    fn epoch_bump_fences_older_subscriptions() {
        let hub = ReplicationHub::new(4);
        let old = hub.subscribe();
        assert_eq!(old.stream_epoch(), 0);
        assert_eq!(hub.bump_epoch(3), 3);
        // Monotone: a lower bump is a no-op.
        assert_eq!(hub.bump_epoch(1), 3);
        assert_eq!(hub.epoch(), 3);
        assert!(old.is_closed(), "pre-bump subscription must be fenced");
        assert!(old.recv().is_none());
        // A fresh subscription is born at the new epoch and stays live.
        let new = hub.subscribe();
        assert_eq!(new.stream_epoch(), 3);
        assert!(!new.is_closed());
        hub.publish(&batch(1, 1));
        assert_eq!(recv_seq(&new), Some(1));
    }

    #[test]
    fn dropped_follower_leaves_a_dead_row() {
        let hub = ReplicationHub::new(4);
        let sub = hub.subscribe();
        let id = sub.id();
        hub.publish(&batch(1, 1));
        hub.publish(&batch(2, 1));
        sub.ack(1);
        drop(sub);
        let s = hub.stats();
        assert_eq!(s.followers, 0, "dead rows don't count as followers");
        let row = s.per_follower.iter().find(|f| f.id == id).unwrap();
        assert!(!row.alive);
        assert_eq!(row.acked, 1);
        assert_eq!(row.lag, 1);
        // Dead rows are bounded: old ones expire.
        for _ in 0..(DEAD_ROWS_KEPT + 3) {
            drop(hub.subscribe());
        }
        let s = hub.stats();
        assert_eq!(s.per_follower.len(), DEAD_ROWS_KEPT);
        assert!(s.per_follower.iter().all(|f| !f.alive));
        assert!(!s.per_follower.iter().any(|f| f.id == id));
    }

    #[test]
    fn generation_notice_reaches_followers() {
        let hub = ReplicationHub::new(4);
        let sub = hub.subscribe();
        hub.publish_generation(2, 8);
        match sub.try_recv() {
            Some(StreamItem::Generation { generation, shards }) => {
                assert_eq!(generation, 2);
                assert_eq!(shards, 8);
            }
            other => panic!("expected a generation notice, got {other:?}"),
        }
    }

    // --- WindowedSender: explicit instants, no sleeps --------------------

    /// A sender (1 s ack timeout, 2 retries) over a fresh subscription
    /// with batches `1..=published` already queued.
    fn sender_with(window: usize, published: u64) -> (ReplicationHub, WindowedSender) {
        let hub = ReplicationHub::new(64);
        let cfg = StreamConfig {
            window,
            ack_timeout: Duration::from_secs(1),
            max_retries: 2,
        };
        let sender = WindowedSender::new(hub.subscribe(), 0, cfg);
        for i in 0..published {
            hub.publish(&batch(i, 1));
        }
        (hub, sender)
    }

    fn replicate_seq(frame: &[u8]) -> u64 {
        match decode_response(frame) {
            Ok(Response::Replicate { seq, .. }) => seq,
            other => panic!("expected a Replicate frame, got {other:?}"),
        }
    }

    fn ack(epoch: u64, seq: u64) -> Vec<u8> {
        encode_request(&Request::ReplicateAck { epoch, seq })
    }

    /// Pump once: the liveness verdict and the emitted frames.
    fn pump(sender: &mut WindowedSender, now: Instant) -> (bool, Vec<Vec<u8>>) {
        let mut frames = Vec::new();
        let live = sender.pump(now, &mut |f| frames.push(f.to_vec()));
        (live, frames)
    }

    fn seqs(frames: &[Vec<u8>]) -> Vec<u64> {
        frames.iter().map(|f| replicate_seq(f)).collect()
    }

    #[test]
    fn pump_emits_at_most_window_frames() {
        let (_hub, mut s) = sender_with(3, 5);
        let t0 = Instant::now();
        let (live, frames) = pump(&mut s, t0);
        assert!(live);
        assert_eq!(seqs(&frames), vec![1, 2, 3]);
        // The window is full: nothing more until an ack retires a frame.
        assert!(pump(&mut s, t0).1.is_empty());
    }

    #[test]
    fn cumulative_ack_retires_every_frame_at_or_below_its_seq() {
        let (_hub, mut s) = sender_with(3, 5);
        let t0 = Instant::now();
        pump(&mut s, t0);
        assert_eq!(s.on_frame(&ack(0, 2), t0), SenderFrame::Continue);
        assert_eq!(s.subscription().acked(), 2);
        // 1 and 2 retired, 3 still in flight: two slots opened.
        assert_eq!(seqs(&pump(&mut s, t0).1), vec![4, 5]);
        assert_eq!(s.on_frame(&ack(0, 5), t0), SenderFrame::Continue);
        assert_eq!(s.deadline(), None, "nothing left in flight");
    }

    #[test]
    fn deadline_retransmits_the_window_in_order_until_retries_run_out() {
        let (_hub, mut s) = sender_with(2, 3);
        let t0 = Instant::now();
        let timeout = Duration::from_secs(1);
        let (_, sent) = pump(&mut s, t0);
        assert_eq!(seqs(&sent), vec![1, 2]);
        assert_eq!(s.deadline(), Some(t0 + timeout));
        let mut fire = |at: Instant| {
            let mut frames = Vec::new();
            let live = s.on_deadline(at, &mut |f| frames.push(f.to_vec()));
            (live, frames)
        };
        // Not yet due: no-op.
        assert_eq!(fire(t0 + timeout / 2), (true, Vec::new()));
        // Each expiry re-emits the whole window, byte for byte, in order.
        assert_eq!(fire(t0 + timeout), (true, sent.clone()));
        assert_eq!(fire(t0 + 2 * timeout), (true, sent));
        // The third consecutive expiry exceeds max_retries = 2.
        assert!(!fire(t0 + 3 * timeout).0);
    }

    #[test]
    fn higher_epoch_ack_fences_and_a_non_ack_is_a_protocol_error() {
        let (_hub, mut s) = sender_with(4, 1);
        let t0 = Instant::now();
        pump(&mut s, t0);
        assert_eq!(s.on_frame(&ack(5, 1), t0), SenderFrame::Fenced(5));
        assert_eq!(s.subscription().acked(), 0, "a fencing ack is not applied");
        assert_eq!(
            s.on_frame(&encode_request(&Request::Hello), t0),
            SenderFrame::Protocol
        );
        assert_eq!(s.on_frame(&[0xff, 0x00], t0), SenderFrame::Protocol);
        assert_eq!(s.on_frame(&ack(0, 1), t0), SenderFrame::Continue);
    }

    #[test]
    fn pump_finishes_only_once_closed_drained_and_nothing_in_flight() {
        let (hub, mut s) = sender_with(1, 0);
        let t0 = Instant::now();
        // Open, idle, nothing in flight: still live.
        assert_eq!(pump(&mut s, t0), (true, Vec::new()));
        hub.publish(&batch(1, 1));
        hub.publish(&batch(2, 1));
        assert_eq!(seqs(&pump(&mut s, t0).1), vec![1]);
        hub.close();
        // Closed, but batch 2 is still queued and batch 1 in flight.
        assert!(pump(&mut s, t0).0);
        s.on_frame(&ack(0, 1), t0);
        let (live, frames) = pump(&mut s, t0);
        assert!(live, "closed and drained, but batch 2 is in flight");
        assert_eq!(seqs(&frames), vec![2]);
        s.on_frame(&ack(0, 2), t0);
        assert_eq!(pump(&mut s, t0), (false, Vec::new()));
    }
}

//! Service counters and latency distributions: per-shard op counts,
//! batch occupancy, queue backpressure stalls, recovery subround traces,
//! and lock-free log-bucketed histograms for every latency the service
//! pays (request handling per frame class, batch queue wait, batch
//! apply, recovery decode) plus the per-follower replication lag.
//!
//! All counters are relaxed atomics updated on the hot paths; a
//! [`MetricsSnapshot`] is a plain-data copy of them.
//!
//! [`FAMILIES`] is the one declaration of what the service exports: one
//! row per metric family with its Prometheus name, type, help string,
//! and the snapshot field it reads. The `Stats` wire frame (named
//! entries, `wire` module), the Prometheus body (`prom` module), and the
//! README metric reference (checked by this module's
//! `readme_metric_reference_is_current` test) are all derived from it,
//! so exporting a new scalar means an atomic, its snapshot copy, a
//! snapshot field, and one table row — no codec or renderer edit, and no
//! protocol bump.

// ordering: all metrics are Relaxed — monotone counters, last-value
// gauges, and histogram buckets bumped with commutative fetch_add or
// plain stores. Readers (`snapshot`, the Stats frame) are diagnostics
// that tolerate staleness and cross-counter skew by contract; nothing
// branches on a metric for correctness.
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use parking_lot::Mutex;

/// Bucket count of [`AtomicHistogram`]: 2 sub-buckets per power of two
/// across the full `u64` range (see [`bucket_index`]), so relative
/// error is bounded at ~25% — plenty for latency quantiles.
pub const HISTOGRAM_BUCKETS: usize = 128;

/// The bucket a value lands in: 0 and 1 get exact buckets; larger
/// values split each octave `[2^o, 2^(o+1))` into two half-octave
/// sub-buckets keyed by the bit below the most significant one.
pub fn bucket_index(v: u64) -> usize {
    if v < 2 {
        return v as usize;
    }
    let o = 63 - v.leading_zeros() as usize;
    let half = (v >> (o - 1)) & 1;
    (2 * o + half as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i` (the inverse of
/// [`bucket_index`]): the smallest value that lands in the bucket.
pub fn bucket_floor(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        _ => {
            let o = i / 2;
            (1u64 << o) + (((i % 2) as u64) << (o - 1))
        }
    }
}

/// A lock-free log-bucketed latency histogram (HDR-style): fixed
/// [`HISTOGRAM_BUCKETS`] relaxed counters, ~2 buckets per octave, plus
/// a running count and sum. Recording is two `fetch_add`s and one
/// bucket bump — safe on every hot path. Quantile readout happens on
/// plain-data [`HistogramSnapshot`] copies.
#[derive(Debug)]
pub struct AtomicHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl AtomicHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        if let Some(b) = self.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Relaxed);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Fold `other`'s counts into `self` (bucket-wise addition), so
    /// per-worker histograms can collapse into one. Equivalent to
    /// having recorded both value streams into `self`.
    pub fn merge_from(&self, other: &AtomicHistogram) {
        self.count.fetch_add(other.count.load(Relaxed), Relaxed);
        self.sum.fetch_add(other.sum.load(Relaxed), Relaxed);
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = src.load(Relaxed);
            if v != 0 {
                dst.fetch_add(v, Relaxed);
            }
        }
    }

    /// Plain-data copy: sparse non-empty `(bucket, count)` pairs in
    /// bucket order, plus the running count and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let v = b.load(Relaxed);
            if v != 0 {
                buckets.push((i as u32, v));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            buckets,
        }
    }
}

/// Point-in-time copy of an [`AtomicHistogram`]: sparse non-empty
/// buckets, total count, and sum. This is what the `Stats` wire frame
/// carries and what quantile readout runs on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty `(bucket index, count)` pairs, ascending by index.
    /// Indexes are capped at [`HISTOGRAM_BUCKETS`] − 1 on decode.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` ∈ [0, 1]: the lower bound of the
    /// bucket containing the ⌈q·count⌉-th observation (0 when empty).
    /// Monotone in `q`; accurate to the half-octave bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            cum = cum.saturating_add(c);
            if cum >= target {
                return bucket_floor(i as usize);
            }
        }
        // Sparse buckets should always cover `count`; fall back to the
        // largest recorded bucket if a decoded frame disagrees.
        self.buckets
            .last()
            .map_or(0, |&(i, _)| bucket_floor(i as usize))
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Fold another snapshot into this one (bucket-wise addition).
    /// Sums wrap on overflow — the same behavior as the atomic
    /// `fetch_add` recording path, so merging snapshots is exactly
    /// equivalent to having recorded both value streams into one
    /// histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca.wrapping_add(cb)));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}

/// Request frame classes, indexing the per-class request-latency
/// histograms. `Request::class_index` (wire module) maps each frame to
/// a class; the class name becomes the `class` label in the Prometheus
/// rendering.
pub const REQUEST_CLASSES: [&str; 8] = [
    "hello",
    "ingest",
    "flush",
    "digest",
    "reconcile",
    "stats",
    "reshard",
    "admin",
];

/// Live service counters (shared between workers, connections, and the
/// recovery scheduler).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Batches drained from the ingest queue and applied.
    pub batches_applied: AtomicU64,
    /// Individual operations applied (inserts + deletes).
    pub ops_applied: AtomicU64,
    /// Recoveries (reconciliations) run.
    pub recoveries: AtomicU64,
    /// Recoveries that did not decode completely.
    pub recoveries_incomplete: AtomicU64,
    /// Total parallel subrounds across all recoveries.
    pub recovery_subrounds: AtomicU64,
    /// Replicated batches applied by this service when acting as a
    /// follower (deduplicated by sequence number).
    pub repl_applied: AtomicU64,
    /// Replicated batches skipped as duplicates or stale reorders.
    pub repl_skipped: AtomicU64,
    /// Replication frames that failed to decode (dropped; healed by
    /// anti-entropy).
    pub repl_decode_errors: AtomicU64,
    /// Anti-entropy repair rounds completed against the primary.
    pub anti_entropy_rounds: AtomicU64,
    /// Keys healed (inserted or deleted) by anti-entropy repair.
    pub anti_entropy_keys: AtomicU64,
    /// Replication frames rejected because they carried a stale epoch
    /// (a fenced ex-primary still streaming after a failover).
    pub repl_fenced: AtomicU64,
    /// Reshards committed (generation cutovers) on this service.
    pub reshards_completed: AtomicU64,
    /// Reshards aborted (migration dropped, old generation kept).
    pub reshards_aborted: AtomicU64,
    /// Currently open client connections (gauge; incremented at accept,
    /// decremented at close).
    pub conns_live: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub conns_accepted: AtomicU64,
    /// Connections refused because the connection cap was reached (the
    /// peer gets a protocol `Error` response, then a close).
    pub conns_refused: AtomicU64,
    /// Idle connections reaped by the server's idle-timeout sweep.
    pub conns_idle_reaped: AtomicU64,
    /// `accept(2)` failures (`EMFILE`/`ENFILE`, aborts, resets…). Each
    /// failure backs the accept loop off with a bounded delay instead of
    /// spinning hot.
    pub accept_errors: AtomicU64,
    /// Request handling latency (ns), one histogram per frame class
    /// (indexed by `REQUEST_CLASSES`). Recorded around the server's
    /// dispatch, so it covers decode-to-encode, not socket time.
    pub request_latency: [AtomicHistogram; REQUEST_CLASSES.len()],
    /// Time sealed batches wait in the bounded queue before a worker
    /// picks them up (ns).
    pub queue_wait: AtomicHistogram,
    /// Time a worker spends applying one batch to its shards (ns).
    pub batch_apply: AtomicHistogram,
    /// Per-recovery wall time (ns); its `sum` is the lifetime total
    /// spent decoding.
    pub recovery_latency: AtomicHistogram,
    /// Per-subround trace of the most recent recovery: key counts (the
    /// paper's Table 5/6 trace) and wall times in ns, as parallel
    /// vectors under one lock so a concurrent snapshot can never observe
    /// counts from one recovery paired with times from another.
    last_trace: Mutex<(Vec<u64>, Vec<u64>)>,
}

impl Metrics {
    /// Record one finished recovery with its per-subround key counts and
    /// wall times (parallel slices of the same productive subrounds).
    pub fn record_recovery(
        &self,
        complete: bool,
        subrounds: u32,
        per_subround: &[u64],
        per_subround_ns: &[u64],
    ) {
        self.recoveries.fetch_add(1, Relaxed);
        if !complete {
            self.recoveries_incomplete.fetch_add(1, Relaxed);
        }
        self.recovery_subrounds.fetch_add(subrounds as u64, Relaxed);
        let total_ns = per_subround_ns.iter().sum::<u64>();
        self.recovery_latency.record(total_ns);
        // Overwrite in place: the trace buffers keep their capacity, so
        // steady-state recording never allocates.
        let mut t = self.last_trace.lock();
        t.0.clear();
        t.0.extend_from_slice(per_subround);
        t.1.clear();
        t.1.extend_from_slice(per_subround_ns);
    }

    /// Record one handled request of the given frame class (ns spent in
    /// dispatch). Out-of-range classes clamp to the last ("admin").
    pub fn record_request(&self, class: usize, ns: u64) {
        let i = class.min(REQUEST_CLASSES.len() - 1);
        if let Some(h) = self.request_latency.get(i) {
            h.record(ns);
        }
    }

    /// Plain-data copy of the global counters. Per-shard stats, the hub
    /// half of the replication stats, and the live reshard gauges are
    /// filled in by the service, which owns the shards, the replication
    /// hub, and the generation state; the follower-side replication
    /// counters and the reshard outcome counters live here and are
    /// merged in. `queue_stalls` is left 0 for the service to copy from
    /// its ingest queue.
    pub fn snapshot(
        &self,
        shards: Vec<ShardStats>,
        hub: ReplicationStats,
        reshard: ReshardStats,
    ) -> MetricsSnapshot {
        let (trace, trace_ns) = self.last_trace.lock().clone();
        let replication = ReplicationStats {
            batches_applied: self.repl_applied.load(Relaxed),
            batches_skipped: self.repl_skipped.load(Relaxed),
            decode_errors: self.repl_decode_errors.load(Relaxed),
            anti_entropy_rounds: self.anti_entropy_rounds.load(Relaxed),
            anti_entropy_keys: self.anti_entropy_keys.load(Relaxed),
            fenced: self.repl_fenced.load(Relaxed),
            ..hub
        };
        let reshard = ReshardStats {
            completed: self.reshards_completed.load(Relaxed),
            aborted: self.reshards_aborted.load(Relaxed),
            ..reshard
        };
        MetricsSnapshot {
            batches_applied: self.batches_applied.load(Relaxed),
            ops_applied: self.ops_applied.load(Relaxed),
            queue_stalls: 0,
            recoveries: self.recoveries.load(Relaxed),
            recoveries_incomplete: self.recoveries_incomplete.load(Relaxed),
            recovery_subrounds: self.recovery_subrounds.load(Relaxed),
            last_recovery_trace: trace,
            last_recovery_trace_ns: trace_ns,
            shards,
            replication,
            reshard,
            request_latency: self.request_latency.iter().map(|h| h.snapshot()).collect(),
            queue_wait: self.queue_wait.snapshot(),
            batch_apply: self.batch_apply.snapshot(),
            recovery_latency: self.recovery_latency.snapshot(),
            connections: ConnectionStats {
                live: self.conns_live.load(Relaxed),
                accepted: self.conns_accepted.load(Relaxed),
                refused: self.conns_refused.load(Relaxed),
                idle_reaped: self.conns_idle_reaped.load(Relaxed),
                accept_errors: self.accept_errors.load(Relaxed),
            },
        }
    }
}

/// Server front-door state at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Currently open client connections.
    pub live: u64,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections refused at the connection cap.
    pub refused: u64,
    /// Idle connections reaped by the timeout sweep.
    pub idle_reaped: u64,
    /// `accept(2)` failures, each absorbed by bounded backoff.
    pub accept_errors: u64,
}

/// Reshard state at snapshot time: the live migration gauges (phase,
/// generation, shard counts, keys moved, shards verified) come from the
/// service's generation state; the outcome counters (completed/aborted)
/// from the service's own metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReshardStats {
    /// Generation number of the serving shard set (0 at boot, +1 per
    /// committed reshard).
    pub generation: u64,
    /// True while a migration to a new generation is in flight.
    pub resharding: bool,
    /// Shard count of the serving generation.
    pub serving_shards: u32,
    /// Shard count of the migration target (equals `serving_shards` when
    /// not resharding).
    pub to_shards: u32,
    /// Keys re-keyed into the new generation by the in-flight (or most
    /// recent) migration.
    pub keys_moved: u64,
    /// New-generation shards whose contents have verified cell-identical
    /// to their projection (cutover-ready when all of them have).
    pub shards_verified: u32,
    /// Reshards committed over this service's lifetime.
    pub completed: u64,
    /// Reshards aborted over this service's lifetime.
    pub aborted: u64,
}

/// One follower's replication progress at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FollowerStats {
    /// Stable per-subscription ID (assigned at subscribe, never reused).
    pub id: u64,
    /// Highest sequence number published while this follower was live.
    pub published: u64,
    /// Highest sequence number this follower has acknowledged.
    pub acked: u64,
    /// `published − acked`, in sealed batches.
    pub lag: u64,
    /// True for a live subscription; false for a recently disconnected
    /// follower's final row (kept briefly so dashboards see the
    /// disconnect instead of a phantom frozen lag).
    pub alive: bool,
}

/// Replication state at snapshot time: the primary half (follower count,
/// sequence numbers, per-follower lag, stream drops) comes from the
/// replication hub; the follower half (applied/skipped batches, decode
/// errors, anti-entropy repairs) from the service's own counters. Lag is
/// measured in sealed batches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Live follower subscriptions.
    pub followers: u64,
    /// Highest batch sequence number sealed (and offered to followers).
    pub published_seq: u64,
    /// Lowest acknowledged sequence number across followers
    /// (= `published_seq` when there are no followers).
    pub acked_min: u64,
    /// Largest per-follower replication lag, in batches:
    /// `published_seq − acked`, maximized over followers.
    pub max_lag: u64,
    /// Batches written to follower connections.
    pub batches_streamed: u64,
    /// Batches dropped because a follower's stream queue overflowed
    /// (healed later by anti-entropy).
    pub batches_dropped: u64,
    /// Follower side: replicated batches applied (deduplicated).
    pub batches_applied: u64,
    /// Follower side: replicated batches skipped (duplicate or stale).
    pub batches_skipped: u64,
    /// Follower side: replication frames that failed to decode.
    pub decode_errors: u64,
    /// Follower side: anti-entropy repair rounds completed.
    pub anti_entropy_rounds: u64,
    /// Follower side: keys healed by anti-entropy repair.
    pub anti_entropy_keys: u64,
    /// One row per live follower (the distribution `max_lag` collapses).
    pub per_follower: Vec<FollowerStats>,
    /// Replication lag observed at each follower acknowledgment, in
    /// sealed batches — the lag *distribution* over time, where
    /// `per_follower` is only the instantaneous view.
    pub lag: HistogramSnapshot,
    /// Replication epoch this node is fenced at (protocol v6).
    pub epoch: u64,
    /// Replication frames rejected for carrying a stale epoch.
    pub fenced: u64,
    /// True iff this node currently believes it is the primary.
    pub leading: bool,
    /// This node's own replication lag as a serving replica, in sealed
    /// batches (0 when leading) — the gauge converged reads consult.
    pub read_lag: u64,
}

/// Per-shard counters at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Batches applied to this shard (the shard's epoch).
    pub epoch: u64,
    /// Keys inserted into this shard.
    pub inserts: u64,
    /// Keys deleted from this shard.
    pub deletes: u64,
}

/// Point-in-time copy of all service counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Batches drained from the ingest queue and applied.
    pub batches_applied: u64,
    /// Individual operations applied.
    pub ops_applied: u64,
    /// Producer stalls on the bounded queue (backpressure events), as
    /// counted by the queue itself.
    pub queue_stalls: u64,
    /// Recoveries run.
    pub recoveries: u64,
    /// Recoveries that did not decode completely.
    pub recoveries_incomplete: u64,
    /// Total subrounds across all recoveries.
    pub recovery_subrounds: u64,
    /// Per-subround key counts of the most recent recovery.
    pub last_recovery_trace: Vec<u64>,
    /// Per-subround wall times (ns) of the most recent recovery, aligned
    /// with `last_recovery_trace`.
    pub last_recovery_trace_ns: Vec<u64>,
    /// One entry per shard (of the serving generation).
    pub shards: Vec<ShardStats>,
    /// Replication state (primary and follower halves).
    pub replication: ReplicationStats,
    /// Reshard state (live migration gauges + outcome counters).
    pub reshard: ReshardStats,
    /// Request latency distributions, aligned with `REQUEST_CLASSES`.
    pub request_latency: Vec<HistogramSnapshot>,
    /// Batch queue-wait distribution (ns).
    pub queue_wait: HistogramSnapshot,
    /// Batch apply-time distribution (ns).
    pub batch_apply: HistogramSnapshot,
    /// Per-recovery wall-time distribution (ns).
    pub recovery_latency: HistogramSnapshot,
    /// Server connection counters.
    pub connections: ConnectionStats,
}

impl MetricsSnapshot {
    /// Mean ops per applied batch (the batching layer's occupancy).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches_applied == 0 {
            return 0.0;
        }
        self.ops_applied as f64 / self.batches_applied as f64
    }
}

// --- The metric table ------------------------------------------------------

/// Prometheus family type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count.
    Counter,
    /// A last value.
    Gauge,
    /// A bucketed distribution, rendered with a `_quantile` gauge beside it.
    Histogram,
}

impl Kind {
    /// The `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A scalar snapshot field type: widened to the `u64` that the `Stats`
/// frame and the Prometheus body carry, narrowed back on decode.
trait FromWire: Sized {
    /// The field value for a decoded `u64`, or `None` if it does not fit.
    fn from_wire(v: u64) -> Option<Self>;
}

impl FromWire for u64 {
    fn from_wire(v: u64) -> Option<Self> {
        Some(v)
    }
}

impl FromWire for u32 {
    fn from_wire(v: u64) -> Option<Self> {
        v.try_into().ok()
    }
}

impl FromWire for bool {
    fn from_wire(v: u64) -> Option<Self> {
        match v {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// Store `v` into `field` if it fits the field's type.
fn narrow<T: FromWire>(field: &mut T, v: u64) -> bool {
    T::from_wire(v).map(|x| *field = x).is_some()
}

/// Where a family's samples live in a [`MetricsSnapshot`].
#[derive(Clone, Copy)]
pub enum Source {
    /// One unlabelled sample.
    Scalar {
        /// The field, widened to `u64`.
        get: fn(&MetricsSnapshot) -> u64,
        /// Store a decoded value; false if it does not fit the field.
        set: fn(&mut MetricsSnapshot, u64) -> bool,
    },
    /// One sample per shard, labelled `shard` by index.
    Shard(fn(&ShardStats) -> u64),
    /// One sample per follower row, labelled `follower` by id.
    Follower(fn(&FollowerStats) -> u64),
    /// Histogram series: one unlabelled, or one per request class.
    Histogram {
        /// The series (in [`REQUEST_CLASSES`] order when per class).
        series: fn(&MetricsSnapshot) -> &[HistogramSnapshot],
        /// Store decoded series; false if their count does not fit.
        store: fn(&mut MetricsSnapshot, Vec<HistogramSnapshot>) -> bool,
        /// True when the series are labelled `class`.
        per_class: bool,
        /// Help text of the `_quantile` companion gauge.
        quantile_help: &'static str,
    },
}

/// One exported metric family: a [`FAMILIES`] row.
#[derive(Clone, Copy)]
pub struct Family {
    /// Prometheus name, also the family's entry name in the `Stats` frame.
    pub name: &'static str,
    /// Prometheus type.
    pub kind: Kind,
    /// `# HELP` text.
    pub help: &'static str,
    /// Where the samples come from.
    pub source: Source,
}

impl Family {
    /// The label that tells this family's samples apart, if any
    /// (histogram `le` and quantile `q` labels aside).
    pub(crate) fn label(&self) -> Option<&'static str> {
        match self.source {
            Source::Shard(_) => Some("shard"),
            Source::Follower(_) => Some("follower"),
            Source::Histogram {
                per_class: true, ..
            } => Some("class"),
            _ => None,
        }
    }
}

/// The [`FAMILIES`] row named `name`, if this build exports it.
pub(crate) fn family(name: &str) -> Option<&'static Family> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// One [`FAMILIES`] row. The forms:
///
/// * `counter|gauge "name" = field.path, "help"` — an unlabelled `u64`,
///   `u32` or `bool` snapshot field;
/// * `shard|follower counter|gauge "name" = field, "help"` — a field of
///   every [`ShardStats`] / [`FollowerStats`] row;
/// * `[class] histogram "name" = field.path, "help", "quantile help"` —
///   a [`HistogramSnapshot`] field (a per-class `Vec` with `class`).
macro_rules! family {
    (@kind counter) => { Kind::Counter };
    (@kind gauge) => { Kind::Gauge };
    (shard $kind:ident $name:literal = $f:ident, $help:literal) => {
        Family {
            name: $name, kind: family!(@kind $kind), help: $help,
            source: Source::Shard(|r| u64::from(r.$f)),
        }
    };
    (follower $kind:ident $name:literal = $f:ident, $help:literal) => {
        Family {
            name: $name, kind: family!(@kind $kind), help: $help,
            source: Source::Follower(|r| u64::from(r.$f)),
        }
    };
    (class histogram $name:literal = $f:ident, $help:literal, $qhelp:literal) => {
        Family {
            name: $name, kind: Kind::Histogram, help: $help,
            source: Source::Histogram {
                series: |s| &s.$f,
                store: |s, v| v.len() <= REQUEST_CLASSES.len() && { s.$f = v; true },
                per_class: true,
                quantile_help: $qhelp,
            },
        }
    };
    (histogram $name:literal = $($f:ident).+, $help:literal, $qhelp:literal) => {
        Family {
            name: $name, kind: Kind::Histogram, help: $help,
            source: Source::Histogram {
                series: |s| std::slice::from_ref(&s.$($f).+),
                store: |s, mut v| match (v.pop(), v.is_empty()) {
                    (Some(h), true) => { s.$($f).+ = h; true }
                    _ => false,
                },
                per_class: false,
                quantile_help: $qhelp,
            },
        }
    };
    ($kind:ident $name:literal = $($f:ident).+, $help:literal) => {
        Family {
            name: $name, kind: family!(@kind $kind), help: $help,
            source: Source::Scalar {
                get: |s| u64::from(s.$($f).+),
                set: |s, v| narrow(&mut s.$($f).+, v),
            },
        }
    };
}

/// Every exported metric family, in `/metrics` order — the one place a
/// family's name, type, help and snapshot field are written down.
pub static FAMILIES: &[Family] = &[
    family!(counter "peel_batches_applied_total" = batches_applied,
        "Batches drained from the ingest queue and applied"),
    family!(counter "peel_ops_applied_total" = ops_applied,
        "Individual operations applied (inserts + deletes)"),
    family!(counter "peel_queue_stalls_total" = queue_stalls,
        "Producer stalls on the full bounded ingest queue"),
    family!(counter "peel_recoveries_total" = recoveries,
        "IBLT recoveries (reconciliations) run"),
    family!(counter "peel_recoveries_incomplete_total" = recoveries_incomplete,
        "Recoveries that did not decode completely"),
    family!(counter "peel_recovery_subrounds_total" = recovery_subrounds,
        "Parallel subrounds across all recoveries"),
    family!(gauge "peel_connections_live" = connections.live,
        "Client connections currently open on the server"),
    family!(counter "peel_connections_accepted_total" = connections.accepted,
        "Client connections accepted since start"),
    family!(counter "peel_connections_refused_total" = connections.refused,
        "Connections refused at the connection cap"),
    family!(counter "peel_connections_idle_reaped_total" = connections.idle_reaped,
        "Connections closed by the idle-timeout reaper"),
    family!(counter "peel_accept_errors_total" = connections.accept_errors,
        "Persistent accept() failures (EMFILE and friends) that triggered backoff"),
    family!(shard gauge "peel_shard_epoch" = epoch,
        "Batches applied to the shard (its epoch)"),
    family!(shard counter "peel_shard_inserts_total" = inserts,
        "Keys inserted into the shard"),
    family!(shard counter "peel_shard_deletes_total" = deletes,
        "Keys deleted from the shard"),
    family!(gauge "peel_replication_followers" = replication.followers,
        "Live follower subscriptions"),
    family!(gauge "peel_replication_epoch" = replication.epoch,
        "Replication epoch this node is fenced at"),
    family!(counter "peel_replication_fenced_total" = replication.fenced,
        "Replication frames refused for carrying a stale epoch"),
    family!(gauge "peel_replica_leading" = replication.leading,
        "1 while this node believes it is the primary"),
    family!(gauge "peel_replica_read_lag_batches" = replication.read_lag,
        "This replica's own serving lag in sealed batches (0 when leading)"),
    family!(gauge "peel_replication_published_seq" = replication.published_seq,
        "Highest sealed batch sequence number"),
    family!(gauge "peel_replication_acked_min" = replication.acked_min,
        "Lowest acknowledged sequence across followers"),
    family!(gauge "peel_replication_max_lag" = replication.max_lag,
        "Largest per-follower replication lag, in batches"),
    family!(counter "peel_replication_batches_streamed_total" = replication.batches_streamed,
        "Batches written to follower connections"),
    family!(counter "peel_replication_batches_dropped_total" = replication.batches_dropped,
        "Batches dropped on follower queue overflow"),
    family!(counter "peel_replication_batches_applied_total" = replication.batches_applied,
        "Follower side: replicated batches applied"),
    family!(counter "peel_replication_batches_skipped_total" = replication.batches_skipped,
        "Follower side: duplicate or stale batches skipped"),
    family!(counter "peel_replication_decode_errors_total" = replication.decode_errors,
        "Follower side: replication frames that failed to decode"),
    family!(counter "peel_replication_anti_entropy_rounds_total" = replication.anti_entropy_rounds,
        "Follower side: anti-entropy repair rounds completed"),
    family!(counter "peel_replication_anti_entropy_keys_total" = replication.anti_entropy_keys,
        "Follower side: keys healed by anti-entropy repair"),
    family!(follower gauge "peel_replication_follower_published" = published,
        "Per follower: highest sequence published while it was live"),
    family!(follower gauge "peel_replication_follower_acked" = acked,
        "Per follower: highest sequence acknowledged"),
    family!(follower gauge "peel_replication_follower_lag" = lag,
        "Per follower: published minus acked, in batches"),
    family!(follower gauge "peel_replication_follower_alive" = alive,
        "Per follower: 1 while connected, 0 on a disconnected final row"),
    family!(histogram "peel_replication_lag_batches" = replication.lag,
        "Replication lag observed at each follower ack, in batches",
        "Replication-lag quantile readout (labelled by q)"),
    family!(gauge "peel_reshard_generation" = reshard.generation,
        "Generation number of the serving shard set"),
    family!(gauge "peel_reshard_active" = reshard.resharding,
        "1 while a migration to a new generation is in flight"),
    family!(gauge "peel_reshard_serving_shards" = reshard.serving_shards,
        "Shard count of the serving generation"),
    family!(gauge "peel_reshard_target_shards" = reshard.to_shards,
        "Shard count of the migration target"),
    family!(gauge "peel_reshard_keys_moved" = reshard.keys_moved,
        "Keys re-keyed by the in-flight or most recent migration"),
    family!(gauge "peel_reshard_shards_verified" = reshard.shards_verified,
        "New-generation shards verified cell-identical"),
    family!(counter "peel_reshards_completed_total" = reshard.completed,
        "Reshards committed (generation cutovers)"),
    family!(counter "peel_reshards_aborted_total" = reshard.aborted,
        "Reshards aborted (old generation kept)"),
    family!(class histogram "peel_request_latency_ns" = request_latency,
        "Request dispatch latency by frame class, nanoseconds",
        "Request-latency quantile readout (labelled by class and q)"),
    family!(histogram "peel_queue_wait_ns" = queue_wait,
        "Time sealed batches wait in the ingest queue, nanoseconds",
        "Queue-wait quantile readout (labelled by q)"),
    family!(histogram "peel_batch_apply_ns" = batch_apply,
        "Time a worker spends applying one batch, nanoseconds",
        "Batch-apply quantile readout (labelled by q)"),
    family!(histogram "peel_recovery_latency_ns" = recovery_latency,
        "Per-recovery wall time, nanoseconds",
        "Recovery-latency quantile readout (labelled by q)"),
];

/// Test fixture driven by the table: every scalar row holds a distinct
/// value set through its `set` (1 for `bool` rows), every histogram row
/// distinct series, and each labelled block one row.
#[cfg(test)]
pub(crate) fn table_fixture() -> MetricsSnapshot {
    let mut s = MetricsSnapshot::default();
    for (i, f) in FAMILIES.iter().enumerate() {
        let i = i as u64;
        match f.source {
            Source::Scalar { set, .. } => assert!(set(&mut s, 1000 + i) || set(&mut s, 1)),
            Source::Histogram {
                store, per_class, ..
            } => {
                let h = AtomicHistogram::new();
                h.record(i);
                h.record(i << 20);
                let n = if per_class { REQUEST_CLASSES.len() } else { 1 };
                assert!(store(&mut s, vec![h.snapshot(); n]), "{}", f.name);
            }
            Source::Shard(_) | Source::Follower(_) => {}
        }
    }
    s.last_recovery_trace = vec![5, 2, 1];
    s.last_recovery_trace_ns = vec![700, 200, 90];
    s.shards = vec![ShardStats {
        epoch: 3,
        inserts: 40,
        deletes: 2,
    }];
    s.replication.per_follower = vec![FollowerStats {
        id: 6,
        published: 9,
        acked: 7,
        lag: 2,
        alive: true,
    }];
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS_BEGIN: &str = "<!-- metrics:begin -->";
    const METRICS_END: &str = "<!-- metrics:end -->";

    /// README's metric reference, generated from the table: one row per
    /// family, plus one per histogram's `_quantile` companion.
    fn reference_rows() -> String {
        let mut out = String::from("| Metric | Type | Labels | Help |\n|---|---|---|---|\n");
        for f in FAMILIES {
            let row = |out: &mut String, name: &str, ty: &str, extra: Option<&str>, help: &str| {
                let labels: Vec<String> = f
                    .label()
                    .into_iter()
                    .chain(extra)
                    .map(|l| format!("`{l}`"))
                    .collect();
                let labels = if labels.is_empty() {
                    "—".to_string()
                } else {
                    labels.join(", ")
                };
                out.push_str(&format!("| `{name}` | {ty} | {labels} | {help} |\n"));
            };
            match f.source {
                Source::Histogram { quantile_help, .. } => {
                    row(&mut out, f.name, f.kind.as_str(), Some("le"), f.help);
                    let quantile = format!("{}_quantile", f.name);
                    row(&mut out, &quantile, "gauge", Some("q"), quantile_help);
                }
                _ => row(&mut out, f.name, f.kind.as_str(), None, f.help),
            }
        }
        out
    }

    /// The README block between the metrics markers is exactly the
    /// table's rendering; on drift, the failure prints the block to
    /// paste.
    #[test]
    fn readme_metric_reference_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).unwrap();
        let b = readme
            .find(METRICS_BEGIN)
            .expect("README lacks the metrics:begin marker");
        let e = readme
            .find(METRICS_END)
            .expect("README lacks the metrics:end marker");
        let want = reference_rows();
        assert!(
            readme[b + METRICS_BEGIN.len()..e].trim() == want.trim(),
            "README metric reference is stale; replace its block with:\n\n\
             {METRICS_BEGIN}\n\n{want}\n{METRICS_END}\n"
        );
    }

    #[test]
    fn scalar_rows_narrow_or_refuse() {
        let mut s = MetricsSnapshot::default();
        let set = |name: &str, s: &mut MetricsSnapshot, v: u64| match family(name).unwrap().source {
            Source::Scalar { set, .. } => set(s, v),
            _ => unreachable!("{name} is not a scalar row"),
        };
        assert!(set("peel_replica_leading", &mut s, 1));
        assert!(s.replication.leading);
        assert!(!set("peel_replica_leading", &mut s, 2));
        assert!(set("peel_reshard_target_shards", &mut s, u32::MAX as u64));
        assert_eq!(s.reshard.to_shards, u32::MAX);
        assert!(!set(
            "peel_reshard_target_shards",
            &mut s,
            u32::MAX as u64 + 1
        ));
        assert!(set("peel_connections_refused_total", &mut s, u64::MAX));
        assert_eq!(s.connections.refused, u64::MAX);
    }

    #[test]
    fn snapshot_copies_counters() {
        let m = Metrics::default();
        m.batches_applied.store(3, Relaxed);
        m.ops_applied.store(12, Relaxed);
        m.record_recovery(true, 9, &[4, 2, 1], &[900, 300, 100]);
        m.record_recovery(false, 5, &[1], &[250]);
        m.repl_applied.store(6, Relaxed);
        m.anti_entropy_keys.store(17, Relaxed);
        m.reshards_completed.store(2, Relaxed);
        m.reshards_aborted.store(1, Relaxed);
        let hub = ReplicationStats {
            followers: 2,
            published_seq: 10,
            acked_min: 8,
            max_lag: 2,
            ..ReplicationStats::default()
        };
        let reshard = ReshardStats {
            generation: 3,
            resharding: true,
            serving_shards: 2,
            to_shards: 8,
            keys_moved: 41,
            shards_verified: 5,
            ..ReshardStats::default()
        };
        let s = m.snapshot(vec![ShardStats::default(); 2], hub, reshard);
        assert_eq!(s.batches_applied, 3);
        assert_eq!(s.ops_applied, 12);
        assert_eq!(s.recoveries, 2);
        assert_eq!(s.recoveries_incomplete, 1);
        assert_eq!(s.recovery_subrounds, 14);
        assert_eq!(s.last_recovery_trace, vec![1]);
        assert_eq!(s.last_recovery_trace_ns, vec![250]);
        assert_eq!(s.shards.len(), 2);
        assert!((s.mean_batch_occupancy() - 4.0).abs() < 1e-12);
        // The replication block merges hub gauges with local counters.
        assert_eq!(s.replication.followers, 2);
        assert_eq!(s.replication.max_lag, 2);
        assert_eq!(s.replication.batches_applied, 6);
        assert_eq!(s.replication.anti_entropy_keys, 17);
        // The reshard block merges live gauges with outcome counters.
        assert!(s.reshard.resharding);
        assert_eq!(s.reshard.generation, 3);
        assert_eq!(s.reshard.to_shards, 8);
        assert_eq!(s.reshard.keys_moved, 41);
        assert_eq!(s.reshard.completed, 2);
        assert_eq!(s.reshard.aborted, 1);
        // The recovery histogram tracks both recoveries' total ns.
        assert_eq!(s.recovery_latency.count, 2);
        assert_eq!(s.recovery_latency.sum, 1300 + 250);
    }

    #[test]
    fn empty_snapshot_has_zero_occupancy() {
        let s = Metrics::default().snapshot(
            Vec::new(),
            ReplicationStats::default(),
            ReshardStats::default(),
        );
        assert_eq!(s.mean_batch_occupancy(), 0.0);
    }

    #[test]
    fn bucket_index_and_floor_are_inverse_bounds() {
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7, 8, 100, 1000, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(bucket_floor(i) <= v, "floor({i}) > {v}");
            if i + 1 < HISTOGRAM_BUCKETS {
                assert!(bucket_floor(i + 1) > v, "next floor({}) <= {v}", i + 1);
            }
        }
        // Bucket floors are strictly increasing.
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_floor(i) > bucket_floor(i - 1));
        }
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = AtomicHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        let p50 = s.quantile(0.5);
        // p50 of 1..=1000 is 500; the half-octave bucket [384, 512)
        // contains it, so the readout is its floor.
        assert!((256..=512).contains(&p50), "p50 = {p50}");
        assert!(s.quantile(0.0) <= p50);
        assert!(p50 <= s.quantile(1.0));
        assert!(s.quantile(1.0) <= 1000);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        let combined = AtomicHistogram::new();
        for v in [0u64, 1, 7, 7, 100, 4096] {
            a.record(v);
            combined.record(v);
        }
        for v in [3u64, 7, 65_535, u64::MAX] {
            b.record(v);
            combined.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), combined.snapshot());
    }

    #[test]
    fn snapshot_merge_matches_atomic_merge() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        for v in [1u64, 2, 300] {
            a.record(v);
        }
        for v in [2u64, 4_000_000] {
            b.record(v);
        }
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        a.merge_from(&b);
        assert_eq!(sa, a.snapshot());
    }
}

//! The reconciliation service core: sharded atomic IBLTs fed by a batched
//! ingest pipeline, with an epoch-based recovery scheduler.
//!
//! ## Ingest
//!
//! Submitted operations accumulate in a shared buffer; every
//! `batch_size` ops a batch is sealed and enqueued on a bounded queue
//! (producers block when it fills — that is the service's backpressure).
//! Worker threads drain batches, bucket the ops by shard, and apply each
//! bucket through the atomic `fetch_add` / `fetch_xor` paths of
//! [`AtomicIblt`] while holding the shard's **apply gate** in shared mode.
//! Applying a bucket bumps the shard's **epoch**.
//!
//! ## Recovery
//!
//! A reconciliation takes the shard gate exclusively just long enough to
//! copy the cells ([`AtomicIblt::snapshot_into`]) and read the epoch — a
//! memcpy, not a decode — then releases it and runs subtraction plus
//! subround parallel recovery ([`AtomicIblt::par_recover_in`]) entirely
//! on the snapshot. Ingest to other shards is never touched; ingest to
//! the snapshotted shard resumes as soon as the copy is done. The
//! returned epoch tells the caller exactly which prefix of applied
//! batches the diff covers.
//!
//! Every buffer the cycle needs — the snapshot table, the atomic diff
//! table, and the recovery workspace — comes from a shared scratch pool:
//! after the first reconcile of each concurrency lane, repeated epochs
//! run the whole snapshot → subtract → recover path without touching the
//! allocator (shard tables share a geometry, so one pooled context
//! serves every shard).
//!
//! ## Resharding
//!
//! The shard count is a *live* property: [`PeelService::reshard_begin`]
//! opens a migration to a new **generation** of shards (same base IBLT
//! geometry, re-keyed routing via [`ShardRouter::resharded`]). Under the
//! generation write lock it snapshots every serving shard — workers hold
//! the generation read lock for a whole batch, so each batch is either
//! fully in those snapshots or will dual-apply — then decodes the
//! snapshots offline and re-keys the recovered contents into the new
//! shards while ingest continues, every new batch now applying to *both*
//! generations. [`PeelService::reshard_commit`] verifies each new shard
//! is cell-identical to the projection of the serving contents under the
//! new routing (a consistent dual snapshot; equality of the raw cell
//! arrays, which subsumes "the IBLT diff decodes empty") and atomically
//! swaps the serving generation. [`PeelService::reshard_abort`] drops
//! the migration at any point: dual-apply kept the old generation
//! authoritative throughout, so no key is lost or double-counted.

use std::fmt;
// ordering: shard epochs and op counters are Relaxed. Epoch bumps and
// snapshot reads both happen under the shard's apply gate (a parking_lot
// RwLock), whose release/acquire edge orders them; the bare-atomic
// accesses add commutative counting on top, never publication. Stats
// readers tolerate staleness by contract.
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Mutex, RwLock};
use peel_iblt::{AtomicIblt, Iblt, IbltConfig, RecoveryWorkspace};

use crate::metrics::{Metrics, MetricsSnapshot, ReshardStats, ShardStats};
use crate::queue::{Batch, BoundedQueue, Op};
use crate::replication::ReplicationHub;
use crate::router::{shard_iblt_config, GenerationRouter, ShardRouter};
use crate::wire::{HelloInfo, ReplicaStatus, ShardDiff, PROTOCOL_VERSION};

/// Upper bound on a reshard target, so a hostile `ReshardBegin` frame
/// cannot make the service allocate an unbounded number of shard tables.
pub const MAX_RESHARD_SHARDS: u32 = 4096;

/// Tunables for a [`PeelService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of independent IBLT shards (≥ 1).
    pub shards: u32,
    /// Base per-shard IBLT config; shard `i` uses
    /// [`shard_iblt_config`]`(shard_iblt, i)`. Size it for the expected
    /// per-shard *difference*, not the ingested set — the table is a
    /// constant-size sketch regardless of traffic volume.
    pub shard_iblt: IbltConfig,
    /// Ops per sealed ingest batch (≥ 1).
    pub batch_size: usize,
    /// Bounded queue capacity in batches (≥ 1); the backpressure knob.
    pub queue_depth: usize,
    /// Ingest worker threads (≥ 1).
    pub workers: usize,
    /// Seed of the key → shard router.
    pub router_seed: u64,
    /// Per-follower replication stream queue depth, in batches (≥ 1).
    /// Publishing to a full follower queue evicts the oldest batch
    /// instead of blocking ingest; evicted batches are healed by
    /// anti-entropy.
    pub repl_queue_depth: usize,
    /// This node's identity in a replica mesh. Elections prefer the
    /// lowest id among equally caught-up candidates, so ids should be
    /// unique per node; a standalone service can leave the default.
    pub node_id: u64,
    /// Maximum unacknowledged `Replicate` frames in flight per follower
    /// stream (≥ 1). One means classic ack pacing; larger windows keep a
    /// WAN pipe full across the round trip.
    pub repl_window: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            shard_iblt: IbltConfig::for_load(4, 1024, 0.5, 0x1b17_5eed),
            batch_size: 1024,
            queue_depth: 64,
            workers: default_workers(),
            router_seed: 0x7007_1e55_0000_0001,
            repl_queue_depth: 256,
            node_id: 0,
            repl_window: 32,
        }
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 8)
}

impl ServiceConfig {
    /// Config sized so that a total symmetric difference of `total_diff`
    /// keys (spread across `shards` shards by the router) decodes
    /// reliably: each shard's table gets 2× headroom over its expected
    /// share, at load 0.5 with r = 4 hash functions.
    pub fn for_diff_budget(shards: u32, total_diff: usize) -> Self {
        let per_shard = total_diff.div_ceil(shards.max(1) as usize);
        let sized = (per_shard * 2).max(64);
        ServiceConfig {
            shards,
            shard_iblt: IbltConfig::for_load(4, sized, 0.5, 0x1b17_5eed),
            ..ServiceConfig::default()
        }
    }

    /// The config a follower should run so its shards are
    /// digest-compatible with the primary that sent `hello`: same shard
    /// count, router seed, base IBLT config, and batch size; local
    /// defaults for everything else. Values are clamped to the
    /// constructor invariants so a hostile handshake cannot panic
    /// [`PeelService::start`].
    pub fn from_hello(hello: &HelloInfo) -> Self {
        ServiceConfig {
            shards: hello.shards.max(1),
            shard_iblt: hello.base_config,
            batch_size: (hello.batch_size as usize).max(1),
            router_seed: hello.router_seed,
            ..ServiceConfig::default()
        }
    }

    /// The handshake info a server built from this config advertises.
    pub fn hello(&self) -> HelloInfo {
        HelloInfo {
            version: PROTOCOL_VERSION,
            shards: self.shards,
            router_seed: self.router_seed,
            base_config: self.shard_iblt,
            batch_size: self.batch_size as u32,
            epoch: 0,
        }
    }
}

/// Service-level failures (surfaced to clients as protocol `Error`
/// responses, never as panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Shard index out of range.
    NoSuchShard {
        /// Requested shard.
        shard: u32,
        /// Shards available.
        shards: u32,
    },
    /// A peer digest was built with a different IBLT config than the
    /// shard it targets (subtraction would be meaningless).
    ConfigMismatch {
        /// The shard's config.
        expected: IbltConfig,
        /// The digest's config.
        got: IbltConfig,
    },
    /// A reshard control operation arrived while no migration is in
    /// flight.
    NotResharding,
    /// `reshard_begin` while a migration to a different target is
    /// already in flight (commit or abort it first).
    ReshardInProgress {
        /// Target shard count of the in-flight migration.
        to: u32,
    },
    /// `reshard_begin` targeting the shard count the service already
    /// serves, or an out-of-range count (0, or more than
    /// [`MAX_RESHARD_SHARDS`]).
    BadReshardTarget {
        /// The rejected target.
        to: u32,
    },
    /// A serving shard's snapshot did not decode completely, so its
    /// contents cannot be re-keyed. The shard's table is sized for the
    /// reconciliation *diff* budget; a reshard additionally requires the
    /// full shard contents to fit that decode budget.
    ReshardUndecodable {
        /// The undecodable serving shard.
        shard: u32,
    },
    /// Cutover verification found a new-generation shard whose contents
    /// are not yet cell-identical to the projection of the serving
    /// contents.
    ReshardUnverified {
        /// The mismatched new-generation shard.
        shard: u32,
    },
    /// A mesh peer accepted a connection but did not answer within the
    /// configured socket deadline (election probe, anti-entropy repair,
    /// or converged-read hop). Distinct from a refused/dead peer: the
    /// peer is half-alive, and the caller should treat it as down
    /// rather than wait. Mapped from [`crate::wire::WireError::TimedOut`].
    PeerTimedOut,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::NoSuchShard { shard, shards } => {
                write!(f, "shard {shard} out of range (service has {shards})")
            }
            ServiceError::ConfigMismatch { expected, got } => write!(
                f,
                "digest config {got:?} does not match shard config {expected:?}"
            ),
            ServiceError::NotResharding => write!(f, "no reshard migration is in flight"),
            ServiceError::ReshardInProgress { to } => {
                write!(f, "a reshard to {to} shards is already in flight")
            }
            ServiceError::BadReshardTarget { to } => write!(
                f,
                "reshard target {to} out of range (1..={MAX_RESHARD_SHARDS}, and \
                 different from the current count)"
            ),
            ServiceError::ReshardUndecodable { shard } => write!(
                f,
                "shard {shard} does not decode completely; contents exceed the \
                 table budget, reshard cannot re-key them"
            ),
            ServiceError::ReshardUnverified { shard } => write!(
                f,
                "new-generation shard {shard} is not yet cell-identical to its projection"
            ),
            ServiceError::PeerTimedOut => {
                write!(f, "peer did not answer within the socket deadline")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

struct Shard {
    table: AtomicIblt,
    /// Shared: a worker applying a batch bucket. Exclusive: the recovery
    /// scheduler copying cells. Guards snapshot *consistency* only — the
    /// cell updates themselves are atomic.
    gate: RwLock<()>,
    /// Batch buckets applied to this shard.
    epoch: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
}

impl Shard {
    fn new(cfg: IbltConfig) -> Shard {
        Shard {
            table: AtomicIblt::new(cfg),
            gate: RwLock::new(()),
            epoch: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
        }
    }
}

/// One generation of shards: a router and the tables it routes to.
/// Generation 0 is built at start; each committed reshard installs the
/// next one.
struct GenShards {
    generation: u64,
    router: ShardRouter,
    shards: Vec<Shard>,
}

impl GenShards {
    fn build(generation: u64, router: ShardRouter, base: IbltConfig) -> GenShards {
        GenShards {
            generation,
            router,
            shards: (0..router.shards())
                .map(|i| Shard::new(shard_iblt_config(base, i)))
                .collect(),
        }
    }

    /// Apply one shard's bucket of ops under its gate (shared — the cell
    /// updates are atomic; the gate only orders them against snapshots).
    fn apply_bucket(&self, shard: usize, ops: &[Op]) {
        if ops.is_empty() {
            return;
        }
        let s = &self.shards[shard];
        let mut inserts = 0u64;
        {
            let _gate = s.gate.read();
            for op in ops {
                if op.dir > 0 {
                    s.table.insert(op.key);
                    inserts += 1;
                } else {
                    s.table.delete(op.key);
                }
            }
            // Bump under the gate so a snapshot's epoch counts exactly
            // the buckets whose cells it observed.
            s.epoch.fetch_add(1, Relaxed);
        }
        s.inserts.fetch_add(inserts, Relaxed);
        s.deletes.fetch_add(ops.len() as u64 - inserts, Relaxed);
    }
}

/// The in-flight half of a reshard: the generation being populated,
/// which shards of it have verified cell-identical to their projection,
/// and how many keys the migration re-keyed.
struct Migration {
    next: Arc<GenShards>,
    verified: Vec<bool>,
    keys_moved: u64,
}

/// The serving generation plus, during a reshard, the migration to the
/// next one. Workers hold the read lock for a whole batch, so the write
/// lock (taken by begin/commit/abort) is a consistent cut of the batch
/// stream.
struct GenState {
    current: Arc<GenShards>,
    migration: Option<Migration>,
}

impl GenState {
    /// The dual-generation routing view of this state.
    fn router(&self) -> GenerationRouter {
        match &self.migration {
            Some(m) => GenerationRouter::migrating(self.current.router, m.next.router),
            None => GenerationRouter::stable(self.current.router),
        }
    }
}

/// Pooled per-reconcile buffers: the frozen shard snapshot (which the
/// subtraction then overwrites with the diff), the atomic table the diff
/// is decoded in, and the recovery workspace. Shards share a table
/// geometry (only the hash seed differs), so any context serves any
/// shard; the in-place loaders retarget configs on the fly.
struct ReconcileScratch {
    snap: Iblt,
    diff: AtomicIblt,
    ws: RecoveryWorkspace,
}

/// This node's role in a replica mesh: whether it currently believes it
/// is the primary, how far the stream it follows has reached, and where
/// converged reads should be redirected while it lags. The replication
/// *epoch* itself lives in the hub ([`ReplicationHub::epoch`]), which is
/// the fencing authority for both inbound and outbound streams.
struct ReplicaState {
    /// `true` while this node serves as primary (the boot default — a
    /// standalone service is its own primary). A follower driver clears
    /// it; winning an election sets it again.
    leading: AtomicBool,
    /// Highest replication sequence number *seen* on the inbound stream
    /// (applied or skipped). The lag gauge's numerator.
    source_seq: AtomicU64,
    /// Highest replication sequence number *applied* locally.
    last_applied: AtomicU64,
    /// Where stale reads should be redirected (the current primary's
    /// advertised address), empty when unknown.
    primary_hint: Mutex<String>,
}

struct Inner {
    cfg: ServiceConfig,
    /// The serving generation and any in-flight migration. Read-held by
    /// workers for a whole batch; write-held (briefly) by the reshard
    /// transitions.
    gens: RwLock<GenState>,
    /// Serializes the reshard control operations (begin / verify /
    /// commit / abort) so their multi-gate snapshot passes can never
    /// interleave.
    reshard_lock: Mutex<()>,
    /// Keys re-keyed by the most recently *committed* reshard (the live
    /// migration's count lives in [`Migration::keys_moved`]).
    last_reshard_keys: AtomicU64,
    queue: BoundedQueue,
    /// The shared accumulator batches are sealed from.
    pending: Mutex<Batch>,
    /// The replication tee: every sealed batch is published here before
    /// it enters the local queue.
    hub: ReplicationHub,
    /// Scratch pool for [`PeelService::reconcile_shard`]; grows to the
    /// peak number of concurrent reconciles and is reused forever after.
    scratch: Mutex<Vec<ReconcileScratch>>,
    /// Mesh role and stream progress gauges (the epoch lives in `hub`).
    replica: ReplicaState,
    metrics: Metrics,
}

impl Inner {
    fn take_scratch(&self) -> ReconcileScratch {
        if let Some(ctx) = self.scratch.lock().pop() {
            return ctx;
        }
        let cfg = shard_iblt_config(self.cfg.shard_iblt, 0);
        ReconcileScratch {
            snap: Iblt::new(cfg),
            diff: AtomicIblt::new(cfg),
            ws: RecoveryWorkspace::new(),
        }
    }

    fn put_scratch(&self, ctx: ReconcileScratch) {
        self.scratch.lock().push(ctx);
    }
}

impl Inner {
    /// Tee a sealed batch to the replication hub, then enqueue it
    /// locally. The publish never blocks; the local push is where
    /// backpressure lives.
    fn enqueue_sealed(&self, batch: Batch) -> bool {
        if tracing::enabled() {
            tracing::event("batch_seal", &[("ops", (batch.len() as u64).into())]);
        }
        self.hub.publish(&batch);
        self.queue.push(batch)
    }
}

/// A running reconciliation service: shard router, ingest worker pool,
/// and recovery scheduler. Cheap to share via `Arc`; shuts down (and
/// joins its workers) on drop.
pub struct PeelService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl PeelService {
    /// Validate the config, build the shards, and start the worker pool.
    pub fn start(cfg: ServiceConfig) -> Self {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.batch_size >= 1, "batch size must be at least 1");
        assert!(cfg.workers >= 1, "need at least one worker");
        // A shard's serialized digest (config + 24 bytes/cell + frame
        // header slack) must fit in one wire frame, or every
        // Digest/Reconcile response would die in `write_frame` after the
        // server came up healthy.
        assert!(
            cfg.shard_iblt.total_cells() * 24 + 64 <= crate::wire::MAX_FRAME,
            "shard tables of {} cells serialize past the {} byte wire frame cap; \
             shrink the per-shard diff budget or raise shard count",
            cfg.shard_iblt.total_cells(),
            crate::wire::MAX_FRAME,
        );
        let gen0 = GenShards::build(
            0,
            ShardRouter::new(cfg.shards, cfg.router_seed),
            cfg.shard_iblt,
        );
        let inner = Arc::new(Inner {
            gens: RwLock::new(GenState {
                current: Arc::new(gen0),
                migration: None,
            }),
            reshard_lock: Mutex::new(()),
            last_reshard_keys: AtomicU64::new(0),
            queue: BoundedQueue::new(cfg.queue_depth),
            pending: Mutex::new(Vec::with_capacity(cfg.batch_size)),
            hub: ReplicationHub::new(cfg.repl_queue_depth.max(1)),
            scratch: Mutex::new(Vec::new()),
            replica: ReplicaState {
                leading: AtomicBool::new(true),
                source_seq: AtomicU64::new(0),
                last_applied: AtomicU64::new(0),
                primary_hint: Mutex::new(String::new()),
            },
            metrics: Metrics::default(),
            cfg,
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        PeelService {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The service configuration, as started. `shards` in it is the
    /// *initial* shard count; resharding changes the live count, which
    /// [`PeelService::shards`] reports.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }

    /// The handshake info this service advertises — the shard count is
    /// the serving generation's, which a reshard changes live.
    pub fn hello(&self) -> HelloInfo {
        let mut hello = self.inner.cfg.hello();
        hello.shards = self.shards();
        hello.epoch = self.repl_epoch();
        hello
    }

    /// This node's mesh identity (election tie-breaker).
    pub fn node_id(&self) -> u64 {
        self.inner.cfg.node_id
    }

    /// The replication epoch this node is fenced at (the hub's epoch —
    /// one fence covers the inbound stream and every outbound one).
    pub fn repl_epoch(&self) -> u64 {
        self.inner.hub.epoch()
    }

    /// Raise the replication fence to `epoch` (monotone; a lower or
    /// equal value is a no-op). Outbound subscriptions born under an
    /// older epoch are closed, which is what deposes a stale primary
    /// mid-stream. Returns the epoch now in force.
    pub fn fence_epoch(&self, epoch: u64) -> u64 {
        self.inner.hub.bump_epoch(epoch)
    }

    /// `true` while this node believes it is the primary of its mesh.
    pub fn is_leading(&self) -> bool {
        self.inner.replica.leading.load(Relaxed)
    }

    /// Record a role change: `true` after winning an election (or at
    /// boot), `false` when following a primary.
    pub fn set_leading(&self, leading: bool) {
        self.inner.replica.leading.store(leading, Relaxed);
    }

    /// The address stale reads are redirected to (the current primary's
    /// advertised endpoint), empty when unknown.
    pub fn primary_hint(&self) -> String {
        self.inner.replica.primary_hint.lock().clone()
    }

    /// Record where the mesh's primary is reachable, for
    /// `ReadStale` redirects.
    pub fn set_primary_hint(&self, addr: &str) {
        let mut hint = self.inner.replica.primary_hint.lock();
        hint.clear();
        hint.push_str(addr);
    }

    /// Record the highest sequence number *seen* on the inbound
    /// replication stream (monotone).
    pub fn note_stream_seq(&self, seq: u64) {
        self.inner.replica.source_seq.fetch_max(seq, Relaxed);
    }

    /// Record the highest sequence number *applied* from the inbound
    /// replication stream (monotone).
    pub fn note_applied_seq(&self, seq: u64) {
        self.inner.replica.last_applied.fetch_max(seq, Relaxed);
    }

    /// How many replicated batches this node has seen but not yet
    /// applied. A primary is never lagging; a replica at 0 is converged
    /// with everything its stream has shown it.
    pub fn replica_lag(&self) -> u64 {
        if self.is_leading() {
            return 0;
        }
        let r = &self.inner.replica;
        r.source_seq
            .load(Relaxed)
            .saturating_sub(r.last_applied.load(Relaxed))
    }

    /// The mesh-facing status frame: identity, epoch, role, stream
    /// progress, convergence. Election candidates are compared on
    /// exactly these fields.
    pub fn replica_status(&self) -> ReplicaStatus {
        let r = &self.inner.replica;
        ReplicaStatus {
            node_id: self.node_id(),
            epoch: self.repl_epoch(),
            leading: self.is_leading(),
            last_applied: r.last_applied.load(Relaxed),
            converged: self.replica_lag() == 0,
            shards: self.shards(),
            primary: self.primary_hint(),
        }
    }

    /// Number of shards in the serving generation.
    pub fn shards(&self) -> u32 {
        self.inner.gens.read().current.router.shards()
    }

    /// Generation number of the serving shard set (0 at boot, +1 per
    /// committed reshard).
    pub fn generation(&self) -> u64 {
        self.inner.gens.read().current.generation
    }

    /// The serving generation's key → shard router.
    pub fn router(&self) -> ShardRouter {
        self.inner.gens.read().current.router
    }

    /// The dual-generation routing view: the serving mapping plus, while
    /// a migration is in flight, the new-generation mapping writes
    /// dual-apply to.
    pub fn generation_router(&self) -> GenerationRouter {
        self.inner.gens.read().router()
    }

    fn current_gen(&self) -> Arc<GenShards> {
        Arc::clone(&self.inner.gens.read().current)
    }

    /// Submit keys for insertion. Returns the number accepted (everything,
    /// unless the service is shutting down).
    pub fn insert(&self, keys: &[u64]) -> u64 {
        self.submit(keys, 1)
    }

    /// Submit keys for deletion.
    pub fn delete(&self, keys: &[u64]) -> u64 {
        self.submit(keys, -1)
    }

    fn submit(&self, keys: &[u64], dir: i64) -> u64 {
        let inner = &self.inner;
        // After shutdown nothing in the accumulator will ever be applied
        // (the queue rejects sealed batches), so accepting keys into it
        // would silently lose them while reporting them accepted.
        if inner.queue.is_closed() {
            return 0;
        }
        let batch_size = inner.cfg.batch_size;
        let mut sealed: Vec<Batch> = Vec::new();
        {
            let mut pending = inner.pending.lock();
            for &key in keys {
                pending.push(Op { key, dir });
                if pending.len() >= batch_size {
                    let full = std::mem::replace(&mut *pending, Vec::with_capacity(batch_size));
                    sealed.push(full);
                }
            }
        }
        // Push outside the accumulator lock: a full queue blocks here
        // (backpressure) without stalling other submitters' accumulation.
        let mut dropped = 0u64;
        for b in sealed {
            let n = b.len() as u64;
            if !inner.enqueue_sealed(b) {
                dropped += n;
            }
        }
        (keys.len() as u64).saturating_sub(dropped)
    }

    /// Seal whatever is in the accumulator into a (possibly short) batch.
    fn seal_pending(&self) {
        let batch = {
            let mut pending = self.inner.pending.lock();
            if pending.is_empty() {
                return;
            }
            std::mem::take(&mut *pending)
        };
        self.inner.enqueue_sealed(batch);
    }

    /// Apply one already-sealed batch through the ingest pipeline,
    /// preserving each op's direction — the follower-side entry point
    /// for replicated batches. The batch is re-published to this
    /// service's own replication hub first, so replication chains
    /// (primary → follower → sub-follower) keep streaming. Returns
    /// `false` if the service is shutting down.
    pub fn ingest_batch(&self, batch: Batch) -> bool {
        if batch.is_empty() {
            return true;
        }
        if self.inner.queue.is_closed() {
            return false;
        }
        self.inner.enqueue_sealed(batch)
    }

    /// The replication tee — subscribe here to stream this service's
    /// sealed batches.
    pub fn replication(&self) -> &ReplicationHub {
        &self.inner.hub
    }

    /// The raw metric counters (for in-crate replication plumbing).
    pub(crate) fn metrics_handle(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Block until every op submitted before this call is applied to its
    /// shard (partial batches are sealed and flushed too).
    pub fn flush(&self) {
        self.seal_pending();
        self.inner.queue.wait_idle();
    }

    /// Consistent snapshot of one serving-generation shard: its epoch
    /// and a frozen copy of its table. Blocks that shard's ingest only
    /// for the cell copy.
    pub fn snapshot_shard(&self, shard: u32) -> Result<(u64, Iblt), ServiceError> {
        let gen = self.current_gen();
        let s = gen_shard(&gen, shard)?;
        let _gate = s.gate.write();
        let epoch = s.epoch.load(Relaxed);
        Ok((epoch, s.table.snapshot()))
    }

    /// Consistent snapshot of one shard into an existing table (reusing
    /// its buffer and retargeting its config) — the allocation-free form
    /// of [`PeelService::snapshot_shard`]. Returns the shard epoch at
    /// snapshot time.
    pub fn snapshot_shard_into(&self, shard: u32, out: &mut Iblt) -> Result<u64, ServiceError> {
        let gen = self.current_gen();
        let s = gen_shard(&gen, shard)?;
        let _gate = s.gate.write();
        let epoch = s.epoch.load(Relaxed);
        s.table.snapshot_into(out);
        Ok(epoch)
    }

    /// Reconcile one shard against a peer digest: snapshot at the current
    /// epoch, subtract, and run subround parallel recovery on the copy.
    /// Keys only in this service's shard come back in
    /// [`ShardDiff::only_local`]; keys only in the digest in
    /// [`ShardDiff::only_remote`] (both sorted).
    ///
    /// Every table and workspace involved is drawn from the service's
    /// scratch pool, so repeated epochs reconcile without allocating
    /// (beyond the returned diff key vectors, which are diff-sized, not
    /// table-sized).
    pub fn reconcile_shard(&self, shard: u32, digest: &Iblt) -> Result<ShardDiff, ServiceError> {
        let mut ctx = self.inner.take_scratch();
        let epoch = match self.snapshot_shard_into(shard, &mut ctx.snap) {
            Ok(epoch) => epoch,
            Err(e) => {
                self.inner.put_scratch(ctx);
                return Err(e);
            }
        };
        if ctx.snap.config() != digest.config() {
            let expected = *ctx.snap.config();
            self.inner.put_scratch(ctx);
            return Err(ServiceError::ConfigMismatch {
                expected,
                got: *digest.config(),
            });
        }
        // Everything below runs on the frozen copy — ingest is live again.
        // One fused sweep writes snapshot − digest into the pooled atomic
        // diff table, seeds the recovery workspace, and decodes.
        let span = tracing::span(
            "recovery",
            &[("shard", shard.into()), ("epoch", epoch.into())],
        );
        let rec = span.in_scope(|| {
            ctx.diff
                .recover_subtracted_in(&ctx.snap, digest, &mut ctx.ws)
        });
        if tracing::enabled() {
            tracing::event(
                "recovery_done",
                &[
                    ("shard", shard.into()),
                    ("complete", rec.complete.into()),
                    ("subrounds", (rec.subrounds as u64).into()),
                    ("positive", (rec.positive.len() as u64).into()),
                    ("negative", (rec.negative.len() as u64).into()),
                ],
            );
        }
        drop(span);
        self.inner.metrics.record_recovery(
            rec.complete,
            rec.subrounds,
            &rec.per_subround,
            &rec.per_subround_ns,
        );
        let mut only_local = rec.positive.clone();
        let mut only_remote = rec.negative.clone();
        only_local.sort_unstable();
        only_remote.sort_unstable();
        // Sampled after the snapshot, so it is an upper bound on the
        // replication sequence numbers the diff can reflect (batches are
        // published to the hub before they enter the apply queue).
        let as_of_seq = self.inner.hub.published_seq();
        let diff = ShardDiff {
            shard,
            epoch,
            complete: rec.complete,
            subrounds: rec.subrounds,
            only_local,
            only_remote,
            as_of_seq,
        };
        self.inner.put_scratch(ctx);
        Ok(diff)
    }

    /// Begin a live reshard to `to_shards` shards.
    ///
    /// Under the generation write lock this allocates the next
    /// generation (same base IBLT geometry, routing re-keyed by
    /// [`ShardRouter::resharded`]) and snapshots every serving shard —
    /// the consistent cut after which every applied batch dual-applies
    /// to both generations. It then decodes the snapshots offline and
    /// re-keys the recovered contents (inserts *and* uncompensated
    /// deletes) into the new shards while ingest continues.
    ///
    /// Idempotent while a migration to the same target is in flight
    /// (returns the current status). Errors — bad target, another
    /// migration in flight, or a serving shard whose contents exceed its
    /// decode budget — leave the service exactly as it was.
    pub fn reshard_begin(&self, to_shards: u32) -> Result<ReshardStats, ServiceError> {
        let _ctl = self.inner.reshard_lock.lock();
        if to_shards == 0 || to_shards > MAX_RESHARD_SHARDS {
            return Err(ServiceError::BadReshardTarget { to: to_shards });
        }
        // Phase 1 — the consistent cut: allocate the next generation and
        // snapshot every serving shard under the generation write lock.
        // Workers hold the read lock for a whole batch, so each batch is
        // either fully inside these snapshots or will dual-apply.
        let (next, snaps) = {
            let mut g = self.inner.gens.write();
            if let Some(m) = &g.migration {
                return if m.next.router.shards() == to_shards {
                    Ok(self.reshard_status_locked(&g))
                } else {
                    Err(ServiceError::ReshardInProgress {
                        to: m.next.router.shards(),
                    })
                };
            }
            if g.current.router.shards() == to_shards {
                return Err(ServiceError::BadReshardTarget { to: to_shards });
            }
            let next = Arc::new(GenShards::build(
                g.current.generation + 1,
                g.current.router.resharded(to_shards),
                self.inner.cfg.shard_iblt,
            ));
            let snaps: Vec<Iblt> = g
                .current
                .shards
                .iter()
                .map(|s| {
                    let _gate = s.gate.write();
                    s.table.snapshot()
                })
                .collect();
            g.migration = Some(Migration {
                next: Arc::clone(&next),
                verified: vec![false; to_shards as usize],
                keys_moved: 0,
            });
            (next, snaps)
        };
        // Phase 2 — decode the frozen snapshots offline (ingest is live
        // again, dual-applying) and bucket the recovered contents by the
        // new routing. An undecodable shard rolls the migration back.
        let routed = match route_decoded(&snaps, &next.router) {
            Ok(routed) => routed,
            Err(e) => {
                self.inner.gens.write().migration = None;
                self.inner.metrics.reshards_aborted.fetch_add(1, Relaxed);
                return Err(e);
            }
        };
        // Phase 3 — re-key into the new generation. Racing dual-applied
        // ops use the same atomic cell paths, so interleaving is safe.
        let mut moved = 0u64;
        for (j, (inserts, deletes)) in routed.into_iter().enumerate() {
            moved += (inserts.len() + deletes.len()) as u64;
            let mut ops: Vec<Op> = Vec::with_capacity(inserts.len() + deletes.len());
            ops.extend(inserts.into_iter().map(|key| Op { key, dir: 1 }));
            ops.extend(deletes.into_iter().map(|key| Op { key, dir: -1 }));
            next.apply_bucket(j, &ops);
        }
        let mut g = self.inner.gens.write();
        if let Some(m) = &mut g.migration {
            m.keys_moved = moved;
        }
        if tracing::enabled() {
            tracing::event(
                "reshard_begin",
                &[
                    ("to_shards", to_shards.into()),
                    ("keys_moved", moved.into()),
                ],
            );
        }
        Ok(self.reshard_status_locked(&g))
    }

    /// Verify one new-generation shard and return its digest (epoch plus
    /// frozen table). Verification takes a consistent dual snapshot —
    /// every serving shard and the target shard under their gates —
    /// decodes the serving side, projects it through the new routing,
    /// and requires the target's cell array to be *identical* to the
    /// projection (which subsumes "the IBLT diff decodes empty").
    /// Verified shards stay verified: dual-apply feeds both sides the
    /// same ops from then on.
    pub fn reshard_verify(&self, shard: u32) -> Result<(u64, Iblt), ServiceError> {
        let _ctl = self.inner.reshard_lock.lock();
        self.verify_shards(&[shard as usize])?;
        let g = self.inner.gens.read();
        let m = g.migration.as_ref().ok_or(ServiceError::NotResharding)?;
        let s = gen_shard(&m.next, shard)?;
        let _gate = s.gate.write();
        Ok((s.epoch.load(Relaxed), s.table.snapshot()))
    }

    /// Cut over to the new generation: verify every still-unverified
    /// shard, then atomically swap the serving generation (the old
    /// tables are dropped). On error the migration stays in flight for a
    /// retry or an abort.
    pub fn reshard_commit(&self) -> Result<ReshardStats, ServiceError> {
        let _ctl = self.inner.reshard_lock.lock();
        let unverified: Vec<usize> = {
            let g = self.inner.gens.read();
            let m = g.migration.as_ref().ok_or(ServiceError::NotResharding)?;
            m.verified
                .iter()
                .enumerate()
                .filter(|(_, v)| !**v)
                .map(|(j, _)| j)
                .collect()
        };
        self.verify_shards(&unverified)?;
        let mut g = self.inner.gens.write();
        let Some(m) = g.migration.take() else {
            return Err(ServiceError::NotResharding);
        };
        self.inner.last_reshard_keys.store(m.keys_moved, Relaxed);
        g.current = m.next;
        self.inner.metrics.reshards_completed.fetch_add(1, Relaxed);
        // Publish the cutover in-stream so a whole follower chain adopts
        // the new generation at the same point in the batch sequence.
        self.inner
            .hub
            .publish_generation(g.current.generation, g.current.router.shards());
        if tracing::enabled() {
            tracing::event(
                "reshard_commit",
                &[
                    ("generation", g.current.generation.into()),
                    ("shards", g.current.router.shards().into()),
                ],
            );
        }
        Ok(self.reshard_status_locked(&g))
    }

    /// Drop the in-flight migration and keep serving the old generation.
    /// Dual-apply kept it authoritative throughout the migration, so no
    /// key is lost or double-counted.
    pub fn reshard_abort(&self) -> Result<ReshardStats, ServiceError> {
        let _ctl = self.inner.reshard_lock.lock();
        let mut g = self.inner.gens.write();
        if g.migration.take().is_none() {
            return Err(ServiceError::NotResharding);
        }
        self.inner.metrics.reshards_aborted.fetch_add(1, Relaxed);
        if tracing::enabled() {
            tracing::event(
                "reshard_abort",
                &[("generation", g.current.generation.into())],
            );
        }
        Ok(self.reshard_status_locked(&g))
    }

    /// The whole reshard, synchronously: begin, then commit; on a failed
    /// commit the migration is aborted so the service never stays stuck
    /// mid-reshard. The follower driver uses this to adopt a primary's
    /// new generation.
    pub fn reshard(&self, to_shards: u32) -> Result<ReshardStats, ServiceError> {
        self.reshard_begin(to_shards)?;
        self.reshard_commit().inspect_err(|_| {
            let _ = self.reshard_abort();
        })
    }

    /// Verify new-generation shards against a consistent dual snapshot.
    /// One pass decodes the entire serving keyspace, which already
    /// yields *every* new shard's projection — so a pass verifies all
    /// still-unverified shards at once, and only the shards in `which`
    /// gate the result (a mismatch elsewhere is left for its own
    /// request). Repeated `ReshardDigest` calls therefore pay one full
    /// decode total, not one per shard.
    fn verify_shards(&self, which: &[usize]) -> Result<(), ServiceError> {
        let (current, next, requested, todo) = {
            let g = self.inner.gens.read();
            let m = g.migration.as_ref().ok_or(ServiceError::NotResharding)?;
            let mut requested = Vec::new();
            for &j in which {
                if j >= m.next.shards.len() {
                    return Err(ServiceError::NoSuchShard {
                        shard: j as u32,
                        shards: m.next.router.shards(),
                    });
                }
                if !m.verified[j] {
                    requested.push(j);
                }
            }
            if requested.is_empty() {
                return Ok(());
            }
            let todo: Vec<usize> = m
                .verified
                .iter()
                .enumerate()
                .filter(|(_, v)| !**v)
                .map(|(j, _)| j)
                .collect();
            (Arc::clone(&g.current), Arc::clone(&m.next), requested, todo)
        };
        // The consistent cut. The generation *write* lock excludes the
        // workers — they hold the read lock for a whole batch, so no
        // batch is ever observed applied to one generation but not the
        // other (the gates alone would not give that: a worker holds no
        // gate in the instant between its old-generation and
        // new-generation applies). The gates are still taken to order
        // the copies against concurrent reconcile snapshots, which clone
        // the generation handle and then hold only a gate.
        let (old_snaps, new_snaps) = {
            let _g = self.inner.gens.write();
            let _old_gates: Vec<_> = current.shards.iter().map(|s| s.gate.write()).collect();
            let _new_gates: Vec<_> = todo.iter().map(|&j| next.shards[j].gate.write()).collect();
            let old: Vec<Iblt> = current.shards.iter().map(|s| s.table.snapshot()).collect();
            let new: Vec<Iblt> = todo
                .iter()
                .map(|&j| next.shards[j].table.snapshot())
                .collect();
            (old, new)
        };
        let routed = route_decoded(&old_snaps, &next.router)?;
        let mut mismatched = None;
        let mut matched = Vec::new();
        for (&j, new_snap) in todo.iter().zip(&new_snaps) {
            let mut projection = Iblt::new(*new_snap.config());
            let (inserts, deletes) = &routed[j];
            for &k in inserts {
                projection.insert(k);
            }
            for &k in deletes {
                projection.delete(k);
            }
            if projection == *new_snap {
                matched.push(j);
            } else if mismatched.is_none() && requested.contains(&j) {
                mismatched = Some(j);
            }
        }
        let mut g = self.inner.gens.write();
        if let Some(m) = &mut g.migration {
            if m.next.generation == next.generation {
                for &j in &matched {
                    m.verified[j] = true;
                }
            }
        }
        match mismatched {
            Some(j) => Err(ServiceError::ReshardUnverified { shard: j as u32 }),
            None => Ok(()),
        }
    }

    /// Live reshard gauges: generation number, migration phase, shard
    /// counts, keys moved, shards verified. The outcome counters
    /// (`completed` / `aborted`) are filled in here too, so this is the
    /// full [`ReshardStats`] block [`PeelService::metrics`] serves.
    pub fn reshard_status(&self) -> ReshardStats {
        let g = self.inner.gens.read();
        self.reshard_status_locked(&g)
    }

    fn reshard_status_locked(&self, g: &GenState) -> ReshardStats {
        let (resharding, to_shards, keys_moved, shards_verified) = match &g.migration {
            Some(m) => (
                true,
                m.next.router.shards(),
                m.keys_moved,
                m.verified.iter().filter(|v| **v).count() as u32,
            ),
            None => (
                false,
                g.current.router.shards(),
                self.inner.last_reshard_keys.load(Relaxed),
                0,
            ),
        };
        ReshardStats {
            generation: g.current.generation,
            resharding,
            serving_shards: g.current.router.shards(),
            to_shards,
            keys_moved,
            shards_verified,
            completed: self.inner.metrics.reshards_completed.load(Relaxed),
            aborted: self.inner.metrics.reshards_aborted.load(Relaxed),
        }
    }

    /// Point-in-time service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let inner = &self.inner;
        let (shards, reshard) = {
            let g = inner.gens.read();
            let shards = g
                .current
                .shards
                .iter()
                .map(|s| ShardStats {
                    epoch: s.epoch.load(Relaxed),
                    inserts: s.inserts.load(Relaxed),
                    deletes: s.deletes.load(Relaxed),
                })
                .collect();
            (shards, self.reshard_status_locked(&g))
        };
        let mut repl = inner.hub.stats();
        repl.leading = self.is_leading();
        repl.read_lag = self.replica_lag();
        MetricsSnapshot {
            queue_stalls: inner.queue.stalls(),
            ..inner.metrics.snapshot(shards, repl, reshard)
        }
    }

    /// Flush remaining ops, stop the workers, and join them. Idempotent.
    pub fn shutdown(&self) {
        self.seal_pending();
        // Close the hub first so replication senders parked in
        // `Subscription::recv` wake and drain before their connections
        // are torn down.
        self.inner.hub.close();
        self.inner.queue.close();
        let mut ws = self.workers.lock();
        for w in ws.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for PeelService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Index one generation's shard, mapping out-of-range to the
/// generation-aware `NoSuchShard`.
fn gen_shard(gen: &GenShards, shard: u32) -> Result<&Shard, ServiceError> {
    gen.shards
        .get(shard as usize)
        .ok_or(ServiceError::NoSuchShard {
            shard,
            shards: gen.router.shards(),
        })
}

/// Decode a generation's frozen shard snapshots and route the recovered
/// contents — positive keys (inserts) and uncompensated deletes — into
/// per-shard buckets of `router`'s generation. Decoding runs the
/// subround *parallel* recovery (the paper's engine — a reshard peels
/// whole shards, where it beats the serial path outright); the buckets
/// are key multisets, so recovery order never affects the re-keyed
/// cells. Errors if any snapshot does not decode completely.
#[allow(clippy::type_complexity)]
fn route_decoded(
    snaps: &[Iblt],
    router: &ShardRouter,
) -> Result<Vec<(Vec<u64>, Vec<u64>)>, ServiceError> {
    let mut out: Vec<(Vec<u64>, Vec<u64>)> = vec![Default::default(); router.shards() as usize];
    let mut ws = RecoveryWorkspace::new();
    for (i, snap) in snaps.iter().enumerate() {
        let rec = AtomicIblt::from_iblt(snap).par_recover_in(&mut ws);
        if !rec.complete {
            return Err(ServiceError::ReshardUndecodable { shard: i as u32 });
        }
        for &k in &rec.positive {
            out[router.shard_of(k)].0.push(k);
        }
        for &k in &rec.negative {
            out[router.shard_of(k)].1.push(k);
        }
    }
    Ok(out)
}

fn worker_loop(inner: &Inner) {
    while let Some((batch, wait_ns)) = inner.queue.pop_timed() {
        inner.metrics.queue_wait.record(wait_ns);
        let span = tracing::span(
            "batch_apply",
            &[
                ("ops", (batch.len() as u64).into()),
                ("queue_wait_ns", wait_ns.into()),
            ],
        );
        let _entered = span.enter();
        let apply_started = std::time::Instant::now();
        {
            // Hold the generation read lock for the whole batch: the
            // reshard transitions (write lock) then observe batch
            // boundaries, never a half-applied batch.
            let g = inner.gens.read();
            let router = g.router();
            let current = &g.current;
            let next = g.migration.as_ref().map(|m| &m.next);
            let mut buckets: Vec<Vec<Op>> = vec![Vec::new(); current.shards.len()];
            let mut next_buckets: Vec<Vec<Op>> =
                vec![Vec::new(); next.map_or(0, |n| n.shards.len())];
            for op in &batch {
                let (old_shard, new_shard) = router.route(op.key);
                buckets[old_shard].push(*op);
                if let Some(j) = new_shard {
                    next_buckets[j].push(*op);
                }
            }
            for (i, ops) in buckets.into_iter().enumerate() {
                current.apply_bucket(i, &ops);
            }
            if let Some(next) = next {
                for (j, ops) in next_buckets.into_iter().enumerate() {
                    next.apply_bucket(j, &ops);
                }
            }
        }
        inner
            .metrics
            .batch_apply
            .record(apply_started.elapsed().as_nanos() as u64);
        inner.metrics.batches_applied.fetch_add(1, Relaxed);
        inner
            .metrics
            .ops_applied
            .fetch_add(batch.len() as u64, Relaxed);
        inner.queue.task_done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::build_shard_digests;

    fn keys(n: u64, tag: u64) -> Vec<u64> {
        (0..n)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag)
            .collect()
    }

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            batch_size: 64,
            queue_depth: 4,
            workers: 2,
            ..ServiceConfig::for_diff_budget(4, 512)
        }
    }

    #[test]
    fn ingest_lands_in_the_right_shards() {
        let svc = PeelService::start(small_cfg());
        let ks = keys(300, 0xa);
        assert_eq!(svc.insert(&ks), 300);
        svc.flush();
        let m = svc.metrics();
        assert_eq!(m.ops_applied, 300);
        assert_eq!(m.shards.iter().map(|s| s.inserts).sum::<u64>(), 300);
        // Every shard's content decodes to exactly the keys routed to it.
        let parts = svc.router().partition(&ks);
        for (i, part) in parts.iter().enumerate() {
            let (_epoch, snap) = svc.snapshot_shard(i as u32).unwrap();
            let rec = snap.recover();
            assert!(rec.complete, "shard {i}");
            let mut got = rec.positive;
            got.sort_unstable();
            let mut want = part.clone();
            want.sort_unstable();
            assert_eq!(got, want, "shard {i}");
        }
    }

    #[test]
    fn reconcile_shard_decodes_the_difference() {
        let svc = PeelService::start(small_cfg());
        let shared = keys(5_000, 0xb);
        let local_only: Vec<u64> = (0..40u64).map(|i| 0x10c0_0000 | i).collect();
        let remote_only: Vec<u64> = (0..30u64).map(|i| 0x4e40_0000 | i).collect();

        let mut local = shared.clone();
        local.extend(&local_only);
        svc.insert(&local);
        svc.flush();

        let mut remote = shared;
        remote.extend(&remote_only);
        let hello = svc.hello();
        let digests =
            build_shard_digests(&remote, hello.shards, hello.router_seed, hello.base_config);

        let mut got_local = Vec::new();
        let mut got_remote = Vec::new();
        for (i, digest) in digests.iter().enumerate() {
            let d = svc.reconcile_shard(i as u32, digest).unwrap();
            assert!(d.complete, "shard {i}");
            assert!(d.epoch > 0 || d.only_local.is_empty());
            got_local.extend(d.only_local);
            got_remote.extend(d.only_remote);
        }
        got_local.sort_unstable();
        got_remote.sort_unstable();
        let mut want_local = local_only;
        want_local.sort_unstable();
        let mut want_remote = remote_only;
        want_remote.sort_unstable();
        assert_eq!(got_local, want_local);
        assert_eq!(got_remote, want_remote);

        let m = svc.metrics();
        assert_eq!(m.recoveries, 4);
        assert_eq!(m.recoveries_incomplete, 0);
        assert!(m.recovery_subrounds > 0);
        // Per-subround timing (ISSUE 4 satellite): the wall-time trace is
        // aligned with the key-count trace and sums into the total.
        assert!(m.recovery_latency.sum > 0);
        assert_eq!(m.last_recovery_trace_ns.len(), m.last_recovery_trace.len());
        assert!(m.recovery_latency.sum >= m.last_recovery_trace_ns.iter().sum::<u64>());
    }

    #[test]
    fn repeated_reconciles_reuse_the_scratch_pool() {
        // Sequential re-reconciles of an unchanged workload must keep
        // decoding the same diff (pool retargets configs across shards)
        // and leave exactly one pooled context behind.
        let svc = PeelService::start(small_cfg());
        let local = keys(3_000, 0x5c);
        svc.insert(&local);
        svc.flush();
        let hello = svc.hello();
        let mut remote = local.clone();
        remote.truncate(2_980); // 20 keys only-local
        let digests =
            build_shard_digests(&remote, hello.shards, hello.router_seed, hello.base_config);
        for round in 0..6 {
            let mut found = 0;
            for (i, d) in digests.iter().enumerate() {
                let diff = svc.reconcile_shard(i as u32, d).unwrap();
                assert!(diff.complete, "round {round} shard {i}");
                assert!(diff.only_remote.is_empty());
                found += diff.only_local.len();
            }
            assert_eq!(found, 20, "round {round}");
        }
        assert_eq!(
            svc.inner.scratch.lock().len(),
            1,
            "sequential reconciles share one context"
        );
        assert_eq!(svc.metrics().recoveries, 24);
    }

    #[test]
    fn bad_shard_and_bad_config_are_errors() {
        let svc = PeelService::start(small_cfg());
        let hello = svc.hello();
        let wrong = Iblt::new(IbltConfig::new(3, 10, 1));
        assert!(matches!(
            svc.reconcile_shard(99, &wrong),
            Err(ServiceError::NoSuchShard { shard: 99, .. })
        ));
        assert!(matches!(
            svc.reconcile_shard(0, &wrong),
            Err(ServiceError::ConfigMismatch { .. })
        ));
        // A digest with the *base* config is also wrong for shard 0 (the
        // per-shard seed differs) — exactly the client bug the check
        // exists to catch.
        let base = Iblt::new(hello.base_config);
        assert!(matches!(
            svc.reconcile_shard(0, &base),
            Err(ServiceError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn flush_applies_partial_batches() {
        let svc = PeelService::start(small_cfg());
        svc.insert(&[1, 2, 3]); // far below batch_size
        assert_eq!(svc.metrics().ops_applied, 0, "nothing sealed yet");
        svc.flush();
        assert_eq!(svc.metrics().ops_applied, 3);
    }

    #[test]
    fn ingest_continues_while_a_shard_recovers() {
        // Reconcile in a loop while another thread streams inserts; the
        // service must neither deadlock nor corrupt either side.
        let svc = std::sync::Arc::new(PeelService::start(small_cfg()));
        let hello = svc.hello();
        let base = keys(2_000, 0xc);
        svc.insert(&base);
        svc.flush();
        let digests =
            build_shard_digests(&base, hello.shards, hello.router_seed, hello.base_config);

        let racing: Vec<u64> = (0..256u64).map(|i| 0xface_0000 | i).collect();
        let ingester = {
            let svc = std::sync::Arc::clone(&svc);
            let racing = racing.clone();
            std::thread::spawn(move || {
                for chunk in racing.chunks(16) {
                    svc.insert(chunk);
                }
                svc.flush();
            })
        };
        for round in 0..8 {
            for (i, d) in digests.iter().enumerate() {
                let diff = svc.reconcile_shard(i as u32, d).unwrap();
                // Any key the racing ingester has landed shows up as
                // local-only; it must be one of the racing keys.
                for k in diff.only_local {
                    assert!(racing.contains(&k), "round {round}: stray key {k:#x}");
                }
                assert!(diff.only_remote.is_empty());
            }
        }
        ingester.join().unwrap();
        svc.flush();
        // After the dust settles: exactly the racing keys differ.
        let mut got = Vec::new();
        for (i, d) in digests.iter().enumerate() {
            let diff = svc.reconcile_shard(i as u32, d).unwrap();
            assert!(diff.complete);
            got.extend(diff.only_local);
        }
        got.sort_unstable();
        let mut want = racing;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn backpressure_stalls_are_counted() {
        // One slow-ish worker, capacity-1 queue, many batches.
        let cfg = ServiceConfig {
            batch_size: 8,
            queue_depth: 1,
            workers: 1,
            ..ServiceConfig::for_diff_budget(2, 64)
        };
        let svc = PeelService::start(cfg);
        svc.insert(&keys(4_096, 0xd));
        svc.flush();
        let m = svc.metrics();
        assert_eq!(m.ops_applied, 4_096);
        assert!(m.batches_applied >= 512);
        // With 512 batches through a depth-1 queue, some push stalled.
        assert!(m.queue_stalls > 0, "stalls = {}", m.queue_stalls);
    }

    #[test]
    fn shutdown_flushes_and_is_idempotent() {
        let svc = PeelService::start(small_cfg());
        svc.insert(&[10, 20, 30]);
        svc.shutdown();
        svc.shutdown();
        // The pending partial batch was sealed and applied before close.
        assert_eq!(svc.metrics().ops_applied, 3);
        // Post-shutdown submissions are dropped, not queued — including
        // sub-batch-size ones that would otherwise sit in the
        // accumulator forever while being reported accepted.
        assert_eq!(svc.insert(&keys(128, 0xe)), 0);
        assert_eq!(svc.insert(&[7, 8, 9]), 0);
        assert_eq!(svc.metrics().ops_applied, 3);
    }

    #[test]
    fn sealed_batches_are_teed_to_subscribers() {
        let svc = PeelService::start(small_cfg());
        let sub = svc.replication().subscribe();
        let ks = keys(150, 0xf);
        svc.insert(&ks);
        svc.flush();
        // The streamed batches carry consecutive sequence numbers and
        // exactly the submitted ops (150 keys = 2 full 64-op batches
        // plus the flush-sealed partial).
        let mut streamed = Vec::new();
        let mut seqs = Vec::new();
        while let Some(crate::replication::StreamItem::Batch(seq, b)) = sub.try_recv() {
            seqs.push(seq);
            streamed.extend(b.iter().map(|op| op.key));
        }
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "{seqs:?}");
        assert_eq!(seqs.len(), 3);
        streamed.sort_unstable();
        let mut want = ks;
        want.sort_unstable();
        assert_eq!(streamed, want);
        let m = svc.metrics();
        assert_eq!(m.replication.followers, 1);
        assert_eq!(m.replication.published_seq, 3);
    }

    #[test]
    fn ingest_batch_applies_directions_and_republishes() {
        let svc = PeelService::start(small_cfg());
        let sub = svc.replication().subscribe();
        let batch = vec![
            Op { key: 5, dir: 1 },
            Op { key: 9, dir: 1 },
            Op { key: 5, dir: -1 },
        ];
        assert!(svc.ingest_batch(batch.clone()));
        svc.flush();
        // Net content across all shards is exactly {9}.
        let mut content = Vec::new();
        for i in 0..svc.config().shards {
            let (_e, snap) = svc.snapshot_shard(i).unwrap();
            let rec = snap.recover();
            assert!(rec.complete && rec.negative.is_empty());
            content.extend(rec.positive);
        }
        assert_eq!(content, vec![9]);
        // The batch was re-published for chained followers, unaltered.
        match sub.try_recv().unwrap() {
            crate::replication::StreamItem::Batch(_, b) => assert_eq!(*b, batch),
            other => panic!("expected a batch, got {other:?}"),
        }
        // After shutdown replicated batches are refused, not lost silently.
        svc.shutdown();
        assert!(!svc.ingest_batch(vec![Op { key: 1, dir: 1 }]));
    }

    /// All keys the service holds, decoded shard by shard from the
    /// serving generation (asserting every shard decodes cleanly).
    fn decoded_content(svc: &PeelService) -> Vec<u64> {
        let mut content = Vec::new();
        for shard in 0..svc.shards() {
            let (_e, snap) = svc.snapshot_shard(shard).unwrap();
            let rec = snap.recover();
            assert!(rec.complete, "shard {shard} undecodable");
            assert!(rec.negative.is_empty(), "shard {shard} phantom deletes");
            content.extend(rec.positive);
        }
        content.sort_unstable();
        content
    }

    /// Cell-identical comparison against a from-scratch build at the
    /// same shard count.
    fn assert_cell_identical_to_fresh(svc: &PeelService, keys: &[u64]) {
        let fresh = PeelService::start(ServiceConfig {
            shards: svc.shards(),
            ..*svc.config()
        });
        fresh.insert(keys);
        fresh.flush();
        for shard in 0..svc.shards() {
            let (_e, a) = svc.snapshot_shard(shard).unwrap();
            let (_e, b) = fresh.snapshot_shard(shard).unwrap();
            assert_eq!(a, b, "shard {shard} not cell-identical to fresh build");
        }
    }

    #[test]
    fn reshard_splits_and_merges_with_identical_cells() {
        let svc = PeelService::start(ServiceConfig {
            batch_size: 64,
            queue_depth: 4,
            workers: 2,
            ..ServiceConfig::for_diff_budget(1, 2_048)
        });
        let ks = keys(900, 0x51);
        svc.insert(&ks);
        svc.flush();
        assert_eq!(svc.shards(), 1);
        assert_eq!(svc.generation(), 0);

        // Split 1 → 4.
        let status = svc.reshard(4).unwrap();
        assert!(!status.resharding);
        assert_eq!(status.serving_shards, 4);
        assert_eq!(status.keys_moved, 900);
        assert_eq!(status.completed, 1);
        assert_eq!(svc.shards(), 4);
        assert_eq!(svc.generation(), 1);
        assert_eq!(svc.hello().shards, 4);
        assert_eq!(decoded_content(&svc), {
            let mut want = ks.clone();
            want.sort_unstable();
            want
        });
        assert_cell_identical_to_fresh(&svc, &ks);

        // Merge 4 → 2.
        svc.reshard(2).unwrap();
        assert_eq!(svc.shards(), 2);
        assert_eq!(svc.generation(), 2);
        assert_cell_identical_to_fresh(&svc, &ks);

        // Merge back to 1: split-then-merge round-trips the routing, so
        // the single shard is cell-identical to the pre-split original.
        svc.reshard(1).unwrap();
        assert_eq!(svc.generation(), 3);
        assert_cell_identical_to_fresh(&svc, &ks);
    }

    #[test]
    fn reshard_dual_applies_racing_ingest() {
        let svc = std::sync::Arc::new(PeelService::start(ServiceConfig {
            batch_size: 32,
            queue_depth: 8,
            workers: 2,
            ..ServiceConfig::for_diff_budget(1, 4_096)
        }));
        let base = keys(1_000, 0x52);
        svc.insert(&base);
        svc.flush();

        // Begin the migration, then keep inserting while it is in
        // flight: every op must dual-apply to both generations.
        svc.reshard_begin(4).unwrap();
        assert!(svc.reshard_status().resharding);
        let racing: Vec<u64> = (0..500u64).map(|i| 0xace0_0000 | i).collect();
        let ingester = {
            let svc = std::sync::Arc::clone(&svc);
            let racing = racing.clone();
            std::thread::spawn(move || {
                for chunk in racing.chunks(16) {
                    svc.insert(chunk);
                }
                svc.flush();
            })
        };
        ingester.join().unwrap();
        let status = svc.reshard_commit().unwrap();
        assert_eq!(status.serving_shards, 4);
        assert_eq!(status.keys_moved, 1_000, "only pre-begin keys re-keyed");

        let mut want: Vec<u64> = base.iter().chain(racing.iter()).copied().collect();
        want.sort_unstable();
        assert_eq!(decoded_content(&svc), want);
        assert_cell_identical_to_fresh(&svc, &want);
    }

    #[test]
    fn reshard_abort_keeps_old_generation_authoritative() {
        let svc = PeelService::start(small_cfg());
        let ks = keys(600, 0x53);
        svc.insert(&ks);
        svc.flush();
        let before: Vec<Iblt> = (0..svc.shards())
            .map(|s| svc.snapshot_shard(s).unwrap().1)
            .collect();

        svc.reshard_begin(8).unwrap();
        // Mid-migration writes dual-apply...
        svc.insert(&[0xdead_0001, 0xdead_0002]);
        svc.flush();
        // ...and an abort drops the new generation with nothing lost.
        let status = svc.reshard_abort().unwrap();
        assert!(!status.resharding);
        assert_eq!(status.aborted, 1);
        assert_eq!(svc.shards(), 4);
        assert_eq!(svc.generation(), 0);
        let changed = before.iter().enumerate().any(|(s, old)| {
            let (_e, now) = svc.snapshot_shard(s as u32).unwrap();
            &now != old
        });
        assert!(
            changed,
            "mid-migration keys must land in the old generation"
        );
        let mut want = ks;
        want.extend([0xdead_0001, 0xdead_0002]);
        want.sort_unstable();
        assert_eq!(decoded_content(&svc), want);
    }

    #[test]
    fn reshard_control_errors_are_total() {
        let svc = PeelService::start(small_cfg());
        svc.insert(&keys(100, 0x54));
        svc.flush();
        // No migration in flight.
        assert!(matches!(
            svc.reshard_commit(),
            Err(ServiceError::NotResharding)
        ));
        assert!(matches!(
            svc.reshard_abort(),
            Err(ServiceError::NotResharding)
        ));
        assert!(matches!(
            svc.reshard_verify(0),
            Err(ServiceError::NotResharding)
        ));
        // Bad targets: zero, unchanged, hostile.
        assert!(matches!(
            svc.reshard_begin(0),
            Err(ServiceError::BadReshardTarget { to: 0 })
        ));
        assert!(matches!(
            svc.reshard_begin(4),
            Err(ServiceError::BadReshardTarget { to: 4 })
        ));
        assert!(matches!(
            svc.reshard_begin(MAX_RESHARD_SHARDS + 1),
            Err(ServiceError::BadReshardTarget { .. })
        ));
        // Begin is idempotent for the same target, an error for another.
        svc.reshard_begin(2).unwrap();
        assert!(svc.reshard_begin(2).unwrap().resharding);
        assert!(matches!(
            svc.reshard_begin(8),
            Err(ServiceError::ReshardInProgress { to: 2 })
        ));
        // Verify out-of-range new shard.
        assert!(matches!(
            svc.reshard_verify(7),
            Err(ServiceError::NoSuchShard {
                shard: 7,
                shards: 2
            })
        ));
        svc.reshard_commit().unwrap();
        assert_eq!(svc.shards(), 2);
    }

    #[test]
    fn reshard_verify_returns_projected_digests() {
        let svc = PeelService::start(ServiceConfig {
            batch_size: 64,
            queue_depth: 4,
            workers: 2,
            ..ServiceConfig::for_diff_budget(2, 1_024)
        });
        let ks = keys(400, 0x55);
        svc.insert(&ks);
        svc.flush();
        svc.reshard_begin(3).unwrap();
        // Each new shard's digest decodes to exactly the keys the new
        // routing sends there.
        let new_router = svc.router().resharded(3);
        let parts = new_router.partition(&ks);
        for j in 0..3u32 {
            let (_epoch, digest) = svc.reshard_verify(j).unwrap();
            let rec = digest.recover();
            assert!(rec.complete);
            let mut got = rec.positive;
            got.sort_unstable();
            let mut want = parts[j as usize].clone();
            want.sort_unstable();
            assert_eq!(got, want, "new shard {j}");
        }
        assert_eq!(svc.reshard_status().shards_verified, 3);
        svc.reshard_commit().unwrap();
    }

    #[test]
    fn reshard_undecodable_contents_roll_back() {
        // 64-key diff budget but thousands of resident keys: the serving
        // shard cannot decode, so begin must fail and leave everything
        // as it was.
        let svc = PeelService::start(ServiceConfig {
            batch_size: 256,
            queue_depth: 8,
            workers: 2,
            ..ServiceConfig::for_diff_budget(1, 64)
        });
        let ks = keys(5_000, 0x56);
        svc.insert(&ks);
        svc.flush();
        assert!(matches!(
            svc.reshard_begin(4),
            Err(ServiceError::ReshardUndecodable { .. })
        ));
        let status = svc.reshard_status();
        assert!(!status.resharding);
        assert_eq!(status.aborted, 1);
        assert_eq!(svc.shards(), 1);
        // Ingest still works (no dual-apply left behind).
        svc.insert(&[1, 2, 3]);
        svc.flush();
    }

    #[test]
    #[should_panic(expected = "wire frame cap")]
    fn oversized_shard_tables_are_rejected_at_start() {
        // ~2.8M cells serialize to ~67 MB — past the 16 MiB frame cap;
        // starting such a service must fail loudly, not let every later
        // Digest/Reconcile response die mid-write.
        let cfg = ServiceConfig::for_diff_budget(4, 1_000_000);
        let _ = PeelService::start(cfg);
    }
}

//! # peel-service — a sharded, batched set-reconciliation service on the
//! atomic IBLT
//!
//! The paper's headline application of parallel peeling is IBLT recovery
//! under concurrent atomic-XOR updates (Section 6). This crate wraps that
//! kernel — [`peel_iblt::AtomicIblt`] plus its subround parallel recovery
//! — in the layers a servable system needs:
//!
//! * **Shard router** ([`router`]): a keyspace partitioned across `S`
//!   independent IBLT shards, each with its own hash seed and a per-shard
//!   epoch counter. Routing is pure arithmetic over handshake values, so
//!   clients shard identically without coordination.
//! * **Batched ingest** ([`service`], [`queue`]): submitted insert/delete
//!   ops accumulate into fixed-size batches, flow through a bounded queue
//!   (backpressure), and are applied by a worker pool via the atomic
//!   `fetch_add`/`fetch_xor` paths — the paper's concurrent-update model,
//!   operated as a pipeline.
//! * **Epoch-based recovery scheduler** ([`service`]): reconciliation
//!   snapshots a shard (a gated cell copy, not a stop-the-world), subtracts
//!   the peer's digest, and runs subround parallel recovery on the frozen
//!   copy while ingest keeps flowing. Results carry the snapshot epoch.
//! * **Wire protocol** ([`wire`]): length-prefixed binary frames over
//!   `std::net` TCP — `Hello`/`Insert`/`Delete`/`Flush`/`Digest`/
//!   `Reconcile`/`Stats`/`Shutdown` — with total, panic-free decoding.
//! * **Server & client** ([`server`], [`reactor`], [`client`]): a TCP
//!   server that serves every connection from one readiness loop
//!   (`peel-server` binary) and a typed client whose
//!   [`client::Client::reconcile`] runs the whole per-shard protocol.
//! * **Replication** ([`replication`], [`follower`], [`transport`]):
//!   primary→follower replication with the sealed-batch stream as the
//!   fast path (`Subscribe`/`Replicate`/`ReplicateAck` frames, teed off
//!   the ingest pipeline without blocking it) and periodic IBLT
//!   anti-entropy via the existing `Reconcile` machinery as the repair
//!   path — a follower that missed arbitrary frames provably converges.
//!   `peel-server --follow <addr>` runs a serving follower.
//! * **Live resharding** ([`service`], [`router`]): the shard count is
//!   a mutable property of a running service. A reshard re-keys the
//!   contents into a new *generation* of shards through the same
//!   decode/re-route machinery reconciliation uses: snapshot under the
//!   apply gates, dual-apply racing writes to both generations, verify
//!   each new shard cell-identical to its projection, then cut over
//!   atomically — driven over the wire by the protocol-v4
//!   `ReshardBegin`/`ReshardDigest`/`ReshardCommit`/`ReshardAbort`
//!   frames ([`client::Client::reshard`]). Followers adopt a primary's
//!   new generation automatically.
//! * **Metrics & observability** ([`metrics`], [`prom`], [`recorder`]):
//!   per-shard op counts and epochs, batch occupancy, queue stalls,
//!   per-follower replication lag, reshard phase/keys-moved/generation
//!   gauges, and the per-subround recovery traces the paper's
//!   Tables 5–6 analyze — observable over the wire via `Stats` — plus
//!   lock-free log-bucketed latency histograms (request by frame class,
//!   queue wait, batch apply, recovery, replication lag), structured
//!   tracing spans through every layer (`vendor/tracing`), Prometheus
//!   text exposition (the `MetricsText` frame and `peel-server
//!   --metrics-addr`), and a seqlock-ring flight recorder dumped by the
//!   `DebugDump` frame and the server's panic hook. Every exported
//!   family is one row of [`metrics::FAMILIES`]; the `Stats` frame,
//!   the Prometheus body and the README metric reference all derive
//!   from that table.
//!
//! ## Why the table stays small
//!
//! A shard's IBLT is sized for the expected *difference* against a peer,
//! not for the ingested volume: inserting a million keys into a
//! 2 000-cell shard is fine, because reconciliation subtracts a peer
//! digest that cancels everything common before recovery runs. That is
//! the Eppstein et al. O(d) set-reconciliation guarantee, served.
//!
//! ## Example (in-process; see `examples/reconcile_service.rs` for the
//! two-process version)
//!
//! ```
//! use peel_service::server::Server;
//! use peel_service::client::Client;
//! use peel_service::service::ServiceConfig;
//!
//! let server = Server::bind("127.0.0.1:0", ServiceConfig::for_diff_budget(4, 256)).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! // Server holds keys 0..1000 and 5000; client holds 0..1000 and 6000.
//! let mut server_keys: Vec<u64> = (0..1000).collect();
//! server_keys.push(5000);
//! client.insert(&server_keys).unwrap();
//! client.flush().unwrap();
//!
//! let mut client_keys: Vec<u64> = (0..1000).collect();
//! client_keys.push(6000);
//! let diff = client.reconcile(&client_keys).unwrap();
//! assert!(diff.complete);
//! assert_eq!(diff.only_server, vec![5000]);
//! assert_eq!(diff.only_client, vec![6000]);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod follower;
// The lock helpers and the sync indirection are implementation details,
// but the loom model suites (tests/loom_lock.rs and friends) need to
// drive them directly — so under the model-checking cfg they are public.
#[cfg(loom)]
pub mod lock;
#[cfg(not(loom))]
mod lock;
pub mod metrics;
pub mod prom;
pub mod queue;
pub mod reactor;
pub mod recorder;
pub mod replication;
pub mod router;
pub mod server;
pub mod service;
#[cfg(loom)]
pub mod sync;
#[cfg(not(loom))]
pub(crate) mod sync;
pub mod transport;
pub mod wire;

pub use client::{read_from_mesh, Client, ReadOutcome, ServiceDiff};
pub use follower::{
    anti_entropy_round, apply_repairs, collect_repairs, elect, Candidate, Follower, FollowerConfig,
};
pub use metrics::{
    AtomicHistogram, FollowerStats, HistogramSnapshot, Metrics, MetricsSnapshot, ReplicationStats,
    ReshardStats, ShardStats,
};
pub use reactor::ReactorConfig;
pub use recorder::{FlightRecord, FlightRecorder};
pub use replication::{
    apply_replication_stream, ReplicationHub, StreamConfig, StreamItem, Subscription,
};
pub use router::{build_shard_digests, shard_iblt_config, GenerationRouter, ShardRouter};
pub use server::{handle_request, Server};
pub use service::{PeelService, ServiceConfig, ServiceError, MAX_RESHARD_SHARDS};
pub use transport::{FaultPlan, FramedTcp, SimTransport, Transport};
pub use wire::{HelloInfo, ReplicaStatus, Request, Response, ShardDiff, WireError};

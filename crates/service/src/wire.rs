//! Length-prefixed binary wire protocol for the reconciliation service.
//!
//! Every message travels as one **frame**: a little-endian `u32` payload
//! length followed by the payload; the payload's first byte is a message
//! tag. Frames are capped at [`MAX_FRAME`] bytes so a corrupt or hostile
//! length prefix cannot trigger an unbounded allocation. All decoding is
//! total: truncated, oversized, or malformed input returns a
//! [`WireError`] — it never panics — which the round-trip and corruption
//! property tests in `tests/proptest_wire.rs` enforce.
//!
//! The protocol is deliberately `std`-only (no serde — crates.io is
//! unavailable in this build environment) and versioned by a magic byte in
//! the `Hello` exchange so future revisions can detect mismatches.

use std::fmt;
use std::io::{self, Read, Write};

use peel_iblt::{Cell, Iblt, IbltConfig};

use crate::metrics::{
    family, FollowerStats, HistogramSnapshot, MetricsSnapshot, ReshardStats, ShardStats, Source,
    FAMILIES, HISTOGRAM_BUCKETS,
};
use crate::queue::Op;
use crate::recorder::FlightRecord;

/// Maximum frame payload size (16 MiB). Large enough for an IBLT digest of
/// hundreds of thousands of cells; small enough that a garbage length
/// prefix cannot exhaust memory.
pub const MAX_FRAME: usize = 16 << 20;

/// Protocol revision carried in `Hello` responses. Revision 2 added the
/// replication frames (`Subscribe`, `Replicate`, `ReplicateAck`) and the
/// replication block of `Stats`; revision 3 added the recovery timing
/// fields of `Stats` (`recovery_ns`, `last_recovery_trace_ns`);
/// revision 4 added the live-resharding frames (`ReshardBegin`,
/// `ReshardDigest`, `ReshardCommit`, `ReshardAbort`), the `Reshard` and
/// sparse-encoded `DigestSparse` responses, and the reshard block of
/// `Stats`; revision 5 added the observability frames (`MetricsText`,
/// `DebugDump`) and the histogram + per-follower blocks of `Stats`;
/// revision 6 added the replica-mesh machinery: the replication epoch
/// carried in `Hello`, `Replicate`, and `ReplicateAck` (fencing stale
/// primaries), cumulative window acks, the `ReplicaStatus` election
/// probe, the `ReadDigest`/`ReadStale` converged-read pair, the
/// in-stream `GenerationChange` notice, the `as_of_seq` stamp on shard
/// diffs, and the epoch + fencing block of `Stats`. v5 and v6 ends
/// refuse each other cleanly at the `Hello` exchange: the epoch field
/// sits at the tail of the `Hello` payload, so a v5 decoder sees
/// trailing bytes and a v6 decoder sees a truncated message. Revision 7
/// added the connection block of `Stats` (live/accepted/refused/
/// idle-reaped counts and accept-error totals from the reactor server);
/// the `Hello` layout is unchanged, and a v6 peer refuses a v7 `Stats`
/// frame at the trailing-bytes check rather than at the handshake.
/// Revision 8 made `Stats` self-describing: scalars and histograms
/// travel as entries named by their metric family (see `put_stats`), a
/// decoder skips names it does not know and reads absent ones as 0, so
/// adding a metric no longer bumps the protocol. The frame moved to a
/// new tag, so v7 and v8 peers refuse each other's `Stats` with
/// [`WireError::BadTag`]; the trace, shard and follower blocks keep
/// their positional layout, and v8 dropped the `recovery_ns` total
/// (the `recovery_latency` histogram's sum).
pub const PROTOCOL_VERSION: u8 = 8;

/// Everything that can go wrong encoding, decoding, or transporting a
/// message.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/file error.
    Io(io::Error),
    /// The payload ended before the message did (truncated frame).
    UnexpectedEof,
    /// A frame announced a payload larger than [`MAX_FRAME`].
    FrameTooLarge(u64),
    /// Unknown message or enum tag.
    BadTag(u8),
    /// A length field is inconsistent with the bytes actually present.
    BadLength(u64),
    /// Decoded bytes violate an invariant (e.g. an IBLT config with fewer
    /// than two hash functions).
    Malformed(String),
    /// The message decoded but left unconsumed trailing bytes.
    TrailingBytes(usize),
    /// The peer answered with a protocol-level `Error` response.
    Remote(String),
    /// The peer answered with a response of the wrong kind.
    UnexpectedResponse(&'static str),
    /// A read or write missed its socket deadline (the peer is up but
    /// stalled). Distinct from [`WireError::Io`] so callers can retry or
    /// fail over instead of treating the peer as dead.
    TimedOut,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::UnexpectedEof => write!(f, "truncated message"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadLength(n) => write!(f, "length field {n} inconsistent with payload"),
            WireError::Malformed(m) => write!(f, "malformed message: {m}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::Remote(m) => write!(f, "server error: {m}"),
            WireError::UnexpectedResponse(k) => write!(f, "unexpected response kind: {k}"),
            WireError::TimedOut => write!(f, "socket deadline elapsed"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        // A clean EOF mid-frame is a truncation, not a transport fault.
        match e.kind() {
            io::ErrorKind::UnexpectedEof => WireError::UnexpectedEof,
            // Both kinds surface from an elapsed SO_RCVTIMEO/SO_SNDTIMEO
            // depending on platform.
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => WireError::TimedOut,
            _ => WireError::Io(e),
        }
    }
}

/// Service parameters a client learns from the `Hello` handshake —
/// everything needed to route keys and build compatible shard digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloInfo {
    /// Protocol revision ([`PROTOCOL_VERSION`]).
    pub version: u8,
    /// Number of shards.
    pub shards: u32,
    /// Seed of the key → shard router.
    pub router_seed: u64,
    /// Base IBLT config; shard `i` uses `shard_iblt_config(base, i)`.
    pub base_config: IbltConfig,
    /// Ingest batch size (advisory; helps clients pick frame sizes).
    pub batch_size: u32,
    /// Replication epoch this node is fenced at (protocol v6). Encoded
    /// at the tail of the `Hello` payload so a v5 peer refuses a v6
    /// handshake (trailing bytes) and vice versa (truncation).
    pub epoch: u64,
}

/// A replica's mesh status — the answer to [`Request::ReplicaStatus`]
/// and the input to the deterministic failover election
/// ([`crate::follower::elect`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// This node's mesh id (election ties break to the lowest).
    pub node_id: u64,
    /// Replication epoch this node is fenced at.
    pub epoch: u64,
    /// True iff this node currently believes it is the primary.
    pub leading: bool,
    /// Highest replicated sequence number applied locally.
    pub last_applied: u64,
    /// True iff this replica's lag gauge reads zero (reads served here
    /// are as fresh as the stream has delivered).
    pub converged: bool,
    /// Shard count of the serving generation.
    pub shards: u32,
    /// Where this node believes the primary lives (empty when unknown,
    /// or when this node is the primary itself).
    pub primary: String,
}

/// Decoded symmetric difference for one shard, stamped with the epoch of
/// the snapshot it was computed from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardDiff {
    /// Which shard.
    pub shard: u32,
    /// Shard epoch (applied-batch count) at snapshot time.
    pub epoch: u64,
    /// True iff the difference decoded completely.
    pub complete: bool,
    /// Parallel subrounds the recovery took.
    pub subrounds: u32,
    /// Keys only in the server's shard (sorted).
    pub only_local: Vec<u64>,
    /// Keys only in the peer digest (sorted).
    pub only_remote: Vec<u64>,
    /// Highest replication sequence number the server had published
    /// when the snapshot was taken (protocol v6). A follower whose
    /// stream has applied at least this sequence knows the diff is an
    /// exact residual — nothing in it is still in flight on the stream —
    /// so repair can filter exactly instead of deferring heuristically.
    pub as_of_seq: u64,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Ask for the service parameters.
    Hello,
    /// Insert a batch of keys.
    Insert(Vec<u64>),
    /// Delete a batch of keys.
    Delete(Vec<u64>),
    /// Block until every previously submitted op is applied.
    Flush,
    /// Fetch a snapshot digest of one shard.
    Digest {
        /// Shard index.
        shard: u32,
    },
    /// Reconcile one shard against a peer digest: the server snapshots the
    /// shard, subtracts `digest`, runs parallel recovery, and returns the
    /// symmetric difference.
    Reconcile {
        /// Shard index.
        shard: u32,
        /// The peer's digest of its own keys for this shard (must use the
        /// shard's config from the `Hello` handshake).
        digest: Iblt,
    },
    /// Fetch service metrics.
    Stats,
    /// Ask the server process to shut down cleanly.
    Shutdown,
    /// Register this connection as a replication follower. The server
    /// answers `Ok` once, then streams [`Response::Replicate`] frames
    /// down the same connection; the follower answers each with
    /// [`Request::ReplicateAck`].
    Subscribe {
        /// Highest replicated sequence number the follower has already
        /// applied (0 for a fresh follower); batches at or below it are
        /// not re-streamed.
        last_seq: u64,
    },
    /// Follower → primary: a cumulative acknowledgment of the
    /// `Replicate` stream, carrying the highest sequence number applied
    /// so far (which is how the primary measures replication lag and
    /// retires its retransmit window — one ack can clear many unacked
    /// frames). The epoch fences in both directions: an ack carrying an
    /// epoch above the sender's tells a stale primary it has been
    /// deposed.
    ReplicateAck {
        /// Replication epoch the follower is fenced at (protocol v6).
        epoch: u64,
        /// Highest sequence number the follower has applied.
        seq: u64,
    },
    /// Begin a live reshard to `to_shards` shards (protocol v4). The
    /// server snapshots every serving shard under the apply gates, turns
    /// on dual-apply, and re-keys the recovered contents into the new
    /// generation before answering with a [`Response::Reshard`] status.
    /// Idempotent while a migration to the same target is in flight.
    ReshardBegin {
        /// Target shard count of the new generation (≥ 1).
        to_shards: u32,
    },
    /// Verify one new-generation shard (its contents must be
    /// cell-identical to the projection of the serving contents under
    /// the new routing) and return its digest, sparse-encoded
    /// ([`Response::DigestSparse`]). Only meaningful during a migration.
    ReshardDigest {
        /// New-generation shard index.
        shard: u32,
    },
    /// Cut over to the new generation: verify every still-unverified
    /// shard, then atomically swap the serving generation. Answers with
    /// the post-commit [`Response::Reshard`] status, or an `Error` if
    /// verification fails (the migration stays in flight for a retry or
    /// an abort).
    ReshardCommit,
    /// Drop the in-flight migration and keep serving the old generation
    /// (which dual-apply kept authoritative — no key is lost).
    ReshardAbort,
    /// Fetch every counter, gauge, and histogram rendered in the
    /// Prometheus text exposition format (protocol v5) — the same body
    /// the optional `--metrics-addr` HTTP listener serves.
    MetricsText,
    /// Dump the flight recorder: the last N structured tracing events
    /// the server recorded (protocol v5). Empty when no recorder is
    /// installed.
    DebugDump,
    /// Ask a replica for its mesh status — node id, epoch, role,
    /// applied sequence, convergence — the probe the failover election
    /// polls (protocol v6).
    ReplicaStatus,
    /// A convergence-gated digest read (protocol v6): serve the shard
    /// digest only if this replica's lag gauge is within `max_lag`
    /// sealed batches; otherwise answer [`Response::ReadStale`] with a
    /// redirect toward the primary.
    ReadDigest {
        /// Shard index.
        shard: u32,
        /// Largest acceptable replication lag, in sealed batches.
        max_lag: u64,
    },
}

impl Request {
    /// Short static name of the frame (span labels, debug output).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Hello => "hello",
            Request::Insert(_) => "insert",
            Request::Delete(_) => "delete",
            Request::Flush => "flush",
            Request::Digest { .. } => "digest",
            Request::Reconcile { .. } => "reconcile",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::Subscribe { .. } => "subscribe",
            Request::ReplicateAck { .. } => "replicate_ack",
            Request::ReshardBegin { .. } => "reshard_begin",
            Request::ReshardDigest { .. } => "reshard_digest",
            Request::ReshardCommit => "reshard_commit",
            Request::ReshardAbort => "reshard_abort",
            Request::MetricsText => "metrics_text",
            Request::DebugDump => "debug_dump",
            Request::ReplicaStatus => "replica_status",
            Request::ReadDigest { .. } => "read_digest",
        }
    }

    /// The shard a frame names, if any (span labelling).
    pub fn shard_hint(&self) -> Option<u32> {
        match self {
            Request::Digest { shard }
            | Request::Reconcile { shard, .. }
            | Request::ReshardDigest { shard }
            | Request::ReadDigest { shard, .. } => Some(*shard),
            _ => None,
        }
    }

    /// The request-latency histogram class this frame is recorded
    /// under (an index into [`REQUEST_CLASSES`]).
    pub fn class_index(&self) -> usize {
        match self {
            Request::Hello => 0,
            Request::Insert(_) | Request::Delete(_) => 1,
            Request::Flush => 2,
            Request::Digest { .. } | Request::ReadDigest { .. } => 3,
            Request::Reconcile { .. } => 4,
            Request::Stats | Request::MetricsText | Request::DebugDump | Request::ReplicaStatus => {
                5
            }
            Request::ReshardBegin { .. }
            | Request::ReshardDigest { .. }
            | Request::ReshardCommit
            | Request::ReshardAbort => 6,
            Request::Shutdown | Request::Subscribe { .. } | Request::ReplicateAck { .. } => 7,
        }
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Service parameters.
    Hello(HelloInfo),
    /// Generic acknowledgement; `accepted` counts the keys enqueued.
    Ok {
        /// Number of keys accepted (0 for ops without a count).
        accepted: u64,
    },
    /// A shard snapshot: epoch + serial IBLT.
    Digest {
        /// Shard epoch at snapshot time.
        epoch: u64,
        /// The snapshot.
        iblt: Iblt,
    },
    /// The decoded per-shard symmetric difference.
    Diff(ShardDiff),
    /// Service metrics.
    Stats(Box<MetricsSnapshot>),
    /// The request failed; human-readable reason.
    Error(String),
    /// Primary → follower: one sealed ingest batch, streamed on a
    /// subscribed connection. Sequence numbers start at 1 and increase
    /// by one per sealed batch; the follower uses them to drop
    /// duplicates and to resume after a reconnect. The epoch fences
    /// stale primaries: a follower at a higher epoch rejects the frame
    /// (and acks back its own epoch to depose the sender).
    Replicate {
        /// Replication epoch of the sending primary (protocol v6).
        epoch: u64,
        /// The batch's replication sequence number.
        seq: u64,
        /// The batch, in the ingest queue's shape.
        ops: Vec<Op>,
    },
    /// Reshard status (answer to the `Reshard*` control frames):
    /// generation number, migration phase, keys moved, shards verified.
    Reshard(ReshardStats),
    /// A shard digest in the sparse encoding (empty cells skipped) —
    /// the usual answer to `ReshardDigest`, where freshly populated
    /// shards are lightly loaded and the dense cell array would be
    /// mostly zeros. Servers answer with the dense [`Response::Digest`]
    /// instead when that form is smaller (see
    /// [`sparse_is_smaller`]), so clients accept either.
    DigestSparse {
        /// Shard epoch at snapshot time.
        epoch: u64,
        /// The snapshot.
        iblt: Iblt,
    },
    /// The metrics in Prometheus text exposition format (protocol v5).
    MetricsText(String),
    /// The flight-recorder dump, oldest record first (protocol v5).
    DebugDump(Vec<FlightRecord>),
    /// A replica's mesh status (answer to [`Request::ReplicaStatus`],
    /// protocol v6).
    ReplicaStatus(ReplicaStatus),
    /// This replica is too far behind to serve the requested read
    /// (protocol v6): its lag exceeded the `max_lag` bound of a
    /// [`Request::ReadDigest`]. `redirect` names a node believed to be
    /// fresher (usually the primary); empty when unknown.
    ReadStale {
        /// The replica's current lag, in sealed batches.
        lag: u64,
        /// Address of a fresher node to retry against (may be empty).
        redirect: String,
    },
    /// In-stream notice that the primary resharded (protocol v6):
    /// followers that see it adopt the new shard count immediately, so
    /// a whole follower chain cuts over together instead of each node
    /// discovering the change on its next anti-entropy round.
    GenerationChange {
        /// Replication epoch of the sending primary.
        epoch: u64,
        /// The new generation number.
        generation: u64,
        /// Shard count of the new generation.
        shards: u32,
    },
}

// --- Primitive cursor ------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        // Bounds-checked split instead of indexing: decode paths are a
        // panic-free zone (`cargo xtask lint` enforces it), and `get`
        // makes the no-panic property local instead of resting on the
        // `remaining()` guard above it.
        let rest = self.buf.get(self.pos..).ok_or(WireError::UnexpectedEof)?;
        let s = rest.get(..n).ok_or(WireError::UnexpectedEof)?;
        self.pos += n;
        Ok(s)
    }

    /// `take(N)` as a fixed-size array — total, so the integer readers
    /// below need no `try_into().unwrap()` bridge.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A `u32` element count, validated against the bytes actually left so
    /// a corrupt count cannot cause a huge up-front allocation.
    fn len(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(WireError::BadLength(n as u64));
        }
        Ok(n)
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// A metric entry name: borrowed, UTF-8, at most
    /// [`MAX_METRIC_NAME`] bytes.
    fn metric_name(&mut self) -> Result<&'a str, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_METRIC_NAME {
            return Err(WireError::BadLength(n as u64));
        }
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| WireError::Malformed("invalid UTF-8 in metric name".into()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("invalid UTF-8 in string".into()))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64_vec(out: &mut Vec<u8>, v: &[u64]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u64(out, x);
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// --- IBLT (de)serialization ------------------------------------------------

fn put_config(out: &mut Vec<u8>, cfg: &IbltConfig) {
    put_u32(out, cfg.hashes as u32);
    put_u64(out, cfg.cells_per_table as u64);
    put_u64(out, cfg.seed);
}

fn read_config(r: &mut Reader) -> Result<IbltConfig, WireError> {
    let hashes = r.u32()? as usize;
    let cells_per_table = r.u64()? as usize;
    let seed = r.u64()?;
    // `IbltConfig::new` asserts these; validate so hostile input errors
    // instead of panicking.
    if hashes < 2 {
        return Err(WireError::Malformed(format!(
            "IBLT config needs ≥ 2 hash functions, got {hashes}"
        )));
    }
    if cells_per_table == 0 {
        return Err(WireError::Malformed("IBLT config with 0 cells".into()));
    }
    // 24 wire bytes per cell must fit in a frame.
    let total = hashes.saturating_mul(cells_per_table);
    if total.saturating_mul(24) > MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "IBLT of {total} cells exceeds the frame cap"
        )));
    }
    Ok(IbltConfig::new(hashes, cells_per_table, seed))
}

/// Serialize a serial IBLT (config + raw cells).
fn encode_iblt(out: &mut Vec<u8>, t: &Iblt) {
    put_config(out, t.config());
    for c in t.cells() {
        put_i64(out, c.count);
        put_u64(out, c.key_sum);
        put_u64(out, c.check_sum);
    }
}

/// Decode a serial IBLT. The cell count is implied by the config; the
/// payload must contain exactly that many cells.
fn decode_iblt(r: &mut Reader) -> Result<Iblt, WireError> {
    let cfg = read_config(r)?;
    let total = cfg.total_cells();
    if r.remaining() < total * 24 {
        return Err(WireError::UnexpectedEof);
    }
    let mut cells = Vec::with_capacity(total);
    for _ in 0..total {
        cells.push(Cell {
            count: r.i64()?,
            key_sum: r.u64()?,
            check_sum: r.u64()?,
        });
    }
    let mut t = Iblt::new(cfg);
    t.overwrite_cells(cells);
    Ok(t)
}

/// Serialize an IBLT sparsely: config, then only the non-empty cells as
/// `(u32 index, cell)` pairs in ascending index order. On lightly loaded
/// tables (a freshly split shard, an anti-entropy digest after
/// convergence) this is a fraction of the dense form's
/// 24-bytes-per-cell; on full tables it costs 4 extra bytes per cell,
/// which is why the dense form remains the default for `Digest`.
fn encode_iblt_sparse(out: &mut Vec<u8>, t: &Iblt) {
    put_config(out, t.config());
    let cells = t.cells();
    let nonzero = cells.iter().filter(|c| !cell_is_empty(c)).count();
    put_u32(out, nonzero as u32);
    for (i, c) in cells.iter().enumerate() {
        if cell_is_empty(c) {
            continue;
        }
        put_u32(out, i as u32);
        put_i64(out, c.count);
        put_u64(out, c.key_sum);
        put_u64(out, c.check_sum);
    }
}

fn cell_is_empty(c: &Cell) -> bool {
    c.count == 0 && c.key_sum == 0 && c.check_sum == 0
}

/// True iff the sparse encoding of `t` beats the dense one (28 bytes
/// per non-empty cell + a count, vs a flat 24 per cell). Servers use
/// this to pick the digest encoding: past ~6/7 occupancy sparse *loses*
/// — and could even exceed [`MAX_FRAME`] on tables the service's
/// start-time cap assert (which covers the dense form only) accepted —
/// so the dense form, guaranteed to fit, is the fallback.
pub fn sparse_is_smaller(t: &Iblt) -> bool {
    let nonzero = t.cells().iter().filter(|c| !cell_is_empty(c)).count();
    4 + nonzero * 28 < t.cells().len() * 24
}

/// Decode a sparsely encoded IBLT. Total: indexes must be in-range and
/// strictly increasing (so hostile input can neither write one cell
/// twice nor smuggle an unsorted permutation past an equality check),
/// and the pair count is validated against the bytes present.
fn decode_iblt_sparse(r: &mut Reader) -> Result<Iblt, WireError> {
    let cfg = read_config(r)?;
    let total = cfg.total_cells();
    // 28 wire bytes per (index, cell) pair.
    let n = r.len(28)?;
    if n > total {
        return Err(WireError::BadLength(n as u64));
    }
    let mut cells = vec![Cell::default(); total];
    let mut prev: Option<usize> = None;
    for _ in 0..n {
        let idx = r.u32()? as usize;
        if prev.is_some_and(|p| idx <= p) {
            return Err(WireError::Malformed(format!(
                "sparse cell index {idx} out of order or out of range"
            )));
        }
        prev = Some(idx);
        let slot = cells.get_mut(idx).ok_or_else(|| {
            WireError::Malformed(format!(
                "sparse cell index {idx} out of order or out of range"
            ))
        })?;
        *slot = Cell {
            count: r.i64()?,
            key_sum: r.u64()?,
            check_sum: r.u64()?,
        };
    }
    let mut t = Iblt::new(cfg);
    t.overwrite_cells(cells);
    Ok(t)
}

// --- Messages ---------------------------------------------------------------

const REQ_HELLO: u8 = 0x01;
const REQ_INSERT: u8 = 0x02;
const REQ_DELETE: u8 = 0x03;
const REQ_FLUSH: u8 = 0x04;
const REQ_DIGEST: u8 = 0x05;
const REQ_RECONCILE: u8 = 0x06;
const REQ_STATS: u8 = 0x07;
const REQ_SHUTDOWN: u8 = 0x08;
const REQ_SUBSCRIBE: u8 = 0x09;
const REQ_REPLICATE_ACK: u8 = 0x0a;
const REQ_RESHARD_BEGIN: u8 = 0x0b;
const REQ_RESHARD_DIGEST: u8 = 0x0c;
const REQ_RESHARD_COMMIT: u8 = 0x0d;
const REQ_RESHARD_ABORT: u8 = 0x0e;
const REQ_METRICS_TEXT: u8 = 0x0f;
const REQ_DEBUG_DUMP: u8 = 0x10;
const REQ_REPLICA_STATUS: u8 = 0x11;
const REQ_READ_DIGEST: u8 = 0x12;

const RESP_HELLO: u8 = 0x81;
const RESP_OK: u8 = 0x82;
const RESP_DIGEST: u8 = 0x83;
const RESP_DIFF: u8 = 0x84;
// 0x85 carried the positional `Stats` layout of v1–v7; retired so a
// mismatched peer gets a clean `BadTag` instead of a mis-read.
const RESP_STATS: u8 = 0x8f;
const RESP_ERROR: u8 = 0x86;
const RESP_REPLICATE: u8 = 0x87;
const RESP_RESHARD: u8 = 0x88;
const RESP_DIGEST_SPARSE: u8 = 0x89;
const RESP_METRICS_TEXT: u8 = 0x8a;
const RESP_DEBUG_DUMP: u8 = 0x8b;
const RESP_REPLICA_STATUS: u8 = 0x8c;
const RESP_READ_STALE: u8 = 0x8d;
const RESP_GENERATION_CHANGE: u8 = 0x8e;

// Wire encoding of one ingest op: 8-byte key + 1-byte direction.
const OP_BYTES: usize = 9;
const OP_DELETE: u8 = 0;
const OP_INSERT: u8 = 1;

fn put_ops(out: &mut Vec<u8>, ops: &[Op]) {
    put_u32(out, ops.len() as u32);
    for op in ops {
        put_u64(out, op.key);
        out.push(if op.dir > 0 { OP_INSERT } else { OP_DELETE });
    }
}

fn read_ops(r: &mut Reader) -> Result<Vec<Op>, WireError> {
    let n = r.len(OP_BYTES)?;
    (0..n)
        .map(|_| {
            let key = r.u64()?;
            let dir = match r.u8()? {
                OP_INSERT => 1,
                OP_DELETE => -1,
                t => return Err(WireError::BadTag(t)),
            };
            Ok(Op { key, dir })
        })
        .collect()
}

/// Encode a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Hello => out.push(REQ_HELLO),
        Request::Insert(keys) => {
            out.push(REQ_INSERT);
            put_u64_vec(&mut out, keys);
        }
        Request::Delete(keys) => {
            out.push(REQ_DELETE);
            put_u64_vec(&mut out, keys);
        }
        Request::Flush => out.push(REQ_FLUSH),
        Request::Digest { shard } => {
            out.push(REQ_DIGEST);
            put_u32(&mut out, *shard);
        }
        Request::Reconcile { shard, digest } => {
            out.push(REQ_RECONCILE);
            put_u32(&mut out, *shard);
            encode_iblt(&mut out, digest);
        }
        Request::Stats => out.push(REQ_STATS),
        Request::Shutdown => out.push(REQ_SHUTDOWN),
        Request::Subscribe { last_seq } => {
            out.push(REQ_SUBSCRIBE);
            put_u64(&mut out, *last_seq);
        }
        Request::ReplicateAck { epoch, seq } => {
            out.push(REQ_REPLICATE_ACK);
            put_u64(&mut out, *epoch);
            put_u64(&mut out, *seq);
        }
        Request::ReshardBegin { to_shards } => {
            out.push(REQ_RESHARD_BEGIN);
            put_u32(&mut out, *to_shards);
        }
        Request::ReshardDigest { shard } => {
            out.push(REQ_RESHARD_DIGEST);
            put_u32(&mut out, *shard);
        }
        Request::ReshardCommit => out.push(REQ_RESHARD_COMMIT),
        Request::ReshardAbort => out.push(REQ_RESHARD_ABORT),
        Request::MetricsText => out.push(REQ_METRICS_TEXT),
        Request::DebugDump => out.push(REQ_DEBUG_DUMP),
        Request::ReplicaStatus => out.push(REQ_REPLICA_STATUS),
        Request::ReadDigest { shard, max_lag } => {
            out.push(REQ_READ_DIGEST);
            put_u32(&mut out, *shard);
            put_u64(&mut out, *max_lag);
        }
    }
    out
}

/// Decode a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(payload);
    let req = match r.u8()? {
        REQ_HELLO => Request::Hello,
        REQ_INSERT => Request::Insert(r.u64_vec()?),
        REQ_DELETE => Request::Delete(r.u64_vec()?),
        REQ_FLUSH => Request::Flush,
        REQ_DIGEST => Request::Digest { shard: r.u32()? },
        REQ_RECONCILE => Request::Reconcile {
            shard: r.u32()?,
            digest: decode_iblt(&mut r)?,
        },
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_SUBSCRIBE => Request::Subscribe { last_seq: r.u64()? },
        REQ_REPLICATE_ACK => Request::ReplicateAck {
            epoch: r.u64()?,
            seq: r.u64()?,
        },
        REQ_RESHARD_BEGIN => Request::ReshardBegin {
            to_shards: r.u32()?,
        },
        REQ_RESHARD_DIGEST => Request::ReshardDigest { shard: r.u32()? },
        REQ_RESHARD_COMMIT => Request::ReshardCommit,
        REQ_RESHARD_ABORT => Request::ReshardAbort,
        REQ_METRICS_TEXT => Request::MetricsText,
        REQ_DEBUG_DUMP => Request::DebugDump,
        REQ_REPLICA_STATUS => Request::ReplicaStatus,
        REQ_READ_DIGEST => Request::ReadDigest {
            shard: r.u32()?,
            max_lag: r.u64()?,
        },
        t => return Err(WireError::BadTag(t)),
    };
    r.finish()?;
    Ok(req)
}

fn put_shard_diff(out: &mut Vec<u8>, d: &ShardDiff) {
    put_u32(out, d.shard);
    put_u64(out, d.epoch);
    out.push(d.complete as u8);
    put_u32(out, d.subrounds);
    put_u64_vec(out, &d.only_local);
    put_u64_vec(out, &d.only_remote);
    // Protocol v6 tail: the replication sequence stamp.
    put_u64(out, d.as_of_seq);
}

fn read_shard_diff(r: &mut Reader) -> Result<ShardDiff, WireError> {
    Ok(ShardDiff {
        shard: r.u32()?,
        epoch: r.u64()?,
        complete: r.bool()?,
        subrounds: r.u32()?,
        only_local: r.u64_vec()?,
        only_remote: r.u64_vec()?,
        as_of_seq: r.u64()?,
    })
}

fn put_reshard_stats(out: &mut Vec<u8>, s: &ReshardStats) {
    put_u64(out, s.generation);
    out.push(s.resharding as u8);
    put_u32(out, s.serving_shards);
    put_u32(out, s.to_shards);
    put_u64(out, s.keys_moved);
    put_u32(out, s.shards_verified);
    put_u64(out, s.completed);
    put_u64(out, s.aborted);
}

fn read_reshard_stats(r: &mut Reader) -> Result<ReshardStats, WireError> {
    Ok(ReshardStats {
        generation: r.u64()?,
        resharding: r.bool()?,
        serving_shards: r.u32()?,
        to_shards: r.u32()?,
        keys_moved: r.u64()?,
        shards_verified: r.u32()?,
        completed: r.u64()?,
        aborted: r.u64()?,
    })
}

/// Histogram wire form: count, sum, then the sparse non-empty
/// `(u32 bucket, u64 count)` pairs — a loaded histogram is a few dozen
/// pairs, never the full 128 buckets.
fn put_histogram(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    put_u64(out, h.count);
    put_u64(out, h.sum);
    put_u32(out, h.buckets.len() as u32);
    for &(i, c) in &h.buckets {
        put_u32(out, i);
        put_u64(out, c);
    }
}

/// Decode a histogram. Total: the pair count is validated against the
/// bytes present, and bucket indexes must be strictly increasing and
/// in range, so quantile readout on the result is well-defined.
fn read_histogram(r: &mut Reader) -> Result<HistogramSnapshot, WireError> {
    let count = r.u64()?;
    let sum = r.u64()?;
    // 12 wire bytes per (bucket, count) pair.
    let n = r.len(12)?;
    if n > HISTOGRAM_BUCKETS {
        return Err(WireError::BadLength(n as u64));
    }
    let mut buckets = Vec::with_capacity(n);
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        let i = r.u32()?;
        if i as usize >= HISTOGRAM_BUCKETS || prev.is_some_and(|p| i <= p) {
            return Err(WireError::Malformed(format!(
                "histogram bucket {i} out of order or out of range"
            )));
        }
        prev = Some(i);
        buckets.push((i, r.u64()?));
    }
    Ok(HistogramSnapshot {
        count,
        sum,
        buckets,
    })
}

fn put_follower_rows(out: &mut Vec<u8>, rows: &[FollowerStats]) {
    put_u32(out, rows.len() as u32);
    for f in rows {
        put_u64(out, f.id);
        put_u64(out, f.published);
        put_u64(out, f.acked);
        put_u64(out, f.lag);
        out.push(f.alive as u8);
    }
}

fn read_follower_rows(r: &mut Reader) -> Result<Vec<FollowerStats>, WireError> {
    // 33 wire bytes per row (the alive byte is new in v6; Hello
    // negotiation refuses cross-version peers, so no v5 compat shim).
    let n = r.len(33)?;
    (0..n)
        .map(|_| {
            Ok(FollowerStats {
                id: r.u64()?,
                published: r.u64()?,
                acked: r.u64()?,
                lag: r.u64()?,
                alive: r.bool()?,
            })
        })
        .collect()
}

/// Longest metric entry name a `Stats` frame may carry.
const MAX_METRIC_NAME: usize = 128;

/// `Stats` wire form: the [`FAMILIES`] scalars as `(name, u64)`
/// entries, its histograms as `(name, series)` entries, then the
/// positional labelled blocks — recovery traces, per-shard rows,
/// per-follower rows.
fn put_stats(out: &mut Vec<u8>, s: &MetricsSnapshot) {
    let mut scalars = Vec::new();
    let mut histograms = Vec::new();
    for f in FAMILIES {
        match f.source {
            Source::Scalar { get, .. } => scalars.push((f.name, get(s))),
            Source::Histogram { series, .. } => histograms.push((f.name, series(s))),
            Source::Shard(_) | Source::Follower(_) => {}
        }
    }
    put_u32(out, scalars.len() as u32);
    for (name, v) in scalars {
        put_string(out, name);
        put_u64(out, v);
    }
    put_u32(out, histograms.len() as u32);
    for (name, series) in histograms {
        put_string(out, name);
        put_u32(out, series.len() as u32);
        for h in series {
            put_histogram(out, h);
        }
    }
    put_u64_vec(out, &s.last_recovery_trace);
    put_u64_vec(out, &s.last_recovery_trace_ns);
    put_u32(out, s.shards.len() as u32);
    for sh in &s.shards {
        put_u64(out, sh.epoch);
        put_u64(out, sh.inserts);
        put_u64(out, sh.deletes);
    }
    put_follower_rows(out, &s.replication.per_follower);
}

/// Decode a `Stats` payload. Entries are looked up by name: unknown
/// names (a newer peer's metrics) are skipped, absent ones stay 0, and a
/// value that does not fit its field is malformed.
fn read_stats(r: &mut Reader) -> Result<MetricsSnapshot, WireError> {
    let mut s = MetricsSnapshot::default();
    // ≥ 12 wire bytes per scalar entry: name length + value.
    for _ in 0..r.len(12)? {
        let name = r.metric_name()?;
        let v = r.u64()?;
        if let Some(Source::Scalar { set, .. }) = family(name).map(|f| f.source) {
            if !set(&mut s, v) {
                return Err(WireError::Malformed(format!("{name} = {v} out of range")));
            }
        }
    }
    // ≥ 8 wire bytes per histogram entry: name length + series count.
    for _ in 0..r.len(8)? {
        let name = r.metric_name()?;
        let series = (0..r.len(20)?)
            .map(|_| read_histogram(r))
            .collect::<Result<Vec<_>, WireError>>()?;
        if let Some(Source::Histogram { store, .. }) = family(name).map(|f| f.source) {
            let n = series.len();
            if !store(&mut s, series) {
                return Err(WireError::Malformed(format!("{name}: {n} series")));
            }
        }
    }
    s.last_recovery_trace = r.u64_vec()?;
    s.last_recovery_trace_ns = r.u64_vec()?;
    s.shards = (0..r.len(24)?)
        .map(|_| {
            Ok(ShardStats {
                epoch: r.u64()?,
                inserts: r.u64()?,
                deletes: r.u64()?,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    s.replication.per_follower = read_follower_rows(r)?;
    Ok(s)
}

fn put_flight_record(out: &mut Vec<u8>, rec: &FlightRecord) {
    put_u64(out, rec.seq);
    put_u64(out, rec.at_us);
    out.push(rec.kind);
    put_u64(out, rec.span);
    put_u64(out, rec.parent);
    put_string(out, &rec.name);
    put_string(out, &rec.fields);
}

fn read_flight_record(r: &mut Reader) -> Result<FlightRecord, WireError> {
    Ok(FlightRecord {
        seq: r.u64()?,
        at_us: r.u64()?,
        kind: r.u8()?,
        span: r.u64()?,
        parent: r.u64()?,
        name: r.string()?,
        fields: r.string()?,
    })
}

fn read_flight_records(r: &mut Reader) -> Result<Vec<FlightRecord>, WireError> {
    // 41 fixed wire bytes per record (strings add more).
    let n = r.len(41)?;
    (0..n).map(|_| read_flight_record(r)).collect()
}

/// Encode a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Hello(h) => {
            out.push(RESP_HELLO);
            out.push(h.version);
            put_u32(&mut out, h.shards);
            put_u64(&mut out, h.router_seed);
            put_config(&mut out, &h.base_config);
            put_u32(&mut out, h.batch_size);
            // Protocol v6 tail: the replication epoch.
            put_u64(&mut out, h.epoch);
        }
        Response::Ok { accepted } => {
            out.push(RESP_OK);
            put_u64(&mut out, *accepted);
        }
        Response::Digest { epoch, iblt } => {
            out.push(RESP_DIGEST);
            put_u64(&mut out, *epoch);
            encode_iblt(&mut out, iblt);
        }
        Response::Diff(d) => {
            out.push(RESP_DIFF);
            put_shard_diff(&mut out, d);
        }
        Response::Stats(s) => {
            out.push(RESP_STATS);
            put_stats(&mut out, s);
        }
        Response::Error(msg) => {
            out.push(RESP_ERROR);
            put_string(&mut out, msg);
        }
        Response::Replicate { epoch, seq, ops } => return encode_replicate(*epoch, *seq, ops),
        Response::Reshard(s) => {
            out.push(RESP_RESHARD);
            put_reshard_stats(&mut out, s);
        }
        Response::DigestSparse { epoch, iblt } => {
            out.push(RESP_DIGEST_SPARSE);
            put_u64(&mut out, *epoch);
            encode_iblt_sparse(&mut out, iblt);
        }
        Response::MetricsText(body) => {
            out.push(RESP_METRICS_TEXT);
            put_string(&mut out, body);
        }
        Response::DebugDump(records) => {
            out.push(RESP_DEBUG_DUMP);
            put_u32(&mut out, records.len() as u32);
            for rec in records {
                put_flight_record(&mut out, rec);
            }
        }
        Response::ReplicaStatus(s) => {
            out.push(RESP_REPLICA_STATUS);
            put_u64(&mut out, s.node_id);
            put_u64(&mut out, s.epoch);
            out.push(s.leading as u8);
            put_u64(&mut out, s.last_applied);
            out.push(s.converged as u8);
            put_u32(&mut out, s.shards);
            put_string(&mut out, &s.primary);
        }
        Response::ReadStale { lag, redirect } => {
            out.push(RESP_READ_STALE);
            put_u64(&mut out, *lag);
            put_string(&mut out, redirect);
        }
        Response::GenerationChange {
            epoch,
            generation,
            shards,
        } => {
            out.push(RESP_GENERATION_CHANGE);
            put_u64(&mut out, *epoch);
            put_u64(&mut out, *generation);
            put_u32(&mut out, *shards);
        }
    }
    out
}

/// Encode a `Replicate` frame directly from a borrowed batch — the
/// streaming hot path, which avoids cloning the ops into a [`Response`]
/// just to serialize them. Byte-identical to encoding
/// [`Response::Replicate`].
pub fn encode_replicate(epoch: u64, seq: u64, ops: &[Op]) -> Vec<u8> {
    let mut out = vec![RESP_REPLICATE];
    put_u64(&mut out, epoch);
    put_u64(&mut out, seq);
    put_ops(&mut out, ops);
    out
}

/// Decode a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let resp = match r.u8()? {
        RESP_HELLO => Response::Hello(HelloInfo {
            version: r.u8()?,
            shards: r.u32()?,
            router_seed: r.u64()?,
            base_config: read_config(&mut r)?,
            batch_size: r.u32()?,
            epoch: r.u64()?,
        }),
        RESP_OK => Response::Ok { accepted: r.u64()? },
        RESP_DIGEST => Response::Digest {
            epoch: r.u64()?,
            iblt: decode_iblt(&mut r)?,
        },
        RESP_DIFF => Response::Diff(read_shard_diff(&mut r)?),
        RESP_STATS => Response::Stats(Box::new(read_stats(&mut r)?)),
        RESP_ERROR => Response::Error(r.string()?),
        RESP_REPLICATE => Response::Replicate {
            epoch: r.u64()?,
            seq: r.u64()?,
            ops: read_ops(&mut r)?,
        },
        RESP_RESHARD => Response::Reshard(read_reshard_stats(&mut r)?),
        RESP_DIGEST_SPARSE => Response::DigestSparse {
            epoch: r.u64()?,
            iblt: decode_iblt_sparse(&mut r)?,
        },
        RESP_METRICS_TEXT => Response::MetricsText(r.string()?),
        RESP_DEBUG_DUMP => Response::DebugDump(read_flight_records(&mut r)?),
        RESP_REPLICA_STATUS => Response::ReplicaStatus(ReplicaStatus {
            node_id: r.u64()?,
            epoch: r.u64()?,
            leading: r.bool()?,
            last_applied: r.u64()?,
            converged: r.bool()?,
            shards: r.u32()?,
            primary: r.string()?,
        }),
        RESP_READ_STALE => Response::ReadStale {
            lag: r.u64()?,
            redirect: r.string()?,
        },
        RESP_GENERATION_CHANGE => Response::GenerationChange {
            epoch: r.u64()?,
            generation: r.u64()?,
            shards: r.u32()?,
        },
        t => return Err(WireError::BadTag(t)),
    };
    r.finish()?;
    Ok(resp)
}

// --- Frame transport --------------------------------------------------------

/// Write one frame (length prefix + payload) and flush.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::FrameTooLarge(payload.len() as u64));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload. Returns `Ok(None)` on a clean EOF *before*
/// the length prefix (peer closed between messages); a mid-frame EOF is a
/// [`WireError::UnexpectedEof`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    // Distinguish "closed before a frame" from "closed mid-frame".
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(WireError::UnexpectedEof);
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len as u64));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental, push-based counterpart of [`read_frame`] for nonblocking
/// sockets: bytes arrive in whatever chunks the kernel delivers
/// ([`FrameDecoder::push`]), complete frames come out
/// ([`FrameDecoder::next_frame`]) — including several per push when the
/// peer pipelines requests. Splitting the same byte stream at different
/// boundaries never changes the decoded frames (enforced by the
/// boundary-sweep property tests in `tests/proptest_wire.rs`), and like
/// the rest of this module the decoder is total: corrupt input returns a
/// [`WireError`], never panics.
///
/// A frame announcing more than [`MAX_FRAME`] bytes poisons the stream —
/// the length prefix cannot be resynchronized — so the connection must be
/// dropped after [`WireError::FrameTooLarge`].
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; reclaimed lazily so popping a frame is
    /// amortized O(frame) rather than O(buffered).
    start: usize,
}

/// Reclaim the consumed prefix once it reaches this size (or swallows the
/// whole buffer).
const DECODER_COMPACT_AT: usize = 64 * 1024;

impl FrameDecoder {
    /// Empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes received from the peer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames (partial frame tail
    /// plus any pipelined frames not yet popped).
    pub fn buffered(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }

    /// True when no partial or pending frame is buffered.
    pub fn is_empty(&self) -> bool {
        self.buffered() == 0
    }

    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        if self.start >= self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= DECODER_COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Pop the next complete frame's payload; `Ok(None)` means more bytes
    /// are needed. Call in a loop after each [`FrameDecoder::push`] — a
    /// single push can complete several pipelined frames.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let Some(header) = self.buf.get(self.start..self.start.saturating_add(4)) else {
            return Ok(None);
        };
        let Ok(len_bytes) = <[u8; 4]>::try_from(header) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME {
            return Err(WireError::FrameTooLarge(len as u64));
        }
        let body_start = self.start.saturating_add(4);
        let Some(payload) = self.buf.get(body_start..body_start.saturating_add(len)) else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.start = body_start.saturating_add(len);
        self.compact();
        Ok(Some(payload))
    }
}

/// Decode an IBLT from a standalone byte slice (helper for tests and
/// tooling; message decoding uses the cursor internally).
pub fn iblt_from_bytes(bytes: &[u8]) -> Result<Iblt, WireError> {
    let mut r = Reader::new(bytes);
    let t = decode_iblt(&mut r)?;
    r.finish()?;
    Ok(t)
}

/// Encode an IBLT to a standalone byte vector.
pub fn iblt_to_bytes(t: &Iblt) -> Vec<u8> {
    let mut out = Vec::new();
    encode_iblt(&mut out, t);
    out
}

/// Encode an IBLT sparsely (empty cells skipped) to a standalone byte
/// vector — the encoding `DigestSparse` responses use.
pub fn iblt_to_sparse_bytes(t: &Iblt) -> Vec<u8> {
    let mut out = Vec::new();
    encode_iblt_sparse(&mut out, t);
    out
}

/// Decode a sparsely encoded IBLT from a standalone byte slice.
pub fn iblt_from_sparse_bytes(bytes: &[u8]) -> Result<Iblt, WireError> {
    let mut r = Reader::new(bytes);
    let t = decode_iblt_sparse(&mut r)?;
    r.finish()?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn mid_frame_eof_is_an_error_not_a_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        buf.truncate(7); // length prefix + 3 payload bytes
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::UnexpectedEof)
        ));
    }

    #[test]
    fn iblt_roundtrip_preserves_cells_and_items() {
        let mut t = Iblt::new(IbltConfig::new(3, 50, 9));
        for k in 0..40u64 {
            t.insert(k * 3);
        }
        t.delete(999);
        let bytes = iblt_to_bytes(&t);
        let back = iblt_from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.items(), t.items());
    }

    #[test]
    fn hostile_config_errors_instead_of_panicking() {
        // hashes = 1 violates the IbltConfig invariant.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 1);
        put_u64(&mut bytes, 10);
        put_u64(&mut bytes, 0);
        assert!(matches!(
            iblt_from_bytes(&bytes),
            Err(WireError::Malformed(_))
        ));
        // A cell count that would blow past the frame cap.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 4);
        put_u64(&mut bytes, u64::MAX / 8);
        put_u64(&mut bytes, 0);
        assert!(matches!(
            iblt_from_bytes(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn sparse_is_smaller_tracks_occupancy() {
        // Empty and lightly loaded: sparse wins.
        let mut t = Iblt::new(IbltConfig::new(4, 64, 3));
        assert!(sparse_is_smaller(&t));
        t.insert(7);
        assert!(sparse_is_smaller(&t));
        // Saturate the table: nearly every cell non-empty, sparse loses
        // (and the helper's verdict matches the actual encoded sizes).
        for k in 0..2_000u64 {
            t.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        assert!(!sparse_is_smaller(&t));
        assert!(iblt_to_sparse_bytes(&t).len() >= iblt_to_bytes(&t).len());
    }

    #[test]
    fn insert_count_mismatch_is_bad_length() {
        // Announce 1000 keys but supply 1.
        let mut payload = vec![REQ_INSERT];
        put_u32(&mut payload, 1000);
        put_u64(&mut payload, 7);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::BadLength(1000))
        ));
    }

    #[test]
    fn replication_frames_roundtrip() {
        let req = Request::Subscribe { last_seq: 42 };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let req = Request::ReplicateAck {
            epoch: 3,
            seq: u64::MAX,
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let resp = Response::Replicate {
            epoch: 2,
            seq: 7,
            ops: vec![Op { key: 11, dir: 1 }, Op { key: 12, dir: -1 }],
        };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        // The borrowed-batch fast path produces identical bytes.
        if let Response::Replicate { epoch, seq, ops } = &resp {
            assert_eq!(encode_replicate(*epoch, *seq, ops), encode_response(&resp));
        }
    }

    #[test]
    fn replicate_with_bad_direction_byte_errors() {
        let mut payload = vec![RESP_REPLICATE];
        put_u64(&mut payload, 1); // epoch
        put_u64(&mut payload, 1); // seq
        put_u32(&mut payload, 1); // one op
        put_u64(&mut payload, 99); // key
        payload.push(7); // neither OP_INSERT nor OP_DELETE
        assert!(matches!(
            decode_response(&payload),
            Err(WireError::BadTag(7))
        ));
    }

    #[test]
    fn mesh_frames_roundtrip() {
        let req = Request::ReplicaStatus;
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let req = Request::ReadDigest {
            shard: 3,
            max_lag: 10,
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let resp = Response::ReplicaStatus(ReplicaStatus {
            node_id: 2,
            epoch: 5,
            leading: false,
            last_applied: 99,
            converged: true,
            shards: 4,
            primary: "10.0.0.1:7000".into(),
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        let resp = Response::ReadStale {
            lag: 17,
            redirect: "10.0.0.1:7000".into(),
        };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        let resp = Response::GenerationChange {
            epoch: 5,
            generation: 2,
            shards: 8,
        };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    /// v5 ↔ v6 `Hello` payloads refuse each other cleanly: the epoch
    /// sits at the tail, so the shorter (v5-shaped) payload truncates
    /// under a v6 decoder and the longer one leaves trailing bytes
    /// under a v5-shaped expectation. v7 ↔ v8 share the `Hello` layout
    /// but not the `Stats` tag, so each refuses the other's `Stats`.
    #[test]
    fn hello_version_mismatch_refuses_cleanly() {
        let hello = Response::Hello(HelloInfo {
            version: PROTOCOL_VERSION,
            shards: 4,
            router_seed: 9,
            base_config: IbltConfig::new(3, 64, 1),
            batch_size: 256,
            epoch: 7,
        });
        let v6_bytes = encode_response(&hello);
        // A v5 peer's Hello is the same layout minus the 8-byte epoch
        // tail; a v6 decoder must refuse it as truncated, not invent an
        // epoch.
        let v5_bytes = &v6_bytes[..v6_bytes.len() - 8];
        assert!(matches!(
            decode_response(v5_bytes),
            Err(WireError::UnexpectedEof)
        ));
        // And a decoder expecting the v5 shape sees exactly 8 trailing
        // bytes in the v6 payload (simulated by appending 8 more: any
        // over-long Hello is refused, never silently accepted).
        let mut v7ish = v6_bytes.clone();
        v7ish.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_response(&v7ish),
            Err(WireError::TrailingBytes(8))
        ));
        // A v7 `Stats` frame (positional layout under tag 0x85) is a
        // BadTag here, and a v8 one does not carry the tag a v7 decoder
        // would accept.
        const V7_STATS: u8 = 0x85;
        let mut v7_stats = vec![V7_STATS];
        v7_stats.extend_from_slice(&[0u8; 256]);
        assert!(matches!(
            decode_response(&v7_stats),
            Err(WireError::BadTag(V7_STATS))
        ));
        let v8_stats = encode_response(&Response::Stats(Box::default()));
        assert_ne!(v8_stats.first(), Some(&V7_STATS));
    }

    /// Byte length of the scalar entry of `name` in a `Stats` frame.
    fn entry_len(name: &str) -> usize {
        4 + name.len() + 8
    }

    fn scalar_rows() -> impl Iterator<Item = &'static crate::metrics::Family> {
        FAMILIES
            .iter()
            .filter(|f| matches!(f.source, Source::Scalar { .. }))
    }

    fn decode_stats(payload: &[u8]) -> Result<MetricsSnapshot, WireError> {
        match decode_response(payload)? {
            Response::Stats(s) => Ok(*s),
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    /// Add `by` to the little-endian `u32` count at `at`.
    fn bump_count(payload: &mut [u8], at: usize, by: i32) {
        let n = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        payload[at..at + 4].copy_from_slice(&n.wrapping_add_signed(by).to_le_bytes());
    }

    /// Table-driven: every row, scalar or histogram, survives the
    /// `Stats` frame with its own value.
    #[test]
    fn every_table_row_roundtrips_through_stats() {
        let s = crate::metrics::table_fixture();
        let back = decode_stats(&encode_response(&Response::Stats(Box::new(s.clone())))).unwrap();
        for f in FAMILIES {
            match f.source {
                Source::Scalar { get, .. } => assert_eq!(get(&back), get(&s), "{}", f.name),
                Source::Histogram { series, .. } => {
                    assert_eq!(series(&back), series(&s), "{}", f.name)
                }
                Source::Shard(_) | Source::Follower(_) => {}
            }
        }
        assert_eq!(back, s);
    }

    /// Entries a newer peer adds — a scalar and a histogram this build
    /// does not know — are skipped, not refused.
    #[test]
    fn unknown_stats_entries_are_skipped() {
        let s = crate::metrics::table_fixture();
        let mut payload = encode_response(&Response::Stats(Box::new(s.clone())));
        let mut extra = Vec::new();
        put_string(&mut extra, "peel_from_the_future_total");
        put_u64(&mut extra, 77);
        payload.splice(5..5, extra);
        bump_count(&mut payload, 1, 1);
        let hists_at = 5
            + scalar_rows().map(|f| entry_len(f.name)).sum::<usize>()
            + entry_len("peel_from_the_future_total");
        let mut extra = Vec::new();
        put_string(&mut extra, "peel_future_latency_ns");
        put_u32(&mut extra, 2);
        put_histogram(&mut extra, &s.queue_wait);
        put_histogram(&mut extra, &HistogramSnapshot::default());
        payload.splice(hists_at + 4..hists_at + 4, extra);
        bump_count(&mut payload, hists_at, 1);
        assert_eq!(decode_stats(&payload).unwrap(), s);
    }

    /// An entry an older peer never sent decodes as 0, and only that
    /// field changes.
    #[test]
    fn missing_stats_entry_reads_as_zero() {
        let s = crate::metrics::table_fixture();
        let payload = encode_response(&Response::Stats(Box::new(s.clone())));
        let mut at = 5;
        for f in scalar_rows() {
            let Source::Scalar { get, set } = f.source else {
                unreachable!()
            };
            let mut cut = payload.clone();
            cut.drain(at..at + entry_len(f.name));
            bump_count(&mut cut, 1, -1);
            let back = decode_stats(&cut).unwrap();
            assert_eq!(get(&back), 0, "{}", f.name);
            let mut want = s.clone();
            assert!(set(&mut want, 0));
            assert_eq!(back, want, "{}", f.name);
            at += entry_len(f.name);
        }
    }

    /// Hostile `Stats` frames error; none panics.
    #[test]
    fn hostile_stats_frames_error() {
        let payload = encode_response(&Response::Stats(Box::new(crate::metrics::table_fixture())));
        // More scalar entries announced than the bytes could hold.
        let mut overcount = payload.clone();
        overcount[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_stats(&overcount),
            Err(WireError::BadLength(_))
        ));
        // A name longer than any metric name may be.
        let mut long = vec![RESP_STATS];
        put_u32(&mut long, 1);
        put_string(&mut long, &"x".repeat(MAX_METRIC_NAME + 1));
        put_u64(&mut long, 0);
        assert!(matches!(decode_stats(&long), Err(WireError::BadLength(_))));
        // A value that does not fit its field (a bool row holding 2).
        let mut wide = vec![RESP_STATS];
        put_u32(&mut wide, 1);
        put_string(&mut wide, "peel_replica_leading");
        put_u64(&mut wide, 2);
        assert!(matches!(decode_stats(&wide), Err(WireError::Malformed(_))));
        // Histogram buckets out of order, and a single-series family
        // sent two series.
        let bad = HistogramSnapshot {
            count: 2,
            sum: 9,
            buckets: vec![(5, 1), (3, 1)],
        };
        for (series, name) in [
            (vec![bad], "peel_queue_wait_ns"),
            (vec![HistogramSnapshot::default(); 2], "peel_queue_wait_ns"),
        ] {
            let mut frame = vec![RESP_STATS];
            put_u32(&mut frame, 0);
            put_u32(&mut frame, 1);
            put_string(&mut frame, name);
            put_u32(&mut frame, series.len() as u32);
            for h in &series {
                put_histogram(&mut frame, h);
            }
            frame.extend_from_slice(&[0u8; 16]);
            assert!(matches!(decode_stats(&frame), Err(WireError::Malformed(_))));
        }
    }

    #[test]
    fn reshard_frames_roundtrip() {
        for req in [
            Request::ReshardBegin { to_shards: 4 },
            Request::ReshardDigest { shard: 3 },
            Request::ReshardCommit,
            Request::ReshardAbort,
        ] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
        let resp = Response::Reshard(ReshardStats {
            generation: 2,
            resharding: true,
            serving_shards: 1,
            to_shards: 4,
            keys_moved: 12_345,
            shards_verified: 3,
            completed: 1,
            aborted: 0,
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    /// Sparse and dense encodings decode to the same table, and on a
    /// lightly loaded shard the sparse form is genuinely smaller — the
    /// ROADMAP "snapshot compaction" fix.
    #[test]
    fn sparse_encoding_is_equivalent_and_compact_when_light() {
        // 4×200 = 800 cells, ~30 of them touched.
        let mut t = Iblt::new(IbltConfig::new(4, 200, 77));
        for k in 0..8u64 {
            t.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        t.delete(42);
        let dense = iblt_to_bytes(&t);
        let sparse = iblt_to_sparse_bytes(&t);
        assert_eq!(iblt_from_sparse_bytes(&sparse).unwrap(), t);
        assert_eq!(iblt_from_bytes(&dense).unwrap(), t);
        assert!(
            sparse.len() * 4 < dense.len(),
            "sparse {} bytes vs dense {} bytes",
            sparse.len(),
            dense.len()
        );
        // An empty table is just the config + a zero count.
        let empty = Iblt::new(IbltConfig::new(4, 200, 77));
        assert_eq!(iblt_to_sparse_bytes(&empty).len(), 20 + 4);
        // Full response framing round-trips too.
        let resp = Response::DigestSparse { epoch: 9, iblt: t };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn sparse_decoding_rejects_hostile_indexes() {
        let mut t = Iblt::new(IbltConfig::new(2, 4, 1));
        t.insert(7);
        t.insert(9);
        let good = iblt_to_sparse_bytes(&t);
        // Config is 20 bytes, pair count 4 bytes; the first pair's index
        // starts at offset 24. Duplicate (≤ previous) and out-of-range
        // indexes must both error.
        let mut dup = good.clone();
        // Overwrite the second pair's index with the first pair's.
        let first = dup[24..28].to_vec();
        dup[24 + 28..24 + 28 + 4].copy_from_slice(&first);
        assert!(matches!(
            iblt_from_sparse_bytes(&dup),
            Err(WireError::Malformed(_))
        ));
        let mut oob = good.clone();
        oob[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            iblt_from_sparse_bytes(&oob),
            Err(WireError::Malformed(_))
        ));
        // More pairs than cells cannot allocate past the table.
        let mut overcount = good;
        overcount[20..24].copy_from_slice(&100u32.to_le_bytes());
        assert!(iblt_from_sparse_bytes(&overcount).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::Flush);
        payload.push(0xff);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::TrailingBytes(1))
        ));
    }
}

//! Single-threaded readiness-loop server core.
//!
//! The default [`crate::server::Server`] runs every connection on one
//! thread: a vendored mio-style poller (epoll on Linux, poll(2)
//! fallback) multiplexes the listener, a wakeup token, and every client
//! socket. Each connection owns an incremental [`FrameDecoder`] that
//! reassembles the length-prefixed wire protocol as bytes arrive, so
//! clients can pipeline many requests without waiting for responses;
//! responses queue in a per-connection outbound buffer drained with
//! `WouldBlock`-aware writes. Replication subscribers ride the same
//! loop through [`WindowedSender`] — the hub's publish notifier fires
//! the poller's waker, so new batches are pushed without a dedicated
//! sender thread per follower.
//!
//! The loop fixes three failure modes of the thread-per-connection
//! design it replaces:
//!
//! - **fd/thread exhaustion** — connections are capped
//!   ([`ReactorConfig::max_connections`]); past the cap the server
//!   accepts, writes a protocol `Error` frame, and closes, instead of
//!   spawning until the process hits a limit.
//! - **accept-error spin** — persistent `accept` failures (`EMFILE`,
//!   `ENFILE`) back off exponentially via [`AcceptPacer`]: the listener
//!   is deregistered from the poller for the backoff window, so a
//!   level-triggered readable listener can't re-deliver the same error
//!   in a hot loop.
//! - **shutdown stall** — `shutdown()` rings the poller's waker, so the
//!   loop observes the stop flag even when no connection ever arrives;
//!   pending responses get a short grace flush before sockets close.
//!
//! Requests dispatch inline on the loop thread; heavy ingest still goes
//! through the service's batched worker pipeline, so the loop only pays
//! for framing and queue handoff. A deliberately synchronous request
//! (`Flush`) blocks the loop for its duration — acceptable for a
//! control frame, and documented in the README.
//!
//! This file is inside the panic-free zone (`cargo xtask lint`): no
//! unwraps, no panicking indexing — malformed input or a surprising
//! peer must never take down the loop that owns every connection.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
// ordering: all connection/accept counters here are Relaxed — they are
// monotonic statistics (plus one gauge) read by scrapes and tests that
// poll until a value settles; nothing orders other memory against them.
// The stopping flag is Relaxed for the same reason as in server.rs: the
// stop_lock mutex write in signal_stop carries the happens-before, and
// the loop re-checks on every wakeup.
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Token};

use crate::replication::{SenderFrame, StreamConfig, WindowedSender};
use crate::server::{handle_request, Shared};
use crate::wire::{decode_request, encode_response, write_frame, FrameDecoder, Request, Response};

/// Poller token for the listening socket.
pub(crate) const LISTENER: Token = Token(0);
/// Poller token for the shutdown/publish waker.
pub(crate) const WAKER: Token = Token(1);
/// First token handed to an accepted connection.
const FIRST_CONN: usize = 2;

/// How long a stopping reactor keeps polling to flush queued responses
/// before closing sockets that still have bytes pending.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(250);

/// Per-read scratch size. One connection drains at most this much per
/// `read` call; the loop keeps reading until `WouldBlock`, so the size
/// only bounds syscall granularity, not throughput.
const READ_CHUNK: usize = 16 * 1024;

/// Once the consumed prefix of an outbound buffer passes this, the
/// buffer is compacted so a long-lived pipelining connection doesn't
/// grow without bound.
const OUT_COMPACT_AT: usize = 64 * 1024;

/// Tuning knobs for the readiness loop. `Default` matches what
/// `peel-server` ships with; tests shrink the numbers.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Live-connection cap. An accept past the cap is answered with a
    /// protocol `Error` frame and closed (counted in
    /// `MetricsSnapshot::connections.refused`).
    pub max_connections: usize,
    /// Close connections with no traffic for this long (`None` turns
    /// the reaper off). Replication subscribers are exempt — an idle
    /// follower is normal between batches.
    pub idle_timeout: Option<Duration>,
    /// Initial accept-error backoff; doubles per consecutive failure.
    pub accept_backoff: Duration,
    /// Backoff ceiling.
    pub accept_backoff_max: Duration,
    /// Pause reading from a connection whose outbound buffer exceeds
    /// this many pending bytes, until the buffer drains — bounds the
    /// memory a fast pipeliner on a slow read path can pin.
    pub write_highwater: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 4096,
            idle_timeout: Some(Duration::from_secs(60)),
            accept_backoff: Duration::from_millis(10),
            accept_backoff_max: Duration::from_secs(1),
            write_highwater: 4 << 20,
        }
    }
}

/// Exponential backoff for persistent `accept` failures (`EMFILE`,
/// `ENFILE`, and anything else that isn't a transient per-connection
/// error). The reactor deregisters the listener for the backoff window.
pub(crate) struct AcceptPacer {
    base: Duration,
    max: Duration,
    cur: Duration,
    until: Option<Instant>,
}

impl AcceptPacer {
    pub(crate) fn new(base: Duration, max: Duration) -> AcceptPacer {
        let base = base.max(Duration::from_millis(1));
        AcceptPacer {
            base,
            max: max.max(base),
            cur: base,
            until: None,
        }
    }

    /// Record an accept failure; returns the delay to impose before the
    /// next accept attempt. Consecutive failures double the delay up to
    /// the ceiling.
    pub(crate) fn on_error(&mut self, now: Instant) -> Duration {
        let delay = self.cur;
        self.until = Some(now + delay);
        self.cur = self.cur.saturating_mul(2).min(self.max);
        delay
    }

    /// A connection was accepted: the error condition cleared, so the
    /// next failure starts from the base delay again.
    pub(crate) fn on_success(&mut self) {
        self.cur = self.base;
        self.until = None;
    }

    /// When the current backoff window ends (`None` when not backing
    /// off).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.until
    }

    /// True while accepts should stay paused.
    pub(crate) fn backing_off(&self, now: Instant) -> bool {
        match self.until {
            Some(t) => now < t,
            None => false,
        }
    }
}

/// One client connection's state: reassembly buffer in, byte queue out,
/// and (for subscribed followers) the windowed replication sender.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    last_activity: Instant,
    /// Stop reading; once `out` drains, close. Set on half-close (EOF
    /// with responses still queued), protocol poison, and shutdown.
    close_after_flush: bool,
    /// Present once the connection sent `Subscribe`; the loop pumps
    /// replication frames into `out` and routes inbound frames to the
    /// sender as acks.
    repl: Option<WindowedSender>,
    /// Reading is gated off while the outbound buffer is above the
    /// highwater mark (invariant: only while `out` is non-empty, so
    /// WRITABLE interest keeps the connection schedulable).
    reads_paused: bool,
    /// Interests currently registered with the poller, as
    /// (readable, writable) — reregistration happens only on change.
    registered: (bool, bool),
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len().saturating_sub(self.out_pos)
    }

    /// Queue one frame (length prefix + payload) for writing. An
    /// oversized payload poisons the connection instead of panicking.
    fn push_frame(&mut self, payload: &[u8]) {
        if write_frame(&mut self.out, payload).is_err() {
            self.close_after_flush = true;
        }
    }

    fn wants_read(&self) -> bool {
        !self.reads_paused && !self.close_after_flush
    }

    fn wants_write(&self) -> bool {
        self.pending_out() > 0
    }
}

/// What processing one connection event decided about the connection's
/// fate.
enum ConnFate {
    Keep,
    Close,
}

/// Run the readiness loop until [`Shared::signal_stop`] fires. The
/// listener must already be nonblocking; `poll` must already have the
/// waker registered under [`WAKER`] (done by `Server::bind_with`, so a
/// shutdown issued before this thread is scheduled still wakes it).
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>, poll: Poll, cfg: ReactorConfig) {
    let pacer = AcceptPacer::new(cfg.accept_backoff, cfg.accept_backoff_max);
    let mut reactor = Reactor {
        listener,
        shared,
        poll,
        cfg,
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        pacer,
        listener_registered: false,
        stopping: false,
        grace_deadline: None,
    };
    reactor.run_loop();
}

struct Reactor {
    listener: TcpListener,
    shared: Arc<Shared>,
    poll: Poll,
    cfg: ReactorConfig,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    pacer: AcceptPacer,
    listener_registered: bool,
    stopping: bool,
    grace_deadline: Option<Instant>,
}

impl Reactor {
    fn run_loop(&mut self) {
        let fd = self.listener.as_raw_fd();
        if self
            .poll
            .registry()
            .register(&mut SourceFd(&fd), LISTENER, Interest::READABLE)
            .is_err()
        {
            // Without a pollable listener the loop can't serve; fall
            // into the stopped state so shutdown() still completes.
            self.shared.signal_stop();
        } else {
            self.listener_registered = true;
        }
        let mut events = Events::with_capacity(256);
        loop {
            let now = Instant::now();
            if !self.stopping && self.shared.stopping.load(Relaxed) {
                self.begin_shutdown(now);
            }
            if self.stopping && self.shutdown_complete(now) {
                break;
            }
            let timeout = self.next_timeout(now);
            if self.poll.poll(&mut events, timeout).is_err() {
                // Poller failure is unrecoverable for a readiness loop;
                // stop rather than spin on a broken fd.
                self.shared.signal_stop();
                self.begin_shutdown(Instant::now());
                break;
            }
            let now = Instant::now();
            let mut tokens: Vec<(usize, bool, bool)> = Vec::with_capacity(events.iter().count());
            let mut accept_ready = false;
            for ev in events.iter() {
                match ev.token() {
                    LISTENER => accept_ready = true,
                    WAKER => {
                        // Wakes mean "stop flag or new replication
                        // data"; both are handled below.
                    }
                    Token(t) => tokens.push((t, ev.is_readable(), ev.is_writable())),
                }
            }
            if !self.stopping && self.shared.stopping.load(Relaxed) {
                self.begin_shutdown(now);
            }
            if accept_ready && !self.stopping {
                self.accept_ready(now);
            }
            for (t, readable, writable) in tokens {
                self.conn_event(t, readable, writable, now);
            }
            self.after_wake(now);
        }
        self.close_all();
    }

    /// Timer-driven work plus replication pumping; runs after every
    /// poll round so waker-driven publishes and deadline expiries are
    /// handled even when no socket was ready.
    fn after_wake(&mut self, now: Instant) {
        // Backoff window over: resume accepting.
        if !self.stopping && !self.listener_registered && !self.pacer.backing_off(now) {
            let fd = self.listener.as_raw_fd();
            if self
                .poll
                .registry()
                .register(&mut SourceFd(&fd), LISTENER, Interest::READABLE)
                .is_ok()
            {
                self.listener_registered = true;
                // The listener may have become readable during the
                // pause; try an accept round rather than waiting for an
                // edge that (on the portable backend) already fired.
                self.accept_ready(now);
            }
        }
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for t in tokens {
            let fate = self.pump_conn(t, now);
            if matches!(fate, ConnFate::Close) {
                self.close_conn(t);
            }
        }
        if let Some(idle) = self.cfg.idle_timeout {
            if !self.stopping {
                self.reap_idle(now, idle);
            }
        }
    }

    /// Replication pump + flush + idle/interest upkeep for one
    /// connection.
    fn pump_conn(&mut self, t: usize, now: Instant) -> ConnFate {
        let Some(conn) = self.conns.get_mut(&t) else {
            return ConnFate::Keep;
        };
        if let Some(repl) = conn.repl.as_mut() {
            let out = &mut conn.out;
            let mut emit = |p: &[u8]| {
                let _ = write_frame(out, p);
            };
            if repl.deadline().is_some_and(|d| now >= d) && !repl.on_deadline(now, &mut emit) {
                // Ack-timeout retries exhausted: the follower is gone
                // or wedged; drop it so the hub can retire the stream.
                return ConnFate::Close;
            }
            let alive = repl.pump(now, &mut emit);
            if !alive {
                conn.close_after_flush = true;
            }
        }
        if conn.pending_out() > 0 {
            if let ConnFate::Close = flush_out(conn) {
                return ConnFate::Close;
            }
        }
        if conn.reads_paused && conn.pending_out() == 0 {
            conn.reads_paused = false;
        }
        if conn.close_after_flush && conn.pending_out() == 0 {
            return ConnFate::Close;
        }
        self.update_interest(t);
        ConnFate::Keep
    }

    /// Accept until `WouldBlock`, enforcing the connection cap and the
    /// error pacer.
    fn accept_ready(&mut self, now: Instant) {
        let metrics = self.shared.service.metrics_handle();
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.pacer.on_success();
                    if self.conns.len() >= self.cfg.max_connections {
                        metrics.conns_refused.fetch_add(1, Relaxed);
                        refuse(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Replication acks and pipelined small requests are
                    // latency-sensitive; without nodelay, Nagle +
                    // delayed ACKs add ~40 ms stalls.
                    let _ = stream.set_nodelay(true);
                    let t = self.next_token;
                    self.next_token = self.next_token.saturating_add(1);
                    let fd = stream.as_raw_fd();
                    if self
                        .poll
                        .registry()
                        .register(&mut SourceFd(&fd), Token(t), Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    metrics.conns_accepted.fetch_add(1, Relaxed);
                    metrics.conns_live.fetch_add(1, Relaxed);
                    self.conns.insert(
                        t,
                        Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            out: Vec::new(),
                            out_pos: 0,
                            last_activity: now,
                            close_after_flush: false,
                            repl: None,
                            reads_paused: false,
                            registered: (true, false),
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient, per-connection: the peer gave up between
                // SYN and accept. Not an accept-path failure.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(_) => {
                    // EMFILE/ENFILE and friends: accept() will keep
                    // failing until fds free up, and a level-triggered
                    // readable listener would re-deliver instantly —
                    // the hot spin this module exists to fix. Count it,
                    // deregister the listener, and retry after the
                    // backoff.
                    metrics.accept_errors.fetch_add(1, Relaxed);
                    self.pacer.on_error(now);
                    if self.listener_registered {
                        let fd = self.listener.as_raw_fd();
                        let _ = self.poll.registry().deregister(&mut SourceFd(&fd));
                        self.listener_registered = false;
                    }
                    break;
                }
            }
        }
    }

    /// Handle readiness on one connection: drain reads, process every
    /// complete frame, flush writes.
    fn conn_event(&mut self, t: usize, readable: bool, writable: bool, now: Instant) {
        let mut fate = ConnFate::Keep;
        let mut eof = false;
        {
            let Some(conn) = self.conns.get_mut(&t) else {
                return;
            };
            if readable && conn.wants_read() {
                conn.last_activity = now;
                let mut chunk = [0u8; READ_CHUNK];
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(n) => conn.decoder.push(chunk.get(..n).unwrap_or(&[])),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            fate = ConnFate::Close;
                            break;
                        }
                    }
                }
            }
            if writable && matches!(fate, ConnFate::Keep) {
                conn.last_activity = now;
            }
        }
        if matches!(fate, ConnFate::Keep) {
            fate = self.process_frames(t, now);
        }
        if eof && matches!(fate, ConnFate::Keep) {
            // Half-close: the client finished sending but may still be
            // reading pipelined responses — flush what's queued, then
            // close.
            if let Some(conn) = self.conns.get_mut(&t) {
                if conn.pending_out() == 0 && conn.repl.is_none() {
                    fate = ConnFate::Close;
                } else {
                    conn.close_after_flush = true;
                }
            }
        }
        if matches!(fate, ConnFate::Keep) {
            fate = self.pump_conn(t, now);
        }
        if matches!(fate, ConnFate::Close) {
            self.close_conn(t);
        }
    }

    /// Decode and dispatch every complete frame buffered on `t`.
    fn process_frames(&mut self, t: usize, now: Instant) -> ConnFate {
        loop {
            let (payload, is_repl) = {
                let Some(conn) = self.conns.get_mut(&t) else {
                    return ConnFate::Keep;
                };
                // Over the highwater mark: stop decoding (and reading)
                // until the peer drains responses.
                if conn.pending_out() > self.cfg.write_highwater {
                    conn.reads_paused = true;
                    return ConnFate::Keep;
                }
                match conn.decoder.next_frame() {
                    Ok(Some(p)) => (p, conn.repl.is_some()),
                    Ok(None) => return ConnFate::Keep,
                    Err(e) => {
                        // Oversized/poisoned stream: answer once, then
                        // hang up (the decoder can't resynchronize).
                        let resp = Response::Error(format!("bad frame: {e}"));
                        conn.push_frame(&encode_response(&resp));
                        conn.close_after_flush = true;
                        return ConnFate::Keep;
                    }
                }
            };
            if is_repl {
                if let ConnFate::Close = self.repl_frame(t, &payload, now) {
                    return ConnFate::Close;
                }
                continue;
            }
            let req = match decode_request(&payload) {
                Ok(req) => req,
                Err(e) => {
                    let resp = Response::Error(format!("bad request: {e}"));
                    if let Some(conn) = self.conns.get_mut(&t) {
                        conn.push_frame(&encode_response(&resp));
                    }
                    continue;
                }
            };
            if let Request::Subscribe { last_seq } = req {
                self.subscribe_conn(t, last_seq, now);
                continue;
            }
            // Per-request observability: a span carrying the frame type
            // (and shard, when the frame names one) around dispatch, and
            // the latency into the class histogram. The span is free when
            // no subscriber is installed; the histogram records always.
            let class = req.class_index();
            let span = match req.shard_hint() {
                Some(shard) => tracing::span(
                    "request",
                    &[("kind", req.kind().into()), ("shard", shard.into())],
                ),
                None => tracing::span("request", &[("kind", req.kind().into())]),
            };
            let started = Instant::now();
            let (resp, stop_after) = span.in_scope(|| handle_request(&self.shared.service, req));
            drop(span);
            self.shared
                .service
                .metrics_handle()
                .record_request(class, started.elapsed().as_nanos() as u64);
            if let Some(conn) = self.conns.get_mut(&t) {
                conn.push_frame(&encode_response(&resp));
            }
            if stop_after {
                self.shared.signal_stop();
                self.begin_shutdown(now);
                return ConnFate::Keep;
            }
        }
    }

    /// Convert a connection into a replication stream: ack the
    /// subscribe, then attach a [`WindowedSender`] the loop pumps.
    fn subscribe_conn(&mut self, t: usize, last_seq: u64, now: Instant) {
        let sub = self.shared.service.replication().subscribe();
        let cfg = StreamConfig {
            window: self.shared.service.config().repl_window.max(1),
            ..StreamConfig::default()
        };
        let Some(conn) = self.conns.get_mut(&t) else {
            return;
        };
        conn.push_frame(&encode_response(&Response::Ok { accepted: 0 }));
        let mut sender = WindowedSender::new(sub, last_seq, cfg);
        let out = &mut conn.out;
        let mut emit = |p: &[u8]| {
            let _ = write_frame(out, p);
        };
        // Send whatever is already queued (catch-up after resume).
        let alive = sender.pump(now, &mut emit);
        if !alive {
            conn.close_after_flush = true;
        }
        conn.repl = Some(sender);
    }

    /// An inbound frame on a subscribed connection: route to the
    /// sender (acks advance the window; a higher-epoch ack deposes us).
    fn repl_frame(&mut self, t: usize, payload: &[u8], now: Instant) -> ConnFate {
        let verdict = {
            let Some(conn) = self.conns.get_mut(&t) else {
                return ConnFate::Keep;
            };
            let Some(repl) = conn.repl.as_mut() else {
                return ConnFate::Keep;
            };
            repl.on_frame(payload, now)
        };
        match verdict {
            SenderFrame::Continue => ConnFate::Keep,
            SenderFrame::Fenced(epoch) => {
                // A follower acked at a higher epoch: this node has
                // been deposed. Adopt the fence and step down.
                self.shared.service.fence_epoch(epoch);
                self.shared.service.set_leading(false);
                ConnFate::Close
            }
            SenderFrame::Protocol => ConnFate::Close,
        }
    }

    /// Reregister a connection if its desired interest set changed.
    fn update_interest(&mut self, t: usize) {
        let Some(conn) = self.conns.get_mut(&t) else {
            return;
        };
        let want = (conn.wants_read(), conn.wants_write());
        if want == conn.registered {
            return;
        }
        let interest = match want {
            (true, true) => Interest::READABLE | Interest::WRITABLE,
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            // A paused, fully-flushed connection can only be waiting
            // for pump_conn to unpause it, which happens before the
            // next poll; keep READABLE so the fd stays registered.
            (false, false) => Interest::READABLE,
        };
        let fd = conn.stream.as_raw_fd();
        if self
            .poll
            .registry()
            .reregister(&mut SourceFd(&fd), Token(t), interest)
            .is_ok()
        {
            conn.registered = want;
        }
    }

    /// Close connections idle past the deadline (not subscribed, no
    /// pending output).
    fn reap_idle(&mut self, now: Instant, idle: Duration) {
        let dead: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.repl.is_none()
                    && c.pending_out() == 0
                    && now.duration_since(c.last_activity) >= idle
            })
            .map(|(t, _)| *t)
            .collect();
        for t in dead {
            self.shared
                .service
                .metrics_handle()
                .conns_idle_reaped
                .fetch_add(1, Relaxed);
            self.close_conn(t);
        }
    }

    fn close_conn(&mut self, t: usize) {
        if let Some(conn) = self.conns.remove(&t) {
            let fd = conn.stream.as_raw_fd();
            let _ = self.poll.registry().deregister(&mut SourceFd(&fd));
            self.shared
                .service
                .metrics_handle()
                .conns_live
                .fetch_sub(1, Relaxed);
        }
    }

    fn close_all(&mut self) {
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for t in tokens {
            self.close_conn(t);
        }
    }

    /// Stop accepting and start the grace-flush window: connections
    /// with queued responses get [`SHUTDOWN_GRACE`] to drain; everyone
    /// else closes now.
    fn begin_shutdown(&mut self, now: Instant) {
        if self.stopping {
            return;
        }
        self.stopping = true;
        self.grace_deadline = Some(now + SHUTDOWN_GRACE);
        if self.listener_registered {
            let fd = self.listener.as_raw_fd();
            let _ = self.poll.registry().deregister(&mut SourceFd(&fd));
            self.listener_registered = false;
        }
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for t in tokens {
            let Some(conn) = self.conns.get_mut(&t) else {
                continue;
            };
            // One last opportunistic flush; drop the stream if nothing
            // is pending (replication subscribers close via the hub's
            // close -> pump-drained path, but shutdown doesn't wait for
            // acks, so they are treated like everyone else here).
            conn.close_after_flush = true;
            conn.reads_paused = true;
            let fate = self.pump_conn(t, now);
            if matches!(fate, ConnFate::Close) {
                self.close_conn(t);
            }
        }
    }

    fn shutdown_complete(&mut self, now: Instant) -> bool {
        if self.conns.is_empty() {
            return true;
        }
        if self.grace_deadline.is_some_and(|d| now >= d) {
            self.close_all();
            return true;
        }
        false
    }

    /// The earliest pending deadline: accept-backoff resume, idle
    /// sweep, replication ack timers, shutdown grace.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let mut deadline: Option<Instant> = None;
        let mut fold = |d: Option<Instant>| {
            deadline = match (deadline, d) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
        };
        fold(self.pacer.deadline());
        fold(self.grace_deadline);
        for conn in self.conns.values() {
            if let Some(repl) = conn.repl.as_ref() {
                fold(repl.deadline());
            }
        }
        if let Some(idle) = self.cfg.idle_timeout {
            if !self.stopping {
                let next_reap = self
                    .conns
                    .values()
                    .filter(|c| c.repl.is_none() && c.pending_out() == 0)
                    .map(|c| c.last_activity + idle)
                    .min();
                fold(next_reap);
            }
        }
        deadline.map(|d| d.saturating_duration_since(now))
    }
}

/// Best-effort flush of the outbound buffer; `Close` on a dead socket.
fn flush_out(conn: &mut Conn) -> ConnFate {
    while let Some(pending) = conn.out.get(conn.out_pos..) {
        if pending.is_empty() {
            break;
        }
        match conn.stream.write(pending) {
            Ok(0) => return ConnFate::Close,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnFate::Close,
        }
    }
    if conn.out_pos >= conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    } else if conn.out_pos >= OUT_COMPACT_AT {
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
    ConnFate::Keep
}

/// Over the connection cap: answer with a protocol error so the client
/// sees a reason instead of a silent reset, then hang up.
fn refuse(stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    let resp = Response::Error("connection limit reached; retry later".into());
    let mut frame = Vec::new();
    let _ = write_frame(&mut frame, &encode_response(&resp));
    // One nonblocking write: an error frame this small fits the socket
    // buffer of a just-accepted connection; if not, the close alone
    // carries the message.
    let mut s = stream;
    let _ = s.write(&frame);
    let _ = s.shutdown(std::net::Shutdown::Both);
}

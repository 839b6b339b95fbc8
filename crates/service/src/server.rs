//! The TCP server over `std::net` (no async runtime — crates.io is
//! unavailable; see ROADMAP for the tokio follow-on).
//!
//! [`Server`] is a single-threaded readiness loop (see
//! [`crate::reactor`]) multiplexing every connection over the vendored
//! mio-style poller. Connections are capped, requests pipeline, idle
//! sockets are reaped, and `shutdown()` wakes the loop through the
//! poller's waker, so it returns promptly even when no connection ever
//! arrives.
//!
//! [`handle_request`] translates wire [`Request`]s into [`PeelService`]
//! calls; every service-level failure becomes a protocol `Error`
//! response, never a dropped connection. A `Subscribe` request converts
//! its connection into a replication stream: a
//! [`crate::replication::WindowedSender`] pumped by the loop. A
//! `Shutdown` request stops the server and unblocks [`Server::wait`].
//!
//! Shutdown paths use poison-tolerant locking (`parking_lot` for the
//! waker slot, [`crate::lock`] recovery for the std condvar pair) so a
//! panicking thread can never cascade into a poisoned-shutdown panic.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
// ordering: the stopping flag is Relaxed — it publishes no data of its own
// (the stop_lock mutex write in signal_stop carries the wait()/shutdown
// happens-before), and its reader (the reactor loop) re-checks on every
// wakeup, so a stale read costs one extra accepted connection, not
// correctness. It was SeqCst before the PR-6 ordering audit; nothing needed
// the total order. Connection counters are Relaxed monotonic statistics.
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::sync::{AtomicBool, Condvar, Mutex as StdMutex};

use crate::lock::{plock, pwait};
use crate::reactor::{self, ReactorConfig};
use crate::service::{PeelService, ServiceConfig};
use crate::wire::{Request, Response};

pub(crate) struct Shared {
    pub(crate) service: Arc<PeelService>,
    pub(crate) stopping: AtomicBool,
    // The stop flag + condvar stay on std primitives (the parking_lot
    // shim has no condvar); waits recover from poisoning via
    // `crate::lock`.
    pub(crate) stop_lock: StdMutex<bool>,
    pub(crate) stop_cv: Condvar,
    /// The reactor's waker: `signal_stop` rings it so the loop observes
    /// `stopping` without waiting for socket traffic — the fix for the
    /// shutdown stall.
    pub(crate) waker: Mutex<Option<Arc<mio::Waker>>>,
}

impl Shared {
    fn new(service: Arc<PeelService>) -> Shared {
        Shared {
            service,
            stopping: AtomicBool::new(false),
            stop_lock: StdMutex::new(false),
            stop_cv: Condvar::new(),
            waker: Mutex::new(None),
        }
    }

    pub(crate) fn signal_stop(&self) {
        self.stopping.store(true, Relaxed);
        *plock(&self.stop_lock) = true;
        self.stop_cv.notify_all();
        // Close every subscription, so each replication sender drains and
        // reports its stream finished.
        self.service.replication().close();
        // Ring the reactor so it sees `stopping` promptly even with no
        // inbound traffic.
        if let Some(w) = self.waker.lock().as_ref() {
            let _ = w.wake();
        }
    }
}

/// A listening reconciliation server backed by the readiness loop in
/// [`crate::reactor`]: every connection is served from one thread.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    reactor_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), start
    /// the service worker pool, and begin accepting connections.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: ServiceConfig) -> std::io::Result<Server> {
        Self::bind_with(addr, Arc::new(PeelService::start(cfg)))
    }

    /// Serve an existing service — the follower deployment shape, where
    /// the same [`PeelService`] is shared between this server (read
    /// traffic) and a [`crate::follower::Follower`] driver (replication).
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        service: Arc<PeelService>,
    ) -> std::io::Result<Server> {
        Self::bind_with_cfg(addr, service, ReactorConfig::default())
    }

    /// [`Server::bind_with`] plus reactor tuning (connection cap, idle
    /// timeout, accept backoff, write highwater).
    pub fn bind_with_cfg<A: ToSocketAddrs>(
        addr: A,
        service: Arc<PeelService>,
        rcfg: ReactorConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poll = mio::Poll::new()?;
        // Waker before thread spawn: a shutdown() issued before the
        // loop is ever scheduled must still wake it.
        let waker = Arc::new(mio::Waker::new(poll.registry(), reactor::WAKER)?);
        let shared = Arc::new(Shared::new(service));
        *shared.waker.lock() = Some(Arc::clone(&waker));
        // New replication batches ring the same waker, so the loop
        // pumps followers without a sender thread each.
        let notify = Arc::clone(&waker);
        shared.service.replication().add_notifier(Arc::new(move || {
            let _ = notify.wake();
        }));
        let reactor_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reactor::run(listener, shared, poll, rcfg))
        };
        Ok(Server {
            shared,
            addr,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service (for in-process inspection in tests and
    /// tools).
    pub fn service(&self) -> &PeelService {
        &self.shared.service
    }

    /// A shareable handle to the underlying service.
    pub fn service_arc(&self) -> Arc<PeelService> {
        Arc::clone(&self.shared.service)
    }

    /// Number of currently live client connections (the
    /// `MetricsSnapshot::connections.live` gauge).
    pub fn live_connections(&self) -> usize {
        self.shared
            .service
            .metrics_handle()
            .conns_live
            .load(Relaxed) as usize
    }

    /// Block until a client sends `Shutdown` (or [`Server::shutdown`] is
    /// called from another thread via a clone of the shared state).
    pub fn wait(&self) {
        let mut stopped = plock(&self.shared.stop_lock);
        while !*stopped {
            stopped = pwait(&self.shared.stop_cv, stopped);
        }
    }

    /// Stop accepting, flush-and-close open connections, join the loop
    /// thread, and shut the service down (flushing pending batches).
    /// Idempotent, tolerant of poisoned locks, and prompt: the waker
    /// interrupts the loop's poll, so no inbound connection is needed.
    pub fn shutdown(&mut self) {
        self.shared.signal_stop();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        self.shared.service.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Map one request to one response; the bool asks the server to stop.
///
/// Public so alternative request sources — the deterministic
/// fault-injection harness in `tests/resharding_faults.rs` feeds mangled
/// frame sequences through it — exercise exactly the dispatch the TCP
/// server runs. (`Subscribe` is special-cased by the reactor before it
/// gets here; see `crate::reactor`.)
pub fn handle_request(service: &PeelService, req: Request) -> (Response, bool) {
    let resp = match req {
        Request::Hello => Response::Hello(service.hello()),
        Request::Insert(keys) => Response::Ok {
            accepted: service.insert(&keys),
        },
        Request::Delete(keys) => Response::Ok {
            accepted: service.delete(&keys),
        },
        Request::Flush => {
            service.flush();
            Response::Ok { accepted: 0 }
        }
        Request::Digest { shard } => match service.snapshot_shard(shard) {
            Ok((epoch, iblt)) => Response::Digest { epoch, iblt },
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Reconcile { shard, digest } => match service.reconcile_shard(shard, &digest) {
            Ok(diff) => Response::Diff(diff),
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Stats => Response::Stats(Box::new(service.metrics())),
        Request::MetricsText => Response::MetricsText(crate::prom::render(&service.metrics())),
        Request::DebugDump => Response::DebugDump(
            crate::recorder::global()
                .map(|r| r.dump())
                .unwrap_or_default(),
        ),
        // The reshard coordinator: the four v4 control frames drive the
        // service's migration state machine. Begin runs the snapshot +
        // re-key synchronously (dual-apply is on by the time it
        // returns); Digest verifies one new shard and returns it
        // sparse-encoded; Commit verifies the rest and cuts over.
        Request::ReshardBegin { to_shards } => match service.reshard_begin(to_shards) {
            Ok(status) => Response::Reshard(status),
            Err(e) => Response::Error(e.to_string()),
        },
        Request::ReshardDigest { shard } => match service.reshard_verify(shard) {
            // Freshly split shards are lightly loaded, so the sparse
            // encoding usually wins — but a near-full table flips that
            // (and only the dense form is covered by the start-time
            // frame-cap assert), so pick per table.
            Ok((epoch, iblt)) => {
                if crate::wire::sparse_is_smaller(&iblt) {
                    Response::DigestSparse { epoch, iblt }
                } else {
                    Response::Digest { epoch, iblt }
                }
            }
            Err(e) => Response::Error(e.to_string()),
        },
        Request::ReshardCommit => match service.reshard_commit() {
            Ok(status) => Response::Reshard(status),
            Err(e) => Response::Error(e.to_string()),
        },
        Request::ReshardAbort => match service.reshard_abort() {
            Ok(status) => Response::Reshard(status),
            Err(e) => Response::Error(e.to_string()),
        },
        Request::ReplicaStatus => Response::ReplicaStatus(service.replica_status()),
        Request::ReadDigest { shard, max_lag } => {
            let lag = service.replica_lag();
            if lag > max_lag {
                Response::ReadStale {
                    lag,
                    redirect: service.primary_hint(),
                }
            } else {
                match service.snapshot_shard(shard) {
                    Ok((epoch, iblt)) => Response::Digest { epoch, iblt },
                    Err(e) => Response::Error(e.to_string()),
                }
            }
        }
        Request::Shutdown => return (Response::Ok { accepted: 0 }, true),
        // Subscribe is intercepted by the reactor; a stray ack
        // outside a subscribed stream is a client bug.
        Request::Subscribe { .. } | Request::ReplicateAck { .. } => {
            Response::Error("replication frame outside a subscribed stream".into())
        }
    };
    (resp, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peel_iblt::IbltConfig;

    fn tiny_cfg() -> ServiceConfig {
        ServiceConfig {
            shards: 2,
            shard_iblt: IbltConfig::for_load(4, 64, 0.5, 1),
            batch_size: 16,
            queue_depth: 4,
            workers: 1,
            ..ServiceConfig::default()
        }
    }

    /// Regression test for the poisoned-shutdown cascade: a thread that
    /// panics while holding the server's std stop lock used to make
    /// every later `wait`/`shutdown` panic on `.lock().unwrap()`.
    #[test]
    fn shutdown_survives_poisoned_locks() {
        let mut server = Server::bind("127.0.0.1:0", tiny_cfg()).unwrap();
        let shared = Arc::clone(&server.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.stop_lock.lock().unwrap();
            panic!("poison the stop lock while holding it");
        })
        .join();
        assert!(server.shared.stop_lock.is_poisoned());
        // Both the condvar path and the teardown path must still work.
        server.shutdown();
        server.wait();
    }

    #[test]
    fn shutdown_survives_a_panicked_subscriber_thread() {
        let mut server = Server::bind("127.0.0.1:0", tiny_cfg()).unwrap();
        let service = server.service_arc();
        // A replication consumer that dies mid-stream must not wedge or
        // poison anything the server needs to stop.
        let sub_thread = std::thread::spawn(move || {
            let sub = service.replication().subscribe();
            let _ = sub.recv();
            panic!("consumer dies while subscribed");
        });
        // Publish only once the subscription is registered, or the
        // consumer would block forever on a stream that misses it.
        while server.service().replication().followers() == 0 {
            std::thread::yield_now();
        }
        server.service().insert(&[1, 2, 3]);
        server.service().flush();
        let _ = sub_thread.join();
        server.shutdown();
    }
}

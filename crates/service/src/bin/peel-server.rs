//! The reconciliation server binary.
//!
//! ```sh
//! # Primary (reactor server: all connections on one readiness loop;
//! # --max-conns caps live sockets, --idle-timeout-ms reaps idle ones):
//! peel-server [--addr 127.0.0.1:7744] [--shards 4] [--diff-budget 2048]
//!             [--batch-size 1024] [--queue-depth 64] [--workers N]
//!             [--repl-queue-depth 256] [--max-conns 4096]
//!             [--idle-timeout-ms 60000]
//!
//! # Follower (adopts the primary's sharding from its Hello handshake,
//! # streams its sealed batches, and repairs divergence by anti-entropy):
//! peel-server --addr 127.0.0.1:7745 --follow 127.0.0.1:7744
//!             [--anti-entropy-ms 200]
//!
//! # Mesh replica (same, plus failover: --node-id is the election
//! # tie-breaker, --mesh lists the *other* replicas to probe when the
//! # primary dies, --advertise is where stale reads are redirected if
//! # this node wins):
//! peel-server --addr 127.0.0.1:7745 --follow 127.0.0.1:7744 \
//!             --node-id 1 --mesh 127.0.0.1:7746,127.0.0.1:7747 \
//!             --advertise 127.0.0.1:7745
//! ```
//!
//! Binds, prints `listening on <addr>`, and serves until a client sends
//! `Shutdown` (see `examples/replicated_service.rs` for a full
//! primary + follower + client flow). On exit it prints the final
//! service metrics, including the replication counters.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use peel_service::client::Client;
use peel_service::follower::{Follower, FollowerConfig};
use peel_service::reactor::ReactorConfig;
use peel_service::server::Server;
use peel_service::service::{PeelService, ServiceConfig};

/// Capacity of the in-process flight recorder (recent structured trace
/// events, dumped by `DebugDump` frames and the panic hook).
const FLIGHT_RECORDER_CAPACITY: usize = 4096;

/// Serve the Prometheus text exposition on a plain-HTTP listener: every
/// connection gets one `200 text/plain` response with the current
/// metrics render, whatever the request bytes say. That is all a scrape
/// loop needs, with no HTTP machinery in the dependency tree.
fn serve_metrics(listener: std::net::TcpListener, service: Arc<PeelService>) {
    for conn in listener.incoming() {
        let Ok(mut stream) = conn else { continue };
        // Drain (best-effort) the request head so the peer's write side
        // isn't reset before it finishes sending.
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf);
        let body = peel_service::prom::render(&service.metrics());
        let head = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = stream
            .write_all(head.as_bytes())
            .and_then(|_| stream.write_all(body.as_bytes()));
    }
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    arg_value(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        eprintln!(
            "peel-server [--addr 127.0.0.1:7744] [--shards 4] [--diff-budget 2048]\n\
             \x20           [--batch-size 1024] [--queue-depth 64] [--workers N]\n\
             \x20           [--repl-queue-depth 256] [--repl-window 32]\n\
             \x20           [--max-conns 4096] [--idle-timeout-ms 60000]\n\
             \x20           [--metrics-addr ADDR]\n\
             \x20           [--follow PRIMARY_ADDR] [--anti-entropy-ms 200]\n\
             \x20           [--node-id N] [--mesh A1,A2,..] [--advertise ADDR]\n\
             Sharded IBLT set-reconciliation server; stops on a Shutdown request.\n\
             Connections are served by a single-threaded readiness loop capped at\n\
             --max-conns live sockets; idle ones are reaped after --idle-timeout-ms\n\
             (0 disables).\n\
             With --follow it runs as a replication follower of PRIMARY_ADDR,\n\
             adopting the primary's sharding and healing divergence by\n\
             anti-entropy; --mesh additionally lists the other replicas so a\n\
             dead primary triggers an election (lowest --node-id among the\n\
             most caught-up wins; --advertise is this node's redirect target).\n\
             With --metrics-addr it additionally serves the Prometheus text\n\
             exposition over plain HTTP on ADDR."
        );
        return;
    }
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7744".into());
    let follow = arg_value(&args, "--follow");
    let metrics_addr = arg_value(&args, "--metrics-addr");

    // Flight recorder first, so every span/event from startup onward is
    // captured; the panic hook dumps its tail alongside the backtrace so
    // a crash report carries the moments leading up to it.
    let recorder = peel_service::recorder::install_global(FLIGHT_RECORDER_CAPACITY);
    let hook_recorder = Arc::clone(&recorder);
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        let records = hook_recorder.dump();
        eprintln!("peel-server: flight recorder ({} events):", records.len());
        for rec in records.iter().rev().take(64).rev() {
            eprintln!("  {rec}");
        }
    }));

    // A follower must shard exactly like its primary, so its config
    // comes from the primary's Hello handshake, not from CLI knobs.
    let mut cfg = match &follow {
        Some(primary) => {
            let mut probe = match Client::connect_retry(primary.as_str(), Duration::from_secs(10)) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("peel-server: cannot reach primary {primary}: {e}");
                    std::process::exit(1);
                }
            };
            match probe.hello() {
                Ok(h) => ServiceConfig::from_hello(&h),
                Err(e) => {
                    eprintln!("peel-server: bad handshake from primary {primary}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            let shards: u32 = parse(&args, "--shards", 4);
            let diff_budget: usize = parse(&args, "--diff-budget", 2048);
            ServiceConfig::for_diff_budget(shards, diff_budget)
        }
    };
    cfg.batch_size = parse(&args, "--batch-size", cfg.batch_size);
    cfg.queue_depth = parse(&args, "--queue-depth", cfg.queue_depth);
    cfg.workers = parse(&args, "--workers", cfg.workers);
    cfg.repl_queue_depth = parse(&args, "--repl-queue-depth", cfg.repl_queue_depth);
    cfg.repl_window = parse(&args, "--repl-window", cfg.repl_window);
    cfg.node_id = parse(&args, "--node-id", cfg.node_id);

    let idle_ms: u64 = parse(&args, "--idle-timeout-ms", 60_000);
    let rcfg = ReactorConfig {
        max_connections: parse(
            &args,
            "--max-conns",
            ReactorConfig::default().max_connections,
        ),
        idle_timeout: (idle_ms > 0).then(|| Duration::from_millis(idle_ms)),
        ..ReactorConfig::default()
    };

    let service = Arc::new(PeelService::start(cfg));
    let bound = Server::bind_with_cfg(addr.as_str(), Arc::clone(&service), rcfg.clone());
    let mut server = match bound {
        Ok(s) => s,
        Err(e) => {
            eprintln!("peel-server: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "peel-server listening on {} ({} shards × {} cells, batch {}, queue {}, {} workers, \
         reactor capped at {} conns{})",
        server.local_addr(),
        cfg.shards,
        cfg.shard_iblt.total_cells(),
        cfg.batch_size,
        cfg.queue_depth,
        cfg.workers,
        rcfg.max_connections,
        match &follow {
            Some(p) => format!(", following {p}"),
            None => String::new(),
        },
    );

    if let Some(maddr) = metrics_addr {
        match std::net::TcpListener::bind(maddr.as_str()) {
            Ok(listener) => {
                println!(
                    "peel-server serving metrics on http://{}/metrics",
                    listener
                        .local_addr()
                        .map_or(maddr.clone(), |a| a.to_string()),
                );
                let svc = Arc::clone(&service);
                std::thread::spawn(move || serve_metrics(listener, svc));
            }
            Err(e) => {
                eprintln!("peel-server: cannot bind metrics address {maddr}: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut follower = follow.map(|primary| {
        use std::net::ToSocketAddrs;
        let primary_addr: SocketAddr = match primary
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
        {
            Some(a) => a,
            None => {
                eprintln!("peel-server: bad primary address {primary}");
                std::process::exit(1);
            }
        };
        let peers: Vec<SocketAddr> = arg_value(&args, "--mesh")
            .map(|list| {
                list.split(',')
                    .filter_map(|a| {
                        a.trim()
                            .to_socket_addrs()
                            .ok()
                            .and_then(|mut addrs| addrs.next())
                    })
                    .collect()
            })
            .unwrap_or_default();
        let fcfg = FollowerConfig {
            anti_entropy_interval: Duration::from_millis(parse(&args, "--anti-entropy-ms", 200)),
            peers,
            advertise: arg_value(&args, "--advertise").unwrap_or_default(),
            ..FollowerConfig::default()
        };
        Follower::start(Arc::clone(&service), primary_addr, fcfg)
    });

    server.wait();
    if let Some(f) = follower.as_mut() {
        f.stop();
    }
    server.shutdown();
    let m = server.service().metrics();
    println!(
        "peel-server: shut down after {} ops in {} batches (occupancy {:.1}), \
         {} stalls, {} recoveries ({} incomplete, {} subrounds, {:.3} ms decoding total)",
        m.ops_applied,
        m.batches_applied,
        m.mean_batch_occupancy(),
        m.queue_stalls,
        m.recoveries,
        m.recoveries_incomplete,
        m.recovery_subrounds,
        m.recovery_latency.sum as f64 / 1e6,
    );
    let r = &m.replication;
    println!(
        "peel-server: replication: {} followers, seq {} published / {} acked (max lag {}), \
         {} streamed, {} dropped; follower side: {} applied, {} skipped, {} torn frames, \
         {} anti-entropy rounds healing {} keys",
        r.followers,
        r.published_seq,
        r.acked_min,
        r.max_lag,
        r.batches_streamed,
        r.batches_dropped,
        r.batches_applied,
        r.batches_skipped,
        r.decode_errors,
        r.anti_entropy_rounds,
        r.anti_entropy_keys,
    );
    let rs = &m.reshard;
    println!(
        "peel-server: resharding: generation {} at {} shards, {} reshards committed \
         ({} keys moved by the last one), {} aborted",
        rs.generation, rs.serving_shards, rs.completed, rs.keys_moved, rs.aborted,
    );
}

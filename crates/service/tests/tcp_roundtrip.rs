//! End-to-end exercises of the TCP server/client pair on loopback:
//! the full request surface, error paths, and clean shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use peel_iblt::{Iblt, IbltConfig};
use peel_service::wire::PROTOCOL_VERSION;
use peel_service::{
    Client, Follower, FollowerConfig, PeelService, Server, ServiceConfig, WireError,
};

fn test_cfg() -> ServiceConfig {
    ServiceConfig {
        batch_size: 128,
        workers: 2,
        ..ServiceConfig::for_diff_budget(4, 256)
    }
}

#[test]
fn full_request_surface() {
    let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
    let mut c = Client::connect_retry(server.local_addr(), Duration::from_secs(5)).unwrap();

    let hello = c.hello().unwrap();
    assert_eq!(hello.shards, 4);

    let keys: Vec<u64> = (0..500u64).map(|i| i * 7 + 3).collect();
    assert_eq!(c.insert(&keys).unwrap(), 500);
    assert_eq!(c.delete(&keys[..100]).unwrap(), 100);
    c.flush().unwrap();

    // Digest: the four shard snapshots decode to the net content.
    let mut total = 0;
    for shard in 0..4 {
        let (epoch, iblt) = c.digest(shard).unwrap();
        assert!(epoch > 0);
        let rec = iblt.recover();
        assert!(rec.complete);
        assert!(rec.negative.is_empty());
        total += rec.positive.len();
    }
    assert_eq!(total, 400);

    // Reconcile against our own view of the key set: empty difference.
    let diff = c.reconcile(&keys[100..]).unwrap();
    assert!(diff.complete);
    assert!(diff.only_server.is_empty());
    assert!(diff.only_client.is_empty());
    assert_eq!(diff.shards.len(), 4);

    let stats = c.stats().unwrap();
    assert_eq!(stats.ops_applied, 600);
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(stats.recoveries, 4);
    assert!(stats.mean_batch_occupancy() > 0.0);
}

#[test]
fn service_errors_come_back_as_remote_errors() {
    let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Shard out of range.
    match c.digest(99) {
        Err(WireError::Remote(msg)) => assert!(msg.contains("out of range"), "{msg}"),
        other => panic!("expected remote error, got {other:?}"),
    }
    // Digest with the wrong config.
    let bogus = Iblt::new(IbltConfig::new(3, 17, 1));
    match c.reconcile_shard(0, &bogus) {
        Err(WireError::Remote(msg)) => assert!(msg.contains("does not match"), "{msg}"),
        other => panic!("expected remote error, got {other:?}"),
    }
    // The connection survives errors: a normal call still works.
    assert!(c.hello().is_ok());
}

#[test]
fn shutdown_request_stops_the_server() {
    let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();
    c.insert(&[1, 2, 3]).unwrap();
    c.shutdown_server().unwrap();
    // wait() returns because the client's Shutdown fired.
    server.wait();
    // The pending partial batch was flushed during shutdown.
    drop(c);
}

#[test]
fn closed_connections_are_reaped() {
    let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
    let addr = server.local_addr();
    for _ in 0..20 {
        let mut c = Client::connect(addr).unwrap();
        c.hello().unwrap();
        drop(c);
    }
    // Handlers remove their connection entry on exit; give them a beat.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.live_connections() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "{} connections still tracked after close",
            server.live_connections()
        );
        std::thread::yield_now();
    }
}

#[test]
fn follower_driver_replicates_over_tcp() {
    // Budget headroom over the planned churn so anti-entropy could heal
    // even a fully missed stream window.
    let cfg = ServiceConfig {
        batch_size: 128,
        workers: 2,
        ..ServiceConfig::for_diff_budget(4, 4_000)
    };
    let primary = Server::bind("127.0.0.1:0", cfg).unwrap();
    let fsvc = Arc::new(PeelService::start(cfg));
    let mut follower = Follower::start(
        Arc::clone(&fsvc),
        primary.local_addr(),
        FollowerConfig {
            anti_entropy_interval: Duration::from_millis(50),
            ..FollowerConfig::default()
        },
    );

    let mut c = Client::connect_retry(primary.local_addr(), Duration::from_secs(5)).unwrap();
    // Let the stream subscription attach before traffic flows, so the
    // fast path (not just repair) is exercised.
    let deadline = Instant::now() + Duration::from_secs(10);
    while c.stats().unwrap().replication.followers == 0 {
        assert!(Instant::now() < deadline, "follower never subscribed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let keys: Vec<u64> = (0..2_000u64)
        .map(|i| i.wrapping_mul(0x9e37) ^ 0xf0)
        .collect();
    c.insert(&keys).unwrap();
    c.delete(&keys[..250]).unwrap();
    c.flush().unwrap();

    // The follower converges to cell-identical shard digests (stream
    // fast path, with anti-entropy mopping up whatever raced).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let identical = (0..4u32).all(|shard| {
            let (_e, p) = primary.service().snapshot_shard(shard).unwrap();
            let (_e, f) = fsvc.snapshot_shard(shard).unwrap();
            p == f
        });
        if identical {
            break;
        }
        assert!(Instant::now() < deadline, "follower never converged");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The primary sees its follower; the follower accounted the stream.
    let stats = c.stats().unwrap();
    assert_eq!(stats.replication.followers, 1);
    assert!(stats.replication.batches_streamed > 0);
    let fm = fsvc.metrics();
    assert!(
        fm.replication.batches_applied > 0,
        "stream applied nothing; convergence came only from repair"
    );
    follower.stop();
}

#[test]
fn reshard_round_trips_over_tcp() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            batch_size: 128,
            workers: 2,
            ..ServiceConfig::for_diff_budget(1, 2_048)
        },
    )
    .unwrap();
    let mut c = Client::connect_retry(server.local_addr(), Duration::from_secs(5)).unwrap();
    assert_eq!(c.hello().unwrap().shards, 1);
    let keys: Vec<u64> = (0..800u64).map(|i| i * 11 + 5).collect();
    c.insert(&keys).unwrap();
    c.flush().unwrap();

    // Begin, inspect a sparse new-generation digest, commit.
    let status = c.reshard_begin(4).unwrap();
    assert!(status.resharding);
    assert_eq!(status.keys_moved, 800);
    let (_epoch, d0) = c.reshard_digest(0).unwrap();
    let rec = d0.recover();
    assert!(rec.complete);
    assert!(!rec.positive.is_empty(), "new shard 0 got no keys");
    let status = c.reshard_commit().unwrap();
    assert!(!status.resharding);
    assert_eq!(status.serving_shards, 4);
    assert_eq!(status.completed, 1);

    // The refreshed handshake advertises the new count, and the full
    // content survived the re-keying.
    assert_eq!(c.hello().unwrap().shards, 4);
    let diff = c.reconcile(&keys).unwrap();
    assert!(diff.complete);
    assert!(diff.only_server.is_empty());
    assert!(diff.only_client.is_empty());
    assert_eq!(diff.shards.len(), 4);

    // Control frames outside a migration are clean remote errors.
    match c.reshard_commit() {
        Err(WireError::Remote(msg)) => assert!(msg.contains("no reshard"), "{msg}"),
        other => panic!("expected remote error, got {other:?}"),
    }
    // The whole-reshard driver works too (merge 4 → 2).
    let status = c.reshard(2).unwrap();
    assert_eq!(status.serving_shards, 2);
    assert_eq!(c.hello().unwrap().shards, 2);
}

/// Version negotiation, downward: a protocol-v3 client (pre-reshard
/// frame surface) against today's v5 server. The graceful-degradation
/// contract covers the data plane: every keyspace frame a v3 client can
/// send (`Hello`/`Insert`/`Delete`/`Flush`/`Digest`/`Reconcile`/
/// `Shutdown` and the replication stream) is byte-identical in v5 and
/// must work unchanged. `Stats` is the deliberate exception — its
/// payload grew with each revision up to v7 and moved to a named-entry
/// frame under a new tag in v8, so a version-mismatched `Stats` decodes
/// to a clean `TrailingBytes` or `BadTag` error, never corruption.
#[test]
fn v3_client_against_v4_server_degrades_gracefully() {
    let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    // The server advertises its own, higher version; a v3 client
    // ignores it and keeps to its own frame surface.
    assert_eq!(c.hello().unwrap().version, PROTOCOL_VERSION);
    let keys: Vec<u64> = (0..300u64).map(|i| i * 13).collect();
    assert_eq!(c.insert(&keys).unwrap(), 300);
    c.flush().unwrap();
    let diff = c.reconcile(&keys).unwrap();
    assert!(diff.complete && diff.only_server.is_empty() && diff.only_client.is_empty());
    let (_epoch, iblt) = c.digest(0).unwrap();
    assert!(iblt.recover().complete);
}

/// Version negotiation, upward: a v4 client against a v3 server (mocked
/// with the v3 frame surface: it answers `Hello` with version 3 and any
/// unknown tag with a protocol `Error`, exactly as the real v3 server's
/// total decoder did). `Client::reshard` must refuse cleanly before
/// sending any reshard frame, and a raw reshard frame must come back as
/// a remote error — never a hang, panic, or dropped connection.
#[test]
fn v4_client_against_v3_server_degrades_gracefully() {
    use peel_service::wire::{encode_response, read_frame, write_frame, HelloInfo, Response};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let v3_hello = HelloInfo {
        version: 3,
        shards: 2,
        router_seed: 7,
        base_config: peel_iblt::IbltConfig::for_load(4, 64, 0.5, 1),
        batch_size: 128,
        epoch: 0,
    };
    let mock = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = stream.try_clone().unwrap();
        let mut writer = std::io::BufWriter::new(stream);
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            // The v3 request surface ends at tag 0x0a (ReplicateAck).
            let resp = match payload.first().copied() {
                Some(0x01) => Response::Hello(v3_hello),
                Some(tag) if tag >= 0x0b => {
                    Response::Error(format!("bad request: unknown message tag {tag:#04x}"))
                }
                _ => Response::Ok { accepted: 0 },
            };
            if write_frame(&mut writer, &encode_response(&resp)).is_err() {
                break;
            }
        }
    });

    let mut c = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
    // The driver sees version 3 in the handshake and refuses up front.
    match c.reshard(4) {
        Err(WireError::Remote(msg)) => assert!(msg.contains("needs v4"), "{msg}"),
        other => panic!("expected clean version refusal, got {other:?}"),
    }
    // A raw v4 frame surfaces the server's tag error as a remote error
    // on a connection that stays usable.
    match c.reshard_begin(4) {
        Err(WireError::Remote(msg)) => assert!(msg.contains("unknown message tag"), "{msg}"),
        other => panic!("expected remote tag error, got {other:?}"),
    }
    assert_eq!(c.hello().unwrap().version, 3);
    drop(c);
    mock.join().unwrap();
}

#[test]
fn concurrent_clients_share_one_service() {
    let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
    let addr = server.local_addr();
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let keys: Vec<u64> = (0..250u64).map(|i| t * 1_000 + i).collect();
                assert_eq!(c.insert(&keys).unwrap(), 250);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut c = Client::connect(addr).unwrap();
    c.flush().unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.ops_applied, 1_000);
    assert_eq!(stats.shards.iter().map(|s| s.inserts).sum::<u64>(), 1_000);
}

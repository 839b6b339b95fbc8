//! Reactor-server integration tests on loopback: prompt shutdown with
//! no inbound connection (the stall this PR fixed), the connection cap
//! refusing politely, the idle reaper, and heavy single-connection
//! pipelining answered strictly in order.

use std::io::{BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use peel_service::wire::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use peel_service::{Client, PeelService, ReactorConfig, Server, ServiceConfig};

fn test_cfg() -> ServiceConfig {
    ServiceConfig {
        batch_size: 128,
        workers: 2,
        ..ServiceConfig::for_diff_budget(2, 256)
    }
}

/// The regression the reactor's waker fixed: `shutdown()` must return
/// promptly even when no connection ever arrives to nudge the accept
/// loop, with no throwaway loopback connect.
#[test]
fn shutdown_completes_promptly_with_no_inbound_connection() {
    let mut server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
    // Never connect. The reactor thread is parked in poll() with no
    // traffic; only the waker can get shutdown through.
    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "shutdown with zero inbound connections took {took:?} — the reactor stalled"
    );
}

/// Shutdown must also complete while clients are still attached and
/// silent: the grace drain flushes and closes them rather than waiting
/// for the peers to hang up first.
#[test]
fn shutdown_completes_with_silent_clients_attached() {
    let mut server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
    let addr = server.local_addr();
    let mut idlers: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // Wait until the reactor has actually accepted the idlers so the
    // shutdown below really races live connections.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_connections() < idlers.len() {
        assert!(Instant::now() < deadline, "idlers never accepted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown stalled behind silent attached clients"
    );
    // Every idler observes the close instead of hanging.
    for s in &mut idlers {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 64];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue, // leftover flushed bytes
                Err(e) => panic!("idler did not observe server close: {e}"),
            }
        }
    }
}

/// Past `max_connections`, an accept is answered with a best-effort
/// protocol `Error` frame, closed, and counted — not silently dropped
/// and not allowed to grow the connection table.
#[test]
fn connection_cap_refuses_politely_and_counts() {
    let service = std::sync::Arc::new(PeelService::start(test_cfg()));
    let rcfg = ReactorConfig {
        max_connections: 2,
        ..ReactorConfig::default()
    };
    let mut server = Server::bind_with_cfg("127.0.0.1:0", service, rcfg).unwrap();
    let addr = server.local_addr();

    let mut keeper = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
    keeper.hello().unwrap();
    let _second = TcpStream::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_connections() < 2 {
        assert!(
            Instant::now() < deadline,
            "first two connections never accepted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Third connection: over the cap. It must be refused — an Error
    // frame if the kernel buffered our courtesy write, then EOF.
    let mut refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match read_frame(&mut refused) {
        Ok(Some(payload)) => {
            let resp = decode_response(&payload).unwrap();
            assert!(
                matches!(resp, Response::Error(_)),
                "refusal frame was not an Error response: {resp:?}"
            );
            // After the courtesy frame the socket closes.
            let mut buf = [0u8; 16];
            assert_eq!(refused.read(&mut buf).unwrap_or(0), 0);
        }
        Ok(None) => {} // closed before the frame — acceptable
        Err(e) => panic!("refused connection read failed oddly: {e}"),
    }

    // The refusal is visible in the stats a surviving client reads,
    // and the live gauge never exceeded the cap.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = keeper.stats().unwrap();
        if snap.connections.refused >= 1 {
            assert!(snap.connections.live <= 2, "live gauge exceeded the cap");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "refused counter never ticked: {:?}",
            snap.connections
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// A connection with no traffic for longer than `idle_timeout` is
/// closed by the reaper and counted; fresh connections still work.
#[test]
fn idle_connections_are_reaped() {
    let service = std::sync::Arc::new(PeelService::start(test_cfg()));
    let rcfg = ReactorConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ReactorConfig::default()
    };
    let mut server = Server::bind_with_cfg("127.0.0.1:0", service, rcfg).unwrap();
    let addr = server.local_addr();

    let mut idler = TcpStream::connect(addr).unwrap();
    idler
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // The reaper closes us: read unblocks with EOF (or a reset), not a
    // 30-second hang.
    let start = Instant::now();
    let mut buf = [0u8; 16];
    match idler.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("idle connection received {n} unsolicited bytes"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "idle reap did not happen in time"
    );

    // A new (active) client still connects fine and sees the reap
    // counted. It keeps itself alive by the stats polling itself.
    let mut c = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = c.stats().unwrap();
        if snap.connections.idle_reaped >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "idle_reaped never ticked: {:?}",
            snap.connections
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// Heavy single-connection pipelining: many frames written before any
/// response is read, answered strictly in request order.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let mut server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
    let addr = server.local_addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    let hello = encode_request(&Request::Hello);
    let stats = encode_request(&Request::Stats);
    let insert = encode_request(&Request::Insert(vec![1, 2, 3]));
    const ROUNDS: usize = 64;
    {
        let mut w = BufWriter::new(s.try_clone().unwrap());
        for k in 0..ROUNDS {
            let frame = match k % 3 {
                0 => &hello,
                1 => &insert,
                _ => &stats,
            };
            write_frame(&mut w, frame).unwrap();
        }
        w.flush().unwrap();
    }
    for k in 0..ROUNDS {
        let payload = read_frame(&mut s)
            .unwrap()
            .unwrap_or_else(|| panic!("connection closed before response {k}"));
        let resp = decode_response(&payload).unwrap();
        let ok = matches!(
            (k % 3, &resp),
            (0, Response::Hello(_)) | (1, Response::Ok { .. }) | (2, Response::Stats(_))
        );
        assert!(ok, "response {k} out of order or wrong variant: {resp:?}");
    }
    server.shutdown();
}

//! `cargo xtask conn-smoke` — a many-connection pipelining smoke test.
//!
//! Spawns one real `peel-server` process and drives at least 512
//! concurrent client connections against it, every one of them
//! pipelining a burst of requests (all frames written before any
//! response is read). Asserts that every pipelined response arrives in
//! order, that the server's own connection gauge saw the full herd,
//! and — the regression this guards — that a `Shutdown` request makes
//! the process exit cleanly while hundreds of sockets are still open.
//! The server log lands in `target/conn-smoke/` and is kept on failure.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use peel_service::wire::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use peel_service::Client;

/// How many concurrent connections the smoke test holds open. CI
/// default fd limits are 1024; 512 sockets plus the harness's own fds
/// fit comfortably.
const CONNECTIONS: usize = 512;

/// Pipelined requests per connection (written back-to-back before the
/// first response is read).
const BURST: usize = 8;

/// Whole-scenario deadline; the happy path is a few seconds.
const DEADLINE: Duration = Duration::from_secs(120);

/// A child process killed (not waited politely) on drop, so an early
/// `?` return cannot leak a server into the CI job.
struct Node {
    child: Child,
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reserve an ephemeral loopback port by binding and dropping (same
/// trade-off as mesh-smoke: racy in principle, reliable on a CI box).
fn free_addr() -> Result<SocketAddr, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot probe a free port: {e}"))?;
    listener
        .local_addr()
        .map_err(|e| format!("cannot read probed port: {e}"))
}

/// Run the scenario. `bin` is a built `peel-server`.
pub fn run(root: &Path, bin: &Path) -> Result<(), String> {
    let logdir = root.join("target").join("conn-smoke");
    std::fs::create_dir_all(&logdir).map_err(|e| format!("cannot create {logdir:?}: {e}"))?;
    let log = File::create(logdir.join("server.log"))
        .map_err(|e| format!("cannot create server.log: {e}"))?;
    let elog = log
        .try_clone()
        .map_err(|e| format!("cannot clone server.log handle: {e}"))?;

    let addr = free_addr()?;
    let deadline = Instant::now() + DEADLINE;
    let mut node = Node {
        child: Command::new(bin)
            .args([
                "--addr".to_string(),
                addr.to_string(),
                // Cap above the herd so nothing is refused, but low
                // enough that the cap path is honest config, not the
                // default.
                "--max-conns".to_string(),
                (CONNECTIONS + 64).to_string(),
                "--shards".to_string(),
                "2".to_string(),
                "--diff-budget".to_string(),
                "256".to_string(),
            ])
            .stdout(Stdio::from(log))
            .stderr(Stdio::from(elog))
            .spawn()
            .map_err(|e| format!("cannot spawn peel-server: {e}"))?,
    };

    // Wait for the listener.
    let mut probe = Client::connect_retry(addr, Duration::from_secs(10))
        .map_err(|e| format!("server never came up on {addr}: {e}"))?;
    probe
        .hello()
        .map_err(|e| format!("handshake failed: {e}"))?;

    // Open the herd. Every socket stays open until after the
    // shutdown is issued, so the server really holds CONNECTIONS + 1
    // live connections at once.
    let mut herd: Vec<TcpStream> = Vec::with_capacity(CONNECTIONS);
    for i in 0..CONNECTIONS {
        let s = TcpStream::connect(addr)
            .map_err(|e| format!("connection {i}/{CONNECTIONS} failed: {e}"))?;
        let _ = s.set_nodelay(true);
        herd.push(s);
    }

    // Pipeline a burst on every connection: write all BURST frames,
    // then read all BURST responses, asserting order and content.
    let stats_frame = encode_request(&Request::Stats);
    let hello_frame = encode_request(&Request::Hello);
    for (i, s) in herd.iter_mut().enumerate() {
        let mut w = BufWriter::new(s.try_clone().map_err(|e| format!("clone {i}: {e}"))?);
        for k in 0..BURST {
            let frame = if k % 2 == 0 {
                &hello_frame
            } else {
                &stats_frame
            };
            write_frame(&mut w, frame).map_err(|e| format!("conn {i} write {k}: {e}"))?;
        }
        w.flush().map_err(|e| format!("conn {i} flush: {e}"))?;
        for k in 0..BURST {
            let payload = read_frame(s)
                .map_err(|e| format!("conn {i} read {k}: {e}"))?
                .ok_or_else(|| format!("conn {i} closed before response {k}"))?;
            let resp = decode_response(&payload).map_err(|e| format!("conn {i} resp {k}: {e}"))?;
            let ok = matches!(
                (k % 2, resp),
                (0, Response::Hello(_)) | (1, Response::Stats(_))
            );
            if !ok {
                return Err(format!(
                    "conn {i}: pipelined response {k} was the wrong variant — \
                     responses arrived out of order"
                ));
            }
        }
        if Instant::now() > deadline {
            return Err("deadline exceeded while driving the herd".into());
        }
    }

    // The server must have seen the whole herd live at once (the herd
    // plus the probe client).
    let snap = probe
        .stats()
        .map_err(|e| format!("stats after herd: {e}"))?;
    if (snap.connections.live as usize) < CONNECTIONS {
        return Err(format!(
            "server gauge saw only {} live connections, expected at least {CONNECTIONS}",
            snap.connections.live
        ));
    }
    if (snap.connections.accepted as usize) < CONNECTIONS + 1 {
        return Err(format!(
            "server counted only {} accepted connections, expected at least {}",
            snap.connections.accepted,
            CONNECTIONS + 1
        ));
    }

    // Shutdown with the herd still connected: the reactor must flush,
    // close every socket, and let the process exit — no stall waiting
    // for the herd to hang up first.
    probe
        .shutdown_server()
        .map_err(|e| format!("shutdown request: {e}"))?;
    let exit = loop {
        match node.child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() > deadline => {
                return Err("server did not exit after Shutdown with the herd connected".into())
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => return Err(format!("waiting for server exit: {e}")),
        }
    };
    if !exit.success() {
        return Err(format!("server exited uncleanly: {exit}"));
    }

    // Every herd socket must observe the close (read returns 0/err, not
    // a hang) — sample a few rather than serially timing out on all.
    for (i, s) in herd.iter_mut().enumerate().take(8) {
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| format!("conn {i} set timeout: {e}"))?;
        let mut buf = [0u8; 64];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue, // drained a leftover flushed frame
                Err(e) => return Err(format!("conn {i}: close not observed: {e}")),
            }
        }
    }

    println!(
        "conn-smoke: {CONNECTIONS} concurrent connections × {BURST} pipelined requests, \
         clean shutdown with the herd attached"
    );
    let _ = std::fs::remove_dir_all(&logdir);
    Ok(())
}

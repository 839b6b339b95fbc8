//! `svc-bulk` and `svc-mixed`: the reconciliation service over loopback
//! TCP, as a client sees it.
//!
//! Both run an in-process [`Server`] of 4 shards sized for a difference
//! of 32 768 keys, holding 2 000 000 resident keys, against a peer set
//! that lacks 8192 of them and holds 8192 others: the planted
//! difference every `Reconcile` must return.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use peel_iblt::Iblt;
use peel_service::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, FrameDecoder,
    HelloInfo, Request, Response, ShardDiff, WireError,
};
use peel_service::{
    build_shard_digests, handle_request, Client, PeelService, Server, ServiceConfig, ShardRouter,
};

use crate::affinity;
use crate::keys::KeySpace;
use crate::report::{Report, Tally};
use crate::stats::{median, quantile, windowed_quantile};
use crate::trace::Recorder;
use crate::{repeat_setup, Env};

const SHARDS: u32 = 4;
const DIFF_BUDGET: usize = 32_768;
const RESIDENT: usize = 2_000_000;
/// Keys planted on each side of the difference.
const PLANTED: usize = 8192;
/// Keys in a bulk `Insert` or `Delete` frame.
const BULK_CHUNK: usize = 8192;
/// Keys in one of connection A's frames.
const SMALL_CHUNK: usize = 64;

// Key streams: sets that must stay disjoint.
const RESIDENT_KEYS: u64 = 1;
const PEER_ONLY_KEYS: u64 = 2;
const CHURN_KEYS: u64 = 3;
const SMALL_KEYS: u64 = 4;

/// One slice of `svc-bulk`: this many chunks inserted, the same chunks
/// deleted, a flush; then this many `Reconcile` frames.
const CHURN_CHUNKS: u64 = 32;
const RECONCILES: u32 = 32;
/// A traced run replays every so many requests through the stages.
const REPLAY_EVERY: u64 = 8;
/// Connection B's op ids start here, so that no two requests of a run
/// share one.
const HEAVY_OPS: u64 = 1 << 32;

/// `svc-mixed`, connection A: 2000 small frames a second.
const SMALL_PERIOD: Duration = Duration::from_micros(500);
/// `svc-mixed`, connection B: 50 heavy frames a second, 7 `Reconcile`
/// to 1 `Digest`.
const HEAVY_PERIOD: Duration = Duration::from_millis(20);
/// Connection A spins this long after a send, where an unloaded
/// response arrives, and this long before a due time, which covers the
/// kernel's timer slack; otherwise it sleeps in naps of this length.
const SPIN_AFTER_SEND: Duration = Duration::from_micros(200);
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(150);
const NAP: Duration = Duration::from_micros(100);
/// Width of the windows the insert percentiles are taken over.
const WINDOW_S: f64 = 2.0;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        batch_size: 1024,
        ..ServiceConfig::for_diff_budget(SHARDS, DIFF_BUDGET)
    }
}

struct Fixture {
    server: Server,
    space: KeySpace,
    hello: HelloInfo,
    /// The peer's digest of its own set, per shard.
    peer_digests: Vec<Iblt>,
    /// What a digest of the resident set must be, per shard.
    resident_digests: Vec<Iblt>,
    /// The planted keys only the server holds, per shard, sorted.
    want_local: Vec<Vec<u64>>,
    /// The planted keys only the peer holds, per shard, sorted.
    want_remote: Vec<Vec<u64>>,
    /// Connection B's requests as they go on the wire, `[Reconcile,
    /// Digest]` per shard, encoded once: the connection must not spend
    /// the generator's CPU on cloning and encoding a 786 KB digest for
    /// every frame.
    heavy_frames: Vec<[Vec<u8>; 2]>,
    /// Traced runs replay requests against an in-process service that
    /// holds the same resident set.
    twin: Option<Arc<PeelService>>,
    /// The load generator's CPUs and the server's; `None` on one CPU.
    cpus: Option<(Vec<usize>, Vec<usize>)>,
}

/// A request as it goes on the wire: length prefix, then payload.
fn framed(request: &Request) -> Vec<u8> {
    let payload = encode_request(request);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// One request and its response on a blocking connection.
fn exchange(stream: &mut TcpStream, frame: &[u8]) -> Result<Response, WireError> {
    stream.write_all(frame)?;
    let payload = read_frame(stream)?.ok_or(WireError::UnexpectedEof)?;
    decode_response(&payload)
}

impl Fixture {
    fn build(env: &Env, rec: &mut Recorder, cpus: &Option<(Vec<usize>, Vec<usize>)>) -> Self {
        let space = KeySpace::new(env.seed);
        let resident = space.range(RESIDENT_KEYS, 0..RESIDENT as u64);
        let peer_only = space.range(PEER_ONLY_KEYS, 0..PLANTED as u64);
        let server_only = &resident[..PLANTED];

        // The server's threads, and the twin's, get CPUs of their own;
        // everything this thread starts afterwards is load generator.
        if let Some((_, server_cpus)) = cpus {
            affinity::pin(server_cpus);
        }
        let server = Server::bind("127.0.0.1:0", service_config()).expect("bind a loopback port");
        let twin = env
            .traced
            .then(|| Arc::new(PeelService::start(service_config())));
        if let Some((client_cpus, _)) = cpus {
            affinity::pin(client_cpus);
        }
        let mut client = Client::connect(server.local_addr()).expect("connect over loopback");
        let hello = client.hello().expect("handshake");
        for chunk in resident.chunks(BULK_CHUNK) {
            client.insert(chunk).expect("ingest the resident set");
        }
        client.flush().expect("flush the resident set");

        let mut peer = resident[PLANTED..].to_vec();
        peer.extend_from_slice(&peer_only);
        let (peer_digests, _) = rec.time("router.build_digests", 0, || {
            build_shard_digests(&peer, hello.shards, hello.router_seed, hello.base_config)
        });
        let router = ShardRouter::new(hello.shards, hello.router_seed);
        let sorted_parts = |keys: &[u64]| {
            let mut parts = router.partition(keys);
            parts.iter_mut().for_each(|p| p.sort_unstable());
            parts
        };
        // The resident set is the peer's with the planted keys moved
        // across, so its digests follow from the peer's.
        let mut resident_digests = peer_digests.clone();
        for &k in server_only {
            resident_digests[router.shard_of(k)].insert(k);
        }
        for &k in &peer_only {
            resident_digests[router.shard_of(k)].delete(k);
        }
        if let Some(twin) = &twin {
            twin.insert(&resident);
            twin.flush();
        }
        let heavy_frames = (0..SHARDS)
            .map(|shard| {
                let digest = peer_digests[shard as usize].clone();
                [
                    framed(&Request::Reconcile { shard, digest }),
                    framed(&Request::Digest { shard }),
                ]
            })
            .collect();
        let fixture = Fixture {
            want_local: sorted_parts(server_only),
            want_remote: sorted_parts(&peer_only),
            server,
            space,
            hello,
            peer_digests,
            resident_digests,
            heavy_frames,
            twin,
            cpus: cpus.clone(),
        };
        // Warm-up: a chunk in and out, and one reconcile of every shard.
        let chunk = fixture.churn_chunk(0);
        client.insert(&chunk).expect("warm-up insert");
        client.delete(&chunk).expect("warm-up delete");
        client.flush().expect("warm-up flush");
        for shard in 0..SHARDS {
            client
                .reconcile_shard(shard, &fixture.peer_digests[shard as usize])
                .expect("warm-up reconcile");
        }
        fixture
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    fn churn_chunk(&self, index: u64) -> Vec<u64> {
        let at = index * BULK_CHUNK as u64;
        self.space.range(CHURN_KEYS, at..at + BULK_CHUNK as u64)
    }

    fn small_chunk(&self, index: u64) -> Vec<u64> {
        let at = index * SMALL_CHUNK as u64;
        self.space.range(SMALL_KEYS, at..at + SMALL_CHUNK as u64)
    }

    /// Is `diff` complete, and is it the planted difference of its shard?
    /// While connection A has a chunk in flight the difference may hold
    /// that chunk too, so `svc-mixed` only asks that the planted keys
    /// are all there.
    fn diff_ok(&self, diff: &ShardDiff, exact: bool) -> bool {
        let (Some(local), Some(remote)) = (
            self.want_local.get(diff.shard as usize),
            self.want_remote.get(diff.shard as usize),
        ) else {
            return false;
        };
        diff.complete
            && if exact {
                diff.only_local == *local && diff.only_remote == *remote
            } else {
                contains_sorted(&diff.only_local, local)
                    && contains_sorted(&diff.only_remote, remote)
            }
    }

    /// After the load: flush, then every shard must reconcile to exactly
    /// the planted difference and digest to exactly the resident set.
    fn final_checks(&self, report: &mut Report) {
        let mut client = Client::connect(self.addr()).expect("connect over loopback");
        let flushed = client.flush().is_ok();
        for shard in 0..SHARDS {
            let diff = client.reconcile_shard(shard, &self.peer_digests[shard as usize]);
            report.op(
                flushed && diff.as_ref().is_ok_and(|d| self.diff_ok(d, true)),
                || format!("final reconcile of shard {shard} is not the planted difference"),
            );
            let digest = client.digest(shard);
            report.op(
                digest
                    .as_ref()
                    .is_ok_and(|(_, d)| *d == self.resident_digests[shard as usize]),
                || format!("final digest of shard {shard} differs from the resident set's"),
            );
        }
    }
}

/// Build the fixture, as often as the run sets up, with the server's
/// threads and the load generator's on CPUs of their own. Returns it with
/// the median set-up time.
fn set_up(env: &Env, report: &mut Report, rec: &mut Recorder) -> (Fixture, f64) {
    let cpus = affinity::split();
    let built = repeat_setup(env.setup_repeats(), || Fixture::build(env, rec, &cpus));
    report.note(
        "cpus",
        match &cpus {
            Some((clients, server)) if affinity::allowed() == *clients => {
                format!("load generator on {clients:?}, server on {server:?}")
            }
            Some(_) => "the kernel refused the CPU masks: nothing pinned".to_string(),
            None => "one CPU: nothing pinned".to_string(),
        },
    );
    built
}

/// Both sorted: does `have` hold every key of `want`?
fn contains_sorted(have: &[u64], want: &[u64]) -> bool {
    let mut have = have.iter();
    want.iter().all(|w| have.any(|h| h == w))
}

/// Span names of one replayed request, in stage order.
struct Stages {
    parent: &'static str,
    encode_request: &'static str,
    frame_decoder: &'static str,
    decode_request: &'static str,
    handle: &'static str,
    encode_response: &'static str,
    decode_response: &'static str,
}

const INSERT_STAGES: Stages = Stages {
    parent: "replay.insert",
    encode_request: "wire.encode_insert",
    frame_decoder: "wire.frame_decoder_insert",
    decode_request: "wire.decode_insert",
    handle: "server.handle_insert",
    encode_response: "wire.encode_ok",
    decode_response: "wire.decode_ok",
};

const RECONCILE_STAGES: Stages = Stages {
    parent: "replay.reconcile",
    encode_request: "wire.encode_reconcile",
    frame_decoder: "wire.frame_decoder",
    decode_request: "wire.decode_reconcile",
    handle: "server.handle_reconcile",
    encode_response: "wire.encode_diff",
    decode_response: "wire.decode_diff",
};

const DIGEST_STAGES: Stages = Stages {
    parent: "replay.digest",
    encode_request: "wire.encode_digest_request",
    frame_decoder: "wire.frame_decoder_digest_request",
    decode_request: "wire.decode_digest_request",
    handle: "server.handle_digest",
    encode_response: "wire.encode_digest",
    decode_response: "wire.decode_digest",
};

/// A request of the window that a traced run takes through the stages
/// afterwards.
#[derive(Clone, Copy)]
enum Kind {
    /// `Insert` or `Delete` of the workload's chunk number `index`.
    Insert {
        index: u64,
        delete: bool,
    },
    Reconcile {
        shard: u32,
    },
    Digest {
        shard: u32,
    },
}

struct Sampled {
    kind: Kind,
    /// The op id of the live request's span.
    op: u64,
    /// The live round trip in seconds.
    roundtrip: f64,
    /// The live request went out as bytes encoded before the window, so
    /// its round trip holds no `encode_request`.
    pre_encoded: bool,
}

/// Round trip minus replayed stages, in seconds, per replayed request.
#[derive(Default)]
struct Residuals {
    insert: Vec<f64>,
    reconcile: Vec<f64>,
}

/// Take every sampled request once more through the public stage
/// functions, in process: what the server does with it, without the
/// sockets and the reactor. The round trip minus these stages is the
/// reactor's residual. This runs after the window, when the box is idle,
/// and on the server's CPUs, so a stage costs here what it cost the live
/// server. `chunk` rebuilds the keys of an `Insert` from its index.
fn replay_sampled(
    fixture: &Fixture,
    rec: &mut Recorder,
    sampled: &[Sampled],
    chunk: impl Fn(u64) -> Vec<u64>,
) -> Residuals {
    let twin = fixture.twin.as_deref().expect("traced runs have a twin");
    if let Some((_, server_cpus)) = &fixture.cpus {
        affinity::pin(server_cpus);
    }
    let mut decoder = FrameDecoder::new();
    let mut out = Residuals::default();
    let mut ingesting = false;
    for request in sampled {
        let op = request.op;
        // The live server had flushed its ingest before a heavy frame
        // came; the twin's ingest workers must not compete with one here.
        let insert = matches!(request.kind, Kind::Insert { .. });
        if ingesting && !insert {
            twin.flush();
        }
        ingesting = insert;
        let (names, message) = match request.kind {
            Kind::Insert { index, delete } => {
                let keys = chunk(index);
                let message = if delete {
                    Request::Delete(keys)
                } else {
                    Request::Insert(keys)
                };
                (&INSERT_STAGES, message)
            }
            Kind::Reconcile { shard } => (
                &RECONCILE_STAGES,
                Request::Reconcile {
                    shard,
                    digest: fixture.peer_digests[shard as usize].clone(),
                },
            ),
            Kind::Digest { shard } => (&DIGEST_STAGES, Request::Digest { shard }),
        };
        let parent = rec.enter(names.parent, op);
        let (payload, a) = rec.time(names.encode_request, op, || encode_request(&message));
        // The length prefix is written by the socket layer.
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        let (inbound, b) = rec.time(names.frame_decoder, op, || {
            decoder.push(&frame);
            decoder.next_frame()
        });
        let inbound = inbound
            .expect("the frame is under the size cap")
            .expect("the whole frame was pushed");
        let (decoded, c) = rec.time(names.decode_request, op, || decode_request(&inbound));
        let decoded = decoded.expect("the request was encoded by this library");
        let ((response, _), d) = rec.time(names.handle, op, || handle_request(twin, decoded));
        let (outbound, e) = rec.time(names.encode_response, op, || encode_response(&response));
        let (back, f) = rec.time(names.decode_response, op, || decode_response(&outbound));
        rec.exit(parent);
        back.expect("the response was encoded by this library");
        let a = if request.pre_encoded { 0.0 } else { a };
        let residual = request.roundtrip - (a + b + c + d + e + f);
        match request.kind {
            Kind::Insert { .. } => out.insert.push(residual),
            Kind::Reconcile { .. } => out.reconcile.push(residual),
            Kind::Digest { .. } => {}
        }
    }
    if let Some((client_cpus, _)) = &fixture.cpus {
        affinity::pin(client_cpus);
    }
    out
}

/// Per-layer numbers both service workloads take the same way.
fn common_layers(
    report: &mut Report,
    fixture: &Fixture,
    recorders: &[Recorder],
    insert_keys: usize,
    mut residuals: Residuals,
) {
    let mut times = report.set_layer_times(recorders);
    report.set(
        "wire.insert_frame_bytes",
        framed(&Request::Insert(vec![0; insert_keys])).len() as f64,
        1,
    );
    report.set(
        "wire.reconcile_frame_bytes",
        fixture.heavy_frames[0][0].len() as f64,
        1,
    );

    // The round trip minus the replayed stages, request by request, so
    // stages and residual sum to the round trip. The sockets and the
    // reactor cannot take negative time: a residual below zero means the
    // replay did not cost what the live request did, and the stage
    // figures are not to be trusted. One request may come out below zero
    // on a busy host, so the test is on the median.
    for (name, metric, residual) in [
        (
            "insert",
            "reactor.residual_insert_us",
            &mut residuals.insert,
        ),
        (
            "reconcile",
            "reactor.residual_reconcile_us",
            &mut residuals.reconcile,
        ),
    ] {
        let negative = residual.iter().filter(|r| **r < 0.0).count();
        let mid = median(residual);
        report.set(metric, mid * 1e6, residual.len());
        report.op(mid >= 0.0 && !residual.is_empty(), || {
            format!(
                "the {name} residual is {:.1} us over {} replayed requests: it must be >= 0",
                mid * 1e6,
                residual.len()
            )
        });
        report.note(
            format!("residual_{name}_negative_share"),
            negative as f64 / residual.len().max(1) as f64,
        );
    }
    // Each stage's share of its round trip.
    for (kind, roundtrip, names) in [
        ("insert", "client.roundtrip_insert", &INSERT_STAGES),
        ("reconcile", "client.roundtrip_reconcile", &RECONCILE_STAGES),
    ] {
        let whole = times.median(roundtrip);
        let shares: Vec<String> = [
            names.encode_request,
            names.frame_decoder,
            names.decode_request,
            names.handle,
            names.encode_response,
            names.decode_response,
        ]
        .iter()
        .map(|stage| format!("{stage} {:.1}%", times.median(stage) / whole * 100.0))
        .collect();
        report.note(format!("{kind}_stage_shares"), shares.join(", "));
    }

    // Counters the service keeps itself, read over the wire.
    let stats = Client::connect(fixture.addr())
        .and_then(|mut c| c.stats())
        .expect("read Stats over loopback");
    for (metric, histogram) in [
        ("service.queue_wait_p50_us", &stats.queue_wait),
        ("service.batch_apply_p50_us", &stats.batch_apply),
        ("service.recovery_p50_us", &stats.recovery_latency),
    ] {
        report.set(
            metric,
            histogram.quantile(0.5) as f64 / 1e3,
            histogram.count as usize,
        );
    }
    report.set("service.queue_stalls", stats.queue_stalls as f64, 1);
    report.set("service.batches_applied", stats.batches_applied as f64, 1);
    report.set(
        "service.recovery_subrounds",
        stats.recovery_subrounds as f64,
        stats.recoveries as usize,
    );
}

/// Calls straight into the twin service: the `service` layer without
/// the server around it. Leaves the twin's contents as they were, and
/// returns whether the twin answered as the server must.
fn direct_service_calls(
    fixture: &Fixture,
    rec: &mut Recorder,
    op: u64,
    chunk: &[u64],
    shard: u32,
) -> bool {
    let twin = fixture.twin.as_deref().expect("traced runs have a twin");
    let router = ShardRouter::new(fixture.hello.shards, fixture.hello.router_seed);
    rec.time("router.partition", op, || router.partition(chunk));
    rec.time("service.insert_call", op, || twin.insert(chunk));
    twin.delete(chunk);
    rec.time("service.flush", op, || twin.flush());
    let (snapshot, _) = rec.time("service.snapshot", op, || twin.snapshot_shard(shard));
    let (diff, _) = rec.time("service.reconcile_shard", op, || {
        twin.reconcile_shard(shard, &fixture.peer_digests[shard as usize])
    });
    snapshot.is_ok() && diff.is_ok_and(|d| fixture.diff_ok(&d, false))
}

/// `svc-bulk`: one closed-loop client sending large frames. Slices of
/// churn (bulk inserts, the same keys deleted again, a flush) alternate
/// with slices of `Reconcile` frames for the whole window.
pub fn bulk(env: &Env, report: &mut Report) -> Vec<Recorder> {
    let mut rec = env.recorder("main");
    let (fixture, setup_s) = set_up(env, report, &mut rec);
    let mut client = Client::connect(fixture.addr()).expect("connect over loopback");

    // (seconds into the window, round trip in seconds, recorded).
    let mut reconcile_rtt: Vec<(f64, f64, bool)> = Vec::new();
    let mut frame_secs = Vec::new();
    let mut sampled = Vec::new();
    let mut op = 0u64;
    let mut next_chunk = 1u64;
    let mut next_shard = 0u32;
    let start = Instant::now();
    let mut slice = 0u64;
    while start.elapsed().as_secs_f64() < env.seconds {
        // Every other slice of a traced run goes unrecorded, to show
        // what recording costs.
        rec.enabled = env.traced && slice.is_multiple_of(2);
        slice += 1;

        let mut timed = 0.0;
        for delete in [false, true] {
            for index in next_chunk..next_chunk + CHURN_CHUNKS {
                let chunk = fixture.churn_chunk(index);
                op += 1;
                let (acked, secs) = rec.time("client.roundtrip_insert", op, || {
                    if delete {
                        client.delete(&chunk)
                    } else {
                        client.insert(&chunk)
                    }
                });
                timed += secs;
                report.op(
                    acked.as_ref().is_ok_and(|n| *n == BULK_CHUNK as u64),
                    || format!("bulk frame acknowledged {acked:?}, not {BULK_CHUNK} keys"),
                );
                if rec.enabled && index % REPLAY_EVERY == 0 {
                    sampled.push(Sampled {
                        kind: Kind::Insert { index, delete },
                        op,
                        roundtrip: secs,
                        pre_encoded: false,
                    });
                }
            }
        }
        let (flushed, secs) = rec.time("client.flush", op, || client.flush());
        timed += secs;
        report.op(flushed.is_ok(), || format!("flush failed: {flushed:?}"));
        frame_secs.push(timed / (2 * CHURN_CHUNKS) as f64);
        if rec.enabled {
            let chunk = fixture.churn_chunk(next_chunk);
            let ok = direct_service_calls(&fixture, &mut rec, op, &chunk, next_shard);
            report.op(ok, || {
                "the twin service lost the planted difference".to_string()
            });
        }
        next_chunk += CHURN_CHUNKS;

        for i in 0..RECONCILES {
            let shard = next_shard;
            next_shard = (next_shard + 1) % SHARDS;
            let digest = &fixture.peer_digests[shard as usize];
            op += 1;
            let at = start.elapsed().as_secs_f64();
            let (diff, secs) = rec.time("client.roundtrip_reconcile", op, || {
                client.reconcile_shard(shard, digest)
            });
            reconcile_rtt.push((at, secs, rec.enabled));
            report.op(
                diff.as_ref().is_ok_and(|d| fixture.diff_ok(d, true)),
                || format!("reconcile of shard {shard} is not the planted difference"),
            );
            if rec.enabled && u64::from(i) % REPLAY_EVERY == 0 {
                let kinds = [Kind::Reconcile { shard }, Kind::Digest { shard }];
                sampled.extend(kinds.map(|kind| Sampled {
                    kind,
                    op,
                    roundtrip: secs,
                    pre_encoded: false,
                }));
            }
        }
    }
    rec.enabled = env.traced;
    drop(client);
    fixture.final_checks(report);

    let shape = format!(
        "{SHARDS} shards, diff budget {DIFF_BUDGET}, {RESIDENT} resident keys, \
         {PLANTED} + {PLANTED} planted, {BULK_CHUNK}-key frames, 1 closed-loop connection"
    );
    report.raw("churn_seconds_per_frame", &frame_secs);
    let frame_ms = median(&mut frame_secs) * 1e3;
    let ingest_mkeys_s = BULK_CHUNK as f64 / 1e3 / frame_ms;
    if !env.traced {
        let rtt: Vec<(f64, f64)> = reconcile_rtt.iter().map(|(at, s, _)| (*at, *s)).collect();
        let mut secs: Vec<f64> = rtt.iter().map(|(_, s)| *s).collect();
        report.raw("client.roundtrip_reconcile", &secs);
        let (tail, windows) = windowed_quantile(&rtt, WINDOW_S, 0.99);
        report.set("setup_s", setup_s, env.setup_repeats());
        report.set("primary_ms", median(&mut secs) * 1e3, secs.len());
        report.set("primary_tail_ms", tail * 1e3, secs.len());
        report.set("secondary_ms", frame_ms, frame_secs.len());
        report.also("reconcile_p50_ms", median(&mut secs) * 1e3, "ms");
        report.also("reconcile_p99_ms", tail * 1e3, "ms");
        report.also(
            "reconcile_p99_whole_run_ms",
            quantile(&mut secs, 0.99) * 1e3,
            "ms",
        );
        report.also("ingest_mkeys_s", ingest_mkeys_s, "Mkeys/s");
        report.note("primary", "one Reconcile frame, round trip");
        report.note(
            "secondary",
            "one 8192-key Insert or Delete frame, acknowledged and flushed",
        );
        report.note(
            "tail_percentile",
            format!("median over {windows} windows of {WINDOW_S} s of the window p99"),
        );
        report.note("service", shape);
        return vec![rec];
    }

    let residuals = replay_sampled(&fixture, &mut rec, &sampled, |i| fixture.churn_chunk(i));
    let recorders = vec![rec];
    common_layers(report, &fixture, &recorders, BULK_CHUNK, residuals);
    report.set("client.ingest_mkeys_s", ingest_mkeys_s, frame_secs.len());
    let secs_where = |recorded: bool| -> Vec<f64> {
        reconcile_rtt
            .iter()
            .filter(|r| r.2 == recorded)
            .map(|r| r.1)
            .collect()
    };
    let (mut recorded, mut unrecorded) = (secs_where(true), secs_where(false));
    report.set(
        "trace.overhead_pct",
        (median(&mut recorded) / median(&mut unrecorded) - 1.0) * 100.0,
        unrecorded.len(),
    );
    let (req_s, rounds) = pipelined_req_s(fixture.addr());
    report.set("reactor.pipelined_req_s", req_s, rounds);
    let reshard_ms = reshard_1to4_ms(&fixture, report);
    report.set("service.reshard_1to4_ms", reshard_ms, 1);
    report.note("service", shape);
    recorders
}

/// Requests a second on one connection when every request is written
/// before any response is read: the reactor's framing path with the
/// service out of the way (`Hello` touches no shard).
fn pipelined_req_s(addr: SocketAddr) -> (f64, usize) {
    const DEPTH: usize = 2000;
    const ROUNDS: usize = 5;
    let hello = encode_request(&Request::Hello);
    let mut burst = Vec::new();
    for _ in 0..DEPTH {
        burst.extend_from_slice(&(hello.len() as u32).to_le_bytes());
        burst.extend_from_slice(&hello);
    }
    let mut stream = TcpStream::connect(addr).expect("connect over loopback");
    let _ = stream.set_nodelay(true);
    let mut rates = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        stream.write_all(&burst).expect("write the burst");
        for _ in 0..DEPTH {
            read_frame(&mut stream)
                .expect("read a response")
                .expect("the server keeps the connection open");
        }
        rates.push(DEPTH as f64 / t.elapsed().as_secs_f64());
    }
    (median(&mut rates), ROUNDS)
}

/// A live reshard from 1 shard to 4. It decodes whole shards, so the
/// one shard's table must be sized for the whole resident set and still
/// fit a wire frame: it runs on a service of its own holding 50 000 keys.
fn reshard_1to4_ms(fixture: &Fixture, report: &mut Report) -> f64 {
    const KEYS: usize = 50_000;
    let service = PeelService::start(ServiceConfig {
        batch_size: 1024,
        ..ServiceConfig::for_diff_budget(1, KEYS * 3)
    });
    service.insert(&fixture.space.range(RESIDENT_KEYS, 0..KEYS as u64));
    service.flush();
    let t = Instant::now();
    let done = service
        .reshard_begin(4)
        .and_then(|_| service.reshard_commit());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    report.op(done.as_ref().is_ok_and(|s| s.serving_shards == 4), || {
        format!("reshard 1 to 4 ended as {done:?}")
    });
    report.note("reshard", format!("{KEYS} keys, 1 to 4 shards"));
    ms
}

/// What one of `svc-mixed`'s two connections brings back.
struct Load {
    rec: Recorder,
    tally: Tally,
    /// `(due time in seconds into the window, latency from due time in
    /// seconds, recorded)` per request.
    latency: Vec<(f64, f64, bool)>,
    /// `(due time in seconds into the window, how long after it the
    /// request was sent, in seconds)` per request.
    late: Vec<(f64, f64)>,
    /// The requests a traced run replays after the window.
    sampled: Vec<Sampled>,
}

impl Load {
    fn new(rec: Recorder) -> Self {
        Load {
            rec,
            tally: Tally::default(),
            latency: Vec::new(),
            late: Vec::new(),
            sampled: Vec::new(),
        }
    }
}

/// Connection A: an open loop of small frames. Requests are written on
/// schedule whether or not earlier ones were answered, by one thread
/// that watches the clock and polls the socket, so a stall at the
/// server shows as latency from the due time and not as a slower
/// generator. Frames alternate `Insert` and `Delete` of the same chunk.
fn small_frames(env: &Env, fixture: &Fixture, start: Instant, rec: Recorder) -> Load {
    struct InFlight {
        due: Instant,
        sent: Instant,
        recorded: bool,
    }
    let mut out = Load::new(rec);
    let mut stream = TcpStream::connect(fixture.addr()).expect("connect over loopback");
    let _ = stream.set_nodelay(true);
    stream
        .set_nonblocking(true)
        .expect("loopback sockets can be made non-blocking");
    // An even count, so the last chunk inserted is deleted again.
    let total = (env.seconds / SMALL_PERIOD.as_secs_f64()) as u64 / 2 * 2;
    let give_up = start + Duration::from_secs_f64(env.seconds + 20.0);
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut in_flight: VecDeque<InFlight> = VecDeque::new();
    let (mut sent, mut answered) = (0u64, 0u64);

    while answered < total {
        let now = Instant::now();
        let due = start + SMALL_PERIOD * sent as u32;
        if sent < total && now >= due {
            let window = (SMALL_PERIOD * sent as u32).as_secs_f64() / WINDOW_S;
            out.rec.enabled = env.traced && (window as u64).is_multiple_of(2);
            let chunk = fixture.small_chunk(sent / 2);
            let request = if sent % 2 == 0 {
                Request::Insert(chunk)
            } else {
                Request::Delete(chunk)
            };
            let begun = Instant::now();
            out.late
                .push(((due - start).as_secs_f64(), (begun - due).as_secs_f64()));
            let frame = framed(&request);
            let mut written = 0;
            while written < frame.len() && Instant::now() < give_up {
                match stream.write(&frame[written..]) {
                    Ok(n) => written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                    Err(_) => break,
                }
            }
            in_flight.push_back(InFlight {
                due,
                sent: begun,
                recorded: out.rec.enabled,
            });
            sent += 1;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => decoder.push(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(_) => break,
        }
        while let Ok(Some(payload)) = decoder.next_frame() {
            let got = Instant::now();
            let Some(request) = in_flight.pop_front() else {
                break;
            };
            let response = decode_response(&payload);
            out.tally.op(
                matches!(response, Ok(Response::Ok { accepted }) if accepted == SMALL_CHUNK as u64),
                || format!("small frame {answered} answered {response:?}"),
            );
            let roundtrip = (got - request.sent).as_secs_f64();
            out.latency.push((
                (request.due - start).as_secs_f64(),
                (got - request.due).as_secs_f64(),
                request.recorded,
            ));
            if request.recorded {
                out.rec
                    .closed("client.roundtrip_insert", answered, request.sent, got);
                // Both frames of every so many chunks, so the replay
                // leaves the twin as it found it.
                if (answered / 2) % REPLAY_EVERY == 0 {
                    out.sampled.push(Sampled {
                        kind: Kind::Insert {
                            index: answered / 2,
                            delete: answered % 2 == 1,
                        },
                        op: answered,
                        roundtrip,
                        pre_encoded: false,
                    });
                }
            }
            answered += 1;
        }
        if now > give_up {
            break;
        }
        // Wait for whichever comes first, the next due time or the next
        // response. A thread that only spins is descheduled for
        // milliseconds at a time once the box has more runnable threads
        // than cores, and then sends late; one that sleeps is woken on
        // time. So: spin while a fresh response is likely or a send is
        // near, and nap otherwise.
        let now = Instant::now();
        let until_due = (sent < total)
            .then(|| (start + SMALL_PERIOD * sent as u32).saturating_duration_since(now));
        let fresh = in_flight
            .back()
            .is_some_and(|last| now < last.sent + SPIN_AFTER_SEND);
        if fresh || until_due.is_some_and(|d| d <= SPIN_BEFORE_DUE) {
            std::hint::spin_loop();
        } else {
            let to_send = until_due.map_or(NAP, |d| d - SPIN_BEFORE_DUE);
            std::thread::sleep(if in_flight.is_empty() {
                to_send
            } else {
                to_send.min(NAP)
            });
        }
    }
    // Requests never answered count as failed.
    for missing in answered..total {
        out.tally.op(false, || {
            format!("small frame {missing} was never answered")
        });
    }
    out.rec.enabled = env.traced;
    out
}

/// Connection B: heavy frames on a schedule, one at a time, each timed
/// from its due time. 7 `Reconcile` of one shard to 1 `Digest`.
fn heavy_frames(env: &Env, fixture: &Fixture, start: Instant, begin_s: f64, rec: Recorder) -> Load {
    let mut out = Load::new(rec);
    let mut stream = TcpStream::connect(fixture.addr()).expect("connect over loopback");
    let _ = stream.set_nodelay(true);
    let first = start + Duration::from_secs_f64(begin_s);
    let total = ((env.seconds - begin_s) / HEAVY_PERIOD.as_secs_f64()) as u64;
    for i in 0..total {
        let due = first + HEAVY_PERIOD * i as u32;
        // Sleep most of the wait, spin the last of it.
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait.saturating_sub(Duration::from_micros(300)));
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let shard = (i % u64::from(SHARDS)) as u32;
        let is_digest = i % 8 == 7;
        let (span, kind) = if is_digest {
            ("client.roundtrip_digest", Kind::Digest { shard })
        } else {
            ("client.roundtrip_reconcile", Kind::Reconcile { shard })
        };
        let frame = &fixture.heavy_frames[shard as usize][usize::from(is_digest)];
        let op = HEAVY_OPS + i;
        let begun = Instant::now();
        out.late
            .push(((due - start).as_secs_f64(), (begun - due).as_secs_f64()));
        let (response, roundtrip) = out.rec.time(span, op, || exchange(&mut stream, frame));
        let got = Instant::now();
        let ok = match &response {
            Ok(Response::Diff(diff)) => !is_digest && fixture.diff_ok(diff, false),
            Ok(Response::Digest { iblt, .. }) => {
                is_digest && iblt.config() == fixture.peer_digests[shard as usize].config()
            }
            _ => false,
        };
        out.tally.op(ok, || {
            format!("heavy frame {i} (shard {shard}) lacks the planted difference")
        });
        out.latency.push((
            (due - start).as_secs_f64(),
            (got - due).as_secs_f64(),
            out.rec.enabled,
        ));
        // Every `Digest`, and as many of the `Reconcile` frames.
        if out.rec.enabled && (is_digest || i % REPLAY_EVERY == 0) {
            out.sampled.push(Sampled {
                kind,
                op,
                roundtrip,
                pre_encoded: true,
            });
        }
    }
    out
}

/// `svc-mixed`: small frames on an open loop while a second connection
/// sends heavy frames. A traced run first runs connection A alone.
pub fn mixed(env: &Env, report: &mut Report) -> Vec<Recorder> {
    let mut rec = env.recorder("main");
    let (fixture, setup_s) = set_up(env, report, &mut rec);
    // Whole windows of connection A alone, about a third of the run.
    let unloaded_s = if env.traced {
        (WINDOW_S * (env.seconds / 3.0 / WINDOW_S).floor()).max(WINDOW_S)
    } else {
        0.0
    };

    let start = Instant::now() + Duration::from_millis(50);
    let (small, heavy) = std::thread::scope(|scope| {
        let a = scope.spawn(|| small_frames(env, &fixture, start, env.recorder("conn-a")));
        let b =
            scope.spawn(|| heavy_frames(env, &fixture, start, unloaded_s, env.recorder("conn-b")));
        (
            a.join().expect("connection A's thread panicked"),
            b.join().expect("connection B's thread panicked"),
        )
    });
    let Load {
        rec: rec_a,
        tally,
        latency: small_latency,
        late: small_late,
        mut sampled,
    } = small;
    report.absorb(tally);
    let Load {
        rec: rec_b,
        tally,
        latency: heavy_latency,
        late: heavy_late,
        sampled: heavy_sampled,
    } = heavy;
    sampled.extend(heavy_sampled);
    report.absorb(tally);
    if env.traced {
        let chunk = fixture.small_chunk(0);
        for shard in 0..SHARDS {
            let ok = direct_service_calls(&fixture, &mut rec, u64::from(shard), &chunk, shard);
            report.op(ok, || {
                "the twin service lost the planted difference".to_string()
            });
        }
    }
    fixture.final_checks(report);

    // A generator that cannot hold its schedule measures itself, not
    // the service, so a run whose generator is a send interval late at
    // the p99 fails. The p99 is taken the way the latency it guards is:
    // per window, then the median over windows, so that one stall of the
    // whole box stays inside one window.
    let loaded_late: Vec<(f64, f64)> = small_late
        .iter()
        .filter(|(due, _)| *due >= unloaded_s)
        .copied()
        .collect();
    let (small_late_p99, _) = windowed_quantile(&loaded_late, WINDOW_S, 0.99);
    report.op(small_late_p99 <= SMALL_PERIOD.as_secs_f64(), || {
        format!(
            "connection A's generator ran {:.0} us late at p99, more than its {} us send interval: \
             the latencies measure the generator",
            small_late_p99 * 1e6,
            SMALL_PERIOD.as_micros()
        )
    });
    let mut whole_late: Vec<f64> = loaded_late.iter().map(|(_, late)| *late).collect();
    report.also(
        "gen_late_p99_whole_run_us",
        quantile(&mut whole_late, 0.99) * 1e6,
        "us",
    );
    let mut heavy_late: Vec<f64> = heavy_late.iter().map(|(_, late)| *late).collect();
    let heavy_late_p99 = quantile(&mut heavy_late, 0.99);

    let loaded: Vec<(f64, f64)> = small_latency
        .iter()
        .filter(|(due, _, _)| *due >= unloaded_s)
        .map(|(due, lat, _)| (*due, *lat))
        .collect();
    let (p50, windows) = windowed_quantile(&loaded, WINDOW_S, 0.5);
    let (p99, _) = windowed_quantile(&loaded, WINDOW_S, 0.99);
    let mut heavy_secs: Vec<f64> = heavy_latency.iter().map(|(_, lat, _)| *lat).collect();
    report.raw("heavy_latency_from_due", &heavy_secs);
    let shape = format!(
        "{SHARDS} shards, diff budget {DIFF_BUDGET}, {RESIDENT} resident keys, {PLANTED} + {PLANTED} \
         planted; connection A: open loop, {} frames/s of {SMALL_CHUNK} keys; connection B: \
         {} heavy frames/s, 7 Reconcile to 1 Digest",
        1.0 / SMALL_PERIOD.as_secs_f64(),
        1.0 / HEAVY_PERIOD.as_secs_f64()
    );
    if !env.traced {
        report.set("setup_s", setup_s, env.setup_repeats());
        report.set("primary_ms", p50 * 1e3, loaded.len());
        report.set("primary_tail_ms", p99 * 1e3, loaded.len());
        report.set(
            "secondary_ms",
            median(&mut heavy_secs) * 1e3,
            heavy_secs.len(),
        );
        report.also("insert_p50_us", p50 * 1e6, "us");
        report.also("insert_p99_us", p99 * 1e6, "us");
        report.also("heavy_p50_ms", median(&mut heavy_secs) * 1e3, "ms");
        report.also("gen_late_p99_us", small_late_p99 * 1e6, "us");
        report.also("heavy_late_p99_ms", heavy_late_p99 * 1e3, "ms");
        report.note(
            "primary",
            "connection A's frames under load, from due time: median over windows of the window median",
        );
        report.note(
            "tail_percentile",
            format!("median over {windows} windows of {WINDOW_S} s of the window p99"),
        );
        report.note("secondary", "connection B's heavy frames, from due time");
        report.note("service", shape);
        let secs: Vec<f64> = loaded.iter().map(|(_, lat)| *lat).collect();
        report.raw("insert_latency_from_due", &secs);
        return vec![rec, rec_a, rec_b];
    }

    let residuals = replay_sampled(&fixture, &mut rec, &sampled, |i| fixture.small_chunk(i));
    let recorders = vec![rec, rec_a, rec_b];
    common_layers(report, &fixture, &recorders, SMALL_CHUNK, residuals);
    let unloaded: Vec<(f64, f64)> = small_latency
        .iter()
        .filter(|(due, _, _)| *due < unloaded_s)
        .map(|(due, lat, _)| (*due, *lat))
        .collect();
    let (unloaded_p50, _) = windowed_quantile(&unloaded, WINDOW_S, 0.5);
    let (unloaded_p99, _) = windowed_quantile(&unloaded, WINDOW_S, 0.99);
    report.set(
        "client.unloaded_insert_p50_us",
        unloaded_p50 * 1e6,
        unloaded.len(),
    );
    report.set(
        "client.unloaded_insert_p99_us",
        unloaded_p99 * 1e6,
        unloaded.len(),
    );
    let mut whole: Vec<f64> = loaded.iter().map(|(_, lat)| *lat).collect();
    report.set(
        "client.insert_p99_whole_run_us",
        quantile(&mut whole, 0.99) * 1e6,
        whole.len(),
    );
    report.set(
        "client.gen_late_p99_us",
        small_late_p99 * 1e6,
        loaded_late.len(),
    );
    report.set(
        "client.heavy_late_p99_ms",
        heavy_late_p99 * 1e3,
        heavy_late.len(),
    );
    // Loaded windows alternate recorded and unrecorded.
    let mut by_recording = [Vec::new(), Vec::new()];
    for (due, lat, recorded) in &small_latency {
        if *due >= unloaded_s {
            by_recording[usize::from(!recorded)].push(*lat);
        }
    }
    let [recorded, unrecorded] = &mut by_recording;
    report.set(
        "trace.overhead_pct",
        (median(recorded) / median(unrecorded) - 1.0) * 100.0,
        unrecorded.len(),
    );
    report.also("insert_p50_us", p50 * 1e6, "us");
    report.also("insert_p99_us", p99 * 1e6, "us");
    report.also("heavy_p50_ms", median(&mut heavy_secs) * 1e3, "ms");
    report.note("unloaded_seconds", unloaded_s);
    report.note("service", shape);
    recorders
}

//! Wire-format property tests: every protocol message and serialized
//! IBLT round-trips to an equal value, and truncated or corrupted frames
//! return errors instead of panicking.

use proptest::prelude::*;

use peel_iblt::{Iblt, IbltConfig};
use peel_service::metrics::{
    FollowerStats, HistogramSnapshot, MetricsSnapshot, ReshardStats, ShardStats, Source, FAMILIES,
    HISTOGRAM_BUCKETS, REQUEST_CLASSES,
};
use peel_service::queue::Op;
use peel_service::recorder::FlightRecord;
use peel_service::wire::{
    decode_request, decode_response, encode_request, encode_response, iblt_from_bytes,
    iblt_from_sparse_bytes, iblt_to_bytes, iblt_to_sparse_bytes, read_frame, write_frame,
    FrameDecoder, HelloInfo, Request, Response, ShardDiff, WireError, PROTOCOL_VERSION,
};

// --- Strategies -------------------------------------------------------------

fn arb_config() -> impl Strategy<Value = IbltConfig> {
    (2usize..6, 1usize..40, any::<u64>())
        .prop_map(|(hashes, cells, seed)| IbltConfig::new(hashes, cells, seed))
}

fn arb_iblt() -> impl Strategy<Value = Iblt> {
    (
        arb_config(),
        proptest::collection::vec(any::<u64>(), 0..60),
        proptest::collection::vec(any::<u64>(), 0..20),
    )
        .prop_map(|(cfg, inserts, deletes)| {
            let mut t = Iblt::new(cfg);
            for k in inserts {
                t.insert(k);
            }
            for k in deletes {
                t.delete(k);
            }
            t
        })
}

fn arb_keys() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..200)
}

/// A replicated ingest batch: signed ops whose direction is ±1, exactly
/// as the queue seals them.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (any::<u64>(), any::<bool>()).prop_map(|(key, ins)| Op {
            key,
            dir: if ins { 1 } else { -1 },
        }),
        0..100,
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Hello),
        arb_keys().prop_map(Request::Insert),
        arb_keys().prop_map(Request::Delete),
        Just(Request::Flush),
        (0u32..16).prop_map(|shard| Request::Digest { shard }),
        (0u32..16, arb_iblt()).prop_map(|(shard, digest)| Request::Reconcile { shard, digest }),
        Just(Request::Stats),
        Just(Request::Shutdown),
        any::<u64>().prop_map(|last_seq| Request::Subscribe { last_seq }),
        (any::<u64>(), any::<u64>()).prop_map(|(epoch, seq)| Request::ReplicateAck { epoch, seq }),
        any::<u32>().prop_map(|to_shards| Request::ReshardBegin { to_shards }),
        any::<u32>().prop_map(|shard| Request::ReshardDigest { shard }),
        Just(Request::ReshardCommit),
        Just(Request::ReshardAbort),
        Just(Request::MetricsText),
        Just(Request::DebugDump),
        Just(Request::ReplicaStatus),
        (0u32..64, any::<u64>())
            .prop_map(|(shard, max_lag)| Request::ReadDigest { shard, max_lag }),
    ]
}

fn arb_replica_status() -> impl Strategy<Value = peel_service::ReplicaStatus> {
    (
        (any::<u64>(), any::<u64>(), any::<bool>()),
        (any::<u64>(), any::<bool>(), any::<u32>()),
        proptest::collection::vec(any::<u8>(), 0..24),
    )
        .prop_map(|(a, b, primary)| peel_service::ReplicaStatus {
            node_id: a.0,
            epoch: a.1,
            leading: a.2,
            last_applied: b.0,
            converged: b.1,
            shards: b.2,
            primary: String::from_utf8_lossy(&primary).into_owned(),
        })
}

fn arb_reshard_stats() -> impl Strategy<Value = ReshardStats> {
    (
        (any::<u64>(), any::<bool>(), any::<u32>(), any::<u32>()),
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|(a, b)| ReshardStats {
            generation: a.0,
            resharding: a.1,
            serving_shards: a.2,
            to_shards: a.3,
            keys_moved: b.0,
            shards_verified: b.1,
            completed: b.2,
            aborted: b.3,
        })
}

fn arb_shard_diff() -> impl Strategy<Value = ShardDiff> {
    (
        (0u32..64, any::<u64>(), any::<bool>(), 0u32..1000),
        arb_keys(),
        arb_keys(),
        any::<u64>(),
    )
        .prop_map(|(a, only_local, only_remote, as_of_seq)| ShardDiff {
            shard: a.0,
            epoch: a.1,
            complete: a.2,
            subrounds: a.3,
            only_local,
            only_remote,
            as_of_seq,
        })
}

/// A wire-valid histogram snapshot: sparse buckets with strictly
/// ascending indices below [`HISTOGRAM_BUCKETS`] (the decoder rejects
/// anything else as malformed).
fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::btree_map(0u32..HISTOGRAM_BUCKETS as u32, 1u64..u64::MAX, 0..12),
    )
        .prop_map(|(count, sum, buckets)| HistogramSnapshot {
            count,
            sum,
            buckets: buckets.into_iter().collect(),
        })
}

fn arb_follower_rows() -> impl Strategy<Value = Vec<FollowerStats>> {
    proptest::collection::vec(
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
        )
            .prop_map(|(id, published, acked, lag, alive)| FollowerStats {
                id,
                published,
                acked,
                lag,
                alive,
            }),
        0..8,
    )
}

/// A flight-recorder event row. Names and field strings are arbitrary
/// UTF-8 (synthesized by lossy conversion, as for `Response::Error`).
fn arb_flight_records() -> impl Strategy<Value = Vec<FlightRecord>> {
    proptest::collection::vec(
        (
            (any::<u64>(), any::<u64>(), any::<u8>(), any::<u64>()),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..24),
            proptest::collection::vec(any::<u8>(), 0..40),
        )
            .prop_map(|(a, parent, name, fields)| FlightRecord {
                seq: a.0,
                at_us: a.1,
                kind: a.2,
                span: a.3,
                parent,
                name: String::from_utf8_lossy(&name).into_owned(),
                fields: String::from_utf8_lossy(&fields).into_owned(),
            }),
        0..10,
    )
}

/// A `Stats` snapshot: every scalar row of the metric table set through
/// its own `set` (so a new row is covered with no edit here), plus
/// random histograms, recovery traces, shard rows and follower rows.
fn arb_stats() -> impl Strategy<Value = MetricsSnapshot> {
    let scalars = FAMILIES
        .iter()
        .filter(|f| matches!(f.source, Source::Scalar { .. }))
        .count();
    (
        proptest::collection::vec(any::<u64>(), scalars),
        (
            proptest::collection::vec(any::<u64>(), 0..32),
            proptest::collection::vec(any::<u64>(), 0..32),
            proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..16),
            arb_follower_rows(),
        ),
        (
            arb_histogram(),
            proptest::collection::vec(arb_histogram(), 0..REQUEST_CLASSES.len() + 1),
            arb_histogram(),
            arb_histogram(),
            arb_histogram(),
        ),
    )
        .prop_map(|(values, (trace, trace_ns, shards, per_follower), hists)| {
            let mut s = MetricsSnapshot {
                last_recovery_trace: trace,
                last_recovery_trace_ns: trace_ns,
                shards: shards
                    .into_iter()
                    .map(|(epoch, inserts, deletes)| ShardStats {
                        epoch,
                        inserts,
                        deletes,
                    })
                    .collect(),
                request_latency: hists.1,
                queue_wait: hists.2,
                batch_apply: hists.3,
                recovery_latency: hists.4,
                ..MetricsSnapshot::default()
            };
            s.replication.lag = hists.0;
            s.replication.per_follower = per_follower;
            let setters = FAMILIES.iter().filter_map(|f| match f.source {
                Source::Scalar { set, .. } => Some(set),
                _ => None,
            });
            for (set, v) in setters.zip(values) {
                // Narrow to whatever the field holds: u64, u32 or bool.
                assert!(set(&mut s, v) || set(&mut s, v & u32::MAX as u64) || set(&mut s, v & 1));
            }
            s
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u64>(),
            arb_config(),
            any::<u32>(),
            any::<u64>()
        )
            .prop_map(|(shards, router_seed, base_config, batch_size, epoch)| {
                Response::Hello(HelloInfo {
                    version: PROTOCOL_VERSION,
                    shards,
                    router_seed,
                    base_config,
                    batch_size,
                    epoch,
                })
            }),
        any::<u64>().prop_map(|accepted| Response::Ok { accepted }),
        (any::<u64>(), arb_iblt()).prop_map(|(epoch, iblt)| Response::Digest { epoch, iblt }),
        arb_shard_diff().prop_map(Response::Diff),
        arb_stats().prop_map(|s| Response::Stats(Box::new(s))),
        (any::<u64>(), any::<u64>(), arb_ops()).prop_map(|(epoch, seq, ops)| Response::Replicate {
            epoch,
            seq,
            ops
        }),
        arb_replica_status().prop_map(Response::ReplicaStatus),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..24)).prop_map(
            |(lag, redirect)| Response::ReadStale {
                lag,
                redirect: String::from_utf8_lossy(&redirect).into_owned(),
            }
        ),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(epoch, generation, shards)| {
            Response::GenerationChange {
                epoch,
                generation,
                shards,
            }
        }),
        arb_reshard_stats().prop_map(Response::Reshard),
        (any::<u64>(), arb_iblt()).prop_map(|(epoch, iblt)| Response::DigestSparse { epoch, iblt }),
        // The shim has no string strategies; synthesize UTF-8 (including
        // multi-byte chars) from arbitrary bytes via lossy conversion.
        proptest::collection::vec(any::<u8>(), 0..40)
            .prop_map(|b| Response::Error(String::from_utf8_lossy(&b).into_owned())),
        proptest::collection::vec(any::<u8>(), 0..200)
            .prop_map(|b| Response::MetricsText(String::from_utf8_lossy(&b).into_owned())),
        arb_flight_records().prop_map(Response::DebugDump),
    ]
}

// --- Properties -------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// decode(encode(request)) == request, and the encoding survives a
    /// framed trip through a byte buffer.
    #[test]
    fn request_roundtrip(req in arb_request()) {
        let payload = encode_request(&req);
        prop_assert_eq!(decode_request(&payload).unwrap(), req.clone());

        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(framed);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(decode_request(&back).unwrap(), req);
    }

    /// decode(encode(response)) == response.
    #[test]
    fn response_roundtrip(resp in arb_response()) {
        let payload = encode_response(&resp);
        prop_assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    /// Serialized IBLTs decode to an equal table (config, cells, and the
    /// derived item counter all agree).
    #[test]
    fn iblt_roundtrip(t in arb_iblt()) {
        let bytes = iblt_to_bytes(&t);
        let back = iblt_from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &t);
        prop_assert_eq!(back.items(), t.items());
        prop_assert_eq!(back.config(), t.config());
    }

    /// Every strict prefix of an encoded message fails to decode with an
    /// error — never a panic, and never a bogus success.
    #[test]
    fn truncated_requests_error(req in arb_request(), cut in 0.0f64..1.0) {
        let payload = encode_request(&req);
        prop_assume!(!payload.is_empty());
        let cut = (payload.len() as f64 * cut) as usize; // < len
        prop_assert!(decode_request(&payload[..cut]).is_err());
    }

    /// Same for responses.
    #[test]
    fn truncated_responses_error(resp in arb_response(), cut in 0.0f64..1.0) {
        let payload = encode_response(&resp);
        prop_assume!(!payload.is_empty());
        let cut = (payload.len() as f64 * cut) as usize;
        prop_assert!(decode_response(&payload[..cut]).is_err());
    }

    /// The sparse (skip-empty-cells) encoding decodes to the same table
    /// the dense one does, and every strict prefix of it errors instead
    /// of panicking or mis-decoding.
    #[test]
    fn sparse_iblt_roundtrip_and_truncation(t in arb_iblt(), cut in 0.0f64..1.0) {
        let sparse = iblt_to_sparse_bytes(&t);
        prop_assert_eq!(&iblt_from_sparse_bytes(&sparse).unwrap(), &t);
        // Equivalence with the dense path on the same table.
        prop_assert_eq!(&iblt_from_bytes(&iblt_to_bytes(&t)).unwrap(), &t);
        let cut = (sparse.len() as f64 * cut) as usize; // < len
        prop_assert!(iblt_from_sparse_bytes(&sparse[..cut]).is_err());
    }

    /// Arbitrary byte soup never panics the decoders (errors are fine;
    /// an accidental clean decode of random bytes is fine too).
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = iblt_from_bytes(&bytes);
        let _ = iblt_from_sparse_bytes(&bytes);
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame(&mut cursor);
    }

    /// Single-byte corruption of a valid encoding never panics, and
    /// corrupting the *tag* byte of a non-tag-colliding value errors.
    #[test]
    fn corrupted_requests_never_panic(
        req in arb_request(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut payload = encode_request(&req);
        prop_assume!(!payload.is_empty());
        let pos = (payload.len() as f64 * pos_frac) as usize % payload.len();
        payload[pos] ^= flip;
        let _ = decode_request(&payload); // must not panic
    }

    /// Same for responses — in particular the `Replicate` stream frames,
    /// whose corruption a follower must survive (it skips the frame and
    /// lets anti-entropy heal the loss).
    #[test]
    fn corrupted_responses_never_panic(
        resp in arb_response(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut payload = encode_response(&resp);
        prop_assume!(!payload.is_empty());
        let pos = (payload.len() as f64 * pos_frac) as usize % payload.len();
        payload[pos] ^= flip;
        let _ = decode_response(&payload); // must not panic
    }

    /// Version negotiation refuses cleanly both ways on the handshake
    /// frame, for *every* v6 `Hello`: the v5 wire image (the v6 bytes
    /// minus the appended epoch tail) is an UnexpectedEof to a v6
    /// decoder, and a longer-than-v6 image (a hypothetical v7 tail) is a
    /// TrailingBytes — so a mixed-version pair always gets a clean error
    /// on the very first frame, never a mis-decoded handshake.
    #[test]
    fn hello_version_negotiation_refuses_both_ways(
        shards in any::<u32>(),
        router_seed in any::<u64>(),
        base_config in arb_config(),
        batch_size in any::<u32>(),
        epoch in any::<u64>(),
    ) {
        let hello = Response::Hello(HelloInfo {
            version: PROTOCOL_VERSION,
            shards,
            router_seed,
            base_config,
            batch_size,
            epoch,
        });
        let v6 = encode_response(&hello);
        prop_assert!(matches!(
            decode_response(&v6[..v6.len() - 8]),
            Err(WireError::UnexpectedEof)
        ));
        let mut v7ish = v6.clone();
        v7ish.extend_from_slice(&[0u8; 8]);
        prop_assert!(matches!(
            decode_response(&v7ish),
            Err(WireError::TrailingBytes(8))
        ));
    }

    /// A truncated *frame* (length prefix promising more bytes than
    /// arrive) is an UnexpectedEof, not a hang or panic.
    #[test]
    fn truncated_frames_error(req in arb_request(), keep in 0.0f64..1.0) {
        let payload = encode_request(&req);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let keep = 4 + ((framed.len() - 4) as f64 * keep) as usize;
        prop_assume!(keep < framed.len());
        framed.truncate(keep);
        let mut cursor = std::io::Cursor::new(framed);
        prop_assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::UnexpectedEof)
        ));
    }
}

// --- Incremental frame decoder (the reactor's reassembly path) --------------

/// Drain every currently-complete frame out of the decoder.
fn drain(dec: &mut FrameDecoder) -> Result<Vec<Vec<u8>>, WireError> {
    let mut out = Vec::new();
    while let Some(frame) = dec.next_frame()? {
        out.push(frame);
    }
    Ok(out)
}

/// Concatenate the wire encoding of a batch of requests, returning the
/// byte stream and the expected frame payloads.
fn framed_stream(reqs: &[Request]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut stream = Vec::new();
    let mut payloads = Vec::new();
    for req in reqs {
        let payload = encode_request(req);
        write_frame(&mut stream, &payload).unwrap();
        payloads.push(payload);
    }
    (stream, payloads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding the stream one byte at a time — every byte boundary is a
    /// push boundary — decodes the identical frame sequence to the
    /// one-shot `read_frame` path, pipelined frames included.
    #[test]
    fn decoder_byte_at_a_time_matches_one_shot(
        reqs in proptest::collection::vec(arb_request(), 1..4),
    ) {
        let (stream, payloads) = framed_stream(&reqs);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
            got.extend(drain(&mut dec).unwrap());
        }
        prop_assert_eq!(&got, &payloads);
        prop_assert!(dec.is_empty());
        // And the one-shot reference path agrees.
        let mut cursor = std::io::Cursor::new(stream);
        for payload in &payloads {
            prop_assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), Some(payload));
        }
    }

    /// Any two-chunk split of a pipelined stream — including splits
    /// inside a length prefix and inside a payload — decodes
    /// identically to the unsplit stream.
    #[test]
    fn decoder_split_anywhere_matches(
        first in arb_request(),
        trailing in arb_request(),
        cut in 0.0f64..1.0,
    ) {
        let (stream, payloads) = framed_stream(&[first, trailing]);
        let cut = ((stream.len() as f64) * cut) as usize;
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..cut]);
        let mut got = drain(&mut dec).unwrap();
        dec.push(&stream[cut..]);
        got.extend(drain(&mut dec).unwrap());
        prop_assert_eq!(got, payloads);
        prop_assert!(dec.is_empty());
    }

    /// A truncated stream yields exactly the complete frames and then
    /// waits (Ok(None)) — no error, no panic, no partial frame.
    #[test]
    fn decoder_truncation_yields_only_complete_frames(
        reqs in proptest::collection::vec(arb_request(), 1..4),
        keep in 0.0f64..1.0,
    ) {
        let (stream, payloads) = framed_stream(&reqs);
        let keep = ((stream.len() as f64) * keep) as usize;
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..keep]);
        let got = drain(&mut dec).unwrap();
        prop_assert_eq!(&got[..], &payloads[..got.len()]);
        // Everything delivered was a complete frame; the remainder (if
        // any) is still buffered, not fabricated.
        prop_assert!(got.len() <= payloads.len());
        prop_assert_eq!(dec.next_frame().unwrap(), None);
    }

    /// Arbitrary garbage never panics the decoder: every outcome is a
    /// frame, a wait, or a `FrameTooLarge` error.
    #[test]
    fn decoder_garbage_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..64,
    ) {
        let mut dec = FrameDecoder::new();
        'feed: for piece in bytes.chunks(chunk) {
            dec.push(piece);
            loop {
                match dec.next_frame() {
                    Ok(Some(frame)) => {
                        // Whatever came out must at least decode
                        // *without panicking* (errors are fine).
                        let _ = decode_request(&frame);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        prop_assert!(matches!(e, WireError::FrameTooLarge(_)));
                        // The decoder poisons the stream after an
                        // oversized prefix; stop feeding.
                        break 'feed;
                    }
                }
            }
        }
    }

    /// A corrupted length prefix either re-frames the stream (yielding
    /// differently-sliced frames) or errors as `FrameTooLarge` — the
    /// decoder never panics and never yields a frame longer than the
    /// bytes it was given.
    #[test]
    fn decoder_corrupted_length_never_panics(
        req in arb_request(),
        flip_byte in 0usize..4,
        xor in 1u8..=255,
    ) {
        let (mut stream, _) = framed_stream(&[req]);
        stream[flip_byte] ^= xor;
        let total = stream.len();
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => prop_assert!(frame.len() <= total),
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(matches!(e, WireError::FrameTooLarge(_)));
                    break;
                }
            }
        }
    }
}

/// Exhaustive split sweep: a representative pipelined stream split into
/// two pushes at *every* byte boundary decodes identically to the
/// one-shot path. (The proptest above samples arbitrary requests; this
/// nails down every boundary for one fixed stream, cheaply.)
#[test]
fn decoder_every_split_boundary_exhaustive() {
    let reqs = [
        Request::Hello,
        Request::Insert(vec![1, 2, 3, u64::MAX]),
        Request::Digest { shard: 7 },
        Request::Flush,
    ];
    let (stream, payloads) = framed_stream(&reqs);
    for cut in 0..=stream.len() {
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..cut]);
        let mut got = drain(&mut dec).unwrap();
        dec.push(&stream[cut..]);
        got.extend(drain(&mut dec).unwrap());
        assert_eq!(got, payloads, "split at byte {cut} changed the decode");
        assert!(dec.is_empty(), "split at byte {cut} left residue");
    }
}

//! Framed-transport abstraction for the follower side of the
//! replication stream.
//!
//! The follower's applier loop in [`crate::replication`] is written
//! against the [`Transport`] trait — one frame payload in, one frame
//! payload out — rather than `TcpStream` directly, so the exact same
//! code path runs over real sockets in production ([`FramedTcp`]) and
//! over a deterministic in-memory double in tests ([`SimTransport`]).
//! The double replays a pre-recorded frame sequence that a [`FaultPlan`]
//! has mangled — dropping, duplicating, reordering, and truncating
//! frames by seed — which is how the fault-injection convergence tests
//! prove anti-entropy repairs whatever the stream loses. (The primary's
//! sender, [`crate::replication::WindowedSender`], does no IO; the
//! reactor feeds it.)

use std::collections::VecDeque;
use std::io::{BufWriter, Read};
use std::net::TcpStream;

use crate::wire::{write_frame, FrameDecoder, WireError};

/// One bidirectional stream of wire frames.
pub trait Transport {
    /// Send one frame payload.
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError>;
    /// Receive the next frame payload; `Ok(None)` means the peer closed
    /// cleanly (or, for replay doubles, that the recording is exhausted).
    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError>;
}

/// The production transport: length-prefixed frames over a TCP stream,
/// reassembled by [`FrameDecoder`] — the same incremental decoder the
/// reactor server runs per connection.
pub struct FramedTcp {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    decoder: FrameDecoder,
}

impl FramedTcp {
    /// Wrap an already-connected stream pair (a read clone plus a
    /// buffered writer over the same socket).
    pub fn from_parts(reader: TcpStream, writer: BufWriter<TcpStream>) -> Self {
        FramedTcp {
            reader,
            writer,
            decoder: FrameDecoder::new(),
        }
    }

    /// A clone of the underlying socket, for out-of-band shutdown (a
    /// blocked `recv` returns once the clone is shut down).
    pub fn peer(&self) -> std::io::Result<TcpStream> {
        self.reader.try_clone()
    }
}

impl Transport for FramedTcp {
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        write_frame(&mut self.writer, payload)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        // The stream may come from a client with I/O deadlines set; the
        // replication stream idles between batches, so wait forever.
        self.reader.set_read_timeout(None).map_err(WireError::Io)?;
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return Ok(Some(payload));
            }
            let mut chunk = [0u8; 4096];
            match self.reader.read(&mut chunk) {
                Ok(0) => {
                    if self.decoder.is_empty() {
                        return Ok(None);
                    }
                    return Err(WireError::UnexpectedEof);
                }
                Ok(n) => self.decoder.push(chunk.get(..n).unwrap_or(&[])),
                // A blocking socket cannot time out; treat it as a close
                // if a platform returns it anyway.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }
}

/// In-memory test double: `recv` replays a recorded (and possibly
/// mangled) frame sequence; `send` captures outgoing frames for
/// inspection.
pub struct SimTransport {
    incoming: VecDeque<Vec<u8>>,
    /// Every frame the code under test sent (e.g. replication acks).
    pub sent: Vec<Vec<u8>>,
}

impl SimTransport {
    /// A transport that will replay `frames` in order and then report a
    /// clean close.
    pub fn new(frames: Vec<Vec<u8>>) -> Self {
        SimTransport {
            incoming: frames.into(),
            sent: Vec::new(),
        }
    }
}

impl Transport for SimTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        self.sent.push(payload.to_vec());
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(self.incoming.pop_front())
    }
}

// --- Deterministic fault injection ------------------------------------------

/// SplitMix64 — a tiny self-contained PRNG so fault patterns depend on
/// nothing but the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }
}

/// A deterministic frame-mangling schedule: per-frame probabilities of
/// dropping, duplicating, and truncating, plus a reordering intensity,
/// all driven by one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed; the same plan over the same frames always produces the
    /// same mangled sequence.
    pub seed: u64,
    /// Probability a frame is dropped outright.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame's payload is cut short (the decoder must
    /// error, never panic).
    pub truncate: f64,
    /// Number of random adjacent-pair swap passes over the final
    /// sequence, as a fraction of its length (0.0 = in-order delivery).
    pub reorder: f64,
}

impl FaultPlan {
    /// A plan that delivers everything untouched.
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            truncate: 0.0,
            reorder: 0.0,
        }
    }

    /// A distinct named fault pattern per seed, cycling through pure and
    /// mixed failure modes: drops only, duplicates only, heavy
    /// reordering, truncation, light everything, heavy drops,
    /// duplicate+reorder, truncate+drop.
    pub fn for_seed(seed: u64) -> Self {
        let base = FaultPlan::clean(seed);
        match seed % 8 {
            0 => FaultPlan { drop: 0.3, ..base },
            1 => FaultPlan {
                duplicate: 0.3,
                ..base
            },
            2 => FaultPlan {
                reorder: 2.0,
                ..base
            },
            3 => FaultPlan {
                truncate: 0.25,
                ..base
            },
            4 => FaultPlan {
                drop: 0.15,
                duplicate: 0.15,
                truncate: 0.1,
                reorder: 0.5,
                ..base
            },
            5 => FaultPlan { drop: 0.6, ..base },
            6 => FaultPlan {
                duplicate: 0.25,
                reorder: 1.0,
                ..base
            },
            _ => FaultPlan {
                truncate: 0.2,
                drop: 0.2,
                ..base
            },
        }
    }

    /// Apply the plan to a frame sequence. Purely a function of
    /// `(self, frames)` — no global state, no clock.
    pub fn mangle(&self, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut rng = SplitMix(self.seed ^ 0xfa17_0000_0000_0001);
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
        for f in frames {
            if rng.unit() < self.drop {
                continue;
            }
            let copies = if rng.unit() < self.duplicate { 2 } else { 1 };
            for _ in 0..copies {
                let mut frame = f.clone();
                if rng.unit() < self.truncate && !frame.is_empty() {
                    frame.truncate(rng.below(frame.len()));
                }
                out.push(frame);
            }
        }
        let swaps = (out.len() as f64 * self.reorder) as usize;
        for _ in 0..swaps {
            if out.len() < 2 {
                break;
            }
            let i = rng.below(out.len() - 1);
            out.swap(i, i + 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: u8) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i; 8]).collect()
    }

    #[test]
    fn clean_plan_is_identity() {
        let fs = frames(10);
        assert_eq!(FaultPlan::clean(3).mangle(&fs), fs);
    }

    #[test]
    fn mangle_is_deterministic_per_seed() {
        let fs = frames(50);
        for seed in 0..8 {
            let plan = FaultPlan::for_seed(seed);
            assert_eq!(plan.mangle(&fs), plan.mangle(&fs), "seed {seed}");
        }
        // And different seeds genuinely differ.
        assert_ne!(
            FaultPlan::for_seed(0).mangle(&fs),
            FaultPlan::for_seed(5).mangle(&fs)
        );
    }

    #[test]
    fn each_named_pattern_exercises_its_fault() {
        let fs = frames(200);
        let dropped = FaultPlan::for_seed(0).mangle(&fs);
        assert!(dropped.len() < fs.len(), "drop pattern dropped nothing");
        let duped = FaultPlan::for_seed(1).mangle(&fs);
        assert!(duped.len() > fs.len(), "dup pattern duplicated nothing");
        let reordered = FaultPlan::for_seed(2).mangle(&fs);
        assert_eq!(reordered.len(), fs.len());
        assert_ne!(reordered, fs, "reorder pattern left order intact");
        let truncated = FaultPlan::for_seed(3).mangle(&fs);
        assert!(
            truncated.iter().any(|f| f.len() < 8),
            "truncate pattern cut nothing"
        );
    }

    #[test]
    fn sim_transport_replays_then_closes() {
        let mut t = SimTransport::new(frames(2));
        assert_eq!(t.recv().unwrap().unwrap(), vec![0u8; 8]);
        t.send(b"ack").unwrap();
        assert_eq!(t.recv().unwrap().unwrap(), vec![1u8; 8]);
        assert!(t.recv().unwrap().is_none());
        assert_eq!(t.sent, vec![b"ack".to_vec()]);
    }
}

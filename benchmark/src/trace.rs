//! Spans around the calls the benchmark makes into each layer.
//!
//! Every timed call goes through [`Recorder::enter`] / [`Recorder::exit`],
//! traced or not, so the traced and untraced runs read the clock at the
//! same places; tracing only adds the push of a [`Span`]. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: u32,
    /// Spans of one repetition or one request share this id.
    pub op: u64,
}

/// An open span; hand it back to [`Recorder::exit`].
#[must_use]
pub struct Open {
    index: u32,
    start: Instant,
}

pub struct Recorder {
    pub thread: &'static str,
    /// Recording can be switched off mid-run: the traced run times its
    /// main operation both ways to report what tracing costs.
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(thread: &'static str, epoch: Instant, enabled: bool) -> Self {
        Recorder {
            thread,
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let start = Instant::now();
        let mut index = NO_PARENT;
        if self.enabled {
            index = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                op,
            });
            self.stack.push(index);
        }
        Open { index, start }
    }

    /// Close the span and return its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if open.index != NO_PARENT {
            self.spans[open.index as usize].end_ns = (end - self.epoch).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(open.index), "spans must nest");
        }
        (end - open.start).as_secs_f64()
    }

    /// Time one call as a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name, op);
        let out = f();
        (out, self.exit(open))
    }

    /// Record a span whose ends were read elsewhere. Pipelined requests
    /// overlap rather than nest, so they cannot go through the stack;
    /// the span gets no parent.
    pub fn closed(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                parent: NO_PARENT,
                op,
            });
        }
    }
}

/// Self times per span name, in seconds, over every recorder of the run.
/// A span's self time is its duration minus what its child spans cover.
pub fn self_times(recorders: &[Recorder]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rec in recorders {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in rec.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            by_name.entry(s.name).or_default().push(own as f64 * 1e-9);
        }
    }
    by_name
}

/// One JSON object per span. `id` and `parent` are unique across the
/// file (`thread:index`), so a reader can rebuild each tree.
pub fn write_jsonl(path: &Path, recorders: &[Recorder]) -> std::io::Result<usize> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for rec in recorders {
        for (i, s) in rec.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                format!("\"{}:{}\"", rec.thread, s.parent)
            };
            writeln!(
                w,
                "{{\"id\":\"{}:{}\",\"thread\":\"{}\",\"name\":\"{}\",\"op\":{},\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                rec.thread, i, rec.thread, s.name, s.op, parent, s.start_ns, s.end_ns
            )?;
            written += 1;
        }
    }
    w.flush()?;
    Ok(written)
}

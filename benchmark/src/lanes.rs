//! A rotation of variants, as the library workloads run them: every lane
//! once per rotation for the whole window, so a slow spell of the host
//! lands on all lanes alike.

use crate::report::Report;
use crate::stats::{median, quantile};

/// One slot of the rotation.
pub struct Lane<V> {
    /// Name of the span around the lane's call; its per-layer metric is
    /// this name plus `_ms`.
    pub span: &'static str,
    pub variant: V,
    pub record: bool,
    /// Seconds per repetition, in the order taken.
    pub secs: Vec<f64>,
}

impl<V> Lane<V> {
    pub fn new(span: &'static str, variant: V) -> Self {
        Lane {
            span,
            variant,
            record: true,
            secs: Vec::new(),
        }
    }

    /// The traced run also times its main operation with recording off,
    /// in the same rotation, to show what recording costs.
    pub fn unrecorded(span: &'static str, variant: V) -> Self {
        Lane {
            record: false,
            ..Lane::new(span, variant)
        }
    }
}

/// The end-to-end metrics of a library workload: `primary` is the lane of
/// its main operation, `secondary` the other one. `stem` and
/// `secondary_name` are the workload's own names for them.
pub fn report_end_to_end<V>(
    report: &mut Report,
    (setup_s, setups): (f64, usize),
    primary: &mut Lane<V>,
    secondary: &mut Lane<V>,
    (tail_q, tail_label): (f64, &str),
    stem: &str,
    secondary_name: &str,
) {
    let mid = median(&mut primary.secs) * 1e3;
    let tail = quantile(&mut primary.secs, tail_q) * 1e3;
    let other = median(&mut secondary.secs) * 1e3;
    report.set("setup_s", setup_s, setups);
    report.set("primary_ms", mid, primary.secs.len());
    report.set("primary_tail_ms", tail, primary.secs.len());
    report.set("secondary_ms", other, secondary.secs.len());
    report.also(format!("{stem}_ms"), mid, "ms");
    report.also(format!("{stem}_{tail_label}_ms"), tail, "ms");
    report.also(secondary_name, other, "ms");
    report.note("tail_percentile", tail_label);
}

/// `trace.overhead_pct`: the main operation's recorded median against
/// the unrecorded lane's.
pub fn report_overhead<V>(report: &mut Report, recorded_ms: f64, unrecorded: &mut Lane<V>) {
    let plain_ms = median(&mut unrecorded.secs) * 1e3;
    report.set(
        "trace.overhead_pct",
        (recorded_ms / plain_ms - 1.0) * 100.0,
        unrecorded.secs.len(),
    );
}

//! The metric names `BENCHMARK.json` declares, and the result a run
//! prints and writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::ctx::Context;
use crate::stats::median;
use crate::trace::{self_times, Recorder};

/// Self times in seconds per span name.
pub struct LayerTimes(BTreeMap<&'static str, Vec<f64>>);

impl LayerTimes {
    /// Median self time of `span` in seconds; 0 if it was never recorded.
    pub fn median(&mut self, span: &str) -> f64 {
        self.0.get_mut(span).map_or(0.0, |v| median(v))
    }

    pub fn samples(&self, span: &str) -> usize {
        self.0.get(span).map_or(0, Vec::len)
    }
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// What "primary" and "secondary" name on each workload is fixed in
/// `README.md`; the workload-specific name is written beside the value.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("primary_ms", "ms"),
    ("primary_tail_ms", "ms"),
    ("secondary_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// workload that makes no call into a layer reports that layer's
/// metrics as 0.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("graph.sample_ms", "ms"),
    ("graph.edges", "count"),
    ("graph.csr_bytes_computed", "bytes"),
    ("core.serial_ms", "ms"),
    ("core.dense_t1_ms", "ms"),
    ("core.dense_tmax_ms", "ms"),
    ("core.frontier_t1_ms", "ms"),
    ("core.frontier_tmax_ms", "ms"),
    ("core.adaptive_t1_ms", "ms"),
    ("core.adaptive_tmax_ms", "ms"),
    ("core.adaptive_unpooled_tmax_ms", "ms"),
    ("core.adaptive_speedup", "ratio"),
    ("core.adaptive_ns_per_edge", "ns"),
    ("core.rounds", "count"),
    ("core.core_vertices", "count"),
    ("core.round1to3_edge_share", "ratio"),
    ("core.subtables_ms", "ms"),
    ("core.subrounds", "count"),
    ("core.coreness_ms", "ms"),
    ("analysis.predicted_rounds", "count"),
    ("analysis.rounds_gap", "count"),
    ("analysis.survivor_max_rel_err", "ratio"),
    ("analysis.predict_us", "us"),
    ("iblt.serial_insert_ms", "ms"),
    ("iblt.par_insert_t1_ms", "ms"),
    ("iblt.par_insert_tmax_ms", "ms"),
    ("iblt.insert_speedup", "ratio"),
    ("iblt.insert_mkeys_s", "Mkeys/s"),
    ("iblt.serial_recover_ms", "ms"),
    ("iblt.par_recover_t1_ms", "ms"),
    ("iblt.par_recover_tmax_ms", "ms"),
    ("iblt.par_recover_frontier_tmax_ms", "ms"),
    ("iblt.recover_speedup", "ratio"),
    ("iblt.subrounds", "count"),
    ("iblt.recover_subtracted_t1_ms", "ms"),
    ("iblt.recover_subtracted_tmax_ms", "ms"),
    ("iblt.snapshot_ms", "ms"),
    ("iblt.load_subtract_ms", "ms"),
    ("iblt.table_bytes_computed", "bytes"),
    ("wire.encode_insert_us", "us"),
    ("wire.decode_insert_us", "us"),
    ("wire.encode_reconcile_us", "us"),
    ("wire.decode_reconcile_us", "us"),
    ("wire.encode_diff_us", "us"),
    ("wire.decode_diff_us", "us"),
    ("wire.frame_decoder_us", "us"),
    ("wire.insert_frame_bytes", "bytes"),
    ("wire.reconcile_frame_bytes", "bytes"),
    ("router.build_digests_ms", "ms"),
    ("router.partition_us", "us"),
    ("service.insert_call_us", "us"),
    ("service.flush_ms", "ms"),
    ("service.snapshot_us", "us"),
    ("service.reconcile_shard_ms", "ms"),
    ("service.reshard_1to4_ms", "ms"),
    ("service.queue_wait_p50_us", "us"),
    ("service.batch_apply_p50_us", "us"),
    ("service.recovery_p50_us", "us"),
    ("service.queue_stalls", "count"),
    ("service.batches_applied", "count"),
    ("service.recovery_subrounds", "count"),
    ("server.handle_insert_us", "us"),
    ("server.handle_reconcile_ms", "ms"),
    ("server.handle_digest_us", "us"),
    ("reactor.residual_insert_us", "us"),
    ("reactor.residual_reconcile_us", "us"),
    ("reactor.pipelined_req_s", "req/s"),
    ("client.ingest_mkeys_s", "Mkeys/s"),
    ("client.roundtrip_insert_us", "us"),
    ("client.roundtrip_reconcile_ms", "ms"),
    ("client.unloaded_insert_p50_us", "us"),
    ("client.unloaded_insert_p99_us", "us"),
    ("client.insert_p99_whole_run_us", "us"),
    ("client.gen_late_p99_us", "us"),
    ("client.heavy_late_p99_ms", "ms"),
    ("trace.overhead_pct", "pct"),
];

const MAX_FAILURE_MESSAGES: usize = 20;

/// Ops attempted and failed. A load-generator thread keeps its own and
/// hands it to the report when it ends.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Count one op and check its output.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_MESSAGES {
                self.failures.push(what());
            }
        }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    /// One op is one verified repetition or one request.
    tally: Tally,
    /// name → (value, samples behind it).
    metrics: BTreeMap<&'static str, (f64, usize)>,
    /// The workload's own name for a shared metric, or a derived figure:
    /// `(name, value, unit)`.
    also: Vec<(String, f64, &'static str)>,
    /// Free-form facts about the run: sizes, rates, thread counts.
    notes: Vec<(String, String)>,
    /// The samples behind the timing metrics, in the order taken, in
    /// seconds: `(name, samples)`.
    raw: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool, seed: u64, seconds: f64) -> Self {
        Report {
            workload,
            traced,
            seed,
            seconds,
            tally: Tally::default(),
            metrics: BTreeMap::new(),
            also: Vec::new(),
            notes: Vec::new(),
            raw: Vec::new(),
        }
    }

    fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            self.declared().iter().any(|(n, _)| *n == name),
            "{name} is not a declared metric of this mode"
        );
        self.metrics.insert(name, (value, samples));
    }

    /// Every per-layer time metric is named after the span it times plus
    /// its unit. Fill in those whose span was recorded, with the median of
    /// the span's self times, and hand the self times back for derived
    /// figures.
    pub fn set_layer_times(&mut self, recorders: &[Recorder]) -> LayerTimes {
        let mut times = self_times(recorders);
        for (name, unit) in PER_LAYER {
            let scale = match unit {
                "ms" => 1e3,
                "us" => 1e6,
                _ => continue,
            };
            let span = name.strip_suffix(unit).and_then(|n| n.strip_suffix('_'));
            if let Some(v) = span.and_then(|span| times.get_mut(span)) {
                self.set(name, median(v) * scale, v.len());
            }
        }
        LayerTimes(times)
    }

    pub fn also(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.also.push((name.into(), value, unit));
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Keep a timing series for the output file (at most the first
    /// 20 000 samples of it).
    pub fn raw(&mut self, name: &'static str, secs: &[f64]) {
        self.raw
            .push((name, secs[..secs.len().min(20_000)].to_vec()));
    }

    /// Count one op and check its output.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.op(ok, what);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.tally.attempted += other.attempted;
        self.tally.failed += other.failed;
        let room = MAX_FAILURE_MESSAGES.saturating_sub(self.tally.failures.len());
        self.tally
            .failures
            .extend(other.failures.into_iter().take(room));
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0
            && self.tally.attempted > 0
            && self.values().all(|(_, v, _, _)| v.is_finite())
    }

    /// Every declared metric, in declaration order.
    fn values(&self) -> impl Iterator<Item = (&'static str, f64, &'static str, usize)> + '_ {
        self.declared().iter().map(|&(name, unit)| {
            let (value, samples) = self.metrics.get(name).copied().unwrap_or((0.0, 0));
            (name, value, unit, samples)
        })
    }

    pub fn print_human(&self) {
        let mode = if self.traced { "traced" } else { "untraced" };
        println!(
            "== {} ({mode}, seed {}, {} s window) ==",
            self.workload, self.seed, self.seconds
        );
        for (name, value, unit, samples) in self.values() {
            if samples > 0 {
                println!("{name:<36} {value:>16.4} {unit:<8} n={samples}");
            }
        }
        for (name, value, unit) in &self.also {
            println!("  = {name:<32} {value:>16.4} {unit}");
        }
        for (k, v) in &self.notes {
            println!("  # {k}: {v}");
        }
        let share = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        println!(
            "failed_share {share} ({} of {} ops)",
            self.tally.failed, self.tally.attempted
        );
        for f in &self.tally.failures {
            println!("  FAILED: {f}");
        }
    }

    /// The line the driver reads: the last line of standard output.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, (name, value, unit, _)) in self.values().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    pub fn write_file(&self, path: &Path, ctx: &Context) -> std::io::Result<()> {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"workload\": {},", json_str(self.workload));
        let _ = writeln!(s, "  \"traced\": {},", self.traced);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"window_seconds\": {},", self.seconds);
        let _ = writeln!(s, "  \"git_commit\": {},", json_str(&ctx.git_commit));
        let _ = writeln!(s, "  \"rustc\": {},", json_str(&ctx.rustc));
        let _ = writeln!(s, "  \"cpu_model\": {},", json_str(&ctx.cpu_model));
        let _ = writeln!(s, "  \"nproc\": {},", ctx.nproc);
        let _ = writeln!(s, "  \"threads_T\": {},", ctx.threads);
        let caches: Vec<String> = ctx
            .caches
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let _ = writeln!(s, "  \"caches\": {{{}}},", caches.join(", "));
        let _ = writeln!(s, "  \"correct\": {},", self.correct());
        let _ = writeln!(s, "  \"attempted\": {},", self.tally.attempted);
        let _ = writeln!(s, "  \"failed\": {},", self.tally.failed);
        let _ = writeln!(
            s,
            "  \"failed_share\": {},",
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64
        );
        let failures: Vec<String> = self.tally.failures.iter().map(|f| json_str(f)).collect();
        let _ = writeln!(s, "  \"failures\": [{}],", failures.join(", "));
        s.push_str("  \"metrics\": {\n");
        let rows: Vec<String> = self
            .values()
            .map(|(name, value, unit, samples)| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_str(name),
                    if value.is_finite() { value } else { 0.0 },
                    json_str(unit),
                    samples
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  },\n  \"also\": {\n");
        let rows: Vec<String> = self
            .also
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    if value.is_finite() { *value } else { 0.0 },
                    json_str(unit)
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  },\n  \"notes\": {\n");
        let rows: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("    {}: {}", json_str(k), json_str(v)))
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  },\n  \"samples_s\": {\n");
        let rows: Vec<String> = self
            .raw
            .iter()
            .map(|(name, secs)| {
                let values: Vec<String> = secs.iter().map(|v| format!("{v:.9}")).collect();
                format!("    {}: [{}]", json_str(name), values.join(", "))
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  }\n}\n");
        std::fs::write(path, s)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

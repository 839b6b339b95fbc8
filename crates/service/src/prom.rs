//! Prometheus text-exposition rendering of the service metrics.
//!
//! [`render`] turns a [`MetricsSnapshot`] into the plain-text format
//! scraped by Prometheus-compatible collectors. The same body is served
//! two ways: as the `MetricsText` wire frame, and over plain HTTP by
//! the optional `peel-server --metrics-addr` listener.
//!
//! The body is one pass over the metric table, [`FAMILIES`]: each row
//! supplies its name, type, help, and samples, so this module names no
//! family and no scalar or histogram field. Only the labelled rows are
//! walked here — one loop per shard, per follower, and per class.

use std::fmt::Write as _;

use crate::metrics::{
    bucket_floor, HistogramSnapshot, MetricsSnapshot, Source, FAMILIES, REQUEST_CLASSES,
};

/// The quantiles rendered for each histogram's `_quantile` companion.
const QUANTILES: &[(&str, f64)] = &[("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)];

fn header(out: &mut String, name: &str, ty: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {ty}");
}

/// Render one histogram family: per series, cumulative `_bucket{{le=…}}`
/// lines, `_sum` and `_count`; then a `_quantile` companion gauge so a
/// plain scrape shows latency percentiles without server-side math.
/// `series` pairs each histogram with its label set (empty when the
/// family is unlabelled).
fn histogram(
    out: &mut String,
    name: &str,
    quantile_help: &str,
    series: &[(String, &HistogramSnapshot)],
) {
    for (labels, h) in series {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cum = 0u64;
        for &(i, c) in &h.buckets {
            cum = cum.saturating_add(c);
            let le = bucket_floor(i as usize + 1);
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
        let braced = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let _ = writeln!(out, "{name}_sum{braced} {}", h.sum);
        let _ = writeln!(out, "{name}_count{braced} {}", h.count);
    }
    let qname = format!("{name}_quantile");
    header(out, &qname, "gauge", quantile_help);
    for (labels, h) in series {
        let sep = if labels.is_empty() { "" } else { "," };
        for (label, q) in QUANTILES {
            let _ = writeln!(
                out,
                "{qname}{{{labels}{sep}q=\"{label}\"}} {}",
                h.quantile(*q)
            );
        }
    }
}

/// Render the snapshot in Prometheus text exposition format.
pub fn render(s: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(8192);
    for f in FAMILIES {
        let name = f.name;
        header(&mut out, name, f.kind.as_str(), f.help);
        let label = f.label().unwrap_or_default();
        match f.source {
            Source::Scalar { get, .. } => {
                let _ = writeln!(out, "{name} {}", get(s));
            }
            Source::Shard(get) => {
                for (i, sh) in s.shards.iter().enumerate() {
                    let _ = writeln!(out, "{name}{{{label}=\"{i}\"}} {}", get(sh));
                }
            }
            Source::Follower(get) => {
                for r in &s.replication.per_follower {
                    let _ = writeln!(out, "{name}{{{label}=\"{}\"}} {}", r.id, get(r));
                }
            }
            Source::Histogram {
                series,
                per_class,
                quantile_help,
                ..
            } => {
                let series: Vec<(String, &HistogramSnapshot)> = if per_class {
                    REQUEST_CLASSES
                        .iter()
                        .zip(series(s))
                        .map(|(c, h)| (format!("{label}=\"{c}\""), h))
                        .collect()
                } else {
                    series(s).iter().map(|h| (String::new(), h)).collect()
                };
                histogram(&mut out, name, quantile_help, &series);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{FollowerStats, Metrics, ReplicationStats, ReshardStats, ShardStats};
    // ordering: Relaxed — single-threaded test fixture setup; no
    // cross-thread publication happens in these tests.
    use std::sync::atomic::Ordering::Relaxed;

    fn sample() -> MetricsSnapshot {
        let m = Metrics::default();
        m.batches_applied.store(5, Relaxed);
        m.record_recovery(true, 3, &[2, 1], &[600, 400]);
        m.record_request(1, 1200);
        m.record_request(1, 90_000);
        m.queue_wait.record(450);
        m.batch_apply.record(7_000);
        let mut hub = ReplicationStats {
            followers: 1,
            published_seq: 9,
            acked_min: 7,
            max_lag: 2,
            ..ReplicationStats::default()
        };
        hub.per_follower.push(FollowerStats {
            id: 1,
            published: 9,
            acked: 7,
            lag: 2,
            alive: true,
        });
        hub.lag.merge(&{
            let h = crate::metrics::AtomicHistogram::new();
            h.record(2);
            h.record(0);
            h.snapshot()
        });
        m.snapshot(vec![ShardStats::default(); 2], hub, ReshardStats::default())
    }

    #[test]
    fn every_registry_family_is_rendered() {
        let body = render(&sample());
        for f in FAMILIES {
            let (name, ty) = (f.name, f.kind.as_str());
            assert!(
                body.contains(&format!("# TYPE {name} {ty}")),
                "missing TYPE line for {name}"
            );
        }
    }

    /// Table-driven: every scalar row's value shows up as its sample
    /// line, so a new row is covered with no edit here.
    #[test]
    fn every_scalar_row_renders_its_value() {
        let s = crate::metrics::table_fixture();
        let body = render(&s);
        for f in FAMILIES {
            if let Source::Scalar { get, .. } = f.source {
                let line = format!("{} {}", f.name, get(&s));
                assert!(body.lines().any(|l| l == line), "missing `{line}`");
            }
        }
    }

    #[test]
    fn histograms_render_buckets_and_quantiles() {
        let body = render(&sample());
        assert!(body.contains("peel_request_latency_ns_bucket{class=\"ingest\",le=\""));
        assert!(body.contains("peel_request_latency_ns_count{class=\"ingest\"} 2"));
        assert!(body.contains("peel_request_latency_ns_quantile{class=\"ingest\",q=\"0.5\"}"));
        assert!(body.contains("peel_replication_lag_batches_quantile{q=\"0.99\"}"));
        assert!(body.contains("peel_replication_lag_batches_count 2"));
        assert!(body.contains("peel_replication_follower_lag{follower=\"1\"} 2"));
        assert!(body.contains("peel_replication_follower_alive{follower=\"1\"} 1"));
        assert!(body.contains("le=\"+Inf\"} 2"));
    }

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for f in FAMILIES {
            let name = f.name;
            assert!(seen.insert(name.to_string()), "duplicate entry {name}");
            assert!(name.starts_with("peel_"), "{name} lacks the peel_ prefix");
            assert!(!f.help.is_empty(), "{name} has an empty help string");
            if let Source::Histogram { quantile_help, .. } = f.source {
                assert_eq!(f.kind, crate::metrics::Kind::Histogram);
                assert!(!quantile_help.is_empty(), "{name} quantile help is empty");
                assert!(
                    seen.insert(format!("{name}_quantile")),
                    "{name}_quantile clash"
                );
            }
        }
    }
}

//! # peel-bench — experiment harness for the SPAA 2014 reproduction
//!
//! One binary per table/figure of the paper:
//!
//! | Binary | Reproduces | Command |
//! |---|---|---|
//! | `table1` | Table 1 — rounds vs n below/above threshold (r=4, k=2) | `cargo run --release -p peel-bench --bin table1` |
//! | `table2` | Table 2 — recurrence prediction vs experiment (n=10^6) | `cargo run --release -p peel-bench --bin table2` |
//! | `table3_4` | Tables 3 & 4 — parallel vs serial IBLT wall time | `cargo run --release -p peel-bench --bin table3_4` |
//! | `table5` | Table 5 — subrounds with subtables (r=4, k=2) | `cargo run --release -p peel-bench --bin table5` |
//! | `table6` | Table 6 — subtable recurrence vs experiment | `cargo run --release -p peel-bench --bin table6` |
//! | `fig1` | Figure 1 — β_i trajectories near the threshold + Theorem 5 plateau sweep | `cargo run --release -p peel-bench --bin fig1` |
//!
//! Every binary accepts `--full` to switch from laptop-scale defaults to
//! the paper's exact parameters, plus individual overrides (`--trials`,
//! `--n`, `--cells`, …); run with `--help` for the list. Timing of record
//! lives in the standalone `benchmark/` package, not here.

#![warn(missing_docs)]

use std::collections::HashMap;

/// Minimal `--key value` / `--flag` argument parser (std-only: the
/// workspace builds offline against vendored shims, and has no CLI crate).
#[derive(Debug, Clone)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse `std::env::args()`.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)] // arg parsing, not a generic collection conversion
    pub fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        values.insert(name.to_string(), iter.next().unwrap());
                    }
                    _ => flags.push(name.to_string()),
                }
            }
        }
        Args { values, flags }
    }

    /// Boolean flag presence (`--full`, `--help`, …).
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Typed value with default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.values
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Render one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_iter(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_values_and_flags() {
        let a = args("--trials 50 --full --n 1000000");
        assert_eq!(a.get("trials", 0usize), 50);
        assert_eq!(a.get("n", 0usize), 1_000_000);
        assert!(a.flag("full"));
        assert!(!a.flag("help"));
    }

    #[test]
    fn defaults_apply() {
        let a = args("");
        assert_eq!(a.get("trials", 7usize), 7);
        assert!((a.get("c", 0.7f64) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn adjacent_flags_dont_eat_values() {
        let a = args("--full --trials 3");
        assert!(a.flag("full"));
        assert_eq!(a.get("trials", 0usize), 3);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((stddev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
    }

    #[test]
    fn row_formats_right_aligned() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}

//! `cargo xtask bench-smoke` — does the repo benchmark still build and
//! run against this tree?
//!
//! `benchmark/` is a Cargo workspace of its own with a committed lock
//! file, so `cargo build` and `cargo test` at the root never compile it:
//! an API it calls can drift, and the first to notice is the PR driver's
//! benchmark run. This task runs the driver's own command
//! (`benchmark/run.sh`, which builds `benchmark/Cargo.toml` offline in
//! release mode) for two seconds a run, untraced and traced, and fails
//! on a non-zero exit or a result line without `"correct": true`.
//! `svc-mixed` is left out: its generator-lateness abort trips on noisy
//! shared runners whatever the code under test does.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["peel-below", "peel-above", "iblt-tables", "svc-bulk"];

/// Run every workload in both modes; `Err` names the first that failed.
pub fn run(root: &Path) -> Result<(), String> {
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let what = format!("benchmark/run.sh --workload {workload} --trace {trace}");
            let out = Command::new("bash")
                .arg(root.join("benchmark").join("run.sh"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
                .args(["--trace", trace])
                .current_dir(root)
                .output()
                .map_err(|e| format!("xtask bench-smoke: cannot run {what}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = stdout.lines().last().unwrap_or_default();
            if !out.status.success() || !result.contains("\"correct\": true") {
                return Err(format!(
                    "xtask bench-smoke: {what} failed ({})\n{stdout}{}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            println!("bench-smoke: {workload} --trace {trace} ok");
        }
    }
    Ok(())
}

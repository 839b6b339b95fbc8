//! Where and how a run was made: written into every output file so a
//! number can be traced back to a commit, a seed and a machine.

use std::process::Command;

pub struct Context {
    pub git_commit: String,
    pub rustc: String,
    pub cpu_model: String,
    pub nproc: usize,
    /// Threads the parallel variants and the load generator may use:
    /// `min(nproc, 4)`.
    pub threads: usize,
    /// `(level and type, size)` per cache of cpu0, e.g. `("L2 Unified", "4096K")`.
    pub caches: Vec<(String, String)>,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

impl Context {
    pub fn gather() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        let cpu_model = read_trimmed("/proc/cpuinfo")
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let caches = (0..8)
            .filter_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let level = read_trimmed(&format!("{dir}/level"))?;
                let kind = read_trimmed(&format!("{dir}/type"))?;
                let size = read_trimmed(&format!("{dir}/size"))?;
                Some((format!("L{level} {kind}"), size))
            })
            .collect();
        Context {
            // The driver's checkout is not a git repository.
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            cpu_model,
            nproc,
            threads: nproc.min(4),
            caches,
        }
    }
}

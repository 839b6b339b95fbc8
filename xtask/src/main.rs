//! `cargo xtask <task>` — repo maintenance tasks.
//!
//! * `cargo xtask lint` — run the concurrency-invariant lint passes
//!   (see `xtask::lint_all` for the list); nonzero exit on violations.
//! * `cargo xtask lint --orderings` — print the generated per-site
//!   memory-orderings table.
//! * `cargo xtask lint --write-orderings` — rewrite the table in
//!   README.md between the `<!-- orderings:begin/end -->` markers.
//! * `cargo xtask mesh-smoke` — build `peel-server` and run the
//!   3-process replica-mesh failover smoke test (kill the primary
//!   mid-ingest; survivors must elect, converge, and serve reads).
//!   Child logs land in `target/mesh-smoke/` and are kept on failure.
//! * `cargo xtask conn-smoke` — build `peel-server` and drive 512
//!   concurrent pipelined client connections against it, asserting
//!   in-order pipelined responses, an honest live-connection gauge,
//!   and a clean process exit on `Shutdown` with the herd attached.
//!   The server log lands in `target/conn-smoke/`, kept on failure.
//! * `cargo xtask bench-smoke` — build the standalone `benchmark/`
//!   package offline and run four of its workloads for 2 s each,
//!   untraced and traced, failing on a non-zero exit or an incorrect
//!   result: catches API drift against the benchmark package, which
//!   the root workspace's build and tests never compile.

use std::path::PathBuf;
use std::process::ExitCode;

fn repo_root() -> PathBuf {
    // xtask always lives one level below the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent directory")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = repo_root();
    match args.first().map(String::as_str) {
        Some("lint") => {
            if args.iter().any(|a| a == "--orderings") {
                print!("{}", xtask::orderings_table(&root));
                return ExitCode::SUCCESS;
            }
            if args.iter().any(|a| a == "--write-orderings") {
                if let Err(e) = xtask::write_readme_orderings(&root) {
                    eprintln!("xtask: {e}");
                    return ExitCode::FAILURE;
                }
                println!("README.md orderings table rewritten");
                return ExitCode::SUCCESS;
            }
            let violations = xtask::lint_all(&root);
            for v in &violations {
                eprintln!("{v}");
            }
            if violations.is_empty() {
                println!("xtask lint: clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        Some("bench-smoke") => match xtask::bench_smoke::run(&root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        Some("conn-smoke") => {
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
            let status = std::process::Command::new(&cargo)
                .args(["build", "-p", "peel-service", "--bin", "peel-server"])
                .current_dir(&root)
                .status();
            if !status.map(|s| s.success()).unwrap_or(false) {
                eprintln!("xtask conn-smoke: building peel-server failed");
                return ExitCode::FAILURE;
            }
            let bin = root.join("target").join("debug").join("peel-server");
            match xtask::conn_smoke::run(&root, &bin) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    eprintln!("xtask conn-smoke: server log kept in target/conn-smoke/");
                    ExitCode::FAILURE
                }
            }
        }
        Some("mesh-smoke") => {
            // Build the server binary with the ambient cargo (the same
            // toolchain that is running this xtask).
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
            let status = std::process::Command::new(&cargo)
                .args(["build", "-p", "peel-service", "--bin", "peel-server"])
                .current_dir(&root)
                .status();
            if !status.map(|s| s.success()).unwrap_or(false) {
                eprintln!("xtask mesh-smoke: building peel-server failed");
                return ExitCode::FAILURE;
            }
            let bin = root.join("target").join("debug").join("peel-server");
            match xtask::mesh_smoke::run(&root, &bin) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    eprintln!("xtask mesh-smoke: child logs kept in target/mesh-smoke/");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!(
                "usage: cargo xtask lint [--orderings | --write-orderings] | mesh-smoke | conn-smoke | bench-smoke"
            );
            ExitCode::FAILURE
        }
    }
}

//! The repo benchmark must keep compiling against this tree.
//!
//! `benchmark/` is a Cargo workspace of its own with a committed lock
//! file, so `cargo build` and `cargo test` at the root never compile it:
//! renaming or deleting a public item it calls, or changing a dependency
//! of a crate it builds, would otherwise go unnoticed until the next
//! benchmark run. This test type-checks it offline, `--locked` (so a lock
//! file that would have to move is a failure too), into its own target
//! directory so it never invalidates the root build.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_package_type_checks_against_this_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["check", "--offline", "--locked", "--quiet"])
        .arg("--manifest-path")
        .arg(root.join("benchmark").join("Cargo.toml"))
        .arg("--target-dir")
        .arg(root.join("target").join("benchmark-check"))
        .output()
        .expect("cannot run cargo");
    assert!(
        out.status.success(),
        "benchmark/ no longer builds against this tree ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

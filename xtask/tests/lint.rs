//! The lint must do two things: pass on the merged tree, and *fail* on
//! the seeded fixture tree — a lint that cannot catch its target bug
//! classes proves nothing by passing.

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/seeded")
}

#[test]
fn merged_tree_is_clean() {
    let violations = xtask::lint_all(&repo_root());
    assert!(
        violations.is_empty(),
        "lint must be clean at merge, found:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_ordering_violation_is_caught() {
    let v = xtask::check_ordering_justified(&fixture_root());
    assert_eq!(v.len(), 1, "exactly the unjustified site, got {v:?}");
    assert!(v[0].file.ends_with("crates/other/src/lib.rs"));
    assert!(v[0].message.contains("Ordering::SeqCst"));
}

#[test]
fn seeded_std_lock_violation_is_caught() {
    let v = xtask::check_std_sync_ban(&fixture_root());
    assert_eq!(v.len(), 1, "exactly the std::sync::Mutex import, got {v:?}");
    assert!(v[0].file.ends_with("crates/other/src/lib.rs"));
}

#[test]
fn seeded_panic_zone_violations_are_caught() {
    let v = xtask::check_panic_free_zone(&fixture_root());
    let messages: Vec<String> = v.iter().map(ToString::to_string).collect();
    for needle in [".unwrap()", "panic!(", ".expect(", "slice indexing"] {
        assert!(
            messages.iter().any(|m| m.contains(needle)),
            "expected a {needle} finding in {messages:?}"
        );
    }
}

#[test]
fn seeded_enum_coverage_violations_are_caught() {
    let v = xtask::check_enum_coverage(&fixture_root());
    let messages: Vec<String> = v.iter().map(|x| x.message.clone()).collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("Request::Shutdown") && m.contains("encode_request")),
        "Shutdown missing from encode must be caught, got {messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("Request::Shutdown") && m.contains("handle_request")),
        "Shutdown missing from dispatch must be caught, got {messages:?}"
    );
    // The fully-covered Response decode path is a negative control.
    assert!(
        !messages
            .iter()
            .any(|m| m.contains("Response::") && m.contains("decode_response")),
        "decode_response covers every Response variant, got {messages:?}"
    );
}

#[test]
fn orderings_table_lists_every_site_with_its_justification() {
    let table = xtask::orderings_table(&repo_root());
    // Spot checks: the audited server downgrade and the bitset module.
    assert!(table.contains("crates/service/src/server.rs"));
    assert!(table.contains("crates/graph/src/bits.rs"));
    assert!(
        !table.contains("UNJUSTIFIED"),
        "no unjustified sites may remain in the merged tree"
    );
}

//! The `cargo xtask lint` invariant passes.
//!
//! These are *textual* checks, deliberately: they guard conventions the
//! type system cannot see (a justification comment next to a memory
//! ordering, a module boundary for `std::sync` locks, a panic-free zone
//! in the wire decoder), and they must keep working on any tree state —
//! including one that does not compile. Five passes:
//!
//! 1. **Ordering justification** ([`check_ordering_justified`]): every
//!    non-comment occurrence of `Ordering::` must carry a `// ordering:`
//!    justification — on the same line, or in the contiguous comment
//!    block directly above it.
//! 2. **std lock ban** ([`check_std_sync_ban`]): `std::sync::Mutex` /
//!    `RwLock` are banned outside the poison-recovery module
//!    (`crates/service/src/lock.rs`) and the per-crate `src/sync.rs`
//!    model-checking shims — everything else uses `parking_lot` or the
//!    `crate::sync` indirection, so a panicking thread can never cascade
//!    poisoning through an unaudited lock.
//! 3. **Panic-free zone** ([`check_panic_free_zone`]): the wire decode
//!    paths and frame handlers (`crates/service/src/wire.rs`,
//!    `crates/service/src/server.rs`) must not contain `unwrap`,
//!    `expect`, `panic!`-family macros, or slice indexing outside test
//!    code — a malformed frame must become a `WireError`, never a
//!    panic. Exceptions live in `xtask/lint-allow.txt`.
//! 4. **Enum coverage** ([`check_enum_coverage`]): every `Request` and
//!    `Response` variant must appear in its encoder, its decoder, and
//!    (for requests) the server dispatch — a variant added to the wire
//!    enum but forgotten in one of the three shows up here, not as a
//!    silent protocol hole.
//! 5. **README orderings table** ([`check_readme_orderings`]): the
//!    per-site orderings table in README.md (between the
//!    `<!-- orderings:begin -->` / `<!-- orderings:end -->` markers)
//!    must match the tree; regenerate with
//!    `cargo xtask lint --write-orderings`.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod bench_smoke;
pub mod conn_smoke;
pub mod mesh_smoke;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the lint root.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// What rule was broken and how to fix it.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

/// Directories scanned for Rust sources, relative to the lint root.
/// `vendor/` (third-party shims) and `xtask/` (this tool and its seeded
/// fixtures) are deliberately absent.
const SCAN_ROOTS: &[&str] = &["crates", "tests", "src"];

/// The panic-free zone: wire decoding, frame dispatch, and the reactor
/// event loop, where a malformed or hostile frame must surface as a
/// `WireError`/`Response::Error`, never a panic — the reactor
/// especially, since one thread owns every connection.
const PANIC_FREE_FILES: &[&str] = &[
    "crates/service/src/wire.rs",
    "crates/service/src/server.rs",
    "crates/service/src/reactor.rs",
];

/// Files allowed to name `std::sync::{Mutex, RwLock}`: the one module
/// that recovers from poisoning, and the per-crate model-checking shims
/// whose whole job is re-exporting the std types.
fn std_sync_exempt(rel: &str) -> bool {
    rel == "crates/service/src/lock.rs" || rel.ends_with("src/sync.rs")
}

/// All `.rs` files under the scan roots, relative paths, sorted.
pub fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for scan in SCAN_ROOTS {
        walk(&root.join(scan), &mut out);
    }
    out.sort();
    out.iter()
        .map(|p| p.strip_prefix(root).unwrap_or(p).to_path_buf())
        .collect()
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strip `//` line comments and the contents of string literals, so the
/// passes match code, not prose. Char literals and raw strings are
/// handled well enough for this codebase's shapes; the output keeps the
/// line's length class but not its exact text.
fn code_of(line: &str) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    let mut in_str = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if in_str {
            if c == '\\' {
                i += 2;
                continue;
            }
            if c == '"' {
                in_str = false;
            }
            i += 1;
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => break,
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// An ordering site: a line whose *code* mentions `Ordering::`.
struct OrderingSite {
    file: String,
    line: usize,
    /// The distinct `Ordering::X` tokens on the line.
    orderings: Vec<String>,
    /// First line of the justification block, if any.
    justification: Option<String>,
}

fn ordering_sites(root: &Path) -> Vec<OrderingSite> {
    let mut sites = Vec::new();
    for rel in rust_files(root) {
        let Ok(text) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let lines: Vec<&str> = text.lines().collect();
        for (idx, raw) in lines.iter().enumerate() {
            let code = code_of(raw);
            if !code.contains("Ordering::") {
                continue;
            }
            let mut orderings: Vec<String> = Vec::new();
            for (pos, _) in code.match_indices("Ordering::") {
                let rest = &code[pos + "Ordering::".len()..];
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric())
                    .collect();
                if !name.is_empty() && !orderings.contains(&name) {
                    orderings.push(name);
                }
            }
            sites.push(OrderingSite {
                file: rel.display().to_string(),
                line: idx + 1,
                orderings,
                justification: justification_for(&lines, idx, raw),
            });
        }
    }
    sites
}

/// The justification for the site at `lines[idx]`: a trailing
/// `// ordering:` on the same line, or a contiguous block of `//`
/// comment lines directly above it containing one. Returns the text of
/// the justification's first line.
fn justification_for(lines: &[&str], idx: usize, raw: &str) -> Option<String> {
    if let Some(pos) = raw.find("// ordering:") {
        return Some(raw[pos + "// ordering:".len()..].trim().to_string());
    }
    let mut start = None;
    for j in (0..idx).rev() {
        let t = lines[j].trim_start();
        if t.starts_with("//") {
            if let Some(rest) = t.strip_prefix("// ordering:") {
                start = Some(rest.trim().to_string());
            }
            continue;
        }
        break;
    }
    start
}

/// Pass 1: every `Ordering::` use carries a justification.
pub fn check_ordering_justified(root: &Path) -> Vec<Violation> {
    ordering_sites(root)
        .into_iter()
        .filter(|s| s.justification.is_none())
        .map(|s| Violation {
            file: s.file,
            line: s.line,
            message: format!(
                "Ordering::{} without a `// ordering:` justification on the line or in \
                 the comment block above it",
                s.orderings.first().map(String::as_str).unwrap_or("?")
            ),
        })
        .collect()
}

/// Pass 2: `std::sync::{Mutex, RwLock}` only in the audited modules.
pub fn check_std_sync_ban(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for rel in rust_files(root) {
        let rel_str = rel.display().to_string();
        if std_sync_exempt(&rel_str) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        for (idx, raw) in text.lines().enumerate() {
            let code = code_of(raw);
            if code.contains("std::sync::")
                && !code.contains("std::sync::atomic")
                && (code.contains("Mutex") || code.contains("RwLock"))
            {
                out.push(Violation {
                    file: rel_str.clone(),
                    line: idx + 1,
                    message: "std::sync::{Mutex, RwLock} are banned outside \
                              crates/service/src/lock.rs and the src/sync.rs shims — use \
                              parking_lot or the crate::sync indirection"
                        .into(),
                });
            }
        }
    }
    out
}

/// Allowlist entries: `path-suffix: substring`, one per line, `#`
/// comments. A panic-zone finding is suppressed when an entry's path is
/// a suffix of the file and its substring occurs in the flagged line.
fn load_allowlist(root: &Path) -> Vec<(String, String)> {
    let Ok(text) = std::fs::read_to_string(root.join("xtask/lint-allow.txt")) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (path, pat) = l.split_once(": ")?;
            Some((path.trim().to_string(), pat.trim().to_string()))
        })
        .collect()
}

/// Pass 3: no unwrap / expect / panic-family macro / slice indexing in
/// the panic-free zone (test modules excluded, allowlist honored).
pub fn check_panic_free_zone(root: &Path) -> Vec<Violation> {
    let allow = load_allowlist(root);
    let mut out = Vec::new();
    for rel in PANIC_FREE_FILES {
        let Ok(text) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        for (idx, raw) in text.lines().enumerate() {
            // The test module (by convention last in the file) is out of
            // scope — tests may unwrap freely.
            if raw.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            let code = code_of(raw);
            let mut hits: Vec<&str> = Vec::new();
            for pat in [
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
            ] {
                if code.contains(pat) {
                    hits.push(pat);
                }
            }
            if has_indexing(&code) {
                hits.push("slice indexing");
            }
            for hit in hits {
                let allowed = allow
                    .iter()
                    .any(|(path, pat)| rel.ends_with(path.as_str()) && raw.contains(pat.as_str()));
                if !allowed {
                    out.push(Violation {
                        file: (*rel).to_string(),
                        line: idx + 1,
                        message: format!(
                            "{hit} in the panic-free zone — return a WireError (or add an \
                             `xtask/lint-allow.txt` entry with a written argument)"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// `foo[`, `foo()[`, `foo]ms[` — an index expression, as opposed to an
/// array type/literal (`[u8; 4]`), an attribute (`#[...]`), or a macro
/// (`vec![`).
fn has_indexing(code: &str) -> bool {
    let b = code.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'[' || i == 0 {
            continue;
        }
        let prev = b[i - 1] as char;
        if prev.is_ascii_alphanumeric() || prev == '_' || prev == ')' || prev == ']' {
            return true;
        }
    }
    false
}

/// The variants of `pub enum <name>` in `text`, by brace matching.
fn enum_variants(text: &str, name: &str) -> Vec<String> {
    let Some(body) = region(text, &format!("pub enum {name}")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut depth = 0usize;
    for line in body.lines() {
        let t = line.trim();
        // Only depth-1 lines are variant declarations; deeper braces are
        // struct-variant fields.
        if depth == 1 {
            let ident: String = t
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() && ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                out.push(ident);
            }
        }
        depth += t.matches('{').count();
        depth = depth.saturating_sub(t.matches('}').count());
    }
    out
}

/// The brace-matched region starting at the first occurrence of
/// `opener` (e.g. a fn or enum header) — header included.
fn region(text: &str, opener: &str) -> Option<String> {
    let start = text.find(opener)?;
    let brace = start + text[start..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in text[brace..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(text[start..brace + i + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Pass 4: every wire enum variant is covered by encode, decode, and
/// (for requests) the server dispatch.
pub fn check_enum_coverage(root: &Path) -> Vec<Violation> {
    let wire_rel = "crates/service/src/wire.rs";
    let server_rel = "crates/service/src/server.rs";
    let Ok(wire) = std::fs::read_to_string(root.join(wire_rel)) else {
        return Vec::new();
    };
    let server = std::fs::read_to_string(root.join(server_rel)).unwrap_or_default();

    let mut out = Vec::new();
    let mut require =
        |variants: &[String], enum_name: &str, fn_name: &str, text: &Option<String>, file: &str| {
            // Coverage means the *code* names the variant — a comment
            // mentioning it (docs, TODOs) is not coverage.
            let body_code = text
                .as_ref()
                .map(|b| b.lines().map(code_of).collect::<Vec<_>>().join("\n"));
            let Some(body) = &body_code else {
                out.push(Violation {
                    file: file.to_string(),
                    line: 0,
                    message: format!(
                        "expected `fn {fn_name}` (coverage target for {enum_name}) not found"
                    ),
                });
                return;
            };
            for v in variants {
                if !body.contains(&format!("{enum_name}::{v}")) {
                    out.push(Violation {
                        file: file.to_string(),
                        line: 0,
                        message: format!("{enum_name}::{v} is not covered in `fn {fn_name}`"),
                    });
                }
            }
        };

    let requests = enum_variants(&wire, "Request");
    let responses = enum_variants(&wire, "Response");
    if requests.is_empty() || responses.is_empty() {
        return vec![Violation {
            file: wire_rel.to_string(),
            line: 0,
            message: "could not parse the Request/Response enums".into(),
        }];
    }
    require(
        &requests,
        "Request",
        "encode_request",
        &region(&wire, "pub fn encode_request"),
        wire_rel,
    );
    require(
        &requests,
        "Request",
        "decode_request",
        &region(&wire, "pub fn decode_request"),
        wire_rel,
    );
    require(
        &requests,
        "Request",
        "handle_request",
        &region(&server, "pub fn handle_request"),
        server_rel,
    );
    require(
        &responses,
        "Response",
        "encode_response",
        &region(&wire, "pub fn encode_response"),
        wire_rel,
    );
    require(
        &responses,
        "Response",
        "decode_response",
        &region(&wire, "pub fn decode_response"),
        wire_rel,
    );
    out
}

/// The generated per-site orderings table (GitHub markdown).
pub fn orderings_table(root: &Path) -> String {
    let mut rows = String::from("| Site | Orderings | Why this is enough |\n|---|---|---|\n");
    for s in ordering_sites(root) {
        let why = s
            .justification
            .unwrap_or_else(|| "**UNJUSTIFIED** (cargo xtask lint fails)".into());
        rows.push_str(&format!(
            "| `{}:{}` | {} | {} |\n",
            s.file,
            s.line,
            s.orderings.join(", "),
            why
        ));
    }
    rows
}

const TABLE_BEGIN: &str = "<!-- orderings:begin -->";
const TABLE_END: &str = "<!-- orderings:end -->";

/// Pass 5: README's orderings table matches the tree.
pub fn check_readme_orderings(root: &Path) -> Vec<Violation> {
    let readme = root.join("README.md");
    let Ok(text) = std::fs::read_to_string(&readme) else {
        return vec![Violation {
            file: "README.md".into(),
            line: 0,
            message: "README.md not found".into(),
        }];
    };
    let (Some(b), Some(e)) = (text.find(TABLE_BEGIN), text.find(TABLE_END)) else {
        return vec![Violation {
            file: "README.md".into(),
            line: 0,
            message: format!("missing {TABLE_BEGIN} / {TABLE_END} markers"),
        }];
    };
    let current = text[b + TABLE_BEGIN.len()..e].trim();
    if current != orderings_table(root).trim() {
        return vec![Violation {
            file: "README.md".into(),
            line: 0,
            message: "orderings table is stale — run `cargo xtask lint --write-orderings`".into(),
        }];
    }
    Vec::new()
}

/// Rewrite README's orderings table in place.
pub fn write_readme_orderings(root: &Path) -> std::io::Result<()> {
    let readme = root.join("README.md");
    let text = std::fs::read_to_string(&readme)?;
    let (Some(b), Some(e)) = (text.find(TABLE_BEGIN), text.find(TABLE_END)) else {
        return Err(std::io::Error::other(format!(
            "README.md is missing the {TABLE_BEGIN} / {TABLE_END} markers"
        )));
    };
    let new = format!(
        "{}{}\n{}\n{}{}",
        &text[..b],
        TABLE_BEGIN,
        orderings_table(root).trim(),
        TABLE_END,
        &text[e + TABLE_END.len()..]
    );
    std::fs::write(&readme, new)
}

/// Run every pass; the full violation list, stably ordered.
pub fn lint_all(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    out.extend(check_ordering_justified(root));
    out.extend(check_std_sync_ban(root));
    out.extend(check_panic_free_zone(root));
    out.extend(check_enum_coverage(root));
    out.extend(check_readme_orderings(root));
    out
}

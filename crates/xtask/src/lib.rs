//! Repo tooling (the `cargo xtask` pattern): a dependency-free
//! public-API surface check, a workspace-wide static invariant audit
//! (see [`audit`]) and a check that the compute kernels still compile to
//! vector instructions (see [`asm`]).
//!
//! `cargo-public-api` is not available offline, so this crate derives a
//! poor man's item list instead: every `pub` item signature found in a
//! crate's `src/` tree, in file order, written to a committed snapshot
//! under `crates/xtask/api/<crate>.txt`. A test diffs the snapshot on
//! every `cargo test`, so public-API changes to `condor-nn` and
//! `condor-core` (the two crates downstream users build against) are
//! reviewed deliberately rather than slipping into a PR unnoticed.
//!
//! When a surface change is intentional, regenerate the snapshots with
//! either of:
//!
//! ```text
//! cargo run -p xtask
//! XTASK_BLESS=1 cargo test -p xtask
//! ```
//!
//! The extractor is syntactic on purpose. It lists `pub ...` items only
//! (not `pub(crate)`/`pub(super)`, which are not part of the external
//! surface), joins signatures that span multiple lines, and records the
//! file each item lives in. Items inside private modules are listed
//! too — that is conservative: a diff fires on any candidate surface
//! change and the reviewer decides.

pub mod asm;
pub mod audit;
pub mod lexer;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose public surface is under snapshot review, as
/// `(snapshot name, src dir relative to the repo root)`.
pub const TRACKED: &[(&str, &str)] = &[
    ("condor-nn", "crates/nn/src"),
    ("condor", "crates/core/src"),
    ("condor-serve", "crates/serve/src"),
    ("condor-check", "crates/check/src"),
    ("condor-faults", "crates/faults/src"),
    ("condor-kernels", "crates/kernels/src"),
    ("condor-queue", "crates/queue/src"),
];

/// Repo root, derived from this crate's own manifest location.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("xtask sits two levels under the repo root")
}

/// Path of the committed snapshot for one tracked crate.
pub fn snapshot_path(name: &str) -> PathBuf {
    repo_root()
        .join("crates/xtask/api")
        .join(format!("{name}.txt"))
}

/// Extracts the public surface of the crate whose sources live under
/// `src_dir` as one line per item:
/// `<file relative to src_dir>: <signature>`.
pub fn surface(src_dir: &Path) -> String {
    let mut files = Vec::new();
    collect_rs_files(src_dir, &mut files);
    files.sort();

    let mut out = String::new();
    for file in &files {
        let rel = file
            .strip_prefix(src_dir)
            .expect("collected under root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(file).expect("source file is readable UTF-8");
        for sig in extract_items(&text) {
            let _ = writeln!(out, "{rel}: {sig}");
        }
    }
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Item-introducing keywords that may follow `pub` (after qualifiers).
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "use", "mod", "union",
];

/// Qualifiers allowed between `pub` and the item keyword.
const QUALIFIERS: &[&str] = &["unsafe", "const", "async", "default", "extern"];

/// Returns the signatures of all `pub` items in one source file, in
/// order of appearance. A signature runs from `pub` to the first body
/// brace or terminating semicolon, whitespace-collapsed.
fn extract_items(text: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let trimmed = line.trim_start();
        let Some(keyword) = pub_item_keyword(trimmed) else {
            continue;
        };
        // Accumulate until the signature closes: `use` items end at
        // `;` (their `{...}` groups are part of the path); everything
        // else ends at the first `{` or `;`.
        let mut sig = trimmed.to_string();
        let closes = |s: &str| {
            if keyword == "use" {
                s.contains(';')
            } else {
                s.contains('{') || s.contains(';')
            }
        };
        while !closes(&sig) {
            match lines.next() {
                Some(next) => {
                    sig.push(' ');
                    sig.push_str(next.trim());
                }
                None => break,
            }
        }
        let end = if keyword == "use" {
            sig.find(';')
        } else {
            sig.find(['{', ';'])
        };
        if let Some(end) = end {
            sig.truncate(end);
        }
        items.push(sig.split_whitespace().collect::<Vec<_>>().join(" "));
    }
    items
}

/// If `line` starts a public item (`pub fn ...`, `pub struct ...`, …),
/// returns the item keyword. Restricted visibilities (`pub(crate)`,
/// `pub(super)`, …) are not part of the external surface and return
/// `None`.
fn pub_item_keyword(line: &str) -> Option<&'static str> {
    let rest = line.strip_prefix("pub ")?;
    let mut words = rest.split_whitespace().peekable();
    while let Some(&w) = words.peek() {
        // `extern "C" fn` carries the ABI string after the qualifier.
        // `const` doubles as an item keyword (`pub const X: u32`): it
        // only qualifies when a `fn` (possibly behind more qualifiers)
        // follows.
        let is_qualifier = (QUALIFIERS.contains(&w) || w.starts_with('"'))
            && (w != "const"
                || rest
                    .split_whitespace()
                    .any(|t| t == "fn" || t.starts_with("fn(")));
        if is_qualifier {
            words.next();
        } else {
            break;
        }
    }
    let first = words.next()?;
    // `pub fn` vs `pub fn_table:` — compare the identifier exactly,
    // allowing `fn(` / `mod;` style immediate punctuation.
    let ident: String = first
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    ITEM_KEYWORDS
        .iter()
        .find(|&&k| k == ident)
        .copied()
        .filter(|&k| {
            // Reject `pub use` only when it is actually the keyword:
            // e.g. `pub fnord` was filtered by the ident comparison.
            !k.is_empty()
        })
}

/// The committed compatibility snapshot of condor-check's diagnostic
/// catalogue, one `C0xx severity summary` line per code. The audit's
/// `X023`/`X024` rules diff against it, so removing or renumbering a
/// code — or silently changing its meaning — fails the build until the
/// snapshot is deliberately regenerated and committed.
pub fn diag_code_snapshot() -> String {
    condor_check::Code::ALL
        .iter()
        .map(|c| format!("{} {} {}\n", c.as_str(), c.severity().label(), c.summary()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders a human-oriented diff between the committed snapshot and the
    /// freshly extracted surface.
    fn render_diff(name: &str, committed: &str, current: &str) -> String {
        let old: Vec<&str> = committed.lines().collect();
        let new: Vec<&str> = current.lines().collect();
        let mut out = format!("public API surface of `{name}` changed:\n");
        for line in &new {
            if !old.contains(line) {
                let _ = writeln!(out, "  + {line}");
            }
        }
        for line in &old {
            if !new.contains(line) {
                let _ = writeln!(out, "  - {line}");
            }
        }
        out.push_str(
            "if the change is intentional, regenerate the snapshot with \
             `cargo run -p xtask` (or `XTASK_BLESS=1 cargo test -p xtask`) \
             and commit the updated crates/xtask/api/*.txt",
        );
        out
    }

    #[test]
    fn extractor_finds_public_items_and_skips_restricted_ones() {
        let src = "\
pub struct Foo {
    pub field: u32,
}
pub(crate) struct Hidden;
impl Foo {
    pub fn new(
        field: u32,
    ) -> Self {
        Foo { field }
    }
    fn private(&self) {}
}
pub use std::collections::{
    HashMap,
    HashSet,
};
pub const LIMIT: usize = 4;
";
        let items = extract_items(src);
        assert_eq!(
            items,
            vec![
                "pub struct Foo",
                "pub fn new( field: u32, ) -> Self",
                "pub use std::collections::{ HashMap, HashSet, }",
                "pub const LIMIT: usize = 4",
            ]
        );
    }

    #[test]
    fn extractor_handles_qualified_fns() {
        let items = extract_items("pub const fn id(x: u32) -> u32 { x }\npub unsafe fn raw() {}\n");
        assert_eq!(
            items,
            vec!["pub const fn id(x: u32) -> u32", "pub unsafe fn raw()"]
        );
    }

    /// The tier-1 gate: the committed snapshots must match the live
    /// surface of every tracked crate.
    #[test]
    fn public_api_surface_matches_committed_snapshots() {
        for (name, src_dir) in TRACKED {
            let current = surface(&repo_root().join(src_dir));
            let path = snapshot_path(name);
            if std::env::var_os("XTASK_BLESS").is_some() {
                fs::write(&path, &current).expect("snapshot dir is writable");
                continue;
            }
            let committed = fs::read_to_string(&path).unwrap_or_default();
            assert!(
                committed == current,
                "{}",
                render_diff(name, &committed, &current)
            );
        }
    }

    /// The committed diagnostic-code snapshot must match the live
    /// catalogue (blessable the same way as the API snapshots; the
    /// audit's X023/X024 rules enforce the same invariant from the
    /// other direction).
    #[test]
    fn diag_code_snapshot_matches_committed() {
        let current = diag_code_snapshot();
        let path = snapshot_path("diag-codes");
        if std::env::var_os("XTASK_BLESS").is_some() {
            fs::write(&path, &current).expect("snapshot dir is writable");
            return;
        }
        let committed = fs::read_to_string(&path).unwrap_or_default();
        assert!(
            committed == current,
            "{}",
            render_diff("diag-codes", &committed, &current)
        );
    }
}

//! `xtask audit`: workspace-wide static invariant checking.
//!
//! The framework's reliability contracts live in three registries and
//! one attribute convention, all of which used to exist only as
//! scattered string literals:
//!
//! * **fault sites** — every site a [`condor_faults::FaultHandle`] is
//!   consulted at must be registered in [`condor_faults::SITES`], and
//!   every registered site must actually be exercised; every
//!   `FaultRule::at(..)` prefix must be able to match a registered site
//!   (rules `X001`–`X003`);
//! * **metric names** — every name recorded into or asserted against a
//!   `MetricsRegistry`/`MetricsSnapshot` must come from
//!   [`condor::METRICS`], with the right instrument kind, and every
//!   registered metric must be used (`X010`–`X012`), and the request
//!   ledger has one writer (`X013`);
//! * **diagnostic codes** — condor-check's `C0xx` codes must be unique,
//!   documented in DESIGN.md with matching severities, and never
//!   removed or renumbered against the committed
//!   `crates/xtask/api/diag-codes.txt` snapshot (`X020`–`X025`);
//! * **deprecation expiry** — `#[deprecated(since = "…")]` shims are
//!   kept for one release: the audit fails once the workspace version
//!   moves past `since`, and rejects future-dated or unparseable
//!   `since` versions (`X030`–`X032`).
//!
//! One more rule reuses the same token scan: a `pub fn` of a crate under
//! API-snapshot review whose name the tree mentions nowhere but in its
//! own declaration is surface nobody calls (`X040`).
//!
//! Violations render as stable `X0xx` diagnostics (text and JSON),
//! mirroring condor-check's `C0xx` reporting idiom. The audit runs as a
//! unit test (so `cargo test -q` gates it), as `cargo run -p xtask
//! audit` locally and in CI, and is configured through [`AuditConfig`]
//! so its own test fixtures can seed violations.

use crate::lexer::{lex, Spanned, Tok};
use condor::MetricKind;
use condor_cjson::Value;
use condor_faults::sites::{template_matches, template_prefix_matches};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Stable audit diagnostic codes.
///
/// Grouped by rule family: `X00x` fault sites, `X01x` metric names,
/// `X02x` diagnostic-code hygiene, `X03x` deprecation expiry, `X04x`
/// dead public surface. Like the
/// `C0xx` codes these are never renumbered or repurposed; new rules get
/// new codes (catalogued in DESIGN.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AuditCode {
    /// A fault-site literal matches no entry in `condor_faults::SITES`.
    X001,
    /// A registered fault site is never exercised by any scanned code.
    X002,
    /// A `FaultRule::at` prefix can never match a registered site.
    X003,
    /// A metric-name literal matches no entry in `condor::METRICS`.
    X010,
    /// A registered metric name is never used by any scanned code.
    X011,
    /// A metric name is used with the wrong instrument kind.
    X012,
    /// A request-ledger counter is written outside its one owner.
    X013,
    /// Two diagnostic codes share a code string.
    X020,
    /// A diagnostic code is missing from DESIGN.md's catalogue.
    X021,
    /// DESIGN.md catalogues a code that no longer exists.
    X022,
    /// A code present in the committed snapshot was removed or renumbered.
    X023,
    /// The committed code snapshot is out of date (regenerate it).
    X024,
    /// DESIGN.md's documented severity disagrees with the code's.
    X025,
    /// `#[deprecated]` without a parseable `since` version.
    X030,
    /// A deprecation dated `since` a version that has not shipped.
    X031,
    /// An expired deprecation shim: the one-release grace period passed.
    X032,
    /// A snapshotted `pub fn` that nothing in the tree ever names.
    X040,
}

impl AuditCode {
    /// Every defined code, in numeric order.
    pub const ALL: &'static [AuditCode] = &[
        AuditCode::X001,
        AuditCode::X002,
        AuditCode::X003,
        AuditCode::X010,
        AuditCode::X011,
        AuditCode::X012,
        AuditCode::X013,
        AuditCode::X020,
        AuditCode::X021,
        AuditCode::X022,
        AuditCode::X023,
        AuditCode::X024,
        AuditCode::X025,
        AuditCode::X030,
        AuditCode::X031,
        AuditCode::X032,
        AuditCode::X040,
    ];

    /// The stable code string (`"X001"`).
    pub fn as_str(self) -> &'static str {
        match self {
            AuditCode::X001 => "X001",
            AuditCode::X002 => "X002",
            AuditCode::X003 => "X003",
            AuditCode::X010 => "X010",
            AuditCode::X011 => "X011",
            AuditCode::X012 => "X012",
            AuditCode::X013 => "X013",
            AuditCode::X020 => "X020",
            AuditCode::X021 => "X021",
            AuditCode::X022 => "X022",
            AuditCode::X023 => "X023",
            AuditCode::X024 => "X024",
            AuditCode::X025 => "X025",
            AuditCode::X030 => "X030",
            AuditCode::X031 => "X031",
            AuditCode::X032 => "X032",
            AuditCode::X040 => "X040",
        }
    }

    /// One-line meaning, used by the documentation table.
    pub fn summary(self) -> &'static str {
        match self {
            AuditCode::X001 => "fault site not registered in condor_faults::SITES",
            AuditCode::X002 => "registered fault site never exercised",
            AuditCode::X003 => "fault-rule prefix matches no registered site",
            AuditCode::X010 => "metric name not registered in condor::METRICS",
            AuditCode::X011 => "registered metric never used",
            AuditCode::X012 => "metric used with the wrong instrument kind",
            AuditCode::X013 => "ledger counter written outside the intake",
            AuditCode::X020 => "duplicate diagnostic code",
            AuditCode::X021 => "diagnostic code missing from DESIGN.md catalogue",
            AuditCode::X022 => "DESIGN.md documents an undefined diagnostic code",
            AuditCode::X023 => "diagnostic code removed or renumbered",
            AuditCode::X024 => "diagnostic-code snapshot out of date",
            AuditCode::X025 => "DESIGN.md severity disagrees with the code",
            AuditCode::X030 => "deprecation without a parseable `since` version",
            AuditCode::X031 => "future-dated deprecation",
            AuditCode::X032 => "expired deprecation shim",
            AuditCode::X040 => "public function never named outside its declaration",
        }
    }

    /// The severity this code reports at. `X025` is a warning (the doc
    /// row is wrong, not the code); everything else blocks.
    pub fn severity(self) -> &'static str {
        match self {
            AuditCode::X025 => "warning",
            _ => "error",
        }
    }
}

/// One audit finding, rendering in condor-check's diagnostic idiom.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Stable code.
    pub code: AuditCode,
    /// Human-readable description.
    pub message: String,
    /// Offending file, repo-relative, when the finding has one.
    pub file: Option<String>,
    /// 1-based line in `file` (0 when not applicable).
    pub line: u32,
    /// Suggested fix.
    pub hint: Option<String>,
}

impl Finding {
    fn new(code: AuditCode, message: impl Into<String>) -> Self {
        Finding {
            code,
            message: message.into(),
            file: None,
            line: 0,
            hint: None,
        }
    }

    fn at(mut self, file: impl Into<String>, line: u32) -> Self {
        self.file = Some(file.into());
        self.line = line;
        self
    }

    fn hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// Renders the finding as one (or two, with a hint) lines.
    pub fn render(&self) -> String {
        let site = match &self.file {
            Some(f) if self.line > 0 => format!(" [{f}:{}]", self.line),
            Some(f) => format!(" [{f}]"),
            None => String::new(),
        };
        let mut out = format!(
            "{} {}{site}: {}",
            self.code.severity(),
            self.code.as_str(),
            self.message
        );
        if let Some(h) = &self.hint {
            let _ = write!(out, "\n    hint: {h}");
        }
        out
    }

    /// JSON form of the finding.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("code".to_string(), Value::str(self.code.as_str())),
            ("severity".to_string(), Value::str(self.code.severity())),
            ("message".to_string(), Value::str(self.message.clone())),
        ];
        if let Some(f) = &self.file {
            pairs.push(("file".to_string(), Value::str(f.clone())));
            pairs.push(("line".to_string(), Value::int(self.line as i64)));
        }
        if let Some(h) = &self.hint {
            pairs.push(("hint".to_string(), Value::str(h.clone())));
        }
        Value::object(pairs)
    }
}

/// The result of one audit run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Every finding, grouped by rule family in rule order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.code.severity() == "error")
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.findings.len() - self.error_count()
    }

    /// Human-readable rendering: one finding per line plus a summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "  {}", f.render());
        }
        if self.is_clean() {
            out.push_str("xtask audit: clean (0 findings)");
        } else {
            let _ = write!(
                out,
                "xtask audit: {} findings ({} errors, {} warnings)",
                self.findings.len(),
                self.error_count(),
                self.warning_count()
            );
        }
        out
    }

    /// The report as a `condor-audit/1` JSON document.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("schema".to_string(), Value::str("condor-audit/1")),
            ("errors".to_string(), Value::int(self.error_count() as i64)),
            (
                "warnings".to_string(),
                Value::int(self.warning_count() as i64),
            ),
            (
                "findings".to_string(),
                Value::Array(self.findings.iter().map(Finding::to_json).collect()),
            ),
        ])
    }

    /// Serialised JSON report.
    pub fn to_json_string(&self) -> String {
        condor_cjson::to_string(&self.to_json())
    }
}

/// One catalogued diagnostic code (a `C0xx` from condor-check or an
/// `X0xx` from this module), as the audit compares it against DESIGN.md
/// and the committed snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodeSpec {
    /// The stable code string.
    pub code: String,
    /// Severity label (`"error"`, `"warning"`, `"note"`).
    pub severity: String,
    /// One-line meaning.
    pub summary: String,
}

/// Everything one audit run needs, injectable so the fixture tests can
/// seed violations without touching the real tree.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Directory scanned recursively for `.rs` files.
    pub root: PathBuf,
    /// Path prefixes (relative to `root`, `/`-separated) skipped
    /// entirely.
    pub skip: Vec<String>,
    /// Prefixes exempt from the fault-site rules (the faults crate
    /// itself: its unit tests exercise toy sites by design).
    pub site_exempt: Vec<String>,
    /// Prefixes exempt from the metric rules (the metrics module
    /// itself: its unit tests exercise toy names by design).
    pub metric_exempt: Vec<String>,
    /// The fault-site registry (templates; `{}` = digits).
    pub sites: Vec<String>,
    /// The metric-name registry with instrument kinds.
    pub metrics: Vec<(String, MetricKind)>,
    /// Prefixes allowed to `incr` a [`LEDGER`] counter.
    pub ledger_writers: Vec<String>,
    /// condor-check's diagnostic catalogue.
    pub diag_codes: Vec<CodeSpec>,
    /// This module's own catalogue (audited against DESIGN.md too).
    pub audit_codes: Vec<CodeSpec>,
    /// DESIGN.md contents.
    pub design: String,
    /// Committed `diag-codes.txt` snapshot contents.
    pub snapshot: String,
    /// The workspace version `#[deprecated(since)]` is judged against.
    pub version: (u64, u64, u64),
    /// Public-API surfaces checked for dead functions, as `(src dir
    /// relative to root, surface text in [`crate::surface`]'s form)`.
    pub api: Vec<(String, String)>,
}

impl AuditConfig {
    /// The real-tree configuration: registries from the workspace
    /// crates, documents from the repo root.
    pub fn repo() -> AuditConfig {
        let root = crate::repo_root();
        let design = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
        let snapshot =
            fs::read_to_string(root.join("crates/xtask/api/diag-codes.txt")).unwrap_or_default();
        let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
        let version = workspace_version(&manifest)
            .expect("workspace Cargo.toml declares [workspace.package] version");
        AuditConfig {
            root,
            skip: vec![
                "target".into(),
                ".git".into(),
                "shims".into(),
                // xtask's own sources and fixtures contain deliberately
                // broken literals (this module's tests).
                "crates/xtask".into(),
            ],
            site_exempt: vec!["crates/faults".into()],
            metric_exempt: vec!["crates/core/src/metrics.rs".into()],
            sites: condor_faults::SITES
                .iter()
                .map(|s| s.name.to_string())
                .collect(),
            metrics: condor::METRICS
                .iter()
                .map(|m| (m.name.to_string(), m.kind))
                .collect(),
            ledger_writers: vec![
                "crates/serve/src/intake.rs".into(),
                // Times `incr` on a registry of its own under a
                // production name; the benchmark's files are frozen.
                "crates/bench/src/bin/perf/src/sut.rs".into(),
            ],
            diag_codes: condor_check::Code::ALL
                .iter()
                .map(|c| CodeSpec {
                    code: c.as_str().to_string(),
                    severity: c.severity().label().to_string(),
                    summary: c.summary().to_string(),
                })
                .collect(),
            audit_codes: AuditCode::ALL
                .iter()
                .map(|c| CodeSpec {
                    code: c.as_str().to_string(),
                    severity: c.severity().to_string(),
                    summary: c.summary().to_string(),
                })
                .collect(),
            design,
            snapshot,
            version,
            api: crate::TRACKED
                .iter()
                .map(|(_, dir)| (dir.to_string(), crate::surface(dir)))
                .collect(),
        }
    }
}

/// Extracts `version = "x.y.z"` from a workspace manifest's
/// `[workspace.package]` section.
pub fn workspace_version(manifest: &str) -> Option<(u64, u64, u64)> {
    let mut in_section = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = line == "[workspace.package]";
            continue;
        }
        if in_section {
            if let Some(rest) = line.strip_prefix("version") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let v = rest.trim().trim_matches('"');
                    return parse_semver(v);
                }
            }
        }
    }
    None
}

/// Parses `"major.minor.patch"`; pre-release/build suffixes are
/// rejected (the workspace does not use them).
pub fn parse_semver(s: &str) -> Option<(u64, u64, u64)> {
    let mut parts = s.split('.');
    let major = parts.next()?.parse().ok()?;
    let minor = parts.next()?.parse().ok()?;
    let patch = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((major, minor, patch))
}

/// The counters of the serving ledger identity, `requests_accepted ==
/// requests_completed + requests_failed + requests_timed_out +
/// requests_shed`, that `condor-serve`'s intake derives from the result
/// it delivers; a second writer double-counts.
const LEDGER: [&str; 4] = [
    "requests_accepted",
    "requests_completed",
    "requests_failed",
    "requests_timed_out",
];

/// One string literal captured in an audited call context.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LitUse {
    name: String,
    file: String,
    line: u32,
}

/// One `#[deprecated]` attribute found in the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Deprecation {
    file: String,
    line: u32,
    since: Option<String>,
}

/// Everything the token scan extracts from the tree.
#[derive(Clone, Debug, Default)]
struct Scan {
    site_uses: Vec<LitUse>,
    site_prefixes: Vec<LitUse>,
    metric_uses: Vec<(LitUse, MetricKind)>,
    /// `.incr("<LEDGER name>", …)` calls.
    ledger_writes: Vec<LitUse>,
    deprecations: Vec<Deprecation>,
    /// Every identifier the tree mentions other than as the name a
    /// `fn` item declares (comments and doc-tests are not mentions).
    mentioned: BTreeSet<String>,
}

/// Runs the full audit under `cfg`.
pub fn run(cfg: &AuditConfig) -> Report {
    let scan = scan_tree(cfg);
    let mut findings = Vec::new();
    audit_sites(cfg, &scan, &mut findings);
    audit_metrics(cfg, &scan, &mut findings);
    audit_diag_codes(cfg, &mut findings);
    audit_deprecations(cfg, &scan, &mut findings);
    audit_dead_items(cfg, &scan, &mut findings);
    Report { findings }
}

fn scan_tree(cfg: &AuditConfig) -> Scan {
    let mut files = Vec::new();
    collect_rs(&cfg.root, &cfg.root, &cfg.skip, &mut files);
    files.sort();
    let mut scan = Scan::default();
    for rel in &files {
        let text = match fs::read_to_string(cfg.root.join(rel)) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let toks = lex(&text);
        let sites_on = !has_prefix(rel, &cfg.site_exempt);
        let metrics_on = !has_prefix(rel, &cfg.metric_exempt);
        scan_file(rel, &toks, sites_on, metrics_on, &mut scan);
        for pair in toks.windows(2) {
            if let (before, Tok::Ident(name)) = (&pair[0].tok, &pair[1].tok) {
                if !matches!(before, Tok::Ident(keyword) if keyword == "fn") {
                    scan.mentioned.insert(name.clone());
                }
            }
        }
    }
    scan
}

fn has_prefix(rel: &str, prefixes: &[String]) -> bool {
    prefixes
        .iter()
        .any(|p| rel == p || rel.starts_with(&format!("{p}/")))
}

fn collect_rs(root: &Path, dir: &Path, skip: &[String], out: &mut Vec<String>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .unwrap_or_default();
        if has_prefix(&rel, skip) {
            continue;
        }
        if path.is_dir() {
            collect_rs(root, &path, skip, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
}

/// Call contexts whose first string-literal argument the audit claims.
fn context_of(toks: &[Spanned], i: usize) -> Option<Ctx> {
    let Tok::Ident(name) = &toks[i].tok else {
        return None;
    };
    if toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('(')) {
        return None;
    }
    let prev = i.checked_sub(1).map(|p| &toks[p].tok);
    let dotted = prev == Some(&Tok::Punct('.'));
    match name.as_str() {
        "gate" | "timing" | "check" if dotted => Some(Ctx::SiteUse),
        "incr" | "counter" if dotted => Some(Ctx::Metric(MetricKind::Counter)),
        "set_gauge" | "gauge" if dotted => Some(Ctx::Metric(MetricKind::Gauge)),
        "observe" | "observe_duration" | "histogram" if dotted => {
            Some(Ctx::Metric(MetricKind::Histogram))
        }
        // `FaultRule::at(...)` — require the path so `Diagnostic::at`
        // style builder methods stay out of the fault-site domain.
        "at" => {
            let path = i >= 3
                && toks[i - 1].tok == Tok::Punct(':')
                && toks[i - 2].tok == Tok::Punct(':')
                && toks[i - 3].tok == Tok::Ident("FaultRule".to_string());
            path.then_some(Ctx::SitePrefix)
        }
        _ => None,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ctx {
    SiteUse,
    SitePrefix,
    Metric(MetricKind),
}

/// First string literal inside the call's parenthesised argument list
/// (looking through `&` and `format!(...)`), or `None` for a fully
/// dynamic argument.
fn first_literal_in_call(toks: &[Spanned], open: usize) -> Option<(String, u32)> {
    let mut depth = 0usize;
    for t in &toks[open..] {
        match &t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            Tok::Str(s) => return Some((s.clone(), t.line)),
            _ => {}
        }
    }
    None
}

fn scan_file(rel: &str, toks: &[Spanned], sites_on: bool, metrics_on: bool, scan: &mut Scan) {
    for i in 0..toks.len() {
        // `#[deprecated ...]` — attribute, not a call context.
        if toks[i].tok == Tok::Ident("deprecated".to_string())
            && i >= 2
            && toks[i - 1].tok == Tok::Punct('[')
            && toks[i - 2].tok == Tok::Punct('#')
        {
            scan.deprecations
                .push(parse_deprecated(rel, toks, i, toks[i].line));
            continue;
        }
        let Some(ctx) = context_of(toks, i) else {
            continue;
        };
        let Some((name, line)) = first_literal_in_call(toks, i + 1) else {
            continue;
        };
        let hit = LitUse {
            name,
            file: rel.to_string(),
            line,
        };
        match ctx {
            Ctx::SiteUse if sites_on => scan.site_uses.push(hit),
            Ctx::SitePrefix if sites_on => scan.site_prefixes.push(hit),
            Ctx::Metric(kind) if metrics_on => {
                if toks[i].tok == Tok::Ident("incr".to_string())
                    && LEDGER.contains(&hit.name.as_str())
                {
                    scan.ledger_writes.push(hit.clone());
                }
                scan.metric_uses.push((hit, kind));
            }
            _ => {}
        }
    }
}

/// Parses the argument list of a `#[deprecated(...)]` attribute whose
/// `deprecated` ident sits at `i`, extracting `since`.
fn parse_deprecated(rel: &str, toks: &[Spanned], i: usize, line: u32) -> Deprecation {
    let mut since = None;
    if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('(')) {
        let mut depth = 0usize;
        let mut j = i + 1;
        while let Some(t) = toks.get(j) {
            match &t.tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(k)
                    if k == "since"
                        && toks.get(j + 1).map(|t| &t.tok) == Some(&Tok::Punct('=')) =>
                {
                    if let Some(Tok::Str(v)) = toks.get(j + 2).map(|t| &t.tok) {
                        since = Some(v.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    Deprecation {
        file: rel.to_string(),
        line,
        since,
    }
}

fn audit_sites(cfg: &AuditConfig, scan: &Scan, out: &mut Vec<Finding>) {
    for u in &scan.site_uses {
        if !cfg.sites.iter().any(|s| template_matches(&u.name, s)) {
            out.push(
                Finding::new(
                    AuditCode::X001,
                    format!(
                        "fault site \"{}\" matches no entry in condor_faults::SITES",
                        u.name
                    ),
                )
                .at(&u.file, u.line)
                .hint("register the site in crates/faults/src/sites.rs or fix the spelling"),
            );
        }
    }
    for p in &scan.site_prefixes {
        if !cfg
            .sites
            .iter()
            .any(|s| template_prefix_matches(&p.name, s))
        {
            out.push(
                Finding::new(
                    AuditCode::X003,
                    format!(
                        "fault-rule prefix \"{}\" can never match a registered site — the rule \
                         would silently never fire",
                        p.name
                    ),
                )
                .at(&p.file, p.line)
                .hint("use a prefix of a site registered in condor_faults::SITES"),
            );
        }
    }
    for s in &cfg.sites {
        let used = scan.site_uses.iter().any(|u| template_matches(&u.name, s))
            || scan
                .site_prefixes
                .iter()
                .any(|p| template_prefix_matches(&p.name, s));
        if !used {
            out.push(
                Finding::new(
                    AuditCode::X002,
                    format!("registered fault site \"{s}\" is never exercised"),
                )
                .at("crates/faults/src/sites.rs", 0)
                .hint("wire an injection site or drop the registry entry"),
            );
        }
    }
}

fn audit_metrics(cfg: &AuditConfig, scan: &Scan, out: &mut Vec<Finding>) {
    for (u, kind) in &scan.metric_uses {
        let matching: Vec<_> = cfg
            .metrics
            .iter()
            .filter(|(name, _)| template_matches(&u.name, name))
            .collect();
        if matching.is_empty() {
            out.push(
                Finding::new(
                    AuditCode::X010,
                    format!(
                        "metric name \"{}\" matches no entry in condor::METRICS — a typo here \
                         silently forks the metric",
                        u.name
                    ),
                )
                .at(&u.file, u.line)
                .hint("register the name in crates/core/src/metrics.rs or fix the spelling"),
            );
        } else if !matching.iter().any(|(_, k)| k == kind) {
            out.push(
                Finding::new(
                    AuditCode::X012,
                    format!(
                        "metric \"{}\" is registered as a {} but used here as a {}",
                        u.name,
                        matching.first().map(|(_, k)| k.label()).unwrap_or("metric"),
                        kind.label()
                    ),
                )
                .at(&u.file, u.line),
            );
        }
    }
    for u in &scan.ledger_writes {
        if !has_prefix(&u.file, &cfg.ledger_writers) {
            out.push(
                Finding::new(
                    AuditCode::X013,
                    format!(
                        "ledger counter \"{}\" is written outside the intake — its one \
                         writer derives it from the result a request resolves with",
                        u.name
                    ),
                )
                .at(&u.file, u.line)
                .hint("hand the request to intake::resolve instead of counting by hand"),
            );
        }
    }
    for (name, _) in &cfg.metrics {
        let used = scan
            .metric_uses
            .iter()
            .any(|(u, _)| template_matches(&u.name, name));
        if !used {
            out.push(
                Finding::new(
                    AuditCode::X011,
                    format!("registered metric \"{name}\" is never used"),
                )
                .at("crates/core/src/metrics.rs", 0)
                .hint("record the metric somewhere or drop the registry entry"),
            );
        }
    }
}

/// Rows of DESIGN.md's catalogue tables: `| C0xx | severity | … |`.
fn design_rows(design: &str) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for line in design.lines() {
        let mut cells = line.split('|').map(str::trim);
        // Leading '|' yields an empty first cell.
        let Some("") = cells.next() else { continue };
        let (Some(code), Some(severity)) = (cells.next(), cells.next()) else {
            continue;
        };
        let is_code = (code.starts_with('C') || code.starts_with('X'))
            && code.len() == 4
            && code[1..].chars().all(|c| c.is_ascii_digit());
        if is_code {
            rows.push((code.to_string(), severity.to_string()));
        }
    }
    rows
}

fn audit_diag_codes(cfg: &AuditConfig, out: &mut Vec<Finding>) {
    let all: Vec<&CodeSpec> = cfg.diag_codes.iter().chain(&cfg.audit_codes).collect();

    // X020: uniqueness across the combined C/X namespace.
    let mut seen: Vec<&str> = Vec::new();
    for spec in &all {
        if seen.contains(&spec.code.as_str()) {
            out.push(Finding::new(
                AuditCode::X020,
                format!("diagnostic code {} is defined more than once", spec.code),
            ));
        } else {
            seen.push(&spec.code);
        }
    }

    // X021/X022/X025 against DESIGN.md's tables.
    let rows = design_rows(&cfg.design);
    for spec in &all {
        match rows.iter().find(|(code, _)| *code == spec.code) {
            None => out.push(
                Finding::new(
                    AuditCode::X021,
                    format!(
                        "code {} ({}) is not in DESIGN.md's catalogue",
                        spec.code, spec.summary
                    ),
                )
                .at("DESIGN.md", 0)
                .hint("add a row to the diagnostic catalogue table"),
            ),
            Some((_, sev)) if *sev != spec.severity => out.push(
                Finding::new(
                    AuditCode::X025,
                    format!(
                        "DESIGN.md documents {} as \"{}\" but the code reports at \"{}\"",
                        spec.code, sev, spec.severity
                    ),
                )
                .at("DESIGN.md", 0),
            ),
            Some(_) => {}
        }
    }
    for (code, _) in &rows {
        if !all.iter().any(|spec| spec.code == *code) {
            out.push(
                Finding::new(
                    AuditCode::X022,
                    format!("DESIGN.md documents {code}, which no longer exists"),
                )
                .at("DESIGN.md", 0)
                .hint("codes are never renumbered; mark the row retired or restore the code"),
            );
        }
    }

    // X023/X024 against the committed snapshot (C codes only: the
    // snapshot is condor-check's compatibility surface).
    let snap: Vec<(String, String)> = cfg
        .snapshot
        .lines()
        .filter_map(|l| {
            let mut words = l.splitn(3, ' ');
            let code = words.next()?.to_string();
            let rest = words.collect::<Vec<_>>().join(" ");
            (!code.is_empty()).then_some((code, rest))
        })
        .collect();
    for (code, _) in &snap {
        if !cfg.diag_codes.iter().any(|spec| spec.code == *code) {
            out.push(
                Finding::new(
                    AuditCode::X023,
                    format!(
                        "code {code} is in the committed snapshot but gone from condor-check — \
                         codes must never be removed or renumbered"
                    ),
                )
                .at("crates/xtask/api/diag-codes.txt", 0),
            );
        }
    }
    for spec in &cfg.diag_codes {
        let expected = format!("{} {}", spec.severity, spec.summary);
        match snap.iter().find(|(code, _)| *code == spec.code) {
            Some((_, rest)) if *rest == expected => {}
            _ => out.push(
                Finding::new(
                    AuditCode::X024,
                    format!("snapshot entry for {} is missing or stale", spec.code),
                )
                .at("crates/xtask/api/diag-codes.txt", 0)
                .hint("regenerate with `cargo run -p xtask` and commit the result"),
            ),
        }
    }
}

fn audit_deprecations(cfg: &AuditConfig, scan: &Scan, out: &mut Vec<Finding>) {
    for d in &scan.deprecations {
        let Some(since) = d.since.as_ref().and_then(|s| parse_semver(s)) else {
            out.push(
                Finding::new(
                    AuditCode::X030,
                    match &d.since {
                        Some(raw) => format!("#[deprecated] has unparseable since = \"{raw}\""),
                        None => "#[deprecated] without a since version — expiry cannot be audited"
                            .to_string(),
                    },
                )
                .at(&d.file, d.line)
                .hint("use #[deprecated(since = \"x.y.z\", note = \"...\")]"),
            );
            continue;
        };
        if since > cfg.version {
            out.push(
                Finding::new(
                    AuditCode::X031,
                    format!(
                        "deprecated since {}.{}.{} but the workspace is at {}.{}.{} — that \
                         release has not shipped",
                        since.0, since.1, since.2, cfg.version.0, cfg.version.1, cfg.version.2
                    ),
                )
                .at(&d.file, d.line)
                .hint("date the deprecation at the current version"),
            );
        } else if since < cfg.version {
            out.push(
                Finding::new(
                    AuditCode::X032,
                    format!(
                        "shim deprecated since {}.{}.{} has outlived its one-release grace \
                         period (workspace is at {}.{}.{})",
                        since.0, since.1, since.2, cfg.version.0, cfg.version.1, cfg.version.2
                    ),
                )
                .at(&d.file, d.line)
                .hint("remove the shim, or re-date `since` with a justification comment"),
            );
        }
    }
}

/// The function a surface signature declares (`pub const fn id(x: u32)`
/// → `id`), or `None` for any other kind of item.
fn declared_fn(signature: &str) -> Option<&str> {
    let mut words = signature.strip_prefix("pub ")?.split_whitespace();
    let keyword = words.find(|w| !crate::QUALIFIERS.contains(w) && !w.starts_with('"'))?;
    let name = words.next().filter(|_| keyword == "fn")?;
    let end = name
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(name.len());
    Some(&name[..end])
}

fn audit_dead_items(cfg: &AuditConfig, scan: &Scan, out: &mut Vec<Finding>) {
    for (dir, surface) in &cfg.api {
        for line in surface.lines() {
            let Some((file, signature)) = line.split_once(": ") else {
                continue;
            };
            let Some(name) = declared_fn(signature) else {
                continue;
            };
            if !scan.mentioned.contains(name) {
                let defined_in = if dir.is_empty() {
                    file.to_string()
                } else {
                    format!("{dir}/{file}")
                };
                out.push(
                    Finding::new(
                        AuditCode::X040,
                        format!("`{signature}` is declared but named nowhere else in the tree"),
                    )
                    .at(defined_in, 0)
                    .hint("delete it: no crate, test, bench or example calls it"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn fixtures(case: &str) -> PathBuf {
        crate::repo_root().join("crates/xtask/fixtures").join(case)
    }

    /// A design document catloguing exactly `specs`.
    fn design_for(specs: &[&[CodeSpec]]) -> String {
        let mut out = String::from("| code | severity | meaning |\n|---|---|---|\n");
        for spec in specs.iter().copied().flatten() {
            let _ = writeln!(
                out,
                "| {} | {} | {} |",
                spec.code, spec.severity, spec.summary
            );
        }
        out
    }

    /// The snapshot matching `specs` exactly.
    fn snapshot_for(specs: &[CodeSpec]) -> String {
        specs
            .iter()
            .map(|s| format!("{} {} {}\n", s.code, s.severity, s.summary))
            .collect()
    }

    fn spec(code: &str, severity: &str, summary: &str) -> CodeSpec {
        CodeSpec {
            code: code.into(),
            severity: severity.into(),
            summary: summary.into(),
        }
    }

    /// A config over a fixture tree with a small registry; diag/doc
    /// inputs are self-consistent so only the scan rules fire.
    fn fixture_config(case: &str) -> AuditConfig {
        let diag_codes = vec![spec("C001", "error", "sample diagnostic")];
        let audit_codes = vec![spec("X001", "error", "sample audit rule")];
        let design = design_for(&[&diag_codes, &audit_codes]);
        let snapshot = snapshot_for(&diag_codes);
        AuditConfig {
            root: fixtures(case),
            skip: vec![],
            site_exempt: vec![],
            metric_exempt: vec![],
            sites: vec!["s3.put_object".into(), "dataflow.pe{}".into()],
            metrics: vec![
                ("requests_completed".into(), MetricKind::Counter),
                ("latency_us".into(), MetricKind::Histogram),
            ],
            ledger_writers: vec!["intake.rs".into()],
            diag_codes,
            audit_codes,
            design,
            snapshot,
            version: (0, 1, 0),
            api: vec![(
                String::new(),
                crate::surface(&format!("crates/xtask/fixtures/{case}")),
            )],
        }
    }

    fn codes(report: &Report) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn clean_fixture_reports_zero_findings() {
        let report = run(&fixture_config("clean"));
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.render().contains("clean (0 findings)"));
    }

    #[test]
    fn seeded_violations_each_fire_their_code() {
        let report = run(&fixture_config("violations"));
        let mut got = codes(&report);
        got.sort_unstable();
        assert_eq!(
            got,
            vec!["X001", "X003", "X010", "X012", "X013", "X030", "X031", "X032", "X040"],
            "{}",
            report.render()
        );
        // The typo'd site names the literal and its location.
        let typo = report
            .findings
            .iter()
            .find(|f| f.code == AuditCode::X001)
            .unwrap();
        assert!(typo.message.contains("s3.putobject"));
        assert!(typo.file.as_deref().unwrap().ends_with("bad.rs"));
        assert!(typo.line > 0);
        // Of the two public functions only the uncalled one is dead.
        let dead = report
            .findings
            .iter()
            .find(|f| f.code == AuditCode::X040)
            .unwrap();
        assert!(dead.message.contains("fn orphaned("), "{}", dead.message);
    }

    #[test]
    fn declared_fn_reads_only_function_signatures() {
        assert_eq!(
            declared_fn("pub fn new( field: u32, ) -> Self"),
            Some("new")
        );
        assert_eq!(declared_fn("pub const fn id<T>(x: T) -> T"), Some("id"));
        assert_eq!(declared_fn("pub extern \"C\" fn raw()"), Some("raw"));
        assert_eq!(declared_fn("pub struct Foo"), None);
        assert_eq!(declared_fn("pub const LIMIT: usize = 4"), None);
        assert_eq!(declared_fn("pub type Hook = fn (u32)"), None);
    }

    #[test]
    fn dead_registry_entries_are_flagged() {
        let mut cfg = fixture_config("clean");
        cfg.sites.push("ghost.site{}".into());
        cfg.metrics
            .push(("ghost_metric".into(), MetricKind::Counter));
        let report = run(&cfg);
        let mut got = codes(&report);
        got.sort_unstable();
        assert_eq!(got, vec!["X002", "X011"], "{}", report.render());
    }

    #[test]
    fn duplicate_code_is_flagged() {
        let mut cfg = fixture_config("clean");
        cfg.diag_codes.push(cfg.diag_codes[0].clone());
        // Keep the snapshot consistent so only X020 fires.
        cfg.snapshot = snapshot_for(&cfg.diag_codes);
        let report = run(&cfg);
        assert_eq!(codes(&report), vec!["X020"], "{}", report.render());
    }

    #[test]
    fn undocumented_and_stale_codes_are_flagged() {
        // A code absent from DESIGN.md.
        let mut cfg = fixture_config("clean");
        cfg.design = design_for(&[&cfg.audit_codes]);
        assert_eq!(codes(&run(&cfg)), vec!["X021"]);

        // DESIGN.md documents a code that does not exist.
        let mut cfg = fixture_config("clean");
        cfg.design.push_str("| C999 | error | ghost |\n");
        assert_eq!(codes(&run(&cfg)), vec!["X022"]);

        // A documented severity disagreeing with the code's.
        let mut cfg = fixture_config("clean");
        cfg.design = cfg.design.replace("| C001 | error |", "| C001 | warning |");
        let report = run(&cfg);
        assert_eq!(codes(&report), vec!["X025"]);
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.warning_count(), 1);
    }

    #[test]
    fn renumbered_and_unsnapshotted_codes_are_flagged() {
        // Snapshot knows a code the tree no longer defines: renumbering.
        let mut cfg = fixture_config("clean");
        cfg.snapshot.push_str("C998 error removed diagnostic\n");
        assert_eq!(codes(&run(&cfg)), vec!["X023"]);

        // A new code not yet snapshotted: stale snapshot.
        let mut cfg = fixture_config("clean");
        cfg.snapshot = String::new();
        assert_eq!(codes(&run(&cfg)), vec!["X024"]);

        // A changed summary is stale too.
        let mut cfg = fixture_config("clean");
        cfg.snapshot = cfg.snapshot.replace("sample diagnostic", "old summary");
        assert_eq!(codes(&run(&cfg)), vec!["X024"]);
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = run(&fixture_config("violations"));
        let json = report.to_json_string();
        assert!(json.contains("\"schema\":\"condor-audit/1\""));
        assert!(json.contains("\"code\":\"X001\""));
        let back = condor_cjson::parse(&json).unwrap();
        assert_eq!(
            back.get("errors").and_then(|v| v.as_i64()),
            Some(report.error_count() as i64)
        );
        assert_eq!(
            back.get("findings")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(report.findings.len())
        );
    }

    #[test]
    fn version_parsing() {
        assert_eq!(parse_semver("0.1.0"), Some((0, 1, 0)));
        assert_eq!(parse_semver("12.34.56"), Some((12, 34, 56)));
        assert_eq!(parse_semver("1.2"), None);
        assert_eq!(parse_semver("1.2.3.4"), None);
        assert_eq!(parse_semver("1.2.x"), None);
        let manifest = "[workspace]\n[workspace.package]\nversion = \"0.1.0\"\n";
        assert_eq!(workspace_version(manifest), Some((0, 1, 0)));
    }

    /// The tier-1 gate: the real tree must audit clean. Every
    /// registry/doc/code drift the rules can see fails this test.
    #[test]
    fn real_tree_audits_clean() {
        let report = run(&AuditConfig::repo());
        assert!(report.is_clean(), "\n{}", report.render());
    }
}

//! `atena-lint` — static enforcement of the determinism & soundness contract.
//!
//! The workspace's core invariant (DESIGN.md §4h–§4m) is that parallelism,
//! batching, caching, and tracing are *execution-only*: transcripts,
//! checkpoints, and HTTP responses stay bit-identical regardless of worker
//! count or cache state. The runtime determinism grids in
//! `tests/determinism.rs` verify this after the fact on exercised paths;
//! this crate rejects the common ways of breaking it *by construction*, on
//! every path, before anything runs.
//!
//! Five rule families, applied per crate tier (see [`Config`]):
//!
//! * **hash-order** — `HashMap`/`HashSet` in semantic crates, where
//!   iteration order would leak into results. Use `BTreeMap`/`BTreeSet`
//!   or annotate a provably lookup-only use.
//! * **wall-clock** — `Instant::now` / `SystemTime::now` /
//!   `available_parallelism` outside telemetry/bench/runtime/server
//!   execution crates.
//! * **rng-discipline** — `splitmix64` or ad-hoc seed construction outside
//!   the registered counter-derived stream constructors in
//!   `crates/runtime/src/lib.rs` (ENV/INIT/EVAL tags).
//! * **panic-path** — `unwrap`/`expect`/`panic!`/unguarded indexing in the
//!   server request path and the batch planner, where a panic poisons a
//!   pooled worker.
//! * **unsafe-inventory** — `unsafe` outside the allowlisted SIMD/signal
//!   modules, `unsafe` without a `// SAFETY:` comment, and crate roots
//!   missing `#![forbid(unsafe_code)]`.
//!
//! Suppression is explicit only: an inline
//! `// atena-lint: allow(<rule>) — <reason>` annotation (reason mandatory,
//! applies to its own line and the next), or an entry in the checked-in
//! ratchet baseline (`lint-baseline.json`), which caps the number of
//! tolerated findings per `(file, rule)` so new violations always fail CI.

#![forbid(unsafe_code)]

pub mod strip;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// The five rule families. Order here is the severity-agnostic report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    HashOrder,
    WallClock,
    RngDiscipline,
    PanicPath,
    UnsafeInventory,
}

impl Rule {
    pub const ALL: [Rule; 5] = [
        Rule::HashOrder,
        Rule::WallClock,
        Rule::RngDiscipline,
        Rule::PanicPath,
        Rule::UnsafeInventory,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Rule::HashOrder => "hash-order",
            Rule::WallClock => "wall-clock",
            Rule::RngDiscipline => "rng-discipline",
            Rule::PanicPath => "panic-path",
            Rule::UnsafeInventory => "unsafe-inventory",
        }
    }

    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    pub fn summary(self) -> &'static str {
        match self {
            Rule::HashOrder => "no HashMap/HashSet in semantic crates (iteration order leaks)",
            Rule::WallClock => "no wall-clock reads outside execution-layer crates",
            Rule::RngDiscipline => {
                "seeds come only from the registered runtime stream constructors"
            }
            Rule::PanicPath => "no unwrap/expect/panic/unguarded indexing in pooled request paths",
            Rule::UnsafeInventory => "unsafe only in allowlisted modules, with SAFETY comments",
        }
    }
}

// ---------------------------------------------------------------------------
// Findings & report
// ---------------------------------------------------------------------------

/// Disposition of a finding after annotations and the baseline are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Unsuppressed — fails the check.
    New,
    /// Suppressed by an inline `allow` annotation with a reason.
    Allowed,
    /// Covered by the checked-in ratchet baseline.
    Baselined,
}

impl Status {
    pub fn id(self) -> &'static str {
        match self {
            Status::New => "new",
            Status::Allowed => "allowed",
            Status::Baselined => "baselined",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
    pub status: Status,
    /// Annotation reason, for `Status::Allowed`.
    pub reason: Option<String>,
}

/// Result of a workspace (or single-source) scan.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl Report {
    pub fn count(&self, status: Status) -> usize {
        self.findings.iter().filter(|f| f.status == status).count()
    }

    pub fn new_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.status == Status::New)
    }

    /// Machine-readable report (schema version 1), stable field order, one
    /// parseable document.
    pub fn to_json(&self) -> String {
        let doc = ReportJson {
            version: 1,
            files_scanned: self.files_scanned,
            rules_checked: Rule::ALL.len(),
            summary: SummaryJson {
                new: self.count(Status::New),
                allowed: self.count(Status::Allowed),
                baselined: self.count(Status::Baselined),
            },
            findings: self
                .findings
                .iter()
                .map(|f| FindingJson {
                    file: f.file.clone(),
                    line: f.line,
                    rule: f.rule.id(),
                    status: f.status.id(),
                    message: f.message.clone(),
                    reason: f.reason.clone(),
                })
                .collect(),
        };
        serde_json::to_string(&doc).expect("a report of strings and integers serializes")
    }

    /// Human-readable report: new findings first (the actionable set), then
    /// suppressed ones, then a one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in self.findings.iter().filter(|f| f.status == Status::New) {
            let _ = writeln!(
                out,
                "{}:{}: [{}] {}",
                f.file,
                f.line,
                f.rule.id(),
                f.message
            );
        }
        for f in self.findings.iter().filter(|f| f.status != Status::New) {
            let _ = write!(
                out,
                "{}:{}: [{}] ({}) {}",
                f.file,
                f.line,
                f.rule.id(),
                f.status.id(),
                f.message
            );
            if let Some(reason) = &f.reason {
                let _ = write!(out, " — {reason}");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "atena-lint: {} finding(s) — {} new, {} allowed, {} baselined; {} file(s) scanned, {} rule(s) checked",
            self.findings.len(),
            self.count(Status::New),
            self.count(Status::Allowed),
            self.count(Status::Baselined),
            self.files_scanned,
            Rule::ALL.len(),
        );
        out
    }
}

/// `--format json` document.
#[derive(Serialize)]
struct ReportJson {
    version: u32,
    files_scanned: usize,
    rules_checked: usize,
    summary: SummaryJson,
    findings: Vec<FindingJson>,
}

#[derive(Serialize)]
struct SummaryJson {
    new: usize,
    allowed: usize,
    baselined: usize,
}

#[derive(Serialize)]
struct FindingJson {
    file: String,
    line: usize,
    rule: &'static str,
    status: &'static str,
    message: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    reason: Option<String>,
}

// ---------------------------------------------------------------------------
// Baseline (ratchet)
// ---------------------------------------------------------------------------

/// The checked-in ratchet: per `(file, rule)`, how many findings are
/// tolerated as legacy. Findings beyond the cap stay `New` and fail the
/// check, so counts can only go down without an explicit regeneration.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Baseline {
    pub entries: BTreeMap<(String, String), usize>,
}

impl Baseline {
    /// Parse `lint-baseline.json`:
    /// `{"version":1,"entries":[{"file":..,"rule":..,"count":..}, ...]}`.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let doc: BaselineJson = serde_json::from_str(src).map_err(|e| format!("baseline: {e}"))?;
        if doc.version != 1 {
            return Err(format!("baseline: unsupported version {}", doc.version));
        }
        let mut entries = BTreeMap::new();
        for e in doc.entries {
            if Rule::from_id(&e.rule).is_none() {
                return Err(format!("baseline entry: unknown rule {:?}", e.rule));
            }
            entries.insert((e.file, e.rule), e.count);
        }
        Ok(Baseline { entries })
    }

    /// The baseline file: indented JSON with a trailing newline.
    pub fn to_json(&self) -> String {
        let doc = BaselineJson {
            version: 1,
            entries: self
                .entries
                .iter()
                .map(|((file, rule), &count)| BaselineEntryJson {
                    file: file.clone(),
                    rule: rule.clone(),
                    count,
                })
                .collect(),
        };
        let mut out = serde_json::to_string_pretty(&doc)
            .expect("a baseline of strings and integers serializes");
        out.push('\n');
        out
    }

    /// Baseline that exactly covers the report's `New` findings.
    pub fn from_report(report: &Report) -> Baseline {
        let mut entries: BTreeMap<(String, String), usize> = BTreeMap::new();
        for f in report.new_findings() {
            *entries
                .entry((f.file.clone(), f.rule.id().to_string()))
                .or_default() += 1;
        }
        Baseline { entries }
    }

    /// Mark up to `count` `New` findings per `(file, rule)` as `Baselined`,
    /// in line order; the excess stays `New`.
    pub fn apply(&self, findings: &mut [Finding]) {
        let mut remaining = self.entries.clone();
        for f in findings.iter_mut() {
            if f.status != Status::New {
                continue;
            }
            let key = (f.file.clone(), f.rule.id().to_string());
            if let Some(n) = remaining.get_mut(&key) {
                if *n > 0 {
                    *n -= 1;
                    f.status = Status::Baselined;
                }
            }
        }
    }
}

/// `lint-baseline.json` as written on disk.
#[derive(Serialize, Deserialize)]
struct BaselineJson {
    version: u32,
    entries: Vec<BaselineEntryJson>,
}

#[derive(Serialize, Deserialize)]
struct BaselineEntryJson {
    file: String,
    rule: String,
    count: usize,
}

// ---------------------------------------------------------------------------
// Config & file classification
// ---------------------------------------------------------------------------

/// Crate tiers, for reporting. Rule applicability is driven by the explicit
/// per-rule sets in [`Config`], so a crate's standing under one rule does
/// not decide another (e.g. `runtime` is exempt from wall-clock, and its
/// `lib.rs` is also the one file where rng-discipline allows seeding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Semantic,
    Execution,
    Vendored,
    Test,
}

#[derive(Debug, Clone)]
pub struct FileClass {
    /// Crate directory name (`dataframe`, `server`, ...); `None` for files
    /// outside `crates/` and `shims/` other than the root crate (`atena`).
    pub crate_dir: Option<String>,
    pub tier: Tier,
    /// True for `src/lib.rs` of some crate (root-attribute checks apply).
    pub crate_root: bool,
}

/// Rule scoping for one workspace. [`Config::workspace_default`] encodes the
/// ATENA tree; tests construct narrower configs against fixture paths.
#[derive(Debug, Clone)]
pub struct Config {
    /// hash-order applies to these crate dirs.
    pub semantic_crates: Vec<&'static str>,
    /// wall-clock is permitted in these crate dirs (execution layer).
    pub wallclock_exempt_crates: Vec<&'static str>,
    /// rng-discipline permits seed construction only in these files.
    pub rng_allowed_files: Vec<&'static str>,
    /// panic-path applies to these files (pooled request/leader paths).
    pub panic_path_files: Vec<&'static str>,
    /// unsafe is permitted (with SAFETY comments) only in these files.
    pub unsafe_allowed_files: Vec<&'static str>,
    /// Crate dirs whose roots may omit `#![forbid(unsafe_code)]` because
    /// they contain allowlisted unsafe modules.
    pub forbid_exempt_crates: Vec<&'static str>,
}

impl Config {
    pub fn workspace_default() -> Config {
        Config {
            semantic_crates: vec!["dataframe", "env", "reward", "rl", "core", "batch"],
            wallclock_exempt_crates: vec!["telemetry", "bench", "benchmark", "runtime", "server"],
            rng_allowed_files: vec!["crates/runtime/src/lib.rs"],
            panic_path_files: vec![
                "crates/server/src/lib.rs",
                "crates/server/src/http.rs",
                "crates/server/src/engine.rs",
                "crates/server/src/pool.rs",
                "crates/server/src/signal.rs",
                "crates/batch/src/lib.rs",
            ],
            unsafe_allowed_files: vec!["crates/server/src/signal.rs"],
            forbid_exempt_crates: vec!["server"],
        }
    }

    fn is_semantic(&self, class: &FileClass) -> bool {
        class
            .crate_dir
            .as_deref()
            .is_some_and(|c| self.semantic_crates.contains(&c))
    }

    fn is_wallclock_exempt(&self, class: &FileClass) -> bool {
        class
            .crate_dir
            .as_deref()
            .is_some_and(|c| self.wallclock_exempt_crates.contains(&c))
    }
}

/// Classify a workspace-relative path (`crates/env/src/cache.rs`).
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    // Anything under a tests/, benches/, examples/, or fixtures/ directory is
    // test-tier and exempt from every rule (the per-line `#[cfg(test)]`
    // exemption handles inline test modules).
    if parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples" | "fixtures"))
    {
        return FileClass {
            crate_dir: None,
            tier: Tier::Test,
            crate_root: false,
        };
    }
    let (crate_dir, vendored, root_src) = match parts.as_slice() {
        ["crates", dir, rest @ ..] => (Some((*dir).to_string()), false, rest),
        ["shims", dir, rest @ ..] => (Some((*dir).to_string()), true, rest),
        // The workspace root crate (`atena`) lives at src/.
        ["src", ..] => (Some("atena".to_string()), false, &parts[..]),
        _ => (None, false, &parts[..]),
    };
    let crate_root = matches!(root_src, ["src", "lib.rs"]);
    let tier = if vendored {
        Tier::Vendored
    } else {
        Tier::Execution
    };
    FileClass {
        crate_dir,
        tier,
        crate_root,
    }
}

// ---------------------------------------------------------------------------
// Per-source scan
// ---------------------------------------------------------------------------

/// True when `word` occurs in `code` with non-identifier characters (or
/// boundaries) on both sides.
fn has_word(code: &str, word: &str) -> bool {
    find_word(code, word).is_some()
}

fn find_word(code: &str, word: &str) -> Option<usize> {
    let b = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(b[at - 1]);
        let end = at + word.len();
        let after_ok = end >= b.len() || !is_ident(b[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Unguarded-index heuristic: `ident[expr]` where `expr` names at least one
/// identifier and is not a range (`..`). Literal indices, slices, attribute
/// brackets, array types/literals, and macro brackets don't match.
fn unguarded_index(code: &str) -> bool {
    let b = code.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'[' && i > 0 && (is_ident(b[i - 1]) || b[i - 1] == b')' || b[i - 1] == b']') {
            // Find the matching close bracket.
            let mut depth = 1;
            let mut j = i + 1;
            while j < b.len() && depth > 0 {
                match b[j] {
                    b'[' => depth += 1,
                    b']' => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let inner = &b[i + 1..j.saturating_sub(1).max(i + 1)];
            let is_range = inner.windows(2).any(|w| w == b"..");
            let has_ident = inner.iter().any(|&c| c.is_ascii_alphabetic() || c == b'_');
            if !is_range && has_ident {
                return true;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    false
}

fn push(findings: &mut Vec<Finding>, file: &str, line: usize, rule: Rule, message: String) {
    findings.push(Finding {
        file: file.to_string(),
        line,
        rule,
        message,
        status: Status::New,
        reason: None,
    });
}

/// Scan one source file. `rel` is the workspace-relative path used for tier
/// classification; findings come back annotated (`Allowed`) but not
/// baselined — [`Baseline::apply`] is a separate step.
pub fn scan_source(rel: &str, src: &str, config: &Config) -> Vec<Finding> {
    let class = classify(rel);
    if class.tier == Tier::Test {
        return Vec::new();
    }
    let lines = strip::preprocess(src);

    // Annotations: `allow` on line N covers lines N and N+1.
    let mut allows: BTreeMap<(usize, Rule), String> = BTreeMap::new();
    for (idx, line) in lines.iter().enumerate() {
        if let Some((rule_id, reason)) = strip::parse_allow(&line.comment) {
            if reason.is_empty() {
                continue; // reasons are mandatory; a bare allow suppresses nothing
            }
            if let Some(rule) = Rule::from_id(&rule_id) {
                allows.insert((idx + 1, rule), reason.clone());
                allows.insert((idx + 2, rule), reason);
            }
        }
    }

    let mut findings = Vec::new();
    let vendored = class.tier == Tier::Vendored;
    let crate_name = class.crate_dir.clone().unwrap_or_default();

    // Crate roots must forbid unsafe unless the crate hosts allowlisted
    // unsafe modules. Applies to shims too — vendored code is exempt from
    // style rules, not from the unsafe inventory.
    if class.crate_root
        && !config.forbid_exempt_crates.contains(&crate_name.as_str())
        && !lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"))
    {
        push(
            &mut findings,
            rel,
            1,
            Rule::UnsafeInventory,
            format!("crate root of `{crate_name}` missing #![forbid(unsafe_code)]"),
        );
    }

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();

        // unsafe-inventory applies everywhere, including vendored shims.
        if has_word(code, "unsafe") {
            if !config.unsafe_allowed_files.contains(&rel) {
                push(
                    &mut findings,
                    rel,
                    lineno,
                    Rule::UnsafeInventory,
                    "`unsafe` outside the allowlisted modules".to_string(),
                );
            } else {
                // A SAFETY comment may sit above an attribute stack
                // (`#[cfg]`, `#[target_feature]`), so look back a few lines.
                let documented = lines[idx.saturating_sub(5)..=idx]
                    .iter()
                    .any(|l| l.comment.contains("SAFETY:"));
                if !documented {
                    push(
                        &mut findings,
                        rel,
                        lineno,
                        Rule::UnsafeInventory,
                        "`unsafe` without a `// SAFETY:` comment on or above it".to_string(),
                    );
                }
            }
        }
        if vendored {
            continue; // shims get only the unsafe inventory
        }

        if config.is_semantic(&class) {
            for ty in ["HashMap", "HashSet"] {
                if has_word(code, ty) {
                    push(
                        &mut findings,
                        rel,
                        lineno,
                        Rule::HashOrder,
                        format!(
                            "`{ty}` in semantic crate `{crate_name}`: iteration order is nondeterministic; use BTreeMap/BTreeSet or sort before iterating"
                        ),
                    );
                }
            }
        }

        if !config.is_wallclock_exempt(&class) {
            for pat in ["Instant::now", "SystemTime::now"] {
                if code.contains(pat) {
                    push(
                        &mut findings,
                        rel,
                        lineno,
                        Rule::WallClock,
                        format!("`{pat}` outside the execution layer: wall-clock reads must not influence results"),
                    );
                }
            }
            if has_word(code, "available_parallelism") {
                push(
                    &mut findings,
                    rel,
                    lineno,
                    Rule::WallClock,
                    "`available_parallelism` outside the execution layer: worker count is execution-only".to_string(),
                );
            }
        }

        if !config.rng_allowed_files.contains(&rel) {
            for pat in ["splitmix64", "thread_rng", "from_entropy"] {
                if has_word(code, pat) {
                    push(
                        &mut findings,
                        rel,
                        lineno,
                        Rule::RngDiscipline,
                        format!(
                            "`{pat}` outside the registered stream constructors (crates/runtime/src/lib.rs ENV/INIT/EVAL tags)"
                        ),
                    );
                }
            }
            if code.contains("rand::random") {
                push(
                    &mut findings,
                    rel,
                    lineno,
                    Rule::RngDiscipline,
                    "`rand::random` draws from an unregistered global stream".to_string(),
                );
            }
        }

        if config.panic_path_files.contains(&rel) {
            for pat in [
                ".unwrap()",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
            ] {
                if code.contains(pat) {
                    push(
                        &mut findings,
                        rel,
                        lineno,
                        Rule::PanicPath,
                        format!("`{pat}` in a pooled worker path: a panic poisons the worker; return a typed error"),
                    );
                }
            }
            if unguarded_index(code) {
                push(
                    &mut findings,
                    rel,
                    lineno,
                    Rule::PanicPath,
                    "unguarded index `[..]` in a pooled worker path can panic; use `.get()` or document the invariant".to_string(),
                );
            }
        }
    }

    // Apply annotations.
    for f in &mut findings {
        if let Some(reason) = allows.get(&(f.line, f.rule)) {
            f.status = Status::Allowed;
            f.reason = Some(reason.clone());
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan every `.rs` file under `root` (skipping `target/` and dotdirs),
/// apply `baseline`, and return the sorted report.
pub fn check_workspace(
    root: &Path,
    config: &Config,
    baseline: &Baseline,
) -> std::io::Result<Report> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    let mut rels: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rels.sort();

    let mut report = Report::default();
    for rel in &rels {
        let src = std::fs::read_to_string(root.join(rel))?;
        report.findings.extend(scan_source(rel, &src, config));
    }
    report.files_scanned = rels.len();
    baseline.apply(&mut report.findings);
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// containing `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::workspace_default()
    }

    #[test]
    fn hash_order_flags_semantic_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(scan_source("crates/env/src/x.rs", src, &cfg()).len(), 1);
        assert!(scan_source("crates/telemetry/src/x.rs", src, &cfg()).is_empty());
        assert!(scan_source("crates/env/tests/x.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn annotation_with_reason_suppresses() {
        let src = "use std::collections::HashMap; // atena-lint: allow(hash-order) — lookup only\n";
        let f = scan_source("crates/env/src/x.rs", src, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].status, Status::Allowed);
        assert_eq!(f[0].reason.as_deref(), Some("lookup only"));
    }

    #[test]
    fn annotation_without_reason_does_not_suppress() {
        let src = "use std::collections::HashMap; // atena-lint: allow(hash-order)\n";
        let f = scan_source("crates/env/src/x.rs", src, &cfg());
        assert_eq!(f[0].status, Status::New);
    }

    #[test]
    fn annotation_covers_next_line() {
        let src =
            "// atena-lint: allow(wall-clock) — telemetry sampling\nlet t = Instant::now();\n";
        let f = scan_source("crates/env/src/x.rs", src, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].status, Status::Allowed);
    }

    #[test]
    fn unguarded_index_heuristic() {
        assert!(unguarded_index("let x = results[my_idx];"));
        assert!(unguarded_index("self.slab[slot].take()"));
        assert!(!unguarded_index("let x = buf[0];"));
        assert!(!unguarded_index("let s = &xs[start..end];"));
        assert!(!unguarded_index("#[derive(Debug)]"));
        assert!(!unguarded_index("let a: [f32; 4] = make();"));
        assert!(!unguarded_index("vec![0u8; 16]"));
    }

    #[test]
    fn baseline_ratchets() {
        let src = "use std::collections::HashMap;\nuse std::collections::HashSet;\n";
        let mut findings = scan_source("crates/env/src/x.rs", src, &cfg());
        let mut baseline = Baseline::default();
        baseline
            .entries
            .insert(("crates/env/src/x.rs".into(), "hash-order".into()), 1);
        baseline.apply(&mut findings);
        assert_eq!(findings[0].status, Status::Baselined);
        assert_eq!(findings[1].status, Status::New);
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let mut b = Baseline::default();
        b.entries.insert(("a/b.rs".into(), "panic-path".into()), 3);
        b.entries
            .insert(("c — d.rs".into(), "hash-order".into()), 1);
        assert_eq!(Baseline::parse(&b.to_json()).unwrap(), b);
    }
}

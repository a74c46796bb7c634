//! Fixture-driven golden tests: every rule family must flag the seeded
//! violations at the right `file:line`, honor `allow` annotations, respect
//! the test tier, and round-trip baselines through JSON.
//!
//! Fixtures live under `tests/fixtures/` and are never compiled; they are
//! fed to `scan_source` under fake workspace-relative paths so the tier
//! logic sees them as production code.

use atena_lint::{scan_source, Baseline, Config, Report, Rule, Status};

const HASH_ORDER_BAD: &str = include_str!("fixtures/hash_order_bad.rs");
const HASH_ORDER_OK: &str = include_str!("fixtures/hash_order_ok.rs");
const WALL_CLOCK_BAD: &str = include_str!("fixtures/wall_clock_bad.rs");
const RNG_BAD: &str = include_str!("fixtures/rng_bad.rs");
const PANIC_PATH_BAD: &str = include_str!("fixtures/panic_path_bad.rs");
const UNSAFE_BAD: &str = include_str!("fixtures/unsafe_bad.rs");
const UNSAFE_OK: &str = include_str!("fixtures/unsafe_ok.rs");

fn cfg() -> Config {
    Config::workspace_default()
}

/// `(line, rule)` pairs of the findings, sorted.
fn flagged(rel: &str, src: &str) -> Vec<(usize, Rule)> {
    let mut v: Vec<(usize, Rule)> = scan_source(rel, src, &cfg())
        .into_iter()
        .map(|f| (f.line, f.rule))
        .collect();
    v.sort();
    v
}

#[test]
fn hash_order_bad_lines() {
    assert_eq!(
        flagged("crates/env/src/fixture.rs", HASH_ORDER_BAD),
        vec![
            (5, Rule::HashOrder),
            (6, Rule::HashOrder),
            (9, Rule::HashOrder),
            (14, Rule::HashOrder),
        ]
    );
}

#[test]
fn hash_order_ok_is_clean_modulo_allows() {
    let findings = scan_source("crates/env/src/fixture.rs", HASH_ORDER_OK, &cfg());
    assert!(
        findings.iter().all(|f| f.status == Status::Allowed),
        "unexpected new findings: {findings:?}"
    );
    // The two annotated HashMap uses are reported as allowed, with reasons.
    assert_eq!(findings.len(), 2);
    assert!(findings.iter().all(|f| f.reason.is_some()));
    // The JSON report carries each reason next to its finding.
    let report = Report {
        findings,
        files_scanned: 1,
    };
    let doc: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
    for (json, f) in doc["findings"]
        .as_array()
        .unwrap()
        .iter()
        .zip(&report.findings)
    {
        assert_eq!(json["status"], "allowed");
        assert_eq!(json["reason"].as_str(), f.reason.as_deref());
    }
}

#[test]
fn hash_order_only_in_semantic_crates() {
    assert!(flagged("crates/telemetry/src/fixture.rs", HASH_ORDER_BAD).is_empty());
    assert!(flagged("crates/env/tests/fixture.rs", HASH_ORDER_BAD).is_empty());
    assert!(flagged("shims/rand/src/fixture.rs", HASH_ORDER_BAD).is_empty());
}

#[test]
fn wall_clock_bad_lines() {
    assert_eq!(
        flagged("crates/reward/src/fixture.rs", WALL_CLOCK_BAD),
        vec![
            (6, Rule::WallClock),
            (7, Rule::WallClock),
            (12, Rule::WallClock),
        ]
    );
    // Execution-layer crates may read the clock.
    assert!(flagged("crates/runtime/src/fixture.rs", WALL_CLOCK_BAD).is_empty());
    assert!(flagged("crates/server/src/fixture.rs", WALL_CLOCK_BAD).is_empty());
}

#[test]
fn rng_bad_lines() {
    assert_eq!(
        flagged("crates/rl/src/fixture.rs", RNG_BAD),
        vec![
            (5, Rule::RngDiscipline),
            (8, Rule::RngDiscipline),
            (14, Rule::RngDiscipline),
            (15, Rule::RngDiscipline),
        ]
    );
    // The registered stream-constructor file is the one place this is fine.
    assert!(flagged("crates/runtime/src/lib.rs", RNG_BAD)
        .iter()
        .all(|(_, r)| *r != Rule::RngDiscipline));
}

#[test]
fn panic_path_bad_lines() {
    let got = flagged("crates/server/src/http.rs", PANIC_PATH_BAD);
    assert_eq!(
        got,
        vec![
            (5, Rule::PanicPath),  // .expect(
            (7, Rule::PanicPath),  // .unwrap()
            (7, Rule::PanicPath),  // results[my_idx]
            (9, Rule::PanicPath),  // panic!
            (12, Rule::PanicPath), // unreachable!
        ]
    );
    // Outside the pooled paths the same code is not panic-path's business.
    assert!(flagged("crates/cli/src/fixture.rs", PANIC_PATH_BAD).is_empty());
}

#[test]
fn unsafe_inventory_lines() {
    assert_eq!(
        flagged("crates/env/src/danger.rs", UNSAFE_BAD),
        vec![(4, Rule::UnsafeInventory)]
    );
    // Allowlisted module with SAFETY comments (including above an
    // attribute stack) is clean.
    assert!(flagged("crates/server/src/signal.rs", UNSAFE_OK).is_empty());
    // The same documented code outside the allowlist is still flagged.
    assert_eq!(
        flagged("crates/env/src/danger.rs", UNSAFE_OK),
        vec![(6, Rule::UnsafeInventory), (13, Rule::UnsafeInventory)]
    );
}

#[test]
fn crate_root_forbid_check() {
    let with = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    let without = "pub fn f() {}\n";
    assert!(scan_source("crates/reward/src/lib.rs", with, &cfg()).is_empty());
    let f = scan_source("crates/reward/src/lib.rs", without, &cfg());
    assert_eq!(f.len(), 1);
    assert_eq!((f[0].line, f[0].rule), (1, Rule::UnsafeInventory));
    // Crates hosting allowlisted unsafe are exempt from the root attribute.
    assert!(scan_source("crates/server/src/lib.rs", without, &cfg()).is_empty());
    // Shims are not exempt: vendored code skips style rules, not the
    // unsafe inventory.
    assert_eq!(
        scan_source("shims/rand/src/lib.rs", without, &cfg()).len(),
        1
    );
}

#[test]
fn baseline_round_trips_through_json_report() {
    // Build a report over a seeded-bad fixture, derive a baseline from it,
    // serialize both, parse them back, and check the ratchet zeroes out.
    let mut report = Report {
        findings: scan_source("crates/env/src/fixture.rs", HASH_ORDER_BAD, &cfg()),
        files_scanned: 1,
    };
    assert_eq!(report.count(Status::New), 4);

    let baseline = Baseline::from_report(&report);
    let reparsed = Baseline::parse(&baseline.to_json()).expect("baseline JSON parses");
    assert_eq!(reparsed, baseline);

    reparsed.apply(&mut report.findings);
    assert_eq!(report.count(Status::New), 0);
    assert_eq!(report.count(Status::Baselined), 4);

    // The JSON report agrees with itself after a parse round-trip.
    let doc: serde_json::Value =
        serde_json::from_str(&report.to_json()).expect("report JSON parses");
    assert_eq!(doc["version"].as_u64(), Some(1));
    assert_eq!(doc["summary"]["new"].as_u64(), Some(0));
    assert_eq!(doc["summary"]["baselined"].as_u64(), Some(4));
    let findings = doc["findings"].as_array().expect("findings array");
    assert_eq!(findings.len(), 4);
    for f in findings {
        assert_eq!(f["rule"], "hash-order");
        assert_eq!(f["status"], "baselined");
        // `reason` appears only on annotated (`allowed`) findings.
        assert!(f.get("reason").is_none(), "{f:?}");
    }

    // Ratchet semantics: one more finding than the baseline covers → new.
    let mut extra = scan_source("crates/env/src/fixture.rs", HASH_ORDER_BAD, &cfg());
    extra.push(atena_lint::Finding {
        file: "crates/env/src/fixture.rs".into(),
        line: 99,
        rule: Rule::HashOrder,
        message: "synthetic".into(),
        status: Status::New,
        reason: None,
    });
    baseline.apply(&mut extra);
    assert_eq!(extra.iter().filter(|f| f.status == Status::New).count(), 1);
}

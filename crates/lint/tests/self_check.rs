//! Dogfood: the workspace itself must be lint-clean modulo the checked-in
//! baseline. A failure here means a change introduced a determinism or
//! soundness hazard (or needs an explicit `allow` annotation / baseline
//! regeneration) — the same gate CI enforces via `atena-lint -- check`.

use std::path::Path;

use atena_lint::{check_workspace, Baseline, Config, Status};

#[test]
fn workspace_is_clean_modulo_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint")
        .to_path_buf();
    assert!(root.join("Cargo.toml").exists(), "bad root: {root:?}");

    let baseline_path = root.join("lint-baseline.json");
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            let baseline = Baseline::parse(&text).expect("lint-baseline.json parses");
            // The checked-in file is byte for byte what `--write-baseline`
            // writes for it.
            assert_eq!(baseline.to_json(), text, "lint-baseline.json layout");
            baseline
        }
        Err(_) => Baseline::default(),
    };

    let report = check_workspace(&root, &Config::workspace_default(), &baseline)
        .expect("workspace scan succeeds");
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: {} files",
        report.files_scanned
    );

    let new: Vec<String> = report
        .new_findings()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule.id(), f.message))
        .collect();
    assert!(
        new.is_empty(),
        "workspace has {} new lint finding(s):\n{}\nfix them, annotate with \
         `// atena-lint: allow(<rule>) — <reason>`, or regenerate the baseline \
         (`cargo run -p atena-lint -- check --write-baseline`)",
        new.len(),
        new.join("\n")
    );

    // The dogfooded annotations must all carry reasons (Allowed implies a
    // parsed, non-empty reason by construction — assert it stays that way).
    assert!(report
        .findings
        .iter()
        .filter(|f| f.status == Status::Allowed)
        .all(|f| f.reason.as_deref().is_some_and(|r| !r.is_empty())));
}

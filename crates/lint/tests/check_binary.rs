//! The `atena-lint` binary over the workspace, run the way a gate runs it:
//! `check --format json --metrics-out` exits 0 with a version-1 report
//! holding no new finding, and streams its `lint.*` counters to the sink.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

#[test]
fn check_binary_reports_no_new_findings_and_streams_counters() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint");
    let metrics =
        std::env::temp_dir().join(format!("atena-lint-metrics-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&metrics);
    let out = Command::new(env!("CARGO_BIN_EXE_atena-lint"))
        .args(["check", "--format", "json", "--root"])
        .arg(root)
        .arg("--metrics-out")
        .arg(&metrics)
        .env_remove("ATENA_METRICS_OUT")
        .output()
        .unwrap();
    let report_text = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "atena-lint check exited {}: {report_text}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let report: Value = serde_json::from_str(&report_text).unwrap();
    assert_eq!(report["version"].as_u64(), Some(1));
    assert_eq!(report["summary"]["new"].as_u64(), Some(0), "{report_text}");

    let counters: BTreeMap<String, u64> = std::fs::read_to_string(&metrics)
        .unwrap()
        .lines()
        .map(|line| serde_json::from_str::<Value>(line).unwrap())
        .filter(|e| e["kind"] == "counter")
        .filter_map(|e| Some((e["name"].as_str()?.to_string(), e["value"].as_u64()?)))
        .collect();
    assert_eq!(counters.get("lint.rules_checked"), Some(&5), "{counters:?}");
    assert_eq!(counters.get("lint.findings_new"), Some(&0), "{counters:?}");
    std::fs::remove_file(&metrics).unwrap();
}

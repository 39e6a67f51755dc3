//! Runs every workload at toy size, plain and traced, and checks that
//! each run passes its own correctness checks and prints exactly the
//! metrics `BENCHMARK.json` declares for that mode, with their units.

use std::path::Path;
use std::process::Command;

/// The string value that follows each `"key":` in `text`, in order.
fn string_values(text: &str, key: &str) -> Vec<String> {
    let pattern = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find(&pattern) {
        rest = rest[i + pattern.len()..].trim_start();
        let Some(r) = rest.strip_prefix(':') else {
            continue;
        };
        let Some(r) = r.trim_start().strip_prefix('"') else {
            continue;
        };
        let end = r.find('"').expect("unterminated string");
        out.push(r[..end].to_owned());
        rest = &r[end..];
    }
    out
}

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn declared(manifest: &str, section: &str) -> Vec<(String, String)> {
    let start = manifest
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("section closes")];
    string_values(body, "name")
        .into_iter()
        .zip(string_values(body, "unit"))
        .collect()
}

/// `(name, unit)` of each metric in a result line.
fn printed(result: &str) -> Vec<(String, String)> {
    let (_, mut rest) = result.split_once("\"metrics\":{").expect("metrics object");
    let mut out = Vec::new();
    while let Some((name, tail)) = rest
        .strip_prefix('"')
        .and_then(|r| r.split_once("\":{\"value\":"))
    {
        let (_, tail) = tail.split_once("\"unit\":\"").expect("unit");
        let (unit, tail) = tail.split_once("\"}").expect("metric closes");
        out.push((name.to_owned(), unit.to_owned()));
        rest = tail.strip_prefix(',').unwrap_or(tail);
    }
    out
}

#[test]
fn smoke_runs_print_exactly_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    let manifest = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = string_values(
        &manifest[..manifest.find("\"end_to_end\"").unwrap()],
        "name",
    );
    assert_eq!(
        workloads,
        ["balance_geometric", "balance_numerical", "serve_mixed"]
    );
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .current_dir(root)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed: {stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\":true,\"attempted\":"),
                "{last}"
            );
            assert_eq!(
                printed(last),
                declared(&manifest, section),
                "{workload} --trace {trace}"
            );
        }
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

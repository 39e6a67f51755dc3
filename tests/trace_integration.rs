//! Integration: the `--trace` flag of the CLI binaries produces files
//! that conform to the documented schema (docs/OBSERVABILITY.md), are
//! readable by the built-in JSONL reader, and can be replayed into
//! fresh models.

use std::io::BufReader;
use std::process::Command;

use fupermod::core::model::{Model, PiecewiseModel};
use fupermod::core::trace::{
    read_jsonl_trace, replay_into_models, TraceEvent, COMM_OPS, CSV_HEADER, SCHEMA_VERSION,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fupermod-trace-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir failed");
    dir
}

/// Runs `fupermod_simulate` with the given extra args; panics on failure.
fn simulate(extra: &[&str]) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_simulate"))
        .args(extra)
        .output()
        .expect("fupermod_simulate failed to launch");
    assert!(
        out.status.success(),
        "fupermod_simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn simulate_jsonl_trace_matches_documented_schema() {
    let dir = temp_dir("jsonl");
    let path = dir.join("jacobi.trace.jsonl");
    let out = simulate(&[
        "--app",
        "jacobi",
        "--size",
        "120",
        "--trace",
        path.to_str().unwrap(),
    ]);

    // The metrics summary goes to stderr on exit.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fupermod metrics:"),
        "missing metrics summary in stderr: {stderr}"
    );

    // Header line is the documented schema stamp.
    let text = std::fs::read_to_string(&path).expect("trace file missing");
    let first = text.lines().next().expect("empty trace");
    assert_eq!(first, format!("{{\"trace\":\"fupermod\",\"schema\":{SCHEMA_VERSION}}}"));

    // The built-in reader accepts the file and sees the dynamic loop.
    let file = std::fs::File::open(&path).unwrap();
    let (schema, events) = read_jsonl_trace(BufReader::new(file)).expect("reader rejected trace");
    assert_eq!(schema, SCHEMA_VERSION);
    assert!(!events.is_empty(), "trace carried no events");

    let mut saw_update = false;
    let mut saw_step = false;
    for e in &events {
        match e {
            TraceEvent::ModelUpdate { points, .. } => {
                saw_update = true;
                assert!(*points >= 1);
            }
            TraceEvent::PartitionStep { dist, imbalance, .. } => {
                saw_step = true;
                assert!(!dist.is_empty());
                assert!(imbalance.is_finite() && *imbalance >= 0.0);
            }
            _ => {}
        }
    }
    assert!(saw_update, "expected model_update events");
    assert!(saw_step, "expected partition_step events");

    // Replay reconstructs per-rank models from the recorded updates.
    let n_ranks = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ModelUpdate { rank, .. } => Some(*rank + 1),
            _ => None,
        })
        .max()
        .expect("no ranks in trace");
    let mut models: Vec<PiecewiseModel> = (0..n_ranks).map(|_| PiecewiseModel::new()).collect();
    let mut refs: Vec<&mut dyn Model> =
        models.iter_mut().map(|m| m as &mut dyn Model).collect();
    let applied = replay_into_models(&events, &mut refs).expect("replay failed");
    assert!(applied > 0, "replay applied no points");
    assert!(models.iter().any(|m| !m.points().is_empty()));
}

#[test]
fn simulate_csv_trace_has_versioned_header_and_stable_columns() {
    let dir = temp_dir("csv");
    let path = dir.join("matmul.trace.csv");
    simulate(&[
        "--app",
        "matmul",
        "--size",
        "48",
        "--trace",
        path.to_str().unwrap(),
        "--trace-format",
        "csv",
    ]);

    let text = std::fs::read_to_string(&path).expect("trace file missing");
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some(format!("# fupermod-trace schema={SCHEMA_VERSION}").as_str())
    );
    assert_eq!(lines.next(), Some(CSV_HEADER));

    let n_cols = CSV_HEADER.split(',').count();
    let mut rows = 0;
    for line in lines {
        assert_eq!(
            line.split(',').count(),
            n_cols,
            "ragged CSV row: {line}"
        );
        let event = line.split(',').next().unwrap();
        assert!(
            [
                "benchmark_sample",
                "benchmark_done",
                "model_update",
                "partition_step",
                "dynamic_converged",
                // Telemetry registry series exported at exit.
                "metrics",
            ]
            .contains(&event),
            "unknown event tag {event}"
        );
        rows += 1;
    }
    assert!(rows > 0, "CSV trace carried no events");
}

#[test]
fn trace_extension_infers_csv_format() {
    let dir = temp_dir("infer");
    let path = dir.join("inferred.csv");
    simulate(&[
        "--app",
        "jacobi",
        "--size",
        "80",
        "--trace",
        path.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&path).expect("trace file missing");
    assert!(
        text.starts_with("# fupermod-trace schema="),
        "a .csv path should produce the CSV encoding"
    );
}

#[test]
fn simulate_trace_writes_each_metric_sample_once() {
    let dir = temp_dir("once");
    let path = dir.join("balance.trace.jsonl");
    let out = simulate(&[
        "--app",
        "balance",
        "--runtime",
        "sim",
        "--size",
        "20000",
        "--trace",
        path.to_str().unwrap(),
    ]);
    let file = std::fs::File::open(&path).unwrap();
    let (_, events) = read_jsonl_trace(BufReader::new(file)).expect("reader rejected trace");
    let metrics: Vec<(&str, &str, u64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Metrics {
                scope,
                labels,
                count,
                ..
            } => Some((scope.as_str(), labels.as_str(), *count)),
            _ => None,
        })
        .collect();

    // The registry is the only metrics path: no legacy scopes.
    for (scope, _, _) in &metrics {
        assert!(
            !scope.starts_with("comm.") && *scope != "bench.rep",
            "legacy metrics scope {scope} in a new trace"
        );
    }
    // Each comm op's histogram is written exactly once.
    for op in COMM_OPS {
        let label = format!("op={op}");
        let n = metrics
            .iter()
            .filter(|(s, l, _)| *s == "fupermod_comm_duration_seconds" && *l == label)
            .count();
        assert_eq!(n, 1, "{op}: {n} fupermod_comm_duration_seconds events");
    }
    assert!(
        metrics
            .iter()
            .any(|(s, _, c)| *s == "fupermod_comm_duration_seconds" && *c > 0),
        "a sim balance run communicates"
    );

    // The stderr summary reports the same counters the trace carries.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("fupermod metrics: "))
        .unwrap_or_else(|| panic!("missing metrics summary in stderr: {stderr}"));
    let fields: Vec<(&str, u64)> = line
        .split(' ')
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("key=value");
            (k, v.parse().expect("integer value"))
        })
        .collect();
    let series = [
        ("kernels", "fupermod_kernel_sessions_total"),
        ("reps", "fupermod_bench_reps_total"),
        ("outliers_rejected", "fupermod_outliers_rejected_total"),
        ("repartitions", "fupermod_repartitions_total"),
        ("units_moved", "fupermod_units_moved_total"),
    ];
    assert_eq!(fields.len(), series.len(), "summary fields: {line}");
    for ((key, value), (want_key, name)) in fields.iter().zip(series) {
        assert_eq!(*key, want_key);
        let traced: Vec<u64> = metrics
            .iter()
            .filter(|(s, _, _)| *s == name)
            .map(|(_, _, c)| *c)
            .collect();
        assert_eq!(traced, [*value], "{name} in the trace vs {key}= on stderr");
    }
    assert!(fields[0].1 > 0, "the balance run measured kernels");
}

//! The result of one run and how it is printed.

use std::process::Command;

use crate::stats::Timer;
use crate::Args;

/// The end-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: [&str; 4] = ["setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms"];

/// The per-layer metrics every workload prints with `--trace 1`, with
/// their units. A layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("core.benchmark.calls", "count"),
    ("core.benchmark.busy_s", "s"),
    ("core.benchmark.reps", "count"),
    ("core.model.updates", "count"),
    ("core.model.busy_s", "s"),
    ("core.partition.calls", "count"),
    ("core.partition.busy_s", "s"),
    ("core.partition.p50_ms", "ms"),
    ("core.dynamic.steps", "count"),
    ("core.dynamic.units_moved", "count"),
    ("core.dynamic.final_imbalance", "ratio"),
    ("core.dynamic.time_to_eps_s", "s"),
    ("runtime.self_s", "s"),
    ("runtime.virtual_s", "s"),
    ("store.protocol.calls", "count"),
    ("store.protocol.parse_busy_s", "s"),
    ("store.ingest.busy_s", "s"),
    ("store.refresh.patched", "count"),
    ("store.refresh.rebuilt", "count"),
    ("store.refresh.fallback", "count"),
    ("store.partition.busy_s", "s"),
    ("store.plan.hit_ratio", "ratio"),
    ("store.lookup.busy_s", "s"),
    ("store.server.busy_s", "s"),
    ("store.server.self_s", "s"),
    ("client.partition_hit_p50_ms", "ms"),
    ("client.partition_miss_p50_ms", "ms"),
    ("client.ingest_p50_ms", "ms"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Human-readable description of each failed check.
    pub check_failures: Vec<String>,
    /// Operations attempted: balance runs, or serve requests.
    pub attempted: u64,
    /// Operations that failed: a balance run that errored or did not
    /// converge, a serve response that was not `ok` or an I/O error.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sample count behind each timing metric.
    pub samples: Vec<(&'static str, usize)>,
    /// Workload facts printed with the provenance (sizes, known
    /// non-converging platforms, ...).
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a correctness check; a failing one marks the run
    /// incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.check_failures.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn timing(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metric(name, value, unit);
        self.samples.push((name, samples));
    }

    /// A layer's call count.
    pub fn calls(&mut self, name: &'static str, timer: &Timer) {
        self.metric(name, timer.calls() as f64, "count");
    }

    /// A layer's busy time, summed over its calls.
    pub fn busy(&mut self, name: &'static str, timer: &Timer) {
        self.timing(name, timer.busy_s(), "s", timer.calls() as usize);
    }

    /// The median duration of a layer's calls.
    pub fn p50(&mut self, name: &'static str, timer: &Timer) {
        self.timing(name, timer.p50_ms(), "ms", timer.calls() as usize);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    /// Prints the provenance line, then the result line (last). With
    /// `--trace 1` the layers the workload did not reach are filled
    /// in as 0, so every run prints the same metric names.
    pub fn print(&mut self, args: &Args) {
        if args.trace {
            for (name, unit) in PER_LAYER {
                if !self.metrics.iter().any(|m| m.name == name) {
                    self.metric(name, 0.0, unit);
                }
            }
        }
        let expected: Vec<&str> = if args.trace {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.to_vec()
        };
        self.metrics
            .sort_by_key(|m| expected.iter().position(|n| *n == m.name));
        let printed: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        assert_eq!(printed, expected, "a workload printed the wrong metric set");
        for m in &self.metrics {
            if !m.value.is_finite() {
                // JSON has no encoding for these; a non-finite metric
                // is a bug in the benchmark.
                panic!("metric {} is not finite: {}", m.name, m.value);
            }
        }
        let (sha, dirty) = git_state();
        let mut prov = format!(
            "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"nproc\":{},\"git_sha\":{},\"git_dirty\":{},\"rustc\":{}",
            quote(&args.workload),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.smoke,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            quote(&sha),
            dirty.map_or_else(|| "null".to_owned(), |d| d.to_string()),
            quote(&rustc_version()),
        );
        prov.push_str(",\"samples\":{");
        prov.push_str(&join(
            self.samples
                .iter()
                .map(|(k, n)| format!("{}:{n}", quote(k))),
        ));
        prov.push_str("},\"notes\":{");
        prov.push_str(&join(
            self.notes
                .iter()
                .map(|(k, v)| format!("{}:{}", quote(k), quote(v))),
        ));
        prov.push_str("}}}");
        println!("{prov}");
        let metrics = join(self.metrics.iter().map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(m.name),
                m.value,
                quote(m.unit)
            )
        }));
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        );
    }
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run_text(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// `(sha, dirty)` of the checkout in the working directory; `unknown`
/// and `None` when it is not a git repository. Git is stopped from
/// searching the directories above the working directory.
fn git_state() -> (String, Option<bool>) {
    let git = |args: &[&str]| {
        let mut cmd = Command::new("git");
        cmd.args(args);
        if let Some(parent) = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
        run_text(&mut cmd)
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(sha) => {
            let dirty =
                git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
            (sha, dirty)
        }
        None => ("unknown".to_owned(), None),
    }
}

fn rustc_version() -> String {
    run_text(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".to_owned())
}

//! Summary reports over a causally merged timeline.
//!
//! [`Report::build`] folds a stream of [`StampedEvent`]s (from
//! [`crate::merge`]) into:
//!
//! * **per-rank time decomposition** — compute (benchmark repetition
//!   time), communication (all `comm` seconds), and **wait** time:
//!   for every collective, the ranks that finished early waited for
//!   the slowest participant, so `wait_r = max_group − t_r`;
//! * **collective critical path** — per `(op, algorithm)` the sum of
//!   each collective's slowest participant, i.e. the time the
//!   schedule actually cost the run (this is what makes ring vs.
//!   tree vs. hub schedules comparable from a trace alone);
//! * the **dynamic-loop iteration table** (distribution, imbalance,
//!   units moved per step) and its convergence record, encoded
//!   *bit-for-bit* like the trace's own CSV columns
//!   (`;`-joined dist, [`fmt_float`] imbalance);
//! * a **fault summary** (count / attributable seconds / worst retry
//!   attempt per kind);
//! * **latency-histogram digests** (count, mean, p50, p99) from
//!   schema-v3 `metrics` snapshot events.
//!
//! Rendered either as aligned text ([`Report::render_text`]) or as
//! summary JSON ([`Report::render_json`]) that validates against
//! `scripts/tracetool_schema.json`.

use std::collections::BTreeMap;

use fupermod_core::json::quote;
use fupermod_core::trace::{fmt_float, HistogramSnapshot, TraceEvent};

use crate::merge::StampedEvent;

/// Whether a `comm` op tag names a collective (participates in
/// barrier-generation grouping) rather than point-to-point traffic.
fn is_collective(op: &str) -> bool {
    !matches!(op, "send" | "recv")
}

/// Per-rank time decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct RankStats {
    /// Rank the row describes.
    pub rank: usize,
    /// Seconds spent in benchmark repetitions (compute).
    pub compute_s: f64,
    /// Seconds spent inside communication operations (all ops).
    pub comm_s: f64,
    /// Seconds spent waiting on slower collective participants
    /// (`Σ max_group − t_rank` over this rank's collectives).
    pub wait_s: f64,
    /// Events attributed to the rank.
    pub events: u64,
}

/// Aggregated collective cost per `(op, algorithm)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveStats {
    /// Operation tag (`barrier`, `allreduce`, ...).
    pub op: String,
    /// Schedule that carried it (`hub`, `ring`, `tree`).
    pub algorithm: String,
    /// Collectives of this kind observed.
    pub count: u64,
    /// Total communication rounds the schedule used.
    pub rounds_total: u64,
    /// Critical-path seconds: `Σ` slowest participant per collective.
    pub critical_s: f64,
    /// Aggregate wait seconds across all participants.
    pub wait_s: f64,
}

/// One dynamic-loop partitioning step.
#[derive(Debug, Clone, PartialEq)]
pub struct Iteration {
    /// 1-based dynamic iteration (0 = static one-shot).
    pub iter: u64,
    /// Assigned computation units per process.
    pub dist: Vec<u64>,
    /// Relative imbalance that drove the step.
    pub imbalance: f64,
    /// Units that changed owner.
    pub units_moved: u64,
}

/// Fault summary per kind.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStats {
    /// Fault tag (`delay`, `retry`, `death`, ...).
    pub kind: String,
    /// Occurrences.
    pub count: u64,
    /// Total attributable seconds (delays/backoffs).
    pub seconds: f64,
    /// Worst retry attempt observed (0 for non-retry faults).
    pub max_attempt: u32,
}

/// Digest of one latency-histogram snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDigest {
    /// Rank the snapshot describes.
    pub rank: usize,
    /// Metric name, followed by the series' labels as `{labels}` when
    /// it has any (`fupermod_comm_duration_seconds{op=bcast}`;
    /// `comm.<op>` or `bench.rep` in older traces).
    pub scope: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of recorded latencies, seconds.
    pub sum_s: f64,
    /// Mean latency, seconds (0 when empty).
    pub mean_s: f64,
    /// Median (upper bucket bound), seconds.
    pub p50_s: f64,
    /// 99th percentile (upper bucket bound), seconds.
    pub p99_s: f64,
}

/// The full report. See the module docs for semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Schema version of the merged inputs.
    pub schema: u32,
    /// Total events folded in.
    pub events: u64,
    /// Per-rank decomposition, ascending rank.
    pub ranks: Vec<RankStats>,
    /// Per-`(op, algorithm)` collective costs, sorted by key.
    pub collectives: Vec<CollectiveStats>,
    /// Total collective critical path, seconds.
    pub critical_path_s: f64,
    /// Dynamic-loop steps in trace order.
    pub iterations: Vec<Iteration>,
    /// Convergence record `(steps, imbalance)` if the loop converged.
    pub converged: Option<(u64, f64)>,
    /// Fault summary per kind, sorted by kind.
    pub faults: Vec<FaultStats>,
    /// Latency-histogram digests in trace order.
    pub histograms: Vec<HistogramDigest>,
}

impl Report {
    /// Folds a merged event stream into a report.
    pub fn build<I>(schema: u32, events: I) -> Report
    where
        I: IntoIterator<Item = StampedEvent>,
    {
        let mut total: u64 = 0;
        let mut ranks: BTreeMap<usize, RankStats> = BTreeMap::new();
        // Collective groups keyed by closing-barrier generation: one
        // collective per generation (every collective closes with its
        // own barrier), so `gen` alone identifies the group.
        // Pre-v3 traces stamp everything (0, 0); fall back to keying
        // by occurrence index per rank so groups still line up.
        let mut groups: BTreeMap<(u64, u64, String), GroupAcc> = BTreeMap::new();
        let mut group_seq: BTreeMap<usize, u64> = BTreeMap::new();
        let mut iterations = Vec::new();
        let mut converged = None;
        let mut faults: BTreeMap<String, FaultStats> = BTreeMap::new();
        let mut histograms = Vec::new();

        for stamped in events {
            total += 1;
            let rank = stamped.rank;
            let row = ranks.entry(rank).or_insert_with(|| RankStats {
                rank,
                compute_s: 0.0,
                comm_s: 0.0,
                wait_s: 0.0,
                events: 0,
            });
            row.events += 1;
            match stamped.event {
                TraceEvent::BenchmarkSample { time, .. } => {
                    if time.is_finite() {
                        row.compute_s += time;
                    }
                }
                TraceEvent::Comm {
                    op,
                    seconds,
                    algorithm,
                    rounds,
                    gen,
                    ..
                } => {
                    if seconds.is_finite() {
                        row.comm_s += seconds;
                    }
                    if is_collective(&op) {
                        let key = if stamped.lamport == 0 && gen == 0 {
                            // Pre-v3: group the i-th collective of
                            // each rank together.
                            let n = group_seq.entry(rank).or_insert(0);
                            let k = *n;
                            *n += 1;
                            (u64::MAX, k, op)
                        } else {
                            (0, gen, op)
                        };
                        let acc = groups.entry(key).or_default();
                        acc.algorithm = algorithm;
                        acc.rounds = acc.rounds.max(rounds);
                        acc.members.push((rank, seconds));
                    }
                }
                TraceEvent::PartitionStep {
                    iter,
                    dist,
                    imbalance,
                    units_moved,
                } => {
                    iterations.push(Iteration {
                        iter,
                        dist,
                        imbalance,
                        units_moved,
                    });
                }
                TraceEvent::DynamicConverged { steps, imbalance } => {
                    converged = Some((steps, imbalance));
                }
                TraceEvent::Fault {
                    kind,
                    attempt,
                    seconds,
                    ..
                } => {
                    let f = faults.entry(kind.clone()).or_insert_with(|| FaultStats {
                        kind,
                        count: 0,
                        seconds: 0.0,
                        max_attempt: 0,
                    });
                    f.count += 1;
                    if seconds.is_finite() {
                        f.seconds += seconds;
                    }
                    f.max_attempt = f.max_attempt.max(attempt);
                }
                TraceEvent::Metrics {
                    rank,
                    scope,
                    count,
                    sum,
                    buckets,
                    kind,
                    labels,
                } => {
                    // Counters and gauges have no latency to digest.
                    // Pre-v4 traces leave `kind` empty; their
                    // histograms are the events with a full bucket
                    // vector, which `from_parts` checks.
                    if !(kind.is_empty() || kind == "histogram") || count == 0 {
                        continue;
                    }
                    let Some(snap) = HistogramSnapshot::from_parts(count, sum, buckets) else {
                        continue;
                    };
                    histograms.push(HistogramDigest {
                        rank,
                        scope: if labels.is_empty() {
                            scope
                        } else {
                            format!("{scope}{{{labels}}}")
                        },
                        count,
                        sum_s: sum,
                        mean_s: snap.mean().unwrap_or(0.0),
                        p50_s: snap.quantile(0.5).unwrap_or(0.0),
                        p99_s: snap.quantile(0.99).unwrap_or(0.0),
                    });
                }
                TraceEvent::BenchmarkDone { .. } | TraceEvent::ModelUpdate { .. } => {}
            }
        }

        // Fold collective groups: critical path + per-rank wait.
        let mut collectives: BTreeMap<(String, String), CollectiveStats> = BTreeMap::new();
        let mut critical_path_s = 0.0;
        for ((_, _, op), acc) in groups {
            let max = acc
                .members
                .iter()
                .map(|&(_, s)| s)
                .filter(|s| s.is_finite())
                .fold(0.0_f64, f64::max);
            critical_path_s += max;
            let entry = collectives
                .entry((op.clone(), acc.algorithm.clone()))
                .or_insert_with(|| CollectiveStats {
                    op,
                    algorithm: acc.algorithm.clone(),
                    count: 0,
                    rounds_total: 0,
                    critical_s: 0.0,
                    wait_s: 0.0,
                });
            entry.count += 1;
            entry.rounds_total += acc.rounds;
            entry.critical_s += max;
            for (rank, s) in acc.members {
                let wait = if s.is_finite() { (max - s).max(0.0) } else { 0.0 };
                entry.wait_s += wait;
                if let Some(row) = ranks.get_mut(&rank) {
                    row.wait_s += wait;
                }
            }
        }

        Report {
            schema,
            events: total,
            ranks: ranks.into_values().collect(),
            collectives: collectives.into_values().collect(),
            critical_path_s,
            iterations,
            converged,
            faults: faults.into_values().collect(),
            histograms,
        }
    }

    /// Renders the report as aligned human-readable text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== fupermod_tracetool report ==");
        let _ = writeln!(
            out,
            "schema {}  events {}  ranks {}",
            self.schema,
            self.events,
            self.ranks.len()
        );

        let _ = writeln!(out, "\nper-rank time (s):");
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>12} {:>12} {:>8}",
            "rank", "compute", "comm", "wait", "events"
        );
        for r in &self.ranks {
            let _ = writeln!(
                out,
                "{:>5} {:>12.6} {:>12.6} {:>12.6} {:>8}",
                r.rank, r.compute_s, r.comm_s, r.wait_s, r.events
            );
        }

        let _ = writeln!(out, "\ncollective critical path (s):");
        let _ = writeln!(
            out,
            "{:<12} {:<10} {:>6} {:>7} {:>12} {:>12}",
            "op", "algorithm", "count", "rounds", "critical", "wait"
        );
        for c in &self.collectives {
            let _ = writeln!(
                out,
                "{:<12} {:<10} {:>6} {:>7} {:>12.6} {:>12.6}",
                c.op, c.algorithm, c.count, c.rounds_total, c.critical_s, c.wait_s
            );
        }
        let _ = writeln!(out, "total critical path: {:.6} s", self.critical_path_s);

        if !self.iterations.is_empty() {
            let _ = writeln!(out, "\ndynamic iterations:");
            let _ = writeln!(
                out,
                "{:>5} {:>12} {:>7}  dist",
                "iter", "imbalance", "moved"
            );
            for it in &self.iterations {
                let _ = writeln!(
                    out,
                    "{:>5} {:>12} {:>7}  {}",
                    it.iter,
                    fmt_float(it.imbalance),
                    it.units_moved,
                    join_dist(&it.dist)
                );
            }
        }
        match self.converged {
            Some((steps, imbalance)) => {
                let _ = writeln!(
                    out,
                    "converged after {steps} steps, imbalance {}",
                    fmt_float(imbalance)
                );
            }
            None => {
                if !self.iterations.is_empty() {
                    let _ = writeln!(out, "no convergence record");
                }
            }
        }

        if !self.faults.is_empty() {
            let _ = writeln!(out, "\nfaults:");
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>12} {:>12}",
                "kind", "count", "seconds", "max_attempt"
            );
            for f in &self.faults {
                let _ = writeln!(
                    out,
                    "{:<12} {:>6} {:>12.6} {:>12}",
                    f.kind, f.count, f.seconds, f.max_attempt
                );
            }
        }

        if !self.histograms.is_empty() {
            let w = self
                .histograms
                .iter()
                .map(|h| h.scope.len())
                .fold(12, usize::max);
            let _ = writeln!(out, "\nlatency histograms:");
            let _ = writeln!(
                out,
                "{:>5} {:<w$} {:>8} {:>12} {:>12} {:>12}",
                "rank", "scope", "count", "mean", "p50", "p99"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:>5} {:<w$} {:>8} {:>12.3e} {:>12.3e} {:>12.3e}",
                    h.rank, h.scope, h.count, h.mean_s, h.p50_s, h.p99_s
                );
            }
        }
        out
    }

    /// Renders the report as summary JSON (the shape committed in
    /// `scripts/tracetool_schema.json`). Float fields use the trace
    /// encoding ([`fmt_float`]), so imbalance/dist values are
    /// *bit-for-bit* the trace's own CSV encoding.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"tool\":\"fupermod_tracetool\",\"schema\":{},\"events\":{}",
            self.schema, self.events
        );

        out.push_str(",\"ranks\":[");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rank\":{},\"compute_s\":{},\"comm_s\":{},\"wait_s\":{},\"events\":{}}}",
                r.rank,
                fmt_float(r.compute_s),
                fmt_float(r.comm_s),
                fmt_float(r.wait_s),
                r.events
            );
        }
        out.push(']');

        out.push_str(",\"collectives\":[");
        for (i, c) in self.collectives.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"op\":{},\"algorithm\":{},\"count\":{},\"rounds_total\":{},\
                 \"critical_s\":{},\"wait_s\":{}}}",
                quote(&c.op),
                quote(&c.algorithm),
                c.count,
                c.rounds_total,
                fmt_float(c.critical_s),
                fmt_float(c.wait_s)
            );
        }
        out.push(']');
        let _ = write!(
            out,
            ",\"critical_path_s\":{}",
            fmt_float(self.critical_path_s)
        );

        out.push_str(",\"iterations\":[");
        for (i, it) in self.iterations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"iter\":{},\"dist\":\"{}\",\"imbalance\":{},\"units_moved\":{}}}",
                it.iter,
                join_dist(&it.dist),
                fmt_float(it.imbalance),
                it.units_moved
            );
        }
        out.push(']');

        match self.converged {
            Some((steps, imbalance)) => {
                let _ = write!(
                    out,
                    ",\"converged\":{{\"steps\":{steps},\"imbalance\":{}}}",
                    fmt_float(imbalance)
                );
            }
            None => out.push_str(",\"converged\":null"),
        }

        out.push_str(",\"faults\":[");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":{},\"count\":{},\"seconds\":{},\"max_attempt\":{}}}",
                quote(&f.kind),
                f.count,
                fmt_float(f.seconds),
                f.max_attempt
            );
        }
        out.push(']');

        out.push_str(",\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rank\":{},\"scope\":{},\"count\":{},\"sum_s\":{},\"mean_s\":{},\
                 \"p50_s\":{},\"p99_s\":{}}}",
                h.rank,
                quote(&h.scope),
                h.count,
                fmt_float(h.sum_s),
                fmt_float(h.mean_s),
                fmt_float(h.p50_s),
                fmt_float(h.p99_s)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Accumulator for one collective group.
#[derive(Debug, Default)]
struct GroupAcc {
    algorithm: String,
    rounds: u64,
    members: Vec<(usize, f64)>,
}

/// The trace CSV encoding of a distribution (`;`-joined).
fn join_dist(dist: &[u64]) -> String {
    let mut s = String::new();
    for (i, d) in dist.iter().enumerate() {
        if i > 0 {
            s.push(';');
        }
        s.push_str(&d.to_string());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_events;
    use fupermod_core::json;

    fn comm(rank: usize, op: &str, secs: f64, alg: &str, lamport: u64, gen: u64) -> TraceEvent {
        TraceEvent::Comm {
            rank,
            op: op.to_owned(),
            peer: -1,
            bytes: 64,
            seconds: secs,
            algorithm: alg.to_owned(),
            rounds: 2,
            lamport,
            gen,
        }
    }

    fn build(events: Vec<TraceEvent>) -> Report {
        Report::build(3, merge_events(vec![events]))
    }

    #[test]
    fn wait_and_critical_path_from_collective_groups() {
        // One allreduce at gen 1: rank 0 takes 3s, rank 1 takes 1s.
        let r = build(vec![
            comm(0, "allreduce", 3.0, "ring", 5, 1),
            comm(1, "allreduce", 1.0, "ring", 5, 1),
        ]);
        assert_eq!(r.collectives.len(), 1);
        let c = &r.collectives[0];
        assert_eq!((c.op.as_str(), c.algorithm.as_str()), ("allreduce", "ring"));
        assert_eq!(c.count, 1);
        assert!((c.critical_s - 3.0).abs() < 1e-12);
        assert!((c.wait_s - 2.0).abs() < 1e-12);
        assert!((r.critical_path_s - 3.0).abs() < 1e-12);
        assert!((r.ranks[1].wait_s - 2.0).abs() < 1e-12);
        assert!((r.ranks[0].wait_s - 0.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_generations_are_distinct_collectives() {
        let r = build(vec![
            comm(0, "barrier", 1.0, "tree", 2, 0),
            comm(1, "barrier", 2.0, "tree", 2, 0),
            comm(0, "barrier", 4.0, "tree", 6, 1),
            comm(1, "barrier", 1.0, "tree", 6, 1),
        ]);
        let c = &r.collectives[0];
        assert_eq!(c.count, 2);
        assert!((c.critical_s - 6.0).abs() < 1e-12); // 2 + 4
        assert!((r.critical_path_s - 6.0).abs() < 1e-12);
    }

    #[test]
    fn p2p_ops_count_as_comm_but_not_critical_path() {
        let mut e = comm(0, "send", 0.5, "direct", 1, 0);
        if let TraceEvent::Comm { peer, .. } = &mut e {
            *peer = 1;
        }
        let r = build(vec![e]);
        assert!(r.collectives.is_empty());
        assert!((r.ranks[0].comm_s - 0.5).abs() < 1e-12);
        assert_eq!(r.critical_path_s, 0.0);
    }

    #[test]
    fn iteration_rows_match_trace_csv_encoding() {
        let r = build(vec![
            TraceEvent::PartitionStep {
                iter: 1,
                dist: vec![7, 3],
                imbalance: 0.25,
                units_moved: 2,
            },
            TraceEvent::DynamicConverged {
                steps: 1,
                imbalance: 0.01,
            },
        ]);
        assert_eq!(join_dist(&r.iterations[0].dist), "7;3");
        assert_eq!(fmt_float(r.iterations[0].imbalance), "0.25");
        assert_eq!(r.converged, Some((1, 0.01)));
        let json = json::parse(&r.render_json()).unwrap();
        let it = &json.get("iterations").unwrap().as_array().unwrap()[0];
        assert_eq!(it.get("dist").unwrap().as_str(), Some("7;3"));
        assert_eq!(it.get("imbalance").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn report_json_parses_and_has_required_members() {
        let r = build(vec![
            comm(0, "allreduce", 3e-6, "hub", 4, 0),
            comm(1, "allreduce", 1e-6, "hub", 4, 0),
            TraceEvent::Fault {
                rank: 1,
                kind: "retry".to_owned(),
                peer: 0,
                attempt: 2,
                seconds: 0.001,
            },
            TraceEvent::Metrics {
                rank: 0,
                scope: "comm.allreduce".to_owned(),
                count: 2,
                sum: 4e-6,
                buckets: {
                    let mut b = vec![0u64; fupermod_core::trace::HISTOGRAM_BUCKETS + 2];
                    b[11] = 2; // 2^10..2^11 ns ≈ 1–2 µs
                    b
                },
                kind: "histogram".to_owned(),
                labels: String::new(),
            },
        ]);
        let json = json::parse(&r.render_json()).unwrap();
        for key in [
            "tool",
            "schema",
            "events",
            "ranks",
            "collectives",
            "critical_path_s",
            "iterations",
            "converged",
            "faults",
            "histograms",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        let f = &json.get("faults").unwrap().as_array().unwrap()[0];
        assert_eq!(f.get("kind").unwrap().as_str(), Some("retry"));
        assert_eq!(f.get("max_attempt").unwrap().as_f64(), Some(2.0));
        let h = &json.get("histograms").unwrap().as_array().unwrap()[0];
        assert_eq!(h.get("count").unwrap().as_f64(), Some(2.0));
        assert!(h.get("p99_s").unwrap().as_f64().unwrap() > 0.0);
        // Text rendering mentions the same sections.
        let text = r.render_text();
        assert!(text.contains("collective critical path"));
        assert!(text.contains("faults:"));
        assert!(text.contains("latency histograms:"));
    }

    #[test]
    fn only_nonempty_histograms_are_digested_with_their_labels() {
        let metric =
            |scope: &str, count: u64, kind: &str, labels: &str, full: bool| TraceEvent::Metrics {
                rank: 0,
                scope: scope.to_owned(),
                count,
                sum: count as f64 * 1.5e-6,
                buckets: if full {
                    let mut b = vec![0u64; fupermod_core::trace::HISTOGRAM_BUCKETS + 2];
                    b[11] = count;
                    b
                } else {
                    Vec::new()
                },
                kind: kind.to_owned(),
                labels: labels.to_owned(),
            };
        let dur = "fupermod_comm_duration_seconds";
        let r = build(vec![
            metric("fupermod_faults_total", 0, "counter", "kind=retry", false),
            metric("fupermod_repartitions_total", 5, "counter", "", false),
            metric("store_entries", 0, "gauge", "", false),
            metric(dur, 0, "histogram", "op=recv", true),
            metric(dur, 2, "histogram", "op=bcast", true),
            metric(dur, 3, "histogram", "op=send", true),
            // v3: no kind, no labels, full bucket vector.
            metric("comm.send", 4, "", "", true),
        ]);
        let rows: Vec<(&str, u64)> = r
            .histograms
            .iter()
            .map(|h| (h.scope.as_str(), h.count))
            .collect();
        assert_eq!(
            rows,
            [
                ("fupermod_comm_duration_seconds{op=bcast}", 2),
                ("fupermod_comm_duration_seconds{op=send}", 3),
                ("comm.send", 4),
            ]
        );
        assert!(r.histograms.iter().all(|h| h.p50_s > 0.0));
        // The widened scope column keeps the text table aligned.
        let text = r.render_text();
        assert!(text.contains("fupermod_comm_duration_seconds{op=bcast}        2"));
    }
}

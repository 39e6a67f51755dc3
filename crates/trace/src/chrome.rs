//! Chrome trace-event (Perfetto) export.
//!
//! Converts a causally merged timeline ([`crate::merge`]) into the
//! [Chrome trace-event JSON format], loadable in `chrome://tracing`
//! or <https://ui.perfetto.dev>: one track (`tid`) per rank under a
//! single process, duration (`"X"`) slices for benchmark repetitions
//! and communication operations, and instant (`"i"`) markers for
//! faults, model updates, and partitioner decisions.
//!
//! Per-rank traces record *durations*, not absolute timestamps (the
//! sim backend has no shared wall clock at all), so the exporter
//! reconstructs a plausible global timeline from the merged causal
//! order: each rank keeps a cumulative cursor, and every collective
//! **aligns its participants** — all slices of one collective end at
//! `T = max_r(cursor_r + dur_r)`, each starting at `T − dur_r`, and
//! every participant's cursor advances to `T`. That renders the wait
//! time skew exactly where a real timeline would show it.
//!
//! [Chrome trace-event JSON format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Only `"M"` (`thread_name`) metadata records carry an `args`
//! object; data slices keep their payload in the `name` to stay
//! compact.

use std::collections::BTreeMap;
use std::io::{self, Write};

use fupermod_core::json::quote;
use fupermod_core::trace::TraceEvent;

use crate::merge::StampedEvent;

/// Microseconds per second (trace-event timestamps are µs).
const US: f64 = 1e6;

/// Exports a merged event stream as Chrome trace-event JSON.
///
/// Events must arrive in merged causal order (as produced by
/// [`crate::merge::Merge`] / [`crate::merge::merge_events`]); the
/// collective alignment described in the module docs depends on it.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn export_chrome<I, W>(events: I, out: &mut W) -> io::Result<()>
where
    I: IntoIterator<Item = StampedEvent>,
    W: Write,
{
    let mut w = Emitter {
        out,
        first: true,
        cursors: BTreeMap::new(),
    };
    w.out.write_all(b"{\"traceEvents\":[")?;

    // Events sharing one (lamport, gen) stamp form a *block*: the
    // stamping comm operations plus any per-rank events that
    // inherited the stamp. Collectives inside a block are aligned
    // together; everything else replays in merged order.
    let mut block: Vec<StampedEvent> = Vec::new();
    let mut block_key: Option<(u64, u64)> = None;
    for ev in events {
        let key = (ev.lamport, ev.gen);
        if block_key != Some(key) {
            w.flush_block(&mut block)?;
            block_key = Some(key);
        }
        block.push(ev);
    }
    w.flush_block(&mut block)?;

    w.out.write_all(b"],\"displayTimeUnit\":\"ms\"}")?;
    Ok(())
}

struct Emitter<'a, W: Write> {
    out: &'a mut W,
    first: bool,
    /// Per-rank cumulative time cursor, seconds.
    cursors: BTreeMap<usize, f64>,
}

impl<W: Write> Emitter<'_, W> {
    /// Cursor of `rank`, emitting the track metadata on first use.
    fn cursor(&mut self, rank: usize) -> io::Result<f64> {
        if !self.cursors.contains_key(&rank) {
            self.record(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\
                 \"args\":{{\"name\":\"rank {rank}\"}}}}"
            ))?;
            self.cursors.insert(rank, 0.0);
        }
        Ok(self.cursors[&rank])
    }

    fn record(&mut self, json: &str) -> io::Result<()> {
        if !self.first {
            self.out.write_all(b",")?;
        }
        self.first = false;
        self.out.write_all(json.as_bytes())
    }

    fn slice(&mut self, name: &str, cat: &str, rank: usize, ts: f64, dur: f64) -> io::Result<()> {
        self.record(&format!(
            "{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":{rank}}}",
            quote(name),
            ts * US,
            dur * US
        ))
    }

    fn instant(&mut self, name: &str, cat: &str, rank: usize, ts: f64) -> io::Result<()> {
        self.record(&format!(
            "{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{:.3},\"s\":\"t\",\
             \"pid\":0,\"tid\":{rank}}}",
            quote(name),
            ts * US
        ))
    }

    /// Flushes one stamp block: collectives aligned, the rest in
    /// order. Leaves `block` empty.
    fn flush_block(&mut self, block: &mut Vec<StampedEvent>) -> io::Result<()> {
        // Pass 1: align the block's collective participants (grouped
        // by op; one collective per generation, so a block holds at
        // most one group per op tag).
        let mut groups: BTreeMap<String, Vec<(usize, f64, String)>> = BTreeMap::new();
        for ev in block.iter() {
            if let TraceEvent::Comm {
                rank,
                op,
                seconds,
                algorithm,
                ..
            } = &ev.event
            {
                if !matches!(op.as_str(), "send" | "recv") {
                    groups.entry(op.clone()).or_default().push((
                        *rank,
                        sane(*seconds),
                        algorithm.clone(),
                    ));
                }
            }
        }
        for (op, members) in groups {
            let mut end = 0.0_f64;
            for &(rank, dur, _) in &members {
                end = end.max(self.cursor(rank)? + dur);
            }
            for (rank, dur, algorithm) in members {
                let name = if algorithm.is_empty() {
                    op.clone()
                } else {
                    format!("{op} ({algorithm})")
                };
                self.slice(&name, "comm", rank, end - dur, dur)?;
                self.cursors.insert(rank, end);
            }
        }

        // Pass 2: everything else, in merged order, at the (possibly
        // just advanced) cursors.
        for ev in block.drain(..) {
            let rank = ev.rank;
            match ev.event {
                TraceEvent::Comm {
                    op, seconds, peer, ..
                } => {
                    if matches!(op.as_str(), "send" | "recv") {
                        let dur = sane(seconds);
                        let ts = self.cursor(rank)?;
                        self.slice(&format!("{op} peer={peer}"), "comm", rank, ts, dur)?;
                        self.cursors.insert(rank, ts + dur);
                    }
                    // Collectives were handled in pass 1.
                }
                TraceEvent::BenchmarkSample { d, rep, time, .. } => {
                    let dur = sane(time);
                    let ts = self.cursor(rank)?;
                    self.slice(&format!("bench d={d} rep={rep}"), "bench", rank, ts, dur)?;
                    self.cursors.insert(rank, ts + dur);
                }
                TraceEvent::BenchmarkDone { d, reps, .. } => {
                    let ts = self.cursor(rank)?;
                    self.instant(&format!("bench_done d={d} reps={reps}"), "bench", rank, ts)?;
                }
                TraceEvent::ModelUpdate { d, points, .. } => {
                    let ts = self.cursor(rank)?;
                    self.instant(&format!("model d={d} points={points}"), "model", rank, ts)?;
                }
                TraceEvent::PartitionStep {
                    iter, units_moved, ..
                } => {
                    let ts = self.cursor(rank)?;
                    self.instant(
                        &format!("partition iter={iter} moved={units_moved}"),
                        "partition",
                        rank,
                        ts,
                    )?;
                }
                TraceEvent::DynamicConverged { steps, .. } => {
                    let ts = self.cursor(rank)?;
                    self.instant(&format!("converged steps={steps}"), "partition", rank, ts)?;
                }
                TraceEvent::Fault { kind, attempt, .. } => {
                    let ts = self.cursor(rank)?;
                    self.instant(&format!("fault:{kind} attempt={attempt}"), "fault", rank, ts)?;
                }
                TraceEvent::Metrics { scope, count, .. } => {
                    let ts = self.cursor(rank)?;
                    self.instant(&format!("metrics {scope} n={count}"), "metrics", rank, ts)?;
                }
            }
        }
        Ok(())
    }
}

/// Clamps non-finite / negative durations to zero.
fn sane(seconds: f64) -> f64 {
    if seconds.is_finite() && seconds > 0.0 {
        seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_events;
    use fupermod_core::json::{self, Value};

    fn comm(rank: usize, op: &str, secs: f64, lamport: u64, gen: u64) -> TraceEvent {
        TraceEvent::Comm {
            rank,
            op: op.to_owned(),
            peer: -1,
            bytes: 8,
            seconds: secs,
            algorithm: "ring".to_owned(),
            rounds: 2,
            lamport,
            gen,
        }
    }

    fn export(events: Vec<TraceEvent>) -> Value {
        let merged = merge_events(vec![events]);
        let mut buf = Vec::new();
        export_chrome(merged, &mut buf).unwrap();
        json::parse(std::str::from_utf8(&buf).unwrap()).unwrap()
    }

    fn slices(doc: &Value) -> Vec<&Value> {
        doc.get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect()
    }

    #[test]
    fn collective_slices_align_at_their_end() {
        let doc = export(vec![
            comm(0, "allreduce", 3e-3, 5, 1),
            comm(1, "allreduce", 1e-3, 5, 1),
        ]);
        let sl = slices(&doc);
        assert_eq!(sl.len(), 2);
        let end = |s: &Value| {
            s.get("ts").unwrap().as_f64().unwrap() + s.get("dur").unwrap().as_f64().unwrap()
        };
        assert!((end(sl[0]) - end(sl[1])).abs() < 1e-6);
        assert!((end(sl[0]) - 3000.0).abs() < 1e-6); // 3 ms in µs
                                                     // The faster rank starts later (waited).
        let by_tid = |tid: f64| {
            sl.iter()
                .find(|s| s.get("tid").unwrap().as_f64() == Some(tid))
                .unwrap()
                .get("ts")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!(by_tid(1.0) > by_tid(0.0));
    }

    #[test]
    fn one_thread_name_track_per_rank() {
        let doc = export(vec![
            comm(0, "barrier", 1e-6, 2, 0),
            comm(1, "barrier", 1e-6, 2, 0),
            comm(2, "barrier", 1e-6, 2, 0),
        ]);
        let meta: Vec<&Value> = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(meta.len(), 3);
        for m in &meta {
            assert_eq!(m.get("name").unwrap().as_str(), Some("thread_name"));
            assert!(m.get("args").unwrap().get("name").is_some());
        }
    }

    #[test]
    fn cursors_accumulate_across_blocks() {
        // bench(2ms) then a barrier(1ms): the barrier slice starts at
        // the bench end.
        let doc = export(vec![
            TraceEvent::BenchmarkSample {
                rank: 0,
                d: 10,
                rep: 0,
                time: 2e-3,
                ci_rel: 0.0,
            },
            comm(0, "barrier", 1e-3, 1, 0),
        ]);
        let sl = slices(&doc);
        assert_eq!(sl.len(), 2);
        let bench = sl
            .iter()
            .find(|s| s.get("cat").unwrap().as_str() == Some("bench"))
            .unwrap();
        let bar = sl
            .iter()
            .find(|s| s.get("cat").unwrap().as_str() == Some("comm"))
            .unwrap();
        assert_eq!(bench.get("ts").unwrap().as_f64(), Some(0.0));
        assert!((bar.get("ts").unwrap().as_f64().unwrap() - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn faults_and_driver_events_are_instants() {
        let doc = export(vec![
            comm(0, "barrier", 1e-6, 1, 0),
            TraceEvent::Fault {
                rank: 0,
                kind: "retry".to_owned(),
                peer: 1,
                attempt: 1,
                seconds: 0.5,
            },
            TraceEvent::PartitionStep {
                iter: 1,
                dist: vec![1, 2],
                imbalance: 0.5,
                units_moved: 1,
            },
        ]);
        let instants: Vec<&Value> = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .collect();
        assert_eq!(instants.len(), 2);
        for i in &instants {
            assert_eq!(i.get("s").unwrap().as_str(), Some("t"));
        }
    }

    #[test]
    fn export_is_valid_json_with_top_level_shape() {
        let doc = export(vec![comm(0, "bcast", 1e-6, 1, 0)]);
        assert!(doc.get("traceEvents").unwrap().as_array().is_some());
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    }
}

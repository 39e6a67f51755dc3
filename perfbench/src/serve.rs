//! The `serve_mixed` workload: the release `fupermod_served` daemon,
//! driven closed-loop over two connections.
//!
//! Set-up spawns the daemon and preloads 64 fingerprints with raw
//! `ingest` samples (12 sizes × 3). The measured scripts mix 60 %
//! `partition` over 8 fixed jobs of 28–32 members (`numerical`, on the
//! store's Akima models), 35 % `ingest` and 5 % `lookup`. Ingests go
//! to 8 hot fingerprints that belong to half the jobs only, so about
//! half the partition queries hit the plan cache and half re-solve.
//!
//! The traced run replays the same scripts in-process against a fresh
//! `ModelStore`, interleaved round-robin, timing
//! `protocol::parse_request`, each `ModelStore` op and the partitioner
//! passed to `ModelStore::partition`; the TCP run's client latencies
//! are split with one scrape of the daemon's `/metrics` before and
//! after the scripts.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use fupermod_core::model::Model;
use fupermod_core::partition::{Distribution, Partitioner};
use fupermod_core::CoreError;
use fupermod_store::entry::IngestOutcome;
use fupermod_store::http::http_get;
use fupermod_store::protocol::{json, parse_request, pick_partitioner, Request};
use fupermod_store::{ModelStore, StoreConfig};

use crate::report::Report;
use crate::stats::{median, quantile, Rng, Timer};
use crate::Args;

const FINGERPRINTS: usize = 64;
const HOT: usize = 8;
const JOBS: usize = 8;
const SIZES: usize = 12;
const PRELOAD_REPS: usize = 3;
const CONNECTIONS: usize = 2;
const TOTAL: u64 = 120_000;
const KERNEL: &str = "gemm";
const CONFIG: &str = "perfbench";
/// Requests per second of `--seconds` the scripts are sized for: the
/// script length is fixed by the flags, never by how fast this host is.
const SCRIPT_RATE: f64 = 10_000.0;
/// Traced runs replay scripts half as long: the in-process replay
/// solves every missed partition again.
const TRACED_SCRIPT_SHARE: f64 = 0.5;
const SMOKE_REQUESTS_PER_CONNECTION: usize = 150;
const SETUP_REPS: usize = 5;
/// Relative tolerance between the daemon's and the replay's model
/// times: hot fingerprints take ingests from both connections, whose
/// interleaving over TCP differs from the replay's round-robin, so
/// floating-point sums run in a different order.
const TIME_REL_TOL: f64 = 1e-9;
/// Bound on any single socket read or write, and on the daemon's exit.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// What a request is, for the per-kind latency split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Partition,
    Ingest,
    Lookup,
}

#[derive(Debug, Clone)]
struct Req {
    kind: Kind,
    line: String,
}

/// The inputs generated from the workload seed.
struct Inputs {
    fingerprints: Vec<String>,
    jobs: Vec<Vec<usize>>,
    preload: Vec<String>,
    scripts: Vec<Vec<Req>>,
}

fn sizes() -> [u64; SIZES] {
    std::array::from_fn(|k| (1000.0 * 1.6f64.powi(k as i32)).round() as u64)
}

fn ingest_line(fp: &str, d: u64, t: f64) -> String {
    format!(
        "{{\"op\":\"ingest\",\"fingerprint\":\"{fp}\",\"kernel\":\"{KERNEL}\",\"config\":\"{CONFIG}\",\"d\":{d},\"t\":{t}}}"
    )
}

fn lookup_line(fp: &str) -> String {
    format!("{{\"op\":\"lookup\",\"fingerprint\":\"{fp}\",\"kernel\":\"{KERNEL}\",\"config\":\"{CONFIG}\"}}")
}

fn partition_line(fingerprints: &[String], members: &[usize]) -> String {
    let list: Vec<String> = members
        .iter()
        .map(|&m| format!("\"{}\"", fingerprints[m]))
        .collect();
    format!(
        "{{\"op\":\"partition\",\"fingerprints\":[{}],\"kernel\":\"{KERNEL}\",\"config\":\"{CONFIG}\",\"total\":{TOTAL},\"algorithm\":\"numerical\"}}",
        list.join(",")
    )
}

impl Inputs {
    fn generate(seed: u64, per_connection: usize) -> Self {
        let mut rng = Rng::new(seed, 0x5e7e);
        let fingerprints: Vec<String> = (0..FINGERPRINTS)
            .map(|i| format!("s{seed}-dev{i:02}"))
            .collect();
        // Device i runs d units in d / speed · (1 + d / (d + knee)) s.
        let devices: Vec<(f64, f64)> = (0..FINGERPRINTS)
            .map(|_| (2e5 + 1.8e6 * rng.unit(), 5e3 + 1e5 * rng.unit()))
            .collect();
        let time = |rng: &mut Rng, i: usize, d: u64| {
            let (speed, knee) = devices[i];
            let x = d as f64;
            let noise = 1.0 + 0.04 * (rng.unit() - 0.5);
            let outlier = if rng.unit() < 0.01 { 1.5 } else { 1.0 };
            x / speed * (1.0 + x / (x + knee)) * noise * outlier
        };
        let all: Vec<usize> = (0..FINGERPRINTS).collect();
        let hot = rng.sample(&all, HOT);
        let cold: Vec<usize> = all.iter().copied().filter(|i| !hot.contains(i)).collect();
        let jobs: Vec<Vec<usize>> = (0..JOBS)
            .map(|j| {
                let m = 28 + rng.below(5);
                if j < JOBS / 2 {
                    // Hot jobs: every hot fingerprint plus cold ones,
                    // so nearly every ingest invalidates their plans.
                    let mut members = hot.clone();
                    members.extend(rng.sample(&cold, m - HOT));
                    rng.sample(&members, m)
                } else {
                    rng.sample(&cold, m)
                }
            })
            .collect();
        let sizes = sizes();
        let mut preload = Vec::with_capacity(FINGERPRINTS * SIZES * PRELOAD_REPS);
        for (i, fp) in fingerprints.iter().enumerate() {
            for _ in 0..PRELOAD_REPS {
                for &d in &sizes {
                    preload.push(ingest_line(fp, d, time(&mut rng, i, d)));
                }
            }
        }
        let job_lines: Vec<String> = jobs
            .iter()
            .map(|m| partition_line(&fingerprints, m))
            .collect();
        let scripts = (0..CONNECTIONS)
            .map(|c| {
                let mut rng = Rng::new(seed, 0xc0 + c as u64);
                (0..per_connection)
                    .map(|_| {
                        let u = rng.unit();
                        if u < 0.60 {
                            Req {
                                kind: Kind::Partition,
                                line: job_lines[rng.below(JOBS)].clone(),
                            }
                        } else if u < 0.95 {
                            let i = hot[rng.below(HOT)];
                            let d = sizes[rng.below(SIZES)];
                            Req {
                                kind: Kind::Ingest,
                                line: ingest_line(&fingerprints[i], d, time(&mut rng, i, d)),
                            }
                        } else {
                            Req {
                                kind: Kind::Lookup,
                                line: lookup_line(&fingerprints[rng.below(FINGERPRINTS)]),
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        Self {
            fingerprints,
            jobs,
            preload,
            scripts,
        }
    }
}

/// A lockstep protocol connection whose reads and writes time out,
/// so a stuck daemon fails the run instead of hanging it.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            buf: String::new(),
        })
    }

    fn request(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.buf.trim_end())
    }
}

/// The running daemon; killed and reaped on drop if not shut down.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    metrics_addr: String,
}

impl Daemon {
    fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--metrics-listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // Owned from here on, so every early return kills the child.
        let mut daemon = Self {
            child,
            stdout,
            addr: String::new(),
            metrics_addr: String::new(),
        };
        let mut line = String::new();
        while daemon.addr.is_empty() {
            line.clear();
            if daemon
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?
                == 0
            {
                return Err("the daemon exited before listening".to_owned());
            }
            if let Some(a) = line.trim().strip_prefix("metrics on ") {
                daemon.metrics_addr = a.to_owned();
            } else if let Some(a) = line.trim().strip_prefix("listening on ") {
                daemon.addr = a.to_owned();
            }
        }
        if daemon.metrics_addr.is_empty() {
            return Err("the daemon printed no metrics address".to_owned());
        }
        Ok(daemon)
    }

    /// Sends `shutdown` on a fresh connection and waits for the exit,
    /// killing the daemon if it has not exited after [`EXIT_TIMEOUT`].
    /// Every client connection must be closed first: the daemon joins
    /// each connection's thread, and a thread blocks reading its open
    /// connection, so one idle open connection blocks shutdown.
    fn shutdown(mut self) -> Result<(), String> {
        let sent = Conn::open(&self.addr).and_then(|mut c| {
            c.request("{\"op\":\"shutdown\"}")
                .map(|r| r.contains("\"ok\":true"))
        });
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && matches!(sent, Ok(true)) => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("daemon shutdown: sent {sent:?}, exit {status}"))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("the daemon did not exit after shutdown; killed".to_owned()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }

    /// Sum of `served_request_duration_seconds_sum` over every op.
    fn served_seconds(&self) -> Result<f64, String> {
        let (status, body) =
            http_get(&self.metrics_addr, "/metrics").map_err(|e| format!("scrape: {e}"))?;
        if status != 200 {
            return Err(format!("scrape: HTTP {status}"));
        }
        Ok(body
            .lines()
            .filter(|l| l.starts_with("served_request_duration_seconds_sum{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Builds the release daemon from this checkout and returns its path.
fn daemon_binary() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark package has no parent directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "fupermod_served",
            "--message-format=json",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building fupermod_served failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-artifact\""))
        .find_map(|l| {
            let (_, rest) = l.split_once("\"executable\":\"")?;
            let path = &rest[..rest.find('"')?];
            path.ends_with("fupermod_served")
                .then(|| PathBuf::from(path))
        })
        .ok_or_else(|| "cargo reported no fupermod_served executable".to_owned())
}

/// One response, as the client loop sees it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    cached: bool,
    seconds: f64,
}

/// What one connection saw.
#[derive(Debug, Default)]
struct ConnResult {
    samples: Vec<Sample>,
    failed: u64,
    problems: Vec<String>,
}

/// Sum of the `ds` array of a partition response.
fn ds_sum(response: &str) -> Option<u64> {
    let (_, rest) = response.split_once("\"ds\":[")?;
    let body = &rest[..rest.find(']')?];
    body.split(',').map(|v| v.parse::<u64>().ok()).sum()
}

fn drive(addr: &str, script: &[Req]) -> ConnResult {
    let mut out = ConnResult {
        samples: Vec::with_capacity(script.len()),
        ..ConnResult::default()
    };
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failed = script.len() as u64;
            out.problems.push(format!("connect: {e}"));
            return out;
        }
    };
    for (i, req) in script.iter().enumerate() {
        let start = Instant::now();
        let response = match conn.request(&req.line) {
            Ok(r) => r,
            Err(e) => {
                // The connection is gone: the rest of the script fails.
                out.failed += (script.len() - i) as u64;
                out.problems.push(format!("request {i}: {e}"));
                return out;
            }
        };
        let seconds = start.elapsed().as_secs_f64();
        if !response.starts_with("{\"ok\":true") {
            out.failed += 1;
            continue;
        }
        let cached = response.contains("\"cached\":true");
        if req.kind == Kind::Partition && ds_sum(response) != Some(TOTAL) {
            out.problems.push(format!(
                "request {i}: partition sizes do not sum to {TOTAL}: {response}"
            ));
        }
        out.samples.push(Sample {
            kind: req.kind,
            cached,
            seconds,
        });
    }
    out
}

/// Spawns a daemon and preloads it over one connection.
fn set_up(bin: &Path, inputs: &Inputs) -> Result<Daemon, String> {
    let daemon = Daemon::spawn(bin)?;
    let mut conn = Conn::open(&daemon.addr).map_err(|e| format!("preload connect: {e}"))?;
    for line in &inputs.preload {
        let r = conn.request(line).map_err(|e| format!("preload: {e}"))?;
        if !r.starts_with("{\"ok\":true") {
            return Err(format!("preload rejected: {r}"));
        }
    }
    Ok(daemon)
}

/// Calls timed by the traced in-process replay.
#[derive(Debug, Default)]
struct Layers {
    parse: Timer,
    ingest: Timer,
    lookup: Timer,
    partition: Timer,
    solve: Timer,
    outcomes: [u64; 3],
    plan_hits: u64,
}

struct TimedPartitioner<'a> {
    inner: Box<dyn Partitioner>,
    timer: &'a Timer,
}

impl Partitioner for TimedPartitioner<'_> {
    fn partition(&self, total: u64, models: &[&dyn Model]) -> Result<Distribution, CoreError> {
        self.timer.time(|| self.inner.partition(total, models))
    }
}

/// Replays the preload, then the scripts interleaved round-robin,
/// against a fresh store. Untimed, only the ingests are replayed (they
/// alone change the models); timed, every request is.
fn replay(inputs: &Inputs, mut layers: Option<&mut Layers>) -> Result<ModelStore, String> {
    let store = ModelStore::new(StoreConfig::default());
    for line in &inputs.preload {
        ingest(&store, line)?;
    }
    let longest = inputs.scripts.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for req in inputs.scripts.iter().filter_map(|s| s.get(i)) {
            match layers.as_deref_mut() {
                Some(l) => replay_timed(&store, &req.line, l)?,
                None if req.kind == Kind::Ingest => ingest(&store, &req.line)?,
                None => {}
            }
        }
    }
    Ok(store)
}

fn ingest(store: &ModelStore, line: &str) -> Result<(), String> {
    match parse_request(line) {
        Ok(Request::Ingest { key, d, t }) => store
            .ingest_sample(&key, d, t)
            .map(drop)
            .map_err(|e| format!("replay ingest: {e}")),
        other => Err(format!("replay: not an ingest: {other:?}")),
    }
}

fn replay_timed(store: &ModelStore, line: &str, l: &mut Layers) -> Result<(), String> {
    let request = l
        .parse
        .time(|| parse_request(line))
        .map_err(|e| format!("replay parse: {e}"))?;
    match &request {
        Request::Ingest { key, d, t } => {
            let (outcome, _) = l
                .ingest
                .time(|| store.ingest_sample(key, *d, *t))
                .map_err(|e| format!("replay ingest: {e}"))?;
            l.outcomes[match outcome {
                IngestOutcome::Patched => 0,
                IngestOutcome::Rebuilt => 1,
                IngestOutcome::FallbackRebuilt => 2,
            }] += 1;
        }
        Request::Lookup { key } => {
            l.lookup
                .time(|| store.lookup(key))
                .ok_or("replay lookup: unknown key")?;
        }
        Request::Partition {
            keys,
            total,
            algorithm,
        } => {
            let partitioner = TimedPartitioner {
                inner: pick_partitioner(algorithm).map_err(|e| e.to_string())?,
                timer: &l.solve,
            };
            let (_, cached) = l
                .partition
                .time(|| store.partition(keys, *total, &partitioner, algorithm))
                .map_err(|e| format!("replay partition: {e}"))?;
            l.plan_hits += u64::from(cached);
        }
        other => return Err(format!("replay: unexpected request {other:?}")),
    }
    Ok(())
}

/// Checks after the scripts drained: a repeated query per job answers
/// from cache with the same sizes, and every fingerprint's model
/// matches the replay's.
fn final_checks(
    daemon: &Daemon,
    inputs: &Inputs,
    replayed: &ModelStore,
    report: &mut Report,
) -> Result<(), String> {
    let mut conn = Conn::open(&daemon.addr).map_err(|e| format!("final connect: {e}"))?;
    for (j, members) in inputs.jobs.iter().enumerate() {
        let line = partition_line(&inputs.fingerprints, members);
        let first = conn.request(&line).map_err(|e| e.to_string())?.to_owned();
        let second = conn.request(&line).map_err(|e| e.to_string())?.to_owned();
        report.attempted += 2;
        report.failed += [&first, &second]
            .iter()
            .filter(|r| !r.starts_with("{\"ok\":true"))
            .count() as u64;
        let ds = |r: &str| {
            r.split_once("\"ds\":")
                .map(|(_, rest)| rest.split(']').next().unwrap_or("").to_owned())
        };
        report.check(second.contains("\"cached\":true") && ds(&first).is_some() && ds(&first) == ds(&second), || {
            format!("job {j}: the repeated query was not a cache hit with the same sizes: {first} / {second}")
        });
    }
    for fp in &inputs.fingerprints {
        let response = conn
            .request(&lookup_line(fp))
            .map_err(|e| e.to_string())?
            .to_owned();
        report.attempted += 1;
        let key = fupermod_store::StoreKey::new(fp.clone(), KERNEL.to_owned(), CONFIG.to_owned());
        let served = json::parse_flat_object(&response)
            .ok()
            .filter(|f| matches!(f.first(), Some((k, json::Value::Bool(true))) if k == "ok"));
        let Some(fields) = served else {
            report.failed += 1;
            continue;
        };
        let nums = |name: &str| {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| match v {
                    json::Value::NumArray(a) => Some(a.clone()),
                    _ => None,
                })
        };
        let (epoch, points) = replayed.lookup(&key).ok_or("replay lacks a fingerprint")?;
        let close = |a: f64, b: f64| (a - b).abs() <= TIME_REL_TOL * a.abs().max(b.abs());
        let matches = json::get_u64(&fields, "epoch").ok() == Some(epoch)
            && nums("ds") == Some(points.iter().map(|p| p.d as f64).collect())
            && nums("reps") == Some(points.iter().map(|p| f64::from(p.reps)).collect())
            && nums("ts").is_some_and(|ts| {
                ts.len() == points.len() && ts.iter().zip(&points).all(|(&t, p)| close(t, p.t))
            })
            && nums("cis").is_some_and(|cs| {
                cs.len() == points.len() && cs.iter().zip(&points).all(|(&c, p)| close(c, p.ci))
            });
        report.check(matches, || {
            format!("{fp}: the daemon's model differs from the in-process replay: {response}")
        });
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let bin = daemon_binary()?;
    let per_connection = if args.smoke {
        SMOKE_REQUESTS_PER_CONNECTION
    } else {
        let share = if args.trace { TRACED_SCRIPT_SHARE } else { 1.0 };
        ((args.seconds * SCRIPT_RATE * share) as usize / CONNECTIONS).max(1)
    };
    let inputs = Inputs::generate(args.seed, per_connection);
    let mut report = Report::new();
    report.note("requests_per_connection", per_connection);
    report.note("connections", CONNECTIONS);

    // Set-up, several times: spawn and preload; all but the last
    // daemon are shut down again.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let start = Instant::now();
        daemon = Some(set_up(&bin, &inputs)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one set-up");

    let served_before = if args.trace {
        daemon.served_seconds()?
    } else {
        0.0
    };
    let start = Instant::now();
    let addr = daemon.addr.as_str();
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .scripts
            .iter()
            .map(|script| s.spawn(move || drive(addr, script)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let served = if args.trace {
        daemon.served_seconds()? - served_before
    } else {
        0.0
    };

    let samples: Vec<Sample> = results
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    report.attempted += inputs.scripts.iter().map(|s| s.len() as u64).sum::<u64>();
    report.failed += results.iter().map(|r| r.failed).sum::<u64>();
    for r in &results {
        for p in &r.problems {
            report.check(false, || p.clone());
        }
    }

    let mut layers = Layers::default();
    let replay_start = Instant::now();
    let replayed = replay(&inputs, args.trace.then_some(&mut layers))?;
    let replay_wall = replay_start.elapsed().as_secs_f64();
    final_checks(&daemon, &inputs, &replayed, &mut report)?;
    daemon.shutdown()?;

    let ms = |pred: &dyn Fn(&Sample) -> bool| -> (f64, usize) {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| pred(s))
            .map(|s| s.seconds)
            .collect();
        (median(&v) * 1e3, v.len())
    };
    let hit = ms(&|s| s.kind == Kind::Partition && s.cached);
    let miss = ms(&|s| s.kind == Kind::Partition && !s.cached);
    let ingest = ms(&|s| s.kind == Kind::Ingest);
    if args.trace {
        let client_s: f64 = samples.iter().map(|s| s.seconds).sum();
        report.timing("client.partition_hit_p50_ms", hit.0, "ms", hit.1);
        report.timing("client.partition_miss_p50_ms", miss.0, "ms", miss.1);
        report.timing("client.ingest_p50_ms", ingest.0, "ms", ingest.1);
        report.calls("store.protocol.calls", &layers.parse);
        report.busy("store.protocol.parse_busy_s", &layers.parse);
        report.busy("store.ingest.busy_s", &layers.ingest);
        let [patched, rebuilt, fallback] = layers.outcomes.map(|n| n as f64);
        report.metric("store.refresh.patched", patched, "count");
        report.metric("store.refresh.rebuilt", rebuilt, "count");
        report.metric("store.refresh.fallback", fallback, "count");
        report.busy("store.partition.busy_s", &layers.partition);
        let partitions = layers.partition.calls().max(1) as f64;
        report.metric(
            "store.plan.hit_ratio",
            layers.plan_hits as f64 / partitions,
            "ratio",
        );
        report.busy("store.lookup.busy_s", &layers.lookup);
        report.calls("core.partition.calls", &layers.solve);
        report.busy("core.partition.busy_s", &layers.solve);
        report.p50("core.partition.p50_ms", &layers.solve);
        report.timing("store.server.busy_s", served, "s", samples.len());
        report.timing("store.server.self_s", client_s - served, "s", samples.len());
        report.timing("bench.traced_wall_s", replay_wall, "s", 1);
        report.check(served <= client_s, || {
            format!("the daemon's busy time {served} s exceeds the client latency sum {client_s} s")
        });
    } else {
        let lat: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
        report.timing("setup_s", median(&setups), "s", setups.len());
        report.timing(
            "ops_per_s",
            samples.len() as f64 / wall,
            "1/s",
            samples.len(),
        );
        report.timing("latency_p50_ms", quantile(&lat, 0.5) * 1e3, "ms", lat.len());
        report.timing("latency_p90_ms", quantile(&lat, 0.9) * 1e3, "ms", lat.len());
        report.note("drain_s", wall);
        report.note(
            "latency_p99_ms",
            format!("{} ({} samples)", quantile(&lat, 0.99) * 1e3, lat.len()),
        );
        report.note(
            "partition_hit_p50_ms",
            format!("{} ({} samples)", hit.0, hit.1),
        );
        report.note(
            "partition_miss_p50_ms",
            format!("{} ({} samples)", miss.0, miss.1),
        );
        report.note(
            "ingest_p50_ms",
            format!("{} ({} samples)", ingest.0, ingest.1),
        );
    }
    Ok(report)
}

//! The TCP serving loop behind `fupermod_served`.
//!
//! One OS thread per connection (the multi-tenant model of the rest
//! of the runtime layer), line-delimited JSON requests answered in
//! lockstep on the same stream. A `shutdown` request flips a shared
//! flag; the accept loop polls it between (non-blocking) accepts,
//! then shuts the read half of every open connection, so each handler
//! flushes its in-flight response, reads EOF and ends — an idle
//! client cannot keep the daemon alive. A request line longer than
//! [`MAX_LINE`] gets a `line too long` error and the connection
//! closes, so one client cannot make the daemon buffer without bound.
//!
//! Every request is wrapped in a telemetry span recorded into the
//! store's registry: `served_requests_total{op,outcome}`,
//! `served_request_duration_seconds{op}` latency histograms and
//! `served_bytes_total{direction}` — the series `GET /metrics`
//! exposes (see [`crate::http`]). Requests slower than the
//! configurable [`ServeOptions::slow_request`] threshold are logged
//! to stderr.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fupermod_core::telemetry::{Counter, Histogram, Registry};

use crate::protocol::{self, Request};
use crate::store::ModelStore;
use crate::StoreError;

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Longest request line the daemon reads, bytes, newline excluded
/// (the longest line of the mixed serving benchmark is about 2 KB).
pub const MAX_LINE: usize = 1 << 20;

/// Request op tags the per-request telemetry is keyed by: the
/// protocol ops plus `invalid` for lines that fail to parse.
pub const REQUEST_OPS: [&str; 7] = [
    "ingest",
    "ingest_point",
    "lookup",
    "partition",
    "stats",
    "shutdown",
    "invalid",
];

/// Tuning knobs of the serving loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// Log requests slower than this to stderr (`None` disables the
    /// slow-request log).
    pub slow_request: Option<Duration>,
}

/// Pre-registered per-request telemetry handles (one registration at
/// startup; the per-request hot path never takes the registry lock).
#[derive(Debug, Clone)]
struct RequestSpans {
    /// `[ok, error]` counters per [`REQUEST_OPS`] entry.
    requests: Vec<[Counter; 2]>,
    /// Latency histogram per [`REQUEST_OPS`] entry.
    durations: Vec<Histogram>,
    bytes_in: Counter,
    bytes_out: Counter,
}

impl RequestSpans {
    fn new(registry: &Registry) -> Self {
        let requests = REQUEST_OPS
            .iter()
            .map(|op| {
                ["ok", "error"].map(|outcome| {
                    registry.counter(
                        "served_requests_total",
                        "Requests handled, by op and outcome.",
                        &[("op", op), ("outcome", outcome)],
                    )
                })
            })
            .collect();
        let durations = REQUEST_OPS
            .iter()
            .map(|op| {
                registry.histogram(
                    "served_request_duration_seconds",
                    "Request handling latency (parse + execute + respond), by op.",
                    &[("op", op)],
                )
            })
            .collect();
        Self {
            requests,
            durations,
            bytes_in: registry.counter(
                "served_bytes_total",
                "Protocol bytes moved, by direction.",
                &[("direction", "in")],
            ),
            bytes_out: registry.counter(
                "served_bytes_total",
                "Protocol bytes moved, by direction.",
                &[("direction", "out")],
            ),
        }
    }

    fn op_index(op: &str) -> usize {
        REQUEST_OPS.iter().position(|&o| o == op).unwrap_or(REQUEST_OPS.len() - 1)
    }
}

/// Runs the serving loop on `listener` until a client sends
/// `shutdown` (or `stop` is flipped externally), with default
/// options. Blocks the calling thread; connection handlers run on
/// their own threads. On shutdown each open connection's read half
/// is closed and its handler joined, so every in-flight response is
/// flushed and idle clients do not hold the daemon open.
///
/// # Errors
///
/// Propagates listener I/O errors (per-connection errors only end
/// that connection).
pub fn serve(
    listener: TcpListener,
    store: Arc<ModelStore>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    serve_with(listener, store, stop, ServeOptions::default())
}

/// [`serve`] with explicit [`ServeOptions`].
///
/// # Errors
///
/// Propagates listener I/O errors (per-connection errors only end
/// that connection).
pub fn serve_with(
    listener: TcpListener,
    store: Arc<ModelStore>,
    stop: Arc<AtomicBool>,
    options: ServeOptions,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let spans = RequestSpans::new(store.registry());
    let mut handles = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Out of descriptors: drop (close) the connection.
                let Ok(read_half) = stream.try_clone() else { continue };
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                let spans = spans.clone();
                let handle = thread::spawn(move || {
                    let _ = handle_connection(stream, &store, &stop, &spans, options);
                });
                handles.push((handle, read_half));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(e) => return Err(e),
        }
        // Reap finished handlers so a long-lived daemon does not
        // accumulate join handles.
        handles.retain(|(h, _)| !h.is_finished());
    }
    for (_, read_half) in &handles {
        let _ = read_half.shutdown(Shutdown::Read);
    }
    for (h, _) in handles {
        let _ = h.join();
    }
    Ok(())
}

fn handle_connection(
    stream: TcpStream,
    store: &ModelStore,
    stop: &AtomicBool,
    spans: &RequestSpans,
    options: ServeOptions,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE as u64 + 1; // + newline
        if (&mut reader).take(limit).read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let too_long = buf.len() as u64 == limit && buf.last() != Some(&b'\n');
        let started = Instant::now();
        let parsed = if too_long {
            Err(StoreError::Protocol(format!("line too long (limit {MAX_LINE} bytes)")))
        } else {
            let line = std::str::from_utf8(&buf)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            if line.trim().is_empty() {
                continue;
            }
            protocol::parse_request(line)
        };
        spans.bytes_in.add(buf.len() as u64);
        let (op, response, is_shutdown) = match parsed {
            Ok(request) => {
                let is_shutdown = request == Request::Shutdown;
                (request.op(), protocol::handle(store, &request), is_shutdown)
            }
            Err(e) => ("invalid", protocol::error_line(&e), false),
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        spans.bytes_out.add(response.len() as u64 + 1);
        let elapsed = started.elapsed();
        let i = RequestSpans::op_index(op);
        let ok = response.starts_with("{\"ok\":true");
        spans.requests[i][usize::from(!ok)].inc();
        spans.durations[i].record(elapsed.as_secs_f64());
        if let Some(threshold) = options.slow_request {
            if elapsed > threshold {
                eprintln!(
                    "slow request: op={op} took {:.3} ms (threshold {:.3} ms)",
                    elapsed.as_secs_f64() * 1e3,
                    threshold.as_secs_f64() * 1e3,
                );
            }
        }
        if is_shutdown {
            stop.store(true, Ordering::SeqCst);
            break;
        }
        if too_long {
            // Consume a bounded part of the rest of the line, so the
            // close does not reset the connection under the reply.
            let _ = (&mut reader).take(limit).skip_until(b'\n');
            break;
        }
    }
    Ok(())
}

/// A client connection: sends one request line at a time and reads
/// the matching response line (the protocol is strictly lockstep per
/// connection).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection I/O errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and returns the response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; an empty response (peer closed) maps to
    /// [`std::io::ErrorKind::UnexpectedEof`].
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(response.trim_end_matches('\n').to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    /// End-to-end over a real socket: two concurrent clients stream
    /// into different entries, then one queries a partition and shuts
    /// the daemon down; serve() must return.
    #[test]
    fn serves_concurrent_clients_and_shuts_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let store = Arc::new(ModelStore::new(StoreConfig::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
            thread::spawn(move || serve(listener, store, stop))
        };

        let feeders: Vec<_> = (0..2)
            .map(|r| {
                thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for d in [100u64, 400, 900] {
                        let t = d as f64 * 1e-3 * (r + 1) as f64;
                        let line = format!(
                            "{{\"op\":\"ingest\",\"fingerprint\":\"dev{r}\",\"kernel\":\"gemm\",\"config\":\"c\",\"d\":{d},\"t\":{t}}}"
                        );
                        let resp = client.request(&line).unwrap();
                        assert!(resp.contains("\"ok\":true"), "{resp}");
                    }
                })
            })
            .collect();
        for f in feeders {
            f.join().unwrap();
        }

        let mut client = Client::connect(addr).unwrap();
        let resp = client
            .request(r#"{"op":"partition","fingerprints":["dev0","dev1"],"kernel":"gemm","config":"c","total":1000,"algorithm":"geometric"}"#)
            .unwrap();
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"cached\":false"), "{resp}");
        let again = client
            .request(r#"{"op":"partition","fingerprints":["dev0","dev1"],"kernel":"gemm","config":"c","total":1000,"algorithm":"geometric"}"#)
            .unwrap();
        assert!(again.contains("\"cached\":true"), "{again}");
        let resp = client.request(r#"{"op":"shutdown"}"#).unwrap();
        assert!(resp.contains("\"shutting_down\":true"), "{resp}");
        server.join().unwrap().unwrap();
        assert_eq!(store.len(), 2);
    }

    /// An idle connection must not keep the daemon alive after
    /// `shutdown`: serve() returns while the idle client still holds
    /// its socket open.
    #[test]
    fn shutdown_returns_with_an_idle_client_connected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let store = Arc::new(ModelStore::new(StoreConfig::default()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let server = thread::spawn(move || {
            let served = serve(listener, store, Arc::new(AtomicBool::new(false)));
            let _ = done_tx.send(served.is_ok());
        });
        let mut idle = Client::connect(addr).unwrap();
        assert!(idle.request(r#"{"op":"stats"}"#).unwrap().contains("\"ok\":true"));
        let resp = Client::connect(addr).unwrap().request(r#"{"op":"shutdown"}"#).unwrap();
        assert!(resp.contains("\"shutting_down\":true"), "{resp}");
        let returned = done_rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(returned, Ok(true), "serve() still running with an idle client open");
        server.join().unwrap();
        // The idle connection was closed under the client.
        assert!(idle.request(r#"{"op":"stats"}"#).is_err());
    }
}

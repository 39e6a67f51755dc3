//! A minimal hand-rolled HTTP/1.1 listener for the observability
//! plane of `fupermod_served`: `GET /metrics` (Prometheus text
//! exposition 0.0.4), `GET /healthz` (liveness) and `GET /readyz`
//! (readiness).
//!
//! Deliberately tiny and std-only — no routing table, no keep-alive
//! tuning, no TLS. It answers exactly three GET paths, closes the
//! connection after each response (`Connection: close`), and ignores
//! request headers and bodies. A request head longer than
//! [`MAX_HEAD`] gets `431` and the connection closes. That is all a scraper needs, and it
//! keeps the daemon's dependency budget at zero.
//!
//! The accept loop mirrors [`crate::server`]: non-blocking accepts
//! polling a shared stop flag, one short-lived thread per connection.
//! Liveness (`/healthz`) is "the listener thread is turning"; it
//! stays 200 until the process exits. Readiness (`/readyz`) is "the
//! daemon will still answer protocol requests": it turns 503 once
//! shutdown begins or if a store shard mutex has been poisoned.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::store::ModelStore;

/// How often the accept loop re-checks the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Per-connection socket timeout: a scraper that stalls mid-request
/// must not pin a handler thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request head (request line and headers) the listener
/// reads, bytes.
pub const MAX_HEAD: u64 = 8 * 1024;

/// Content type of the Prometheus text exposition format.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Runs the metrics/health listener until `stop` is set. Blocks the
/// calling thread (spawn it next to the protocol `serve` loop);
/// handler threads are joined before returning.
///
/// # Errors
///
/// Propagates listener I/O errors (per-connection errors only end
/// that connection).
pub fn serve_http(
    listener: TcpListener,
    store: Arc<ModelStore>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut handles = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                handles.push(thread::spawn(move || {
                    let _ = handle_connection(stream, &store, &stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(e) => return Err(e),
        }
        handles.retain(|h| !h.is_finished());
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

fn handle_connection(
    stream: TcpStream,
    store: &ModelStore,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream.take(MAX_HEAD));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain (and ignore) headers up to the blank line so the peer is
    // not left with an unread buffer when we close.
    let mut header = String::new();
    let complete = loop {
        header.clear();
        if reader.read_line(&mut header)? == 0 {
            break false;
        }
        if header == "\r\n" || header == "\n" {
            break true;
        }
    };
    let too_large = !complete && reader.get_ref().limit() == 0;

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or("");
    let (status, content_type, body) = if too_large {
        (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "request head too large\n".to_owned(),
        )
    } else if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_owned(),
        )
    } else {
        match path {
            "/metrics" => {
                store.refresh_gauges();
                let text = store.registry().snapshot().render_prometheus();
                ("200 OK", METRICS_CONTENT_TYPE, text)
            }
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned()),
            "/readyz" => {
                if stop.load(Ordering::SeqCst) {
                    (
                        "503 Service Unavailable",
                        "text/plain; charset=utf-8",
                        "shutting down\n".to_owned(),
                    )
                } else if !store.responsive() {
                    (
                        "503 Service Unavailable",
                        "text/plain; charset=utf-8",
                        "store unresponsive\n".to_owned(),
                    )
                } else {
                    ("200 OK", "text/plain; charset=utf-8", "ready\n".to_owned())
                }
            }
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_owned(),
            ),
        }
    };
    write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    writer.write_all(body.as_bytes())?;
    writer.flush()?;
    if too_large {
        // Lingering close: drain a bounded part of the unread head, so
        // the close does not reset the connection under the reply.
        writer.shutdown(Shutdown::Write)?;
        let mut rest = reader.into_inner().into_inner().take(1 << 20);
        std::io::copy(&mut rest, &mut std::io::sink())?;
    }
    Ok(())
}

/// A one-shot HTTP GET over a fresh connection, for scripts and gates
/// that must not depend on `curl` being installed. Returns
/// `(status_code, body)`.
///
/// # Errors
///
/// Propagates I/O errors and malformed status lines.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no header/body separator")
        })?;
    let status = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    Ok((status, body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    fn start() -> (String, Arc<ModelStore>, Arc<AtomicBool>, thread::JoinHandle<std::io::Result<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let store = Arc::new(ModelStore::new(StoreConfig::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
            thread::spawn(move || serve_http(listener, store, stop))
        };
        (addr, store, stop, handle)
    }

    #[test]
    fn serves_health_metrics_and_readiness() {
        let (addr, store, stop, handle) = start();

        let (code, body) = http_get(&addr, "/healthz").unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        let (code, body) = http_get(&addr, "/readyz").unwrap();
        assert_eq!((code, body.as_str()), (200, "ready\n"));

        let key = crate::StoreKey::new("dev0", "gemm", "c");
        for (d, t) in [(100u64, 0.1), (200, 0.2), (400, 0.4)] {
            store.ingest_sample(&key, d, t).unwrap();
        }
        let (code, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        assert!(
            body.contains("# TYPE store_entries gauge"),
            "missing store_entries family:\n{body}"
        );
        assert!(body.contains("store_entries 1"), "body:\n{body}");
        assert!(
            body.contains("uptime_seconds"),
            "missing uptime gauge:\n{body}"
        );

        let (code, _) = http_get(&addr, "/nope").unwrap();
        assert_eq!(code, 404);

        // Once the stop flag flips, readiness fails while liveness is
        // still answered by in-flight handler threads. The accept loop
        // itself exits, so probe readiness on a connection raced in
        // before the listener closes — simplest is to flip, probe, and
        // accept either 503 or a refused connection.
        stop.store(true, Ordering::SeqCst);
        // A refused connection means the listener is already gone —
        // also "not ready"; only a served response must be a 503.
        if let Ok((code, _)) = http_get(&addr, "/readyz") {
            assert_eq!(code, 503);
        }
        handle.join().unwrap().unwrap();
    }
}

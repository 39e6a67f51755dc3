//! Hostile input on every JSON decoder: arbitrary bytes, single-byte
//! mutations of valid lines and deep nesting must each come back as
//! an `Err` or a value, never as a panic or a stack overflow. Over-long
//! lines on both daemon listeners get a bounded read, an error reply
//! and a closed connection.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fupermod::core::json;
use fupermod::core::trace::TraceEvent;
use fupermod::runtime::FaultPlan;
use fupermod::store::protocol::parse_request;
use fupermod::store::server::{serve, Client, MAX_LINE};
use fupermod::store::{http, ModelStore, StoreConfig};
use proptest::prelude::*;

/// One valid input per decoder and shape: the mutation seeds.
const VALID: &[&str] = &[
    r#"{"op":"ingest_point","fingerprint":"fé","kernel":"k","config":"c","d":100,"t":0.5,"reps":3,"ci":1e-3}"#,
    r#"{"op":"partition","fingerprints":["a","é"],"kernel":"k","config":"c","total":1000,"algorithm":"numerical"}"#,
    r#"{"event":"partition_step","iter":2,"dist":[7,3],"imbalance":null,"units_moved":1}"#,
    r#"{"event":"metrics","rank":0,"scope":"s","count":1,"sum":1e9999,"kind":"histogram","labels":"op=x","buckets":[0,1]}"#,
    r#"{"deadline": 2.5, "drops": [{"dst": 3, "every": 3}], "deaths": [{"rank": 2, "after_ops": 10}]}"#,
];

/// Runs `text` through every decoder; a panic fails the calling test.
fn decode_all(text: &str) {
    let _ = json::parse(text);
    let _ = parse_request(text);
    let _ = TraceEvent::from_jsonl(text);
    let _ = FaultPlan::from_json(text);
}

#[test]
fn mutation_seeds_are_valid() {
    assert!(VALID.iter().all(|line| json::parse(line).is_ok()));
    assert!(parse_request(VALID[0]).is_ok() && parse_request(VALID[1]).is_ok());
    assert!(TraceEvent::from_jsonl(VALID[2]).is_ok() && TraceEvent::from_jsonl(VALID[3]).is_ok());
    assert!(FaultPlan::from_json(VALID[4]).is_ok());
}

#[test]
fn deep_nesting_is_an_error_not_an_abort() {
    for open in ["[", "{\"k\":"] {
        let deep = open.repeat(100_000);
        assert!(json::parse(&deep).is_err());
        assert!(parse_request(&deep).is_err());
        assert!(TraceEvent::from_jsonl(&deep).is_err());
        assert!(FaultPlan::from_json(&deep).is_err());
    }
}

type ServeFn = fn(TcpListener, Arc<ModelStore>, Arc<AtomicBool>) -> std::io::Result<()>;

/// Runs `serve_fn` on a free local port while `client` talks to it,
/// then stops the listener and checks that it returned cleanly.
fn with_listener(serve_fn: ServeFn, client: impl FnOnce(String)) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let store = Arc::new(ModelStore::new(StoreConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_fn(listener, store, stop))
    };
    client(addr);
    stop.store(true, Ordering::SeqCst);
    server.join().unwrap().unwrap();
}

#[test]
fn over_long_protocol_line_is_refused_and_closes() {
    with_listener(serve, |addr| {
        let mut client = Client::connect(addr).unwrap();
        let line = format!(r#"{{"op":"stats","pad":"{}"}}"#, "x".repeat(MAX_LINE));
        let resp = client.request(&line).unwrap();
        assert!(resp.contains("\"ok\":false") && resp.contains("line too long"), "{resp}");
        assert!(client.request(r#"{"op":"stats"}"#).is_err(), "connection stayed open");
    });
}

#[test]
fn over_long_http_head_gets_431() {
    with_listener(http::serve_http, |addr| {
        let mut stream = TcpStream::connect(addr).unwrap();
        let pad = "x".repeat(16 * 1024);
        write!(stream, "GET /healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 431 "), "{}", &raw[..raw.len().min(200)]);
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255u8, 0..256)) {
        decode_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_valid_lines_never_panic(
        seed in 0usize..VALID.len(),
        at in 0usize..4096,
        byte in 0u8..=255u8,
    ) {
        let mut bytes = VALID[seed].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        decode_all(&String::from_utf8_lossy(&bytes));
    }
}

//! End-to-end tests of the nonblocking reactor entry path against
//! real sockets: wire-level byte identity with golden transcripts of
//! the retired thread-per-connection path, HTTP/1.1 keep-alive and
//! pipelining, protocol-error handling, stalled and torn requests, and
//! a herd of idle connections that must cost nothing and lose nothing.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use noc_svc::{Server, ServiceConfig};

fn config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        http_workers: 2,
        sched_workers: 2,
        queue_capacity: 8,
        cache_capacity: 64,
        ..ServiceConfig::default()
    }
}

fn graph_json(seed: u64, tasks: usize) -> String {
    let platform = noc_svc::spec::parse_platform("mesh:2x2").expect("platform");
    let mut cfg = noc_ctg::prelude::TgffConfig::category_i(seed);
    cfg.task_count = tasks;
    let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
        .generate(&platform)
        .expect("generates");
    serde_json::to_string(&graph).expect("serializes")
}

fn schedule_body(graph: &str, scheduler: &str) -> String {
    format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"{scheduler}"}}"#)
}

fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: noc-svc\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads exactly one HTTP response (headers + `Content-Length` body)
/// off the stream, carrying any pipelined surplus across calls.
fn read_one_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Vec<u8> {
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("reads response");
        assert!(n > 0, "connection closed before a full response");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&carry[..header_end]).into_owned();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length present");
    let total = header_end + 4 + content_length;
    while carry.len() < total {
        let n = stream.read(&mut chunk).expect("reads body");
        assert!(n > 0, "connection closed mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let response = carry[..total].to_vec();
    carry.drain(..total);
    response
}

/// The response with its per-request `X-Noc-Trace` header removed —
/// the one line two runs may legitimately differ in.
fn strip_trace(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes)
        .split("\r\n")
        .filter(|l| !l.starts_with("X-Noc-Trace: "))
        .collect::<Vec<_>>()
        .join("\r\n")
}

/// The golden wire transcript `name`: a response (trace header
/// stripped) recorded from the thread-per-connection entry path this
/// reactor replaced, for the same request on a fresh server.
fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/wire")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One request/response round trip on a fresh raw socket.
fn raw_roundtrip(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(request).expect("writes");
    let mut carry = Vec::new();
    read_one_response(&mut stream, &mut carry)
}

#[test]
fn reactor_and_threaded_paths_answer_identical_wire_bytes() {
    let reactor = Server::start(config()).expect("reactor starts");
    let graph = graph_json(71, 10);
    let requests = [
        post_bytes("/v1/schedule", &schedule_body(&graph, "edf")),
        post_bytes("/v1/schedule", &schedule_body(&graph, "edf")), // cache hit
        post_bytes("/v1/schedule", &schedule_body(&graph, "dls")),
        post_bytes("/v1/validate", "{\"not\":\"a schedule\"}"),
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n".to_vec(),
        b"GET /v1/jobs/feed HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n".to_vec(),
        b"DELETE /v1/schedule HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n".to_vec(),
        b"GET /nowhere HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n".to_vec(),
    ];
    // Status line, headers and body must match the recorded thread-path
    // transcript byte for byte.
    for (i, request) in requests.iter().enumerate() {
        assert_eq!(
            strip_trace(&raw_roundtrip(reactor.addr(), request)),
            golden(&format!("{i:02}.http")),
            "request {i} must answer the recorded wire bytes"
        );
    }
    reactor.shutdown();
}

#[test]
fn pipelined_requests_answer_in_request_order() {
    let server = Server::start(config()).expect("starts");
    // Three schedule requests with distinct answers, written
    // back-to-back before reading anything: responses must come back
    // in request order even though the jobs may finish out of order.
    let bodies: Vec<String> = (0..3)
        .map(|i| schedule_body(&graph_json(100 + i, 10 + (i as usize % 3) * 2), "edf"))
        .collect();
    let mut pipelined = Vec::new();
    for body in &bodies {
        pipelined.extend_from_slice(&post_bytes("/v1/schedule", body));
    }
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(&pipelined).expect("writes all three");
    let mut carry = Vec::new();
    let responses: Vec<Vec<u8>> = (0..3)
        .map(|_| read_one_response(&mut stream, &mut carry))
        .collect();
    drop(stream);
    // Each pipelined answer must equal the answer a dedicated
    // connection gets for the same body — correct pairing, in order.
    for (body, pipelined_response) in bodies.iter().zip(&responses) {
        let fresh = raw_roundtrip(server.addr(), &post_bytes("/v1/schedule", body));
        let strip = |bytes: &[u8]| {
            let text = String::from_utf8_lossy(bytes).into_owned();
            // The fresh response is a cache hit; the schedule bytes and
            // hash must match, the X-Cache label legitimately differs.
            let body_at = text.find("\r\n\r\n").expect("has body") + 4;
            let hash = text
                .lines()
                .find_map(|l| l.strip_prefix("X-Request-Hash: "))
                .expect("hash header")
                .to_owned();
            (hash, text[body_at..].to_owned())
        };
        assert_eq!(
            strip(pipelined_response),
            strip(&fresh),
            "pipelined answers must pair with their requests in order"
        );
    }
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_then_close_closes() {
    let server = Server::start(config()).expect("starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut carry = Vec::new();
    for _ in 0..5 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .expect("writes");
        let response = read_one_response(&mut stream, &mut carry);
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 200"), "got {text}");
        assert!(text.contains("Connection: keep-alive"));
    }
    // `Connection: close` answers once, then the server hangs up.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
        )
        .expect("writes");
    let response = read_one_response(&mut stream, &mut carry);
    assert!(String::from_utf8_lossy(&response).contains("Connection: close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("reads EOF");
    assert!(rest.is_empty(), "server must close after Connection: close");
    server.shutdown();
}

#[test]
fn protocol_errors_answer_and_close_like_the_threaded_path() {
    let reactor = Server::start(config()).expect("starts");
    let oversized = format!(
        "POST /v1/schedule HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        64 * 1024 * 1024
    );
    let garbage = b"NOT A REQUEST AT ALL\r\n\r\n".to_vec();
    for (request, name) in [(oversized.into_bytes(), "08.http"), (garbage, "09.http")] {
        let text = String::from_utf8_lossy(&raw_roundtrip(reactor.addr(), &request)).into_owned();
        assert_eq!(
            text,
            golden(name),
            "protocol errors must answer the recorded wire bytes"
        );
        assert!(
            text.starts_with("HTTP/1.1 413") || text.starts_with("HTTP/1.1 400"),
            "got {text}"
        );
        assert!(text.contains("Connection: close"));
    }
    reactor.shutdown();
}

#[test]
fn stalled_and_torn_requests_close_without_an_answer() {
    let server = Server::start(ServiceConfig {
        io_timeout: Duration::from_millis(300),
        ..config()
    })
    .expect("starts");
    let partial = b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nfi";

    // A peer that stalls mid-request is hung up on at the idle
    // timeout, and is never answered for the bytes it did send.
    let mut stalled = TcpStream::connect(server.addr()).expect("connects");
    stalled
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    stalled.write_all(partial).expect("writes");
    let started = Instant::now();
    let mut rest = Vec::new();
    match stalled.read_to_end(&mut rest) {
        Ok(_) => {}
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "got {e}"),
    }
    assert!(rest.is_empty(), "a stalled request must not be answered");
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "the idle sweep must close the stalled connection"
    );

    // A peer that hangs up mid-request costs nothing: the next
    // connection is served normally.
    let mut torn = TcpStream::connect(server.addr()).expect("connects");
    torn.write_all(partial).expect("writes");
    drop(torn);
    let health = raw_roundtrip(
        server.addr(),
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(String::from_utf8_lossy(&health).starts_with("HTTP/1.1 200"));
    server.shutdown();
}

#[test]
fn a_herd_of_idle_connections_survives_a_working_wave() {
    let server = Server::start(config()).expect("starts");
    // A few hundred idle sockets (the CI-sized stand-in for the 10k
    // loopback gate, which needs a raised fd limit) parked while real
    // requests flow.
    let idle: Vec<TcpStream> = (0..256)
        .map(|i| {
            TcpStream::connect(server.addr()).unwrap_or_else(|e| panic!("idle connection {i}: {e}"))
        })
        .collect();
    let graph = graph_json(9, 10);
    let reference = raw_roundtrip(
        server.addr(),
        &post_bytes("/v1/schedule", &schedule_body(&graph, "edf")),
    );
    assert!(String::from_utf8_lossy(&reference).starts_with("HTTP/1.1 200"));
    // The reactor reports the herd on its connections gauge.
    let metrics = String::from_utf8_lossy(&raw_roundtrip(
        server.addr(),
        b"GET /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    ))
    .into_owned();
    let open: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("noc_svc_reactor_connections "))
        .and_then(|v| v.trim().parse().ok())
        .expect("reactor gauge present");
    assert!(open >= 256, "gauge reports {open}, herd is 256");
    // Every idle socket is still a usable keep-alive connection.
    for (i, mut stream) in idle.into_iter().enumerate() {
        if i % 64 != 0 {
            continue; // probe a sample; dropping the rest closes them
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .expect("idle socket writes");
        let response = read_one_response(&mut stream, &mut Vec::new());
        assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200"));
    }
    server.shutdown();
}

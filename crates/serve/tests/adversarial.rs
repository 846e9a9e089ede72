//! Hostile clients: whatever one connection sends, the server stays up,
//! its memory stays bounded, and other connections keep being served.

// Test helpers may unwrap (clippy's allow-unwrap-in-tests does not
// reach helper fns in integration-test files).
#![allow(clippy::unwrap_used)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use ugpc_control::{ControllerSpec, ObjectiveKind};
use ugpc_core::RunConfig;
use ugpc_hwsim::{OpKind, PlatformId, Precision, Watts};
use ugpc_serve::protocol::{decode, encode};
use ugpc_serve::{
    error_code, Client, Request, Response, RunRequest, ServeOptions, Server, TraceCtx,
    MAX_LINE_BYTES,
};

#[test]
fn the_largest_batch_line_is_far_below_the_line_limit() {
    let mut run = RunRequest::new(
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Potrf, Precision::Double)
            .with_cpu_cap(0, Watts(100.0)),
    );
    run.controller = Some(ControllerSpec::new(ObjectiveKind::PerfFloor).with_perf_floor(0.9));
    run.trace = Some(TraceCtx {
        trace_id: u64::MAX,
        span_id: u64::MAX,
    });
    let line = encode(&Request::Batch(vec![run; 64]));
    assert!(line.len() * 8 < MAX_LINE_BYTES, "{} bytes", line.len());
}

#[test]
fn an_endless_line_is_refused_and_closed_while_others_are_served() {
    let handle = Server::bind("127.0.0.1:0", ServeOptions::default())
        .unwrap()
        .spawn();
    let mut bystander = Client::connect(handle.addr()).unwrap();
    bystander.ping().unwrap();

    let mut hostile = TcpStream::connect(handle.addr()).unwrap();
    hostile
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0;
    while sent <= MAX_LINE_BYTES {
        let n = chunk.len().min(MAX_LINE_BYTES + 1 - sent);
        hostile.write_all(&chunk[..n]).unwrap();
        sent += n;
        bystander.ping().unwrap();
    }

    hostile
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match decode::<Response>(line.trim_end()).unwrap() {
        Response::Error(e) => assert_eq!(e.code, error_code::BAD_REQUEST, "{e:?}"),
        other => panic!("expected bad_request, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).unwrap(),
        0,
        "EOF after the error"
    );

    bystander.ping().unwrap();
    handle.stop();
}

//! Helpers shared by the observability test binaries: an in-process server
//! on an ephemeral port, and the cross-check of the server's latency
//! histogram against the latencies its clients observe.

use std::time::{Duration, Instant};

use serde::Value;

use tagging_persist::PersistOptions;
use tagging_server::http::HttpClient;
use tagging_server::{ServerOptions, TaggingServer};

pub fn spawn_with(
    options: ServerOptions,
) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = TaggingServer::bind_opts("127.0.0.1:0", options).expect("bind ephemeral port");
    let (addr, handle) = server.spawn().expect("spawn server");
    (addr.to_string(), handle)
}

pub fn shutdown(client: &mut HttpClient, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    client.request("POST", "/shutdown", None).expect("shutdown");
    handle.join().expect("join").expect("clean exit");
}

pub fn uint_at(value: &Value, path: &[&str]) -> Option<u64> {
    let mut cursor = value;
    for key in path {
        cursor = cursor.get(key)?;
    }
    match *cursor {
        Value::UInt(n) => Some(n),
        Value::Int(n) => u64::try_from(n).ok(),
        _ => None,
    }
}

/// The server's latency histogram must agree with what its clients saw.
/// `server_request_us` counts at least every request driven (its count
/// grows by at least the drive's length) and its quantiles are monotone.
/// The handler time it measures is part of each client round trip, and
/// bucket upper bounds overshoot by less than 2×, so its p50 stays within
/// twice the client p50 plus 1 ms of slack. The trailing-10s window keeps
/// the same rules, but its bound derives from the client p99: a window may
/// cover only the slow tail of a group-commit drive, yet no window's median
/// can exceed twice the run-wide p99 plus slack.
///
/// The histogram is process-wide, so the figures are exact only when the
/// calling test binary runs nothing else.
pub fn cross_check_latency(persist: Option<PersistOptions>) {
    let mut options = ServerOptions::new(2);
    options.persist = persist;
    // Fast rotations, so the windowed view catches up with the drive quickly.
    options.telemetry.publish_interval_ms = 50;
    let (addr, handle) = spawn_with(options);
    let mut client = HttpClient::connect(&addr).expect("connect");
    let body: Value = serde_json::from_str(
        r#"{"strategy":"FP","budget":1000,"source":{"generate":{"resources":40,"seed":1}}}"#,
    )
    .unwrap();
    let (status, registered) = client.request("POST", "/scenarios", Some(&body)).unwrap();
    assert_eq!(status, 200, "{registered:?}");
    let id = uint_at(&registered, &["scenario_id"]).expect("scenario id");
    let request_us = |stats: &Value, field: &str| {
        uint_at(stats, &["histograms", "server_request_us", field]).unwrap_or(0)
    };
    let (status, before) = client.request("GET", "/stats", None).unwrap();
    assert_eq!(status, 200);

    let mut latencies = Vec::new();
    let mut timed = |method: &str, path: String, body: Option<Value>| -> Value {
        let start = Instant::now();
        let (status, value) = client.request(method, &path, body.as_ref()).unwrap();
        latencies.push(start.elapsed().as_micros() as u64);
        assert_eq!(status, 200, "{method} {path}: {value:?}");
        value
    };
    let lease: Value = serde_json::from_str(r#"{"k":8}"#).unwrap();
    for _ in 0..100 {
        let batch = timed(
            "POST",
            format!("/scenarios/{id}/batch"),
            Some(lease.clone()),
        );
        let completions = match batch.get("tasks") {
            Some(Value::Array(tasks)) => tasks
                .iter()
                .map(|task| {
                    let id = task.get("task_id").expect("task id").clone();
                    Value::Object(vec![("task_id".to_string(), id)])
                })
                .collect(),
            other => panic!("no tasks: {other:?}"),
        };
        let report = Value::Object(vec![("completions".to_string(), Value::Array(completions))]);
        timed("POST", format!("/scenarios/{id}/report"), Some(report));
        timed("GET", format!("/scenarios/{id}/metrics"), None);
    }
    latencies.sort_unstable();
    let client_quantile = |q: f64| latencies[((latencies.len() - 1) as f64 * q).round() as usize];
    let (client_p50, client_p99) = (client_quantile(0.50), client_quantile(0.99));

    let (status, stats) = client.request("GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    if !tagging_telemetry::enabled() {
        assert_eq!(
            stats.get("telemetry"),
            Some(&Value::String("noop".to_string())),
            "a noop build must say so in /stats"
        );
        shutdown(&mut client, handle);
        return;
    }
    let monotone = |stats: &Value| {
        let (p50, p90, p99) = (
            request_us(stats, "p50"),
            request_us(stats, "p90"),
            request_us(stats, "p99"),
        );
        p50 <= p90 && p90 <= p99
    };
    assert!(
        request_us(&stats, "count") - request_us(&before, "count") >= latencies.len() as u64,
        "the histogram missed driven requests: {stats:?}"
    );
    assert!(monotone(&stats), "percentiles not monotone: {stats:?}");
    let bound = 2 * client_p50 + 1000;
    assert!(
        request_us(&stats, "p50") <= bound,
        "server p50 exceeds the client-derived bound {bound}us: {stats:?}"
    );

    // Retry until a rotation has folded the drive into the ring.
    let mut windowed = Value::Null;
    for _ in 0..200 {
        let (status, stats) = client.request("GET", "/stats?window=10s", None).unwrap();
        assert_eq!(status, 200);
        windowed = stats;
        if request_us(&windowed, "count") > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        request_us(&windowed, "count") > 0,
        "no rotation showed the drive: {windowed:?}"
    );
    assert!(
        monotone(&windowed),
        "windowed percentiles not monotone: {windowed:?}"
    );
    let bound = 2 * client_p99 + 1000;
    assert!(
        request_us(&windowed, "p50") <= bound,
        "windowed p50 exceeds the client-derived bound {bound}us: {windowed:?}"
    );

    shutdown(&mut client, handle);
}

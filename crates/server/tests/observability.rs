//! End-to-end tests for the time-resolved observability layer: the flight
//! recorder rings behind `GET /debug/flight` / `GET /debug/slow`, the
//! windowed `GET /stats?window=...` projection, the event-loop watchdog
//! (via the `inject_sweep_stall_us` test hook), and the agreement of a
//! memory-only server's latency histogram with the latencies its clients
//! observe (the group-commit case runs alone in `group_commit_latency.rs`).
//!
//! Everything observation-dependent is gated on
//! [`tagging_telemetry::enabled`] so the suite also passes when the server
//! is built with `telemetry-noop`.

mod support;

use serde::Value;

use support::{shutdown, spawn_with, uint_at};
use tagging_server::http::HttpClient;
use tagging_server::telemetry::FLIGHT_CAPACITY;
use tagging_server::{ServerOptions, TelemetryOptions};

fn records_of(body: &Value) -> Vec<Value> {
    match body.get("records") {
        Some(Value::Array(records)) => records.clone(),
        other => panic!("no records array: {other:?}"),
    }
}

/// The flight ring replays the most recent requests: `?n=4` after more
/// requests than that returns exactly the 4 newest (ids strictly
/// increasing, oldest first), while `recorded` counts everything that ever
/// passed through. Wrap-around at capacity is `FlightRecorder`'s own unit
/// test.
#[test]
fn flight_ring_returns_most_recent_requests() {
    let (addr, handle) = spawn_with(ServerOptions::new(2));
    let mut client = HttpClient::connect(&addr).expect("connect");

    const DRIVEN: u64 = 10;
    for _ in 0..DRIVEN {
        let (status, _) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
    }
    let (status, flight) = client.request("GET", "/debug/flight?n=4", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        uint_at(&flight, &["capacity"]),
        Some(FLIGHT_CAPACITY as u64)
    );

    if tagging_telemetry::enabled() {
        assert_eq!(
            uint_at(&flight, &["recorded"]),
            Some(DRIVEN),
            "every request passes through the ring: {flight:?}"
        );
        let records = records_of(&flight);
        assert_eq!(records.len(), 4, "`n` bounds the scrape: {flight:?}");
        let ids: Vec<u64> = records
            .iter()
            .map(|r| uint_at(r, &["id"]).expect("record id"))
            .collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "records must be ordered oldest to newest: {ids:?}"
        );
        for record in &records {
            assert_eq!(
                record.get("route"),
                Some(&Value::String("healthz".to_string()))
            );
            assert!(record.get("status").is_some(), "record has a status");
            assert!(record.get("latency_us").is_some(), "record has latency");
            assert!(record.get("queue_us").is_some(), "record has queue wait");
        }
        // They are the newest 4 of the whole ring. A request enters the
        // ring before its response is written, so the ring now holds the
        // driven requests and then the first scrape.
        let (_, all) = client.request("GET", "/debug/flight", None).unwrap();
        let all_ids: Vec<u64> = records_of(&all)
            .iter()
            .map(|r| uint_at(r, &["id"]).expect("record id"))
            .collect();
        assert_eq!(all_ids.len() as u64, DRIVEN + 1, "{all:?}");
        assert_eq!(all_ids[DRIVEN as usize - 4..DRIVEN as usize], ids[..]);
    } else {
        assert_eq!(uint_at(&flight, &["recorded"]), Some(0));
    }

    // `?n=` truncates to the newest K.
    let (status, two) = client.request("GET", "/debug/flight?n=2", None).unwrap();
    assert_eq!(status, 200);
    if tagging_telemetry::enabled() {
        assert_eq!(records_of(&two).len(), 2);
    }

    shutdown(&mut client, handle);
}

/// With the threshold at 0 every request is "slow", so the slow ring
/// retains each one; with the threshold effectively infinite it retains
/// none while the flight ring still sees everything.
#[test]
fn slow_ring_honors_the_latency_threshold() {
    // Threshold 0: everything qualifies.
    let mut options = ServerOptions::new(2);
    options.telemetry = TelemetryOptions {
        slow_threshold_us: 0,
        ..TelemetryOptions::default()
    };
    let (addr, handle) = spawn_with(options);
    let mut client = HttpClient::connect(&addr).expect("connect");
    for _ in 0..5 {
        client.request("GET", "/healthz", None).unwrap();
    }
    let (status, slow) = client.request("GET", "/debug/slow", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(uint_at(&slow, &["threshold_us"]), Some(0));
    if tagging_telemetry::enabled() {
        assert!(
            uint_at(&slow, &["recorded"]).unwrap() >= 5,
            "threshold 0 retains every request: {slow:?}"
        );
    }
    shutdown(&mut client, handle);

    // Threshold u64::MAX: nothing qualifies, but the flight ring still fills.
    let mut options = ServerOptions::new(2);
    options.telemetry = TelemetryOptions {
        slow_threshold_us: u64::MAX,
        ..TelemetryOptions::default()
    };
    let (addr, handle) = spawn_with(options);
    let mut client = HttpClient::connect(&addr).expect("connect");
    for _ in 0..5 {
        client.request("GET", "/healthz", None).unwrap();
    }
    let (_, slow) = client.request("GET", "/debug/slow", None).unwrap();
    assert_eq!(uint_at(&slow, &["recorded"]), Some(0));
    if tagging_telemetry::enabled() {
        let (_, flight) = client.request("GET", "/debug/flight", None).unwrap();
        assert!(uint_at(&flight, &["recorded"]).unwrap() >= 5);
    }
    shutdown(&mut client, handle);
}

/// `GET /stats?window=...` carries a window descriptor and parses units;
/// malformed windows are a 400, and the wrong method on the debug routes a
/// 405 — never a panic.
#[test]
fn windowed_stats_and_debug_routes_validate_input() {
    let (addr, handle) = spawn_with(ServerOptions::new(2));
    let mut client = HttpClient::connect(&addr).expect("connect");

    let (status, stats) = client.request("GET", "/stats?window=2s", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(uint_at(&stats, &["window", "requested_ms"]), Some(2_000));
    assert!(
        stats.get("histograms").is_some(),
        "windowed stats project histograms"
    );
    assert!(stats.get("rates").is_some(), "windowed stats project rates");

    let (status, ms) = client.request("GET", "/stats?window=250ms", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(uint_at(&ms, &["window", "requested_ms"]), Some(250));

    for bad in [
        "/stats?window=bogus",
        "/stats?window=0",
        "/stats?window=-1s",
    ] {
        let (status, _) = client.request("GET", bad, None).unwrap();
        assert_eq!(status, 400, "{bad} must be rejected");
    }
    let (status, _) = client.request("POST", "/debug/flight", None).unwrap();
    assert_eq!(status, 405);
    let (status, _) = client.request("DELETE", "/debug/slow", None).unwrap();
    assert_eq!(status, 405);

    shutdown(&mut client, handle);
}

/// Injecting a sleep into the readiness sweep longer than the stall budget
/// must be counted: `server_loop_stalls_total` goes up and the gap is
/// surfaced through the `/stats` gauges. This is the watchdog's contract —
/// an event loop that stops breathing is visible from the outside.
#[test]
fn injected_sweep_stall_is_counted_and_surfaced() {
    if !tagging_telemetry::enabled() {
        return;
    }
    let mut options = ServerOptions::new(2);
    options.telemetry = TelemetryOptions {
        stall_budget_us: 20_000,
        inject_sweep_stall_us: 80_000,
        ..TelemetryOptions::default()
    };
    let (addr, handle) = spawn_with(options);
    // Connecting already rides through the stalled sweep; by the time the
    // first response arrives the overrun has been measured and recorded.
    let mut client = HttpClient::connect(&addr).expect("connect");
    let (status, _) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    let (status, stats) = client.request("GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    let stalls = uint_at(&stats, &["counters", "server_loop_stalls_total"])
        .expect("stall counter projected into /stats");
    assert!(stalls >= 1, "injected stall must be counted: {stats:?}");
    let last = uint_at(&stats, &["gauges", "server_loop_last_stall_us"])
        .expect("last-stall gauge projected into /stats");
    assert!(
        last >= 20_000,
        "the surfaced gap must exceed the budget: {last}"
    );
    let heartbeats = uint_at(&stats, &["counters", "server_loop_heartbeats_total"])
        .expect("heartbeat counter projected into /stats");
    assert!(heartbeats >= 1, "the loop heartbeats while serving");

    shutdown(&mut client, handle);
}

/// The latency cross-check on a memory-only server. Other tests in this
/// binary drive servers concurrently into the same process-wide histogram,
/// so only the drive's own count delta and bounds that such traffic cannot
/// loosen are asserted here; see [`support::cross_check_latency`].
#[test]
fn server_latency_agrees_with_the_client_view() {
    support::cross_check_latency(None);
}

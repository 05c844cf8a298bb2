//! Server-side metric handles and the `/stats` JSON projection.
//!
//! All handles are resolved once from the global
//! [`tagging_telemetry::Registry`] when the service is constructed, so the
//! request path records through pre-looked-up `Arc`s and never touches the
//! registry lock. Metric families exported here:
//!
//! | family | kind | labels |
//! |---|---|---|
//! | `server_requests_total` | counter | `route` |
//! | `server_responses_total` | counter | `class` (`2xx`/`4xx`/`5xx`) |
//! | `server_request_us` | histogram | — (handler routing time) |
//! | `server_queue_wait_us` | histogram | — (dispatch → worker pickup) |
//! | `server_sweep_us` | histogram | — (event-loop sweep duration) |
//! | `server_connections_live` | gauge | — |
//! | `server_connections_idle` | gauge | — |
//! | `server_pool_pending` | gauge | — (queued + running pool jobs) |
//! | `server_loop_*` | counter/gauge | — (event-loop watchdog; see [`Watchdog`]) |
//!
//! Beyond the flat registry this module also owns the server's time-resolved
//! observability state, all hosted on [`ServerMetrics`] so the event loop,
//! the worker pool and the scrape endpoints share one set of `Arc`s:
//!
//! * [`WindowRing`] (behind a mutex; rotated by the background publisher
//!   task once per interval) — trailing 1s/10s/60s rates and quantiles,
//!   served by `GET /stats?window=10s`;
//! * two [`FlightRecorder`] rings — every completed request, and a separate
//!   ring retaining only requests over the slow-latency threshold — served
//!   by `GET /debug/flight` and `GET /debug/slow`;
//! * the event-loop [`Watchdog`] the sweep heartbeats.

use std::sync::{Arc, Mutex};

use serde::Value;
use tagging_runtime::lock_unpoisoned;
use tagging_telemetry::{
    Counter, FlightRecorder, Gauge, Histogram, RegistrySnapshot, RequestRecord, Watchdog,
    WindowRing,
};

/// Every countable request destination, including the failure paths the
/// per-route counters must not miss: `Shutdown`, `BadRequest` (parsed HTTP
/// that matched no route or the wrong method) and `Malformed` (bytes that
/// never became a request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`.
    Healthz,
    /// `POST /scenarios`.
    Register,
    /// `POST /scenarios/{id}/batch`.
    Batch,
    /// `POST /scenarios/{id}/report`.
    Report,
    /// `GET /scenarios/{id}/metrics`.
    SessionMetrics,
    /// `GET /scenarios/{id}/tasks`.
    Tasks,
    /// `POST /shutdown`.
    Shutdown,
    /// `GET /stats`.
    Stats,
    /// `GET /metrics`.
    Metrics,
    /// `GET /debug/flight`.
    DebugFlight,
    /// `GET /debug/slow`.
    DebugSlow,
    /// Parsed request that matched no route or used the wrong method.
    BadRequest,
    /// Bytes that could never become an HTTP request (counted by the event
    /// loop, which answers 400 and drops the connection).
    Malformed,
}

impl Route {
    /// All routes, in label order.
    pub const ALL: [Route; 13] = [
        Route::Healthz,
        Route::Register,
        Route::Batch,
        Route::Report,
        Route::SessionMetrics,
        Route::Tasks,
        Route::Shutdown,
        Route::Stats,
        Route::Metrics,
        Route::DebugFlight,
        Route::DebugSlow,
        Route::BadRequest,
        Route::Malformed,
    ];

    /// The `route` label value.
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Register => "register",
            Route::Batch => "batch",
            Route::Report => "report",
            Route::SessionMetrics => "session_metrics",
            Route::Tasks => "tasks",
            Route::Shutdown => "shutdown",
            Route::Stats => "stats",
            Route::Metrics => "metrics",
            Route::DebugFlight => "debug_flight",
            Route::DebugSlow => "debug_slow",
            Route::BadRequest => "bad_request",
            Route::Malformed => "malformed",
        }
    }
}

/// Delta slots the window ring retains (64 one-second slots cover every
/// trailing window up to a minute).
const WINDOW_SLOTS: usize = 64;

/// Capacity of the all-requests flight ring behind `GET /debug/flight`.
pub const FLIGHT_CAPACITY: usize = 256;

/// Capacity of the slow-request ring behind `GET /debug/slow`.
const SLOW_CAPACITY: usize = 512;

/// Configuration of the server's time-resolved observability: window
/// rotation cadence, the slow-request threshold and the event-loop stall
/// budget. All observation-only — none of these affect what the service
/// computes or acknowledges.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// Window-rotation period in milliseconds.
    pub publish_interval_ms: u64,
    /// Handler latency at or above which a request also enters the slow
    /// ring, in microseconds.
    pub slow_threshold_us: u64,
    /// Event-loop heartbeat gap (or single-sweep duration) above which a
    /// stall is counted, in microseconds.
    pub stall_budget_us: u64,
    /// Test hook: make the very first readiness sweep sleep this long, so a
    /// stall can be provoked deterministically. 0 disables.
    pub inject_sweep_stall_us: u64,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        Self {
            publish_interval_ms: 1_000,
            slow_threshold_us: 10_000,
            stall_budget_us: 100_000,
            inject_sweep_stall_us: 0,
        }
    }
}

/// Pre-resolved handles for everything the server records.
pub struct ServerMetrics {
    requests: [Arc<Counter>; Route::ALL.len()],
    /// Indexed by `status / 100 - 1` (1xx..5xx).
    status_classes: [Arc<Counter>; 5],
    /// Handler routing time per request, in microseconds.
    pub request_us: Arc<Histogram>,
    /// Time between dispatch to the pool and worker pickup, in microseconds.
    pub queue_wait_us: Arc<Histogram>,
    /// Event-loop sweep duration, in microseconds.
    pub sweep_us: Arc<Histogram>,
    /// Open connections owned by the event thread.
    pub connections_live: Arc<Gauge>,
    /// Open connections with no request in flight.
    pub connections_idle: Arc<Gauge>,
    /// Worker-pool jobs queued or running.
    pub pool_pending: Arc<Gauge>,
    /// Ring of per-interval delta snapshots behind the windowed `/stats`
    /// view; rotated by the background publisher task.
    pub windows: Arc<Mutex<WindowRing>>,
    /// Every completed request, most recent [`FLIGHT_CAPACITY`] retained.
    pub flight: Arc<FlightRecorder>,
    /// Requests whose handler latency met the slow threshold.
    pub slow: Arc<FlightRecorder>,
    /// Handler latency at or above which a request enters the slow ring.
    pub slow_threshold_us: u64,
    /// Heartbeat gap / sweep duration above which a stall is counted.
    pub stall_budget_us: u64,
    /// Event-loop watchdog (families under `server_loop_*`).
    pub loop_watchdog: Arc<Watchdog>,
}

impl ServerMetrics {
    /// Resolve every handle from the global registry, with default
    /// [`TelemetryOptions`]. Use [`ServerMetrics::configure`] to apply
    /// non-default options before the service is shared.
    pub fn resolve() -> Self {
        let defaults = TelemetryOptions::default();
        let registry = tagging_telemetry::global();
        let requests = Route::ALL.map(|route| {
            registry.counter(
                "server_requests_total",
                &[("route", route.label())],
                "Requests received, by route (including shutdown, bad_request and malformed)",
            )
        });
        let status_classes = [1u16, 2, 3, 4, 5].map(|class| {
            registry.counter(
                "server_responses_total",
                &[("class", &format!("{class}xx"))],
                "Responses sent, by status class",
            )
        });
        Self {
            requests,
            status_classes,
            request_us: registry.histogram(
                "server_request_us",
                &[],
                "Handler routing latency in microseconds (excludes queue wait and I/O)",
            ),
            queue_wait_us: registry.histogram(
                "server_queue_wait_us",
                &[],
                "Dispatch-to-worker-pickup latency in microseconds",
            ),
            sweep_us: registry.histogram(
                "server_sweep_us",
                &[],
                "Event-loop sweep duration in microseconds",
            ),
            connections_live: registry.gauge(
                "server_connections_live",
                &[],
                "Open connections owned by the event thread",
            ),
            connections_idle: registry.gauge(
                "server_connections_idle",
                &[],
                "Open connections with no request in flight",
            ),
            pool_pending: registry.gauge(
                "server_pool_pending",
                &[],
                "Worker-pool jobs queued or running",
            ),
            windows: Arc::new(Mutex::new(WindowRing::new(
                WINDOW_SLOTS,
                defaults.publish_interval_ms,
            ))),
            flight: Arc::new(FlightRecorder::new(FLIGHT_CAPACITY)),
            slow: Arc::new(FlightRecorder::new(SLOW_CAPACITY)),
            slow_threshold_us: defaults.slow_threshold_us,
            stall_budget_us: defaults.stall_budget_us,
            loop_watchdog: Arc::new(Watchdog::new("server_loop")),
        }
    }

    /// Apply non-default [`TelemetryOptions`]: replaces the (still unshared)
    /// window ring and thresholds. Called by the server binder before the
    /// service is wrapped in an `Arc`, mirroring
    /// [`crate::service::TaggingService::describe_persistence`].
    pub fn configure(&mut self, options: &TelemetryOptions) {
        self.windows = Arc::new(Mutex::new(WindowRing::new(
            WINDOW_SLOTS,
            options.publish_interval_ms,
        )));
        self.slow_threshold_us = options.slow_threshold_us;
        self.stall_budget_us = options.stall_budget_us;
    }

    /// Record one completed request into the flight ring (and the slow ring
    /// when its handler latency met the threshold). Compiles to nothing with
    /// `telemetry-noop`.
    pub fn record_flight(&self, record: RequestRecord) {
        if record.latency_us >= self.slow_threshold_us {
            self.slow.record(record.clone());
        }
        self.flight.record(record);
    }

    /// Count one request on `route` and its response's status class.
    pub fn record_response(&self, route: Route, status: u16) {
        self.requests[Route::ALL
            .iter()
            .position(|&r| r == route)
            .expect("route is in ALL")]
        .inc();
        let class = (status / 100).clamp(1, 5) as usize - 1;
        self.status_classes[class].inc();
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::resolve()
    }
}

/// Project a registry snapshot into the `GET /stats` JSON body: counters and
/// gauges as `{"name{labels}": value}` maps, histograms as per-family
/// objects carrying count/sum/max/mean and the p50/p90/p99 upper bounds.
pub fn snapshot_to_value(snapshot: &RegistrySnapshot) -> Value {
    fn key(name: &str, labels: &[(String, String)]) -> String {
        if labels.is_empty() {
            name.to_string()
        } else {
            let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            format!("{name}{{{}}}", body.join(","))
        }
    }
    let counters = snapshot
        .counters
        .iter()
        .map(|c| (key(&c.name, &c.labels), Value::UInt(c.value)))
        .collect();
    let gauges = snapshot
        .gauges
        .iter()
        .map(|g| (key(&g.name, &g.labels), Value::Int(g.value)))
        .collect();
    let histograms = snapshot
        .histograms
        .iter()
        .map(|h| {
            let s = &h.snapshot;
            (
                key(&h.name, &h.labels),
                Value::Object(vec![
                    ("count".to_string(), Value::UInt(s.count())),
                    ("sum".to_string(), Value::UInt(s.sum)),
                    ("max".to_string(), Value::UInt(s.max)),
                    ("mean".to_string(), Value::Float(s.mean())),
                    ("p50".to_string(), Value::UInt(s.p50())),
                    ("p90".to_string(), Value::UInt(s.p90())),
                    ("p99".to_string(), Value::UInt(s.p99())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        (
            "telemetry".to_string(),
            Value::String(
                if tagging_telemetry::enabled() {
                    "on"
                } else {
                    "noop"
                }
                .to_string(),
            ),
        ),
        ("counters".to_string(), Value::Object(counters)),
        ("gauges".to_string(), Value::Object(gauges)),
        ("histograms".to_string(), Value::Object(histograms)),
    ])
}

/// The `GET /stats?window=...` body: the merged trailing window projected
/// like the cumulative view, plus a `window` object describing the coverage
/// and a `rates` section (counter increments per second over the window).
pub fn windowed_stats_value(metrics: &ServerMetrics, requested_ms: u64) -> Value {
    let (snapshot, merged, interval_ms, rotations) = {
        let ring = lock_unpoisoned(&metrics.windows);
        let (snapshot, merged) = ring.window_ms(requested_ms);
        (snapshot, merged, ring.interval_ms(), ring.rotations())
    };
    let covered_ms = merged as u64 * interval_ms;
    let rates = snapshot
        .counters
        .iter()
        .filter(|c| c.value > 0 && covered_ms > 0)
        .map(|c| {
            let key = if c.labels.is_empty() {
                c.name.clone()
            } else {
                let body: Vec<String> = c
                    .labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{v}\""))
                    .collect();
                format!("{}{{{}}}", c.name, body.join(","))
            };
            (
                format!("{key}_per_s"),
                Value::Float(c.value as f64 * 1000.0 / covered_ms as f64),
            )
        })
        .collect();
    let mut value = snapshot_to_value(&snapshot);
    if let Value::Object(fields) = &mut value {
        fields.insert(
            1,
            (
                "window".to_string(),
                Value::Object(vec![
                    ("requested_ms".to_string(), Value::UInt(requested_ms)),
                    ("slots_merged".to_string(), Value::UInt(merged as u64)),
                    ("covered_ms".to_string(), Value::UInt(covered_ms)),
                    ("interval_ms".to_string(), Value::UInt(interval_ms)),
                    ("rotations".to_string(), Value::UInt(rotations)),
                ]),
            ),
        );
        fields.push(("rates".to_string(), Value::Object(rates)));
    }
    value
}

/// Project flight-recorder records into the `/debug/*` JSON body shape.
pub fn records_to_value(records: &[RequestRecord]) -> Value {
    Value::Array(
        records
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("id".to_string(), Value::UInt(r.id)),
                    ("route".to_string(), Value::String(r.route.to_string())),
                    (
                        "session".to_string(),
                        match r.session {
                            Some(id) => Value::UInt(id),
                            None => Value::Null,
                        },
                    ),
                    ("status".to_string(), Value::UInt(u64::from(r.status))),
                    ("latency_us".to_string(), Value::UInt(r.latency_us)),
                    ("queue_us".to_string(), Value::UInt(r.queue_us)),
                    ("ts_us".to_string(), Value::UInt(r.ts_us)),
                ])
            })
            .collect(),
    )
}

/// Parse a `window=` query value: `10s`, `500ms` or a bare second count.
/// Returns the window span in milliseconds.
pub fn parse_window_ms(text: &str) -> Option<u64> {
    let text = text.trim();
    if let Some(ms) = text.strip_suffix("ms") {
        return ms.parse::<u64>().ok().filter(|&n| n > 0);
    }
    let seconds = match text.strip_suffix('s') {
        Some(s) => s,
        None => text,
    };
    seconds
        .parse::<u64>()
        .ok()
        .filter(|&n| n > 0)
        .and_then(|n| n.checked_mul(1_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_route_has_a_distinct_label() {
        let mut labels: Vec<&str> = Route::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Route::ALL.len());
    }

    #[test]
    fn record_response_counts_route_and_class() {
        let metrics = ServerMetrics::resolve();
        let before_route = metrics.requests[Route::ALL
            .iter()
            .position(|&r| r == Route::Malformed)
            .unwrap()]
        .get();
        let before_class = metrics.status_classes[3].get();
        metrics.record_response(Route::Malformed, 400);
        if tagging_telemetry::enabled() {
            // Delta assertions: the global registry is shared by every test
            // in this process.
            assert_eq!(
                metrics.requests[Route::ALL
                    .iter()
                    .position(|&r| r == Route::Malformed)
                    .unwrap()]
                .get(),
                before_route + 1
            );
            assert_eq!(metrics.status_classes[3].get(), before_class + 1);
        }
    }

    #[test]
    fn stats_value_has_the_top_level_shape() {
        let metrics = ServerMetrics::resolve();
        metrics.record_response(Route::Healthz, 200);
        let value = snapshot_to_value(&tagging_telemetry::global().snapshot());
        let expected = if tagging_telemetry::enabled() {
            "on"
        } else {
            "noop"
        };
        assert_eq!(
            value.get("telemetry"),
            Some(&Value::String(expected.to_string()))
        );
        for section in ["counters", "gauges", "histograms"] {
            assert!(
                matches!(value.get(section), Some(Value::Object(_))),
                "missing {section}"
            );
        }
    }
}

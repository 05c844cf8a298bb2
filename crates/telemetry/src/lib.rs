//! # tagging-telemetry
//!
//! Std-only observability for the tagging workspace: a process-wide metrics
//! registry of atomic counters, gauges and fixed-bucket log-scale latency
//! histograms, plus a lightweight span/timer API, per-request ids, a flight
//! recorder and an event-loop watchdog.
//!
//! * [`Counter`] / [`Gauge`] — monotonic and up/down values, sharded atomics
//!   on the hot path so concurrent recorders do not bounce one cache line;
//! * [`Histogram`] — 65 power-of-two buckets covering every `u64` (0,
//!   `u64::MAX` and all boundaries included), sharded per recording thread,
//!   with mergeable [`HistogramSnapshot`]s from which p50/p90/p99 and the
//!   exact max are derived;
//! * [`Registry`] — named metric families with optional labels; [`global`]
//!   is the process-wide instance every layer records into, and
//!   [`RegistrySnapshot::to_prometheus`] renders the whole registry in
//!   Prometheus text exposition format (the server's `GET /metrics`);
//! * [`Span`] — `Span::enter("wal.append")` records the scope's duration in
//!   microseconds into the histogram `wal_append_us` on drop;
//! * [`trace`] — [`trace::next_request_id`] supplies process-unique request
//!   ids and [`trace::ts_us`] the process clock.
//!
//! ## Zero cost to determinism
//!
//! Nothing in this crate feeds back into allocation decisions: metrics are
//! write-only from the serving path and read only by the scrape endpoints,
//! so state digests and golden traces are identical with telemetry on or
//! off. The `noop` cargo feature compiles every recording operation to an
//! empty inline function (snapshots then read all zeros), which CI uses to
//! prove the instrumented and uninstrumented binaries produce byte-identical
//! state digests.
//!
//! ## Quick example
//!
//! ```
//! use tagging_telemetry::{global, Span};
//!
//! let requests = global().counter("demo_requests_total", &[("route", "ping")], "Demo requests");
//! requests.inc();
//! {
//!     let _span = Span::enter("demo.work"); // records into `demo_work_us` on drop
//! }
//! let snapshot = global().snapshot();
//! let text = snapshot.to_prometheus();
//! if tagging_telemetry::enabled() {
//!     assert!(text.contains("demo_requests_total{route=\"ping\"} 1"));
//! }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod flight;
mod histogram;
mod metrics;
mod registry;
mod span;
pub mod trace;
mod watchdog;
mod window;

pub use flight::{FlightRecorder, RequestRecord};
pub use histogram::{bucket_of, bucket_upper, Histogram, HistogramSnapshot, Timer, BUCKET_COUNT};
pub use metrics::{Counter, Gauge};
pub use registry::{CounterSample, GaugeSample, HistogramSample, Registry, RegistrySnapshot};
pub use span::Span;
pub use watchdog::Watchdog;
pub use window::{delta_snapshot, merge_snapshots, WindowRing};

use std::sync::{Mutex, MutexGuard, OnceLock};

/// Lock a mutex, recovering the guard if a panicking holder poisoned it.
/// Telemetry state is always internally consistent (every write is a whole
/// `Option` replacement), so poison carries no information here.
pub(crate) fn sync_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// True when the crate was built with recording enabled (the default). With
/// the `noop` feature every recording operation compiles to nothing and
/// snapshots read all zeros; callers that surface telemetry (the server's
/// `/stats`) report this flag so scrapers can tell "no traffic" from
/// "compiled out".
pub const fn enabled() -> bool {
    cfg!(not(feature = "noop"))
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every layer records into by default.
///
/// Handles returned by [`Registry::counter`] / [`Registry::gauge`] /
/// [`Registry::histogram`] are `Arc`s: look them up once at construction
/// time and keep the handle — the hot path then touches only the metric's
/// own atomics, never the registry lock.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

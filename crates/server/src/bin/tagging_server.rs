//! The tagging-server daemon.
//!
//! Usage:
//! `cargo run --release -p tagging-server --bin tagging_server -- [--port P] [--workers N] [--shards S] [--threads N] [--data-dir DIR] [--snapshot-every N] [--fsync POLICY]`
//!
//! * `--port P` — TCP port to bind on 127.0.0.1 (default 0 = ephemeral; the
//!   chosen address is printed as `listening on 127.0.0.1:PORT`);
//! * `--workers N` — request-handling worker threads (default 4; connections
//!   themselves cost no threads — the accept/read path is nonblocking);
//! * `--shards S` — session-registry shard count, rounded up to a power of
//!   two (default 16; 1 = the single-lock baseline used by the CI
//!   divergence check);
//! * `--threads N` — compute threads for corpus generation / scenario
//!   preparation (defaults to `TAGGING_THREADS` / available cores);
//! * `--data-dir DIR` — enable durable sessions: a write-ahead log plus
//!   snapshots under `DIR` (one segment per registry shard). On startup the
//!   daemon recovers every session found there and prints what it recovered;
//! * `--snapshot-every N` — events per shard between snapshot compactions
//!   (default 1024; only meaningful with `--data-dir`);
//! * `--fsync POLICY` — `always`, `never`, `group` or `every:N` (default
//!   `every:256`): when the WAL forces bytes to the device. Appends always
//!   reach the OS before they are acknowledged, so any policy survives a
//!   process kill; the policy bounds what a *power loss* can take. `group`
//!   is group commit: acknowledgements wait on the shared fsync the
//!   `wal-flusher` tenant issues, so concurrent requests split one sync;
//! * `--flush-interval-ms N` — the `wal-flusher` tenant's period (default
//!   5). Giving this flag without an explicit `--fsync` selects `group`;
//! * `--compact-interval-ms N` — the `wal-compactor` tenant's period
//!   (default 25). Snapshot compaction runs on that tenant, never on a
//!   request thread; `0` restores the legacy inline compaction where the
//!   append crossing the cadence pays for the snapshot itself.
//!
//! A flag given without a value, a malformed number or an unknown `--fsync`
//! policy exits with status 2 before anything binds, rather than running a
//! default in its place.
//!
//! Observability flags (all observation-only):
//!
//! * `--publish-interval-ms N` — window-rotation / publisher period
//!   (default 1000); with `--data-dir` the publisher also appends one JSONL
//!   telemetry sample per interval to `DIR/telemetry.jsonl`;
//! * `--flight-capacity N` / `--slow-capacity N` — ring sizes behind
//!   `GET /debug/flight` and `GET /debug/slow` (defaults 256 / 512);
//! * `--slow-threshold-us N` — handler latency at or above which a request
//!   also enters the slow ring (default 10000);
//! * `--stall-budget-us N` — event-loop heartbeat gap / sweep duration above
//!   which a stall is counted under `server_loop_*` (default 100000).
//!
//! The process exits cleanly after a `POST /shutdown`, marking the WAL so
//! the next start knows the shutdown was clean.
//!
//! Observability: `GET /metrics` serves the Prometheus text exposition,
//! `GET /stats` a JSON projection of the same registry (request counters per
//! route, latency histograms, WAL/snapshot activity, per-shard session
//! gauges), and `GET /stats?window=10s` the same projection over a trailing
//! window. Setting the `TAGGING_TRACE` environment variable to anything but
//! `0` additionally emits one structured `TRACE ...` line per request to
//! stderr, carrying a process-unique request id.

use std::io::Write;

use tagging_persist::PersistOptions;
use tagging_runtime::FlushPolicy;
use tagging_server::{ServerOptions, TaggingServer, TelemetryOptions};

/// Exits with status 2 before anything binds: a malformed flag must never
/// quietly run a different configuration.
fn usage_error(message: String) -> ! {
    eprintln!("tagging_server: {message}");
    std::process::exit(2);
}

fn arg_value(args: &[String], name: &str) -> Option<usize> {
    arg_text(args, name).map(|v| {
        v.parse::<usize>().unwrap_or_else(|_| {
            usage_error(format!("{name} expects a non-negative integer, got `{v}`"))
        })
    })
}

fn arg_text(args: &[String], name: &str) -> Option<String> {
    let position = args.iter().position(|arg| arg == name)?;
    match args.get(position + 1) {
        Some(value) => Some(value.clone()),
        None => usage_error(format!("{name} expects a value")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(threads) = arg_value(&args, "--threads") {
        if threads > 0 {
            tagging_runtime::set_default_threads(threads);
        }
    }
    let port = arg_value(&args, "--port").unwrap_or(0);
    let workers = arg_value(&args, "--workers").unwrap_or(4).max(1);
    let shards = arg_value(&args, "--shards")
        .unwrap_or(tagging_sim::registry::DEFAULT_SHARDS)
        .max(1);
    // Store flags are validated even without `--data-dir`, so a typo fails
    // the same way whether or not the run is durable.
    let snapshot_every = arg_value(&args, "--snapshot-every");
    let fsync = arg_text(&args, "--fsync").map(|policy| {
        FlushPolicy::parse(&policy).unwrap_or_else(|| {
            usage_error(format!(
                "--fsync expects always|never|group|every:N, got `{policy}`"
            ))
        })
    });
    let flush_interval = arg_value(&args, "--flush-interval-ms");
    let compact_interval = arg_value(&args, "--compact-interval-ms");
    let persist = arg_text(&args, "--data-dir").map(|dir| {
        let mut options = PersistOptions::new(dir, shards);
        if let Some(every) = snapshot_every {
            options.snapshot_every = (every as u64).max(1);
        }
        match fsync {
            Some(policy) => options.flush = policy,
            // Asking for a flusher cadence without naming a policy means
            // group commit — that is the tenant the cadence drives.
            None if flush_interval.is_some() => options.flush = FlushPolicy::Group,
            None => {}
        }
        if let Some(interval) = flush_interval {
            options.flush_interval_ms = (interval as u64).max(1);
        }
        if let Some(interval) = compact_interval {
            options.compact_interval_ms = interval as u64;
        }
        options
    });

    let mut telemetry = TelemetryOptions::default();
    if let Some(interval) = arg_value(&args, "--publish-interval-ms") {
        telemetry.publish_interval_ms = (interval as u64).max(1);
    }
    if let Some(capacity) = arg_value(&args, "--flight-capacity") {
        telemetry.flight_capacity = capacity.max(1);
    }
    if let Some(capacity) = arg_value(&args, "--slow-capacity") {
        telemetry.slow_capacity = capacity.max(1);
    }
    if let Some(threshold) = arg_value(&args, "--slow-threshold-us") {
        telemetry.slow_threshold_us = threshold as u64;
    }
    if let Some(budget) = arg_value(&args, "--stall-budget-us") {
        telemetry.stall_budget_us = (budget as u64).max(1);
    }

    let options = ServerOptions {
        workers,
        shards,
        persist,
        telemetry,
    };
    let server = match TaggingServer::bind_opts(&format!("127.0.0.1:{port}"), options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot start on 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(recovered) = server.recovered() {
        println!(
            "recovered {} session(s) from the data directory (previous shutdown {})",
            recovered.sessions.len(),
            if recovered.clean_shutdown {
                "clean"
            } else {
                "unclean"
            }
        );
    }
    let addr = server.local_addr().expect("bound listener has an address");
    // The startup line scripts (CI's smoke job) parse to find the port.
    println!("listening on {addr}");
    std::io::stdout().flush().expect("stdout");

    match server.run() {
        Ok(()) => {
            println!("shutdown complete");
        }
        Err(e) => {
            eprintln!("server error: {e}");
            std::process::exit(1);
        }
    }
}

//! The tagging-server daemon: `tagging_server [--FLAG VALUE]...`.
//!
//! [`FLAGS`] is the daemon's one list of flags: the parser reads it, and a
//! rejected command line prints the usage text built from it (each flag's
//! minimum and default). An unknown name, a stray positional, a repeated
//! flag, a missing, malformed or below-minimum value, or a store flag
//! ([`STORE_FLAGS`]) without `--data-dir` exits with status 2 before anything
//! binds, naming the offending token, rather than running a default in its
//! place. `--shards` needs no data directory: it also sizes the in-memory
//! registry.
//!
//! With `--port 0` the chosen address is printed as
//! `listening on 127.0.0.1:PORT`. The process exits cleanly after a
//! `POST /shutdown`, marking the WAL so the next start knows the shutdown
//! was clean. Corpus generation uses `TAGGING_THREADS` threads (default: all
//! cores). The routes, observability endpoints included, are listed in
//! `tagging_server::service`.

use std::collections::HashMap;
use std::io::Write;

use tagging_persist::PersistOptions;
use tagging_runtime::FlushPolicy;
use tagging_server::{ServerOptions, TaggingServer, TelemetryOptions};

/// What a flag's value must be.
#[derive(Clone, Copy)]
enum Kind {
    /// A non-negative integer at or above the given minimum.
    Int(u64),
    /// A directory path.
    Dir,
    /// A [`FlushPolicy`] name.
    Policy,
}

/// Every flag the daemon accepts, as (name, value kind, help line).
#[rustfmt::skip]
const FLAGS: &[(&str, Kind, &str)] = &[
    ("--port", Kind::Int(0), "TCP port on 127.0.0.1; 0 picks a free one (default 0)"),
    ("--workers", Kind::Int(1), "request-handling worker threads (default 4)"),
    ("--shards", Kind::Int(1), "registry shards, rounded up to a power of two (default 16)"),
    ("--data-dir", Kind::Dir, "durable sessions: WAL + snapshots here, recovered at start"),
    ("--snapshot-every", Kind::Int(1), "events per shard between snapshots (default 1024; needs --data-dir)"),
    ("--fsync", Kind::Policy, "always|never|group|every:N WAL syncs (default every:256; needs --data-dir)"),
    ("--compact-interval-ms", Kind::Int(1), "wal-compactor tenant period (default 25; needs --data-dir)"),
    ("--slow-threshold-us", Kind::Int(0), "latency that enters /debug/slow (default 10000)"),
    ("--stall-budget-us", Kind::Int(1), "event-loop gap counted as a stall (default 100000)"),
];

/// The flags that configure the `--data-dir` store and mean nothing without
/// it, in [`FLAGS`] order.
const STORE_FLAGS: [&str; 3] = ["--snapshot-every", "--fsync", "--compact-interval-ms"];

/// A checked flag value.
enum Value {
    Int(u64),
    Dir(String),
    Policy(FlushPolicy),
}

fn usage() -> String {
    let mut text = String::from("usage: tagging_server [--FLAG VALUE]...\n");
    for (name, kind, help) in FLAGS {
        let value = match kind {
            Kind::Int(0) => "N".to_string(),
            Kind::Int(min) => format!("N>={min}"),
            Kind::Dir => "DIR".to_string(),
            Kind::Policy => "POLICY".to_string(),
        };
        text.push_str(&format!("  {:<28}{help}\n", format!("{name} {value}")));
    }
    text
}

/// Checks `args` against [`FLAGS`]; the error names the offending token.
fn parse(args: &[String]) -> Result<HashMap<&'static str, Value>, String> {
    let mut given = HashMap::new();
    let mut args = args.iter();
    while let Some(token) = args.next() {
        let &(name, kind, _) = FLAGS
            .iter()
            .find(|(name, ..)| name == token)
            .ok_or_else(|| format!("unknown argument `{token}`"))?;
        let text = args
            .next()
            .filter(|text| !text.starts_with("--"))
            .ok_or_else(|| format!("{name} expects a value"))?;
        let value = match kind {
            Kind::Int(min) => match text.parse::<u64>() {
                Ok(n) if n >= min => Value::Int(n),
                Ok(_) => return Err(format!("{name} must be at least {min}, got `{text}`")),
                Err(_) => return Err(format!("{name} expects an integer, got `{text}`")),
            },
            Kind::Dir => Value::Dir(text.clone()),
            Kind::Policy => Value::Policy(FlushPolicy::parse(text).ok_or_else(|| {
                format!("{name} expects always|never|group|every:N, got `{text}`")
            })?),
        };
        if given.insert(name, value).is_some() {
            return Err(format!("{name} given more than once"));
        }
    }
    // A memory-only daemon would ignore a store flag, so a script that forgot
    // `--data-dir` would run without the durability it asked for.
    if !given.contains_key("--data-dir") {
        if let Some(name) = STORE_FLAGS.iter().find(|name| given.contains_key(*name)) {
            return Err(format!("{name} needs --data-dir"));
        }
    }
    Ok(given)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let given = parse(&args).unwrap_or_else(|message| {
        // Exit before anything binds: a malformed command line must never
        // quietly run a different configuration.
        eprint!("tagging_server: {message}\n{}", usage());
        std::process::exit(2);
    });
    let int = |name: &str| match given.get(name) {
        Some(Value::Int(n)) => Some(*n),
        _ => None,
    };
    let port = int("--port").unwrap_or(0);
    let shards = int("--shards").map_or(tagging_sim::registry::DEFAULT_SHARDS, |n| n as usize);
    // `parse` refused the store flags without `--data-dir`.
    let persist = match given.get("--data-dir") {
        Some(Value::Dir(dir)) => {
            let mut options = PersistOptions::new(dir, shards);
            options.snapshot_every = int("--snapshot-every").unwrap_or(options.snapshot_every);
            if let Some(Value::Policy(policy)) = given.get("--fsync") {
                options.flush = *policy;
            }
            options.compact_interval_ms =
                int("--compact-interval-ms").unwrap_or(options.compact_interval_ms);
            Some(options)
        }
        _ => None,
    };
    let mut telemetry = TelemetryOptions::default();
    telemetry.slow_threshold_us = int("--slow-threshold-us").unwrap_or(telemetry.slow_threshold_us);
    telemetry.stall_budget_us = int("--stall-budget-us").unwrap_or(telemetry.stall_budget_us);

    let options = ServerOptions {
        workers: int("--workers").map_or(4, |n| n as usize),
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

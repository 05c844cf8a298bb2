//! The service benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path svcbench/Cargo.toml -- \
//!     --workload wal-group|wal-fresh --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds `tagging_server` from the checkout, starts it pinned to one CPU,
//! drives it over TCP from this process pinned to the other CPUs, verifies
//! every run, and prints the metrics by name with units. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1` (which adds an in-process traced run). Exits non-zero on
//! any verification failure. See `svcbench/README.md`.

mod client;
mod daemon;
mod drive;
mod fleet;
mod stats;
mod trace;
mod verify;
mod walprep;

use std::fs;
use std::time::Instant;

use serde::Value;

use client::{numbers_after, Conn};
use daemon::{allowed_cpus, build_daemon, checkout_root, cpu_list, pin_self, Daemon};
use drive::{Client, Plan, Tally, LEASE, OPS, READ};
use fleet::{fleet, Targets, Workload};
use stats::{median_f64, peak_rss_mib, process_cpu_ns, quantile, StatsSnapshot};

/// Daemon starts per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed load before the window.
const WARMUP_S: f64 = 1.0;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_string())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!(
            "unknown workload `{workload}` (wal-group, wal-fresh)"
        ))?,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed expects an unsigned integer".to_string())?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("svcbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.render());
            std::process::exit(if result.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("svcbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A run's verdict and metrics.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    fn render(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::String(unit.to_string())),
                    ]),
                )
            })
            .collect();
        serde_json::to_string(&Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]))
        .expect("Value serialization is total")
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let workload = args.workload;
    let cpus = allowed_cpus()?;
    if cpus.len() < 2 {
        return Err(format!(
            "refusing to run: the daemon and the generator each need a CPU of their own, \
             and this process may use {} ({})",
            cpus.len(),
            cpu_list(&cpus)
        ));
    }
    let exe = build_daemon()?;
    let (daemon_cpu, generator_cpus) = (cpus[0], &cpus[1..]);
    pin_self(generator_cpus)?;

    let work = checkout_root().join(".svcbench-work");
    fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let fleet = fleet(workload, args.seed);
    // `wal-fresh` starts its daemon empty; its traced run still needs the
    // registrations as a history.
    let history = if workload.recovers() || args.trace {
        Some(walprep::ensure(
            &work,
            args.seed,
            &fleet,
            daemon::source_hash(),
        )?)
    } else {
        None
    };
    let data_dir = work.join("wal-run");
    // Snapshot and compaction cadences stay at the daemon's defaults.
    let flags: Vec<String> = [
        "--port",
        "0",
        "--workers",
        "2",
        "--data-dir",
        &data_dir.display().to_string(),
        "--fsync",
        "group",
    ]
    .map(String::from)
    .to_vec();

    // The environment, recorded with the result.
    let mut env = vec![
        ("workload", Value::String(workload.name().to_string())),
        ("seed", Value::UInt(args.seed)),
        ("window_s", Value::Float(args.seconds)),
        ("warmup_s", Value::Float(WARMUP_S)),
        ("setups", Value::UInt(SETUPS as u64)),
        ("commit", Value::String(daemon::commit_id())),
        ("nproc", Value::UInt(cpus.len() as u64)),
        ("daemon_cpus", Value::String(daemon_cpu.to_string())),
        ("generator_cpus", Value::String(cpu_list(generator_cpus))),
        ("connections", Value::UInt(fleet::CONNECTIONS as u64)),
        ("daemon_flags", Value::String(flags.join(" "))),
    ];
    fs::create_dir_all(&data_dir).map_err(|e| e.to_string())?;
    env.push(("wal_fs", Value::String(daemon::fs_type(&data_dir))));
    if let Some(history) = history.as_ref().filter(|_| workload.recovers()) {
        env.push(("history_events", Value::UInt(history.events)));
        env.push(("history_bytes", Value::UInt(history.bytes)));
    }
    let env = Value::Object(env.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    println!(
        "environment {}",
        serde_json::to_string(&env).expect("Value serialization is total")
    );

    // Set-up, repeated: spawn → serving every session of the workload.
    let mut setup_s = Vec::new();
    let mut served = None;
    for attempt in 0..SETUPS {
        match history.as_ref().filter(|_| workload.recovers()) {
            Some(history) => walprep::copy_fresh(history, &data_dir)?,
            None => {
                walprep::remove(&data_dir).map_err(|e| e.to_string())?;
                fs::create_dir_all(&data_dir).map_err(|e| e.to_string())?;
            }
        }
        let t = Instant::now();
        let daemon = Daemon::start(&exe, daemon_cpu, &flags)?;
        let mut conn = Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        if !workload.recovers() {
            for (i, spec) in fleet.iter().enumerate() {
                let reply = conn.post_ok("/scenarios", &spec.register_body())?;
                if numbers_after(&reply, "scenario_id") != [i as u64 + 1] {
                    return Err(format!("registration {i} answered {reply}"));
                }
            }
        }
        let health = conn.get_ok("/healthz")?;
        if numbers_after(&health, "sessions") != [fleet.len() as u64] {
            return Err(format!(
                "the daemon is not serving the whole fleet: {health}"
            ));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if attempt + 1 == SETUPS {
            served = Some((daemon, conn));
        }
    }
    let (daemon, mut conn0) = served.expect("SETUPS > 0");
    let pid = daemon.pid().to_string();

    let mut checks = 0u64;
    let mut failures: Vec<String> = Vec::new();
    if workload.recovers() {
        let recovered: Vec<u64> = fleet.iter().map(|s| s.history_tasks).collect();
        let (n, bad) = verify::check_fleet(&mut conn0, &fleet, &recovered, false)?;
        checks += n;
        failures.extend(bad.into_iter().map(|f| format!("after recovery: {f}")));
    }

    let conn1 = Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let plan = Plan {
        seed: args.seed,
        fleet: &fleet,
        targets: Targets::of(&fleet),
    };
    let mut clients = vec![
        Client {
            conn: conn0,
            index: 0,
            iteration: 0,
        },
        Client {
            conn: conn1,
            index: 1,
            iteration: 0,
        },
    ];
    let (warm, _) = drive::phase(&plan, &mut clients, WARMUP_S);
    if let Some(e) = &warm.error {
        return Err(format!("warm-up: {e}"));
    }
    let admin = |clients: &mut Vec<Client>| -> Result<StatsSnapshot, String> {
        StatsSnapshot::parse(&clients[0].conn.get_ok("/stats")?)
    };
    let pre = admin(&mut clients)?;
    let start = admin(&mut clients)?;
    let cpu_start = process_cpu_ns(&pid)?;
    let gen_start = process_cpu_ns("self")?;
    let (window, elapsed) = drive::phase(&plan, &mut clients, args.seconds);
    let cpu_ns = process_cpu_ns(&pid)? - cpu_start;
    let gen_ns = process_cpu_ns("self")? - gen_start;
    if let Some(e) = &window.error {
        // Already counted in `window.failed`.
        eprintln!("request failed in the window: {e}");
    }
    let end = admin(&mut clients)?;
    let delta = end.window_delta(&start, &pre);
    let rss_mib = peak_rss_mib(daemon.pid())?;

    // Verification: state after the window, then a clean shutdown, then the
    // in-process references (untimed; the daemon is gone by then).
    let mut conn0 = clients.swap_remove(0).conn;
    drop(clients);
    let expected: Vec<u64> = (0..fleet.len())
        .map(|i| fleet[i].history_tasks + warm.acked[i] + window.acked[i])
        .collect();
    let mut served_state = Vec::new();
    for id in 1..=fleet.len() {
        served_state.push(verify::served(&mut conn0, id)?);
    }
    conn0.post_ok("/shutdown", "")?;
    drop(conn0);
    checks += 1;
    if !daemon.wait_exit(60.0) {
        failures.push("the daemon did not shut down cleanly".to_string());
    }
    let (n, bad) = verify::compare(&fleet, &expected, &served_state, true);
    checks += n;
    failures.extend(bad);

    let mut metrics = Vec::new();
    if args.trace {
        layer_metrics(&mut metrics, &window, &delta, gen_ns);
        let history = history.as_ref().expect("a traced run prepares the history");
        let traced = trace::run(workload, args.seed, &fleet, history, &work)?;
        checks += traced.checks;
        failures.extend(traced.failures);
        metrics.extend(traced.metrics);
        println!("spans written to {}", traced.spans_path.display());
    } else {
        metrics = end_to_end(&window, elapsed)?;
        metrics.push(("setup_s".into(), median_f64(&setup_s), "s"));
        metrics.push(("server_peak_rss_mib".into(), rss_mib, "MiB"));
        metrics.push((
            "server_cpu_us_per_req".into(),
            cpu_ns as f64 / 1e3 / window.succeeded().max(1) as f64,
            "us",
        ));
    }

    let attempted = window.attempted + checks;
    let failed = window.failed + failures.len() as u64;
    for f in &failures {
        eprintln!("verification failed: {f}");
    }
    println!(
        "window {:.3} s, {} requests ({} lease / {} report / {} read samples), {} tasks, \
         setups {:?} s, failed_ratio {} ({failed} of {attempted})",
        elapsed,
        window.attempted,
        window.lat_ns[LEASE].len(),
        window.lat_ns[drive::REPORT].len(),
        window.lat_ns[READ].len(),
        window.tasks,
        setup_s,
        failed as f64 / attempted as f64,
    );
    // The host's speed drifts in spells of seconds; this line shows how much
    // of it a run caught.
    println!("tasks reported per second: {:?}", window.tasks_per_second);
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>14.3} {unit}");
    }
    Ok(RunResult {
        correct: failures.is_empty() && window.failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// The end-to-end metrics of the window (set-up and memory aside).
fn end_to_end(window: &Tally, elapsed: f64) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut metrics = vec![(
        "tasks_per_s".to_string(),
        window.tasks as f64 / elapsed,
        "1/s",
    )];
    for (kind, op) in OPS.iter().enumerate() {
        let mut lat = window.lat_ns[kind].clone();
        lat.sort_unstable();
        for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
            let v = quantile(&lat, q).map_err(|e| format!("{op}: {e}"))?;
            metrics.push((format!("{op}_{label}_us"), v as f64 / 1e3, "us"));
        }
    }
    Ok(metrics)
}

/// Per-layer metrics measured on the TCP run: server-side window means from
/// `/stats` deltas, the generator's CPU, and lease outcomes.
fn layer_metrics(
    metrics: &mut Vec<(String, f64, &'static str)>,
    window: &Tally,
    delta: &StatsSnapshot,
    gen_ns: u64,
) {
    let mut p = |name: &str, value: f64, unit| metrics.push((name.to_string(), value, unit));
    let all: Vec<u64> = window.lat_ns.iter().flatten().copied().collect();
    let client_mean_us = all.iter().sum::<u64>() as f64 / all.len().max(1) as f64 / 1e3;
    p(
        "server.front_end_mean_us",
        client_mean_us - delta.mean("server_request_us"),
        "us",
    );
    p(
        "server.request_mean_us",
        delta.mean("server_request_us"),
        "us",
    );
    p(
        "server.queue_wait_mean_us",
        delta.mean("server_queue_wait_us"),
        "us",
    );
    p("server.sweep_mean_us", delta.mean("server_sweep_us"), "us");
    p(
        "server.sweeps_per_req",
        delta.count("server_sweep_us") as f64 / window.succeeded().max(1) as f64,
        "1",
    );
    p(
        "persist.append_us",
        delta.mean("persist_wal_append_us"),
        "us",
    );
    p(
        "persist.flush_wait_mean_us",
        delta.mean("persist_flush_wait_us"),
        "us",
    );
    p(
        "persist.group_batch_mean",
        delta.mean("persist_group_commit_batch"),
        "1",
    );
    let appends = delta.counter("persist_wal_appends_total");
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    p(
        "persist.fsyncs_per_write",
        ratio(delta.counter("persist_wal_fsyncs_total"), appends),
        "1",
    );
    p(
        "persist.fsync_mean_us",
        delta.mean("persist_wal_fsync_us"),
        "us",
    );
    p(
        "persist.compactions",
        delta.counter("persist_compactions_total") as f64,
        "count",
    );
    p(
        "persist.snapshot_write_mean_us",
        delta.mean("persist_snapshot_write_us"),
        "us",
    );
    let wal_bytes = delta.counter("persist_wal_append_bytes_total");
    let snap_bytes = delta.counter("persist_snapshot_bytes_total");
    p(
        "persist.snapshot_bytes_mean",
        ratio(snap_bytes, delta.counter("persist_snapshots_total")),
        "bytes",
    );
    p(
        "persist.write_amp",
        ratio(wal_bytes + snap_bytes, wal_bytes),
        "1",
    );
    let leases = window.lat_ns[LEASE].len() as u64 + window.short_leases;
    p(
        "session.empty_lease_ratio",
        ratio(window.short_leases, leases),
        "1",
    );
    p("gen.cpu_s", gen_ns as f64 / 1e9, "s");
}

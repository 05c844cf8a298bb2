//! Correctness harness for the tagging server: concurrent deterministic
//! clients lease task batches, report completions and poll metrics over real
//! TCP, then every session is drained to budget exhaustion and its final
//! state is checked and, with `--check`, written as a canonical digest.
//! Speed is measured by `svcbench` (`svcbench/README.md`), not here: the
//! harness records no timings and writes no file but the digest.
//!
//! Usage: `cargo build --release -p tagging-server`, then
//! `./target/release/repro_loadgen [options]`. Without `--addr` the harness
//! spawns the `tagging_server` built beside it and shuts it down at the end;
//! it never shuts down a server it did not spawn.
//!
//! * `--addr HOST:PORT` — target a running server instead;
//! * `--clients N` — concurrent clients (default 4);
//! * `--idle N` — also hold N keep-alive connections that stay silent for the
//!   whole drive and must still answer a final probe (default 0);
//! * `--requests N` — total HTTP requests to drive (default 12000);
//! * `--check PATH` — write the digest of the drained state to `PATH`. Runs
//!   that differ only in shard count, telemetry build, store flags or a crash
//!   must produce byte-identical digests;
//! * `--crash-after N` — SIGKILL the daemon once N requests were served,
//!   restart it on the same `--data-dir`, verify every session recovered, and
//!   resume the drive (needs `--data-dir` and N below `--requests`);
//! * `--shards`, `--data-dir`, `--snapshot-every`, `--fsync`,
//!   `--flush-interval-ms`, `--compact-interval-ms` — passed unchanged to the
//!   spawned daemon, which alone knows their rules; refused with `--addr`.
//!
//! Every run takes one path: register → drive (→ SIGKILL, restart, verify,
//! resume) → report pending ("ghost") leases → drain → final checks → digest
//! → shutdown. The fleet is 6 small sessions cycling FP, RR, MU and FP-MU plus
//! 2 giants on FP and RR, which get ~3/4 of the traffic. Each server the
//! harness connects to prints one `healthz` stderr line with its `durable`
//! and `flush` values.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use serde::Value;
use tagging_server::http::HttpClient;

/// Small sessions in the fleet (40 resources, budget 600 each).
const SMALL: usize = 6;
/// Giant sessions in the fleet (400 resources, budget 12,000 each).
const LARGE: usize = 2;
/// Tasks a client leases per batch request.
const BATCH: u64 = 8;
/// Root seed of the fleet's corpora and of the clients' scenario choice.
const SEED: u64 = 1;
/// Flags handed to a spawned daemon exactly as given.
const DAEMON_FLAGS: [&str; 6] = [
    "--shards",
    "--data-dir",
    "--snapshot-every",
    "--fsync",
    "--flush-interval-ms",
    "--compact-interval-ms",
];
/// The harness's own flags.
const OWN_FLAGS: [&str; 6] = [
    "--addr",
    "--clients",
    "--idle",
    "--requests",
    "--check",
    "--crash-after",
];

struct Options {
    addr: Option<String>,
    clients: usize,
    idle: usize,
    requests: usize,
    check: Option<String>,
    crash_after: Option<usize>,
    /// The `DAEMON_FLAGS` given on the command line, as flag/value pairs.
    daemon_args: Vec<String>,
}

impl Options {
    /// Parses `--flag value` pairs; an unknown flag, a missing value or a
    /// malformed number is an error, never a silent default.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut given = HashMap::new();
        for pair in args.chunks(2) {
            let flag = pair[0].as_str();
            if !OWN_FLAGS.contains(&flag) && !DAEMON_FLAGS.contains(&flag) {
                return Err(format!("unknown flag `{flag}`"));
            }
            let value = pair.get(1).ok_or(format!("{flag} expects a value"))?;
            given.insert(flag, value.clone());
        }
        let number = |flag: &str| -> Result<Option<usize>, String> {
            let parse = |v: &String| v.parse().map_err(|_| format!("{flag}: bad number `{v}`"));
            given.get(flag).map(parse).transpose()
        };
        let options = Self {
            addr: given.get("--addr").cloned(),
            clients: number("--clients")?.unwrap_or(4).max(1),
            idle: number("--idle")?.unwrap_or(0),
            requests: number("--requests")?.unwrap_or(12_000),
            check: given.get("--check").cloned(),
            crash_after: number("--crash-after")?,
            daemon_args: DAEMON_FLAGS
                .iter()
                .filter_map(|flag| Some([flag.to_string(), given.get(flag)?.clone()]))
                .flatten()
                .collect(),
        };
        if options.addr.is_some() && !options.daemon_args.is_empty() {
            return Err("store flags configure a spawned daemon; drop them with --addr".into());
        }
        match options.crash_after {
            Some(_) if options.addr.is_some() || !given.contains_key("--data-dir") => {
                Err("--crash-after spawns its own daemon and needs --data-dir".into())
            }
            Some(n) if n >= options.requests => {
                Err("--crash-after must be below --requests".into())
            }
            _ => Ok(options),
        }
    }
}

/// One registered session of the fleet.
struct ScenarioHandle {
    id: u64,
    strategy: &'static str,
    resources: u64,
    budget: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = Options::parse(&args).unwrap_or_else(|message| {
        eprintln!("repro_loadgen: {message}");
        std::process::exit(2);
    });
    if let Err(message) = run(&options) {
        eprintln!("repro_loadgen failed: {message}");
        std::process::exit(1);
    }
}

fn run(options: &Options) -> Result<(), String> {
    let mut daemon = match options.addr {
        Some(_) => None,
        None => Some(Daemon::spawn(options)?),
    };
    let mut addr = match &daemon {
        Some(daemon) => daemon.addr.clone(),
        None => options
            .addr
            .clone()
            .expect("--addr when no daemon is spawned"),
    };
    let (mut admin, _) = connect(&addr)?;
    let fleet = register_fleet(&mut admin)?;

    // The silent keep-alive fleet: each connection proves liveness once, then
    // sends nothing until the final probe after the drain.
    let mut idle_fleet = Vec::with_capacity(options.idle);
    for i in 0..options.idle {
        let mut client = HttpClient::connect(&addr).map_err(|e| format!("idle {i}: {e}"))?;
        call(&mut client, "GET", "/healthz", None).map_err(|e| format!("idle {i}: {e}"))?;
        idle_fleet.push(client);
    }

    let issued = AtomicUsize::new(0);
    if let Some(crash_after) = options.crash_after {
        let first = daemon.as_mut().expect("--crash-after spawns its daemon");
        let aborted = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while issued.load(Ordering::Relaxed) < crash_after
                    && !aborted.load(Ordering::SeqCst)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Raise the flag first, so the clients take the failures the
                // kill causes as expected. No flush, no shutdown marker.
                aborted.store(true, Ordering::SeqCst);
                let _ = first.child.kill();
                let _ = first.child.wait();
            });
            let driven = drive(&addr, &fleet, options, &issued, &aborted);
            aborted.store(true, Ordering::SeqCst);
            driven
        })?;
        eprintln!(
            "killed the daemon after {} requests (threshold {crash_after})",
            issued.load(Ordering::Relaxed)
        );
        let restarted = Daemon::spawn(options)?;
        addr = restarted.addr.clone();
        daemon = Some(restarted);
        let sessions;
        (admin, sessions) = connect(&addr)?;
        if sessions != fleet.len() as u64 {
            return Err(format!("{sessions} of {} sessions recovered", fleet.len()));
        }
    }
    let leased = drive(&addr, &fleet, options, &issued, &AtomicBool::new(false))?;

    // Complete the leases a crash left pending, then drain every session to
    // budget exhaustion so the final state is a pure function of the workload,
    // whatever the interleaving — the property the digest relies on.
    let mut ghosts = 0;
    let mut final_metrics = Vec::with_capacity(fleet.len());
    for scenario in &fleet {
        let (id, budget) = (scenario.id, scenario.budget);
        ghosts += report_ghosts(&mut admin, id)?;
        let client_leases = leased.get(&id).copied().unwrap_or(0) + drain(&mut admin, id)?;
        let metrics = call(&mut admin, "GET", &at(id, "metrics"), None)?;
        match metrics.get("budget_spent") {
            Some(&Value::UInt(spent)) if spent as usize == budget => {}
            other => {
                return Err(format!(
                    "scenario {id}: budget {budget} not drained: {other:?}"
                ))
            }
        }
        // Leases the first daemon acknowledged just before a SIGKILL never
        // reach a client tally, so only an uninterrupted run can match them.
        if options.crash_after.is_none() && client_leases != budget {
            return Err(format!(
                "scenario {id}: server accounted {budget} tasks but clients leased {client_leases}"
            ));
        }
        match metrics.get("mean_quality") {
            Some(Value::Float(q)) if (0.0..=1.0).contains(q) => {}
            other => return Err(format!("scenario {id}: bad mean_quality {other:?}")),
        }
        final_metrics.push((scenario, metrics));
    }
    // Without a crash every lease was reported, and the silent fleet must
    // have outlived the whole drive (a crash takes the fleet's daemon).
    if options.crash_after.is_none() {
        if ghosts > 0 {
            return Err(format!("the drive left {ghosts} leases pending"));
        }
        for (i, client) in idle_fleet.iter_mut().enumerate() {
            call(client, "GET", "/healthz", None).map_err(|e| format!("idle {i}: {e}"))?;
        }
    }
    drop(idle_fleet);

    if let Some(path) = &options.check {
        let text = serde_json::to_string_pretty(&check_digest(&final_metrics))
            .expect("Value serialization is total");
        std::fs::write(path, text.as_bytes()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote response digest to {path}");
    }
    if let Some(daemon) = daemon {
        daemon.shutdown(&mut admin)?;
    }
    println!(
        "drove {} requests with {} clients (+{} idle), reported {ghosts} ghost leases, \
         drained every budget",
        issued.load(Ordering::Relaxed),
        options.clients,
        options.idle
    );
    Ok(())
}

/// Drives `--clients` keep-alive clients against `addr` until `issued`
/// reaches `--requests`. Each client leases a batch, reports every lease and
/// polls metrics on every 8th iteration. Returns the tasks the clients leased
/// per session. A client whose request fails after `aborted` went up (just
/// before a SIGKILL) stops quietly with its tally; any earlier failure fails
/// the run.
fn drive(
    addr: &str,
    fleet: &[ScenarioHandle],
    options: &Options,
    issued: &AtomicUsize,
    aborted: &AtomicBool,
) -> Result<HashMap<u64, usize>, String> {
    let client = |index: usize| -> Result<HashMap<u64, usize>, String> {
        let mut tally = HashMap::new();
        let mut requests = || -> Result<(), String> {
            let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut send = |method: &str, path: String, body: Option<Value>| {
                let response = call(&mut client, method, &path, body.as_ref());
                issued.fetch_add(1, Ordering::Relaxed);
                response
            };
            let mut iteration = 0;
            while issued.load(Ordering::Relaxed) < options.requests {
                let id = fleet[pick_scenario(index, iteration)].id;
                let tasks = task_ids(&send("POST", at(id, "batch"), Some(lease(BATCH)))?);
                *tally.entry(id).or_insert(0) += tasks.len();
                if !tasks.is_empty() {
                    let response = send("POST", at(id, "report"), Some(report_body(tasks)))?;
                    if response.get("accepted").is_none() {
                        return Err(format!("report rejected: {response:?}"));
                    }
                }
                if iteration % 8 == 7 {
                    send("GET", at(id, "metrics"), None)?;
                }
                iteration += 1;
            }
            Ok(())
        };
        // Judged when the failure happens: only the kill excuses it.
        match requests() {
            Err(e) if !aborted.load(Ordering::SeqCst) => Err(format!("client {index}: {e}")),
            _ => Ok(tally),
        }
    };
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..options.clients)
            .map(|index| scope.spawn(move || client(index)))
            .collect();
        let mut leased = HashMap::new();
        for handle in clients {
            for (id, n) in handle.join().map_err(|_| "client thread panicked")?? {
                *leased.entry(id).or_insert(0) += n;
            }
        }
        Ok(leased)
    })
}

/// The deterministic skewed scenario choice (a SplitMix64 finalizer over
/// client and iteration): the two giants at the tail of the fleet receive
/// ~3/4 of the traffic.
fn pick_scenario(client: usize, iteration: usize) -> usize {
    let mut x = SEED
        ^ (client as u64).wrapping_mul(0x0100_0000_01b3)
        ^ (iteration as u64).wrapping_mul(0x9e37_79b9);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let r = x ^ (x >> 31);
    let pick = (r / 4) as usize;
    if r.is_multiple_of(4) {
        pick % (SMALL + LARGE)
    } else {
        SMALL + pick % LARGE
    }
}

/// A `tagging_server` child process and the address it bound. Dropping it
/// kills the process, so no failure path leaves a daemon behind.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open but not read past the banner: the daemon's only later
    /// stdout line is its shutdown notice, which the pipe buffer absorbs.
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the `tagging_server` built beside this binary on an ephemeral
    /// port with the forwarded flags, and reads the bound address from its
    /// startup banner.
    fn spawn(options: &Options) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin = exe.with_file_name("tagging_server");
        let workers = (options.clients + 1).min(8).to_string();
        let mut child = Command::new(&bin)
            .args(["--port", "0", "--workers", &workers])
            .args(&options.daemon_args)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {} ({e}); build it first", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout,
        };
        let mut line = String::new();
        while daemon.addr.is_empty() {
            line.clear();
            let read = daemon.stdout.read_line(&mut line);
            if read.map_err(|e| format!("daemon stdout: {e}"))? == 0 {
                let status = daemon.child.wait().map_err(|e| format!("daemon: {e}"))?;
                return Err(format!("daemon exited ({status}) before listening"));
            }
            eprint!("daemon: {line}");
            if let Some(rest) = line.strip_prefix("listening on ") {
                daemon.addr = rest.trim().to_string();
            }
        }
        Ok(daemon)
    }

    /// Sends `POST /shutdown` and requires the daemon to exit cleanly.
    fn shutdown(mut self, admin: &mut HttpClient) -> Result<(), String> {
        call(admin, "POST", "/shutdown", None)?;
        match self.child.wait() {
            Ok(status) if status.success() => {
                eprintln!("daemon shut down cleanly");
                Ok(())
            }
            other => Err(format!("daemon shutdown: {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Connects an admin client, prints the server's `durable` and `flush`
/// values from `GET /healthz` as one stderr line, and returns the client
/// with the server's session count.
fn connect(addr: &str) -> Result<(HttpClient, u64), String> {
    let mut admin = HttpClient::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
    let health = call(&mut admin, "GET", "/healthz", None)?;
    let (Some(Value::Bool(durable)), Some(&Value::UInt(sessions))) =
        (health.get("durable"), health.get("sessions"))
    else {
        return Err(format!("unexpected healthz: {health:?}"));
    };
    let flush = match health.get("flush") {
        Some(Value::String(flush)) => flush.as_str(),
        _ => "none",
    };
    eprintln!("healthz {addr}: durable={durable} flush={flush} sessions={sessions}");
    Ok((admin, sessions))
}

/// Registers the fleet: `SMALL` small sessions cycling every allocator, then
/// `LARGE` giants on the two strategies whose fully-drained state does not
/// depend on the interleaving (FP, RR) — the property the digest relies on.
fn register_fleet(admin: &mut HttpClient) -> Result<Vec<ScenarioHandle>, String> {
    const SMALL_STRATEGIES: [&str; 4] = ["FP", "RR", "MU", "FP-MU"];
    let small = (0..SMALL).map(|i| (SMALL_STRATEGIES[i % 4], 40, 600, SEED + i as u64));
    let large = (0..LARGE).map(|j| (["FP", "RR"][j % 2], 400, 12_000, SEED + 1_000 + j as u64));
    small
        .chain(large)
        .map(|(strategy, resources, budget, corpus_seed)| {
            let source = obj(vec![
                ("resources", Value::UInt(resources)),
                ("seed", Value::UInt(corpus_seed)),
            ]);
            let body = obj(vec![
                ("strategy", Value::String(strategy.to_string())),
                ("budget", Value::UInt(budget as u64)),
                ("seed", Value::UInt(SEED)),
                ("source", obj(vec![("generate", source)])),
            ]);
            let registered = call(admin, "POST", "/scenarios", Some(&body))?;
            let (Some(&Value::UInt(id)), Some(&Value::UInt(resources))) =
                (registered.get("scenario_id"), registered.get("resources"))
            else {
                return Err(format!("unexpected registration: {registered:?}"));
            };
            eprintln!(
                "registered scenario {id}: {strategy}, {resources} resources, budget {budget}"
            );
            Ok(ScenarioHandle {
                id,
                strategy,
                resources,
                budget,
            })
        })
        .collect()
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Sends one request and requires a 200.
fn call(
    client: &mut HttpClient,
    method: &str,
    path: &str,
    body: Option<&Value>,
) -> Result<Value, String> {
    let (status, value) = client
        .request(method, path, body)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    if status != 200 {
        return Err(format!("{method} {path} returned {status}: {value:?}"));
    }
    Ok(value)
}

/// The path of one session's endpoint.
fn at(id: u64, endpoint: &str) -> String {
    format!("/scenarios/{id}/{endpoint}")
}

/// A batch request body leasing up to `k` tasks.
fn lease(k: u64) -> Value {
    obj(vec![("k", Value::UInt(k))])
}

/// The task ids of a batch response.
fn task_ids(batch: &Value) -> Vec<Value> {
    match batch.get("tasks") {
        Some(Value::Array(tasks)) => tasks
            .iter()
            .filter_map(|t| t.get("task_id").cloned())
            .collect(),
        _ => Vec::new(),
    }
}

/// A report body completing `ids` by replaying the recorded future posts.
fn report_body(ids: Vec<Value>) -> Value {
    let completions = ids
        .into_iter()
        .map(|id| obj(vec![("task_id", id)]))
        .collect();
    obj(vec![("completions", Value::Array(completions))])
}

/// Reports every pending lease of a session (after a crash: the leases the
/// killed daemon persisted but whose clients died); returns how many.
fn report_ghosts(admin: &mut HttpClient, id: u64) -> Result<usize, String> {
    let response = call(admin, "GET", &at(id, "tasks"), None)?;
    let Some(Value::Array(pending)) = response.get("pending") else {
        return Err(format!("no pending array: {response:?}"));
    };
    for chunk in pending.chunks(64) {
        call(
            admin,
            "POST",
            &at(id, "report"),
            Some(&report_body(chunk.to_vec())),
        )?;
    }
    Ok(pending.len())
}

/// Leases and immediately reports batches of 64 until the session's budget
/// is exhausted; returns how many tasks were drained.
fn drain(admin: &mut HttpClient, id: u64) -> Result<usize, String> {
    let mut drained = 0;
    loop {
        let tasks = task_ids(&call(admin, "POST", &at(id, "batch"), Some(&lease(64)))?);
        if tasks.is_empty() {
            return Ok(drained);
        }
        drained += tasks.len();
        call(admin, "POST", &at(id, "report"), Some(&report_body(tasks)))?;
    }
}

/// Canonical digest of the fully-drained final state.
///
/// Every session contributes its invariant fields; sessions on FP/RR also
/// contribute quality, undelivered count and allocation, because for those
/// two strategies the fully-drained allocation is a pure function of the
/// total spend, whatever the client interleaving. MU/FP-MU state depends on
/// observation order, so their detailed fields are left out. Telemetry never
/// contributes: the digest must not depend on whether metrics are recorded.
fn check_digest(final_metrics: &[(&ScenarioHandle, Value)]) -> Value {
    let entries = final_metrics
        .iter()
        .map(|(scenario, metrics)| {
            let field = |key: &str| metrics.get(key).cloned().unwrap_or(Value::Null);
            let mut fields = vec![
                ("strategy", Value::String(scenario.strategy.to_string())),
                ("resources", Value::UInt(scenario.resources)),
                ("budget", Value::UInt(scenario.budget as u64)),
                ("budget_spent", field("budget_spent")),
                ("pending_tasks", field("pending_tasks")),
            ];
            if matches!(scenario.strategy, "FP" | "RR") {
                for key in ["mean_quality", "undelivered", "allocation"] {
                    fields.push((key, field(key)));
                }
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("report", Value::String("loadgen-check".to_string())),
        ("scenarios", Value::Array(entries)),
    ])
}

//! The traced run: a single-threaded in-process replay of the workload's
//! seeded request sequence, timing calls into each layer's public functions
//! from here, so nothing inside the program changes.
//!
//! Three identical service states advance in lockstep, request by request:
//!
//! * pass A sends the request through `TaggingService::handle` and times it
//!   as `service.handle`;
//! * pass B calls the pieces that handler composes itself, each as a child
//!   span of one `request` span: `http::parse_request`,
//!   `protocol::parse_batch` / `parse_report`, the registry lookup and the
//!   session lock,
//!   `LiveSession::validate_reports`, `PersistStore::append`,
//!   `LiveSession::next_batch` / `report` / `metrics`, `batch_to_value` /
//!   `metrics_to_value` and `http::response_bytes`;
//! * pass C repeats pass B with spans off, timed as a whole; the summed
//!   difference between B's request spans and C is the tracing overhead.
//!
//! The tracer's own cost per span (its clock reads, calibrated on empty
//! spans) is subtracted from every piece and every `service.handle`
//! sample. `trace.pieces_ratio.{op}` pairs the passes request by request
//! and leaves out each pass's group-commit wait, which follows its store's
//! flusher phase rather than the code.
//!
//! Running them in lockstep pairs every comparison under the same machine
//! conditions, and lets the three responses be compared byte for byte.
//! Each pass opens its own fresh copy of the history, with the store's
//! maintenance tenants running so the group-commit gate behaves as it does
//! in the daemon. Pass B's set-up — `PersistStore::open`, corpus
//! regeneration and `LiveSession::replay_events` — is traced too, as child
//! spans of one `setup` span. Spans stay in memory and are written to a file
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Value;

use tagging_persist::{spawn_maintenance, PersistOptions, PersistStore, RecoveredState, WalEvent};
use tagging_runtime::{FlushPolicy, Runtime, Scheduler};
use tagging_server::http::{parse_request, response_bytes, Response};
use tagging_server::protocol::{batch_to_value, metrics_to_value, parse_batch, parse_report};
use tagging_server::TaggingService;
use tagging_sim::registry::SessionRegistry;
use tagging_sim::session::SessionEvent;

use crate::client::{numbers_after, request};
use crate::fleet::{mix, step, SessionSpec, Step, Targets, Workload, BATCH_K, CONNECTIONS};
use crate::stats::median_f64;
use crate::verify::{open_session, scenario_of};
use crate::walprep::{self, History, SHARDS};

/// Iterations replayed: every lease and report waits for a group-commit
/// tick, once in each of the three passes.
const ITERATIONS: u64 = 300;

/// Empty spans timed to calibrate the tracer's own cost per span.
const CALIBRATION_SPANS: usize = 20_000;

/// The iteration sequence of the traced run: the connections' streams,
/// interleaved iteration by iteration.
fn sequence(seed: u64, fleet: &[SessionSpec], iterations: u64) -> Vec<Step> {
    let targets = Targets::of(fleet);
    (0..iterations / CONNECTIONS as u64)
        .flat_map(|i| (0..CONNECTIONS).map(move |c| (c, i)))
        .map(|(c, i)| step(seed, &targets, c, i))
        .collect()
}

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    request: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; with `on == false` it reads no clock and stores nothing.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, its memory touched up front
    /// so no page fault lands inside a timed span.
    fn new(on: bool, capacity: usize) -> Self {
        let origin = Instant::now();
        let blank = Span {
            name: "",
            request: 0,
            parent: None,
            start_ns: 0,
            end_ns: 0,
        };
        let mut spans = vec![blank; capacity];
        spans.clear();
        Self { on, origin, spans }
    }

    fn open(&mut self, name: &'static str, request: u32, parent: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        // Record first, read the clock last: the bookkeeping stays outside
        // the span.
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        let span = self.spans.len() - 1;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[span].start_ns = start_ns;
        span
    }

    fn close(&mut self, span: usize) {
        if self.on {
            self.spans[span].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, request, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// The median length of an empty span: what the tracer itself adds to
    /// every span it records, mostly its clock reads. Leaves no spans.
    fn span_cost_ns(&mut self) -> u64 {
        let mut lengths: Vec<u64> = (0..CALIBRATION_SPANS)
            .map(|_| {
                let root = self.open("calibration", 0, None);
                let span = self.open("calibration", 0, Some(root));
                self.close(span);
                let ns = self.spans[span].ns();
                self.spans.clear();
                ns
            })
            .collect();
        lengths.sort_unstable();
        lengths[lengths.len() / 2]
    }
}

/// Per-layer results of the traced run.
#[derive(Debug, Default)]
pub struct TraceReport {
    /// `(name, value, unit)` per-layer metrics.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Where the spans were written.
    pub spans_path: PathBuf,
    /// Mismatches between the passes (each is a failed check).
    pub failures: Vec<String>,
    /// Checks made.
    pub checks: u64,
}

/// The service state passes B and C run on: the sessions in a registry
/// keyed by id, as the daemon holds them, and the store.
struct Fixture {
    sessions: SessionRegistry,
    store: Arc<PersistStore>,
    scheduler: Scheduler,
}

/// Pass A's state: the daemon's own service type, in-process.
struct ServiceFixture {
    service: TaggingService,
    scheduler: Scheduler,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.scheduler.shutdown();
    }
}

impl Drop for ServiceFixture {
    fn drop(&mut self) {
        self.scheduler.shutdown();
    }
}

/// Opens a group-commit store on a fresh copy of the history, the open
/// itself (not the copy) in a `persist.open` span under `setup`.
fn open_store(
    history: &History,
    dir: &Path,
    tracer: &mut Tracer,
    setup: usize,
) -> Result<(PersistStore, RecoveredState), String> {
    walprep::copy_fresh(history, dir)?;
    let mut options = PersistOptions::new(dir, SHARDS);
    options.flush = FlushPolicy::Group;
    tracer
        .time("persist.open", 0, setup, || PersistStore::open(&options))
        .map_err(|e| e.to_string())
}

/// Pass B/C state over a fresh copy of the history: open the store, rebuild
/// every recovered session and replay its journal, each step a child span of
/// one `setup` span. Also returns the number of events replayed.
fn recovered_fixture(
    fleet: &[SessionSpec],
    history: &History,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(Fixture, u64), String> {
    let setup = tracer.open("setup", 0, None);
    let (store, recovered) = open_store(history, dir, tracer, setup)?;
    let mut recovered_events = 0;
    if recovered.sessions.len() != fleet.len() {
        return Err(format!(
            "recovered {} sessions, the history has {}",
            recovered.sessions.len(),
            fleet.len()
        ));
    }
    let sessions = SessionRegistry::new(SHARDS);
    for (id, state) in &recovered.sessions {
        let spec = &fleet[*id as usize - 1];
        let (scenario, dictionary) = tracer.time("setup.corpus", 0, setup, || scenario_of(spec));
        let mut session = open_session(spec, scenario, dictionary);
        tracer
            .time("session.replay_events", 0, setup, || {
                session.replay_events(&state.events)
            })
            .map_err(|e| format!("replaying session {id}: {e}"))?;
        recovered_events += state.events.len() as u64;
        sessions.insert(*id, Arc::new(Mutex::new(session)));
    }
    tracer.close(setup);
    let store = Arc::new(store);
    let mut scheduler = Scheduler::new();
    spawn_maintenance(&store, &mut scheduler);
    Ok((
        Fixture {
            sessions,
            store,
            scheduler,
        },
        recovered_events,
    ))
}

fn service_fixture(history: &History, dir: &Path) -> Result<ServiceFixture, String> {
    let mut scheduler = Scheduler::new();
    let (store, recovered) = open_store(history, dir, &mut Tracer::new(false, 0), 0)?;
    let service =
        TaggingService::with_persist(Runtime::new(1), SHARDS, Arc::new(store), &recovered)
            .map_err(|e| e.to_string())?;
    if let Some(store) = service.persist_store() {
        spawn_maintenance(&store, &mut scheduler);
    }
    Ok(ServiceFixture { service, scheduler })
}

/// What one request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lease,
    Report,
    Read,
}

/// Issues the requests of `steps` in order: `serve(kind, session index,
/// bytes)` answers each with the response body text. Built lazily because a
/// report names the task ids its lease returned.
fn replay(
    steps: &[Step],
    mut serve: impl FnMut(Kind, usize, &[u8]) -> Result<String, String>,
) -> Result<(), String> {
    for s in steps {
        let id = s.session + 1;
        let lease_body = format!("{{\"k\":{}}}", s.k);
        let lease = serve(
            Kind::Lease,
            s.session,
            &request("POST", &format!("/scenarios/{id}/batch"), &lease_body),
        )?;
        let tasks = numbers_after(&lease, "task_id");
        if tasks.len() != s.k {
            return Err(format!(
                "traced lease on {id} returned {} tasks",
                tasks.len()
            ));
        }
        let completions: Vec<String> = tasks
            .iter()
            .map(|t| format!("{{\"task_id\":{t}}}"))
            .collect();
        let report_body = format!("{{\"completions\":[{}]}}", completions.join(","));
        serve(
            Kind::Report,
            s.session,
            &request("POST", &format!("/scenarios/{id}/report"), &report_body),
        )?;
        serve(
            Kind::Read,
            s.session,
            &request("GET", &format!("/scenarios/{id}/metrics"), ""),
        )?;
    }
    Ok(())
}

fn json_text(value: &Value) -> String {
    serde_json::to_string(value).expect("Value serialization is total")
}

/// Pass B / C for one request: the handler's pieces, each in its own span
/// under one `request` span. Returns the response and its wire size.
fn serve_pieces(
    fixture: &Fixture,
    tracer: &mut Tracer,
    r: u32,
    kind: Kind,
    index: usize,
    bytes: &[u8],
) -> Result<(Response, usize), String> {
    let root = tracer.open("request", r, None);
    let (request, _) = tracer
        .time("http.parse_request", r, root, || parse_request(bytes))
        .map_err(|e| e.to_string())?
        .ok_or("incomplete request")?;
    let id = index as u64 + 1;
    // As the handler's `persist_session_event`: clone the event into a WAL
    // record and append it.
    let append = |tracer: &mut Tracer, event: &SessionEvent| -> Result<(), String> {
        tracer
            .time("persist.append", r, root, || {
                let record = WalEvent::Session {
                    session: id,
                    event: event.clone(),
                };
                fixture.store.append(fixture.sessions.shard_of(id), &record)
            })
            .map_err(|e| format!("append: {e}"))
    };
    let lookup = |tracer: &mut Tracer| {
        tracer.time("service.lookup", r, root, || {
            fixture
                .sessions
                .get(id)
                .expect("every fleet session is registered")
        })
    };
    let value = match kind {
        Kind::Lease => {
            let k = tracer.time("protocol.parse_batch", r, root, || {
                parse_batch(&request.json().map_err(|e| e.to_string())?).map_err(|e| e.0)
            })?;
            let shared = lookup(tracer);
            let mut session = tracer.time("service.lock", r, root, || {
                shared
                    .lock()
                    .expect("no pass panics while holding a session")
            });
            let k = k.min(session.remaining_budget());
            append(tracer, &SessionEvent::Lease { k })?;
            let tasks = tracer.time("session.next_batch", r, root, || session.next_batch(k));
            tracer.time("protocol.batch_to_value", r, root, || {
                batch_to_value(&tasks, &session)
            })
        }
        Kind::Report => {
            let reports = tracer.time("protocol.parse_report", r, root, || {
                parse_report(&request.json().map_err(|e| e.to_string())?).map_err(|e| e.0)
            })?;
            let shared = lookup(tracer);
            let mut session = tracer.time("service.lock", r, root, || {
                shared
                    .lock()
                    .expect("no pass panics while holding a session")
            });
            tracer
                .time("session.validate_reports", r, root, || {
                    session.validate_reports(&reports)
                })
                .map_err(|e| e.to_string())?;
            append(
                tracer,
                &SessionEvent::Report {
                    reports: reports.clone(),
                },
            )?;
            let outcome = tracer
                .time("session.report", r, root, || session.report(&reports))
                .map_err(|e| e.to_string())?;
            tracer.time("protocol.report_to_value", r, root, || {
                Value::Object(vec![
                    ("accepted".to_string(), Value::UInt(outcome.accepted as u64)),
                    (
                        "delivered".to_string(),
                        Value::UInt(outcome.delivered as u64),
                    ),
                    (
                        "undelivered".to_string(),
                        Value::UInt(outcome.undelivered as u64),
                    ),
                ])
            })
        }
        Kind::Read => {
            let shared = lookup(tracer);
            let mut session = tracer.time("service.lock", r, root, || {
                shared
                    .lock()
                    .expect("no pass panics while holding a session")
            });
            let (metrics, pending) = tracer.time("session.metrics", r, root, || {
                (session.metrics(), session.pending_tasks())
            });
            tracer.time("protocol.metrics_to_value", r, root, || {
                metrics_to_value(&metrics, pending)
            })
        }
    };
    let response = Response::ok(value);
    let wire = tracer.time("http.response_bytes", r, root, || {
        response_bytes(&response, true)
    });
    tracer.close(root);
    Ok((response, wire.len()))
}

/// A response body with its wall-clock field (`runtime_seconds`, the time
/// the session itself measured) removed, so equal states compare equal.
fn comparable(body: &str) -> String {
    match body.find("\"runtime_seconds\":") {
        Some(at) => {
            let end = body[at..].find(',').map_or(body.len(), |e| at + e + 1);
            format!("{}{}", &body[..at], &body[end..])
        }
        None => body.to_string(),
    }
}

/// Every order in which the three passes can serve a request.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Spans outside the handler (transport framing), excluded from the sum
/// compared with `service.handle`.
const TRANSPORT: [&str; 2] = ["http.parse_request", "http.response_bytes"];

/// Runs the traced passes over `history` (which holds `fleet`) and derives
/// the per-layer metrics. Spans go to
/// `<work>/spans-<workload>-seed<seed>.tsv`.
pub fn run(
    workload: Workload,
    seed: u64,
    fleet: &[SessionSpec],
    history: &History,
    work: &Path,
) -> Result<TraceReport, String> {
    let spans_path = work.join(format!("spans-{}-seed{seed}.tsv", workload.name()));
    traced(seed, fleet, history, work, ITERATIONS, spans_path)
}

fn traced(
    seed: u64,
    fleet: &[SessionSpec],
    history: &History,
    work: &Path,
    iterations: u64,
    spans_path: PathBuf,
) -> Result<TraceReport, String> {
    let steps = sequence(seed, fleet, iterations);
    let mut report = TraceReport::default();
    let dirs = ["trace-a", "trace-b", "trace-c"].map(|d| work.join(d));

    // Set-up spans: the root and three per session (the open counts once).
    let setup_spans = 2 + 2 * fleet.len();
    // At most 9 spans per request: the root and 8 pieces (a report).
    let mut tracer = Tracer::new(true, setup_spans + 9 * 3 * steps.len());
    let mut untraced = Tracer::new(false, 0);
    let span_cost_ns = tracer.span_cost_ns();
    let a = service_fixture(history, &dirs[0])?;
    let (b, recovered_events) = recovered_fixture(fleet, history, &dirs[1], &mut tracer)?;
    let (c, _) = recovered_fixture(fleet, history, &dirs[2], &mut untraced)?;

    let store_a = a.service.persist_store().ok_or("pass A has no store")?;
    // Every store in this process records its group-commit waits in this
    // one histogram, and the passes run one at a time, so its growth across
    // a call is that call's wait.
    let gate = tagging_telemetry::global().histogram("persist_flush_wait_us", &[], "");
    let gate_ns = || gate.snapshot().sum * 1_000;
    let mut handle_ns: [Vec<f64>; 3] = Default::default();
    // Per request: pass A's handler time and pass B's piece sum, each less
    // its own group-commit wait.
    let mut work_a: [Vec<f64>; 3] = Default::default();
    let mut waits_b: [Vec<f64>; 3] = Default::default();
    let mut untraced_ns = 0u64;
    let mut sizes = Vec::new();
    let mut backlog_max = 0;
    let mut mismatches = 0u64;
    let mut requests = 0u32;
    replay(&steps, |kind, index, bytes| {
        requests += 1;
        let (request, _) = parse_request(bytes)
            .map_err(|e| e.to_string())?
            .ok_or("incomplete request")?;
        // A pseudo-random order per request, out of all six: the pass that
        // runs first finds the caches cold after the others (or after a
        // group-commit wait), and a later pass runs code an earlier one
        // just warmed, so every pass must precede every other equally often.
        let order = ORDERS[(mix(u64::from(requests)) % 6) as usize];
        let mut bodies = [Value::Null, Value::Null, Value::Null];
        for lane in order {
            bodies[lane] = match lane {
                0 => {
                    let waited = gate_ns();
                    let t = Instant::now();
                    let handled = a.service.handle(&request);
                    let ns = (t.elapsed().as_nanos() as u64).saturating_sub(span_cost_ns);
                    handle_ns[kind as usize].push(ns as f64);
                    work_a[kind as usize].push(ns.saturating_sub(gate_ns() - waited) as f64);
                    if handled.response.status != 200 {
                        return Err(format!("pass A: {:?}", handled.response.body));
                    }
                    backlog_max = backlog_max.max(store_a.maintenance_status().backlog_events);
                    handled.response.body
                }
                1 => {
                    let waited = gate_ns();
                    let (response, size) =
                        serve_pieces(&b, &mut tracer, requests, kind, index, bytes)?;
                    waits_b[kind as usize].push((gate_ns() - waited) as f64);
                    sizes.push(size);
                    response.body
                }
                _ => {
                    let t = Instant::now();
                    let (response, _) =
                        serve_pieces(&c, &mut untraced, requests, kind, index, bytes)?;
                    untraced_ns += t.elapsed().as_nanos() as u64;
                    response.body
                }
            };
        }
        let texts = bodies.map(|body| json_text(&body));
        let same = texts.iter().map(|t| comparable(t));
        if same.clone().any(|t| t != comparable(&texts[0])) {
            mismatches += 1;
        }
        let [text_a, _, _] = texts;
        Ok(text_a)
    })?;
    drop((a, b, c));
    for dir in &dirs {
        walprep::remove(dir).map_err(|e| e.to_string())?;
    }
    report.checks += u64::from(requests);
    if mismatches > 0 {
        report.failures.push(format!(
            "{mismatches} of {requests} traced responses differ between the handler and its pieces"
        ));
    }

    // Group the spans: per request its kind, piece durations by name (net
    // of the tracer's own cost per span), and the sum of the pieces that
    // make up the handler.
    let spans = &tracer.spans;
    let net_ns = |span: usize| spans[span].ns().saturating_sub(span_cost_ns) as f64;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    let mut setup_s: BTreeMap<&str, f64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        match span.parent {
            Some(parent) => children[parent].push(i),
            None if span.name == "request" => roots.push(i),
            None => {}
        }
        if span.request == 0 && span.parent.is_some() {
            *setup_s.entry(span.name).or_default() += span.ns() as f64 / 1e9;
        }
    }
    let kinds = request_kinds(&steps);
    if roots.len() != kinds.len() {
        return Err(format!(
            "{} request spans for {} requests",
            roots.len(),
            kinds.len()
        ));
    }
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut pieces: [Vec<f64>; 3] = Default::default();
    let mut traced_ns = 0u64;
    for (&root, &kind) in roots.iter().zip(&kinds) {
        traced_ns += spans[root].ns();
        let mut handler = 0.0;
        for &child in &children[root] {
            let ns = net_ns(child);
            by_name.entry(spans[child].name).or_default().push(ns);
            if !TRANSPORT.contains(&spans[child].name) {
                handler += ns;
            }
        }
        pieces[kind as usize].push(handler);
    }
    let med_us = |names: &[&str]| {
        let all: Vec<f64> = names
            .iter()
            .flat_map(|n| by_name.get(n).cloned().unwrap_or_default())
            .collect();
        median_f64(&all) / 1e3
    };

    let m = &mut report.metrics;
    m.push((
        "http.parse_us".into(),
        med_us(&["http.parse_request"]),
        "us",
    ));
    m.push((
        "http.encode_us".into(),
        med_us(&["http.response_bytes"]),
        "us",
    ));
    m.push((
        "http.response_bytes".into(),
        sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64,
        "bytes",
    ));
    m.push((
        "protocol.decode_us".into(),
        med_us(&["protocol.parse_batch", "protocol.parse_report"]),
        "us",
    ));
    m.push((
        "protocol.encode_us".into(),
        med_us(&[
            "protocol.batch_to_value",
            "protocol.report_to_value",
            "protocol.metrics_to_value",
        ]),
        "us",
    ));
    for (kind, op) in ["lease", "report", "read"].iter().enumerate() {
        let handle = median_f64(&handle_ns[kind]) / 1e3;
        let sum = median_f64(&pieces[kind]) / 1e3;
        m.push((format!("service.handle_us.{op}"), handle, "us"));
        m.push((format!("service.glue_us.{op}"), handle - sum, "us"));
        // Paired per request, and net of each pass's group-commit wait: the
        // wait follows the phase of that pass's flusher, not the code, and
        // a median over a mix of cheap and dear sessions hides nothing the
        // pairing does not.
        let ratios: Vec<f64> = pieces[kind]
            .iter()
            .zip(&waits_b[kind])
            .zip(&work_a[kind])
            .filter(|(_, a)| **a > 0.0)
            .map(|((p, w), a)| (p - w) / a)
            .collect();
        m.push((format!("trace.pieces_ratio.{op}"), median_f64(&ratios), "1"));
    }
    m.push((
        "session.lease_us_per_task".into(),
        med_us(&["session.next_batch"]) / BATCH_K as f64,
        "us",
    ));
    m.push((
        "session.report_us".into(),
        med_us(&["session.report"]),
        "us",
    ));
    m.push(("session.read_us".into(), med_us(&["session.metrics"]), "us"));
    m.push((
        "service.lookup_us".into(),
        med_us(&["service.lookup"]),
        "us",
    ));
    m.push(("service.lock_us".into(), med_us(&["service.lock"]), "us"));
    m.push((
        "persist.append_call_us".into(),
        med_us(&["persist.append"]),
        "us",
    ));
    m.push(("persist.backlog_max".into(), backlog_max as f64, "events"));
    let setup = |name: &str| setup_s.get(name).copied().unwrap_or(0.0);
    m.push(("persist.open_s".into(), setup("persist.open"), "s"));
    m.push((
        "persist.recovered_events".into(),
        recovered_events as f64,
        "count",
    ));
    m.push((
        "session.replay_s".into(),
        setup("session.replay_events"),
        "s",
    ));
    m.push(("setup.corpus_s".into(), setup("setup.corpus"), "s"));
    m.push(("trace.span_cost_us".into(), span_cost_ns as f64 / 1e3, "us"));
    m.push(("trace.spans".into(), spans.len() as f64, "count"));
    m.push(("trace.traced_s".into(), traced_ns as f64 / 1e9, "s"));
    m.push((
        "trace.overhead_s".into(),
        (traced_ns as f64 - untraced_ns as f64) / 1e9,
        "s",
    ));

    write_spans(&spans_path, spans, &children).map_err(|e| e.to_string())?;
    report.spans_path = spans_path;
    Ok(report)
}

/// The kind of every request `replay` issues for `steps`, in order.
fn request_kinds(steps: &[Step]) -> Vec<Kind> {
    steps
        .iter()
        .flat_map(|_| [Kind::Lease, Kind::Report, Kind::Read])
        .collect()
}

/// Writes one line per span: request, span index, parent, name, start, end
/// and self time (the span minus its children), in nanoseconds.
fn write_spans(path: &Path, spans: &[Span], children: &[Vec<usize>]) -> std::io::Result<()> {
    let mut out = String::from("request\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    for (i, span) in spans.iter().enumerate() {
        let covered: u64 = children[i].iter().map(|&c| spans[c].ns()).sum();
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
            span.request,
            span.name,
            span.start_ns,
            span.end_ns,
            span.ns().saturating_sub(covered)
        )
        .expect("write to String");
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::fleet;

    #[test]
    fn runtime_field_is_removed() {
        assert_eq!(
            comparable(r#"{"a":1,"runtime_seconds":0.25,"b":2}"#),
            r#"{"a":1,"b":2}"#
        );
        assert_eq!(comparable(r#"{"a":1}"#), r#"{"a":1}"#);
    }

    /// Pass B's pieces answer exactly like the handler and account for its
    /// time: per request kind, the median ratio of piece sum to
    /// `service.handle` (group-commit waits aside) stays near 1. A missing
    /// piece would be far off; the margin is wide because the same code on
    /// two equal states differs by up to 19% from one run of this small
    /// replay to the next (reads have read 0.97 in one run, 1.19 in another).
    #[test]
    fn pieces_match_the_handler() {
        let mut fleet = fleet(Workload::WalFresh, 11);
        for spec in &mut fleet {
            spec.resources = spec.resources.min(200);
        }
        let work = crate::daemon::checkout_root()
            .join(".svcbench-work")
            .join(format!("trace-test-{}", std::process::id()));
        fs::create_dir_all(&work).unwrap();
        let history = walprep::ensure(&work, 11, &fleet, 0).unwrap();
        let spans = work.join("spans.tsv");
        let report = traced(11, &fleet, &history, &work, 120, spans.clone()).unwrap();
        let setup_spans = fs::read_to_string(&spans)
            .unwrap()
            .lines()
            .filter(|line| line.starts_with("0\t"))
            .count();
        fs::remove_dir_all(&work).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        // The root, the open, and a corpus and a replay span per session.
        assert_eq!(setup_spans, 2 + 2 * fleet.len());
        for op in ["lease", "report", "read"] {
            let ratio = report
                .metrics
                .iter()
                .find(|(name, _, _)| *name == format!("trace.pieces_ratio.{op}"))
                .unwrap()
                .1;
            assert!(
                (0.75..=1.33).contains(&ratio),
                "{op}: pieces/handle = {ratio}"
            );
        }
    }
}

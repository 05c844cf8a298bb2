//! The allocation service behind the HTTP layer: a registry of live sessions
//! plus pure request → response routing (no sockets here, so the whole
//! protocol is testable without TCP).
//!
//! | Method | Path                       | Effect                                   |
//! |--------|----------------------------|------------------------------------------|
//! | GET    | `/healthz`                 | liveness, session count, uptime, build   |
//! | GET    | `/metrics`                 | telemetry in Prometheus text format      |
//! | GET    | `/stats`                   | telemetry as a JSON snapshot             |
//! | POST   | `/scenarios`               | register a scenario, open a session      |
//! | POST   | `/scenarios/{id}/batch`    | lease the next batch of post tasks       |
//! | POST   | `/scenarios/{id}/report`   | report completed tasks                   |
//! | GET    | `/scenarios/{id}/metrics`  | incremental run metrics                  |
//! | GET    | `/scenarios/{id}/tasks`    | ids of leased-but-unreported tasks       |
//! | POST   | `/shutdown`                | finish in-flight requests, then exit     |
//!
//! ## Durability
//!
//! With a [`PersistStore`] attached, the service follows *append-before-
//! apply*: the WAL record of a state transition is written (and flushed to
//! the OS) before the transition is applied in memory and acknowledged. A
//! kill at any point therefore leaves the WAL a superset of what clients
//! were told — recovery can only restore *more* leases than clients saw
//! acknowledged, never fewer, and the extra ("ghost") leases surface as
//! pending tasks, queryable via `GET /scenarios/{id}/tasks`.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Value;

use delicious_sim::generator::generate_with;
use delicious_sim::io::load_corpus;
use tagging_persist::{CorpusOrigin, PersistStore, RecoveredState, Registration, WalEvent};
use tagging_runtime::{lock_unpoisoned, Runtime};
use tagging_sim::registry::{SessionRegistry, SharedSession};
use tagging_sim::scenario::{Scenario, ScenarioParams};
use tagging_sim::session::{LiveSession, SessionError, SessionEvent};

use crate::http::{Request, Response};
use crate::protocol::{
    batch_to_value, generator_config, metrics_to_value, parse_batch, parse_register, parse_report,
    CorpusSource, RegisterRequest,
};
use crate::telemetry::{snapshot_to_value, Route, ServerMetrics};
use tagging_core::stability::StabilityParams;
use tagging_sim::engine::RunConfig;
use tagging_strategies::StrategyKind;

/// The outcome of handling one request.
#[derive(Debug)]
pub struct Handled {
    /// The response to send.
    pub response: Response,
    /// True when the request asked the server to shut down.
    pub shutdown: bool,
    /// The route the request counted as (drives the flight-recorder label).
    pub route: Route,
    /// The session the request addressed, when its path named one.
    pub session: Option<u64>,
}

impl Handled {
    fn respond(response: Response) -> Self {
        Self {
            response,
            shutdown: false,
            route: Route::BadRequest,
            session: None,
        }
    }
}

/// The session registry and router.
///
/// Sessions live in a sharded [`SessionRegistry`]: requests on different
/// sessions lock different shards (and usually different sessions), so they
/// proceed concurrently; a panicking handler poisons at most its own session
/// mutex, which the poison-recovering locks heal on the next request instead
/// of bricking the registry.
pub struct TaggingService {
    sessions: SessionRegistry,
    next_id: AtomicU64,
    runtime: Runtime,
    /// WAL + snapshot store; `None` runs the service memory-only.
    persist: Option<Arc<PersistStore>>,
    /// Pre-resolved telemetry handles (route counters, latency histograms).
    metrics: ServerMetrics,
    /// Construction time; `/healthz` and `/stats` report uptime from it.
    started: Instant,
    /// Where the durable store lives and how it flushes, for `/healthz`
    /// (`None` when memory-only or not reported by the binder).
    persist_info: Option<PersistInfo>,
}

/// Human-facing description of the attached store (path + flush policy).
#[derive(Debug, Clone)]
struct PersistInfo {
    data_dir: String,
    flush: String,
}

impl std::fmt::Debug for TaggingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaggingService")
            .field("sessions", &self.sessions)
            .field("durable", &self.persist.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for TaggingService {
    fn default() -> Self {
        Self::new(Runtime::from_env())
    }
}

impl TaggingService {
    /// Creates an empty registry with the default shard count; `runtime`
    /// drives corpus generation and scenario preparation for registrations.
    pub fn new(runtime: Runtime) -> Self {
        Self::with_shards(runtime, tagging_sim::registry::DEFAULT_SHARDS)
    }

    /// Creates an empty registry striped over `shards` locks (rounded up to a
    /// power of two; 1 reproduces the single-lock design, which the golden
    /// equivalence tests use as the baseline).
    pub fn with_shards(runtime: Runtime, shards: usize) -> Self {
        Self {
            sessions: SessionRegistry::new(shards),
            next_id: AtomicU64::new(1),
            runtime,
            persist: None,
            metrics: ServerMetrics::resolve(),
            started: Instant::now(),
            persist_info: None,
        }
    }

    /// Attaches a durable store and rebuilds every recovered session by
    /// replaying its journal onto a freshly constructed session.
    ///
    /// The store's shard count must equal the registry's (each session's WAL
    /// shard is addressed by [`SessionRegistry::shard_of`]). A session whose
    /// journal no longer replays — e.g. its `corpus_path` file changed on
    /// disk — is an error: silently dropping state a client paid budget for
    /// is worse than refusing to start.
    pub fn with_persist(
        runtime: Runtime,
        shards: usize,
        store: Arc<PersistStore>,
        recovered: &RecoveredState,
    ) -> io::Result<Self> {
        let service = Self {
            sessions: SessionRegistry::new(shards),
            next_id: AtomicU64::new(1),
            runtime,
            persist: None, // set after recovery: replays must not re-append
            metrics: ServerMetrics::resolve(),
            started: Instant::now(),
            persist_info: None,
        };
        if store.shard_count() != service.sessions.shard_count() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "store has {} shards but the registry has {}",
                    store.shard_count(),
                    service.sessions.shard_count()
                ),
            ));
        }
        let mut next_id = 1;
        for (id, state) in &recovered.sessions {
            let session = service
                .rebuild_session(&state.registration, &state.events)
                .map_err(|reason| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("cannot recover session {id}: {reason}"),
                    )
                })?;
            service.sessions.insert(*id, Arc::new(Mutex::new(session)));
            next_id = next_id.max(id + 1);
        }
        service.next_id.store(next_id, Ordering::Relaxed);
        Ok(Self {
            persist: Some(store),
            ..service
        })
    }

    /// Builds the live session a [`Registration`] describes and replays
    /// `events` onto it.
    fn rebuild_session(
        &self,
        registration: &Registration,
        events: &[SessionEvent],
    ) -> Result<LiveSession<'static>, String> {
        let strategy = StrategyKind::parse(&registration.strategy)
            .ok_or_else(|| format!("unknown strategy `{}`", registration.strategy))?;
        let source = match &registration.source {
            CorpusOrigin::Generate { resources, seed } => CorpusSource::Generate {
                resources: *resources as usize,
                seed: *seed,
            },
            CorpusOrigin::Path(path) => CorpusSource::Load(path.into()),
        };
        let register = RegisterRequest {
            strategy,
            config: RunConfig {
                budget: registration.budget as usize,
                omega: registration.omega as usize,
                seed: registration.seed,
            },
            source,
            scenario_params: ScenarioParams {
                stability: StabilityParams::new(
                    registration.stability_window as usize,
                    registration.stability_tau,
                ),
                under_tagged_threshold: registration.under_tagged_threshold as usize,
            },
        };
        let mut session = self.build_session(&register)?;
        session
            .replay_events(events)
            .map_err(|e| format!("journal replay failed: {e}"))?;
        Ok(session)
    }

    /// Builds the live session of a registration: source the corpus, freeze
    /// the scenario, construct the session. Errors are client-facing
    /// messages (the register route answers them as 400).
    fn build_session(&self, register: &RegisterRequest) -> Result<LiveSession<'static>, String> {
        let corpus = match &register.source {
            CorpusSource::Generate { resources, seed } => {
                generate_with(&generator_config(*resources, *seed), &self.runtime)
            }
            CorpusSource::Load(path) => {
                load_corpus(path).map_err(|e| format!("cannot load corpus: {e}"))?
            }
        };
        if corpus.corpus.resources.is_empty() {
            return Err("corpus has no resources".to_string());
        }
        let dictionary = corpus.corpus.tags.clone();
        let scenario =
            Scenario::from_corpus_with(&corpus, &register.scenario_params, &self.runtime);
        Ok(
            LiveSession::new(scenario, register.strategy, &register.config)
                .with_dictionary(dictionary),
        )
    }

    /// Number of registered sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The number of registry shards.
    pub fn shard_count(&self) -> usize {
        self.sessions.shard_count()
    }

    /// The shared handle of a registered session (tests and diagnostics; the
    /// request path goes through [`TaggingService::handle`]).
    pub fn session(&self, id: u64) -> Option<SharedSession> {
        self.sessions.get(id)
    }

    /// The telemetry handles this service records into (the server's event
    /// loop shares them for its connection gauges and malformed-request
    /// counts).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Record where the durable store lives and how it flushes, so
    /// `/healthz` can report them. Called by the server binder; separate
    /// from [`TaggingService::with_persist`] so that signature stays stable.
    pub fn describe_persistence(&mut self, data_dir: impl Into<String>, flush: impl Into<String>) {
        self.persist_info = Some(PersistInfo {
            data_dir: data_dir.into(),
            flush: flush.into(),
        });
    }

    /// Record non-default telemetry options (window cadence, thresholds) on
    /// the still-unshared metrics. Called by the server binder before the
    /// service is wrapped in an `Arc`.
    pub fn configure_telemetry(&mut self, options: &crate::telemetry::TelemetryOptions) {
        self.metrics.configure(options);
    }

    /// Routes one request and records its telemetry (per-route counter,
    /// status class, handler latency). Never panics on malformed input: JSON
    /// and protocol errors become 4xx responses.
    pub fn handle(&self, request: &Request) -> Handled {
        let timer = self.metrics.request_us.start_timer();
        let (route, mut handled) = self.route(request);
        drop(timer);
        handled.route = route;
        handled.session = session_of(&request.path);
        self.metrics.record_response(route, handled.response.status);
        handled
    }

    /// The `GET /healthz` body: liveness, session count, uptime, build info
    /// and the durability configuration.
    fn health_value(&self) -> Value {
        let (data_dir, flush) = match &self.persist_info {
            Some(info) => (
                Value::String(info.data_dir.clone()),
                Value::String(info.flush.clone()),
            ),
            None => (Value::Null, Value::Null),
        };
        Value::Object(vec![
            ("ok".to_string(), Value::Bool(true)),
            (
                "sessions".to_string(),
                Value::UInt(self.session_count() as u64),
            ),
            (
                "uptime_seconds".to_string(),
                Value::UInt(self.started.elapsed().as_secs()),
            ),
            (
                "version".to_string(),
                Value::String(env!("CARGO_PKG_VERSION").to_string()),
            ),
            ("durable".to_string(), Value::Bool(self.durable())),
            ("data_dir".to_string(), data_dir),
            ("flush".to_string(), flush),
            ("maintenance".to_string(), self.maintenance_value()),
        ])
    }

    /// The WAL maintenance state as JSON: flush mode, backlog depth,
    /// compaction count and per-shard generations. `Null` when memory-only.
    fn maintenance_value(&self) -> Value {
        let Some(store) = &self.persist else {
            return Value::Null;
        };
        let status = store.maintenance_status();
        Value::Object(vec![
            (
                "flush_mode".to_string(),
                Value::String(status.flush_mode.clone()),
            ),
            (
                "backlog_events".to_string(),
                Value::UInt(status.backlog_events),
            ),
            (
                "backlog_shards".to_string(),
                Value::UInt(status.backlog_shards as u64),
            ),
            ("compactions".to_string(), Value::UInt(status.compactions)),
            (
                "shard_generations".to_string(),
                Value::Array(
                    status
                        .shard_generations
                        .iter()
                        .map(|generation| Value::UInt(*generation))
                        .collect(),
                ),
            ),
        ])
    }

    /// The `GET /stats` body: the whole telemetry registry as JSON, plus
    /// uptime and (when durable) the WAL maintenance state.
    fn stats_value(&self) -> Value {
        let mut value = snapshot_to_value(&tagging_telemetry::global().snapshot());
        if let Value::Object(fields) = &mut value {
            fields.insert(
                1,
                (
                    "uptime_seconds".to_string(),
                    Value::UInt(self.started.elapsed().as_secs()),
                ),
            );
            if self.durable() {
                fields.insert(2, ("maintenance".to_string(), self.maintenance_value()));
            }
        }
        value
    }

    /// The `GET /debug/flight` / `GET /debug/slow` body: ring capacity,
    /// total records pushed, and the retained records oldest → newest
    /// (`?n=K` limits to the newest K).
    fn flight_value(&self, request: &Request, slow: bool) -> Value {
        let ring = if slow {
            &self.metrics.slow
        } else {
            &self.metrics.flight
        };
        let limit = query_param(&request.path, "n")
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or(ring.capacity());
        let records = ring.recent(limit);
        let mut fields = vec![
            ("capacity".to_string(), Value::UInt(ring.capacity() as u64)),
            ("recorded".to_string(), Value::UInt(ring.recorded())),
            ("returned".to_string(), Value::UInt(records.len() as u64)),
        ];
        if slow {
            fields.push((
                "threshold_us".to_string(),
                Value::UInt(self.metrics.slow_threshold_us),
            ));
        }
        fields.push((
            "records".to_string(),
            crate::telemetry::records_to_value(&records),
        ));
        Value::Object(fields)
    }

    /// The routing proper; returns which [`Route`] the request counted as so
    /// [`TaggingService::handle`] can attribute its metrics.
    fn route(&self, request: &Request) -> (Route, Handled) {
        let segments: Vec<&str> = request
            .path
            .split('?')
            .next()
            .unwrap_or("")
            .split('/')
            .filter(|s| !s.is_empty())
            .collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => (
                Route::Healthz,
                Handled::respond(Response::ok(self.health_value())),
            ),
            ("GET", ["stats"]) => {
                let response = match query_param(&request.path, "window") {
                    None => Response::ok(self.stats_value()),
                    Some(window) => match crate::telemetry::parse_window_ms(&window) {
                        Some(ms) => {
                            Response::ok(crate::telemetry::windowed_stats_value(&self.metrics, ms))
                        }
                        None => Response::error(
                            400,
                            format!(
                                "window expects e.g. 10s, 500ms or a second count, got `{window}`"
                            ),
                        ),
                    },
                };
                (Route::Stats, Handled::respond(response))
            }
            ("GET", ["metrics"]) => (
                Route::Metrics,
                Handled::respond(Response::plain(
                    tagging_telemetry::global().snapshot().to_prometheus(),
                )),
            ),
            ("GET", ["debug", "flight"]) => (
                Route::DebugFlight,
                Handled::respond(Response::ok(self.flight_value(request, false))),
            ),
            ("GET", ["debug", "slow"]) => (
                Route::DebugSlow,
                Handled::respond(Response::ok(self.flight_value(request, true))),
            ),
            ("POST", ["shutdown"]) => (
                Route::Shutdown,
                Handled {
                    response: Response::ok(Value::Object(vec![(
                        "ok".to_string(),
                        Value::Bool(true),
                    )])),
                    shutdown: true,
                    route: Route::Shutdown,
                    session: None,
                },
            ),
            ("POST", ["scenarios"]) => (Route::Register, Handled::respond(self.register(request))),
            ("POST", ["scenarios", id, "batch"]) => (
                Route::Batch,
                Handled::respond(self.with_session(id, |id, session| {
                    let k =
                        parse_batch(&json_body(request)?).map_err(|e| Response::error(400, e.0))?;
                    // Append-before-apply: persist the lease at its *clamped*
                    // size (what the session will actually hand out) before
                    // leasing. On a persistence failure nothing is leased.
                    let k_eff = k.min(session.remaining_budget());
                    if k_eff > 0 {
                        self.persist_session_event(id, &SessionEvent::Lease { k: k_eff })?;
                    }
                    let tasks = session.next_batch(k_eff);
                    debug_assert_eq!(tasks.len(), k_eff);
                    Ok(Response::ok(batch_to_value(&tasks, session)))
                })),
            ),
            ("POST", ["scenarios", id, "report"]) => (
                Route::Report,
                Handled::respond(self.with_session(id, |id, session| {
                    let reports = parse_report(&json_body(request)?)
                        .map_err(|e| Response::error(400, e.0))?;
                    // Validate first so only appliable reports reach the WAL,
                    // then append-before-apply.
                    if let Err(e) = session.validate_reports(&reports) {
                        return Err(match e {
                            SessionError::UnknownTask(_) | SessionError::DuplicateTask(_) => {
                                Response::error(409, e.to_string())
                            }
                            e => Response::error(400, e.to_string()),
                        });
                    }
                    self.persist_session_event(
                        id,
                        &SessionEvent::Report {
                            reports: reports.clone(),
                        },
                    )?;
                    match session.report(&reports) {
                        Ok(outcome) => Ok(Response::ok(Value::Object(vec![
                            ("accepted".to_string(), Value::UInt(outcome.accepted as u64)),
                            (
                                "delivered".to_string(),
                                Value::UInt(outcome.delivered as u64),
                            ),
                            (
                                "undelivered".to_string(),
                                Value::UInt(outcome.undelivered as u64),
                            ),
                        ]))),
                        Err(
                            e @ (SessionError::UnknownTask(_) | SessionError::DuplicateTask(_)),
                        ) => Err(Response::error(409, e.to_string())),
                        Err(e) => Err(Response::error(400, e.to_string())),
                    }
                })),
            ),
            ("GET", ["scenarios", id, "metrics"]) => (
                Route::SessionMetrics,
                Handled::respond(self.with_session(id, |_, session| {
                    let pending = session.pending_tasks();
                    Ok(Response::ok(metrics_to_value(&session.metrics(), pending)))
                })),
            ),
            ("GET", ["scenarios", id, "tasks"]) => (
                Route::Tasks,
                Handled::respond(self.with_session(id, |_, session| {
                    Ok(Response::ok(Value::Object(vec![(
                        "pending".to_string(),
                        Value::Array(
                            session
                                .pending_task_ids()
                                .into_iter()
                                .map(Value::UInt)
                                .collect(),
                        ),
                    )])))
                })),
            ),
            // Right path, wrong method.
            (_, ["healthz"] | ["shutdown"] | ["scenarios"] | ["stats"] | ["metrics"])
            | (_, ["debug", "flight" | "slow"])
            | (_, ["scenarios", _, "batch" | "report" | "metrics" | "tasks"]) => (
                Route::BadRequest,
                Handled::respond(Response::error(405, "method not allowed")),
            ),
            _ => (
                Route::BadRequest,
                Handled::respond(Response::error(404, "no such route")),
            ),
        }
    }

    /// Registers a scenario and opens its live session. With persistence on,
    /// the registration record is durable *before* the id is acknowledged.
    fn register(&self, request: &Request) -> Response {
        let body = match json_body(request) {
            Ok(body) => body,
            Err(response) => return response,
        };
        let register = match parse_register(&body) {
            Ok(register) => register,
            Err(e) => return Response::error(400, e.0),
        };
        let session = match self.build_session(&register) {
            Ok(session) => session,
            Err(reason) => return Response::error(400, reason),
        };

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.persist {
            let event = WalEvent::Register {
                session: id,
                registration: registration_of(&register),
            };
            if let Err(e) = store.append(self.sessions.shard_of(id), &event) {
                return Response::error(500, format!("cannot persist registration: {e}"));
            }
        }
        let mut info = vec![
            ("scenario_id".to_string(), Value::UInt(id)),
            (
                "strategy".to_string(),
                Value::String(session.strategy_name().to_string()),
            ),
            (
                "resources".to_string(),
                Value::UInt(session.scenario().len() as u64),
            ),
            ("budget".to_string(), Value::UInt(session.budget() as u64)),
        ];
        info.push((
            "initial_quality".to_string(),
            Value::Float(session.scenario().initial_quality()),
        ));
        self.sessions.insert(id, Arc::new(Mutex::new(session)));
        Response::ok(Value::Object(info))
    }

    /// Looks up a session by path segment and runs `f` on it under its lock.
    ///
    /// Lock scope: [`SessionRegistry::get`] clones the `Arc` out under the
    /// shard guard and drops the guard *before* returning, so the (possibly
    /// long) per-session work below never holds a registry lock — other
    /// sessions stay servable while `f` runs. Both locks recover from poison:
    /// a handler that panicked inside an earlier `f` does not take the
    /// session (or its shard) down with it.
    fn with_session<F>(&self, id: &str, f: F) -> Response
    where
        F: FnOnce(u64, &mut LiveSession<'static>) -> Result<Response, Response>,
    {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(404, format!("scenario id `{id}` is not a number"));
        };
        let Some(session) = self.sessions.get(id) else {
            return Response::error(404, format!("no scenario {id}"));
        };
        let mut session = lock_unpoisoned(&session);
        match f(id, &mut session) {
            Ok(response) | Err(response) => response,
        }
    }

    /// Appends one session transition to the WAL (no-op without a store).
    /// The caller holds the session's mutex, which orders the shard's WAL
    /// records exactly like the applied transitions.
    fn persist_session_event(&self, id: u64, event: &SessionEvent) -> Result<(), Response> {
        let Some(store) = &self.persist else {
            return Ok(());
        };
        let wal_event = WalEvent::Session {
            session: id,
            event: event.clone(),
        };
        store
            .append(self.sessions.shard_of(id), &wal_event)
            .map_err(|e| Response::error(500, format!("cannot persist event: {e}")))
    }

    /// True when a durable store is attached.
    pub fn durable(&self) -> bool {
        self.persist.is_some()
    }

    /// The attached durable store (`None` when memory-only). The server
    /// binder uses it to spawn the WAL maintenance tenants.
    pub fn persist_store(&self) -> Option<Arc<PersistStore>> {
        self.persist.clone()
    }

    /// Drains the compaction backlog (final compact, on this thread), then
    /// writes the clean-shutdown markers and syncs every WAL segment. Call
    /// once after the last request has been handled and the maintenance
    /// tenants have been joined.
    pub fn persist_shutdown(&self) -> io::Result<()> {
        match &self.persist {
            Some(store) => store.shutdown(),
            None => Ok(()),
        }
    }
}

/// The durable form of a registration (what recovery needs to rebuild the
/// session from scratch).
fn registration_of(register: &RegisterRequest) -> Registration {
    Registration {
        strategy: register.strategy.name().to_string(),
        budget: register.config.budget as u64,
        omega: register.config.omega as u64,
        seed: register.config.seed,
        source: match &register.source {
            CorpusSource::Generate { resources, seed } => CorpusOrigin::Generate {
                resources: *resources as u64,
                seed: *seed,
            },
            CorpusSource::Load(path) => CorpusOrigin::Path(path.display().to_string()),
        },
        stability_window: register.scenario_params.stability.omega as u64,
        stability_tau: register.scenario_params.stability.tau,
        under_tagged_threshold: register.scenario_params.under_tagged_threshold as u64,
    }
}

/// Parses the request body as JSON, mapping failures to a 400 response.
fn json_body(request: &Request) -> Result<Value, Response> {
    request
        .json()
        .map_err(|e| Response::error(400, format!("invalid JSON body: {e}")))
}

/// The session id a request path addresses (`/scenarios/{id}/...`), if any —
/// recorded per request by the flight recorder.
fn session_of(path: &str) -> Option<u64> {
    let mut segments = path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty());
    if segments.next() != Some("scenarios") {
        return None;
    }
    segments.next().and_then(|id| id.parse().ok())
}

/// The first value of query parameter `name` in a request path, if present.
fn query_param(path: &str, name: &str) -> Option<String> {
    let query = path.split_once('?')?.1;
    query.split('&').find_map(|pair| {
        let (key, value) = match pair.split_once('=') {
            Some((key, value)) => (key, value),
            None => (pair, ""),
        };
        (key == name).then(|| value.to_string())
    })
}

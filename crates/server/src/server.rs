//! The TCP front of the service: a readiness-based nonblocking accept/read
//! loop feeding a [`WorkerPool`], and graceful shutdown.
//!
//! ## Execution model
//!
//! One *event thread* (the thread that called [`TaggingServer::run`]) owns
//! the listener and every connection. Everything it touches is nonblocking:
//!
//! 1. accept every connection the listener has pending;
//! 2. sweep the open connections, draining whatever bytes each socket has
//!    into its per-connection buffer ([`tagging_runtime::poll`]);
//! 3. when a buffer holds one *complete* request
//!    ([`crate::http::parse_request`]), hand it to the worker pool and mark
//!    the connection busy until the worker reports back.
//!
//! Workers therefore only ever run fully-parsed requests: an idle keep-alive
//! connection costs one entry in the sweep (no thread, no stack, no parked
//! read), so thousands of idle clients are fine with a handful of workers.
//! Long-idle connections are polled on a stride of sweeps rather than every
//! sweep, bounding the sweep cost of a mostly-idle fleet; the first request
//! after a long silence pays at most a few milliseconds of extra latency.
//!
//! A worker that panics answers 500 and poisons nothing: the service's locks
//! recover (see [`tagging_runtime::lock_unpoisoned`]), the connection is
//! re-armed by the completion message, and the pool thread survives because
//! the panic is caught at the job boundary.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tagging_persist::{PersistOptions, PersistStore, RecoveredState};
use tagging_runtime::poll::{read_available, write_all_polling, IdleBackoff, ReadOutcome};
use tagging_runtime::{lock_unpoisoned, Runtime, Scheduler, WorkerPool};
use tagging_telemetry::{trace, RequestRecord};

use crate::http::{parse_request, response_bytes, Request, Response, MAX_REQUEST_BYTES};
use crate::service::{Handled, TaggingService};
use crate::telemetry::{Route, TelemetryOptions};

/// How a [`TaggingServer`] is configured beyond its bind address.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Request-handling worker threads.
    pub workers: usize,
    /// Session-registry shard count (rounded up to a power of two).
    pub shards: usize,
    /// Durable-session store configuration; `None` runs memory-only.
    ///
    /// The store's shard count is overridden to match the registry's — one
    /// WAL segment per registry shard is the design invariant.
    pub persist: Option<PersistOptions>,
    /// Time-resolved observability configuration: window rotation, slow
    /// threshold, watchdog budget.
    pub telemetry: TelemetryOptions,
}

impl ServerOptions {
    /// `workers` workers, default shard count, no persistence.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            shards: tagging_sim::registry::DEFAULT_SHARDS,
            persist: None,
            telemetry: TelemetryOptions::default(),
        }
    }
}

/// Sweeps without bytes before a connection is considered cold.
const COLD_AFTER_SWEEPS: u32 = 64;

/// A cold connection is polled once per this many sweeps (staggered by
/// connection token so cold polls spread over sweeps instead of bunching).
const COLD_POLL_STRIDE: u64 = 16;

/// One open connection, owned by the event thread.
#[derive(Debug)]
struct Connection {
    stream: TcpStream,
    /// Bytes read but not yet consumed by a parsed request.
    buf: Vec<u8>,
    /// True while a request from this connection is on the worker pool; the
    /// sweep skips busy connections, which also guarantees at most one writer
    /// per stream and in-order responses.
    busy: bool,
    /// Consecutive sweeps that found no bytes (drives the cold stride).
    idle_sweeps: u32,
}

impl Connection {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            busy: false,
            idle_sweeps: 0,
        }
    }

    /// True when this sweep should skip polling the socket: the connection
    /// has been silent for a while and it is not its turn on the cold stride.
    fn skip_cold_poll(&self, sweep: u64, token: u64) -> bool {
        self.buf.is_empty()
            && self.idle_sweeps > COLD_AFTER_SWEEPS
            && !sweep.wrapping_add(token).is_multiple_of(COLD_POLL_STRIDE)
    }
}

/// What a worker reports when it finishes a request.
#[derive(Debug)]
struct Done {
    token: u64,
    /// Keep the connection open for the next request?
    keep_alive: bool,
    /// The handled request asked the server to shut down.
    shutdown: bool,
    /// Writing the response failed; the connection is dead.
    write_failed: bool,
}

/// A bound-but-not-yet-running tagging server.
#[derive(Debug)]
pub struct TaggingServer {
    listener: TcpListener,
    service: Arc<TaggingService>,
    pool: WorkerPool,
    /// What the durable store recovered at bind time (`None` without
    /// persistence).
    recovered: Option<RecoveredState>,
    /// Observability configuration the background tenants run on.
    telemetry: TelemetryOptions,
}

impl TaggingServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) with `threads`
    /// request-handling workers and the default registry shard count.
    pub fn bind(addr: &str, threads: usize) -> io::Result<Self> {
        Self::bind_with(addr, threads, tagging_sim::registry::DEFAULT_SHARDS)
    }

    /// Binds with an explicit session-registry shard count (rounded up to a
    /// power of two; 1 = the single-lock baseline).
    pub fn bind_with(addr: &str, threads: usize, shards: usize) -> io::Result<Self> {
        Self::bind_opts(
            addr,
            ServerOptions {
                workers: threads,
                shards,
                persist: None,
                telemetry: TelemetryOptions::default(),
            },
        )
    }

    /// Binds with full [`ServerOptions`]. With persistence configured this
    /// opens (or creates) the data directory, recovers every durable session
    /// and reports what it found via [`TaggingServer::recovered`].
    pub fn bind_opts(addr: &str, options: ServerOptions) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let runtime = Runtime::from_env();
        let (mut service, recovered) = match options.persist {
            None => (TaggingService::with_shards(runtime, options.shards), None),
            Some(mut persist) => {
                // One WAL segment per registry shard: force agreement.
                persist.shards =
                    tagging_sim::registry::SessionRegistry::new(options.shards).shard_count();
                let (store, recovered) = PersistStore::open(&persist)?;
                let mut service = TaggingService::with_persist(
                    runtime,
                    options.shards,
                    Arc::new(store),
                    &recovered,
                )?;
                service.describe_persistence(
                    persist.data_dir.display().to_string(),
                    persist.flush.to_string(),
                );
                (service, Some(recovered))
            }
        };
        service.configure_telemetry(&options.telemetry);
        Ok(Self {
            listener,
            service: Arc::new(service),
            pool: WorkerPool::new(options.workers),
            recovered,
            telemetry: options.telemetry,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service behind this server (tests and diagnostics).
    pub fn service(&self) -> &Arc<TaggingService> {
        &self.service
    }

    /// What the durable store recovered at bind time (`None` when running
    /// memory-only).
    pub fn recovered(&self) -> Option<&RecoveredState> {
        self.recovered.as_ref()
    }

    /// Serves until a `POST /shutdown` arrives, then drains: every dispatched
    /// request finishes (and its response is written) before this returns.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let (done_tx, done_rx) = channel::<Done>();
        let mut connections: HashMap<u64, Connection> = HashMap::new();
        let mut next_token: u64 = 0;
        let mut backoff = IdleBackoff::new();
        let mut sweep: u64 = 0;
        let mut draining = false;
        let metrics = self.service.metrics();

        // Background tenants: the telemetry publisher (window rotation),
        // the event-loop watchdog, and — with a durable store — the WAL
        // maintenance pair (`wal-flusher` syncing the group-commit cohorts,
        // `wal-compactor` cutting snapshots off the request path). Joined
        // after the drain so process exit never races a half-published
        // snapshot.
        let mut scheduler = Scheduler::new();
        spawn_telemetry_tenants(&mut scheduler, &self.service, &self.telemetry);
        let _maintenance = self
            .service
            .persist_store()
            .map(|store| tagging_persist::spawn_maintenance(&store, &mut scheduler));
        let mut stall_injected = self.telemetry.inject_sweep_stall_us == 0;

        loop {
            sweep = sweep.wrapping_add(1);
            metrics.loop_watchdog.beat();
            let sweep_started = Instant::now();
            let sweep_timer = metrics.sweep_us.start_timer();
            let mut progress = false;
            if !stall_injected {
                // Test hook: a deliberate one-off stall in the sweep path, so
                // the watchdog's stall accounting can be proven end-to-end.
                stall_injected = true;
                std::thread::sleep(Duration::from_micros(self.telemetry.inject_sweep_stall_us));
            }

            // 1. Accept everything pending (stop taking new work once
            //    draining).
            if !draining {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            connections.insert(next_token, Connection::new(stream));
                            next_token = next_token.wrapping_add(1);
                            progress = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        // Transient per-connection failures (client reset
                        // before the accept, interrupted syscall) must not
                        // take the server down.
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::ConnectionAborted
                                    | io::ErrorKind::ConnectionReset
                                    | io::ErrorKind::Interrupted
                            ) =>
                        {
                            continue
                        }
                        Err(e) => return Err(e),
                    }
                }
            }

            // 2. Collect worker completions: re-arm or retire connections.
            while let Ok(done) = done_rx.try_recv() {
                progress = true;
                if done.shutdown {
                    draining = true;
                }
                if let Some(connection) = connections.get_mut(&done.token) {
                    connection.busy = false;
                    connection.idle_sweeps = 0;
                    if !done.keep_alive || done.write_failed {
                        connections.remove(&done.token);
                    }
                }
            }

            // 3. Sweep: read available bytes, dispatch complete requests.
            let mut retired: Vec<u64> = Vec::new();
            if !draining {
                for (&token, connection) in connections.iter_mut() {
                    if connection.busy || connection.skip_cold_poll(sweep, token) {
                        continue;
                    }
                    match read_available(
                        &mut connection.stream,
                        &mut connection.buf,
                        MAX_REQUEST_BYTES,
                    ) {
                        Ok(ReadOutcome::Read(_)) => {
                            connection.idle_sweeps = 0;
                            progress = true;
                        }
                        Ok(ReadOutcome::WouldBlock) => {
                            connection.idle_sweeps = connection.idle_sweeps.saturating_add(1);
                        }
                        Ok(ReadOutcome::Closed) | Err(_) => {
                            // EOF with a partial request buffered is the peer
                            // going away — a clean close, never a 500.
                            retired.push(token);
                            continue;
                        }
                    }
                    if connection.buf.is_empty() {
                        continue;
                    }
                    match parse_request(&connection.buf) {
                        Ok(Some((request, consumed))) => {
                            connection.buf.drain(..consumed);
                            progress = true;
                            let Ok(stream) = connection.stream.try_clone() else {
                                retired.push(token);
                                continue;
                            };
                            connection.busy = true;
                            dispatch(&self.pool, &self.service, &done_tx, token, request, stream);
                        }
                        Ok(None) => {} // a valid prefix; keep reading
                        Err(e) => {
                            // Malformed HTTP: answer politely, then drop.
                            // Counted like any other request — 4xx floods
                            // must show up in the route/status metrics.
                            metrics.record_response(Route::Malformed, 400);
                            let bytes = response_bytes(&Response::error(400, e.to_string()), false);
                            let mut write_backoff = IdleBackoff::new();
                            let _ = write_all_polling(
                                &mut connection.stream,
                                &bytes,
                                &mut write_backoff,
                            );
                            retired.push(token);
                        }
                    }
                }
            }
            for token in retired {
                connections.remove(&token);
            }

            metrics.connections_live.set(connections.len() as i64);
            metrics
                .connections_idle
                .set(connections.values().filter(|c| !c.busy).count() as i64);
            metrics.pool_pending.set(self.pool.pending() as i64);
            drop(sweep_timer);
            // A single sweep running over the stall budget is a stall even if
            // the next heartbeat arrives promptly — count it here, where the
            // duration is known exactly.
            let sweep_us = u64::try_from(sweep_started.elapsed().as_micros()).unwrap_or(u64::MAX);
            if sweep_us > self.telemetry.stall_budget_us {
                metrics.loop_watchdog.note_stall(sweep_us);
            }

            if draining && connections.values().all(|c| !c.busy) {
                // Every dispatched request has reported back (its response is
                // on the wire); idle keep-alive connections just close.
                break;
            }

            if progress {
                backoff.reset();
            } else {
                backoff.wait();
            }
        }
        drop(connections);
        drop(self.pool); // joins the (now idle) workers
        scheduler.shutdown(); // joins the publisher/watchdog/maintenance tenants
                              // Every request has been handled and acknowledged, and the
                              // maintenance tenants are gone; drain the compaction backlog
                              // (final compact) and mark the WAL segments cleanly shut down
                              // (no-op without persistence).
        self.service.persist_shutdown()?;
        Ok(())
    }

    /// Starts the server on a background thread; returns its address and the
    /// join handle (which yields once the server shuts down cleanly).
    pub fn spawn(self) -> io::Result<(SocketAddr, JoinHandle<io::Result<()>>)> {
        let addr = self.local_addr()?;
        let handle = std::thread::Builder::new()
            .name("tagging-server-accept".to_string())
            .spawn(move || self.run())?;
        Ok((addr, handle))
    }
}

/// How often the watchdog tenant measures the event loop's heartbeat gap.
const WATCHDOG_CHECK_MS: u64 = 100;

/// Spawn the server's background observability tenants:
///
/// * `telemetry-publisher` — rotates the window ring against a fresh
///   cumulative snapshot every interval;
/// * `loop-watchdog` — measures the event loop's heartbeat gap and counts a
///   stall when it exceeds the budget.
///
/// Both are observation-only; with `telemetry-noop` the rotations see all
/// zeros.
fn spawn_telemetry_tenants(
    scheduler: &mut Scheduler,
    service: &Arc<TaggingService>,
    options: &TelemetryOptions,
) {
    let windows = Arc::clone(&service.metrics().windows);
    scheduler.spawn_periodic(
        "telemetry-publisher",
        Duration::from_millis(options.publish_interval_ms),
        move || {
            lock_unpoisoned(&windows).rotate(tagging_telemetry::global().snapshot());
        },
    );

    let watchdog = Arc::clone(&service.metrics().loop_watchdog);
    let budget_us = options.stall_budget_us;
    scheduler.spawn_periodic(
        "loop-watchdog",
        Duration::from_millis(WATCHDOG_CHECK_MS),
        move || {
            watchdog.check(budget_us);
        },
    );
}

/// Queues one parsed request on the pool. The worker routes it, writes the
/// response through the nonblocking stream, and reports completion; a panic
/// inside the handler is caught at this boundary and answered with a 500, so
/// neither the worker thread nor the connection is lost.
fn dispatch(
    pool: &WorkerPool,
    service: &Arc<TaggingService>,
    done_tx: &Sender<Done>,
    token: u64,
    request: Request,
    mut stream: TcpStream,
) {
    let service = Arc::clone(service);
    let done_tx = done_tx.clone();
    // Request id + queue timestamp are taken on the event thread, so the
    // queue-wait histogram covers the full dispatch-to-pickup gap.
    let request_id = trace::next_request_id();
    let queued_at = Instant::now();
    pool.execute(move || {
        let queue_wait = queued_at.elapsed();
        service
            .metrics()
            .queue_wait_us
            .record(u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX));
        let handled_at = Instant::now();
        let handled = std::panic::catch_unwind(AssertUnwindSafe(|| service.handle(&request)))
            .unwrap_or_else(|_| Handled {
                response: Response::error(500, "internal error: request handler panicked"),
                shutdown: false,
                route: Route::BadRequest,
                session: None,
            });
        let latency_us = u64::try_from(handled_at.elapsed().as_micros()).unwrap_or(u64::MAX);
        service.metrics().record_flight(RequestRecord {
            id: request_id,
            route: handled.route.label(),
            session: handled.session,
            status: handled.response.status,
            latency_us,
            queue_us: u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX),
            ts_us: trace::ts_us(),
        });
        let keep_alive = request.keep_alive && !handled.shutdown;
        let bytes = response_bytes(&handled.response, keep_alive);
        let mut backoff = IdleBackoff::new();
        let write_failed = write_all_polling(&mut stream, &bytes, &mut backoff).is_err();
        // The event thread may already be gone on a racing shutdown; a failed
        // send is then moot.
        let _ = done_tx.send(Done {
            token,
            keep_alive,
            shutdown: handled.shutdown,
            write_failed,
        });
    });
}

//! The TCP load: every connection runs the seeded iteration sequence of
//! [`crate::fleet::step`] in a closed loop and tallies what it saw.

use std::time::{Duration, Instant};

use crate::client::{numbers_after, request, Conn};
use crate::fleet::{step, SessionSpec, Targets};

/// Index of each request kind in [`Tally::lat_ns`].
pub const LEASE: usize = 0;
/// See [`LEASE`].
pub const REPORT: usize = 1;
/// See [`LEASE`].
pub const READ: usize = 2;

/// Names of the request kinds, by index.
pub const OPS: [&str; 3] = ["lease", "report", "read"];

/// What the connections observed during one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency samples per request kind, in nanoseconds, from send.
    pub lat_ns: [Vec<u64>; 3],
    /// Tasks reported per second of the phase (by completion time).
    pub tasks_per_second: Vec<u64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed, were refused or timed out, plus leases that
    /// came back short and reports not fully accepted.
    pub failed: u64,
    /// Leases answered with fewer tasks than asked for.
    pub short_leases: u64,
    /// Tasks leased and then reported.
    pub tasks: u64,
    /// Tasks acknowledged per fleet session.
    pub acked: Vec<u64>,
    /// The first error, which also ended its connection's loop.
    pub error: Option<String>,
}

impl Tally {
    fn new(sessions: usize) -> Self {
        Self {
            acked: vec![0; sessions],
            ..Self::default()
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        for (mine, theirs) in self.lat_ns.iter_mut().zip(other.lat_ns) {
            mine.extend(theirs);
        }
        if self.tasks_per_second.len() < other.tasks_per_second.len() {
            self.tasks_per_second
                .resize(other.tasks_per_second.len(), 0);
        }
        for (mine, theirs) in self.tasks_per_second.iter_mut().zip(other.tasks_per_second) {
            *mine += theirs;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.short_leases += other.short_leases;
        self.tasks += other.tasks;
        if self.acked.len() < other.acked.len() {
            self.acked.resize(other.acked.len(), 0);
        }
        for (mine, theirs) in self.acked.iter_mut().zip(other.acked) {
            *mine += theirs;
        }
        if self.error.is_none() {
            self.error = other.error;
        }
    }

    /// Requests that completed successfully.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// One connection and where it is in its iteration sequence.
#[derive(Debug)]
pub struct Client {
    /// The connection.
    pub conn: Conn,
    /// Its index, which selects its request stream.
    pub index: usize,
    /// Next iteration to run (continues across phases).
    pub iteration: u64,
}

/// The fixed inputs of a drive.
#[derive(Debug)]
pub struct Plan<'a> {
    /// Workload seed.
    pub seed: u64,
    /// The fleet, in registration order (session `i` has id `i + 1`).
    pub fleet: &'a [SessionSpec],
    /// Which sessions take traffic.
    pub targets: Targets,
}

/// Runs every client for `seconds` (no iteration starts after that), each
/// on its own thread — client 0 on the calling thread. Returns the merged tally and the time
/// from the phase start to the last response.
pub fn phase(plan: &Plan<'_>, clients: &mut [Client], seconds: f64) -> (Tally, f64) {
    let start = Instant::now();
    let length_ns = (seconds * 1e9) as u64;
    let (first, rest) = clients.split_first_mut().expect("at least one client");
    let results: Vec<(Tally, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|client| scope.spawn(move || run_client(plan, client, start, length_ns)))
            .collect();
        let mut results = vec![run_client(plan, first, start, length_ns)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked")),
        );
        results
    });
    let mut tally = Tally::new(plan.fleet.len());
    let mut last = Duration::ZERO;
    for (t, done) in results {
        tally.merge(t);
        last = last.max(done);
    }
    (tally, last.as_secs_f64())
}

/// One client's loop for one phase; returns its tally and when its last
/// response arrived (relative to `start`).
fn run_client(
    plan: &Plan<'_>,
    client: &mut Client,
    start: Instant,
    length_ns: u64,
) -> (Tally, Duration) {
    let mut tally = Tally::new(plan.fleet.len());
    let mut last = Duration::ZERO;
    while (start.elapsed().as_nanos() as u64) < length_ns {
        let s = step(plan.seed, &plan.targets, client.index, client.iteration);
        client.iteration += 1;
        let id = s.session + 1;

        let mut call = |kind: usize, bytes: Vec<u8>, tally: &mut Tally| {
            let began = Instant::now();
            tally.attempted += 1;
            let reply = client.conn.call(&bytes);
            let done = Instant::now();
            last = done.duration_since(start);
            match reply {
                Ok(reply) if reply.status == 200 => {
                    tally.lat_ns[kind].push(done.duration_since(began).as_nanos() as u64);
                    Some(reply)
                }
                Ok(reply) => {
                    tally.failed += 1;
                    tally.error = Some(format!(
                        "{} on session {id}: status {}: {}",
                        OPS[kind],
                        reply.status,
                        reply.text()
                    ));
                    None
                }
                Err(e) => {
                    tally.failed += 1;
                    tally.error = Some(format!("{} on session {id}: {e}", OPS[kind]));
                    None
                }
            }
        };

        let lease_body = format!("{{\"k\":{}}}", s.k);
        let Some(lease) = call(
            LEASE,
            request("POST", &format!("/scenarios/{id}/batch"), &lease_body),
            &mut tally,
        ) else {
            break;
        };
        let task_ids = numbers_after(lease.text(), "task_id");
        if task_ids.len() < s.k {
            tally.short_leases += 1;
            tally.failed += 1;
        }
        if !task_ids.is_empty() {
            let completions: Vec<String> = task_ids
                .iter()
                .map(|t| format!("{{\"task_id\":{t}}}"))
                .collect();
            let body = format!("{{\"completions\":[{}]}}", completions.join(","));
            let Some(report) = call(
                REPORT,
                request("POST", &format!("/scenarios/{id}/report"), &body),
                &mut tally,
            ) else {
                break;
            };
            if numbers_after(report.text(), "accepted") != [task_ids.len() as u64] {
                tally.failed += 1;
                tally.error = Some(format!("report on session {id}: {}", report.text()));
                break;
            }
            tally.tasks += task_ids.len() as u64;
            let second = start.elapsed().as_secs() as usize;
            if tally.tasks_per_second.len() <= second {
                tally.tasks_per_second.resize(second + 1, 0);
            }
            tally.tasks_per_second[second] += task_ids.len() as u64;
            tally.acked[s.session] += task_ids.len() as u64;
        }
        if call(
            READ,
            request("GET", &format!("/scenarios/{id}/metrics"), ""),
            &mut tally,
        )
        .is_none()
        {
            break;
        }
    }
    (tally, last)
}

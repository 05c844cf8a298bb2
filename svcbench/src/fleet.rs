//! The two workloads: which sessions the daemon hosts, and the seeded
//! request schedule every connection follows.
//!
//! The daemon only ever sees requests generated here; everything is a pure
//! function of `--seed`, so one seed always produces the same fleet and the
//! same request sequence.

/// Tasks leased per `POST /scenarios/{id}/batch`.
pub const BATCH_K: usize = 8;
/// Resources in each giant session's generated corpus.
pub const GIANT_RESOURCES: usize = 2_000;
/// Resources in each small session's generated corpus.
pub const SMALL_RESOURCES: usize = 60;
/// Budget of every live session: far more than a run can spend, so no
/// session runs dry inside the window.
pub const LIVE_BUDGET: u64 = 5_000_000;
/// Budget of the `wal-group` history's terminal giants, which the history
/// drains completely.
pub const TERMINAL_BUDGET: u64 = 40_000;
/// Tasks the `wal-group` history spends on each live giant before the run.
pub const GIANT_HISTORY_TASKS: u64 = 8_000;
/// Tasks the `wal-group` history spends on each small session before the run.
pub const SMALL_HISTORY_TASKS: u64 = 400;
/// Connections (and generator threads) the benchmark uses in total.
pub const CONNECTIONS: usize = 2;

const SMALL_STRATEGIES: [&str; 4] = ["FP", "RR", "MU", "FP-MU"];
const GIANT_STRATEGIES: [&str; 2] = ["FP", "RR"];
const SMALL_SESSIONS: usize = 6;

/// One benchmark workload. Both run the daemon with a data directory on
/// the checkout's disk and `--fsync group`, and drive it in a closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Restart on a prebuilt WAL history: set-up is recovery, and the drive
    /// runs on the recovered sessions beside fully drained ones.
    WalGroup,
    /// Start on an empty data directory and register the fleet over HTTP:
    /// set-up is registration, and the drive runs on fresh journals.
    WalFresh,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 2] = [Workload::WalGroup, Workload::WalFresh];

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WalGroup => "wal-group",
            Workload::WalFresh => "wal-fresh",
        }
    }

    /// True when the daemon recovers a prebuilt history; false when it
    /// starts empty and the fleet is registered over HTTP.
    pub fn recovers(self) -> bool {
        self == Workload::WalGroup
    }
}

/// One session of a workload's fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Strategy name as the protocol spells it.
    pub strategy: &'static str,
    /// Resources of the generated corpus.
    pub resources: usize,
    /// Corpus generator seed.
    pub corpus_seed: u64,
    /// The session's own seed (drives FC; recorded in the registration).
    pub session_seed: u64,
    /// Session budget.
    pub budget: u64,
    /// True for the giants, which take three quarters of the traffic.
    pub giant: bool,
    /// Tasks spent on it before the run (the `wal-group` history).
    pub history_tasks: u64,
}

impl SessionSpec {
    /// The `POST /scenarios` body registering this session.
    pub fn register_body(&self) -> String {
        format!(
            "{{\"strategy\":\"{}\",\"budget\":{},\"seed\":{},\"source\":{{\"generate\":{{\"resources\":{},\"seed\":{}}}}}}}",
            self.strategy, self.budget, self.session_seed, self.resources, self.corpus_seed
        )
    }

    /// True when this session is still live after its history (it takes
    /// traffic during the run).
    pub fn live(&self) -> bool {
        self.history_tasks < self.budget
    }
}

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent stream value derived from the workload seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(seed ^ mix(stream.wrapping_mul(0x0100_0000_01b3) ^ mix(index)))
}

/// The sessions of `workload` for `seed`, in registration order: session
/// `i` of the returned list gets id `i + 1` on a fresh daemon.
///
/// Every fleet hosts six small sessions (FP, RR, MU, FP-MU cycled) and two
/// giants (FP, RR). `wal-group` adds two terminal giants in front, which the
/// history drains completely, and gives every live session some history.
pub fn fleet(workload: Workload, seed: u64) -> Vec<SessionSpec> {
    let recovers = workload.recovers();
    let mut sessions = Vec::new();
    if recovers {
        for (j, strategy) in GIANT_STRATEGIES.iter().enumerate() {
            sessions.push(SessionSpec {
                strategy,
                resources: GIANT_RESOURCES,
                corpus_seed: derive(seed, 1, j as u64),
                session_seed: derive(seed, 2, j as u64),
                budget: TERMINAL_BUDGET,
                giant: true,
                history_tasks: TERMINAL_BUDGET,
            });
        }
    }
    for i in 0..SMALL_SESSIONS {
        sessions.push(SessionSpec {
            strategy: SMALL_STRATEGIES[i % SMALL_STRATEGIES.len()],
            resources: SMALL_RESOURCES,
            corpus_seed: derive(seed, 3, i as u64),
            session_seed: derive(seed, 4, i as u64),
            budget: LIVE_BUDGET,
            giant: false,
            history_tasks: if recovers { SMALL_HISTORY_TASKS } else { 0 },
        });
    }
    for (j, strategy) in GIANT_STRATEGIES.iter().enumerate() {
        sessions.push(SessionSpec {
            strategy,
            resources: GIANT_RESOURCES,
            corpus_seed: derive(seed, 5, j as u64),
            session_seed: derive(seed, 6, j as u64),
            budget: LIVE_BUDGET,
            giant: true,
            history_tasks: if recovers { GIANT_HISTORY_TASKS } else { 0 },
        });
    }
    sessions
}

/// One iteration of a connection's loop: lease `k` tasks on a session,
/// report all of them, and read the session's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Index into the fleet.
    pub session: usize,
    /// Tasks to lease.
    pub k: usize,
}

/// Indices of the sessions that take traffic, split into giants and small.
#[derive(Debug, Clone)]
pub struct Targets {
    giants: Vec<usize>,
    small: Vec<usize>,
}

impl Targets {
    /// The live giants and live small sessions of `fleet`.
    pub fn of(fleet: &[SessionSpec]) -> Self {
        let live = |giant: bool| {
            (0..fleet.len())
                .filter(|&i| fleet[i].live() && fleet[i].giant == giant)
                .collect()
        };
        Self {
            giants: live(true),
            small: live(false),
        }
    }
}

/// Iteration `iteration` of connection `conn`: three quarters of the
/// iterations go to a giant, the rest to a small session. Every iteration
/// reads: a group-commit drive completes ~130 iterations per second, and
/// each request kind needs at least ten samples beyond its p99.
pub fn step(seed: u64, targets: &Targets, conn: usize, iteration: u64) -> Step {
    let r = derive(seed, 100 + conn as u64, iteration);
    let pick = (r / 4) as usize;
    let session = if !r.is_multiple_of(4) {
        targets.giants[pick % targets.giants.len()]
    } else {
        targets.small[pick % targets.small.len()]
    };
    Step {
        session,
        k: BATCH_K,
    }
}

/// The first `iterations` iterations of every connection, one line per
/// request — the schedule the generator follows, rendered for the
/// determinism self-test.
#[cfg(test)]
pub fn render_schedule(workload: Workload, seed: u64, iterations: u64) -> String {
    use std::fmt::Write as _;

    let fleet = fleet(workload, seed);
    let targets = Targets::of(&fleet);
    let mut out = String::new();
    for spec in &fleet {
        writeln!(out, "register {}", spec.register_body()).expect("write to String");
    }
    for conn in 0..CONNECTIONS {
        for iteration in 0..iterations {
            let s = step(seed, &targets, conn, iteration);
            for op in ["batch", "report", "metrics"] {
                writeln!(out, "{conn} {iteration} {op} {} {}", s.session + 1, s.k)
                    .expect("write to String");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_schedule() {
        for workload in Workload::ALL {
            let a = render_schedule(workload, 7, 500);
            let b = render_schedule(workload, 7, 500);
            assert_eq!(a.as_bytes(), b.as_bytes());
            assert_ne!(a, render_schedule(workload, 8, 500));
        }
    }

    #[test]
    fn giants_take_three_quarters_of_the_iterations() {
        let fleet = fleet(Workload::WalFresh, 3);
        let targets = Targets::of(&fleet);
        let n = 40_000u64;
        let giant = (0..n)
            .filter(|&i| fleet[step(3, &targets, 0, i).session].giant)
            .count() as f64;
        assert!((giant / n as f64 - 0.75).abs() < 0.01);
    }

    #[test]
    fn wal_group_traffic_skips_the_terminal_giants() {
        let fleet = fleet(Workload::WalGroup, 1);
        let targets = Targets::of(&fleet);
        assert_eq!(targets.giants.len(), 2);
        assert_eq!(targets.small.len(), 6);
        assert!(targets.giants.iter().all(|&i| fleet[i].live()));
        assert_eq!(fleet.iter().filter(|s| !s.live()).count(), 2);
    }
}

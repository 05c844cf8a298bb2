//! The durable session store: one WAL segment + snapshot per registry shard.
//!
//! ## Layout
//!
//! ```text
//! data_dir/
//!   shard-000/
//!     snap-0000000004.snap    # full shard state as of the segment switch
//!     wal-0000000004.log      # events appended since that snapshot
//!   shard-001/
//!     ...
//! ```
//!
//! A shard's durable state is *snapshot ∘ WAL*: load the snapshot of the
//! current generation, then replay the WAL chain on top. Compaction advances
//! the generation: open a fresh WAL, write a new snapshot of the in-memory
//! mirror (atomic tmp + rename), then delete the older generations' files.
//! A crash between any two of those steps leaves a recoverable directory —
//! recovery picks the newest generation with a valid snapshot, replays
//! *every* WAL generation at or above it in ascending order (the background
//! compactor opens generation `N+1`'s WAL before snapshot `N+1` publishes,
//! so events may legitimately be split across two WALs), ignores stale
//! files, and tolerates a torn final record by discarding the tail.
//!
//! ## The two halves
//!
//! This module is the store's spine — configuration, open/recovery, the
//! shared state. The work is split across:
//!
//! * [`crate::appender`] — the hot path: bounded appends and the
//!   group-commit gate (`FlushPolicy::Group`);
//! * [`crate::compactor`] — the background path: two-phase snapshot
//!   compaction, the backlog queue, and the `wal-flusher` /
//!   `wal-compactor` scheduler tenants ([`crate::compactor::spawn_maintenance`]).
//!
//! ## Concurrency
//!
//! One mutex per shard, mirroring the server's registry sharding: appends on
//! different shards never contend, and the server appends *after* releasing
//! the session lock, so the WAL mutex is never held under a shard lock. The
//! compactor takes the same per-shard mutex only to seal a segment; the
//! snapshot write happens off-lock against a cloned mirror.

use crate::event::SessionState;
use crate::record::{scan, WAL_MAGIC};
use crate::snapshot;
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tagging_runtime::{lock_unpoisoned, FlushPolicy};
use tagging_telemetry::{Counter, Gauge, Histogram};

use crate::appender::{
    apply_to_mirror, open_wal, parse_generation, snap_path, sync_dir, wal_path, Shard, ShardCell,
};
use crate::compactor::remove_stale;
use crate::event::WalEvent;

/// Configuration of a [`PersistStore`].
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Root directory; created (with shard subdirectories) if missing.
    pub data_dir: PathBuf,
    /// Number of shards — must equal the server registry's shard count so
    /// that `shard_of(session)` addresses the same segment across restarts.
    pub shards: usize,
    /// Events appended to one shard between snapshots (compaction cadence).
    pub snapshot_every: u64,
    /// `fsync` policy of the append path.
    pub flush: FlushPolicy,
    /// Cadence of the `wal-flusher` group-commit tenant, in milliseconds
    /// (also sizes the appender's self-sync fallback deadline). Only
    /// meaningful with [`FlushPolicy::Group`].
    pub flush_interval_ms: u64,
    /// Cadence of the `wal-compactor` tenant, in milliseconds; at least 1
    /// ([`PersistStore::open`] rejects `0`).
    pub compact_interval_ms: u64,
}

impl PersistOptions {
    /// Options with the default cadences (snapshot every 1024 events per
    /// shard, flusher every 5 ms, compactor every 25 ms) and flush policy
    /// for `shards` shards rooted at `data_dir`.
    pub fn new(data_dir: impl Into<PathBuf>, shards: usize) -> Self {
        Self {
            data_dir: data_dir.into(),
            shards: shards.max(1),
            snapshot_every: 1024,
            flush: FlushPolicy::default(),
            flush_interval_ms: 5,
            compact_interval_ms: 25,
        }
    }
}

/// What [`PersistStore::open`] recovered from disk.
#[derive(Debug)]
pub struct RecoveredState {
    /// Every persisted session, as `(session id, durable state)`, sorted by
    /// id. The caller rebuilds live sessions by replaying `events` onto a
    /// fresh session built from `registration`.
    pub sessions: Vec<(u64, SessionState)>,
    /// True when the WAL chain ended with a [`WalEvent::CleanShutdown`]
    /// marker (or held no events at all). Informational: recovery works the
    /// same either way.
    pub clean_shutdown: bool,
}

/// Handles into the global telemetry registry for every metric the store
/// records. Resolved once at [`PersistStore::open`] so the append path never
/// touches the registry lock.
///
/// Because these are plain registry families, they flow into the server's
/// trailing-window projection for free: `GET /stats?window=10s` reports
/// `persist_wal_appends_total_per_s` (the live WAL append rate) and windowed
/// fsync/append latency quantiles without the store knowing windows exist.
pub(crate) struct StoreMetrics {
    /// `persist_wal_append_us`: time to mirror + frame + write one event.
    pub(crate) wal_append_us: Arc<Histogram>,
    /// `persist_wal_fsync_us`: time of each WAL device sync.
    pub(crate) wal_fsync_us: Arc<Histogram>,
    /// `persist_wal_appends_total` / `persist_wal_append_bytes_total`.
    pub(crate) wal_appends: Arc<Counter>,
    pub(crate) wal_append_bytes: Arc<Counter>,
    /// `persist_wal_fsyncs_total`.
    pub(crate) wal_fsyncs: Arc<Counter>,
    /// `persist_snapshot_write_us`: full compaction (snapshot + WAL swap +
    /// stale cleanup) duration.
    pub(crate) snapshot_write_us: Arc<Histogram>,
    /// `persist_snapshots_total` / `persist_snapshot_bytes_total`.
    pub(crate) snapshots: Arc<Counter>,
    pub(crate) snapshot_bytes: Arc<Counter>,
    /// `persist_compactions_total`: segment compactions completed.
    pub(crate) compactions: Arc<Counter>,
    /// `persist_compaction_backlog_events`: events in segments queued for
    /// the background compactor.
    pub(crate) compaction_backlog: Arc<Gauge>,
    /// `persist_group_commit_batch`: appends released per shared fsync.
    pub(crate) group_batch: Arc<Histogram>,
    /// `persist_flush_wait_us`: time an append spent parked on the
    /// group-commit gate.
    pub(crate) flush_wait_us: Arc<Histogram>,
    /// `persist_stale_files_deleted_total`: stale generation files removed.
    pub(crate) stale_deleted: Arc<Counter>,
    /// `persist_compactor_errors_total` / `persist_flusher_errors_total`:
    /// maintenance ticks that failed (the shard is retried, never dropped).
    pub(crate) compactor_errors: Arc<Counter>,
    pub(crate) flusher_errors: Arc<Counter>,
    /// Recovery stats, set once per open: sessions and events rebuilt, and a
    /// counter of opens that found no clean-shutdown marker.
    pub(crate) recovered_sessions: Arc<Gauge>,
    pub(crate) recovered_events: Arc<Gauge>,
    pub(crate) unclean_recoveries: Arc<Counter>,
}

impl StoreMetrics {
    fn resolve() -> Self {
        let registry = tagging_telemetry::global();
        Self {
            wal_append_us: registry.histogram(
                "persist_wal_append_us",
                &[],
                "WAL event append latency (mirror apply + frame write) in microseconds",
            ),
            wal_fsync_us: registry.histogram(
                "persist_wal_fsync_us",
                &[],
                "WAL fsync latency in microseconds",
            ),
            wal_appends: registry.counter("persist_wal_appends_total", &[], "WAL events appended"),
            wal_append_bytes: registry.counter(
                "persist_wal_append_bytes_total",
                &[],
                "Framed WAL bytes written",
            ),
            wal_fsyncs: registry.counter(
                "persist_wal_fsyncs_total",
                &[],
                "Device syncs issued on the WAL append path",
            ),
            snapshot_write_us: registry.histogram(
                "persist_snapshot_write_us",
                &[],
                "Snapshot compaction (write + rotate + cleanup) latency in microseconds",
            ),
            snapshots: registry.counter(
                "persist_snapshots_total",
                &[],
                "Snapshot generations written",
            ),
            snapshot_bytes: registry.counter(
                "persist_snapshot_bytes_total",
                &[],
                "Snapshot bytes written",
            ),
            compactions: registry.counter(
                "persist_compactions_total",
                &[],
                "Segment compactions completed",
            ),
            compaction_backlog: registry.gauge(
                "persist_compaction_backlog_events",
                &[],
                "Events in segments queued for background compaction",
            ),
            group_batch: registry.histogram(
                "persist_group_commit_batch",
                &[],
                "Appends released per shared group-commit fsync",
            ),
            flush_wait_us: registry.histogram(
                "persist_flush_wait_us",
                &[],
                "Time an append waited on the group-commit gate in microseconds",
            ),
            stale_deleted: registry.counter(
                "persist_stale_files_deleted_total",
                &[],
                "Stale generation files deleted by compaction",
            ),
            compactor_errors: registry.counter(
                "persist_compactor_errors_total",
                &[],
                "Background compaction attempts that failed (and were re-queued)",
            ),
            flusher_errors: registry.counter(
                "persist_flusher_errors_total",
                &[],
                "wal-flusher ticks whose shared fsync failed",
            ),
            recovered_sessions: registry.gauge(
                "persist_recovered_sessions",
                &[],
                "Sessions rebuilt from disk at the most recent open",
            ),
            recovered_events: registry.gauge(
                "persist_recovered_events",
                &[],
                "Session events replayed from disk at the most recent open",
            ),
            unclean_recoveries: registry.counter(
                "persist_unclean_recoveries_total",
                &[],
                "Store opens that found no clean-shutdown marker",
            ),
        }
    }
}

/// Recover one shard directory. Returns the rebuilt mirror, the highest
/// generation seen on disk, and whether the WAL chain ended cleanly.
fn recover_shard(dir: &Path) -> io::Result<(HashMap<u64, SessionState>, u64, bool)> {
    let mut snap_gens: Vec<u64> = Vec::new();
    let mut wal_gens: Vec<u64> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(generation) = parse_generation(name, "snap-", ".snap") {
            snap_gens.push(generation);
        } else if let Some(generation) = parse_generation(name, "wal-", ".log") {
            wal_gens.push(generation);
        }
    }
    snap_gens.sort_unstable();
    wal_gens.sort_unstable();
    let top = snap_gens
        .last()
        .copied()
        .max(wal_gens.last().copied())
        .unwrap_or(0);

    // Newest generation with a *valid* snapshot wins; a corrupt or torn
    // snapshot (a kill mid-publish, before the atomic rename's directory
    // entry is durable) falls back to the previous generation, whose WAL
    // still holds its events.
    let mut sessions = HashMap::new();
    let mut base = None;
    for &generation in snap_gens.iter().rev() {
        if let Some(loaded) = snapshot::load(&snap_path(dir, generation)) {
            sessions = loaded;
            base = Some(generation);
            break;
        }
    }
    // Replay every WAL generation at or above the base, oldest first. The
    // background compactor opens generation N+1's WAL *before* snapshot N+1
    // publishes, so a kill in that window legitimately leaves the shard's
    // events split across wal-N (sealed) and wal-N+1 (fresh appends) with
    // snap-N as the newest valid snapshot — the chain replay loses neither
    // half. Without any valid snapshot, the WAL chain is all there is.
    let replay: Vec<u64> = match base {
        Some(base) => wal_gens.iter().copied().filter(|g| *g >= base).collect(),
        None => wal_gens,
    };
    let mut clean = true;
    let mut last_was_marker = true;
    for generation in replay {
        let path = wal_path(dir, generation);
        if !path.exists() {
            continue;
        }
        let bytes = fs::read(&path)?;
        let segment = scan(&bytes, WAL_MAGIC);
        for payload in &segment.records {
            match WalEvent::decode(payload) {
                Ok(event) => {
                    last_was_marker = matches!(event, WalEvent::CleanShutdown);
                    apply_to_mirror(&mut sessions, &event, false)?;
                }
                // A CRC-valid but undecodable record is format skew;
                // treat it like a torn tail and stop replaying this segment.
                Err(_) => {
                    last_was_marker = false;
                    break;
                }
            }
        }
        clean &= segment.is_clean();
    }
    clean &= last_was_marker;
    Ok((sessions, top, clean))
}

/// The durable store: per-shard WAL segments with snapshot compaction.
///
/// See the module docs for the layout and recovery rules. All methods are
/// `&self`; each shard serializes its own appends behind its own mutex. The
/// append path lives in [`crate::appender`], compaction and the maintenance
/// tenants in [`crate::compactor`].
pub struct PersistStore {
    pub(crate) shards: Box<[ShardCell]>,
    pub(crate) snapshot_every: u64,
    pub(crate) flush: FlushPolicy,
    /// `wal-flusher` tenant period.
    pub(crate) flush_interval: Duration,
    /// `wal-compactor` tenant period.
    pub(crate) compact_interval: Duration,
    /// How long a group-commit waiter parks before syncing on its own.
    pub(crate) group_wait_timeout: Duration,
    /// Shard indices awaiting background compaction, in marking order.
    pub(crate) backlog: Mutex<VecDeque<usize>>,
    /// Segment compactions completed since open (plain atomic so status
    /// reporting works identically under `telemetry-noop`).
    pub(crate) compactions: AtomicU64,
    pub(crate) metrics: StoreMetrics,
}

impl PersistStore {
    /// Open (or create) the store at `options.data_dir`, recovering whatever
    /// a previous process left behind.
    ///
    /// Recovery also *rotates*: the recovered state is immediately written
    /// out as a fresh snapshot generation with an empty WAL, and stale files
    /// are deleted — so the on-disk layout is canonical after every startup
    /// and the snapshot path is exercised even on an idle server.
    ///
    /// A `compact_interval_ms` of 0 is rejected with
    /// [`io::ErrorKind::InvalidInput`]: compaction always runs on the
    /// `wal-compactor` tenant, never on the append path.
    pub fn open(options: &PersistOptions) -> io::Result<(Self, RecoveredState)> {
        if options.compact_interval_ms == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "compact_interval_ms must be at least 1",
            ));
        }
        let shard_count = options.shards.max(1);
        let snapshot_every = options.snapshot_every.max(1);
        let metrics = StoreMetrics::resolve();
        let mut shards = Vec::with_capacity(shard_count);
        let mut recovered = Vec::new();
        let mut clean_shutdown = true;
        for index in 0..shard_count {
            let dir = options.data_dir.join(format!("shard-{index:03}"));
            fs::create_dir_all(&dir)?;
            let (sessions, top, clean) = recover_shard(&dir)?;
            clean_shutdown &= clean;

            // Rotate to a fresh generation holding exactly the recovered
            // state, then clear out everything older.
            let generation = top + 1;
            let written = snapshot::write_atomic(&snap_path(&dir, generation), &sessions)?;
            metrics.snapshots.inc();
            metrics.snapshot_bytes.add(written);
            let wal = open_wal(&wal_path(&dir, generation), true)?;
            remove_stale(&dir, generation, &metrics)?;
            sync_dir(&dir)?;

            recovered.extend(sessions.iter().map(|(id, state)| (*id, state.clone())));
            shards.push(ShardCell::new(Shard {
                dir,
                generation,
                wal,
                appended_since_sync: 0,
                events_in_segment: 0,
                appended_total: 0,
                synced_total: 0,
                compaction_pending: false,
                sessions,
            }));
        }
        recovered.sort_by_key(|(id, _)| *id);
        metrics.recovered_sessions.set(recovered.len() as i64);
        metrics
            .recovered_events
            .set(recovered.iter().map(|(_, s)| s.events.len() as i64).sum());
        if !clean_shutdown {
            metrics.unclean_recoveries.inc();
        }
        let flush_interval = Duration::from_millis(options.flush_interval_ms.max(1));
        Ok((
            Self {
                shards: shards.into_boxed_slice(),
                snapshot_every,
                flush: options.flush,
                flush_interval,
                compact_interval: Duration::from_millis(options.compact_interval_ms),
                // Generous multiple of the flusher cadence: the fallback is
                // for a missing or wedged tenant, not a slow tick.
                group_wait_timeout: (flush_interval * 20)
                    .clamp(Duration::from_millis(50), Duration::from_secs(1)),
                backlog: Mutex::new(VecDeque::new()),
                compactions: AtomicU64::new(0),
                metrics,
            },
            RecoveredState {
                sessions: recovered,
                clean_shutdown,
            },
        ))
    }

    /// Number of shards (fixed at open).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured flush policy.
    pub fn flush_policy(&self) -> FlushPolicy {
        self.flush
    }

    /// Total persisted sessions across all shards (test/diagnostic helper).
    pub fn session_count(&self) -> usize {
        self.shards
            .iter()
            .map(|cell| lock_unpoisoned(&cell.state).sessions.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CorpusOrigin, Registration};
    use tagging_sim::session::SessionEvent;

    fn registration(seed: u64) -> Registration {
        Registration {
            strategy: "FP".into(),
            budget: 50,
            omega: 5,
            seed,
            source: CorpusOrigin::Generate {
                resources: 10,
                seed,
            },
            stability_window: 15,
            stability_tau: 0.999,
            under_tagged_threshold: 10,
        }
    }

    /// Two shards and a tiny snapshot cadence; no tenant runs, so the tests
    /// call `compact_tick` themselves.
    fn options(dir: &Path) -> PersistOptions {
        PersistOptions {
            data_dir: dir.to_path_buf(),
            shards: 2,
            snapshot_every: 4,
            flush: FlushPolicy::Never,
            flush_interval_ms: 5,
            compact_interval_ms: 25,
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tagging-persist-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_fresh_store_is_empty_and_clean() {
        let dir = temp_dir("fresh");
        let (store, recovered) = PersistStore::open(&options(&dir)).unwrap();
        assert!(recovered.sessions.is_empty());
        assert!(recovered.clean_shutdown);
        assert_eq!(store.shard_count(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_zero_compaction_interval_is_rejected() {
        let dir = temp_dir("zero-interval");
        let mut options = options(&dir);
        options.compact_interval_ms = 0;
        let err = PersistStore::open(&options).err().expect("open must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!dir.exists(), "nothing is created before the check");
    }

    #[test]
    fn reopen_recovers_appended_state_and_flags_missing_shutdown() {
        let dir = temp_dir("reopen");
        {
            let (store, _) = PersistStore::open(&options(&dir)).unwrap();
            store
                .append(
                    0,
                    &WalEvent::Register {
                        session: 1,
                        registration: registration(1),
                    },
                )
                .unwrap();
            store
                .append(
                    0,
                    &WalEvent::Session {
                        session: 1,
                        event: SessionEvent::Lease { k: 5 },
                    },
                )
                .unwrap();
            store
                .append(
                    1,
                    &WalEvent::Register {
                        session: 2,
                        registration: registration(2),
                    },
                )
                .unwrap();
            // Dropped without shutdown(): simulates a kill.
        }
        let (store, recovered) = PersistStore::open(&options(&dir)).unwrap();
        assert!(!recovered.clean_shutdown);
        assert_eq!(recovered.sessions.len(), 2);
        assert_eq!(recovered.sessions[0].0, 1);
        assert_eq!(
            recovered.sessions[0].1.events,
            vec![SessionEvent::Lease { k: 5 }]
        );
        assert_eq!(recovered.sessions[1].0, 2);
        assert!(recovered.sessions[1].1.events.is_empty());
        store.shutdown().unwrap();

        let (_, recovered) = PersistStore::open(&options(&dir)).unwrap();
        assert!(recovered.clean_shutdown);
        assert_eq!(recovered.sessions.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_rotates_generations_and_cleans_old_files() {
        let dir = temp_dir("compact");
        let (store, _) = PersistStore::open(&options(&dir)).unwrap();
        store
            .append(
                0,
                &WalEvent::Register {
                    session: 7,
                    registration: registration(7),
                },
            )
            .unwrap();
        let before = store.maintenance_status().shard_generations[0];
        // snapshot_every = 4: four more events cross the cadence, and the
        // tick the tenant would run rotates the shard.
        for _ in 0..4 {
            store
                .append(
                    0,
                    &WalEvent::Session {
                        session: 7,
                        event: SessionEvent::Lease { k: 1 },
                    },
                )
                .unwrap();
        }
        assert_eq!(store.compact_tick(), 1);
        let status = store.maintenance_status();
        assert_eq!(status.compactions, 1, "{status:?}");
        assert_eq!(status.shard_generations[0], before + 1, "{status:?}");
        assert_eq!(status.backlog_events, 0);
        let shard_dir = dir.join("shard-000");
        let names: Vec<String> = fs::read_dir(&shard_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let snaps = names.iter().filter(|n| n.ends_with(".snap")).count();
        let wals = names.iter().filter(|n| n.ends_with(".log")).count();
        assert_eq!(
            (snaps, wals),
            (1, 1),
            "stale generations left behind: {names:?}"
        );

        let (_, recovered) = PersistStore::open(&options(&dir)).unwrap();
        let (id, state) = &recovered.sessions[0];
        assert_eq!(*id, 7);
        assert_eq!(state.events.len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_event_for_an_unknown_session_is_rejected() {
        let dir = temp_dir("strict");
        let (store, _) = PersistStore::open(&options(&dir)).unwrap();
        let err = store
            .append(
                0,
                &WalEvent::Session {
                    session: 99,
                    event: SessionEvent::Lease { k: 1 },
                },
            )
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wal_chain_split_across_generations_replays_in_order() {
        // Simulate a kill between the compactor's seal and publish phases:
        // events split across wal-N (sealed) and wal-N+1, snap-N+1 missing.
        let dir = temp_dir("chain");
        {
            let (store, _) = PersistStore::open(&options(&dir)).unwrap();
            store
                .append(
                    0,
                    &WalEvent::Register {
                        session: 3,
                        registration: registration(3),
                    },
                )
                .unwrap();
            store
                .append(
                    0,
                    &WalEvent::Session {
                        session: 3,
                        event: SessionEvent::Lease { k: 2 },
                    },
                )
                .unwrap();
        }
        // Hand-create the next generation's WAL holding a later event, as
        // the sealed-but-unpublished window would leave it.
        let shard_dir = dir.join("shard-000");
        let generation = fs::read_dir(&shard_dir)
            .unwrap()
            .filter_map(|e| {
                parse_generation(e.unwrap().file_name().to_str().unwrap(), "wal-", ".log")
            })
            .max()
            .unwrap();
        let mut wal = open_wal(&wal_path(&shard_dir, generation + 1), true).unwrap();
        use std::io::Write as _;
        wal.write_all(&crate::record::frame(
            &WalEvent::Session {
                session: 3,
                event: SessionEvent::Lease { k: 9 },
            }
            .encode(),
        ))
        .unwrap();
        drop(wal);

        let (_, recovered) = PersistStore::open(&options(&dir)).unwrap();
        assert_eq!(recovered.sessions.len(), 1);
        assert_eq!(
            recovered.sessions[0].1.events,
            vec![SessionEvent::Lease { k: 2 }, SessionEvent::Lease { k: 9 }],
            "the sealed WAL and the next generation's WAL must both replay, in order"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

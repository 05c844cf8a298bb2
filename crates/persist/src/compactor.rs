//! The background half of the store: snapshot compaction off the request
//! path, and the scheduler tenants that drive it.
//!
//! ## Two-phase compaction
//!
//! A shard that crosses its snapshot cadence is *marked* by the appender and
//! pushed onto the store's backlog queue; the `wal-compactor` tenant drains
//! the queue with [`PersistStore::compact_tick`]. Each compaction runs in
//! two phases:
//!
//! 1. **Seal** — under the shard lock, but with no heavy I/O: sync any
//!    group-commit stragglers of the old segment, open the next generation's
//!    WAL, swap it in, and clone the mirror. The appender resumes on the
//!    fresh generation the moment the lock drops; from here on the sealed
//!    WAL is frozen.
//! 2. **Publish** — entirely off-lock: write snapshot `N+1` (atomic tmp →
//!    fsync → rename) from the cloned mirror, delete every stale
//!    generation, sync the directory.
//!
//! A kill between the phases leaves the shard split across `snap-N`,
//! `wal-N` (sealed) and `wal-N+1` (new appends); recovery replays the whole
//! WAL chain at or above the newest valid snapshot, so nothing is lost and
//! a torn `snap-N+1` simply falls back one generation. Compactor errors are
//! counted (`persist_compactor_errors_total`) and the shard is re-queued —
//! never panicked, never silently dropped.

use crate::snapshot;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tagging_runtime::{lock_unpoisoned, FlushPolicy, Scheduler, TaskStats};

use crate::appender::{
    group_sync_locked, open_wal, parse_generation, snap_path, sync_dir, wal_path,
};
use crate::store::{PersistStore, StoreMetrics};

/// A point-in-time view of the store's maintenance machinery, served by the
/// server's `/healthz` and `GET /stats` endpoints.
#[derive(Debug, Clone)]
pub struct MaintenanceStatus {
    /// The flush policy, as its display string (`always`, `group`, ...).
    pub flush_mode: String,
    /// Events sitting in segments that are queued for compaction.
    pub backlog_events: u64,
    /// Shards currently queued for compaction.
    pub backlog_shards: usize,
    /// Segment compactions completed since open.
    pub compactions: u64,
    /// Current segment generation of every shard, in shard order.
    pub shard_generations: Vec<u64>,
}

/// Handles onto the store's maintenance tenants, returned by
/// [`spawn_maintenance`]. Dropping it is fine — the tenants are owned by the
/// scheduler; this only carries their run statistics.
#[derive(Debug)]
pub struct MaintenanceHandle {
    /// Run stats of the `wal-flusher` tenant (`None` unless the store runs
    /// group commit).
    pub flusher: Option<Arc<TaskStats>>,
    /// Run stats of the `wal-compactor` tenant.
    pub compactor: Arc<TaskStats>,
}

/// Spawn the store's maintenance tenants onto `scheduler`:
///
/// * `wal-flusher` — every `flush_interval_ms`, one shared `fsync` per dirty
///   shard, releasing every group-commit waiter (spawned only under
///   [`FlushPolicy::Group`]);
/// * `wal-compactor` — every `compact_interval_ms`, drains the compaction
///   backlog so snapshots are cut off the request path.
///
/// Both tenants inherit the scheduler's panic isolation; errors inside a
/// tick are counted on the store's telemetry, never raised.
pub fn spawn_maintenance(
    store: &Arc<PersistStore>,
    scheduler: &mut Scheduler,
) -> MaintenanceHandle {
    let flusher = (store.flush == FlushPolicy::Group).then(|| {
        let period = store.flush_interval;
        let store = Arc::clone(store);
        scheduler.spawn_periodic("wal-flusher", period, move || {
            store.flush_tick();
        })
    });
    let compactor = {
        let period = store.compact_interval;
        let store = Arc::clone(store);
        scheduler.spawn_periodic("wal-compactor", period, move || {
            store.compact_tick();
        })
    };
    MaintenanceHandle { flusher, compactor }
}

impl PersistStore {
    /// One pass of the `wal-compactor` tenant: compact every shard queued on
    /// the backlog when the pass started. Returns how many compactions
    /// completed. A failing shard is counted and re-queued for the next
    /// pass; the pass itself never errors or panics out of the tenant.
    pub fn compact_tick(&self) -> usize {
        let mut compacted = 0;
        // Bound the pass to the queue length at entry so a persistently
        // erroring shard (re-queued below) cannot spin this loop hot.
        let budget = lock_unpoisoned(&self.backlog).len();
        for _ in 0..budget {
            let Some(index) = lock_unpoisoned(&self.backlog).pop_front() else {
                break;
            };
            match self.compact_shard(index, false) {
                Ok(true) => compacted += 1,
                Ok(false) => {} // no longer pending (a forced compact won)
                Err(_) => {
                    self.metrics.compactor_errors.inc();
                    lock_unpoisoned(&self.backlog).push_back(index);
                }
            }
        }
        compacted
    }

    /// Compact one shard: seal under the lock, publish off it. Without
    /// `force`, returns `Ok(false)` when the shard was no longer pending.
    fn compact_shard(&self, index: usize, force: bool) -> io::Result<bool> {
        let cell = &self.shards[index % self.shards.len()];
        // Phase 1 — seal. Everything here is cheap except creating the next
        // segment file; the appender is blocked only for that long.
        let (dir, next, mirror) = {
            let mut guard = lock_unpoisoned(&cell.state);
            if !guard.compaction_pending && !force {
                return Ok(false);
            }
            let (was_pending, sealed_events) = (guard.compaction_pending, guard.events_in_segment);
            let next = guard.generation + 1;
            // Group-commit waiters may still sit behind unsynced records of
            // the segment being sealed; sync it now — after the swap no one
            // would fsync the old file again, and the snapshot that would
            // cover them publishes only after this lock drops.
            if guard.synced_total < guard.appended_total {
                group_sync_locked(&mut guard, &self.metrics)?;
            }
            guard.wal = open_wal(&wal_path(&guard.dir, next), true)?;
            guard.generation = next;
            guard.events_in_segment = 0;
            guard.appended_since_sync = 0;
            guard.compaction_pending = false;
            if was_pending {
                self.metrics.compaction_backlog.add(-(sealed_events as i64));
            }
            (guard.dir.clone(), next, guard.sessions.clone())
        };
        cell.synced.notify_all();
        // Phase 2 — publish. The sealed WAL is frozen and the appender is
        // already writing generation `next`; a kill anywhere in here is
        // recovered by the chain replay (see the module docs).
        let _compact_timer = self.metrics.snapshot_write_us.start_timer();
        let written = snapshot::write_atomic(&snap_path(&dir, next), &mirror)?;
        self.metrics.snapshots.inc();
        self.metrics.snapshot_bytes.add(written);
        remove_stale(&dir, next, &self.metrics)?;
        sync_dir(&dir)?;
        self.metrics.compactions.inc();
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Force a compaction of every shard (snapshot + fresh WAL) regardless
    /// of cadence, synchronously on this thread, through the same
    /// seal/publish path as the tenant. Used by tests; the server relies on
    /// the cadence.
    pub fn compact(&self) -> io::Result<()> {
        for index in 0..self.shards.len() {
            self.compact_shard(index, true)?;
        }
        Ok(())
    }

    /// A point-in-time view of the maintenance machinery (flush mode,
    /// backlog depth, per-shard generations) for `/healthz` and `/stats`.
    pub fn maintenance_status(&self) -> MaintenanceStatus {
        let mut backlog_events = 0;
        let mut backlog_shards = 0;
        let mut shard_generations = Vec::with_capacity(self.shards.len());
        for cell in self.shards.iter() {
            let guard = lock_unpoisoned(&cell.state);
            if guard.compaction_pending {
                backlog_shards += 1;
                backlog_events += guard.events_in_segment;
            }
            shard_generations.push(guard.generation);
        }
        MaintenanceStatus {
            flush_mode: self.flush.to_string(),
            backlog_events,
            backlog_shards,
            compactions: self.compactions.load(Ordering::Relaxed),
            shard_generations,
        }
    }
}

/// Delete every snapshot/WAL file of a generation other than `keep`, plus
/// leftover `.tmp` files from interrupted snapshot writes. Each deletion is
/// counted under `persist_stale_files_deleted_total`.
pub(crate) fn remove_stale(dir: &Path, keep: u64, metrics: &StoreMetrics) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match (
            parse_generation(name, "snap-", ".snap"),
            parse_generation(name, "wal-", ".log"),
        ) {
            (Some(generation), _) | (_, Some(generation)) => generation != keep,
            _ => name.ends_with(".tmp"),
        };
        if stale {
            fs::remove_file(entry.path())?;
            metrics.stale_deleted.inc();
        }
    }
    Ok(())
}

//! The hot half of the store: the append path and the group-commit gate.
//!
//! [`PersistStore::append`] is the only persistence code a request thread
//! ever executes, and its work is bounded by design: apply the event to the
//! in-memory mirror, frame it, write it to the shard's WAL — and then either
//! ask the [`FlushPolicy`] whether to `fsync` inline (`always` / `every:N`)
//! or park on the group-commit gate (`group`). Snapshot compaction never
//! happens here: the append path only *marks* a shard as due and the
//! `wal-compactor` tenant (see [`crate::compactor`]) does the heavy lifting.
//!
//! ## The group-commit gate
//!
//! Under [`FlushPolicy::Group`] every shard keeps two monotone counters:
//! `appended_total` (records ever written to the shard's WAL) and
//! `synced_total` (the watermark below which every record is known to be on
//! the device). An append takes its *ticket* — the value of `appended_total`
//! after its own write — and waits on the shard's condvar until
//! `synced_total` reaches it. The `wal-flusher` tenant periodically issues
//! one `fsync` per dirty shard, advances the watermark and wakes every
//! waiter, so N concurrent requests on a shard share a single device sync.
//!
//! Two liveness escapes keep acknowledgements from being hostage to the
//! tenant: a waiter whose deadline passes syncs the file itself (the tenant
//! may not be running — tests, misconfiguration, shutdown races), and
//! rotation points (snapshot publish, clean shutdown) advance the watermark
//! because the snapshot or the explicit sync makes the records durable
//! without another WAL `fsync`.

use crate::event::{SessionState, WalEvent};
use crate::record::{frame, WAL_MAGIC};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;
use tagging_runtime::{lock_unpoisoned, FlushPolicy};

use crate::store::{PersistStore, StoreMetrics};

/// Mutable per-shard state, owned by [`ShardCell::state`]'s mutex.
pub(crate) struct Shard {
    /// The shard's directory (`data_dir/shard-NNN`).
    pub(crate) dir: PathBuf,
    /// Current segment generation (names the live WAL / next snapshot).
    pub(crate) generation: u64,
    /// The live WAL segment, opened in append mode.
    pub(crate) wal: File,
    /// Records appended since the last fsync (drives [`FlushPolicy`]).
    pub(crate) appended_since_sync: u64,
    /// Events appended since the last snapshot (drives compaction).
    pub(crate) events_in_segment: u64,
    /// Monotone count of records ever appended — the group-commit ticket.
    pub(crate) appended_total: u64,
    /// Watermark: every record with ticket ≤ this is on the device (or
    /// captured by a device-synced snapshot).
    pub(crate) synced_total: u64,
    /// True while the shard sits on the compactor's backlog queue.
    pub(crate) compaction_pending: bool,
    /// In-memory mirror of the shard's durable state — the source of the
    /// next snapshot, so compaction never re-reads the log.
    pub(crate) sessions: HashMap<u64, SessionState>,
}

/// One shard's mutex plus the condvar group-commit waiters park on.
pub(crate) struct ShardCell {
    pub(crate) state: Mutex<Shard>,
    /// Signalled whenever `synced_total` advances.
    pub(crate) synced: Condvar,
}

impl ShardCell {
    pub(crate) fn new(shard: Shard) -> Self {
        Self {
            state: Mutex::new(shard),
            synced: Condvar::new(),
        }
    }
}

pub(crate) fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:010}.log"))
}

pub(crate) fn snap_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snap-{generation:010}.snap"))
}

/// Parse `prefix-<generation>.<ext>` back out of a file name.
pub(crate) fn parse_generation(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(ext)?
        .parse::<u64>()
        .ok()
}

pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_data()
}

pub(crate) fn open_wal(path: &Path, create_magic: bool) -> io::Result<File> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    if create_magic {
        file.write_all(WAL_MAGIC)?;
        file.sync_data()?;
    }
    Ok(file)
}

/// Apply one WAL event to a shard mirror. `strict` makes an event for an
/// unknown session an error (the append path guarantees ordering); recovery
/// passes `false` and skips such debris.
pub(crate) fn apply_to_mirror(
    sessions: &mut HashMap<u64, SessionState>,
    event: &WalEvent,
    strict: bool,
) -> io::Result<()> {
    match event {
        WalEvent::Register {
            session,
            registration,
        } => {
            sessions.insert(
                *session,
                SessionState {
                    registration: registration.clone(),
                    events: Vec::new(),
                },
            );
        }
        WalEvent::Session { session, event } => match sessions.get_mut(session) {
            Some(state) => state.events.push(event.clone()),
            None if strict => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("WAL event for unregistered session {session}"),
                ))
            }
            None => {}
        },
        WalEvent::CleanShutdown => {}
    }
    Ok(())
}

/// `fsync` the shard's WAL on behalf of the whole waiting cohort: one device
/// sync, a batch-size sample, and the watermark jump that releases every
/// ticket issued so far. Caller notifies the shard's condvar after the guard
/// drops (or relies on its own wait loop re-checking).
pub(crate) fn group_sync_locked(shard: &mut Shard, metrics: &StoreMetrics) -> io::Result<()> {
    let batch = shard.appended_total - shard.synced_total;
    let fsync_timer = metrics.wal_fsync_us.start_timer();
    FlushPolicy::sync(&shard.wal)?;
    drop(fsync_timer);
    metrics.wal_fsyncs.inc();
    metrics.group_batch.record(batch);
    shard.synced_total = shard.appended_total;
    shard.appended_since_sync = 0;
    Ok(())
}

/// Inline `fsync` for the non-group policies (and explicit sync points).
pub(crate) fn sync_locked(shard: &mut Shard, metrics: &StoreMetrics) -> io::Result<()> {
    let _fsync_timer = metrics.wal_fsync_us.start_timer();
    FlushPolicy::sync(&shard.wal)?;
    metrics.wal_fsyncs.inc();
    shard.appended_since_sync = 0;
    shard.synced_total = shard.appended_total;
    Ok(())
}

impl PersistStore {
    /// Append one event to `shard`'s WAL and mirror. The record is written
    /// and flushed to the OS before this returns (so it survives a process
    /// kill); device sync follows the configured [`FlushPolicy`] — inline
    /// for `always`/`every:N`, via the shared group-commit gate for `group`.
    ///
    /// This never compacts: crossing the snapshot cadence only queues the
    /// shard for the `wal-compactor` tenant, keeping the request path
    /// bounded to the frame write (plus the group-commit ticket wait).
    pub fn append(&self, shard: usize, event: &WalEvent) -> io::Result<()> {
        let cell = &self.shards[shard % self.shards.len()];
        let mut guard = lock_unpoisoned(&cell.state);
        let append_timer = self.metrics.wal_append_us.start_timer();
        apply_to_mirror(&mut guard.sessions, event, true)?;
        let framed = frame(&event.encode());
        guard.wal.write_all(&framed)?;
        drop(append_timer);
        self.metrics.wal_appends.inc();
        self.metrics.wal_append_bytes.add(framed.len() as u64);
        guard.appended_since_sync += 1;
        guard.appended_total += 1;
        guard.events_in_segment += 1;

        // Compaction cadence: only mark the shard due and enqueue it for the
        // `wal-compactor` tenant.
        if guard.compaction_pending {
            self.metrics.compaction_backlog.inc();
        } else if guard.events_in_segment >= self.snapshot_every {
            guard.compaction_pending = true;
            self.metrics
                .compaction_backlog
                .add(guard.events_in_segment as i64);
            lock_unpoisoned(&self.backlog).push_back(shard % self.shards.len());
        }

        match self.flush {
            FlushPolicy::Group => self.wait_for_group_sync(cell, guard),
            policy => {
                if policy.should_sync(guard.appended_since_sync) {
                    sync_locked(&mut guard, &self.metrics)?;
                }
                Ok(())
            }
        }
    }

    /// Park until the group-commit watermark covers this append's ticket.
    /// The mutex is released while waiting; a waiter whose deadline passes
    /// performs the sync itself so acknowledgements never hang on a missing
    /// or wedged flusher tenant.
    fn wait_for_group_sync<'a>(
        &'a self,
        cell: &'a ShardCell,
        mut guard: MutexGuard<'a, Shard>,
    ) -> io::Result<()> {
        let ticket = guard.appended_total;
        let _wait_timer = self.metrics.flush_wait_us.start_timer();
        let deadline = Instant::now() + self.group_wait_timeout;
        while guard.synced_total < ticket {
            let now = Instant::now();
            if now >= deadline {
                group_sync_locked(&mut guard, &self.metrics)?;
                drop(guard);
                cell.synced.notify_all();
                return Ok(());
            }
            guard = match cell.synced.wait_timeout(guard, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        Ok(())
    }

    /// One pass of the `wal-flusher` tenant: for every shard with
    /// acknowledgements parked behind the group-commit gate, issue one
    /// `fsync` and wake the cohort. Returns the number of shards synced;
    /// a no-op (0) under any policy other than [`FlushPolicy::Group`].
    /// Sync failures are counted (`persist_flusher_errors_total`) and left
    /// to the waiters' own deadline fallback.
    pub fn flush_tick(&self) -> usize {
        if self.flush != FlushPolicy::Group {
            return 0;
        }
        let mut synced = 0;
        for cell in self.shards.iter() {
            let mut guard = lock_unpoisoned(&cell.state);
            if guard.synced_total == guard.appended_total {
                continue;
            }
            match group_sync_locked(&mut guard, &self.metrics) {
                Ok(()) => synced += 1,
                Err(_) => {
                    self.metrics.flusher_errors.inc();
                    continue;
                }
            }
            drop(guard);
            cell.synced.notify_all();
        }
        synced
    }

    /// Append a [`WalEvent::CleanShutdown`] marker to every shard and fsync,
    /// regardless of flush policy. Call after the server has drained; any
    /// shard still queued for background compaction is compacted first (on
    /// this thread — never a request thread).
    pub fn shutdown(&self) -> io::Result<()> {
        // Drain-then-final-compact: leave the directory canonical so the
        // next open replays as little WAL as possible.
        self.compact_tick();
        for cell in self.shards.iter() {
            let mut guard = lock_unpoisoned(&cell.state);
            guard
                .wal
                .write_all(&frame(&WalEvent::CleanShutdown.encode()))?;
            guard.appended_total += 1;
            sync_locked(&mut guard, &self.metrics)?;
            drop(guard);
            cell.synced.notify_all();
        }
        Ok(())
    }
}

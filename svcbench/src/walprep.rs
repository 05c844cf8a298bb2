//! The `wal-group` history: a data directory built from the seed through the
//! service's public API, in-process and untimed, then copied fresh for every
//! daemon start (opening a store rewrites its directory).

use std::collections::hash_map::DefaultHasher;
use std::fs;
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::Value;

use tagging_persist::{PersistOptions, PersistStore};
use tagging_runtime::{FlushPolicy, Runtime};
use tagging_server::http::Request;
use tagging_server::TaggingService;

use crate::fleet::{SessionSpec, BATCH_K};

/// Registry shards of the daemon (its default), which the store must match.
pub const SHARDS: usize = tagging_sim::registry::DEFAULT_SHARDS;

/// A built history.
#[derive(Debug, Clone)]
pub struct History {
    /// Where it lives.
    pub dir: PathBuf,
    /// Events written: registrations, leases and reports.
    pub events: u64,
    /// Bytes on disk.
    pub bytes: u64,
}

/// The history of `fleet` under `work`, built on first use and reused by
/// later runs of the same sources with the same seed. The cache key covers
/// `source_hash` (the daemon's and this benchmark's sources) and the fleet,
/// so a history is only ever recovered by the code that wrote it.
pub fn ensure(
    work: &Path,
    seed: u64,
    fleet: &[SessionSpec],
    source_hash: u64,
) -> Result<History, String> {
    let mut key = DefaultHasher::new();
    key.write_u64(source_hash);
    key.write(format!("{fleet:?} {BATCH_K}").as_bytes());
    let dir = work.join(format!("wal-history-seed{seed}-{:016x}", key.finish()));
    let marker = dir.join("HISTORY");
    if let Ok(text) = fs::read_to_string(&marker) {
        let mut fields = text.split_whitespace().map(|f| f.parse::<u64>());
        if let (Some(Ok(events)), Some(Ok(bytes))) = (fields.next(), fields.next()) {
            return Ok(History { dir, events, bytes });
        }
    }
    let mut tmp = dir.clone().into_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    remove(&tmp).map_err(|e| e.to_string())?;
    remove(&dir).map_err(|e| e.to_string())?;
    let events = build(&tmp, fleet)?;
    let bytes = dir_bytes(&tmp).map_err(|e| e.to_string())?;
    fs::write(tmp.join("HISTORY"), format!("{events} {bytes}\n")).map_err(|e| e.to_string())?;
    fs::rename(&tmp, &dir).map_err(|e| e.to_string())?;
    Ok(History { dir, events, bytes })
}

/// Registers `fleet` on a durable in-process service and spends each
/// session's history in leases of [`BATCH_K`], sessions taking turns, every
/// lease reported. Ends with the service's clean shutdown. Returns the
/// number of events written.
fn build(dir: &Path, fleet: &[SessionSpec]) -> Result<u64, String> {
    let mut options = PersistOptions::new(dir, SHARDS);
    // Durability of the history itself does not matter; its bytes do.
    options.flush = FlushPolicy::Never;
    let (store, recovered) = PersistStore::open(&options).map_err(|e| e.to_string())?;
    let service =
        TaggingService::with_persist(Runtime::new(1), SHARDS, Arc::new(store), &recovered)
            .map_err(|e| e.to_string())?;
    let mut events = 0u64;
    for (i, spec) in fleet.iter().enumerate() {
        let reply = call(&service, "POST", "/scenarios", &spec.register_body())?;
        if reply.get("scenario_id") != Some(&Value::UInt(i as u64 + 1)) {
            return Err(format!("history registration {i}: {reply:?}"));
        }
        events += 1;
    }
    let mut left: Vec<u64> = fleet.iter().map(|s| s.history_tasks).collect();
    while left.iter().any(|&n| n > 0) {
        for (i, remaining) in left.iter_mut().enumerate() {
            if *remaining == 0 {
                continue;
            }
            let id = i + 1;
            let k = (*remaining).min(BATCH_K as u64);
            let lease = call(
                &service,
                "POST",
                &format!("/scenarios/{id}/batch"),
                &format!("{{\"k\":{k}}}"),
            )?;
            let Some(Value::Array(tasks)) = lease.get("tasks") else {
                return Err(format!("history lease on {id}: {lease:?}"));
            };
            if tasks.len() as u64 != k {
                return Err(format!(
                    "history lease on {id} returned {} tasks",
                    tasks.len()
                ));
            }
            let completions: Vec<String> = tasks
                .iter()
                .filter_map(|t| match t.get("task_id") {
                    Some(Value::UInt(n)) => Some(format!("{{\"task_id\":{n}}}")),
                    _ => None,
                })
                .collect();
            call(
                &service,
                "POST",
                &format!("/scenarios/{id}/report"),
                &format!("{{\"completions\":[{}]}}", completions.join(",")),
            )?;
            *remaining -= k;
            events += 2;
        }
    }
    service.persist_shutdown().map_err(|e| e.to_string())?;
    Ok(events)
}

fn call(service: &TaggingService, method: &str, path: &str, body: &str) -> Result<Value, String> {
    let handled = service.handle(&Request {
        method: method.to_string(),
        path: path.to_string(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    });
    if handled.response.status != 200 {
        return Err(format!(
            "{method} {path}: {} {:?}",
            handled.response.status, handled.response.body
        ));
    }
    Ok(handled.response.body)
}

/// Replaces `to` with a fresh copy of the history (without its marker).
pub fn copy_fresh(history: &History, to: &Path) -> Result<(), String> {
    remove(to).map_err(|e| e.to_string())?;
    copy_dir(&history.dir, to).map_err(|e| format!("copying the history: {e}"))
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else if entry.file_name() != "HISTORY" {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Removes a directory tree if it exists.
pub fn remove(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

//! Durable-session tests straight against [`TaggingService`] (no sockets):
//! a service backed by a [`PersistStore`] must come back from an abrupt stop
//! with every session intact — identical metrics, identical pending tasks,
//! a continuing id sequence — and must answer corpus problems with 4xx, not
//! a panicking 500.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::Value;
use tagging_persist::{PersistOptions, PersistStore};
use tagging_runtime::{FlushPolicy, Runtime};
use tagging_server::http::Request;
use tagging_server::TaggingService;

const SHARDS: usize = 4;

fn request(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

fn store_options(dir: &Path) -> PersistOptions {
    PersistOptions {
        data_dir: dir.to_path_buf(),
        shards: SHARDS,
        // Small cadence so these tests exercise compaction, not just the WAL.
        snapshot_every: 8,
        flush: FlushPolicy::Never,
        flush_interval_ms: 5,
        compact_interval_ms: 25,
    }
}

/// Runs one pass of what the `wal-compactor` tenant would: these tests
/// drive the service without a scheduler, so they compact by hand.
fn compact_tick(service: &TaggingService) {
    service.persist_store().expect("durable").compact_tick();
}

/// Every shard's current segment generation.
fn generations(service: &TaggingService) -> Vec<u64> {
    let store = service.persist_store().expect("durable");
    store.maintenance_status().shard_generations
}

/// Open (or reopen) a durable service over `dir`.
fn open_service(dir: &Path) -> TaggingService {
    let (store, recovered) = PersistStore::open(&store_options(dir)).expect("open store");
    TaggingService::with_persist(Runtime::new(2), SHARDS, Arc::new(store), &recovered)
        .expect("recover service")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tagging-server-persist-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn call(service: &TaggingService, method: &str, path: &str, body: &str) -> (u16, Value) {
    let handled = service.handle(&request(method, path, body));
    (handled.response.status, handled.response.body)
}

fn register(service: &TaggingService, strategy: &str, budget: u64, seed: u64) -> u64 {
    let body = format!(
        r#"{{"strategy":"{strategy}","budget":{budget},
            "source":{{"generate":{{"resources":20,"seed":{seed}}}}}}}"#
    );
    let (status, response) = call(service, "POST", "/scenarios", &body);
    assert_eq!(status, 200, "{response:?}");
    match response.get("scenario_id") {
        Some(&Value::UInt(id)) => id,
        other => panic!("no scenario_id: {other:?}"),
    }
}

/// Leases `k` tasks and returns their ids.
fn lease(service: &TaggingService, id: u64, k: usize) -> Vec<u64> {
    let (status, response) = call(
        service,
        "POST",
        &format!("/scenarios/{id}/batch"),
        &format!(r#"{{"k":{k}}}"#),
    );
    assert_eq!(status, 200, "{response:?}");
    match response.get("tasks") {
        Some(Value::Array(tasks)) => tasks
            .iter()
            .map(|t| match t.get("task_id") {
                Some(&Value::UInt(id)) => id,
                other => panic!("no task_id: {other:?}"),
            })
            .collect(),
        other => panic!("no tasks: {other:?}"),
    }
}

fn report_replay(service: &TaggingService, id: u64, tasks: &[u64]) {
    let completions: Vec<String> = tasks
        .iter()
        .map(|t| format!(r#"{{"task_id":{t}}}"#))
        .collect();
    let (status, response) = call(
        service,
        "POST",
        &format!("/scenarios/{id}/report"),
        &format!(r#"{{"completions":[{}]}}"#, completions.join(",")),
    );
    assert_eq!(status, 200, "{response:?}");
}

fn pending_tasks(service: &TaggingService, id: u64) -> Vec<u64> {
    let (status, response) = call(service, "GET", &format!("/scenarios/{id}/tasks"), "");
    assert_eq!(status, 200, "{response:?}");
    match response.get("pending") {
        Some(Value::Array(ids)) => ids
            .iter()
            .map(|v| match v {
                Value::UInt(id) => *id,
                other => panic!("bad id: {other:?}"),
            })
            .collect(),
        other => panic!("no pending: {other:?}"),
    }
}

/// Metrics JSON with the wall-clock field removed (it legitimately differs
/// across processes; everything else must be bit-identical).
fn comparable_metrics(service: &TaggingService, id: u64) -> Value {
    let (status, response) = call(service, "GET", &format!("/scenarios/{id}/metrics"), "");
    assert_eq!(status, 200, "{response:?}");
    match response {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "runtime_seconds")
                .collect(),
        ),
        other => panic!("metrics not an object: {other:?}"),
    }
}

#[test]
fn sessions_survive_an_abrupt_stop_with_identical_state() {
    let dir = temp_dir("abrupt");
    let (ids, before): (Vec<u64>, Vec<Value>) = {
        let service = open_service(&dir);
        let opened = generations(&service);
        let mut ids = Vec::new();
        for (strategy, seed) in [("FP", 1), ("RR", 2), ("MU", 3), ("FP-MU", 4), ("FC", 5)] {
            ids.push(register(&service, strategy, 40, seed));
        }
        for &id in &ids {
            // Mixed history: reported leases, tagged reports, and one batch
            // left pending so recovery has ghosts to restore.
            let tasks = lease(&service, id, 6);
            report_replay(&service, id, &tasks);
            let tasks = lease(&service, id, 5);
            let completions: Vec<String> = tasks
                .iter()
                .map(|t| format!(r#"{{"task_id":{t},"tags":["x","y-{t}"]}}"#))
                .collect();
            let (status, _) = call(
                &service,
                "POST",
                &format!("/scenarios/{id}/report"),
                &format!(r#"{{"completions":[{}]}}"#, completions.join(",")),
            );
            assert_eq!(status, 200);
            compact_tick(&service);
            lease(&service, id, 4); // left pending
        }
        assert_ne!(generations(&service), opened, "no shard rotated");
        let before = ids
            .iter()
            .map(|&id| comparable_metrics(&service, id))
            .collect();
        (ids, before)
        // The service (and its store) drops here without any shutdown call —
        // the closest a unit test gets to a kill.
    };

    let service = open_service(&dir);
    assert_eq!(service.session_count(), ids.len());
    for (&id, before) in ids.iter().zip(&before) {
        assert_eq!(
            comparable_metrics(&service, id),
            *before,
            "session {id} diverged across restart"
        );
        assert_eq!(pending_tasks(&service, id).len(), 4);
    }

    // The id sequence continues: no recycled ids after recovery.
    let next = register(&service, "FP", 10, 9);
    assert_eq!(next, *ids.iter().max().unwrap() + 1);

    // And recovered sessions keep working: drain one to budget exhaustion.
    let id = ids[0];
    loop {
        let tasks = lease(&service, id, 8);
        let pending = pending_tasks(&service, id);
        report_replay(&service, id, &pending);
        if tasks.is_empty() {
            break;
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_survives_a_second_restart_after_new_traffic() {
    // Restart, write more (exercising post-recovery WAL segments and
    // compaction), restart again.
    let dir = temp_dir("tworestarts");
    let id = {
        let service = open_service(&dir);
        let id = register(&service, "FP-MU", 30, 7);
        let tasks = lease(&service, id, 7);
        report_replay(&service, id, &tasks);
        id
    };
    let before = {
        let service = open_service(&dir);
        let tasks = lease(&service, id, 9);
        report_replay(&service, id, &tasks);
        comparable_metrics(&service, id)
    };
    let service = open_service(&dir);
    assert_eq!(comparable_metrics(&service, id), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_torn_wal_tail_is_truncated_not_fatal() {
    let dir = temp_dir("torn");
    let id = {
        let service = open_service(&dir);
        let id = register(&service, "RR", 20, 3);
        let tasks = lease(&service, id, 5);
        report_replay(&service, id, &tasks);
        id
    };
    // Tear the tail of every shard WAL by a few bytes; only one shard holds
    // the session, the others are empty (magic only, torn to a bad header).
    let mut torn = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let shard_dir = entry.unwrap().path();
        for file in std::fs::read_dir(&shard_dir).unwrap() {
            let path = file.unwrap().path();
            if path.extension().is_some_and(|e| e == "log") {
                let len = std::fs::metadata(&path).unwrap().len();
                if len > 8 {
                    std::fs::OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .unwrap()
                        .set_len(len - 3)
                        .unwrap();
                    torn += 1;
                }
            }
        }
    }
    assert!(torn >= 1, "expected at least one non-empty WAL");

    // The session survives; the torn final record (the report) is discarded,
    // so its five tasks are pending again — exactly the ghost-lease shape.
    let service = open_service(&dir);
    assert_eq!(service.session_count(), 1);
    assert_eq!(pending_tasks(&service, id).len(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Kill-point sweep: background compaction proceeds seal → publish → retire,
// and a kill (SIGKILL, power loss) can land between any two steps. Each case
// below reconstructs one such on-disk state exactly — the same bytes a kill
// at that point leaves behind — and asserts the service recovers bit-exact
// session state from it. The CI crash-recovery job delivers real SIGKILLs
// under load; this sweep pins each window deterministically.
// ---------------------------------------------------------------------------

fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

fn shard_dirs(dir: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// Highest WAL generation present in one shard directory.
fn max_wal_gen(shard: &Path) -> u64 {
    std::fs::read_dir(shard)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().ok()?;
            let gen = name.strip_prefix("wal-")?.strip_suffix(".log")?;
            gen.parse::<u64>().ok()
        })
        .max()
        .expect("shard dir has at least one WAL")
}

fn wal_file(shard: &Path, gen: u64) -> PathBuf {
    shard.join(format!("wal-{gen:010}.log"))
}

fn snap_file(shard: &Path, gen: u64) -> PathBuf {
    shard.join(format!("snap-{gen:010}.snap"))
}

/// Builds a mixed-history base state under `dir`, returning the session ids
/// and their reference metrics. The directory is left as an abrupt stop
/// leaves it: no clean-shutdown marker, pending leases in the WAL tail.
fn build_base_state(dir: &Path) -> (Vec<u64>, Vec<Value>) {
    let service = open_service(dir);
    let opened = generations(&service);
    let mut ids = Vec::new();
    for (strategy, seed) in [("FP", 11), ("RR", 12), ("MU", 13), ("FP-MU", 14)] {
        ids.push(register(&service, strategy, 60, seed));
    }
    for &id in &ids {
        let tasks = lease(&service, id, 6);
        report_replay(&service, id, &tasks);
        // Later events land in the next generation's WAL, which the split
        // kill point below needs.
        compact_tick(&service);
        let tasks = lease(&service, id, 2);
        report_replay(&service, id, &tasks);
        lease(&service, id, 3); // left pending: recovery restores ghosts
    }
    assert_ne!(generations(&service), opened, "no shard rotated");
    let before = ids
        .iter()
        .map(|&id| comparable_metrics(&service, id))
        .collect();
    (ids, before)
}

/// Reopens a service over `dir` and asserts every session recovered with
/// metrics identical to the reference.
fn assert_recovers_bit_exact(dir: &Path, ids: &[u64], before: &[Value], case: &str) {
    let service = open_service(dir);
    assert_eq!(service.session_count(), ids.len(), "{case}: session count");
    for (&id, want) in ids.iter().zip(before) {
        assert_eq!(
            comparable_metrics(&service, id),
            *want,
            "{case}: session {id} diverged"
        );
    }
}

/// Kill point 1 — after the compactor sealed a generation (created the
/// next-generation WAL, still empty) but before the snapshot was cut. The
/// chain replay must traverse both generations.
#[test]
fn kill_after_seal_before_snapshot_recovers_bit_exactly() {
    let dir = temp_dir("kp-seal");
    let (ids, before) = build_base_state(&dir);
    for shard in shard_dirs(&dir) {
        let gen = max_wal_gen(&shard);
        std::fs::write(
            wal_file(&shard, gen + 1),
            tagging_persist::record::WAL_MAGIC,
        )
        .unwrap();
    }
    assert_recovers_bit_exact(&dir, &ids, &before, "seal-only");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill point 2 — the appender moved on to the next generation and wrote
/// records there while the compactor was still publishing the snapshot: the
/// live event stream is split across two WAL files. Recovery must replay
/// both, in order, as one journal.
#[test]
fn kill_with_events_split_across_wal_generations_recovers_bit_exactly() {
    use tagging_persist::record::{frame, scan, WAL_MAGIC};

    let dir = temp_dir("kp-split");
    let (ids, before) = build_base_state(&dir);
    let mut split = 0;
    for shard in shard_dirs(&dir) {
        let gen = max_wal_gen(&shard);
        let bytes = std::fs::read(wal_file(&shard, gen)).unwrap();
        let segment = scan(&bytes, WAL_MAGIC);
        assert!(segment.is_clean(), "base WAL must be clean");
        if segment.records.len() < 2 {
            continue;
        }
        let cut = segment.records.len() / 2;
        let mut head = WAL_MAGIC.to_vec();
        for record in &segment.records[..cut] {
            head.extend_from_slice(&frame(record));
        }
        let mut tail = WAL_MAGIC.to_vec();
        for record in &segment.records[cut..] {
            tail.extend_from_slice(&frame(record));
        }
        std::fs::write(wal_file(&shard, gen), head).unwrap();
        std::fs::write(wal_file(&shard, gen + 1), tail).unwrap();
        split += 1;
    }
    assert!(split >= 1, "expected at least one WAL with two records");
    assert_recovers_bit_exact(&dir, &ids, &before, "split-wal");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill point 3 — the snapshot of the next generation is published but the
/// stale previous-generation files were not yet deleted. Recovery must pick
/// the newest snapshot and ignore the leftovers.
#[test]
fn kill_before_stale_removal_recovers_bit_exactly() {
    let dir = temp_dir("kp-stale");
    let (ids, before) = build_base_state(&dir);

    // Advance every shard one generation the way the compactor does (the
    // forced compaction also retires stale files), then resurrect the old
    // generation's files next to the new ones.
    let backup = temp_dir("kp-stale-backup");
    copy_tree(&dir, &backup);
    {
        let (store, _) = PersistStore::open(&store_options(&dir)).expect("open store");
        store.compact().expect("forced compaction");
    }
    for (old, new) in shard_dirs(&backup).iter().zip(shard_dirs(&dir).iter()) {
        for entry in std::fs::read_dir(old).unwrap() {
            let entry = entry.unwrap();
            let to = new.join(entry.file_name());
            if !to.exists() {
                std::fs::copy(entry.path(), &to).unwrap();
            }
        }
    }
    assert_recovers_bit_exact(&dir, &ids, &before, "stale-left-behind");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&backup).unwrap();
}

/// Kill point 4 — the next generation's snapshot is torn (a power loss ate
/// its tail before the bytes hit the device). Recovery must reject it and
/// fall back one generation, replaying the previous snapshot plus the full
/// WAL chain.
#[test]
fn a_torn_snapshot_falls_back_a_generation_bit_exactly() {
    let dir = temp_dir("kp-torn-snap");
    let (ids, before) = build_base_state(&dir);

    let backup = temp_dir("kp-torn-snap-backup");
    copy_tree(&dir, &backup);
    {
        let (store, _) = PersistStore::open(&store_options(&dir)).expect("open store");
        store.compact().expect("forced compaction");
    }
    for (old, new) in shard_dirs(&backup).iter().zip(shard_dirs(&dir).iter()) {
        for entry in std::fs::read_dir(old).unwrap() {
            let entry = entry.unwrap();
            let to = new.join(entry.file_name());
            if !to.exists() {
                std::fs::copy(entry.path(), &to).unwrap();
            }
        }
        // Tear the freshly published snapshot: recovery must fall back to
        // the resurrected previous generation.
        let snap = snap_file(new, max_wal_gen(new));
        let len = std::fs::metadata(&snap).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&snap)
            .unwrap()
            .set_len(len.saturating_sub(3))
            .unwrap();
    }
    assert_recovers_bit_exact(&dir, &ids, &before, "torn-snapshot");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&backup).unwrap();
}

#[test]
fn durable_flag_reflects_configuration() {
    let dir = temp_dir("flag");
    let service = open_service(&dir);
    assert!(service.durable());
    assert!(!TaggingService::with_shards(Runtime::new(1), SHARDS).durable());
    std::fs::remove_dir_all(&dir).unwrap();
}

//! Background-maintenance behaviour of the store: the append path never
//! compacts in background mode (the acceptance pin for the appender /
//! compactor split), group-commit acknowledgements stay live without a
//! flusher tenant, and shutdown drains the compaction backlog.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tagging_persist::{CorpusOrigin, PersistOptions, PersistStore, Registration, WalEvent};
use tagging_runtime::FlushPolicy;
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

/// Background-maintenance options: one shard, a tiny snapshot cadence, the
/// compactor nominally on a 25 ms period (the tests call `compact_tick`
/// directly instead of spawning the tenant).
fn background_options(dir: &Path, flush: FlushPolicy) -> PersistOptions {
    PersistOptions {
        data_dir: dir.to_path_buf(),
        shards: 1,
        snapshot_every: 4,
        flush,
        flush_interval_ms: 5,
        compact_interval_ms: 25,
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tagging-persist-mt-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The files in `data_dir/shard-000`, as sorted names.
fn shard_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir.join("shard-000"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// `append` is bounded to the frame write — it never cuts a snapshot or rotates the
/// segment, no matter how far past the cadence the shard runs. Only a
/// compactor tick (what the `wal-compactor` tenant executes) advances the
/// generation.
#[test]
fn append_never_compacts_in_background_mode() {
    let dir = temp_dir("bounded");
    let options = background_options(&dir, FlushPolicy::Never);
    let (store, _) = PersistStore::open(&options).unwrap();

    store
        .append(
            0,
            &WalEvent::Register {
                session: 1,
                registration: registration(1),
            },
        )
        .unwrap();
    // 5x the snapshot cadence.
    for _ in 0..20 {
        store
            .append(
                0,
                &WalEvent::Session {
                    session: 1,
                    event: SessionEvent::Lease { k: 1 },
                },
            )
            .unwrap();
    }

    let status = store.maintenance_status();
    assert_eq!(status.compactions, 0, "append compacted: {status:?}");
    assert_eq!(status.shard_generations, vec![1], "append rotated");
    assert!(status.backlog_events >= 21, "{status:?}");
    assert_eq!(status.backlog_shards, 1);
    assert_eq!(
        shard_files(&dir),
        vec![
            "snap-0000000001.snap".to_string(),
            "wal-0000000001.log".to_string()
        ],
        "append must not create new generations"
    );

    // One compactor tick does what the tenant would: one compaction,
    // generation advanced, backlog drained, stale files gone.
    assert_eq!(store.compact_tick(), 1);
    let status = store.maintenance_status();
    assert_eq!(status.compactions, 1);
    assert_eq!(status.shard_generations, vec![2]);
    assert_eq!(status.backlog_events, 0);
    assert_eq!(
        shard_files(&dir),
        vec![
            "snap-0000000002.snap".to_string(),
            "wal-0000000002.log".to_string()
        ]
    );

    // Nothing was lost across the background compaction.
    drop(store);
    let (_, recovered) = PersistStore::open(&options).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    assert_eq!(recovered.sessions[0].1.events.len(), 20);
    fs::remove_dir_all(&dir).unwrap();
}

/// Group-commit acknowledgements must not hang when no flusher tenant runs:
/// the waiter's deadline fallback syncs the file itself.
#[test]
fn group_commit_self_syncs_without_a_flusher() {
    let dir = temp_dir("selfsync");
    let options = background_options(&dir, FlushPolicy::Group);
    let (store, _) = PersistStore::open(&options).unwrap();
    store
        .append(
            0,
            &WalEvent::Register {
                session: 9,
                registration: registration(9),
            },
        )
        .unwrap();
    store
        .append(
            0,
            &WalEvent::Session {
                session: 9,
                event: SessionEvent::Lease { k: 3 },
            },
        )
        .unwrap();
    drop(store);
    let (_, recovered) = PersistStore::open(&options).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    assert_eq!(
        recovered.sessions[0].1.events,
        vec![SessionEvent::Lease { k: 3 }]
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// A flusher thread ticking [`PersistStore::flush_tick`] (what the
/// `wal-flusher` tenant runs) releases concurrent group-commit appends from
/// several threads, and every acknowledged append survives reopen.
#[test]
fn group_commit_releases_concurrent_appenders() {
    let dir = temp_dir("cohort");
    let options = background_options(&dir, FlushPolicy::Group);
    let (store, _) = PersistStore::open(&options).unwrap();
    let store = Arc::new(store);
    store
        .append(
            0,
            &WalEvent::Register {
                session: 1,
                registration: registration(1),
            },
        )
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let flusher = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                store.flush_tick();
                std::thread::yield_now();
            }
        })
    };

    let appenders: Vec<_> = (0..4)
        .map(|_| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..25 {
                    store
                        .append(
                            0,
                            &WalEvent::Session {
                                session: 1,
                                event: SessionEvent::Lease { k: 1 },
                            },
                        )
                        .unwrap();
                }
            })
        })
        .collect();
    for appender in appenders {
        appender.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    flusher.join().unwrap();

    drop(store);
    let (_, recovered) = PersistStore::open(&options).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    assert_eq!(recovered.sessions[0].1.events.len(), 100);
    fs::remove_dir_all(&dir).unwrap();
}

/// `shutdown` drains the compaction backlog (the final compact runs on the
/// caller's thread) before writing the clean markers.
#[test]
fn shutdown_drains_the_backlog_then_marks_clean() {
    let dir = temp_dir("drain");
    let options = background_options(&dir, FlushPolicy::Never);
    let (store, _) = PersistStore::open(&options).unwrap();
    store
        .append(
            0,
            &WalEvent::Register {
                session: 5,
                registration: registration(5),
            },
        )
        .unwrap();
    for _ in 0..7 {
        store
            .append(
                0,
                &WalEvent::Session {
                    session: 5,
                    event: SessionEvent::Lease { k: 2 },
                },
            )
            .unwrap();
    }
    assert!(store.maintenance_status().backlog_events > 0);
    store.shutdown().unwrap();
    let status = store.maintenance_status();
    assert_eq!(status.backlog_events, 0, "{status:?}");
    assert_eq!(status.compactions, 1);

    drop(store);
    let (_, recovered) = PersistStore::open(&options).unwrap();
    assert!(recovered.clean_shutdown);
    assert_eq!(recovered.sessions[0].1.events.len(), 7);
    fs::remove_dir_all(&dir).unwrap();
}

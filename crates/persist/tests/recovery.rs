//! Property and crash-shape tests for the durable store: WAL record codecs
//! must round-trip arbitrary events, and recovery must survive every way a
//! segment can be damaged at the tail — truncation mid-record, a corrupted
//! checksum, a zero-length file — by keeping the valid prefix and never
//! panicking or losing acknowledged earlier records.

use proptest::prelude::*;
use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use tagging_persist::record::{frame, scan, WAL_MAGIC};
use tagging_persist::{
    snapshot, CorpusOrigin, PersistOptions, PersistStore, Registration, SessionState, WalEvent,
};
use tagging_runtime::FlushPolicy;
use tagging_sim::session::{CompletionReport, SessionEvent};

/// SplitMix64 — derives the unbounded variety of event payloads from one
/// proptest-chosen seed, so the generator needs nothing beyond integer
/// strategies.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn registration_from(seed: u64) -> Registration {
    let source = if mix(seed ^ 1).is_multiple_of(2) {
        CorpusOrigin::Generate {
            resources: mix(seed ^ 2) % 1000,
            seed: mix(seed ^ 3),
        }
    } else {
        CorpusOrigin::Path(format!("corpora/{}.json", mix(seed ^ 4) % 97))
    };
    Registration {
        strategy: ["FP", "RR", "MU", "FP-MU", "FC"][(mix(seed ^ 5) % 5) as usize].to_string(),
        budget: mix(seed ^ 6) % 1_000_000,
        omega: mix(seed ^ 7) % 50,
        seed: mix(seed ^ 8),
        source,
        stability_window: mix(seed ^ 9) % 100,
        stability_tau: (mix(seed ^ 10) % 1000) as f64 / 1000.0,
        under_tagged_threshold: mix(seed ^ 11) % 100,
    }
}

fn event_from(kind: u8, session: u64, seed: u64) -> WalEvent {
    match kind % 4 {
        0 => WalEvent::Register {
            session,
            registration: registration_from(seed),
        },
        1 => WalEvent::Session {
            session,
            event: SessionEvent::Lease {
                k: (mix(seed) % 10_000) as usize,
            },
        },
        2 => {
            let count = mix(seed ^ 12) % 6;
            let reports = (0..count)
                .map(|i| {
                    let r = mix(seed ^ (100 + i));
                    CompletionReport {
                        task_id: r % 1_000_000,
                        tags: match r % 3 {
                            0 => None,
                            1 => Some(vec![]),
                            _ => Some(
                                (0..(r % 4 + 1))
                                    .map(|t| format!("tag-{}", mix(r ^ t) % 50))
                                    .collect(),
                            ),
                        },
                    }
                })
                .collect();
            WalEvent::Session {
                session,
                event: SessionEvent::Report { reports },
            }
        }
        _ => WalEvent::CleanShutdown,
    }
}

fn segment_of(events: &[WalEvent]) -> Vec<u8> {
    let mut bytes = WAL_MAGIC.to_vec();
    for event in events {
        bytes.extend_from_slice(&frame(&event.encode()));
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn wal_events_round_trip_through_the_codec(
        specs in proptest::collection::vec((0u8..4, 0u64..64, 0u64..u64::MAX), 0..20)
    ) {
        for (kind, session, seed) in specs {
            let event = event_from(kind, session, seed);
            let decoded = WalEvent::decode(&event.encode());
            prop_assert_eq!(decoded.as_ref(), Ok(&event));
        }
    }

    #[test]
    fn truncated_segments_recover_the_valid_prefix(
        specs in proptest::collection::vec((0u8..4, 0u64..64, 0u64..u64::MAX), 1..12),
        cut_seed in 0u64..u64::MAX,
    ) {
        let events: Vec<WalEvent> = specs
            .into_iter()
            .map(|(kind, session, seed)| event_from(kind, session, seed))
            .collect();
        let bytes = segment_of(&events);
        let cut = (mix(cut_seed) % bytes.len() as u64) as usize;

        let segment = scan(&bytes[..cut], WAL_MAGIC);
        // Valid records are a prefix of the originals, decodable, and the
        // valid length never exceeds the cut.
        prop_assert!(segment.valid_len <= cut as u64);
        prop_assert!(segment.records.len() <= events.len());
        for (record, original) in segment.records.iter().zip(&events) {
            prop_assert_eq!(&WalEvent::decode(record).unwrap(), original);
        }
        // A cut strictly inside the byte stream is torn unless it landed
        // exactly on a record boundary.
        let full = scan(&bytes, WAL_MAGIC);
        prop_assert!(full.is_clean());
        prop_assert_eq!(full.records.len(), events.len());
    }

    #[test]
    fn corrupted_bytes_never_panic_and_keep_a_decodable_prefix(
        specs in proptest::collection::vec((0u8..4, 0u64..64, 0u64..u64::MAX), 1..10),
        position_seed in 0u64..u64::MAX,
        flip in 1u8..=255,
    ) {
        let events: Vec<WalEvent> = specs
            .into_iter()
            .map(|(kind, session, seed)| event_from(kind, session, seed))
            .collect();
        let mut bytes = segment_of(&events);
        let position = (mix(position_seed) % bytes.len() as u64) as usize;
        bytes[position] ^= flip;

        let segment = scan(&bytes, WAL_MAGIC);
        // However the flip lands, the scan terminates, reports at most the
        // original records, and every surviving record decodes to one of the
        // originals in order (a flip can only invalidate a suffix).
        prop_assert!(segment.records.len() <= events.len());
        let corrupt_record = bytes_to_record_index(&events, position);
        for (i, record) in segment.records.iter().enumerate() {
            if Some(i) == corrupt_record {
                // The CRC of the corrupted record matched only if the flip
                // hit dead framing bytes — impossible: every byte of a frame
                // participates (length, crc, payload all checked).
                prop_assert!(false, "corrupted record {i} survived the scan");
            }
            prop_assert_eq!(&WalEvent::decode(record).unwrap(), &events[i]);
        }
    }
}

/// Which record's frame does byte `position` fall into? `None` for the magic.
fn bytes_to_record_index(events: &[WalEvent], position: usize) -> Option<usize> {
    let mut offset = WAL_MAGIC.len();
    for (i, event) in events.iter().enumerate() {
        let frame_len = 8 + event.encode().len();
        if position < offset + frame_len {
            return (position >= offset).then_some(i);
        }
        offset += frame_len;
    }
    None
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tagging-persist-it-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn store_options(dir: &Path) -> PersistOptions {
    PersistOptions {
        data_dir: dir.to_path_buf(),
        shards: 1,
        snapshot_every: 1_000,
        flush: FlushPolicy::Never,
        flush_interval_ms: 5,
        compact_interval_ms: 25,
    }
}

fn sample_registration() -> Registration {
    Registration {
        strategy: "RR".into(),
        budget: 40,
        omega: 5,
        seed: 3,
        source: CorpusOrigin::Generate {
            resources: 8,
            seed: 3,
        },
        stability_window: 15,
        stability_tau: 0.999,
        under_tagged_threshold: 10,
    }
}

/// The single shard's active WAL file (the store keeps exactly one).
fn active_wal(dir: &Path) -> PathBuf {
    let shard = dir.join("shard-000");
    let mut wals: Vec<PathBuf> = fs::read_dir(&shard)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    assert_eq!(wals.len(), 1, "expected one active WAL in {shard:?}");
    wals.pop().unwrap()
}

fn seed_store(dir: &Path, leases: usize) {
    let (store, _) = PersistStore::open(&store_options(dir)).unwrap();
    store
        .append(
            0,
            &WalEvent::Register {
                session: 1,
                registration: sample_registration(),
            },
        )
        .unwrap();
    for _ in 0..leases {
        store
            .append(
                0,
                &WalEvent::Session {
                    session: 1,
                    event: SessionEvent::Lease { k: 2 },
                },
            )
            .unwrap();
    }
}

#[test]
fn a_torn_final_record_is_truncated_not_fatal() {
    let dir = temp_dir("torn");
    seed_store(&dir, 3);
    // Tear the last record: chop off its final two bytes.
    let wal = active_wal(&dir);
    let len = fs::metadata(&wal).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 2)
        .unwrap();

    let (_, recovered) = PersistStore::open(&store_options(&dir)).unwrap();
    assert!(!recovered.clean_shutdown);
    assert_eq!(recovered.sessions.len(), 1);
    // Two of the three leases survive; the torn third is discarded.
    assert_eq!(
        recovered.sessions[0].1.events,
        vec![SessionEvent::Lease { k: 2 }, SessionEvent::Lease { k: 2 }]
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_zero_length_wal_segment_recovers_as_empty() {
    let dir = temp_dir("zero");
    seed_store(&dir, 1);
    // Truncate the active WAL to zero bytes — not even the magic survives.
    // The only snapshot is the empty one written when the store was first
    // opened, so recovery must succeed with no sessions and no error.
    OpenOptions::new()
        .write(true)
        .open(active_wal(&dir))
        .unwrap()
        .set_len(0)
        .unwrap();

    let (_, recovered) = PersistStore::open(&store_options(&dir)).unwrap();
    assert!(recovered.sessions.is_empty());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_snapshot_anchors_recovery_when_the_wal_is_lost() {
    let dir = temp_dir("anchor");
    {
        let (store, _) = PersistStore::open(&store_options(&dir)).unwrap();
        store
            .append(
                0,
                &WalEvent::Register {
                    session: 1,
                    registration: sample_registration(),
                },
            )
            .unwrap();
        store
            .append(
                0,
                &WalEvent::Session {
                    session: 1,
                    event: SessionEvent::Lease { k: 2 },
                },
            )
            .unwrap();
        // Compact: the snapshot now holds the session; the WAL is empty.
        let before = store.maintenance_status().shard_generations[0];
        store.compact().unwrap();
        assert_eq!(store.maintenance_status().shard_generations[0], before + 1);
        // One post-compaction event, then die without shutdown.
        store
            .append(
                0,
                &WalEvent::Session {
                    session: 1,
                    event: SessionEvent::Lease { k: 3 },
                },
            )
            .unwrap();
    }
    // Zero out the active WAL: the post-compaction event is lost, but the
    // snapshotted state must survive.
    OpenOptions::new()
        .write(true)
        .open(active_wal(&dir))
        .unwrap()
        .set_len(0)
        .unwrap();

    let (_, recovered) = PersistStore::open(&store_options(&dir)).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    assert_eq!(
        recovered.sessions[0].1.events,
        vec![SessionEvent::Lease { k: 2 }]
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupted_snapshot_falls_back_to_an_older_generation() {
    let dir = temp_dir("snapfall");
    seed_store(&dir, 2);
    let shard = dir.join("shard-000");

    // Forge a newer-generation snapshot that is invalid. Recovery must skip
    // it and use the older valid generation (snapshot + its WAL events).
    fs::write(shard.join("snap-9999999999.snap"), b"TAGSNP01garbage").unwrap();
    let (_, recovered) = PersistStore::open(&store_options(&dir)).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    assert_eq!(recovered.sessions[0].1.events.len(), 2);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn leftover_tmp_files_are_ignored_and_cleaned() {
    let dir = temp_dir("tmpclean");
    seed_store(&dir, 1);
    let shard = dir.join("shard-000");
    fs::write(shard.join("snap-0000000042.tmp"), b"half-written").unwrap();

    let (_, recovered) = PersistStore::open(&store_options(&dir)).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    let leftovers: Vec<String> = fs::read_dir(&shard)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "tmp debris survived: {leftovers:?}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_files_reject_every_truncation() {
    // Snapshot validation is all-or-nothing: unlike WALs, a torn snapshot is
    // invalid at any cut point.
    let sessions = HashMap::from([(
        5u64,
        SessionState {
            registration: sample_registration(),
            events: vec![SessionEvent::Lease { k: 1 }],
        },
    )]);
    let bytes = snapshot::encode(&sessions);
    assert_eq!(snapshot::decode(&bytes), Some(sessions));
    for cut in 0..bytes.len() {
        assert!(snapshot::decode(&bytes[..cut]).is_none(), "cut {cut}");
    }
}

//! Durability end-to-end at the store layer: log → recover round-trips,
//! checkpoint compaction, torn-tail repair, and the LSN skip rule that
//! keeps checkpoints and log replay from double-counting.
//!
//! The store is deterministic for a single-threaded op sequence (key
//! seeds derive from the config seed), so most assertions here are exact
//! — byte-identical snapshot frames, exact stream lengths — not "close
//! enough" bounds.

use qc_common::summary::Summary;
use qc_store::persist::{parse_segment, RecordError};
use qc_store::{FsyncPolicy, SketchStore, StoreConfig};
use qc_workloads::tempdir::TempDir;

fn cfg(dir: &TempDir) -> StoreConfig {
    StoreConfig::default().stripes(4).k(64).b(4).seed(7).data_dir(dir.path())
}

/// Newest log segment in a data dir (the active one).
fn active_segment(dir: &TempDir) -> std::path::PathBuf {
    let mut segments: Vec<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("wal-") && n.ends_with(".log"))
        .collect();
    segments.sort();
    dir.path().join(segments.last().expect("an active segment exists"))
}

#[test]
fn fresh_dir_recovers_to_an_empty_store() {
    let dir = TempDir::new("persist-fresh");
    let (store, report) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    assert!(store.is_empty());
    assert_eq!(report.records_applied, 0);
    assert_eq!(report.checkpoint_seq, None);
    assert!(report.corruption.is_none());
    assert_eq!(store.data_dir(), Some(dir.path()));
}

#[test]
fn logged_operations_replay_byte_identically() {
    let dir = TempDir::new("persist-replay");
    let (store, _) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    for i in 0..500 {
        store.update("lat", i as f64);
    }
    let batch: Vec<f64> = (0..200).map(|i| (i * 3) as f64).collect();
    store.update_many("size", &batch);
    // An ingest into a third key, round-tripping through the wire format.
    let frame = store.snapshot_bytes("lat").unwrap();
    store.ingest_bytes("lat-replica", &frame).unwrap();
    // And a remove, which must replay as a remove.
    store.update("doomed", 1.0);
    assert!(store.remove("doomed"));

    let before: Vec<(String, Vec<u8>)> = {
        let mut keys = store.keys();
        keys.sort();
        keys.iter().map(|k| (k.clone(), store.snapshot_bytes(k).unwrap())).collect()
    };
    drop(store);

    let (recovered, report) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    assert!(report.corruption.is_none(), "clean shutdown must recover cleanly: {report:?}");
    assert!(report.records_applied > 0);
    let mut keys = recovered.keys();
    keys.sort();
    assert_eq!(
        keys,
        before.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        "recovered key set"
    );
    for (key, frame) in &before {
        assert_eq!(
            recovered.snapshot_bytes(key).as_ref(),
            Some(frame),
            "summary for {key} must recover byte-identically"
        );
    }
    assert_eq!(recovered.stats().stream_len, 500 + 200 + 500);
}

#[test]
fn checkpoint_compacts_and_recovery_does_not_double_count() {
    let dir = TempDir::new("persist-ckpt");
    let (store, _) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    for i in 0..300 {
        store.update("a", i as f64);
        store.update("b", (i * 2) as f64);
    }
    let stats = store.checkpoint().unwrap().expect("dirty log must checkpoint");
    assert_eq!(stats.keys, 2);
    assert!(stats.segments_pruned >= 1, "the sealed segment must be pruned");
    // Writes after the checkpoint land in the new segment and replay on
    // top of the checkpointed summaries.
    for i in 0..50 {
        store.update("a", (1000 + i) as f64);
    }
    let total_before = store.stats().stream_len;
    assert_eq!(total_before, 650);
    drop(store);

    let (recovered, report) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    assert_eq!(report.checkpoint_keys, 2);
    assert!(report.corruption.is_none());
    assert_eq!(
        recovered.stats().stream_len,
        total_before,
        "checkpoint + tail replay must conserve weight exactly (no double count)"
    );
    // A second recovery from the same (now re-logged) directory is stable.
    drop(recovered);
    let (again, _) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    assert_eq!(again.stats().stream_len, total_before);
}

#[test]
fn checkpoint_skips_idle_stores() {
    let dir = TempDir::new("persist-idle");
    let (store, _) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    assert!(store.checkpoint().unwrap().is_none(), "no appends → nothing to checkpoint");
    store.update("k", 1.0);
    assert!(store.checkpoint().unwrap().is_some());
    assert!(store.checkpoint().unwrap().is_none(), "no appends since the last pass");
}

#[test]
fn in_memory_store_has_no_persistence() {
    let store = SketchStore::new(StoreConfig::default().k(64).b(4));
    store.update("k", 1.0);
    assert_eq!(store.data_dir(), None);
    assert!(store.checkpoint().unwrap().is_none());
}

#[test]
fn torn_tail_is_reported_truncated_and_conserved() {
    let dir = TempDir::new("persist-torn");
    let (store, _) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    // Five one-element batches → five records with known boundaries.
    for i in 0..5 {
        store.update("k", i as f64);
    }
    drop(store);

    // Tear the last frame: cut one byte off its CRC trailer.
    let path = active_segment(&dir);
    let bytes = std::fs::read(&path).unwrap();
    let scan = parse_segment(&bytes);
    assert_eq!(scan.records.len(), 5);
    assert!(scan.error.is_none());
    let cut = scan.records[4].end - 1;
    std::fs::write(&path, &bytes[..cut]).unwrap();

    let (recovered, report) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    let corruption = report.corruption.expect("torn tail must be reported");
    assert!(
        matches!(corruption.error, RecordError::Torn { .. }),
        "typed torn-frame error, got {:?}",
        corruption.error
    );
    assert_eq!(corruption.offset, scan.records[4].start as u64);
    assert_eq!(report.records_applied, 4, "the clean prefix replays");
    assert_eq!(recovered.stats().stream_len, 4);
    // The tail was physically truncated: segment ends exactly at the cut.
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        scan.records[4].start as u64,
        "torn frame must be truncated away"
    );
    drop(recovered);

    // The next recovery sees a clean log (plus whatever the repaired
    // store logged — nothing here) and the same weight.
    let (again, report) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    assert!(report.corruption.is_none(), "repair must be durable: {report:?}");
    assert_eq!(again.stats().stream_len, 4);
}

#[test]
fn bitflip_in_the_log_stops_replay_with_a_checksum_error() {
    let dir = TempDir::new("persist-flip");
    let (store, _) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    for i in 0..5 {
        store.update("k", i as f64);
    }
    drop(store);

    let path = active_segment(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let scan = parse_segment(&bytes);
    // Flip one bit inside the third record's body.
    let target = scan.records[2].start + 6;
    bytes[target] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let (recovered, report) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    let corruption = report.corruption.expect("corrupt frame must be reported");
    assert!(
        matches!(corruption.error, RecordError::Codec(_)),
        "typed corruption, got {:?}",
        corruption.error
    );
    assert_eq!(recovered.stats().stream_len, 2, "records before the flip replay, nothing after");
}

#[test]
fn all_fsync_policies_round_trip_a_clean_shutdown() {
    for policy in [
        FsyncPolicy::PerFrame,
        FsyncPolicy::Interval(std::time::Duration::from_millis(5)),
        FsyncPolicy::Off,
    ] {
        let dir = TempDir::new("persist-policy");
        let (store, _) = SketchStore::<f64>::recover(cfg(&dir).fsync(policy)).unwrap();
        for i in 0..100 {
            store.update("k", i as f64);
        }
        drop(store);
        // Clean shutdown: the bytes are written (if not necessarily
        // fsync'd), so same-machine recovery sees all of them.
        let (recovered, report) = SketchStore::<f64>::recover(cfg(&dir).fsync(policy)).unwrap();
        assert!(report.corruption.is_none());
        assert_eq!(recovered.stats().stream_len, 100, "policy {policy:?}");
    }
}

#[test]
fn remove_then_recreate_replays_in_order() {
    let dir = TempDir::new("persist-remove");
    let (store, _) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    for i in 0..100 {
        store.update("k", i as f64);
    }
    store.remove("k");
    for i in 0..30 {
        store.update("k", (i + 5000) as f64);
    }
    drop(store);
    let (recovered, _) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    assert_eq!(
        recovered.stats().stream_len,
        30,
        "the remove must replay between the two write bursts"
    );
    // Everything the key holds post-recovery comes from the second burst.
    assert!(recovered.query("k", 0.0).unwrap() >= 5000.0);
}

#[test]
fn checkpoint_then_remove_replays_the_remove() {
    let dir = TempDir::new("persist-ckpt-remove");
    let (store, _) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    for i in 0..50 {
        store.update("gone", i as f64);
        store.update("kept", i as f64);
    }
    store.checkpoint().unwrap().expect("checkpoint");
    store.remove("gone");
    drop(store);
    let (recovered, report) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    assert_eq!(report.checkpoint_keys, 2);
    let mut keys = recovered.keys();
    keys.sort();
    assert_eq!(keys, vec!["kept".to_string()], "post-checkpoint remove must replay");
    assert_eq!(recovered.stats().stream_len, 50);
}

#[test]
fn clean_shutdown_syncs_the_buffered_tail_under_every_policy() {
    use std::sync::Arc;
    for policy in [
        FsyncPolicy::Off,
        FsyncPolicy::Interval(std::time::Duration::from_secs(3600)),
        FsyncPolicy::PerFrame,
    ] {
        let dir = TempDir::new("persist-shutdown");
        let registry = Arc::new(qc_telemetry::Registry::new());
        let (store, _) =
            SketchStore::<f64>::recover(cfg(&dir).fsync(policy).telemetry(registry.clone()))
                .unwrap();
        for i in 0..10 {
            store.update("k", i as f64);
        }
        let before = registry.snapshot();
        let lazy = !matches!(policy, FsyncPolicy::PerFrame);
        if lazy {
            // Nothing forced these frames to disk yet — exactly the tail
            // a hard kill would lose, and a clean stop must not.
            assert_eq!(before.counter("wal_fsyncs"), Some(0), "{policy:?}: lazy before stop");
        }
        // Dropping the store is the clean stop: its Drop runs `sync()`.
        drop(store);
        let after = registry.snapshot();
        if lazy {
            assert_eq!(
                after.counter("wal_fsyncs"),
                Some(1),
                "{policy:?}: clean stop must flush the tail in one sync"
            );
            assert_eq!(after.gauge("wal_durable_lsn"), Some(10), "{policy:?}");
        } else {
            assert_eq!(
                after.counter("wal_fsyncs"),
                before.counter("wal_fsyncs"),
                "{policy:?}: PerFrame acks were already durable; shutdown adds nothing"
            );
        }
        let (recovered, report) = SketchStore::<f64>::recover(cfg(&dir).fsync(policy)).unwrap();
        assert!(report.corruption.is_none());
        assert_eq!(
            recovered.stats().stream_len,
            10,
            "clean stop loses zero acked frames ({policy:?})"
        );
    }
}

#[test]
fn explicit_sync_reports_whether_a_physical_sync_ran() {
    let dir = TempDir::new("persist-sync");
    let (store, _) = SketchStore::<f64>::recover(cfg(&dir).fsync(FsyncPolicy::Off)).unwrap();
    assert!(!store.sync(), "empty log: nothing to flush");
    store.update("k", 1.0);
    assert!(store.sync(), "buffered tail must flush");
    assert!(!store.sync(), "already durable");
    let memory = SketchStore::new(StoreConfig::default().k(64).b(4));
    memory.update("k", 1.0);
    assert!(!memory.sync(), "no persistence, nothing to sync");
}

/// The acceptance-criterion regression for the lock split: while a group
/// commit's disk wait is pending (made observable by a long leader
/// hold-off), no stripe lock and no WAL append mutex may be held — a
/// reader on the written key must answer immediately, and a second
/// durable writer must append freely and ride the open group instead of
/// leading its own.
#[test]
fn no_store_lock_is_held_across_the_group_commit_window() {
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    let dir = TempDir::new("persist-lockorder");
    let registry = Arc::new(qc_telemetry::Registry::new());
    let config = cfg(&dir)
        .fsync(FsyncPolicy::PerFrame)
        .group_commit_delay(Duration::from_millis(400))
        .telemetry(registry.clone());
    let (store, _) = SketchStore::<f64>::recover(config).unwrap();
    let store = Arc::new(store);
    // Create the key durably up front (one 400ms group of its own).
    store.update("warm", 0.0);

    let leader = {
        let store = store.clone();
        std::thread::spawn(move || {
            let start = Instant::now();
            store.update("warm", 1.0);
            start.elapsed()
        })
    };
    std::thread::sleep(Duration::from_millis(80));
    // Appends while the leader's hold-off is open ride its group.
    let rider = {
        let store = store.clone();
        std::thread::spawn(move || {
            let start = Instant::now();
            store.update("rider", 2.0);
            start.elapsed()
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    // A read on the same key while the group's sync is pending: if any
    // stripe lock or the append mutex were held across the hold-off +
    // fsync, this would block out the rest of the 400ms window.
    let read_start = Instant::now();
    let answer = store.query("warm", 0.5);
    let read_elapsed = read_start.elapsed();
    assert!(answer.is_some());

    let leader_elapsed = leader.join().unwrap();
    let rider_elapsed = rider.join().unwrap();
    assert!(
        leader_elapsed >= Duration::from_millis(400),
        "the leader holds its election open for the full delay: {leader_elapsed:?}"
    );
    assert!(
        read_elapsed < Duration::from_millis(250),
        "reads must not wait behind a pending group commit: {read_elapsed:?}"
    );
    assert!(
        rider_elapsed < leader_elapsed,
        "the rider (started 80ms later) wakes with the leader's sync: \
         rider {rider_elapsed:?} vs leader {leader_elapsed:?}"
    );

    let snap = registry.snapshot();
    assert_eq!(snap.counter("wal_appends"), Some(3));
    assert_eq!(snap.counter("wal_fsyncs"), Some(2), "setup group + one shared group");
    assert_eq!(snap.counter("wal_group_commits"), Some(2));
    assert_eq!(snap.gauge("wal_durable_lsn"), Some(3), "every append covered");
    let sizes = snap.latency("wal_group_size").expect("group sizes recorded");
    assert_eq!(sizes.stream_len(), 2, "one sample per group commit");
}

#[test]
fn wal_counters_track_appends_and_fsyncs_exactly() {
    let dir = TempDir::new("persist-counters");
    let (store, _) = SketchStore::<f64>::recover(cfg(&dir)).unwrap();
    for i in 0..7 {
        store.update("k", i as f64);
    }
    store.update_many("k", &[1.0, 2.0, 3.0]);
    let snap = store.telemetry().snapshot();
    assert_eq!(snap.counter("wal_appends"), Some(8), "7 singles + 1 batch");
    // PerFrame: every append syncs.
    assert_eq!(snap.counter("wal_fsyncs"), Some(8));
    assert_eq!(snap.counter("wal_errors"), Some(0));
    // wal_bytes is exactly the active segment's size minus its header.
    let on_disk = std::fs::metadata(active_segment(&dir)).unwrap().len();
    assert_eq!(snap.counter("wal_bytes"), Some(on_disk - 8), "frame bytes = file minus header");
}

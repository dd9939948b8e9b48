//! The recovery-equivalence property: for ANY op sequence and ANY crash
//! point, recovering the durable prefix yields a store *byte-identical*
//! to one that simply executed that prefix and never crashed.
//!
//! This is the strongest statement the log can make — not "close", not
//! "same quantiles", but the same summary frames bit for bit. It holds
//! because the store is deterministic for a single-threaded op sequence
//! (per-key sketch seeds derive from the config seed) and every op is
//! exactly one log record, so truncating the log at a frame boundary is
//! the same thing as truncating the op sequence.
//!
//! The op alphabet reaches every durable mutation site of the store —
//! plain, timestamped (active, rolling, late-merged, late-dropped) and
//! leased writes on cold and hot keys, ingests and removes — on both an
//! unwindowed and a windowed store, so this is the suite that sees the
//! whole write pipeline through crash-at-any-byte recovery.

use std::time::Duration;

use proptest::prelude::*;
use qc_common::summary::{WeightedItem, WeightedSummary};
use qc_store::persist::{parse_segment, FILE_HEADER_LEN};
use qc_store::{encode_summary, SketchStore, StoreConfig, WindowConfig, WriterLease};
use qc_workloads::tempdir::TempDir;

const KEYS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Level-0 window width of the windowed configuration.
const WIDTH_MS: u64 = 1000;

#[derive(Clone, Debug)]
enum Op {
    UpdateMany {
        key: usize,
        values: Vec<f64>,
    },
    /// Timestamped write into window `wid_offset`: ahead of, inside, or
    /// behind the key's active window depending on what came before.
    UpdateAt {
        key: usize,
        wid_offset: u64,
        values: Vec<f64>,
    },
    /// Write through a lease held across ops, falling back when none is
    /// on offer or it went stale.
    Leased {
        key: usize,
        values: Vec<f64>,
    },
    Ingest {
        key: usize,
        items: Vec<(u64, u64)>,
    },
    Remove {
        key: usize,
    },
}

/// Batches may be empty: an empty batch must change nothing and log
/// nothing, whichever path it takes.
fn values_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1000i32..1000, 0..12)
        .prop_map(|raw| raw.into_iter().map(f64::from).collect())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = || 0usize..KEYS.len();
    prop_oneof![
        (key(), values_strategy()).prop_map(|(key, values)| Op::UpdateMany { key, values }),
        (key(), 0u64..6, values_strategy()).prop_map(|(key, wid_offset, values)| Op::UpdateAt {
            key,
            wid_offset,
            values
        }),
        (key(), values_strategy()).prop_map(|(key, values)| Op::Leased { key, values }),
        (key(), prop::collection::vec((any::<u64>(), 1u64..8), 0..6))
            .prop_map(|(key, items)| Op::Ingest { key, items }),
        key().prop_map(|key| Op::Remove { key }),
    ]
}

/// A promotion threshold low enough that keys go hot inside a case: the
/// shared-lock leased path and the tier flip are then part of both the
/// live run and the replay.
fn base_cfg() -> StoreConfig {
    StoreConfig::default().stripes(2).k(32).b(4).seed(11).promotion_threshold(8)
}

/// The configuration under test: `base_cfg()`, optionally windowed with
/// a one-window lateness bound (so offsets 0..6 produce rolls, late
/// merges and late drops).
fn cfg(windowed: bool) -> StoreConfig {
    if !windowed {
        return base_cfg();
    }
    base_cfg().window(
        WindowConfig::default()
            .width(Duration::from_millis(WIDTH_MS))
            .lateness(Duration::from_millis(WIDTH_MS))
            .downsample_levels(0),
    )
}

/// A store plus the per-key writer leases a long-lived caller would hold.
struct Driver {
    store: SketchStore<f64>,
    leases: [Option<WriterLease<f64>>; KEYS.len()],
    /// Write calls (`UpdateMany`/`UpdateAt`/`Leased`) with a non-empty batch.
    writes: u64,
}

impl Driver {
    fn new(store: SketchStore<f64>) -> Self {
        Driver { store, leases: [None, None, None], writes: 0 }
    }

    /// Apply `op`; returns whether it appended a log record (an op hits
    /// the log iff it changed something).
    fn apply(&mut self, op: &Op) -> bool {
        let store = &self.store;
        match op {
            Op::UpdateMany { key, values } => {
                store.update_many(KEYS[*key], values);
                self.writes += u64::from(!values.is_empty());
                !values.is_empty()
            }
            Op::UpdateAt { key, wid_offset, values } => {
                let drops = store.stats().window_late_drops;
                store.update_at(KEYS[*key], wid_offset * WIDTH_MS + 7, values);
                self.writes += u64::from(!values.is_empty());
                // A batch beyond the lateness bound is dropped: counted,
                // never written, never logged.
                !values.is_empty() && store.stats().window_late_drops == drops
            }
            Op::Leased { key, values } => {
                let slot = &mut self.leases[*key];
                if slot.is_none() {
                    *slot = store.lease_writer(KEYS[*key]);
                }
                let leased = match slot.as_mut() {
                    Some(lease) => store.update_many_leased(KEYS[*key], lease, values).is_ok(),
                    None => false,
                };
                if !leased {
                    // Cold key, or the lease went stale (removed, rolled):
                    // it holds no weight — drop it and take the plain path.
                    *slot = None;
                    store.update_many(KEYS[*key], values);
                }
                self.writes += u64::from(!values.is_empty());
                !values.is_empty()
            }
            Op::Ingest { key, items } => {
                let summary = WeightedSummary::from_items(
                    items.iter().map(|&(v, w)| WeightedItem { value_bits: v, weight: w }).collect(),
                );
                store.ingest_bytes(KEYS[*key], &encode_summary(&summary)).unwrap();
                true
            }
            Op::Remove { key } => store.remove(KEYS[*key]),
        }
    }
}

/// One key's observable state in wire form: the resident summary frame
/// plus (windowed stores) the window ids and every sealed window's frame.
type KeyState = (String, Vec<u8>, Option<(u64, u64, Vec<(u64, u8, Vec<u8>)>)>);

/// Sorted per-key states — the store's entire observable state.
fn state_of(store: &SketchStore<f64>) -> Vec<KeyState> {
    let mut keys = store.keys();
    keys.sort();
    keys.into_iter()
        .map(|k| {
            let frame = store.snapshot_bytes(&k).unwrap();
            let windows = store.window_snapshot(&k).map(|w| {
                let sealed = w
                    .sealed
                    .iter()
                    .map(|(id, level, s)| (*id, *level, encode_summary(s)))
                    .collect();
                (w.active_id, w.watermark, sealed)
            });
            (k, frame, windows)
        })
        .collect()
}

/// Run `ops` against a fresh durable store in `dir`, check the live
/// store's counter identities, and return the ops that hit the log.
fn run_durable<'a>(dir: &TempDir, windowed: bool, ops: &'a [Op]) -> Vec<&'a Op> {
    let (store, _) = SketchStore::<f64>::recover(cfg(windowed).data_dir(dir.path())).unwrap();
    let mut live = Driver::new(store);
    let recorded: Vec<&Op> = ops.iter().filter(|op| live.apply(op)).collect();
    let stats = live.store.stats();
    assert!(stats.consistency());
    // Every non-empty write call is exactly one shared write, one
    // fallback write, or one late drop — nothing double-counted, nothing
    // lost, on any path.
    assert_eq!(
        stats.shared_writes + stats.fallback_writes + stats.window_late_drops,
        live.writes,
        "{stats:?}"
    );
    recorded
}

/// The reference: never saw a log or a crash, just runs `ops` in memory.
fn run_reference(windowed: bool, ops: &[&Op]) -> SketchStore<f64> {
    let mut reference = Driver::new(SketchStore::<f64>::new(cfg(windowed)));
    for op in ops {
        reference.apply(op);
    }
    reference.store
}

/// The single active segment of `dir` (no checkpoint ran, so the whole
/// history is in it).
fn only_segment(dir: &TempDir) -> std::path::PathBuf {
    let mut logs: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    assert_eq!(logs.len(), 1, "no rotation without checkpoints");
    logs.pop().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash at an arbitrary byte of the log: the recovered store equals
    /// a reference store that executed exactly the durable whole-frame
    /// prefix of the op sequence.
    #[test]
    fn recovery_equals_executing_the_durable_prefix(
        windowed in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 1..32),
        cut_frac in 0.0f64..=1.0,
    ) {
        let dir = TempDir::new("recover-equiv");
        // Replaying the record prefix equals executing this *recorded*
        // op prefix: one op = one record, appended in program order.
        let recorded = run_durable(&dir, windowed, &ops);

        let segment = only_segment(&dir);
        let bytes = std::fs::read(&segment).unwrap();
        let scan = parse_segment(&bytes);
        prop_assert!(scan.error.is_none());
        prop_assert_eq!(scan.records.len(), recorded.len());

        // Crash: everything past `cut` was never written. Whole frames
        // before the cut are the durable prefix.
        let span = bytes.len() - FILE_HEADER_LEN;
        let cut = FILE_HEADER_LEN + (span as f64 * cut_frac) as usize;
        std::fs::write(&segment, &bytes[..cut]).unwrap();
        let survivors = scan.records.iter().filter(|r| r.end <= cut).count();

        let (recovered, report) =
            SketchStore::<f64>::recover(cfg(windowed).data_dir(dir.path())).unwrap();
        prop_assert_eq!(report.records_applied, survivors as u64);
        // Corruption is reported iff the cut left partial-frame bytes
        // behind; a cut landing exactly on a frame boundary is clean.
        let boundary = survivors
            .checked_sub(1)
            .map_or(FILE_HEADER_LEN, |i| scan.records[i].end);
        prop_assert_eq!(report.corruption.is_some(), cut > boundary);

        let reference = run_reference(windowed, &recorded[..survivors]);
        prop_assert_eq!(
            state_of(&recovered),
            state_of(&reference),
            "recovered state must be byte-identical to executing the {survivors}-op prefix"
        );
    }

    /// Group-commit boundary model: a leader fsync covers every append
    /// up to some LSN, so after a crash the durable prefix always ends at
    /// the last record of a completed commit *group*, never inside one.
    /// Partition the recorded ops into arbitrary groups, keep a whole
    /// number of them, and recovery must equal executing exactly the ops
    /// of the completed groups — the uncovered tail vanishes atomically.
    #[test]
    fn recovery_at_a_group_commit_boundary_equals_the_covered_groups(
        windowed in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 1..32),
        group_sizes in prop::collection::vec(1usize..5, 1..16),
        keep_frac in 0.0f64..=1.0,
    ) {
        let dir = TempDir::new("recover-group");
        let recorded = run_durable(&dir, windowed, &ops);

        let path = only_segment(&dir);
        let bytes = std::fs::read(&path).unwrap();
        let scan = parse_segment(&bytes);
        prop_assert_eq!(scan.records.len(), recorded.len());

        // Partition the records into commit groups of the drawn sizes
        // (cycling if the sizes run short), then keep a whole number of
        // leading groups — the watermark a leader fsync would have left.
        let mut boundaries = Vec::new(); // record count at each group end
        let mut covered = 0usize;
        let mut sizes = group_sizes.iter().cycle();
        while covered < recorded.len() {
            covered = (covered + sizes.next().unwrap()).min(recorded.len());
            boundaries.push(covered);
        }
        let keep_groups = (boundaries.len() as f64 * keep_frac) as usize;
        let survivors = keep_groups.checked_sub(1).map_or(0, |i| boundaries[i]);
        let cut = survivors
            .checked_sub(1)
            .map_or(FILE_HEADER_LEN, |i| scan.records[i].end);
        std::fs::write(&path, &bytes[..cut]).unwrap();

        // A group boundary is a frame boundary: recovery is clean, no
        // torn tail, and applies exactly the covered groups' records.
        let (recovered, report) =
            SketchStore::<f64>::recover(cfg(windowed).data_dir(dir.path())).unwrap();
        prop_assert!(report.corruption.is_none(), "group boundaries are frame boundaries");
        prop_assert_eq!(report.records_applied, survivors as u64);

        let reference = run_reference(windowed, &recorded[..survivors]);
        prop_assert_eq!(
            state_of(&recovered),
            state_of(&reference),
            "recovery must equal executing the {keep_groups} covered commit groups"
        );
    }

    /// Repair is idempotent and deterministic: recovering the same
    /// damaged directory twice (the first pass truncates the torn tail)
    /// lands on the same state both times.
    #[test]
    fn double_recovery_is_stable(
        windowed in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 1..16),
        chop in 1usize..40,
    ) {
        let dir = TempDir::new("recover-stable");
        run_durable(&dir, windowed, &ops);

        let path = only_segment(&dir);
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len().saturating_sub(chop).max(FILE_HEADER_LEN);
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let (first, report_a) =
            SketchStore::<f64>::recover(cfg(windowed).data_dir(dir.path())).unwrap();
        let state_a = state_of(&first);
        drop(first);
        let (second, report_b) =
            SketchStore::<f64>::recover(cfg(windowed).data_dir(dir.path())).unwrap();
        prop_assert!(report_b.corruption.is_none(), "first pass must have repaired the tail");
        prop_assert_eq!(report_b.records_applied, report_a.records_applied);
        prop_assert_eq!(state_of(&second), state_a);
    }
}

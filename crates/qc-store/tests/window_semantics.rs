//! Windowed-store semantics suite: boundary alignment, the lateness
//! bound, downsampling weight conservation, retention eviction, and the
//! exact-oracle contract for time-range queries — plus a property test
//! (mirroring `cache_coherence.rs`) that any interleaving of
//! `update_at` / `update_many` / `cool_down` keeps every key's windowed
//! state byte-for-byte predictable: same active id, same watermark, same
//! sealed window set, same per-key total weight, with late drops and
//! evictions accounted exactly.

use std::time::Duration;

use proptest::prelude::*;
use qc_common::summary::{Summary, WeightedItem, WeightedSummary};
use qc_common::OrderedBits;
use qc_store::{merge_summaries, SketchStore, StoreConfig, WindowConfig};

/// One-second level-0 windows: window id == whole seconds of event time.
const WIDTH_MS: u64 = 1000;

fn windowed_cfg(levels: u8, retention_s: u64, lateness_s: u64) -> StoreConfig {
    StoreConfig::default().stripes(2).k(256).b(8).seed(7).window(
        WindowConfig::default()
            .width(Duration::from_millis(WIDTH_MS))
            .downsample_levels(levels)
            .retention(Duration::from_secs(retention_s))
            .lateness(Duration::from_secs(lateness_s)),
    )
}

/// Sealed windows as `(start id, level, weight)` in time order.
fn sealed_of(store: &SketchStore, key: &str) -> Vec<(u64, u8, u64)> {
    store
        .window_snapshot(key)
        .expect("windowed key present")
        .sealed
        .iter()
        .map(|(start, level, s)| (*start, *level, s.stream_len()))
        .collect()
}

#[test]
fn values_on_window_boundaries_land_in_the_right_window() {
    let store = SketchStore::new(windowed_cfg(0, 3600, 10));
    // 999 is the last millisecond of window 0; 1000 the first of window 1.
    store.update_at("k", 999, &[1.0]);
    let snap = store.window_snapshot("k").unwrap();
    assert_eq!((snap.active_id, snap.watermark), (0, 0));
    assert!(snap.sealed.is_empty());
    assert_eq!(snap.total_weight(), 1);

    store.update_at("k", 1000, &[2.0]);
    let snap = store.window_snapshot("k").unwrap();
    assert_eq!((snap.active_id, snap.watermark), (1, 1), "ts 1000 rolls to window 1");
    assert_eq!(sealed_of(&store, "k"), vec![(0, 0, 1)], "window 0 sealed with its weight");

    store.update_at("k", 1999, &[3.0]);
    store.update_at("k", 2000, &[4.0]);
    assert_eq!(sealed_of(&store, "k"), vec![(0, 0, 1), (1, 0, 2)]);
    let snap = store.window_snapshot("k").unwrap();
    assert_eq!((snap.active_id, snap.watermark), (2, 2));
    assert_eq!(snap.total_weight(), 4, "every boundary value retained exactly once");

    // Range reads respect the same boundaries (half-open, ms-granular).
    assert_eq!(store.merged_range_summary(&["k"], 0, 1000).stream_len(), 1);
    assert_eq!(store.merged_range_summary(&["k"], 1000, 2000).stream_len(), 2);
    assert_eq!(store.merged_range_summary(&["k"], 0, 1).stream_len(), 1);
    assert_eq!(store.merged_range_summary(&["k"], 2000, 3000).stream_len(), 1, "active covered");
    assert_eq!(store.merged_range_summary(&["k"], 0, 3000).stream_len(), 4);
    assert_eq!(store.query_range("k", 500, 500, 0.5), None, "empty range holds nothing");
}

#[test]
fn late_values_inside_the_lateness_bound_merge_into_their_window() {
    let store = SketchStore::new(windowed_cfg(0, 3600, 5));
    store.update_at("k", 0, &[1.0]);
    store.update_at("k", 4_500, &[2.0]); // watermark -> 4, seals window 0
                                         // Window 2 was never written; a late value lands 2 windows behind the
                                         // watermark, inside the 5-window lateness bound.
    store.update_at("k", 2_250, &[9.0]);
    assert_eq!(store.stats().window_late_drops, 0);
    assert_eq!(sealed_of(&store, "k"), vec![(0, 0, 1), (2, 0, 1)], "late value sealed at its id");
    let snap = store.window_snapshot("k").unwrap();
    assert_eq!((snap.active_id, snap.watermark), (4, 4), "late writes never move the watermark");
    assert_eq!(snap.total_weight(), 3);
    // The late value is visible to a range query over exactly its window.
    assert_eq!(store.query_range("k", 2000, 3000, 0.5), Some(9.0));
}

#[test]
fn late_values_beyond_the_lateness_bound_are_dropped_and_counted() {
    let store = SketchStore::new(windowed_cfg(0, 3600, 1));
    store.update_at("k", 500, &[1.0]);
    store.update_at("k", 5_500, &[2.0]); // watermark -> 5
    let before = store.window_snapshot("k").unwrap().total_weight();
    // Window 0 is 5 windows behind a 1-window bound: inadmissible.
    store.update_at("k", 750, &[666.0]);
    assert_eq!(store.stats().window_late_drops, 1, "the drop is counted");
    let snap = store.window_snapshot("k").unwrap();
    assert_eq!(snap.total_weight(), before, "dropped weight never enters the store");
    assert_eq!(sealed_of(&store, "k"), vec![(0, 0, 1)], "the sealed window is untouched");
    assert_eq!(store.query_range("k", 0, 1000, 0.999), Some(1.0), "666.0 is not in window 0");
}

#[test]
fn downsampling_conserves_weight_exactly() {
    // 64-window retention over 2 levels: level-0 windows stay fresh for
    // 16 windows, so a 40-window backlog has plenty of promotion fodder.
    let store = SketchStore::new(windowed_cfg(2, 64, 120));
    for w in 0..=40u64 {
        store.update_at("k", w * WIDTH_MS + 100, &[w as f64]);
    }
    let before = store.window_snapshot("k").unwrap();
    assert_eq!(before.total_weight(), 41);
    let windows_before = 1 + before.sealed.len();

    store.cool_down();

    let stats = store.stats();
    assert!(stats.window_downsamples > 0, "the sweep promoted something");
    assert_eq!(stats.window_evictions, 0, "nothing is past the 64-window horizon");
    let after = store.window_snapshot("k").unwrap();
    assert_eq!(after.total_weight(), 41, "downsampling moves weight, never loses it");
    assert!(
        after.sealed.iter().any(|(_, level, _)| *level > 0),
        "some window climbed a level: {:?}",
        after.sealed.iter().map(|(s, l, _)| (*s, *l)).collect::<Vec<_>>()
    );
    assert!(1 + after.sealed.len() < windows_before, "promotion merged windows");
    assert_eq!(stats.stream_len, 41, "store-wide accounting agrees");
}

#[test]
fn retention_evicts_windows_wholly_past_the_horizon() {
    let store = SketchStore::new(windowed_cfg(0, 4, 120));
    for w in 0..=10u64 {
        store.update_at("k", w * WIDTH_MS, &[w as f64]);
    }
    store.cool_down();
    let stats = store.stats();
    // Watermark 10, 4-window retention: the floor is 7, so sealed
    // windows 0..=6 go and 7..=9 stay (10 is active, never evicted).
    assert_eq!(stats.window_evictions, 7);
    assert_eq!(sealed_of(&store, "k"), vec![(7, 0, 1), (8, 0, 1), (9, 0, 1)]);
    assert_eq!(store.window_snapshot("k").unwrap().total_weight(), 4);
    assert_eq!(stats.stream_len, 4, "evicted weight left the store's accounting too");
    // Queries into the evicted past come back empty, not stale.
    assert_eq!(store.query_range("k", 0, 7000, 0.5), None);
}

/// The acceptance-criterion oracle: `merged_query_range` over any span
/// must equal the quantile of the exact merge of every covered window's
/// values. With per-window batches far below `k`, no summary ever
/// compresses, so equality is exact — the store's answer and a summary
/// built directly from the covered raw values must agree bit for bit.
#[test]
fn merged_query_range_matches_the_exact_oracle() {
    let store = SketchStore::new(windowed_cfg(0, 3600, 3600));
    let keys = ["a", "b"];
    // (key, ts, value): in-order and late writes across windows 0..6.
    let writes: &[(&str, u64, f64)] = &[
        ("a", 250, 10.0),
        ("a", 1_250, 20.0),
        ("b", 500, 15.0),
        ("a", 3_100, 40.0),
        ("b", 2_900, 35.0),
        ("a", 2_500, 30.0), // late for "a", admissible
        ("b", 4_750, 55.0),
        ("a", 5_000, 50.0),
        ("b", 900, 12.0), // late for "b", admissible
        ("a", 6_400, 60.0),
    ];
    for &(key, ts, v) in writes {
        store.update_at(key, ts, &[v]);
    }
    let spans: &[(u64, u64)] =
        &[(0, 3000), (1000, 2000), (2500, 6000), (0, u64::MAX), (5999, 6001), (800, 900)];
    for &(t0, t1) in spans {
        // Whole-window granularity: a window is covered iff it overlaps
        // the span, and then contributes all of its values.
        let covered = |ts: u64| {
            let wid = ts / WIDTH_MS;
            wid >= t0 / WIDTH_MS && wid < t1.div_ceil(WIDTH_MS)
        };
        let mut bits: Vec<u64> = writes
            .iter()
            .filter(|(_, ts, _)| covered(*ts))
            .map(|(_, _, v)| v.to_ordered_bits())
            .collect();
        bits.sort_unstable();
        let oracle = WeightedSummary::from_parts([(&bits[..], 1u64)]);
        let merged = store.merged_range_summary(&keys, t0, t1);
        assert_eq!(
            merged.stream_len(),
            oracle.stream_len(),
            "span [{t0}, {t1}): covered weight must match the oracle"
        );
        for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(
                store.merged_query_range(&keys, t0, t1, phi),
                oracle.quantile::<f64>(phi),
                "span [{t0}, {t1}), phi {phi}"
            );
        }
    }
}

#[test]
fn a_range_touching_a_downsampled_window_gets_its_whole_span() {
    let store = SketchStore::new(windowed_cfg(2, 8, 120));
    for w in 0..=7u64 {
        store.update_at("k", w * WIDTH_MS, &[w as f64]);
    }
    store.cool_down(); // promotes the oldest windows past the 2-window fresh band
    let snap = store.window_snapshot("k").unwrap();
    let (start, level, weight) = snap
        .sealed
        .iter()
        .find(|(_, level, _)| *level > 0)
        .map(|(s, l, sum)| (*s, *l, sum.stream_len()))
        .expect("the sweep produced a coarse window");
    assert!(weight > 1, "a coarse window holds more than one source window's weight");
    // A 1 ms probe into the coarse window returns its entire merged span:
    // the granularity contract downsampling trades for memory.
    let t_probe = start * WIDTH_MS + (u64::from(level)) * WIDTH_MS / 2;
    let got = store.merged_range_summary(&["k"], t_probe, t_probe + 1).stream_len();
    assert_eq!(got, weight, "coarse windows are merged whole");
}

#[test]
fn an_empty_range_inside_a_downsampled_window_holds_nothing() {
    let store = SketchStore::new(windowed_cfg(2, 16, 0));
    for w in 0..12u64 {
        store.update_at("k", w * WIDTH_MS, &[w as f64]);
    }
    for _ in 0..4 {
        store.cool_down();
    }
    let snap = store.window_snapshot("k").unwrap();
    assert!(
        snap.sealed.iter().any(|&(start, level, _)| start < 1 && start + (1 << level) > 1),
        "window 1 sits inside a coarse window: {:?}",
        snap.sealed.iter().map(|(s, l, _)| (*s, *l)).collect::<Vec<_>>()
    );
    // [1500, 1500) and [1700, 1200) lie inside that coarse window's span.
    for (t0, t1) in [(1500, 1500), (1700, 1200)] {
        assert_eq!(store.query_range("k", t0, t1, 0.5), None, "[{t0}, {t1}) is empty");
        assert_eq!(store.merged_query_range(&["k"], t0, t1, 0.5), None);
        assert_eq!(store.merged_range_summary(&["k"], t0, t1).stream_len(), 0);
    }
}

/// Every window `store` holds for `key` that overlaps the half-open time
/// range `[t0, t1)`, from `window_snapshot`: the sealed windows it touches
/// plus the active window when the range covers it.
fn covered_windows(store: &SketchStore, key: &str, t0: u64, t1: u64) -> Vec<WeightedSummary> {
    let snap = store.window_snapshot(key).expect("windowed key present");
    let (w0, w1) = (t0 / WIDTH_MS, t1.div_ceil(WIDTH_MS));
    let mut covered: Vec<WeightedSummary> = snap
        .sealed
        .iter()
        .filter(|&&(start, level, _)| start < w1 && start + (1 << level) > w0)
        .map(|(_, _, s)| (**s).clone())
        .collect();
    if (w0..w1).contains(&snap.active_id) {
        covered.push((*snap.active).clone());
    }
    covered
}

/// A cross-key range summary is one merge of every covered window, so it
/// equals `merge_summaries` over exactly those windows with the store's
/// seed, bit for bit — even when each key's span alone holds more than
/// `2k` values and a per-key merge would compact first.
#[test]
fn merged_range_summary_merges_every_covered_window_once() {
    let store = SketchStore::new(windowed_cfg(0, 3600, 3600));
    let keys = ["a", "b"];
    for (i, key) in keys.iter().enumerate() {
        for w in 0..6u64 {
            let values: Vec<f64> = (0..200).map(|v| (v * 7 + w * 3 + i as u64) as f64).collect();
            store.update_at(key, w * WIDTH_MS, &values);
        }
    }
    for (t0, t1) in [(0, 6000), (1000, 5000), (0, u64::MAX), (2500, 2600)] {
        let windows: Vec<WeightedSummary> =
            keys.iter().flat_map(|key| covered_windows(&store, key, t0, t1)).collect();
        let expected = merge_summaries(&windows, 256, 7);
        assert_eq!(store.merged_range_summary(&keys, t0, t1), expected, "span [{t0}, {t1})");
    }
}

/// With downsampled (compacted, weight > 1) windows in range, a range
/// quantile is exact over the stored windows: it equals the quantile of
/// one flat summary built from every covered window's items.
#[test]
fn query_range_over_downsampled_windows_is_exact_over_the_stored_windows() {
    // 32 windows of retention over 2 levels: level-0 windows stay fresh
    // for 8 windows and level-1 windows for 16, so two sweeps leave
    // windows at every level, and 300 values per window make every
    // promotion compact.
    let store = SketchStore::new(windowed_cfg(2, 32, 120));
    for w in 0..24u64 {
        let values: Vec<f64> = (0..300).map(|v| ((v * 13 + w * 101) % 997) as f64).collect();
        store.update_at("k", w * WIDTH_MS, &values);
    }
    store.cool_down();
    store.cool_down();
    let snap = store.window_snapshot("k").unwrap();
    assert!(
        snap.sealed.iter().any(|(_, _, s)| s.items().iter().any(|it| it.weight > 1)),
        "some downsampled window compacted"
    );
    for (t0, t1) in [(0, 24_000), (0, 8000), (3500, 9100), (16_000, 24_000), (5000, 5001)] {
        let items: Vec<WeightedItem> =
            covered_windows(&store, "k", t0, t1).iter().flat_map(|s| s.items().to_vec()).collect();
        let oracle = WeightedSummary::from_items(items);
        for phi in [0.0, 0.1, 0.25, 0.5, 0.73, 0.99, 1.0] {
            assert_eq!(
                store.query_range("k", t0, t1, phi),
                oracle.quantile::<f64>(phi),
                "span [{t0}, {t1}), phi {phi}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property test: the windowed state machine is exactly predictable.
// ---------------------------------------------------------------------------

const KEYS: usize = 2;

fn key_name(i: usize) -> String {
    format!("key-{i}")
}

#[derive(Clone, Debug)]
enum Op {
    /// `update_at` of `n` values stamped inside window `wid`.
    UpdateAt { key: usize, wid: u64, n: usize },
    /// Plain (untimestamped) `update_many`: lands in the active window.
    Update { key: usize, n: usize },
    /// One housekeeping sweep: downsample + evict.
    CoolDown,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS, 0u64..16, 1usize..8).prop_map(|(key, wid, n)| Op::UpdateAt { key, wid, n }),
        (0..KEYS, 0u64..16, 1usize..8).prop_map(|(key, wid, n)| Op::UpdateAt { key, wid, n }),
        (0..KEYS, 1usize..8).prop_map(|(key, n)| Op::Update { key, n }),
        Just(Op::CoolDown),
    ]
}

/// Reference model of one key's windowed state under a zero-downsampling
/// plan: window weights by id, plus the active id and watermark. Mirrors
/// the documented transition rules, independently re-implemented.
#[derive(Default)]
struct KeyModel {
    present: bool,
    active_id: u64,
    watermark: u64,
    /// Weight per window id (the active window's weight lives here too).
    weights: std::collections::BTreeMap<u64, u64>,
    /// Batches (not values) dropped past the lateness bound — the
    /// store's counter is per dropped `update_at` call.
    dropped_batches: u64,
}

impl KeyModel {
    fn write(&mut self, wid: u64, n: u64, lateness_windows: u64) {
        if !self.present {
            self.present = true;
            self.active_id = wid;
            self.watermark = wid;
            *self.weights.entry(wid).or_insert(0) += n;
            return;
        }
        if wid >= self.active_id {
            // Roll (or stay): the active window follows the newest write.
            self.active_id = wid;
            self.watermark = self.watermark.max(wid);
            *self.weights.entry(wid).or_insert(0) += n;
        } else if self.watermark - wid <= lateness_windows {
            *self.weights.entry(wid).or_insert(0) += n;
        } else {
            self.dropped_batches += 1;
        }
    }

    fn update_plain(&mut self, n: u64) {
        if !self.present {
            self.present = true; // created at window 0
        }
        *self.weights.entry(self.active_id).or_insert(0) += n;
    }

    fn cool_down(&mut self, retention_windows: u64) {
        if !self.present {
            return;
        }
        let floor = (self.watermark + 1).saturating_sub(retention_windows);
        // Only sealed windows evict; the active one survives regardless.
        let active = self.active_id;
        self.weights.retain(|&wid, _| wid >= floor || wid == active);
    }

    fn total_weight(&self) -> u64 {
        self.weights.values().sum()
    }

    /// Expected sealed set: every window holding weight except the active.
    fn sealed_ids(&self) -> Vec<u64> {
        self.weights.keys().copied().filter(|&w| w != self.active_id).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero downsampling: the full state — active id, watermark, sealed
    /// window ids, per-key total weight, store-wide drop counter — must
    /// match the model after every operation.
    #[test]
    fn windowed_state_is_exactly_predictable(
        ops in prop::collection::vec(op_strategy(), 1..32)
    ) {
        const RETENTION: u64 = 6;
        const LATENESS: u64 = 3;
        let store = SketchStore::new(windowed_cfg(0, RETENTION, LATENESS));
        let mut models: Vec<KeyModel> = (0..KEYS).map(|_| KeyModel::default()).collect();
        for op in &ops {
            match *op {
                Op::UpdateAt { key, wid, n } => {
                    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
                    store.update_at(&key_name(key), wid * WIDTH_MS + 1, &values);
                    models[key].write(wid, n as u64, LATENESS);
                }
                Op::Update { key, n } => {
                    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
                    store.update_many(&key_name(key), &values);
                    models[key].update_plain(n as u64);
                }
                Op::CoolDown => {
                    store.cool_down();
                    for model in &mut models {
                        model.cool_down(RETENTION);
                    }
                }
            }
            for (key, model) in models.iter().enumerate() {
                let name = key_name(key);
                let snap = store.window_snapshot(&name);
                prop_assert_eq!(snap.is_some(), model.present, "presence of {} after {:?}", &name, op);
                let Some(snap) = snap else { continue };
                prop_assert_eq!(snap.active_id, model.active_id, "active of {} after {:?}", &name, op);
                prop_assert_eq!(snap.watermark, model.watermark, "watermark of {} after {:?}", &name, op);
                prop_assert_eq!(
                    snap.total_weight(), model.total_weight(),
                    "total weight of {} after {:?}", &name, op
                );
                let sealed: Vec<u64> = snap.sealed.iter().map(|(s, _, _)| *s).collect();
                prop_assert_eq!(sealed, model.sealed_ids(), "sealed set of {} after {:?}", &name, op);
            }
            let expected_drops: u64 = models.iter().map(|m| m.dropped_batches).sum();
            prop_assert_eq!(store.stats().window_late_drops, expected_drops);
        }
    }

    /// With downsampling on and retention far beyond reach, no weight can
    /// ever leave: any interleaving of writes, seals, promotions, and
    /// sweeps conserves each key's admitted weight exactly.
    #[test]
    fn downsampling_interleavings_conserve_weight(
        ops in prop::collection::vec(op_strategy(), 1..32)
    ) {
        const LATENESS: u64 = 3;
        let store = SketchStore::new(windowed_cfg(2, 3600, LATENESS));
        let mut models: Vec<KeyModel> = (0..KEYS).map(|_| KeyModel::default()).collect();
        for op in &ops {
            match *op {
                Op::UpdateAt { key, wid, n } => {
                    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
                    store.update_at(&key_name(key), wid * WIDTH_MS + 1, &values);
                    models[key].write(wid, n as u64, LATENESS);
                }
                Op::Update { key, n } => {
                    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
                    store.update_many(&key_name(key), &values);
                    models[key].update_plain(n as u64);
                }
                Op::CoolDown => {
                    store.cool_down();
                    // 3600-window retention, ids < 16: nothing evicts.
                }
            }
            for (key, model) in models.iter().enumerate() {
                if !model.present {
                    continue;
                }
                let snap = store.window_snapshot(&key_name(key)).expect("present key");
                prop_assert_eq!(
                    snap.total_weight(), model.total_weight(),
                    "weight of {} after {:?}", key_name(key), op
                );
            }
            prop_assert_eq!(store.stats().window_evictions, 0);
        }
    }
}

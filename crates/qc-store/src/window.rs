//! Time-windowed sub-sketches: window-aligned partitioning of a key's
//! stream, with downsampling into coarser windows and retention eviction.
//!
//! Real metric traffic is `(key, time window)` — "p99 of `latency.api`
//! over the last 5 minutes" — which an unbounded per-key sketch cannot
//! answer. This module holds the *bookkeeping* for the windowed layer the
//! store composes over its engines:
//!
//! * the **active window** of a key is its live engine (the full
//!   shared-lock write path and summary cache apply unchanged);
//! * **sealed windows** are immutable [`LeveledSummary`] snapshots —
//!   packed sorted level runs, at most 8 bytes per retained value —
//!   keyed by their level-0 start id in a [`BTreeMap`]. A time-range read
//!   clones the `Arc`s of the windows it overlaps under the shared stripe
//!   hold and answers over them after the lock is gone, without merging
//!   them;
//! * old sealed windows **downsample** into coarser ones (a level-`l`
//!   window spans `2^l` level-0 widths) by an exact-weight merge of their
//!   level runs ([`crate::merge`]'s kernel), so total weight is conserved
//!   through every seal → downsample → range-read chain;
//! * windows older than the retention horizon are **evicted** — the one
//!   transition that deliberately lets weight leave the store.
//!
//! Everything here is integer window-id arithmetic on caller-supplied
//! event timestamps (milliseconds). There is **no wall clock**: the
//! per-key *watermark* (highest level-0 window id seen via a timestamped
//! update) drives lateness admission, downsampling, and eviction, which
//! makes every transition deterministic from the update stream alone —
//! the same clock-injection discipline as `qc-ingest`'s breaker.
//!
//! The id math: a timestamp `ts` (ms) lands in level-0 window
//! `ts / width_ms` (start-inclusive, end-exclusive). A level-`l` window
//! starting at id `s` covers ids `[s, s + 2^l)`; its parent at level
//! `l+1` starts at `s` rounded down to a multiple of `2^(l+1)`, so
//! sibling promotions always meet in the same slot and merge.
//!
//! Durability rides the store's split append/sync path unchanged:
//! windowed records (v2 frames carrying the window id) are appended and
//! LSN-sequenced under the stripe-lock hold, and the writer then waits
//! on the group-commit watermark with no lock held — active-window
//! writes, late merges, and window rolls all share fsyncs with every
//! other concurrent durable writer (see `qc_store::persist`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use qc_common::summary::{LeveledSummary, Summary, WeightedSummary};

/// Configuration for the time-windowed layer, set via
/// [`crate::StoreConfig::window`]. All durations are normalized to whole
/// milliseconds; sub-window durations round **up** to whole windows where
/// a bound is derived (lateness, retention).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of one level-0 window. Clamped to at least 1 ms.
    pub width: Duration,
    /// How many downsampling levels sealed windows may climb. Level `l`
    /// spans `2^l` level-0 windows; `0` disables downsampling entirely.
    pub downsample_levels: u8,
    /// How long sealed data is kept, measured against the key's
    /// watermark. Rounds up to whole windows, clamped to at least one
    /// window. Windows wholly older than the horizon are evicted by the
    /// housekeeping sweep — their weight leaves the store.
    pub retention: Duration,
    /// How far behind the key's watermark a timestamped value may land
    /// and still be admitted (merged into the sealed window covering
    /// it). Values later than this are dropped and counted
    /// (`store_window_late_drops`). Rounds up to whole windows.
    pub lateness: Duration,
}

impl Default for WindowConfig {
    /// One-minute windows, two downsample levels, one hour of retention,
    /// two minutes of lateness.
    fn default() -> Self {
        WindowConfig {
            width: Duration::from_secs(60),
            downsample_levels: 2,
            retention: Duration::from_secs(3600),
            lateness: Duration::from_secs(120),
        }
    }
}

impl WindowConfig {
    /// Set the level-0 window width.
    pub fn width(mut self, width: Duration) -> Self {
        self.width = width;
        self
    }

    /// Set how many downsampling levels sealed windows may climb.
    pub fn downsample_levels(mut self, levels: u8) -> Self {
        self.downsample_levels = levels;
        self
    }

    /// Set the retention horizon.
    pub fn retention(mut self, retention: Duration) -> Self {
        self.retention = retention;
        self
    }

    /// Set the lateness bound.
    pub fn lateness(mut self, lateness: Duration) -> Self {
        self.lateness = lateness;
        self
    }
}

/// [`WindowConfig`] normalized into integer window-id space: every
/// decision the store makes is arithmetic on these four numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WindowPlan {
    /// Level-0 window width in milliseconds (>= 1).
    pub(crate) width_ms: u64,
    /// Downsampling levels (capped so `1 << level` cannot overflow).
    pub(crate) levels: u8,
    /// Retention horizon in whole level-0 windows (>= 1).
    pub(crate) retention_windows: u64,
    /// Lateness bound in whole level-0 windows.
    pub(crate) lateness_windows: u64,
}

impl WindowPlan {
    pub(crate) fn new(cfg: &WindowConfig) -> Self {
        let width_ms = (cfg.width.as_millis() as u64).max(1);
        let in_windows = |d: Duration| (d.as_millis() as u64).div_ceil(width_ms);
        WindowPlan {
            width_ms,
            levels: cfg.downsample_levels.min(32),
            retention_windows: in_windows(cfg.retention).max(1),
            lateness_windows: in_windows(cfg.lateness),
        }
    }

    /// Level-0 window id holding timestamp `ts_ms`.
    pub(crate) fn window_id(&self, ts_ms: u64) -> u64 {
        ts_ms / self.width_ms
    }

    /// Half-open window-id range `[w0, w1)` overlapped by the half-open
    /// time range `[t0_ms, t1_ms)`. Empty input yields an empty range.
    pub(crate) fn range_windows(&self, t0_ms: u64, t1_ms: u64) -> (u64, u64) {
        let w0 = t0_ms / self.width_ms;
        if t1_ms <= t0_ms {
            return (w0, w0);
        }
        (w0, t1_ms.div_ceil(self.width_ms))
    }

    /// Whether a value landing in window `wid` is still admissible when
    /// the key's watermark stands at `watermark`.
    pub(crate) fn admissible(&self, watermark: u64, wid: u64) -> bool {
        watermark.saturating_sub(wid) <= self.lateness_windows
    }

    /// How many level-0 windows a sealed window stays "fresh" (immune to
    /// downsampling) at level 0. Level `l` scales this by `2^l`, so each
    /// level holds roughly equal calendar time before promoting.
    pub(crate) fn fresh_windows(&self) -> u64 {
        (self.retention_windows >> self.levels).max(1)
    }

    /// First window id still inside the retention horizon: windows whose
    /// *end* is `<=` this are evicted.
    pub(crate) fn evict_floor(&self, watermark: u64) -> u64 {
        (watermark + 1).saturating_sub(self.retention_windows)
    }
}

/// Number of level-0 windows a level-`level` window spans.
pub(crate) fn span(level: u8) -> u64 {
    1u64 << level.min(63)
}

/// Start id of the level-`level + 1` parent slot for a level-`level`
/// window starting at `start`.
pub(crate) fn parent_start(start: u64, level: u8) -> u64 {
    start & !(span(level + 1) - 1)
}

/// One sealed (immutable) window: its downsampling level and summary.
#[derive(Clone, Debug)]
pub(crate) struct SealedWindow {
    pub(crate) level: u8,
    pub(crate) summary: Arc<LeveledSummary>,
}

/// Per-key window bookkeeping, held behind the key's stripe lock.
#[derive(Clone, Debug, Default)]
pub(crate) struct WindowState {
    /// Level-0 id of the window the live engine currently accumulates.
    pub(crate) active_id: u64,
    /// Highest level-0 id seen via a timestamped update (>= `active_id`).
    pub(crate) watermark: u64,
    /// Sealed windows, keyed by level-0 start id. Non-overlapping by
    /// construction; the map order is time order.
    pub(crate) sealed: BTreeMap<u64, SealedWindow>,
}

impl WindowState {
    /// Start id of the sealed window covering `wid`, if any (a coarse
    /// window covers every level-0 id in its span).
    pub(crate) fn covering(&self, wid: u64) -> Option<u64> {
        let (&start, win) = self.sealed.range(..=wid).next_back()?;
        (start + span(win.level) > wid).then_some(start)
    }

    /// Sealed windows overlapping the half-open id range `[w0, w1)`, as
    /// `(start id, window)` in time order. An empty or reversed range
    /// overlaps nothing, not even a coarse window whose span contains `w0`.
    pub(crate) fn overlapping(
        &self,
        w0: u64,
        w1: u64,
    ) -> impl Iterator<Item = (u64, &SealedWindow)> {
        let end = if w0 < w1 { w1 } else { 0 };
        self.sealed
            .range(..end)
            .filter(move |(&start, win)| start + span(win.level) > w0)
            .map(|(&start, win)| (start, win))
    }

    /// Total weight resident in sealed windows.
    pub(crate) fn sealed_weight(&self) -> u64 {
        self.sealed.values().map(|w| w.summary.stream_len()).sum()
    }
}

/// One housekeeping downsample pass: every sealed window at level
/// `l < plan.levels` whose age (in level-0 windows past its end, against
/// the watermark) exceeds `fresh << l` promotes one level, merging into
/// its parent slot via `merge` (exact weight conservation is the
/// caller's contract — the store passes [`crate::merge::merge_runs`]).
/// Candidates are processed in ascending start order so the older
/// sibling always lands in the parent slot first and the younger merges
/// into it. One level per pass per window; repeated sweeps converge.
/// Returns the number of promotions.
pub(crate) fn downsample_sweep(
    state: &mut WindowState,
    plan: &WindowPlan,
    mut merge: impl FnMut(&LeveledSummary, &LeveledSummary) -> LeveledSummary,
) -> u64 {
    if plan.levels == 0 {
        return 0;
    }
    let fresh = plan.fresh_windows();
    let horizon = state.watermark + 1;
    let candidates: Vec<(u64, u8)> = state
        .sealed
        .iter()
        .filter(|&(&start, win)| {
            win.level < plan.levels
                && horizon.saturating_sub(start + span(win.level)) > fresh << win.level
        })
        .map(|(&start, win)| (start, win.level))
        .collect();
    let mut promotions = 0u64;
    for (start, level) in candidates {
        // The slot may have been consumed (or bumped in place) by an
        // earlier promotion in this same pass.
        match state.sealed.get(&start) {
            Some(win) if win.level == level => {}
            _ => continue,
        }
        let win = state.sealed.remove(&start).expect("candidate just observed");
        let parent = parent_start(start, level);
        let promoted = level + 1;
        match state.sealed.get_mut(&parent) {
            Some(existing) => {
                existing.summary = Arc::new(merge(&existing.summary, &win.summary));
                existing.level = existing.level.max(promoted);
            }
            None => {
                state.sealed.insert(parent, SealedWindow { level: promoted, summary: win.summary });
            }
        }
        promotions += 1;
    }
    promotions
}

/// One housekeeping eviction pass: drop sealed windows wholly past the
/// retention horizon. Returns how many were evicted — the only
/// transition where weight leaves the store, by design.
pub(crate) fn evict_sweep(state: &mut WindowState, plan: &WindowPlan) -> u64 {
    let floor = plan.evict_floor(state.watermark);
    if floor == 0 {
        return 0;
    }
    let doomed: Vec<u64> = state
        .sealed
        .iter()
        .filter(|&(&start, win)| start + span(win.level) <= floor)
        .map(|(&start, _)| start)
        .collect();
    for start in &doomed {
        state.sealed.remove(start);
    }
    doomed.len() as u64
}

/// A key's windowed state, exposed for diagnostics and the exact-oracle
/// tests: the active window id and summary plus every sealed window as
/// `(start id, level, summary)` in time order.
#[derive(Clone, Debug)]
pub struct WindowSnapshot {
    /// Level-0 id of the active window.
    pub active_id: u64,
    /// The key's watermark (highest level-0 id seen).
    pub watermark: u64,
    /// Summary of the active window's live engine.
    pub active: Arc<WeightedSummary>,
    /// Sealed windows as `(start id, level, summary)`, ascending by start.
    pub sealed: Vec<(u64, u8, Arc<WeightedSummary>)>,
}

impl WindowSnapshot {
    /// Total weight across the active and all sealed windows.
    pub fn total_weight(&self) -> u64 {
        self.active.stream_len() + self.sealed.iter().map(|(_, _, s)| s.stream_len()).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(range: std::ops::Range<u64>) -> Arc<LeveledSummary> {
        Arc::new(LeveledSummary::from_runs(&[range.collect()]))
    }

    fn merge(a: &LeveledSummary, b: &LeveledSummary) -> LeveledSummary {
        crate::merge::merge_runs([&a.level_runs()[..], &b.level_runs()[..]], 64, 7)
    }

    fn plan(width_ms: u64, levels: u8, retention: u64, lateness: u64) -> WindowPlan {
        WindowPlan { width_ms, levels, retention_windows: retention, lateness_windows: lateness }
    }

    #[test]
    fn window_ids_are_start_inclusive_end_exclusive() {
        let p = plan(1000, 0, 10, 0);
        assert_eq!(p.window_id(0), 0);
        assert_eq!(p.window_id(999), 0);
        assert_eq!(p.window_id(1000), 1);
        assert_eq!(p.range_windows(0, 1000), (0, 1));
        assert_eq!(p.range_windows(0, 1001), (0, 2));
        assert_eq!(p.range_windows(999, 1000), (0, 1));
        assert_eq!(p.range_windows(500, 500), (0, 0));
        assert_eq!(p.range_windows(700, 300), (0, 0));
    }

    #[test]
    fn plan_normalization_rounds_up_and_clamps() {
        let p = WindowPlan::new(&WindowConfig {
            width: Duration::from_millis(250),
            downsample_levels: 3,
            retention: Duration::from_millis(1100),
            lateness: Duration::from_millis(1),
        });
        assert_eq!(p.width_ms, 250);
        assert_eq!(p.retention_windows, 5); // ceil(1100/250)
        assert_eq!(p.lateness_windows, 1); // ceil(1/250)
        let zero = WindowPlan::new(&WindowConfig {
            width: Duration::ZERO,
            downsample_levels: 0,
            retention: Duration::ZERO,
            lateness: Duration::ZERO,
        });
        assert_eq!(zero.width_ms, 1);
        assert_eq!(zero.retention_windows, 1);
        assert_eq!(zero.lateness_windows, 0);
    }

    #[test]
    fn covering_respects_coarse_spans() {
        let mut state = WindowState::default();
        state.sealed.insert(4, SealedWindow { level: 2, summary: unit(0..4) });
        state.sealed.insert(8, SealedWindow { level: 0, summary: unit(4..5) });
        assert_eq!(state.covering(3), None);
        assert_eq!(state.covering(4), Some(4));
        assert_eq!(state.covering(7), Some(4));
        assert_eq!(state.covering(8), Some(8));
        assert_eq!(state.covering(9), None);
    }

    #[test]
    fn overlapping_includes_partial_coarse_windows() {
        let mut state = WindowState::default();
        state.sealed.insert(0, SealedWindow { level: 2, summary: unit(0..4) });
        state.sealed.insert(4, SealedWindow { level: 0, summary: unit(4..5) });
        // [3, 5) clips the level-2 window — it is still read whole.
        assert_eq!(state.overlapping(3, 5).count(), 2);
        assert_eq!(state.overlapping(4, 5).count(), 1);
        assert_eq!(state.overlapping(5, 9).count(), 0);
        // An empty or reversed range inside the coarse span reads nothing.
        assert_eq!(state.overlapping(2, 2).count(), 0);
        assert_eq!(state.overlapping(3, 1).count(), 0);
    }

    #[test]
    fn downsample_merges_siblings_and_conserves_weight() {
        let p = plan(1, 2, 16, 0);
        let mut state = WindowState { watermark: 40, ..Default::default() };
        state.sealed.insert(0, SealedWindow { level: 0, summary: unit(0..3) });
        state.sealed.insert(1, SealedWindow { level: 0, summary: unit(3..8) });
        let before = state.sealed_weight();
        let promoted = downsample_sweep(&mut state, &p, merge);
        assert_eq!(promoted, 2);
        assert_eq!(state.sealed.len(), 1);
        let win = &state.sealed[&0];
        assert_eq!(win.level, 1);
        assert_eq!(state.sealed_weight(), before);
        // A second sweep promotes the level-1 window to level 2 (age 39
        // > fresh(4) << 1), then it is terminal at plan.levels.
        let promoted = downsample_sweep(&mut state, &p, merge);
        assert_eq!(promoted, 1);
        assert_eq!(state.sealed[&0].level, 2);
        assert_eq!(downsample_sweep(&mut state, &p, merge), 0);
        assert_eq!(state.sealed_weight(), before);
    }

    #[test]
    fn fresh_windows_hold_their_level() {
        let p = plan(1, 2, 16, 0); // fresh = 16 >> 2 = 4
        let mut state = WindowState { watermark: 4, ..Default::default() };
        state.sealed.insert(0, SealedWindow { level: 0, summary: unit(0..1) });
        // age = 5 - 1 = 4, not > 4: stays put.
        let n = downsample_sweep(&mut state, &p, merge);
        assert_eq!(n, 0);
        assert_eq!(state.sealed[&0].level, 0);
    }

    #[test]
    fn eviction_drops_only_windows_wholly_past_the_horizon() {
        let p = plan(1, 0, 4, 0);
        let mut state = WindowState { watermark: 9, ..Default::default() }; // floor = 10 - 4 = 6
        state.sealed.insert(2, SealedWindow { level: 1, summary: unit(0..1) }); // end 4 <= 6
        state.sealed.insert(4, SealedWindow { level: 1, summary: unit(1..2) }); // end 6 <= 6
        state.sealed.insert(5, SealedWindow { level: 0, summary: unit(2..3) }); // end 6 <= 6
        state.sealed.insert(6, SealedWindow { level: 0, summary: unit(3..4) }); // end 7 > 6
        assert_eq!(evict_sweep(&mut state, &p), 3);
        assert_eq!(state.sealed.keys().copied().collect::<Vec<_>>(), vec![6]);
        // A young watermark evicts nothing (floor saturates to 0).
        let mut young = WindowState { watermark: 1, ..Default::default() };
        young.sealed.insert(0, SealedWindow { level: 0, summary: unit(0..1) });
        assert_eq!(evict_sweep(&mut young, &p), 0);
    }

    #[test]
    fn parent_slots_align_and_nest() {
        assert_eq!(parent_start(0, 0), 0);
        assert_eq!(parent_start(1, 0), 0);
        assert_eq!(parent_start(6, 0), 6);
        assert_eq!(parent_start(6, 1), 4);
        assert_eq!(parent_start(13, 2), 8);
        assert_eq!(span(0), 1);
        assert_eq!(span(3), 8);
    }

    #[test]
    fn admissibility_is_watermark_relative() {
        let p = plan(1000, 0, 10, 2);
        assert!(p.admissible(5, 5));
        assert!(p.admissible(5, 3));
        assert!(!p.admissible(5, 2));
        assert!(p.admissible(1, 5)); // ahead of the watermark is never late
    }
}

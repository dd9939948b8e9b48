//! Bytes per key: a key's heap follows what it holds.
//!
//! A counting global allocator tracks live heap bytes, and the file holds
//! one `#[test]`, so no test running beside it moves the count. It pins
//! three figures:
//!
//! 1. the live bytes of a cold key holding 32 values — no `2k` base buffer
//!    is reserved ahead of the data;
//! 2. a cold key that was read once and then written again holds what a
//!    key that was never read holds: the write dropped its read form;
//! 3. the same for a hot key (promotion threshold 0).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use qc_store::{SketchStore, StoreConfig};

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Values per write, as in the benchmark's set-up phase.
const VALUES: usize = 32;

/// A cold key's live bytes after one 32-value write: the key's map entry,
/// its name, its engine and 32 base values. Measured at 754 B (a 208 B
/// slot at about two table buckets per key, plus the name, the engine's
/// heap and the values); the bound leaves 46 B, under 7 %, for allocator
/// and table-sizing drift. A key that reserved a `2k` = 512-value base
/// (4 KiB) ahead of the data, or that carried hot-only state in its slot,
/// fails it.
const COLD_KEY_BYTES: isize = 800;

/// How far a read-then-written key may sit above a never-read one, per
/// key. A read form of 32 values costs several hundred bytes; anything
/// left behind by the read shows far above this.
const READ_RESIDUE_BYTES: isize = 16;

fn keys(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("key-{i:05}")).collect()
}

fn batch(key: usize, round: usize) -> Vec<f64> {
    (0..VALUES).map(|j| ((key * 7919 + round * 104_729 + j * 31) % 10_007) as f64).collect()
}

/// One write of `VALUES` values to every key.
fn write_round(store: &SketchStore, keys: &[String], round: usize) {
    for (i, key) in keys.iter().enumerate() {
        store.update_many(key, &batch(i, round));
    }
}

/// A store built by `build`, and the live heap bytes it holds.
fn measured(build: impl FnOnce() -> SketchStore) -> (SketchStore, isize) {
    let before = LIVE.load(Relaxed);
    let store = build();
    (store, LIVE.load(Relaxed) - before)
}

/// Live bytes of two identical stores over `keys`: one written twice, one
/// read between the two writes.
fn unread_and_read(cfg: &StoreConfig, keys: &[String]) -> (isize, isize) {
    let (unread, unread_bytes) = measured(|| {
        let store = SketchStore::new(cfg.clone());
        write_round(&store, keys, 0);
        write_round(&store, keys, 1);
        store
    });
    let (read, read_bytes) = measured(|| {
        let store = SketchStore::new(cfg.clone());
        write_round(&store, keys, 0);
        for key in keys {
            assert!(store.query(key, 0.5).is_some());
        }
        write_round(&store, keys, 1);
        store
    });
    // Same contents, same answers: only the memory may differ.
    for key in keys {
        assert_eq!(unread.query(key, 0.5), read.query(key, 0.5));
    }
    drop((unread, read));
    (unread_bytes, read_bytes)
}

#[test]
fn a_key_holds_what_it_holds() {
    // (1) Bytes per cold key after the set-up phase: 4096 keys x 32 values.
    let cold_keys = keys(4096);
    let cfg = StoreConfig::default();
    let (store, bytes) = measured(|| {
        let store = SketchStore::new(cfg.clone());
        write_round(&store, &cold_keys, 0);
        store
    });
    assert_eq!(store.stats().cold_keys, cold_keys.len());
    let per_key = bytes / cold_keys.len() as isize;
    drop(store);
    println!("cold key: {per_key} B");
    assert!(per_key <= COLD_KEY_BYTES, "a 32-value cold key holds {per_key} B");

    // (2) A cold key read once, then written: no read form stays behind.
    let (unread, read) = unread_and_read(&cfg, &cold_keys);
    let residue = (read - unread) / cold_keys.len() as isize;
    println!("cold key read residue: {residue} B ({unread} B unread, {read} B read)");
    assert!(residue <= READ_RESIDUE_BYTES, "a read left {residue} B per cold key");

    // (3) The same for hot keys: promotion threshold 0 makes each key hot on
    // its first write, so the second write rides the shared-lock path.
    let hot_keys = keys(64);
    let cfg = StoreConfig::default().promotion_threshold(0);
    let (unread, read) = unread_and_read(&cfg, &hot_keys);
    let residue = (read - unread) / hot_keys.len() as isize;
    println!("hot key read residue: {residue} B ({unread} B unread, {read} B read)");
    assert!(residue <= READ_RESIDUE_BYTES, "a read left {residue} B per hot key");
}

//! Descriptor arena: allocate-once, free-at-drop.
//!
//! ## Why descriptors are never recycled
//!
//! Helping makes descriptor lifetime the classic hard problem of software
//! MWCAS: a helper that loaded a descriptor pointer from a word may run
//! arbitrarily late — long after the operation completed — and will then
//! dereference the descriptor and may even re-install its embedded RDCSS
//! into a word whose value happens to match again. Any scheme that recycles
//! descriptor memory must therefore prove no stale helper can observe a
//! *different* operation through an old pointer (torn reuse / ABA), which
//! requires reference counts or epoch hand-shakes on the hot path. Harris
//! et al. side-step this by assuming garbage collection.
//!
//! We side-step it differently: descriptors are small (256 B) and the
//! sketch issues them per *batch*, not per element. Every `mwcas` call
//! takes one, a failed attempt included, so the sketch holds one per
//! batch install, one per level propagation and one per DCAS retry. With
//! one updater nothing retries, and that is 3 per `2k` stream elements
//! (the batch install plus the propagations it triggers, two on
//! average); concurrent updaters add their retries. The arena simply
//! keeps every descriptor alive until the owning data structure drops,
//! making stale helpers trivially memory-safe; the algorithm's status
//! conditioning (RDCSS) makes them logically harmless (a late helper's
//! installs are always rolled back to the then-current value).
//!
//! ## What that costs: memory linear in the stream
//!
//! With one updater the footprint is `3 × 256 B / 2k` per element for as
//! long as the sketch lives. Measured with one updater ([`Arena::footprint_bytes`],
//! process RSS tracking it byte for byte):
//!
//! | sketch | per element | per 10 M elements | after 40 M |
//! |---|---|---|---|
//! | k = 4096, b = 16 (the paper's) | 0.094 B | 0.94 MB (3 712 descriptors) | 3.75 MB |
//! | k = 256, b = 4 (the store's default) | 1.50 B | 15.0 MB (58 624 descriptors) | 60.0 MB |
//!
//! Fine for a figure run; not for a long-lived hot key in `qc-store`,
//! whose process grows 17.6 → 93.1 MB over 60 M values on one key while
//! the sketch's `qc-reclaim` domain stays flat beside it (`retired_pending`
//! ≈ 20, `recycled` ≈ `allocated`). Only demotion, which drops the sketch
//! and with it the arena, gives the memory back. ROADMAP's "bounded
//! descriptor memory" item is the fix: every helper already dereferences
//! words inside a `qc-reclaim` guard, so descriptors can retire through
//! the `Domain` the sketch owns.
//!
//! Descriptors are handed out in chunks to keep the mutex off the common
//! path's cache miss profile; the per-op cost is one bump or one brief lock.

use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

use crate::descriptor::{Entry, MwcasDescriptor, MAX_WORDS, UNDECIDED};

/// Descriptors per chunk.
const CHUNK: usize = 64;

/// An allocation arena for MWCAS descriptors.
///
/// Owned by the data structure whose words the operations target; dropping
/// the arena frees every descriptor, so it must outlive all operations and
/// all potential helpers (in Quancurrent: the arena lives in the sketch's
/// shared state, and helpers are update/query handles that borrow it).
pub struct Arena {
    chunks: Mutex<ArenaState>,
}

struct ArenaState {
    chunks: Vec<Box<[MwcasDescriptor]>>,
    /// Slots used in the last chunk.
    used: usize,
    total: u64,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Self {
        Self { chunks: Mutex::new(ArenaState { chunks: Vec::new(), used: CHUNK, total: 0 }) }
    }

    /// Allocate a fresh descriptor initialized with `entries` given as
    /// `(word address, raw expected, raw new)` triples.
    ///
    /// The returned pointer is valid until the arena drops.
    pub(crate) fn alloc(
        &self,
        entries: &[(*const crate::word::MwcasWord, u64, u64)],
    ) -> *const MwcasDescriptor {
        assert!(entries.len() <= MAX_WORDS, "too many MWCAS entries");
        let mut st = self.chunks.lock().unwrap();
        if st.used == CHUNK {
            let chunk: Vec<MwcasDescriptor> = (0..CHUNK)
                .map(|_| MwcasDescriptor {
                    status: AtomicU64::new(UNDECIDED),
                    len: 0,
                    entries: [Entry { word: std::ptr::null(), old_raw: 0, new_raw: 0 }; MAX_WORDS],
                })
                .collect();
            st.chunks.push(chunk.into_boxed_slice());
            st.used = 0;
        }
        let idx = st.used;
        st.used += 1;
        st.total += 1;
        let chunk = st.chunks.last_mut().expect("chunk just ensured");
        let d = &mut chunk[idx];
        d.status = AtomicU64::new(UNDECIDED);
        d.len = entries.len();
        for (i, (word, old_raw, new_raw)) in entries.iter().enumerate() {
            d.entries[i] = Entry { word: *word, old_raw: *old_raw, new_raw: *new_raw };
        }
        let ptr: *const MwcasDescriptor = d;
        debug_assert_eq!(ptr as u64 >> 56, 0, "descriptor above 2^56 — unsupported platform");
        ptr
    }

    /// Number of descriptors allocated so far (memory diagnostics).
    pub fn allocated(&self) -> u64 {
        self.chunks.lock().unwrap().total
    }

    /// Bytes currently held by the arena.
    pub fn footprint_bytes(&self) -> usize {
        let st = self.chunks.lock().unwrap();
        st.chunks.len() * CHUNK * std::mem::size_of::<MwcasDescriptor>()
    }
}

impl Default for Arena {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("allocated", &self.allocated())
            .field("footprint_bytes", &self.footprint_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::MwcasWord;

    #[test]
    fn alloc_initializes_entries() {
        let arena = Arena::new();
        let w = MwcasWord::new(3);
        let d = arena.alloc(&[(&w as *const _, 12, 16)]);
        let d = unsafe { &*d };
        assert_eq!(d.len, 1);
        assert_eq!(d.entries()[0].old_raw, 12);
        assert_eq!(d.entries()[0].new_raw, 16);
        assert_eq!(d.status(), UNDECIDED);
    }

    #[test]
    fn descriptors_are_stable_across_chunk_growth() {
        let arena = Arena::new();
        let w = MwcasWord::new(0);
        let first = arena.alloc(&[(&w as *const _, 0, 4)]);
        let mut last = first;
        for _ in 0..500 {
            last = arena.alloc(&[(&w as *const _, 0, 4)]);
        }
        // The first descriptor must still be intact (chunks never move).
        let f = unsafe { &*first };
        assert_eq!(f.entries()[0].new_raw, 4);
        assert_ne!(first, last);
        assert_eq!(arena.allocated(), 501);
    }

    #[test]
    fn footprint_grows_in_chunks() {
        let arena = Arena::new();
        assert_eq!(arena.footprint_bytes(), 0);
        let w = MwcasWord::new(0);
        arena.alloc(&[(&w as *const _, 0, 4)]);
        let one_chunk = arena.footprint_bytes();
        assert!(one_chunk > 0);
        for _ in 0..63 {
            arena.alloc(&[(&w as *const _, 0, 4)]);
        }
        assert_eq!(arena.footprint_bytes(), one_chunk);
        arena.alloc(&[(&w as *const _, 0, 4)]);
        assert_eq!(arena.footprint_bytes(), 2 * one_chunk);
    }
}

//! Per-thread participation handle: allocation, retirement, pinning.

use std::cell::{Cell, RefCell};
use std::sync::atomic::Ordering::SeqCst;

use crate::block::{drop_block_payload, Block, Header, Shared, NOT_RETIRED};
use crate::domain::{Domain, Retired, RESERVATION_NONE_LOWER, RESERVATION_NONE_UPPER};
use crate::guard::Guard;

/// A thread's registration in a [`Domain`].
///
/// The handle owns one reservation slot and a private list of retired
/// blocks. It is `Send` (create it anywhere, move it into the worker thread)
/// but deliberately not `Sync`: all of its methods take `&self` with
/// single-thread interior mutability.
pub struct LocalHandle {
    domain: Domain,
    slot: usize,
    retired: RefCell<Vec<Retired>>,
    alloc_ticks: Cell<usize>,
    retire_ticks: Cell<usize>,
    pin_depth: Cell<usize>,
}

// SAFETY: `LocalHandle` is a thread-affine facade over the (Sync) domain;
// the RefCell/Cell state is only touched through `&self` on one thread at a
// time, which moving the handle preserves.
unsafe impl Send for LocalHandle {}

impl LocalHandle {
    pub(crate) fn new(domain: Domain, slot: usize) -> Self {
        Self {
            domain,
            slot,
            retired: RefCell::new(Vec::new()),
            alloc_ticks: Cell::new(0),
            retire_ticks: Cell::new(0),
            pin_depth: Cell::new(0),
        }
    }

    /// The domain this handle participates in.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The reservation slot index (stable for the handle's lifetime).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Allocate a tracked block holding `value`.
    ///
    /// The block's birth era is stamped before the pointer is returned, so
    /// publishing it through an atomic word afterwards is always covered.
    /// Memory is recycled from the domain pool when a block of the same
    /// layout is available.
    pub fn alloc<T: Send>(&self, value: T) -> Shared<T> {
        let inner = &self.domain.inner;
        let ticks = self.alloc_ticks.get() + 1;
        self.alloc_ticks.set(ticks);
        if ticks.is_multiple_of(inner.config.era_frequency) {
            inner.era.fetch_add(1, SeqCst);
        }
        inner.allocated.fetch_add(1, SeqCst);

        let layout = Block::<T>::layout();
        let recycled = inner.pool.take(layout);
        let block: *mut Block<T> = match recycled {
            Some(h) => {
                inner.recycled.fetch_add(1, SeqCst);
                h as *mut Block<T>
            }
            None => {
                // SAFETY: `layout` has nonzero size (header is nonzero).
                let raw = unsafe { std::alloc::alloc(layout) };
                if raw.is_null() {
                    std::alloc::handle_alloc_error(layout);
                }
                raw as *mut Block<T>
            }
        };

        let birth = inner.era.load(SeqCst);
        // SAFETY: `block` is uniquely ours. For a recycled block the header
        // atomics are live (type-stable memory), so the eras are stored
        // through them; `drop_fn`/`layout` are plain fields no concurrent
        // reader inspects (readers only ever load eras).
        unsafe {
            if recycled.is_some() {
                let h = block as *mut Header;
                (*h).birth_era.store(birth, SeqCst);
                (*h).retire_era.store(NOT_RETIRED, SeqCst);
                (*h).drop_fn = drop_block_payload::<T>;
                debug_assert_eq!((*h).layout, layout);
                std::ptr::write(std::ptr::addr_of_mut!((*block).value), value);
            } else {
                std::ptr::write(
                    block,
                    Block {
                        header: Header {
                            birth_era: std::sync::atomic::AtomicU64::new(birth),
                            retire_era: std::sync::atomic::AtomicU64::new(NOT_RETIRED),
                            drop_fn: drop_block_payload::<T>,
                            layout,
                        },
                        value,
                    },
                );
            }
        }
        Shared::from_block(block)
    }

    /// Retire an unlinked block: its payload will be dropped and its memory
    /// recycled once no reservation can still be reading it.
    ///
    /// # Safety
    /// `shared` must be non-null, must have been produced by [`alloc`] on
    /// this domain, must already be unreachable from every shared word, and
    /// must be retired exactly once.
    ///
    /// [`alloc`]: LocalHandle::alloc
    pub unsafe fn retire<T>(&self, shared: Shared<T>) {
        debug_assert!(!shared.is_null(), "retiring the null token");
        let inner = &self.domain.inner;
        let header = shared.header();
        let retire = inner.era.load(SeqCst);
        // SAFETY: header of a block from this domain; we own the retirement.
        let birth = unsafe { (*header).birth_era.load(SeqCst) };
        unsafe { (*header).retire_era.store(retire, SeqCst) };
        inner.retired_pending.fetch_add(1, SeqCst);
        self.retired.borrow_mut().push(Retired { header, birth, retire });

        let ticks = self.retire_ticks.get() + 1;
        self.retire_ticks.set(ticks);
        if ticks.is_multiple_of(inner.config.empty_frequency) {
            self.try_reclaim();
        }
    }

    /// Sweep this handle's retired list (and any orphans, opportunistically),
    /// reclaiming every block no reservation protects. Called automatically
    /// every `empty_frequency` retires.
    pub fn try_reclaim(&self) {
        let inner = &self.domain.inner;
        inner.sweep(&mut self.retired.borrow_mut());
        if let Ok(mut orphans) = inner.orphans.try_lock() {
            inner.sweep(&mut orphans);
        }
    }

    /// Number of blocks this handle has retired but not yet reclaimed.
    pub fn retired_pending(&self) -> usize {
        self.retired.borrow().len()
    }

    /// Pin the thread: publish a reservation covering the current era and
    /// return a [`Guard`] whose protected reads keep it raised.
    ///
    /// Pins nest; the reservation is published by the outermost pin and
    /// withdrawn when the outermost guard drops.
    pub fn pin(&self) -> Guard<'_> {
        let depth = self.pin_depth.get();
        self.pin_depth.set(depth + 1);
        if depth == 0 {
            let inner = &self.domain.inner;
            let era = inner.era.load(SeqCst);
            let r = &inner.reservations[self.slot];
            r.lower.store(era, SeqCst);
            r.upper.store(era, SeqCst);
        }
        Guard::new(self)
    }

    pub(crate) fn unpin(&self) {
        let depth = self.pin_depth.get();
        debug_assert!(depth > 0, "unpin without pin");
        self.pin_depth.set(depth - 1);
        if depth == 1 {
            let r = &self.domain.inner.reservations[self.slot];
            r.lower.store(RESERVATION_NONE_LOWER, SeqCst);
            r.upper.store(RESERVATION_NONE_UPPER, SeqCst);
        }
    }

    pub(crate) fn reservation(&self) -> &crate::domain::Reservation {
        &self.domain.inner.reservations[self.slot]
    }

    /// Is the thread currently pinned?
    fn is_pinned(&self) -> bool {
        self.pin_depth.get() > 0
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        debug_assert_eq!(self.pin_depth.get(), 0, "handle dropped while pinned");
        // One last sweep with our reservation already irrelevant, then hand
        // the stragglers to the domain.
        self.try_reclaim();
        let leftovers = std::mem::take(&mut *self.retired.borrow_mut());
        if !leftovers.is_empty() {
            self.domain.inner.orphans.lock().unwrap().extend(leftovers);
        }
        let r = &self.domain.inner.reservations[self.slot];
        r.lower.store(RESERVATION_NONE_LOWER, SeqCst);
        r.upper.store(RESERVATION_NONE_UPPER, SeqCst);
        r.claimed.store(0, SeqCst);
    }
}

impl std::fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHandle")
            .field("slot", &self.slot)
            .field("retired_pending", &self.retired_pending())
            .field("pinned", &self.is_pinned())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainConfig;

    #[test]
    fn alloc_stamps_birth_era() {
        let d = Domain::new();
        let h = d.register();
        let s = h.alloc(123u64);
        assert!(s.birth_era() >= 1);
        assert_eq!(unsafe { *s.deref() }, 123);
        unsafe { h.retire(s) };
    }

    #[test]
    fn era_advances_with_allocation_frequency() {
        let d = Domain::with_config(DomainConfig { era_frequency: 4, ..Default::default() });
        let h = d.register();
        let e0 = d.era();
        let mut blocks = Vec::new();
        for i in 0..16u64 {
            blocks.push(h.alloc(i));
        }
        assert_eq!(d.era(), e0 + 4);
        for b in blocks {
            unsafe { h.retire(b) };
        }
    }

    #[test]
    fn unprotected_retire_reclaims_and_recycles() {
        let d = Domain::with_config(DomainConfig { empty_frequency: 1, ..Default::default() });
        let h = d.register();
        let a = h.alloc(vec![1u64, 2, 3]);
        unsafe { h.retire(a) };
        assert_eq!(h.retired_pending(), 0, "nothing protects the block");
        let stats = d.stats();
        assert_eq!(stats.reclaimed, 1);
        // Next allocation of the same layout reuses the block.
        let b = h.alloc(vec![9u64]);
        assert_eq!(d.stats().recycled, 1);
        unsafe { h.retire(b) };
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let d = Domain::with_config(DomainConfig { empty_frequency: 1, ..Default::default() });
        let writer = d.register();
        let reader = d.register();

        let guard = reader.pin();
        let a = writer.alloc(7u64);
        // The reader's reservation [e, e] with the block's lifespan [e, e']
        // intersects, so the block must survive the sweep.
        unsafe { writer.retire(a) };
        assert_eq!(writer.retired_pending(), 1, "guard must protect the block");
        assert_eq!(unsafe { *a.deref() }, 7);

        drop(guard);
        writer.try_reclaim();
        assert_eq!(writer.retired_pending(), 0);
    }

    #[test]
    fn nested_pins_keep_reservation_until_outermost_drop() {
        let d = Domain::new();
        let h = d.register();
        let g1 = h.pin();
        let g2 = h.pin();
        assert!(h.is_pinned());
        drop(g1);
        assert!(h.is_pinned(), "inner pin still active");
        drop(g2);
        assert!(!h.is_pinned());
    }

    #[test]
    fn dropped_handle_orphans_then_domain_reclaims() {
        let d = Domain::with_config(DomainConfig { empty_frequency: 1000, ..Default::default() });
        let blocker = d.register();
        let guard = blocker.pin();

        let h = d.register();
        let a = h.alloc(1u64);
        unsafe { h.retire(a) };
        drop(h); // retired block is protected by `guard`, goes to orphans

        drop(guard);
        d.reclaim_orphans();
        assert_eq!(d.stats().retired_pending, 0);
    }

    #[test]
    fn drop_glue_runs_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Tally(#[allow(dead_code)] u64);
        impl Drop for Tally {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let d = Domain::with_config(DomainConfig { empty_frequency: 1, ..Default::default() });
        let h = d.register();
        let a = h.alloc(Tally(5));
        unsafe { h.retire(a) };
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
        drop(h);
        drop(d);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1, "no double drop at teardown");
    }

    #[test]
    fn unretired_blocks_leak_by_design_but_domain_teardown_is_clean() {
        // Blocks never retired are the caller's responsibility (they are
        // still "linked" as far as the domain knows). This test just checks
        // teardown with retired-but-protected orphans does not crash.
        let d = Domain::new();
        let h = d.register();
        let a = h.alloc(vec![0u8; 64]);
        unsafe { h.retire(a) };
        drop(h);
        drop(d);
    }
}

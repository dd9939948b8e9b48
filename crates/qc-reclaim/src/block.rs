//! Tracked block layout: a header (eras + drop glue) followed by the payload.

use std::alloc::Layout;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Era value meaning "not yet retired".
pub(crate) const NOT_RETIRED: u64 = u64::MAX;

/// Header prepended to every tracked allocation.
///
/// `birth_era` / `retire_era` are atomics because IBR readers inspect the
/// header of blocks they have not yet validated — a recycled block's header
/// may be written concurrently by the allocating thread, and that race must
/// be a benign stale read rather than UB.
#[repr(C)]
pub(crate) struct Header {
    pub(crate) birth_era: AtomicU64,
    pub(crate) retire_era: AtomicU64,
    /// Drops the payload in place. Rewritten on every (re)allocation because
    /// the pool recycles blocks across payload types of identical layout.
    pub(crate) drop_fn: unsafe fn(*mut Header),
    /// Layout of the whole block (header + payload), used by the pool and
    /// the final deallocation at domain teardown.
    pub(crate) layout: Layout,
}

/// A block: header followed by payload, `repr(C)` so the block address and
/// the header address coincide.
#[repr(C)]
pub(crate) struct Block<T> {
    pub(crate) header: Header,
    pub(crate) value: T,
}

impl<T> Block<T> {
    pub(crate) fn layout() -> Layout {
        Layout::new::<Block<T>>()
    }
}

/// Monomorphized payload-drop glue stored in each header.
pub(crate) unsafe fn drop_block_payload<T>(h: *mut Header) {
    let block = h as *mut Block<T>;
    // SAFETY: caller guarantees the block currently holds a live `T` and
    // nobody else will access it again.
    unsafe { std::ptr::drop_in_place(std::ptr::addr_of_mut!((*block).value)) };
}

/// A copyable token for a tracked, shared allocation of `T`.
///
/// `Shared` is just a tagged raw pointer: it implements `Copy` and can be
/// stowed in an `AtomicU64` via [`Shared::into_raw`] / [`Shared::from_raw`].
/// All dereferencing is `unsafe` and must happen either under a validated
/// [`crate::Guard`] or with exclusive structural access (e.g. the thread
/// that owns a level during propagation).
pub struct Shared<T> {
    ptr: *mut Block<T>,
    _marker: PhantomData<*mut T>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<T> {}

// SAFETY: `Shared` is a pointer-sized token; the safety obligations are on
// the unsafe dereference sites, not on moving the token between threads.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send + Sync> Sync for Shared<T> {}

impl<T> Shared<T> {
    pub(crate) fn from_block(ptr: *mut Block<T>) -> Self {
        Self { ptr, _marker: PhantomData }
    }

    pub(crate) fn header(self) -> *mut Header {
        self.ptr as *mut Header
    }

    /// The block address as a raw `u64` (non-zero, 8-byte aligned), suitable
    /// for storage in an atomic word. The null pointer maps to 0.
    pub fn into_raw(self) -> u64 {
        self.ptr as u64
    }

    /// Rebuild a token from [`Shared::into_raw`] output.
    ///
    /// # Safety
    /// `raw` must be 0 or a value previously produced by `into_raw` on a
    /// block of the same payload type `T` (from any domain).
    pub unsafe fn from_raw(raw: u64) -> Self {
        Self { ptr: raw as *mut Block<T>, _marker: PhantomData }
    }

    /// Is this the null token?
    pub fn is_null(self) -> bool {
        self.ptr.is_null()
    }

    /// The null token (raw value 0).
    pub fn null() -> Self {
        Self { ptr: std::ptr::null_mut(), _marker: PhantomData }
    }

    /// Read the payload.
    ///
    /// # Safety
    /// The token must be non-null and the block must be protected by a
    /// validated guard of its domain (or be structurally private to the
    /// caller), and must not have been retired-and-reclaimed.
    pub unsafe fn deref<'a>(self) -> &'a T {
        debug_assert!(!self.ptr.is_null());
        // SAFETY: per the function contract.
        unsafe { &(*self.ptr).value }
    }

    /// Mutable access to the payload.
    ///
    /// # Safety
    /// As [`Shared::deref`], plus the caller must be the unique accessor.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn deref_mut<'a>(self) -> &'a mut T {
        debug_assert!(!self.ptr.is_null());
        // SAFETY: per the function contract.
        unsafe { &mut (*self.ptr).value }
    }

    /// Birth era stamped at allocation.
    pub fn birth_era(self) -> u64 {
        debug_assert!(!self.ptr.is_null());
        // SAFETY: header is always readable for live-or-pooled blocks of a
        // live domain (type-stable memory).
        unsafe { (*self.header()).birth_era.load(Ordering::Acquire) }
    }
}

impl<T> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shared({:p})", self.ptr)
    }
}

impl<T> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ptr == other.ptr
    }
}
impl<T> Eq for Shared<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_at_block_start() {
        // repr(C) guarantees this; the pool and the reader protocol rely on it.
        assert_eq!(std::mem::offset_of!(Block<u64>, header), 0);
    }

    #[test]
    fn block_alignment_leaves_low_bits_free() {
        // MWCAS tags live in the low 2 bits of word values; block addresses
        // must therefore be at least 8-byte aligned.
        assert!(Block::<u8>::layout().align() >= 8);
        assert!(Block::<Vec<u64>>::layout().align() >= 8);
    }

    #[test]
    fn null_token_roundtrip() {
        let n = Shared::<String>::null();
        assert!(n.is_null());
        assert_eq!(n.into_raw(), 0);
        let back = unsafe { Shared::<String>::from_raw(0) };
        assert!(back.is_null());
    }
}

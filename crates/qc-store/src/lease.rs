//! A long-lived writer's cache of [`WriterLease`]s, one per recently
//! written key.
//!
//! The paper's update threads keep one local buffer each; a serving
//! thread that writes many batches to the same hot keys (a TCP
//! connection, a UDP ingest processor) gets the same discipline by
//! holding a lease per key across calls, so N such threads hammering one
//! hot key synchronize inside the sketch (Gather&Sort/DCAS), not on a
//! store mutex. The store re-validates a lease's generation on every use,
//! so `remove`, demotion, or a window roll mid-stream just sends the next
//! write down the plain path.

use std::collections::HashMap;

use qc_common::bits::OrderedBits;

use crate::store::{SketchStore, WriterLease};

/// A cached lease goes back to its key's pool after sitting unused for
/// this many [`LeaseCache::tick`]s — a writer that drifts across many
/// keys must not pin a pool slot on every one of them forever.
pub const LEASE_IDLE_TICKS: u64 = 4096;

/// Ticks between idle-lease sweeps of a cache.
const LEASE_SWEEP_INTERVAL: u64 = 512;

/// One writer thread's leases, each tagged with the tick of its last use.
///
/// Dropping the cache returns every lease to its key's pool (a
/// [`WriterLease`] hands its handle back on drop), so other writers can
/// reuse the handles instead of waiting for the next housekeeping sweep.
pub struct LeaseCache<T: OrderedBits = f64> {
    leases: HashMap<String, (WriterLease<T>, u64)>,
    tick: u64,
}

impl<T: OrderedBits> Default for LeaseCache<T> {
    fn default() -> Self {
        LeaseCache { leases: HashMap::new(), tick: 0 }
    }
}

impl<T: OrderedBits> LeaseCache<T> {
    /// Write a batch for `key`: through the cached lease when it is still
    /// valid, else through [`SketchStore::update_many`] — acquiring a
    /// lease for next time when the key's engine hands one out. On a
    /// durable store the call returns once the batch is durable under the
    /// store's fsync policy, like any other write.
    ///
    /// Returns whether a cached lease had gone **stale** (the key was
    /// removed, demoted, rolled, or re-created since it was minted) and
    /// the write fell back; the rejected lease held no weight.
    pub fn write(&mut self, store: &SketchStore<T>, key: &str, values: &[T]) -> bool {
        let mut stale = false;
        if let Some((lease, used)) = self.leases.get_mut(key) {
            if store.update_many_leased(key, lease, values).is_ok() {
                *used = self.tick;
                return false;
            }
            self.leases.remove(key);
            stale = true;
        }
        store.update_many(key, values);
        if let Some(lease) = store.lease_writer(key) {
            self.leases.insert(key.to_owned(), (lease, self.tick));
        }
        stale
    }

    /// Advance the cache's clock by one unit of the caller's work (a
    /// frame, a datagram); every so often, return leases that sat idle
    /// past [`LEASE_IDLE_TICKS`] to their pools.
    pub fn tick(&mut self) {
        self.tick += 1;
        if self.tick.is_multiple_of(LEASE_SWEEP_INTERVAL) {
            let now = self.tick;
            self.leases.retain(|_, (_, used)| now.saturating_sub(*used) <= LEASE_IDLE_TICKS);
        }
    }

    /// Drop the lease cached for `key`, if any — after the caller removed
    /// the key, say: the generation check would reject the lease anyway,
    /// but dropping it promptly frees its pool slot.
    pub fn forget(&mut self, key: &str) {
        self.leases.remove(key);
    }
}

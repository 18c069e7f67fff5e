//! The GPU kernel-row buffer of §3.3.1.
//!
//! A pre-allocated region of device memory holding up to `capacity` full
//! rows of the kernel matrix. Batches of `q` rows are inserted together and
//! evicted together (first-in-first-out batch replacement, the paper's
//! choice); an LRU row-granular policy is included for the ablation the
//! paper declares out of scope ("finding the best strategy for replacement
//! is out of the scope of this paper").
//!
//! [`KernelBuffer::fill`] is the one working-set row fill: the row
//! providers differ only in the launch that computes its misses.

use gmp_gpusim::{Device, DeviceAlloc, DeviceError};
use gmp_sparse::DenseMatrix;
use std::collections::VecDeque;

/// Marks an id without a slot and a slot without an id.
const FREE: usize = usize::MAX;

/// Row replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Evict whole insertion batches, oldest first (the paper's policy).
    FifoBatch,
    /// Evict individual least-recently-used rows (ablation alternative).
    Lru,
}

/// Hit/miss/eviction counters for a buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// `get` calls that found the row resident.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Rows evicted to make room.
    pub evictions: u64,
    /// Rows inserted.
    pub insertions: u64,
}

impl BufferStats {
    /// Hit rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A capacity-bounded store of kernel-matrix rows (each `width` wide).
///
/// Storage is a flat `capacity x width` block claimed from the simulated
/// device up front — mirroring the paper's pre-allocated GPU buffer.
pub struct KernelBuffer {
    width: usize,
    capacity: usize,
    storage: Vec<f64>,
    /// instance id -> slot (`FREE` = not resident): a dense table grown to
    /// the largest id seen, so a lookup is one index, not a hash.
    slot_of: Vec<usize>,
    /// slot -> instance id (`FREE` = free slot)
    id_of: Vec<usize>,
    /// Per-slot pin marks, set for the duration of one `insert_batch`.
    pinned: Vec<bool>,
    free_slots: Vec<usize>,
    /// FIFO of insertion batches (ids may have been evicted individually
    /// by pinning; stale entries are skipped).
    batches: VecDeque<Vec<usize>>,
    /// Retired batch vectors, recycled by `insert_batch` so the steady
    /// state never allocates.
    batch_pool: Vec<Vec<usize>>,
    /// Scratch for fully-pinned batches held aside during eviction.
    held: Vec<Vec<usize>>,
    /// LRU clock: slot -> last-touch tick (kept under `Lru` only).
    last_used: Vec<u64>,
    tick: u64,
    policy: ReplacementPolicy,
    stats: BufferStats,
    // Reused `fill` scratch: the misses and the launch's output block.
    // Once grown to working-set size, steady-state fills perform no heap
    // allocation.
    missing: Vec<usize>,
    block: DenseMatrix,
    _device_mem: Option<DeviceAlloc>,
}

impl KernelBuffer {
    /// Create a buffer of `capacity` rows of `width` values, claiming the
    /// storage from `device` when given (fails if the device is out of
    /// memory — the constraint that bounds buffer size in practice).
    pub fn new(
        capacity: usize,
        width: usize,
        policy: ReplacementPolicy,
        device: Option<&Device>,
    ) -> Result<Self, DeviceError> {
        assert!(capacity > 0, "buffer capacity must be positive");
        let bytes = (capacity * width * std::mem::size_of::<f64>()) as u64;
        let device_mem = match device {
            Some(d) => Some(d.alloc(bytes)?),
            None => None,
        };
        Ok(KernelBuffer {
            width,
            capacity,
            storage: vec![0.0; capacity * width],
            slot_of: Vec::new(),
            id_of: vec![FREE; capacity],
            pinned: vec![false; capacity],
            free_slots: (0..capacity).rev().collect(),
            batches: VecDeque::new(),
            batch_pool: Vec::new(),
            held: Vec::new(),
            last_used: vec![0; capacity],
            tick: 0,
            policy,
            stats: BufferStats::default(),
            missing: Vec::new(),
            block: DenseMatrix::zeros(0, 0),
            _device_mem: device_mem,
        })
    }

    /// Rows currently resident.
    pub fn len(&self) -> usize {
        self.capacity - self.free_slots.len()
    }

    /// True when no rows are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters snapshot.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Is the row for instance `id` resident (no stat/LRU side effects)?
    pub fn contains(&self, id: usize) -> bool {
        self.slot(id).is_some()
    }

    /// The slot holding `id`, if resident.
    #[inline]
    fn slot(&self, id: usize) -> Option<usize> {
        self.slot_of.get(id).copied().filter(|&s| s != FREE)
    }

    /// Look up the row for instance `id`, counting a hit or miss and
    /// touching the LRU clock.
    pub fn get(&mut self, id: usize) -> Option<&[f64]> {
        let Some(slot) = self.slot(id) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.stamp(slot);
        Some(&self.storage[slot * self.width..(slot + 1) * self.width])
    }

    /// Record a use of the row in `slot` on the LRU clock; FIFO batches
    /// need no clock.
    fn stamp(&mut self, slot: usize) {
        if self.policy == ReplacementPolicy::Lru {
            self.tick += 1;
            self.last_used[slot] = self.tick;
        }
    }

    /// Make the rows for `ids` resident ([`crate::KernelRows::ensure`]'s
    /// contract). Per capacity-sized sub-batch: count hits and misses, pin
    /// the sub-batch, insert its misses as one batch, call `launch(misses,
    /// block)` once to compute them into a reused `misses x width` block,
    /// and copy them into their slots.
    pub fn fill(&mut self, ids: &[usize], mut launch: impl FnMut(&[usize], &mut DenseMatrix)) {
        for chunk in ids.chunks(self.capacity) {
            let mut missing = std::mem::take(&mut self.missing);
            missing.clear();
            missing.extend(chunk.iter().copied().filter(|&id| self.get(id).is_none()));
            if !missing.is_empty() {
                // Pin the whole sub-batch: making room must not evict rows
                // the solver is about to use.
                self.insert_batch(&missing, chunk);
                // One batched launch for all missing rows (§3.3.1).
                self.block.reset(missing.len(), self.width);
                launch(&missing, &mut self.block);
                for (bi, &id) in missing.iter().enumerate() {
                    let slot = self.slot_of[id];
                    self.storage[slot * self.width..(slot + 1) * self.width]
                        .copy_from_slice(self.block.row(bi));
                }
            }
            self.missing = missing;
        }
    }

    /// Borrow a resident row without stat side effects.
    ///
    /// # Panics
    /// Panics if the row is not resident.
    pub fn row(&self, id: usize) -> &[f64] {
        let slot = self
            .slot(id)
            // gmp:allow-panic — documented `# Panics` contract of row
            .unwrap_or_else(|| panic!("row {id} not resident in kernel buffer"));
        &self.storage[slot * self.width..(slot + 1) * self.width]
    }

    /// Mutably borrow a resident row (to fill it after insertion).
    ///
    /// # Panics
    /// Panics if the row is not resident.
    pub fn row_mut(&mut self, id: usize) -> &mut [f64] {
        let slot = self
            .slot(id)
            // gmp:allow-panic — documented `# Panics` contract of row_mut
            .unwrap_or_else(|| panic!("row {id} not resident in kernel buffer"));
        &mut self.storage[slot * self.width..(slot + 1) * self.width]
    }

    /// Insert a batch of rows (contents filled afterwards via
    /// [`KernelBuffer::row_mut`]), evicting per the policy as needed.
    ///
    /// Rows whose id is in `pinned` are never evicted — the solver pins its
    /// current working set so that making room for new violators cannot
    /// invalidate rows it is about to use.
    ///
    /// # Panics
    /// Panics if `ids.len()` plus the number of pinned resident rows
    /// exceeds capacity, or if any id in `ids` is already resident.
    pub fn insert_batch(&mut self, ids: &[usize], pinned: &[usize]) {
        assert!(
            ids.len() <= self.capacity,
            "batch of {} exceeds buffer capacity {}",
            ids.len(),
            self.capacity
        );
        for &id in ids {
            assert!(!self.contains(id), "row {id} already resident");
        }
        let pinned_resident = pinned.iter().filter(|&&p| self.contains(p)).count();
        assert!(
            pinned_resident + ids.len() <= self.capacity,
            "pinned rows ({pinned_resident}) + batch ({}) exceed capacity {}",
            ids.len(),
            self.capacity
        );
        self.mark_pinned(pinned, true);
        while self.free_slots.len() < ids.len() {
            self.evict_some();
        }
        self.mark_pinned(pinned, false);
        if let Some(&max_id) = ids.iter().max() {
            if max_id >= self.slot_of.len() {
                self.slot_of.resize(max_id + 1, FREE);
            }
        }
        for &id in ids {
            // gmp:allow-panic — the eviction loop above guarantees a free slot
            let slot = self.free_slots.pop().expect("free slot");
            self.slot_of[id] = slot;
            self.id_of[slot] = id;
            self.stamp(slot);
            self.stats.insertions += 1;
        }
        let mut batch = self.batch_pool.pop().unwrap_or_default();
        batch.clear();
        batch.extend_from_slice(ids);
        self.batches.push_back(batch);
        self.audit_accounting();
    }

    /// `debug-invariants` audit: the slot ledger is exact — every slot is
    /// either owned by exactly one resident row or free, and the forward
    /// (`slot_of`) and reverse (`id_of`) maps agree. Compiled out unless
    /// the `debug-invariants` feature is on.
    fn audit_accounting(&self) {
        gmp_sync::audit!({
            let resident = self.slot_of.iter().filter(|&&s| s != FREE).count();
            assert_eq!(
                resident + self.free_slots.len(),
                self.capacity,
                "kernel buffer slot ledger out of balance: {} resident + {} free != {} slots",
                resident,
                self.free_slots.len(),
                self.capacity
            );
            for (id, &slot) in self.slot_of.iter().enumerate().filter(|&(_, &s)| s != FREE) {
                assert_eq!(
                    self.id_of[slot], id,
                    "reverse map disagrees at slot {slot}: slot_of says row {id}"
                );
            }
            for &slot in &self.free_slots {
                assert_eq!(
                    self.id_of[slot], FREE,
                    "free slot {slot} still claims a row id"
                );
            }
        });
    }

    /// Set or clear the pin marks of the resident rows among `ids`.
    fn mark_pinned(&mut self, ids: &[usize], on: bool) {
        for &id in ids {
            if let Some(slot) = self.slot(id) {
                self.pinned[slot] = on;
            }
        }
    }

    /// Evict per the policy, sparing the slots `insert_batch` pinned.
    fn evict_some(&mut self) {
        match self.policy {
            ReplacementPolicy::FifoBatch => {
                // Pop oldest batches, evicting their still-resident unpinned
                // rows, until something was freed. Batches whose rows are
                // all pinned are held aside (NOT re-examined this call) and
                // put back at the front afterwards so they stay oldest.
                // Batch vectors are filtered in place and recycled through
                // `batch_pool` to keep this path allocation-free.
                debug_assert!(self.held.is_empty());
                let mut evicted_any = false;
                while !evicted_any {
                    let Some(mut batch) = self.batches.pop_front() else {
                        // gmp:allow-panic — documented failure mode: the caller pinned every resident row
                        panic!("buffer full of pinned rows: eviction impossible");
                    };
                    batch.retain(|&id| {
                        let Some(slot) = self.slot(id) else {
                            return false; // already evicted (stale entry)
                        };
                        if self.pinned[slot] {
                            return true;
                        }
                        self.evict_slot(slot);
                        evicted_any = true;
                        false
                    });
                    if batch.is_empty() {
                        self.batch_pool.push(batch);
                    } else {
                        self.held.push(batch);
                    }
                }
                while let Some(batch) = self.held.pop() {
                    self.batches.push_front(batch);
                }
                self.audit_accounting();
            }
            ReplacementPolicy::Lru => {
                // Ticks are unique (every insert and hit stamps), so the
                // victim does not depend on the scan order.
                let victim = (0..self.capacity)
                    .filter(|&slot| self.id_of[slot] != FREE && !self.pinned[slot])
                    .min_by_key(|&slot| self.last_used[slot])
                    // gmp:allow-panic — documented failure mode: the caller pinned every resident row
                    .expect("buffer full of pinned rows: eviction impossible");
                self.evict_slot(victim);
            }
        }
    }

    fn evict_slot(&mut self, slot: usize) {
        self.slot_of[self.id_of[slot]] = FREE;
        self.id_of[slot] = FREE;
        self.free_slots.push(slot);
        self.stats.evictions += 1;
    }

    /// Drop all resident rows (statistics are preserved).
    pub fn clear(&mut self) {
        self.slot_of.fill(FREE);
        while let Some(mut batch) = self.batches.pop_front() {
            batch.clear();
            self.batch_pool.push(batch);
        }
        self.id_of.fill(FREE);
        self.free_slots.clear();
        self.free_slots.extend((0..self.capacity).rev());
        self.audit_accounting();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_gpusim::DeviceConfig;

    fn buf(cap: usize, policy: ReplacementPolicy) -> KernelBuffer {
        KernelBuffer::new(cap, 4, policy, None).unwrap()
    }

    fn fill(b: &mut KernelBuffer, id: usize, v: f64) {
        b.row_mut(id).fill(v);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut b = buf(4, ReplacementPolicy::FifoBatch);
        b.insert_batch(&[7, 9], &[]);
        fill(&mut b, 7, 1.5);
        fill(&mut b, 9, 2.5);
        assert_eq!(b.get(7).unwrap(), &[1.5; 4]);
        assert_eq!(b.get(9).unwrap(), &[2.5; 4]);
        assert_eq!(b.len(), 2);
        let s = b.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (2, 0, 2));
    }

    #[test]
    fn miss_is_counted() {
        let mut b = buf(2, ReplacementPolicy::FifoBatch);
        assert!(b.get(1).is_none());
        assert_eq!(b.stats().misses, 1);
        assert_eq!(b.stats().hit_rate(), 0.0);
    }

    #[test]
    fn fifo_evicts_oldest_batch() {
        let mut b = buf(4, ReplacementPolicy::FifoBatch);
        b.insert_batch(&[1, 2], &[]);
        b.insert_batch(&[3, 4], &[]);
        b.insert_batch(&[5, 6], &[]); // evicts batch {1,2}
        assert!(!b.contains(1));
        assert!(!b.contains(2));
        assert!(b.contains(3) && b.contains(4) && b.contains(5) && b.contains(6));
        assert_eq!(b.stats().evictions, 2);
    }

    #[test]
    fn fifo_skips_pinned_rows() {
        let mut b = buf(4, ReplacementPolicy::FifoBatch);
        b.insert_batch(&[1, 2], &[]);
        b.insert_batch(&[3, 4], &[]);
        // Pin 1: evicting the oldest batch must spare it.
        b.insert_batch(&[5], &[1]);
        assert!(b.contains(1));
        assert!(!b.contains(2));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut b = buf(3, ReplacementPolicy::Lru);
        b.insert_batch(&[1], &[]);
        b.insert_batch(&[2], &[]);
        b.insert_batch(&[3], &[]);
        let _ = b.get(1); // touch 1; LRU victim becomes 2
        b.insert_batch(&[4], &[]);
        assert!(b.contains(1));
        assert!(!b.contains(2));
    }

    #[test]
    fn device_memory_is_claimed_and_released() {
        let dev = Device::new(DeviceConfig::tiny_test(1024));
        {
            let b = KernelBuffer::new(4, 8, ReplacementPolicy::FifoBatch, Some(&dev)).unwrap();
            assert_eq!(dev.mem_used(), 4 * 8 * 8);
            drop(b);
        }
        assert_eq!(dev.mem_used(), 0);
    }

    #[test]
    fn oversized_buffer_fails_on_device() {
        let dev = Device::new(DeviceConfig::tiny_test(100));
        let err = KernelBuffer::new(4, 8, ReplacementPolicy::FifoBatch, Some(&dev));
        assert!(matches!(err, Err(DeviceError::OutOfMemory { .. })));
    }

    #[test]
    #[should_panic(expected = "exceeds buffer capacity")]
    fn batch_larger_than_capacity_panics() {
        let mut b = buf(2, ReplacementPolicy::FifoBatch);
        b.insert_batch(&[1, 2, 3], &[]);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut b = buf(4, ReplacementPolicy::FifoBatch);
        b.insert_batch(&[1], &[]);
        b.insert_batch(&[1], &[]);
    }

    #[test]
    fn clear_resets_contents_not_stats() {
        let mut b = buf(2, ReplacementPolicy::FifoBatch);
        b.insert_batch(&[1, 2], &[]);
        let _ = b.get(1);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.stats().hits, 1);
        b.insert_batch(&[3, 4], &[]);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn rows_are_isolated() {
        let mut b = buf(3, ReplacementPolicy::FifoBatch);
        b.insert_batch(&[10, 20, 30], &[]);
        fill(&mut b, 10, 1.0);
        fill(&mut b, 20, 2.0);
        fill(&mut b, 30, 3.0);
        assert_eq!(b.row(10), &[1.0; 4]);
        assert_eq!(b.row(20), &[2.0; 4]);
        assert_eq!(b.row(30), &[3.0; 4]);
    }

    #[test]
    fn slot_reuse_after_eviction() {
        let mut b = buf(2, ReplacementPolicy::FifoBatch);
        b.insert_batch(&[1, 2], &[]);
        fill(&mut b, 1, 1.0);
        b.insert_batch(&[3], &[]); // evicts batch {1,2}
        fill(&mut b, 3, 3.0);
        assert_eq!(b.row(3), &[3.0; 4]);
        assert!(!b.contains(1));
        assert_eq!(b.len(), 1);
    }
}

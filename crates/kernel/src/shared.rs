//! MP-SVM-level kernel value sharing (§3.3.2, Fig. 3).
//!
//! The training data is arranged class-contiguously. A kernel row of
//! instance `i` restricted to the columns of class `c` is a *segment*
//! `(i, c)`; binary problem `(s, t)` needs segments `(i, s)` and `(i, t)`
//! for each of its working-set instances `i`. Because instance `i` (of
//! class `s`) participates in `k-1` binary problems, its segment `(i, s)`
//! computed once is reused by all of them — the paper's reduction of the
//! 12 kernel blocks of Fig. 3a to the 9 of Fig. 3b generalized to any `k`.
//!
//! [`SharedKernelStore`] owns the segments (device-memory accounted, FIFO
//! eviction); [`SharedRows`] is the per-problem [`KernelRows`] view that
//! assembles `(s, t)` rows from segments. Like every working-set row, an
//! assembled row lives in the problem's §3.3.1 FIFO-batch [`KernelBuffer`];
//! the store is where that buffer's misses come from.
//!
//! # Concurrency
//!
//! The store is safe to share (`Arc`) between binary problems solved on
//! concurrent host threads. The segment map is split into `N_SHARDS`
//! independently locked shards so problems touching different instances
//! never contend, and segment computation is **single-flight**: the first
//! requester of a missing segment installs a `Pending` marker and computes
//! it; concurrent requesters of the same segment block on the shard's
//! condition variable until the value is published, instead of computing
//! it a second time. Kernel-evaluation counts under `N` threads therefore
//! equal the sequential counts exactly (absent eviction pressure).
//!
//! Lock ordering: the eviction bookkeeping lock is always acquired
//! *before* any shard lock, and no thread ever takes the eviction lock
//! while holding a shard lock — so the pair cannot deadlock. An owner whose
//! launch panics removes its `Pending` markers and wakes their waiters
//! before the panic propagates; the waiters then compute those segments
//! themselves, so a panicking owner never strands another thread.
//!
//! Locks and condvars go through the `gmp-sync` shim, so under
//! `--features loom` the single-flight protocol is exhaustively
//! model-checked (see `tests/loom_shared.rs`). The statistics cell stays on
//! plain `std` atomics on purpose: the counters are monotone telemetry read
//! at quiescence, and keeping them outside the model keeps the explored
//! state space focused on the lock/condvar protocol.

use crate::buffer::{KernelBuffer, ReplacementPolicy};
use crate::oracle::KernelOracle;
use crate::rows::{KernelRows, RowProviderStats};
use gmp_gpusim::{Device, DeviceAlloc, DeviceError, Executor};
use gmp_sparse::DenseMatrix;
use gmp_sync::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independently locked segment-map shards.
const N_SHARDS: usize = 16;

/// Class-contiguous layout of a grouped dataset: class `c` occupies global
/// row indices `offsets[c]..offsets[c+1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassLayout {
    offsets: Vec<usize>,
}

impl ClassLayout {
    /// Build from per-class offsets (length `k + 1`, non-decreasing,
    /// starting at 0).
    pub fn new(offsets: Vec<usize>) -> Self {
        assert!(offsets.len() >= 2, "need at least one class");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be sorted"
        );
        ClassLayout { offsets }
    }

    /// Number of classes.
    pub fn k(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of instances.
    pub fn n(&self) -> usize {
        // `offsets` has at least two entries (checked in `new`).
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Global row range of class `c`.
    pub fn class_range(&self, c: usize) -> std::ops::Range<usize> {
        self.offsets[c]..self.offsets[c + 1]
    }

    /// Number of instances of class `c`.
    pub fn class_size(&self, c: usize) -> usize {
        self.offsets[c + 1] - self.offsets[c]
    }

    /// Size of binary problem `(s, t)`.
    pub fn pair_size(&self, s: usize, t: usize) -> usize {
        self.class_size(s) + self.class_size(t)
    }
}

/// Statistics of the shared store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStoreStats {
    /// Segments computed (each is one batched-launch participant).
    pub segments_computed: u64,
    /// Segment requests served from the store (including waits on a
    /// concurrent computation of the same segment).
    pub segment_hits: u64,
    /// Kernel evaluations avoided thanks to hits (sum of hit widths).
    pub evals_saved: u64,
    /// Segments evicted.
    pub evictions: u64,
}

/// Per-call outcome of [`SharedKernelStore::fetch_pair_rows`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Segments computed by this call.
    pub computed: u64,
    /// Segments served from the store (ready hits + single-flight waits).
    pub hits: u64,
    /// Kernel values computed by this call (owner-attributed: a value
    /// another problem later reuses is counted here, once, and never by
    /// the reuser).
    pub evals: u64,
}

/// A segment slot: being computed by some thread, or ready for copying.
#[derive(Clone)]
enum SegState {
    /// A thread is computing this segment; wait on the shard's condvar.
    Pending,
    /// Value available. `Arc` so eviction never invalidates readers.
    Ready(Arc<Vec<f64>>),
}

#[derive(Default)]
struct Shard {
    segs: HashMap<(u32, u16), SegState, BuildHasherDefault<SegKeyHasher>>,
}

/// Multiplicative hasher for segment keys: a shard map is probed once per
/// segment a fetch touches, and its integer keys need no SipHash
/// flood resistance.
#[derive(Default)]
struct SegKeyHasher(u64);

impl Hasher for SegKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Global FIFO eviction bookkeeping (only successfully cached segments).
#[derive(Default)]
struct EvictState {
    order: VecDeque<(u32, u16)>,
    used_bytes: u64,
}

#[derive(Default)]
struct StoreStatsCell {
    segments_computed: AtomicU64,
    segment_hits: AtomicU64,
    evals_saved: AtomicU64,
    evictions: AtomicU64,
}

/// Cross-problem segment store with a byte budget claimed from the device.
pub struct SharedKernelStore {
    oracle: Arc<KernelOracle>,
    layout: ClassLayout,
    capacity_bytes: u64,
    shards: Vec<(Mutex<Shard>, Condvar)>,
    evict: Mutex<EvictState>,
    stats: StoreStatsCell,
    _device_mem: Option<DeviceAlloc>,
}

fn shard_of(key: (u32, u16)) -> usize {
    // Fibonacci hashing over (gid, cls); shards only need rough balance.
    let h = (key.0 as u64) << 16 | key.1 as u64;
    (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % N_SHARDS
}

impl SharedKernelStore {
    /// A store with a `capacity_bytes` budget over the grouped dataset
    /// served by `oracle`. The budget is claimed from `device` up front
    /// (the paper pre-allocates its buffers).
    pub fn new(
        oracle: Arc<KernelOracle>,
        layout: ClassLayout,
        capacity_bytes: u64,
        device: Option<&Device>,
    ) -> Result<Self, DeviceError> {
        assert_eq!(oracle.n(), layout.n(), "oracle/layout size mismatch");
        let device_mem = match device {
            Some(d) => Some(d.alloc(capacity_bytes)?),
            None => None,
        };
        Ok(SharedKernelStore {
            oracle,
            layout,
            capacity_bytes,
            shards: (0..N_SHARDS)
                .map(|_| (Mutex::new(Shard::default()), Condvar::new()))
                .collect(),
            evict: Mutex::new(EvictState::default()),
            stats: StoreStatsCell::default(),
            _device_mem: device_mem,
        })
    }

    /// The grouped-dataset oracle.
    pub fn oracle(&self) -> &Arc<KernelOracle> {
        &self.oracle
    }

    /// The class layout.
    pub fn layout(&self) -> &ClassLayout {
        &self.layout
    }

    /// Store statistics.
    pub fn stats(&self) -> SharedStoreStats {
        SharedStoreStats {
            segments_computed: self.stats.segments_computed.load(Ordering::Relaxed),
            segment_hits: self.stats.segment_hits.load(Ordering::Relaxed),
            evals_saved: self.stats.evals_saved.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
        }
    }

    /// Bytes of segments currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.evict.lock().used_bytes
    }

    /// Fetch rows of binary problem `(s, t)` for global instances
    /// `global_ids` into the first `global_ids.len()` rows of `out`
    /// (width `n_s + n_t`, columns ordered `[class s | class t]`).
    /// Missing segments are computed in at most two batched launches (one
    /// per class) charged to `exec`; segments being computed concurrently
    /// by another thread are waited for, not recomputed.
    pub fn fetch_pair_rows(
        &self,
        exec: &dyn Executor,
        global_ids: &[usize],
        s: usize,
        t: usize,
        out: &mut DenseMatrix,
    ) -> FetchOutcome {
        assert!(s < t, "class pair must be ordered");
        let ns = self.layout.class_size(s);
        let nt = self.layout.class_size(t);
        assert!(out.nrows() >= global_ids.len(), "output too small");
        assert_eq!(out.ncols(), ns + nt);
        let mut outcome = FetchOutcome::default();
        for (cls, col_off) in [(s, 0), (t, ns)] {
            self.fetch_class_segments(exec, global_ids, cls, col_off, out, &mut outcome);
        }
        outcome
    }

    /// One class of [`SharedKernelStore::fetch_pair_rows`]: classify each
    /// requested segment as ready / pending-elsewhere / ours-to-compute,
    /// batch-compute the owned misses, publish them, then wait out the
    /// pending ones.
    fn fetch_class_segments(
        &self,
        exec: &dyn Executor,
        global_ids: &[usize],
        cls: usize,
        col_off: usize,
        out: &mut DenseMatrix,
        outcome: &mut FetchOutcome,
    ) {
        let range = self.layout.class_range(cls);
        let (width, cls) = (range.len(), cls as u16);
        let cols = col_off..col_off + width;
        let seg_bytes = (width * std::mem::size_of::<f64>()) as u64;
        // A segment wider than the whole budget is served uncached (and,
        // degenerately, without single-flight — there is nothing to share).
        let cacheable = width > 0 && seg_bytes <= self.capacity_bytes;
        // Hits are counted here and added to the shared counters once, at
        // the end of the call.
        let hits_before = outcome.hits;
        let hit = |seg: &[f64], row: &mut [f64], outcome: &mut FetchOutcome| {
            row[cols.clone()].copy_from_slice(seg);
            outcome.hits += 1;
        };

        let mut to_compute: Vec<usize> = Vec::new(); // ri: no cached value to copy
        let mut owned: Vec<(u32, u16)> = Vec::new(); // our Pending markers, in `to_compute` order
        let mut to_wait: Vec<usize> = Vec::new(); // ri: another thread is computing
        for (ri, &gid) in global_ids.iter().enumerate() {
            let key = (gid as u32, cls);
            if !cacheable {
                to_compute.push(ri);
                continue;
            }
            let mut shard = self.shards[shard_of(key)].0.lock();
            match shard.segs.get(&key) {
                Some(SegState::Ready(seg)) => {
                    let seg = seg.clone();
                    drop(shard);
                    hit(&seg, out.row_mut(ri), outcome);
                }
                Some(SegState::Pending) => to_wait.push(ri),
                None => {
                    shard.segs.insert(key, SegState::Pending);
                    owned.push(key);
                    to_compute.push(ri);
                }
            }
        }

        if !to_compute.is_empty() {
            let miss_ids: Vec<usize> = to_compute.iter().map(|&ri| global_ids[ri]).collect();
            // Single-flight guard: if the launch panics, take our Pending
            // markers back out and wake their waiters, who then compute
            // those segments themselves instead of waiting forever. The
            // cleanup runs once the unwind is caught, not in a destructor,
            // so its locks and wakeups are ordinary ones.
            let block = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.launch_segments(exec, &miss_ids, range.clone(), outcome)
            }))
            .unwrap_or_else(|payload| {
                for &key in &owned {
                    let (lock, cv) = &self.shards[shard_of(key)];
                    lock.lock().segs.remove(&key);
                    cv.notify_all();
                }
                std::panic::resume_unwind(payload)
            });
            for (bi, &ri) in to_compute.iter().enumerate() {
                out.row_mut(ri)[cols.clone()].copy_from_slice(block.row(bi));
            }
            for (bi, &key) in owned.iter().enumerate() {
                // Publish first so waiters can proceed, then account the
                // bytes; if the budget cannot fit it (everything evictable
                // is protected), un-publish — waiters that already cloned
                // the Arc are unaffected.
                let seg = Arc::new(block.row(bi).to_vec());
                let (lock, cv) = &self.shards[shard_of(key)];
                lock.lock().segs.insert(key, SegState::Ready(seg));
                cv.notify_all();
                if !self.account_insert(key, seg_bytes, global_ids) {
                    lock.lock().segs.remove(&key);
                }
            }
        }

        for &ri in &to_wait {
            let key = (global_ids[ri] as u32, cls);
            let (lock, cv) = &self.shards[shard_of(key)];
            let mut shard = lock.lock();
            loop {
                match shard.segs.get(&key) {
                    Some(SegState::Ready(seg)) => {
                        let seg = seg.clone();
                        drop(shard);
                        hit(&seg, out.row_mut(ri), outcome);
                        break;
                    }
                    Some(SegState::Pending) => cv.wait(&mut shard),
                    None => {
                        // Gone before we woke (un-published, evicted, or
                        // its owner's launch panicked): compute it
                        // ourselves, uncached — a rare path.
                        drop(shard);
                        let gid = [global_ids[ri]];
                        let block = self.launch_segments(exec, &gid, range.clone(), outcome);
                        out.row_mut(ri)[cols.clone()].copy_from_slice(block.row(0));
                        break;
                    }
                }
            }
        }

        let hits = outcome.hits - hits_before;
        if hits > 0 {
            self.stats.segment_hits.fetch_add(hits, Ordering::Relaxed);
            self.stats
                .evals_saved
                .fetch_add(hits * width as u64, Ordering::Relaxed);
        }
    }

    /// Compute the class-`range` segments of global rows `ids` in one
    /// batched launch charged to `exec`, counted as this call's work.
    fn launch_segments(
        &self,
        exec: &dyn Executor,
        ids: &[usize],
        range: std::ops::Range<usize>,
        outcome: &mut FetchOutcome,
    ) -> DenseMatrix {
        let mut block = DenseMatrix::zeros(ids.len(), range.len());
        // The backend's owner-attributed eval count is the slot ledger's
        // ground truth (exactly `rows × width`, audited at the oracle
        // boundary).
        let expected = (ids.len() * range.len()) as u64;
        let evals = self.oracle.compute_rows_range(exec, ids, range, &mut block);
        gmp_sync::audit!(assert_eq!(
            evals, expected,
            "shared-store launch eval count out of step with ledger"
        ));
        self.stats
            .segments_computed
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        outcome.computed += ids.len() as u64;
        outcome.evals += evals;
        block
    }

    /// Reserve `seg_bytes` for `key`, evicting FIFO (skipping segments of
    /// `protected_ids`) as needed. Returns false when the budget cannot
    /// accommodate the segment.
    fn account_insert(&self, key: (u32, u16), seg_bytes: u64, protected_ids: &[usize]) -> bool {
        let mut ev = self.evict.lock();
        while ev.used_bytes + seg_bytes > self.capacity_bytes {
            if !self.evict_one(&mut ev, protected_ids) {
                break;
            }
        }
        if ev.used_bytes + seg_bytes <= self.capacity_bytes {
            ev.order.push_back(key);
            ev.used_bytes += seg_bytes;
            true
        } else {
            false
        }
    }

    /// Evict the oldest segment not belonging to `protected_ids`.
    /// Returns false if nothing evictable remains. Caller holds the
    /// eviction lock; shard locks are taken underneath it (see the module
    /// doc's lock ordering).
    fn evict_one(&self, ev: &mut EvictState, protected_ids: &[usize]) -> bool {
        let mut scanned = 0;
        while scanned < ev.order.len() {
            let Some(key) = ev.order.pop_front() else {
                break;
            };
            scanned += 1;
            if protected_ids.iter().any(|&g| g as u32 == key.0) {
                ev.order.push_back(key);
                continue;
            }
            let (lock, _cv) = &self.shards[shard_of(key)];
            let removed = lock.lock().segs.remove(&key);
            // Only this function removes ordered keys, and un-publishing or
            // a panicking owner removes only keys never ordered: a key in
            // the FIFO is always resident and `Ready`.
            gmp_sync::audit!(assert!(
                matches!(removed, Some(SegState::Ready(_))),
                "FIFO-ordered segment {key:?} is not a ready segment"
            ));
            if let Some(SegState::Ready(seg)) = removed {
                ev.used_bytes -= (seg.len() * std::mem::size_of::<f64>()) as u64;
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

/// Per-problem [`KernelRows`] view over a [`SharedKernelStore`].
///
/// Local indices `0..n_s` map to class `s`, `n_s..n_s+n_t` to class `t`.
/// Assembled rows live in the problem's §3.3.1 [`KernelBuffer`] (FIFO
/// batch replacement, filled through [`KernelBuffer::fill`]); its misses
/// are fetched from the store as global rows. The buffer claims no device
/// memory: the trainer claims each problem's working-set region itself.
pub struct SharedRows {
    store: Arc<SharedKernelStore>,
    s: usize,
    t: usize,
    /// Local index -> global grouped index.
    global_of: Vec<usize>,
    buffer: KernelBuffer,
    kernel_evals: u64,
    rows_computed: u64,
    /// Reused global-id list of the misses being fetched.
    globals: Vec<usize>,
}

impl SharedRows {
    /// A view of binary problem `(s, t)` whose working-set buffer holds up
    /// to `ws_capacity` assembled rows.
    pub fn new(store: Arc<SharedKernelStore>, s: usize, t: usize, ws_capacity: usize) -> Self {
        assert!(s < t, "class pair must be ordered");
        assert!(t < store.layout().k(), "class out of range");
        let layout = store.layout();
        let global_of: Vec<usize> = layout.class_range(s).chain(layout.class_range(t)).collect();
        let n = global_of.len();
        let capacity = ws_capacity.max(2).min(n.max(1));
        let buffer = KernelBuffer::new(capacity, n, ReplacementPolicy::FifoBatch, None)
            // gmp:allow-panic — a buffer without a device claims no device memory
            .expect("host-side working-set buffer needs no device memory");
        SharedRows {
            store,
            s,
            t,
            global_of,
            buffer,
            kernel_evals: 0,
            rows_computed: 0,
            globals: Vec::new(),
        }
    }

    /// Map a local problem index to the global grouped index.
    pub fn to_global(&self, local: usize) -> usize {
        self.global_of[local]
    }
}

impl KernelRows for SharedRows {
    fn n(&self) -> usize {
        self.global_of.len()
    }

    fn diag(&self, i: usize) -> f64 {
        self.store.oracle().diag(self.to_global(i))
    }

    fn ensure(&mut self, exec: &dyn Executor, ids: &[usize]) {
        self.buffer.fill(ids, |miss_ids, block| {
            self.globals.clear();
            self.globals
                .extend(miss_ids.iter().map(|&l| self.global_of[l]));
            let outcome = self
                .store
                .fetch_pair_rows(exec, &self.globals, self.s, self.t, block);
            self.kernel_evals += outcome.evals;
            // One computed class-segment = one batched-launch row. Counting
            // segments (not assembled problem rows) keeps the statistic
            // exact and additive across providers, so totals are identical
            // no matter which thread's fetch ends up computing a racing
            // segment.
            self.rows_computed += outcome.computed;
        });
    }

    fn row(&self, id: usize) -> &[f64] {
        self.buffer.row(id)
    }

    fn is_resident(&self, id: usize) -> bool {
        self.buffer.contains(id)
    }

    fn stats(&self) -> RowProviderStats {
        let b = self.buffer.stats();
        RowProviderStats {
            kernel_evals: self.kernel_evals,
            rows_computed: self.rows_computed,
            buffer_hits: b.hits,
            buffer_misses: b.misses,
            evictions: b.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::KernelKind;
    use gmp_gpusim::CpuExecutor;
    use gmp_sparse::CsrMatrix;

    /// 6 instances, 3 classes of 2 (grouped): layout [0,2,4,6].
    fn store(capacity: u64) -> Arc<SharedKernelStore> {
        let data = Arc::new(CsrMatrix::from_dense(
            &[
                vec![1.0, 0.0],
                vec![0.9, 0.1],
                vec![0.0, 1.0],
                vec![0.1, 0.9],
                vec![1.0, 1.0],
                vec![0.9, 1.1],
            ],
            2,
        ));
        let oracle = Arc::new(KernelOracle::new(data, KernelKind::Rbf { gamma: 1.0 }));
        Arc::new(
            SharedKernelStore::new(oracle, ClassLayout::new(vec![0, 2, 4, 6]), capacity, None)
                .unwrap(),
        )
    }

    fn exec() -> CpuExecutor {
        CpuExecutor::xeon(1)
    }

    #[test]
    fn layout_accessors() {
        let l = ClassLayout::new(vec![0, 2, 4, 6]);
        assert_eq!(l.k(), 3);
        assert_eq!(l.n(), 6);
        assert_eq!(l.class_range(1), 2..4);
        assert_eq!(l.class_size(2), 2);
        assert_eq!(l.pair_size(0, 2), 4);
    }

    #[test]
    fn fetch_matches_oracle() {
        let st = store(1 << 20);
        let e = exec();
        let mut out = DenseMatrix::zeros(1, 4);
        st.fetch_pair_rows(&e, &[0], 0, 1, &mut out);
        // Columns: class 0 (globals 0,1), class 1 (globals 2,3).
        for (col, j) in [(0usize, 0usize), (1, 1), (2, 2), (3, 3)] {
            let expect = st.oracle().eval_pair(0, j);
            assert!((out.get(0, col) - expect).abs() < 1e-12, "col {col}");
        }
    }

    #[test]
    fn segments_are_shared_across_problems() {
        let st = store(1 << 20);
        let e = exec();
        // Problem (0,1) touches segment (instance 0, class 0).
        let mut o1 = DenseMatrix::zeros(1, 4);
        st.fetch_pair_rows(&e, &[0], 0, 1, &mut o1);
        // Problem (0,2) reuses segment (0, class 0): 1 hit expected.
        let mut o2 = DenseMatrix::zeros(1, 4);
        let outcome = st.fetch_pair_rows(&e, &[0], 0, 2, &mut o2);
        assert_eq!(outcome.hits, 1);
        assert!(st.stats().evals_saved >= 2);
        // Shared column values agree.
        assert_eq!(o1.get(0, 0), o2.get(0, 0));
        assert_eq!(o1.get(0, 1), o2.get(0, 1));
    }

    #[test]
    fn store_respects_byte_budget() {
        // Each class segment is 2 values = 16 bytes; budget of 32 = 2 segs.
        let st = store(32);
        let e = exec();
        let mut out = DenseMatrix::zeros(2, 4);
        st.fetch_pair_rows(&e, &[0, 1], 0, 1, &mut out);
        assert!(st.used_bytes() <= 32);
        assert!(st.stats().evictions > 0 || st.used_bytes() == 32);
    }

    #[test]
    fn eval_attribution_is_owner_only() {
        let st = store(1 << 20);
        let e = exec();
        let mut o1 = DenseMatrix::zeros(1, 4);
        let first = st.fetch_pair_rows(&e, &[0], 0, 1, &mut o1);
        assert_eq!(first.evals, 4); // two 2-wide segments
        let mut o2 = DenseMatrix::zeros(1, 4);
        let second = st.fetch_pair_rows(&e, &[0], 0, 2, &mut o2);
        // Reused (0, class-0) segment contributes no evals to the reuser.
        assert_eq!(second.evals, 2);
        assert_eq!(
            st.oracle().eval_count(),
            first.evals + second.evals,
            "per-call attribution must sum to the oracle total"
        );
    }

    #[test]
    fn concurrent_fetches_compute_each_segment_once() {
        // N threads all requesting the same rows: single-flight must keep
        // the oracle's eval count identical to one sequential pass.
        let st = store(1 << 20);
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let st = st.clone();
                sc.spawn(move || {
                    let e = exec();
                    let mut out = DenseMatrix::zeros(2, 4);
                    st.fetch_pair_rows(&e, &[0, 1], 0, 1, &mut out);
                });
            }
        });
        // 2 rows x 2 segments each computed exactly once: 2*2 + 2*2 evals.
        assert_eq!(st.oracle().eval_count(), 8);
        assert_eq!(st.stats().segments_computed, 4);
        assert_eq!(st.stats().segment_hits, 3 * 4);
    }

    #[test]
    fn shared_rows_local_global_mapping() {
        let st = store(1 << 20);
        let v = SharedRows::new(st, 1, 2, 8);
        assert_eq!(v.n(), 4);
        assert_eq!(v.to_global(0), 2);
        assert_eq!(v.to_global(1), 3);
        assert_eq!(v.to_global(2), 4);
        assert_eq!(v.to_global(3), 5);
    }

    #[test]
    fn shared_rows_ensure_and_row() {
        let st = store(1 << 20);
        let mut v = SharedRows::new(st.clone(), 0, 1, 8);
        let e = exec();
        v.ensure(&e, &[0, 2]);
        assert!(v.is_resident(0) && v.is_resident(2));
        let r = v.row(0); // instance global 0 vs [0,1,2,3]
        assert_eq!(r.len(), 4);
        assert!((r[0] - 1.0).abs() < 1e-12); // RBF self
        let direct = st.oracle().eval_pair(0, 2);
        assert!((r[2] - direct).abs() < 1e-12);
    }

    #[test]
    fn shared_rows_diag() {
        let st = store(1 << 20);
        let v = SharedRows::new(st, 0, 2, 8);
        for i in 0..4 {
            assert_eq!(v.diag(i), 1.0);
        }
    }

    #[test]
    fn repeated_ensure_uses_local_cache() {
        let st = store(1 << 20);
        let mut v = SharedRows::new(st, 0, 1, 8);
        let e = exec();
        v.ensure(&e, &[1]);
        let evals = v.stats().kernel_evals;
        v.ensure(&e, &[1]);
        assert_eq!(v.stats().kernel_evals, evals);
        assert!(v.stats().buffer_hits >= 1);
    }

    #[test]
    fn two_views_share_store_segments() {
        let st = store(1 << 20);
        let e = exec();
        let mut v01 = SharedRows::new(st.clone(), 0, 1, 8);
        let mut v02 = SharedRows::new(st.clone(), 0, 2, 8);
        v01.ensure(&e, &[0, 1]); // computes segments (0,c0),(0,c1),(1,c0),(1,c1)
        let before = st.stats().segment_hits;
        v02.ensure(&e, &[0, 1]); // reuses (0,c0),(1,c0)
        assert_eq!(st.stats().segment_hits - before, 2);
    }

    #[test]
    fn ws_eviction_fifo() {
        let st = store(1 << 20);
        let mut v = SharedRows::new(st, 0, 1, 2);
        let e = exec();
        v.ensure(&e, &[0, 1]);
        v.ensure(&e, &[2]); // FIFO batch: evicts the whole batch {0, 1}
        assert!(!v.is_resident(0) && !v.is_resident(1));
        assert!(v.is_resident(2));
        assert_eq!(v.stats().evictions, 2);
        // A requested row is pinned: refilling [2, 3] keeps 2 and evicts
        // nothing else, since 3 fits in the freed slot.
        v.ensure(&e, &[2, 3]);
        assert!(v.is_resident(2) && v.is_resident(3));
        assert_eq!(v.stats().evictions, 2);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn row_panics_when_absent() {
        let st = store(1 << 20);
        let v = SharedRows::new(st, 0, 1, 4);
        let _ = v.row(3);
    }
}

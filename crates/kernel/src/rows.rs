//! The row-provider interface consumed by SMO solvers.

use crate::buffer::{KernelBuffer, ReplacementPolicy};
use crate::oracle::KernelOracle;
use gmp_gpusim::{Device, DeviceError, Executor};
use gmp_sparse::DenseMatrix;
use std::sync::Arc;

/// Telemetry of a row provider.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RowProviderStats {
    /// Individual kernel values computed.
    pub kernel_evals: u64,
    /// Full rows computed (a row of width `n` counts once).
    pub rows_computed: u64,
    /// Rows served from the buffer without recomputation.
    pub buffer_hits: u64,
    /// Rows that had to be computed because they were absent.
    pub buffer_misses: u64,
    /// Rows evicted from the buffer.
    pub evictions: u64,
}

/// Supplies full kernel-matrix rows for a (binary) training problem of `n`
/// instances. Rows are indexed by the problem's local instance index.
pub trait KernelRows {
    /// Problem size (rows are `n` values wide).
    fn n(&self) -> usize;

    /// `K(x_i, x_i)` for local instance `i`.
    fn diag(&self, i: usize) -> f64;

    /// Make the rows for `ids` resident, computing the missing ones in one
    /// batched launch charged to `exec`. When `ids` fits the provider's
    /// capacity (the normal solver regime), all of them are guaranteed
    /// resident until the next `ensure` call. Oversized requests degrade
    /// gracefully: they are processed in capacity-sized sub-batches, and
    /// only the rows of the final sub-batch are guaranteed resident
    /// afterwards.
    fn ensure(&mut self, exec: &dyn Executor, ids: &[usize]);

    /// Borrow a resident row.
    ///
    /// # Panics
    /// Panics if `id` was not part of the most recent [`KernelRows::ensure`].
    fn row(&self, id: usize) -> &[f64];

    /// Whether the row for `id` is currently resident.
    fn is_resident(&self, id: usize) -> bool;

    /// Telemetry snapshot.
    fn stats(&self) -> RowProviderStats;
}

/// Row provider backed by a [`KernelOracle`] and a [`KernelBuffer`] — the
/// binary-SVM-level structure used by GMP-SVM (FIFO batch replacement) and
/// by the LibSVM-like baseline (LRU, modelling LibSVM's kernel cache).
pub struct BufferedRows {
    oracle: Arc<KernelOracle>,
    buffer: KernelBuffer,
    evals_base: u64,
    rows_computed: u64,
    // Reused per-`ensure` scratch: miss lists, the pinned set, and the
    // batched-launch output block. Once grown to working-set size, the
    // steady-state ensure path performs no heap allocation.
    missing: Vec<u32>,
    pinned: Vec<u32>,
    miss_ids: Vec<usize>,
    block: DenseMatrix,
}

impl BufferedRows {
    /// A provider whose buffer holds `capacity` rows. The buffer's device
    /// memory is claimed from `device` when given.
    pub fn new(
        oracle: Arc<KernelOracle>,
        capacity: usize,
        policy: ReplacementPolicy,
        device: Option<&Device>,
    ) -> Result<Self, DeviceError> {
        let n = oracle.n();
        let buffer = KernelBuffer::new(capacity.min(n.max(1)), n, policy, device)?;
        let evals_base = oracle.eval_count();
        Ok(BufferedRows {
            oracle,
            buffer,
            evals_base,
            rows_computed: 0,
            missing: Vec::new(),
            pinned: Vec::new(),
            miss_ids: Vec::new(),
            block: DenseMatrix::zeros(0, 0),
        })
    }

    /// The underlying oracle.
    pub fn oracle(&self) -> &Arc<KernelOracle> {
        &self.oracle
    }

    /// The buffer capacity in rows.
    pub fn capacity(&self) -> usize {
        self.buffer.capacity()
    }

    /// One capacity-bounded sub-batch of [`KernelRows::ensure`].
    fn ensure_batch(&mut self, exec: &dyn Executor, ids: &[usize]) {
        debug_assert!(ids.len() <= self.buffer.capacity());
        // Classify hits/misses (counting stats through the buffer).
        self.missing.clear();
        for &id in ids {
            if self.buffer.get(id as u32).is_none() {
                self.missing.push(id as u32);
            }
        }
        if self.missing.is_empty() {
            return;
        }
        // Pin the whole requested set: evictions to make room must not
        // invalidate rows the solver is about to use.
        self.pinned.clear();
        self.pinned.extend(ids.iter().map(|&i| i as u32));
        self.buffer.insert_batch(&self.missing, &self.pinned);
        // One batched launch for all missing rows (§3.3.1).
        self.miss_ids.clear();
        self.miss_ids
            .extend(self.missing.iter().map(|&m| m as usize));
        let n = self.oracle.n();
        self.block.reset(self.miss_ids.len(), n);
        self.oracle
            .compute_rows(exec, &self.miss_ids, &mut self.block);
        for (bi, &id) in self.missing.iter().enumerate() {
            self.buffer.row_mut(id).copy_from_slice(self.block.row(bi));
        }
        self.rows_computed += self.missing.len() as u64;
    }
}

impl KernelRows for BufferedRows {
    fn n(&self) -> usize {
        self.oracle.n()
    }

    fn diag(&self, i: usize) -> f64 {
        self.oracle.diag(i)
    }

    fn ensure(&mut self, exec: &dyn Executor, ids: &[usize]) {
        let cap = self.buffer.capacity();
        if ids.len() <= cap {
            self.ensure_batch(exec, ids);
            return;
        }
        // Graceful degradation (working set wider than the buffer): split
        // into capacity-sized sub-batches. Each sub-batch pins only itself,
        // so later sub-batches may evict earlier ones — callers needing
        // simultaneous residency must request at most `capacity` rows.
        for chunk in ids.chunks(cap) {
            self.ensure_batch(exec, chunk);
        }
    }

    fn row(&self, id: usize) -> &[f64] {
        self.buffer.row(id as u32)
    }

    fn is_resident(&self, id: usize) -> bool {
        self.buffer.contains(id as u32)
    }

    fn stats(&self) -> RowProviderStats {
        let b = self.buffer.stats();
        RowProviderStats {
            kernel_evals: self.oracle.eval_count() - self.evals_base,
            rows_computed: self.rows_computed,
            buffer_hits: b.hits,
            buffer_misses: b.misses,
            evictions: b.evictions,
        }
    }
}

#[cfg(test)]
// Tests index several parallel arrays (y, alpha, f) by position.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::functions::KernelKind;
    use gmp_gpusim::CpuExecutor;
    use gmp_sparse::CsrMatrix;

    fn provider(cap: usize) -> BufferedRows {
        let data = Arc::new(CsrMatrix::from_dense(
            &[
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 1.0],
                vec![2.0, 1.0],
                vec![0.5, 0.5],
            ],
            2,
        ));
        let oracle = Arc::new(KernelOracle::new(data, KernelKind::Rbf { gamma: 0.5 }));
        BufferedRows::new(oracle, cap, ReplacementPolicy::FifoBatch, None).unwrap()
    }

    fn exec() -> CpuExecutor {
        CpuExecutor::xeon(1)
    }

    #[test]
    fn ensure_then_row() {
        let mut p = provider(4);
        let e = exec();
        p.ensure(&e, &[0, 2]);
        assert!(p.is_resident(0) && p.is_resident(2));
        let r0 = p.row(0);
        assert_eq!(r0.len(), 5);
        assert_eq!(r0[0], 1.0); // RBF diagonal
    }

    #[test]
    fn second_ensure_hits_buffer() {
        let mut p = provider(4);
        let e = exec();
        p.ensure(&e, &[0, 1]);
        let computed_before = p.stats().rows_computed;
        p.ensure(&e, &[0, 1]);
        let s = p.stats();
        assert_eq!(s.rows_computed, computed_before);
        assert!(s.buffer_hits >= 2);
    }

    #[test]
    fn partial_hit_computes_only_missing() {
        let mut p = provider(4);
        let e = exec();
        p.ensure(&e, &[0, 1]);
        p.ensure(&e, &[1, 2]);
        let s = p.stats();
        assert_eq!(s.rows_computed, 3); // 0,1 then only 2
    }

    #[test]
    fn eviction_and_recompute() {
        let mut p = provider(2);
        let e = exec();
        p.ensure(&e, &[0, 1]);
        p.ensure(&e, &[2, 3]); // evicts 0,1
        assert!(!p.is_resident(0));
        p.ensure(&e, &[0, 1]); // recompute
        assert_eq!(p.stats().rows_computed, 6);
        assert!(p.stats().evictions >= 2);
    }

    #[test]
    fn rows_match_oracle_values() {
        let mut p = provider(5);
        let e = exec();
        p.ensure(&e, &[3]);
        let row = p.row(3);
        for j in 0..5 {
            let direct = p.oracle().eval_pair(3, j);
            assert!((row[j] - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn diag_passthrough() {
        let p = provider(4);
        assert_eq!(p.diag(2), 1.0);
    }

    #[test]
    fn oversized_working_set_degrades_to_sub_batches() {
        let mut p = provider(2);
        let e = exec();
        p.ensure(&e, &[0, 1, 2]);
        // The final sub-batch ([2]) is guaranteed resident.
        assert!(p.is_resident(2));
        let row = p.row(2);
        for j in 0..5 {
            let direct = p.oracle().eval_pair(2, j);
            assert!((row[j] - direct).abs() < 1e-12);
        }
        // Every requested row was computed exactly once.
        assert_eq!(p.stats().rows_computed, 3);
    }

    #[test]
    fn kernel_evals_counted_per_provider() {
        let mut p = provider(5);
        let e = exec();
        p.ensure(&e, &[0, 1]);
        assert_eq!(p.stats().kernel_evals, 10); // 2 rows x width 5
    }
}

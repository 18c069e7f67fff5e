//! The row-provider interface consumed by SMO solvers.

use crate::buffer::{KernelBuffer, ReplacementPolicy};
use crate::oracle::KernelOracle;
use gmp_gpusim::{Device, DeviceError, Executor};
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
/// per-problem structure of the classic paths (LRU, modelling LibSVM's
/// kernel cache) and of the per-problem batched solver. Missing rows are
/// launched on the oracle through [`KernelBuffer::fill`].
pub struct BufferedRows {
    oracle: Arc<KernelOracle>,
    buffer: KernelBuffer,
    evals_base: u64,
    rows_computed: u64,
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
        })
    }

    /// The underlying oracle.
    pub fn oracle(&self) -> &Arc<KernelOracle> {
        &self.oracle
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
        self.buffer.fill(ids, |miss_ids, block| {
            self.oracle.compute_rows(exec, miss_ids, block);
            self.rows_computed += miss_ids.len() as u64;
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

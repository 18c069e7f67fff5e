//! A row provider without cross-call reuse: every `ensure` recomputes all
//! requested rows. Models comparators whose caching strategy does not
//! carry kernel rows across working-set rounds. The block and the residency
//! map are kept across calls, so only a larger request allocates.

use gmp_gpusim::Executor;
use gmp_kernel::{KernelOracle, KernelRows, RowProviderStats};
use gmp_sparse::DenseMatrix;
use std::collections::HashMap;
use std::sync::Arc;

/// Recompute-always row provider.
pub struct UncachedRows {
    oracle: Arc<KernelOracle>,
    resident: HashMap<usize, usize>,
    block: DenseMatrix,
    evals_base: u64,
    rows_computed: u64,
    misses: u64,
}

impl UncachedRows {
    /// A provider over `oracle` with no retained state between `ensure`s.
    pub fn new(oracle: Arc<KernelOracle>) -> Self {
        let evals_base = oracle.eval_count();
        UncachedRows {
            block: DenseMatrix::zeros(0, oracle.n()),
            oracle,
            resident: HashMap::new(),
            evals_base,
            rows_computed: 0,
            misses: 0,
        }
    }
}

impl KernelRows for UncachedRows {
    fn n(&self) -> usize {
        self.oracle.n()
    }

    fn diag(&self, i: usize) -> f64 {
        self.oracle.diag(i)
    }

    fn ensure(&mut self, exec: &dyn Executor, ids: &[usize]) {
        if ids.len() > self.block.nrows() {
            self.block = DenseMatrix::zeros(ids.len(), self.n());
        }
        self.oracle.compute_rows(exec, ids, &mut self.block);
        self.resident.clear();
        for (slot, &id) in ids.iter().enumerate() {
            self.resident.insert(id, slot);
        }
        self.rows_computed += ids.len() as u64;
        self.misses += ids.len() as u64;
    }

    fn row(&self, id: usize) -> &[f64] {
        let slot = *self
            .resident
            .get(&id)
            // gmp:allow-panic — row residency is guaranteed by the preceding ensure(); absence is a solver bug, not caller input
            .unwrap_or_else(|| panic!("row {id} not in last ensure"));
        self.block.row(slot)
    }

    fn is_resident(&self, id: usize) -> bool {
        self.resident.contains_key(&id)
    }

    fn stats(&self) -> RowProviderStats {
        RowProviderStats {
            kernel_evals: self.oracle.eval_count() - self.evals_base,
            rows_computed: self.rows_computed,
            buffer_hits: 0,
            buffer_misses: self.misses,
            evictions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_gpusim::CpuExecutor;
    use gmp_kernel::KernelKind;
    use gmp_sparse::CsrMatrix;

    fn provider() -> UncachedRows {
        let data = Arc::new(CsrMatrix::from_dense(
            &[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]],
            2,
        ));
        UncachedRows::new(Arc::new(KernelOracle::new(data, KernelKind::Linear)))
    }

    fn exec() -> CpuExecutor {
        CpuExecutor::xeon(1)
    }

    #[test]
    fn recomputes_every_time() {
        let mut p = provider();
        let e = exec();
        p.ensure(&e, &[0, 1]);
        p.ensure(&e, &[0, 1]);
        assert_eq!(p.stats().rows_computed, 4);
        assert_eq!(p.stats().buffer_hits, 0);
    }

    #[test]
    fn rows_correct() {
        let mut p = provider();
        let e = exec();
        p.ensure(&e, &[2]);
        assert!(p.is_resident(2));
        assert!(!p.is_resident(0));
        assert_eq!(p.row(2), &[1.0, 1.0, 2.0]);
    }

    #[test]
    fn block_grows_only_for_a_larger_request() {
        let mut p = provider();
        let e = exec();
        p.ensure(&e, &[0, 1]);
        let grown = p.block.as_slice().as_ptr();
        p.ensure(&e, &[2]);
        assert_eq!(p.block.as_slice().as_ptr(), grown);
        assert_eq!(p.row(2), &[1.0, 1.0, 2.0]);
        assert!(!p.is_resident(0));
        p.ensure(&e, &[1, 0]);
        assert_eq!(p.row(0), &[1.0, 0.0, 1.0]);
        assert_eq!(p.row(1), &[0.0, 1.0, 1.0]);
        assert_eq!(p.stats().rows_computed, 5);
    }

    #[test]
    #[should_panic(expected = "not in last ensure")]
    fn stale_rows_unavailable() {
        let mut p = provider();
        let e = exec();
        p.ensure(&e, &[0]);
        p.ensure(&e, &[1]);
        let _ = p.row(0);
    }
}

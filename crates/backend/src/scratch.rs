//! The thread-local scatter scratch both backends densify source rows into.

/// Run `f` with a zeroed scatter scratch of at least `ncols` values,
/// reusing a thread-local buffer so steady-state callers never allocate.
pub(crate) fn with_scatter_scratch<R>(ncols: usize, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        if scratch.len() < ncols {
            scratch.resize(ncols, 0.0);
        }
        f(&mut scratch)
    })
}

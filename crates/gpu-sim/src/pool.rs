//! Host-side fork/join.
//!
//! The simulator charges *modeled* time, but the numeric work is real and
//! can genuinely run on several host threads (wave-parallel binary
//! problems, batched kernel-row products, scoring and probability fills).
//! Every such fork/join goes through [`for_each_chunk`]: it hands each
//! worker a disjoint `&mut` piece of the output, so the type system (not a
//! runtime ledger) guarantees that no two threads write the same element,
//! and each element's value never depends on which thread computed it.

/// Split `out` into at most `threads` contiguous pieces whose boundaries
/// fall on multiples of `unit` elements, and run `work(first, piece)` on
/// each, where `first` is the index of the piece's first unit (`out` holds
/// `out.len() / unit` units, e.g. dense rows of `unit = ncols` values, or
/// single elements with `unit = 1`).
///
/// With one piece `work` runs inline on the calling thread: no spawn and
/// no allocation. Otherwise the first piece runs inline and the others on
/// scoped threads; a worker panic propagates once every piece has joined.
pub fn for_each_chunk<T, F>(threads: usize, unit: usize, out: &mut [T], work: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert_eq!(out.len() % unit, 0, "slice is not a whole number of units");
    let units = out.len() / unit;
    let pieces = threads.clamp(1, units.max(1));
    if pieces == 1 {
        work(0, out);
        return;
    }
    let per_piece = units.div_ceil(pieces);
    let work = &work;
    std::thread::scope(|s| {
        let mut chunks = out.chunks_mut(per_piece * unit).enumerate();
        let first = chunks.next();
        for (c, piece) in chunks {
            s.spawn(move || work(c * per_piece, piece));
        }
        if let Some((_, piece)) = first {
            work(0, piece);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Run `for_each_chunk` over `len` units of `unit` elements each,
    /// recording how often every element is visited; also checks that
    /// each piece starts on a unit boundary and covers whole units.
    fn visits(threads: usize, unit: usize, len: usize) -> Vec<usize> {
        let mut out: Vec<(usize, usize)> = (0..len * unit).map(|e| (e, 0)).collect();
        for_each_chunk(threads, unit, &mut out, |first, piece| {
            assert_eq!(piece.len() % unit, 0, "piece splits a unit");
            if let Some(&(e, _)) = piece.first() {
                assert_eq!(e, first * unit, "piece does not start at its unit");
            }
            for (e, n) in piece.iter_mut() {
                assert!(*e < len * unit);
                *n += 1;
            }
        });
        out.into_iter().map(|(_, n)| n).collect()
    }

    #[test]
    fn chunks_cover_range_exactly_once() {
        for unit in [1usize, 3] {
            for threads in [1usize, 2, 3, 7] {
                for len in [0usize, 1, 5, 100] {
                    assert!(
                        visits(threads, unit, len).iter().all(|&n| n == 1),
                        "unit={unit} threads={threads} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_threads_than_items() {
        for unit in [1usize, 3] {
            for threads in [0usize, 1, 2, 3, 7] {
                for len in [0usize, 1, 5, 100] {
                    let pieces = AtomicUsize::new(0);
                    let mut out = vec![0u8; len * unit];
                    for_each_chunk(threads, unit, &mut out, |_, _| {
                        pieces.fetch_add(1, Ordering::SeqCst);
                    });
                    let n = pieces.into_inner();
                    assert!(n >= 1 && n <= threads.max(1).min(len.max(1)));
                }
            }
        }
    }

    #[test]
    fn fill_empty_is_noop() {
        let mut out: Vec<u8> = vec![];
        for_each_chunk(4, 3, &mut out, |first, piece| {
            assert_eq!((first, piece.len()), (0, 0));
        });
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "whole number of units")]
    fn ragged_slice_is_refused() {
        for_each_chunk(2, 3, &mut [0u8; 4], |_, _| {});
    }

    #[test]
    fn fill_writes_every_slot() {
        for unit in [1usize, 3] {
            for threads in [1usize, 2, 3, 7] {
                for len in [0usize, 1, 5, 100] {
                    let mut out = vec![0usize; len * unit];
                    for_each_chunk(threads, unit, &mut out, |first, piece| {
                        for (k, o) in piece.iter_mut().enumerate() {
                            *o = (first * unit + k) * 2 + 1;
                        }
                    });
                    assert!(
                        out.iter().enumerate().all(|(i, &v)| v == i * 2 + 1),
                        "unit={unit} threads={threads} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_preserves_untouched_state() {
        for unit in [1usize, 3] {
            for threads in [1usize, 2, 3, 7] {
                for len in [0usize, 1, 5, 100] {
                    let mut out: Vec<(usize, usize)> = (0..len * unit).map(|i| (i, 7)).collect();
                    for_each_chunk(threads, unit, &mut out, |first, piece| {
                        for (k, o) in piece.iter_mut().enumerate() {
                            o.0 = (first * unit + k) * 3;
                        }
                    });
                    assert!(
                        out.iter().enumerate().all(|(i, &v)| v == (i * 3, 7)),
                        "unit={unit} threads={threads} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_empty_is_noop() {
        let mut out: Vec<u8> = vec![];
        for_each_chunk(4, 1, &mut out, |first, piece| {
            assert_eq!(first, 0);
            assert!(piece.is_empty());
        });
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            let mut out = vec![0u8; 8];
            for_each_chunk(4, 1, &mut out, |first, _| assert!(first < 6, "boom"));
        });
        assert!(caught.is_err());
    }
}

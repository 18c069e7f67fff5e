//! Model-based property tests for the kernel buffer: compare against a
//! simple reference implementation under random operation sequences.

use gmp_kernel::{KernelBuffer, ReplacementPolicy};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    /// Insert a batch of fresh ids (deduplicated, not resident).
    InsertBatch(Vec<usize>),
    /// Look up an id.
    Get(usize),
    /// Fill a resident row with a marker value.
    Fill(usize, f64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            proptest::collection::vec(0usize..40, 1..4).prop_map(Op::InsertBatch),
            (0usize..40).prop_map(Op::Get),
            (0usize..40, -5.0..5.0f64).prop_map(|(i, v)| Op::Fill(i, v)),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn buffer_matches_reference_model(ops in ops(), fifo in proptest::bool::ANY) {
        let capacity = 8usize;
        let width = 4usize;
        let policy = if fifo { ReplacementPolicy::FifoBatch } else { ReplacementPolicy::Lru };
        let mut buf = KernelBuffer::new(capacity, width, policy, None).unwrap();
        // Reference: resident id -> filled value (None = uninitialized).
        let mut model: HashMap<usize, Option<f64>> = HashMap::new();

        for op in ops {
            match op {
                Op::InsertBatch(mut ids) => {
                    ids.sort_unstable();
                    ids.dedup();
                    ids.retain(|id| !buf.contains(*id));
                    if ids.is_empty() || ids.len() > capacity {
                        continue;
                    }
                    buf.insert_batch(&ids, &[]);
                    for &id in &ids {
                        model.insert(id, None);
                    }
                    // The model doesn't predict *which* rows evict (that is
                    // the policy's business); it prunes to what the buffer
                    // actually kept, then checks the invariants below.
                    model.retain(|id, _| buf.contains(*id));
                    // All newly inserted ids must be resident.
                    for &id in &ids {
                        prop_assert!(buf.contains(id), "fresh id {} evicted immediately", id);
                    }
                }
                Op::Get(id) => {
                    let got = buf.get(id).map(|r| r.to_vec());
                    let expected_resident = model.contains_key(&id);
                    prop_assert_eq!(got.is_some(), expected_resident, "get({}) residency mismatch", id);
                    if let (Some(row), Some(Some(v))) = (got, model.get(&id)) {
                        prop_assert!(row.iter().all(|x| x == v), "row content lost for {}", id);
                    }
                }
                Op::Fill(id, v) => {
                    if buf.contains(id) {
                        buf.row_mut(id).fill(v);
                        model.insert(id, Some(v));
                    }
                }
            }
            // Global invariants after every operation.
            prop_assert!(buf.len() <= capacity);
            prop_assert_eq!(buf.len(), model.len());
        }
    }

    #[test]
    fn pinned_rows_survive_any_pressure(
        pin in proptest::collection::vec(0usize..20, 1..4),
        churn in proptest::collection::vec(20usize..200, 4..30),
    ) {
        let mut pin = pin;
        pin.sort_unstable();
        pin.dedup();
        let capacity = pin.len() + 2;
        let mut buf = KernelBuffer::new(capacity, 2, ReplacementPolicy::FifoBatch, None).unwrap();
        buf.insert_batch(&pin, &[]);
        for (i, &id) in churn.iter().enumerate() {
            if buf.contains(id) {
                continue;
            }
            buf.insert_batch(&[id], &pin);
            for &p in &pin {
                prop_assert!(buf.contains(p), "pinned {} evicted at step {}", p, i);
            }
        }
    }

    #[test]
    fn stats_accounting_is_consistent(gets in proptest::collection::vec(0usize..16, 1..50)) {
        let mut buf = KernelBuffer::new(4, 2, ReplacementPolicy::Lru, None).unwrap();
        buf.insert_batch(&[0, 1, 2, 3], &[]);
        let mut hits = 0u64;
        let mut misses = 0u64;
        for &g in &gets {
            if buf.get(g).is_some() {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        let s = buf.stats();
        prop_assert_eq!(s.hits, hits);
        prop_assert_eq!(s.misses, misses);
        prop_assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0);
    }
}

//! Training and prediction reports: wall time, simulated time, and the
//! hardware-independent counters every speedup claim is grounded in.

use gmp_gpusim::DeviceStats;
use gmp_smo::PhaseTimes;

/// Per-binary-SVM training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinaryTrainStats {
    /// Class pair.
    pub pair: (u16, u16),
    /// Subproblem size.
    pub n: usize,
    /// SMO pair updates.
    pub iterations: u64,
    /// Outer working-set rounds.
    pub outer_rounds: u64,
    /// Support vector count.
    pub n_sv: usize,
    /// Converged within ε?
    pub converged: bool,
    /// Kernel values computed for this problem.
    pub kernel_evals: u64,
    /// Simulated seconds on this problem's stream/executor.
    pub sim_s: f64,
}

/// Aggregate training report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainReport {
    /// Backend label (Table 3 column).
    pub backend: String,
    /// Compute backend that executed the numeric hot ops ("scalar",
    /// "blocked"). Orthogonal to `backend`: changes host wall-clock only,
    /// never `sim_s` or any counter.
    pub compute_backend: String,
    /// Wall-clock seconds (host, this machine — not comparable to the
    /// paper's testbed).
    pub wall_s: f64,
    /// Simulated seconds on the modeled hardware: per-stream maxima for
    /// concurrent phases plus serial phases.
    pub sim_s: f64,
    /// Total kernel values computed across all binary problems.
    pub kernel_evals: u64,
    /// Total kernel rows computed.
    pub rows_computed: u64,
    /// Buffer hits across problems.
    pub buffer_hits: u64,
    /// Phase attribution (simulated time) — Fig. 11's three components.
    pub sim_phases: PhaseTimes,
    /// Phase attribution (wall time).
    pub wall_phases: PhaseTimes,
    /// Per-binary statistics.
    pub per_binary: Vec<BinaryTrainStats>,
    /// Device counters (GPU backends only).
    pub device: Option<DeviceStats>,
    /// Peak simulated device memory in bytes (GPU backends only).
    pub peak_device_mem: u64,
    /// Binary SVMs trained concurrently per wave (1 = sequential).
    pub concurrency: usize,
    /// Real host threads that drove concurrent work (1 = sequential).
    pub host_threads: usize,
}

impl TrainReport {
    /// Total SMO iterations across binary problems.
    pub fn total_iterations(&self) -> u64 {
        self.per_binary.iter().map(|b| b.iterations).sum()
    }

    /// Did every binary problem converge?
    pub fn all_converged(&self) -> bool {
        self.per_binary.iter().all(|b| b.converged)
    }
}

/// Aggregate prediction report (Fig. 12's three components).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictReport {
    /// Backend label.
    pub backend: String,
    /// Compute backend that executed the numeric hot ops.
    pub compute_backend: String,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Kernel values computed (test x SV blocks).
    pub kernel_evals: u64,
    /// Unique support vectors scored (after sharing).
    pub unique_svs: usize,
    /// Sum of per-binary SV list lengths (what *no* sharing would score).
    pub total_sv_refs: usize,
    /// Simulated time computing decision values.
    pub sim_decision_s: f64,
    /// Simulated time applying sigmoids.
    pub sim_sigmoid_s: f64,
    /// Simulated time solving the coupling problem (Equation 15).
    pub sim_coupling_s: f64,
    /// Real host threads that drove concurrent work (1 = sequential).
    pub host_threads: usize,
}

impl PredictReport {
    /// Fraction of SV kernel work avoided by support-vector sharing.
    pub fn sharing_saving(&self) -> f64 {
        if self.total_sv_refs == 0 {
            return 0.0;
        }
        1.0 - (self.unique_svs as f64 / self.total_sv_refs as f64)
    }
}

/// Log-linear latency histogram over microsecond durations: every
/// power-of-two octave `[2^e, 2^(e+1))` is split into 16 equal-width
/// sub-buckets (durations below 16 µs get one bucket each), so online
/// recording is O(1), quantile queries need no stored samples, and a
/// reported quantile is within 1/32 (≈3%) of the exact rank value.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// Per-bucket counts.
    buckets: Vec<u64>,
    /// Total recorded durations.
    count: u64,
    /// Sum of recorded microseconds (for the mean).
    sum_us: u64,
    /// Largest recorded duration in microseconds.
    max_us: u64,
}

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave (also the count of exact buckets below it).
const SUB: usize = 1 << SUB_BITS;
/// Exact buckets for `0..SUB`, then `SUB` per octave up to `2^64`.
const LATENCY_BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// Bucket index of a duration.
fn bucket_of(us: u64) -> usize {
    if us < SUB as u64 {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros(); // ≥ SUB_BITS
    let shift = octave - SUB_BITS;
    let sub = (us >> shift) as usize - SUB;
    SUB * (octave - SUB_BITS + 1) as usize + sub
}

/// Smallest duration and width of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i / SUB - 1) as u32;
    let lower = ((SUB + i % SUB) as u64) << shift;
    (lower, 1u64 << shift)
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; LATENCY_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Record one duration (in microseconds).
    pub fn record_us(&mut self, us: u64) {
        self.buckets[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Record one duration.
    pub fn record(&mut self, d: std::time::Duration) {
        self.record_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean recorded duration in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_us as f64 / self.count as f64
    }

    /// Largest recorded duration in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Quantile `q` (0..=1) in microseconds: the midpoint of the bucket
    /// holding rank `⌈q·count⌉`, clamped to the observed maximum (so p100
    /// is exact). Returns 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lower, width) = bucket_range(i);
                return (lower + width / 2).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// Snapshot of the online-serving counters (`gmp-serve`): admission,
/// batching, and end-to-end latency. Produced by the serving subsystem's
/// metrics recorder; everything here is cumulative since server start.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests answered successfully.
    pub served: u64,
    /// Requests rejected at admission because the queue was full.
    pub rejected_overload: u64,
    /// Requests that missed their deadline while queued.
    pub expired_deadline: u64,
    /// Requests that failed in scoring (model/backend error).
    pub failed: u64,
    /// Batches scored.
    pub batches: u64,
    /// Sum of batch sizes (mean batch size = `batched_rows / batches`).
    pub batched_rows: u64,
    /// Distribution of batch sizes: `batch_size_hist[i]` counts batches of
    /// size `i+1`; oversized batches saturate into the last slot.
    pub batch_size_hist: Vec<u64>,
    /// High-water mark of the request queue.
    pub peak_queue_depth: usize,
    /// End-to-end request latency (enqueue to response).
    pub latency: LatencyHistogram,
    /// Wall-clock seconds the metrics cover (server uptime at snapshot).
    pub uptime_s: f64,
    /// *Simulated* device-seconds consumed by scoring calls — the
    /// paper-comparable cost of the served traffic on the modeled GPU
    /// (launch overheads and SV-pool transfers amortize across a batch).
    pub scoring_sim_s: f64,
}

impl ServeReport {
    /// Mean batch size (0 when no batch was scored).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_rows as f64 / self.batches as f64
    }

    /// Served requests per second over the covered window.
    pub fn throughput_rps(&self) -> f64 {
        if self.uptime_s <= 0.0 {
            return 0.0;
        }
        self.served as f64 / self.uptime_s
    }

    /// Every accepted request got exactly one terminal outcome — the
    /// no-silent-drop accounting identity the saturation tests assert.
    pub fn is_balanced(&self) -> bool {
        self.accepted == self.served + self.expired_deadline + self.failed
    }

    /// Scored rows per *simulated* device-second (0 when nothing was
    /// scored) — the throughput the modeled GPU would sustain on this
    /// batch mix.
    pub fn sim_throughput_rps(&self) -> f64 {
        if self.scoring_sim_s <= 0.0 {
            return 0.0;
        }
        self.batched_rows as f64 / self.scoring_sim_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let mut r = TrainReport::default();
        r.per_binary.push(BinaryTrainStats {
            pair: (0, 1),
            n: 10,
            iterations: 5,
            outer_rounds: 2,
            n_sv: 4,
            converged: true,
            kernel_evals: 100,
            sim_s: 0.1,
        });
        r.per_binary.push(BinaryTrainStats {
            pair: (0, 2),
            n: 12,
            iterations: 7,
            outer_rounds: 3,
            n_sv: 6,
            converged: false,
            kernel_evals: 150,
            sim_s: 0.2,
        });
        assert_eq!(r.total_iterations(), 12);
        assert!(!r.all_converged());
    }

    #[test]
    fn sharing_saving() {
        let r = PredictReport {
            unique_svs: 60,
            total_sv_refs: 100,
            ..Default::default()
        };
        assert!((r.sharing_saving() - 0.4).abs() < 1e-12);
        assert_eq!(PredictReport::default().sharing_saving(), 0.0);
    }

    #[test]
    fn latency_histogram_quantiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), 0);
        // 90 fast requests (~100 µs), 10 slow ones (~50 ms).
        for _ in 0..90 {
            h.record_us(100);
        }
        for _ in 0..10 {
            h.record_us(50_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.50);
        let p95 = h.quantile_us(0.95);
        let p99 = h.quantile_us(0.99);
        // p50 lands in the 100 µs bucket; p95/p99 in the 50 ms bucket.
        assert!((64..=255).contains(&p50), "p50 {p50}");
        assert!(p95 >= 32_768, "p95 {p95}");
        assert!((32_768..=50_000).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile_us(1.0), 50_000);
        assert!((h.mean_us() - (90.0 * 100.0 + 10.0 * 50_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn latency_histogram_merge_and_edges() {
        let mut a = LatencyHistogram::new();
        a.record_us(0); // sub-microsecond → bucket 0
        a.record(std::time::Duration::from_micros(3));
        let mut b = LatencyHistogram::new();
        b.record_us(u64::MAX); // saturates into the last bucket
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_us(), u64::MAX);
        assert!(a.quantile_us(0.01) <= 3);
    }

    #[test]
    fn latency_histogram_quantiles_are_distinct_and_within_four_percent() {
        let mut h = LatencyHistogram::new();
        for us in 1..=10_000 {
            h.record_us(us);
        }
        let (p50, p95, p99) = (
            h.quantile_us(0.50),
            h.quantile_us(0.95),
            h.quantile_us(0.99),
        );
        assert!(p50 < p95 && p95 < p99, "p50 {p50} p95 {p95} p99 {p99}");
        // Value at rank ⌈q·n⌉ of 1..=n is the rank itself.
        for (q, got) in [(0.50, p50), (0.95, p95), (0.99, p99)] {
            let exact = (q * 10_000.0_f64).ceil();
            let err = (got as f64 - exact).abs() / exact;
            assert!(err <= 0.04, "q{q}: {got} vs exact {exact} ({err:.4})");
        }
    }

    #[test]
    fn latency_buckets_tile_the_range() {
        // Consecutive buckets are contiguous, each value maps into its own
        // bucket's range, and the last bucket ends at u64::MAX.
        let mut next = 0u64;
        for i in 0..LATENCY_BUCKETS {
            let (lower, width) = bucket_range(i);
            assert_eq!(lower, next, "bucket {i}");
            let upper = lower + (width - 1);
            assert_eq!(bucket_of(lower), i);
            assert_eq!(bucket_of(upper), i);
            next = upper.wrapping_add(1);
        }
        assert_eq!(next, 0, "last bucket must end at u64::MAX");
    }

    #[test]
    fn serve_report_accounting() {
        let r = ServeReport {
            accepted: 10,
            served: 8,
            expired_deadline: 1,
            failed: 1,
            rejected_overload: 5,
            batches: 4,
            batched_rows: 8,
            uptime_s: 2.0,
            ..Default::default()
        };
        assert!(r.is_balanced());
        assert!((r.mean_batch_size() - 2.0).abs() < 1e-12);
        assert!((r.throughput_rps() - 4.0).abs() < 1e-12);
        assert!(ServeReport::default().is_balanced());
        assert_eq!(ServeReport::default().mean_batch_size(), 0.0);
        assert_eq!(ServeReport::default().throughput_rps(), 0.0);
    }
}

//! Raw per-operation latencies and exact percentiles over them.
//!
//! Every latency figure the benchmark prints comes from here: the samples
//! are kept as measured (nanoseconds), sorted once, and read by nearest
//! rank — never from histogram bucket bounds, which is how the legacy
//! `serve_load` bin managed to print a p99 above its max.

use std::time::{Duration, Instant};

/// Percentiles a tail may be reported at, lowest first.
const TAIL_CANDIDATES: [f64; 6] = [0.50, 0.90, 0.95, 0.99, 0.999, 0.9999];

/// How many samples must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Time slices a phase is cut into for its steady-state throughput.
const SLICES: usize = 10;

/// The latencies of one timed phase, each with the time it completed at.
#[derive(Debug, Clone)]
pub struct Samples {
    epoch: Instant,
    /// `(completed at, latency)` in nanoseconds, `completed at` since `epoch`.
    ops: Vec<(u64, u64)>,
    /// The latencies, sorted, once a percentile has been asked for.
    sorted: Vec<u64>,
}

impl Samples {
    /// Start collecting; the phase's clock starts now.
    pub fn new() -> Samples {
        Samples { epoch: Instant::now(), ops: Vec::new(), sorted: Vec::new() }
    }

    /// Record an operation that has just completed and took `d`.
    pub fn push(&mut self, d: Duration) {
        self.ops.push((self.epoch.elapsed().as_nanos() as u64, d.as_nanos() as u64));
        self.sorted.clear();
    }

    /// Fold another client's samples into this set (clients start within
    /// microseconds of each other, so their clocks are taken as one).
    pub fn merge(&mut self, other: Samples) {
        self.ops.extend(other.ops);
        self.sorted.clear();
    }

    /// The sample count every report states next to its percentiles.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    fn sort(&mut self) {
        if self.sorted.len() != self.ops.len() {
            self.sorted = self.ops.iter().map(|&(_, took)| took).collect();
            self.sorted.sort_unstable();
        }
    }

    /// 1-based nearest rank of percentile `p` among `n` samples.
    fn rank(p: f64, n: usize) -> usize {
        ((p * n as f64).ceil() as usize).clamp(1, n)
    }

    /// The exact `p`-th percentile (nearest rank) in milliseconds; 0 for an
    /// empty set.
    pub fn percentile_ms(&mut self, p: f64) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        self.sort();
        self.sorted[Samples::rank(p, self.sorted.len()) - 1] as f64 / 1e6
    }

    /// The highest candidate percentile that still has at least
    /// [`MIN_BEYOND`] samples beyond it, with its value in milliseconds.
    /// `None` when even the median has fewer.
    pub fn tail_ms(&mut self) -> Option<(f64, f64)> {
        let n = self.ops.len();
        let p = TAIL_CANDIDATES
            .iter()
            .copied()
            .rfind(|&p| n > 0 && n - Samples::rank(p, n) >= MIN_BEYOND)?;
        Some((p, self.percentile_ms(p)))
    }

    pub fn max_ms(&mut self) -> f64 {
        self.percentile_ms(1.0)
    }

    pub fn mean_ms(&self) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        self.ops.iter().map(|&(_, took)| took).sum::<u64>() as f64 / self.ops.len() as f64 / 1e6
    }

    /// Operations completed per second over the middle six of [`SLICES`]
    /// equal slices of a phase that lasted `elapsed` (the two busiest and
    /// the two quietest slices are set aside): the phase's steady rate,
    /// which a stall of up to a fifth of the phase does not move.
    pub fn steady_rate(&self, elapsed: Duration) -> f64 {
        let slice_ns = (elapsed.as_nanos() as u64 / SLICES as u64).max(1);
        let mut counts = [0u64; SLICES];
        for &(at, _) in &self.ops {
            counts[((at / slice_ns) as usize).min(SLICES - 1)] += 1;
        }
        counts.sort_unstable();
        let kept = &counts[2..SLICES - 2];
        kept.iter().sum::<u64>() as f64 / (kept.len() as f64 * slice_ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(ms: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::new();
        for v in ms {
            s.push(Duration::from_millis(v));
        }
        s
    }

    #[test]
    fn slice_rate_ignores_a_stall() {
        let mut s = Samples::new();
        // 100 ms phase, 10 ms slices: ten operations in every slice but the
        // third, which stalled and completed one.
        for slice in 0..10u64 {
            for op in 0..if slice == 2 { 1 } else { 10 } {
                s.ops.push((slice * 10_000_000 + op * 1_000_000, 1_000_000));
            }
        }
        assert_eq!(s.steady_rate(Duration::from_millis(100)), 1000.0);
        assert_eq!(Samples::new().steady_rate(Duration::from_millis(100)), 0.0);
    }

    #[test]
    fn percentiles_are_exact_and_never_exceed_max() {
        let mut s = of(1..=100);
        assert_eq!(s.percentile_ms(0.50), 50.0);
        assert_eq!(s.percentile_ms(0.95), 95.0);
        assert_eq!(s.percentile_ms(0.99), 99.0);
        assert_eq!(s.max_ms(), 100.0);
        assert!(s.percentile_ms(0.9999) <= s.max_ms());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        assert_eq!(of(1..=100).tail_ms(), Some((0.90, 90.0)));
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(of(1..=1000).tail_ms(), Some((0.99, 990.0)));
        // 19 samples: the median leaves 9 beyond, so nothing qualifies.
        assert_eq!(of(1..=19).tail_ms(), None);
        assert_eq!(of(1..=20).tail_ms(), Some((0.50, 10.0)));
    }

    #[test]
    fn merge_and_mean() {
        let mut a = of([1, 2]);
        a.merge(of([3, 6]));
        assert_eq!(a.len(), 4);
        assert_eq!(a.mean_ms(), 3.0);
        assert_eq!(Samples::new().percentile_ms(0.5), 0.0);
    }
}

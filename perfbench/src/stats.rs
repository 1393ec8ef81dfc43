//! Sample statistics: nearest-rank percentiles, the tail-percentile rule
//! the report follows, and the fixed-size latency sample store.

use crate::rng::Rng;

/// Percentiles the report may quote for a tail, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The `p`-th percentile (0 < p ≤ 100) of `samples` by the nearest-rank
/// method: the smallest sample with at least `p`% of all samples at or
/// below it. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median (nearest-rank 50th percentile); `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The small offset keeps a rank that is a whole number in exact
    // arithmetic (99.9% of 10 000) from rounding up past it.
    let r = (p * n as f64 / 100.0 - 1e-6).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly above percentile `p`'s nearest rank.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile with at least ten samples beyond it, from
/// `99.9, 99, 95, 90, 75`, falling back to the median; `None` when there
/// are not even ten samples beyond the median.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES.into_iter().chain([50.0]).find(|&p| beyond(n, p) >= 10)
}

/// A uniform random sample (reservoir sampling) of at most `cap` values.
/// Its memory is allocated and written up front, so a run's peak memory
/// does not depend on how many ops it completed.
#[derive(Debug)]
pub struct Reservoir {
    buf: Vec<f64>,
    len: usize,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    pub fn new(cap: usize) -> Self {
        // A non-zero fill value makes every page resident now.
        Self { buf: vec![-1.0; cap], len: 0, seen: 0, rng: Rng::new(0x5EED) }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = x;
            self.len += 1;
        } else {
            let j = (self.rng.next_u64() % self.seen) as usize;
            if j < self.buf.len() {
                self.buf[j] = x;
            }
        }
    }

    /// The kept values.
    pub fn samples(&self) -> &[f64] {
        &self.buf[..self.len]
    }

    /// Values pushed, kept or not.
    #[cfg(test)]
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_uniform_sample() {
        let mut r = Reservoir::new(1_000);
        (0..500).for_each(|i| r.push(f64::from(i)));
        assert_eq!(r.samples().len(), 500);
        assert_eq!(median(r.samples()), Some(249.0));
        (500..100_000).for_each(|i| r.push(f64::from(i)));
        assert_eq!((r.samples().len(), r.seen()), (1_000, 100_000));
        let m = median(r.samples()).expect("full");
        assert!((40_000.0..60_000.0).contains(&m), "median {m} of a uniform sample");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p99.9 of 10 000 samples is rank 9 990: exactly ten beyond.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // One fewer sample leaves only nine beyond p99.9, so p99 it is.
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        // About 25 samples, as an audit run sees: only the median has
        // ten samples beyond it.
        assert_eq!(tail_percentile(25), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn every_chosen_tail_really_has_ten_beyond() {
        for n in 1..3_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }
}

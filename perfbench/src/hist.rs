//! A log-linear histogram of nanosecond durations.
//!
//! The runtime's own `LatencyHistogram` has 1 µs buckets, too coarse for
//! a ~500 ns fragment execution. Here every power of two is split into
//! 32 buckets, so a quantile is within ~3% of the recorded value at any
//! magnitude, and the whole `u64` range fits in 1920 counters.

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) as usize & (SUB - 1);
    (((shift + 1) as usize) << SUB_BITS) + sub
}

/// The smallest value in bucket `i`, and the bucket's width.
fn bucket(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i >> SUB_BITS) as u32 - 1;
    let sub = (i & (SUB - 1)) as u64;
    ((SUB as u64 + sub) << shift, 1 << shift)
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`q` in [0, 1]), interpolated linearly between
    /// the samples of its bucket; 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= target {
                let (lo, width) = bucket(i);
                let within = (target - seen) as f64 - 0.5;
                return lo as f64 + width as f64 * within / c as f64;
            }
            seen += c;
        }
        unreachable!("target never exceeds the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_and_bound_the_error() {
        for v in (0..5000u64).chain([1 << 20, (1 << 40) + 12345, u64::MAX]) {
            let (lo, width) = bucket(index(v));
            assert!(lo <= v && v - lo < width, "{v} outside bucket {lo}+{width}");
            assert!(width == 1 || (width as f64) / (lo as f64) <= 1.0 / 32.0);
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_follow_the_samples() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.03, "{p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.03, "{p99}");
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}

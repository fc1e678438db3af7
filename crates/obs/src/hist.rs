//! HDR-style histograms.
//!
//! Values (nanosecond durations, typically) land in logarithmic buckets
//! with 4 linear sub-buckets per power of two — neighbouring bucket
//! floors 14–25% apart — across the full `u64` range in a fixed
//! 256-slot table, no allocation per record. Quantiles report the floor
//! of the bucket holding their rank, so a reported p99 is a lower bound
//! at that resolution; the mean is exact (a running sum).

/// Number of buckets: 8 exact small-value slots + 4 sub-buckets for each
/// of the 61 octaves above 8.
pub const NUM_BUCKETS: usize = 8 + 61 * 4;

/// A fixed-resolution log-bucketed histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Box<[u64; NUM_BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Box::new([0; NUM_BUCKETS]),
        }
    }
}

/// Bucket index of a value: identity below 8, then `(octave, 2-bit
/// mantissa)` above.
fn bucket_of(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 3
        let sub = ((v >> (msb - 2)) & 0x3) as usize;
        8 + (msb - 3) * 4 + sub
    }
}

/// Inclusive lower bound of a bucket (the value quantiles report).
fn bucket_floor(idx: usize) -> u64 {
    if idx < 8 {
        idx as u64
    } else {
        let msb = (idx - 8) / 4 + 3;
        let sub = ((idx - 8) % 4) as u64;
        (1u64 << msb) + (sub << (msb - 2))
    }
}

impl Histogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, at bucket resolution
    /// (exact `min`/`max` are reported at the extremes).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_floor(idx).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Condense into the fixed summary the reports carry.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// The condensed form of a [`Histogram`] (what sidecar files store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (bucket resolution).
    pub p50: u64,
    /// 90th percentile (bucket resolution).
    pub p90: u64,
    /// 99th percentile (bucket resolution).
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_consistent() {
        let mut prev = 0;
        for v in [0u64, 1, 7, 8, 9, 100, 1_000, 65_536, u64::MAX / 2] {
            let idx = bucket_of(v);
            assert!(idx >= prev, "bucket index regressed at {v}");
            prev = idx;
            assert!(bucket_floor(idx) <= v, "floor above value at {v}");
            assert!(idx < NUM_BUCKETS);
        }
    }

    #[test]
    fn quantiles_bound_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1000);
        assert_eq!(h.max(), 1_000_000);
        let p50 = h.quantile(0.5);
        // Bucket resolution is ~6%: the median of 1k..=1M uniform is 500k.
        assert!((400_000..=600_000).contains(&p50), "p50 {p50} out of range");
        assert!(h.quantile(0.99) >= p50);
        assert!(h.quantile(1.0) == 1_000_000);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in [5u64, 17, 120, 4096, 77777] {
            a.record(v);
            c.record(v);
        }
        for v in [1u64, 300, 9999] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.sum(), c.sum());
        assert_eq!(a.summary(), c.summary());
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary().mean(), 0.0);
    }
}

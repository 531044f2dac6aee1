//! Fixed-bucket log-scale histograms for latency (and, later, cost-model
//! Q-error) reporting.
//!
//! The design follows HDR-histogram-style bucketing without the generic
//! machinery: values below 16 get exact unit buckets; every power-of-two
//! range `[2^m, 2^(m+1))` above that is split into 16 equal sub-buckets, so
//! any recorded value lands in a bucket whose width is at most 1/16 of its
//! lower bound (≤ 6.25 % relative quantile error).  The full `u64` range
//! fits in 976 buckets — about 8 KiB per shard — so each recording thread
//! can keep a private shard and the shards are merged by plain count
//! addition at the end (merging is associative and commutative, which the
//! property tests pin down).
//!
//! Quantiles report the *upper bound* of the bucket containing the rank,
//! making `quantile(q)` monotone in `q` by construction and never
//! under-reporting a tail.

/// Sub-bucket resolution: each power-of-two range splits into `2^SUB_BITS`
/// buckets.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS; // 16 sub-buckets
/// Total bucket count for the full `u64` domain: 16 unit buckets for values
/// < 16, then 16 sub-buckets for each of the 60 power-of-two ranges
/// `[2^4, 2^5) … [2^63, 2^64)`.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A mergeable fixed-memory log-scale histogram over `u64` values.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index `value` falls into.
    fn bucket_index(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros(); // >= SUB_BITS here
        let group = (msb - SUB_BITS + 1) as usize;
        let sub = ((value >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
        group * SUB as usize + sub
    }

    /// The half-open value range `[lo, hi)` covered by bucket `index`.
    /// For the last bucket `hi` saturates at `u64::MAX` (the bucket is
    /// logically `[lo, 2^64)`).
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < BUCKETS, "bucket index out of range");
        let i = index as u64;
        if i < SUB {
            return (i, i + 1);
        }
        let group = i / SUB - 1 + SUB_BITS as u64; // the msb of values in this group
        let sub = i % SUB;
        let shift = group - SUB_BITS as u64;
        let lo = (SUB + sub) << shift;
        let width = 1u64 << shift;
        (lo, lo.saturating_add(width).max(lo.saturating_add(1)))
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (exact sum, f64 division).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Adds every count of `other` into `self` (shard merging).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the rank-`ceil(q·n)` value — monotone in `q`, never below the
    /// true quantile by more than one bucket width.  Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = Self::bucket_bounds(i);
                // `hi` saturates in the final bucket (logically 2^64).
                let upper = if hi == u64::MAX { u64::MAX } else { hi - 1 };
                // Never report beyond the observed maximum: the last
                // occupied bucket's upper bound can overshoot `max` by up to
                // one bucket width.
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, in value order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn unit_buckets_are_exact_below_sixteen() {
        for v in 0..SUB {
            let (lo, hi) = LogHistogram::bucket_bounds(LogHistogram::bucket_index(v));
            assert_eq!((lo, hi), (v, v + 1));
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for i in SUB as usize..BUCKETS {
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            let width = hi - lo;
            assert!(
                width as f64 <= lo as f64 / SUB as f64 + 1.0,
                "bucket {i}: [{lo}, {hi}) too wide"
            );
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Upper-bound semantics: within one bucket (≤ 1/16 relative) above
        // the exact quantile.
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((500..=540).contains(&p50), "p50 = {p50}");
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), h.quantile(1.0 / 1000.0));
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    proptest! {
        /// Bucket-boundary property: every recorded value lands in a bucket
        /// whose bounds contain it.
        #[test]
        fn recorded_value_is_inside_its_bucket(value in any::<u64>()) {
            let i = LogHistogram::bucket_index(value);
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            prop_assert!(lo <= value, "value {value} below bucket [{lo}, {hi})");
            // The last bucket's `hi` saturates; treat it as unbounded.
            prop_assert!(value < hi || hi == u64::MAX, "value {value} above bucket [{lo}, {hi})");
        }

        /// Bucket indexes partition the domain: bounds are contiguous and
        /// increasing across the whole table.
        #[test]
        fn buckets_are_contiguous(index in 0usize..BUCKETS - 1) {
            let (lo, hi) = LogHistogram::bucket_bounds(index);
            let (next_lo, _) = LogHistogram::bucket_bounds(index + 1);
            prop_assert!(lo < hi);
            prop_assert_eq!(hi, next_lo);
        }

        /// Merge is commutative and associative, and equals recording the
        /// concatenated stream directly.
        #[test]
        fn merge_is_commutative_associative(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut shards: Vec<LogHistogram> = Vec::new();
            let mut direct = LogHistogram::new();
            for _ in 0..3 {
                let mut h = LogHistogram::new();
                for _ in 0..rng.gen_range(0..50usize) {
                    // Span many orders of magnitude.
                    let v = rng.gen::<u64>() >> rng.gen_range(0..64u32);
                    h.record(v);
                    direct.record(v);
                }
                shards.push(h);
            }
            let [a, b, c] = [&shards[0], &shards[1], &shards[2]];
            // (a ∪ b) ∪ c
            let mut left = a.clone();
            left.merge(b);
            left.merge(c);
            // a ∪ (c ∪ b)  — different order *and* grouping
            let mut right = c.clone();
            right.merge(b);
            let mut outer = a.clone();
            outer.merge(&right);
            prop_assert_eq!(&left.counts, &outer.counts);
            prop_assert_eq!(left.total, outer.total);
            prop_assert_eq!(left.sum, outer.sum);
            prop_assert_eq!(left.min, outer.min);
            prop_assert_eq!(left.max, outer.max);
            // Merging shards equals recording the whole stream directly.
            prop_assert_eq!(&left.counts, &direct.counts);
            prop_assert_eq!(left.max(), direct.max());
            for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                prop_assert_eq!(left.quantile(q), direct.quantile(q));
            }
        }

        /// Quantiles are monotone in q.
        #[test]
        fn quantiles_are_monotone(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut h = LogHistogram::new();
            for _ in 0..rng.gen_range(1..200usize) {
                h.record(rng.gen::<u64>() >> rng.gen_range(0..64u32));
            }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
            let values: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
            for pair in values.windows(2) {
                prop_assert!(pair[0] <= pair[1], "quantiles not monotone: {values:?}");
            }
            // And the extremes agree with the tracked min/max buckets.
            prop_assert!(values[0] >= h.min());
            prop_assert_eq!(*values.last().unwrap(), h.max());
        }
    }
}

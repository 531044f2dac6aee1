//! Exact sample statistics.  Every sample is kept (runs are short), so a
//! percentile is an interpolated order statistic rather than a histogram
//! bucket edge.

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one measurement.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Adds every measurement of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no measurements.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 for an empty set).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Whether the sample supports percentile `q`: at least ten samples lie
    /// beyond it (and, for the median, ten on either side).
    pub fn supports(&self, q: f64) -> bool {
        let tail = q.min(1.0 - q);
        // The epsilon absorbs `1.0 - 0.9 < 0.1` in binary floating point.
        self.values.len() as f64 * tail + 1e-9 >= 10.0
    }

    /// Percentile `q` in `[0, 1]`, linearly interpolated between order
    /// statistics; `None` when the sample does not support it.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if !self.supports(q) {
            return None;
        }
        Some(self.quantile_unchecked(q))
    }

    /// Percentile `q` regardless of the sample size (0 for an empty set).
    pub fn quantile_unchecked(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let pos = q.clamp(0.0, 1.0) * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.values[lo] + (self.values[hi] - self.values[lo]) * frac
    }
}

/// Median of a small set of values (0 for an empty set).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    values.iter().for_each(|&v| s.push(v));
    s.quantile_unchecked(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_respect_the_sample_size() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.quantile(0.5), Some(50.5));
        assert!((s.quantile(0.9).unwrap() - 90.1).abs() < 1e-9);
        // p99 needs 1000 samples: ten beyond it.
        assert_eq!(s.quantile(0.99), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let mut few = Samples::new();
        few.push(1.0);
        assert_eq!(few.quantile(0.5), None);
        assert_eq!(few.quantile_unchecked(0.5), 1.0);
    }
}

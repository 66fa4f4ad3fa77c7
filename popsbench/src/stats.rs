//! Exact-sample statistics: every sample is kept, so a percentile is a
//! sample value, not a histogram bucket edge.

/// A percentile read from sorted samples, with the evidence behind it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The sample value at the percentile (nearest rank).
    pub value: f64,
    /// How many samples lie strictly above `value`.
    pub beyond: usize,
}

/// Samples sorted once, queried many times.
#[derive(Debug, Clone)]
pub struct Sorted(Vec<f64>);

/// A percentile needs at least this many samples beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

impl Sorted {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest-rank `p`-quantile (`0 < p <= 1`), or `None` on no
    /// samples.
    pub fn percentile(&self, p: f64) -> Option<Percentile> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        let value = self.0[rank - 1];
        let beyond = n - self.0.partition_point(|&v| v <= value);
        Some(Percentile { value, beyond })
    }

    /// Like [`Sorted::percentile`], but refuses a percentile that fewer
    /// than [`MIN_BEYOND`] samples lie beyond.
    pub fn supported_percentile(&self, p: f64) -> Result<Percentile, String> {
        let q = self.percentile(p).ok_or_else(|| "no samples".to_string())?;
        if q.beyond < MIN_BEYOND {
            return Err(format!(
                "p{} has only {} of {} samples beyond it (need {MIN_BEYOND})",
                p * 100.0,
                q.beyond,
                self.len()
            ));
        }
        Ok(q)
    }

    pub fn median(&self) -> f64 {
        median_of_sorted(&self.0)
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median of unsorted samples (mean of the middle two on even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_of_sorted(&sorted)
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_what_lies_beyond() {
        let s = Sorted::new((1..=1000).map(f64::from).collect());
        let p50 = s.percentile(0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        let p99 = s.percentile(0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(s.supported_percentile(0.99).is_ok());
        assert!(s.supported_percentile(0.999).is_err());
    }

    #[test]
    fn ties_do_not_count_as_beyond() {
        let s = Sorted::new(vec![1.0, 2.0, 2.0, 2.0, 3.0]);
        let p = s.percentile(0.5).unwrap();
        assert_eq!((p.value, p.beyond), (2.0, 1));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

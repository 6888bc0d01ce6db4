//! Order statistics for timings: medians, quartiles, and the tail
//! percentile a sample can support.

/// Percentiles a tail is reported at, lowest first.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten of `n`
/// samples strictly beyond its nearest rank, or `None` below 20 samples.
/// Reporting a percentile with fewer samples beyond it would rest the
/// number on a handful of outliers.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= 10)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (0.999 * 10_000 > 9_990) off the rank.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Quantile `q` (0..1) of ascending `sorted`, interpolated the way Python's
/// `statistics.quantiles` does by default (the "exclusive" method), so a
/// spread printed here matches one computed over the same values there.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let m = q * (n + 1) as f64;
            let j = (m.floor() as usize).clamp(1, n - 1);
            let delta = (m - j as f64).clamp(0.0, 1.0);
            sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
        }
    }
}

/// Median and quartiles of a sample, plus its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a sample (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(5_000_000), Some(99.99));
    }

    #[test]
    fn percentiles_and_quartiles() {
        let sorted: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 100.0), 1_000.0);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[4.0]).spread(), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}

//! The one percentile rule every metric of the benchmark uses.
//!
//! Quantiles are *nearest rank*: the `p`-th percentile of `n` ascending
//! samples is the sample at rank `ceil(p·n/100)` (1-based), so it is
//! always a value that was measured, never an interpolation. A tail
//! percentile is published only when at least [`MIN_BEYOND`] samples lie
//! strictly beyond its rank; below that it is withheld.

/// Samples that must lie beyond a tail percentile before it is published.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `pct` among `n` samples
/// (`n >= 1`).
pub fn rank(n: usize, pct: u32) -> usize {
    let pct = pct.min(100) as usize;
    (pct * n).div_ceil(100).clamp(1, n)
}

/// The nearest-rank `pct`-th percentile of ascending `sorted`, or `None`
/// for no samples.
pub fn nearest_rank(sorted: &[f64], pct: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// A sorted sample set with the quantile and publishing rules applied.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `values` (NaNs are dropped: they are never measured values).
    pub fn new(mut values: Vec<f64>) -> Dist {
        values.retain(|v| !v.is_nan());
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `pct`-th percentile; `None` without samples.
    pub fn pct(&self, pct: u32) -> Option<f64> {
        nearest_rank(&self.sorted, pct)
    }

    /// The nearest-rank percentile if at least [`MIN_BEYOND`] samples lie
    /// beyond it, else `None` (withheld).
    pub fn tail(&self, pct: u32) -> Option<f64> {
        let n = self.n();
        if n == 0 || n - rank(n, pct) < MIN_BEYOND {
            return None;
        }
        self.pct(pct)
    }

    /// Median (nearest rank), 0 without samples.
    pub fn p50(&self) -> f64 {
        self.pct(50).unwrap_or(0.0)
    }

    /// Sum of every sample.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_exact_values() {
        let ten = one_to(10);
        assert_eq!(nearest_rank(&ten, 50), Some(5.0));
        assert_eq!(nearest_rank(&ten, 90), Some(9.0));
        assert_eq!(nearest_rank(&ten, 91), Some(10.0));
        assert_eq!(nearest_rank(&ten, 99), Some(10.0));
        assert_eq!(nearest_rank(&ten, 100), Some(10.0));
        assert_eq!(nearest_rank(&ten, 0), Some(1.0));
        assert_eq!(nearest_rank(&[7.5], 50), Some(7.5));
        assert_eq!(nearest_rank(&[], 50), None);
        // Odd count: the true middle; even count: the lower middle.
        assert_eq!(nearest_rank(&one_to(5), 50), Some(3.0));
        assert_eq!(nearest_rank(&one_to(4), 50), Some(2.0));
        assert_eq!(nearest_rank(&one_to(1000), 99), Some(990.0));
        assert_eq!(nearest_rank(&one_to(1001), 99), Some(991.0));
    }

    #[test]
    fn dist_sorts_and_drops_nan() {
        let d = Dist::new(vec![3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(d.n(), 3);
        assert_eq!(d.p50(), 2.0);
        assert_eq!(d.sum(), 6.0);
        assert_eq!(Dist::new(Vec::new()).p50(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 999 samples: rank(p99) = 990, only 9 beyond -> withheld.
        assert_eq!(Dist::new(one_to(999)).tail(99), None);
        // 1000 samples: rank 990, exactly 10 beyond -> published.
        assert_eq!(Dist::new(one_to(1000)).tail(99), Some(990.0));
        // The median of 20 samples has 10 beyond it.
        assert_eq!(Dist::new(one_to(20)).tail(50), Some(10.0));
        assert_eq!(Dist::new(one_to(19)).tail(50), None);
    }
}

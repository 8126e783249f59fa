//! Order statistics and the slice arithmetic every reported number uses.

/// Linear-interpolated percentile of an ascending slice (`q` in 0..=1).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    out
}

pub fn percentile(values: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Median with its quartiles, as printed beside every reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let sorted = sorted(values);
    Quartiles {
        q1: percentile_sorted(&sorted, 0.25),
        median: percentile_sorted(&sorted, 0.5),
        q3: percentile_sorted(&sorted, 0.75),
        n: sorted.len(),
    }
}

impl std::fmt::Display for Quartiles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} [{:.2} .. {:.2}] n={}", self.median, self.q1, self.q3, self.n)
    }
}

/// Inter-quartile range over the median: the spread the acceptance rule
/// compares against a metric's bound. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), because that is
/// what the driver computes.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n >= 2, "spread needs two samples");
    let at = |k: usize| {
        let position = k as f64 * (n + 1) as f64 / 4.0;
        let low = (position.floor() as usize).clamp(1, n - 1);
        sorted[low - 1] + (sorted[low] - sorted[low - 1]) * (position - low as f64)
    };
    (at(3) - at(1)) / percentile_sorted(&sorted, 0.5)
}

/// Mean over the samples between the first and third quartile (inclusive)
/// of `key`: robust to stalls, and — unlike a median — additive, so ledger
/// rows computed over one selection still sum to their total.
pub fn midmean_selection(key: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..key.len()).collect();
    order.sort_by(|&a, &b| key[a].partial_cmp(&key[b]).expect("finite"));
    let quarter = order.len() / 4;
    order[quarter..order.len() - quarter].to_vec()
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values.into_iter().fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Boundaries of a closed-loop run of `ops` operations: the first tenth is
/// warm-up, the rest is cut into `slices` runs of equal op count (the last
/// few ops that do not divide evenly join the warm-up instead, so every
/// slice is the same size). Returns `(warmup_ops, ops_per_slice)`.
pub fn slice_plan(ops: u64, slices: usize) -> (u64, u64) {
    let per_slice = (ops - ops / 10) / slices as u64;
    (ops - per_slice * slices as u64, per_slice)
}

/// Least-squares slope of `y` over `x`.
pub fn slope(x: &[f64], y: &[f64]) -> f64 {
    let mx = mean(x.iter().copied());
    let my = mean(y.iter().copied());
    let num: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let den: f64 = x.iter().map(|a| (a - mx).powi(2)).sum();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 1.0), 4.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let q = quartiles(&values);
        assert_eq!((q.q1, q.median, q.q3, q.n), (1.75, 2.5, 3.25, 4));
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 15, 13], n=4) == [10.5, 12.0, 14.0]
        let values = [10.0, 12.0, 11.0, 15.0, 13.0];
        assert!((iqr_over_median(&values) - 3.5 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn slices_are_equal_and_cover_the_run() {
        for ops in [1_200u64, 24_000, 1_000_003, 160] {
            let (warmup, per_slice) = slice_plan(ops, 16);
            assert_eq!(warmup + per_slice * 16, ops);
            assert!(warmup >= ops / 10 && warmup < ops / 10 + 16);
        }
    }

    #[test]
    fn midmean_drops_the_tails_and_stays_additive() {
        let total = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 1_000.0];
        let part = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let keep = midmean_selection(&total);
        assert_eq!(keep, vec![2, 3, 4, 5]);
        let rest: Vec<f64> = total.iter().zip(&part).map(|(t, p)| t - p).collect();
        let pick = |v: &[f64]| mean(keep.iter().map(|&i| v[i]));
        assert!((pick(&total) - pick(&part) - pick(&rest)).abs() < 1e-12);
    }

    #[test]
    fn slope_of_a_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [5.0, 7.0, 9.0, 11.0];
        assert!((slope(&x, &y) - 2.0).abs() < 1e-12);
    }
}

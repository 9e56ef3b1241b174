//! Estimators: nearest-rank percentiles within a round, the quiet
//! quarter and the median across rounds, and the quartile spread the
//! driver gates on.

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the
/// smallest sample with at least `pct` percent of the samples at or
/// below it. Always a sample that was measured, never interpolated.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the best quarter of `values` (at least one): the lowest, or
/// with `higher_is_better` the highest. What disturbs a round on a
/// shared host — stolen CPU time, a neighbour on the sibling hardware
/// thread, a halted CPU that is slow to wake — only ever makes it
/// slower, so the quietest rounds are the ones that measured the
/// program, and they repeat from run to run where the median does not
/// (README, "Steadiness"). A change to the program moves every round,
/// the quiet ones included.
pub fn quiet_mean(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v.truncate(v.len().div_ceil(4));
    ratio(v.iter().sum(), v.len() as f64)
}

/// `num / den`, or 0 when there is nothing to divide by (a metric that
/// does not apply to a workload reads 0, never NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median: the middle sample, or the mean of the two middle ones.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method),
/// so `--self-check` computes the spread the driver computes. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let ten: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        assert_eq!(percentile(&ten, 50.0), 50);
        assert_eq!(percentile(&ten, 90.0), 90);
        assert_eq!(percentile(&ten, 99.0), 100);
        assert_eq!(percentile(&ten, 100.0), 100);
        assert_eq!(percentile(&ten, 0.0), 10);
        // The textbook example: 15, 20, 35, 40, 50.
        let five = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&five, 30.0), 20);
        assert_eq!(percentile(&five, 40.0), 20);
        assert_eq!(percentile(&five, 50.0), 35);
        assert_eq!(percentile(&[7], 90.0), 7);
    }

    #[test]
    fn quiet_mean_is_the_mean_of_the_best_quarter() {
        let v = [5.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0, 4.0];
        assert_eq!(quiet_mean(&v, false), 1.5);
        assert_eq!(quiet_mean(&v, true), 8.5);
        // Nine rounds: the best three.
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quiet_mean(&nine, false), 2.0);
        assert_eq!(quiet_mean(&[6.0], true), 6.0);
        assert_eq!(quiet_mean(&[], false), 0.0);
        // Slow rounds, however many of the other three quarters, do not move it.
        assert_eq!(quiet_mean(&[10.0, 10.0, 500.0, 900.0, 10.5, 700.0, 800.0, 600.0], false), 10.0);
    }

    #[test]
    fn median_of_rounds_on_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
        // One slow round does not move it.
        assert_eq!(median(&[10.0, 10.0, 11.0, 10.0, 500.0]), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}

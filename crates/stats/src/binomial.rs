//! Confidence intervals for binomial proportions.

/// The Wilson score interval for a binomial proportion.
///
/// Returns `(low, high)` bounds for the success probability given
/// `successes` out of `trials` at the given `z` score (1.96 ≈ 95%).
/// Unlike the normal approximation, Wilson behaves sensibly near 0 and 1 and
/// for small samples — exactly where the paper's w.h.p. experiments live.
///
/// # Panics
///
/// Panics if `trials == 0`, `successes > trials`, or `z` is not positive.
///
/// # Example
///
/// ```
/// use pp_stats::wilson_interval;
///
/// let (lo, hi) = wilson_interval(9, 10, 1.96);
/// assert!(lo > 0.5 && hi < 1.0);
/// assert!(lo < 0.9 && hi > 0.9);
/// ```
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    assert!(trials > 0, "need at least one trial");
    assert!(successes <= trials, "more successes than trials");
    assert!(z > 0.0, "z score must be positive");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// The 95% Wilson interval.
pub fn wilson95(successes: u64, trials: u64) -> (f64, f64) {
    wilson_interval(successes, trials, 1.96)
}

/// The pooled two-proportion z statistic of `x1/n1` against `x2/n2`: the
/// difference of the proportions over its standard error under the null
/// hypothesis that both samples share one success probability. Returns 0
/// when the pooled proportion is 0 or 1 (the samples cannot differ).
///
/// # Panics
///
/// Panics if either sample has no trials or more successes than trials.
///
/// # Example
///
/// ```
/// use pp_stats::two_proportion_z;
///
/// assert_eq!(two_proportion_z(50, 100, 150, 300), 0.0);
/// assert!(two_proportion_z(80, 100, 50, 100) > 3.29);
/// ```
pub fn two_proportion_z(x1: u64, n1: u64, x2: u64, n2: u64) -> f64 {
    assert!(n1 > 0 && n2 > 0, "need at least one trial per sample");
    assert!(x1 <= n1 && x2 <= n2, "more successes than trials");
    let (n1f, n2f) = (n1 as f64, n2 as f64);
    let pooled = (x1 + x2) as f64 / (n1f + n2f);
    let se = (pooled * (1.0 - pooled) * (1.0 / n1f + 1.0 / n2f)).sqrt();
    if se == 0.0 {
        return 0.0;
    }
    (x1 as f64 / n1f - x2 as f64 / n2f) / se
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brackets_the_point_estimate() {
        for (s, t) in [(0u64, 10u64), (5, 10), (10, 10), (500, 1000), (1, 1000)] {
            let p = s as f64 / t as f64;
            let (lo, hi) = wilson95(s, t);
            assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "{s}/{t}: [{lo}, {hi}]");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn extreme_proportions_stay_inside_unit_interval() {
        let (lo, hi) = wilson95(0, 20);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.25, "hi = {hi}");
        let (lo, hi) = wilson95(20, 20);
        assert_eq!(hi, 1.0);
        assert!(lo > 0.75 && lo < 1.0, "lo = {lo}");
    }

    #[test]
    fn interval_narrows_with_more_trials() {
        let (lo1, hi1) = wilson95(50, 100);
        let (lo2, hi2) = wilson95(5000, 10_000);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn higher_confidence_widens() {
        let (lo95, hi95) = wilson_interval(30, 100, 1.96);
        let (lo99, hi99) = wilson_interval(30, 100, 2.576);
        assert!(lo99 < lo95 && hi99 > hi95);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        wilson95(0, 0);
    }

    #[test]
    #[should_panic(expected = "more successes")]
    fn overflow_successes_panics() {
        wilson95(11, 10);
    }

    #[test]
    fn two_proportion_z_known_values() {
        // 60/100 vs 40/100: pooled 0.5, se = sqrt(0.25 * 0.02) = 0.0707.
        let z = two_proportion_z(60, 100, 40, 100);
        assert!((z - 0.2 / 0.02f64.sqrt() / 0.5).abs() < 1e-12, "z = {z}");
        assert_eq!(two_proportion_z(40, 100, 60, 100), -z);
        assert_eq!(two_proportion_z(0, 10, 0, 30), 0.0);
        assert_eq!(two_proportion_z(10, 10, 30, 30), 0.0);
    }

    #[test]
    fn known_value_spot_check() {
        // Classic example: 9/10 at 95% → approximately (0.596, 0.982).
        let (lo, hi) = wilson95(9, 10);
        assert!((lo - 0.596).abs() < 0.01, "lo = {lo}");
        assert!((hi - 0.982).abs() < 0.01, "hi = {hi}");
    }
}

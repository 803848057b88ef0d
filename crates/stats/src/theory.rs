//! Closed-form reference curves from the paper and classic results.

/// Mean and variance, in interactions, of fratricide's stabilization time
/// on `n` agents: while `k` leaders remain, an interaction demotes one with
/// probability `p_k = k(k−1)/(n(n−1))`, so the time is a sum of independent
/// geometrics over `k = 2..=n` with mean `Σ 1/p_k = (n−1)²` and variance
/// `Σ (1−p_k)/p_k²`. An oracle no engine tier can share a bug with.
pub fn fratricide_stabilization(n: u64) -> (f64, f64) {
    let nn = n as f64 * (n as f64 - 1.0);
    let mut mean = 0.0;
    let mut var = 0.0;
    for k in 2..=n {
        let p = k as f64 * (k as f64 - 1.0) / nn;
        mean += 1.0 / p;
        var += (1.0 - p) / (p * p);
    }
    (mean, var)
}

/// The `n`-th harmonic number `H_n = Σ_{k=1}^{n} 1/k`.
pub fn harmonic(n: u64) -> f64 {
    (1..=n).map(|k| 1.0 / k as f64).sum()
}

/// The coupon-collector expectation `n·H_n`: the expected number of draws
/// to see all `n` coupons. Divided by `n` it is the `Ω(log n)` floor that
/// any leader-election protocol starting from a uniform configuration must
/// pay for every agent to interact at all (paper, introduction & \[SM19\]).
pub fn coupon_collector(n: u64) -> f64 {
    n as f64 * harmonic(n)
}

/// The paper's Section 3.1.1 lottery-game bound: the probability that
/// exactly `i ≥ 2` agents survive `QuickElimination()` is at most `2^{1−i}`.
pub fn lottery_survivor_bound(i: u32) -> f64 {
    if i < 2 {
        1.0
    } else {
        (2.0f64).powi(1 - i as i32)
    }
}

/// The exact fixed point of the paper's game recurrence,
/// `p_i = 1/(2^i − 1)`: the probability that a lottery that currently has
/// `i` co-leading agents ends with all `i` winning together.
pub fn lottery_survivor_exact(i: u32) -> f64 {
    1.0 / ((2.0f64).powi(i as i32) - 1.0)
}

/// Lemma 2's epidemic tail bound `min(1, n·e^{−t/n})` for the probability
/// that a sub-population epidemic is unfinished after `2⌈n/n'⌉·t` steps.
pub fn epidemic_tail_bound(n: u64, t: f64) -> f64 {
    (n as f64 * (-t / n as f64).exp()).min(1.0)
}

/// Multiplicative Chernoff upper-tail bound (Lemma 1, eq. 1):
/// `P[X ≥ (1+δ)μ] ≤ exp(−δ²μ/3)` for `0 ≤ δ ≤ 1`.
///
/// # Panics
///
/// Panics if `delta` is outside `[0, 1]` or `mu` is negative.
pub fn chernoff_upper(mu: f64, delta: f64) -> f64 {
    assert!((0.0..=1.0).contains(&delta), "delta must be in [0, 1]");
    assert!(mu >= 0.0, "mean must be non-negative");
    (-delta * delta * mu / 3.0).exp()
}

/// Multiplicative Chernoff lower-tail bound (Lemma 1, eq. 2):
/// `P[X ≤ (1−δ)μ] ≤ exp(−δ²μ/2)` for `0 < δ < 1`.
///
/// # Panics
///
/// Panics if `delta` is outside `(0, 1)` or `mu` is negative.
pub fn chernoff_lower(mu: f64, delta: f64) -> f64 {
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
    assert!(mu >= 0.0, "mean must be non-negative");
    (-delta * delta * mu / 2.0).exp()
}

/// The paper's headline step horizon `⌊21·n·ln n⌋` (Lemmas 6 and 7): the
/// window within which `QuickElimination()` completes w.h.p.
pub fn qe_horizon(n: u64) -> u64 {
    (21.0 * n as f64 * (n as f64).ln()).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_values() {
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
        // H_n ≈ ln n + γ.
        let approx = (1000f64).ln() + 0.577_215_664_9;
        assert!((harmonic(1000) - approx).abs() < 1e-3);
    }

    #[test]
    fn coupon_collector_grows_n_log_n() {
        let r = coupon_collector(2000) / coupon_collector(1000);
        // (2000 ln 2000)/(1000 ln 1000) ≈ 2.2.
        assert!(r > 2.0 && r < 2.4, "ratio {r}");
    }

    #[test]
    fn lottery_bounds_dominate_exact_values() {
        let mut total = 0.0;
        for i in 2..=20 {
            let exact = lottery_survivor_exact(i);
            let bound = lottery_survivor_bound(i);
            assert!(exact <= bound, "i={i}: {exact} > {bound}");
            total += bound;
        }
        // Σ_{i≥2} 2^{1-i} = 1.
        assert!(total <= 1.0 + 1e-9);
        assert_eq!(lottery_survivor_bound(0), 1.0);
        assert_eq!(lottery_survivor_bound(1), 1.0);
    }

    #[test]
    fn lottery_exact_fixed_point_identity() {
        // p_i satisfies p_i = 2^{-i} + 2^{-i} p_i.
        for i in 2..=10 {
            let p = lottery_survivor_exact(i);
            let rhs = (2.0f64).powi(-(i as i32)) * (1.0 + p);
            assert!((p - rhs).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn epidemic_tail_decays() {
        assert_eq!(epidemic_tail_bound(100, 0.0), 1.0);
        let a = epidemic_tail_bound(100, 600.0);
        let b = epidemic_tail_bound(100, 1200.0);
        assert!(b < a && a < 1.0);
    }

    #[test]
    fn chernoff_bounds_shrink_with_mu_and_delta() {
        assert!(chernoff_upper(100.0, 0.5) < chernoff_upper(10.0, 0.5));
        assert!(chernoff_upper(100.0, 0.9) < chernoff_upper(100.0, 0.1));
        assert!(chernoff_lower(100.0, 0.5) < chernoff_lower(10.0, 0.5));
        // The paper's Lemma 6 calculation: cmax = 41m ≥ 58 ln n gives
        // probability O(n^{-2}); sanity check the magnitude at n = 1024.
        let n = 1024f64;
        let mu = 42.0 * n.ln();
        let p = chernoff_upper(mu, 16.0 / 42.0);
        assert!(p < 1e-5, "p = {p}");
    }

    #[test]
    fn fratricide_law_closed_forms() {
        // n = 2: one geometric with p = 1 — zero variance, one step.
        assert_eq!(fratricide_stabilization(2), (1.0, 0.0));
        for n in [3u64, 16, 4096] {
            let (mean, var) = fratricide_stabilization(n);
            let m = (n - 1) as f64;
            assert!((mean / (m * m) - 1.0).abs() < 1e-9, "n={n}: mean {mean}");
            assert!(var > 0.0 && var < mean * mean, "n={n}: var {var}");
        }
    }

    #[test]
    fn qe_horizon_formula() {
        assert_eq!(qe_horizon(100), (21.0 * 100.0 * (100f64).ln()) as u64);
        assert!(qe_horizon(1000) > qe_horizon(100));
    }
}

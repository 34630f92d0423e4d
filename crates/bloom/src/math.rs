//! Closed-form analysis of Bloom filters and the TCBF, following
//! Sections III and VI of the B-SUB paper.
//!
//! Equation numbers refer to the paper:
//!
//! - Eq. 1 — [`false_positive_rate`]
//! - Eq. 2 — [`expected_set_bits`]
//! - Eq. 3 — [`fill_ratio`] (and its inverse, [`keys_from_fill_ratio`])
//! - Eq. 4 — [`expected_min_increments`]
//! - Eq. 5 — [`decaying_factor`]
//! - Eq. 6 — [`expected_unique_keys`]
//! - Eq. 7 — [`joint_false_positive_rate`]
//! - Eq. 8 — [`wire`] provides the per-filter memory model; see
//!   [`crate::allocation`] for the Eq. 9–10 optimizer built on it.
//!
//! [`wire`]: crate::wire

/// Eq. 1 — false positive rate of a Bloom filter of `m` bits and `k`
/// hash functions holding `n` keys: `(1 - e^{-kn/m})^k`.
///
/// # Examples
///
/// The paper's Section VII-A setting — 256 bits, 4 hashes, 38 keys —
/// yields the quoted worst-case FPR of about 0.04:
///
/// ```
/// let fpr = bsub_bloom::math::false_positive_rate(256, 4, 38.0);
/// assert!((fpr - 0.04).abs() < 0.005);
/// ```
///
/// # Panics
///
/// Panics if `m == 0` or `k == 0`, or if `n` is negative or not finite.
#[must_use]
pub fn false_positive_rate(m: usize, k: usize, n: f64) -> f64 {
    fill_ratio(m, k, n).powi(k as i32)
}

/// Eq. 2 — expected number of set bits after inserting `n` keys:
/// `m(1 - e^{-kn/m})`.
///
/// # Panics
///
/// Panics if `m == 0` or `k == 0`, or if `n` is negative or not finite.
#[must_use]
pub fn expected_set_bits(m: usize, k: usize, n: f64) -> f64 {
    m as f64 * fill_ratio(m, k, n)
}

/// Eq. 3 — expected fill ratio (set bits over `m`): `1 - e^{-kn/m}`.
///
/// # Panics
///
/// Panics if `m == 0` or `k == 0`, or if `n` is negative or not finite.
#[must_use]
pub fn fill_ratio(m: usize, k: usize, n: f64) -> f64 {
    assert!(m > 0, "m must be positive");
    assert!(k > 0, "k must be positive");
    assert!(
        n >= 0.0 && n.is_finite(),
        "n must be finite and non-negative"
    );
    1.0 - (-(k as f64) * n / m as f64).exp()
}

/// Inverse of Eq. 3 — estimates the key count from an observed fill
/// ratio: `n ≈ -(m/k)·ln(1 - FR)`.
///
/// Returns `f64::INFINITY` for `fr >= 1` (a saturated filter carries no
/// information about its cardinality).
///
/// # Panics
///
/// Panics if `m == 0` or `k == 0`, or if `fr` is outside `[0, 1]`.
#[must_use]
pub fn keys_from_fill_ratio(m: usize, k: usize, fr: f64) -> f64 {
    assert!(m > 0, "m must be positive");
    assert!(k > 0, "k must be positive");
    assert!((0.0..=1.0).contains(&fr), "fill ratio must be in [0, 1]");
    if fr >= 1.0 {
        return f64::INFINITY;
    }
    -(m as f64 / k as f64) * (1.0 - fr).ln()
}

/// Binomial probability mass function `P(X = x)` for
/// `X ~ Binomial(n, p)`, computed in log space for stability at the
/// trace scales the DF analysis needs (`n` in the hundreds).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
#[must_use]
pub fn binomial_pmf(x: u64, n: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if x > n {
        return 0.0;
    }
    if p == 0.0 {
        return if x == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if x == n { 1.0 } else { 0.0 };
    }
    let ln = ln_choose(n, x) + x as f64 * p.ln() + (n - x) as f64 * (1.0 - p).ln();
    ln.exp()
}

/// Binomial cumulative distribution function `P(X <= x)`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
#[must_use]
pub fn binomial_cdf(x: u64, n: u64, p: f64) -> f64 {
    (0..=x.min(n))
        .map(|i| binomial_pmf(i, n, p))
        .sum::<f64>()
        .min(1.0)
}

fn ln_choose(n: u64, x: u64) -> f64 {
    ln_factorial(n) - ln_factorial(x) - ln_factorial(n - x)
}

/// `ln(n!)` via Stirling's series for large `n`, exact summation below.
fn ln_factorial(n: u64) -> f64 {
    if n < 32 {
        (2..=n).map(|i| (i as f64).ln()).sum()
    } else {
        let n = n as f64;
        // Stirling with 1/(12n) correction: plenty for probabilities.
        n * n.ln() - n + 0.5 * (2.0 * std::f64::consts::PI * n).ln() + 1.0 / (12.0 * n)
    }
}

/// Eq. 4 — expected value of the **minimum** of the `k` accidental
/// counter-increment counts of a key's bits.
///
/// Each of the key's `k` bits is accidentally hit by each of the `ncol`
/// other keys collected in the delay window with probability
/// `p = k/m`; the number of hits per bit is `Binomial(ncol, p)`, and a
/// key survives decay only as long as its *minimum* counter does, so
/// the quantity of interest is `E[min of k iid binomials]`, computed as
/// `Σ_{c=1..ncol} c · ((1 - F(c-1))^k - (1 - F(c))^k)`.
///
/// # Panics
///
/// Panics if `k == 0` or `m == 0`.
#[must_use]
pub fn expected_min_increments(ncol: u64, m: usize, k: usize) -> f64 {
    assert!(m > 0, "m must be positive");
    assert!(k > 0, "k must be positive");
    let p = (k as f64 / m as f64).min(1.0);
    let mut expectation = 0.0;
    let mut surv_prev = 1.0; // (1 - F(-1))^k = 1
    for c in 0..=ncol {
        let surv = (1.0 - binomial_cdf(c, ncol, p)).max(0.0).powi(k as i32);
        // P(min == c) = surv_prev - surv   (survival of min beyond c-1 vs c)
        expectation += c as f64 * (surv_prev - surv);
        surv_prev = surv;
        if surv < 1e-12 {
            break;
        }
    }
    expectation
}

/// Eq. 5 — the decaying factor that removes an interest `D` time units
/// after its last insertion, accounting for accidental increments:
///
/// `DF = C · (1 + E[min increments]) / D + Δ`
///
/// where `C` is the initial counter value, `E[min]` comes from Eq. 4,
/// and `Δ` is a small safety constant for the effects Eq. 4 ignores
/// (M-merge inflation).
///
/// The unit of the returned DF matches the unit of `delay_limit` (if
/// `delay_limit` is in minutes the DF is per minute).
///
/// # Panics
///
/// Panics if `delay_limit <= 0` or `initial == 0`.
#[must_use]
pub fn decaying_factor(initial: u32, expected_min: f64, delay_limit: f64, delta: f64) -> f64 {
    assert!(delay_limit > 0.0, "delay limit must be positive");
    assert!(initial > 0, "initial counter value must be positive");
    f64::from(initial) * (1.0 + expected_min) / delay_limit + delta
}

/// Eq. 6 — expected number of **unique** interests among `ncol` keys
/// collected from contacted nodes, when each producer holds `kbar`
/// keys drawn from a universe of `total_keys`:
///
/// `ℕᵤ = ℕ · (1 - (1 - 1/K)^{ℕ - k̄})`
///
/// (as printed in the paper; it discounts duplicated interests).
///
/// # Panics
///
/// Panics if `total_keys == 0`.
#[must_use]
pub fn expected_unique_keys(ncol: f64, kbar: f64, total_keys: u64) -> f64 {
    assert!(total_keys > 0, "key universe must be non-empty");
    let exponent = (ncol - kbar).max(0.0);
    ncol * (1.0 - (1.0 - 1.0 / total_keys as f64).powf(exponent))
}

/// The FPR-optimal hash count for a filter of `m` bits holding `n`
/// keys: `k* = (m/n)·ln 2` (standard Bloom-filter result; the paper's
/// m = 256, k = 4 is near-optimal for its ≈38–45-key operating
/// point).
///
/// Returns at least 1. Not an equation in the paper, but the design
/// rationale behind its parameter choice.
///
/// # Panics
///
/// Panics if `m == 0` or `n` is not positive and finite.
#[must_use]
pub fn optimal_hash_count(m: usize, n: f64) -> usize {
    assert!(m > 0, "m must be positive");
    assert!(n > 0.0 && n.is_finite(), "n must be positive and finite");
    ((m as f64 / n) * std::f64::consts::LN_2).round().max(1.0) as usize
}

/// Eq. 7 — joint false positive rate of `h` filters each holding `nᵢ`
/// keys: `1 - Π (1 - (1 - e^{-k nᵢ / m})^k)`.
///
/// # Panics
///
/// Panics if `m == 0` or `k == 0`, or any `nᵢ` is negative/not finite.
#[must_use]
pub fn joint_false_positive_rate(m: usize, k: usize, keys_per_filter: &[f64]) -> f64 {
    let correct: f64 = keys_per_filter
        .iter()
        .map(|&n| 1.0 - false_positive_rate(m, k, n))
        .product();
    1.0 - correct
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn eq1_paper_worst_case() {
        // Section VII-A: m=256, k=4, n=38 ⇒ FPR ≈ 0.04.
        let fpr = false_positive_rate(256, 4, 38.0);
        assert!((0.035..0.045).contains(&fpr), "fpr = {fpr}");
    }

    #[test]
    fn eq1_monotone_in_n() {
        let mut last = 0.0;
        for n in 0..100 {
            let fpr = false_positive_rate(256, 4, f64::from(n));
            assert!(fpr >= last);
            last = fpr;
        }
        assert!(last < 1.0);
    }

    #[test]
    fn eq1_empty_filter_never_false_positive() {
        assert!(false_positive_rate(256, 4, 0.0).abs() < EPS);
    }

    #[test]
    fn eq2_eq3_consistent() {
        for &(m, k, n) in &[(256usize, 4usize, 38.0f64), (1024, 6, 100.0), (64, 2, 5.0)] {
            let bits = expected_set_bits(m, k, n);
            let fr = fill_ratio(m, k, n);
            assert!((bits / m as f64 - fr).abs() < EPS);
            assert!(bits >= 0.0 && bits <= m as f64);
        }
    }

    #[test]
    fn eq3_inverse_roundtrip() {
        for &n in &[1.0f64, 10.0, 38.0, 100.0] {
            let fr = fill_ratio(256, 4, n);
            let back = keys_from_fill_ratio(256, 4, fr);
            assert!((back - n).abs() < 1e-6, "n={n} back={back}");
        }
    }

    #[test]
    fn saturated_filter_estimates_infinite() {
        assert!(keys_from_fill_ratio(256, 4, 1.0).is_infinite());
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &(n, p) in &[(10u64, 0.3f64), (100, 0.015625), (300, 0.5)] {
            let total: f64 = (0..=n).map(|x| binomial_pmf(x, n, p)).sum();
            assert!((total - 1.0).abs() < 1e-6, "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn binomial_pmf_degenerate_p() {
        assert!((binomial_pmf(0, 10, 0.0) - 1.0).abs() < EPS);
        assert!(binomial_pmf(1, 10, 0.0).abs() < EPS);
        assert!((binomial_pmf(10, 10, 1.0) - 1.0).abs() < EPS);
        assert!(binomial_pmf(9, 10, 1.0).abs() < EPS);
    }

    #[test]
    fn binomial_pmf_known_value() {
        // Binomial(4, 0.5): P(X=2) = 6/16.
        assert!((binomial_pmf(2, 4, 0.5) - 0.375).abs() < 1e-9);
    }

    #[test]
    fn binomial_cdf_monotone_and_bounded() {
        let n = 50;
        let p = 0.1;
        let mut last = 0.0;
        for x in 0..=n {
            let c = binomial_cdf(x, n, p);
            assert!(c >= last - EPS);
            assert!(c <= 1.0 + EPS);
            last = c;
        }
        assert!((last - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cdf_beyond_n_is_one() {
        assert!((binomial_cdf(100, 10, 0.4) - 1.0).abs() < EPS);
    }

    #[test]
    fn eq4_zero_when_no_colliders() {
        assert!(expected_min_increments(0, 256, 4).abs() < EPS);
    }

    #[test]
    fn eq4_monotone_in_colliders() {
        let a = expected_min_increments(50, 256, 4);
        let b = expected_min_increments(200, 256, 4);
        let c = expected_min_increments(800, 256, 4);
        assert!(a <= b && b <= c, "{a} {b} {c}");
    }

    #[test]
    fn eq4_bounded_by_mean() {
        // min of k iid binomials <= mean of one binomial = ncol * k/m.
        for &ncol in &[10u64, 100, 500] {
            let e = expected_min_increments(ncol, 256, 4);
            let mean = ncol as f64 * 4.0 / 256.0;
            assert!(e <= mean + EPS, "ncol={ncol} e={e} mean={mean}");
            assert!(e >= 0.0);
        }
    }

    #[test]
    fn eq4_k1_equals_binomial_mean() {
        // With a single hash function, min over one binomial IS the
        // binomial, so the expectation is exactly n*p.
        let n = 100u64;
        let m = 256;
        let e = expected_min_increments(n, m, 1);
        let mean = n as f64 * (1.0 / m as f64);
        assert!((e - mean).abs() < 1e-6, "e={e} mean={mean}");
    }

    #[test]
    fn eq5_paper_calibration() {
        // Section VII-B: DF = 0.138/min for D = 10 h = 600 min with
        // C = 50 implies C(1+E[min]) ≈ 82.8, i.e. E[min] ≈ 0.656 —
        // consistent with a few hundred collected keys at k/m = 4/256.
        let df = decaying_factor(50, 0.656, 600.0, 0.0);
        assert!((df - 0.138).abs() < 0.001, "df = {df}");
    }

    #[test]
    fn eq5_decreases_with_delay_limit() {
        let short = decaying_factor(50, 0.5, 60.0, 0.0);
        let long = decaying_factor(50, 0.5, 1200.0, 0.0);
        assert!(short > long);
    }

    #[test]
    fn eq5_delta_added() {
        let base = decaying_factor(50, 0.0, 600.0, 0.0);
        let plus = decaying_factor(50, 0.0, 600.0, 0.01);
        assert!((plus - base - 0.01).abs() < EPS);
    }

    #[test]
    fn eq6_no_duplicates_with_tiny_collection() {
        // Collecting exactly kbar keys from one producer: exponent 0,
        // so the duplicate discount factor vanishes.
        let u = expected_unique_keys(5.0, 5.0, 38);
        assert!(u.abs() < EPS);
    }

    #[test]
    fn eq6_bounded_by_total_collected() {
        for &n in &[10.0f64, 100.0, 1000.0] {
            let u = expected_unique_keys(n, 1.0, 38);
            assert!(u >= 0.0 && u <= n);
        }
    }

    #[test]
    fn eq7_single_filter_reduces_to_eq1() {
        let joint = joint_false_positive_rate(256, 4, &[38.0]);
        let single = false_positive_rate(256, 4, 38.0);
        assert!((joint - single).abs() < EPS);
    }

    #[test]
    fn eq7_grows_with_filter_count() {
        let one = joint_false_positive_rate(256, 4, &[10.0]);
        let two = joint_false_positive_rate(256, 4, &[10.0, 10.0]);
        let four = joint_false_positive_rate(256, 4, &[10.0; 4]);
        assert!(one < two && two < four);
        assert!(four < 1.0);
    }

    #[test]
    fn eq7_empty_collection_is_zero() {
        assert!(joint_false_positive_rate(256, 4, &[]).abs() < EPS);
    }

    #[test]
    fn splitting_keys_reduces_joint_fpr() {
        // Section VI-D's premise: h filters of n/h keys each have a
        // lower joint FPR than one filter of n keys.
        let n = 120.0;
        let whole = joint_false_positive_rate(256, 4, &[n]);
        let split = joint_false_positive_rate(256, 4, &[n / 4.0; 4]);
        assert!(split < whole, "split {split} vs whole {whole}");
    }

    #[test]
    fn eq7_matches_empirical_fpr_of_split_filters() {
        // 80 keys spread over four 256-bit filters, queried as one
        // collection: the empirical FPR is close to the joint formula.
        let filters: Vec<crate::Tcbf> = (0..4)
            .map(|f| crate::Tcbf::from_keys(256, 4, 10, (0..20).map(|i| format!("member-{f}-{i}"))))
            .collect();
        let per: Vec<f64> = filters
            .iter()
            .map(|f| keys_from_fill_ratio(256, 4, f.fill_ratio()))
            .collect();
        let theory = joint_false_positive_rate(256, 4, &per);
        let trials = 20_000;
        let fp = (0..trials)
            .filter(|i| {
                let key = format!("absent-{i}");
                filters.iter().any(|f| f.contains(&key))
            })
            .count();
        let empirical = fp as f64 / f64::from(trials);
        assert!(
            (empirical - theory).abs() < 0.05,
            "empirical {empirical} vs theory {theory}"
        );
    }

    #[test]
    fn optimal_k_for_paper_setting() {
        // 256 bits / 44 keys: k* = (256/44)·ln2 ≈ 4 — the paper's
        // choice of k = 4 sits at the optimum for its load.
        assert_eq!(optimal_hash_count(256, 44.0), 4);
        assert_eq!(optimal_hash_count(256, 38.0), 5);
    }

    #[test]
    fn optimal_k_at_least_one() {
        assert_eq!(optimal_hash_count(8, 1000.0), 1);
    }

    #[test]
    fn optimal_k_minimizes_eq1() {
        // k* should (approximately) minimize Eq. 1 among nearby ks.
        let (m, n) = (1024usize, 100.0f64);
        let k_star = optimal_hash_count(m, n);
        let fpr_star = false_positive_rate(m, k_star, n);
        for k in [k_star.saturating_sub(2).max(1), k_star + 2] {
            assert!(
                fpr_star <= false_positive_rate(m, k, n) + 1e-12,
                "k*={k_star} must beat k={k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "m must be positive")]
    fn fill_ratio_rejects_zero_m() {
        let _ = fill_ratio(0, 4, 1.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn binomial_rejects_bad_p() {
        let _ = binomial_pmf(0, 10, 1.5);
    }
}

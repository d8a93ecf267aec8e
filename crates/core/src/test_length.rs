//! `SORT` and `NORMALIZE`: the necessary test length and the relevant
//! fault subset (paper §4).

use crate::objective::objective_value;

/// Result of `NORMALIZE`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TestLength {
    /// The minimal pattern count `N` reaching the confidence target,
    /// together with `nf`, the number of *relevant* hardest faults that
    /// contribute numerically to `J_N` (observation (1) of §4).
    Patterns {
        /// Minimal number of random patterns.
        n: f64,
        /// Number of relevant (hardest) faults.
        num_relevant: usize,
    },
    /// No finite test length exists (some fault has detection
    /// probability 0 under the given distribution), or it exceeds
    /// `2^1023` patterns, the range of `f64`.
    Infinite,
}

impl TestLength {
    /// The pattern count, or `f64::INFINITY`.
    pub fn patterns(&self) -> f64 {
        match *self {
            TestLength::Patterns { n, .. } => n,
            TestLength::Infinite => f64::INFINITY,
        }
    }

    /// The relevant-fault count (0 for infinite lengths).
    pub fn num_relevant(&self) -> usize {
        match *self {
            TestLength::Patterns { num_relevant, .. } => num_relevant,
            TestLength::Infinite => 0,
        }
    }
}

/// `SORT(F)`: the `take` hardest indices of `dprobs` (all of them when
/// `take` exceeds the length), ordered by increasing detection
/// probability, ties broken by index for determinism.  Only the selected
/// prefix is sorted; with the index tie-break the order is total on
/// NaN-free input, so it equals the prefix of a full sort.
pub fn sort_by_difficulty(dprobs: &[f64], take: usize) -> Vec<usize> {
    let by_difficulty = |&a: &usize, &b: &usize| {
        dprobs[a]
            .partial_cmp(&dprobs[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    };
    let mut order: Vec<usize> = (0..dprobs.len()).collect();
    if take < order.len() {
        order.select_nth_unstable_by(take, by_difficulty);
        order.truncate(take);
    }
    order.sort_by(by_difficulty);
    order
}

/// `NORMALIZE`: the minimal `N` with `J_N(X) ≤ θ`, where
/// `θ = −ln(confidence target)`.
///
/// Finds the first power of two meeting the target by bisection over
/// its exponent, then bisects on the monotone `J_N` below it; the
/// relevant-fault count is the number of faults whose individual term
/// still matters at the resulting `N` (the paper's observation that
/// `exp(−10·N·p_g)` drowns next to `exp(−N·p_g)`).  Returns
/// [`TestLength::Infinite`] only when some probability is ≤ 0 or `2^1023`
/// patterns still miss `θ`.
///
/// # Panics
///
/// Panics if `theta` is not strictly positive.
///
/// # Example
///
/// ```
/// use wrt_core::required_test_length;
/// // One fault with p = 0.01, 99.9% confidence:
/// let tl = required_test_length(&[0.01], 1e-3);
/// // N ≈ ln(1/θ)/p ≈ 691.
/// assert!((tl.patterns() - 691.0).abs() < 5.0);
/// ```
pub fn required_test_length(dprobs: &[f64], theta: f64) -> TestLength {
    assert!(theta > 0.0, "confidence threshold must be positive");
    if dprobs.is_empty() {
        return TestLength::Patterns {
            n: 0.0,
            num_relevant: 0,
        };
    }
    if dprobs.iter().any(|&p| p <= 0.0) {
        return TestLength::Infinite;
    }
    if objective_value(dprobs, 0.0) <= theta {
        // |F| ≤ θ already at N = 0 (degenerate thresholds).
        return TestLength::Patterns {
            n: 0.0,
            num_relevant: 0,
        };
    }

    // The first power of two 2^k with J ≤ θ, for k ∈ [0, 1023]: J is
    // monotone in N, so bisecting over the exponent lands on the same k
    // as doubling from 1, in at most 11 evaluations.  `lo_k = -1` stands
    // for "no smaller k", since N = 0 already misses θ.
    const MAX_EXPONENT: i32 = f64::MAX_EXP - 1;
    if objective_value(dprobs, 2f64.powi(MAX_EXPONENT)) > theta {
        return TestLength::Infinite;
    }
    let (mut lo_k, mut hi_k) = (-1, MAX_EXPONENT);
    while hi_k - lo_k > 1 {
        let mid = (lo_k + hi_k) / 2;
        if objective_value(dprobs, 2f64.powi(mid)) > theta {
            lo_k = mid;
        } else {
            hi_k = mid;
        }
    }
    let mut hi = 2f64.powi(hi_k);
    let mut lo = hi / 2.0;
    // Bisection to (relative) precision; N is conceptually an integer but
    // at 10^11 scales a relative tolerance is the honest answer.
    for _ in 0..200 {
        if hi - lo <= 1.0 || (hi - lo) / hi < 1e-12 {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if objective_value(dprobs, mid) > theta {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let n = hi.ceil();

    // Relevant faults: individual contribution at N still above a drowned
    // threshold relative to θ.  A fault is relevant when its exponent is
    // within ln(10^6) of the hardest fault's, i.e.
    // `n·p ≤ n·hardest + ln(10^6)`.  That textbook form is computed here
    // as `n·(p − hardest) ≤ ln(10^6)`: mathematically identical, but the
    // difference keeps the product finite (each factor is bounded) where
    // `n·hardest` could overflow to `inf` for huge N and then poison the
    // comparison (`inf + ln(10^6) = inf`, and a non-finite p would turn
    // it into `inf − inf = NaN`, which compares false and silently drops
    // faults).  Non-finite excesses (a caller-supplied `inf`/NaN
    // probability) are explicitly irrelevant rather than
    // comparison-order-dependent.
    let h = hardest(dprobs);
    let drown_margin = (1e6f64).ln();
    let num_relevant = dprobs
        .iter()
        .filter(|&&p| {
            let excess = n * (p - h); // ≥ 0: h is the minimum
            excess.is_finite() && excess <= drown_margin
        })
        .count();
    TestLength::Patterns {
        n,
        num_relevant: num_relevant.max(1),
    }
}

fn hardest(dprobs: &[f64]) -> f64 {
    dprobs.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fault_closed_form() {
        // J_N = exp(-N p) = θ  =>  N = ln(1/θ)/p.
        for (p, theta) in [(0.01, 1e-3), (1e-6, 1e-3), (0.5, 0.05)] {
            let tl = required_test_length(&[p], theta);
            let expect = (1.0 / theta).ln() / p;
            let got = tl.patterns();
            assert!(
                (got - expect).abs() <= expect * 1e-6 + 2.0,
                "p={p}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn hardest_fault_dominates() {
        // Adding easy faults barely changes N.
        let hard_only = required_test_length(&[1e-5], 1e-3).patterns();
        let with_easy = required_test_length(&[1e-5, 0.3, 0.4, 0.25, 0.5], 1e-3).patterns();
        assert!((with_easy - hard_only).abs() / hard_only < 0.01);
    }

    #[test]
    fn ten_to_one_probability_ratio_drowns() {
        // The paper's example: p_f = 10 p_g makes f irrelevant.
        let tl = required_test_length(&[1e-6, 1e-5], 1e-3);
        assert_eq!(tl.num_relevant(), 1);
    }

    #[test]
    fn close_probabilities_are_all_relevant() {
        let tl = required_test_length(&[1e-6, 1.5e-6, 2e-6], 1e-3);
        assert_eq!(tl.num_relevant(), 3);
    }

    #[test]
    fn undetectable_fault_gives_infinite() {
        let tl = required_test_length(&[0.0, 0.5], 1e-3);
        assert_eq!(tl, TestLength::Infinite);
        assert_eq!(tl.patterns(), f64::INFINITY);
    }

    #[test]
    fn objective_at_result_meets_threshold() {
        let dprobs = [1e-4, 3e-4, 0.2, 0.01];
        let theta = 1e-3;
        let tl = required_test_length(&dprobs, theta);
        let n = tl.patterns();
        assert!(objective_value(&dprobs, n) <= theta);
        assert!(objective_value(&dprobs, n * 0.99 - 2.0) > theta);
    }

    #[test]
    fn sorting_is_deterministic_and_ascending() {
        let dprobs = [0.5, 1e-6, 0.25, 1e-6];
        let order = sort_by_difficulty(&dprobs, dprobs.len());
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn hardest_prefix_matches_the_full_sort() {
        let dprobs: Vec<f64> = (0..200u64)
            .map(|i| ((i * 7919) % 37) as f64 * 1e-3 + 1e-9)
            .collect();
        let full = sort_by_difficulty(&dprobs, dprobs.len());
        for take in [0, 1, 5, 36, 37, 38, 199, 200, 500] {
            assert_eq!(
                sort_by_difficulty(&dprobs, take),
                full[..take.min(200)],
                "take {take}"
            );
        }
    }

    #[test]
    fn empty_list_needs_no_patterns() {
        let tl = required_test_length(&[], 1e-3);
        assert_eq!(tl.patterns(), 0.0);
    }

    #[test]
    fn paper_scale_lengths_are_representable() {
        // 2^-32 at 99.9 % needs ~3·10^10 patterns; must not saturate.
        let tl = required_test_length(&[2.0f64.powi(-32)], 1e-3);
        let n = tl.patterns();
        assert!(n > 1e10 && n < 1e12, "N = {n}");
    }

    #[test]
    fn degenerate_thresholds_stay_finite_and_consistent() {
        // Huge θ: zero patterns suffice; tiny θ at detectable faults
        // still resolves to a finite N and a well-defined relevant count.
        let dprobs = [0.3, 0.01];
        let huge = required_test_length(&dprobs, 1e9);
        assert_eq!(huge.patterns(), 0.0);
        assert_eq!(huge.num_relevant(), 0);
        let tiny = required_test_length(&dprobs, 1e-300);
        let n = tiny.patterns();
        assert!(n.is_finite() && n > 0.0, "N = {n}");
        assert!(tiny.num_relevant() >= 1);
        // A tiny but positive probability still gets a finite length:
        // N = ln(1/θ)/p ≈ 6.9e19.
        let tiny_p = required_test_length(&[1e-17], 1e-300).patterns();
        let expect = (1e300f64).ln() / 1e-17;
        assert!((tiny_p - expect).abs() <= expect * 1e-9, "N = {tiny_p}");
        // Past 2^1023 patterns the length leaves the f64 range.
        let beyond = required_test_length(&[1e-308], 1e-3);
        assert_eq!(beyond, TestLength::Infinite);
    }

    #[test]
    fn extreme_probability_ratios_never_yield_nan_relevance() {
        // Regression: the old cutoff computed `n·hardest + ln(10^6)`,
        // which mixes a potentially huge product with the offset; the
        // hardened filter compares `n·(p − hardest)` instead.  At an
        // extreme ratio the easy fault must drown, the hard fault must
        // stay, and both counts must be exact — not NaN-dependent.
        let tl = required_test_length(&[1e-10, 0.9], 1e-3);
        assert!(tl.patterns().is_finite());
        assert_eq!(tl.num_relevant(), 1);
        // Near-ties at the hard end all stay relevant.
        let tied = required_test_length(&[1e-10, 1.0000001e-10, 0.9], 1e-3);
        assert_eq!(tied.num_relevant(), 2);
    }

    #[test]
    fn non_finite_probabilities_are_irrelevant_not_poisonous() {
        // Caller-supplied garbage (an `inf` estimate) must not drag the
        // whole relevant count to 0-via-NaN: the finite faults keep
        // their classification and the `inf` one is simply irrelevant.
        let tl = required_test_length(&[0.01, f64::INFINITY], 1e-3);
        assert!(tl.patterns().is_finite());
        assert_eq!(tl.num_relevant(), 1);
    }

    #[test]
    fn relevance_filter_matches_legacy_form_on_normal_inputs() {
        // On well-behaved inputs the hardened filter agrees with the
        // legacy `n·p ≤ n·hardest + ln(10^6)` cutoff.
        for dprobs in [
            vec![1e-6, 1e-5, 3e-6, 0.5],
            vec![0.2, 0.21, 0.9],
            vec![1e-4; 7],
        ] {
            let tl = required_test_length(&dprobs, 1e-3);
            let n = tl.patterns();
            let h = dprobs.iter().copied().fold(f64::INFINITY, f64::min);
            let legacy = dprobs
                .iter()
                .filter(|&&p| n * p <= n * h + (1e6f64).ln())
                .count()
                .max(1);
            assert_eq!(tl.num_relevant(), legacy, "dprobs = {dprobs:?}");
        }
    }
}

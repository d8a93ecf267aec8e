//! The objective function `J_N` and the test confidence it approximates.

/// The confidence of a random test (formula 1/8): the probability that
/// *all* faults with detection probabilities `dprobs` are detected by `n`
/// independent patterns, assuming independent detection events:
///
/// ```text
/// a_N = Π_f (1 − (1 − p_f)^N)
/// ```
///
/// Computed in log space for numerical robustness; returns 0 when any
/// fault has detection probability 0.
///
/// # Example
///
/// ```
/// let a = wrt_core::confidence(&[0.5], 10.0);
/// assert!((a - (1.0 - 0.5f64.powi(10))).abs() < 1e-12);
/// ```
pub fn confidence(dprobs: &[f64], n: f64) -> f64 {
    log_confidence(dprobs, n).exp()
}

/// `ln` of [`confidence`] (−∞ when some fault is undetectable).
pub fn log_confidence(dprobs: &[f64], n: f64) -> f64 {
    dprobs
        .iter()
        .map(|&p| {
            if p <= 0.0 {
                f64::NEG_INFINITY
            } else if p >= 1.0 {
                0.0
            } else {
                // ln(1 - (1-p)^n) with (1-p)^n = exp(n ln(1-p)).
                let miss = (n * (1.0 - p).ln()).exp();
                (-miss).ln_1p()
            }
        })
        .sum()
}

/// The paper's objective (formula 9/10):
///
/// ```text
/// J_N(X) = Σ_f exp(−N · p_f(X))  ≈  −ln a_N(X)
/// ```
///
/// Minimizing `J_N` maximizes the confidence.  The approximation
/// `(1 − p)^N ≈ e^{−Np}` is tight for the small `p` that dominate the sum.
///
/// # Example
///
/// ```
/// let j = wrt_core::objective_value(&[0.1, 0.2], 10.0);
/// assert!((j - ((-1.0f64).exp() + (-2.0f64).exp())).abs() < 1e-12);
/// ```
pub fn objective_value(dprobs: &[f64], n: f64) -> f64 {
    // exp(−x) is exactly +0.0 for x > 746, so skipping the call leaves the
    // sum bit-identical; most terms NORMALIZE evaluates are such.
    dprobs
        .iter()
        .map(|&p| if n * p > 746.0 { 0.0 } else { (-n * p).exp() })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_approximates_neg_log_confidence() {
        // The approximation is tight once N is past each fault's own
        // required length (every miss term e^{-Np} small).
        let dprobs = [1e-4, 5e-4, 2e-3];
        let n = 40_000.0;
        let j = objective_value(&dprobs, n);
        let neg_log_a = -log_confidence(&dprobs, n);
        assert!(
            (j - neg_log_a).abs() / neg_log_a < 0.02,
            "J = {j}, -ln a = {neg_log_a}"
        );
    }

    #[test]
    fn confidence_monotone_in_length() {
        let dprobs = [0.01, 0.05];
        assert!(confidence(&dprobs, 100.0) < confidence(&dprobs, 1000.0));
    }

    #[test]
    fn objective_monotone_decreasing_in_length() {
        let dprobs = [0.01, 0.05];
        assert!(objective_value(&dprobs, 100.0) > objective_value(&dprobs, 1000.0));
    }

    #[test]
    fn undetectable_fault_kills_confidence() {
        assert_eq!(confidence(&[0.0, 0.5], 1000.0), 0.0);
        assert_eq!(log_confidence(&[0.0], 10.0), f64::NEG_INFINITY);
    }

    #[test]
    fn certain_fault_contributes_nothing() {
        assert_eq!(confidence(&[1.0], 1.0), 1.0);
        let j = objective_value(&[1.0], 1000.0);
        assert!(j < 1e-300);
    }

    #[test]
    fn empty_fault_list_is_trivially_covered() {
        assert_eq!(confidence(&[], 1.0), 1.0);
        assert_eq!(objective_value(&[], 1.0), 0.0);
    }

    #[test]
    fn underflow_cutoff_is_bit_identical() {
        assert_eq!((-746.0f64).exp().to_bits(), 0.0f64.to_bits());
        let plain = |d: &[f64], n: f64| d.iter().map(|&p| (-n * p).exp()).sum::<f64>();
        let straddle = [
            745.0, 745.1, 745.2, 745.99, 746.0, 746.01, 800.0, 1e300, 0.5, 3.0,
        ];
        for n in [1.0, 0.999, 1.001, 1e-3, 1e6] {
            let dprobs: Vec<f64> = straddle.iter().map(|x| x / n).collect();
            assert_eq!(
                objective_value(&dprobs, n).to_bits(),
                plain(&dprobs, n).to_bits()
            );
            let far = &dprobs[5..8];
            assert_eq!(objective_value(far, n).to_bits(), plain(far, n).to_bits());
        }
        assert_eq!(
            objective_value(&[1.0], f64::INFINITY).to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn extreme_scales_do_not_overflow() {
        // 2^-32 detection probability, N = 5e11 (C7552's scale).
        let j = objective_value(&[2.0f64.powi(-32)], 4.9e11);
        assert!(j.is_finite());
        let a = confidence(&[2.0f64.powi(-32)], 4.9e11);
        assert!((0.0..=1.0).contains(&a));
    }
}

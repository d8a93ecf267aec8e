//! `MINIMIZE`: the strictly convex 1-D subproblem (paper §3.2, formula 15).
//!
//! By Lemma 1 (Shannon expansion), every detection probability is affine
//! in a single input probability:
//!
//! ```text
//! p_f(X, y|i) = p_f(X, 0|i) + y · (p_f(X, 1|i) − p_f(X, 0|i))
//! ```
//!
//! so once `PREPARE` has evaluated the engine at `y = 0` and `y = 1`, the
//! 1-D objective `J_N(X, y|i) = Σ exp(−N (p0_f + y d_f))` and both its
//! derivatives are closed-form — "the minimizing procedure itself is
//! nearly independent of the circuit size" (§4 observation 2).  Lemma 3
//! shows `J''> 0`, so safeguarded Newton iteration converges to the unique
//! interior minimum.

/// The per-input 1-D minimization problem assembled by `PREPARE`.
#[derive(Debug, Clone)]
pub struct CoordinateProblem {
    /// `p_f(X, 0|i)` per relevant fault.
    pub p0: Vec<f64>,
    /// `p_f(X, 1|i)` per relevant fault.
    pub p1: Vec<f64>,
    /// Test length `N` the objective is evaluated at.
    pub n: f64,
}

impl CoordinateProblem {
    /// Creates a problem from the two engine evaluations.
    ///
    /// # Panics
    ///
    /// Panics if the two probability vectors differ in length or `n` is
    /// not positive and finite.
    pub fn new(p0: Vec<f64>, p1: Vec<f64>, n: f64) -> Self {
        assert_eq!(p0.len(), p1.len(), "PREPARE vectors must pair up");
        assert!(n.is_finite() && n > 0.0, "test length must be positive");
        CoordinateProblem { p0, p1, n }
    }

    /// `J_N(X, y|i)` via the affine interpolation.
    pub fn objective(&self, y: f64) -> f64 {
        self.p0
            .iter()
            .zip(&self.p1)
            .map(|(&a, &b)| (-self.n * (a + y * (b - a))).exp())
            .sum()
    }

    /// The scaled first and second derivative sums at `y`, computed with a
    /// shared exponent shift so that huge `N·p` products cannot underflow
    /// all terms simultaneously.  Returns `(sum d·w, sum d²·w)` where
    /// `w_f = exp(−(N·p_f(y) − m))` and `m` is the smallest exponent.
    fn scaled_derivative_sums(&self, y: f64) -> (f64, f64) {
        let exponents: Vec<f64> = self
            .p0
            .iter()
            .zip(&self.p1)
            .map(|(&a, &b)| self.n * (a + y * (b - a)))
            .collect();
        let m = exponents.iter().copied().fold(f64::INFINITY, f64::min);
        let mut s1 = 0.0f64;
        let mut s2 = 0.0f64;
        for ((&a, &b), &e) in self.p0.iter().zip(&self.p1).zip(&exponents) {
            let d = b - a;
            let w = (-(e - m)).exp();
            s1 += d * w;
            s2 += d * d * w;
        }
        (s1, s2)
    }
}

/// Solves `min_y J_N(X, y|i)` over `[lo, hi]` by safeguarded Newton
/// iteration (formula 15: `y := y − J′/J″`).
///
/// The derivative ratio `J′/J″ = −(Σ d·w)/(N · Σ d²·w)` is evaluated with
/// a common exponent shift, so the iteration is stable even when every
/// raw term of `J` underflows.  Steps leaving `[lo, hi]` are clamped; the
/// iteration stops when the step is below `tol` or after `max_iters`.
///
/// Returns the minimizing `y`.
///
/// # Panics
///
/// Panics if `lo >= hi` or either bound is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use wrt_core::{minimize_coordinate, CoordinateProblem};
/// // One fault needing the input at 1 (p1 > p0): push y up.
/// let prob = CoordinateProblem::new(vec![0.0], vec![0.3], 100.0);
/// let y = minimize_coordinate(&prob, 0.5, 0.02, 0.98);
/// assert!(y > 0.9);
/// ```
pub fn minimize_coordinate(problem: &CoordinateProblem, start: f64, lo: f64, hi: f64) -> f64 {
    assert!(lo < hi, "bounds must be ordered");
    assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    let tol = 1e-7;
    let max_iters = 100;
    if problem.p0.is_empty() {
        return start.clamp(lo, hi);
    }
    // J is strictly convex, so J' is increasing: the minimum is at lo/hi
    // when J' does not change sign inside, otherwise at the unique root of
    // J'.  sign(J'(y)) = -sign(s1(y)).
    let deriv_sign = |y: f64, problem: &CoordinateProblem| -> f64 {
        let (s1, _) = problem.scaled_derivative_sums(y);
        -s1
    };
    let d_lo = deriv_sign(lo, problem);
    let d_hi = deriv_sign(hi, problem);
    if d_lo == 0.0 && d_hi == 0.0 {
        return start.clamp(lo, hi); // objective constant in y
    }
    if d_lo >= 0.0 {
        return lo; // increasing everywhere
    }
    if d_hi <= 0.0 {
        return hi; // decreasing everywhere
    }
    // Bracketed Newton: keep [a, b] with J'(a) < 0 < J'(b); fall back to
    // bisection whenever the Newton step leaves the bracket (which also
    // covers the near-degenerate J'' ≈ 0 case).
    let (mut a, mut b) = (lo, hi);
    let mut y = start.clamp(lo, hi);
    for _ in 0..max_iters {
        let (s1, s2) = problem.scaled_derivative_sums(y);
        let dy_sign = -s1;
        if dy_sign < 0.0 {
            a = y;
        } else {
            b = y;
        }
        let newton = if s2 > 0.0 && s1.is_finite() && s2.is_finite() {
            y + s1 / (problem.n * s2)
        } else {
            f64::NAN
        };
        let next = if newton.is_finite() && newton > a && newton < b {
            newton
        } else {
            0.5 * (a + b)
        };
        let moved = (next - y).abs();
        y = next;
        if moved < tol || (b - a) < tol {
            break;
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_problem_stays_centered() {
        // Two mirrored faults: optimum at 0.5.
        let prob = CoordinateProblem::new(vec![0.0, 0.3], vec![0.3, 0.0], 50.0);
        let y = minimize_coordinate(&prob, 0.31, 0.02, 0.98);
        assert!((y - 0.5).abs() < 1e-4, "y = {y}");
    }

    #[test]
    fn pull_toward_one_and_zero() {
        let up = CoordinateProblem::new(vec![0.01], vec![0.5], 200.0);
        assert!(minimize_coordinate(&up, 0.5, 0.02, 0.98) > 0.95);
        let down = CoordinateProblem::new(vec![0.5], vec![0.01], 200.0);
        assert!(minimize_coordinate(&down, 0.5, 0.02, 0.98) < 0.05);
    }

    #[test]
    fn result_is_a_local_minimum() {
        let prob = CoordinateProblem::new(vec![1e-4, 2e-3, 0.05], vec![5e-3, 1e-4, 0.01], 3000.0);
        let y = minimize_coordinate(&prob, 0.5, 0.02, 0.98);
        let j = prob.objective(y);
        for dy in [-1e-3, 1e-3] {
            let y2 = (y + dy).clamp(0.02, 0.98);
            assert!(
                prob.objective(y2) >= j - 1e-12,
                "J({y2}) < J({y}) : {} < {j}",
                prob.objective(y2)
            );
        }
    }

    #[test]
    fn underflow_scale_still_converges() {
        // N·p around 10^4: every raw exp underflows to 0, but the scaled
        // iteration must still find the pull toward 1.
        let prob = CoordinateProblem::new(vec![1e-2], vec![5e-2], 1e6);
        let y = minimize_coordinate(&prob, 0.5, 0.02, 0.98);
        assert!(y > 0.95, "y = {y}");
    }

    #[test]
    fn constant_objective_returns_start() {
        let prob = CoordinateProblem::new(vec![0.1, 0.2], vec![0.1, 0.2], 100.0);
        let y = minimize_coordinate(&prob, 0.37, 0.02, 0.98);
        assert!((y - 0.37).abs() < 1e-12);
    }

    #[test]
    fn empty_problem_returns_start() {
        let prob = CoordinateProblem::new(vec![], vec![], 100.0);
        assert_eq!(minimize_coordinate(&prob, 0.4, 0.02, 0.98), 0.4);
    }

    #[test]
    fn respects_bounds() {
        let prob = CoordinateProblem::new(vec![0.0], vec![0.9], 1000.0);
        let y = minimize_coordinate(&prob, 0.5, 0.1, 0.9);
        assert!(y <= 0.9 + 1e-12);
        assert!((y - 0.9).abs() < 1e-9, "optimum clamps to hi");
    }

    #[test]
    fn golden_section_agrees_with_newton() {
        // Independent check of the optimizer: brute-force golden section.
        let prob = CoordinateProblem::new(
            vec![2e-4, 8e-3, 0.02, 1e-5],
            vec![6e-3, 1e-3, 0.05, 2e-5],
            5000.0,
        );
        let newton = minimize_coordinate(&prob, 0.5, 0.02, 0.98);
        let (mut a, mut b) = (0.02f64, 0.98f64);
        let phi = (5f64.sqrt() - 1.0) / 2.0;
        for _ in 0..100 {
            let x1 = b - phi * (b - a);
            let x2 = a + phi * (b - a);
            if prob.objective(x1) < prob.objective(x2) {
                b = x2;
            } else {
                a = x1;
            }
        }
        let golden = 0.5 * (a + b);
        assert!(
            (newton - golden).abs() < 1e-3,
            "newton {newton} vs golden {golden}"
        );
    }
}

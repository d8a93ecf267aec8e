//! Deterministic pseudo-random number generation.
//!
//! The workspace deliberately avoids external RNG crates in library code so
//! that every reported number is bit-reproducible across platforms and
//! dependency upgrades.  [`Xoshiro256`] implements xoshiro256** (Blackman &
//! Vigna), seeded through SplitMix64 — the standard recommendation for
//! expanding a 64-bit seed.

/// xoshiro256** pseudo-random generator.
///
/// Not cryptographically secure; statistically excellent and extremely fast,
/// which is what pattern generation and Monte-Carlo estimation need.
///
/// # Example
///
/// ```
/// use wrt_sim::Xoshiro256;
/// let mut a = Xoshiro256::seed_from(7);
/// let mut b = Xoshiro256::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Xoshiro256 { s }
    }

    /// The next 64 uniform random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A word whose 64 bits are each independently 1 with probability `p`.
    ///
    /// Dyadic probabilities `p = m / 2^k` (k ≤ 32) take an exact fast
    /// path: one uniform word per binary digit of `p`, folded with the
    /// standard AND/OR digit construction — processing the digits from
    /// least to most significant, `word := uniform OR word` realizes a
    /// 1-digit and `word := uniform AND word` a 0-digit, which halves and
    /// shifts the accumulated probability so that each lane is 1 with
    /// *exactly* probability `p`.  `p = 0.5` therefore still costs a
    /// single draw, `0.25` two, and the optimizer-relevant dyadic grid
    /// never touches the scalar path.  Non-dyadic `p` falls back to
    /// comparing a fresh 53-bit uniform draw against `p` per bit;
    /// exactness of the per-bit probability matters more here than
    /// throughput, since weighted patterns drive all coverage experiments.
    ///
    /// # Boundary behavior
    ///
    /// The dyadic grid's boundary points `m = 0` (`p ≤ 0.0`) and
    /// `m = 2^k` (`p ≥ 1.0`) are unreachable inside the digit
    /// construction — `p ∈ (0, 1)` strictly implies `m ∈ [1, 2^32 − 1]`
    /// — so they are realized by the early returns below: a constant
    /// word, zero draws, generator state untouched.  Lane-wise this is
    /// exactly what the scalar compare path would produce (`next_f64()`
    /// lies in `[0, 1)`, so `< 0.0` never and `< 1.0` always holds); the
    /// draw-count difference (0 vs 64) is the same documented
    /// state-advance contract as the rest of the dyadic fast path.  NaN
    /// is treated as weight 0 here rather than falling through to the
    /// scalar path, where `next_f64() < NaN` would burn 64 draws to
    /// produce the same all-zero word.  Exhaustive boundary tests below
    /// pin all of this down.
    pub fn weighted_word(&mut self, p: f64) -> u64 {
        if p <= 0.0 || p.is_nan() {
            return 0;
        }
        if p >= 1.0 {
            return u64::MAX;
        }
        // Scaling by a power of two is exact in IEEE-754, so a zero
        // fractional part identifies p = m / 2^32 without error.
        let scaled = p * (1u64 << 32) as f64;
        if scaled.fract() == 0.0 {
            let mut m = scaled as u64;
            let flat = m.trailing_zeros();
            m >>= flat; // p = m / 2^k with m odd
            let k = 32 - flat;
            let mut word = 0u64;
            for digit in 0..k {
                let uniform = self.next_u64();
                word = if (m >> digit) & 1 == 1 {
                    uniform | word
                } else {
                    uniform & word
                };
            }
            return word;
        }
        let mut word = 0u64;
        for bit in 0..64 {
            word |= u64::from(self.next_f64() < p) << bit;
        }
        word
    }

    /// Derives an independent generator (jump by reseeding through the
    /// output stream; adequate for test decorrelation).
    pub fn fork(&mut self) -> Xoshiro256 {
        Xoshiro256::seed_from(self.next_u64())
    }

    /// The raw generator state, for checkpointing.  Restoring it with
    /// [`Xoshiro256::from_state`] resumes the output stream exactly where
    /// it left off — required for bit-identical resume of runs whose RNG
    /// consumption depends on data (e.g. ATPG random fill draws one word
    /// per don't-care bit).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`Xoshiro256::state`] snapshot.
    pub fn from_state(s: [u64; 4]) -> Self {
        Xoshiro256 { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256::seed_from(123);
        let mut b = Xoshiro256::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::seed_from(1);
        let mut b = Xoshiro256::seed_from(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = Xoshiro256::seed_from(99);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_bits_are_roughly_balanced() {
        let mut r = Xoshiro256::seed_from(7);
        let ones: u32 = (0..1000).map(|_| r.next_u64().count_ones()).sum();
        let total = 64_000.0;
        let frac = f64::from(ones) / total;
        assert!((0.48..0.52).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn weighted_word_tracks_probability() {
        let mut r = Xoshiro256::seed_from(11);
        for &p in &[0.05, 0.25, 0.5, 0.8, 0.95] {
            let ones: u32 = (0..2000).map(|_| r.weighted_word(p).count_ones()).sum();
            let frac = f64::from(ones) / 128_000.0;
            assert!((frac - p).abs() < 0.01, "p = {p}, measured = {frac}");
        }
    }

    #[test]
    fn dyadic_fast_path_tracks_probability() {
        let mut r = Xoshiro256::seed_from(23);
        for &(p, digits) in &[
            (0.5, 1u32),
            (0.25, 2),
            (0.75, 2),
            (0.375, 3),
            (0.9375, 4),
            (1.0 / 1024.0, 10),
            (1.0 - 1.0 / 4096.0, 12),
        ] {
            let words = 4000u32;
            let ones: u64 = (0..words)
                .map(|_| u64::from(r.weighted_word(p).count_ones()))
                .sum();
            let total = f64::from(words) * 64.0;
            let frac = ones as f64 / total;
            let sigma = (p * (1.0 - p) / total).sqrt();
            assert!(
                (frac - p).abs() < 6.0 * sigma.max(1e-4),
                "p = {p} ({digits} digits), measured = {frac}"
            );
        }
    }

    #[test]
    fn dyadic_fast_path_consumes_one_draw_per_digit() {
        // p = 3/8 has three binary digits: the generator state must
        // advance by exactly three uniform words (the legacy scalar path
        // burned 64 draws for any non-half p).
        let mut a = Xoshiro256::seed_from(555);
        let mut b = a.clone();
        let _ = a.weighted_word(0.375);
        for _ in 0..3 {
            b.next_u64();
        }
        assert_eq!(a, b);
        // And p = 0.5 still costs a single draw.
        let _ = a.weighted_word(0.5);
        b.next_u64();
        assert_eq!(a, b);
    }

    #[test]
    fn non_dyadic_p_uses_the_exact_scalar_path() {
        // 0.3 is not representable as m / 2^32: one 53-bit comparison per
        // bit, i.e. 64 draws.
        let mut a = Xoshiro256::seed_from(9);
        let mut b = a.clone();
        let _ = a.weighted_word(0.3);
        for _ in 0..64 {
            b.next_u64();
        }
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_word_extremes_are_exact() {
        let mut r = Xoshiro256::seed_from(3);
        assert_eq!(r.weighted_word(0.0), 0);
        assert_eq!(r.weighted_word(1.0), u64::MAX);
        assert_eq!(r.weighted_word(-0.5), 0);
        assert_eq!(r.weighted_word(1.5), u64::MAX);
    }

    #[test]
    fn boundary_weights_consume_no_draws() {
        // m = 0 and m = 2^k (p = 0.0 / 1.0) are answered by the early
        // returns: constant word, generator state untouched — so a
        // boundary-weighted input never shifts the stream of the inputs
        // drawn after it.
        let mut r = Xoshiro256::seed_from(77);
        let reference = r.clone();
        for p in [
            0.0,
            1.0,
            -1.0,
            2.0,
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
        ] {
            let word = r.weighted_word(p);
            assert!(word == 0 || word == u64::MAX, "p = {p}");
            assert_eq!(r, reference, "p = {p} must not advance the state");
        }
        // NaN counts as weight 0 (it used to take the 64-draw scalar
        // path to produce the same all-zero word).
        assert_eq!(r.weighted_word(f64::NAN), 0);
    }

    #[test]
    fn boundary_weights_match_the_scalar_compare_path_lanewise() {
        // The scalar path compares next_f64() ∈ [0, 1) against p: at the
        // boundaries the comparison is constant, so the fast path's
        // constant words are lane-for-lane what the scalar path would
        // emit.  Verify against an explicit scalar-path replica.
        let mut r = Xoshiro256::seed_from(101);
        for &(p, expect) in &[(0.0f64, 0u64), (1.0, u64::MAX)] {
            let mut replica = r.clone();
            let mut scalar_word = 0u64;
            for bit in 0..64 {
                scalar_word |= u64::from(replica.next_f64() < p) << bit;
            }
            assert_eq!(scalar_word, expect, "scalar path at p = {p}");
            assert_eq!(r.weighted_word(p), expect, "fast path at p = {p}");
        }
    }

    #[test]
    fn exhaustive_dyadic_grid_boundaries_and_draw_counts() {
        // Every m / 2^k for k ≤ 6 (boundaries m = 0 and m = 2^k
        // included): the fast path must consume exactly
        // k − trailing_zeros(m) draws (0 at the boundaries) and track
        // the exact probability.
        for k in 1u32..=6 {
            let denom = 1u64 << k;
            for m in 0..=denom {
                let p = m as f64 / denom as f64;
                let expected_draws = if m == 0 || m == denom {
                    0
                } else {
                    k - m.trailing_zeros()
                };
                let mut a = Xoshiro256::seed_from(1000 + m * 64 + u64::from(k));
                let mut b = a.clone();
                let words = 800u32;
                let mut ones = 0u64;
                for _ in 0..words {
                    ones += u64::from(a.weighted_word(p).count_ones());
                    for _ in 0..expected_draws {
                        b.next_u64();
                    }
                    assert_eq!(a, b, "p = {m}/{denom}: draw count mismatch");
                }
                let total = f64::from(words) * 64.0;
                let frac = ones as f64 / total;
                let sigma = (p * (1.0 - p) / total).sqrt();
                assert!(
                    (frac - p).abs() <= 6.0 * sigma.max(1e-4),
                    "p = {m}/{denom}: measured {frac}"
                );
            }
        }
    }

    #[test]
    fn half_weight_is_stream_identical_to_the_raw_generator() {
        // p = 0.5 is the single-digit dyadic case: the word *is* the
        // next uniform word, bit for bit.
        let mut a = Xoshiro256::seed_from(2024);
        let mut b = a.clone();
        for _ in 0..32 {
            assert_eq!(a.weighted_word(0.5), b.next_u64());
        }
    }

    #[test]
    fn near_boundary_dyadics_use_the_full_digit_budget() {
        // The extreme representable dyadics 1/2^32 and 1 − 1/2^32 sit
        // one grid step inside the m = 0 / m = 2^32 boundaries: both
        // take the 32-digit fast path (m odd), not the early returns and
        // not the 64-draw scalar fallback.
        let lo = 1.0 / 4294967296.0;
        let hi = 1.0 - lo;
        for p in [lo, hi] {
            let mut a = Xoshiro256::seed_from(8);
            let mut b = a.clone();
            let _ = a.weighted_word(p);
            for _ in 0..32 {
                b.next_u64();
            }
            assert_eq!(a, b, "p = {p} must cost exactly 32 draws");
        }
        // And their lane statistics stay one-sided as expected.
        let mut r = Xoshiro256::seed_from(21);
        let lo_ones: u64 = (0..4000)
            .map(|_| u64::from(r.weighted_word(lo).count_ones()))
            .sum();
        assert!(lo_ones <= 2, "P(one) = 2^-32 over 256k lanes: {lo_ones}");
        let hi_zeros: u64 = (0..4000)
            .map(|_| u64::from(r.weighted_word(hi).count_zeros()))
            .sum();
        assert!(hi_zeros <= 2, "P(zero) = 2^-32 over 256k lanes: {hi_zeros}");
    }

    #[test]
    fn state_snapshot_resumes_the_stream_exactly() {
        let mut a = Xoshiro256::seed_from(404);
        for _ in 0..17 {
            a.next_u64();
        }
        let snapshot = a.state();
        let tail: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let mut resumed = Xoshiro256::from_state(snapshot);
        let resumed_tail: Vec<u64> = (0..32).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, resumed_tail);
    }

    #[test]
    fn fork_produces_decorrelated_stream() {
        let mut a = Xoshiro256::seed_from(5);
        let mut c = a.fork();
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(xs, ys);
    }
}

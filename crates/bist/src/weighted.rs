//! Weighted pattern generation from LFSR bits.
//!
//! On-chip, an unequiprobable bit is produced by combining equiprobable
//! LFSR bits: ANDing `k` bits gives weight `2^-k`, inverting gives
//! `1 − 2^-k`.  The realizable weights are therefore *dyadic*; the
//! continuous probabilities from `wrt-core` are first snapped to the
//! nearest realizable value ([`DyadicWeight::closest`]).

use wrt_sim::{PatternBlock, PatternSource};

use crate::lfsr::Lfsr;

/// A hardware-realizable weight: `2^-k` or `1 − 2^-k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DyadicWeight {
    /// Number of LFSR bits ANDed together (`k ≥ 1`).
    pub bits: u32,
    /// Invert the AND output (realizing `1 − 2^-k`).
    pub invert: bool,
}

impl DyadicWeight {
    /// The closest realizable weight to `w`, with at most `max_bits`
    /// ANDed bits.
    ///
    /// # Panics
    ///
    /// Panics if `max_bits == 0`.
    pub fn closest(w: f64, max_bits: u32) -> Self {
        assert!(max_bits > 0, "need at least one LFSR bit");
        let w = w.clamp(0.0, 1.0);
        let (target, invert) = if w <= 0.5 {
            (w, false)
        } else {
            (1.0 - w, true)
        };
        // Choose k minimizing |2^-k − target|.
        let mut best = DyadicWeight { bits: 1, invert };
        let mut best_err = (0.5 - target).abs();
        for k in 2..=max_bits {
            let err = (0.5f64.powi(k as i32) - target).abs();
            if err < best_err {
                best_err = err;
                best = DyadicWeight { bits: k, invert };
            }
        }
        best
    }

    /// The weight this configuration actually realizes.
    pub fn realized(&self) -> f64 {
        let base = 0.5f64.powi(self.bits as i32);
        if self.invert {
            1.0 - base
        } else {
            base
        }
    }
}

/// Feedback degree of each per-input LFSR stream.
///
/// Degree 64 gives every stream a 2^64 − 1 bit period, so the generator
/// state cannot recur within any realistic test-length budget; the
/// previous single degree-32 generator wrapped after 2^32 − 1 bits
/// (≈ 2^26 words), well inside long runs over wide circuits.
pub const STREAM_DEGREE: u32 = 64;

/// A weighted pattern generator with one independent LFSR per input.
///
/// Implements [`PatternSource`], so it can drive the fault simulator
/// directly — this is the "patterns produced on the chip during self
/// test" path of the paper's introduction.
///
/// Each input owns its own maximal-length degree-[`STREAM_DEGREE`] LFSR,
/// seeded from a per-input SplitMix64 derivation of the generator seed.
/// Feeding all inputs from *one* serial register (an earlier design, and
/// a tempting hardware shortcut) makes the per-input words successive
/// windows of the same m-sequence, so inputs are structurally
/// cross-correlated — every input's bits are a fixed linear function of
/// any other input's.  Independent streams also make an input's sequence
/// a function of `(seed, input index)` alone, invariant under the number
/// of other inputs.
///
/// # Example
///
/// ```
/// use wrt_bist::WeightedLfsr;
/// use wrt_sim::PatternSource;
/// let mut gen = WeightedLfsr::from_weights(&[0.9, 0.1, 0.5], 4, 0xBEEF);
/// let block = gen.next_block(64);
/// assert_eq!(block.words.len(), 3);
/// let realized = gen.realized_weights();
/// assert!((realized[2] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedLfsr {
    weights: Vec<DyadicWeight>,
    streams: Vec<Lfsr>,
}

/// SplitMix64 finalizer: decorrelates the per-input stream seeds.
fn stream_seed(seed: u64, input: usize) -> u64 {
    let mut z = seed.wrapping_add((input as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl WeightedLfsr {
    /// Creates a generator with explicit per-input dyadic weights.
    pub fn new(weights: Vec<DyadicWeight>, seed: u64) -> Self {
        let streams = (0..weights.len())
            .map(|k| {
                Lfsr::maximal(STREAM_DEGREE, stream_seed(seed, k))
                    .expect("stream degree is tabulated")
            })
            .collect();
        WeightedLfsr { weights, streams }
    }

    /// Creates a generator by snapping continuous weights to the closest
    /// dyadic configuration with at most `max_bits` AND inputs.
    pub fn from_weights(weights: &[f64], max_bits: u32, seed: u64) -> Self {
        WeightedLfsr::new(
            weights
                .iter()
                .map(|&w| DyadicWeight::closest(w, max_bits))
                .collect(),
            seed,
        )
    }

    /// The weights the hardware actually realizes.
    pub fn realized_weights(&self) -> Vec<f64> {
        self.weights.iter().map(DyadicWeight::realized).collect()
    }

    /// Feedback degree of the per-input streams; each stream's period is
    /// `2^width − 1` bits.
    pub fn stream_width(&self) -> u32 {
        STREAM_DEGREE
    }

    /// Worst absolute difference between requested and realized weight.
    pub fn quantization_error(&self, requested: &[f64]) -> f64 {
        requested
            .iter()
            .zip(self.realized_weights())
            .map(|(&r, q)| (r - q).abs())
            .fold(0.0, f64::max)
    }
}

impl PatternSource for WeightedLfsr {
    fn next_block(&mut self, limit: u32) -> PatternBlock {
        let limit = limit.clamp(1, 64);
        let words = self
            .weights
            .iter()
            .zip(&mut self.streams)
            .map(|(w, lfsr)| {
                let mut word = u64::MAX;
                for _ in 0..w.bits {
                    word &= lfsr.next_word(64);
                }
                if w.invert {
                    !word
                } else {
                    word
                }
            })
            .collect();
        PatternBlock { words, len: limit }
    }

    fn num_inputs(&self) -> usize {
        self.weights.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closest_picks_the_right_branch() {
        assert_eq!(
            DyadicWeight::closest(0.5, 8),
            DyadicWeight {
                bits: 1,
                invert: false
            }
        );
        assert_eq!(
            DyadicWeight::closest(0.25, 8),
            DyadicWeight {
                bits: 2,
                invert: false
            }
        );
        assert_eq!(
            DyadicWeight::closest(0.95, 8),
            DyadicWeight {
                bits: 4,
                invert: true
            }
        ); // 1 - 1/16 = 0.9375 vs 1 - 1/32 = 0.96875: 0.96875 closer? |0.95-0.9375|=0.0125, |0.95-0.96875|=0.01875: bits=4 wins.
    }

    #[test]
    fn realized_weight_roundtrip() {
        for &w in &[0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.97] {
            let d = DyadicWeight::closest(w, 6);
            let r = d.realized();
            assert!((r - w).abs() <= 0.26, "w = {w}, realized = {r}");
        }
    }

    #[test]
    fn max_bits_budget_is_respected() {
        let d = DyadicWeight::closest(0.001, 3);
        assert!(d.bits <= 3);
        assert_eq!(d.realized(), 0.125);
    }

    #[test]
    fn generated_bits_match_realized_weight() {
        let mut generator = WeightedLfsr::from_weights(&[0.25, 0.875], 4, 77);
        let mut ones = [0u64; 2];
        let blocks = 400;
        for _ in 0..blocks {
            let b = generator.next_block(64);
            ones[0] += u64::from(b.words[0].count_ones());
            ones[1] += u64::from(b.words[1].count_ones());
        }
        let total = (blocks * 64) as f64;
        assert!((ones[0] as f64 / total - 0.25).abs() < 0.02);
        assert!((ones[1] as f64 / total - 0.875).abs() < 0.02);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = WeightedLfsr::from_weights(&[0.5; 4], 4, 9);
        let mut b = WeightedLfsr::from_weights(&[0.5; 4], 4, 9);
        assert_eq!(a.next_block(64), b.next_block(64));
    }

    #[test]
    fn quantization_error_reported() {
        let requested = [0.3, 0.95];
        let generator = WeightedLfsr::from_weights(&requested, 4, 1);
        let err = generator.quantization_error(&requested);
        assert!(err > 0.0 && err < 0.06, "err = {err}");
    }

    /// Whether `bits` (consecutive outputs, index = time) satisfies the
    /// linear recurrence of a width-`width` Fibonacci LFSR with tap mask
    /// `taps` at *every* checkable position — true exactly when the bits
    /// are one serial window of such a register's output.
    fn satisfies_serial_recurrence(bits: &[bool], width: u32, taps: u64) -> bool {
        let w = width as usize;
        assert!(bits.len() > w, "need more than one register of bits");
        (0..bits.len() - w).all(|t| {
            let mut feedback = false;
            for (k, bit) in bits[t..t + w].iter().enumerate() {
                if (taps >> k) & 1 == 1 {
                    feedback ^= bit;
                }
            }
            feedback == bits[t + w]
        })
    }

    fn word_bits(word: u64) -> Vec<bool> {
        (0..64).map(|k| (word >> k) & 1 == 1).collect()
    }

    #[test]
    fn adjacent_inputs_are_not_windows_of_one_serial_stream() {
        // Regression: the generator used to draw every input's word from
        // one serial register, making input k+1's word the next 64 bits of
        // the same m-sequence as input k's — the concatenation satisfied
        // the register's linear recurrence at every position, i.e. the
        // inputs were deterministic linear functions of each other.
        let mut generator = WeightedLfsr::from_weights(&[0.5, 0.5], 4, 0x5EED);
        for block in 0..8 {
            let b = generator.next_block(64);
            let mut concat = word_bits(b.words[0]);
            concat.extend(word_bits(b.words[1]));
            // Not a window of the legacy degree-32 serial stream...
            let legacy = crate::primitive_taps(32).unwrap();
            assert!(
                !satisfies_serial_recurrence(&concat, 32, legacy),
                "block {block}: inputs are windows of one degree-32 stream"
            );
            // ...and not of a single stream at the current degree either.
            let current = crate::primitive_taps(STREAM_DEGREE).unwrap();
            assert!(
                !satisfies_serial_recurrence(&concat, STREAM_DEGREE, current),
                "block {block}: inputs are windows of one degree-{STREAM_DEGREE} stream"
            );
            // Each input on its own *is* a serial window of its private
            // stream (sanity check of the recurrence test itself, over
            // two consecutive blocks of the same input).
            if block == 0 {
                let b2 = generator.next_block(64);
                let mut own = word_bits(b.words[0]);
                own.extend(word_bits(b2.words[0]));
                assert!(satisfies_serial_recurrence(&own, STREAM_DEGREE, current));
            }
        }
    }

    #[test]
    fn boundary_weights_snap_to_the_extreme_realizable_dyadics() {
        // p = 0.0 and p = 1.0 (the m = 0 / m = 2^k grid boundaries) are
        // not realizable by ANDing k LFSR bits; `closest` must snap them
        // to the extreme realizable weights 2^-k and 1 − 2^-k — never
        // panic, never produce a degenerate 0-bit configuration.
        for max_bits in 1..=8u32 {
            let zero = DyadicWeight::closest(0.0, max_bits);
            assert_eq!(zero.bits, max_bits);
            assert!(!zero.invert);
            assert_eq!(zero.realized(), 0.5f64.powi(max_bits as i32));
            let one = DyadicWeight::closest(1.0, max_bits);
            assert_eq!(one.bits, max_bits);
            assert!(one.invert);
            assert_eq!(one.realized(), 1.0 - 0.5f64.powi(max_bits as i32));
            // Out-of-range requests clamp to the same boundaries.
            assert_eq!(DyadicWeight::closest(-3.0, max_bits), zero);
            assert_eq!(DyadicWeight::closest(7.0, max_bits), one);
        }
    }

    #[test]
    fn exhaustive_dyadic_grid_snaps_within_half_a_step() {
        // Every m / 2^k on the k ≤ 6 grid (boundaries included): the
        // snapped weight must be the best realizable approximation, and
        // exactly representable requests (interior grid points with one
        // significant bit) must round-trip exactly.
        let max_bits = 6u32;
        for k in 1u32..=max_bits {
            let denom = 1u64 << k;
            for m in 0..=denom {
                let w = m as f64 / denom as f64;
                let snapped = DyadicWeight::closest(w, max_bits).realized();
                let err = (snapped - w).abs();
                // Best possible error over the realizable set.
                let best = (1..=max_bits)
                    .flat_map(|b| {
                        let base = 0.5f64.powi(b as i32);
                        [base, 1.0 - base]
                    })
                    .map(|r| (r - w).abs())
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    err <= best + 1e-15,
                    "w = {m}/{denom}: snapped to {snapped} (err {err}, best {best})"
                );
            }
        }
        // One-bit interior points are exact.
        assert_eq!(DyadicWeight::closest(0.125, max_bits).realized(), 0.125);
        assert_eq!(DyadicWeight::closest(0.875, max_bits).realized(), 0.875);
    }

    #[test]
    fn half_weight_is_stream_identical_to_the_raw_lfsr() {
        // bits = 1, no inversion: the generated word must be the private
        // stream's raw word — the generator adds nothing on top (the
        // scalar-compare analogue of the software path's p = 0.5 case).
        let seed = 0xFEED;
        let mut generator = WeightedLfsr::new(
            vec![
                DyadicWeight {
                    bits: 1,
                    invert: false,
                },
                DyadicWeight {
                    bits: 1,
                    invert: true,
                },
            ],
            seed,
        );
        let mut raw0 = Lfsr::maximal(STREAM_DEGREE, stream_seed(seed, 0)).unwrap();
        let mut raw1 = Lfsr::maximal(STREAM_DEGREE, stream_seed(seed, 1)).unwrap();
        for _ in 0..16 {
            let block = generator.next_block(64);
            assert_eq!(block.words[0], raw0.next_word(64));
            assert_eq!(block.words[1], !raw1.next_word(64));
        }
    }

    #[test]
    fn boundary_snapped_weights_consume_exactly_bits_words_per_block() {
        // A boundary weight snapped to 2^-k (or 1 − 2^-k) ANDs exactly k
        // raw words per block: the stream advance is the configured bit
        // budget, nothing more — mirroring the raw stream proves both
        // the draw count and the word values.
        let seed = 0xB0B;
        let max_bits = 4u32;
        let mut generator = WeightedLfsr::from_weights(&[0.0, 1.0], max_bits, seed);
        let mut raw0 = Lfsr::maximal(STREAM_DEGREE, stream_seed(seed, 0)).unwrap();
        let mut raw1 = Lfsr::maximal(STREAM_DEGREE, stream_seed(seed, 1)).unwrap();
        for _ in 0..8 {
            let block = generator.next_block(64);
            let mut and0 = u64::MAX;
            let mut and1 = u64::MAX;
            for _ in 0..max_bits {
                and0 &= raw0.next_word(64);
                and1 &= raw1.next_word(64);
            }
            assert_eq!(block.words[0], and0, "weight 0.0 snaps to 2^-4");
            assert_eq!(block.words[1], !and1, "weight 1.0 snaps to 1 - 2^-4");
        }
        // And the realized densities are one-sided as the snap dictates.
        let realized = generator.realized_weights();
        assert_eq!(realized, vec![0.0625, 0.9375]);
    }

    #[test]
    fn input_streams_are_pairwise_decorrelated() {
        let mut generator = WeightedLfsr::from_weights(&[0.5; 3], 4, 0xACE);
        let blocks = 200u32;
        let pairs = [(0usize, 1usize), (0, 2), (1, 2)];
        let mut agree = [0u64; 3];
        for _ in 0..blocks {
            let b = generator.next_block(64);
            for (slot, &(i, j)) in pairs.iter().enumerate() {
                agree[slot] += u64::from((!(b.words[i] ^ b.words[j])).count_ones());
            }
        }
        let total = f64::from(blocks) * 64.0;
        for (slot, &(i, j)) in pairs.iter().enumerate() {
            let frac = agree[slot] as f64 / total;
            assert!(
                (frac - 0.5).abs() < 0.03,
                "inputs {i} and {j} agree on {frac} of bits"
            );
        }
    }

    #[test]
    fn input_stream_depends_only_on_seed_and_position() {
        // With per-input streams, adding more inputs must not reshuffle
        // the bits of existing ones (the serial design interleaved one
        // stream across however many inputs there were).
        let mut narrow = WeightedLfsr::from_weights(&[0.5; 2], 4, 99);
        let mut wide = WeightedLfsr::from_weights(&[0.5; 5], 4, 99);
        for _ in 0..4 {
            let a = narrow.next_block(64);
            let b = wide.next_block(64);
            assert_eq!(a.words[0], b.words[0]);
            assert_eq!(a.words[1], b.words[1]);
        }
    }

    #[test]
    fn stream_state_does_not_recur_within_budget() {
        // Period guard: the per-input register must be wide enough that
        // the whole generator cannot wrap on long runs (the legacy shared
        // degree-32 register recurred after 2^32 − 1 bits ≈ 2^26 words).
        let generator = WeightedLfsr::from_weights(&[0.5], 4, 7);
        assert!(generator.stream_width() >= 64);
        // Direct lower-bound check: the Fibonacci update is invertible,
        // so any cycle passes through the start state; 2^20 steps without
        // returning proves the period exceeds 2^20, and primitivity of
        // the tabulated degree-64 taps supplies the rest (2^64 − 1).
        let mut lfsr = Lfsr::maximal(STREAM_DEGREE, 0xDEAD_BEEF).unwrap();
        let start = lfsr.state();
        for step in 0..(1u32 << 20) {
            lfsr.step();
            assert_ne!(lfsr.state(), start, "state recurred after {step} steps");
        }
    }
}

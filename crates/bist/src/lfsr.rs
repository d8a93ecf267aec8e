//! Linear feedback shift registers.

use crate::polynomials::primitive_taps;

/// Feedback structure of an [`Lfsr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LfsrForm {
    /// External feedback: one XOR of the tapped bits feeds the top bit.
    #[default]
    Fibonacci,
    /// Internal feedback: the output bit XORs into every tapped position.
    Galois,
}

/// A linear feedback shift register of up to 64 bits.
///
/// With primitive taps (see [`crate::primitive_taps`]) the register
/// cycles through all `2^width − 1` non-zero states, which is the
/// classical on-chip source of pseudo-random test patterns.
///
/// # Example
///
/// ```
/// use wrt_bist::{Lfsr, LfsrForm};
/// let mut a = Lfsr::new(8, wrt_bist::primitive_taps(8).expect("tabulated"), 0x5A, LfsrForm::Fibonacci);
/// let mut b = a.clone();
/// assert_eq!(a.step(), b.step());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    width: u32,
    taps: u64,
    state: u64,
    form: LfsrForm,
}

impl Lfsr {
    /// Creates an LFSR with explicit taps.
    ///
    /// A zero seed is silently replaced by 1 (the all-zero state is the
    /// lock-up state of XOR feedback).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=64` or `taps` has bits above
    /// `width`.
    pub fn new(width: u32, taps: u64, seed: u64, form: LfsrForm) -> Self {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        let mask = width_mask(width);
        assert_eq!(taps & !mask, 0, "taps must fit the register width");
        let mut state = seed & mask;
        if state == 0 {
            state = 1;
        }
        Lfsr {
            width,
            taps,
            state,
            form,
        }
    }

    /// Creates a maximal-length Fibonacci LFSR from the built-in
    /// primitive-polynomial table, or `None` if the degree is not
    /// tabulated.
    pub fn maximal(width: u32, seed: u64) -> Option<Self> {
        Some(Lfsr::new(
            width,
            primitive_taps(width)?,
            seed,
            LfsrForm::Fibonacci,
        ))
    }

    /// Register width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Current register contents.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Advances one clock and returns the output bit (the bit shifted out
    /// of position 0).
    pub fn step(&mut self) -> bool {
        let out = self.state & 1 == 1;
        match self.form {
            LfsrForm::Fibonacci => {
                let feedback = u64::from((self.state & self.taps).count_ones() & 1);
                self.state = (self.state >> 1) | (feedback << (self.width - 1));
            }
            LfsrForm::Galois => {
                self.state >>= 1;
                if out {
                    self.state ^= self.taps >> 1 | (1 << (self.width - 1));
                }
            }
        }
        out
    }

    /// Collects the next `bits` output bits into a word (bit 0 first).
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64`.
    pub fn next_word(&mut self, bits: u32) -> u64 {
        assert!(bits <= 64);
        let mut w = 0u64;
        for k in 0..bits {
            w |= u64::from(self.step()) << k;
        }
        w
    }
}

fn width_mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibonacci_period_is_maximal() {
        let mut lfsr = Lfsr::maximal(10, 1).unwrap();
        let start = lfsr.state();
        let mut period = 0u64;
        loop {
            lfsr.step();
            period += 1;
            if lfsr.state() == start {
                break;
            }
            assert!(period <= 1023);
        }
        assert_eq!(period, 1023);
    }

    #[test]
    fn galois_period_is_maximal() {
        let mut lfsr = Lfsr::new(9, primitive_taps(9).unwrap(), 7, LfsrForm::Galois);
        let start = lfsr.state();
        let mut period = 0u64;
        loop {
            lfsr.step();
            period += 1;
            if lfsr.state() == start {
                break;
            }
            assert!(period <= 511);
        }
        assert_eq!(period, 511);
    }

    #[test]
    fn zero_seed_is_replaced() {
        let lfsr = Lfsr::maximal(8, 0).unwrap();
        assert_ne!(lfsr.state(), 0);
    }

    #[test]
    fn output_bits_are_balanced_over_a_period() {
        let mut lfsr = Lfsr::maximal(12, 99).unwrap();
        let period = (1u64 << 12) - 1;
        let ones: u64 = (0..period).map(|_| u64::from(lfsr.step())).sum();
        // A maximal sequence has 2^(n-1) ones and 2^(n-1) - 1 zeros.
        assert_eq!(ones, 1 << 11);
    }

    #[test]
    fn next_word_packs_lsb_first() {
        let mut a = Lfsr::maximal(16, 3).unwrap();
        let mut b = a.clone();
        let word = a.next_word(8);
        for k in 0..8 {
            assert_eq!((word >> k) & 1 == 1, b.step());
        }
    }

    #[test]
    #[should_panic(expected = "taps must fit")]
    fn oversized_taps_rejected() {
        let _ = Lfsr::new(4, 0x30, 1, LfsrForm::Fibonacci);
    }
}

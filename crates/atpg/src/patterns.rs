//! Bit-packed test-pattern storage.
//!
//! A batch ATPG run over a large circuit accumulates thousands of
//! patterns, each as wide as the primary-input count.  Storing them as
//! `Vec<Vec<bool>>` costs one heap allocation and one *byte* per bit;
//! [`PatternSet`] packs all patterns into a single flat `Vec<u64>` —
//! 64× denser, allocation-free per pattern, and cheap to clone into
//! checkpoints.

/// A set of equally wide test patterns, bit-packed into one flat word
/// arena.
///
/// Pattern `k` occupies words `k * words_per_pattern ..` with input `i`
/// at bit `i % 64` of word `i / 64`; pad bits beyond `width` are always
/// zero, so derived equality compares pattern sets exactly.
///
/// # Example
///
/// ```
/// use wrt_atpg::PatternSet;
///
/// let mut set = PatternSet::new(3);
/// set.push(&[true, false, true]);
/// assert_eq!(set.len(), 1);
/// assert!(set.bit(0, 0) && !set.bit(0, 1) && set.bit(0, 2));
/// assert_eq!(set.pattern(0).collect::<Vec<bool>>(), [true, false, true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PatternSet {
    width: usize,
    words: Vec<u64>,
}

impl PatternSet {
    /// An empty set of `width`-bit patterns.
    pub fn new(width: usize) -> Self {
        PatternSet {
            width,
            words: Vec::new(),
        }
    }

    fn words_per_pattern(&self) -> usize {
        self.width.div_ceil(64).max(1)
    }

    /// Bits per pattern (the circuit's primary-input count).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of patterns stored.
    pub fn len(&self) -> usize {
        self.words.len() / self.words_per_pattern()
    }

    /// Whether no patterns are stored.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Appends one pattern.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.width()`.
    pub fn push(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.width, "pattern width mismatch");
        self.push_bits(bits.iter().copied());
    }

    /// Appends one pattern from an iterator that must yield exactly
    /// [`PatternSet::width`] bits.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields a different number of bits.
    pub fn push_bits(&mut self, bits: impl Iterator<Item = bool>) {
        let base = self.words.len();
        self.words.resize(base + self.words_per_pattern(), 0);
        let mut count = 0usize;
        for (i, bit) in bits.enumerate() {
            count += 1;
            if bit {
                self.words[base + i / 64] |= 1 << (i % 64);
            }
        }
        assert_eq!(count, self.width, "pattern width mismatch");
    }

    /// The value of input `i` in pattern `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `i` is out of range.
    pub fn bit(&self, k: usize, i: usize) -> bool {
        assert!(
            k < self.len() && i < self.width,
            "pattern index out of range"
        );
        self.words[k * self.words_per_pattern() + i / 64] >> (i % 64) & 1 == 1
    }

    /// The bits of pattern `k`, in input order.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn pattern(&self, k: usize) -> impl Iterator<Item = bool> + '_ {
        assert!(k < self.len(), "pattern index out of range");
        let base = k * self.words_per_pattern();
        (0..self.width).map(move |i| self.words[base + i / 64] >> (i % 64) & 1 == 1)
    }

    /// Iterates over all patterns.
    pub fn iter(&self) -> impl Iterator<Item = impl Iterator<Item = bool> + '_> + '_ {
        (0..self.len()).map(|k| self.pattern(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_and_reads_back_across_word_boundaries() {
        // 130 bits > 2 words; pattern bits follow i % 3 == 0.
        let width = 130;
        let mut set = PatternSet::new(width);
        let a: Vec<bool> = (0..width).map(|i| i % 3 == 0).collect();
        let b: Vec<bool> = (0..width).map(|i| i % 7 == 0).collect();
        set.push(&a);
        set.push(&b);
        assert_eq!(set.len(), 2);
        assert_eq!(set.width(), width);
        for i in 0..width {
            assert_eq!(set.bit(0, i), a[i], "pattern 0 bit {i}");
            assert_eq!(set.bit(1, i), b[i], "pattern 1 bit {i}");
        }
        assert_eq!(set.pattern(1).collect::<Vec<bool>>(), b);
        assert_eq!(set.iter().count(), 2);
    }

    #[test]
    fn equality_is_exact() {
        let mut a = PatternSet::new(65);
        let mut b = PatternSet::new(65);
        let p: Vec<bool> = (0..65).map(|i| i % 2 == 0).collect();
        a.push(&p);
        b.push(&p);
        assert_eq!(a, b);
        let mut q = p.clone();
        q[64] = !q[64];
        let mut c = PatternSet::new(65);
        c.push(&q);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "pattern width mismatch")]
    fn rejects_wrong_width() {
        let mut set = PatternSet::new(4);
        set.push(&[true, false]);
    }

    #[test]
    fn memory_is_one_bit_per_input() {
        let mut set = PatternSet::new(64);
        for _ in 0..100 {
            set.push(&[false; 64]);
        }
        // 100 patterns × 64 bits = 100 words.
        assert_eq!(set.len(), 100);
    }
}

//! C6288-style parallel array multiplier.
//!
//! ISCAS-85's C6288 is a 16×16 array multiplier of 240 adder cells; its
//! structure is published and fully reconstructible, which makes it the
//! most faithful member of our ISCAS-85-like family.  Notably, array
//! multipliers are *easy* for random testing (Table 1 lists only 1.9·10³
//! patterns) — a useful negative control for the optimizer.

use wrt_circuit::{Circuit, CircuitBuilder, NodeId};

use crate::cells::{full_adder, half_adder};

/// `n × n` array multiplier: inputs `A0..A<n-1>`, `B0..B<n-1>`, outputs
/// `P0..P<2n-1>` (product, LSB first).
///
/// Built as an AND matrix of partial products followed by a carry-save
/// reduction: every product column is reduced with full/half adders whose
/// carries ripple into the next column, until one bit per column remains.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn array_multiplier(n: usize) -> Circuit {
    assert!(n >= 2, "multiplier width must be at least 2");
    let mut b = CircuitBuilder::named(format!("mul{n}"));
    let a: Vec<NodeId> = (0..n).map(|i| b.input(format!("A{i}"))).collect();
    let bb: Vec<NodeId> = (0..n).map(|i| b.input(format!("B{i}"))).collect();

    // Column stacks: cols[k] holds all bits of weight 2^k awaiting summation.
    let mut cols: Vec<Vec<NodeId>> = vec![Vec::new(); 2 * n + 1];
    for (i, &bi) in bb.iter().enumerate() {
        for (j, &aj) in a.iter().enumerate() {
            let pp = b.and2(aj, bi).expect("valid fanin");
            cols[i + j].push(pp);
        }
    }

    // Reduce left to right so carries land in not-yet-reduced columns.
    for k in 0..2 * n {
        while cols[k].len() > 1 {
            if cols[k].len() >= 3 {
                let z = cols[k].pop().expect("len >= 3");
                let y = cols[k].pop().expect("len >= 3");
                let x = cols[k].pop().expect("len >= 3");
                let (s, c) = full_adder(&mut b, x, y, z);
                cols[k].push(s);
                cols[k + 1].push(c);
            } else {
                let y = cols[k].pop().expect("len == 2");
                let x = cols[k].pop().expect("len == 2");
                let (s, c) = half_adder(&mut b, x, y);
                cols[k].push(s);
                cols[k + 1].push(c);
            }
        }
    }
    debug_assert!(
        cols[2 * n].is_empty(),
        "product of n-bit operands fits in 2n bits"
    );

    let zero = b.const0();
    for (k, col) in cols.iter().enumerate().take(2 * n) {
        let bit = col.first().copied().unwrap_or(zero);
        let out = b
            .gate(wrt_circuit::GateKind::Buf, format!("P{k}"), &[bit])
            .expect("valid fanin");
        b.mark_output(out);
    }
    wrt_circuit::simplify(&b.build().expect("generator produces valid circuits"))
}

/// The C6288 analogue: a 16×16 array multiplier (~1.4 k gates in our AND/
/// XOR/OR realization vs. 2.4 k NOR gates in the original).
pub fn c6288ish() -> Circuit {
    crate::comparator::rename(array_multiplier(16), "c6288ish")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multiply(c: &Circuit, n: usize, a: u64, b: u64) -> u64 {
        let mut assignment = Vec::new();
        for i in 0..n {
            assignment.push((a >> i) & 1 == 1);
        }
        for i in 0..n {
            assignment.push((b >> i) & 1 == 1);
        }
        let out = c.evaluate(&assignment);
        out.iter()
            .enumerate()
            .filter(|&(_, &bit)| bit)
            .map(|(i, _)| 1u64 << i)
            .sum()
    }

    #[test]
    fn four_bit_multiplier_exhaustive() {
        let c = array_multiplier(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(multiply(&c, 4, a, b), a * b, "{a} * {b}");
            }
        }
    }

    #[test]
    fn eight_bit_multiplier_spot_checks() {
        let c = array_multiplier(8);
        for (a, b) in [(255u64, 255u64), (200, 121), (1, 37), (0, 99), (128, 2)] {
            assert_eq!(multiply(&c, 8, a, b), a * b, "{a} * {b}");
        }
    }

    #[test]
    fn c6288ish_shape() {
        let c = c6288ish();
        assert_eq!(c.num_inputs(), 32);
        assert_eq!(c.num_outputs(), 32);
        assert!(c.num_gates() > 1000, "got {}", c.num_gates());
    }
}

//! Adder/comparator datapaths standing in for C2670 and C7552.
//!
//! The published root cause of C2670's and C7552's extreme random-pattern
//! resistance is wide-support comparison and detection logic: equality
//! comparators and all-ones detectors whose output is 1 with probability
//! `2^-width` under equiprobable patterns.  This generator combines a
//! ripple adder datapath with exactly such logic.

use wrt_circuit::{Circuit, CircuitBuilder, GateKind, NodeId};

use crate::cells::{and_tree, equality, mux2, ripple_adder, xor_tree};

/// `width`-bit adder + `eq_width`-bit comparator/detector datapath.
///
/// Inputs: `A*`/`B*` (adder operands, `width` bits each), `X*`/`Y*`
/// (comparator operands, `eq_width` bits each), `SEL` (result mux control)
/// and `CIN`.
///
/// Outputs: the `width`-bit result `F*` (sum or `A XOR B` selected by
/// `SEL`), `COUT`, `PAR` (parity of the result), `XEQY` (wide equality —
/// detection probability `2^-eq_width`), and `ALL1` (all-ones detect over
/// `X`, probability `2^-eq_width`).
///
/// # Panics
///
/// Panics if `width == 0` or `eq_width == 0`.
pub fn adder_comparator(width: usize, eq_width: usize) -> Circuit {
    assert!(width > 0 && eq_width > 0, "widths must be positive");
    let mut b = CircuitBuilder::named(format!("addcmp{width}_{eq_width}"));
    let a: Vec<NodeId> = (0..width).map(|i| b.input(format!("A{i}"))).collect();
    let bb: Vec<NodeId> = (0..width).map(|i| b.input(format!("B{i}"))).collect();
    let x: Vec<NodeId> = (0..eq_width).map(|i| b.input(format!("X{i}"))).collect();
    let y: Vec<NodeId> = (0..eq_width).map(|i| b.input(format!("Y{i}"))).collect();
    let sel = b.input("SEL");
    let cin = b.input("CIN");

    let (sums, cout) = ripple_adder(&mut b, &a, &bb, cin);
    let mut result = Vec::with_capacity(width);
    for i in 0..width {
        let x_i = b.xor2(a[i], bb[i]).expect("valid fanin");
        let f = mux2(&mut b, sel, sums[i], x_i);
        let named = b
            .gate(GateKind::Buf, format!("F{i}"), &[f])
            .expect("valid fanin");
        result.push(named);
    }
    for &f in &result {
        b.mark_output(f);
    }
    let cout_named = b.gate(GateKind::Buf, "COUT", &[cout]).expect("valid fanin");
    b.mark_output(cout_named);
    let par = xor_tree(&mut b, &result);
    let par_named = b.gate(GateKind::Buf, "PAR", &[par]).expect("valid fanin");
    b.mark_output(par_named);

    // The random-pattern-resistant part.
    let eq = equality(&mut b, &x, &y);
    let eq_named = b.gate(GateKind::Buf, "XEQY", &[eq]).expect("valid fanin");
    b.mark_output(eq_named);
    let all1 = and_tree(&mut b, &x);
    let all1_named = b.gate(GateKind::Buf, "ALL1", &[all1]).expect("valid fanin");
    b.mark_output(all1_named);

    b.build().expect("generator produces valid circuits")
}

/// C2670 analogue: 12-bit adder with a 20-bit comparator section
/// (hardest faults around `2^-20`, matching C2670's 1.1·10⁷ conventional
/// test length scale).
pub fn c2670ish() -> Circuit {
    crate::comparator::rename(adder_comparator(12, 20), "c2670ish")
}

/// C7552 analogue: 32-bit adder with a 32-bit comparator section
/// (hardest faults around `2^-32`, matching C7552's 4.9·10¹¹ scale).
pub fn c7552ish() -> Circuit {
    crate::comparator::rename(adder_comparator(32, 32), "c7552ish")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)] // direct mirror of the circuit's operand pins
    fn run(
        c: &Circuit,
        width: usize,
        eq_width: usize,
        a: u64,
        b: u64,
        x: u64,
        y: u64,
        sel: bool,
    ) -> (u64, bool, bool) {
        let mut assignment = Vec::new();
        for i in 0..width {
            assignment.push((a >> i) & 1 == 1);
        }
        for i in 0..width {
            assignment.push((b >> i) & 1 == 1);
        }
        for i in 0..eq_width {
            assignment.push((x >> i) & 1 == 1);
        }
        for i in 0..eq_width {
            assignment.push((y >> i) & 1 == 1);
        }
        assignment.push(sel);
        assignment.push(false); // CIN
        let out = c.evaluate(&assignment);
        let mut f = 0u64;
        for (i, &bit) in out.iter().enumerate().take(width) {
            if bit {
                f |= 1 << i;
            }
        }
        // outputs: F*, COUT, PAR, XEQY, ALL1
        (f, out[width + 2], out[width + 3])
    }

    #[test]
    fn sum_and_xor_paths() {
        let c = adder_comparator(8, 4);
        let (f, _, _) = run(&c, 8, 4, 100, 55, 0, 0, false);
        assert_eq!(f, 155);
        let (f, _, _) = run(&c, 8, 4, 0xAA, 0x0F, 0, 0, true);
        assert_eq!(f, 0xAA ^ 0x0F);
    }

    #[test]
    fn equality_and_all_ones_flags() {
        let c = adder_comparator(4, 6);
        let (_, eq, all1) = run(&c, 4, 6, 0, 0, 0x2A, 0x2A, false);
        assert!(eq);
        assert!(!all1);
        let (_, eq, all1) = run(&c, 4, 6, 0, 0, 0x3F, 0x00, false);
        assert!(!eq);
        assert!(all1);
    }

    #[test]
    fn family_shapes() {
        let c2670 = c2670ish();
        assert_eq!(c2670.num_inputs(), 12 * 2 + 20 * 2 + 2);
        let c7552 = c7552ish();
        assert_eq!(c7552.num_inputs(), 32 * 2 + 32 * 2 + 2);
        assert!(c7552.num_gates() > c2670.num_gates());
    }
}

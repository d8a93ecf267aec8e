//! ALU generators standing in for the ISCAS-85 ALU-class circuits
//! (C880 ≈ 8-bit ALU, C3540 ≈ BCD ALU, C5315 ≈ ALU selector).
//!
//! The generated ALU computes, per the 3-bit function select
//! `(S2, S1, S0)`:
//!
//! | S1 S0 | result          |
//! |-------|-----------------|
//! | 0 0   | A + B (or A − B when S2 = 1) |
//! | 0 1   | A AND B         |
//! | 1 0   | A OR B          |
//! | 1 1   | A XOR B         |
//!
//! plus status outputs: carry-out, zero flag (wide NOR over the result) and
//! optionally odd parity and an `A == B` comparator — the latter two add
//! the wide-support signals that make the larger ISCAS ALUs interesting
//! testability subjects.

use wrt_circuit::{Circuit, CircuitBuilder, GateKind, NodeId};

use crate::cells::{equality, full_adder, mux2, xor_tree};

/// Feature switches for [`alu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AluFeatures {
    /// Emit an odd-parity output over the result bits.
    pub parity: bool,
    /// Emit an `A == B` comparator output (wide AND of XNORs) over the
    /// low `compare` bits; `0` disables the output.
    pub compare: usize,
    /// The `ZERO` flag covers the low `zero_width` result bits (clamped
    /// to the ALU width).  Real ALUs expose byte/halfword zero flags; the
    /// width also controls how random-pattern-resistant the flag is
    /// (`2^-zero_width` excitation probability).
    pub zero_width: usize,
}

impl Default for AluFeatures {
    fn default() -> Self {
        AluFeatures {
            parity: true,
            compare: 0,
            zero_width: usize::MAX,
        }
    }
}

/// Generates a `width`-bit ALU with select inputs `S0..S2`, operands
/// `A*`/`B*`, carry-in `CIN`; outputs `F*`, `COUT`, `ZERO` and the
/// feature-controlled extras.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn alu(width: usize, features: AluFeatures) -> Circuit {
    assert!(width > 0, "ALU width must be positive");
    let mut b = CircuitBuilder::named(format!("alu{width}"));
    let a: Vec<NodeId> = (0..width).map(|i| b.input(format!("A{i}"))).collect();
    let bb: Vec<NodeId> = (0..width).map(|i| b.input(format!("B{i}"))).collect();
    let s0 = b.input("S0");
    let s1 = b.input("S1");
    let s2 = b.input("S2");
    let cin = b.input("CIN");

    // Arithmetic path: A + (B ^ S2) + (CIN | S2-adjusted); subtraction uses
    // two's complement (invert B, force carry-in high via OR).
    let b_arith: Vec<NodeId> = bb
        .iter()
        .map(|&x| b.xor2(x, s2).expect("valid fanin"))
        .collect();
    let c0 = b.or2(cin, s2).expect("valid fanin");
    let mut carry = c0;
    let mut add_bits = Vec::with_capacity(width);
    for i in 0..width {
        let (s, c) = full_adder(&mut b, a[i], b_arith[i], carry);
        add_bits.push(s);
        carry = c;
    }
    let cout = carry;

    // Logic paths.
    let mut result = Vec::with_capacity(width);
    for i in 0..width {
        let and_i = b.and2(a[i], bb[i]).expect("valid fanin");
        let or_i = b.or2(a[i], bb[i]).expect("valid fanin");
        let xor_i = b.xor2(a[i], bb[i]).expect("valid fanin");
        // 4:1 mux on (s1, s0).
        let lo = mux2(&mut b, s0, add_bits[i], and_i);
        let hi = mux2(&mut b, s0, or_i, xor_i);
        let f = mux2(&mut b, s1, lo, hi);
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
    // Zero flag: NOR over the low result bits.
    let zw = features.zero_width.clamp(1, width);
    let zero = b
        .gate(GateKind::Nor, "ZERO", &result[..zw])
        .expect("valid fanin");
    b.mark_output(zero);
    if features.parity {
        let p = xor_tree(&mut b, &result);
        let p_named = b.gate(GateKind::Buf, "PARITY", &[p]).expect("valid fanin");
        b.mark_output(p_named);
    }
    if features.compare > 0 {
        let cw = features.compare.min(width);
        let eq = equality(&mut b, &a[..cw], &bb[..cw]);
        let eq_named = b.gate(GateKind::Buf, "AEQB", &[eq]).expect("valid fanin");
        b.mark_output(eq_named);
    }
    wrt_circuit::simplify(&b.build().expect("generator produces valid circuits"))
}

/// C880 analogue: 8-bit ALU with parity and a full-width zero flag
/// (hardest excitation `≈ 2^-8`, matching C880's modest 3.7·10⁴).
pub fn c880ish() -> Circuit {
    crate::comparator::rename(alu(8, AluFeatures::default()), "c880ish")
}

/// C3540 analogue: 16-bit ALU with parity, a 16-bit comparator and a
/// byte-wide zero flag (hardest structure `≈ 2^-16`, matching C3540's
/// 2.3·10⁶ scale).
pub fn c3540ish() -> Circuit {
    crate::comparator::rename(
        alu(
            16,
            AluFeatures {
                parity: true,
                compare: 16,
                zero_width: 8,
            },
        ),
        "c3540ish",
    )
}

/// C5315 analogue: 24-bit ALU selector with parity and a 12-bit zero flag
/// (hardest structure `≈ 2^-12`, matching C5315's 5.3·10⁴ scale).
pub fn c5315ish() -> Circuit {
    crate::comparator::rename(
        alu(
            24,
            AluFeatures {
                parity: true,
                compare: 0,
                zero_width: 12,
            },
        ),
        "c5315ish",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(c: &Circuit, assignment: &[bool]) -> Vec<bool> {
        let mut values = vec![false; c.num_nodes()];
        let mut buf = Vec::new();
        for (id, node) in c.iter() {
            values[id.index()] = match node.kind() {
                GateKind::Input => assignment[c.input_position(id).expect("pi")],
                kind => {
                    buf.clear();
                    buf.extend(node.fanin().iter().map(|f| values[f.index()]));
                    kind.eval(&buf)
                }
            };
        }
        c.outputs().iter().map(|&o| values[o.index()]).collect()
    }

    fn run_alu(c: &Circuit, width: usize, a: u64, b: u64, sel: u8, cin: bool) -> (u64, bool, bool) {
        let mut assignment = Vec::new();
        for i in 0..width {
            assignment.push((a >> i) & 1 == 1);
        }
        for i in 0..width {
            assignment.push((b >> i) & 1 == 1);
        }
        assignment.push(sel & 1 == 1); // S0
        assignment.push(sel & 2 == 2); // S1
        assignment.push(sel & 4 == 4); // S2
        assignment.push(cin);
        let out = eval(c, &assignment);
        let mut f = 0u64;
        for (i, &bit) in out.iter().enumerate().take(width) {
            if bit {
                f |= 1 << i;
            }
        }
        (f, out[width], out[width + 1]) // (F, COUT, ZERO)
    }

    #[test]
    fn alu_operations_8bit() {
        let c = alu(8, AluFeatures::default());
        let mask = 0xFFu64;
        for (a, b) in [(0x5Au64, 0xC3u64), (0xFF, 0x01), (0x00, 0x00), (0x80, 0x80)] {
            // ADD (sel = 0, cin = 0)
            let (f, cout, zero) = run_alu(&c, 8, a, b, 0b000, false);
            assert_eq!(f, (a + b) & mask, "{a:#x} + {b:#x}");
            assert_eq!(cout, a + b > mask);
            assert_eq!(zero, (a + b) & mask == 0);
            // SUB (S2 = 1)
            let (f, _, _) = run_alu(&c, 8, a, b, 0b100, false);
            assert_eq!(f, a.wrapping_sub(b) & mask, "{a:#x} - {b:#x}");
            // AND / OR / XOR
            assert_eq!(run_alu(&c, 8, a, b, 0b001, false).0, a & b);
            assert_eq!(run_alu(&c, 8, a, b, 0b010, false).0, a | b);
            assert_eq!(run_alu(&c, 8, a, b, 0b011, false).0, a ^ b);
        }
    }

    #[test]
    fn carry_in_feeds_addition() {
        let c = alu(4, AluFeatures::default());
        let (f, _, _) = run_alu(&c, 4, 3, 4, 0b000, true);
        assert_eq!(f, 8);
    }

    #[test]
    fn compare_output_when_enabled() {
        let c = alu(
            4,
            AluFeatures {
                parity: false,
                compare: 4,
                zero_width: usize::MAX,
            },
        );
        // Outputs: F0..3, COUT, ZERO, AEQB
        let get = |a: u64, b: u64| {
            let mut assignment = Vec::new();
            for i in 0..4 {
                assignment.push((a >> i) & 1 == 1);
            }
            for i in 0..4 {
                assignment.push((b >> i) & 1 == 1);
            }
            assignment.extend([false, false, false, false]);
            *eval(&c, &assignment).last().expect("AEQB present")
        };
        assert!(get(9, 9));
        assert!(!get(9, 8));
    }

    #[test]
    fn family_shapes() {
        let c880 = c880ish();
        assert_eq!(c880.num_inputs(), 20);
        assert!(c880.num_gates() > 150, "got {}", c880.num_gates());
        let c3540 = c3540ish();
        assert!(c3540.num_gates() > 300, "got {}", c3540.num_gates());
        let c5315 = c5315ish();
        assert!(c5315.num_gates() > 500, "got {}", c5315.num_gates());
    }
}

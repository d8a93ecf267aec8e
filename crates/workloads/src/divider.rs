//! The paper's S2: the combinational part of an array divider \[KuWu85\].
//!
//! A non-restoring array divider is a grid of controlled add/subtract (CAS)
//! cells.  Row *i* shifts the next dividend bit into the signed partial
//! remainder and then conditionally adds or subtracts the divisor; the sign
//! of the row result is quotient bit *i* (inverted) and also the control
//! input of the next row.  The long control chains through the array are
//! what makes divider logic random-pattern resistant.

use wrt_circuit::{Circuit, CircuitBuilder, GateKind, NodeId};

/// One controlled add/subtract cell.
///
/// Computes one bit of `r + (d XOR t) + cin`; with the row's carry-in tied
/// to `t`, the row realizes `R + B` (`t = 0`) or `R − B` (`t = 1`, two's
/// complement).  Returns `(sum, carry)`.
fn cas(b: &mut CircuitBuilder, r: NodeId, d: NodeId, t: NodeId, cin: NodeId) -> (NodeId, NodeId) {
    let x = b.xor2(d, t).expect("valid fanin");
    let s1 = b.xor2(r, x).expect("valid fanin");
    let sum = b.xor2(s1, cin).expect("valid fanin");
    let c1 = b.and2(r, x).expect("valid fanin");
    let c2 = b.and2(s1, cin).expect("valid fanin");
    let carry = b.or2(c1, c2).expect("valid fanin");
    (sum, carry)
}

/// Non-restoring array divider: `2n`-bit dividend, `n`-bit divisor,
/// `n`-bit quotient and `n+1`-bit (corrected) remainder outputs, plus the
/// exception-detection outputs of a real divider datapath:
///
/// * `DIVZERO` — wide NOR over the divisor (1 iff divisor = 0), the
///   canonical random-pattern-resistant signal of divider logic
///   (probability `2^-n` under equiprobable patterns);
/// * `OVFEQ` — quotient-overflow boundary detect: the top dividend half
///   equals the divisor (probability `2^-n`).
///
/// Inputs are `D0..D<2n-1>` (dividend, LSB first) and `V0..V<n-1>`
/// (divisor).  Outputs are `Q<n-1>..Q0` (MSB first), `R0..Rn`, `DIVZERO`,
/// `OVFEQ`.  The quotient is exact (`floor(dividend / divisor)`) whenever
/// the true quotient fits in `n` bits and the divisor is non-zero.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn array_divider(n: usize) -> Circuit {
    assert!(n > 0, "divider width must be positive");
    let w = n + 2; // signed partial remainder width
    let mut b = CircuitBuilder::named(format!("div{n}"));
    let dividend: Vec<NodeId> = (0..2 * n).map(|i| b.input(format!("D{i}"))).collect();
    let divisor: Vec<NodeId> = (0..n).map(|i| b.input(format!("V{i}"))).collect();
    let zero = b.const0();
    let one = b.const1();

    // Divisor zero-extended to the remainder width.
    let opb: Vec<NodeId> = (0..w)
        .map(|j| if j < n { divisor[j] } else { zero })
        .collect();

    // R starts as the top n dividend bits, zero-extended (non-negative).
    let mut rem: Vec<NodeId> = (0..w)
        .map(|j| if j < n { dividend[n + j] } else { zero })
        .collect();

    let mut t = one; // first operation subtracts
    let mut quotient = Vec::with_capacity(n);
    for i in 0..n {
        // Shift left by one, bringing in the next dividend bit (the value
        // fits in w bits, so dropping the old MSB is exact).
        let mut shifted = Vec::with_capacity(w);
        shifted.push(dividend[n - 1 - i]);
        shifted.extend(rem.iter().take(w - 1).copied());

        // R := R ± B, carry-in = t.
        let mut carry = t;
        let mut next = Vec::with_capacity(w);
        for col in 0..w {
            let (s, c) = cas(&mut b, shifted[col], opb[col], t, carry);
            next.push(s);
            carry = c;
        }
        // Sign bit of the row result: q_i = NOT sign.
        let sign = next[w - 1];
        let q = b.not(sign).expect("valid fanin");
        quotient.push(q);
        t = q; // subtract next when the remainder stayed non-negative
        rem = next;
    }

    // Remainder correction: add B back when the final remainder is
    // negative (operand bits gated by the sign).
    let sign = rem[w - 1];
    let gated: Vec<NodeId> = opb
        .iter()
        .map(|&d| b.and2(d, sign).expect("valid fanin"))
        .collect();
    let mut carry = zero;
    let mut corrected = Vec::with_capacity(w);
    for col in 0..w {
        let (s, c) = cas(&mut b, rem[col], gated[col], zero, carry);
        corrected.push(s);
        carry = c;
    }

    for (i, &q) in quotient.iter().enumerate() {
        let out = b
            .gate(GateKind::Buf, format!("Q{}", n - 1 - i), &[q])
            .expect("valid fanin");
        b.mark_output(out);
    }
    for (i, &r) in corrected.iter().take(n + 1).enumerate() {
        let out = b
            .gate(GateKind::Buf, format!("R{i}"), &[r])
            .expect("valid fanin");
        b.mark_output(out);
    }

    // Exception detection: the random-pattern-resistant part.
    let divzero = b
        .gate(GateKind::Nor, "DIVZERO", &divisor)
        .expect("valid fanin");
    b.mark_output(divzero);
    let top_half: Vec<NodeId> = (0..n).map(|j| dividend[n + j]).collect();
    let eq_bits: Vec<NodeId> = top_half
        .iter()
        .zip(&divisor)
        .map(|(&d, &v)| b.gate_auto(GateKind::Xnor, &[d, v]).expect("valid fanin"))
        .collect();
    let ovfeq = {
        let tree = crate::cells::and_tree(&mut b, &eq_bits);
        b.gate(GateKind::Buf, "OVFEQ", &[tree])
            .expect("valid fanin")
    };
    b.mark_output(ovfeq);
    wrt_circuit::simplify(&b.build().expect("generator produces valid circuits"))
}

/// The paper's S2: combinational part of a divider.
///
/// We use a 24-bit divisor / 48-bit dividend array: its hardest signals
/// (`DIVZERO`, `OVFEQ`) sit at `2^-24`, giving the "starred" conventional
/// test length the paper reports for its 32-bit divider (see DESIGN.md §3
/// and EXPERIMENTS.md for the scale discussion).
pub fn s2() -> Circuit {
    crate::comparator::rename(array_divider(24), "s2")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the divider circuit and returns `(quotient, remainder)`.
    fn divide(c: &Circuit, n: usize, dividend: u64, divisor: u64) -> (u64, u64) {
        let mut assignment = Vec::new();
        for i in 0..2 * n {
            assignment.push((dividend >> i) & 1 == 1);
        }
        for i in 0..n {
            assignment.push((divisor >> i) & 1 == 1);
        }
        let out = c.evaluate(&assignment);
        let mut q = 0u64;
        for (i, &bit) in out.iter().enumerate().take(n) {
            if bit {
                q |= 1 << (n - 1 - i);
            }
        }
        let mut r = 0u64;
        for i in 0..=n {
            if out[n + i] {
                r |= 1 << i;
            }
        }
        (q, r)
    }

    #[test]
    fn four_bit_divider_is_exhaustively_correct() {
        let n = 4;
        let c = array_divider(n);
        for dividend in 0..64u64 {
            for divisor in 1..16u64 {
                let expect_q = dividend / divisor;
                if expect_q >= (1 << n) {
                    continue; // quotient overflow: undefined
                }
                let (q, r) = divide(&c, n, dividend, divisor);
                assert_eq!(q, expect_q, "{dividend} / {divisor}");
                assert_eq!(r, dividend % divisor, "{dividend} % {divisor}");
            }
        }
    }

    #[test]
    fn eight_bit_divider_spot_checks() {
        let n = 8;
        let c = array_divider(n);
        for (dd, dv) in [
            (40_000u64, 200u64),
            (60_000, 250),
            (12_345, 99),
            (255, 255),
            (0, 7),
            (510, 2),
        ] {
            if dd / dv >= (1 << n) {
                continue;
            }
            let (q, r) = divide(&c, n, dd, dv);
            assert_eq!((q, r), (dd / dv, dd % dv), "{dd} / {dv}");
        }
    }

    #[test]
    fn s2_shape() {
        let c = s2();
        assert_eq!(c.name(), "s2");
        assert_eq!(c.num_inputs(), 72); // 48 dividend + 24 divisor
        assert_eq!(c.num_outputs(), 51); // 24 quotient + 25 remainder + 2 flags
        assert!(c.num_gates() > 1500, "got {}", c.num_gates());
    }

    #[test]
    fn exception_outputs_fire_on_their_conditions() {
        let n = 4;
        let c = array_divider(n);
        let run = |dd: u64, dv: u64| {
            let mut assignment = Vec::new();
            for i in 0..2 * n {
                assignment.push((dd >> i) & 1 == 1);
            }
            for i in 0..n {
                assignment.push((dv >> i) & 1 == 1);
            }
            let out = c.evaluate(&assignment);
            // outputs: Q(4), R(5), DIVZERO, OVFEQ
            (out[2 * n + 1], out[2 * n + 2])
        };
        assert_eq!(run(20, 0), (true, false));
        assert_eq!(run(20, 3), (false, false));
        // top half of 0xA7 is 0xA; divisor 0xA: OVFEQ fires.
        assert_eq!(run(0xA7, 0xA), (false, true));
    }

    #[test]
    fn divider_is_deep() {
        // The quotient/control chain makes the array deep.
        let c = array_divider(8);
        assert!(c.levels().depth() > 40, "depth {}", c.levels().depth());
    }
}

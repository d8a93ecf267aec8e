//! Error-correcting-code circuits standing in for C499/C1355/C1908.
//!
//! C499 is a 32-bit single-error-correction (SEC) network; C1355 is the
//! same function with every XOR expanded into four NANDs; C1908 is a
//! 16-bit SEC/DED network.  We generate Hamming-style SEC logic: syndrome
//! computation (XOR trees over the code's parity groups), a syndrome
//! decoder (one wide AND per data bit), and the correction stage
//! (data XOR correction).

use wrt_circuit::{Circuit, CircuitBuilder, GateKind, NodeId};

use crate::cells::{xor_from_nands, xor_tree};

/// How XOR functions are realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XorStyle {
    /// Native XOR gates (C499 style).
    Native,
    /// Four-NAND expansion per 2-input XOR (C1355 style).
    Nands,
}

/// Builds an XOR over `leaves` in the requested style.
fn styled_xor(b: &mut CircuitBuilder, leaves: &[NodeId], style: XorStyle) -> NodeId {
    match style {
        XorStyle::Native => xor_tree(b, leaves),
        XorStyle::Nands => {
            let mut layer: Vec<NodeId> = leaves.to_vec();
            while layer.len() > 1 {
                let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                for pair in layer.chunks(2) {
                    next.push(match pair {
                        [x, y] => xor_from_nands(b, *x, *y),
                        [x] => *x,
                        _ => unreachable!(),
                    });
                }
                layer = next;
            }
            layer[0]
        }
    }
}

/// Single-error-correcting decoder over `data_bits` data inputs.
///
/// Inputs: `D0..` data bits and `C0..` received check bits.  Outputs: the
/// corrected data word `O0..` plus an `ERR` flag (OR of the syndrome).
///
/// Classic Hamming positioning: data bit *i* occupies the *i*-th
/// non-power-of-two codeword position (3, 5, 6, 7, 9, …) and belongs to
/// parity group *j* iff bit *j* of its position is set; check bit *j*
/// occupies position `2^j`.  A check-bit error therefore yields a
/// power-of-two syndrome that matches no data decode line: it is flagged
/// but never corrupts data.
///
/// # Panics
///
/// Panics if `data_bits == 0`.
pub fn sec_circuit(data_bits: usize, style: XorStyle) -> Circuit {
    assert!(data_bits > 0, "need at least one data bit");
    let sbits = syndrome_width(data_bits);
    let positions: Vec<usize> = hamming_positions(data_bits);
    let mut b = CircuitBuilder::named(format!("sec{data_bits}"));
    let data: Vec<NodeId> = (0..data_bits).map(|i| b.input(format!("D{i}"))).collect();
    let check: Vec<NodeId> = (0..sbits).map(|j| b.input(format!("C{j}"))).collect();

    // Syndrome bit j = parity of the group XOR the received check bit.
    let mut syndrome = Vec::with_capacity(sbits);
    for (j, &cj) in check.iter().enumerate() {
        let mut group: Vec<NodeId> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| positions[*i] >> j & 1 == 1)
            .map(|(_, &d)| d)
            .collect();
        group.push(cj);
        syndrome.push(styled_xor(&mut b, &group, style));
    }
    let nsyndrome: Vec<NodeId> = syndrome
        .iter()
        .map(|&s| b.not(s).expect("valid fanin"))
        .collect();

    // Decode: data bit i flips when the syndrome equals its position.
    for (i, &d) in data.iter().enumerate() {
        let code = positions[i];
        let fanin: Vec<NodeId> = (0..sbits)
            .map(|j| {
                if code >> j & 1 == 1 {
                    syndrome[j]
                } else {
                    nsyndrome[j]
                }
            })
            .collect();
        let flip = b.gate_auto(GateKind::And, &fanin).expect("valid fanin");
        let corrected = match style {
            XorStyle::Native => b.xor2(d, flip).expect("valid fanin"),
            XorStyle::Nands => xor_from_nands(&mut b, d, flip),
        };
        let out = b
            .gate(GateKind::Buf, format!("O{i}"), &[corrected])
            .expect("valid fanin");
        b.mark_output(out);
    }
    let err = b.gate(GateKind::Or, "ERR", &syndrome).expect("valid fanin");
    b.mark_output(err);
    b.build().expect("generator produces valid circuits")
}

/// The first `data_bits` non-power-of-two codeword positions.
fn hamming_positions(data_bits: usize) -> Vec<usize> {
    (3usize..)
        .filter(|p| !p.is_power_of_two())
        .take(data_bits)
        .collect()
}

/// Number of check bits needed: enough that the largest data position
/// fits in the syndrome.
fn syndrome_width(data_bits: usize) -> usize {
    let max_pos = *hamming_positions(data_bits).last().expect("data_bits > 0");
    usize::BITS as usize - max_pos.leading_zeros() as usize
}

/// C499 analogue: 32-bit SEC with native XOR gates.
pub fn c499ish() -> Circuit {
    crate::comparator::rename(sec_circuit(32, XorStyle::Native), "c499ish")
}

/// C1355 analogue: the same function as [`c499ish`] with every XOR
/// expanded into four NANDs (exactly the C499 → C1355 relationship).
pub fn c1355ish() -> Circuit {
    crate::comparator::rename(sec_circuit(32, XorStyle::Nands), "c1355ish")
}

/// C1908 analogue: mid-size SEC network with NAND-expanded XORs.
pub fn c1908ish() -> Circuit {
    crate::comparator::rename(sec_circuit(25, XorStyle::Nands), "c1908ish")
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

    /// Encodes `data` into check bits per the circuit's parity groups.
    fn encode(data: u64, data_bits: usize) -> Vec<bool> {
        let sbits = syndrome_width(data_bits);
        let positions = hamming_positions(data_bits);
        (0..sbits)
            .map(|j| {
                (0..data_bits)
                    .filter(|&i| positions[i] >> j & 1 == 1)
                    .fold(false, |acc, i| acc ^ ((data >> i) & 1 == 1))
            })
            .collect()
    }

    fn run(c: &Circuit, data_bits: usize, data: u64, check: &[bool]) -> (u64, bool) {
        let mut assignment: Vec<bool> = (0..data_bits).map(|i| (data >> i) & 1 == 1).collect();
        assignment.extend_from_slice(check);
        let out = eval(c, &assignment);
        let mut corrected = 0u64;
        for (i, &bit) in out.iter().enumerate().take(data_bits) {
            if bit {
                corrected |= 1 << i;
            }
        }
        (corrected, out[data_bits])
    }

    #[test]
    fn clean_word_passes_through() {
        for style in [XorStyle::Native, XorStyle::Nands] {
            let c = sec_circuit(11, style);
            for data in [0u64, 0x7FF, 0x2A5, 0x400] {
                let check = encode(data, 11);
                let (out, err) = run(&c, 11, data, &check);
                assert_eq!(out, data, "{style:?} clean {data:#x}");
                assert!(!err);
            }
        }
    }

    #[test]
    fn single_data_error_is_corrected() {
        for style in [XorStyle::Native, XorStyle::Nands] {
            let c = sec_circuit(11, style);
            let data = 0x5A3u64;
            let check = encode(data, 11);
            for flip in 0..11 {
                let corrupted = data ^ (1 << flip);
                let (out, err) = run(&c, 11, corrupted, &check);
                assert_eq!(out, data, "{style:?} flip bit {flip}");
                assert!(err, "{style:?} error flagged");
            }
        }
    }

    #[test]
    fn check_bit_error_flags_but_does_not_corrupt() {
        // A flipped check bit gives a power-of-two syndrome, which matches
        // no data decode line: data passes through, ERR is raised.
        let c = sec_circuit(11, XorStyle::Native);
        let data = 0x123u64;
        let clean = encode(data, 11);
        for j in 0..clean.len() {
            let mut check = clean.clone();
            check[j] = !check[j];
            let (out, err) = run(&c, 11, data, &check);
            assert_eq!(out, data, "check bit {j}");
            assert!(err, "check bit {j}");
        }
    }

    #[test]
    fn family_shapes() {
        let c499 = c499ish();
        assert_eq!(c499.num_inputs(), 32 + 6);
        assert_eq!(c499.num_outputs(), 33);
        let c1355 = c1355ish();
        assert!(
            c1355.num_gates() > 2 * c499.num_gates(),
            "NAND expansion grows the netlist: {} vs {}",
            c1355.num_gates(),
            c499.num_gates()
        );
        let c1908 = c1908ish();
        assert!(c1908.num_gates() > 200);
    }

    #[test]
    fn nand_style_contains_no_xor_gates_in_syndrome() {
        let c = c1355ish();
        let xor_count = c
            .iter()
            .filter(|(_, n)| matches!(n.kind(), GateKind::Xor | GateKind::Xnor))
            .count();
        assert_eq!(xor_count, 0, "C1355-style circuit must be XOR-free");
    }
}

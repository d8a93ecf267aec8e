//! Priority/interrupt controller standing in for C432.
//!
//! C432 is a 27-channel interrupt controller: requests are gated by enables
//! and arbitrated by priority, with encoded outputs.  The deep OR-inhibit
//! chain gives it moderate random-pattern resistance.

use wrt_circuit::{Circuit, CircuitBuilder, GateKind, NodeId};

use crate::cells::{or_tree, xor_tree};

/// `channels`-channel priority interrupt controller.
///
/// Inputs: `R0..R<channels-1>` request lines and `E0..` enable lines (one
/// enable gates a group of three consecutive channels, as in C432's bus
/// structure).  Channel `channels-1` has the highest priority.
///
/// Outputs: `GRANT` (any channel granted), an encoded channel index
/// `IDX0..` (OR trees over granted lines), and `PAR` (parity over the
/// masked requests).
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn priority_interrupt(channels: usize) -> Circuit {
    assert!(channels > 0, "need at least one channel");
    let groups = channels.div_ceil(3);
    let mut b = CircuitBuilder::named(format!("pint{channels}"));
    let requests: Vec<NodeId> = (0..channels).map(|i| b.input(format!("R{i}"))).collect();
    let enables: Vec<NodeId> = (0..groups).map(|g| b.input(format!("E{g}"))).collect();

    // Masked requests.
    let masked: Vec<NodeId> = requests
        .iter()
        .enumerate()
        .map(|(i, &r)| b.and2(r, enables[i / 3]).expect("valid fanin"))
        .collect();

    // Priority chain: channel i granted iff masked_i and no higher masked
    // request.  `inhibit` accumulates the OR of higher channels.
    let mut grant = vec![None::<NodeId>; channels];
    let mut inhibit: Option<NodeId> = None;
    for i in (0..channels).rev() {
        grant[i] = Some(match inhibit {
            None => masked[i],
            Some(inh) => {
                let ninh = b.not(inh).expect("valid fanin");
                b.and2(masked[i], ninh).expect("valid fanin")
            }
        });
        inhibit = Some(match inhibit {
            None => masked[i],
            Some(inh) => b.or2(inh, masked[i]).expect("valid fanin"),
        });
    }
    let grant: Vec<NodeId> = grant.into_iter().map(|g| g.expect("filled")).collect();

    // Encoded index: bit j = OR of grant lines whose channel has bit j set.
    let idx_bits = usize::BITS as usize - (channels - 1).leading_zeros() as usize;
    for j in 0..idx_bits.max(1) {
        let leaves: Vec<NodeId> = grant
            .iter()
            .enumerate()
            .filter(|(i, _)| i >> j & 1 == 1)
            .map(|(_, &g)| g)
            .collect();
        let bit = if leaves.is_empty() {
            b.const0()
        } else {
            or_tree(&mut b, &leaves)
        };
        let out = b
            .gate(GateKind::Buf, format!("IDX{j}"), &[bit])
            .expect("valid fanin");
        b.mark_output(out);
    }
    let any = or_tree(&mut b, &masked);
    let any_named = b.gate(GateKind::Buf, "GRANT", &[any]).expect("valid fanin");
    b.mark_output(any_named);
    let par = xor_tree(&mut b, &masked);
    let par_named = b.gate(GateKind::Buf, "PAR", &[par]).expect("valid fanin");
    b.mark_output(par_named);
    wrt_circuit::simplify(&b.build().expect("generator produces valid circuits"))
}

/// C432 analogue: 27-channel controller (27 requests + 9 enables = 36
/// inputs, matching C432's interface width).
pub fn c432ish() -> Circuit {
    crate::comparator::rename(priority_interrupt(27), "c432ish")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(c: &Circuit, channels: usize, requests: u64, enables: u64) -> (Option<usize>, bool) {
        let groups = channels.div_ceil(3);
        let mut assignment: Vec<bool> = (0..channels).map(|i| (requests >> i) & 1 == 1).collect();
        assignment.extend((0..groups).map(|g| (enables >> g) & 1 == 1));
        let out = c.evaluate(&assignment);
        let idx_bits = usize::BITS as usize - (channels - 1).leading_zeros() as usize;
        let granted = out[idx_bits]; // GRANT follows the index bits
        if !granted {
            return (None, out[idx_bits + 1]);
        }
        let mut idx = 0usize;
        for (j, &bit) in out.iter().enumerate().take(idx_bits) {
            if bit {
                idx |= 1 << j;
            }
        }
        (Some(idx), out[idx_bits + 1])
    }

    #[test]
    fn highest_enabled_request_wins() {
        let channels = 9;
        let c = priority_interrupt(channels);
        // Requests on 2 and 7, all enabled: 7 wins.
        let (idx, _) = run(&c, channels, (1 << 2) | (1 << 7), 0b111);
        assert_eq!(idx, Some(7));
        // Disable 7's group (channels 6..8 = group 2): 2 wins.
        let (idx, _) = run(&c, channels, (1 << 2) | (1 << 7), 0b011);
        assert_eq!(idx, Some(2));
    }

    #[test]
    fn no_request_no_grant() {
        let channels = 9;
        let c = priority_interrupt(channels);
        let (idx, par) = run(&c, channels, 0, 0b111);
        assert_eq!(idx, None);
        assert!(!par);
    }

    #[test]
    fn parity_counts_masked_requests() {
        let channels = 9;
        let c = priority_interrupt(channels);
        let (_, par) = run(&c, channels, 0b000000111, 0b001); // 3 masked
        assert!(par);
        let (_, par) = run(&c, channels, 0b000000011, 0b001); // 2 masked
        assert!(!par);
    }

    #[test]
    fn c432ish_shape() {
        let c = c432ish();
        assert_eq!(c.num_inputs(), 36);
        assert!(c.num_outputs() >= 7);
        assert!(c.num_gates() > 100, "got {}", c.num_gates());
    }
}

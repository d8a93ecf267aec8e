//! SCOAP-seeded starting weights for the input-probability optimizer.
//!
//! The optimizer's default start is the equiprobable point (all weights
//! 0.5).  A better simulation-free start biases each primary input toward
//! the *non-controlling* values of the gates it drives: an `n`-input AND
//! toggles most under `p(1) = 2^{-1/n}` per input, an OR under the
//! complement, and XOR-dominated logic stays at 0.5.  Each sink's vote is
//! weighted by its width and by how hard it is to observe (SCOAP CO), so
//! buried wide gates — the classic random-pattern-resistant structures —
//! dominate the seed.

use wrt_circuit::{Circuit, GateKind};

use crate::scoap::{Scoap, SCOAP_INF};

/// Per-input starting weights (1-probabilities) derived from SCOAP
/// measures, in primary-input position order.
///
/// Weights are clamped to `[0.05, 0.95]`; inputs whose every sink is
/// unobservable (or that drive nothing) stay at 0.5.
///
/// # Example
///
/// ```
/// use wrt_circuit::parse_bench;
/// use wrt_analyze::{scoap_seed_weights, Scoap};
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench(
///     "INPUT(a)\nINPUT(b)\nINPUT(d)\nINPUT(e)\nOUTPUT(y)\ny = AND(a, b, d, e)\n",
/// )?;
/// let w = scoap_seed_weights(&c, &Scoap::compute(&c));
/// // Every input feeds a wide AND: biased well above 0.5.
/// assert!(w.iter().all(|&p| p > 0.7));
/// # Ok(())
/// # }
/// ```
pub fn scoap_seed_weights(circuit: &Circuit, scoap: &Scoap) -> Vec<f64> {
    let mut weights = vec![0.5f64; circuit.num_inputs()];
    for (id, node) in circuit.iter() {
        if node.kind() != GateKind::Input {
            continue;
        }
        let pos = circuit
            .input_position(id)
            .expect("input nodes have a position");
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for &sink in circuit.fanout(id) {
            let gate = circuit.node(sink);
            let width = gate.fanin().len();
            #[allow(clippy::cast_precision_loss)]
            let target = match gate.kind() {
                GateKind::And | GateKind::Nand => 0.5f64.powf(1.0 / width as f64),
                GateKind::Or | GateKind::Nor => 1.0 - 0.5f64.powf(1.0 / width as f64),
                _ => 0.5,
            };
            let co = scoap.co(sink);
            if co == SCOAP_INF {
                continue; // the sink can never be observed; no vote
            }
            // Wide gates need the stronger bias; deeply buried (high-CO)
            // sinks are where random-resistance lives, so they get more
            // say than near-output logic.
            #[allow(clippy::cast_precision_loss)]
            let influence = (width as f64 - 1.0).max(1.0) * (1.0 + f64::from(co.min(256)) / 32.0);
            num += target * influence;
            den += influence;
        }
        if den > 0.0 {
            weights[pos] = (num / den).clamp(0.05, 0.95);
        }
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    #[test]
    fn wide_and_pulls_weights_up_wide_nor_pulls_down() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(d)\nINPUT(e)\nOUTPUT(y)\nOUTPUT(z)\n\
             y = AND(a, b)\nz = NOR(d, e)\n",
        )
        .unwrap();
        let w = scoap_seed_weights(&c, &Scoap::compute(&c));
        // a, b feed the AND: p > 0.5; d, e feed the NOR: p < 0.5.
        assert!(w[0] > 0.5 && w[1] > 0.5, "{w:?}");
        assert!(w[2] < 0.5 && w[3] < 0.5, "{w:?}");
    }

    #[test]
    fn xor_only_inputs_stay_balanced() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
        let w = scoap_seed_weights(&c, &Scoap::compute(&c));
        assert_eq!(w, vec![0.5, 0.5]);
    }

    #[test]
    fn floating_input_defaults_to_half() {
        let c = parse_bench("INPUT(a)\nINPUT(unused)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let w = scoap_seed_weights(&c, &Scoap::compute(&c));
        let pos = c.input_position(c.node_id("unused").unwrap()).unwrap();
        assert_eq!(w[pos], 0.5);
    }

    #[test]
    fn weights_are_clamped_and_finite() {
        let mut src = String::from("OUTPUT(y)\n");
        let mut args = Vec::new();
        for i in 0..48 {
            src.push_str(&format!("INPUT(x{i})\n"));
            args.push(format!("x{i}"));
        }
        src.push_str(&format!("y = AND({})\n", args.join(", ")));
        let c = parse_bench(&src).unwrap();
        let w = scoap_seed_weights(&c, &Scoap::compute(&c));
        for &p in &w {
            assert!(p.is_finite());
            assert!((0.05..=0.95).contains(&p));
        }
        // 48-wide AND: the unclamped target 2^(-1/48) ≈ 0.9857 clamps to 0.95.
        assert!(w.iter().all(|&p| (p - 0.95).abs() < 1e-12), "{w:?}");
    }
}

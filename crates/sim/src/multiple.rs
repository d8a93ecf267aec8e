//! Multiple stuck-at fault simulation.
//!
//! The paper's introduction argues that random tests over-deliver on
//! faults *outside* the single-stuck-at model: "the detection rate of
//! logical faults not in the fault model, multiple faults for instance,
//! will be higher".  This module simulates arbitrary *sets* of stuck-at
//! faults injected simultaneously, so that claim can be measured
//! (`crates/bench --bin multiple`).

use wrt_circuit::{Circuit, GateKind};
use wrt_fault::{Fault, FaultSite};

use crate::logic::eval_gate_words;
use crate::patterns::PatternSource;
use crate::rng::Xoshiro256;

/// Bit-parallel simulation of a circuit with a *set* of stuck-at faults
/// injected simultaneously; returns the word of patterns that detect the
/// multiple fault (some primary output differs from fault-free).
///
/// Unlike single-fault PPSFP there is no cone locality (the union of
/// cones can be the whole circuit), so this runs a full faulty pass.
///
/// # Panics
///
/// Panics if `pi_words.len() != circuit.num_inputs()`.
pub fn detect_multiple(circuit: &Circuit, faults: &[Fault], pi_words: &[u64], mask: u64) -> u64 {
    assert_eq!(pi_words.len(), circuit.num_inputs());
    let n = circuit.num_nodes();
    let mut good = vec![0u64; n];
    let mut bad = vec![0u64; n];
    for (id, node) in circuit.iter() {
        let g = match node.kind() {
            GateKind::Input => pi_words[circuit.input_position(id).expect("pi")],
            kind => eval_gate_words(kind, node.fanin().iter().map(|f| good[f.index()])),
        };
        good[id.index()] = g;
        let mut b = match node.kind() {
            GateKind::Input => pi_words[circuit.input_position(id).expect("pi")],
            kind => {
                let words = node.fanin().iter().enumerate().map(|(pin, f)| {
                    let mut w = bad[f.index()];
                    for fault in faults {
                        if fault.site == (FaultSite::InputPin { gate: id, pin }) {
                            w = stuck_word(fault.stuck_value);
                        }
                    }
                    w
                });
                eval_gate_words(kind, words)
            }
        };
        for fault in faults {
            if fault.site == FaultSite::Output(id) {
                b = stuck_word(fault.stuck_value);
            }
        }
        bad[id.index()] = b;
    }
    circuit
        .outputs()
        .iter()
        .fold(0u64, |acc, &o| acc | (good[o.index()] ^ bad[o.index()]))
        & mask
}

fn stuck_word(value: bool) -> u64 {
    if value {
        u64::MAX
    } else {
        0
    }
}

/// Draws `count` random multiple faults of the given multiplicity from a
/// base fault slice (without replacement within each multiple).
pub fn random_multiples(
    base: &[Fault],
    multiplicity: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<Fault>> {
    assert!(multiplicity >= 1 && multiplicity <= base.len());
    let mut rng = Xoshiro256::seed_from(seed);
    (0..count)
        .map(|_| {
            let mut picked = Vec::with_capacity(multiplicity);
            while picked.len() < multiplicity {
                let k = (rng.next_u64() % base.len() as u64) as usize;
                if !picked.contains(&base[k]) {
                    picked.push(base[k]);
                }
            }
            picked
        })
        .collect()
}

/// Fraction of `multiples` detected within `num_patterns` patterns from
/// `source`.
pub fn multiple_fault_coverage(
    circuit: &Circuit,
    multiples: &[Vec<Fault>],
    mut source: impl PatternSource,
    num_patterns: u64,
) -> f64 {
    if multiples.is_empty() {
        return 1.0;
    }
    let mut caught = vec![false; multiples.len()];
    let mut done = 0u64;
    while done < num_patterns && caught.iter().any(|&c| !c) {
        let limit = (num_patterns - done).min(64) as u32;
        let block = source.next_block(limit);
        let mask = block.mask();
        for (k, multiple) in multiples.iter().enumerate() {
            if !caught[k] && detect_multiple(circuit, multiple, &block.words, mask) != 0 {
                caught[k] = true;
            }
        }
        done += u64::from(block.len);
    }
    caught.iter().filter(|&&c| c).count() as f64 / multiples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::ExhaustivePatterns;
    use wrt_circuit::parse_bench;
    use wrt_fault::FaultList;

    fn full_adder() -> Circuit {
        parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(cout)\n\
             x1 = XOR(a, b)\ns = XOR(x1, cin)\na1 = AND(a, b)\na2 = AND(x1, cin)\n\
             cout = OR(a1, a2)\n",
        )
        .unwrap()
    }

    #[test]
    fn single_fault_multiple_matches_ppsfp() {
        let c = full_adder();
        let faults = FaultList::full(&c);
        let mut sim = crate::FaultSimulator::new(&c, &faults);
        let mut src = ExhaustivePatterns::new(3);
        let block = src.next_block(8);
        let ppsfp = sim.detect_block(&block.words, block.mask());
        for (i, (_, fault)) in faults.iter().enumerate() {
            let multi = detect_multiple(&c, &[fault], &block.words, block.mask());
            assert_eq!(multi, ppsfp[i], "{}", fault.describe(&c));
        }
    }

    #[test]
    fn masking_pair_detected_by_neither_condition_alone() {
        // Two faults can mask each other on some patterns: the double of
        // (y s-a-0, y s-a-1) on the same line is just y s-a-1 (the later
        // injection wins in our ordering), but a pair on *different*
        // lines interacts genuinely.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
        let a = c.node_id("a").unwrap();
        let b = c.node_id("b").unwrap();
        // Both inputs stuck at 1: y = 0 always; detected whenever true
        // XOR(a,b) = 1, i.e. on half the patterns — even though each
        // single fault is detected on half the patterns too, the double
        // is *masked* exactly when both faults are excited (a=b=0).
        let double = vec![
            wrt_fault::Fault::output(a, true),
            wrt_fault::Fault::output(b, true),
        ];
        // patterns j0=(0,0) j1=(1,0) j2=(0,1) j3=(1,1)
        let det = detect_multiple(&c, &double, &[0b1010, 0b1100], 0b1111);
        assert_eq!(det, 0b0110, "detected exactly where true XOR = 1");
    }

    #[test]
    fn random_multiples_have_requested_shape() {
        let c = full_adder();
        let faults = FaultList::full(&c);
        let base: Vec<_> = faults.iter().map(|(_, f)| f).collect();
        let multiples = random_multiples(&base, 3, 10, 42);
        assert_eq!(multiples.len(), 10);
        for m in &multiples {
            assert_eq!(m.len(), 3);
            let mut dedup = m.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "no repeats inside a multiple");
        }
        // Deterministic per seed.
        assert_eq!(multiples, random_multiples(&base, 3, 10, 42));
    }

    #[test]
    fn multiple_coverage_on_the_full_adder_is_high() {
        let c = full_adder();
        let faults = FaultList::full(&c);
        let base: Vec<_> = faults.iter().map(|(_, f)| f).collect();
        let multiples = random_multiples(&base, 2, 40, 7);
        let coverage = multiple_fault_coverage(&c, &multiples, ExhaustivePatterns::new(3), 8);
        // Doubles are overwhelmingly detectable on an irredundant adder.
        assert!(coverage > 0.9, "coverage {coverage}");
    }
}

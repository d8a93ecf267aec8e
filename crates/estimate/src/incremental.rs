use wrt_circuit::Circuit;
use wrt_fault::FaultList;

use crate::engine::{CopEngine, DetectionProbabilityEngine};

/// Compatibility only, for the `perfbench/trace` replay helper: a
/// [`CopEngine`] counting one two-pass COP solution (`full_rebuilds`) of
/// `2 × num_nodes` evaluations per estimate; `stateless_estimates` stays 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalCop {
    pub node_evaluations: u64,
    pub full_rebuilds: u64,
    pub stateless_estimates: u64,
}

impl IncrementalCop {
    pub fn new() -> Self {
        IncrementalCop::default()
    }
    /// Has no effect.
    pub fn with_commit_batch(self, _batch: usize) -> Self {
        self
    }
    /// The work counters so far.
    pub fn stats(&self) -> Self {
        *self
    }
}

impl DetectionProbabilityEngine for IncrementalCop {
    fn estimate(&mut self, circuit: &Circuit, faults: &FaultList, input_probs: &[f64]) -> Vec<f64> {
        self.full_rebuilds += 1;
        self.node_evaluations += 2 * circuit.num_nodes() as u64;
        CopEngine::new().estimate(circuit, faults, input_probs)
    }
    fn name(&self) -> &'static str {
        "cop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn reconvergent() -> Circuit {
        parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
             m = NAND(a, b)\nn = NOR(b, c)\nx = XOR(m, n)\n\
             y = AND(x, a)\nz = OR(x, c)\n",
        )
        .unwrap()
    }

    #[test]
    fn estimate_is_bit_identical_to_full_cop() {
        let c = reconvergent();
        let faults = FaultList::full(&c);
        let w = [0.3, 0.6, 0.9];
        let full = CopEngine::new().estimate(&c, &faults, &w);
        let inc = IncrementalCop::new().estimate(&c, &faults, &w);
        assert_eq!(bits(&full), bits(&inc));
    }

    #[test]
    fn coordinate_pair_matches_full_recompute_everywhere() {
        let c = reconvergent();
        let faults = FaultList::full(&c);
        let w = [0.25, 0.5, 0.75];
        let mut inc = IncrementalCop::new();
        let mut full = CopEngine::new();
        for i in 0..3 {
            let (i0, i1) = inc.estimate_coordinate_pair(&c, &faults, &w, i);
            let (f0, f1) = full.estimate_coordinate_pair(&c, &faults, &w, i);
            assert_eq!(bits(&i0), bits(&f0), "coordinate {i}, x_i = 0");
            assert_eq!(bits(&i1), bits(&f1), "coordinate {i}, x_i = 1");
        }
    }

    #[test]
    fn boundary_weights_are_handled() {
        let c = reconvergent();
        let faults = FaultList::full(&c);
        let mut inc = IncrementalCop::new();
        let mut full = CopEngine::new();
        for w in [[0.0, 1.0, 0.5], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]] {
            for i in 0..3 {
                let got = inc.estimate_coordinate_pair(&c, &faults, &w, i);
                let expected = full.estimate_coordinate_pair(&c, &faults, &w, i);
                assert_eq!(bits(&got.0), bits(&expected.0), "w = {w:?}, i = {i}");
                assert_eq!(bits(&got.1), bits(&expected.1), "w = {w:?}, i = {i}");
            }
        }
    }

    #[test]
    fn equally_shaped_circuits_do_not_alias_the_cache() {
        // `parse_bench` names every circuit "bench", and these two share
        // node/input/output counts: answers must follow the circuit.
        let and = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let or = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n").unwrap();
        let w = [0.3, 0.7];
        let mut inc = IncrementalCop::new();
        let _ = inc.estimate(&and, &FaultList::full(&and), &w);
        let faults = FaultList::full(&or);
        let got = inc.estimate(&or, &faults, &w);
        let expected = CopEngine::new().estimate(&or, &faults, &w);
        assert_eq!(bits(&got), bits(&expected));
        let pair = inc.estimate_coordinate_pair(&or, &faults, &w, 0);
        let reference = CopEngine::new().estimate_coordinate_pair(&or, &faults, &w, 0);
        assert_eq!(bits(&pair.0), bits(&reference.0));
        assert_eq!(bits(&pair.1), bits(&reference.1));
    }

    #[test]
    fn circuit_switch_rebuilds_cleanly() {
        let c1 = reconvergent();
        let c2 = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n").unwrap();
        let f1 = FaultList::checkpoints(&c1);
        let f2 = FaultList::checkpoints(&c2);
        let mut inc = IncrementalCop::new();
        let _ = inc.estimate(&c1, &f1, &[0.5; 3]);
        let got = inc.estimate(&c2, &f2, &[0.3, 0.8]);
        let expected = CopEngine::new().estimate(&c2, &f2, &[0.3, 0.8]);
        assert_eq!(bits(&got), bits(&expected));
        // The counters the replay helper reads: one two-pass solution per
        // estimate.
        let stats = inc.stats();
        assert_eq!(stats.full_rebuilds, 2);
        let nodes = (c1.num_nodes() + c2.num_nodes()) as u64;
        assert_eq!(stats.node_evaluations, 2 * nodes);
    }

    #[test]
    fn dead_logic_keeps_zero_observability() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ndead = XOR(a, b)\ny = AND(a, b)\n")
            .unwrap();
        let faults = FaultList::full(&c);
        let mut inc = IncrementalCop::new();
        let mut full = CopEngine::new();
        let w = [0.4, 0.6];
        let got = inc.estimate_coordinate_pair(&c, &faults, &w, 1);
        let expected = full.estimate_coordinate_pair(&c, &faults, &w, 1);
        assert_eq!(bits(&got.0), bits(&expected.0));
        assert_eq!(bits(&got.1), bits(&expected.1));
    }
}

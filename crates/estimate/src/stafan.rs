//! STAFAN-style statistical testability counting \[AgJa84\].
//!
//! STAFAN ("statistical fault analysis") estimates controllabilities and
//! observabilities by *counting* signal values and one-level sensitization
//! events during fault-free simulation — no fault simulation needed.  Our
//! implementation counts on bit-parallel blocks from an arbitrary weighted
//! pattern source, then combines the counts into per-fault detection
//! probability estimates.

use wrt_circuit::{Circuit, GateKind, NodeId};
use wrt_fault::{Fault, FaultList};
use wrt_sim::{LogicSim, PatternSource};

use crate::cop::stem_observability;
use crate::engine::cop_fault_probability;

/// Controllability/observability statistics counted from a fault-free
/// simulation run.
#[derive(Debug, Clone)]
pub struct StafanCounts {
    num_patterns: u64,
    /// Count of patterns where the node was 1.
    ones: Vec<u64>,
    /// Fanin-CSR pin offsets copied from the circuit, so the pin-indexed
    /// accessors keep their `(gate, pin)` signatures without holding a
    /// circuit borrow: pin `p` of gate `g` is edge `pin_offsets[g] + p`.
    pin_offsets: Vec<u32>,
    /// Edge-indexed (see [`Self::pin_offsets`]): count of patterns where
    /// the pin was one-level sensitized (a change at the pin would flip
    /// the gate).
    sensitized: Vec<u64>,
    /// Estimated probability that a change at the node reaches a primary
    /// output (reverse-propagated).
    observability: Vec<f64>,
    /// Edge-indexed estimated branch observability.
    pin_observability: Vec<f64>,
}

impl StafanCounts {
    /// Simulates `num_patterns` patterns from `source` and accumulates all
    /// counts.
    ///
    /// `num_patterns == 0` is a defined degenerate case: no block is
    /// drawn and every counted rate — controllabilities, sensitizations,
    /// and therefore all detection probabilities — is exactly `0.0`
    /// ("no evidence"), never NaN.  The rate accessors divide through
    /// `counted_rate`, which guards the zero-sample division that used
    /// to produce `0/0 = NaN` here and let `clamp` silently forward it.
    ///
    /// # Panics
    ///
    /// Panics if the source width does not match the circuit, or if the
    /// source returns an empty block (a `PatternSource` contract
    /// violation that would otherwise loop forever).
    pub fn count(circuit: &Circuit, source: &mut dyn PatternSource, num_patterns: u64) -> Self {
        assert_eq!(source.num_inputs(), circuit.num_inputs());
        let n = circuit.num_nodes();
        let mut ones = vec![0u64; n];
        let pin_offsets: Vec<u32> = circuit
            .ids()
            .map(|id| circuit.fanin_offset(id) as u32)
            .collect();
        let mut sensitized = vec![0u64; circuit.num_edges()];
        let mut sim = LogicSim::new(circuit);
        let mut done = 0u64;
        while done < num_patterns {
            let limit = (num_patterns - done).min(64) as u32;
            let block = source.next_block(limit);
            assert!(block.len > 0, "pattern source returned an empty block");
            let mask = block.mask();
            sim.run(&block.words);
            for (id, node) in circuit.iter() {
                ones[id.index()] += u64::from((sim.value(id) & mask).count_ones());
                let fanin = node.fanin();
                let base = circuit.fanin_offset(id);
                for pin in 0..fanin.len() {
                    let sens = one_level_sensitization(&sim, node.kind(), fanin, pin);
                    sensitized[base + pin] += u64::from((sens & mask).count_ones());
                }
            }
            done += u64::from(block.len);
        }

        // Reverse pass: observabilities from counted sensitization rates.
        let mut observability = vec![0.0f64; n];
        let mut pin_observability = vec![0.0f64; circuit.num_edges()];
        for idx in (0..n).rev() {
            let id = NodeId::from_index(idx);
            let o = stem_observability(circuit, id, &|e| pin_observability[e]);
            observability[idx] = o;
            let base = circuit.fanin_offset(id);
            for pin in 0..circuit.fanin(id).len() {
                pin_observability[base + pin] =
                    o * counted_rate(sensitized[base + pin], num_patterns);
            }
        }

        StafanCounts {
            num_patterns,
            ones,
            pin_offsets,
            sensitized,
            observability,
            pin_observability,
        }
    }

    /// Edge index of pin `pin` of gate `gate` (see [`Self::pin_offsets`]).
    fn pin(&self, gate: NodeId, pin: usize) -> usize {
        self.pin_offsets[gate.index()] as usize + pin
    }

    /// Number of patterns the counts were taken over.
    pub fn num_patterns(&self) -> u64 {
        self.num_patterns
    }

    /// 1-controllability: counted fraction of patterns with the node at 1
    /// (`0.0` over an empty sample).
    pub fn controllability1(&self, id: NodeId) -> f64 {
        counted_rate(self.ones[id.index()], self.num_patterns)
    }

    /// Estimated observability of a node's output stem.
    pub fn observability(&self, id: NodeId) -> f64 {
        self.observability[id.index()]
    }

    /// Counted one-level sensitization rate of a gate input pin (`0.0`
    /// over an empty sample).
    pub fn sensitization(&self, gate: NodeId, pin: usize) -> f64 {
        counted_rate(self.sensitized[self.pin(gate, pin)], self.num_patterns)
    }

    /// Detection-probability estimate for one fault:
    /// `P(line at the opposite value) × observability(line)`, the COP
    /// detection model over the counted rates.
    ///
    /// NaN-free by construction: both factors come from
    /// `counted_rate`-guarded divisions and `1 − Π(1 − ·)` folds over
    /// them, so they are always finite values in `[0, 1]` and the model's
    /// clamp never sees (and thus never silently forwards) a NaN.
    pub fn detection_probability(&self, circuit: &Circuit, fault: Fault) -> f64 {
        cop_fault_probability(
            circuit,
            &fault,
            &|n: NodeId| self.controllability1(n),
            &|n: NodeId| self.observability[n.index()],
            &|e: usize| self.pin_observability[e],
        )
    }

    /// Detection-probability estimates for a whole fault list.
    pub fn detection_probabilities(&self, circuit: &Circuit, faults: &FaultList) -> Vec<f64> {
        faults
            .iter()
            .map(|(_, f)| self.detection_probability(circuit, f))
            .collect()
    }
}

/// A counted fraction `count / num_patterns`, defined as `0.0` over an
/// empty sample.
///
/// This is the single place STAFAN rates are divided out; routing
/// `controllability1`, `sensitization` and the reverse observability
/// pass through it makes every downstream estimate NaN-free by
/// construction (the old raw divisions produced `0/0 = NaN` for
/// zero-pattern counts, which `clamp(0.0, 1.0)` then forwarded
/// unchanged — `f64::clamp` keeps NaN).
fn counted_rate(count: u64, num_patterns: u64) -> f64 {
    if num_patterns == 0 {
        0.0
    } else {
        count as f64 / num_patterns as f64
    }
}

/// Bit-parallel one-level sensitization of `pin` at a gate: the word of
/// patterns in which flipping that pin would flip the gate output.
fn one_level_sensitization(
    sim: &LogicSim<'_>,
    kind: GateKind,
    fanin: &[NodeId],
    pin: usize,
) -> u64 {
    let others = fanin
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != pin)
        .map(|(_, f)| sim.value(*f));
    match kind {
        GateKind::And | GateKind::Nand => others.fold(u64::MAX, |acc, w| acc & w),
        GateKind::Or | GateKind::Nor => !others.fold(0u64, |acc, w| acc | w),
        GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buf => u64::MAX,
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;
    use wrt_sim::WeightedPatterns;

    #[test]
    fn controllability_matches_signal_probability() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let mut src = WeightedPatterns::equiprobable(2, 11);
        let counts = StafanCounts::count(&c, &mut src, 64 * 500);
        let y = c.node_id("y").unwrap();
        assert!((counts.controllability1(y) - 0.25).abs() < 0.02);
    }

    #[test]
    fn and_pin_sensitization_rate() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let mut src = WeightedPatterns::new(vec![0.5, 0.8], 3);
        let counts = StafanCounts::count(&c, &mut src, 64 * 500);
        let y = c.node_id("y").unwrap();
        // Pin 0 (a) is sensitized when b = 1: rate ≈ 0.8.
        assert!((counts.sensitization(y, 0) - 0.8).abs() < 0.02);
        assert!((counts.sensitization(y, 1) - 0.5).abs() < 0.02);
    }

    #[test]
    fn detection_estimates_close_to_exact_on_tree() {
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\nm = NAND(a, b)\ny = OR(m, d)\n")
                .unwrap();
        let probs = [0.5, 0.5, 0.5];
        let mut src = WeightedPatterns::new(probs.to_vec(), 7);
        let counts = StafanCounts::count(&c, &mut src, 64 * 1000);
        let faults = wrt_fault::FaultList::full(&c);
        for (_, fault) in faults.iter() {
            let exact = crate::exact_detection_probability(&c, fault, &probs, 10).expect("small");
            let est = counts.detection_probability(&c, fault);
            assert!(
                (est - exact).abs() < 0.08,
                "{}: est {est} vs exact {exact}",
                fault.describe(&c)
            );
        }
    }

    #[test]
    fn observability_of_po_is_one() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let mut src = WeightedPatterns::equiprobable(1, 1);
        let counts = StafanCounts::count(&c, &mut src, 64);
        assert_eq!(counts.observability(c.node_id("y").unwrap()), 1.0);
        assert_eq!(counts.observability(c.node_id("a").unwrap()), 1.0);
    }

    #[test]
    fn zero_pattern_counts_are_defined_and_nan_free() {
        // Regression: counting over zero blocks used to divide 0/0 into
        // NaN controllabilities/sensitizations, which clamp() silently
        // forwarded into the detection estimates.
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\nm = NAND(a, b)\ny = OR(m, d)\n")
                .unwrap();
        let mut src = WeightedPatterns::equiprobable(3, 5);
        let counts = StafanCounts::count(&c, &mut src, 0);
        assert_eq!(counts.num_patterns(), 0);
        for (id, node) in c.iter() {
            let c1 = counts.controllability1(id);
            assert_eq!(
                c1,
                0.0,
                "controllability of {} must be 0, not NaN",
                id.index()
            );
            for pin in 0..node.fanin().len() {
                let s = counts.sensitization(id, pin);
                assert_eq!(s, 0.0, "sensitization must be 0, not NaN");
            }
            assert!(counts.observability(id).is_finite());
        }
        for (_, fault) in wrt_fault::FaultList::full(&c).iter() {
            let p = counts.detection_probability(&c, fault);
            // Zero-controllability lines make s-a-1 activations exactly
            // 1 and s-a-0 activations exactly 0; either way the estimate
            // is a defined value in [0, 1], never NaN.
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "{}: estimate must be a defined probability, got {p}",
                fault.describe(&c)
            );
        }
    }

    #[test]
    fn stafan_engine_with_zero_patterns_is_defined() {
        use crate::{DetectionProbabilityEngine, StafanEngine};
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let faults = wrt_fault::FaultList::full(&c);
        let est = StafanEngine::new(0, 7).estimate(&c, &faults, &[0.5, 0.5]);
        assert!(est.iter().all(|p| p.is_finite() && (0.0..=1.0).contains(p)));
    }

    #[test]
    fn never_toggling_node_rates_stay_finite() {
        // Input `a` pinned to probability 0.0 never toggles: its
        // controllability is exactly 0 and everything derived from it
        // (including the s-a-0 estimate, activation 0) stays finite.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let mut src = WeightedPatterns::new(vec![0.0, 0.5], 9);
        let counts = StafanCounts::count(&c, &mut src, 64 * 8);
        let a = c.node_id("a").unwrap();
        let y = c.node_id("y").unwrap();
        assert_eq!(counts.controllability1(a), 0.0);
        assert_eq!(counts.controllability1(y), 0.0);
        for (_, fault) in wrt_fault::FaultList::full(&c).iter() {
            let p = counts.detection_probability(&c, fault);
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "{}: p = {p}",
                fault.describe(&c)
            );
        }
    }
}

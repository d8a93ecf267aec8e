//! The cutting algorithm: guaranteed signal-probability bounds \[BDS84\].
//!
//! Reconvergent fanout makes exact signal probabilities NP-hard; Savir's
//! cutting algorithm restores tractability by *cutting* fanout branches —
//! replacing the signal on a cut branch with the full interval `[0, 1]` —
//! and propagating intervals instead of point probabilities.  The result
//! is a sound enclosure: the exact probability always lies inside the
//! returned interval (property-tested against exhaustive enumeration).

use wrt_circuit::{Circuit, GateKind};

/// A closed probability interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl ProbabilityInterval {
    /// The degenerate interval `[p, p]`.
    pub fn exact(p: f64) -> Self {
        ProbabilityInterval { lo: p, hi: p }
    }

    /// The full interval `[0, 1]` (a cut signal).
    pub fn unknown() -> Self {
        ProbabilityInterval { lo: 0.0, hi: 1.0 }
    }

    /// Whether `p` lies inside the interval (with a small tolerance).
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lo - 1e-9 && p <= self.hi + 1e-9
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    fn complement(self) -> Self {
        ProbabilityInterval {
            lo: 1.0 - self.hi,
            hi: 1.0 - self.lo,
        }
    }
}

/// Result of the cutting algorithm over one circuit.
#[derive(Debug, Clone)]
pub struct CuttingBounds {
    intervals: Vec<ProbabilityInterval>,
}

impl CuttingBounds {
    /// The bound interval for a node.
    pub fn interval(&self, id: wrt_circuit::NodeId) -> ProbabilityInterval {
        self.intervals[id.index()]
    }

    /// All intervals, indexable by node index.
    pub fn as_slice(&self) -> &[ProbabilityInterval] {
        &self.intervals
    }
}

/// Runs the cutting algorithm.
///
/// Every branch of every multi-fanout stem is cut to `[0, 1]`.  The kept
/// connections then form a forest whose leaves (fanout-free primary
/// inputs and cut lines) are mutually independent — fanout-free inputs
/// have their *only* use inside one tree, so no cut line can depend on
/// them — which makes corner-evaluation interval propagation sound for
/// all gate types including XOR.  (Keeping one branch per stem, a common
/// "optimization", is *unsound* under XOR reconvergence: conditioning on
/// the cut value changes the kept branch's distribution.)
///
/// # Panics
///
/// Panics if `input_probs.len() != circuit.num_inputs()`.
pub fn signal_probability_bounds(circuit: &Circuit, input_probs: &[f64]) -> CuttingBounds {
    assert_eq!(
        input_probs.len(),
        circuit.num_inputs(),
        "one probability per primary input"
    );
    let mut intervals = vec![ProbabilityInterval::unknown(); circuit.num_nodes()];
    for (id, node) in circuit.iter() {
        let interval = match node.kind() {
            GateKind::Input => {
                ProbabilityInterval::exact(input_probs[circuit.input_position(id).expect("pi")])
            }
            GateKind::Const0 => ProbabilityInterval::exact(0.0),
            GateKind::Const1 => ProbabilityInterval::exact(1.0),
            kind => {
                let fanin_intervals: Vec<ProbabilityInterval> = node
                    .fanin()
                    .iter()
                    .map(|&f| {
                        if circuit.fanout(f).len() <= 1 {
                            intervals[f.index()]
                        } else {
                            ProbabilityInterval::unknown()
                        }
                    })
                    .collect();
                eval_interval(kind, &fanin_intervals)
            }
        };
        intervals[id.index()] = interval;
    }
    CuttingBounds { intervals }
}

fn eval_interval(kind: GateKind, fanin: &[ProbabilityInterval]) -> ProbabilityInterval {
    match kind {
        GateKind::And => and_interval(fanin),
        GateKind::Nand => and_interval(fanin).complement(),
        GateKind::Or => or_interval(fanin),
        GateKind::Nor => or_interval(fanin).complement(),
        GateKind::Xor => xor_interval(fanin),
        GateKind::Xnor => xor_interval(fanin).complement(),
        GateKind::Not => fanin[0].complement(),
        GateKind::Buf => fanin[0],
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => {
            unreachable!("sources handled by caller")
        }
    }
}

fn and_interval(fanin: &[ProbabilityInterval]) -> ProbabilityInterval {
    ProbabilityInterval {
        lo: fanin.iter().map(|i| i.lo).product(),
        hi: fanin.iter().map(|i| i.hi).product(),
    }
}

fn or_interval(fanin: &[ProbabilityInterval]) -> ProbabilityInterval {
    ProbabilityInterval {
        lo: 1.0 - fanin.iter().map(|i| 1.0 - i.lo).product::<f64>(),
        hi: 1.0 - fanin.iter().map(|i| 1.0 - i.hi).product::<f64>(),
    }
}

/// XOR probability `(1 − Π(1 − 2 p_k)) / 2` is multilinear, hence its
/// extrema over a box are attained at corners of the factor product.
fn xor_interval(fanin: &[ProbabilityInterval]) -> ProbabilityInterval {
    // Track the interval of Π (1 - 2 p_k) incrementally.
    let mut lo = 1.0f64;
    let mut hi = 1.0f64;
    for i in fanin {
        let a = 1.0 - 2.0 * i.lo; // the larger factor endpoint
        let b = 1.0 - 2.0 * i.hi;
        let candidates = [lo * a, lo * b, hi * a, hi * b];
        lo = candidates.iter().copied().fold(f64::INFINITY, f64::min);
        hi = candidates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    }
    ProbabilityInterval {
        lo: (1.0 - hi) / 2.0,
        hi: (1.0 - lo) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_signal_probability;
    use wrt_circuit::parse_bench;

    #[test]
    fn tree_circuit_bounds_are_tight() {
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\nm = NAND(a, b)\ny = OR(m, d)\n")
                .unwrap();
        let bounds = signal_probability_bounds(&c, &[0.5, 0.5, 0.5]);
        let y = c.node_id("y").unwrap();
        let exact = exact_signal_probability(&c, y, &[0.5, 0.5, 0.5], 10).unwrap();
        let iv = bounds.interval(y);
        assert!(
            iv.width() < 1e-12,
            "no fanout, no cut: width {}",
            iv.width()
        );
        assert!(iv.contains(exact));
    }

    #[test]
    fn reconvergent_bounds_contain_exact() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let bounds = signal_probability_bounds(&c, &[0.5]);
        let exact = exact_signal_probability(&c, y, &[0.5], 10).unwrap();
        assert!(bounds.interval(y).contains(exact));
    }

    #[test]
    fn xor_interval_corners() {
        // XOR over [0,1] x exact(0.5) must be [0.5, 0.5] (XOR with a fair
        // bit is fair regardless of the other input).
        let iv = xor_interval(&[
            ProbabilityInterval::unknown(),
            ProbabilityInterval::exact(0.5),
        ]);
        assert!((iv.lo - 0.5).abs() < 1e-12);
        assert!((iv.hi - 0.5).abs() < 1e-12);
        // XOR over [0,1] x exact(0): full interval.
        let iv = xor_interval(&[
            ProbabilityInterval::unknown(),
            ProbabilityInterval::exact(0.0),
        ]);
        assert!((iv.lo - 0.0).abs() < 1e-12);
        assert!((iv.hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intervals_are_valid_probability_ranges() {
        let c = wrt_circuit::parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nm = XOR(a, b)\n\
             y = AND(m, a)\nz = NOR(m, b)\n",
        )
        .unwrap();
        let bounds = signal_probability_bounds(&c, &[0.3, 0.8]);
        for iv in bounds.as_slice() {
            assert!(iv.lo >= -1e-12 && iv.hi <= 1.0 + 1e-12 && iv.lo <= iv.hi + 1e-12);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::exact::exact_signal_probability;
    use proptest::prelude::*;
    use wrt_circuit::{Circuit, CircuitBuilder, GateKind};

    fn arb_circuit() -> impl Strategy<Value = Circuit> {
        let kinds = prop::sample::select(vec![
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
        ]);
        proptest::collection::vec((kinds, proptest::collection::vec(0usize..64, 1..3)), 3..15)
            .prop_map(|specs| {
                let mut b = CircuitBuilder::named("rand");
                let mut ids = Vec::new();
                for i in 0..5 {
                    ids.push(b.input(format!("i{i}")));
                }
                for (kind, picks) in specs {
                    let fanin: Vec<_> = if kind == GateKind::Not {
                        vec![ids[picks[0] % ids.len()]]
                    } else {
                        picks.iter().map(|&p| ids[p % ids.len()]).collect()
                    };
                    ids.push(b.gate_auto(kind, &fanin).expect("valid"));
                }
                b.mark_output(*ids.last().expect("non-empty"));
                b.build().expect("valid circuit")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn cutting_bounds_always_contain_exact_probability(
            circuit in arb_circuit(),
            probs in proptest::collection::vec(0.0f64..=1.0, 5),
        ) {
            let bounds = signal_probability_bounds(&circuit, &probs);
            for (id, _) in circuit.iter() {
                let exact = exact_signal_probability(&circuit, id, &probs, 10)
                    .expect("small support");
                prop_assert!(
                    bounds.interval(id).contains(exact),
                    "node {id}: exact {exact} outside [{}, {}]",
                    bounds.interval(id).lo,
                    bounds.interval(id).hi
                );
            }
        }
    }
}

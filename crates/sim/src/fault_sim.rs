//! Parallel-pattern single-fault-propagation (PPSFP) fault simulation.
//!
//! For every 64-pattern block the fault-free circuit is simulated once;
//! each fault is then injected individually and only its output cone is
//! re-evaluated.  A fault is detected in pattern *j* when some primary
//! output differs from the fault-free value in bit *j*.

use wrt_circuit::{transitive_fanout, Circuit, GateKind, NodeId};
use wrt_fault::{Fault, FaultList};

use crate::coverage::CoverageResult;
use crate::event::SimStats;
use crate::logic::{eval_gate_words, LogicSim};
use crate::patterns::PatternSource;

/// PPSFP fault simulator over a fixed circuit and fault list.
///
/// The simulator owns per-fault cone data (computed once) and scratch
/// buffers, so blocks can be streamed through it cheaply.
///
/// # Example
///
/// ```
/// use wrt_circuit::parse_bench;
/// use wrt_fault::FaultList;
/// use wrt_sim::{FaultSimulator, WeightedPatterns, PatternSource};
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n")?;
/// let faults = FaultList::checkpoints(&c);
/// let mut sim = FaultSimulator::new(&c, &faults);
/// let mut src = WeightedPatterns::equiprobable(2, 3);
/// let block = src.next_block(64);
/// let detected = sim.detect_block(&block.words, block.mask());
/// assert_eq!(detected.len(), faults.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FaultSimulator<'c> {
    circuit: &'c Circuit,
    faults: Vec<Fault>,
    /// Per fault: index into `cones` (shared across faults with the same
    /// effect root — both polarities, stem + pin faults — which keeps the
    /// memory footprint proportional to distinct roots, not fault count).
    cone_slot: Vec<usize>,
    /// Per slot: the effect root's output cone (topologically sorted) and
    /// the primary outputs inside it.
    cones: Vec<(Vec<NodeId>, Vec<NodeId>)>,
    good: LogicSim<'c>,
    /// Scratch: faulty value per node, valid when `touched == epoch`.
    faulty: Vec<u64>,
    touched: Vec<u32>,
    epoch: u32,
    stats: SimStats,
}

impl<'c> FaultSimulator<'c> {
    /// Builds a simulator for `circuit` and `faults`.
    pub fn new(circuit: &'c Circuit, faults: &FaultList) -> Self {
        let mut cone_slot = Vec::with_capacity(faults.len());
        let mut cache: std::collections::HashMap<NodeId, usize> =
            std::collections::HashMap::new();
        let mut cones: Vec<(Vec<NodeId>, Vec<NodeId>)> = Vec::new();
        for (_, f) in faults.iter() {
            let root = f.site.effect_root();
            let slot = *cache.entry(root).or_insert_with(|| {
                let cone = transitive_fanout(circuit, &[root]);
                let outs = cone
                    .iter()
                    .copied()
                    .filter(|&n| circuit.is_output(n))
                    .collect();
                cones.push((cone, outs));
                cones.len() - 1
            });
            cone_slot.push(slot);
        }
        FaultSimulator {
            circuit,
            faults: faults.iter().map(|(_, f)| f).collect(),
            cone_slot,
            cones,
            good: LogicSim::new(circuit),
            faulty: vec![0; circuit.num_nodes()],
            touched: vec![0; circuit.num_nodes()],
            epoch: 0,
            stats: SimStats::default(),
        }
    }

    /// Number of faults under simulation.
    pub fn num_faults(&self) -> usize {
        self.faults.len()
    }

    /// Number of distinct `(cone, cone_outputs)` entries actually stored:
    /// faults sharing an effect root (both polarities, stem + pin faults
    /// of one gate) share a single slot, so this is the number of distinct
    /// effect roots — usually far below [`FaultSimulator::num_faults`].
    pub fn num_distinct_cones(&self) -> usize {
        self.cones.len()
    }

    /// Work counters accumulated since construction (or the last
    /// [`FaultSimulator::reset_stats`]).  `node_evals` counts one
    /// evaluation per cone node per excited `(fault, block)` pair — the
    /// dense cost the event engine's sparse frontier undercuts.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Clears the accumulated work counters.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// The fault-free simulator state from the most recent block.
    pub fn good_sim(&self) -> &LogicSim<'c> {
        &self.good
    }

    /// Simulates one block fault-free and returns, for every fault, the
    /// word of patterns that detect it (bit *j* set = pattern *j* detects).
    ///
    /// Allocates the result vector; streaming callers should prefer
    /// [`FaultSimulator::detect_block_into`] with a reused buffer.
    pub fn detect_block(&mut self, pi_words: &[u64], mask: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.detect_block_into(pi_words, mask, &mut out);
        out
    }

    /// Like [`FaultSimulator::detect_block`] but writes the per-fault
    /// detection words into a caller-provided buffer (cleared and refilled),
    /// so block-streaming loops perform no per-block allocation.
    pub fn detect_block_into(&mut self, pi_words: &[u64], mask: u64, out: &mut Vec<u64>) {
        self.good.run(pi_words);
        out.clear();
        out.reserve(self.faults.len());
        for i in 0..self.faults.len() {
            let w = self.detect_fault_in_block(i, mask);
            out.push(w);
        }
    }

    /// Simulates one block fault-free, then visits exactly the faults in
    /// `worklist`, invoking `on_detect(fault_index, detection_word)` for
    /// every fault the block detects.
    ///
    /// With `drop = true`, detected faults are swap-removed from the
    /// worklist so later blocks never touch them again — the compacted
    /// replacement for scanning an `active: Vec<bool>` of full fault-list
    /// length on every block.
    pub fn detect_block_worklist(
        &mut self,
        pi_words: &[u64],
        mask: u64,
        worklist: &mut FaultWorklist,
        drop: bool,
        on_detect: impl FnMut(usize, u64),
    ) {
        self.good.run(pi_words);
        worklist.visit(drop, 0, |i| self.detect_fault_in_block(i, mask), on_detect);
    }

    /// Detection word for fault index `i` against the current fault-free
    /// state (callers must have run a block first).
    fn detect_fault_in_block(&mut self, i: usize, mask: u64) -> u64 {
        let fault = self.faults[i];
        self.stats.fault_blocks += 1;
        let stuck = if fault.stuck_value { u64::MAX } else { 0 };
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: reset stamps.
            self.touched.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let root = fault.site.effect_root();

        // Inject at the root (the same shared helper the event engine
        // uses, at W = 1).
        let root_value =
            crate::event::inject_root_lanes::<1>(self.circuit, fault, [stuck], |f| {
                [self.good.value(f)]
            })[0];
        if root_value == self.good.value(root) {
            // Fault not excited anywhere in this block.
            self.stats.unexcited += 1;
            return 0;
        }
        self.faulty[root.index()] = root_value;
        self.touched[root.index()] = epoch;

        // Propagate through the cone (already topologically sorted).
        let (cone, cone_outputs) = &self.cones[self.cone_slot[i]];
        self.stats.node_evals += (cone.len() - 1) as u64;
        self.stats.root_propagations += 1;
        for &n in cone {
            if n == root {
                continue;
            }
            let node = self.circuit.node(n);
            debug_assert!(node.kind() != GateKind::Input || self.circuit.is_output(n));
            let words = node.fanin().iter().map(|f| {
                if self.touched[f.index()] == epoch {
                    self.faulty[f.index()]
                } else {
                    self.good.value(*f)
                }
            });
            let w = eval_gate_words(node.kind(), words);
            if w != self.good.value(n) {
                self.faulty[n.index()] = w;
                self.touched[n.index()] = epoch;
            }
        }

        // Compare primary outputs inside the cone.
        let mut diff = 0u64;
        let mut output_touched = false;
        for &o in cone_outputs {
            if self.touched[o.index()] == epoch {
                diff |= self.faulty[o.index()] ^ self.good.value(o);
                output_touched = true;
            }
        }
        if !output_touched {
            self.stats.frontier_deaths += 1;
        }
        let masked = diff & mask;
        if masked != 0 {
            self.stats.detected_blocks += 1;
        }
        masked
    }
}

/// A compacted worklist of still-active fault indices.
///
/// The worklist holds the *indices* (into a [`FaultSimulator`]'s fault
/// list) of faults that still need simulation.  Dropping a fault is an
/// `O(1)` swap-remove, so a block late in a dropping run costs time
/// proportional to the number of *undetected* faults — not, as with an
/// `active: Vec<bool>` scan, to the full fault-list length.
///
/// Iteration order changes as faults are dropped; detection results do
/// not depend on it (every remaining fault is visited each block).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultWorklist {
    indices: Vec<u32>,
}

impl FaultWorklist {
    /// A worklist containing every fault index in `0..num_faults`.
    pub fn full(num_faults: usize) -> Self {
        FaultWorklist {
            indices: (0..u32::try_from(num_faults).expect("fault count fits in u32")).collect(),
        }
    }

    /// A worklist of the indices whose `active` flag is set.
    pub fn from_active(active: &[bool]) -> Self {
        let indices = active.iter().enumerate().filter(|&(_, &a)| a);
        FaultWorklist {
            indices: indices.map(|(i, _)| i as u32).collect(),
        }
    }

    /// Number of faults still active.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether every fault has been dropped.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The remaining fault indices, in current (unspecified) order.
    pub fn as_slice(&self) -> &[u32] {
        &self.indices
    }

    /// Visits every remaining fault: `detect(i)` produces the detection
    /// value for fault `i`; when it differs from `zero`, `on_detect(i, w)`
    /// fires and, with `drop = true`, the fault is swap-removed so the
    /// swapped-in fault is visited next.
    ///
    /// This is the one copy of the dropping iteration protocol, shared by
    /// the dense and event engines (the detection value is a `u64` block
    /// word or a `[u64; W]` superblock lane array respectively).
    pub(crate) fn visit<D: Copy + PartialEq>(
        &mut self,
        drop: bool,
        zero: D,
        mut detect: impl FnMut(usize) -> D,
        mut on_detect: impl FnMut(usize, D),
    ) {
        let mut k = 0;
        while k < self.indices.len() {
            let i = self.indices[k] as usize;
            let w = detect(i);
            if w != zero {
                on_detect(i, w);
                if drop {
                    self.indices.swap_remove(k);
                    continue; // the swapped-in fault is visited next
                }
            }
            k += 1;
        }
    }
}

/// Runs `num_patterns` patterns from `source` against `faults` and records
/// first-detection indices and the coverage curve: the serial dense
/// oracle that [`crate::fault_coverage_robust`] is tested against.
///
/// With `drop = true` a fault is no longer simulated after its first
/// detection (standard fault dropping; much faster, same coverage result).
/// Dropped faults are swap-removed from a compacted [`FaultWorklist`], so
/// late blocks only pay for the still-undetected remainder; once the
/// worklist drains the remaining blocks are skipped entirely.
pub fn fault_coverage(
    circuit: &Circuit,
    faults: &FaultList,
    mut source: impl PatternSource,
    num_patterns: u64,
    drop: bool,
) -> CoverageResult {
    let mut sim = FaultSimulator::new(circuit, faults);
    let mut detected_at: Vec<Option<u64>> = vec![None; faults.len()];
    let mut worklist = FaultWorklist::full(faults.len());
    let mut done = 0u64;
    while done < num_patterns && !(drop && worklist.is_empty()) {
        let limit = (num_patterns - done).min(64) as u32;
        let block = source.next_block(limit);
        let mask = block.mask();
        sim.detect_block_worklist(&block.words, mask, &mut worklist, drop, |i, w| {
            if detected_at[i].is_none() {
                detected_at[i] = Some(done + u64::from(w.trailing_zeros()));
            }
        });
        done += u64::from(block.len);
    }
    CoverageResult::new(detected_at, num_patterns)
}

/// Counts, for every fault, how many of `num_patterns` patterns detect it
/// (no dropping): the serial dense oracle of
/// [`crate::detection_counts_robust`].  `counts[f] / num_patterns` is the Monte-Carlo estimate
/// of the detection probability `p_f(X)` for the source's distribution `X`.
///
/// Runs over a persistent full [`FaultWorklist`] instead of the allocating
/// [`FaultSimulator::detect_block`], so the streaming loop performs no
/// per-block allocation.
pub fn detection_counts(
    circuit: &Circuit,
    faults: &FaultList,
    mut source: impl PatternSource,
    num_patterns: u64,
) -> Vec<u64> {
    let mut sim = FaultSimulator::new(circuit, faults);
    let mut counts = vec![0u64; faults.len()];
    let mut worklist = FaultWorklist::full(faults.len());
    let mut done = 0u64;
    while done < num_patterns {
        let limit = (num_patterns - done).min(64) as u32;
        let block = source.next_block(limit);
        sim.detect_block_worklist(&block.words, block.mask(), &mut worklist, false, |i, w| {
            counts[i] += u64::from(w.count_ones());
        });
        done += u64::from(block.len);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{ExhaustivePatterns, WeightedPatterns};
    use wrt_circuit::parse_bench;
    use wrt_fault::Fault;

    fn and_circuit() -> Circuit {
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap()
    }

    #[test]
    fn and_gate_detection_conditions() {
        let c = and_circuit();
        let y = c.node_id("y").unwrap();
        let a = c.node_id("a").unwrap();
        let faults = FaultList::from_faults(vec![
            Fault::output(y, false), // detected by (1,1)
            Fault::output(y, true),  // detected by any pattern with y=0
            Fault::output(a, true),  // detected by (0,1)
        ]);
        let mut sim = FaultSimulator::new(&c, &faults);
        // patterns j: j0=(0,0), j1=(1,0), j2=(0,1), j3=(1,1)
        let words = vec![0b1010, 0b1100];
        let det = sim.detect_block(&words, 0b1111);
        assert_eq!(det[0], 0b1000); // only (1,1)
        assert_eq!(det[1], 0b0111); // all with y=0
        assert_eq!(det[2], 0b0100); // only (0,1)
    }

    #[test]
    fn pin_fault_vs_stem_fault_at_fanout() {
        // a fans out to AND and OR; a-pin s-a-1 at the AND only affects y.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(a, b)\n",
        )
        .unwrap();
        let yid = c.node_id("y").unwrap();
        let a = c.node_id("a").unwrap();
        let faults = FaultList::from_faults(vec![
            Fault::input_pin(yid, 0, true),
            Fault::output(a, true),
        ]);
        let mut sim = FaultSimulator::new(&c, &faults);
        // pattern (a,b) = (0,0): pin fault makes y=0 still (b=0) -> undetected;
        // stem fault makes z=1 -> detected at z.
        let det = sim.detect_block(&[0b0, 0b0], 0b1);
        assert_eq!(det[0], 0);
        assert_eq!(det[1], 1);
        // pattern (0,1): pin fault y: faulty AND(1,1)=1 vs good 0 -> detected.
        let det = sim.detect_block(&[0b0, 0b1], 0b1);
        assert_eq!(det[0], 1);
    }

    #[test]
    fn exhaustive_coverage_of_irredundant_circuit_is_complete() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(cout)\n\
             x1 = XOR(a, b)\ns = XOR(x1, cin)\na1 = AND(a, b)\na2 = AND(x1, cin)\n\
             cout = OR(a1, a2)\n",
        )
        .unwrap();
        let faults = FaultList::full(&c);
        let res = fault_coverage(&c, &faults, ExhaustivePatterns::new(3), 8, false);
        assert_eq!(res.num_detected(), faults.len(), "full adder is irredundant");
        assert_eq!(res.coverage(), 1.0);
    }

    #[test]
    fn redundant_fault_never_detected() {
        // y = OR(a, NOT(a)) == 1 always; y s-a-1 is redundant.
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let faults = FaultList::from_faults(vec![Fault::output(y, true), Fault::output(y, false)]);
        let res = fault_coverage(&c, &faults, ExhaustivePatterns::new(1), 2, false);
        assert_eq!(res.detected_at()[0], None); // s-a-1 redundant
        assert!(res.detected_at()[1].is_some()); // s-a-0 trivially detected
    }

    #[test]
    fn dropping_matches_non_dropping_coverage() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nm = NAND(a, b)\nn = NOR(b, c)\ny = XOR(m, n)\n",
        )
        .unwrap();
        let faults = FaultList::full(&c);
        let r1 = fault_coverage(&c, &faults, WeightedPatterns::equiprobable(3, 5), 256, true);
        let r2 = fault_coverage(&c, &faults, WeightedPatterns::equiprobable(3, 5), 256, false);
        assert_eq!(r1.detected_at(), r2.detected_at());
    }

    #[test]
    fn detection_counts_match_exact_probabilities() {
        // y = AND(a,b): p(y s-a-0 detected) = P(a=1)P(b=1) = 1/4 under
        // equiprobable patterns.
        let c = and_circuit();
        let y = c.node_id("y").unwrap();
        let faults = FaultList::from_faults(vec![Fault::output(y, false)]);
        let n = 64 * 400;
        let counts = detection_counts(
            &c,
            &faults,
            WeightedPatterns::equiprobable(2, 17),
            n,
        );
        let p = counts[0] as f64 / n as f64;
        assert!((p - 0.25).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn faults_sharing_an_effect_root_share_one_cone_slot() {
        // High-fanin gate: 8 inputs all feeding one AND.  The full fault
        // list has 2 stem + 16 pin faults on the AND — 18 faults whose
        // effect root is the gate — plus 16 PI stem faults.  Only 9
        // distinct roots exist, so only 9 cones may be stored.
        let mut src = String::from("OUTPUT(y)\n");
        let mut args = Vec::new();
        for i in 0..8 {
            src.push_str(&format!("INPUT(x{i})\n"));
            args.push(format!("x{i}"));
        }
        src.push_str(&format!("y = AND({})\n", args.join(", ")));
        let c = parse_bench(&src).unwrap();
        let faults = FaultList::full(&c);
        assert_eq!(faults.len(), 8 * 2 + 2 + 8 * 2);
        let sim = FaultSimulator::new(&c, &faults);
        assert_eq!(sim.num_distinct_cones(), 9, "one cone per effect root");
        assert!(sim.num_distinct_cones() < sim.num_faults());
    }

    #[test]
    fn filtered_and_into_variants_match_detect_block() {
        let c = and_circuit();
        let faults = FaultList::full(&c);
        let mut sim = FaultSimulator::new(&c, &faults);
        let words = vec![0b1010, 0b1100];
        let all = sim.detect_block(&words, 0b1111);
        let mut buf = Vec::new();
        sim.detect_block_into(&words, 0b1111, &mut buf);
        assert_eq!(all, buf);
        // Filtered through a worklist of every other fault: only active
        // faults are visited, each with its unfiltered detection word.
        let active: Vec<bool> = (0..faults.len()).map(|i| i % 2 == 0).collect();
        let mut worklist = FaultWorklist::from_active(&active);
        let mut filtered = vec![0; faults.len()];
        sim.detect_block_worklist(&words, 0b1111, &mut worklist, false, |i, w| filtered[i] = w);
        for (i, (&f, &a)) in filtered.iter().zip(&all).enumerate() {
            assert_eq!(f, if active[i] { a } else { 0 }, "fault {i}");
        }
        assert_eq!(worklist.len(), faults.len().div_ceil(2));
    }

    #[test]
    fn dense_stats_track_cone_work() {
        let c = and_circuit();
        let y = c.node_id("y").unwrap();
        let faults = FaultList::from_faults(vec![Fault::output(y, false)]);
        let mut sim = FaultSimulator::new(&c, &faults);
        // (1,1) in one pattern: excited and detected.
        let _ = sim.detect_block(&[0b1, 0b1], 0b1);
        let stats = sim.stats();
        assert_eq!(stats.fault_blocks, 1);
        assert_eq!(stats.unexcited, 0);
        assert_eq!(stats.detected_blocks, 1);
        sim.reset_stats();
        assert_eq!(sim.stats(), crate::SimStats::default());
    }

    #[test]
    fn unexcited_fault_short_circuit() {
        // Fault value equals good value everywhere in block -> no detection
        // and the early-exit path is taken (covered implicitly).
        let c = and_circuit();
        let a = c.node_id("a").unwrap();
        let faults = FaultList::from_faults(vec![Fault::output(a, true)]);
        let mut sim = FaultSimulator::new(&c, &faults);
        // a already 1 in every pattern: fault unexcited.
        let det = sim.detect_block(&[u64::MAX, 0], u64::MAX);
        assert_eq!(det[0], 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::logic::simulate_pattern;
    use crate::patterns::ExhaustivePatterns;
    use crate::test_support::arb_circuit;
    use proptest::prelude::*;
    use wrt_fault::FaultSite;

    /// Scalar reference fault simulation: inject the fault into a copy of
    /// the evaluation and compare outputs, bit by bit.
    fn scalar_detects(circuit: &Circuit, fault: Fault, assignment: &[bool]) -> bool {
        let good = simulate_pattern(circuit, assignment);
        // Faulty evaluation.
        let mut values = vec![false; circuit.num_nodes()];
        let mut buf = Vec::new();
        for (id, node) in circuit.iter() {
            let mut v = match node.kind() {
                GateKind::Input => assignment[circuit.input_position(id).expect("pi")],
                kind => {
                    buf.clear();
                    for (pin, f) in node.fanin().iter().enumerate() {
                        let mut fv = values[f.index()];
                        if let FaultSite::InputPin { gate, pin: fp } = fault.site {
                            if gate == id && fp == pin {
                                fv = fault.stuck_value;
                            }
                        }
                        buf.push(fv);
                    }
                    kind.eval(&buf)
                }
            };
            if fault.site == FaultSite::Output(id) {
                v = fault.stuck_value;
            }
            values[id.index()] = v;
        }
        let faulty: Vec<bool> = circuit
            .outputs()
            .iter()
            .map(|&o| values[o.index()])
            .collect();
        good != faulty
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ppsfp_agrees_with_scalar_reference(circuit in arb_circuit()) {
            let faults = FaultList::full(&circuit);
            let mut sim = FaultSimulator::new(&circuit, &faults);
            let mut src = ExhaustivePatterns::new(4);
            let block = src.next_block(16);
            let det = sim.detect_block(&block.words, block.mask());
            for (i, (_, fault)) in faults.iter().enumerate() {
                for j in 0..16u32 {
                    let assignment = block.pattern(j);
                    let expected = scalar_detects(&circuit, fault, &assignment);
                    let got = (det[i] >> j) & 1 == 1;
                    prop_assert_eq!(
                        got, expected,
                        "fault {} pattern {:?}", fault.describe(&circuit), assignment
                    );
                }
            }
        }
    }
}

//! The engine abstraction consumed by the optimizer's ANALYSIS step.

use wrt_circuit::{Circuit, NodeId};
use wrt_fault::{Fault, FaultList, FaultSite};
use wrt_robust::{fnv1a, Budget};
use wrt_sim::{detection_counts_robust, SimOptions, WeightedPatterns};

use crate::cop::{backward_on, forward_on};
use crate::exact::exact_detection_probability;
use crate::overlay::CopSolution;
use crate::stafan::StafanCounts;

/// A tool "computing or estimating fault detection probabilities
/// efficiently" (paper §1) — the role PROTEST plays in the original.
///
/// Implementations return one estimate of `p_f(X)` per fault for the given
/// input probabilities `X`.  The optimizer in `wrt-core` is generic over
/// this trait, mirroring the paper's remark that "with slight modifications
/// PREDICT or STAFAN will presumably work as well".
///
/// `Send` is a supertrait: every engine is plain owned data (scratch
/// vectors, RNG state, config), so a per-session engine can live on its
/// session's thread in `wrt-serve` without any shared lock.  Shared
/// *read-only* state belongs in [`crate::CopBaseline`] behind an `Arc`,
/// not in the engine.
pub trait DetectionProbabilityEngine: Send {
    /// Estimates the detection probability of every fault in `faults`
    /// under independent input probabilities `input_probs`.
    ///
    /// Estimates lie in `[0, 1]`; 0 means "not detectable as far as this
    /// engine can tell" (for analytic engines: a redundancy *candidate*,
    /// see [`crate::constant_line_faults`] for proofs).
    ///
    /// # Panics
    ///
    /// Panics if `input_probs.len() != circuit.num_inputs()`.
    fn estimate(&mut self, circuit: &Circuit, faults: &FaultList, input_probs: &[f64]) -> Vec<f64>;

    /// Estimates detection probabilities at the two boundary perturbations
    /// of one coordinate: `p_f(X, x_i = 0)` and `p_f(X, x_i = 1)` for
    /// `X = weights` — exactly the optimizer's PREPARE query.
    ///
    /// The default materializes both perturbed vectors and makes two
    /// sequential [`estimate`](Self::estimate) calls; [`MonteCarloEngine`]
    /// overrides it to simulate both points concurrently on a split thread
    /// budget, [`CopEngine`] to evaluate both points as two lanes of one
    /// pass over the faults' query cone (identical results either way).
    ///
    /// # Panics
    ///
    /// Panics if `coordinate >= weights.len()` or if `weights.len()` does
    /// not match the circuit's input count.
    fn estimate_coordinate_pair(
        &mut self,
        circuit: &Circuit,
        faults: &FaultList,
        weights: &[f64],
        coordinate: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let (at_zero, at_one) = coordinate_endpoints(weights, coordinate);
        (
            self.estimate(circuit, faults, &at_zero),
            self.estimate(circuit, faults, &at_one),
        )
    }

    /// Whether the estimates of `faults` can depend on input
    /// `coordinate` at all.  `false` promises that
    /// [`estimate_coordinate_pair`](Self::estimate_coordinate_pair) would
    /// return two bit-equal vectors, so the optimizer skips PREPARE and
    /// MINIMIZE for that input: its 1-D objective is constant.
    ///
    /// The default is `true`.  [`CopEngine`] answers from its query cone;
    /// the sampling engines keep the default, because their two endpoints
    /// draw different samples even where the input is unread.
    ///
    /// # Panics
    ///
    /// May panic if `coordinate >= circuit.num_inputs()`.
    fn coordinate_reaches(
        &mut self,
        circuit: &Circuit,
        faults: &FaultList,
        coordinate: usize,
    ) -> bool {
        let _ = (circuit, faults, coordinate);
        true
    }

    /// Short human-readable engine name for reports.
    fn name(&self) -> &'static str;
}

/// `weights` with `coordinate` set to 0 and to 1.
fn coordinate_endpoints(weights: &[f64], coordinate: usize) -> (Vec<f64>, Vec<f64>) {
    let mut at_zero = weights.to_vec();
    at_zero[coordinate] = 0.0;
    let mut at_one = weights.to_vec();
    at_one[coordinate] = 1.0;
    (at_zero, at_one)
}

/// The seed of a sampling engine's draw at `input_probs`: FNV-1a over the
/// base seed and the probabilities' bits.  An estimate thus depends on
/// its inputs alone, not on how many calls came before — so a resumed
/// optimization draws exactly the samples of an uninterrupted one.
fn sample_seed(seed: u64, input_probs: &[f64]) -> u64 {
    fnv1a(
        seed.to_le_bytes()
            .into_iter()
            .chain(input_probs.iter().flat_map(|p| p.to_bits().to_le_bytes())),
    )
}

/// Where the COP detection model reads one fault: the line whose
/// 1-probability activates it (the node of an output fault, the driver of
/// a pin fault), the observability it is weighted by, and its stuck value.
#[derive(Debug, Clone, Copy)]
struct FaultRead {
    driver: NodeId,
    slot: ObsSlot,
    stuck_value: bool,
}

/// The observability a fault reads: a node's, or a fanin edge's (pin `p`
/// of gate `g` is edge `circuit.fanin_offset(g) + p`).
#[derive(Debug, Clone, Copy)]
enum ObsSlot {
    Node(NodeId),
    Edge(u32),
}

impl FaultRead {
    /// Resolves `fault`'s site in `circuit`.
    fn resolve(circuit: &Circuit, fault: &Fault) -> Self {
        let (driver, slot) = match fault.site {
            FaultSite::Output(node) => (node, ObsSlot::Node(node)),
            FaultSite::InputPin { gate, pin } => (
                circuit.fanin(gate)[pin],
                ObsSlot::Edge((circuit.fanin_offset(gate) + pin) as u32),
            ),
        };
        FaultRead {
            driver,
            slot,
            stuck_value: fault.stuck_value,
        }
    }

    /// The read's driver probability and observability, through lookups
    /// into one consistent solution.
    fn operands<T>(
        &self,
        p: impl Fn(NodeId) -> T,
        obs: impl Fn(NodeId) -> T,
        pin_obs: impl Fn(usize) -> T,
    ) -> (T, T) {
        let o = match self.slot {
            ObsSlot::Node(node) => obs(node),
            ObsSlot::Edge(edge) => pin_obs(edge as usize),
        };
        (p(self.driver), o)
    }

    /// The COP detection model: activation probability (`c1` is the
    /// driver's 1-probability) times observability `o`, clamped to `[0, 1]`.
    fn probability(&self, c1: f64, o: f64) -> f64 {
        let act = if self.stuck_value { 1.0 - c1 } else { c1 };
        (act * o).clamp(0.0, 1.0)
    }
}

/// The COP detection-probability model for one fault: activation
/// probability times observability, clamped to `[0, 1]`.
///
/// `p`, `obs` and `pin_obs` (edge-indexed) are lookups into a consistent
/// solution: full COP arrays for [`CopEngine`] and [`crate::HybridEngine`],
/// a baseline-plus-overlay view for [`crate::SessionCop`], counted rates
/// for [`StafanCounts`].  Every engine's detection model is
/// [`FaultRead`]'s, which keeps the COP engines' estimates bit-identical.
pub(crate) fn cop_fault_probability(
    circuit: &Circuit,
    fault: &Fault,
    p: &impl Fn(NodeId) -> f64,
    obs: &impl Fn(NodeId) -> f64,
    pin_obs: &impl Fn(usize) -> f64,
) -> f64 {
    let read = FaultRead::resolve(circuit, fault);
    let (c1, o) = read.operands(p, obs, pin_obs);
    read.probability(c1, o)
}

/// Analytic COP-style engine: detection probability ≈ activation
/// probability × observability, both from one forward and one backward
/// propagation pass.
///
/// The default ANALYSIS engine: its cost is two linear passes regardless
/// of `X`, and it resolves arbitrarily small probabilities (a 32-input AND
/// gives exactly `2^-32`), which no sampling engine can.  Reconvergent
/// fanout introduces estimation error (it is a heuristic, like PROTEST's
/// own estimator).
///
/// For PREPARE it keeps the relevant faults' query cone and where each
/// fault reads it while the circuit and fault list stay the same, and
/// answers [`coordinate_reaches`](DetectionProbabilityEngine::coordinate_reaches)
/// from the cone, so the optimizer runs no pass for an input the faults
/// cannot read.
#[derive(Debug, Clone, Default)]
pub struct CopEngine {
    /// Query-cone key (circuit uid, fault list); `F` ascending, `B` descending.
    cone: Option<(u64, FaultList)>,
    forward: Vec<u32>,
    backward: Vec<u32>,
    /// Per input position: whether the input's node is in `F`.
    reaches: Vec<bool>,
    /// Per fault of the key, in list order: where the model reads it.
    reads: Vec<FaultRead>,
    /// The two-lane input probabilities of the last PREPARE.
    x: Vec<[f64; 2]>,
    /// What the two-lane cone passes write (lane 0 at `x_i = 0`, lane 1
    /// at `x_i = 1`); entries outside the cone are stale.
    p: Vec<[f64; 2]>,
    obs: Vec<[f64; 2]>,
    pin_obs: Vec<[f64; 2]>,
    node_evaluations: u64,
}

impl CopEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        CopEngine::default()
    }

    /// COP node evaluations so far (forward plus backward): every node per
    /// `estimate`, the query cone per PREPARE endpoint whose coordinate
    /// the cone reads.
    pub fn node_evaluations(&self) -> u64 {
        self.node_evaluations
    }

    /// Keeps the query cone of `faults` on `circuit`, rebuilding it when
    /// the circuit or the fault list differs from the cached key.
    fn ensure_cone(&mut self, circuit: &Circuit, faults: &FaultList) {
        if !matches!(&self.cone, Some((uid, f)) if *uid == circuit.uid() && f == faults) {
            self.build_cone(circuit, faults);
        }
    }

    /// Builds `faults`' query cone and reads and sizes the scratch for
    /// `circuit`.
    fn build_cone(&mut self, circuit: &Circuit, faults: &FaultList) {
        let n = circuit.num_nodes();
        let (mut in_b, mut in_f) = (vec![false; n], vec![false; n]);
        // A pin fault's driver is a fanin of its gate in `B`, so joins `F` below.
        for fault in faults.as_slice() {
            match fault.site {
                FaultSite::Output(node) => (in_b[node.index()], in_f[node.index()]) = (true, true),
                FaultSite::InputPin { gate, .. } => in_b[gate.index()] = true,
            }
        }
        // Fanins have smaller ids and sinks larger: one sweep closes each.
        for i in 0..n {
            let fanin = circuit.fanin(NodeId::from_index(i));
            in_b[i] |= fanin.iter().any(|f| in_b[f.index()]);
        }
        for i in (0..n).rev() {
            let sinks = circuit.fanout(NodeId::from_index(i));
            in_f[i] |= sinks.iter().any(|s| in_b[s.index()] || in_f[s.index()]);
        }
        self.forward = (0..n as u32).filter(|&i| in_f[i as usize]).collect();
        self.backward = (0..n as u32).rev().filter(|&i| in_b[i as usize]).collect();
        self.reaches = circuit.inputs().iter().map(|id| in_f[id.index()]).collect();
        self.reads = faults
            .as_slice()
            .iter()
            .map(|fault| FaultRead::resolve(circuit, fault))
            .collect();
        self.cone = Some((circuit.uid(), faults.clone()));
        self.p.resize(n, [0.0; 2]);
        self.obs.resize(n, [0.0; 2]);
        self.pin_obs.resize(circuit.num_edges(), [0.0; 2]);
    }
}

impl DetectionProbabilityEngine for CopEngine {
    fn estimate(&mut self, circuit: &Circuit, faults: &FaultList, input_probs: &[f64]) -> Vec<f64> {
        self.node_evaluations += 2 * circuit.num_nodes() as u64;
        CopSolution::compute(circuit, input_probs).detection_probabilities(circuit, faults)
    }

    /// Both endpoints in one two-lane pass over the query cone of
    /// `faults`, kept while the circuit and fault list stay the same;
    /// each lane is bit-identical to full passes at its endpoint.
    fn estimate_coordinate_pair(
        &mut self,
        circuit: &Circuit,
        faults: &FaultList,
        weights: &[f64],
        coordinate: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(weights.len(), circuit.num_inputs());
        self.ensure_cone(circuit, faults);
        self.x.clear();
        self.x.extend(weights.iter().map(|&w| [w; 2]));
        self.x[coordinate] = [0.0, 1.0];
        let nodes = self.forward.iter().map(|&i| i as usize);
        forward_on(circuit, &|k| self.x[k], nodes, &mut self.p);
        let nodes = self.backward.iter().map(|&i| i as usize);
        backward_on(circuit, &self.p, nodes, &mut self.obs, &mut self.pin_obs);
        self.node_evaluations += 2 * (self.forward.len() + self.backward.len()) as u64;
        let (mut at_zero, mut at_one) = (
            Vec::with_capacity(faults.len()),
            Vec::with_capacity(faults.len()),
        );
        for read in &self.reads {
            let (c1, o) = read.operands(
                |f| self.p[f.index()],
                |n| self.obs[n.index()],
                |e| self.pin_obs[e],
            );
            at_zero.push(read.probability(c1[0], o[0]));
            at_one.push(read.probability(c1[1], o[1]));
        }
        (at_zero, at_one)
    }

    /// Whether input `coordinate`'s node is in the query cone's `F`.
    /// When it is not, no lane reads `x_i`, so both endpoints of the pair
    /// are bit-equal.
    fn coordinate_reaches(
        &mut self,
        circuit: &Circuit,
        faults: &FaultList,
        coordinate: usize,
    ) -> bool {
        self.ensure_cone(circuit, faults);
        self.reaches[coordinate]
    }

    fn name(&self) -> &'static str {
        "cop"
    }
}

/// STAFAN-style engine: counts controllabilities and one-level
/// sensitization rates on a fault-free bit-parallel sample, then combines
/// them analytically.
#[derive(Debug, Clone)]
pub struct StafanEngine {
    /// Number of fault-free patterns to count over.
    pub patterns: u64,
    /// Base RNG seed (each call draws from a stream derived from it and
    /// the input probabilities).
    pub seed: u64,
}

impl StafanEngine {
    /// Creates an engine counting over `patterns` patterns per call.
    pub fn new(patterns: u64, seed: u64) -> Self {
        StafanEngine { patterns, seed }
    }
}

impl DetectionProbabilityEngine for StafanEngine {
    fn estimate(&mut self, circuit: &Circuit, faults: &FaultList, input_probs: &[f64]) -> Vec<f64> {
        let mut source =
            WeightedPatterns::new(input_probs.to_vec(), sample_seed(self.seed, input_probs));
        let counts = StafanCounts::count(circuit, &mut source, self.patterns);
        counts.detection_probabilities(circuit, faults)
    }

    fn name(&self) -> &'static str {
        "stafan"
    }
}

/// Direct Monte-Carlo engine: full PPSFP fault simulation of a weighted
/// sample; the estimate is the observed detection frequency.
///
/// Unbiased but blind to probabilities below `≈ 1 / patterns`.
///
/// The simulation runs on the fault-simulation engine
/// ([`wrt_sim::detection_counts_robust`], unbudgeted): `threads` worker
/// threads each own one cone-locality-aware fault shard (one shard at
/// `threads = 1`).  The thread count does not affect the estimates:
/// every count is bit-identical to the serial dense oracle.
///
/// # Panics
///
/// [`DetectionProbabilityEngine::estimate`] panics if a shard worker died
/// and every bounded replay of its faults failed too — impossible
/// without injected failures.
#[derive(Debug, Clone)]
pub struct MonteCarloEngine {
    /// Number of simulated patterns per call.
    pub patterns: u64,
    /// Base RNG seed (each call draws from a stream derived from it and
    /// the input probabilities).
    pub seed: u64,
    /// Fault-simulation worker threads (`1` = serial, `0` = all cores).
    pub threads: usize,
}

impl MonteCarloEngine {
    /// Creates a serial engine simulating `patterns` patterns per call.
    pub fn new(patterns: u64, seed: u64) -> Self {
        MonteCarloEngine {
            patterns,
            seed,
            threads: 1,
        }
    }

    /// Sets the fault-simulation thread count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl DetectionProbabilityEngine for MonteCarloEngine {
    fn estimate(&mut self, circuit: &Circuit, faults: &FaultList, input_probs: &[f64]) -> Vec<f64> {
        let source =
            WeightedPatterns::new(input_probs.to_vec(), sample_seed(self.seed, input_probs));
        simulate_counts(circuit, faults, source, self.patterns, self.threads)
            .into_iter()
            .map(|c| c as f64 / self.patterns as f64)
            .collect()
    }

    /// Simulates both boundary points concurrently, splitting the thread
    /// budget between them (each half still shards its fault list).
    /// Identical output to two sequential
    /// [`estimate`](DetectionProbabilityEngine::estimate) calls — the
    /// seed derivation and the simulation engine's results are both
    /// independent of the thread count.
    ///
    /// With an effective budget of one thread (explicit `threads = 1`,
    /// or auto mode on a small fault list / single-core machine) it
    /// stays fully serial.
    fn estimate_coordinate_pair(
        &mut self,
        circuit: &Circuit,
        faults: &FaultList,
        weights: &[f64],
        coordinate: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let (probs_a, probs_b) = coordinate_endpoints(weights, coordinate);
        let resolved = wrt_sim::recommended_threads(self.threads, faults.len());
        if resolved <= 1 {
            return (
                self.estimate(circuit, faults, &probs_a),
                self.estimate(circuit, faults, &probs_b),
            );
        }
        let patterns = self.patterns;
        let source_for =
            |probs: &[f64]| WeightedPatterns::new(probs.to_vec(), sample_seed(self.seed, probs));
        let source_a = source_for(&probs_a);
        let source_b = source_for(&probs_b);
        // Split the budget without losing the odd thread (e.g. 3 → 2 + 1).
        let threads_b = (resolved / 2).max(1);
        let threads_a = (resolved - resolved / 2).max(1);
        let to_probs = |counts: Vec<u64>| -> Vec<f64> {
            counts
                .into_iter()
                .map(|c| c as f64 / patterns as f64)
                .collect()
        };
        std::thread::scope(|scope| {
            let b = scope.spawn(|| simulate_counts(circuit, faults, source_b, patterns, threads_b));
            let a = simulate_counts(circuit, faults, source_a, patterns, threads_a);
            (
                to_probs(a),
                to_probs(b.join().expect("coordinate-pair worker panicked")),
            )
        })
    }

    fn name(&self) -> &'static str {
        "monte-carlo"
    }
}

/// Unbudgeted detection counts for [`MonteCarloEngine`].
///
/// # Panics
///
/// Panics if shard recovery was exhausted (see the engine's docs).
fn simulate_counts(
    circuit: &Circuit,
    faults: &FaultList,
    source: WeightedPatterns,
    patterns: u64,
    threads: usize,
) -> Vec<u64> {
    let unlimited = Budget::unlimited();
    let outcome = detection_counts_robust(
        circuit,
        faults,
        source,
        patterns,
        threads,
        SimOptions::default(),
        &unlimited,
    );
    let run = outcome.into_value();
    assert!(
        run.recovery.fully_recovered(),
        "fault-sim shard recovery failed: {} faults unresolved after bounded replays \
         ({} worker panics)",
        run.recovery.unresolved.len(),
        run.recovery.worker_panics,
    );
    run.counts
}

/// Exact engine: weighted exhaustive enumeration of the whole input space.
///
/// Ground truth for validation; cost `O(2^inputs · gates · faults)`.
#[derive(Debug, Clone)]
pub struct ExactEngine {
    /// Refuses circuits with more primary inputs than this.
    pub max_inputs: usize,
}

impl ExactEngine {
    /// Creates an exact engine with the given input budget.
    pub fn new(max_inputs: usize) -> Self {
        ExactEngine { max_inputs }
    }
}

impl DetectionProbabilityEngine for ExactEngine {
    /// # Panics
    ///
    /// Panics if the circuit has more than `max_inputs` primary inputs.
    fn estimate(&mut self, circuit: &Circuit, faults: &FaultList, input_probs: &[f64]) -> Vec<f64> {
        faults
            .iter()
            .map(|(_, fault)| {
                exact_detection_probability(circuit, fault, input_probs, self.max_inputs)
                    .unwrap_or_else(|| {
                        panic!(
                            "circuit `{}` exceeds the exact engine's input budget of {}",
                            circuit.name(),
                            self.max_inputs
                        )
                    })
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;
    use wrt_fault::FaultList;

    fn tree() -> Circuit {
        parse_bench("INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\nm = NAND(a, b)\ny = OR(m, d)\n")
            .unwrap()
    }

    #[test]
    fn cop_is_exact_on_trees() {
        let c = tree();
        let faults = FaultList::full(&c);
        let probs = [0.3, 0.6, 0.2];
        let cop = CopEngine::new().estimate(&c, &faults, &probs);
        for (i, (_, fault)) in faults.iter().enumerate() {
            let exact = exact_detection_probability(&c, fault, &probs, 10).unwrap();
            assert!(
                (cop[i] - exact).abs() < 1e-9,
                "{}: cop {} vs exact {}",
                fault.describe(&c),
                cop[i],
                exact
            );
        }
    }

    #[test]
    fn monte_carlo_converges_to_exact() {
        let c = tree();
        let faults = FaultList::full(&c);
        let probs = [0.5, 0.5, 0.5];
        let mc = MonteCarloEngine::new(64 * 400, 5).estimate(&c, &faults, &probs);
        for (i, (_, fault)) in faults.iter().enumerate() {
            let exact = exact_detection_probability(&c, fault, &probs, 10).unwrap();
            assert!(
                (mc[i] - exact).abs() < 0.05,
                "{}: mc {} vs exact {}",
                fault.describe(&c),
                mc[i],
                exact
            );
        }
    }

    #[test]
    fn engines_are_object_safe_and_named() {
        let mut engines: Vec<Box<dyn DetectionProbabilityEngine>> = vec![
            Box::new(CopEngine::new()),
            Box::new(StafanEngine::new(64, 1)),
            Box::new(MonteCarloEngine::new(64, 1)),
            Box::new(ExactEngine::new(10)),
        ];
        let c = tree();
        let faults = FaultList::primary_inputs(&c);
        for e in engines.iter_mut() {
            let est = e.estimate(&c, &faults, &[0.5, 0.5, 0.5]);
            assert_eq!(est.len(), faults.len());
            assert!(est.iter().all(|p| (0.0..=1.0).contains(p)), "{}", e.name());
            assert!(!e.name().is_empty());
        }
    }

    #[test]
    fn monte_carlo_threads_do_not_change_estimates() {
        let c = tree();
        let faults = FaultList::full(&c);
        let probs = [0.4, 0.5, 0.6];
        let serial = MonteCarloEngine::new(64 * 20, 9).estimate(&c, &faults, &probs);
        for threads in [0, 2, 4] {
            let sharded = MonteCarloEngine::new(64 * 20, 9)
                .with_threads(threads)
                .estimate(&c, &faults, &probs);
            assert_eq!(serial, sharded, "threads = {threads}");
        }
    }

    #[test]
    fn monte_carlo_estimates_match_the_dense_oracle() {
        let c = tree();
        let faults = FaultList::full(&c);
        let probs = [0.4, 0.5, 0.6];
        let patterns = 64 * 20;
        let source = WeightedPatterns::new(probs.to_vec(), sample_seed(9, &probs));
        let expected: Vec<f64> = wrt_sim::detection_counts(&c, &faults, source, patterns)
            .into_iter()
            .map(|n| n as f64 / patterns as f64)
            .collect();
        for threads in [1, 2] {
            let got = MonteCarloEngine::new(patterns, 9)
                .with_threads(threads)
                .estimate(&c, &faults, &probs);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn monte_carlo_estimate_pair_matches_sequential_calls() {
        let c = tree();
        let faults = FaultList::full(&c);
        // PREPARE of coordinate 1 at X = (0.3, 0.5, 0.7).
        let weights = [0.3, 0.5, 0.7];
        let a = [0.3, 0.0, 0.7];
        let b = [0.3, 1.0, 0.7];
        // Same seed: pair == two sequential calls.
        let mut sequential = MonteCarloEngine::new(64 * 10, 13);
        let expected = (
            sequential.estimate(&c, &faults, &a),
            sequential.estimate(&c, &faults, &b),
        );
        for threads in [0, 1, 2, 4] {
            let mut paired = MonteCarloEngine::new(64 * 10, 13).with_threads(threads);
            let got = paired.estimate_coordinate_pair(&c, &faults, &weights, 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn estimate_pair_matches_two_estimates() {
        let c = tree();
        let faults = FaultList::full(&c);
        let mut engine = CopEngine::new();
        let (pa, pb) = engine.estimate_coordinate_pair(&c, &faults, &[0.2, 0.5, 0.8], 0);
        assert_eq!(pa, engine.estimate(&c, &faults, &[0.0, 0.5, 0.8]));
        assert_eq!(pb, engine.estimate(&c, &faults, &[1.0, 0.5, 0.8]));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn cone_pairs_are_bit_identical_to_full_passes(
            circuits in (crate::cop::proptests::arb_circuit(), crate::cop::proptests::arb_circuit()),
            weights in proptest::collection::vec(0.0f64..=1.0, 5),
            masks in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<bool>(), 1..16),
                2,
            ),
            calls in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<bool>(),
                    0usize..5,
                ),
                1..12,
            ),
        ) {
            // One engine across the whole sequence: a cone kept for the
            // wrong circuit or the wrong subset would show as a mismatch.
            // Each lane of a pair is checked against a scalar full pass at
            // its endpoint; the circuits hold every gate kind, five-pin
            // gates, an input that is a primary output (i0) and one read
            // on two pins of a gate (i1).
            // Shared subsets (output faults on nodes 0..8, which every
            // generated circuit has) recur on both circuits.
            let mut engine = CopEngine::new();
            for (second, other_mask, shared, coordinate) in calls {
                let c = if second { &circuits.1 } else { &circuits.0 };
                let pool = if shared {
                    (0..8)
                        .flat_map(|i| [false, true].map(|v| Fault::output(NodeId::from_index(i), v)))
                        .collect()
                } else {
                    FaultList::full(c).as_slice().to_vec()
                };
                let subset: FaultList = pool
                    .into_iter()
                    .zip(masks[usize::from(other_mask)].iter().cycle())
                    .filter(|&(_, &keep)| keep)
                    .map(|(fault, _)| fault)
                    .collect();
                let (got0, got1) = engine.estimate_coordinate_pair(c, &subset, &weights, coordinate);
                let (at_zero, at_one) = coordinate_endpoints(&weights, coordinate);
                let mut oracle = CopEngine::new();
                proptest::prop_assert_eq!(bits(&got0), bits(&oracle.estimate(c, &subset, &at_zero)));
                proptest::prop_assert_eq!(bits(&got1), bits(&oracle.estimate(c, &subset, &at_one)));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        #[test]
        fn unreached_coordinates_have_equal_lanes(
            c in crate::cop::proptests::arb_circuit(),
            weights in proptest::collection::vec(0.0f64..=1.0, 5),
            mask in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..40),
        ) {
            // Sparse subsets leave some inputs outside the query cone.
            let subset: FaultList = FaultList::full(&c)
                .as_slice()
                .iter()
                .zip(mask.iter().cycle())
                .filter(|&(_, &keep)| keep)
                .map(|(&fault, _)| fault)
                .collect();
            let mut engine = CopEngine::new();
            for coordinate in 0..5 {
                let reaches = engine.coordinate_reaches(&c, &subset, coordinate);
                let (p0, p1) = engine.estimate_coordinate_pair(&c, &subset, &weights, coordinate);
                if !reaches {
                    proptest::prop_assert_eq!(bits(&p0), bits(&p1));
                }
            }
        }
    }

    #[test]
    fn cop_answers_reach_from_the_query_cone() {
        // z's cone: F = {d, z}; a and b are unread, d is read.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             m = NAND(a, b)\ny = OR(m, d)\nz = NOT(d)\n",
        )
        .unwrap();
        let z = c.node_id("z").unwrap();
        let faults = FaultList::from_faults(vec![wrt_fault::Fault::output(z, false)]);
        let mut engine = CopEngine::new();
        let reach: Vec<bool> = (0..3)
            .map(|i| engine.coordinate_reaches(&c, &faults, i))
            .collect();
        assert_eq!(reach, [false, false, true]);
        // Every input reaches the full list; sampling engines always answer true.
        let full = FaultList::full(&c);
        assert!((0..3).all(|i| engine.coordinate_reaches(&c, &full, i)));
        let mut stafan = StafanEngine::new(64, 1);
        assert!(stafan.coordinate_reaches(&c, &faults, 0));
    }

    #[test]
    fn cop_counts_cone_and_full_pass_evaluations() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             m = NAND(a, b)\ny = OR(m, d)\nz = NOT(d)\n",
        )
        .unwrap();
        let z = c.node_id("z").unwrap();
        let faults = FaultList::from_faults(vec![wrt_fault::Fault::output(z, false)]);
        let mut engine = CopEngine::new();
        let _ = engine.estimate(&c, &faults, &[0.5; 3]);
        assert_eq!(engine.node_evaluations(), 2 * c.num_nodes() as u64);
        // z's cone: F = {d, z}, B = {z}, at both endpoints.
        let _ = engine.estimate_coordinate_pair(&c, &faults, &[0.5; 3], 0);
        assert_eq!(engine.node_evaluations(), 2 * c.num_nodes() as u64 + 2 * 3);
    }

    #[test]
    fn cop_resolves_tiny_probabilities() {
        // 24-input AND: p(output s-a-0) = 2^-24 exactly under 0.5 weights.
        let mut src = String::from("OUTPUT(y)\n");
        let mut args = Vec::new();
        for i in 0..24 {
            src.push_str(&format!("INPUT(x{i})\n"));
            args.push(format!("x{i}"));
        }
        src.push_str(&format!("y = AND({})\n", args.join(", ")));
        let c = parse_bench(&src).unwrap();
        let y = c.node_id("y").unwrap();
        let faults = FaultList::from_faults(vec![wrt_fault::Fault::output(y, false)]);
        let est = CopEngine::new().estimate(&c, &faults, &[0.5; 24]);
        assert!((est[0] - 0.5f64.powi(24)).abs() < 1e-12);
        // Monte Carlo with 1k patterns sees nothing.
        let mc = MonteCarloEngine::new(1024, 3).estimate(&c, &faults, &[0.5; 24]);
        assert_eq!(mc[0], 0.0);
    }
}

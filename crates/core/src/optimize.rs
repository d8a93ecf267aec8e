//! `OPTIMIZE`: coordinate descent over all input probabilities (paper §4).
//!
//! The descent is exposed in two forms: [`optimize`], the original
//! run-to-completion entry point, and [`optimize_budgeted`], which bounds
//! the run with a [`Budget`] (checked before every coordinate), carries
//! partial results out as [`RunOutcome::Interrupted`], and supports
//! checkpoint/resume — the descent state at the last completed sweep is
//! serialized to a versioned [`Checkpoint`], and a resumed run continues
//! bit-identically to an uninterrupted one (a COP engine's answers depend
//! on its inputs alone, so a fresh engine instance answers alike).

use wrt_circuit::Circuit;
use wrt_estimate::DetectionProbabilityEngine;
use wrt_fault::{Fault, FaultId, FaultList};
use wrt_robust::{Budget, BudgetExceeded, Checkpoint, CheckpointError, Progress, RunOutcome};

use crate::minimize::{minimize_coordinate, CoordinateProblem};
use crate::test_length::{required_test_length, sort_by_difficulty, TestLength};

/// Tuning knobs of [`optimize`].
#[derive(Debug, Clone)]
pub struct OptimizeConfig {
    /// Confidence target for the random test (the paper's `a`); the
    /// objective threshold is `θ = −ln(confidence)`.
    pub confidence: f64,
    /// Stop when a sweep improves the test length by less than this
    /// relative fraction (the paper's user-defined `α`).
    pub min_improvement: f64,
    /// Hard cap on coordinate-descent sweeps.
    pub max_sweeps: usize,
    /// Number of consecutive non-improving sweeps tolerated before giving
    /// up.  Early sweeps on many-input circuits can zigzag (each
    /// coordinate reacts to a still-unsettled rest of the vector) before
    /// the descent locks in; the best vector seen is kept regardless.
    pub patience: usize,
    /// Weights are kept inside `[lo, hi]` (strictly inside `(0, 1)` so no
    /// primary-input fault becomes undetectable, cf. Lemma 2).
    pub weight_bounds: (f64, f64),
    /// Starting weights; `None` = equiprobable 0.5.
    pub starting_weights: Option<Vec<f64>>,
    /// Extra faults carried beyond the `NORMALIZE` relevant set, as slack
    /// against the paper's caveat that "the order of the detection
    /// probabilities may change during optimization".
    pub relevant_slack: usize,
    /// Under-relaxation factor in `(0, 1]`: each coordinate moves this
    /// fraction of the way from its current value to its 1-D optimum.
    /// `1.0` is the paper's plain update; smaller values damp the zigzag
    /// coordinate descent exhibits on wide comparator structures (every
    /// `x_i`'s optimum depends strongly on all the others).
    pub damping: f64,
    /// Deterministic symmetry-breaking perturbation applied to the default
    /// 0.5 starting vector (ignored when `starting_weights` is given).
    ///
    /// Comparator-style circuits are perfectly symmetric in `x ↔ 1 − x`,
    /// which makes the equiprobable point a stationary point of every
    /// 1-D subproblem: coordinate descent started at exactly 0.5 never
    /// moves.  A small per-input offset (sign chosen by hashing the input
    /// index) breaks the tie; the descent then amplifies it toward a
    /// proper relative optimum, cf. the strongly asymmetric weights in
    /// the paper's appendix.
    pub jitter: f64,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            confidence: 0.999,
            min_improvement: 0.01,
            max_sweeps: 48,
            weight_bounds: (0.02, 0.98),
            starting_weights: None,
            relevant_slack: 16,
            jitter: 0.05,
            patience: 6,
            damping: 0.5,
        }
    }
}

impl OptimizeConfig {
    /// `θ = −ln(confidence)`.
    pub fn theta(&self) -> f64 {
        -self.confidence.ln()
    }

    /// Replaces the starting weights with the SCOAP-derived seed
    /// ([`wrt_analyze::scoap_seed_weights`]): each input starts biased
    /// toward the non-controlling values its observable sinks want,
    /// instead of at jittered 0.5.  Opt-in — the descent still converges
    /// from the default start; the seed just begins it closer to the
    /// asymmetric optima wide AND/OR structures end up at.
    pub fn scoap_seeded(mut self, circuit: &Circuit) -> Self {
        let scoap = wrt_analyze::Scoap::compute(circuit);
        let (lo, hi) = self.weight_bounds;
        let seed = wrt_analyze::scoap_seed_weights(circuit, &scoap)
            .into_iter()
            .map(|w| w.clamp(lo, hi))
            .collect();
        self.starting_weights = Some(seed);
        self
    }
}

/// One record per completed sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRecord {
    /// Test length after the sweep.
    pub test_length: f64,
    /// Relevant-fault count used during the sweep.
    pub num_relevant: usize,
}

/// The outcome of [`optimize`].
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// One probability per primary input.
    pub weights: Vec<f64>,
    /// Required test length at the starting weights.
    pub initial_length: f64,
    /// Required test length at the optimized weights.
    pub final_length: f64,
    /// Per-sweep history.
    pub sweeps: Vec<SweepRecord>,
    /// Faults excluded because their detection probability was 0 at the
    /// starting distribution (redundancy candidates, cf. the paper's
    /// PROTEST redundancy proofs).
    pub excluded: Vec<FaultId>,
    /// Number of engine invocations performed.
    pub engine_calls: usize,
}

impl OptimizeResult {
    /// `initial_length / final_length` (> 1 when optimization helped);
    /// exactly 1 when the length did not change, including `0 → 0`.
    pub fn improvement_factor(&self) -> f64 {
        if self.final_length == self.initial_length {
            1.0
        } else {
            self.initial_length / self.final_length
        }
    }
}

/// Computes optimized input probabilities (the paper's `OPTIMIZE`).
///
/// Structure, following §4:
///
/// ```text
/// X := starting vector; ANALYSIS; SORT; NORMALIZE(N, nf);
/// while the sweep improves N by more than α:
///     for every primary input i:
///         PREPARE  (engine at X,0|i and X,1|i — relevant faults only)
///         MINIMIZE (Newton on the 1-D convex objective)
///         x_i := y
///     ANALYSIS; SORT; NORMALIZE(N, nf)
/// ```
///
/// The best weight vector seen (by test length) is returned, so a sweep
/// that overshoots on estimated probabilities cannot make the result
/// worse than its predecessor.
///
/// # Panics
///
/// Panics if `config.starting_weights` is given with the wrong length, or
/// if the confidence is not in `(0, 1)`.
pub fn optimize(
    circuit: &Circuit,
    faults: &FaultList,
    engine: &mut dyn DetectionProbabilityEngine,
    config: &OptimizeConfig,
) -> OptimizeResult {
    match init_descent(circuit, faults, engine, config) {
        Err(hopeless) => hopeless,
        Ok((mut descent, live_list)) => {
            run_sweeps(circuit, &live_list, engine, config, &mut descent, None);
            descent.into_result()
        }
    }
}

/// The full mutable state of the coordinate descent at a sweep boundary —
/// everything a checkpoint must capture for a bit-identical resume.
struct Descent {
    weights: Vec<f64>,
    best_weights: Vec<f64>,
    best_length: f64,
    n_current: f64,
    num_relevant: usize,
    stale_sweeps: usize,
    engine_calls: usize,
    initial_length: f64,
    sweeps: Vec<SweepRecord>,
    excluded: Vec<FaultId>,
    dprobs: Vec<f64>,
}

/// Runs the initial ANALYSIS and builds the starting descent state plus
/// the live (detectable) fault list.  `Err` carries the early return for
/// the hopeless case (some fault undetectable at the interior start).
fn init_descent(
    circuit: &Circuit,
    faults: &FaultList,
    engine: &mut dyn DetectionProbabilityEngine,
    config: &OptimizeConfig,
) -> Result<(Descent, FaultList), OptimizeResult> {
    assert!(
        config.confidence > 0.0 && config.confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    let theta = config.theta();
    let num_inputs = circuit.num_inputs();
    let weights = match &config.starting_weights {
        Some(w) => {
            assert_eq!(w.len(), num_inputs, "one starting weight per input");
            w.clone()
        }
        None => (0..num_inputs)
            .map(|i| 0.5 + config.jitter * jitter_sign(i))
            .collect(),
    };
    let mut engine_calls = 0usize;

    // Initial ANALYSIS: identify undetectable faults and the baseline N.
    let initial_probs = engine.estimate(circuit, faults, &weights);
    engine_calls += 1;
    let mut excluded = Vec::new();
    let mut live: Vec<(FaultId, Fault)> = Vec::new();
    for ((id, fault), &p) in faults.iter().zip(&initial_probs) {
        if p <= 0.0 {
            excluded.push(id);
        } else {
            live.push((id, fault));
        }
    }
    let live_list: FaultList = live.iter().map(|&(_, f)| f).collect();
    let dprobs: Vec<f64> = initial_probs.iter().copied().filter(|&p| p > 0.0).collect();

    let initial = required_test_length(&dprobs, theta);
    let initial_length = initial.patterns();
    let n_current = match initial {
        TestLength::Patterns { n, .. } if n > 0.0 => n,
        // Nothing the optimizer can do: either the confidence target is
        // met before the first pattern (θ ≥ |F|, so N = 0 and MINIMIZE
        // has no objective), or some fault is undetectable under the
        // interior starting point (N = ∞).
        _ => {
            return Err(OptimizeResult {
                weights,
                initial_length,
                final_length: initial_length,
                sweeps: Vec::new(),
                excluded,
                engine_calls,
            });
        }
    };
    let descent = Descent {
        best_weights: weights.clone(),
        weights,
        best_length: initial_length,
        n_current,
        num_relevant: initial.num_relevant(),
        stale_sweeps: 0,
        engine_calls,
        initial_length,
        sweeps: Vec::new(),
        excluded,
        dprobs,
    };
    Ok((descent, live_list))
}

/// Runs coordinate-descent sweeps until the config's termination
/// criterion — or, when a budget is given, until a check-in trips (the
/// tripped axis is returned; the descent state is left at the last
/// completed sweep).  The optimizer's eval unit is engine calls, checked
/// at sweep boundaries; deadline and cancellation are checked before
/// every coordinate.
fn run_sweeps(
    circuit: &Circuit,
    live_list: &FaultList,
    engine: &mut dyn DetectionProbabilityEngine,
    config: &OptimizeConfig,
    d: &mut Descent,
    budget: Option<&Budget>,
) -> Option<BudgetExceeded> {
    let theta = config.theta();
    let num_inputs = circuit.num_inputs();
    let (lo, hi) = config.weight_bounds;
    while d.sweeps.len() < config.max_sweeps {
        if let Some(budget) = budget {
            if let Err(reason) = budget.check_in(d.engine_calls as u64, 0) {
                return Some(reason);
            }
        }
        // Relevant subset: hardest `nf + slack` faults at the current X.
        let relevant_list: FaultList =
            sort_by_difficulty(&d.dprobs, d.num_relevant + config.relevant_slack)
                .into_iter()
                .map(|k| live_list.fault(wrt_fault::FaultId::from_index(k)))
                .collect();

        let (start_weights, start_calls) = (d.weights.clone(), d.engine_calls);
        for i in 0..num_inputs {
            // Deadline and cancellation trip inside a sweep too (evals
            // only at boundaries); the sweep is undone, so the checkpoint
            // stays at a boundary.
            if let Some(Err(reason)) = budget.map(|b| b.check_in(0, 0)) {
                d.weights = start_weights;
                d.engine_calls = start_calls;
                return Some(reason);
            }
            // PREPARE: engine at x_i = 0 and x_i = 1, both boundary points
            // in one engine call so parallel engines (e.g. the sharded
            // Monte-Carlo simulator) can run them concurrently.
            let saved = d.weights[i];
            let (p0, p1) = engine.estimate_coordinate_pair(circuit, &relevant_list, &d.weights, i);
            d.engine_calls += 2;
            // MINIMIZE (with optional under-relaxation).
            let problem = CoordinateProblem::new(p0, p1, d.n_current);
            let optimum = minimize_coordinate(&problem, saved, lo, hi);
            d.weights[i] = saved + config.damping.clamp(f64::MIN_POSITIVE, 1.0) * (optimum - saved);
        }

        // ANALYSIS + SORT + NORMALIZE at the new X.
        //
        // Faults in the live list are detectable at every interior X, so a
        // zero estimate here is floating-point absorption (e.g. an OR
        // chain's signal probability rounding to exactly 1.0 makes the
        // s-a-1 activation exactly 0).  Clamp to a representable floor so
        // the sweep records a huge-but-finite length and the descent can
        // recover instead of aborting.
        let probs = engine.estimate(circuit, live_list, &d.weights);
        d.engine_calls += 1;
        d.dprobs = probs.into_iter().map(|p| p.max(1e-300)).collect();
        let sweep_length = match required_test_length(&d.dprobs, theta) {
            TestLength::Patterns {
                n,
                num_relevant: nf,
            } => {
                d.n_current = n;
                d.num_relevant = nf;
                n
            }
            // Beyond NORMALIZE's range (> 2^1023 patterns): a wild
            // overshoot sweep.  Keep the previous N for MINIMIZE and let
            // the patience counter decide.
            TestLength::Infinite => f64::INFINITY,
        };
        d.sweeps.push(SweepRecord {
            test_length: sweep_length,
            num_relevant: d.num_relevant,
        });
        if sweep_length < d.best_length * (1.0 - config.min_improvement) {
            d.stale_sweeps = 0;
        } else {
            d.stale_sweeps += 1;
        }
        if sweep_length < d.best_length {
            d.best_length = sweep_length;
            d.best_weights = d.weights.clone();
        }
        // Termination: too many sweeps without material improvement of
        // the best test length (the paper's α criterion, with patience).
        if d.stale_sweeps > config.patience {
            break;
        }
    }
    None
}

impl Descent {
    fn into_result(self) -> OptimizeResult {
        OptimizeResult {
            weights: self.best_weights,
            initial_length: self.initial_length,
            final_length: self.best_length,
            sweeps: self.sweeps,
            excluded: self.excluded,
            engine_calls: self.engine_calls,
        }
    }

    /// Serializes the state at the current sweep boundary.
    fn to_checkpoint(&self, fingerprint: u64, circuit: &Circuit) -> Checkpoint {
        let mut c = Checkpoint::new(OPTIMIZE_CHECKPOINT_KIND);
        c.put("fingerprint", format!("{fingerprint:016x}"));
        c.put_circuit_identity(circuit.structural_digest(), circuit.uid());
        c.put("num_inputs", self.weights.len());
        c.put_f64_slice_bits("weights", &self.weights);
        c.put_f64_slice_bits("best_weights", &self.best_weights);
        c.put_f64_bits("best_length", self.best_length);
        c.put_f64_bits("n_current", self.n_current);
        c.put_f64_bits("initial_length", self.initial_length);
        c.put("num_relevant", self.num_relevant);
        c.put("stale_sweeps", self.stale_sweeps);
        c.put("engine_calls", self.engine_calls);
        let lengths: Vec<f64> = self.sweeps.iter().map(|s| s.test_length).collect();
        let relevants: Vec<u64> = self.sweeps.iter().map(|s| s.num_relevant as u64).collect();
        c.put_f64_slice_bits("sweep_lengths", &lengths);
        c.put_u64_slice("sweep_relevants", &relevants);
        let excluded: Vec<u64> = self.excluded.iter().map(|id| id.index() as u64).collect();
        c.put_u64_slice("excluded", &excluded);
        c.put_f64_slice_bits("dprobs", &self.dprobs);
        c
    }

    /// Rebuilds the state from a checkpoint written by
    /// [`Descent::to_checkpoint`], validating the run fingerprint.
    fn from_checkpoint(
        ckpt: &Checkpoint,
        circuit: &Circuit,
        fingerprint: u64,
    ) -> Result<Descent, CheckpointError> {
        let recorded = ckpt.get("fingerprint")?;
        if recorded != format!("{fingerprint:016x}") {
            return Err(CheckpointError::Corrupt {
                reason: format!(
                    "checkpoint fingerprint {recorded} does not match this circuit/fault-list/\
                     config combination ({fingerprint:016x}); resume must use the original inputs"
                ),
            });
        }
        // The fingerprint only hashes circuit *counts*; the structural
        // digest (when recorded) pins the resume to the exact netlist.
        ckpt.validate_circuit_digest(circuit.structural_digest())?;
        let num_inputs = circuit.num_inputs();
        let stored_inputs: usize = ckpt.get_parse("num_inputs")?;
        if stored_inputs != num_inputs {
            return Err(CheckpointError::Corrupt {
                reason: format!(
                    "checkpoint is for a {stored_inputs}-input circuit, got {num_inputs}"
                ),
            });
        }
        let lengths = ckpt.get_f64_slice_bits("sweep_lengths")?;
        let relevants = ckpt.get_u64_slice("sweep_relevants")?;
        if lengths.len() != relevants.len() {
            return Err(CheckpointError::Corrupt {
                reason: "sweep history lengths disagree".to_string(),
            });
        }
        let sweeps = lengths
            .into_iter()
            .zip(relevants)
            .map(|(test_length, nf)| SweepRecord {
                test_length,
                num_relevant: nf as usize,
            })
            .collect();
        Ok(Descent {
            weights: ckpt.get_f64_slice_bits("weights")?,
            best_weights: ckpt.get_f64_slice_bits("best_weights")?,
            best_length: ckpt.get_f64_bits("best_length")?,
            n_current: ckpt.get_f64_bits("n_current")?,
            num_relevant: ckpt.get_parse("num_relevant")?,
            stale_sweeps: ckpt.get_parse("stale_sweeps")?,
            engine_calls: ckpt.get_parse("engine_calls")?,
            initial_length: ckpt.get_f64_bits("initial_length")?,
            sweeps,
            excluded: ckpt
                .get_u64_slice("excluded")?
                .into_iter()
                .map(|i| FaultId::from_index(i as usize))
                .collect(),
            dprobs: ckpt.get_f64_slice_bits("dprobs")?,
        })
    }
}

/// The checkpoint `kind` tag of optimizer descent state.
pub const OPTIMIZE_CHECKPOINT_KIND: &str = "optimize";

/// Fingerprint of everything a resume must hold fixed: circuit shape,
/// fault list, and the full optimizer configuration.  FNV-1a over a
/// canonical rendering; float fields hash by bit pattern.
fn run_fingerprint(circuit: &Circuit, faults: &FaultList, config: &OptimizeConfig) -> u64 {
    let mut text = format!(
        "inputs={} nodes={} faults={} confidence={:016x} min_improvement={:016x} \
         max_sweeps={} patience={} lo={:016x} hi={:016x} slack={} damping={:016x} \
         jitter={:016x}",
        circuit.num_inputs(),
        circuit.num_nodes(),
        faults.len(),
        config.confidence.to_bits(),
        config.min_improvement.to_bits(),
        config.max_sweeps,
        config.patience,
        config.weight_bounds.0.to_bits(),
        config.weight_bounds.1.to_bits(),
        config.relevant_slack,
        config.damping.to_bits(),
        config.jitter.to_bits(),
    );
    if let Some(w) = &config.starting_weights {
        for x in w {
            text.push_str(&format!(" {:016x}", x.to_bits()));
        }
    }
    wrt_robust::fnv1a(text.bytes())
}

/// A budgeted optimizer run: the (possibly partial) result, plus — when
/// the run was interrupted — the descent checkpoint to persist for
/// `--resume`.
#[derive(Debug)]
pub struct BudgetedOptimize {
    /// The descent outcome; `Interrupted` carries the best-so-far result.
    pub outcome: RunOutcome<OptimizeResult>,
    /// Resume state at the last completed sweep (`Some` iff interrupted).
    pub checkpoint: Option<Checkpoint>,
}

/// [`optimize`] under a [`Budget`], with checkpoint/resume.
///
/// The budget's eval axis counts *engine calls* (the optimizer's
/// canonical work unit, machine- and engine-independent) and is checked
/// at sweep boundaries; deadline and cancellation are checked before
/// every coordinate, and a sweep they interrupt is undone.  On
/// interruption the outcome carries the best result over the completed
/// sweeps plus a checkpoint of the descent state; passing that checkpoint
/// back as `resume` continues the descent bit-identically to a run that
/// was never interrupted.
///
/// # Errors
///
/// [`CheckpointError`] when `resume` does not validate against this
/// circuit/fault-list/config combination (wrong kind, wrong fingerprint,
/// or damaged fields).  The run performs no work in that case.
///
/// # Panics
///
/// As [`optimize`] (bad confidence or starting-weight length).
pub fn optimize_budgeted(
    circuit: &Circuit,
    faults: &FaultList,
    engine: &mut dyn DetectionProbabilityEngine,
    config: &OptimizeConfig,
    budget: &Budget,
    resume: Option<&Checkpoint>,
) -> Result<BudgetedOptimize, CheckpointError> {
    let fingerprint = run_fingerprint(circuit, faults, config);
    let (mut descent, live_list) = match resume {
        Some(ckpt) => {
            if ckpt.kind() != OPTIMIZE_CHECKPOINT_KIND {
                return Err(CheckpointError::WrongKind {
                    expected: OPTIMIZE_CHECKPOINT_KIND.to_string(),
                    found: ckpt.kind().to_string(),
                });
            }
            let descent = Descent::from_checkpoint(ckpt, circuit, fingerprint)?;
            // The live list is derived state: the original fault list
            // minus the checkpointed exclusions, in list order.
            let excluded: std::collections::HashSet<FaultId> =
                descent.excluded.iter().copied().collect();
            let live_list: FaultList = faults
                .iter()
                .filter(|(id, _)| !excluded.contains(id))
                .map(|(_, f)| f)
                .collect();
            if live_list.len() != descent.dprobs.len() {
                return Err(CheckpointError::Corrupt {
                    reason: format!(
                        "checkpoint carries {} detection probabilities for {} live faults",
                        descent.dprobs.len(),
                        live_list.len()
                    ),
                });
            }
            (descent, live_list)
        }
        None => match init_descent(circuit, faults, engine, config) {
            Err(hopeless) => {
                return Ok(BudgetedOptimize {
                    outcome: RunOutcome::Complete(hopeless),
                    checkpoint: None,
                })
            }
            Ok(ready) => ready,
        },
    };
    let tripped = run_sweeps(
        circuit,
        &live_list,
        engine,
        config,
        &mut descent,
        Some(budget),
    );
    match tripped {
        None => Ok(BudgetedOptimize {
            outcome: RunOutcome::Complete(descent.into_result()),
            checkpoint: None,
        }),
        Some(reason) => {
            let progress = Progress {
                done: descent.sweeps.len() as u64,
                total: Some(config.max_sweeps as u64),
                unit: "sweeps",
            };
            let checkpoint = descent.to_checkpoint(fingerprint, circuit);
            Ok(BudgetedOptimize {
                outcome: RunOutcome::Interrupted {
                    partial: descent.into_result(),
                    reason,
                    progress,
                },
                checkpoint: Some(checkpoint),
            })
        }
    }
}

/// Deterministic ±1 from a SplitMix64-style hash of the input index.
fn jitter_sign(i: usize) -> f64 {
    let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    if (z ^ (z >> 31)) & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_estimate::{CopEngine, ExactEngine, MonteCarloEngine, StafanEngine};

    fn wide_and(k: usize) -> Circuit {
        let mut src = String::from("OUTPUT(y)\n");
        let mut args = Vec::new();
        for i in 0..k {
            src.push_str(&format!("INPUT(x{i})\n"));
            args.push(format!("x{i}"));
        }
        src.push_str(&format!("y = AND({})\n", args.join(", ")));
        wrt_circuit::parse_bench(&src).unwrap()
    }

    #[test]
    fn wide_and_drives_weights_up() {
        let c = wide_and(10);
        let faults = FaultList::checkpoints(&c);
        let mut engine = CopEngine::new();
        let result = optimize(&c, &faults, &mut engine, &OptimizeConfig::default());
        // The hardest fault (y s-a-0 class needs all-ones) wants x_i → 1,
        // but each x_i s-a-1 needs x_i = 0 with the others 1, pulling back
        // from the boundary: weights end high but interior.
        for (i, &w) in result.weights.iter().enumerate() {
            assert!(w > 0.6, "weight {i} = {w}");
            assert!(w < 0.98 + 1e-9, "weight {i} = {w}");
        }
        assert!(
            result.improvement_factor() > 10.0,
            "improvement {}",
            result.improvement_factor()
        );
    }

    #[test]
    fn optimized_length_never_worse_than_initial() {
        let c = wide_and(6);
        let faults = FaultList::full(&c);
        let mut engine = CopEngine::new();
        let result = optimize(&c, &faults, &mut engine, &OptimizeConfig::default());
        assert!(result.final_length <= result.initial_length);
        assert!(!result.sweeps.is_empty());
    }

    #[test]
    fn lengths_beyond_ten_to_the_eighteen_still_descend() {
        // A 64-input AND: its output s-a-0 and every pin s-a-1 need
        // (nearly) all ones, p ≈ 2^-64 at the start, so N starts above
        // 1e20.  The descent must still run and end finite below its
        // start.  (The full list, not the checkpoints: COP's stem
        // observability `1 − (1 − 2^-63)` rounds to 0, so every checkpoint
        // fault of this AND reads p = 0 and is excluded.)
        let c = wide_and(64);
        let faults = FaultList::full(&c);
        let result = optimize(
            &c,
            &faults,
            &mut CopEngine::new(),
            &OptimizeConfig::default(),
        );
        assert!(
            result.initial_length > 1e18,
            "start {}",
            result.initial_length
        );
        assert!(!result.sweeps.is_empty());
        assert!(result.final_length.is_finite());
        assert!(
            result.final_length < result.initial_length,
            "{} -> {}",
            result.initial_length,
            result.final_length
        );
    }

    #[test]
    fn exact_engine_small_circuit() {
        // 4-input AND with the exact engine: ground-truth optimization.
        let c = wide_and(4);
        let faults = FaultList::checkpoints(&c);
        let mut engine = ExactEngine::new(8);
        let result = optimize(&c, &faults, &mut engine, &OptimizeConfig::default());
        assert!(result.improvement_factor() > 1.2);
    }

    #[test]
    fn undetectable_faults_are_excluded_not_fatal() {
        // `dead` reaches no output: observability 0, so p = 0 for the COP
        // engine and the optimizer must set those faults aside.
        let c = wrt_circuit::parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ndead = XOR(a, b)\ny = AND(a, b)\n",
        )
        .unwrap();
        let faults = FaultList::full(&c);
        let mut engine = CopEngine::new();
        let result = optimize(&c, &faults, &mut engine, &OptimizeConfig::default());
        assert!(!result.excluded.is_empty(), "dead-node faults have p = 0");
        assert!(result.final_length.is_finite());
    }

    #[test]
    fn confidence_met_at_zero_patterns_returns_the_start_vector() {
        // θ = −ln 0.01 ≈ 4.6 exceeds the fault count, so N = 0 already
        // meets the target and there is nothing to minimize.
        let c = wide_and(2);
        let faults = FaultList::checkpoints(&c);
        assert!((faults.len() as f64) <= -(0.01f64).ln());
        let config = OptimizeConfig {
            confidence: 0.01,
            starting_weights: Some(vec![0.3, 0.6]),
            ..OptimizeConfig::default()
        };
        let result = optimize(&c, &faults, &mut CopEngine::new(), &config);
        assert_eq!(result.weights, vec![0.3, 0.6]);
        assert!(result.sweeps.is_empty());
        assert_eq!((result.initial_length, result.final_length), (0.0, 0.0));
        assert_eq!(result.improvement_factor(), 1.0);
    }

    #[test]
    fn starting_weights_are_respected() {
        let c = wide_and(5);
        let faults = FaultList::checkpoints(&c);
        let mut engine = CopEngine::new();
        let config = OptimizeConfig {
            starting_weights: Some(vec![0.9; 5]),
            max_sweeps: 0,
            ..OptimizeConfig::default()
        };
        let result = optimize(&c, &faults, &mut engine, &config);
        assert_eq!(result.weights, vec![0.9; 5]);
        assert!((result.initial_length - result.final_length).abs() < 1e-9);
    }

    #[test]
    fn scoap_seed_populates_starting_weights_within_bounds() {
        let c = wide_and(12);
        let config = OptimizeConfig::default().scoap_seeded(&c);
        let weights = config.starting_weights.as_ref().expect("seed set");
        assert_eq!(weights.len(), c.num_inputs());
        let (lo, hi) = config.weight_bounds;
        assert!(weights.iter().all(|&w| (lo..=hi).contains(&w)));
        // A wide AND wants each input biased toward 1.
        assert!(weights.iter().all(|&w| w > 0.5), "{weights:?}");
    }

    #[test]
    fn scoap_seed_starts_no_worse_than_it_ends() {
        // The seeded start must still converge (the descent is free to
        // move away from it); on the wide AND the seed alone is already
        // near-optimal, so the initial length beats the 0.5 start's.
        let c = wide_and(12);
        let faults = FaultList::checkpoints(&c);
        let mut engine = CopEngine::new();
        let seeded = optimize(
            &c,
            &faults,
            &mut engine,
            &OptimizeConfig::default().scoap_seeded(&c),
        );
        let plain = optimize(&c, &faults, &mut engine, &OptimizeConfig::default());
        assert!(seeded.final_length <= seeded.initial_length + 1e-9);
        assert!(
            seeded.initial_length < plain.initial_length,
            "seeded start {} vs equiprobable start {}",
            seeded.initial_length,
            plain.initial_length
        );
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0, 1)")]
    fn bad_confidence_panics() {
        let c = wide_and(2);
        let faults = FaultList::checkpoints(&c);
        let mut engine = CopEngine::new();
        let config = OptimizeConfig {
            confidence: 1.5,
            ..OptimizeConfig::default()
        };
        let _ = optimize(&c, &faults, &mut engine, &config);
    }

    fn equality_circuit(width: usize) -> Circuit {
        // AND of per-bit XNORs: perfectly symmetric under x ↔ 1-x.
        let mut b = wrt_circuit::CircuitBuilder::named("eq");
        let xs: Vec<_> = (0..width).map(|i| b.input(format!("A{i}"))).collect();
        let ys: Vec<_> = (0..width).map(|i| b.input(format!("B{i}"))).collect();
        let bits: Vec<_> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| b.gate_auto(wrt_circuit::GateKind::Xnor, &[x, y]).unwrap())
            .collect();
        let eq = b.gate(wrt_circuit::GateKind::And, "EQ", &bits).unwrap();
        b.mark_output(eq);
        b.build().unwrap()
    }

    #[test]
    fn jitter_breaks_the_comparator_saddle() {
        let c = equality_circuit(8);
        let eq = c.node_id("EQ").unwrap();
        let faults = FaultList::from_faults(vec![wrt_fault::Fault::output(eq, false)]);

        // Without jitter: exactly 0.5 everywhere is a stationary point of
        // every coordinate subproblem; nothing moves.
        let frozen = OptimizeConfig {
            jitter: 0.0,
            ..OptimizeConfig::default()
        };
        let mut engine = CopEngine::new();
        let stuck = optimize(&c, &faults, &mut engine, &frozen);
        assert!(
            stuck.improvement_factor() < 1.01,
            "factor {}",
            stuck.improvement_factor()
        );

        // Default jitter unlocks the cascade toward a corner: each bit
        // pair aligns and P(EQ = 1) grows by orders of magnitude.
        let moving = optimize(&c, &faults, &mut engine, &OptimizeConfig::default());
        assert!(
            moving.improvement_factor() > 100.0,
            "factor {}",
            moving.improvement_factor()
        );
        // Pairs agreed on a common corner.
        for i in 0..8 {
            let a = moving.weights[i];
            let b = moving.weights[8 + i];
            assert!(
                (a - 0.5) * (b - 0.5) > 0.0,
                "pair {i} disagrees: {a} vs {b}"
            );
        }
    }

    #[test]
    fn engine_call_budget_matches_structure() {
        // engine calls = 1 initial + per sweep (2·inputs + 1).
        let c = wide_and(3);
        let faults = FaultList::checkpoints(&c);
        let mut engine = CopEngine::new();
        let config = OptimizeConfig {
            max_sweeps: 2,
            min_improvement: 0.0, // always continue to the cap
            ..OptimizeConfig::default()
        };
        let result = optimize(&c, &faults, &mut engine, &config);
        let sweeps = result.sweeps.len();
        assert_eq!(result.engine_calls, 1 + sweeps * (2 * 3 + 1));
    }

    fn assert_same_result(got: &OptimizeResult, reference: &OptimizeResult, what: &str) {
        assert_eq!(got.weights, reference.weights, "{what}: weights");
        assert_eq!(
            got.final_length.to_bits(),
            reference.final_length.to_bits(),
            "{what}: final length"
        );
        assert_eq!(
            got.initial_length.to_bits(),
            reference.initial_length.to_bits(),
            "{what}: initial length"
        );
        assert_eq!(got.sweeps, reference.sweeps, "{what}: sweep history");
        assert_eq!(got.excluded, reference.excluded, "{what}: exclusions");
        assert_eq!(got.engine_calls, reference.engine_calls, "{what}: calls");
    }

    #[test]
    fn budgeted_with_unlimited_budget_matches_optimize_bit_for_bit() {
        let c = wide_and(8);
        let faults = FaultList::checkpoints(&c);
        let config = OptimizeConfig::default();
        let mut engine = CopEngine::new();
        let reference = optimize(&c, &faults, &mut engine, &config);
        let mut engine = CopEngine::new();
        let run = optimize_budgeted(
            &c,
            &faults,
            &mut engine,
            &config,
            &wrt_robust::Budget::unlimited(),
            None,
        )
        .expect("no checkpoint involved");
        assert!(run.checkpoint.is_none());
        match run.outcome {
            RunOutcome::Complete(got) => assert_same_result(&got, &reference, "unbudgeted"),
            RunOutcome::Interrupted { .. } => panic!("unlimited budget must not interrupt"),
        }
    }

    #[test]
    fn resume_after_eval_interruption_is_bit_identical_to_uninterrupted() {
        // Interrupt the descent after k sweeps via the eval (= engine
        // call) axis, round-trip the checkpoint through its on-disk text,
        // and resume with a *fresh* engine: the completed run must match
        // the never-interrupted reference bit for bit.
        let c = wide_and(8);
        let num_inputs = 8;
        let faults = FaultList::checkpoints(&c);
        let config = OptimizeConfig {
            min_improvement: 0.0, // keep sweeping to the cap
            max_sweeps: 6,
            ..OptimizeConfig::default()
        };
        let mut engine = CopEngine::new();
        let reference = optimize(&c, &faults, &mut engine, &config);
        assert!(reference.sweeps.len() >= 3, "need room to interrupt");

        for k in [0usize, 1, 2] {
            // engine calls after k sweeps = 1 + k·(2·inputs + 1); the
            // check-in at the start of sweep k+1 sees exactly that value.
            let calls_after_k = 1 + k * (2 * num_inputs + 1);
            let budget = wrt_robust::Budget::unlimited().with_max_evals(calls_after_k as u64);
            let mut engine = CopEngine::new();
            let run = optimize_budgeted(&c, &faults, &mut engine, &config, &budget, None)
                .expect("fresh run");
            let ckpt = run.checkpoint.expect("interrupted run must checkpoint");
            match &run.outcome {
                RunOutcome::Interrupted {
                    partial,
                    reason,
                    progress,
                } => {
                    assert_eq!(*reason, BudgetExceeded::Evals);
                    assert_eq!(progress.done, k as u64);
                    assert_eq!(progress.unit, "sweeps");
                    assert_eq!(partial.sweeps.len(), k);
                }
                RunOutcome::Complete(_) => panic!("budget {calls_after_k} must interrupt"),
            }

            // Simulate the disk round trip.
            let ckpt = Checkpoint::parse(&ckpt.render(), OPTIMIZE_CHECKPOINT_KIND)
                .expect("checkpoint round-trips");

            let mut fresh = CopEngine::new();
            let resumed = optimize_budgeted(
                &c,
                &faults,
                &mut fresh,
                &config,
                &wrt_robust::Budget::unlimited(),
                Some(&ckpt),
            )
            .expect("resume validates");
            match resumed.outcome {
                RunOutcome::Complete(got) => {
                    assert_same_result(&got, &reference, &format!("resume after sweep {k}"));
                }
                RunOutcome::Interrupted { .. } => panic!("resumed run must complete"),
            }
        }
    }

    /// A [`CopEngine`] that sets a cancel token once it has answered
    /// `after` estimates.
    struct CancelAfter {
        inner: CopEngine,
        calls: usize,
        after: usize,
        token: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl DetectionProbabilityEngine for CancelAfter {
        fn estimate(&mut self, circuit: &Circuit, faults: &FaultList, probs: &[f64]) -> Vec<f64> {
            self.calls += 1;
            if self.calls >= self.after {
                self.token.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            self.inner.estimate(circuit, faults, probs)
        }

        fn name(&self) -> &'static str {
            "cancel-after"
        }
    }

    #[test]
    fn cancellation_inside_a_sweep_resumes_bit_identically() {
        let c = wide_and(8);
        let faults = FaultList::checkpoints(&c);
        let config = OptimizeConfig {
            min_improvement: 0.0,
            max_sweeps: 6,
            ..OptimizeConfig::default()
        };
        let reference = optimize(&c, &faults, &mut CopEngine::new(), &config);
        // One sweep is 2·8 + 1 = 17 calls after the initial ANALYSIS:
        // these trip inside sweeps 1, 1, 2 and 3.
        for after in [2usize, 9, 24, 45] {
            let mut budget = wrt_robust::Budget::unlimited();
            let mut engine = CancelAfter {
                inner: CopEngine::new(),
                calls: 0,
                after,
                token: budget.cancel_token(),
            };
            let run = optimize_budgeted(&c, &faults, &mut engine, &config, &budget, None)
                .expect("fresh run");
            assert_eq!(
                run.outcome.interrupt_reason(),
                Some(BudgetExceeded::Cancelled)
            );
            let partial = run.outcome.value();
            assert_eq!(partial.sweeps.len(), (after - 1) / 17, "after {after}");
            assert_eq!(partial.engine_calls, 1 + partial.sweeps.len() * 17);
            let ckpt = run.checkpoint.expect("interrupted run must checkpoint");
            let ckpt = Checkpoint::parse(&ckpt.render(), OPTIMIZE_CHECKPOINT_KIND).unwrap();
            let resumed = optimize_budgeted(
                &c,
                &faults,
                &mut CopEngine::new(),
                &config,
                &wrt_robust::Budget::unlimited(),
                Some(&ckpt),
            )
            .expect("resume validates");
            assert_same_result(
                &resumed.outcome.into_value(),
                &reference,
                &format!("cancel after {after}"),
            );
        }
    }

    #[test]
    fn resume_with_a_sampling_engine_is_bit_identical_to_uninterrupted() {
        // A sampling engine's estimate depends on its inputs alone, so a
        // fresh engine resuming a checkpoint draws exactly the samples the
        // uninterrupted run drew after the interruption.
        let c = wide_and(8);
        let faults = FaultList::checkpoints(&c);
        let config = OptimizeConfig {
            min_improvement: 0.0,
            max_sweeps: 4,
            ..OptimizeConfig::default()
        };
        let engines: [fn() -> Box<dyn DetectionProbabilityEngine>; 2] = [
            || Box::new(StafanEngine::new(64 * 8, 3)),
            || Box::new(MonteCarloEngine::new(64 * 8, 3)),
        ];
        for make in engines {
            let reference = optimize(&c, &faults, make().as_mut(), &config);
            let name = make().name();
            assert!(
                reference.sweeps.len() >= 2,
                "{name}: need room to interrupt"
            );
            // Interrupt at the start of the second sweep.
            let budget = wrt_robust::Budget::unlimited().with_max_evals(1 + 2 * 8 + 1);
            let run = optimize_budgeted(&c, &faults, make().as_mut(), &config, &budget, None)
                .expect("fresh run");
            assert_eq!(run.outcome.interrupt_reason(), Some(BudgetExceeded::Evals));
            let ckpt = run.checkpoint.expect("interrupted run must checkpoint");
            let resumed = optimize_budgeted(
                &c,
                &faults,
                make().as_mut(),
                &config,
                &wrt_robust::Budget::unlimited(),
                Some(&ckpt),
            )
            .expect("resume validates");
            assert!(
                resumed.outcome.is_complete(),
                "{name}: resumed run must complete"
            );
            assert_same_result(&resumed.outcome.into_value(), &reference, name);
        }
    }

    #[test]
    fn resume_rejects_a_checkpoint_from_a_different_run() {
        let c = wide_and(6);
        let faults = FaultList::checkpoints(&c);
        let config = OptimizeConfig {
            min_improvement: 0.0,
            max_sweeps: 4,
            ..OptimizeConfig::default()
        };
        let budget = wrt_robust::Budget::unlimited().with_max_evals(1);
        let mut engine = CopEngine::new();
        let run = optimize_budgeted(&c, &faults, &mut engine, &config, &budget, None).unwrap();
        let ckpt = run.checkpoint.expect("interrupted");

        // Same checkpoint, different config: the fingerprint must refuse.
        let other_config = OptimizeConfig {
            max_sweeps: 9,
            ..config.clone()
        };
        let mut engine = CopEngine::new();
        let err = optimize_budgeted(
            &c,
            &faults,
            &mut engine,
            &other_config,
            &wrt_robust::Budget::unlimited(),
            Some(&ckpt),
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");

        // A structural twin — same input/node/fault counts, different
        // gates — slips past the count-only fingerprint; the recorded
        // structural digest must refuse it.
        let mut src = String::from("OUTPUT(y)\n");
        for i in 0..6 {
            src.push_str(&format!("INPUT(x{i})\n"));
        }
        src.push_str("y = OR(x0, x1, x2, x3, x4, x5)\n");
        let twin = wrt_circuit::parse_bench(&src).unwrap();
        let twin_faults = FaultList::checkpoints(&twin);
        assert_eq!(twin_faults.len(), faults.len(), "twin must match counts");
        assert_ne!(twin.structural_digest(), c.structural_digest());
        let mut engine = CopEngine::new();
        let err = optimize_budgeted(
            &twin,
            &twin_faults,
            &mut engine,
            &config,
            &wrt_robust::Budget::unlimited(),
            Some(&ckpt),
        )
        .unwrap_err();
        assert!(err.to_string().contains("structural digest"), "{err}");

        // A checkpoint of some other subsystem must be a WrongKind error.
        let foreign = Checkpoint::new("atpg");
        let mut engine = CopEngine::new();
        let err = optimize_budgeted(
            &c,
            &faults,
            &mut engine,
            &config,
            &wrt_robust::Budget::unlimited(),
            Some(&foreign),
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::WrongKind { .. }), "{err}");
    }
}

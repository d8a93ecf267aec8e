//! Batch test generation with fault dropping.
//!
//! [`generate_tests`] is the plain driver; [`generate_tests_budgeted`]
//! runs the same loop under a [`Budget`] with fault-boundary check-ins
//! (deadline and cancellation also after every PODEM decision) and
//! checkpoint/resume.  The budget's *backtrack* axis counts total
//! PODEM backtracks (the search-effort metric), its *eval* axis counts
//! PODEM invocations; both are machine-independent, so interrupting on
//! either axis is deterministic and the checkpointed state resumes
//! bit-identically (random fill continues from the saved RNG state).
//! Deadline and cancellation trips are timing-dependent; their partial
//! reports are well-formed but not reproducible.

use wrt_analyze::Scoap;
use wrt_circuit::Circuit;
use wrt_fault::{FaultId, FaultList};
use wrt_robust::{
    Budget, BudgetExceeded, Checkpoint, CheckpointError, DegradeStep, Ladder, Progress, RunOutcome,
};
use wrt_sim::{EventSimulator, FaultWorklist, Xoshiro256};

use crate::patterns::PatternSet;
use crate::podem::{AtpgOutcome, Podem};

/// Which controllability model steers the PODEM backtrace.
///
/// The choice never changes which faults end up detected or redundant
/// (PODEM's search is complete); it only changes how many backtracks the
/// search spends getting there, which [`AtpgReport::backtracks`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BacktraceGuidance {
    /// First-unknown-fanin baseline; no cost model.
    Unguided,
    /// COP signal probabilities at equiprobable inputs (the default).
    #[default]
    Cop,
    /// SCOAP integer controllability costs (`wrt_analyze`).
    Scoap,
}

/// Configuration for [`generate_tests`].
#[derive(Debug, Clone)]
pub struct AtpgConfig {
    /// PODEM backtrack limit per fault.
    pub backtrack_limit: usize,
    /// Fill don't-care bits randomly (seeded) instead of with 0 — random
    /// fill lets each deterministic pattern drop many additional faults.
    pub random_fill_seed: Option<u64>,
    /// Controllability model for the backtrace input choice.
    pub guidance: BacktraceGuidance,
    /// Graceful degradation: when a *guided* search aborts at the
    /// backtrack limit, retry that fault once with the unguided backtrace
    /// (a different descent order sometimes escapes a guidance-induced
    /// thrashing region).  Off by default; each retry is recorded on the
    /// degradation ladder.
    pub degrade_on_abort: bool,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            backtrack_limit: 10_000,
            random_fill_seed: Some(0x5EED),
            guidance: BacktraceGuidance::default(),
            degrade_on_abort: false,
        }
    }
}

/// Outcome of a batch ATPG run.
#[derive(Debug, Clone)]
pub struct AtpgReport {
    /// The generated test set (don't-cares filled), bit-packed — one bit
    /// per primary input, not one heap `Vec` per pattern.
    pub tests: PatternSet,
    /// Faults detected (by a generated test or by dropping).
    pub detected: Vec<FaultId>,
    /// Faults proven redundant.
    pub redundant: Vec<FaultId>,
    /// Faults aborted at the backtrack limit.
    pub aborted: Vec<FaultId>,
    /// Faults never handed to PODEM because the budget tripped first
    /// (always empty on complete runs) — the survivor worklist a resumed
    /// run picks up.
    pub survivors: Vec<FaultId>,
    /// Number of PODEM invocations (≤ fault count thanks to dropping).
    pub podem_calls: usize,
    /// Total backtracks across all PODEM invocations — the search-effort
    /// metric that backtrace guidance models are compared on.
    pub backtracks: usize,
}

impl AtpgReport {
    /// Fault coverage over the faults PODEM reached or dropping caught:
    /// `detected / (detected + aborted)`, 1.0 when both are empty.
    /// Redundant faults and [`survivors`](Self::survivors) count in
    /// neither, so an interrupted run with no aborts reports 100 %.
    pub fn coverage(&self) -> f64 {
        let detectable = self.detected.len() + self.aborted.len();
        if detectable == 0 {
            return 1.0;
        }
        self.detected.len() as f64 / detectable as f64
    }
}

/// Runs PODEM over every fault in `faults`, fault-simulating each
/// generated pattern against the remaining targets (fault dropping).
///
/// Faults already detected by an earlier pattern are never handed to
/// PODEM, which is what makes deterministic ATPG economical — and what
/// the paper's §5.2 accelerates further by *pre-dropping* with optimized
/// random patterns before any PODEM call.
pub fn generate_tests(circuit: &Circuit, faults: &FaultList, config: &AtpgConfig) -> AtpgReport {
    let mut state = AtpgState::fresh(circuit.num_inputs(), faults.len(), config);
    let tripped = run_atpg_loop(circuit, faults, config, &mut state, None);
    debug_assert!(tripped.is_none(), "unbudgeted ATPG cannot be interrupted");
    state.into_report(faults).0
}

/// The resumable state of the batch loop at a fault boundary.
struct AtpgState {
    detected: Vec<bool>,
    tests: PatternSet,
    redundant: Vec<FaultId>,
    aborted: Vec<FaultId>,
    podem_calls: usize,
    backtracks: usize,
    /// Lowest fault index not yet attempted.
    next_index: usize,
    rng: Option<Xoshiro256>,
    ladder: Ladder,
}

impl AtpgState {
    fn fresh(num_inputs: usize, num_faults: usize, config: &AtpgConfig) -> Self {
        AtpgState {
            detected: vec![false; num_faults],
            tests: PatternSet::new(num_inputs),
            redundant: Vec::new(),
            aborted: Vec::new(),
            podem_calls: 0,
            backtracks: 0,
            next_index: 0,
            rng: config.random_fill_seed.map(Xoshiro256::seed_from),
            ladder: Ladder::new(),
        }
    }

    /// Finalizes into a report plus the degradation ladder.  Faults past
    /// `next_index` that are neither detected nor classified are the
    /// survivors of an interrupted run.
    fn into_report(self, faults: &FaultList) -> (AtpgReport, Ladder) {
        let detected: Vec<FaultId> = self
            .detected
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(k, _)| FaultId::from_index(k))
            .collect();
        let survivors: Vec<FaultId> = (self.next_index..faults.len())
            .map(FaultId::from_index)
            .filter(|id| !self.detected[id.index()])
            .collect();
        let report = AtpgReport {
            tests: self.tests,
            detected,
            redundant: self.redundant,
            aborted: self.aborted,
            survivors,
            podem_calls: self.podem_calls,
            backtracks: self.backtracks,
        };
        (report, self.ladder)
    }

    /// Serializes the state at the current fault boundary.
    fn to_checkpoint(&self, fingerprint: u64, circuit: &Circuit) -> Checkpoint {
        let mut c = Checkpoint::new(ATPG_CHECKPOINT_KIND);
        c.put("fingerprint", format!("{fingerprint:016x}"));
        c.put_circuit_identity(circuit.structural_digest(), circuit.uid());
        c.put("num_faults", self.detected.len());
        c.put("next_index", self.next_index);
        c.put("podem_calls", self.podem_calls);
        c.put("backtracks", self.backtracks);
        let detected: Vec<u64> = self
            .detected
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(k, _)| k as u64)
            .collect();
        c.put_u64_slice("detected", &detected);
        let ids = |v: &[FaultId]| -> Vec<u64> { v.iter().map(|id| id.index() as u64).collect() };
        c.put_u64_slice("redundant", &ids(&self.redundant));
        c.put_u64_slice("aborted", &ids(&self.aborted));
        // Tests as comma-joined 0/1 bitstrings (one per pattern) — the
        // text format predates the bit-packed store and is preserved.
        let tests: Vec<String> = self
            .tests
            .iter()
            .map(|t| t.map(|b| if b { '1' } else { '0' }).collect())
            .collect();
        c.put("tests", tests.join(","));
        // RNG mid-stream state; empty when fill is deterministic zeros.
        c.put_u64_slice(
            "rng_state",
            &self.rng.as_ref().map_or(Vec::new(), |r| r.state().to_vec()),
        );
        c
    }

    /// Rebuilds the state from a checkpoint written by
    /// [`AtpgState::to_checkpoint`], validating the run fingerprint.
    fn from_checkpoint(
        ckpt: &Checkpoint,
        circuit: &Circuit,
        faults: &FaultList,
        config: &AtpgConfig,
        fingerprint: u64,
    ) -> Result<Self, CheckpointError> {
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
        let num_faults: usize = ckpt.get_parse("num_faults")?;
        if num_faults != faults.len() {
            return Err(CheckpointError::Corrupt {
                reason: format!(
                    "checkpoint is for {num_faults} faults, this list has {}",
                    faults.len()
                ),
            });
        }
        let mut detected = vec![false; num_faults];
        for k in ckpt.get_u64_slice("detected")? {
            let k = k as usize;
            if k >= num_faults {
                return Err(CheckpointError::Corrupt {
                    reason: format!("detected fault index {k} out of range"),
                });
            }
            detected[k] = true;
        }
        let to_ids = |key: &str| -> Result<Vec<FaultId>, CheckpointError> {
            ckpt.get_u64_slice(key)?
                .into_iter()
                .map(|k| {
                    let k = k as usize;
                    if k >= num_faults {
                        return Err(CheckpointError::Corrupt {
                            reason: format!("{key} fault index {k} out of range"),
                        });
                    }
                    Ok(FaultId::from_index(k))
                })
                .collect()
        };
        let raw_tests = ckpt.get("tests")?;
        let mut tests = PatternSet::new(num_inputs);
        let mut bits: Vec<bool> = Vec::with_capacity(num_inputs);
        for pattern in raw_tests.split(',').filter(|p| !p.is_empty()) {
            bits.clear();
            for ch in pattern.chars() {
                bits.push(match ch {
                    '0' => false,
                    '1' => true,
                    other => {
                        return Err(CheckpointError::Corrupt {
                            reason: format!("test bitstring holds `{other}`"),
                        })
                    }
                });
            }
            if bits.len() != num_inputs {
                return Err(CheckpointError::Corrupt {
                    reason: format!(
                        "test bitstring is {} bits wide, circuit has {num_inputs} inputs",
                        bits.len()
                    ),
                });
            }
            tests.push(&bits);
        }
        let rng_words = ckpt.get_u64_slice("rng_state")?;
        let rng = match (rng_words.len(), config.random_fill_seed) {
            (0, None) => None,
            (4, Some(_)) => Some(Xoshiro256::from_state([
                rng_words[0],
                rng_words[1],
                rng_words[2],
                rng_words[3],
            ])),
            _ => {
                return Err(CheckpointError::Corrupt {
                    reason: "rng_state does not match the configured fill mode".to_string(),
                })
            }
        };
        Ok(AtpgState {
            detected,
            tests,
            redundant: to_ids("redundant")?,
            aborted: to_ids("aborted")?,
            podem_calls: ckpt.get_parse("podem_calls")?,
            backtracks: ckpt.get_parse("backtracks")?,
            next_index: ckpt.get_parse("next_index")?,
            rng,
            ladder: Ladder::new(),
        })
    }
}

/// PODEM with the configured backtrace guidance and backtrack limit.
fn guided_podem<'c>(circuit: &'c Circuit, config: &AtpgConfig) -> Podem<'c> {
    match config.guidance {
        BacktraceGuidance::Unguided => Podem::unguided(circuit),
        BacktraceGuidance::Cop => Podem::new(circuit),
        BacktraceGuidance::Scoap => Podem::with_backtrace_costs(circuit, &Scoap::compute(circuit)),
    }
    .with_backtrack_limit(config.backtrack_limit)
}

/// The shared fault loop.  Returns `Some(reason)` when the budget
/// tripped, at a fault boundary or inside a PODEM search (state is left
/// at the boundary before that fault either way).
fn run_atpg_loop(
    circuit: &Circuit,
    faults: &FaultList,
    config: &AtpgConfig,
    state: &mut AtpgState,
    budget: Option<&Budget>,
) -> Option<BudgetExceeded> {
    let podem = guided_podem(circuit, config);
    // The unguided fallback for `degrade_on_abort` (pointless when the
    // primary search is already unguided).
    let fallback = (config.degrade_on_abort && config.guidance != BacktraceGuidance::Unguided)
        .then(|| Podem::unguided(circuit).with_backtrack_limit(config.backtrack_limit));
    // Fault dropping runs on the event kernel, one test per pass with 64
    // region heads to a propagation, over the still-undetected faults —
    // rebuilt from `detected`, so a resumed run picks up exactly where
    // its checkpoint left off.
    let mut sim = EventSimulator::<1>::new(circuit, faults);
    let undetected: Vec<bool> = state.detected.iter().map(|&d| !d).collect();
    let mut worklist = FaultWorklist::from_active(&undetected);

    for (id, fault) in faults.iter() {
        if id.index() < state.next_index {
            continue;
        }
        if state.detected[id.index()] {
            state.next_index = id.index() + 1;
            continue;
        }
        if let Some(budget) = budget {
            state.next_index = id.index();
            if let Err(reason) = budget.check_in(state.podem_calls as u64, state.backtracks as u64)
            {
                return Some(reason);
            }
        }
        // A budget trip inside a search abandons it: the counters go back
        // to this fault's boundary, where `next_index` already stands.
        let boundary = (state.podem_calls, state.backtracks);
        state.podem_calls += 1;
        let (mut outcome, backtracks) = match podem.search(fault, budget) {
            Ok(result) => result,
            Err(reason) => {
                (state.podem_calls, state.backtracks) = boundary;
                return Some(reason);
            }
        };
        state.backtracks += backtracks;
        if outcome == AtpgOutcome::Aborted {
            if let Some(fb) = &fallback {
                state.podem_calls += 1;
                let (retry, retry_backtracks) = match fb.search(fault, budget) {
                    Ok(result) => result,
                    Err(reason) => {
                        (state.podem_calls, state.backtracks) = boundary;
                        return Some(reason);
                    }
                };
                state.ladder.record(
                    DegradeStep::GuidedToUnguided,
                    format!("fault {} aborted at {backtracks} backtracks", id.index()),
                );
                state.backtracks += retry_backtracks;
                outcome = retry;
            }
        }
        match outcome {
            AtpgOutcome::Redundant => state.redundant.push(id),
            AtpgOutcome::Aborted => state.aborted.push(id),
            AtpgOutcome::Test(pattern) => {
                let filled: Vec<bool> = pattern
                    .iter()
                    .map(|bit| {
                        bit.unwrap_or_else(|| match &mut state.rng {
                            Some(r) => r.next_u64() & 1 == 1,
                            None => false,
                        })
                    })
                    .collect();
                // Drop every fault this pattern detects.
                sim.detect_pattern_worklist(&filled, &mut worklist, |k| state.detected[k] = true);
                // The targeted fault must be among them.
                debug_assert!(state.detected[id.index()], "PODEM test failed simulation");
                state.detected[id.index()] = true;
                state.tests.push(&filled);
            }
        }
        state.next_index = id.index() + 1;
    }
    None
}

/// The checkpoint `kind` tag of batch-ATPG state.
pub const ATPG_CHECKPOINT_KIND: &str = "atpg";

/// Fingerprint of everything an ATPG resume must hold fixed.
fn run_fingerprint(circuit: &Circuit, faults: &FaultList, config: &AtpgConfig) -> u64 {
    let text = format!(
        "inputs={} nodes={} faults={} backtrack_limit={} fill={:?} guidance={:?} degrade={}",
        circuit.num_inputs(),
        circuit.num_nodes(),
        faults.len(),
        config.backtrack_limit,
        config.random_fill_seed,
        config.guidance,
        config.degrade_on_abort,
    );
    wrt_robust::fnv1a(text.bytes())
}

/// A budgeted batch-ATPG run: the (possibly partial) report, the
/// degradation ladder, and — when interrupted — the resume checkpoint.
#[derive(Debug)]
pub struct BudgetedAtpg {
    /// The run outcome; `Interrupted` carries the partial report, whose
    /// `survivors` field lists the faults never attempted.
    pub outcome: RunOutcome<AtpgReport>,
    /// `degrade_on_abort` retries this run performed (never checkpointed:
    /// the ladder is per-run diagnostics).
    pub ladder: Ladder,
    /// Resume state at the last fault boundary (`Some` iff interrupted).
    pub checkpoint: Option<Checkpoint>,
}

/// [`generate_tests`] under a [`Budget`], with checkpoint/resume.
///
/// The budget is checked before each PODEM target: the *eval* axis
/// counts PODEM invocations, the *backtrack* axis total backtracks.
/// Both are machine-independent, so interrupting on either axis is
/// deterministic.  The deadline and cancellation are also checked after
/// every decision of a search; a trip there abandons the search and
/// leaves the state at that fault's boundary.  Resuming from the returned checkpoint (same circuit,
/// fault list, and config) continues bit-identically — including the
/// random-fill stream, whose mid-run RNG state the checkpoint carries.
///
/// # Errors
///
/// [`CheckpointError`] when `resume` does not validate against this
/// circuit/fault-list/config combination.  No work is performed then.
pub fn generate_tests_budgeted(
    circuit: &Circuit,
    faults: &FaultList,
    config: &AtpgConfig,
    budget: &Budget,
    resume: Option<&Checkpoint>,
) -> Result<BudgetedAtpg, CheckpointError> {
    let fingerprint = run_fingerprint(circuit, faults, config);
    let mut state = match resume {
        Some(ckpt) => {
            if ckpt.kind() != ATPG_CHECKPOINT_KIND {
                return Err(CheckpointError::WrongKind {
                    expected: ATPG_CHECKPOINT_KIND.to_string(),
                    found: ckpt.kind().to_string(),
                });
            }
            AtpgState::from_checkpoint(ckpt, circuit, faults, config, fingerprint)?
        }
        None => AtpgState::fresh(circuit.num_inputs(), faults.len(), config),
    };
    let tripped = run_atpg_loop(circuit, faults, config, &mut state, Some(budget));
    match tripped {
        None => {
            let (report, ladder) = state.into_report(faults);
            Ok(BudgetedAtpg {
                outcome: RunOutcome::Complete(report),
                ladder,
                checkpoint: None,
            })
        }
        Some(reason) => {
            let progress = Progress {
                done: state.next_index as u64,
                total: Some(faults.len() as u64),
                unit: "faults",
            };
            let checkpoint = state.to_checkpoint(fingerprint, circuit);
            let (report, ladder) = state.into_report(faults);
            Ok(BudgetedAtpg {
                outcome: RunOutcome::Interrupted {
                    partial: report,
                    reason,
                    progress,
                },
                ladder,
                checkpoint: Some(checkpoint),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    #[test]
    fn full_adder_complete_coverage_with_compact_set() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(cout)\n\
             x1 = XOR(a, b)\ns = XOR(x1, cin)\na1 = AND(a, b)\na2 = AND(x1, cin)\n\
             cout = OR(a1, a2)\n",
        )
        .unwrap();
        let faults = FaultList::full(&c);
        let report = generate_tests(&c, &faults, &AtpgConfig::default());
        assert!(report.redundant.is_empty());
        assert!(report.aborted.is_empty());
        assert_eq!(report.coverage(), 1.0);
        // Dropping keeps the test set far below one test per fault.
        assert!(
            report.tests.len() < faults.len() / 2,
            "{} tests for {} faults",
            report.tests.len(),
            faults.len()
        );
        assert!(report.podem_calls < faults.len());
    }

    #[test]
    fn redundancies_are_reported() {
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\nt = OR(a, n)\ny = AND(t, b)\n")
                .unwrap();
        let faults = FaultList::full(&c);
        let report = generate_tests(&c, &faults, &AtpgConfig::default());
        assert!(!report.redundant.is_empty(), "t s-a-1 class is redundant");
        // Every non-redundant fault is detected.
        assert_eq!(report.coverage(), 1.0);
    }

    #[test]
    fn zero_fill_is_deterministic() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n").unwrap();
        let faults = FaultList::full(&c);
        let config = AtpgConfig {
            random_fill_seed: None,
            ..AtpgConfig::default()
        };
        let r1 = generate_tests(&c, &faults, &config);
        let r2 = generate_tests(&c, &faults, &config);
        assert_eq!(r1.tests, r2.tests);
    }

    #[test]
    fn guidance_variants_agree_on_detection_sets() {
        let c = wrt_workloads::s1();
        let faults = FaultList::checkpoints(&c).collapse_equivalent(&c);
        let run = |guidance| {
            generate_tests(
                &c,
                &faults,
                &AtpgConfig {
                    guidance,
                    random_fill_seed: None,
                    ..AtpgConfig::default()
                },
            )
        };
        let cop = run(BacktraceGuidance::Cop);
        let unguided = run(BacktraceGuidance::Unguided);
        let scoap = run(BacktraceGuidance::Scoap);
        // Fault dropping differs pattern-by-pattern, but redundancy calls
        // and final coverage are guidance-independent.
        assert_eq!(cop.redundant, unguided.redundant);
        assert_eq!(cop.redundant, scoap.redundant);
        assert_eq!(cop.coverage(), unguided.coverage());
        assert_eq!(cop.coverage(), scoap.coverage());
    }

    pub(super) fn assert_same_report(got: &AtpgReport, reference: &AtpgReport, what: &str) {
        assert_eq!(got.tests, reference.tests, "{what}: tests");
        assert_eq!(got.detected, reference.detected, "{what}: detected");
        assert_eq!(got.redundant, reference.redundant, "{what}: redundant");
        assert_eq!(got.aborted, reference.aborted, "{what}: aborted");
        assert_eq!(got.survivors, reference.survivors, "{what}: survivors");
        assert_eq!(got.podem_calls, reference.podem_calls, "{what}: calls");
        assert_eq!(got.backtracks, reference.backtracks, "{what}: backtracks");
    }

    #[test]
    fn budgeted_with_unlimited_budget_matches_plain_run() {
        let c = wrt_workloads::s1();
        let faults = FaultList::checkpoints(&c).collapse_equivalent(&c);
        let config = AtpgConfig::default();
        let reference = generate_tests(&c, &faults, &config);
        let run =
            generate_tests_budgeted(&c, &faults, &config, &wrt_robust::Budget::unlimited(), None)
                .expect("no checkpoint involved");
        assert!(run.checkpoint.is_none());
        assert!(run.ladder.is_empty());
        match run.outcome {
            wrt_robust::RunOutcome::Complete(got) => {
                assert!(got.survivors.is_empty());
                assert_same_report(&got, &reference, "unbudgeted");
            }
            wrt_robust::RunOutcome::Interrupted { .. } => panic!("must complete"),
        }
    }

    #[test]
    fn resume_after_podem_call_budget_is_bit_identical() {
        // Interrupt on the eval (= PODEM call) axis — deterministic — at
        // several points, round-trip the checkpoint through its text
        // form, resume unlimited, and compare to the uninterrupted run.
        // Random fill is ON so this also proves the RNG state survives.
        let c = wrt_workloads::s1();
        let faults = FaultList::checkpoints(&c).collapse_equivalent(&c);
        let config = AtpgConfig::default();
        assert!(
            config.random_fill_seed.is_some(),
            "fill must be random here"
        );
        let reference = generate_tests(&c, &faults, &config);
        assert!(reference.podem_calls > 6, "need room to interrupt");

        for calls in [1u64, 3, 5] {
            let budget = wrt_robust::Budget::unlimited().with_max_evals(calls);
            let run =
                generate_tests_budgeted(&c, &faults, &config, &budget, None).expect("fresh run");
            let ckpt = run.checkpoint.expect("interrupted run must checkpoint");
            match &run.outcome {
                wrt_robust::RunOutcome::Interrupted {
                    partial,
                    reason,
                    progress,
                } => {
                    assert_eq!(*reason, wrt_robust::BudgetExceeded::Evals);
                    assert_eq!(progress.unit, "faults");
                    assert_eq!(partial.podem_calls as u64, calls);
                    assert!(!partial.survivors.is_empty(), "work must remain");
                }
                wrt_robust::RunOutcome::Complete(_) => panic!("{calls} calls must interrupt"),
            }

            let ckpt = wrt_robust::Checkpoint::parse(&ckpt.render(), ATPG_CHECKPOINT_KIND)
                .expect("checkpoint round-trips");
            let resumed = generate_tests_budgeted(
                &c,
                &faults,
                &config,
                &wrt_robust::Budget::unlimited(),
                Some(&ckpt),
            )
            .expect("resume validates");
            match resumed.outcome {
                wrt_robust::RunOutcome::Complete(got) => {
                    assert_same_report(&got, &reference, &format!("resume after {calls}"));
                }
                wrt_robust::RunOutcome::Interrupted { .. } => panic!("must complete"),
            }
        }
    }

    #[test]
    fn global_backtrack_budget_interrupts_deterministically() {
        // A redundancy proof forces backtracks; a 0-backtrack global
        // budget must trip at the first fault boundary after they accrue,
        // identically across runs.
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\nt = OR(a, n)\ny = AND(t, b)\n")
                .unwrap();
        let faults = FaultList::full(&c);
        let budget = wrt_robust::Budget::unlimited().with_max_backtracks(1);
        let run = |config: &AtpgConfig| {
            generate_tests_budgeted(&c, &faults, config, &budget, None).expect("fresh")
        };
        let config = AtpgConfig::default();
        let a = run(&config);
        let b = run(&config);
        match (&a.outcome, &b.outcome) {
            (
                wrt_robust::RunOutcome::Interrupted {
                    partial: pa,
                    reason: ra,
                    ..
                },
                wrt_robust::RunOutcome::Interrupted {
                    partial: pb,
                    reason: rb,
                    ..
                },
            ) => {
                assert_eq!(ra, rb);
                assert_eq!(*ra, wrt_robust::BudgetExceeded::Backtracks);
                assert_same_report(pa, pb, "two identically-budgeted runs");
            }
            other => panic!("expected two interruptions, got {other:?}"),
        }
    }

    #[test]
    fn resume_rejects_foreign_and_mismatched_checkpoints() {
        let c = wrt_workloads::s1();
        let faults = FaultList::checkpoints(&c).collapse_equivalent(&c);
        let config = AtpgConfig::default();
        let budget = wrt_robust::Budget::unlimited().with_max_evals(1);
        let run = generate_tests_budgeted(&c, &faults, &config, &budget, None).unwrap();
        let ckpt = run.checkpoint.expect("interrupted");

        // Different config → fingerprint refusal.
        let other = AtpgConfig {
            backtrack_limit: 7,
            ..config
        };
        let err = generate_tests_budgeted(
            &c,
            &faults,
            &other,
            &wrt_robust::Budget::unlimited(),
            Some(&ckpt),
        )
        .unwrap_err();
        assert!(
            matches!(err, wrt_robust::CheckpointError::Corrupt { .. }),
            "{err}"
        );

        // A structural twin — same input/node/fault counts, different
        // gates — slips past the count-only fingerprint; the recorded
        // structural digest must refuse it.
        let and4 =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = AND(a, b, c, d)\n")
                .unwrap();
        let or4 =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = OR(a, b, c, d)\n")
                .unwrap();
        let and_faults = FaultList::checkpoints(&and4);
        let or_faults = FaultList::checkpoints(&or4);
        assert_eq!(and_faults.len(), or_faults.len(), "twin must match counts");
        assert_ne!(and4.structural_digest(), or4.structural_digest());
        let run = generate_tests_budgeted(&and4, &and_faults, &config, &budget, None).unwrap();
        let twin_ckpt = run.checkpoint.expect("interrupted");
        let err = generate_tests_budgeted(
            &or4,
            &or_faults,
            &config,
            &wrt_robust::Budget::unlimited(),
            Some(&twin_ckpt),
        )
        .unwrap_err();
        assert!(err.to_string().contains("structural digest"), "{err}");

        // Foreign subsystem kind → WrongKind.
        let foreign = wrt_robust::Checkpoint::new("optimize");
        let err = generate_tests_budgeted(
            &c,
            &faults,
            &config,
            &wrt_robust::Budget::unlimited(),
            Some(&foreign),
        )
        .unwrap_err();
        assert!(
            matches!(err, wrt_robust::CheckpointError::WrongKind { .. }),
            "{err}"
        );
    }

    #[test]
    fn degrade_on_abort_retries_unguided_and_records_the_ladder() {
        // With a zero per-fault backtrack limit the guided search aborts
        // whenever it hits any conflict; the unguided retry has the same
        // limit, so conclusions only improve when the descent order
        // differs.  The key contract: retries are *recorded*, and the
        // outcome classes never get worse than the non-degrading run.
        let c = wrt_workloads::s1();
        let faults = FaultList::checkpoints(&c).collapse_equivalent(&c);
        let base = AtpgConfig {
            backtrack_limit: 0,
            random_fill_seed: None,
            ..AtpgConfig::default()
        };
        let plain = generate_tests(&c, &faults, &base);
        let degrading = AtpgConfig {
            degrade_on_abort: true,
            ..base
        };
        let run = generate_tests_budgeted(
            &c,
            &faults,
            &degrading,
            &wrt_robust::Budget::unlimited(),
            None,
        )
        .expect("no checkpoint involved");
        let report = run.outcome.into_value();
        let retries = run.ladder.count(wrt_robust::DegradeStep::GuidedToUnguided);
        if plain.aborted.is_empty() {
            assert!(run.ladder.is_empty(), "no aborts, nothing to degrade");
        } else {
            // Processing is identical up to the first guided abort, so at
            // least that fault must have been retried; and every fault
            // still aborted after degradation went through a retry.
            assert!(retries >= 1, "first abort must be retried");
        }
        assert!(retries >= report.aborted.len());
        assert!(report.aborted.len() <= plain.aborted.len());
    }

    /// The loop before fault dropping moved onto the event kernel, kept
    /// as the oracle: after each test the dense engine re-simulates
    /// *every* fault, detected or not.
    pub(super) fn dense_oracle(c: &Circuit, faults: &FaultList, config: &AtpgConfig) -> AtpgReport {
        assert!(
            !config.degrade_on_abort,
            "the oracle has no fallback search"
        );
        let podem = guided_podem(c, config);
        let mut sim = wrt_sim::FaultSimulator::new(c, faults);
        let mut state = AtpgState::fresh(c.num_inputs(), faults.len(), config);
        for (id, fault) in faults.iter() {
            state.next_index = id.index() + 1;
            if state.detected[id.index()] {
                continue;
            }
            state.podem_calls += 1;
            let (outcome, backtracks) = podem.generate_counted(fault);
            state.backtracks += backtracks;
            match outcome {
                AtpgOutcome::Redundant => state.redundant.push(id),
                AtpgOutcome::Aborted => state.aborted.push(id),
                AtpgOutcome::Test(pattern) => {
                    let rng = &mut state.rng;
                    let filled: Vec<bool> = pattern
                        .iter()
                        .map(|bit| {
                            bit.unwrap_or_else(|| {
                                rng.as_mut().is_some_and(|r| r.next_u64() & 1 == 1)
                            })
                        })
                        .collect();
                    let words: Vec<u64> = filled.iter().map(|&b| u64::from(b)).collect();
                    for (k, w) in sim.detect_block(&words, 1).into_iter().enumerate() {
                        state.detected[k] |= w != 0;
                    }
                    state.detected[id.index()] = true;
                    state.tests.push(&filled);
                }
            }
        }
        state.into_report(faults).0
    }

    pub(super) fn fill_modes() -> [AtpgConfig; 2] {
        let random = AtpgConfig::default();
        assert!(random.random_fill_seed.is_some());
        let zeros = AtpgConfig {
            random_fill_seed: None,
            ..AtpgConfig::default()
        };
        [random, zeros]
    }

    #[test]
    fn event_dropping_matches_the_dense_oracle_on_s1() {
        let c = wrt_workloads::s1();
        for faults in [
            FaultList::checkpoints(&c).collapse_equivalent(&c),
            FaultList::full(&c),
        ] {
            for config in fill_modes() {
                let what = format!(
                    "{} faults, fill {:?}",
                    faults.len(),
                    config.random_fill_seed
                );
                assert_same_report(
                    &generate_tests(&c, &faults, &config),
                    &dense_oracle(&c, &faults, &config),
                    &what,
                );
            }
        }
    }

    #[test]
    fn event_dropping_matches_the_dense_oracle_with_aborts() {
        // A backtrack limit of 1 aborts some searches: aborted faults stay
        // on the dropping worklist and may still be detected by later
        // tests, in which case they are reported under both.
        let mut aborted = 0;
        for name in ["c432ish", "c880ish"] {
            let c = wrt_workloads::by_name(name).expect("registry circuit");
            let faults = FaultList::checkpoints(&c).collapse_equivalent(&c);
            for config in fill_modes() {
                let config = AtpgConfig {
                    backtrack_limit: 1,
                    ..config
                };
                let oracle = dense_oracle(&c, &faults, &config);
                aborted += oracle.aborted.len();
                let what = format!("{name}, fill {:?}", config.random_fill_seed);
                assert_same_report(&generate_tests(&c, &faults, &config), &oracle, &what);
            }
        }
        assert!(aborted > 0, "the limit must abort some searches");
    }

    #[test]
    fn resumed_event_dropping_matches_the_dense_oracle() {
        // The resumed run rebuilds its dropping worklist from the
        // checkpoint's detected set.
        let c = wrt_workloads::s1();
        let faults = FaultList::checkpoints(&c).collapse_equivalent(&c);
        for config in fill_modes() {
            let oracle = dense_oracle(&c, &faults, &config);
            for calls in [2u64, 7] {
                let budget = wrt_robust::Budget::unlimited().with_max_evals(calls);
                let run = generate_tests_budgeted(&c, &faults, &config, &budget, None).unwrap();
                let ckpt = run.checkpoint.expect("interrupted run must checkpoint");
                let ckpt = wrt_robust::Checkpoint::parse(&ckpt.render(), ATPG_CHECKPOINT_KIND)
                    .expect("checkpoint round-trips");
                let resumed = generate_tests_budgeted(
                    &c,
                    &faults,
                    &config,
                    &wrt_robust::Budget::unlimited(),
                    Some(&ckpt),
                )
                .expect("resume validates");
                let what = format!("resume after {calls}, fill {:?}", config.random_fill_seed);
                match resumed.outcome {
                    wrt_robust::RunOutcome::Complete(got) => {
                        assert_same_report(&got, &oracle, &what)
                    }
                    wrt_robust::RunOutcome::Interrupted { .. } => panic!("{what}: must complete"),
                }
            }
        }
    }

    #[test]
    fn workload_circuit_s1_is_fully_atpg_testable() {
        // S1 had its redundancies removed by construction; PODEM must
        // find a test for every collapsed checkpoint fault.
        let c = wrt_workloads::s1();
        let faults = FaultList::checkpoints(&c).collapse_equivalent(&c);
        let report = generate_tests(&c, &faults, &AtpgConfig::default());
        assert!(report.aborted.is_empty(), "aborted: {:?}", report.aborted);
        assert!(
            report.redundant.is_empty(),
            "redundant: {:?}",
            report.redundant
        );
        assert_eq!(report.coverage(), 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{assert_same_report, dense_oracle, fill_modes};
    use super::*;
    use crate::podem::proptests::arb_circuit;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Full fault lists share effect roots (both stem polarities, the
        /// stem and pin faults of a gate) and fanout-free regions, so the
        /// event kernel's grouped propagation is exercised on every
        /// dropping pass.
        #[test]
        fn event_dropping_matches_the_dense_oracle(circuit in arb_circuit()) {
            let faults = FaultList::full(&circuit);
            for config in fill_modes() {
                assert_same_report(
                    &generate_tests(&circuit, &faults, &config),
                    &dense_oracle(&circuit, &faults, &config),
                    "random circuit",
                );
            }
        }
    }
}

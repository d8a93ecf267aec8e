//! `wrt` — weighted random testing with optimized input probabilities.
//!
//! Umbrella crate for the workspace reproducing H.-J. Wunderlich,
//! *On Computing Optimized Input Probabilities for Random Tests*
//! (DAC 1987).  It re-exports the subsystem crates:
//!
//! * [`circuit`] — gate-level netlists, `.bench` parsing, levelization;
//! * [`fault`] — single stuck-at fault model and collapsing;
//! * [`sim`] — bit-parallel logic and PPSFP fault simulation;
//! * [`estimate`] — signal/detection probability engines (COP, STAFAN,
//!   Monte-Carlo, exact, cutting-algorithm bounds);
//! * [`core`] — the paper's optimizer (`OPTIMIZE`/`NORMALIZE`/`MINIMIZE`),
//!   test-length computation, quantization, fault-set partitioning;
//! * [`bist`] — LFSR/MISR/weighted-pattern hardware models and BILBO
//!   self-test sessions;
//! * [`atpg`] — PODEM deterministic test generation and complete
//!   redundancy identification (the §5.2 comparator);
//! * [`analyze`] — simulation-free static analysis: SCOAP testability,
//!   structural lints, FFR/reconvergence census, and the seeds the
//!   optimizer and PODEM consume;
//! * [`robust`] — run-to-completion resilience: budgets with structured
//!   interruption, checkpoint/resume sidecars, the graceful-degradation
//!   ladder, and the deterministic fail-point registry;
//! * [`serve`] — testability-as-a-service: the resident `wrt serve`
//!   server, its shared engine registry, the line protocol, and the
//!   verb hub the batch CLI shares with it;
//! * [`workloads`] — the twelve benchmark circuit generators.
//!
//! # Quickstart
//!
//! ```
//! use wrt::prelude::*;
//!
//! # fn main() -> Result<(), wrt::circuit::ParseBenchError> {
//! let circuit = wrt::circuit::parse_bench(
//!     "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = AND(a, b, c, d)\n",
//! )?;
//! let faults = FaultList::checkpoints(&circuit);
//! let mut engine = CopEngine::new();
//! let result = optimize(&circuit, &faults, &mut engine, &OptimizeConfig::default());
//! assert!(result.final_length <= result.initial_length);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use wrt_analyze as analyze;
pub use wrt_atpg as atpg;
pub use wrt_bist as bist;
pub use wrt_circuit as circuit;
pub use wrt_core as core;
pub use wrt_estimate as estimate;
pub use wrt_fault as fault;
pub use wrt_robust as robust;
pub use wrt_serve as serve;
pub use wrt_sim as sim;
pub use wrt_workloads as workloads;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use wrt_analyze::{analyze, lint_circuit, scoap_seed_weights, Scoap};
    pub use wrt_atpg::{generate_tests, AtpgConfig, AtpgOutcome, BacktraceGuidance, Podem};
    pub use wrt_bist::{Lfsr, Misr, SelfTestSession, WeightedLfsr};
    pub use wrt_circuit::{Circuit, CircuitBuilder, GateKind, NodeId};
    pub use wrt_core::{
        optimize, optimize_partitioned, quantize_weights, required_test_length, OptimizeConfig,
        TestLength,
    };
    pub use wrt_estimate::{
        CopEngine, DetectionProbabilityEngine, ExactEngine, MonteCarloEngine, StafanEngine,
    };
    pub use wrt_fault::{Fault, FaultList, FaultSite};
    pub use wrt_robust::{Budget, BudgetExceeded, Checkpoint, RunOutcome};
    pub use wrt_sim::{
        detection_counts, fault_coverage, FaultSimulator, LogicSim, PatternSource, WeightedPatterns,
    };
}

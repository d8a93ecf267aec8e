//! Signal- and detection-probability estimation for combinational circuits.
//!
//! The paper's procedure is built "on the assumption that there is a tool
//! available computing or estimating fault detection probabilities
//! efficiently" (§1) — PROTEST \[Wu85\] in the original, with the remark that
//! PREDICT or STAFAN "will presumably work as well".  This crate provides
//! that tool layer with several interchangeable engines:
//!
//! * [`CopEngine`] — analytic controllability/observability propagation
//!   (COP-style, the default: fast, handles detection probabilities as
//!   small as `2^-64` that no sampling method can see).  The optimizer's
//!   PREPARE step asks it for both boundary points of each coordinate,
//!   carried as two lanes of one forward and one backward pass over the
//!   relevant faults' query cone only (bit-identical to full passes);
//! * [`CopBaseline`] and [`SessionCop`] — a shareable COP solution plus
//!   per-session what-if ECO queries (virtual gate-kind mutations) on
//!   one COP overlay: an immutable baseline solution plus an
//!   epoch-stamped delta that one forward walk and one push-on-change
//!   backward walk keep bit-identical to a full recompute;
//! * [`HybridEngine`] — PREDICT-style: each signal's exact probability
//!   where its input support fits a budget, the COP recurrence elsewhere;
//! * [`StafanEngine`] — STAFAN-style statistical counting on a fault-free
//!   bit-parallel sample \[AgJa84\];
//! * [`MonteCarloEngine`] — direct PPSFP fault-simulation sampling;
//! * [`ExactEngine`] — exhaustive weighted enumeration (small circuits,
//!   ground truth for tests);
//! * [`BddEngine`] — exact symbolic computation via reduced ordered BDDs
//!   (the Parker–McCluskey exact problem \[McPa75\], practical up to
//!   medium circuits);
//! * [`CuttingBounds`] — guaranteed lower/upper signal-probability bounds
//!   via the cutting algorithm \[BDS84\].
//!
//! plus exact redundancy identification ([`constant_line_faults`]) in the
//! spirit of PROTEST's "exact value 0 or 1 … is a proof of redundancy",
//! and the experiment fault set built on it ([`experiment_faults`]).
//!
//! Each estimation model has one definition, which every engine calls:
//! the COP recurrence ([`signal_probabilities_cop`] and
//! [`observabilities_cop`], node by node for the overlays and the hybrid
//! fallback), the detection model "activation × observability, clamped"
//! (over COP values, or over STAFAN's counted rates), the exact weighted
//! enumeration ([`exact_signal_probability`], refusing supports of 63
//! inputs or more) and the BDD gate fold of [`BddManager`].  So
//! `HybridEngine::new(0)` gives [`CopEngine`]'s estimates bit for bit.
//!
//! # Example
//!
//! ```
//! use wrt_circuit::parse_bench;
//! use wrt_fault::FaultList;
//! use wrt_estimate::{CopEngine, DetectionProbabilityEngine};
//!
//! # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
//! let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
//! let faults = FaultList::primary_inputs(&c);
//! let probs = CopEngine::new().estimate(&c, &faults, &[0.5, 0.5]);
//! assert_eq!(probs.len(), faults.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod bdd;
mod cop;
mod cutting;
mod engine;
mod exact;
mod hybrid;
mod incremental;
mod overlay;
mod rank;
mod redundancy;
mod shared;
mod stafan;

pub use bdd::{exact_signal_probabilities_bdd, BddEngine, BddManager, BddOverflow};
pub use cop::{observabilities_cop, signal_probabilities_cop};
pub use cutting::{signal_probability_bounds, CuttingBounds, ProbabilityInterval};
pub use engine::{
    CopEngine, DetectionProbabilityEngine, ExactEngine, MonteCarloEngine, StafanEngine,
};
pub use exact::{exact_detection_probability, exact_signal_probability};
pub use hybrid::HybridEngine;
pub use incremental::IncrementalCop;
pub use rank::spearman;
pub use redundancy::{constant_line_faults, experiment_faults, REDUNDANCY_SUPPORT_LIMIT};
pub use shared::{CopBaseline, EcoMutation, EcoStats, SessionCop};
pub use stafan::StafanCounts;

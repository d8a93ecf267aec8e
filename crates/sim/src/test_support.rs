//! Shared proptest strategies and engine helpers for the crate's tests.

use proptest::prelude::*;
use wrt_circuit::{Circuit, CircuitBuilder, GateKind};
use wrt_fault::FaultList;
use wrt_robust::Budget;

use crate::coverage::CoverageResult;
use crate::event::{SimOptions, SimStats};
use crate::patterns::PatternSource;

/// A small random 4-input circuit with two outputs: a mix of gate kinds
/// over randomly picked (possibly reconvergent) fanins.
pub fn arb_circuit() -> impl Strategy<Value = Circuit> {
    let kinds = prop::sample::select(vec![
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
    ]);
    proptest::collection::vec((kinds, proptest::collection::vec(0usize..100, 1..3)), 4..18)
        .prop_map(|specs| {
            let mut b = CircuitBuilder::named("rand");
            let mut ids = Vec::new();
            for i in 0..4 {
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
            b.mark_output(*ids.last().expect("nonempty"));
            b.mark_output(ids[4]);
            b.build().expect("valid circuit")
        })
}

/// [`crate::fault_coverage_robust`] under an unlimited budget; the run
/// must complete without recovery.
pub fn coverage(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    num_patterns: u64,
    drop: bool,
    threads: usize,
    opts: SimOptions,
) -> (CoverageResult, SimStats) {
    let unlimited = Budget::unlimited();
    let outcome = crate::fault_coverage_robust(
        circuit,
        faults,
        source,
        num_patterns,
        drop,
        threads,
        opts,
        &unlimited,
    );
    assert!(outcome.is_complete(), "an unlimited run completes");
    let run = outcome.into_value();
    assert!(run.recovery.is_clean(), "no fail point is armed");
    (run.result, run.stats)
}

/// [`crate::detection_counts_robust`] under an unlimited budget; the run
/// must complete without recovery.
pub fn counts(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    num_patterns: u64,
    threads: usize,
    opts: SimOptions,
) -> (Vec<u64>, SimStats) {
    let unlimited = Budget::unlimited();
    let outcome = crate::detection_counts_robust(
        circuit,
        faults,
        source,
        num_patterns,
        threads,
        opts,
        &unlimited,
    );
    assert!(outcome.is_complete(), "an unlimited run completes");
    let run = outcome.into_value();
    assert!(run.recovery.is_clean(), "no fail point is armed");
    assert_eq!(run.num_patterns, num_patterns);
    (run.counts, run.stats)
}

//! Property test: a what-if ECO query ([`SessionCop::what_if`]) is
//! bit-identical to rebuilding the mutated circuit and running full COP,
//! for kind mutations across every gate family and for several queries
//! back to back on one session.

mod common;

use std::sync::Arc;

use common::{arb_gate_specs, arb_weight, bits, build_circuit, GateSpec, GATE_KINDS, NUM_INPUTS};
use proptest::prelude::*;
use wrt_circuit::NodeId;
use wrt_estimate::{
    observabilities_cop, signal_probabilities_cop, CopBaseline, CopEngine,
    DetectionProbabilityEngine, EcoMutation, SessionCop,
};
use wrt_fault::FaultList;

/// Number of positions where two vectors differ bitwise.
fn bit_diffs(a: &[f64], b: &[f64]) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count()
}

/// Turns raw picks into 1–3 distinct-gate mutations, each to a kind that
/// accepts the gate's fanin count (so single-fanin gates may become any
/// family, wider ones any AND/OR/XOR family).
fn mutations_of(
    specs: &[GateSpec],
    picks: &[(usize, usize)],
) -> Vec<(usize, wrt_circuit::GateKind)> {
    let mut out: Vec<(usize, wrt_circuit::GateKind)> = Vec::new();
    for &(gate, kind) in picks {
        let gate = gate % specs.len();
        if out.iter().any(|&(g, _)| g == gate) {
            continue;
        }
        let arity = specs[gate].1.len();
        let fits: Vec<_> = GATE_KINDS
            .iter()
            .copied()
            .filter(|k| {
                let (lo, hi) = k.arity_range();
                (lo..=hi).contains(&arity)
            })
            .collect();
        out.push((gate, fits[kind % fits.len()]));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn what_if_matches_full_cop_of_the_mutated_circuit(
        specs in arb_gate_specs(),
        weights in proptest::collection::vec(arb_weight(), NUM_INPUTS),
        queries in proptest::collection::vec(
            proptest::collection::vec((0usize..100, 0usize..8), 1..4),
            1..5,
        ),
    ) {
        let circuit = Arc::new(build_circuit(&specs));
        let faults = FaultList::full(&circuit);
        let baseline = Arc::new(CopBaseline::build(Arc::clone(&circuit), &weights));
        let mut session = SessionCop::new(baseline);
        let p = signal_probabilities_cop(&circuit, &weights);
        let (obs, _) = observabilities_cop(&circuit, &p);

        for picks in &queries {
            let chosen = mutations_of(&specs, picks);
            let mut mutated_specs = specs.clone();
            for &(gate, kind) in &chosen {
                mutated_specs[gate].0 = kind;
            }
            let mutations: Vec<EcoMutation> = chosen
                .iter()
                .map(|&(gate, kind)| EcoMutation {
                    gate: NodeId::from_index(NUM_INPUTS + gate),
                    kind,
                })
                .collect();
            let (dp, stats) = session.what_if(&mutations, &faults).expect("valid ECO");

            let mutated = build_circuit(&mutated_specs);
            let reference = CopEngine::new().estimate(&mutated, &faults, &weights);
            prop_assert_eq!(bits(&dp), bits(&reference), "mutations {:?}", chosen);
            let p_new = signal_probabilities_cop(&mutated, &weights);
            let (obs_new, _) = observabilities_cop(&mutated, &p_new);
            prop_assert_eq!(stats.changed_probabilities, bit_diffs(&p, &p_new));
            prop_assert_eq!(stats.changed_observabilities, bit_diffs(&obs, &obs_new));
            prop_assert!(stats.overlay_evals() <= stats.cold_evals);
        }
    }
}

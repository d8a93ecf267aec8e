//! Property test: a what-if ECO query ([`SessionCop::what_if`]) is
//! bit-identical to rebuilding the mutated circuit and running full COP,
//! for kind mutations across every gate family and for several queries
//! back to back on one session.

use std::sync::Arc;

use proptest::prelude::*;
use wrt_circuit::{Circuit, CircuitBuilder, GateKind, NodeId};
use wrt_estimate::{
    observabilities_cop, signal_probabilities_cop, CopBaseline, CopEngine,
    DetectionProbabilityEngine, EcoMutation, SessionCop,
};
use wrt_fault::FaultList;

const NUM_INPUTS: usize = 5;

/// Every gate family a random circuit draws from.
const GATE_KINDS: [GateKind; 8] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
    GateKind::Buf,
];

/// One gate of a random circuit: its kind and its fanin, as indices into
/// the nodes built before it (inputs first).
type GateSpec = (GateKind, Vec<usize>);

/// Gate specs for a small random circuit over [`NUM_INPUTS`] inputs: a
/// mix of gate kinds over randomly picked (possibly reconvergent,
/// possibly dead) fanins.
fn arb_gate_specs() -> impl Strategy<Value = Vec<GateSpec>> {
    proptest::collection::vec(
        (
            prop::sample::select(GATE_KINDS.to_vec()),
            proptest::collection::vec(0usize..100, 1..4),
        ),
        NUM_INPUTS..24,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(g, (kind, picks))| {
                let available = NUM_INPUTS + g;
                let fanin = if matches!(kind, GateKind::Not | GateKind::Buf) {
                    vec![picks[0] % available]
                } else {
                    picks.iter().map(|&p| p % available).collect()
                };
                (kind, fanin)
            })
            .collect()
    })
}

/// Builds the circuit of `specs`, with two outputs (the last gate and the
/// first).  Node ids follow spec order, so circuits built from specs that
/// differ only in gate kinds line up node for node.
fn build_circuit(specs: &[GateSpec]) -> Circuit {
    let mut b = CircuitBuilder::named("rand");
    let mut ids = Vec::new();
    for i in 0..NUM_INPUTS {
        ids.push(b.input(format!("i{i}")));
    }
    for (kind, fanin) in specs {
        let fanin: Vec<_> = fanin.iter().map(|&f| ids[f]).collect();
        ids.push(b.gate_auto(*kind, &fanin).expect("valid"));
    }
    b.mark_output(*ids.last().expect("nonempty"));
    b.mark_output(ids[NUM_INPUTS]);
    b.build().expect("valid circuit")
}

/// Weights drawn from a palette that includes the exact boundary points
/// `0.0` and `1.0` (PREPARE's perturbation targets) alongside interior
/// values, so pruning on exact f64 equality gets exercised at the edges.
fn arb_weight() -> impl Strategy<Value = f64> {
    (0usize..6, 0.0f64..1.0).prop_map(|(pick, uniform)| match pick {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        3 => 0.25,
        _ => uniform,
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

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
) -> Vec<(usize, GateKind)> {
    let mut out: Vec<(usize, GateKind)> = Vec::new();
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

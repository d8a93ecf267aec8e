//! Random-circuit strategies shared by the estimate property tests.

#![allow(dead_code)] // each test binary uses a different subset

use proptest::prelude::*;
use wrt_circuit::{Circuit, CircuitBuilder, GateKind};

pub const NUM_INPUTS: usize = 5;

/// Every gate family a random circuit draws from.
pub const GATE_KINDS: [GateKind; 8] = [
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
pub type GateSpec = (GateKind, Vec<usize>);

/// Gate specs for a small random circuit over [`NUM_INPUTS`] inputs: a
/// mix of gate kinds over randomly picked (possibly reconvergent,
/// possibly dead) fanins.
pub fn arb_gate_specs() -> impl Strategy<Value = Vec<GateSpec>> {
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
pub fn build_circuit(specs: &[GateSpec]) -> Circuit {
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

/// A random circuit (see [`arb_gate_specs`]).
pub fn arb_circuit() -> impl Strategy<Value = Circuit> {
    arb_gate_specs().prop_map(|specs| build_circuit(&specs))
}

/// Weights drawn from a palette that includes the exact boundary points
/// `0.0` and `1.0` (PREPARE's perturbation targets) alongside interior
/// values, so pruning on exact f64 equality gets exercised at the edges.
pub fn arb_weight() -> impl Strategy<Value = f64> {
    (0usize..6, 0.0f64..1.0).prop_map(|(pick, uniform)| match pick {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        3 => 0.25,
        _ => uniform,
    })
}

pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

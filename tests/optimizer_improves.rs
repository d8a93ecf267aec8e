//! The optimizer's contract across the workload family: it never hurts,
//! and it rescues every random-pattern-resistant circuit.

use wrt::prelude::*;

fn faults_for(circuit: &wrt::circuit::Circuit) -> FaultList {
    FaultList::checkpoints(circuit).collapse_equivalent(circuit)
}

#[test]
fn starred_circuits_improve_by_orders_of_magnitude() {
    // s2/c7552ish run in the release-mode bench harness; keep the two
    // faster starred circuits for the debug-mode test suite.
    for name in ["s1", "c2670ish"] {
        let circuit = wrt::workloads::by_name(name).expect("registered");
        let faults = faults_for(&circuit);
        let mut engine = CopEngine::new();
        let result = optimize(&circuit, &faults, &mut engine, &OptimizeConfig::default());
        assert!(
            result.improvement_factor() > 100.0,
            "{name}: factor {}",
            result.improvement_factor()
        );
    }
}

#[test]
fn easy_circuits_are_not_made_worse() {
    for name in ["c499ish", "c880ish"] {
        let circuit = wrt::workloads::by_name(name).expect("registered");
        let faults = faults_for(&circuit);
        let mut engine = CopEngine::new();
        let result = optimize(&circuit, &faults, &mut engine, &OptimizeConfig::default());
        assert!(
            result.final_length <= result.initial_length,
            "{name}: {} -> {}",
            result.initial_length,
            result.final_length
        );
    }
}

#[test]
fn weights_stay_within_bounds_and_width() {
    let circuit = wrt::workloads::c880ish();
    let faults = faults_for(&circuit);
    let config = OptimizeConfig::default();
    let mut engine = CopEngine::new();
    let result = optimize(&circuit, &faults, &mut engine, &config);
    assert_eq!(result.weights.len(), circuit.num_inputs());
    let (lo, hi) = config.weight_bounds;
    for (i, &w) in result.weights.iter().enumerate() {
        assert!(w >= lo - 1e-12 && w <= hi + 1e-12, "weight {i} = {w}");
    }
}

#[test]
fn quantization_to_the_grid_keeps_most_of_the_gain() {
    let circuit = wrt::workloads::s1();
    let faults = faults_for(&circuit);
    let mut engine = CopEngine::new();
    let result = optimize(&circuit, &faults, &mut engine, &OptimizeConfig::default());
    let quantized = quantize_weights(&result.weights, 0.05);
    let probs = engine.estimate(&circuit, &faults, &quantized);
    let detectable: Vec<f64> = probs.into_iter().filter(|&p| p > 0.0).collect();
    let quantized_length = required_test_length(&detectable, 1e-3).patterns();
    assert!(
        quantized_length < result.initial_length / 100.0,
        "quantized {} vs initial {}",
        quantized_length,
        result.initial_length
    );
}

#[test]
fn partitioning_solves_the_pathological_conflict() {
    let circuit = wrt::workloads::pathological_pair(14);
    let and_out = circuit.node_id("WIDE_AND").expect("exists");
    let nor_out = circuit.node_id("WIDE_NOR").expect("exists");
    let faults = FaultList::from_faults(vec![
        Fault::output(and_out, false),
        Fault::output(nor_out, false),
    ]);
    let config = OptimizeConfig::default();
    let mut engine = CopEngine::new();
    let single = optimize(&circuit, &faults, &mut engine, &config);
    let parts = optimize_partitioned(&circuit, &faults, &mut engine, &config, 2);
    assert!(
        parts.total_length() * 10.0 < single.final_length,
        "partitioned {} vs single {}",
        parts.total_length(),
        single.final_length
    );
    // Simulate both weight sets back to back: both hard faults detected
    // within a small budget.
    let budget_each = 2_000;
    let mut caught = vec![false; faults.len()];
    for (k, part) in parts.parts.iter().enumerate() {
        let result = fault_coverage(
            &circuit,
            &faults,
            WeightedPatterns::new(part.weights.clone(), 100 + k as u64),
            budget_each,
            true,
        );
        for (i, d) in result.detected_at().iter().enumerate() {
            caught[i] |= d.is_some();
        }
    }
    assert!(caught.iter().all(|&c| c), "both conflict faults detected");
}

mod proptests {
    use proptest::prelude::*;
    use wrt::prelude::*;
    use wrt_circuit::CircuitBuilder;

    fn arb_circuit() -> impl Strategy<Value = wrt::circuit::Circuit> {
        let kinds = prop::sample::select(vec![
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Not,
        ]);
        proptest::collection::vec((kinds, proptest::collection::vec(0usize..64, 1..4)), 4..24)
            .prop_map(|specs| {
                let mut b = CircuitBuilder::named("rand");
                let mut ids = Vec::new();
                for i in 0..6 {
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
                b.mark_output(*ids.last().expect("non-empty"));
                b.build().expect("valid circuit")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Invariants of `optimize` on arbitrary circuits: the reported
        /// final length never exceeds the initial one, all weights respect
        /// the configured bounds, and the reported lengths are reproduced
        /// by re-estimating at the returned weights.
        #[test]
        fn optimizer_invariants_hold_on_random_circuits(circuit in arb_circuit()) {
            let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
            let config = OptimizeConfig { max_sweeps: 6, ..OptimizeConfig::default() };
            let mut engine = CopEngine::new();
            let result = optimize(&circuit, &faults, &mut engine, &config);
            prop_assert!(result.final_length <= result.initial_length * (1.0 + 1e-9));
            let (lo, hi) = config.weight_bounds;
            for &w in &result.weights {
                prop_assert!(w >= lo - 1e-12 && w <= hi + 1e-12, "weight {w}");
            }
            if result.final_length.is_finite() {
                // Re-estimate at the returned weights: the objective value
                // must reach the confidence threshold at the reported N.
                let probs: Vec<f64> = engine
                    .estimate(&circuit, &faults, &result.weights)
                    .into_iter()
                    .filter(|&p| p > 0.0)
                    .collect();
                let theta = config.theta();
                let check = required_test_length(&probs, theta).patterns();
                prop_assert!(
                    check <= result.final_length * 1.01 + 2.0,
                    "reported {} vs recomputed {}",
                    result.final_length,
                    check
                );
            }
        }
    }
}

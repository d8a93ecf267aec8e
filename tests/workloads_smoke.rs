//! Smoke test over the whole workload registry: every built-in circuit
//! must build, levelize, survive a `.bench` write/parse round trip, and
//! report internally consistent [`CircuitStats`] — one guard for all
//! twelve generators at once.

use wrt::circuit::{parse_bench_named, to_bench, CircuitStats};
use wrt::workloads::{all_paper_circuits, by_name, starred_circuits, WORKLOAD_NAMES};

#[test]
fn every_registry_circuit_builds_levelizes_and_round_trips() {
    assert_eq!(
        WORKLOAD_NAMES.len(),
        12,
        "the paper evaluates twelve circuits"
    );
    for name in WORKLOAD_NAMES {
        let circuit = by_name(name).unwrap_or_else(|| panic!("{name} not registered"));
        assert_eq!(circuit.name(), name);

        // Structural sanity.
        assert!(circuit.num_inputs() > 0, "{name}: no primary inputs");
        assert!(circuit.num_outputs() > 0, "{name}: no primary outputs");
        assert!(circuit.num_gates() > 0, "{name}: no gates");

        // Levelization: every gate sits strictly above all of its fanin,
        // and the recorded depth is the maximum level.
        let levels = circuit.levels();
        let mut max_level = 0;
        for (id, node) in circuit.iter() {
            max_level = max_level.max(levels.level(id));
            for &f in node.fanin() {
                assert!(
                    levels.level(f) < levels.level(id),
                    "{name}: node {id} at level {} has fanin {f} at level {}",
                    levels.level(id),
                    levels.level(f)
                );
            }
        }
        assert_eq!(levels.depth(), max_level, "{name}: depth mismatch");

        // Stats consistency.
        let stats = CircuitStats::of(&circuit);
        assert_eq!(stats.name, name);
        assert_eq!(stats.inputs, circuit.num_inputs(), "{name}: input count");
        assert_eq!(stats.outputs, circuit.num_outputs(), "{name}: output count");
        assert_eq!(stats.gates, circuit.num_gates(), "{name}: gate count");
        assert_eq!(stats.nodes, circuit.num_nodes(), "{name}: node count");
        assert_eq!(stats.depth, levels.depth(), "{name}: stats depth");
        assert_eq!(stats.stems, circuit.fanout_stems().len(), "{name}: stems");
        let by_kind_total: usize = stats.by_kind.values().sum();
        assert_eq!(
            by_kind_total, stats.gates,
            "{name}: by_kind must sum to gates"
        );

        // `.bench` write → parse round trip preserves the structure.
        let text = to_bench(&circuit);
        let reparsed = parse_bench_named(&text, name)
            .unwrap_or_else(|e| panic!("{name}: failed to reparse own .bench: {e}"));
        assert_eq!(
            reparsed.num_inputs(),
            circuit.num_inputs(),
            "{name}: reparse inputs"
        );
        assert_eq!(
            reparsed.num_outputs(),
            circuit.num_outputs(),
            "{name}: reparse outputs"
        );
        assert_eq!(
            reparsed.num_gates(),
            circuit.num_gates(),
            "{name}: reparse gates"
        );
    }
}

/// The tiled scale generator holds the same bar as the registry at every
/// size: lint-clean (structural lints over SCOAP), valid levelization,
/// a `.bench` round trip, and exact reproduction from `(gates, seed)`.
#[test]
fn tiled_generator_is_lint_clean_levelized_and_deterministic() {
    for (target, seed) in [(2_000usize, 11u64), (10_000, 11), (30_000, 5)] {
        let circuit = wrt::workloads::tiled(target, seed);
        assert!(
            circuit.num_gates() >= target,
            "tiled({target}, {seed}) undershoots"
        );

        // Structural lints (floating inputs, dead gates, constant gates)
        // must not fire at any size: the stitching marks every
        // unconsumed signal as an output by construction.
        let report = wrt::analyze::analyze(&circuit);
        assert!(
            report.findings.is_empty(),
            "tiled({target}, {seed}): {:?}",
            report.findings
        );

        // Levelization validity: every gate strictly above its fanin.
        let levels = circuit.levels();
        for (id, node) in circuit.iter() {
            for &f in node.fanin() {
                assert!(
                    levels.level(f) < levels.level(id),
                    "tiled({target}, {seed}): {id} not above fanin {f}"
                );
            }
        }

        // `.bench` write → parse round trip preserves the structure.
        let text = to_bench(&circuit);
        let reparsed = parse_bench_named(&text, circuit.name()).expect("tiled netlist reparses");
        assert_eq!(reparsed.num_gates(), circuit.num_gates());
        assert_eq!(reparsed.num_inputs(), circuit.num_inputs());
        assert_eq!(reparsed.num_outputs(), circuit.num_outputs());

        // Deterministic reproduction, node for node.
        let again = wrt::workloads::tiled(target, seed);
        assert_eq!(again.num_nodes(), circuit.num_nodes());
        for (id, node) in circuit.iter() {
            let other = again.node(id);
            assert_eq!(node.kind(), other.kind(), "tiled({target}, {seed}): {id}");
            assert_eq!(node.fanin(), other.fanin(), "tiled({target}, {seed}): {id}");
        }
    }
}

#[test]
fn registry_collections_are_consistent() {
    let all = all_paper_circuits();
    assert_eq!(all.len(), WORKLOAD_NAMES.len());
    for (circuit, name) in all.iter().zip(WORKLOAD_NAMES) {
        assert_eq!(circuit.name(), name);
    }
    // Starred circuits are drawn from the registry by the same generators.
    for starred in starred_circuits() {
        let again = by_name(starred.name()).expect("starred name registered");
        assert_eq!(again.num_nodes(), starred.num_nodes());
    }
}

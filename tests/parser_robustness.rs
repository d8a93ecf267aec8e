//! Fuzz-style property tests: the user-input pipeline
//! (`parse_bench` → levelize → simulate) never panics.
//!
//! These tests justify the panic audit's conclusion for the circuit
//! crate: every failure mode reachable from untrusted `.bench` text is a
//! structured [`ParseBenchError`], and the internal `expect`/`assert`
//! sites that remain (DFS stack invariants, topological-order asserts,
//! `NodeId` width conversions) are unreachable from any input the parser
//! accepts.  The strategy below deliberately generates the adversarial
//! shapes that would trip them if they were reachable: dangling fanin,
//! duplicate definitions, self-loops and longer cycles (a tiny name pool
//! makes collisions and cycles common), unknown gate kinds, missing
//! parentheses, and plain token soup.

use proptest::prelude::*;
use wrt::prelude::*;
use wrt_circuit::scan_bench_issues;

/// One line of a synthetic `.bench` file.  Drawn from a small name pool
/// so that redefinition, forward references, and cycles actually occur
/// instead of every identifier being unique garbage.
fn arb_line() -> impl Strategy<Value = String> {
    let name = prop::sample::select(vec!["a", "b", "c", "d", "e", "y", "q0", "_x", "ghost"]);
    let kind = prop::sample::select(vec![
        "AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF", "DFF", "MAJ", "and", "N O T", "",
    ]);
    let args = proptest::collection::vec(
        prop::sample::select(vec!["a", "b", "c", "d", "e", "y", "q0", "_x", "ghost"]),
        0..4,
    );
    (0u8..8, name, kind, args).prop_map(|(form, name, kind, args)| match form {
        0 => format!("INPUT({name})"),
        1 => format!("OUTPUT({name})"),
        2 => format!("{name} = {kind}({})", args.join(", ")),
        3 => format!("# {name} {kind}"),
        4 => format!("{name} = {kind}({}", args.join(", ")), // missing ')'
        5 => format!("{name} {kind} {}", args.join(" ")),    // missing '='
        6 => format!("INPUT {name}"),
        _ => format!("  {name}=\t{kind} ( {} )  ", args.join(",")),
    })
}

fn arb_bench_text() -> impl Strategy<Value = String> {
    // Half the cases start from a small valid skeleton (names drawn from
    // the same pool, so appended soup lines interact with it: duplicate
    // definitions of `y`, references to its inputs, etc.); the other
    // half are pure soup.  Without the skeleton essentially nothing
    // parses and the pipeline property would be vacuous.
    (any::<bool>(), proptest::collection::vec(arb_line(), 0..25)).prop_map(|(seed, lines)| {
        let mut text = String::new();
        if seed {
            text.push_str(
                "INPUT(a)\nINPUT(b)\nINPUT(c)\ny = AND(a, b)\nq0 = NOR(y, c)\nOUTPUT(q0)\n",
            );
        }
        text.push_str(&lines.join("\n"));
        text
    })
}

/// Anti-vacuity check: the generator must actually produce netlists the
/// parser accepts, or the pipeline property below would pass trivially
/// by never exercising levelization and simulation.
#[test]
fn generator_produces_parseable_netlists() {
    use proptest::test_runner::TestRng;
    let strategy = arb_bench_text();
    let mut rng = TestRng::from_name("generator_produces_parseable_netlists");
    let accepted = (0..2048)
        .filter(|_| wrt_circuit::parse_bench(&strategy.generate(&mut rng)).is_ok())
        .count();
    assert!(accepted > 0, "no generated netlist ever parsed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse_bench` on arbitrary token soup returns `Ok` or a
    /// structured error — it never panics — and the lenient scanner is
    /// consistent with it in the documented direction: a netlist the
    /// parser accepts scans clean.  (The converse does not hold: the
    /// scanner checks lines, so a comment-only file scans clean while
    /// the parser still rejects the resulting empty circuit.)
    #[test]
    fn parser_never_panics_and_accepted_input_scans_clean(text in arb_bench_text()) {
        let parsed = wrt_circuit::parse_bench(&text);
        let issues = scan_bench_issues(&text);
        if parsed.is_ok() {
            prop_assert!(
                issues.is_empty(),
                "parse accepted but scanner reported {issues:?}"
            );
        }
    }

    /// Every circuit the parser accepts survives the rest of the
    /// pipeline without panicking: levelization (whose topological-order
    /// assert must hold for any parser-built circuit), single-pattern
    /// simulation, and fault simulation over the full collapsed list.
    #[test]
    fn accepted_circuits_levelize_and_simulate(text in arb_bench_text()) {
        let Ok(circuit) = wrt_circuit::parse_bench(&text) else {
            return Ok(());
        };
        let levels = circuit.levels();
        prop_assert!(levels.depth() as usize <= circuit.num_nodes());

        let assignment = vec![false; circuit.num_inputs()];
        let outputs = wrt_sim::simulate_pattern(&circuit, &assignment);
        prop_assert_eq!(outputs.len(), circuit.num_outputs());

        let faults = FaultList::full(&circuit);
        if circuit.num_inputs() > 0 && !faults.is_empty() {
            let source = WeightedPatterns::equiprobable(circuit.num_inputs(), 7);
            let cov = wrt_sim::fault_coverage(&circuit, &faults, source, 64, true);
            prop_assert!(cov.num_detected() <= faults.len());
        }
    }
}

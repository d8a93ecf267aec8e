//! Pins `wrt optimize`'s and `wrt estimate`'s stdout on the registry
//! circuits of the paper's flow.  The golden files under `tests/golden/`
//! hold the output the release binary printed before the COP passes and
//! the coordinate loop were rewritten for speed; every f64 of the descent
//! and of NORMALIZE's test length must stay bit-identical, so the
//! rendered text must not move by a byte.
//!
//! The circuits run here through the same in-process `execute` the CLI
//! and the server call, all but `optimize s2`; CI diffs every file, that
//! one included, against the release binary.

use std::sync::Arc;

use wrt::serve::{execute, ExecContext, Registry};

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn assert_matches_golden(verb: &str, circuits: &[&str]) {
    let ctx = ExecContext::new(Arc::new(Registry::new()));
    for circuit in circuits {
        let argv = [verb.to_string(), circuit.to_string()];
        let got = execute(&ctx, &argv).unwrap_or_else(|e| panic!("{verb} {circuit}: {e}"));
        assert_eq!(
            got,
            golden(&format!("{verb}_{circuit}.txt")),
            "{verb} {circuit}"
        );
    }
}

#[test]
fn optimize_output_matches_the_golden_files() {
    assert_matches_golden(
        "optimize",
        &[
            "c2670ish", "c5315ish", "c6288ish", "c7552ish", "c432ish", "c880ish", "s1",
        ],
    );
}

#[test]
fn estimate_output_matches_the_golden_files() {
    assert_matches_golden(
        "estimate",
        &["c2670ish", "c5315ish", "c6288ish", "c7552ish", "s2"],
    );
}

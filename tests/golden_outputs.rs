//! Pins `wrt optimize`'s stdout on the registry circuits of the paper's
//! flow.  The golden files under `tests/golden/` hold the output the
//! release binary printed before the COP passes were rewritten for
//! speed; every f64 of the descent must stay bit-identical, so the
//! rendered text must not move by a byte.
//!
//! The four small circuits run here through the same in-process
//! `execute` the CLI and the server call; CI diffs all five, `s2`
//! included, against the release binary.

use std::sync::Arc;

use wrt::serve::{execute, ExecContext, Registry};

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn optimize_output_matches_the_golden_files() {
    let ctx = ExecContext::new(Arc::new(Registry::new()));
    for circuit in ["c2670ish", "c5315ish", "c6288ish", "c7552ish"] {
        let argv = ["optimize".to_string(), circuit.to_string()];
        let got = execute(&ctx, &argv).expect("optimize runs");
        assert_eq!(
            got,
            golden(&format!("optimize_{circuit}.txt")),
            "optimize {circuit}"
        );
    }
}

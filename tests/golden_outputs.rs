//! Pins `wrt optimize`'s, `wrt estimate`'s and `wrt atpg`'s output on
//! the registry circuits of the paper's flow.  The golden files under
//! `tests/golden/` hold the output the release binary printed before the
//! COP passes, the coordinate loop and PODEM's implication were rewritten
//! for speed; every f64 of the descent and of NORMALIZE's test length,
//! and every test vector and detected set of ATPG, must stay the same, so
//! the rendered text must not move by a byte.
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

fn ctx() -> ExecContext {
    ExecContext::new(Arc::new(Registry::new()))
}

fn assert_matches_golden(verb: &str, circuits: &[&str]) {
    let ctx = ctx();
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

#[test]
fn atpg_output_matches_the_golden_files() {
    assert_matches_golden("atpg", &["c432ish", "s1"]);
}

/// The checkpoint text without its `circuit_uid` line, which numbers the
/// circuits the process has built, and the checksum that covers it.
fn without_uid(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| !l.starts_with("circuit_uid=") && !l.starts_with("checksum="))
        .collect()
}

/// The two interrupted runs of the benchmark's flow: their stdout, and
/// the resume state that pins every test vector and detected fault.
#[test]
fn interrupted_atpg_output_and_checkpoints_match_the_golden_files() {
    let ctx = ctx();
    let dir = std::env::temp_dir().join(format!("wrt_golden_atpg_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (circuit, evals) in [("c6288ish", "30"), ("s2", "8")] {
        let name = format!("atpg_{circuit}_max-evals_{evals}");
        let argv = |extra: &[&str]| -> Vec<String> {
            ["atpg", circuit, "--max-evals", evals]
                .iter()
                .chain(extra)
                .map(ToString::to_string)
                .collect()
        };
        let got = execute(&ctx, &argv(&[])).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(got, golden(&format!("{name}.txt")), "{name}");

        let path = dir.join(format!("{name}.ckpt"));
        let path_arg = path.to_str().expect("utf-8 temp path");
        execute(&ctx, &argv(&["--checkpoint", path_arg])).unwrap_or_else(|e| panic!("{name}: {e}"));
        let written = std::fs::read_to_string(&path).expect("checkpoint written");
        let expected = golden(&format!("{name}.ckpt"));
        assert_eq!(without_uid(&written), without_uid(&expected), "{name}.ckpt");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

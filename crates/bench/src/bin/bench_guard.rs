//! Benchmark-artifact guard: validates `BENCH_sim.json`,
//! `BENCH_optimize.json`, `BENCH_analyze.json`, `BENCH_robust.json`,
//! `BENCH_scale.json` and `BENCH_serve.json` so the committed artifacts
//! cannot silently go stale or corrupt.
//!
//! The bench binaries assert their own invariants at generation time,
//! but the *committed* artifacts are edited, rebased and merged like any
//! other file — this guard re-checks them on every CI run:
//!
//! * every `"bit_identical"` field must be `true`;
//! * every numeric field must parse as a **finite** `f64` — a recorded
//!   `NaN`/`inf` ratio (e.g. a zero-denominator eval reduction) fails
//!   the build instead of shipping as a quietly meaningless number;
//! * each file must contain at least one `bit_identical` field and one
//!   numeric field, so an emptied/truncated artifact cannot pass by
//!   vacuity;
//! * wherever an artifact records a `guided_backtracks` /
//!   `unguided_backtracks` pair, guided must not exceed unguided — a
//!   committed artifact claiming SCOAP guidance made PODEM *worse* on
//!   the tracked set is a regression, not a measurement;
//! * every `"unrecovered"` field (the chaos sweep's silent-result-loss
//!   counter in `BENCH_robust.json`) must be exactly `0` — an artifact
//!   recording an unrecovered fail-point injection fails the build;
//! * in the simulation artifact (recognized by its `sparsity_reduction`
//!   fields — only `bench_sim` emits them), every `"eval_reduction"`
//!   must be at least `1.0` — an engine doing *more* gate evaluations
//!   than the dense baseline on any circuit is a regression, not a
//!   trade-off — and on the `c6288ish` multiplier row (the least sparse
//!   circuit, the paper's hardest case) it must exceed `1.3`; a
//!   non-smoke artifact (`"smoke": false`) must contain a `c6288ish` row
//!   at all, so the floor cannot be dodged by deleting the row — the CI
//!   smoke configuration runs a reduced circuit set and is exempt from
//!   row presence only;
//! * every `"final_length"` (the optimizer artifact's test length after
//!   the descent) must be finite and at most the `"initial_length"` its
//!   row emits before it — the optimizer keeps the best vector seen, so
//!   a length that grew, or a descent that ends at an infinite length,
//!   is a regression;
//! * every `"cop_node_evals"` must be at most `2 × "engine_calls" ×
//!   "nodes"` of its row (both emitted before it) — no optimizer engine
//!   call does more than two full COP passes;
//! * in the simulation artifact, every `"faults_per_propagation"` (excited
//!   fault attempts per event-engine root propagation) must be at least
//!   `1.0` — every propagated region head serves at least one excited
//!   fault, so less means the region grouping's bookkeeping broke;
//! * in the same artifact, every `"serial_fraction"` (the sharded run's
//!   serial-path evals plus its busiest shard's evals, over all its
//!   evals) must lie in `[1 / threads, 1]`, with `threads` the row's own
//!   `"threads"` field emitted before it — below `1 / threads` the shard
//!   evals cannot add up, above 1 the busiest shard did more than the
//!   whole run;
//! * in the serving artifact (recognized by its `warm_over_cold`
//!   fields — only `bench_serve` emits them), every `"warm_over_cold"`
//!   ratio must be at least `1.0` — a resident server answering primed
//!   queries *slower* than cold ones means the shared engine cache is
//!   broken — and a non-smoke artifact must have at least two rows at
//!   `3.0` or better, the paper-style amortization headline; the
//!   `"eco_eval_reduction"` field (overlay evals vs cold recompute, a
//!   machine-independent counter) must be at least `2.0` non-smoke and
//!   `1.0` in the smoke configuration;
//! * `"bytes_per_gate"` values (the scale sweep's memory headline in
//!   `BENCH_scale.json`, rows ordered by increasing circuit size) must
//!   stay flat or decrease — each row may exceed its predecessor by at
//!   most 5% (name strings grow a digit at larger sizes); a rising curve
//!   means a superlinear term crept into the flat circuit core;
//! * `"fault_prep_us_per_gate"` values (the same sweep's fault-list
//!   preparation time per gate) may at most double from one row to the
//!   next — adjacent sizes differ by 4–5x, so a quadratic term at least
//!   quadruples the per-gate cost, while wall-clock noise and cache
//!   effects stay well under 2x.
//!
//! Run with `cargo run --release -p wrt-bench --bin bench_guard --
//! [FILE ...]`; with no arguments it checks the two default artifacts in
//! the current directory.  Exits non-zero with one line per violation.
//!
//! The scanner is a minimal JSON key/value walker (the workspace has no
//! JSON dependency by design): it tokenizes `"key": value` pairs,
//! ignores strings and structural characters, and classifies every bare
//! value token.  That is sufficient — and strict — for the flat
//! numeric/boolean schema the bench writers emit: any bare token that is
//! neither a finite number nor `true`/`false`/`null` (so `NaN`,
//! `Infinity`, `-inf`, or plain corruption) is a violation.

use std::process::ExitCode;

/// One `"key": <bare value>` occurrence found in the artifact.
struct BareValue {
    key: String,
    value: String,
    line: usize,
    /// The most recent `"circuit": "<name>"` string value seen before
    /// this token — the benchmark row this value belongs to (rows lead
    /// with their circuit name).  Empty outside any row.
    circuit: String,
}

/// Extracts every key whose value is a bare (unquoted) token.  String
/// values are skipped (they are prose notes or names); nested
/// objects/arrays recurse naturally because only `"key": token` pairs
/// are matched.
fn bare_values(text: &str) -> Vec<BareValue> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut current_key: Option<String> = None;
    let mut current_circuit = String::new();
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'"' => {
                // Scan a string literal (the schema emits no escapes,
                // but skip over backslash pairs defensively).
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                let literal = text.get(start..j).unwrap_or("").to_string();
                i = (j + 1).min(bytes.len());
                // A string followed by ':' is a key; otherwise it is a
                // string value and closes any open key.
                let mut k = i;
                while k < bytes.len() && (bytes[k] == b' ' || bytes[k] == b'\t') {
                    k += 1;
                }
                if k < bytes.len() && bytes[k] == b':' {
                    current_key = Some(literal);
                    i = k + 1;
                } else {
                    if current_key.as_deref() == Some("circuit") {
                        current_circuit = literal;
                    }
                    current_key = None;
                }
            }
            b'{' | b'}' | b'[' | b']' | b',' | b':' | b' ' | b'\t' | b'\r' => {
                i += 1;
            }
            _ => {
                // A bare token: number, boolean, null, or corruption.
                let start = i;
                while i < bytes.len()
                    && !matches!(
                        bytes[i],
                        b',' | b'}' | b']' | b'\n' | b' ' | b'\t' | b'\r'
                    )
                {
                    i += 1;
                }
                let token = text[start..i].to_string();
                // Keyless bare tokens (array elements, or structural
                // corruption) are validated too, under a placeholder
                // key — nothing slips past the guard unclassified.
                let key = current_key
                    .take()
                    .unwrap_or_else(|| "(array element)".to_string());
                out.push(BareValue {
                    key,
                    value: token,
                    line,
                    circuit: current_circuit.clone(),
                });
            }
        }
    }
    out
}

/// Validates one artifact; returns human-readable violations.
fn check_artifact(path: &str, text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let values = bare_values(text);
    let mut bit_identical_fields = 0usize;
    let mut numeric_fields = 0usize;
    let mut guided: Vec<(f64, usize)> = Vec::new();
    let mut unguided: Vec<(f64, usize)> = Vec::new();
    let mut bytes_per_gate: Vec<(f64, usize)> = Vec::new();
    let mut prep_per_gate: Vec<(f64, usize)> = Vec::new();
    // The simulation artifact is the one with sparsity-reduction fields;
    // the eval-reduction floors below apply only to it (other artifacts
    // reuse the `eval_reduction` key for differently-scaled metrics).
    let is_sim_artifact = values.iter().any(|v| v.key == "sparsity_reduction");
    // The serving artifact leads with warm-over-cold ratios; only
    // `bench_serve` emits that key.
    let is_serve_artifact = values.iter().any(|v| v.key == "warm_over_cold");
    let is_smoke = values
        .iter()
        .any(|v| v.key == "smoke" && v.value == "true");
    let mut saw_c6288_row = false;
    let mut warm_headline_rows = 0usize;
    // The most recent `"threads"` value: rows emit theirs before their
    // `serial_fraction`.
    let mut threads: Option<f64> = None;
    // Likewise a row's `initial_length` comes before its `final_length`,
    // and its `nodes` and `engine_calls` before its `cop_node_evals`.
    let mut initial_length: Option<f64> = None;
    let mut nodes: Option<f64> = None;
    let mut engine_calls: Option<f64> = None;
    for v in &values {
        if v.key == "threads" {
            threads = v.value.parse::<f64>().ok();
        }
        if is_sim_artifact && v.key == "serial_fraction" {
            if let Ok(x) = v.value.parse::<f64>() {
                // Half a unit of the artifact's 4th decimal of slack for
                // rounding at the lower bound.
                match threads {
                    Some(t) if t >= 1.0 && x >= 1.0 / t - 0.5e-4 && x <= 1.0 => {}
                    Some(t) => violations.push(format!(
                        "{path}:{}: \"serial_fraction\" is {x} on {} — outside [1/{t}, 1]",
                        v.line, v.circuit
                    )),
                    None => violations.push(format!(
                        "{path}:{}: \"serial_fraction\" on {} has no \"threads\" before it",
                        v.line, v.circuit
                    )),
                }
            }
        }
        // Simulation eval-reduction floor: the event headline must beat
        // the dense baseline on every circuit, and clear 1.3x on the
        // c6288ish multiplier.
        if is_sim_artifact && v.key == "eval_reduction" {
            let hard_row = v.circuit.starts_with("c6288");
            saw_c6288_row |= hard_row;
            if let Ok(x) = v.value.parse::<f64>() {
                if x < 1.0 {
                    violations.push(format!(
                        "{path}:{}: \"{}\" is {x} on {} — engine evaluates more gates than dense",
                        v.line, v.key, v.circuit
                    ));
                } else if hard_row && x <= 1.3 {
                    violations.push(format!(
                        "{path}:{}: \"{}\" is {x} on {} — below the 1.3 multiplier floor",
                        v.line, v.key, v.circuit
                    ));
                }
            }
        }
        // Optimizer lengths: the descent never ends worse than it began.
        if v.key == "initial_length" {
            initial_length = v.value.parse::<f64>().ok();
        }
        if v.key == "final_length" {
            match (v.value.parse::<f64>(), initial_length.take()) {
                (Ok(x), Some(start)) if x.is_finite() && x <= start => {}
                (_, Some(start)) => violations.push(format!(
                    "{path}:{}: \"final_length\" is {} on {} — not finite or above the initial {start}",
                    v.line, v.value, v.circuit
                )),
                (_, None) => violations.push(format!(
                    "{path}:{}: \"final_length\" on {} has no \"initial_length\" before it",
                    v.line, v.circuit
                )),
            }
        }
        match v.key.as_str() {
            "nodes" => nodes = v.value.parse::<f64>().ok(),
            "engine_calls" => engine_calls = v.value.parse::<f64>().ok(),
            "cop_node_evals" => match (v.value.parse::<f64>(), engine_calls.take(), nodes.take()) {
                (Ok(x), Some(calls), Some(n)) if x <= 2.0 * calls * n => {}
                _ => violations.push(format!(
                    "{path}:{}: \"cop_node_evals\" is {} on {} — above 2 x engine_calls x nodes, or those fields are missing before it",
                    v.line, v.value, v.circuit
                )),
            },
            _ => {}
        }
        if is_sim_artifact && v.key == "faults_per_propagation" {
            if let Ok(x) = v.value.parse::<f64>() {
                if x < 1.0 {
                    violations.push(format!(
                        "{path}:{}: \"faults_per_propagation\" is {x} on {} — a region head propagated for no excited fault",
                        v.line, v.circuit
                    ));
                }
            }
        }
        // Serving floors: warm must never lose to cold, and the ECO
        // overlay must beat the cold recompute it replaces.
        if v.key == "warm_over_cold" {
            if let Ok(x) = v.value.parse::<f64>() {
                if x < 1.0 {
                    violations.push(format!(
                        "{path}:{}: \"warm_over_cold\" is {x} on {} — warm served queries slower than cold",
                        v.line, v.circuit
                    ));
                } else if x >= 3.0 {
                    warm_headline_rows += 1;
                }
            }
        }
        if v.key == "eco_eval_reduction" {
            let floor = if is_smoke { 1.0 } else { 2.0 };
            if let Ok(x) = v.value.parse::<f64>() {
                if x < floor {
                    violations.push(format!(
                        "{path}:{}: \"eco_eval_reduction\" is {x} on {} — below the {floor} overlay floor",
                        v.line, v.circuit
                    ));
                }
            }
        }
        if v.key == "bytes_per_gate" {
            if let Ok(x) = v.value.parse::<f64>() {
                bytes_per_gate.push((x, v.line));
            }
        }
        if v.key == "fault_prep_us_per_gate" {
            if let Ok(x) = v.value.parse::<f64>() {
                prep_per_gate.push((x, v.line));
            }
        }
        if v.key == "guided_backtracks" || v.key == "unguided_backtracks" {
            if let Ok(x) = v.value.parse::<f64>() {
                if v.key == "guided_backtracks" {
                    guided.push((x, v.line));
                } else {
                    unguided.push((x, v.line));
                }
            }
        }
        if v.key == "bit_identical" {
            bit_identical_fields += 1;
            if v.value != "true" {
                violations.push(format!(
                    "{path}:{}: \"bit_identical\" is `{}` — a recorded engine divergence",
                    v.line, v.value
                ));
            }
            continue;
        }
        if v.key == "unrecovered" && v.value.parse::<f64>() != Ok(0.0) {
            violations.push(format!(
                "{path}:{}: \"unrecovered\" is `{}` — a recorded unrecovered fail-point injection",
                v.line, v.value
            ));
            continue;
        }
        match v.value.as_str() {
            "true" | "false" | "null" => {}
            token => match token.parse::<f64>() {
                Ok(x) if x.is_finite() => numeric_fields += 1,
                _ => violations.push(format!(
                    "{path}:{}: \"{}\" is `{token}` — not a finite number",
                    v.line, v.key
                )),
            },
        }
    }
    if is_serve_artifact && !is_smoke && warm_headline_rows < 2 {
        violations.push(format!(
            "{path}: only {warm_headline_rows} circuit(s) reach warm_over_cold >= 3 — the amortization headline needs two"
        ));
    }
    if is_sim_artifact && !is_smoke && !saw_c6288_row {
        violations.push(format!(
            "{path}: has sparsity_reduction fields but no c6288ish row — multiplier floor dodged"
        ));
    }
    if bit_identical_fields == 0 {
        violations.push(format!(
            "{path}: no \"bit_identical\" field at all — truncated or wrong artifact"
        ));
    }
    if numeric_fields == 0 {
        violations.push(format!("{path}: no numeric fields — empty artifact"));
    }
    // Guidance pairing: rows emit the two keys together and in order, so
    // the i-th guided value belongs to the i-th unguided one.
    if guided.len() == unguided.len() {
        for (&(g, line), &(u, _)) in guided.iter().zip(&unguided) {
            if g > u {
                violations.push(format!(
                    "{path}:{line}: guided_backtracks {g} exceeds unguided_backtracks {u} — guidance regression"
                ));
            }
        }
    } else {
        violations.push(format!(
            "{path}: {} guided_backtracks vs {} unguided_backtracks fields — unpaired rows",
            guided.len(),
            unguided.len()
        ));
    }
    // Scale-sweep memory curve: rows are ordered by increasing circuit
    // size, so each bytes/gate value may exceed its predecessor by at
    // most 5% (names gain a digit as instance counts grow); more than
    // that means a superlinear memory term.
    for pair in bytes_per_gate.windows(2) {
        let ((prev, _), (next, line)) = (pair[0], pair[1]);
        if next > prev * 1.05 {
            violations.push(format!(
                "{path}:{line}: bytes_per_gate rose {prev} -> {next} (>5%) — superlinear memory term"
            ));
        }
    }
    // Scale-sweep fault-prep slope: per-gate time may at most double
    // between adjacent sizes.
    for pair in prep_per_gate.windows(2) {
        let ((prev, _), (next, line)) = (pair[0], pair[1]);
        if next > prev * 2.0 {
            violations.push(format!(
                "{path}:{line}: fault_prep_us_per_gate rose {prev} -> {next} (>2x) — superlinear fault-list preparation"
            ));
        }
    }
    violations
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: Vec<String> = if args.is_empty() {
        vec![
            "BENCH_sim.json".into(),
            "BENCH_optimize.json".into(),
            "BENCH_analyze.json".into(),
            "BENCH_robust.json".into(),
            "BENCH_scale.json".into(),
            "BENCH_serve.json".into(),
        ]
    } else {
        args
    };
    let mut violations = Vec::new();
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(text) => violations.extend(check_artifact(path, &text)),
            Err(e) => violations.push(format!("{path}: unreadable: {e}")),
        }
    }
    if violations.is_empty() {
        println!("bench artifacts OK: {}", files.join(", "));
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("bench_guard: {v}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_artifact_passes() {
        let text = "{\n  \"note\": \"prose with NaN inside a string\",\n  \"results\": [\n    { \"eval_reduction\": 3.25, \"bit_identical\": true }\n  ]\n}\n";
        assert!(check_artifact("x.json", text).is_empty());
    }

    #[test]
    fn false_bit_identity_is_flagged() {
        let text = "{ \"eval_reduction\": 1.0, \"bit_identical\": false }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("bit_identical"));
    }

    #[test]
    fn nan_and_inf_ratios_are_flagged() {
        for bad in ["NaN", "inf", "-inf", "Infinity"] {
            let text =
                format!("{{ \"speedup\": {bad}, \"bit_identical\": true, \"x\": 1.0 }}");
            let v = check_artifact("x.json", &text);
            assert_eq!(v.len(), 1, "token {bad}: {v:?}");
            assert!(v[0].contains("speedup"), "token {bad}");
        }
    }

    #[test]
    fn keyless_tokens_inside_arrays_are_still_validated() {
        let text = "{ \"xs\": [1.0, NaN, 2.0], \"bit_identical\": true }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("NaN"));
    }

    #[test]
    fn empty_or_gutted_artifacts_cannot_pass_by_vacuity() {
        let v = check_artifact("x.json", "{}");
        assert_eq!(v.len(), 2);
        let v = check_artifact("x.json", "{ \"bit_identical\": true }");
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("numeric"));
    }

    #[test]
    fn guidance_regressions_are_flagged() {
        let ok = "{ \"guided_backtracks\": 32, \"unguided_backtracks\": 50, \"bit_identical\": true }";
        assert!(check_artifact("x.json", ok).is_empty());
        let tie = "{ \"guided_backtracks\": 16, \"unguided_backtracks\": 16, \"bit_identical\": true }";
        assert!(check_artifact("x.json", tie).is_empty());
        let bad = "{ \"guided_backtracks\": 51, \"unguided_backtracks\": 50, \"bit_identical\": true }";
        let v = check_artifact("x.json", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("guidance regression"));
    }

    #[test]
    fn unpaired_guidance_rows_are_flagged() {
        let text = "{ \"guided_backtracks\": 32, \"bit_identical\": true, \"x\": 1.0 }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("unpaired"));
    }

    #[test]
    fn unrecovered_injections_are_flagged() {
        let ok = "{ \"unrecovered\": 0, \"bit_identical\": true, \"x\": 1.0 }";
        assert!(check_artifact("x.json", ok).is_empty());
        for bad in ["1", "3.0", "NaN"] {
            let text = format!(
                "{{ \"unrecovered\": {bad}, \"bit_identical\": true, \"x\": 1.0 }}"
            );
            let v = check_artifact("x.json", &text);
            assert_eq!(v.len(), 1, "value {bad}: {v:?}");
            assert!(v[0].contains("unrecovered"), "value {bad}");
        }
    }

    #[test]
    fn sub_unity_eval_reductions_are_flagged() {
        let text = "{ \"results\": [ { \"circuit\": \"s1\", \"eval_reduction\": 0.97, \"sparsity_reduction\": 1.5, \"bit_identical\": true }, { \"circuit\": \"c6288ish\", \"eval_reduction\": 1.9, \"sparsity_reduction\": 1.9, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("more gates than dense"));
        assert!(v[0].contains("s1"));
    }

    #[test]
    fn c6288ish_multiplier_floor_is_enforced() {
        // 1.2 is fine on an ordinary circuit but below the 1.3 floor on
        // the multiplier row.
        let ok = "{ \"results\": [ { \"circuit\": \"c880ish\", \"eval_reduction\": 1.2, \"bit_identical\": true }, { \"circuit\": \"c6288ish\", \"eval_reduction\": 1.35, \"sparsity_reduction\": 1.89, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", ok).is_empty());
        let bad = "{ \"results\": [ { \"circuit\": \"c6288ish\", \"eval_reduction\": 1.2, \"sparsity_reduction\": 1.89, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("1.3 multiplier floor"));
        assert!(v[0].contains("\"eval_reduction\""));
    }

    #[test]
    fn deleting_the_c6288ish_row_cannot_dodge_the_floor() {
        let text = "{ \"smoke\": false, \"results\": [ { \"circuit\": \"s1\", \"eval_reduction\": 6.0, \"sparsity_reduction\": 9.0, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no c6288ish row"));
    }

    #[test]
    fn smoke_artifacts_need_no_c6288ish_row_but_keep_the_floors() {
        // The CI smoke set (s1, c880ish) has no multiplier row; row
        // presence is waived, the >= 1.0 floor is not.
        let ok = "{ \"smoke\": true, \"results\": [ { \"circuit\": \"c880ish\", \"eval_reduction\": 1.1, \"sparsity_reduction\": 1.1, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", ok).is_empty());
        let bad = "{ \"smoke\": true, \"results\": [ { \"circuit\": \"c880ish\", \"eval_reduction\": 0.9, \"sparsity_reduction\": 1.1, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("more gates than dense"));
    }

    #[test]
    fn sim_artifacts_are_recognized_without_tiled_fields() {
        // A simulation artifact with no eval_reduction_2d column keeps
        // every floor: the multiplier floor and the row-presence rule.
        let text = "{ \"smoke\": false, \"results\": [ { \"circuit\": \"c880ish\", \"eval_reduction\": 3.0, \"sparsity_reduction\": 2.0, \"bit_identical\": true }, { \"circuit\": \"c6288ish\", \"eval_reduction\": 1.2, \"sparsity_reduction\": 1.1, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("1.3 multiplier floor"), "{v:?}");
        let rowless = text.replace("c6288ish", "c7552ish");
        let v = check_artifact("x.json", &rowless);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no c6288ish row"), "{v:?}");
    }

    #[test]
    fn sub_unity_faults_per_propagation_is_flagged() {
        let row = |fpp: &str| {
            format!(
                "{{ \"smoke\": true, \"results\": [ {{ \"circuit\": \"s1\", \"eval_reduction\": 2.0, \"sparsity_reduction\": 2.0, \"faults_per_propagation\": {fpp}, \"bit_identical\": true }} ] }}"
            )
        };
        assert!(check_artifact("x.json", &row("1.000")).is_empty());
        assert!(check_artifact("x.json", &row("2.417")).is_empty());
        let v = check_artifact("x.json", &row("0.999"));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("faults_per_propagation"), "{v:?}");
        assert!(v[0].contains("on s1"), "{v:?}");
        // Other artifacts do not carry the key's meaning.
        let other = "{ \"faults_per_propagation\": 0.5, \"bit_identical\": true }";
        assert!(check_artifact("x.json", other).is_empty());
    }

    #[test]
    fn out_of_range_serial_fractions_are_flagged() {
        let row = |threads: &str, sf: &str| {
            format!(
                "{{ \"smoke\": true, \"threads\": 4, \"results\": [ {{ \"circuit\": \"s1\", \"eval_reduction\": 2.0, \"sparsity_reduction\": 2.0, \"threads\": {threads}, \"serial_fraction\": {sf}, \"bit_identical\": true }} ] }}"
            )
        };
        for (threads, sf) in [
            ("4", "0.25"),
            ("4", "0.2500"),
            ("3", "0.3333"),
            ("4", "1.0000"),
            ("1", "1.0"),
        ] {
            assert!(
                check_artifact("sim.json", &row(threads, sf)).is_empty(),
                "{threads} {sf}"
            );
        }
        for (threads, sf) in [("4", "0.2"), ("4", "1.01"), ("2", "0.4999"), ("0", "0.5")] {
            let v = check_artifact("sim.json", &row(threads, sf));
            assert_eq!(v.len(), 1, "{threads} {sf}: {v:?}");
            assert!(v[0].contains("serial_fraction"), "{v:?}");
        }
        // Other artifacts may use the key freely.
        let other = "{ \"threads\": 4, \"serial_fraction\": 0.01, \"bit_identical\": true }";
        assert!(check_artifact("other.json", other).is_empty());
    }

    #[test]
    fn optimizer_lengths_that_grow_or_diverge_are_flagged() {
        let row = |start: &str, end: &str| {
            format!(
                "{{ \"smoke\": false, \"results\": [ {{ \"circuit\": \"s2\", \"initial_length\": {start}, \"final_length\": {end}, \"bit_identical\": true }} ] }}"
            )
        };
        for (start, end) in [("1.997000e8", "1.899000e4"), ("762.0", "762.0")] {
            let v = check_artifact("opt.json", &row(start, end));
            assert!(v.is_empty(), "{start} -> {end}: {v:?}");
        }
        let v = check_artifact("opt.json", &row("1.0e4", "1.1e4"));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("above the initial"), "{v:?}");
        // A non-finite length is flagged by this rule and the numeric one.
        let v = check_artifact("opt.json", &row("1.0e4", "inf"));
        assert!(v.iter().any(|m| m.contains("above the initial")), "{v:?}");
        // An orphaned final length cannot pass by omission.
        let orphan = "{ \"final_length\": 5.0, \"bit_identical\": true }";
        let v = check_artifact("opt.json", orphan);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no \"initial_length\""), "{v:?}");
    }

    #[test]
    fn cop_work_above_two_full_passes_per_call_is_flagged() {
        let row = |evals: &str| {
            format!(
                "{{ \"results\": [ {{ \"circuit\": \"s2\", \"nodes\": 10, \"engine_calls\": 3, \"cop_node_evals\": {evals}, \"bit_identical\": true }} ] }}"
            )
        };
        for evals in ["60", "41"] {
            let v = check_artifact("opt.json", &row(evals));
            assert!(v.is_empty(), "{evals}: {v:?}");
        }
        let v = check_artifact("opt.json", &row("61"));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("above 2 x engine_calls x nodes"), "{v:?}");
        let orphan = "{ \"cop_node_evals\": 5, \"bit_identical\": true }";
        let v = check_artifact("opt.json", orphan);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("fields are missing"), "{v:?}");
    }

    #[test]
    fn null_dense_fields_on_derived_rows_pass() {
        // The 120k-gate scale row derives its dense baseline and emits
        // null wall-clock fields; the guard must accept them.
        let text = "{ \"results\": [ { \"circuit\": \"tiled_120000_7\", \"dense_seconds\": null, \"wall_speedup\": null, \"eval_reduction\": 4.2, \"sparsity_reduction\": 5.0, \"bit_identical\": true }, { \"circuit\": \"c6288ish\", \"eval_reduction\": 1.9, \"sparsity_reduction\": 1.4, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", text).is_empty());
    }

    #[test]
    fn flat_or_decreasing_bytes_per_gate_passes() {
        let text = "{ \"rows\": [ { \"bytes_per_gate\": 54.1, \"bit_identical\": true }, { \"bytes_per_gate\": 54.0, \"bit_identical\": true }, { \"bytes_per_gate\": 53.5, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", text).is_empty());
    }

    #[test]
    fn small_bytes_per_gate_creep_within_tolerance_passes() {
        // 53.5 -> 54.8 over the sweep is ~2.4% total, well under the
        // 5% per-step bound (names gaining a digit).
        let text = "{ \"rows\": [ { \"bytes_per_gate\": 53.5, \"bit_identical\": true }, { \"bytes_per_gate\": 54.8, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", text).is_empty());
    }

    #[test]
    fn superlinear_bytes_per_gate_growth_is_flagged() {
        let text = "{ \"rows\": [ { \"bytes_per_gate\": 54.0, \"bit_identical\": true }, { \"bytes_per_gate\": 60.0, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("superlinear memory term"));
    }

    #[test]
    fn linear_fault_prep_passes_and_a_quadratic_slope_is_flagged() {
        let linear = "{ \"rows\": [ { \"fault_prep_us_per_gate\": 0.30, \"bit_identical\": true }, { \"fault_prep_us_per_gate\": 0.45, \"bit_identical\": true }, { \"fault_prep_us_per_gate\": 0.41, \"bit_identical\": true } ] }";
        assert!(check_artifact("s.json", linear).is_empty());
        // 50k -> 200k gates with a quadratic term: 4x the per-gate cost.
        let quadratic = "{ \"rows\": [ { \"fault_prep_us_per_gate\": 140.0, \"bit_identical\": true }, { \"fault_prep_us_per_gate\": 560.0, \"bit_identical\": true } ] }";
        let v = check_artifact("s.json", quadratic);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("fault_prep_us_per_gate"));
    }

    #[test]
    fn warm_over_cold_floors_are_enforced() {
        // A full-run serving artifact needs two headline rows at 3x and
        // no row below 1x.
        let ok = "{ \"smoke\": false, \"results\": [ { \"circuit\": \"c880ish\", \"warm_over_cold\": 9.0, \"bit_identical\": true }, { \"circuit\": \"c2670ish\", \"warm_over_cold\": 3.5, \"bit_identical\": true }, { \"circuit\": \"c5315ish\", \"warm_over_cold\": 1.4, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", ok).is_empty());
        let slow = "{ \"smoke\": false, \"results\": [ { \"circuit\": \"c880ish\", \"warm_over_cold\": 0.8, \"bit_identical\": true }, { \"circuit\": \"c2670ish\", \"warm_over_cold\": 3.5, \"bit_identical\": true }, { \"circuit\": \"c5315ish\", \"warm_over_cold\": 4.0, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", slow);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("slower than cold"));
        assert!(v[0].contains("c880ish"));
        let thin = "{ \"smoke\": false, \"results\": [ { \"circuit\": \"c880ish\", \"warm_over_cold\": 9.0, \"bit_identical\": true }, { \"circuit\": \"c2670ish\", \"warm_over_cold\": 1.5, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", thin);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("amortization headline"));
    }

    #[test]
    fn smoke_serve_artifacts_skip_the_headline_but_keep_the_floor() {
        // The CI smoke run uses tiny circuits: the 3x headline is
        // waived, warm >= cold is not.
        let ok = "{ \"smoke\": true, \"results\": [ { \"circuit\": \"s1\", \"warm_over_cold\": 1.2, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", ok).is_empty());
        let bad = "{ \"smoke\": true, \"results\": [ { \"circuit\": \"s1\", \"warm_over_cold\": 0.9, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("slower than cold"));
    }

    #[test]
    fn eco_eval_reduction_floor_scales_with_smoke() {
        let full = "{ \"smoke\": false, \"results\": [ { \"circuit\": \"a\", \"warm_over_cold\": 4.0, \"bit_identical\": true }, { \"circuit\": \"b\", \"warm_over_cold\": 4.0, \"bit_identical\": true } ], \"eco\": { \"circuit\": \"b\", \"eco_eval_reduction\": 1.5, \"bit_identical\": true } }";
        let v = check_artifact("x.json", full);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("overlay floor"));
        // The same 1.5 passes in the smoke configuration (floor 1.0).
        let smoke = full.replace("\"smoke\": false", "\"smoke\": true");
        assert!(check_artifact("x.json", &smoke).is_empty());
        let negative = smoke.replace("1.5", "0.5");
        let v = check_artifact("x.json", &negative);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("overlay floor"));
    }

    #[test]
    fn committed_artifacts_are_clean() {
        // The repository's own artifacts must satisfy the guard; the
        // test runs from the crate directory, so walk up to the root.
        for name in [
            "BENCH_sim.json",
            "BENCH_optimize.json",
            "BENCH_analyze.json",
            "BENCH_robust.json",
            "BENCH_scale.json",
            "BENCH_serve.json",
        ] {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(name);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let v = check_artifact(name, &text);
            assert!(v.is_empty(), "{name}: {v:?}");
        }
    }
}

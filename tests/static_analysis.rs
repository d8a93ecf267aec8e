//! Registry-level validation of the static analysis subsystem: the
//! built-in workloads are lint-clean, SCOAP's structural difficulty
//! ranking agrees with COP's probabilistic one where costs stay finite,
//! and the analysis seeds stay consistent with the estimators.

use wrt::prelude::*;
use wrt_estimate::spearman;

/// Every registry circuit passes every built-in lint and has no
/// SCOAP-undetectable checkpoint fault: the workload generators fold
/// constants and strip dead logic (`simplify`), and the lints must not
/// fire on healthy netlists.
#[test]
fn registry_is_lint_clean() {
    for name in wrt::workloads::WORKLOAD_NAMES {
        let circuit = wrt::workloads::by_name(name).expect("registered");
        let report = analyze(&circuit);
        assert!(report.findings.is_empty(), "{name}: {:?}", report.findings);
        assert_eq!(
            report.scoap.undetectable, 0,
            "{name}: SCOAP flags undetectable faults in an irredundant workload"
        );
    }
}

/// SCOAP cost and COP log-difficulty rank faults the same way on
/// circuits whose costs stay well below saturation.  The two models
/// share no arithmetic — SCOAP counts assignments, COP multiplies
/// probabilities — so strong rank agreement is a real cross-check of
/// both.  Thresholds are set from measured values (s1 +0.96, c499ish
/// +0.91, c2670ish +0.64, c7552ish +0.57) with slack.
#[test]
fn scoap_ranks_agree_with_cop_on_tractable_circuits() {
    let strong = [
        ("s1", 0.9),
        ("c499ish", 0.8),
        ("c2670ish", 0.5),
        ("c7552ish", 0.5),
    ];
    for (name, threshold) in strong {
        let r = rank_correlation(name);
        assert!(r > threshold, "{name}: spearman {r:.3} below {threshold}");
    }
}

/// Even where deep arithmetic saturates costs into ties, the ranking
/// never *inverts*: no registry circuit shows a significantly negative
/// correlation.
#[test]
fn scoap_ranks_never_invert_on_the_registry() {
    for name in wrt::workloads::WORKLOAD_NAMES {
        let r = rank_correlation(name);
        assert!(r > -0.1, "{name}: spearman {r:.3} — SCOAP ranking inverted");
    }
}

fn rank_correlation(name: &str) -> f64 {
    let circuit = wrt::workloads::by_name(name).expect("registered");
    let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
    let scoap = Scoap::compute(&circuit);
    let costs: Vec<f64> = faults
        .as_slice()
        .iter()
        .map(|&f| scoap.fault_cost(&circuit, f) as f64)
        .collect();
    let mut engine = CopEngine::new();
    let probs = engine.estimate(&circuit, &faults, &vec![0.5; circuit.num_inputs()]);
    // COP detection probabilities span many decades; compare ranks
    // against log-difficulty, with p = 0 mapped beyond every finite one.
    let difficulty: Vec<f64> = probs
        .iter()
        .map(|&p| if p > 0.0 { -p.ln() } else { f64::MAX })
        .collect();
    spearman(&costs, &difficulty)
}

/// The SCOAP optimizer seed is a valid weight vector on every registry
/// circuit and biases wide-AND-dominated inputs the same direction the
/// optimizer's own descent does.
#[test]
fn scoap_seed_weights_are_valid_on_the_registry() {
    for name in wrt::workloads::WORKLOAD_NAMES {
        let circuit = wrt::workloads::by_name(name).expect("registered");
        let scoap = Scoap::compute(&circuit);
        let weights = scoap_seed_weights(&circuit, &scoap);
        assert_eq!(weights.len(), circuit.num_inputs(), "{name}");
        assert!(
            weights.iter().all(|w| (0.05..=0.95).contains(w)),
            "{name}: seed weight out of bounds"
        );
    }
}

/// Backtrace guidance never changes PODEM's conclusions on a full
/// registry circuit — only the search effort.
#[test]
fn podem_guidance_is_conclusion_invariant_on_c880ish() {
    let circuit = wrt::workloads::by_name("c880ish").expect("registered");
    let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
    let scoap = Scoap::compute(&circuit);
    let guided = Podem::with_backtrace_costs(&circuit, &scoap);
    let unguided = Podem::unguided(&circuit);
    for (_, fault) in faults.iter() {
        let g = guided.generate(fault);
        let u = unguided.generate(fault);
        let class = |o: &AtpgOutcome| match o {
            AtpgOutcome::Test(_) => "test",
            AtpgOutcome::Redundant => "redundant",
            AtpgOutcome::Aborted => "aborted",
        };
        assert_eq!(class(&g), class(&u), "{}", fault.describe(&circuit));
    }
}

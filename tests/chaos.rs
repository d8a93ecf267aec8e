//! Chaos suite: deterministic fail-point injections across every planted
//! site.
//!
//! The fail-point registry is process-global, so these tests live in
//! their own integration-test binary (one process) and every workload
//! that passes a fail point runs while holding an exclusive
//! [`failpoint::session`] — concurrent tests serialize on the session
//! lock instead of consuming each other's arms.
//!
//! The contract under test, for every site in
//! [`wrt::robust::failpoint::sites::ALL`]: an injected failure is either
//! *recovered bit-identically* (shard panics) or surfaced as a
//! *structured error* (budget injections, checkpoint write failures) —
//! never a hang, never silent result loss.  "Never a hang" is enforced
//! mechanically: every chaos workload runs under a wall-clock watchdog.

// Sessions are deliberately held for whole test bodies (resume runs must
// observe the spent arm; recording must span every drill), not dropped at
// first opportunity.
#![allow(clippy::significant_drop_tightening)]

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use wrt::atpg::generate_tests_budgeted;
use wrt::core::optimize_budgeted;
use wrt::prelude::*;
use wrt::robust::failpoint::{self, sites};
use wrt::robust::{CheckpointError, DegradeStep, FailAction};
use wrt::sim::{fault_coverage_robust, CoverageResult, SimOptions};

/// Patterns per simulation drill: enough chunks that every skip count in
/// the storm lands before the stream ends.
const PATTERNS: u64 = 512;
const THREADS: usize = 3;
const WATCHDOG: Duration = Duration::from_secs(180);

/// Runs `f` on a fresh thread and fails the test if it has not finished
/// within `limit` — the "never hang" clause, enforced mechanically.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            handle.join().expect("worker finished after reporting");
            value
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("chaos workload still running after {limit:?} — a hang")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Ok(()) => unreachable!("sender dropped without sending"),
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

fn s1() -> (Circuit, FaultList) {
    let circuit = wrt::workloads::s1();
    let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
    (circuit, faults)
}

fn patterns(circuit: &Circuit) -> WeightedPatterns {
    WeightedPatterns::equiprobable(circuit.num_inputs(), 0xC0DE)
}

/// An `--set` spec flipping the first AND/NAND gate — a legal ECO on any
/// workload that has one.
fn flippable_gate_spec(circuit: &Circuit) -> String {
    circuit
        .iter()
        .find_map(|(_, n)| match n.kind() {
            wrt::circuit::GateKind::And => Some(format!("{}=OR", n.name())),
            wrt::circuit::GateKind::Nand => Some(format!("{}=NOR", n.name())),
            _ => None,
        })
        .expect("workload has a flippable gate")
}

/// Injects at a sharded-simulation site and asserts full recovery: the
/// run completes, every fault is accounted for, and the result is
/// bit-identical to the serial engine's.
fn shard_drill(site: &'static str, action: FailAction, skip: u64, must_fire: bool) {
    let session = failpoint::session();
    session.arm(site, action, skip);
    let (outcome, reference) = within(WATCHDOG, move || {
        let (circuit, faults) = s1();
        // The serial engine passes no fail points, so it is safe to run
        // while the arm is live.
        let reference = fault_coverage(&circuit, &faults, patterns(&circuit), PATTERNS, true);
        let outcome = fault_coverage_robust(
            &circuit,
            &faults,
            patterns(&circuit),
            PATTERNS,
            true,
            THREADS,
            SimOptions::default(),
            &Budget::unlimited(),
        );
        (outcome, reference)
    });
    assert!(
        outcome.is_complete(),
        "{site} {action:?} skip {skip}: a recovered run must complete"
    );
    let rc = outcome.into_value();
    assert!(
        rc.recovery.unresolved.is_empty(),
        "{site} {action:?} skip {skip}: unresolved faults {:?}",
        rc.recovery.unresolved
    );
    assert_eq!(
        rc.result.detected_at(),
        reference.detected_at(),
        "{site} {action:?} skip {skip}: recovery must be bit-identical to serial"
    );
    let fired = !session.fired().is_empty();
    if must_fire {
        assert!(fired, "{site} {action:?} skip {skip}: arm never fired");
    }
    if fired {
        assert!(
            !rc.recovery.is_clean(),
            "{site} {action:?} skip {skip}: a fired arm must be visible in the recovery record"
        );
        assert!(rc.recovery.replays >= 1);
    } else {
        assert!(rc.recovery.is_clean());
        assert_eq!(session.still_armed(), vec![site.to_string()]);
    }
}

/// Injects at `budget::check_in` during a sharded run and returns the
/// partial result: the interruption must be structured, its partial a
/// well-formed prefix of the pattern stream.
fn budget_injection_drill(skip: u64) -> (Vec<Option<u64>>, u64) {
    let session = failpoint::session();
    session.arm(sites::BUDGET_CHECK_IN, FailAction::Error, skip);
    let (outcome, circuit, faults) = within(WATCHDOG, move || {
        let (circuit, faults) = s1();
        let outcome = fault_coverage_robust(
            &circuit,
            &faults,
            patterns(&circuit),
            PATTERNS,
            true,
            THREADS,
            SimOptions::default(),
            &Budget::unlimited(),
        );
        (outcome, circuit, faults)
    });
    let (partial, done) = match outcome {
        RunOutcome::Interrupted {
            partial,
            reason,
            progress,
        } => {
            assert_eq!(reason, BudgetExceeded::Injected);
            assert!(progress.done <= PATTERNS);
            assert_eq!(progress.total, Some(PATTERNS));
            (partial, progress.done)
        }
        RunOutcome::Complete(full) => {
            // The skip count outlived the stream's check-ins: legal, but
            // the arm must still be accounted for — not silently lost.
            assert_eq!(
                session.still_armed(),
                vec![sites::BUDGET_CHECK_IN.to_string()]
            );
            (full, PATTERNS)
        }
    };
    // Bit-identity of the partial: exactly the first `done` patterns.
    let prefix: CoverageResult = fault_coverage(&circuit, &faults, patterns(&circuit), done, true);
    assert_eq!(
        partial.result.detected_at(),
        prefix.detected_at(),
        "skip {skip}: the partial must be the serial prefix over {done} patterns"
    );
    (partial.result.detected_at().to_vec(), done)
}

/// Injects at `checkpoint::write`: the write must fail with a structured
/// I/O error and leave no file behind; an unfired arm must leave a
/// round-trippable file.
fn checkpoint_drill(skip: u64, tag: &str) {
    let session = failpoint::session();
    session.arm(sites::CHECKPOINT_WRITE, FailAction::Error, skip);
    let mut ckpt = Checkpoint::new("chaos");
    ckpt.put("tag", tag);
    ckpt.put_f64_bits("value", 0.062_5);
    let path = std::env::temp_dir().join(format!("wrt_chaos_{tag}.ckpt"));
    let _ = std::fs::remove_file(&path);
    let result = ckpt.write_atomic(&path);
    if session.fired().is_empty() {
        result.expect("unfired write succeeds");
        let back = Checkpoint::read(&path, "chaos").expect("round-trips");
        assert_eq!(back.render(), ckpt.render());
    } else {
        match result {
            Err(CheckpointError::Io { .. }) => {}
            other => panic!("injected write failure must be a structured Io error: {other:?}"),
        }
        assert!(!path.exists(), "a failed write must not leave a file");
    }
    let _ = std::fs::remove_file(&path);
}

/// Injects at a serve site and asserts the server keeps speaking the
/// protocol: every request still gets a framed response — the injected
/// failure surfaces as an `err` frame, never a dropped connection or a
/// hang — and shutdown still drains the accept loop.
fn serve_drill(site: &'static str, skip: u64) {
    let session = failpoint::session();
    session.arm(site, FailAction::Error, skip);
    let errors = within(WATCHDOG, move || {
        let registry = std::sync::Arc::new(wrt::serve::Registry::new());
        let handle = wrt::serve::spawn(registry, "127.0.0.1:0", None).expect("server spawns");
        let addr = handle.addr().to_string();
        let spec = flippable_gate_spec(&wrt::workloads::s1());
        let argv: Vec<String> = ["eco", "s1", "--set", spec.as_str()]
            .iter()
            .map(ToString::to_string)
            .collect();
        let mut errors = 0u32;
        // A fresh connection per request, so the accept site passes every
        // time; each request passes the session and ECO-apply sites once.
        for _ in 0..4 {
            match wrt::serve::client::request(&addr, &argv).expect("a frame must come back") {
                Ok(_) => {}
                Err(message) => {
                    errors += 1;
                    assert!(!message.is_empty(), "error frames carry a reason");
                }
            }
        }
        handle.trigger_shutdown();
        handle.wait();
        errors
    });
    if session.fired().is_empty() {
        // The skip outlived the traffic: legal, but the arm must still be
        // accounted for — not silently lost.
        assert_eq!(session.still_armed(), vec![site.to_string()]);
    } else {
        assert!(
            errors >= 1,
            "{site} skip {skip}: a fired arm must surface as an err frame"
        );
    }
}

#[test]
fn drill_workloads_exercise_every_planted_site() {
    let session = failpoint::session();
    within(WATCHDOG, || {
        let (circuit, faults) = s1();
        // Sharded simulation under a budget: spawn, merge, check-in.
        let outcome = fault_coverage_robust(
            &circuit,
            &faults,
            patterns(&circuit),
            128,
            true,
            2,
            SimOptions::default(),
            &Budget::unlimited(),
        );
        assert!(outcome.is_complete());
        // Atomic checkpoint write.
        let path = std::env::temp_dir().join("wrt_chaos_drill.ckpt");
        Checkpoint::new("chaos")
            .write_atomic(&path)
            .expect("writes");
        let _ = std::fs::remove_file(&path);
        // Resident server: the accept loop, the per-request session
        // handler, and the ECO overlay apply each pass their site.
        let registry = std::sync::Arc::new(wrt::serve::Registry::new());
        let handle = wrt::serve::spawn(registry, "127.0.0.1:0", None).expect("server spawns");
        let addr = handle.addr().to_string();
        let spec = flippable_gate_spec(&circuit);
        let argv: Vec<String> = ["eco", "s1", "--set", spec.as_str()]
            .iter()
            .map(ToString::to_string)
            .collect();
        let response = wrt::serve::client::request(&addr, &argv).expect("transport");
        assert!(response.is_ok(), "{response:?}");
        handle.trigger_shutdown();
        handle.wait();
    });
    for site in sites::ALL {
        assert!(
            session.hits(site) > 0,
            "site `{site}` is planted but never exercised by the drills"
        );
    }
}

/// The storm: one seed, one deterministic injection plan, one drill.
/// Every seed must end in recovery or a structured error within the
/// watchdog — across every planted site, both actions, early and late
/// skips.
#[test]
fn seeded_injection_storm_recovers_or_errors_never_hangs() {
    for seed in 0..30u64 {
        let (site_index, skip) = failpoint::seeded_plan(seed, sites::ALL.len(), 3);
        let site = sites::ALL[site_index];
        match site {
            sites::WORKER_SPAWN | sites::SHARD_MERGE => {
                let action = if seed % 2 == 0 {
                    FailAction::Panic
                } else {
                    FailAction::Error
                };
                shard_drill(site, action, skip, false);
            }
            sites::BUDGET_CHECK_IN => {
                // Same skip twice: the injected interruption must be
                // deterministic — identical partial, identical progress.
                let (first, done_first) = budget_injection_drill(skip);
                let (second, done_second) = budget_injection_drill(skip);
                assert_eq!(done_first, done_second, "seed {seed}");
                assert_eq!(first, second, "seed {seed}: partials diverged");
            }
            sites::CHECKPOINT_WRITE => checkpoint_drill(skip, &format!("storm{seed}")),
            sites::SERVE_ACCEPT | sites::SERVE_SESSION | sites::SERVE_ECO_APPLY => {
                serve_drill(site, skip);
            }
            other => unreachable!("unknown site {other}"),
        }
    }
}

#[test]
fn shard_panics_and_merge_failures_recover_bit_identically() {
    for site in [sites::WORKER_SPAWN, sites::SHARD_MERGE] {
        for action in [FailAction::Panic, FailAction::Error] {
            for skip in 0..2u64 {
                shard_drill(site, action, skip, true);
            }
        }
    }
}

/// A lone shard (one thread) that dies at spawn is replayed over the
/// whole stream, not over the prefix streamed before the producer saw it
/// hang up: the recovered result covers every requested pattern.
#[test]
fn a_poisoned_lone_shard_replays_the_whole_stream() {
    let num_patterns = 3 * 8192 + 5;
    for action in [FailAction::Panic, FailAction::Error] {
        let session = failpoint::session();
        session.arm(sites::WORKER_SPAWN, action, 0);
        let (outcome, reference) = within(WATCHDOG, move || {
            let (circuit, faults) = s1();
            let reference =
                fault_coverage(&circuit, &faults, patterns(&circuit), num_patterns, false);
            let outcome = fault_coverage_robust(
                &circuit,
                &faults,
                patterns(&circuit),
                num_patterns,
                false,
                1,
                SimOptions::default(),
                &Budget::unlimited(),
            );
            (outcome, reference)
        });
        assert_eq!(session.fired(), vec![sites::WORKER_SPAWN.to_string()]);
        assert!(outcome.is_complete(), "{action:?}");
        let rc = outcome.into_value();
        assert_eq!(rc.recovery.replays, 1, "{action:?}");
        assert!(rc.recovery.unresolved.is_empty(), "{action:?}");
        assert_eq!(
            rc.result, reference,
            "{action:?}: replay must cover the whole stream"
        );
    }
}

/// A shard whose merge fails and whose event replay dies at spawn too
/// reaches the ladder's second rung: the dense oracle replays it, and
/// the run still completes bit-identically.
#[test]
fn a_failed_event_replay_falls_back_to_the_dense_oracle() {
    let (circuit, faults) = s1();
    let regions = wrt::circuit::FanoutFreeRegions::new(&circuit);
    let shards = wrt::fault::FaultPartition::cone_locality(&regions, &faults, THREADS).num_shards();
    for action in [FailAction::Panic, FailAction::Error] {
        let session = failpoint::session();
        session.arm(sites::SHARD_MERGE, FailAction::Error, 0);
        // Every fan-out worker passes the spawn site once; the next pass
        // is the first replay's.
        session.arm(sites::WORKER_SPAWN, action, shards as u64);
        let (outcome, reference) = within(WATCHDOG, move || {
            let (circuit, faults) = s1();
            let reference = fault_coverage(&circuit, &faults, patterns(&circuit), PATTERNS, true);
            let outcome = fault_coverage_robust(
                &circuit,
                &faults,
                patterns(&circuit),
                PATTERNS,
                true,
                THREADS,
                SimOptions::default(),
                &Budget::unlimited(),
            );
            (outcome, reference)
        });
        assert!(
            session.still_armed().is_empty(),
            "{action:?}: both arms fired"
        );
        assert!(outcome.is_complete(), "{action:?}");
        let rc = outcome.into_value();
        assert_eq!(
            rc.result, reference,
            "{action:?}: the oracle replay is bit-identical"
        );
        assert_eq!(rc.recovery.replays, 2, "{action:?}");
        let ladder = &rc.recovery.ladder;
        assert_eq!(ladder.count(DegradeStep::ShardRequeue), 1, "{action:?}");
        assert_eq!(ladder.count(DegradeStep::EventToDense), 1, "{action:?}");
        assert!(rc.recovery.unresolved.is_empty(), "{action:?}");
    }
}

#[test]
fn injected_interruption_checkpoints_and_resumes_optimize_bit_identically() {
    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
    let session = failpoint::session();
    let (circuit, faults) = s1();
    let config = OptimizeConfig::default();
    // The unbudgeted optimizer never checks in, so it passes no fail
    // points even while the arm is live.
    let mut reference_engine = CopEngine::new();
    let reference = optimize(&circuit, &faults, &mut reference_engine, &config);

    session.arm(sites::BUDGET_CHECK_IN, FailAction::Error, 1);
    let mut engine = CopEngine::new();
    let first = optimize_budgeted(
        &circuit,
        &faults,
        &mut engine,
        &config,
        &Budget::unlimited(),
        None,
    )
    .expect("no resume state to validate");
    assert_eq!(
        first.outcome.interrupt_reason(),
        Some(BudgetExceeded::Injected)
    );
    let ckpt = first
        .checkpoint
        .expect("interrupted runs carry resume state");

    // The arm is spent; resume inside the same session and the descent
    // must land exactly where the uninterrupted reference did.
    let mut resumed_engine = CopEngine::new();
    let resumed = optimize_budgeted(
        &circuit,
        &faults,
        &mut resumed_engine,
        &config,
        &Budget::unlimited(),
        Some(&ckpt),
    )
    .expect("checkpoint validates");
    assert!(resumed.outcome.is_complete());
    let got = resumed.outcome.into_value();
    assert_eq!(bits(&got.weights), bits(&reference.weights));
    assert_eq!(got.final_length.to_bits(), reference.final_length.to_bits());
    assert_eq!(
        got.initial_length.to_bits(),
        reference.initial_length.to_bits()
    );
    assert_eq!(got.excluded, reference.excluded);
    assert_eq!(got.engine_calls, reference.engine_calls);
    assert_eq!(got.sweeps.len(), reference.sweeps.len());
    for (g, r) in got.sweeps.iter().zip(&reference.sweeps) {
        assert_eq!(g.test_length.to_bits(), r.test_length.to_bits());
        assert_eq!(g.num_relevant, r.num_relevant);
    }
}

#[test]
fn injected_interruption_checkpoints_and_resumes_atpg_bit_identically() {
    let session = failpoint::session();
    let (circuit, faults) = s1();
    let config = AtpgConfig::default();
    // The unbudgeted runner never checks in — safe while armed.
    let reference = generate_tests(&circuit, &faults, &config);

    session.arm(sites::BUDGET_CHECK_IN, FailAction::Error, 2);
    let first = generate_tests_budgeted(&circuit, &faults, &config, &Budget::unlimited(), None)
        .expect("no resume state to validate");
    assert_eq!(
        first.outcome.interrupt_reason(),
        Some(BudgetExceeded::Injected)
    );
    let partial = first.outcome.value();
    assert!(
        !partial.survivors.is_empty(),
        "an early interruption leaves unattempted faults"
    );
    let ckpt = first
        .checkpoint
        .expect("interrupted runs carry resume state");

    let resumed = generate_tests_budgeted(
        &circuit,
        &faults,
        &config,
        &Budget::unlimited(),
        Some(&ckpt),
    )
    .expect("checkpoint validates");
    assert!(resumed.outcome.is_complete());
    let got = resumed.outcome.into_value();
    assert_eq!(
        got.tests, reference.tests,
        "random fill must resume mid-stream"
    );
    assert_eq!(got.detected, reference.detected);
    assert_eq!(got.redundant, reference.redundant);
    assert_eq!(got.aborted, reference.aborted);
    assert!(got.survivors.is_empty());
    assert_eq!(got.podem_calls, reference.podem_calls);
    assert_eq!(got.backtracks, reference.backtracks);
}

#[test]
fn injected_interruption_inside_a_podem_search_resumes_atpg_bit_identically() {
    let session = failpoint::session();
    let (circuit, faults) = s1();
    let config = AtpgConfig::default();
    let reference = generate_tests(&circuit, &faults, &config);

    // Count the check-ins: a run cut by the eval axis after k PODEM calls
    // passes k + 1 fault boundaries and one check-in per decision of each
    // of its k searches.
    let cut_after = |calls: u64| {
        let before = session.hits(sites::BUDGET_CHECK_IN);
        let budget = Budget::unlimited().with_max_evals(calls);
        let run = generate_tests_budgeted(&circuit, &faults, &config, &budget, None)
            .expect("no resume state to validate");
        assert_eq!(run.outcome.interrupt_reason(), Some(BudgetExceeded::Evals));
        (run, session.hits(sites::BUDGET_CHECK_IN) - before)
    };
    let (one, hits_one) = cut_after(1);
    let (_, hits_two) = cut_after(2);
    let second_search_decisions = hits_two - hits_one - 1;
    assert!(
        second_search_decisions >= 2,
        "the second search must decide more than once"
    );

    // Fire at the middle decision of the second search.
    let skip = hits_one + second_search_decisions / 2 - 1;
    session.arm(sites::BUDGET_CHECK_IN, FailAction::Error, skip);
    let first = generate_tests_budgeted(&circuit, &faults, &config, &Budget::unlimited(), None)
        .expect("no resume state to validate");
    assert_eq!(
        first.outcome.interrupt_reason(),
        Some(BudgetExceeded::Injected)
    );
    // The abandoned search is not counted, and the state stands at its
    // fault's boundary: exactly where the one-call run stopped.
    assert_eq!(first.outcome.value().podem_calls, 1);
    let ckpt = first
        .checkpoint
        .expect("interrupted runs carry resume state");
    assert_eq!(
        ckpt.render(),
        one.checkpoint.expect("interrupted").render(),
        "a trip inside a search checkpoints that fault's boundary"
    );

    let resumed = generate_tests_budgeted(
        &circuit,
        &faults,
        &config,
        &Budget::unlimited(),
        Some(&ckpt),
    )
    .expect("checkpoint validates");
    assert!(resumed.outcome.is_complete());
    let got = resumed.outcome.into_value();
    assert_eq!(got.tests, reference.tests);
    assert_eq!(got.detected, reference.detected);
    assert_eq!(got.redundant, reference.redundant);
    assert_eq!(got.aborted, reference.aborted);
    assert!(got.survivors.is_empty());
    assert_eq!(got.podem_calls, reference.podem_calls);
    assert_eq!(got.backtracks, reference.backtracks);
}

/// A valid optimize-shaped checkpoint to corrupt.
fn sample_checkpoint_text() -> String {
    let mut ckpt = Checkpoint::new("optimize");
    ckpt.put("fingerprint", "00dead00beef0000");
    ckpt.put("num_inputs", 3_u64);
    ckpt.put_f64_slice_bits("weights", &[0.25, 0.5, 1.0 - 1e-16]);
    ckpt.put_f64_bits("best_length", 1234.5678e12);
    ckpt.put_u64_slice("excluded", &[3, 17, 99]);
    ckpt.render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Single-byte corruption and truncation of a checkpoint file are
    /// either *detected* (a structured error — never a panic) or
    /// *harmless* (the parsed fields are exactly the original's, e.g. a
    /// same-byte "flip" or a dropped trailing newline).  Silently parsing
    /// different data is the one forbidden outcome.
    #[test]
    fn corrupted_checkpoints_never_parse_silently(
        position in 0usize..4096,
        replacement in 0u8..128,
        truncate in any::<bool>(),
    ) {
        let original = sample_checkpoint_text();
        let reference = Checkpoint::parse(&original, "optimize").expect("valid");
        let index = position % original.len();
        let mutated = if truncate {
            original[..index].to_string()
        } else {
            let mut bytes = original.into_bytes();
            bytes[index] = replacement;
            match String::from_utf8(bytes) {
                Ok(s) => s,
                Err(_) => return Ok(()), // ASCII replacement keeps UTF-8; unreachable
            }
        };
        match Checkpoint::parse(&mutated, "optimize") {
            Err(_) => {} // detected — structured, no panic
            Ok(parsed) => prop_assert_eq!(
                parsed.render(),
                reference.render(),
                "corruption parsed as different data"
            ),
        }
    }
}

//! Process-level verbs and the process-wide execution context.
//!
//! Every request verb's argument parsing and rendering lives in
//! [`wrt_serve::exec`], where the resident server runs the *same*
//! functions — that single source of truth is what makes a served
//! response byte-identical to batch output.  This module holds the one
//! shared [`ExecContext`] wired to the Ctrl-C flag, plus the
//! `serve`/`client`/`--remote` verbs that have no meaning inside a
//! request.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use wrt_serve::exec::{flag_value, parse_flag, ExecContext};
use wrt_serve::Registry;

pub use wrt_serve::exec::USAGE;

/// The process-wide execution context: one registry (so repeated
/// in-process calls share parsed circuits and cached baselines, exactly
/// like a server session) with the Ctrl-C flag attached, so every
/// budgeted run cancels into its structured `Interrupted` path — partial
/// result plus checkpoint — instead of dying mid-write.
pub fn context() -> &'static ExecContext {
    static CTX: OnceLock<ExecContext> = OnceLock::new();
    CTX.get_or_init(|| {
        ExecContext::new(Arc::new(Registry::new())).with_cancel(wrt_signal::ctrl_c_flag())
    })
}

/// `wrt serve [--addr HOST:PORT] [--deadline SECS]`: run the resident
/// server until `shutdown` arrives on a session or Ctrl-C lands here.
pub fn serve(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7117");
    let deadline: f64 = parse_flag(args, "--deadline", 0.0)?;
    if !deadline.is_finite() || deadline < 0.0 {
        return Err("--deadline is a non-negative number of seconds (0 = none)".into());
    }
    let deadline = (deadline > 0.0).then(|| Duration::from_secs_f64(deadline));
    let handle = wrt_serve::server::spawn(Arc::new(Registry::new()), addr, deadline)?;
    println!(
        "wrt serve: listening on {} (per-request deadline: {}); `wrt client {} shutdown` or Ctrl-C stops it",
        handle.addr(),
        deadline.map_or_else(|| "none".to_string(), |d| format!("{}s", d.as_secs_f64())),
        handle.addr(),
    );
    let cancel = wrt_signal::ctrl_c_flag();
    while !handle.finished() {
        if cancel.load(Ordering::SeqCst) {
            handle.trigger_shutdown();
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    handle.wait();
    println!("wrt serve: stopped");
    Ok(())
}

/// `wrt client <addr> <command ...>`: one request to a running server.
pub fn client(args: &[String]) -> Result<(), String> {
    let Some((addr, argv)) = args.split_first() else {
        return Err(format!("client requires <addr> <command ...>\n{USAGE}"));
    };
    remote(addr, argv)
}

/// The `wrt --remote <addr> <command ...>` form: identical to `client`.
pub fn remote(addr: &str, argv: &[String]) -> Result<(), String> {
    let out = wrt_serve::client::run(addr, argv)?;
    print!("{out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_atpg::ATPG_CHECKPOINT_KIND;
    use wrt_core::OPTIMIZE_CHECKPOINT_KIND;
    use wrt_robust::Checkpoint;
    use wrt_serve::exec::{self, circuit_arg, engine_arg, load_circuit};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn load_circuit_resolves_workloads_and_files() {
        assert!(load_circuit("s1").is_ok());
        assert!(load_circuit("definitely-not-a-circuit").is_err());
        let dir = std::env::temp_dir().join("wrt_cli_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("tiny.bench");
        std::fs::write(&path, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").expect("write");
        let circuit = load_circuit(path.to_str().expect("utf8 path")).expect("parses");
        assert_eq!(circuit.num_gates(), 1);
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["s1", "--patterns", "128", "--seed", "7"]);
        assert_eq!(parse_flag(&a, "--patterns", 0u64).unwrap(), 128);
        assert_eq!(parse_flag(&a, "--seed", 0u64).unwrap(), 7);
        assert_eq!(parse_flag(&a, "--missing", 42u64).unwrap(), 42);
        assert!(parse_flag::<u64>(&args(&["--patterns", "xyz"]), "--patterns", 0).is_err());
    }

    #[test]
    fn circuit_arg_skips_flag_values() {
        // `128` must not be mistaken for the circuit name.
        let a = args(&["--patterns", "128", "c880ish"]);
        let circuit = circuit_arg(&a).expect("resolves");
        assert_eq!(circuit.name(), "c880ish");
    }

    #[test]
    fn commands_run_end_to_end_on_a_small_workload() {
        assert!(!exec::workloads_list().is_empty());
        assert!(exec::stats(context(), &args(&["c880ish"])).is_ok());
        assert!(exec::simulate(context(), &args(&["c880ish", "--patterns", "256"])).is_ok());
        assert!(exec::simulate(context(), &args(&["c880ish"])).is_err()); // missing --patterns
        assert!(exec::atpg(context(), &args(&["c880ish"])).is_ok());
    }

    #[test]
    fn analyze_modes_run_and_lint_gates() {
        // Human, JSON, lint, and `all`-sweep modes all run; the registry
        // is lint-clean so --lint succeeds.
        assert!(exec::analyze(context(), &args(&["s1"])).is_ok());
        assert!(exec::analyze(context(), &args(&["s1", "--json"])).is_ok());
        assert!(exec::analyze(context(), &args(&["s1", "--lint"])).is_ok());
        assert!(exec::analyze(context(), &args(&["all", "--lint"])).is_ok());
        assert!(exec::analyze(context(), &args(&[])).is_err());
        assert!(exec::analyze(context(), &args(&["no-such-circuit"])).is_err());
    }

    #[test]
    fn analyze_lint_fails_on_defective_bench_file() {
        let dir = std::env::temp_dir().join("wrt_cli_lint_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        // Undriven net `ghost`: text-level lint fires and the run fails.
        let path = dir.join("bad.bench");
        std::fs::write(&path, "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").expect("write");
        let p = path.to_str().expect("utf8").to_string();
        assert!(exec::analyze(context(), &[p, "--lint".into()]).is_err());
        // A clean file passes.
        let good = dir.join("good.bench");
        std::fs::write(&good, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").expect("write");
        let g = good.to_str().expect("utf8").to_string();
        assert!(exec::analyze(context(), &[g.clone(), "--lint".into()]).is_ok());
        assert!(exec::analyze(context(), &[g]).is_ok());
    }

    #[test]
    fn atpg_guidance_flag() {
        for g in ["cop", "scoap", "unguided"] {
            assert!(
                exec::atpg(context(), &args(&["s1", "--guidance", g])).is_ok(),
                "--guidance {g}"
            );
        }
        assert!(exec::atpg(context(), &args(&["s1", "--guidance", "psychic"])).is_err());
    }

    #[test]
    fn optimize_seed_weights_flag() {
        assert!(exec::optimize(context(), &args(&["s1", "--seed-weights", "scoap"])).is_ok());
        assert!(exec::optimize(context(), &args(&["s1", "--seed-weights", "uniform"])).is_ok());
        assert!(exec::optimize(context(), &args(&["s1", "--seed-weights", "psychic"])).is_err());
    }

    #[test]
    fn simulate_rejects_wrong_weight_count() {
        let a = args(&["c880ish", "--patterns", "64", "--weights", "0.5,0.5"]);
        assert!(exec::simulate(context(), &a).is_err());
    }

    #[test]
    fn simulate_sim_engine_flags() {
        // The engine and width choices are gone; each flag must fail
        // loudly (unknown flags are otherwise ignored), whatever the value.
        for (flag, values) in [
            ("--engine", ["dense", "event", "psychic"]),
            ("--block-words", ["4", "16", "psychic"]),
        ] {
            for value in values {
                let a = args(&["c880ish", "--patterns", "256", flag, value]);
                let err = exec::simulate(context(), &a).unwrap_err();
                assert!(err.starts_with(&format!("{flag} was removed")), "{err}");
            }
        }
    }

    #[test]
    fn simulate_pattern_stripes_flag() {
        // Accepted for compatibility and without effect: for any count,
        // the output is byte-identical to the run without the flag.
        let plain = args(&[
            "c880ish",
            "--patterns",
            "256",
            "--threads",
            "2",
            "--seed",
            "7",
        ]);
        let expected = exec::simulate(context(), &plain).expect("runs");
        for stripes in ["2", "0", "100000"] {
            let a = [plain.clone(), args(&["--pattern-stripes", stripes])].concat();
            let out = exec::simulate(context(), &a).expect("runs");
            assert_eq!(out, expected, "--pattern-stripes {stripes}");
        }
        // Garbage values are parse errors, not panics.
        let a = args(&["c880ish", "--patterns", "256", "--pattern-stripes", "many"]);
        assert!(exec::simulate(context(), &a).is_err());
    }

    #[test]
    fn simulate_accepts_thread_counts() {
        for t in ["1", "2", "0"] {
            let a = args(&["c880ish", "--patterns", "256", "--threads", t]);
            assert!(exec::simulate(context(), &a).is_ok(), "--threads {t}");
        }
    }

    #[test]
    fn threads_zero_is_the_documented_auto_fallback() {
        // `--threads 0` means "all cores" everywhere, never a panic or a
        // zero-worker deadlock — on simulate and on the monte-carlo
        // optimize path alike.
        let a = args(&["c880ish", "--patterns", "128", "--threads", "0"]);
        assert!(exec::simulate(context(), &a).is_ok());
        let o = args(&[
            "s1",
            "--engine",
            "monte-carlo",
            "--threads",
            "0",
            "--mc-patterns",
            "256",
        ]);
        assert!(exec::optimize(context(), &o).is_ok());
    }

    #[test]
    fn thread_counts_beyond_the_fault_list_are_clamped_not_fatal() {
        // s1 has a handful of faults; 64 requested shards exceed the
        // fault-list length.  The sharded engine clamps (empty shards
        // are simply never created) instead of panicking.
        let a = args(&["s1", "--patterns", "128", "--threads", "64"]);
        assert!(exec::simulate(context(), &a).is_ok());
        let o = args(&[
            "s1",
            "--engine",
            "monte-carlo",
            "--threads",
            "64",
            "--mc-patterns",
            "256",
        ]);
        assert!(exec::optimize(context(), &o).is_ok());
    }

    #[test]
    fn commit_batch_flag_is_a_removed_error() {
        // The per-move mode it selected is gone; the flag must fail
        // loudly (unknown flags are otherwise ignored), whatever the
        // value or engine.
        for a in [
            args(&["s1", "--commit-batch", "4"]),
            args(&["s1", "--commit-batch", "lots"]),
            args(&["s1", "--engine", "cop", "--commit-batch", "1"]),
        ] {
            let err = exec::optimize(context(), &a).unwrap_err();
            assert!(err.contains("--commit-batch was removed"), "{err}");
        }
        assert!(engine_arg(&args(&["--commit-batch"])).is_err());
    }

    #[test]
    fn time_limit_zero_interrupts_cleanly_everywhere() {
        // A zero wall-clock budget trips at the first check-in: the run
        // reports an interruption and exits cleanly — never a hang, a
        // panic, or a garbage result.
        let a = args(&["c880ish", "--patterns", "4096", "--time-limit", "0"]);
        assert!(exec::simulate(context(), &a).is_ok());
        assert!(exec::atpg(context(), &args(&["s1", "--time-limit", "0"])).is_ok());
        // Malformed limits are clean errors.
        assert!(exec::simulate(
            context(),
            &args(&["s1", "--patterns", "64", "--time-limit", "-1"])
        )
        .is_err());
        assert!(exec::simulate(
            context(),
            &args(&["s1", "--patterns", "64", "--time-limit", "soon"])
        )
        .is_err());
    }

    #[test]
    fn max_evals_smaller_than_one_block_is_an_empty_run_not_a_crash() {
        // One pattern of c880ish costs ~num_nodes evals; a 1-eval budget
        // resolves to a zero-pattern clip — reported as an interruption
        // with an empty (but well-formed) coverage result.
        let a = args(&["c880ish", "--patterns", "4096", "--max-evals", "1"]);
        assert!(exec::simulate(context(), &a).is_ok());
    }

    #[test]
    fn backtrack_budget_is_atpg_only() {
        let a = args(&["s1", "--patterns", "64", "--max-backtracks-total", "5"]);
        assert!(exec::simulate(context(), &a).is_err());
        assert!(exec::atpg(
            context(),
            &args(&["s1", "--max-backtracks-total", "100000"])
        )
        .is_ok());
    }

    #[test]
    fn atpg_degrade_flag_runs() {
        assert!(exec::atpg(context(), &args(&["s1", "--degrade"])).is_ok());
    }

    #[test]
    fn resume_from_missing_corrupt_or_foreign_checkpoint_is_a_clean_error() {
        let dir = std::env::temp_dir().join("wrt_cli_resume_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");

        // Missing file.
        let missing = dir.join("never-written.ckpt");
        let m = missing.to_str().expect("utf8").to_string();
        let err = exec::optimize(context(), &args(&["s1", "--resume", &m])).unwrap_err();
        assert!(err.contains("cannot resume"), "{err}");

        // Corrupt file (tampered checksum): never deserialized.
        let corrupt = dir.join("corrupt.ckpt");
        let mut c = Checkpoint::new(OPTIMIZE_CHECKPOINT_KIND);
        c.put("fingerprint", "0000000000000000");
        let tampered = c.render().replace("fingerprint=0000", "fingerprint=1111");
        std::fs::write(&corrupt, tampered).expect("write");
        let p = corrupt.to_str().expect("utf8").to_string();
        let err = exec::optimize(context(), &args(&["s1", "--resume", &p])).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");

        // Version from the future: reported, not guessed at.
        let future = dir.join("future.ckpt");
        std::fs::write(&future, "wrt-checkpoint v99\nkind=atpg\n").expect("write");
        let p = future.to_str().expect("utf8").to_string();
        let err = exec::atpg(context(), &args(&["s1", "--resume", &p])).unwrap_err();
        assert!(
            err.contains("v99") && err.contains("not supported"),
            "{err}"
        );

        // A checkpoint of the other subsystem.
        let foreign = dir.join("foreign.ckpt");
        let mut c = Checkpoint::new(ATPG_CHECKPOINT_KIND);
        c.put("fingerprint", "0000000000000000");
        c.write_atomic(&foreign).expect("write");
        let p = foreign.to_str().expect("utf8").to_string();
        let err = exec::optimize(context(), &args(&["s1", "--resume", &p])).unwrap_err();
        assert!(err.contains("kind"), "{err}");
    }

    #[test]
    fn interrupted_optimize_writes_a_checkpoint_that_resumes() {
        let dir = std::env::temp_dir().join("wrt_cli_ckpt_roundtrip");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ckpt = dir.join("opt.ckpt");
        let p = ckpt.to_str().expect("utf8").to_string();
        let _ = std::fs::remove_file(&ckpt);

        // A 1-engine-call budget trips right after the initial ANALYSIS.
        let interrupted = args(&["s1", "--max-evals", "1", "--checkpoint", &p]);
        assert!(exec::optimize(context(), &interrupted).is_ok());
        assert!(ckpt.exists(), "interruption must persist resume state");

        // Resuming with the same inputs completes.
        assert!(exec::optimize(context(), &args(&["s1", "--resume", &p])).is_ok());

        // Resuming under a different config is refused via fingerprint.
        let err = exec::optimize(
            context(),
            &args(&["s1", "--confidence", "0.9", "--resume", &p]),
        )
        .unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn interrupted_atpg_writes_a_checkpoint_that_resumes() {
        let dir = std::env::temp_dir().join("wrt_cli_atpg_ckpt");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ckpt = dir.join("atpg.ckpt");
        let p = ckpt.to_str().expect("utf8").to_string();
        let _ = std::fs::remove_file(&ckpt);

        let interrupted = args(&["s1", "--max-evals", "2", "--checkpoint", &p]);
        assert!(exec::atpg(context(), &interrupted).is_ok());
        assert!(ckpt.exists(), "interruption must persist resume state");
        assert!(exec::atpg(context(), &args(&["s1", "--resume", &p])).is_ok());
    }

    #[test]
    fn engine_selection() {
        assert_eq!(engine_arg(&args(&[])).unwrap().name(), "cop");
        assert_eq!(
            engine_arg(&args(&["--engine", "cop"])).unwrap().name(),
            "cop"
        );
        // The incremental engine is gone; naming it is a clean error.
        let err =
            exec::optimize(context(), &args(&["s1", "--engine", "incremental-cop"])).unwrap_err();
        assert!(err.contains("incremental-cop was removed"), "{err}");
        assert_eq!(
            engine_arg(&args(&["--engine", "stafan"])).unwrap().name(),
            "stafan"
        );
        assert_eq!(
            engine_arg(&args(&["--engine", "monte-carlo", "--threads", "2"]))
                .unwrap()
                .name(),
            "monte-carlo"
        );
        assert!(engine_arg(&args(&["--engine", "psychic"])).is_err());
        // Sampling-only flags are rejected rather than silently ignored.
        assert!(engine_arg(&args(&["--threads", "4"])).is_err());
        assert!(engine_arg(&args(&["--engine", "stafan", "--mc-patterns", "64"])).is_err());
        assert!(engine_arg(&args(&["--seed", "7"])).is_err());
        assert!(engine_arg(&args(&["--engine", "stafan", "--seed", "7"])).is_ok());
    }
}

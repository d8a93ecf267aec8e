//! SIGINT-to-`AtomicBool` bridge for cooperative cancellation.
//!
//! The workspace's long-running commands (`optimize`, `simulate`, `atpg`,
//! `serve`) are budgeted and check a shared cancellation flag at natural
//! boundaries (`wrt_robust::Budget::with_cancel`).  This crate turns the
//! user's Ctrl-C into that flag: [`ctrl_c_flag`] installs a SIGINT handler
//! once and returns the `Arc<AtomicBool>` it raises, so an interrupted run
//! exits through the structured `Interrupted` path (partial result +
//! checkpoint) instead of being killed mid-write.
//!
//! The handler stays installed, so a second SIGINT only raises the flag
//! again.  One interrupt often arrives twice: GNU `timeout -s INT`
//! signals its child and then the child's process group, and a terminal
//! Ctrl-C reaches every process of the foreground group.  A hung run is
//! still ended by SIGTERM or SIGKILL.
//!
//! This is the only crate in the workspace allowed to contain `unsafe`
//! code (one audited `signal(2)` FFI declaration); everything else is
//! built under `unsafe_code = "forbid"`.  The handler body is
//! async-signal-safe: one atomic store.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

#[cfg(unix)]
mod imp {
    use super::{Ordering, FLAG};

    pub const SIGINT: i32 = 2;

    extern "C" {
        /// POSIX `signal(2)`.  Used instead of `sigaction` to keep the
        /// declaration to one line with no struct layout to get wrong;
        /// on Linux glibc this is the BSD semantics: the handler stays
        /// installed after it runs.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        // Async-signal-safe: `OnceLock::get` on an initialized cell is a
        // lock-free load (initialization happened before `install`), and
        // the store is a plain atomic.
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal wiring off Unix: the flag is still returned (callers can
    /// raise it programmatically) but Ctrl-C keeps its default behavior.
    pub fn install() {}
}

/// Returns the process-wide cancellation flag, installing the SIGINT
/// handler on first call.
///
/// The same `Arc` is returned on every call, so independent subsystems
/// (a budgeted run and a server accept loop, say) all observe the same
/// Ctrl-C.  The flag is never reset: one interrupt cancels everything
/// attached to it for the remainder of the process.
pub fn ctrl_c_flag() -> Arc<AtomicBool> {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    let flag = FLAG.get_or_init(|| Arc::new(AtomicBool::new(false)));
    if INSTALLED
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        imp::install();
    }
    Arc::clone(flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_is_a_singleton_and_starts_lowered() {
        let a = ctrl_c_flag();
        let b = ctrl_c_flag();
        assert!(Arc::ptr_eq(&a, &b));
        // Other tests in this binary may have raised it; raising is
        // idempotent and never resets, so only check the type contract
        // when this test runs first.
        if !a.load(Ordering::SeqCst) {
            a.store(false, Ordering::SeqCst);
        }
    }

    #[cfg(unix)]
    #[test]
    fn sigint_raises_the_flag_instead_of_killing() {
        let flag = ctrl_c_flag();
        // Deliver two real SIGINTs to this process via kill(1), the
        // second after the first was handled (as `timeout -s INT` does);
        // under the default disposition either one would terminate the
        // test run outright.
        let pid = std::process::id().to_string();
        for round in ["first", "second"] {
            let status = std::process::Command::new("kill")
                .args(["-INT", &pid])
                .status();
            let Ok(status) = status else {
                eprintln!("kill(1) unavailable; skipping signal delivery check");
                return;
            };
            assert!(status.success(), "kill -INT failed");
            // Signal delivery is asynchronous; poll briefly, then give
            // the handler time to finish.
            let raised = (0..200).any(|_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                flag.load(Ordering::SeqCst)
            });
            assert!(raised, "the {round} SIGINT did not raise the flag");
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
}

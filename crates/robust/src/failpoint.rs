//! Deterministic fail-point injection.
//!
//! A *fail point* is a named site planted in production code — worker
//! spawn, shard merge, checkpoint write, budget check-in — that normally
//! does nothing, but can be *armed* by a chaos test to fire exactly once
//! after a chosen number of passes, either panicking (to exercise panic
//! isolation) or returning a structured [`InjectedFailure`] (to exercise
//! error paths).  Arming is explicit and seed-derivable, so every chaos
//! scenario is reproducible.
//!
//! # Cost when disabled
//!
//! The disabled fast path is one relaxed atomic load of a counter that is
//! zero outside of an active [`Session`] — no lock, no allocation, no
//! branch beyond the comparison.  Production runs never arm sites, so the
//! planted points are free in every benchmarked configuration.
//!
//! # Process-global state
//!
//! The registry is process-global (the sites it guards live across crate
//! boundaries), so concurrent chaos tests would interfere.  [`session`]
//! serializes them: it holds a global lock for the session's lifetime and
//! clears all arms and counters on drop.  Keep chaos tests in a dedicated
//! integration-test binary so they never share a process with unrelated
//! tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// A structured failure returned by a fired fail point armed with
/// [`FailAction::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFailure {
    /// The site that fired.
    pub site: String,
}

impl std::fmt::Display for InjectedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fail-point `{}` injected a failure", self.site)
    }
}

impl std::error::Error for InjectedFailure {}

/// What an armed fail point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the site (exercises panic isolation and recovery).
    Panic,
    /// Return an [`InjectedFailure`] from [`hit`] (exercises structured
    /// error paths).
    Error,
}

struct Arm {
    action: FailAction,
    /// Passes to let through before firing.
    skip: u64,
}

#[derive(Default)]
struct Registry {
    arms: HashMap<String, Arm>,
    hits: HashMap<String, u64>,
    fired: Vec<String>,
    recording: bool,
}

/// Number of currently armed sites plus one per recording session: the
/// disabled fast path in [`hit`] is a single relaxed load of this.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> MutexGuard<'static, Registry> {
    // A panic while holding the lock is part of normal chaos-test flow
    // (FailAction::Panic fires inside `hit`); the registry state itself
    // stays consistent, so poisoning is ignored.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether any fail-point session is active (armed sites or recording).
pub fn any_armed() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Passes through the fail point `site`.
///
/// With no active session this is one relaxed atomic load.  Inside a
/// session, the pass is counted; if `site` is armed and its skip count is
/// spent, the arm fires exactly once — panicking or returning the
/// structured failure per its [`FailAction`].
///
/// # Errors
///
/// Returns [`InjectedFailure`] when an [`FailAction::Error`] arm fires.
///
/// # Panics
///
/// Panics when a [`FailAction::Panic`] arm fires.
pub fn hit(site: &str) -> Result<(), InjectedFailure> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    hit_slow(site)
}

#[cold]
fn hit_slow(site: &str) -> Result<(), InjectedFailure> {
    let mut reg = lock();
    if reg.recording {
        *reg.hits.entry(site.to_string()).or_insert(0) += 1;
    }
    let fire = match reg.arms.get_mut(site) {
        None => None,
        Some(arm) if arm.skip > 0 => {
            arm.skip -= 1;
            None
        }
        Some(arm) => {
            let action = arm.action;
            reg.arms.remove(site);
            reg.fired.push(site.to_string());
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
            Some(action)
        }
    };
    drop(reg);
    match fire {
        None => Ok(()),
        Some(FailAction::Error) => Err(InjectedFailure {
            site: site.to_string(),
        }),
        Some(FailAction::Panic) => panic!("fail-point `{site}` injected a panic"),
    }
}

/// Passes through the fail point `site`, checking every armed site.  Use
/// `wrt_robust::failpoint!("crate::site")` at plant sites; the expression
/// evaluates to `Result<(), InjectedFailure>`.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::failpoint::hit($site)
    };
}

/// The well-known fail-point sites planted across the workspace.  Chaos
/// suites iterate this vocabulary; plant sites reference these constants
/// so arming and planting can never drift apart.
pub mod sites {
    /// Start of a sharded fault-simulation worker (worker thread).
    pub const WORKER_SPAWN: &str = "shard::spawn";
    /// Per-shard result merge on the coordinating thread.
    pub const SHARD_MERGE: &str = "shard::merge";
    /// Atomic checkpoint write.
    pub const CHECKPOINT_WRITE: &str = "checkpoint::write";
    /// Cooperative budget check-in.
    pub const BUDGET_CHECK_IN: &str = "budget::check_in";
    /// One accepted connection in the `wrt serve` accept loop.
    pub const SERVE_ACCEPT: &str = "serve::accept";
    /// One request dispatch inside a `wrt serve` session handler.
    pub const SERVE_SESSION: &str = "serve::session";
    /// Application of a what-if ECO overlay to a served baseline.
    pub const SERVE_ECO_APPLY: &str = "serve::eco_apply";

    /// Every planted site, for seed-driven chaos iteration.
    pub const ALL: [&str; 7] = [
        WORKER_SPAWN,
        SHARD_MERGE,
        CHECKPOINT_WRITE,
        BUDGET_CHECK_IN,
        SERVE_ACCEPT,
        SERVE_SESSION,
        SERVE_ECO_APPLY,
    ];
}

fn test_lock() -> &'static Mutex<()> {
    static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    TEST_LOCK.get_or_init(|| Mutex::new(()))
}

/// An exclusive fail-point session: arms fire only while it lives, and
/// everything is cleared when it drops.
pub struct Session {
    _exclusive: MutexGuard<'static, ()>,
}

/// Opens an exclusive session: clears the registry, enables pass
/// recording, and serializes against every other session in the process.
pub fn session() -> Session {
    let exclusive = test_lock().lock().unwrap_or_else(PoisonError::into_inner);
    let mut reg = lock();
    *reg = Registry {
        recording: true,
        ..Registry::default()
    };
    drop(reg);
    // Replace any stale arm count with exactly 1 (the recording flag).
    ACTIVE.store(1, Ordering::Relaxed);
    Session {
        _exclusive: exclusive,
    }
}

impl Session {
    /// Arms `site` to fire once with `action` after letting `skip`
    /// passes through.
    pub fn arm(&self, site: &str, action: FailAction, skip: u64) {
        let mut reg = lock();
        if reg
            .arms
            .insert(site.to_string(), Arm { action, skip })
            .is_none()
        {
            ACTIVE.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of passes `site` has seen during this session (fired or
    /// not) — the harness uses this to prove every planted site is
    /// actually exercised by the workload.
    pub fn hits(&self, site: &str) -> u64 {
        lock().hits.get(site).copied().unwrap_or(0)
    }

    /// Sites whose arm fired during this session.
    pub fn fired(&self) -> Vec<String> {
        lock().fired.clone()
    }

    /// Sites still armed (their skip count outlived the workload).
    pub fn still_armed(&self) -> Vec<String> {
        let mut sites: Vec<String> = lock().arms.keys().cloned().collect();
        sites.sort();
        sites
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let mut reg = lock();
        *reg = Registry::default();
        drop(reg);
        ACTIVE.store(0, Ordering::Relaxed);
    }
}

/// Derives a deterministic `(site_index, skip)` pair from `seed` — the
/// standard way chaos suites turn one seed into one injection plan.
///
/// `max_skip` bounds the skip count (use a value on the order of how
/// often the site fires in the workload, so injections land both early
/// and late).
pub fn seeded_plan(seed: u64, num_sites: usize, max_skip: u64) -> (usize, u64) {
    // SplitMix64: decorrelates consecutive seeds.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let site = (z as usize) % num_sites.max(1);
    let skip = (z >> 33) % max_skip.max(1);
    (site, skip)
}

#[cfg(test)]
// `Session`'s Drop is the teardown under test; "tighten" suggestions that
// would drop it earlier change the semantics being asserted.
#[allow(clippy::significant_drop_tightening)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hit_is_ok_and_free() {
        // Hold the session lock without opening a session, so no other
        // test can arm anything while we observe the disabled state.
        let _guard = test_lock().lock().unwrap_or_else(PoisonError::into_inner);
        assert!(hit("nowhere").is_ok());
        assert!(!any_armed());
    }

    #[test]
    fn error_arm_fires_once_after_skip() {
        let s = session();
        s.arm("x", FailAction::Error, 2);
        assert!(hit("x").is_ok());
        assert!(hit("x").is_ok());
        let err = hit("x").expect_err("third pass fires");
        assert_eq!(err.site, "x");
        // One-shot: the arm is spent.
        assert!(hit("x").is_ok());
        assert_eq!(s.hits("x"), 4);
        assert_eq!(s.fired(), vec!["x".to_string()]);
    }

    #[test]
    fn panic_arm_panics_and_registry_survives() {
        let s = session();
        s.arm("boom", FailAction::Panic, 0);
        let result = std::panic::catch_unwind(|| hit("boom"));
        assert!(result.is_err(), "panic arm must panic");
        // The registry is still usable and the arm is spent.
        assert!(hit("boom").is_ok());
        assert_eq!(s.fired(), vec!["boom".to_string()]);
    }

    #[test]
    fn session_drop_clears_everything() {
        {
            let s = session();
            s.arm("leftover", FailAction::Error, 100);
            assert!(any_armed());
        }
        // Re-acquire the lock so the disabled-state observation cannot
        // race another test opening its own session.
        let _guard = test_lock().lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!any_armed());
        assert!(hit("leftover").is_ok());
    }

    #[test]
    fn unfired_arms_are_reported() {
        let s = session();
        s.arm("never-reached", FailAction::Error, 1_000);
        assert_eq!(s.still_armed(), vec!["never-reached".to_string()]);
    }

    #[test]
    fn macro_form_expands_to_hit() {
        let s = session();
        s.arm("macro-site", FailAction::Error, 0);
        let r: Result<(), InjectedFailure> = crate::failpoint!("macro-site");
        assert!(r.is_err());
        drop(s);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..200 {
            let (site, skip) = seeded_plan(seed, 4, 10);
            assert!(site < 4);
            assert!(skip < 10);
            assert_eq!((site, skip), seeded_plan(seed, 4, 10));
        }
        // Degenerate parameters never divide by zero.
        assert_eq!(seeded_plan(1, 0, 0).0, 0);
    }
}

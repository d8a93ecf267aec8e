//! Shared engine registry: circuits and cached COP baselines, keyed by
//! circuit uid.
//!
//! The registry is the server's long-lived state.  Every verb resolves
//! its circuit argument through [`Registry::resolve`], so repeated
//! requests — from one session or many — share one `Arc<Circuit>`, one
//! collapsed fault list, and one [`CopBaseline`] per distinct weight
//! vector.  The locks here guard only *lookups*; the expensive work
//! (parsing a netlist, the two COP passes) always runs outside them, so
//! concurrent sessions never serialize on a cache miss, let alone a hit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use wrt_circuit::Circuit;
use wrt_estimate::{experiment_faults, CopBaseline};
use wrt_fault::FaultList;

/// FNV-1a over the bit patterns of a weight vector — the baseline cache
/// key.  Collisions are guarded by an equality check on hit.
pub fn weight_key(weights: &[f64]) -> u64 {
    wrt_robust::fnv1a(weights.iter().flat_map(|w| w.to_bits().to_le_bytes()))
}

/// One registered circuit plus its lazily built, shareable derived state.
pub struct CircuitEntry {
    circuit: Arc<Circuit>,
    /// The experiment fault set (collapsed checkpoints minus exactly
    /// proven-redundant lines) used by estimate/optimize/simulate/eco.
    experiment_faults: OnceLock<Arc<FaultList>>,
    /// The collapsed checkpoint set ATPG works on.
    atpg_faults: OnceLock<Arc<FaultList>>,
    /// Weight-key → shared baseline.  The map lock is held only for
    /// lookup/insert; `CopBaseline::build` runs outside it.
    baselines: Mutex<HashMap<u64, Arc<CopBaseline>>>,
}

impl CircuitEntry {
    fn new(circuit: Circuit) -> Self {
        CircuitEntry {
            circuit: Arc::new(circuit),
            experiment_faults: OnceLock::new(),
            atpg_faults: OnceLock::new(),
            baselines: Mutex::new(HashMap::new()),
        }
    }

    /// The shared immutable circuit.
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// The experiment fault set ([`experiment_faults`]), built once on
    /// first use.
    pub fn experiment_faults(&self) -> &Arc<FaultList> {
        self.experiment_faults
            .get_or_init(|| Arc::new(experiment_faults(&self.circuit)))
    }

    /// The collapsed checkpoint fault set (ATPG's working set), built
    /// once on first use.  Checkpoint lists come out of
    /// [`FaultList::checkpoints`] already collapsed: no structural
    /// equivalence rule pairs two checkpoint faults, so
    /// `collapse_equivalent` would return the list unchanged (the
    /// `fault_model` tests hold it to that).
    pub fn atpg_faults(&self) -> &Arc<FaultList> {
        self.atpg_faults
            .get_or_init(|| Arc::new(FaultList::checkpoints(&self.circuit)))
    }

    fn cached_baseline(&self, key: u64, weights: &[f64]) -> Option<Arc<CopBaseline>> {
        let map = self.baselines.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        map.get(&key)
            .filter(|b| b.weights() == weights)
            .map(Arc::clone)
    }
}

#[derive(Default)]
struct Index {
    by_uid: HashMap<u64, Arc<CircuitEntry>>,
    /// Workload name or file path → uid, so a repeated `<circuit>`
    /// argument resolves without re-parsing.
    by_source: HashMap<String, u64>,
}

/// Counters the `stat` verb reports.
#[derive(Debug, Default)]
struct Counters {
    resolves: AtomicU64,
    baseline_hits: AtomicU64,
    baseline_misses: AtomicU64,
}

/// The shared circuit/engine registry behind a resident server (or a
/// batch CLI process — both run the same verbs over the same registry
/// type, which is what keeps served and batch results bit-identical).
#[derive(Default)]
pub struct Registry {
    index: Mutex<Index>,
    counters: Counters,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Resolves a `<circuit>` argument: `#<uid>` addresses an already
    /// registered circuit; anything else is tried as a workload name,
    /// then as a `.bench` file path, and the result is registered under
    /// its uid.  Loading happens outside the index lock.
    pub fn resolve(&self, arg: &str) -> Result<Arc<CircuitEntry>, String> {
        self.counters.resolves.fetch_add(1, Ordering::Relaxed);
        if let Some(raw) = arg.strip_prefix('#') {
            let uid: u64 = raw
                .parse()
                .map_err(|_| format!("`{arg}` is not a #<uid> circuit reference"))?;
            return self
                .lock_index()
                .by_uid
                .get(&uid)
                .map(Arc::clone)
                .ok_or_else(|| format!("no circuit with uid {uid} is loaded (try `load`)"));
        }
        {
            let index = self.lock_index();
            if let Some(&uid) = index.by_source.get(arg) {
                if let Some(entry) = index.by_uid.get(&uid) {
                    return Ok(Arc::clone(entry));
                }
            }
        }
        let circuit = load_circuit(arg)?;
        let entry = Arc::new(CircuitEntry::new(circuit));
        let uid = entry.circuit.uid();
        let mut index = self.lock_index();
        // Another session may have loaded the same source concurrently;
        // the first registration wins so every alias sees one uid.
        if let Some(&existing) = index.by_source.get(arg) {
            if let Some(existing_entry) = index.by_uid.get(&existing) {
                return Ok(Arc::clone(existing_entry));
            }
        }
        index.by_uid.insert(uid, Arc::clone(&entry));
        index.by_source.insert(arg.to_string(), uid);
        drop(index);
        Ok(entry)
    }

    /// The shared COP baseline for `entry` at `weights`: cached per
    /// weight vector, built outside the lock on a miss.  On a racing
    /// double build the first insert wins, so all sessions converge on
    /// one `Arc`.
    pub fn baseline(&self, entry: &CircuitEntry, weights: &[f64]) -> Arc<CopBaseline> {
        let key = weight_key(weights);
        if let Some(hit) = entry.cached_baseline(key, weights) {
            self.counters.baseline_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.counters.baseline_misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(CopBaseline::build(Arc::clone(&entry.circuit), weights));
        let mut map = entry
            .baselines
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let winner = Arc::clone(map.entry(key).or_insert_with(|| Arc::clone(&built)));
        drop(map);
        // Hash collision between distinct weight vectors: serve the
        // correct baseline unshared rather than the colliding one.
        if winner.weights() == weights {
            winner
        } else {
            built
        }
    }

    /// Drops every registered circuit and cached baseline, returning
    /// `(circuits, baselines)` dropped.
    pub fn flush(&self) -> (usize, usize) {
        let mut index = self.lock_index();
        let circuits = index.by_uid.len();
        let baselines = index
            .by_uid
            .values()
            .map(|e| {
                e.baselines
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum();
        index.by_uid.clear();
        index.by_source.clear();
        drop(index);
        (circuits, baselines)
    }

    /// Registered circuits as `(uid, name, nodes)`, sorted by uid.
    pub fn circuits(&self) -> Vec<(u64, String, usize)> {
        let index = self.lock_index();
        let mut rows: Vec<(u64, String, usize)> = index
            .by_uid
            .values()
            .map(|e| {
                (
                    e.circuit.uid(),
                    e.circuit.name().to_string(),
                    e.circuit.num_nodes(),
                )
            })
            .collect();
        drop(index);
        rows.sort();
        rows
    }

    /// Cached baselines across all entries.
    pub fn num_baselines(&self) -> usize {
        self.lock_index()
            .by_uid
            .values()
            .map(|e| {
                e.baselines
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// `(resolves, baseline hits, baseline misses)` since process start.
    pub fn counter_snapshot(&self) -> (u64, u64, u64) {
        (
            self.counters.resolves.load(Ordering::Relaxed),
            self.counters.baseline_hits.load(Ordering::Relaxed),
            self.counters.baseline_misses.load(Ordering::Relaxed),
        )
    }

    fn lock_index(&self) -> std::sync::MutexGuard<'_, Index> {
        self.index
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Loads a circuit from a workload name or a `.bench` file path.
pub fn load_circuit(arg: &str) -> Result<Circuit, String> {
    if let Some(circuit) = wrt_workloads::by_name(arg) {
        return Ok(circuit);
    }
    let text = std::fs::read_to_string(arg)
        .map_err(|e| format!("`{arg}` is neither a workload name nor a readable file: {e}"))?;
    wrt_circuit::parse_bench_named(&text, arg).map_err(|e| format!("parsing `{arg}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_key_hashes_the_little_endian_bit_patterns() {
        assert_eq!(weight_key(&[0.5, 0.25]), 0x27be_e7d4_e5a4_cb95);
    }

    #[test]
    fn resolve_caches_by_source_and_uid() {
        let r = Registry::new();
        let a = r.resolve("s1").expect("workload");
        let b = r.resolve("s1").expect("workload again");
        assert!(Arc::ptr_eq(a.circuit(), b.circuit()), "one Arc per source");
        let by_uid = r
            .resolve(&format!("#{}", a.circuit().uid()))
            .expect("uid reference");
        assert!(Arc::ptr_eq(a.circuit(), by_uid.circuit()));
        assert!(r.resolve("#999999999").is_err());
        assert!(r.resolve("#notanumber").is_err());
        assert!(r.resolve("no-such-circuit-anywhere").is_err());
    }

    #[test]
    fn baselines_are_shared_per_weight_vector() {
        let r = Registry::new();
        let e = r.resolve("s1").expect("workload");
        let w1 = vec![0.5; e.circuit().num_inputs()];
        let w2 = vec![0.25; e.circuit().num_inputs()];
        let a = r.baseline(&e, &w1);
        let b = r.baseline(&e, &w1);
        let c = r.baseline(&e, &w2);
        assert!(Arc::ptr_eq(&a, &b), "same weights share one baseline");
        assert!(!Arc::ptr_eq(&a, &c), "different weights do not");
        let (_, hits, misses) = r.counter_snapshot();
        assert_eq!((hits, misses), (1, 2));
        assert_eq!(r.num_baselines(), 2);
        let (circuits, baselines) = r.flush();
        assert_eq!((circuits, baselines), (1, 2));
        assert!(r.circuits().is_empty());
    }

    #[test]
    fn fault_lists_build_once_and_are_shared() {
        let r = Registry::new();
        let e = r.resolve("s1").expect("workload");
        let f1 = Arc::clone(e.experiment_faults());
        let f2 = Arc::clone(e.experiment_faults());
        assert!(Arc::ptr_eq(&f1, &f2));
        assert!(e.atpg_faults().len() >= f1.len());
    }
}

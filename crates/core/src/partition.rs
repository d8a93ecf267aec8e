//! Fault-set partitioning: the extension sketched in paper §5.3.
//!
//! Optimization fails when two faults both have very low detection
//! probability and nearly disjoint test sets (the paper's example
//! criteria).  "The problem can be solved by partitioning the fault set,
//! and by computing different optimal input probabilities for each part."
//! The original did not implement this ("such pathological circuits
//! didn't occur"); we do, as the natural completion of the method.
//!
//! Strategy: optimize on the remaining faults; keep the faults the weight
//! set serves well (individual required length within a factor of the
//! best-served fault); recurse on the rest with a fresh weight set.

use wrt_circuit::Circuit;
use wrt_estimate::DetectionProbabilityEngine;
use wrt_fault::{Fault, FaultId, FaultList};

use crate::optimize::{optimize, OptimizeConfig};
use crate::test_length::required_test_length;

/// One weight set of a partitioned test, serving a subset of the faults.
#[derive(Debug, Clone)]
pub struct WeightSet {
    /// Input probabilities for this session.
    pub weights: Vec<f64>,
    /// Required test length for the faults this set covers.
    pub test_length: f64,
    /// Ids (into the original fault list) covered by this set.
    pub fault_ids: Vec<FaultId>,
}

/// The outcome of [`optimize_partitioned`].
#[derive(Debug, Clone)]
pub struct PartitionedResult {
    /// The weight sets, in the order they should be applied.
    pub parts: Vec<WeightSet>,
    /// Faults excluded as undetectable at the starting distribution.
    pub excluded: Vec<FaultId>,
}

impl PartitionedResult {
    /// Total test length across all sessions.
    pub fn total_length(&self) -> f64 {
        self.parts.iter().map(|p| p.test_length).sum()
    }
}

/// Computes up to `max_parts` weight sets, each optimized for the faults
/// the previous sets left poorly covered.
///
/// With `max_parts = 1` this degenerates to [`optimize`].  The final part
/// always absorbs every remaining fault, so the union of `fault_ids` over
/// all parts is the full (detectable) fault list.
///
/// # Panics
///
/// Panics if `max_parts == 0` or on the conditions of [`optimize`].
pub fn optimize_partitioned(
    circuit: &Circuit,
    faults: &FaultList,
    engine: &mut dyn DetectionProbabilityEngine,
    config: &OptimizeConfig,
    max_parts: usize,
) -> PartitionedResult {
    assert!(max_parts > 0, "need at least one part");
    let theta = config.theta();
    let mut remaining: Vec<(FaultId, Fault)> = faults.iter().collect();
    let mut parts = Vec::new();
    let mut excluded = Vec::new();

    for part_index in 0..max_parts {
        if remaining.is_empty() {
            break;
        }
        let part_list: FaultList = remaining.iter().map(|&(_, f)| f).collect();
        let result = optimize(circuit, &part_list, engine, config);
        // Map the part-local exclusions back to original ids, and keep
        // only live faults for coverage decisions.
        let excluded_local: std::collections::HashSet<usize> =
            result.excluded.iter().map(|id| id.index()).collect();
        excluded.extend(
            remaining
                .iter()
                .enumerate()
                .filter(|(k, _)| excluded_local.contains(k))
                .map(|(_, &(id, _))| id),
        );
        let live: Vec<(FaultId, Fault)> = remaining
            .iter()
            .enumerate()
            .filter(|(k, _)| !excluded_local.contains(k))
            .map(|(_, &pair)| pair)
            .collect();
        if live.is_empty() {
            break;
        }
        let live_list: FaultList = live.iter().map(|&(_, f)| f).collect();
        // A conflicting fault set stalls near the equiprobable saddle:
        // anything under one order of magnitude counts as a stall (real
        // successes gain 10^2–10^6).
        let stalled = result.improvement_factor() < 10.0;
        let mut weights = result.weights;
        let mut dprobs = engine.estimate(circuit, &live_list, &weights);

        let last_part = part_index + 1 == max_parts;
        // Stall breaking: a conflicting fault set (the paper's wide-AND vs
        // wide-NOR example) leaves coordinate descent at the symmetric
        // saddle with no improvement.  Re-optimize for the *hardest* fault
        // alone — its preferred corner becomes this part's weight set and
        // the conflict partner drops out of `covered` naturally.
        if !last_part && live.len() > 1 && stalled {
            let hardest = dprobs
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(k, _)| k)
                .expect("live is non-empty");
            let singleton: FaultList = std::iter::once(live[hardest].1).collect();
            let focused = optimize(circuit, &singleton, engine, config);
            let focused_probs = engine.estimate(circuit, &live_list, &focused.weights);
            // Adopt the focused weights only if they genuinely help the
            // hardest fault.
            if focused_probs[hardest] > dprobs[hardest] {
                weights = focused.weights;
                dprobs = focused_probs;
            }
        }
        let (covered, rest): (Vec<usize>, Vec<usize>) = if last_part {
            ((0..live.len()).collect(), Vec::new())
        } else {
            split_by_individual_length(&dprobs)
        };
        if covered.is_empty() {
            // Degenerate: serve everything with this set and stop.
            parts.push(WeightSet {
                weights: weights.clone(),
                test_length: required_test_length(&dprobs, theta).patterns(),
                fault_ids: live.iter().map(|&(id, _)| id).collect(),
            });
            break;
        }
        let covered_probs: Vec<f64> = covered.iter().map(|&k| dprobs[k]).collect();
        parts.push(WeightSet {
            weights: weights.clone(),
            test_length: required_test_length(&covered_probs, theta).patterns(),
            fault_ids: covered.iter().map(|&k| live[k].0).collect(),
        });
        remaining = rest.into_iter().map(|k| live[k]).collect();
    }

    PartitionedResult { parts, excluded }
}

/// Splits fault indices into (well-covered, poorly-covered) by individual
/// required length: a fault stays in the part when its `ln(1/θ)/p` is
/// within `SPREAD` of the best-covered fault's.
fn split_by_individual_length(dprobs: &[f64]) -> (Vec<usize>, Vec<usize>) {
    const SPREAD: f64 = 64.0;
    let best = dprobs.iter().copied().fold(0.0f64, f64::max);
    if best <= 0.0 {
        return ((0..dprobs.len()).collect(), Vec::new());
    }
    let mut covered = Vec::new();
    let mut rest = Vec::new();
    for (k, &p) in dprobs.iter().enumerate() {
        // length ratio = best/p; keep when within SPREAD.
        if p > 0.0 && best / p <= SPREAD {
            covered.push(k);
        } else {
            rest.push(k);
        }
    }
    (covered, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_estimate::CopEngine;

    fn pathological(width: usize) -> Circuit {
        // Same structure as wrt-workloads::pathological_pair, rebuilt here
        // to keep the dev-dependency graph acyclic.
        let mut b = wrt_circuit::CircuitBuilder::named("patho");
        let xs: Vec<_> = (0..width).map(|i| b.input(format!("X{i}"))).collect();
        let and = b.gate(wrt_circuit::GateKind::And, "WIDE_AND", &xs).unwrap();
        let nor = b.gate(wrt_circuit::GateKind::Nor, "WIDE_NOR", &xs).unwrap();
        b.mark_output(and);
        b.mark_output(nor);
        b.build().unwrap()
    }

    #[test]
    fn partitioning_beats_single_weight_set_on_conflict() {
        let c = pathological(14);
        let and_id = c.node_id("WIDE_AND").unwrap();
        let nor_id = c.node_id("WIDE_NOR").unwrap();
        let faults = FaultList::from_faults(vec![
            wrt_fault::Fault::output(and_id, false), // needs all ones
            wrt_fault::Fault::output(nor_id, false), // needs all zeros
        ]);
        let config = OptimizeConfig::default();
        let mut engine = CopEngine::new();
        let single = optimize(&c, &faults, &mut engine, &config);
        let parts = optimize_partitioned(&c, &faults, &mut engine, &config, 2);
        assert_eq!(parts.parts.len(), 2);
        assert!(
            parts.total_length() * 10.0 < single.final_length,
            "partitioned {} vs single {}",
            parts.total_length(),
            single.final_length
        );
    }

    #[test]
    fn single_part_matches_optimize() {
        let c = pathological(6);
        let faults = FaultList::checkpoints(&c);
        let config = OptimizeConfig::default();
        let mut e1 = CopEngine::new();
        let mut e2 = CopEngine::new();
        let single = optimize(&c, &faults, &mut e1, &config);
        let parts = optimize_partitioned(&c, &faults, &mut e2, &config, 1);
        assert_eq!(parts.parts.len(), 1);
        assert!((parts.total_length() - single.final_length).abs() < 1e-6);
    }

    #[test]
    fn all_faults_are_assigned_to_some_part() {
        let c = pathological(10);
        let faults = FaultList::checkpoints(&c);
        let config = OptimizeConfig::default();
        let mut engine = CopEngine::new();
        let parts = optimize_partitioned(&c, &faults, &mut engine, &config, 3);
        let assigned: usize = parts.parts.iter().map(|p| p.fault_ids.len()).sum();
        assert_eq!(assigned + parts.excluded.len(), faults.len());
    }
}

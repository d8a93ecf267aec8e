//! Property test: [`IncrementalCop`] is bit-identical to the full
//! recompute [`CopEngine`] across random circuits, random weight vectors
//! (including the 0.0/1.0 boundary points PREPARE uses), and random
//! sequences of single-coordinate perturbations and moves — for every
//! commit batch size, with randomized batch sizes and forced
//! materialization points.

mod common;

use common::{arb_circuit, arb_weight, bits, NUM_INPUTS};
use proptest::prelude::*;
use wrt_estimate::{CopEngine, DetectionProbabilityEngine, IncrementalCop};
use wrt_fault::FaultList;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn incremental_cop_matches_full_cop_bit_for_bit(
        circuit in arb_circuit(),
        start in proptest::collection::vec(arb_weight(), NUM_INPUTS),
        walk in proptest::collection::vec((0usize..NUM_INPUTS, arb_weight()), 1..12),
        batch in 2usize..9,
        flush_mask in 0u32..256,
    ) {
        let faults = FaultList::full(&circuit);
        let mut full = CopEngine::new();
        // Every batch size must agree with the reference: K = 1
        // (materialize after every move), a randomized batch size, and a
        // batch larger than the whole walk (materialization then happens
        // only at frontier-budget or ANALYSIS points, or where
        // `flush_mask` forces one).
        let mut engines = [
            IncrementalCop::new().with_commit_batch(1),
            IncrementalCop::new().with_commit_batch(batch),
            IncrementalCop::new().with_commit_batch(64),
        ];
        let mut weights = start;

        // Baseline estimate.
        let reference = full.estimate(&circuit, &faults, &weights);
        for incremental in engines.iter_mut() {
            let inc = incremental.estimate(&circuit, &faults, &weights);
            prop_assert_eq!(bits(&inc), bits(&reference));
        }

        // A simulated optimizer walk: PREPARE both boundary points of a
        // coordinate, then move that coordinate (deferred into the
        // pending overlay until the batch fills).
        for (step, (coordinate, next_value)) in walk.into_iter().enumerate() {
            let (f0, f1) = full.estimate_coordinate_pair(&circuit, &faults, &weights, coordinate);
            for incremental in engines.iter_mut() {
                let (i0, i1) = incremental
                    .estimate_coordinate_pair(&circuit, &faults, &weights, coordinate);
                prop_assert_eq!(bits(&i0), bits(&f0), "coordinate {} at 0", coordinate);
                prop_assert_eq!(bits(&i1), bits(&f1), "coordinate {} at 1", coordinate);
            }
            weights[coordinate] = next_value;
            // Forced materialization points: resolve the large-batch
            // engine's pending layer at walk steps picked by the mask.
            if flush_mask & (1 << (step % 8)) != 0 {
                engines[2].flush_pending(&circuit);
                prop_assert_eq!(engines[2].pending_len(), 0);
            }
        }

        // Final ANALYSIS-style full query at the walked-to vector
        // (materializes whatever is still pending).
        let reference = full.estimate(&circuit, &faults, &weights);
        for incremental in engines.iter_mut() {
            let inc = incremental.estimate(&circuit, &faults, &weights);
            prop_assert_eq!(bits(&inc), bits(&reference));
            prop_assert_eq!(incremental.pending_len(), 0);
        }

        // The single-coordinate walk never rebuilds more than the
        // initial baseline (plus the one a multi-coordinate jump from the
        // starting vector may cost) — not one rebuild per call.
        for incremental in &engines {
            prop_assert!(incremental.stats().full_rebuilds <= 2);
            prop_assert_eq!(incremental.stats().stateless_estimates, 0);
        }
    }
}

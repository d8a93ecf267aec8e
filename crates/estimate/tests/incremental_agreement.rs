//! Property test: [`IncrementalCop`] is bit-identical to the full
//! recompute [`CopEngine`] across random circuits, random weight vectors
//! (including the 0.0/1.0 boundary points PREPARE uses), and random
//! sequences of single-coordinate perturbations and moves.

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
    ) {
        let faults = FaultList::full(&circuit);
        let mut full = CopEngine::new();
        let mut incremental = IncrementalCop::new();
        let mut weights = start;

        // Baseline estimate.
        let reference = full.estimate(&circuit, &faults, &weights);
        let inc = incremental.estimate(&circuit, &faults, &weights);
        prop_assert_eq!(bits(&inc), bits(&reference));

        // A simulated optimizer walk: PREPARE both boundary points of a
        // coordinate, then move that coordinate (folded into the
        // baseline by the next call).
        for (coordinate, next_value) in walk {
            let (f0, f1) = full.estimate_coordinate_pair(&circuit, &faults, &weights, coordinate);
            let (i0, i1) = incremental
                .estimate_coordinate_pair(&circuit, &faults, &weights, coordinate);
            prop_assert_eq!(bits(&i0), bits(&f0), "coordinate {} at 0", coordinate);
            prop_assert_eq!(bits(&i1), bits(&f1), "coordinate {} at 1", coordinate);
            weights[coordinate] = next_value;
        }

        // Final ANALYSIS-style full query at the walked-to vector.
        let reference = full.estimate(&circuit, &faults, &weights);
        let inc = incremental.estimate(&circuit, &faults, &weights);
        prop_assert_eq!(bits(&inc), bits(&reference));

        // The single-coordinate walk never rebuilds more than the
        // initial baseline (plus the one a multi-coordinate jump from the
        // starting vector may cost) — not one rebuild per call.
        prop_assert!(incremental.stats().full_rebuilds <= 2);
        prop_assert_eq!(incremental.stats().stateless_estimates, 0);
    }
}

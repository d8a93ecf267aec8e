//! Graceful degradation for detection-probability engines.
//!
//! [`DegradingEngine`] wraps a primary engine with a simple, stateless
//! fallback: every answer is screened for *anomalies* — non-finite
//! values or estimates outside `[0, 1]` — and the first anomaly
//! permanently retires the primary.  The query that tripped is
//! re-answered by the fallback, so callers never observe a bad value;
//! the switch is recorded on a [`Ladder`] as
//! [`DegradeStep::IncrementalToStateless`].
//!
//! When the fallback is bit-identical to the primary on every healthy
//! query (stateless COP behind any COP engine), a mid-descent switch
//! leaves an optimizer trajectory unchanged — degradation costs speed,
//! never correctness.
//!
//! The `estimate::anomaly` fail point ([`wrt_robust::failpoint`])
//! simulates a primary-engine anomaly for chaos tests: when armed with
//! the `Error` action, the next screened answer is treated as anomalous
//! even though its values are healthy.

use wrt_circuit::Circuit;
use wrt_fault::FaultList;
use wrt_robust::failpoint::{self, sites};
use wrt_robust::{DegradeStep, Ladder};

use crate::engine::DetectionProbabilityEngine;

/// A primary engine screened and backed by a stateless fallback.
///
/// Every answer is screened for anomalies — non-finite values or
/// estimates outside `[0, 1]` — and the first anomaly permanently retires
/// the primary; the query that tripped is re-answered by the fallback.
#[derive(Debug)]
pub struct DegradingEngine<P, F> {
    primary: P,
    fallback: F,
    degraded: bool,
    ladder: Ladder,
}

impl<P, F> DegradingEngine<P, F>
where
    P: DetectionProbabilityEngine,
    F: DetectionProbabilityEngine,
{
    /// Wraps `primary`, diverting to `fallback` on the first anomaly.
    pub fn new(primary: P, fallback: F) -> Self {
        DegradingEngine {
            primary,
            fallback,
            degraded: false,
            ladder: Ladder::new(),
        }
    }

    /// Whether the primary engine has been retired.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The degradation history (empty while the primary is healthy).
    pub fn ladder(&self) -> &Ladder {
        &self.ladder
    }

    /// Screens one answer set; returns `true` when it must be discarded.
    fn anomalous(values: &[f64]) -> Option<String> {
        if let Err(e) = failpoint::hit(sites::ESTIMATE_ANOMALY) {
            return Some(e.to_string());
        }
        values
            .iter()
            .find(|v| !v.is_finite() || **v < 0.0 || **v > 1.0)
            .map(|v| format!("estimate {v} outside [0, 1]"))
    }

    fn degrade(&mut self, reason: String) {
        self.degraded = true;
        self.ladder
            .record(DegradeStep::IncrementalToStateless, reason);
    }
}

impl<P, F> DetectionProbabilityEngine for DegradingEngine<P, F>
where
    P: DetectionProbabilityEngine,
    F: DetectionProbabilityEngine,
{
    fn estimate(
        &mut self,
        circuit: &Circuit,
        faults: &FaultList,
        input_probs: &[f64],
    ) -> Vec<f64> {
        if !self.degraded {
            let values = self.primary.estimate(circuit, faults, input_probs);
            match Self::anomalous(&values) {
                None => return values,
                Some(reason) => self.degrade(reason),
            }
        }
        self.fallback.estimate(circuit, faults, input_probs)
    }

    fn estimate_coordinate_pair(
        &mut self,
        circuit: &Circuit,
        faults: &FaultList,
        weights: &[f64],
        coordinate: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        if !self.degraded {
            let (a, b) = self
                .primary
                .estimate_coordinate_pair(circuit, faults, weights, coordinate);
            match Self::anomalous(&a).or_else(|| Self::anomalous(&b)) {
                None => return (a, b),
                Some(reason) => self.degrade(reason),
            }
        }
        self.fallback
            .estimate_coordinate_pair(circuit, faults, weights, coordinate)
    }

    fn name(&self) -> &'static str {
        if self.degraded {
            self.fallback.name()
        } else {
            self.primary.name()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CopEngine;
    use wrt_circuit::parse_bench;

    fn circuit() -> Circuit {
        parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(t, c)\n",
        )
        .unwrap()
    }

    /// A primary that answers like COP until `poisoned_after` calls, then
    /// returns NaN forever.
    struct FlakyEngine {
        inner: CopEngine,
        calls: usize,
        poisoned_after: usize,
    }

    impl DetectionProbabilityEngine for FlakyEngine {
        fn estimate(
            &mut self,
            circuit: &Circuit,
            faults: &FaultList,
            input_probs: &[f64],
        ) -> Vec<f64> {
            self.calls += 1;
            let mut v = self.inner.estimate(circuit, faults, input_probs);
            if self.calls > self.poisoned_after {
                if let Some(x) = v.first_mut() {
                    *x = f64::NAN;
                }
            }
            v
        }

        fn name(&self) -> &'static str {
            "flaky"
        }
    }

    #[test]
    fn healthy_primary_is_never_disturbed() {
        let c = circuit();
        let faults = FaultList::checkpoints(&c);
        let mut plain = CopEngine::new();
        let mut wrapped = DegradingEngine::new(CopEngine::new(), CopEngine::new());
        let probs = [0.5, 0.25, 0.75];
        let reference = plain.estimate(&c, &faults, &probs);
        let got = wrapped.estimate(&c, &faults, &probs);
        assert_eq!(got, reference);
        let (r0, r1) = plain.estimate_coordinate_pair(&c, &faults, &probs, 1);
        let (g0, g1) = wrapped.estimate_coordinate_pair(&c, &faults, &probs, 1);
        assert_eq!((g0, g1), (r0, r1));
        assert!(!wrapped.is_degraded());
        assert!(wrapped.ladder().is_empty());
    }

    #[test]
    fn non_finite_answer_retires_the_primary_permanently() {
        let c = circuit();
        let faults = FaultList::checkpoints(&c);
        let flaky = FlakyEngine {
            inner: CopEngine::new(),
            calls: 0,
            poisoned_after: 1,
        };
        let mut wrapped = DegradingEngine::new(flaky, CopEngine::new());
        let mut reference = CopEngine::new();
        let probs = [0.5, 0.25, 0.75];

        // Call 1: healthy, served by the primary.
        assert_eq!(
            wrapped.estimate(&c, &faults, &probs),
            reference.estimate(&c, &faults, &probs)
        );
        assert!(!wrapped.is_degraded());
        assert_eq!(wrapped.name(), "flaky");

        // Call 2: the primary answers NaN; the caller must still get the
        // healthy fallback values, and the switch must be recorded.
        let got = wrapped.estimate(&c, &faults, &probs);
        assert!(got.iter().all(|v| v.is_finite()));
        assert_eq!(got, reference.estimate(&c, &faults, &probs));
        assert!(wrapped.is_degraded());
        assert_eq!(
            wrapped.ladder().count(DegradeStep::IncrementalToStateless),
            1
        );

        // Call 3: the primary stays retired (it is not even consulted —
        // its call counter stops advancing).
        let calls_before = wrapped.primary.calls;
        let _ = wrapped.estimate(&c, &faults, &probs);
        assert_eq!(wrapped.primary.calls, calls_before);
        assert_eq!(wrapped.ladder().len(), 1, "one switch, recorded once");
    }

    #[test]
    fn out_of_range_estimates_also_count_as_anomalies() {
        struct Overshoot;
        impl DetectionProbabilityEngine for Overshoot {
            fn estimate(&mut self, _: &Circuit, faults: &FaultList, _: &[f64]) -> Vec<f64> {
                vec![1.5; faults.len()]
            }
            fn name(&self) -> &'static str {
                "overshoot"
            }
        }
        let c = circuit();
        let faults = FaultList::checkpoints(&c);
        let mut wrapped = DegradingEngine::new(Overshoot, CopEngine::new());
        let got = wrapped.estimate(&c, &faults, &[0.5, 0.5, 0.5]);
        assert!(got.iter().all(|v| (0.0..=1.0).contains(v)));
        assert!(wrapped.is_degraded());
    }
}

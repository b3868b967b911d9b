//! Evaluating faults: the bridge between search and execution.
//!
//! Conceptually the impact metric is a function `I_S : Φ → R` (§2). An
//! [`Evaluator`] is that function made effectful: visiting a point costs a
//! test execution, and besides the scalar impact the sensors also report
//! what happened (status, injection-point stack trace, coverage), which
//! the quality machinery of §5 consumes.

use crate::impact::ImpactMetric;
use afex_inject::{TestOutcome, TestStatus};
use afex_space::Point;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Everything measured about one fault-injection test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The scalar impact `I_S(φ)` steering the search.
    pub impact: f64,
    /// Whether the target crashed.
    pub crashed: bool,
    /// Whether the test failed (crash, hang, or failed assertions).
    pub failed: bool,
    /// Whether the target hung.
    pub hung: bool,
    /// Whether the planned fault actually triggered.
    pub triggered: bool,
    /// Stack trace at the injection point (redundancy-clustering key).
    /// Shared (`Arc<str>`): the feedback store, cell outcomes, campaign
    /// corpus, and exporter all hold handles to the one allocation.
    pub trace: Option<Arc<str>>,
    /// Distinct basic blocks covered.
    pub blocks: usize,
}

impl Evaluation {
    /// A zero-impact evaluation (untriggered or uninteresting test).
    pub fn zero() -> Self {
        Evaluation {
            impact: 0.0,
            crashed: false,
            failed: false,
            hung: false,
            triggered: false,
            trace: None,
            blocks: 0,
        }
    }

    /// An evaluation carrying only a scalar impact (synthetic spaces).
    pub fn from_impact(impact: f64) -> Self {
        Evaluation {
            impact,
            crashed: false,
            failed: impact > 0.0,
            hung: false,
            triggered: impact > 0.0,
            trace: None,
            blocks: 0,
        }
    }

    /// Builds an evaluation from a test outcome under an impact metric.
    pub fn from_outcome(outcome: &TestOutcome, metric: &ImpactMetric) -> Self {
        Evaluation {
            impact: metric.score(outcome),
            crashed: outcome.status.is_crash(),
            failed: outcome.status.is_failure(),
            hung: outcome.status == TestStatus::Hung,
            triggered: outcome.triggered(),
            trace: outcome.injection_trace().map(Arc::from),
            blocks: outcome.coverage.blocks(),
        }
    }
}

/// One executed test: the fault plus its evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutedTest {
    /// The fault that was injected.
    pub point: Point,
    /// What the sensors measured.
    pub evaluation: Evaluation,
    /// Iteration at which the test ran (0-based).
    pub iteration: usize,
}

/// The effectful impact function the search queries.
pub trait Evaluator {
    /// Runs the fault-injection test denoted by `point` and measures it.
    fn evaluate(&self, point: &Point) -> Evaluation;

    /// [`Self::evaluate`], telling an *executor* failure (the test could
    /// not be run at all) apart from a test failure. Executors call this
    /// and end the session on `Err`; in-process evaluators never fail.
    ///
    /// # Errors
    ///
    /// Returns a description of why the test could not be executed.
    fn try_evaluate(&self, point: &Point) -> Result<Evaluation, String> {
        Ok(self.evaluate(point))
    }
}

/// Adapts a plain impact function `Φ → R` (synthetic spaces, recorded
/// experiment data, unit tests).
pub struct FnEvaluator<F: Fn(&Point) -> f64> {
    f: F,
}

impl<F: Fn(&Point) -> f64> FnEvaluator<F> {
    /// Wraps an impact function.
    pub fn new(f: F) -> Self {
        FnEvaluator { f }
    }
}

impl<F: Fn(&Point) -> f64> Evaluator for FnEvaluator<F> {
    fn evaluate(&self, point: &Point) -> Evaluation {
        Evaluation::from_impact((self.f)(point))
    }
}

/// Adapts a test-executing closure (`Φ → TestOutcome`) plus an impact
/// metric — the production wiring against `afex-targets`.
pub struct OutcomeEvaluator<F: Fn(&Point) -> TestOutcome> {
    run: F,
    metric: ImpactMetric,
}

impl<F: Fn(&Point) -> TestOutcome> OutcomeEvaluator<F> {
    /// Wraps a test runner with an impact metric.
    pub fn new(run: F, metric: ImpactMetric) -> Self {
        OutcomeEvaluator { run, metric }
    }

    /// The metric in use.
    pub fn metric(&self) -> &ImpactMetric {
        &self.metric
    }
}

impl<F: Fn(&Point) -> TestOutcome> Evaluator for OutcomeEvaluator<F> {
    fn evaluate(&self, point: &Point) -> Evaluation {
        Evaluation::from_outcome(&(self.run)(point), &self.metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afex_inject::Coverage;

    #[test]
    fn fn_evaluator_wraps_impact() {
        let e = FnEvaluator::new(|p: &Point| p[0] as f64);
        let ev = e.evaluate(&Point::new(vec![3]));
        assert_eq!(ev.impact, 3.0);
        assert!(ev.failed);
        let zero = e.evaluate(&Point::new(vec![0]));
        assert!(!zero.failed);
    }

    #[test]
    fn from_outcome_maps_fields() {
        let mut cov = Coverage::new();
        cov.mark("m", 1);
        cov.mark("m", 2);
        let outcome = TestOutcome {
            test_id: 0,
            status: TestStatus::Crashed("boom".into()),
            coverage: cov,
            injections: vec![],
        };
        let ev = Evaluation::from_outcome(&outcome, &ImpactMetric::default());
        assert!(ev.crashed);
        assert!(ev.failed);
        assert!(!ev.hung);
        assert_eq!(ev.blocks, 2);
        assert!(ev.impact > 0.0);
    }

    #[test]
    fn zero_evaluation() {
        let z = Evaluation::zero();
        assert_eq!(z.impact, 0.0);
        assert!(!z.triggered);
    }
}

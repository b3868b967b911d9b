//! The parallel session driver.
//!
//! Pumps any [`Explore`] strategy through a pool of node managers by
//! binding the strategy-agnostic [`Engine`] to a channel-backed
//! [`Executor`]: the engine keeps one candidate in flight per manager
//! and completes them in issue order (buffering out-of-order arrivals),
//! which makes a run reproducible for a fixed worker count. "Given that
//! the explorer's workload (selecting the next test) is significantly
//! less than that of the managers (actually executing and evaluating the
//! test), the system has no problematic bottleneck for clusters of
//! dozens of nodes" (§6.1).
//!
//! Because the engine owns the stop logic, the parallel path honors
//! every [`StopCondition`] — `failures:N` / `crashes:N` searches stop at
//! the first satisfying head-of-line completion, with the in-flight
//! window draining deterministically (see [`ParallelSession::run_with_stop`]).
//!
//! The pool serves every target family: managers call
//! [`Evaluator::try_evaluate`], so an evaluator over live processes can
//! report a test it could not run, and the engine ends the session with
//! the tests issued before it.

use crate::multiplex::panic_reason;
use afex_core::engine::{Engine, Executor};
use afex_core::queues::PendingTest;
use afex_core::{Evaluation, Evaluator, Explore, SessionResult, StopCondition};
use afex_space::Point;
use crossbeam::channel::{Receiver, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A manager's answer: the candidate id and its `try_evaluate` result.
type Answer = (u64, Result<Evaluation, String>);

/// The engine-side view of a manager pool: submissions go out on the
/// task channel, answers come back (in arbitrary order) on the result
/// channel.
struct PoolExecutor {
    tasks: Sender<(u64, Point)>,
    answers: Receiver<Answer>,
}

impl Executor for PoolExecutor {
    fn submit(&mut self, id: u64, test: &PendingTest) -> bool {
        self.tasks.send((id, test.point.clone())).is_ok()
    }

    fn recv(&mut self) -> Option<Answer> {
        self.answers.recv().ok() // `None`: every manager thread is gone.
    }
}

/// One node manager: evaluates tasks until the task channel closes.
///
/// An evaluator panic does not kill the manager: the test is answered as
/// a crashed, failed evaluation whose trace is the panic text, and the
/// loop keeps serving. The session keeps its exact-completion
/// bookkeeping (every issued id gets an answer) and stays deterministic,
/// since a panic for a given point is itself repeatable.
fn serve(evaluator: &impl Evaluator, tasks: &Receiver<(u64, Point)>, answers: &Sender<Answer>) {
    while let Ok((id, point)) = tasks.recv() {
        let result = catch_unwind(AssertUnwindSafe(|| evaluator.try_evaluate(&point)))
            .unwrap_or_else(|payload| {
                let mut eval = Evaluation::zero();
                eval.crashed = true;
                eval.failed = true;
                eval.trace = Some(Arc::from(panic_reason(payload.as_ref())));
                Ok(eval)
            });
        if answers.send((id, result)).is_err() {
            break; // The explorer went away.
        }
    }
}

/// A parallel exploration session over a manager pool.
pub struct ParallelSession {
    workers: usize,
}

impl ParallelSession {
    /// Creates a session with `workers` node managers.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one node manager");
        ParallelSession { workers }
    }

    /// Number of node managers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `iterations` tests of `explorer` on the manager pool —
    /// [`Self::run_with_stop`] under a plain iteration budget.
    pub fn run<X, E, F>(
        &self,
        explorer: &mut X,
        make_evaluator: F,
        iterations: usize,
    ) -> SessionResult
    where
        X: Explore + ?Sized,
        E: Evaluator,
        F: Fn(usize) -> E + Sync,
    {
        self.run_with_stop(explorer, make_evaluator, StopCondition::Iterations(iterations))
    }

    /// Runs `explorer` on the manager pool until `stop` is met.
    /// `make_evaluator` builds one evaluator per manager (each manager
    /// owns its copy of the system under test).
    ///
    /// The search is *batch-parallel*: up to `workers` candidates are
    /// generated before their fitness is known — exactly the trade-off
    /// the real cluster makes. The [`Engine`] completes results strictly
    /// in **issue order** (out-of-order arrivals are buffered) and
    /// checks the stop condition at every head-of-line completion: once
    /// it trips, no further candidates are issued, and the in-flight
    /// window drains and is recorded. The whole session is therefore
    /// deterministic for a fixed worker count and seed, no matter how
    /// the managers' timings interleave — `failures:N` / `crashes:N`
    /// searches included. Different worker counts still legitimately
    /// diverge: the window of candidates in flight (the fitness-feedback
    /// lag, and the drain length after a stop) is the worker count
    /// itself.
    ///
    /// A test whose evaluator panics is recorded as crashed and failed,
    /// with the panic text as its trace; a test the evaluator could not
    /// run (`try_evaluate` returned `Err`) ends the session at its issue
    /// position.
    pub fn run_with_stop<X, E, F>(
        &self,
        explorer: &mut X,
        make_evaluator: F,
        stop: StopCondition,
    ) -> SessionResult
    where
        X: Explore + ?Sized,
        E: Evaluator,
        F: Fn(usize) -> E + Sync,
    {
        let (tasks, task_rx) = crossbeam::channel::bounded(self.workers * 2);
        let (answer_tx, answers) = crossbeam::channel::unbounded();
        std::thread::scope(|scope| {
            // Spawn the manager pool.
            for m in 0..self.workers {
                let task_rx = task_rx.clone();
                let answer_tx = answer_tx.clone();
                let make_evaluator = &make_evaluator;
                scope.spawn(move || serve(&make_evaluator(m), &task_rx, &answer_tx));
            }
            drop(task_rx);
            drop(answer_tx);
            let mut pool = PoolExecutor { tasks, answers };
            let result = Engine::new(self.workers).drive(explorer, stop, &mut pool);
            drop(pool); // Closes the task channel: managers drain and exit.
            result
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afex_core::{
        ExhaustiveExplorer, ExplorerConfig, FitnessExplorer, FnEvaluator, RandomExplorer,
    };
    use afex_space::{Axis, FaultSpace};

    fn space() -> FaultSpace {
        FaultSpace::new(vec![
            Axis::int_range("x", 0, 19),
            Axis::int_range("y", 0, 19),
        ])
        .unwrap()
    }

    fn ridge(p: &Point) -> f64 {
        if p[0] == 7 {
            10.0
        } else {
            0.0
        }
    }

    #[test]
    fn parallel_random_runs_exact_budget() {
        let mut ex = RandomExplorer::new(space(), 1);
        let session = ParallelSession::new(4);
        let r = session.run(&mut ex, |_| FnEvaluator::new(ridge), 100);
        assert_eq!(r.len(), 100);
        let distinct: std::collections::HashSet<_> =
            r.executed.iter().map(|t| t.point.clone()).collect();
        assert_eq!(distinct.len(), 100, "no test executed twice");
    }

    #[test]
    fn parallel_fitness_still_beats_uniform_expectation() {
        let mut ex = FitnessExplorer::new(space(), ExplorerConfig::default(), 5);
        let session = ParallelSession::new(4);
        let r = session.run(&mut ex, |_| FnEvaluator::new(ridge), 200);
        assert_eq!(r.len(), 200);
        let hits = r
            .executed
            .iter()
            .filter(|t| t.evaluation.impact > 0.0)
            .count();
        // Uniform expectation is 200/20 = 10.
        assert!(hits > 15, "hits = {hits}");
    }

    #[test]
    fn exhausts_small_space_without_hanging() {
        let small = FaultSpace::new(vec![Axis::int_range("x", 0, 4)]).unwrap();
        let mut ex = RandomExplorer::new(small, 2);
        let session = ParallelSession::new(3);
        let r = session.run(&mut ex, |_| FnEvaluator::new(|_| 0.0), 100);
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn stop_condition_halts_the_pool_early() {
        // failures:3 with a 1000-test cap: the run must stop at the
        // third failing head-of-line completion plus at most the
        // in-flight window, not run the cap out.
        let mut ex = RandomExplorer::new(space(), 8);
        let session = ParallelSession::new(4);
        let r = session.run_with_stop(
            &mut ex,
            |_| FnEvaluator::new(ridge),
            StopCondition::Failures {
                count: 3,
                max_iterations: 1000,
            },
        );
        assert!(r.failures() >= 3);
        let third_failure = r
            .executed
            .iter()
            .enumerate()
            .filter(|(_, t)| t.evaluation.failed)
            .nth(2)
            .map(|(i, _)| i)
            .expect("three failures recorded");
        assert!(
            r.len() <= third_failure + 1 + 4,
            "only the in-flight window may drain after the stop: len {} vs stop at {}",
            r.len(),
            third_failure
        );
    }

    #[test]
    fn stop_aware_runs_are_deterministic_for_fixed_worker_count() {
        let run = |workers| {
            let mut ex = FitnessExplorer::new(space(), ExplorerConfig::default(), 13);
            ParallelSession::new(workers).run_with_stop(
                &mut ex,
                |_| FnEvaluator::new(ridge),
                StopCondition::Failures {
                    count: 5,
                    max_iterations: 500,
                },
            )
        };
        assert_eq!(run(3), run(3), "3-worker stop-aware runs must be bit-identical");
        assert_eq!(run(1), run(1), "1-worker stop-aware runs must be bit-identical");
    }

    #[test]
    fn evaluator_panic_is_recorded_as_a_crash_not_fatal() {
        // One manager serves all three tests; point 1 panics, and the
        // same manager must still evaluate point 2.
        let line = FaultSpace::new(vec![Axis::int_range("x", 0, 2)]).unwrap();
        let mut ex = ExhaustiveExplorer::new(line);
        let eval = |_: usize| {
            FnEvaluator::new(|p: &Point| {
                assert!(p[0] != 1, "evaluator blew up on point 1");
                p[0] as f64
            })
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // Silence the expected panic trace.
        let r = ParallelSession::new(1).run(&mut ex, eval, 3);
        std::panic::set_hook(prev);
        assert_eq!(r.len(), 3);
        let crashed = &r.executed[1].evaluation;
        assert!(crashed.crashed && crashed.failed, "{crashed:?}");
        assert_eq!(
            crashed.trace.as_deref(),
            Some("evaluator blew up on point 1")
        );
        assert_eq!(r.executed[2].evaluation, Evaluation::from_impact(2.0));
    }

    #[test]
    fn failing_try_evaluate_ends_the_session_before_it() {
        // Points from x = 3 on cannot run. Whatever order the managers
        // answer in, the session is exactly the three tests before.
        struct FailsFromThree;
        impl Evaluator for FailsFromThree {
            fn evaluate(&self, _: &Point) -> Evaluation {
                unreachable!("managers call try_evaluate")
            }
            fn try_evaluate(&self, p: &Point) -> Result<Evaluation, String> {
                if p[0] >= 3 {
                    Err(format!("cannot run {p}"))
                } else {
                    Ok(Evaluation::from_impact(p[0] as f64))
                }
            }
        }
        let line = FaultSpace::new(vec![Axis::int_range("x", 0, 19)]).unwrap();
        let mut ex = ExhaustiveExplorer::new(line);
        let r = ParallelSession::new(4).run(&mut ex, |_| FailsFromThree, 20);
        let xs: Vec<usize> = r.executed.iter().map(|t| t.point[0]).collect();
        assert_eq!(xs, [0, 1, 2]);
    }

    #[test]
    fn work_spreads_across_managers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::time::{Duration, Instant};
        let counts: Arc<Vec<AtomicUsize>> = Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        let active = |counts: &[AtomicUsize]| {
            counts
                .iter()
                .filter(|c| c.load(Ordering::SeqCst) > 0)
                .count()
        };
        // Zero-cost evaluations could all drain on whichever manager the
        // scheduler runs first. So each one waits, up to a deadline, until
        // a second manager has taken work: with four candidates in flight,
        // a pool that hands queued work to idle managers gets there at
        // once, and the assertion checks the dispatch, not the timing.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut ex = RandomExplorer::new(space(), 3);
        let session = ParallelSession::new(4);
        let counts2 = counts.clone();
        session.run(
            &mut ex,
            move |m| {
                let counts = counts2.clone();
                FnEvaluator::new(move |_p: &Point| {
                    counts[m].fetch_add(1, Ordering::SeqCst);
                    while active(&counts) < 2 && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    0.0
                })
            },
            200,
        );
        let active = active(&counts);
        assert!(active >= 2, "only {active} managers did work");
    }
}

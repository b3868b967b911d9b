//! The strategy-agnostic session engine.
//!
//! The paper separates *choosing* the next test from *executing* it
//! (§6.1): the explorer picks candidates, node managers run them. Every
//! search strategy already speaks that split through [`Explore`]; this
//! module supplies the one driver that pumps any explorer under any
//! [`StopCondition`] — the same engine whether tests execute inline
//! (sequential sessions), on a thread pool (the cluster driver), or
//! batch-parallel inside a campaign cell.
//!
//! The engine owns three invariants that used to be scattered across
//! per-strategy drive loops:
//!
//! 1. **Windowing.** At most `window` candidates are in flight at once.
//!    `window == 1` is the classic sequential session; `window == w`
//!    reproduces the cluster's batch-parallel trade-off, where `w`
//!    candidates are generated before the first fitness value feeds
//!    back.
//! 2. **Issue-order completion.** Results are fed back to the explorer
//!    strictly in issue order (out-of-order arrivals are buffered), so a
//!    run is bit-deterministic for a fixed window no matter how the
//!    executors' timings interleave.
//! 3. **Stop-aware draining.** The stop condition is checked at every
//!    head-of-line completion. Once satisfied (or the iteration cap is
//!    reached) no further candidates are issued, but everything already
//!    in flight drains and is recorded — the log is a deterministic
//!    function of the window, never of wall-clock timing.
//! 4. **Partial sessions.** A candidate the executor could not run
//!    ([`Evaluator::try_evaluate`] returned `Err`) stops issuing as soon
//!    as it arrives and ends the session when it reaches the head of
//!    line: the session is exactly the tests issued before it, whatever
//!    order the executor answered in.
//!
//! An explorer may answer `next_candidate() -> None` while results are
//! outstanding (the genetic explorer does this at generation
//! boundaries); the engine retries generation after the next completion
//! and only treats `None` as exhaustion when nothing is in flight.

use crate::evaluator::{Evaluation, Evaluator};
use crate::explore::Explore;
use crate::queues::PendingTest;
use crate::session::{SessionResult, StopCondition};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Where the engine's candidates actually execute: inline or on a
/// manager pool. The engine guarantees at most its window of
/// submissions are unanswered at any time.
pub trait Executor {
    /// Dispatches candidate `id` for evaluation. Returns whether the
    /// executor accepted it; `false` means it can no longer execute
    /// tests (e.g. the worker pool died) and the engine stops issuing.
    fn submit(&mut self, id: u64, test: &PendingTest) -> bool;

    /// Blocks until *some* submitted candidate completes, in any order,
    /// with its [`Evaluator::try_evaluate`] result. `None` means the
    /// executor failed and no further results will arrive; the engine
    /// returns what completed so far.
    fn recv(&mut self) -> Option<(u64, Result<Evaluation, String>)>;
}

/// The inline executor: evaluates each candidate synchronously at
/// submission. With `window == 1` this is exactly the classic
/// sequential session; wider windows reproduce the batch-parallel
/// fitness lag deterministically without threads.
pub struct SyncExecutor<'a> {
    eval: &'a dyn Evaluator,
    ready: VecDeque<(u64, Result<Evaluation, String>)>,
}

impl<'a> SyncExecutor<'a> {
    /// Wraps an evaluator.
    pub fn new(eval: &'a dyn Evaluator) -> Self {
        SyncExecutor {
            eval,
            ready: VecDeque::new(),
        }
    }
}

impl Executor for SyncExecutor<'_> {
    fn submit(&mut self, id: u64, test: &PendingTest) -> bool {
        let result = self.eval.try_evaluate(&test.point);
        let ran = result.is_ok();
        self.ready.push_back((id, result));
        ran
    }

    fn recv(&mut self) -> Option<(u64, Result<Evaluation, String>)> {
        self.ready.pop_front()
    }
}

/// The one driver behind every session: drives any [`Explore`] under any
/// [`StopCondition`] with a configurable in-flight window.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    window: usize,
}

impl Engine {
    /// An engine keeping up to `window` candidates in flight.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "engine needs a positive in-flight window");
        Engine { window }
    }

    /// The classic sequential session: one candidate in flight.
    pub fn sequential() -> Self {
        Engine::new(1)
    }

    /// The in-flight window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Runs `explorer` against an inline evaluator until `stop` is met.
    pub fn run(
        &self,
        explorer: &mut (impl Explore + ?Sized),
        eval: &dyn Evaluator,
        stop: StopCondition,
    ) -> SessionResult {
        let mut exec = SyncExecutor::new(eval);
        self.drive(explorer, stop, &mut exec)
    }

    /// Runs `explorer` against an arbitrary [`Executor`] until `stop` is
    /// met. The candidate-issue schedule is a pure function of the
    /// window: `[G0 .. G(w-1), C0, Gw, C1, G(w+1), ...]`, with the stop
    /// condition checked at every head-of-line completion and in-flight
    /// candidates drained (and recorded) after it trips. A candidate the
    /// executor could not run ends the session at its issue position.
    pub fn drive<E: Executor>(
        &self,
        explorer: &mut (impl Explore + ?Sized),
        stop: StopCondition,
        exec: &mut E,
    ) -> SessionResult {
        let cap = stop.max_iterations();
        // A condition satisfied by zero observations (count == 0) stops
        // the session before anything is issued — the contract of the
        // sequential stepper this engine replaced, which checked the
        // condition ahead of every step.
        if stop.satisfied(0, 0) {
            return SessionResult::new(Vec::new());
        }
        let mut executed = Vec::new();
        let (mut failures, mut crashes) = (0usize, 0usize);
        let mut outstanding: HashMap<u64, PendingTest> = HashMap::new();
        let mut ready: BTreeMap<u64, Result<Evaluation, String>> = BTreeMap::new();
        let mut next_id = 0u64;
        let mut next_complete = 0u64;
        // Set once the stop condition trips, the cap is reached, or the
        // executor refuses or fails work: no further candidates are
        // issued.
        let mut stopped = false;
        loop {
            // Refill the window. A `None` here is not necessarily final:
            // the explorer may be waiting on outstanding results (a GA
            // generation boundary), so generation is retried after every
            // completion and `None` only ends the session once nothing
            // is in flight.
            while !stopped && (next_id as usize) < cap && outstanding.len() < self.window {
                let Some(test) = explorer.next_candidate() else {
                    break;
                };
                if !exec.submit(next_id, &test) {
                    stopped = true;
                }
                outstanding.insert(next_id, test);
                next_id += 1;
            }
            if outstanding.is_empty() {
                break;
            }
            // Wait for the head-of-line result, buffering whatever else
            // arrives meanwhile.
            while !ready.contains_key(&next_complete) {
                match exec.recv() {
                    Some((id, result)) => {
                        stopped |= result.is_err();
                        ready.insert(id, result);
                    }
                    None => return SessionResult::new(executed), // Executor died.
                }
            }
            let Ok(evaluation) = ready.remove(&next_complete).expect("head result buffered") else {
                return SessionResult::new(executed); // Candidate could not run.
            };
            let test = outstanding
                .remove(&next_complete)
                .expect("result matches an issued candidate");
            if evaluation.failed {
                failures += 1;
            }
            if evaluation.crashed {
                crashes += 1;
            }
            executed.push(explorer.complete(test, evaluation));
            next_complete += 1;
            if stop.satisfied(failures, crashes) {
                stopped = true;
            }
        }
        SessionResult::new(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::FnEvaluator;
    use crate::exhaustive::ExhaustiveExplorer;
    use crate::random::RandomExplorer;
    use afex_space::{Axis, FaultSpace, Point};

    fn space() -> FaultSpace {
        FaultSpace::new(vec![Axis::int_range("x", 0, 9), Axis::int_range("y", 0, 9)]).unwrap()
    }

    fn ridge_eval() -> FnEvaluator<impl Fn(&Point) -> f64> {
        FnEvaluator::new(|p: &Point| if p[0] == 3 { 5.0 } else { 0.0 })
    }

    #[test]
    fn sequential_engine_matches_step_loop() {
        let run_engine = || {
            let mut ex = RandomExplorer::new(space(), 5);
            Engine::sequential().run(&mut ex, &ridge_eval(), StopCondition::Iterations(40))
        };
        let run_steps = || {
            let mut ex = RandomExplorer::new(space(), 5);
            ex.run(&ridge_eval(), 40)
        };
        assert_eq!(run_engine(), run_steps());
    }

    #[test]
    fn failure_stop_halts_at_first_satisfying_completion() {
        let mut ex = ExhaustiveExplorer::new(space());
        let r = Engine::sequential().run(
            &mut ex,
            &ridge_eval(),
            StopCondition::Failures {
                count: 1,
                max_iterations: 1000,
            },
        );
        assert_eq!(r.failures(), 1);
        assert!(
            r.executed.last().unwrap().evaluation.failed,
            "the satisfying completion must be the last record"
        );
    }

    #[test]
    fn windowed_engine_drains_in_flight_candidates() {
        // Window 4: the stop trips at some completion k; everything
        // issued before the trip (at most 3 more candidates) drains and
        // is recorded, nothing else is issued.
        let mut ex = ExhaustiveExplorer::new(space());
        let r = Engine::new(4).run(
            &mut ex,
            &ridge_eval(),
            StopCondition::Failures {
                count: 1,
                max_iterations: 1000,
            },
        );
        let first_failure = r
            .executed
            .iter()
            .position(|t| t.evaluation.failed)
            .expect("ridge found");
        assert!(r.failures() >= 1);
        assert!(
            r.len() <= first_failure + 4,
            "only the in-flight window may drain after the stop: {} > {} + 4",
            r.len(),
            first_failure
        );
    }

    #[test]
    fn windowed_engine_is_deterministic() {
        let run = |window| {
            let mut ex = RandomExplorer::new(space(), 9);
            Engine::new(window).run(&mut ex, &ridge_eval(), StopCondition::Iterations(50))
        };
        assert_eq!(run(4), run(4));
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn cap_bounds_every_stop_condition() {
        for stop in [
            StopCondition::Iterations(30),
            StopCondition::Failures {
                count: 10_000,
                max_iterations: 30,
            },
            StopCondition::Crashes {
                count: 10_000,
                max_iterations: 30,
            },
        ] {
            let mut ex = RandomExplorer::new(space(), 2);
            let r = Engine::new(3).run(&mut ex, &ridge_eval(), stop);
            assert_eq!(r.len(), 30, "{stop:?}");
        }
    }

    #[test]
    fn zero_count_conditions_execute_nothing() {
        // Satisfied before anything runs: no window of tests may be
        // issued (the legacy stepper's contract).
        for stop in [
            StopCondition::Failures {
                count: 0,
                max_iterations: 100,
            },
            StopCondition::Crashes {
                count: 0,
                max_iterations: 100,
            },
        ] {
            let mut ex = RandomExplorer::new(space(), 1);
            let r = Engine::new(4).run(&mut ex, &ridge_eval(), stop);
            assert!(r.is_empty(), "{stop:?} executed {} tests", r.len());
        }
    }

    #[test]
    fn executor_failure_ends_the_session_at_its_issue_position() {
        // Points from x = 3 on cannot run: every window returns exactly
        // the three tests issued before the first of them.
        struct FailsFromThree;
        impl Evaluator for FailsFromThree {
            fn evaluate(&self, _: &Point) -> Evaluation {
                unreachable!("the engine calls try_evaluate")
            }
            fn try_evaluate(&self, p: &Point) -> Result<Evaluation, String> {
                if p[0] >= 3 {
                    Err(format!("cannot run {p}"))
                } else {
                    Ok(Evaluation::from_impact(p[0] as f64))
                }
            }
        }
        let line = FaultSpace::new(vec![Axis::int_range("x", 0, 9)]).unwrap();
        for window in [1, 3, 5] {
            let mut ex = ExhaustiveExplorer::new(line.clone());
            let r =
                Engine::new(window).run(&mut ex, &FailsFromThree, StopCondition::Iterations(10));
            let xs: Vec<usize> = r.executed.iter().map(|t| t.point[0]).collect();
            assert_eq!(xs, [0, 1, 2], "window {window}");
        }
    }

    #[test]
    fn exhausted_explorer_ends_the_session() {
        let small = FaultSpace::new(vec![Axis::int_range("x", 0, 4)]).unwrap();
        let mut ex = RandomExplorer::new(small, 3);
        let r = Engine::new(3).run(&mut ex, &ridge_eval(), StopCondition::Iterations(100));
        assert_eq!(r.len(), 5);
    }
}

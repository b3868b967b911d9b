//! The system-under-test abstraction and the per-test runner.
//!
//! A [`Target`] exposes a named test suite (the `Xtest` axis of its fault
//! space) and runs one test against an injection environment. The
//! [`run_test`] runner is what a node manager executes: it builds a fresh
//! [`LibcEnv`] for the fault plan, runs the workload, catches crashes
//! (panics stand in for segfaults/aborts), and assembles the
//! [`TestOutcome`] the sensors report to the explorer.

use afex_inject::{Errno, FaultPlan, LibcEnv, TestOutcome, TestStatus};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Why a workload stopped without crashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// An environment fault propagated out; the run exits non-zero
    /// (graceful failure — the recovery code worked).
    Fault(Errno),
    /// A test assertion failed: the run completed but produced wrong
    /// results (silent corruption made visible by the check).
    Check(String),
    /// The workload stopped making progress (retry-loop watchdog).
    Hang,
}

impl From<crate::vfs::VfsError> for RunError {
    fn from(e: crate::vfs::VfsError) -> Self {
        RunError::Fault(e.errno())
    }
}

/// Result of one workload execution.
pub type RunResult = Result<(), RunError>;

/// A system under test with its default test suite.
pub trait Target: Send + Sync {
    /// Target name (e.g. `"coreutils"`, `"minidb"`).
    fn name(&self) -> &str;

    /// Number of tests in the default suite (the `Xtest` axis length).
    fn num_tests(&self) -> usize;

    /// Total number of declared basic blocks, for coverage percentages.
    fn total_blocks(&self) -> usize;

    /// Runs test `test_id` (0-based) under the given environment. The
    /// workload announces its libc calls through `env` and returns whether
    /// the test's own assertions held.
    ///
    /// # Panics
    ///
    /// Target code panics to model crashes (segfault/abort); the runner
    /// catches them.
    fn run(&self, test_id: usize, env: &LibcEnv) -> RunResult;
}

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Installs (once) a panic hook that stays silent while [`run_test`] is
/// executing a workload, so millions of injected crashes do not spam
/// stderr, while panics elsewhere keep the default report.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Executes one fault-injection test: build the environment for `plan`,
/// run `target`'s test `test_id`, and classify the result.
///
/// Crashes (panics in target code) become [`TestStatus::Crashed`] with the
/// panic message; the coverage and injection records collected up to the
/// crash are preserved — exactly what a node manager scrapes from a dead
/// process's coredump and logs.
///
/// # Examples
///
/// ```
/// use afex_inject::FaultPlan;
/// use afex_targets::coreutils::Coreutils;
/// use afex_targets::{run_test, Target};
///
/// let target = Coreutils::new();
/// let outcome = run_test(&target, 0, &FaultPlan::none());
/// assert!(matches!(
///     outcome.status,
///     afex_inject::TestStatus::Passed
/// ));
/// ```
pub fn run_test(target: &dyn Target, test_id: usize, plan: &FaultPlan) -> TestOutcome {
    let env = LibcEnv::new(plan.clone());
    let result = catch_crash(|| target.run(test_id, &env));
    let status = match result {
        Ok(Ok(())) => TestStatus::Passed,
        Ok(Err(RunError::Fault(_) | RunError::Check(_))) => TestStatus::Failed,
        Ok(Err(RunError::Hang)) => TestStatus::Hung,
        Err(msg) => TestStatus::Crashed(msg),
    };
    env.into_outcome(test_id, status)
}

/// Runs `f` with panic output suppressed, converting a panic into its
/// rendered message. The crate-internal building block for harnesses that
/// must observe crashes mid-workload — the per-test runner above and the
/// recovery oracle's per-statement bracketing — without spamming stderr.
/// Suppression nests: an inner catch restores the outer state.
pub(crate) fn catch_crash<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    let prev = SUPPRESS_PANIC_OUTPUT.with(|s| s.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(prev));
    result.map_err(|payload| panic_message(payload.as_ref()))
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_owned()
    }
}

/// Runs a target's entire suite fault-free and reports how many tests pass
/// (suite self-check; all targets must be green without injection).
pub fn baseline_pass_count(target: &dyn Target) -> usize {
    (0..target.num_tests())
        .filter(|&t| run_test(target, t, &FaultPlan::none()).status == TestStatus::Passed)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use afex_inject::Func;

    /// A minimal target with one test per behaviour class.
    struct Toy;

    impl Target for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn num_tests(&self) -> usize {
            4
        }
        fn total_blocks(&self) -> usize {
            4
        }
        fn run(&self, test_id: usize, env: &LibcEnv) -> RunResult {
            let _f = env.frame("toy_main");
            env.block("toy", test_id as u32);
            match test_id {
                0 => Ok(()),
                1 => {
                    if env.call(Func::Malloc).failed() {
                        return Err(RunError::Fault(Errno::ENOMEM));
                    }
                    Ok(())
                }
                2 => panic!("segfault at toy.c:42"),
                3 => Err(RunError::Hang),
                _ => Err(RunError::Check("no such test".into())),
            }
        }
    }

    #[test]
    fn pass_fail_crash_hang_classification() {
        let t = Toy;
        assert_eq!(
            run_test(&t, 0, &FaultPlan::none()).status,
            TestStatus::Passed
        );
        let failed = run_test(&t, 1, &FaultPlan::single(Func::Malloc, 1, Errno::ENOMEM));
        assert_eq!(failed.status, TestStatus::Failed);
        assert!(failed.triggered());
        let crashed = run_test(&t, 2, &FaultPlan::none());
        assert_eq!(
            crashed.status,
            TestStatus::Crashed("segfault at toy.c:42".into())
        );
        assert_eq!(run_test(&t, 3, &FaultPlan::none()).status, TestStatus::Hung);
    }

    #[test]
    fn coverage_survives_crash() {
        let t = Toy;
        let o = run_test(&t, 2, &FaultPlan::none());
        assert!(o.status.is_crash());
        assert_eq!(o.coverage.blocks(), 1);
        assert!(o.coverage.covers("toy", 2));
    }

    #[test]
    fn untriggered_plan_passes() {
        let t = Toy;
        // Test 0 makes no malloc call, so the plan never fires.
        let o = run_test(&t, 0, &FaultPlan::single(Func::Malloc, 1, Errno::ENOMEM));
        assert_eq!(o.status, TestStatus::Passed);
        assert!(!o.triggered());
    }

    #[test]
    fn baseline_counts_passing_tests() {
        // Tests 2 and 3 fail even without faults — a deliberately sick toy.
        assert_eq!(baseline_pass_count(&Toy), 2);
    }

    #[test]
    fn string_panic_payloads_are_extracted() {
        struct P;
        impl Target for P {
            fn name(&self) -> &str {
                "p"
            }
            fn num_tests(&self) -> usize {
                1
            }
            fn total_blocks(&self) -> usize {
                0
            }
            fn run(&self, _t: usize, _env: &LibcEnv) -> RunResult {
                panic!("{}", format!("dynamic {}", 7));
            }
        }
        let o = run_test(&P, 0, &FaultPlan::none());
        assert_eq!(o.status, TestStatus::Crashed("dynamic 7".into()));
    }
}

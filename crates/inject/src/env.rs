//! The injection environment targets call through.
//!
//! [`LibcEnv`] plays the role of the LFI interposition layer: the simulated
//! target announces every libc call it is about to make; the environment
//! counts calls per function, checks the active [`FaultPlan`], and either
//! lets the call proceed or injects the planned failure — capturing the
//! stack trace at the injection point as it does (§5).

use crate::coverage::Coverage;
use crate::errno::Errno;
use crate::libc_model::Func;
use crate::outcome::{InjectionRecord, TestOutcome, TestStatus};
use crate::plan::FaultPlan;
use crate::trace::{CallStack, FrameGuard};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// The result of announcing a libc call to the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallResult {
    /// No fault planned for this call; the operation proceeds normally.
    Ok,
    /// The call fails with this errno; the target must run its error path.
    /// The return value to emulate is the function's profile `error_retval`.
    Fail(Errno),
}

impl CallResult {
    /// Whether the call was failed by the injector.
    pub fn failed(self) -> bool {
        matches!(self, CallResult::Fail(_))
    }
}

/// Per-test injection environment: call counting, fault decisions, stack
/// traces, and coverage.
///
/// One `LibcEnv` is created per test execution and consumed by
/// [`LibcEnv::into_outcome`] afterwards, so call numbers are deterministic
/// per workload. Methods take `&self` (interior mutability) because the
/// environment is threaded through deep call chains in target code
/// alongside frame guards borrowing it. Announcing a call, entering a
/// frame and marking a block allocate nothing per call: counts live in a
/// slot per [`Func`], and frame and module names are static.
///
/// # Examples
///
/// ```
/// use afex_inject::{CallResult, Errno, FaultPlan, Func, LibcEnv};
///
/// let env = LibcEnv::new(FaultPlan::single(Func::Malloc, 2, Errno::ENOMEM));
/// let _main = env.frame("main");
/// assert_eq!(env.call(Func::Malloc), CallResult::Ok); // 1st call fine,
/// assert_eq!(env.call(Func::Malloc), CallResult::Fail(Errno::ENOMEM)); // 2nd fails.
/// assert_eq!(env.injections().len(), 1);
/// assert_eq!(env.injections()[0].stack, vec!["main"]);
/// ```
#[derive(Debug)]
pub struct LibcEnv {
    plan: FaultPlan,
    /// Calls announced so far, indexed by `Func as usize` (the position
    /// in [`Func::ALL`]).
    counts: [Cell<u32>; Func::ALL.len()],
    injections: RefCell<Vec<InjectionRecord>>,
    stack: CallStack,
    coverage: RefCell<Coverage>,
    /// Fuel for hang detection: simulated targets that loop on EINTR-style
    /// retries burn fuel; when it runs out the harness declares a hang.
    fuel: Cell<u64>,
}

/// Default retry fuel per test; generous enough that only genuine retry
/// loops exhaust it.
const DEFAULT_FUEL: u64 = 10_000;

impl LibcEnv {
    /// Creates an environment executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        LibcEnv {
            plan,
            counts: [const { Cell::new(0) }; Func::ALL.len()],
            injections: RefCell::new(Vec::new()),
            stack: CallStack::new(),
            coverage: RefCell::new(Coverage::new()),
            fuel: Cell::new(DEFAULT_FUEL),
        }
    }

    /// A fault-free environment (baseline runs, profiling).
    pub fn fault_free() -> Self {
        LibcEnv::new(FaultPlan::none())
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Announces a call to `func`. Returns [`CallResult::Fail`] iff the
    /// plan targets this (1-based) call of this function; the injection is
    /// recorded with the current stack trace.
    pub fn call(&self, func: Func) -> CallResult {
        let slot = &self.counts[func as usize];
        let count = slot.get() + 1;
        slot.set(count);
        match self.plan.matching(func, count) {
            Some(fault) => {
                self.injections.borrow_mut().push(InjectionRecord {
                    fault: *fault,
                    stack: self.stack.snapshot(),
                });
                CallResult::Fail(fault.errno)
            }
            None => CallResult::Ok,
        }
    }

    /// Records an injection decided outside the plan machinery (e.g. the
    /// VFS fault layer's rule firings), capturing the current stack trace
    /// so rule-driven faults cluster with the same signature machinery as
    /// plan faults.
    pub fn record_injection(&self, fault: crate::plan::AtomicFault) {
        self.injections.borrow_mut().push(InjectionRecord {
            fault,
            stack: self.stack.snapshot(),
        });
    }

    /// Pushes a stack frame for trace capture; pops when the guard drops.
    pub fn frame(&self, name: &'static str) -> FrameGuard<'_> {
        self.stack.push(name)
    }

    /// Marks basic block `id` of `module` as covered.
    pub fn block(&self, module: &'static str, id: u32) {
        self.coverage.borrow_mut().mark(module, id);
    }

    /// Burns one unit of retry fuel; returns `false` when exhausted, which
    /// targets translate into a hang (simulating a watchdog timeout).
    pub fn burn_fuel(&self) -> bool {
        let f = self.fuel.get();
        if f == 0 {
            return false;
        }
        self.fuel.set(f - 1);
        true
    }

    /// How many calls to `func` have been announced so far.
    pub fn call_count(&self, func: Func) -> u32 {
        self.counts[func as usize].get()
    }

    /// All per-function call counts (the `ltrace` view): one entry per
    /// function called at least once.
    pub fn call_counts(&self) -> HashMap<Func, u32> {
        Func::ALL
            .iter()
            .zip(&self.counts)
            .filter(|(_, n)| n.get() > 0)
            .map(|(&f, n)| (f, n.get()))
            .collect()
    }

    /// The injections performed so far.
    pub fn injections(&self) -> Vec<InjectionRecord> {
        self.injections.borrow().clone()
    }

    /// The coverage collected so far.
    pub fn coverage(&self) -> Coverage {
        self.coverage.borrow().clone()
    }

    /// Current stack rendering (used in crash messages).
    pub fn stack_trace(&self) -> String {
        self.stack.render()
    }

    /// Ends the test: moves the coverage and injections collected into
    /// the outcome the sensors report.
    pub fn into_outcome(self, test_id: usize, status: TestStatus) -> TestOutcome {
        TestOutcome {
            test_id,
            status,
            coverage: self.coverage.into_inner(),
            injections: self.injections.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_per_function() {
        let env = LibcEnv::fault_free();
        env.call(Func::Malloc);
        env.call(Func::Malloc);
        env.call(Func::Read);
        assert_eq!(env.call_count(Func::Malloc), 2);
        assert_eq!(env.call_count(Func::Read), 1);
        assert_eq!(env.call_count(Func::Close), 0);
    }

    #[test]
    fn fault_free_env_never_fails() {
        let env = LibcEnv::fault_free();
        for _ in 0..100 {
            assert_eq!(env.call(Func::Malloc), CallResult::Ok);
        }
        assert!(env.injections().is_empty());
    }

    #[test]
    fn injection_hits_exact_call_number() {
        let env = LibcEnv::new(FaultPlan::single(Func::Read, 3, Errno::EINTR));
        assert_eq!(env.call(Func::Read), CallResult::Ok);
        assert_eq!(env.call(Func::Read), CallResult::Ok);
        assert_eq!(env.call(Func::Read), CallResult::Fail(Errno::EINTR));
        assert_eq!(env.call(Func::Read), CallResult::Ok);
        assert_eq!(env.injections().len(), 1);
        assert_eq!(env.injections()[0].fault.call_number, 3);
    }

    #[test]
    fn stack_trace_is_captured_at_injection_point() {
        let env = LibcEnv::new(FaultPlan::single(Func::Fclose, 1, Errno::EIO));
        let _m = env.frame("main");
        {
            let _f = env.frame("flush_log");
            env.call(Func::Fclose);
        }
        let recs = env.injections();
        assert_eq!(recs[0].stack, vec!["main", "flush_log"]);
        // The trace reflects the stack at injection time, not at read time.
        assert_eq!(env.stack_trace(), "main");
    }

    #[test]
    fn multi_fault_plan_injects_each() {
        use crate::plan::AtomicFault;
        let env = LibcEnv::new(FaultPlan::multi(vec![
            AtomicFault::new(Func::Read, 1, Errno::EINTR),
            AtomicFault::new(Func::Malloc, 2, Errno::ENOMEM),
        ]));
        assert!(env.call(Func::Read).failed());
        assert!(!env.call(Func::Malloc).failed());
        assert!(env.call(Func::Malloc).failed());
        assert_eq!(env.injections().len(), 2);
    }

    #[test]
    fn coverage_accumulates() {
        let env = LibcEnv::fault_free();
        env.block("minidb", 1);
        env.block("minidb", 2);
        env.block("minidb", 1);
        assert_eq!(env.coverage().blocks(), 2);
    }

    #[test]
    fn fuel_exhausts() {
        let env = LibcEnv::fault_free();
        let mut burned = 0u64;
        while env.burn_fuel() {
            burned += 1;
            assert!(burned < 1_000_000, "fuel never exhausted");
        }
        assert_eq!(burned, super::DEFAULT_FUEL);
        assert!(!env.burn_fuel());
    }

    #[test]
    fn record_injection_captures_stack() {
        use crate::plan::AtomicFault;
        let env = LibcEnv::fault_free();
        let _m = env.frame("main");
        {
            let _f = env.frame("vfs_write");
            env.record_injection(AtomicFault::new(Func::Write, 4, Errno::EIO));
        }
        let recs = env.injections();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].stack, vec!["main", "vfs_write"]);
        assert_eq!(recs[0].fault.call_number, 4);
    }

    #[test]
    fn call_counts_snapshot() {
        let env = LibcEnv::fault_free();
        env.call(Func::Open);
        env.call(Func::Open);
        let counts = env.call_counts();
        assert_eq!(counts[&Func::Open], 2);
        assert_eq!(counts.len(), 1, "uncalled functions have no entry");
    }

    #[test]
    fn count_slots_follow_the_canonical_order() {
        for (i, &f) in Func::ALL.iter().enumerate() {
            assert_eq!(f as usize, i, "{f:?}");
        }
    }

    #[test]
    fn into_outcome_keeps_what_the_test_collected() {
        let env = LibcEnv::new(FaultPlan::single(Func::Read, 1, Errno::EIO));
        let main = env.frame("main");
        env.block("m", 4);
        assert!(env.call(Func::Read).failed());
        let injections = env.injections();
        let coverage = env.coverage();
        drop(main);
        let o = env.into_outcome(7, TestStatus::Failed);
        assert_eq!(o.test_id, 7);
        assert_eq!(o.status, TestStatus::Failed);
        assert_eq!(o.coverage, coverage);
        assert_eq!(o.injections, injections);
    }
}

//! The `proc:*` target family: fault spaces over *real processes*.
//!
//! Every other target in this crate simulates its system under test; a
//! proc target describes a live binary — the bundled `victim` program in
//! one of its workload modes — explored through the `LD_PRELOAD` shim.
//! The space keeps the paper's `<testID, functionName, callNumber>`
//! shape, and [`ProcTargetSpace::plan_for`] maps each point to the
//! [`ProcessPlan`] the process runner (in `afex-core`) spawns,
//! sandboxes, and watches.
//!
//! The function axis is the shim's interposition set. Not every mode
//! calls every function: points naming a function the workload never
//! reaches simply never trigger — the fault-space "holes" a black-box
//! explorer has to discover, exactly as on the simulated targets.

use afex_inject::Func;
use afex_preload::config::{InjectionEnv, ProcessPlan};
use afex_space::{Axis, AxisKind, FaultSpace, Point, Value};
use std::path::PathBuf;
use std::sync::Arc;

/// The functions the preload shim interposes — the `function` axis of
/// every proc space.
pub const PROC_FUNCS: [Func; 4] = [Func::Malloc, Func::Read, Func::Fopen, Func::Close];

/// The victim's distinctive allocation size: `malloc` injections carry
/// this as an argument predicate so only the workload's own allocations
/// count toward the call number, never the Rust runtime's startup
/// allocations (LFI-style injection-point argument filtering).
pub const VICTIM_ALLOC_SIZE: usize = 4242;

/// A workload mode of the bundled victim binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimMode {
    /// `read-file`: open/read/close loop with graceful error handling.
    ReadFile,
    /// `alloc`: checked allocations; injected failures exit gracefully.
    Alloc,
    /// `alloc-unchecked`: writes through unchecked `malloc` results — an
    /// injected allocation failure crashes the live process (the Apache
    /// Fig. 7 bug in miniature).
    AllocUnchecked,
    /// `spin`: one checked allocation, then no progress forever — the
    /// watchdog's hang-classification case.
    Spin,
}

impl VictimMode {
    /// All modes, in canonical order.
    pub const ALL: [VictimMode; 4] = [
        VictimMode::ReadFile,
        VictimMode::Alloc,
        VictimMode::AllocUnchecked,
        VictimMode::Spin,
    ];

    /// The mode's spelling in target names (`proc:victim-<mode>`) and as
    /// the victim's first argument.
    pub fn name(self) -> &'static str {
        match self {
            VictimMode::ReadFile => "read-file",
            VictimMode::Alloc => "alloc",
            VictimMode::AllocUnchecked => "alloc-unchecked",
            VictimMode::Spin => "spin",
        }
    }

    /// Parses a mode name.
    pub fn from_name(s: &str) -> Option<VictimMode> {
        VictimMode::ALL.iter().copied().find(|m| m.name() == s)
    }

    /// The victim's command line for this mode's workload.
    fn workload_args(self) -> Vec<String> {
        match self {
            VictimMode::ReadFile => vec!["read-file".into(), "/etc/hostname".into()],
            VictimMode::Alloc => vec!["alloc".into(), "4".into()],
            VictimMode::AllocUnchecked => vec!["alloc-unchecked".into(), "4".into()],
            VictimMode::Spin => vec!["spin".into()],
        }
    }
}

/// A fault space bound to a real binary. Clones are cheap (the space is
/// behind an `Arc`), matching [`TargetSpace`](crate::spaces::TargetSpace)
/// so the campaign runner treats both families alike.
#[derive(Debug, Clone)]
pub struct ProcTargetSpace {
    space: Arc<FaultSpace>,
    funcs: Vec<Func>,
    calls: Vec<u32>,
    mode: VictimMode,
    program: PathBuf,
    shim: PathBuf,
}

impl ProcTargetSpace {
    /// `Φ_proc`: 1 workload × 4 functions × call numbers {0, 1, 2, 3, 4}
    /// = 20 faults per mode. Call number 0 means "no injection" (the
    /// bare workload, as on coreutils); the paths are the victim binary
    /// and the interposition cdylib.
    pub fn victim(mode: VictimMode, program: PathBuf, shim: PathBuf) -> Self {
        let calls: Vec<u32> = (0..=4).collect();
        let space = FaultSpace::new(vec![
            Axis::int_range("testID", 0, 0),
            Axis::symbolic("function", PROC_FUNCS.iter().map(|f| f.name().to_owned())),
            Axis::new(
                "callNumber",
                calls.iter().map(|&c| Value::Int(c as i64)).collect(),
                AxisKind::Set,
            ),
        ])
        .expect("canonical axes are non-empty");
        ProcTargetSpace {
            space: Arc::new(space),
            funcs: PROC_FUNCS.to_vec(),
            calls,
            mode,
            program,
            shim,
        }
    }

    /// The target's canonical name, `proc:victim-<mode>`.
    pub fn name(&self) -> String {
        format!("proc:victim-{}", self.mode.name())
    }

    /// The workload mode.
    pub fn mode(&self) -> VictimMode {
        self.mode
    }

    /// The underlying fault space.
    pub fn space(&self) -> &FaultSpace {
        &self.space
    }

    /// A shared handle to the fault space.
    pub fn space_arc(&self) -> Arc<FaultSpace> {
        Arc::clone(&self.space)
    }

    /// Decodes a point into (test id, process plan).
    ///
    /// The injected errno is the first entry of the function's fault
    /// profile — the same "most representative errno" choice the
    /// simulated spaces make. `malloc` plans carry the
    /// [`VICTIM_ALLOC_SIZE`] argument predicate.
    ///
    /// # Panics
    ///
    /// Panics if the point does not address this space.
    pub fn plan_for(&self, p: &Point) -> (usize, ProcessPlan) {
        self.space
            .check(p)
            .expect("point must address the proc target space");
        let test_id = p[0];
        let func = self.funcs[p[1]];
        let call = self.calls[p[2]];
        let plan = ProcessPlan::bare(&self.program, self.mode.workload_args());
        if call == 0 {
            return (test_id, plan);
        }
        let errno = func.fault_profile().errnos[0];
        let mut env = InjectionEnv::new(func.name(), call, errno.code());
        if func == Func::Malloc {
            env = env.with_size(VICTIM_ALLOC_SIZE);
        }
        (test_id, plan.with_injection(&self.shim, env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(mode: VictimMode) -> ProcTargetSpace {
        ProcTargetSpace::victim(mode, "/bin/victim".into(), "/lib/shim.so".into())
    }

    #[test]
    fn proc_space_is_20_points_per_mode() {
        for mode in VictimMode::ALL {
            let t = ts(mode);
            assert_eq!(t.space().len(), 20, "{}", t.name());
            assert_eq!(t.space().arity(), 3);
        }
    }

    #[test]
    fn mode_names_roundtrip() {
        for mode in VictimMode::ALL {
            assert_eq!(VictimMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(VictimMode::from_name("nosuch"), None);
        assert_eq!(ts(VictimMode::Spin).name(), "proc:victim-spin");
    }

    #[test]
    fn call_zero_is_the_bare_workload() {
        let (test, plan) = ts(VictimMode::Alloc).plan_for(&Point::new(vec![0, 2, 0]));
        assert_eq!(test, 0);
        assert!(plan.injection.is_none());
        assert!(plan.preload.is_none());
        assert_eq!(plan.args[0], "alloc");
    }

    #[test]
    fn malloc_plans_carry_the_size_predicate() {
        // Function 0 = malloc, call index 1 = call #1.
        let (_, plan) = ts(VictimMode::AllocUnchecked).plan_for(&Point::new(vec![0, 0, 1]));
        let env = plan.injection.expect("injecting plan");
        assert_eq!(env.func(), "malloc");
        let vars = env.vars();
        assert!(vars.contains(&("AFEX_SIZE".into(), VICTIM_ALLOC_SIZE.to_string())));
        assert_eq!(
            plan.preload.as_deref(),
            Some(std::path::Path::new("/lib/shim.so"))
        );
        assert_eq!(plan.args, vec!["alloc-unchecked".to_owned(), "4".to_owned()]);
    }

    #[test]
    fn non_malloc_plans_have_no_size_predicate() {
        // Function 1 = read, call index 2 = call #2.
        let (_, plan) = ts(VictimMode::ReadFile).plan_for(&Point::new(vec![0, 1, 2]));
        let env = plan.injection.expect("injecting plan");
        assert_eq!(env.func(), "read");
        assert!(!env.vars().iter().any(|(k, _)| k == "AFEX_SIZE"));
    }
}

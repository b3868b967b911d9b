//! The target registry: every target AFEX can run, one row each.
//!
//! An entry point resolves a target name once, with
//! [`ResolvedTarget::resolve`], and every decision that differs between
//! target families is one `match` on the result here: the canonical
//! name, the default impact metric, the on-disk artifacts a family needs,
//! and how one session runs against the target. Adding a target is adding
//! a row to the table.
//!
//! Resolution is a table lookup: it does no I/O and builds no fault
//! space, so canonicalizing and validating a spec stay cheap. The victim
//! and shim lookup of `proc:*` targets runs only in
//! [`ResolvedTarget::check_artifacts`] and once per session.

use crate::core::{
    Engine, Evaluator, Explore, ImpactMetric, OutcomeEvaluator, ProcessEvaluator, ProcessRunner,
    SessionResult, StopCondition, TestTimeout,
};
use crate::preload::locate;
use crate::targets::docstore::Version;
use crate::targets::proc::{ProcTargetSpace, VictimMode};
use crate::targets::recovery::{EngineKind, RecoverySpace};
use crate::targets::spaces::TargetSpace;
use afex_cluster::ParallelSession;
use afex_space::FaultSpace;
use std::sync::Arc;
use std::time::Duration;
use ResolvedTarget::{Poison, Proc, Simulated, Vfs};

/// What a target name resolves to: its family, and which member of the
/// family it denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedTarget {
    /// A simulated suite, executed in-process.
    Simulated(Suite),
    /// A crash-recovery target: rule-driven VFS fault injection (error
    /// returns, short writes, dropped fsyncs, torn renames) against a
    /// storage-engine workload, followed by a simulated power cut and a
    /// fault-free reopen whose recovered state is checked against the
    /// acknowledged history. The faulty VFS and the engines are
    /// in-process, so these need no on-disk artifacts.
    Vfs(EngineKind),
    /// The bundled victim binary in one of its workload modes, executed
    /// live under the `LD_PRELOAD` shim by the sandboxed process runner.
    Proc(VictimMode),
    /// A test-only target whose sessions panic mid-run: the chaos probe
    /// behind the panic-quarantine tests and the CI chaos smoke. It
    /// resolves only when `AFEX_TEST_POISON` is set in the environment, so
    /// production daemons can never be handed a deliberately panicking
    /// campaign.
    Poison,
}

/// The simulated suites: the paper's systems under test, as in-process
/// stand-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The coreutils utilities.
    Coreutils,
    /// The MySQL stand-in.
    MiniDb,
    /// The Apache stand-in.
    Httpd,
    /// The MongoDB stand-in at one development stage.
    Docstore(Version),
}

impl Suite {
    /// Builds the suite's fault space and execution adapter.
    pub fn space(self) -> TargetSpace {
        match self {
            Suite::Coreutils => TargetSpace::coreutils(),
            Suite::MiniDb => TargetSpace::mysql(),
            Suite::Httpd => TargetSpace::apache(),
            Suite::Docstore(version) => TargetSpace::docstore(version),
        }
    }
}

/// Every target, one row each: its canonical name, its aliases, and what
/// both resolve to. `mysql` and `apache` (the paper's names) are aliases
/// of `minidb` and `httpd` (the stand-ins). `vfs:minidb-rewrite` keeps the
/// historical whole-log-rewrite WAL commit as a bug specimen the oracle
/// catches; the other two `vfs:*` rows run the fixed engines.
pub(super) const REGISTRY: [(&str, &[&str], ResolvedTarget); 13] = [
    ("coreutils", &[], Simulated(Suite::Coreutils)),
    ("minidb", &["mysql"], Simulated(Suite::MiniDb)),
    ("httpd", &["apache"], Simulated(Suite::Httpd)),
    ("docstore-0.8", &[], Simulated(Suite::Docstore(Version::V0_8))),
    ("docstore-2.0", &[], Simulated(Suite::Docstore(Version::V2_0))),
    ("proc:victim-read-file", &[], Proc(VictimMode::ReadFile)),
    ("proc:victim-alloc", &[], Proc(VictimMode::Alloc)),
    ("proc:victim-alloc-unchecked", &[], Proc(VictimMode::AllocUnchecked)),
    ("proc:victim-spin", &[], Proc(VictimMode::Spin)),
    ("vfs:minidb-recovery", &[], Vfs(EngineKind::MiniDbAppend)),
    ("vfs:minidb-rewrite", &[], Vfs(EngineKind::MiniDbRewrite)),
    ("vfs:docstore-recovery", &[], Vfs(EngineKind::Docstore)),
    ("test:poison", &[], Poison),
];

impl ResolvedTarget {
    /// Resolves a target name or alias.
    ///
    /// # Errors
    ///
    /// Returns ``unknown target `name` `` for a name in no row, and for
    /// the poison probe unless `AFEX_TEST_POISON` is set.
    pub fn resolve(name: &str) -> Result<ResolvedTarget, String> {
        REGISTRY
            .iter()
            .find(|(canonical, aliases, _)| *canonical == name || aliases.contains(&name))
            .map(|&(_, _, target)| target)
            .filter(|&target| target != Poison || std::env::var_os("AFEX_TEST_POISON").is_some())
            .ok_or_else(|| format!("unknown target `{name}`"))
    }

    /// The target's canonical name.
    pub fn name(self) -> &'static str {
        let row = REGISTRY.iter().find(|row| row.2 == self);
        row.expect("every target has a registry row").0
    }

    /// The target's default impact metric. The database stand-in runs the
    /// crash-hunt path (the §7.1 "find faults that crash the DBMS"
    /// scenario, as in `examples/hunt_minidb.rs`); live binaries hunt
    /// crashes too, since they have no simulated coverage signal; and
    /// recovery targets hunt durability violations, which the oracle
    /// reports as crashes. Everything else uses the coverage-and-failure
    /// default.
    pub fn default_metric(self) -> ImpactMetric {
        match self {
            Simulated(Suite::MiniDb) | Proc(_) | Vfs(_) => ImpactMetric::crash_hunter(),
            Simulated(_) | Poison => ImpactMetric::default(),
        }
    }

    /// Checks that the target can actually run: a `proc:*` target's victim
    /// binary and shim cdylib must resolve. Entry points call this up
    /// front so a missing artifact is a clear usage error instead of a
    /// panic deep inside a cell.
    ///
    /// # Errors
    ///
    /// Returns the artifact-resolution message (how to build the missing
    /// artifact, which variable overrides the search).
    pub fn check_artifacts(self) -> Result<(), String> {
        match self {
            Proc(mode) => proc_space(mode).map(drop),
            Simulated(_) | Vfs(_) | Poison => Ok(()),
        }
    }

    /// Runs one session against the target under `stop` with a
    /// `workers`-wide engine window: simulated suites in-process, `vfs:*`
    /// targets through the crash-recovery oracle, live binaries as
    /// sandboxed child processes with `timeout` as the per-test watchdog
    /// budget. `explorer` builds the session's explorer over the target's
    /// fault space, which is returned with the session. The one session
    /// runner behind campaign cells, `afex-cli hunt` and `afex-cli
    /// explore`.
    ///
    /// # Errors
    ///
    /// Returns the artifact-resolution message for a `proc:*` target whose
    /// victim binary or shim cdylib is missing.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`, and always for the poison probe.
    pub fn run_session(
        self,
        explorer: impl FnOnce(Arc<FaultSpace>) -> Box<dyn Explore>,
        metric: ImpactMetric,
        stop: StopCondition,
        workers: usize,
        timeout: TestTimeout,
    ) -> Result<(Arc<FaultSpace>, SessionResult), String> {
        match self {
            Simulated(suite) => {
                let ts = suite.space();
                let mut explorer = explorer(ts.space_arc());
                Ok((ts.space_arc(), run_windowed(&ts, metric, explorer.as_mut(), stop, workers)))
            }
            Vfs(kind) => {
                let rs = RecoverySpace::new(kind);
                let mut explorer = explorer(rs.space_arc());
                let make_eval = || {
                    let rs = rs.clone();
                    OutcomeEvaluator::new(move |p| rs.execute(p), metric.clone())
                };
                Ok((rs.space_arc(), windowed(make_eval, explorer.as_mut(), stop, workers)))
            }
            Proc(mode) => {
                let ps = proc_space(mode)?;
                let mut explorer = explorer(ps.space_arc());
                let result =
                    run_proc_windowed(&ps, metric, explorer.as_mut(), stop, workers, timeout.0);
                Ok((ps.space_arc(), result))
            }
            Poison => panic!("poison target panicked mid-cell (AFEX_TEST_POISON)"),
        }
    }
}

/// Builds the fault space + process-plan adapter for the victim binary in
/// `mode`, resolving the victim and the interposition cdylib at runtime.
fn proc_space(mode: VictimMode) -> Result<ProcTargetSpace, String> {
    Ok(ProcTargetSpace::victim(mode, locate::victim_path()?, locate::shim_path()?))
}

/// The fault space + execution adapter of a simulated suite's name or
/// alias; `None` for any other name. For callers that hold only a name;
/// entry points resolve once with [`ResolvedTarget::resolve`].
pub fn target_space(name: &str) -> Option<TargetSpace> {
    match ResolvedTarget::resolve(name) {
        Ok(Simulated(suite)) => Some(suite.space()),
        _ => None,
    }
}

/// [`ResolvedTarget::default_metric`] of a name; the coverage-and-failure
/// default for an unknown one.
pub fn default_metric(name: &str) -> ImpactMetric {
    ResolvedTarget::resolve(name).map(ResolvedTarget::default_metric).unwrap_or_default()
}

/// The fault space + process-plan adapter of a `proc:*` target name.
///
/// # Errors
///
/// Returns ``unknown proc target `name` `` for any other name, or the
/// artifact-resolution message when the victim or the shim is missing.
pub fn proc_target_space(name: &str) -> Result<ProcTargetSpace, String> {
    match ResolvedTarget::resolve(name) {
        Ok(Proc(mode)) => proc_space(mode),
        _ => Err(format!("unknown proc target `{name}`")),
    }
}

/// Runs a built explorer against a simulated target under `stop` with a
/// `workers`-wide engine window: batch-parallel on a manager pool (one
/// copy of the target and the metric per manager) when `workers > 1`,
/// the sequential engine otherwise. Campaign cells, `afex-cli hunt` and
/// `afex-cli explore` run simulated targets through it
/// ([`ResolvedTarget::run_session`]) — deterministic in the window either
/// way.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub fn run_windowed(
    ts: &TargetSpace,
    metric: ImpactMetric,
    explorer: &mut dyn Explore,
    stop: StopCondition,
    workers: usize,
) -> SessionResult {
    let make_eval = || {
        let ts = ts.clone();
        OutcomeEvaluator::new(move |p| ts.execute(p), metric.clone())
    };
    windowed(make_eval, explorer, stop, workers)
}

/// [`run_windowed`]'s real-process sibling: runs a built explorer
/// against a live binary, each test a sandboxed child under `timeout` as
/// its watchdog budget, with `workers` tests in flight. Every manager
/// holds a handle on one shared [`ProcessRunner`]. If a test cannot run
/// — e.g. persistent spawn failure after the runner's transient-error
/// retries — the session ends with the tests issued before it instead of
/// panicking, the partial-session contract the engine gives every
/// executor.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub fn run_proc_windowed(
    ps: &ProcTargetSpace,
    metric: ImpactMetric,
    explorer: &mut dyn Explore,
    stop: StopCondition,
    workers: usize,
    timeout: Duration,
) -> SessionResult {
    let plan_space = ps.clone();
    let eval = ProcessEvaluator::new(
        move |p| plan_space.plan_for(p),
        ProcessRunner::new(timeout),
        metric,
    );
    windowed(|| eval.clone(), explorer, stop, workers)
}

/// The one windowed session behind every target family: a
/// [`ParallelSession`] of `workers` managers, each with its own
/// `make_eval()` evaluator, when `workers > 1`; the sequential engine
/// over one `make_eval()` otherwise.
fn windowed<E, F>(
    make_eval: F,
    explorer: &mut dyn Explore,
    stop: StopCondition,
    workers: usize,
) -> SessionResult
where
    E: Evaluator,
    F: Fn() -> E + Sync,
{
    if workers > 1 {
        ParallelSession::new(workers).run_with_stop(explorer, |_manager| make_eval(), stop)
    } else {
        assert!(workers > 0, "need at least one worker");
        Engine::sequential().run(explorer, &make_eval(), stop)
    }
}

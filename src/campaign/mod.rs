//! Campaign execution: the campaign data model wired to real targets.
//!
//! [`afex_core::campaign`](crate::core::campaign) defines the matrix,
//! snapshot, and corpus; [`afex_cluster::MultiplexPool`] runs cells on a
//! worker pool. This module supplies the missing pieces — how one
//! [`CampaignCell`] actually runs against a named target, how
//! same-target cells chain their redundancy feedback, and the pool and
//! driver loop the CLI, the daemon, and the integration tests share —
//! plus the streaming corpus exporter behind `afex-cli campaign
//! --export`.
//!
//! The module is the **library layer** of the library/CLI/service split:
//! everything here returns typed errors and never prints or exits, so
//! the `afex-cli` binary and the [`CampaignService`](crate::service)
//! daemon drive one shared code path.
//!
//! - [`mod@self`] — the target/strategy registry and per-cell execution
//!   ([`run_cell`], [`run_windowed`], [`run_proc_windowed`],
//!   [`chain_seeds`]).
//! - [`submit`] — building and validating campaign specs from untyped
//!   options, and loading/validating resumable snapshots.
//! - [`dir`] — a campaign directory's whole life (create, resume,
//!   checkpoint, finish, fail), for the CLI and the daemon alike.
//! - [`run`] — driving pending cells to completion, the streaming corpus
//!   exporter, and the stop-aware hunt entry point.
//! - [`query`] — read-only views over snapshots: status rows, reports,
//!   and top-failure rankings.
//!
//! Determinism contract: a cell's outcome depends only on its `(target,
//! strategy, seed)` tuple, the spec's budget/stop policy/metric, and the
//! outcomes of *earlier same-target cells* (whose deduped failure traces
//! seed its redundancy feedback). Same-target cells therefore run
//! serialized in cell order as one
//! [`CellChain`](afex_cluster::CellChain), while cells of different
//! targets still fan out across the pool. Earlier cells are
//! themselves deterministic, so [`run_pending`] produces the same final
//! snapshot whether the campaign runs in one go, is interrupted and
//! resumed, or runs on pools of different sizes.

pub(crate) mod dir;
pub mod query;
pub mod run;
pub mod submit;

pub(crate) use dir::{load_snapshot, CampaignDir};
pub use dir::{sweep_stale_tmp, write_snapshot};
pub use query::{report_of, status_of, top_failures, CampaignStatus};
pub use run::{
    read_export, run_campaign, run_hunt, run_pending, CorpusExporter, CorpusReader, HuntSpec,
    RunError, RunStep,
};
pub use submit::{
    build_spec, load_resume_snapshot, validate_snapshot, validate_spec, ResumeError, SpecOptions,
    SubmitError, RESUME_LOCKED_FLAGS,
};

use crate::core::campaign::{
    metric_from_name, strategy_from_name, CampaignCell, CampaignSnapshot, CampaignSpec,
    CellOutcome,
};
use crate::core::{
    Engine, Evaluator, Explore, ImpactMetric, OutcomeEvaluator, ProcessEvaluator, ProcessRunner,
    SearchStrategy, SessionResult, StopCondition, TraceStore,
};
use crate::preload::locate;
use crate::targets::docstore::Version;
use crate::targets::proc::{ProcTargetSpace, VictimMode};
use crate::targets::recovery::{EngineKind, RecoverySpace};
use crate::targets::spaces::TargetSpace;
use afex_cluster::ParallelSession;
use afex_space::{FaultSpace, PointCodec};
use std::sync::Arc;
use std::time::Duration;

/// The canonical campaign-runnable target names.
pub const TARGETS: [&str; 5] = [
    "coreutils",
    "minidb",
    "httpd",
    "docstore-0.8",
    "docstore-2.0",
];

/// The real-process target family: the bundled victim binary in each of
/// its workload modes, executed live under the `LD_PRELOAD` shim by the
/// sandboxed process runner.
pub const PROC_TARGETS: [&str; 4] = [
    "proc:victim-read-file",
    "proc:victim-alloc",
    "proc:victim-alloc-unchecked",
    "proc:victim-spin",
];

/// The crash-recovery target family: rule-driven VFS fault injection
/// (error returns, short writes, dropped fsyncs, torn renames) against a
/// storage-engine workload, followed by a simulated power cut and a
/// fault-free reopen whose recovered state is checked against the
/// acknowledged history. `minidb-rewrite` keeps the historical
/// whole-log-rewrite WAL commit as a bug specimen the oracle catches;
/// the other two run the fixed engines.
pub const VFS_TARGETS: [&str; 3] = [
    "vfs:minidb-recovery",
    "vfs:minidb-rewrite",
    "vfs:docstore-recovery",
];

/// A test-only target whose cells panic mid-run — the chaos probe behind
/// the panic-quarantine tests and the CI chaos smoke. Only recognized
/// when `AFEX_TEST_POISON` is set in the environment, so production
/// daemons can never be handed a deliberately panicking campaign.
pub const POISON_TARGET: &str = "test:poison";

/// The canonical spelling of a target name, if known. `mysql` and
/// `apache` (the paper's names) are aliases of `minidb` and `httpd`
/// (the stand-ins), matching `explore`. `proc:*` names are already
/// canonical.
pub fn canonical_target(name: &str) -> Option<&'static str> {
    match name {
        "coreutils" => Some("coreutils"),
        "mysql" | "minidb" => Some("minidb"),
        "apache" | "httpd" => Some("httpd"),
        "docstore-0.8" => Some("docstore-0.8"),
        "docstore-2.0" => Some("docstore-2.0"),
        _ if name == POISON_TARGET && std::env::var_os("AFEX_TEST_POISON").is_some() => {
            Some(POISON_TARGET)
        }
        _ => PROC_TARGETS
            .iter()
            .chain(VFS_TARGETS.iter())
            .copied()
            .find(|t| *t == name),
    }
}

/// Whether a name denotes a real-process target (the `proc:*` family).
pub fn is_proc_target(name: &str) -> bool {
    PROC_TARGETS.contains(&name)
}

/// Whether a name denotes a crash-recovery target (the `vfs:*` family).
pub fn is_vfs_target(name: &str) -> bool {
    VFS_TARGETS.contains(&name)
}

/// Builds the fault space + oracle adapter for a `vfs:*` target. Unlike
/// `proc:*` targets these need no on-disk artifacts — the faulty VFS and
/// the engines are in-process.
pub fn vfs_target_space(name: &str) -> Option<RecoverySpace> {
    name.strip_prefix("vfs:")
        .and_then(EngineKind::from_name)
        .map(RecoverySpace::new)
}

/// Builds the fault space + process-plan adapter for a `proc:*` target,
/// resolving the victim binary and the interposition cdylib at runtime.
///
/// # Errors
///
/// Returns an instructive message when the name is not a proc target or
/// when an artifact is missing (how to build it, which variable
/// overrides the search).
pub fn proc_target_space(name: &str) -> Result<ProcTargetSpace, String> {
    let mode = name
        .strip_prefix("proc:victim-")
        .and_then(VictimMode::from_name)
        .ok_or_else(|| format!("unknown proc target `{name}`"))?;
    let victim = locate::victim_path()?;
    let shim = locate::shim_path()?;
    Ok(ProcTargetSpace::victim(mode, victim, shim))
}

/// Checks that every `proc:*` target in the list can actually run: its
/// victim binary and the shim cdylib must resolve. Campaign and hunt
/// entry points call this up front so a missing artifact is a clear
/// usage error instead of a panic deep inside a cell.
///
/// # Errors
///
/// Returns the first proc target's resolution error.
pub fn check_target_artifacts(targets: &[String]) -> Result<(), String> {
    for target in targets {
        if is_proc_target(target) {
            proc_target_space(target).map(|_| ())?;
        }
    }
    Ok(())
}

/// Canonicalizes a target list for a campaign spec: aliases collapse to
/// their canonical names, and duplicates — including a target listed
/// under two spellings, which would double-run and double-count it —
/// are rejected.
///
/// # Errors
///
/// Returns a description of the first unknown or duplicated target.
pub fn canonicalize_targets(names: &[String]) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::with_capacity(names.len());
    for name in names {
        let canon = canonical_target(name).ok_or_else(|| format!("unknown target `{name}`"))?;
        if out.iter().any(|c| c == canon) {
            return Err(format!("duplicate target `{canon}` (from `{name}`)"));
        }
        out.push(canon.to_owned());
    }
    Ok(out)
}

/// The canonical strategy names, in the order `strategy_from_name`
/// recognizes them.
pub const STRATEGIES: [&str; 4] = ["fitness", "random", "exhaustive", "genetic"];

/// The canonical spelling of a strategy name, if known. `fitness-guided`
/// (the paper's name for Algorithm 1) and `ga` (the genetic baseline)
/// are aliases, mirroring how target aliases work.
pub fn canonical_strategy(name: &str) -> Option<&'static str> {
    match name {
        "fitness" | "fitness-guided" => Some("fitness"),
        "random" => Some("random"),
        "exhaustive" => Some("exhaustive"),
        "genetic" | "ga" => Some("genetic"),
        _ => None,
    }
}

/// Canonicalizes a strategy list for a campaign spec, exactly like
/// [`canonicalize_targets`]: aliases collapse to their canonical names,
/// and duplicates — including a strategy listed under two spellings,
/// which would double-run every cell of it — are rejected.
///
/// # Errors
///
/// Returns a description of the first unknown or duplicated strategy.
pub fn canonicalize_strategies(names: &[String]) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::with_capacity(names.len());
    for name in names {
        let canon =
            canonical_strategy(name).ok_or_else(|| format!("unknown strategy `{name}`"))?;
        if out.iter().any(|c| c == canon) {
            return Err(format!("duplicate strategy `{canon}` (from `{name}`)"));
        }
        out.push(canon.to_owned());
    }
    Ok(out)
}

/// Builds the fault space + execution adapter for a *simulated* target
/// name, if known. Real-process (`proc:*`) targets resolve through
/// [`proc_target_space`] instead, since they need on-disk artifacts.
pub fn target_space(name: &str) -> Option<TargetSpace> {
    match canonical_target(name)? {
        "coreutils" => Some(TargetSpace::coreutils()),
        "minidb" => Some(TargetSpace::mysql()),
        "httpd" => Some(TargetSpace::apache()),
        "docstore-0.8" => Some(TargetSpace::docstore(Version::V0_8)),
        "docstore-2.0" => Some(TargetSpace::docstore(Version::V2_0)),
        // The poison probe never resolves a space: its cells panic in
        // `run_cell` before any space is needed.
        "test:poison" => None,
        name => {
            debug_assert!(
                is_proc_target(name) || is_vfs_target(name),
                "canonical names are exhaustive"
            );
            None
        }
    }
}

/// Whether a name denotes a campaign-runnable target.
pub fn known_target(name: &str) -> bool {
    canonical_target(name).is_some()
}

/// The default impact metric for a target. The database stand-in runs
/// the crash-hunt path (the §7.1 "find faults that crash the DBMS"
/// scenario, as in `examples/hunt_minidb.rs`); real-process targets hunt
/// crashes too, since a live binary has no simulated coverage signal;
/// everything else uses the coverage-and-failure default.
pub fn default_metric(target: &str) -> ImpactMetric {
    match target {
        "mysql" | "minidb" => ImpactMetric::crash_hunter(),
        t if is_proc_target(t) => ImpactMetric::crash_hunter(),
        // Recovery targets hunt durability violations, which the oracle
        // reports as crashes.
        t if is_vfs_target(t) => ImpactMetric::crash_hunter(),
        _ => ImpactMetric::default(),
    }
}

/// Ordered, deduplicated failure traces — the state a target's cell
/// chain threads from each completed cell into the next. Backed by the
/// shared [`TraceStore`]: each cell *extends* its predecessor's store
/// (interning only the traces it discovered) instead of re-splitting the
/// whole prefix corpus, and the records' `Arc<str>` handles are shared
/// rather than copied, so a trace's bytes are allocated once per
/// campaign.
#[derive(Debug, Clone, Default)]
pub struct TraceSeeds {
    store: TraceStore,
}

impl TraceSeeds {
    /// An empty seed set.
    pub fn new() -> Self {
        TraceSeeds::default()
    }

    /// Wraps an already-interned store — the service's preseed reload
    /// path, where the store (texts, lengths, signatures) comes straight
    /// out of `preseed.json` with zero decode passes.
    pub fn from_store(store: TraceStore) -> Self {
        TraceSeeds { store }
    }

    /// Extends this seed set with every trace of `donor`, copying
    /// interned entries (text handle, scalar length, signature) instead
    /// of re-measuring them ([`TraceStore::intern_from`]).
    pub fn seed_from(&mut self, donor: &TraceStore) {
        for text in donor.texts() {
            self.store.intern_from(donor, text);
        }
    }

    /// The underlying interned, length-banded trace store.
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// The deduped traces, in first-seen order.
    pub fn traces(&self) -> impl Iterator<Item = &str> {
        self.store.texts().map(|t| t.as_ref())
    }

    /// Number of distinct traces collected.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether no traces were collected.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Adds every failure trace of a completed cell's outcome, sharing
    /// the records' `Arc<str>` handles.
    pub fn absorb(&mut self, outcome: &CellOutcome) {
        for record in &outcome.records {
            if let Some(trace) = &record.trace {
                self.store.intern_arc(trace);
            }
        }
    }

    /// Adds one already-known trace — the cross-campaign preseeding path:
    /// the campaign service seeds a fresh campaign's chains with every
    /// trace prior campaigns found on the same target.
    pub fn seed_text(&mut self, trace: &str) {
        self.store.intern(trace);
    }
}

/// The redundancy-feedback seeds for a target's next pending cell: the
/// deduped failure traces of the target's completed *prefix* of cells,
/// in cell order. Chained runs always complete same-target cells in
/// order, so the prefix is normally just "the completed cells"; on a
/// tampered snapshot that completed a later cell while an earlier one is
/// pending (see [`CampaignSnapshot::check_chain_consistent`]) the
/// out-of-order outcomes are ignored, since a cell's predecessors could
/// never have produced them.
pub fn chain_seeds(snap: &CampaignSnapshot, target: &str) -> TraceSeeds {
    chain_seeds_into(TraceSeeds::new(), snap, target)
}

/// [`chain_seeds`] over a pre-populated seed set: the campaign service
/// starts each chain from the cross-campaign preseed (traces every prior
/// campaign found on the target) and extends it with the snapshot's own
/// completed prefix.
pub fn chain_seeds_into(
    mut seeds: TraceSeeds,
    snap: &CampaignSnapshot,
    target: &str,
) -> TraceSeeds {
    for state in snap.cells.iter().filter(|s| s.cell.target == target) {
        match &state.outcome {
            Some(outcome) => seeds.absorb(outcome),
            None => break,
        }
    }
    seeds
}

/// [`chain_seeds_into`] served from the snapshot's persisted trace
/// index: the index's per-target store *is* the completed-prefix corpus
/// (same prefix walk, maintained incrementally and reloaded with lengths
/// and signatures intact). Extends `seeds` (the service's cross-campaign
/// preseed, or empty) by copying entries out of the index
/// ([`TraceStore::intern_from`]) — decode-free for every trace the index
/// already measured — and an empty `seeds` short-circuits to one
/// `Arc`-sharing clone of the index store: zero decode passes, zero
/// re-splits. Callers must [`CampaignSnapshot::ensure_trace_index`]
/// after loading a snapshot; a target absent from the index has no
/// completed prefix and adds nothing.
pub fn chain_seeds_cached_into(
    mut seeds: TraceSeeds,
    snap: &CampaignSnapshot,
    target: &str,
) -> TraceSeeds {
    let Some(donor) = snap.trace_index().store_for(target) else {
        return seeds; // No completed prefix: the preseed alone.
    };
    if seeds.is_empty() {
        return TraceSeeds {
            store: donor.clone(),
        };
    }
    for text in donor.texts() {
        seeds.store.intern_from(donor, text);
    }
    seeds
}

/// Runs one cell to completion: one session over the cell's target with
/// the cell's strategy and seed, stopping on the spec's
/// [`StopPolicy`](crate::core::campaign::StopPolicy) (iteration budget
/// as the backstop), distilled into a [`CellOutcome`] keyed by packed
/// point codes. The spec also supplies the campaign-wide metric override
/// (see [`metric_from_name`]; `None` uses the target's default) and the
/// intra-cell fan-out width (`cell_workers`).
///
/// Every strategy runs through the same [`Engine`]: with
/// `cell_workers == 1` the cell is the classic sequential session; with
/// a wider window the cell's candidates execute batch-parallel on a
/// [`ParallelSession`] manager pool, each manager owning its own copy of
/// a simulated or `vfs:*` target, or a handle on the cell's one
/// sandboxed process runner for a `proc:*` target. Either way the
/// engine completes results in issue order and checks the stop policy
/// at every head-of-line completion, so a cell's outcome is a
/// deterministic function of `(spec, cell)` for the spec's fixed window
/// — which is why `cell_workers` lives in the spec (and the snapshot)
/// rather than on the command line of the moment.
///
/// `seeds` are the deduped failure traces of earlier same-target cells
/// ([`chain_seeds`]); fitness cells run with the §5 redundancy-feedback
/// loop on and the seeds' prebuilt [`TraceStore`] passed through by
/// reference count (interned texts and splits shared, never re-split),
/// so the search skips bugs the campaign already knows. Other strategies
/// ignore the seeds.
///
/// # Panics
///
/// Panics on an unknown target, strategy, or metric name — validate the
/// spec with [`CampaignSpec::validate`] first.
pub fn run_cell(cell: &CampaignCell, spec: &CampaignSpec, seeds: &TraceSeeds) -> CellOutcome {
    if cell.target == POISON_TARGET {
        panic!("poison target panicked mid-cell (AFEX_TEST_POISON)");
    }
    let m = spec
        .metric
        .as_deref()
        .map(|n| metric_from_name(n).expect("validated metric"))
        .unwrap_or_else(|| default_metric(&cell.target));
    // Campaign fitness cells always run the redundancy-feedback loop:
    // chained seeds need the loop on to bite, and a uniform setting
    // keeps every cell's outcome a function of the spec alone.
    let strategy = match strategy_from_name(&cell.strategy).expect("validated strategy") {
        SearchStrategy::Fitness(cfg) => SearchStrategy::Fitness(crate::core::ExplorerConfig {
            redundancy_feedback: true,
            ..cfg
        }),
        other => other,
    };
    // The CLI validates proc artifacts before any cell runs
    // (`check_target_artifacts`), so resolution failure here is a caller
    // bug, not a user error.
    let (space, result) = run_target(
        &cell.target,
        |space| strategy.build(space, cell.seed, seeds.store().clone()),
        m,
        spec.stop.to_condition(spec.iterations),
        spec.cell_workers.0,
        spec.timeout.0,
    )
    .expect("validated targets with checked proc artifacts resolve");
    let codec =
        PointCodec::for_space(&space).expect("all campaign target spaces fit u64 point codes");
    CellOutcome::from_session(cell.index, &result, &codec)
}

/// Resolves `target` to its family and runs one session against it
/// under `stop` with a `workers`-wide engine window: live binaries as
/// sandboxed child processes (with `timeout` as the per-test watchdog
/// budget), `vfs:*` targets through the crash-recovery oracle,
/// simulated suites in-process. `explorer` builds the session's
/// explorer over the resolved fault space, which is returned with the
/// session. The one target dispatch behind [`run_cell`] and
/// [`run_hunt`].
///
/// # Errors
///
/// Returns `unknown target` for a name no family resolves, or the
/// artifact-resolution message for a `proc:*` target whose victim binary
/// or shim cdylib is missing.
fn run_target(
    target: &str,
    explorer: impl FnOnce(Arc<FaultSpace>) -> Box<dyn Explore>,
    metric: ImpactMetric,
    stop: StopCondition,
    workers: usize,
    timeout: Duration,
) -> Result<(Arc<FaultSpace>, SessionResult), String> {
    if is_proc_target(target) {
        let ps = proc_target_space(target)?;
        let mut explorer = explorer(ps.space_arc());
        let result = run_proc_windowed(&ps, metric, explorer.as_mut(), stop, workers, timeout);
        return Ok((ps.space_arc(), result));
    }
    if let Some(rs) = vfs_target_space(target) {
        let space = rs.space_arc();
        let mut explorer = explorer(Arc::clone(&space));
        let make_eval = || {
            let rs = rs.clone();
            OutcomeEvaluator::new(move |p| rs.execute(p), metric.clone())
        };
        let result = windowed(make_eval, explorer.as_mut(), stop, workers);
        return Ok((space, result));
    }
    let ts = target_space(target).ok_or_else(|| format!("unknown target `{target}`"))?;
    let mut explorer = explorer(ts.space_arc());
    let result = run_windowed(&ts, metric, explorer.as_mut(), stop, workers);
    Ok((ts.space_arc(), result))
}

/// Runs a built explorer against a simulated target under `stop` with a
/// `workers`-wide engine window: batch-parallel on a manager pool (one
/// copy of the target and the metric per manager) when `workers > 1`,
/// the sequential engine otherwise. Campaign cells and `afex-cli hunt`
/// run simulated targets through it — deterministic in the window
/// either way.
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
    timeout: std::time::Duration,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::campaign::{CampaignSpec, StopPolicy};
    use std::collections::HashSet;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            targets: vec!["coreutils".into()],
            strategies: vec!["random".into()],
            seeds: 1,
            base_seed: 3,
            iterations: 25,
            stop: StopPolicy::Iterations,
            cell_workers: 1.into(),
            timeout: Default::default(),
            metric: None,
        }
    }

    #[test]
    fn known_targets_resolve_spaces() {
        for t in TARGETS {
            assert!(known_target(t), "{t}");
            assert!(target_space(t).is_some(), "{t}");
        }
        assert!(!known_target("nosuch"));
    }

    #[test]
    fn aliases_canonicalize_and_duplicates_are_rejected() {
        let ok = canonicalize_targets(&["mysql".into(), "apache".into(), "coreutils".into()])
            .unwrap();
        assert_eq!(ok, vec!["minidb", "httpd", "coreutils"]);
        // The same target under two spellings would double-run and
        // double-count it.
        let dup = canonicalize_targets(&["mysql".into(), "minidb".into()]).unwrap_err();
        assert!(dup.contains("duplicate target `minidb`"), "{dup}");
        let unknown = canonicalize_targets(&["nosuch".into()]).unwrap_err();
        assert!(unknown.contains("unknown target `nosuch`"), "{unknown}");
    }

    #[test]
    fn minidb_defaults_to_the_hunt_metric() {
        assert_eq!(default_metric("minidb"), ImpactMetric::crash_hunter());
        assert_eq!(default_metric("coreutils"), ImpactMetric::default());
    }

    #[test]
    fn proc_targets_are_known_but_not_simulated() {
        for t in PROC_TARGETS {
            assert!(known_target(t), "{t}");
            assert!(is_proc_target(t), "{t}");
            assert_eq!(canonical_target(t), Some(t));
            // Proc targets never resolve to a simulated space; they go
            // through `proc_target_space`, which needs the on-disk
            // victim and shim artifacts.
            assert!(target_space(t).is_none(), "{t}");
            assert_eq!(default_metric(t), ImpactMetric::crash_hunter());
        }
        assert!(!is_proc_target("coreutils"));
        assert!(!is_proc_target("proc:victim-nosuch"));
        assert!(canonical_target("proc:victim-nosuch").is_none());
        let err = proc_target_space("proc:nosuch").unwrap_err();
        assert!(err.contains("unknown proc target"), "{err}");
    }

    #[test]
    fn vfs_targets_are_known_and_hunt_crashes() {
        for t in VFS_TARGETS {
            assert!(known_target(t), "{t}");
            assert!(is_vfs_target(t), "{t}");
            assert_eq!(canonical_target(t), Some(t));
            // Recovery targets are neither simulated-suite nor proc
            // targets; they resolve through `vfs_target_space` and need
            // no on-disk artifacts.
            assert!(target_space(t).is_none(), "{t}");
            assert!(!is_proc_target(t), "{t}");
            assert!(vfs_target_space(t).is_some(), "{t}");
            assert_eq!(default_metric(t), ImpactMetric::crash_hunter());
        }
        assert!(vfs_target_space("vfs:nosuch").is_none());
        assert!(canonical_target("vfs:nosuch").is_none());
        check_target_artifacts(&["vfs:minidb-recovery".into()]).unwrap();
    }

    #[test]
    fn vfs_cells_run_and_are_deterministic() {
        let spec = CampaignSpec {
            targets: vec!["vfs:minidb-rewrite".into()],
            strategies: vec!["random".into()],
            seeds: 1,
            base_seed: 9,
            iterations: 40,
            stop: StopPolicy::Iterations,
            cell_workers: 2.into(),
            timeout: Default::default(),
            metric: None,
        };
        let cell = spec.cells().remove(0);
        let a = run_cell(&cell, &spec, &TraceSeeds::new());
        let b = run_cell(&cell, &spec, &TraceSeeds::new());
        assert_eq!(a, b, "vfs cells must be deterministic");
        assert_eq!(a.tests, 40);
    }

    #[test]
    fn proc_targets_canonicalize_alongside_simulated_ones() {
        let ok = canonicalize_targets(&[
            "mysql".into(),
            "proc:victim-alloc-unchecked".into(),
        ])
        .unwrap();
        assert_eq!(ok, vec!["minidb", "proc:victim-alloc-unchecked"]);
        let dup = canonicalize_targets(&[
            "proc:victim-spin".into(),
            "proc:victim-spin".into(),
        ])
        .unwrap_err();
        assert!(dup.contains("duplicate target"), "{dup}");
        // Artifact checks skip simulated targets entirely.
        check_target_artifacts(&["coreutils".into(), "minidb".into()]).unwrap();
    }

    #[test]
    fn strategy_aliases_canonicalize_and_duplicates_are_rejected() {
        for s in STRATEGIES {
            assert_eq!(canonical_strategy(s), Some(s));
        }
        let ok = canonicalize_strategies(&["fitness-guided".into(), "ga".into()]).unwrap();
        assert_eq!(ok, vec!["fitness", "genetic"]);
        // The same strategy under two spellings would double-run every
        // cell of it.
        let dup = canonicalize_strategies(&["genetic".into(), "ga".into()]).unwrap_err();
        assert!(dup.contains("duplicate strategy `genetic`"), "{dup}");
        let unknown = canonicalize_strategies(&["quantum".into()]).unwrap_err();
        assert!(unknown.contains("unknown strategy `quantum`"), "{unknown}");
    }

    #[test]
    fn parallel_cells_are_deterministic_and_drive_all_strategies() {
        // cell_workers in the spec: every strategy runs batch-parallel
        // through the engine, and a rerun with the same spec is
        // bit-identical.
        let spec = CampaignSpec {
            targets: vec!["coreutils".into()],
            strategies: vec![
                "fitness".into(),
                "random".into(),
                "exhaustive".into(),
                "genetic".into(),
            ],
            seeds: 1,
            base_seed: 3,
            iterations: 30,
            stop: StopPolicy::Iterations,
            cell_workers: 2.into(),
            timeout: Default::default(),
            metric: None,
        };
        for cell in spec.cells() {
            let a = run_cell(&cell, &spec, &TraceSeeds::new());
            let b = run_cell(&cell, &spec, &TraceSeeds::new());
            assert_eq!(a, b, "{} cell must be deterministic", cell.strategy);
            assert_eq!(a.tests, 30, "{} cell must spend its budget", cell.strategy);
        }
    }

    #[test]
    fn run_cell_is_deterministic() {
        let spec = tiny_spec();
        let cell = spec.cells().remove(0);
        let a = run_cell(&cell, &spec, &TraceSeeds::new());
        let b = run_cell(&cell, &spec, &TraceSeeds::new());
        assert_eq!(a, b);
        assert_eq!(a.tests, 25);
    }

    #[test]
    fn run_pending_completes_a_snapshot() {
        let mut snap = CampaignSnapshot::new(tiny_spec());
        let mut checkpoints = 0;
        run_pending(&mut snap, 2, |_| checkpoints += 1);
        assert!(snap.is_complete());
        assert_eq!(checkpoints, 1);
        assert_eq!(snap.cells[0].outcome.as_ref().unwrap().tests, 25);
    }

    #[test]
    fn spec_metric_overrides_target_default() {
        let mut spec = tiny_spec();
        spec.iterations = 200;
        spec.metric = Some("crash".into());
        let cell = spec.cells().remove(0);
        let with_crash = run_cell(&cell, &spec, &TraceSeeds::new());
        let mut default_spec = tiny_spec();
        default_spec.iterations = 200;
        let with_default = run_cell(&cell, &default_spec, &TraceSeeds::new());
        // Same strategy/seed, different metric: same points visited by
        // the random strategy, differently scored.
        assert_eq!(with_crash.tests, with_default.tests);
        assert!(!with_default.records.is_empty(), "no failures to compare");
        let crash_impacts: Vec<f64> = with_crash.records.iter().map(|r| r.impact).collect();
        let default_impacts: Vec<f64> = with_default.records.iter().map(|r| r.impact).collect();
        assert_ne!(crash_impacts, default_impacts);
    }

    #[test]
    fn stop_policy_halts_cells_early() {
        let mut spec = tiny_spec();
        spec.iterations = 400;
        spec.stop = StopPolicy::Failures(1);
        let cell = spec.cells().remove(0);
        let outcome = run_cell(&cell, &spec, &TraceSeeds::new());
        assert_eq!(outcome.failures, 1, "stopped at the first failure");
        assert!(outcome.tests < 400, "budget cap should not be the stopper");
    }

    #[test]
    fn chain_seeds_collect_the_completed_prefix() {
        let mut spec = tiny_spec();
        spec.strategies = vec!["fitness".into(), "random".into()];
        spec.seeds = 2; // 4 same-target cells.
        let mut snap = CampaignSnapshot::new(spec.clone());
        assert!(chain_seeds(&snap, "coreutils").is_empty());
        let o0 = run_cell(&snap.cells[0].cell.clone(), &spec, &TraceSeeds::new());
        snap.record(0, o0.clone());
        let seeds_after_0 = chain_seeds(&snap, "coreutils");
        let distinct: HashSet<&str> = o0
            .records
            .iter()
            .filter_map(|r| r.trace.as_deref())
            .collect();
        assert_eq!(seeds_after_0.len(), distinct.len(), "deduped trace count");
        // An out-of-order completion (cell 2 done, cell 1 pending) is
        // not part of any replayable prefix and must be ignored.
        let mut tampered = snap.clone();
        let o2 = run_cell(&tampered.cells[2].cell.clone(), &spec, &TraceSeeds::new());
        tampered.record(2, o2);
        let tampered_seeds = chain_seeds(&tampered, "coreutils");
        assert_eq!(
            tampered_seeds.traces().collect::<Vec<_>>(),
            seeds_after_0.traces().collect::<Vec<_>>()
        );
    }

    #[test]
    fn chained_seeds_change_later_fitness_cells() {
        // docstore-0.8 fails readily with traces; a second fitness cell
        // seeded with the first cell's traces must explore differently
        // than an unseeded replay of the same (strategy, seed).
        let spec = CampaignSpec {
            targets: vec!["docstore-0.8".into()],
            strategies: vec!["fitness".into()],
            seeds: 2,
            base_seed: 11,
            iterations: 120,
            stop: StopPolicy::Iterations,
            cell_workers: 1.into(),
            timeout: Default::default(),
            metric: None,
        };
        let cells = spec.cells();
        let first = run_cell(&cells[0], &spec, &TraceSeeds::new());
        let mut seeds = TraceSeeds::new();
        seeds.absorb(&first);
        assert!(!seeds.is_empty(), "first cell found no traces to chain");
        let chained = run_cell(&cells[1], &spec, &seeds);
        let unchained = run_cell(&cells[1], &spec, &TraceSeeds::new());
        assert_ne!(chained, unchained, "seeded traces must steer the search");
    }

    #[test]
    fn exporter_mirrors_the_store_across_checkpoints() {
        let dir = std::env::temp_dir().join(format!("afex-export-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.jsonl");

        let mut spec = tiny_spec();
        spec.strategies = vec!["fitness".into(), "random".into()];
        spec.iterations = 60;
        let mut snap = CampaignSnapshot::new(spec);
        let mut exporter = CorpusExporter::open(&path).unwrap();
        run_pending(&mut snap, 2, |s| exporter.sync(s).unwrap());
        assert!(!exporter.is_empty(), "campaign found nothing to export");
        assert_eq!(exporter.len(), snap.store.len());

        let records = read_export(&path).unwrap();
        assert_eq!(records.len(), snap.store.len());
        for rec in &records {
            assert_eq!(
                snap.store.get(&rec.target, rec.record.code),
                Some(&rec.record),
                "exported record must match the store"
            );
        }

        // Re-opening and re-syncing appends nothing new...
        let before = std::fs::read(&path).unwrap();
        let mut reopened = CorpusExporter::open(&path).unwrap();
        reopened.sync(&snap).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before);

        // ...and a torn trailing line heals: the truncated record is
        // re-appended by the next sync, restoring set equality.
        let mut torn = before.clone();
        let keep = torn.len() - 10;
        torn.truncate(keep);
        std::fs::write(&path, &torn).unwrap();
        let mut healed = CorpusExporter::open(&path).unwrap();
        healed.sync(&snap).unwrap();
        let records = read_export(&path).unwrap();
        assert_eq!(records.len(), snap.store.len());

        // A fresh campaign truncates a stale export: `create` must not
        // inherit (or be suppressed by) an unrelated earlier run's
        // records — the file must mirror the new store exactly.
        let mut other = CampaignSnapshot::new(tiny_spec());
        run_pending(&mut other, 1, |_| {});
        let mut fresh = CorpusExporter::create(&path).unwrap();
        assert!(fresh.is_empty(), "create must truncate stale records");
        fresh.sync(&other).unwrap();
        let records = read_export(&path).unwrap();
        assert_eq!(records.len(), other.store.len());
        for rec in &records {
            assert_eq!(other.store.get(&rec.target, rec.record.code), Some(&rec.record));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_reader_seeks_records_through_the_sidecar_index() {
        let dir = std::env::temp_dir().join(format!("afex-seek-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.jsonl");
        let idx_path = dir.join("corpus.jsonl.idx");

        let mut spec = tiny_spec();
        spec.strategies = vec!["fitness".into(), "random".into()];
        spec.iterations = 60;
        let mut snap = CampaignSnapshot::new(spec);
        let mut exporter = CorpusExporter::create(&path).unwrap();
        run_pending(&mut snap, 2, |s| exporter.sync(s).unwrap());
        assert!(exporter.len() >= 3, "need a few records to seek");
        drop(exporter);

        // The sidecar is fixed-width: 17 bytes per record.
        let idx_bytes = std::fs::read(&idx_path).unwrap();
        assert_eq!(idx_bytes.len(), 17 * snap.store.len());

        // Every record seeks to exactly what a full parse reads.
        let all = read_export(&path).unwrap();
        let mut reader = CorpusReader::open(&path).unwrap();
        assert_eq!(reader.len(), all.len());
        for (i, want) in all.iter().enumerate() {
            assert_eq!(&reader.get(i).unwrap(), want, "record {i}");
        }
        // Random access, not just sequential.
        assert_eq!(&reader.get(all.len() - 1).unwrap(), all.last().unwrap());
        assert_eq!(&reader.get(0).unwrap(), &all[0]);
        assert!(reader.get(all.len()).is_err(), "out of range must error");

        // A deleted sidecar falls back to a scan with identical results...
        std::fs::remove_file(&idx_path).unwrap();
        let mut scanned = CorpusReader::open(&path).unwrap();
        assert_eq!(scanned.len(), all.len());
        assert_eq!(&scanned.get(1).unwrap(), &all[1]);

        // ...and re-opening the exporter deterministically rebuilds the
        // sidecar from the record file alone.
        let _reopened = CorpusExporter::open(&path).unwrap();
        assert_eq!(std::fs::read(&idx_path).unwrap(), idx_bytes);

        // A torn record tail: the reader serves every complete record
        // and drops the torn one, even with the stale (now too-long)
        // sidecar still in place.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let mut torn = CorpusReader::open(&path).unwrap();
        assert_eq!(torn.len(), all.len() - 1);
        assert_eq!(&torn.get(all.len() - 2).unwrap(), &all[all.len() - 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

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
//! - [`target`] — the target registry: one row per target, resolved
//!   once per entry point into a [`ResolvedTarget`] that owns every
//!   per-family decision (canonical name, default metric, artifact
//!   check, session runner).
//! - [`mod@self`] — the strategy registry, spec canonicalization, and
//!   per-cell execution ([`run_cell`], [`chain_seeds`]).
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
pub mod target;

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
pub use target::{
    default_metric, proc_target_space, run_proc_windowed, run_windowed, target_space,
    ResolvedTarget, Suite,
};

use crate::core::campaign::{
    metric_from_name, strategy_from_name, CampaignCell, CampaignSnapshot, CampaignSpec,
    CellOutcome,
};
use crate::core::{SearchStrategy, TraceStore};
use afex_space::PointCodec;

/// Canonicalizes a target list for a campaign spec: aliases collapse to
/// their canonical names, and duplicates — including a target listed
/// under two spellings, which would double-run and double-count it —
/// are rejected.
///
/// # Errors
///
/// Returns a description of the first unknown or duplicated target.
pub fn canonicalize_targets(names: &[String]) -> Result<Vec<String>, String> {
    canonicalize(names, "target", |n| ResolvedTarget::resolve(n).ok().map(ResolvedTarget::name))
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
    canonicalize(names, "strategy", canonical_strategy)
}

/// The one canonicalizing loop behind [`canonicalize_targets`] and
/// [`canonicalize_strategies`]: maps each name through `canonical`, and
/// rejects an unknown name or a second spelling of one already listed.
fn canonicalize(
    names: &[String],
    noun: &str,
    canonical: impl Fn(&str) -> Option<&'static str>,
) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::with_capacity(names.len());
    for name in names {
        let canon = canonical(name).ok_or_else(|| format!("unknown {noun} `{name}`"))?;
        if out.iter().any(|c| c == canon) {
            return Err(format!("duplicate {noun} `{canon}` (from `{name}`)"));
        }
        out.push(canon.to_owned());
    }
    Ok(out)
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
/// Every strategy runs through the same [`Engine`](crate::core::Engine): with
/// `cell_workers == 1` the cell is the classic sequential session; with
/// a wider window the cell's candidates execute batch-parallel on a
/// [`ParallelSession`](afex_cluster::ParallelSession) manager pool, each
/// manager owning its own copy of
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
    let target = ResolvedTarget::resolve(&cell.target).expect("validated target");
    let m = spec
        .metric
        .as_deref()
        .map(|n| metric_from_name(n).expect("validated metric"))
        .unwrap_or_else(|| target.default_metric());
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
    // Validation checks proc artifacts before any cell runs
    // (`validate_spec`, `validate_snapshot`), so a failure here is a
    // caller bug, not a user error.
    let explorer = |space| strategy.build(space, cell.seed, seeds.store().clone());
    let stop = spec.stop.to_condition(spec.iterations);
    let (space, result) = target
        .run_session(explorer, m, stop, spec.cell_workers.0, spec.timeout)
        .expect("validated targets with checked proc artifacts resolve");
    let codec =
        PointCodec::for_space(&space).expect("all campaign target spaces fit u64 point codes");
    CellOutcome::from_session(cell.index, &result, &codec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::campaign::{CampaignSpec, StopPolicy};
    use crate::core::ImpactMetric;
    use crate::targets::recovery::RecoverySpace;
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

    /// Every registry row but the poison probe, which resolves only when
    /// `AFEX_TEST_POISON` is set (other tests in this process set it; the
    /// panic-quarantine tests cover it).
    fn rows() -> impl Iterator<Item = (&'static str, &'static [&'static str], ResolvedTarget)> {
        target::REGISTRY.into_iter().filter(|row| row.2 != ResolvedTarget::Poison)
    }

    #[test]
    fn known_targets_resolve_spaces() {
        for (name, aliases, target) in rows() {
            assert_eq!(ResolvedTarget::resolve(name), Ok(target), "{name}");
            assert_eq!(target.name(), name);
            for alias in aliases {
                assert_eq!(ResolvedTarget::resolve(alias), Ok(target), "{alias}");
            }
            assert_eq!(canonicalize_targets(&[name.into()]), Ok(vec![name.to_owned()]));
            if let ResolvedTarget::Simulated(_) = target {
                assert!(target_space(name).is_some(), "{name}");
            }
        }
        assert_eq!(ResolvedTarget::resolve("mysql").map(ResolvedTarget::name), Ok("minidb"));
        assert_eq!(ResolvedTarget::resolve("apache").map(ResolvedTarget::name), Ok("httpd"));
        let err = ResolvedTarget::resolve("nosuch").unwrap_err();
        assert_eq!(err, "unknown target `nosuch`");
        assert!(target_space("nosuch").is_none());
    }

    #[test]
    fn minidb_defaults_to_the_hunt_metric() {
        assert_eq!(default_metric("minidb"), ImpactMetric::crash_hunter());
        assert_eq!(default_metric("coreutils"), ImpactMetric::default());
        for (name, _, target) in rows() {
            if let ResolvedTarget::Simulated(suite) = target {
                let hunts_crashes = suite == Suite::MiniDb;
                assert_eq!(default_metric(name) == ImpactMetric::crash_hunter(), hunts_crashes);
            }
        }
        for unknown in ["nosuch", "proc:victim-nosuch", "vfs:nosuch", "proc:nosuch"] {
            assert_eq!(default_metric(unknown), ImpactMetric::default(), "{unknown}");
        }
    }

    #[test]
    fn proc_targets_are_known_but_not_simulated() {
        for (name, _, target) in rows() {
            match target {
                ResolvedTarget::Proc(mode) => {
                    // Proc targets never resolve to a simulated space;
                    // their space needs the on-disk victim and shim.
                    assert!(target_space(name).is_none(), "{name}");
                    assert_eq!(default_metric(name), ImpactMetric::crash_hunter());
                    assert_eq!(name, format!("proc:victim-{}", mode.name()));
                }
                ResolvedTarget::Simulated(_) => {
                    let err = proc_target_space(name).unwrap_err();
                    assert_eq!(err, format!("unknown proc target `{name}`"));
                }
                ResolvedTarget::Vfs(_) | ResolvedTarget::Poison => {}
            }
        }
        for unknown in ["proc:victim-nosuch", "proc:nosuch"] {
            let err = ResolvedTarget::resolve(unknown).unwrap_err();
            assert_eq!(err, format!("unknown target `{unknown}`"));
            assert!(target_space(unknown).is_none(), "{unknown}");
        }
        let err = proc_target_space("proc:nosuch").unwrap_err();
        assert!(err.contains("unknown proc target"), "{err}");
    }

    #[test]
    fn vfs_targets_are_known_and_hunt_crashes() {
        for (name, _, target) in rows() {
            if let ResolvedTarget::Vfs(kind) = target {
                // Recovery targets are neither simulated nor proc targets
                // and need no on-disk artifacts.
                assert!(target_space(name).is_none(), "{name}");
                assert_eq!(default_metric(name), ImpactMetric::crash_hunter());
                assert_eq!(name, RecoverySpace::new(kind).name());
                target.check_artifacts().unwrap();
                assert!(proc_target_space(name).is_err(), "{name}");
            }
        }
        let err = ResolvedTarget::resolve("vfs:nosuch").unwrap_err();
        assert_eq!(err, "unknown target `vfs:nosuch`");
        assert!(target_space("vfs:nosuch").is_none());
    }

    #[test]
    fn proc_targets_canonicalize_alongside_simulated_ones() {
        let ok = canonicalize_targets(&["mysql".into(), "proc:victim-alloc-unchecked".into()])
            .unwrap();
        assert_eq!(ok, vec!["minidb", "proc:victim-alloc-unchecked"]);
        let dup = canonicalize_targets(&["proc:victim-spin".into(), "proc:victim-spin".into()])
            .unwrap_err();
        assert!(dup.contains("duplicate target"), "{dup}");
        // Artifact checks skip simulated targets entirely.
        for (name, _, target) in rows() {
            if let ResolvedTarget::Simulated(_) = target {
                target.check_artifacts().unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
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

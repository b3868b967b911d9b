//! Campaigns: matrices of exploration sessions with durable progress.
//!
//! The paper's unit of work is one *fault exploration session* (§6): one
//! target, one strategy, one seed, one stop criterion. A real deployment
//! runs many of those — per target, per strategy, per seed — against a
//! shared cluster, and wants the union of everything found, deduplicated,
//! and safe against the orchestrator dying halfway through.
//!
//! This module is the data model and bookkeeping for such a **campaign**:
//!
//! - [`CampaignSpec`] — the `{target} × {strategy} × {seed}` matrix plus
//!   the per-cell iteration budget.
//! - [`CampaignCell`] — one session of the matrix, identified by its
//!   index in the deterministic cell order.
//! - [`CellOutcome`] — the distilled result of one finished cell: summary
//!   counters plus the failing faults as [`FailureRecord`]s keyed by
//!   packed point codes ([`PointCodec`]).
//! - [`ResultStore`] — the shared, deduplicating failure corpus. Keys are
//!   `(target, code)`; the first discovery *in cell order* wins, so the
//!   store is independent of the order in which cells physically finish.
//! - [`CampaignSnapshot`] — the durable state: spec, per-cell progress,
//!   and the store, serializable to JSON and back to **identical bytes**.
//!   Cells are the checkpoint granularity: a cell re-runs from its own
//!   seed deterministically, so an interrupted campaign resumed from a
//!   snapshot converges to the same final corpus as an uninterrupted run.
//! - [`CampaignReport`] — the summary emitted when a campaign completes.
//!
//! Executing cells against real targets lives above this crate (the
//! `afex` facade wires `afex-targets` spaces in; `afex-cluster` provides
//! the `MultiplexPool` that runs cells on a worker pool).

use crate::algorithm::ExplorerConfig;
use crate::genetic::GeneticConfig;
use crate::impact::ImpactMetric;
use crate::quality::store::TraceStore;
use crate::session::{SearchStrategy, SessionResult, StopCondition};
use afex_space::{Point, PointCodec};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Maps a strategy name (as spelled in specs and on the CLI) to the
/// search strategy it denotes, with default configurations.
pub fn strategy_from_name(name: &str) -> Option<SearchStrategy> {
    match name {
        "fitness" => Some(SearchStrategy::Fitness(ExplorerConfig::default())),
        "random" => Some(SearchStrategy::Random),
        "exhaustive" => Some(SearchStrategy::Exhaustive),
        "genetic" => Some(SearchStrategy::Genetic(GeneticConfig::default())),
        _ => None,
    }
}

/// Maps a metric name (as spelled in specs and on the CLI) to the impact
/// metric it denotes. The name lives in the spec — and therefore in the
/// snapshot — so a resumed campaign always scores with the same metric
/// as the original run.
pub fn metric_from_name(name: &str) -> Option<ImpactMetric> {
    match name {
        "default" => Some(ImpactMetric::default()),
        "paper" => Some(ImpactMetric::paper_example()),
        "crash" => Some(ImpactMetric::crash_hunter()),
        _ => None,
    }
}

/// When a campaign cell stops, beyond its iteration budget.
///
/// The paper's sessions stop on richer criteria than a raw test budget
/// (§6: "find 3 disk faults that hang the DBMS"). A campaign applies one
/// policy to every cell; the spec's iteration budget always remains the
/// hard backstop that keeps cells finite on spaces with few faults. The
/// policy maps onto [`StopCondition`] via [`StopPolicy::to_condition`].
///
/// The policy is spelled identically in specs, snapshots, and on the CLI
/// (`iterations`, `failures:N`, `crashes:N`), and it lives in the spec —
/// and therefore in the snapshot — so a resumed campaign stops exactly
/// like the original run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopPolicy {
    /// Run the full iteration budget.
    #[default]
    Iterations,
    /// Stop a cell once it found this many failure-inducing tests.
    Failures(usize),
    /// Stop a cell once it found this many crash-inducing tests.
    Crashes(usize),
}

impl StopPolicy {
    /// Parses the spec/CLI spelling: `iterations`, `failures:N`, or
    /// `crashes:N` (`N` a positive integer).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of why `text` is not a
    /// stop policy.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text == "iterations" {
            return Ok(StopPolicy::Iterations);
        }
        let err = || {
            format!("bad stop policy `{text}`: expected iterations, failures:N, or crashes:N")
        };
        let (kind, count) = text.split_once(':').ok_or_else(err)?;
        let count: usize = count.parse().map_err(|_| err())?;
        if count == 0 {
            return Err(format!("bad stop policy `{text}`: the target count must be positive"));
        }
        match kind {
            "failures" => Ok(StopPolicy::Failures(count)),
            "crashes" => Ok(StopPolicy::Crashes(count)),
            _ => Err(err()),
        }
    }

    /// The session stop condition this policy denotes, with `iterations`
    /// as the hard cap.
    pub fn to_condition(self, iterations: usize) -> StopCondition {
        match self {
            StopPolicy::Iterations => StopCondition::Iterations(iterations),
            StopPolicy::Failures(count) => StopCondition::Failures {
                count,
                max_iterations: iterations,
            },
            StopPolicy::Crashes(count) => StopCondition::Crashes {
                count,
                max_iterations: iterations,
            },
        }
    }
}

impl fmt::Display for StopPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StopPolicy::Iterations => write!(f, "iterations"),
            StopPolicy::Failures(n) => write!(f, "failures:{n}"),
            StopPolicy::Crashes(n) => write!(f, "crashes:{n}"),
        }
    }
}

/// Snapshots spell the policy exactly like the CLI (`"failures:3"`), so
/// the encoding is trivially canonical: one string per policy.
impl Serialize for StopPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for StopPolicy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::msg("expected stop-policy string"))?;
        StopPolicy::parse(s).map_err(serde::Error::msg)
    }

    /// Snapshots written before stop policies existed simply ran every
    /// cell to its iteration budget; they keep resuming under that
    /// policy instead of failing to parse.
    fn from_missing(_field: &str) -> Result<Self, serde::Error> {
        Ok(StopPolicy::Iterations)
    }
}

/// How many candidates a cell keeps in flight: the engine window every
/// cell's session runs under.
///
/// `1` (the default) is the classic sequential cell. Larger values run
/// the cell batch-parallel on a manager pool — the intra-cell fan-out
/// that lets a 1-target × N-seed chained matrix scale with the pool
/// instead of serializing. The value is part of the spec — and therefore
/// of the snapshot — because the window *is* the fitness-feedback lag: a
/// cell's outcome is a deterministic function of `(spec, cell)` only for
/// a fixed window, so `--resume` must replay with the original value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellWorkers(pub usize);

impl Default for CellWorkers {
    fn default() -> Self {
        CellWorkers(1)
    }
}

impl From<usize> for CellWorkers {
    fn from(n: usize) -> Self {
        CellWorkers(n)
    }
}

impl fmt::Display for CellWorkers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Serialize for CellWorkers {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl Deserialize for CellWorkers {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        usize::from_value(v).map(CellWorkers)
    }

    /// Snapshots written before intra-cell fan-out existed ran every
    /// cell sequentially; they keep resuming with one worker instead of
    /// failing to parse.
    fn from_missing(_field: &str) -> Result<Self, serde::Error> {
        Ok(CellWorkers(1))
    }
}

/// Wall-clock budget per test for targets that execute real processes.
///
/// Simulated targets evaluate in-process and never consult this; the
/// process runner arms its watchdog with it, so the value decides
/// when a live child is declared hung. It is part of the spec — and
/// therefore of the snapshot — because hang classification is part of a
/// cell's outcome: `--resume` must watch with the original budget or the
/// replay diverges.
///
/// Spelled `10s` / `1500ms` in specs, snapshots, and on the CLI; bare
/// digits mean seconds. The canonical rendering uses whole seconds when
/// exact and milliseconds otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestTimeout(pub std::time::Duration);

impl Default for TestTimeout {
    fn default() -> Self {
        TestTimeout(std::time::Duration::from_secs(10))
    }
}

impl TestTimeout {
    /// Parses the spec/CLI spelling: `Nms`, `Ns`, or bare `N` (seconds).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of why `text` is not a
    /// positive timeout.
    pub fn parse(text: &str) -> Result<Self, String> {
        let err = || format!("bad timeout `{text}`: expected a duration like 10s, 1500ms, or 10");
        let (digits, unit_ms) = if let Some(d) = text.strip_suffix("ms") {
            (d, 1u64)
        } else if let Some(d) = text.strip_suffix('s') {
            (d, 1000)
        } else {
            (text, 1000)
        };
        let n: u64 = digits.parse().map_err(|_| err())?;
        if n == 0 {
            return Err(format!(
                "bad timeout `{text}`: the watchdog budget must be positive"
            ));
        }
        let ms = n.checked_mul(unit_ms).ok_or_else(err)?;
        Ok(TestTimeout(std::time::Duration::from_millis(ms)))
    }
}

impl fmt::Display for TestTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0.as_millis();
        if ms.is_multiple_of(1000) {
            write!(f, "{}s", ms / 1000)
        } else {
            write!(f, "{ms}ms")
        }
    }
}

impl Serialize for TestTimeout {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for TestTimeout {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::msg("expected timeout string"))?;
        TestTimeout::parse(s).map_err(serde::Error::msg)
    }

    /// Snapshots written before real-process targets existed never timed
    /// a test; they keep resuming under the default watchdog budget
    /// instead of failing to parse.
    fn from_missing(_field: &str) -> Result<Self, serde::Error> {
        Ok(TestTimeout::default())
    }
}

/// The `{target} × {strategy} × {seed}` matrix a campaign runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Target names, in matrix order.
    pub targets: Vec<String>,
    /// Strategy names (see [`strategy_from_name`]), in matrix order.
    pub strategies: Vec<String>,
    /// Seeds per `(target, strategy)` pair.
    pub seeds: usize,
    /// Base seed; cell `k` of a pair uses `base_seed + k`.
    pub base_seed: u64,
    /// Iteration budget per cell.
    pub iterations: usize,
    /// When each cell stops, beyond the iteration budget.
    pub stop: StopPolicy,
    /// In-flight candidates per cell (intra-cell fan-out width).
    pub cell_workers: CellWorkers,
    /// Wall-clock watchdog budget per test (real-process targets only).
    pub timeout: TestTimeout,
    /// Impact-metric name (see [`metric_from_name`]) applied to every
    /// cell; `None` means each target's own default.
    pub metric: Option<String>,
}

impl CampaignSpec {
    /// Checks the spec is runnable: non-empty matrix axes, known
    /// strategies, known targets (per the caller's registry), and a
    /// positive budget.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn validate<F: Fn(&str) -> bool>(&self, known_target: F) -> Result<(), String> {
        if self.targets.is_empty() {
            return Err("campaign needs at least one target".into());
        }
        if self.strategies.is_empty() {
            return Err("campaign needs at least one strategy".into());
        }
        if self.seeds == 0 {
            return Err("campaign needs at least one seed".into());
        }
        if self.iterations == 0 {
            return Err("campaign needs a positive per-cell iteration budget".into());
        }
        if self.base_seed.checked_add(self.seeds as u64 - 1).is_none() {
            return Err(format!(
                "base seed {} + {} seeds overflows the u64 seed range",
                self.base_seed, self.seeds
            ));
        }
        if let StopPolicy::Failures(0) | StopPolicy::Crashes(0) = self.stop {
            return Err("stop policy needs a positive target count".into());
        }
        if self.cell_workers.0 == 0 {
            return Err("campaign needs at least one cell worker".into());
        }
        if self.timeout.0.is_zero() {
            return Err("campaign needs a positive test timeout".into());
        }
        for (i, t) in self.targets.iter().enumerate() {
            if !known_target(t) {
                return Err(format!("unknown target `{t}`"));
            }
            if self.targets[..i].contains(t) {
                return Err(format!("duplicate target `{t}`"));
            }
        }
        for (i, s) in self.strategies.iter().enumerate() {
            if strategy_from_name(s).is_none() {
                return Err(format!("unknown strategy `{s}`"));
            }
            if self.strategies[..i].contains(s) {
                return Err(format!("duplicate strategy `{s}`"));
            }
        }
        if let Some(m) = &self.metric {
            if metric_from_name(m).is_none() {
                return Err(format!("unknown metric `{m}`"));
            }
        }
        Ok(())
    }

    /// Number of cells in the matrix.
    pub fn num_cells(&self) -> usize {
        self.targets.len() * self.strategies.len() * self.seeds
    }

    /// The cells in their canonical deterministic order: target-major,
    /// then strategy, then seed. Cell indices are positions in this
    /// order, and every dedup tie-break follows it.
    pub fn cells(&self) -> Vec<CampaignCell> {
        let mut out = Vec::with_capacity(self.num_cells());
        for target in &self.targets {
            for strategy in &self.strategies {
                for k in 0..self.seeds {
                    out.push(CampaignCell {
                        index: out.len(),
                        target: target.clone(),
                        strategy: strategy.clone(),
                        seed: self.base_seed + k as u64,
                    });
                }
            }
        }
        out
    }
}

/// One session of the campaign matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCell {
    /// Position in [`CampaignSpec::cells`] order.
    pub index: usize,
    /// Target name.
    pub target: String,
    /// Strategy name.
    pub strategy: String,
    /// Session seed.
    pub seed: u64,
}

/// One failing fault, as stored in the shared corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// Packed point code ([`PointCodec`] / row-major linear index) — the
    /// dedup key within a target.
    pub code: u64,
    /// The fault point, kept unpacked for readability of snapshots.
    pub point: Point,
    /// Measured impact.
    pub impact: f64,
    /// Whether the target crashed.
    pub crashed: bool,
    /// Whether the target hung.
    pub hung: bool,
    /// Injection-point stack trace, if the fault triggered. Shares the
    /// evaluation's allocation (`Arc<str>`), and the campaign chain's
    /// trace store interns the same handle — one allocation per distinct
    /// trace per campaign.
    pub trace: Option<Arc<str>>,
    /// Index of the cell that discovered this fault (first in cell
    /// order, not in wall-clock completion order).
    pub cell: usize,
}

/// One line of the streaming corpus export (`--export`): a deduplicated
/// failure record paired with the target it was found on, serialized as
/// one compact JSON object per line so very long campaigns can be tailed
/// without loading the snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExportRecord {
    /// Target name (the corpus dedup key is `(target, record.code)`).
    pub target: String,
    /// The failure record, exactly as stored in the corpus.
    pub record: FailureRecord,
}

impl ExportRecord {
    /// Serializes this record as one compact JSONL line (no newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("export record serializes")
    }

    /// Parses one JSONL line back into a record.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse or shape-mismatch error.
    pub fn from_jsonl(line: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(line)
    }
}

/// The distilled result of one finished cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Tests the session executed.
    pub tests: usize,
    /// Tests that failed the target's suite.
    pub failures: usize,
    /// Tests that crashed the target.
    pub crashes: usize,
    /// Tests that hung the target.
    pub hangs: usize,
    /// The failing faults, in execution order.
    pub records: Vec<FailureRecord>,
}

impl CellOutcome {
    /// Distills a session log into an outcome, packing each failing
    /// fault's point through `codec`.
    pub fn from_session(cell: usize, result: &SessionResult, codec: &PointCodec) -> Self {
        let records = result
            .executed
            .iter()
            .filter(|t| t.evaluation.failed)
            .map(|t| FailureRecord {
                code: codec.encode(&t.point),
                point: t.point.clone(),
                impact: t.evaluation.impact,
                crashed: t.evaluation.crashed,
                hung: t.evaluation.hung,
                trace: t.evaluation.trace.clone(),
                cell,
            })
            .collect();
        CellOutcome {
            tests: result.len(),
            failures: result.failures(),
            crashes: result.crashes(),
            hangs: result.hangs(),
            records,
        }
    }
}

/// The shared, deduplicating failure corpus of a campaign.
///
/// Keys are `(target, packed point code)`: cells exploring the same
/// target with different strategies or seeds frequently rediscover the
/// same fault, and the corpus keeps exactly one record per fault. Backed
/// by a `BTreeMap` so iteration (and serialization) order is the sorted
/// key order — independent of insertion order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResultStore {
    entries: BTreeMap<(String, u64), FailureRecord>,
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of unique failing faults across all targets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a fault is already recorded.
    pub fn contains(&self, target: &str, code: u64) -> bool {
        self.entries.contains_key(&(target.to_owned(), code))
    }

    /// The record for a fault, if present.
    pub fn get(&self, target: &str, code: u64) -> Option<&FailureRecord> {
        self.entries.get(&(target.to_owned(), code))
    }

    /// Inserts a record; on a collision the record from the *earliest*
    /// cell (smallest [`FailureRecord::cell`]) wins. That tie-break makes
    /// the store a join-semilattice over merges: any merge order — cell
    /// order, wall-clock completion order, a resume replay — converges
    /// to the same corpus. Returns whether the fault was previously
    /// absent.
    pub fn insert_earliest(&mut self, target: &str, record: FailureRecord) -> bool {
        match self.entries.entry((target.to_owned(), record.code)) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(record);
                true
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                if record.cell < e.get().cell {
                    e.insert(record);
                }
                false
            }
        }
    }

    /// Merges one cell's records. Returns how many faults were new.
    pub fn merge_cell(&mut self, target: &str, outcome: &CellOutcome) -> usize {
        outcome
            .records
            .iter()
            .filter(|r| self.insert_earliest(target, (*r).clone()))
            .count()
    }

    /// Iterates `((target, code), record)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, u64), &FailureRecord)> {
        self.entries.iter()
    }

    /// Unique failing faults recorded for one target.
    pub fn unique_failures_for(&self, target: &str) -> usize {
        self.entries.keys().filter(|(t, _)| t == target).count()
    }

    /// Unique crashing faults recorded for one target.
    pub fn unique_crashes_for(&self, target: &str) -> usize {
        self.entries
            .iter()
            .filter(|((t, _), r)| t == target && r.crashed)
            .count()
    }

    /// Unique crashing faults across all targets.
    pub fn crash_count(&self) -> usize {
        self.entries.values().filter(|r| r.crashed).count()
    }
}

/// Progress of one cell inside a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellState {
    /// The cell.
    pub cell: CampaignCell,
    /// The cell's result, present once the cell has completed.
    pub outcome: Option<CellOutcome>,
}

impl CellState {
    /// Whether the cell has completed.
    pub fn done(&self) -> bool {
        self.outcome.is_some()
    }
}

/// The campaign's per-target interned trace corpus, persisted in the
/// snapshot so a resumed campaign reloads its chains' trace stores —
/// texts, measured lengths, content signatures — instead of re-decoding
/// and re-splitting the whole prefix corpus (O(load), not O(re-split)).
///
/// Content is canonical: for each target, the deduped failure traces of
/// the target's *completed prefix* of cells (the cells
/// `chain_seeds`-style walks would absorb), interned in cell order.
/// [`CampaignSnapshot::record`] keeps it current incrementally;
/// [`CampaignSnapshot::ensure_trace_index`] converges any snapshot
/// (including pre-index ones, where the field deserializes to empty) to
/// the same canonical content, which is why the incremental and
/// load-then-heal paths stay byte-identical.
#[derive(Debug, Clone, Default)]
pub struct TraceIndex {
    /// Target → interned store of the target's completed-prefix traces.
    stores: BTreeMap<String, TraceStore>,
    /// Target → number of leading chain cells already absorbed.
    /// In-memory bookkeeping only: never persisted, never compared. A
    /// freshly deserialized index re-walks the prefix once (pure dedup
    /// hash hits for an intact index) and is current again.
    absorbed: BTreeMap<String, usize>,
}

impl TraceIndex {
    /// The interned trace store for one target, if any of its chain
    /// prefix has completed.
    pub fn store_for(&self, target: &str) -> Option<&TraceStore> {
        self.stores.get(target)
    }

    /// Iterates `(target, store)` in sorted target order.
    pub fn stores(&self) -> impl Iterator<Item = (&String, &TraceStore)> {
        self.stores.iter()
    }

    /// Total decode passes across all per-target stores (see
    /// [`TraceStore::decodes`]) — the observable the resume tests pin to
    /// zero.
    pub fn decodes(&self) -> usize {
        self.stores.values().map(TraceStore::decodes).sum()
    }

    /// Absorbs the not-yet-absorbed completed prefix cells of `target`,
    /// interning their records' traces in cell order. Stops at the first
    /// pending cell, mirroring the chain-seed walk: out-of-order
    /// completions (tampered snapshots) are not absorbed, since a cell's
    /// predecessors could never have produced them.
    fn absorb_prefix(&mut self, cells: &[CellState], target: &str) {
        let mut done = self.absorbed.get(target).copied().unwrap_or(0);
        let mut fresh: Vec<&CellOutcome> = Vec::new();
        for state in cells.iter().filter(|s| s.cell.target == target).skip(done) {
            let Some(outcome) = &state.outcome else { break };
            fresh.push(outcome);
            done += 1;
        }
        if !fresh.is_empty() {
            let store = self.stores.entry(target.to_owned()).or_default();
            for outcome in fresh {
                for record in &outcome.records {
                    if let Some(trace) = &record.trace {
                        store.intern_arc(trace);
                    }
                }
            }
        }
        self.absorbed.insert(target.to_owned(), done);
    }

    /// Converges the target's store to exactly its completed-prefix
    /// content, whatever state the index starts in. The prefix walk is
    /// replayed as a *validation* pass first — an intact store confirms
    /// with hash lookups alone (no decoding, no allocation). Any
    /// divergence — stale traces left by cells hollowed out after the
    /// index was persisted, reordered entries, a pre-index snapshot with
    /// no store at all — triggers a rebuild that copies matching entries
    /// wholesale from the old store ([`TraceStore::intern_from`], zero
    /// re-decode) and measures only genuinely new traces. Returns
    /// whether the target's store changed.
    fn sync_prefix(&mut self, cells: &[CellState], target: &str) -> bool {
        let mut done = 0usize;
        let mut traces: Vec<&Arc<str>> = Vec::new();
        for state in cells.iter().filter(|s| s.cell.target == target) {
            let Some(outcome) = &state.outcome else { break };
            for record in &outcome.records {
                if let Some(trace) = &record.trace {
                    traces.push(trace);
                }
            }
            done += 1;
        }
        self.absorbed.insert(target.to_owned(), done);
        let old = self.stores.remove(target);
        // Simulate insertion order: each trace must either re-hit an
        // already-validated id (a dup) or claim the next fresh id.
        let mut next = 0usize;
        let intact = traces.iter().all(|t| match old.as_ref().and_then(|s| s.get(t)) {
            Some(id) if id < next => true,
            Some(id) if id == next => {
                next += 1;
                true
            }
            _ => false,
        }) && next == old.as_ref().map_or(0, TraceStore::len);
        // Mirror the incremental path's shape: a store entry exists
        // exactly when the target has a completed cell.
        if intact {
            let had_store = old.is_some();
            if done > 0 {
                self.stores.insert(target.to_owned(), old.unwrap_or_default());
            }
            return had_store != (done > 0);
        }
        let mut store = TraceStore::new();
        for trace in traces {
            match &old {
                Some(donor) => store.intern_from(donor, trace),
                None => store.intern_arc(trace),
            };
        }
        if done > 0 {
            self.stores.insert(target.to_owned(), store);
        }
        true
    }
}

/// Equality is over canonical content (the per-target stores); the
/// absorption watermark is in-memory bookkeeping.
impl PartialEq for TraceIndex {
    fn eq(&self, other: &Self) -> bool {
        self.stores == other.stores
    }
}

/// The index serializes as its per-target stores (sorted target order;
/// each store as its persisted entry list).
impl Serialize for TraceIndex {
    fn to_value(&self) -> Value {
        self.stores.to_value()
    }
}

impl Deserialize for TraceIndex {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(TraceIndex {
            stores: BTreeMap::from_value(v)?,
            absorbed: BTreeMap::new(),
        })
    }

    /// Snapshots written before the trace index existed simply have no
    /// field; they deserialize to an empty index and
    /// [`CampaignSnapshot::ensure_trace_index`] rebuilds it on resume.
    fn from_missing(_field: &str) -> Result<Self, serde::Error> {
        Ok(TraceIndex::default())
    }
}

/// The durable state of a campaign.
///
/// Serialization is canonical: `to_json` of a deserialized snapshot
/// reproduces the input byte-for-byte (ordered struct fields, `BTreeMap`
/// store, shortest-roundtrip float formatting), which is what makes
/// "resumed campaign == uninterrupted campaign" checkable as bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSnapshot {
    /// The matrix being run.
    pub spec: CampaignSpec,
    /// Per-cell progress, in cell order.
    pub cells: Vec<CellState>,
    /// The deduplicated corpus over all completed cells, rebuilt in cell
    /// order on every [`CampaignSnapshot::record`].
    pub store: ResultStore,
    /// The per-target interned trace corpus (texts + lengths +
    /// signatures), kept current on every [`CampaignSnapshot::record`]
    /// and persisted so resume never re-splits. Last field: absent in
    /// older snapshots, which deserialize to an empty index.
    trace_index: TraceIndex,
}

impl CampaignSnapshot {
    /// A fresh snapshot with no progress.
    pub fn new(spec: CampaignSpec) -> Self {
        let cells = spec
            .cells()
            .into_iter()
            .map(|cell| CellState {
                cell,
                outcome: None,
            })
            .collect();
        CampaignSnapshot {
            spec,
            cells,
            store: ResultStore::new(),
            trace_index: TraceIndex::default(),
        }
    }

    /// Records a finished cell, merges its records into the store, and
    /// absorbs any newly-unblocked chain prefix into the trace index.
    /// Both merges are incremental — earliest-cell-wins collisions and
    /// the per-target prefix watermark make the result independent of
    /// recording order, so this equals a full [`Self::rebuild_store`] at
    /// a fraction of the cost.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn record(&mut self, index: usize, outcome: CellOutcome) {
        let state = &mut self.cells[index];
        state.outcome = Some(outcome);
        let state = &self.cells[index];
        self.store
            .merge_cell(&state.cell.target, state.outcome.as_ref().expect("just set"));
        let target = state.cell.target.clone();
        self.trace_index.absorb_prefix(&self.cells, &target);
    }

    /// The per-target interned trace corpus. Call
    /// [`Self::ensure_trace_index`] first on a freshly loaded snapshot.
    pub fn trace_index(&self) -> &TraceIndex {
        &self.trace_index
    }

    /// Converges the trace index to its canonical content: for every
    /// target, the completed-prefix traces interned in cell order. On a
    /// snapshot whose persisted index is intact this is a pure hash-hit
    /// validation pass — zero decode passes; on divergent snapshots
    /// (pre-index, hand-rolled-back with stale index entries, damaged)
    /// it rebuilds the target's store, copying every entry the old
    /// store can donate without re-decoding. Campaign runners call this
    /// once after loading, before deriving chain seeds. Returns whether
    /// the index changed, that is, whether the persisted one was not
    /// already canonical and the snapshot needs a checkpoint to keep
    /// the heal.
    pub fn ensure_trace_index(&mut self) -> bool {
        let mut healed = false;
        for target in &self.spec.targets {
            healed |= self.trace_index.sync_prefix(&self.cells, target);
        }
        healed
    }

    /// Rebuilds the store and trace index from scratch over all
    /// completed cells. The incremental merges in [`Self::record`] keep
    /// both correct on their own; this exists for callers that mutate
    /// cell states directly (tests rolling a snapshot back to
    /// "interrupted").
    pub fn rebuild_store(&mut self) {
        let mut store = ResultStore::new();
        for state in &self.cells {
            if let Some(outcome) = state.outcome.as_ref() {
                store.merge_cell(&state.cell.target, outcome);
            }
        }
        self.store = store;
        self.trace_index = TraceIndex::default();
        self.ensure_trace_index();
    }

    /// Checks a deserialized snapshot is internally consistent: its cell
    /// list must be exactly the spec's matrix, so a hand-edited or
    /// truncated snapshot fails here instead of deep inside a cell run.
    /// Callers should additionally [`CampaignSpec::validate`] the spec
    /// against their target registry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn check_consistent(&self) -> Result<(), String> {
        let expected = self.spec.cells();
        if self.cells.len() != expected.len() {
            return Err(format!(
                "snapshot has {} cells but the spec matrix has {}",
                self.cells.len(),
                expected.len()
            ));
        }
        for (state, exp) in self.cells.iter().zip(&expected) {
            if state.cell != *exp {
                return Err(format!(
                    "snapshot cell {} does not match the spec matrix",
                    exp.index
                ));
            }
        }
        Ok(())
    }

    /// Checks the snapshot is resumable under cross-cell redundancy
    /// chaining: within each target, the completed cells must form a
    /// prefix of that target's cells in cell order. Same-target cells
    /// run serialized — cell *k* seeds its redundancy feedback from the
    /// traces of completed same-target cells `0..k` — so a legitimately
    /// interrupted run can never leave a later same-target cell done
    /// while an earlier one is pending. A snapshot that does (hand-edited
    /// or foreign) cannot replay the chain identically and is rejected.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-order completion.
    pub fn check_chain_consistent(&self) -> Result<(), String> {
        let mut first_pending: BTreeMap<&str, usize> = BTreeMap::new();
        for state in &self.cells {
            let target = state.cell.target.as_str();
            if !state.done() {
                first_pending.entry(target).or_insert(state.cell.index);
            } else if let Some(&pending) = first_pending.get(target) {
                return Err(format!(
                    "cell {} is complete but earlier same-target cell {} is not — \
                     the chained redundancy feedback cannot be replayed",
                    state.cell.index, pending
                ));
            }
        }
        Ok(())
    }

    /// The cells still to run.
    pub fn pending(&self) -> Vec<CampaignCell> {
        self.cells
            .iter()
            .filter(|s| !s.done())
            .map(|s| s.cell.clone())
            .collect()
    }

    /// Number of completed cells.
    pub fn done_count(&self) -> usize {
        self.cells.iter().filter(|s| s.done()).count()
    }

    /// Whether every cell has completed.
    pub fn is_complete(&self) -> bool {
        self.cells.iter().all(|s| s.done())
    }

    /// Canonical pretty-JSON serialization.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parses a snapshot back from [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse or shape-mismatch error.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(text)
    }
}

/// Per-cell row of the final report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Cell index.
    pub index: usize,
    /// Target name.
    pub target: String,
    /// Strategy name.
    pub strategy: String,
    /// Session seed.
    pub seed: u64,
    /// Tests executed.
    pub tests: usize,
    /// Failing tests.
    pub failures: usize,
    /// Crashing tests.
    pub crashes: usize,
    /// Faults this cell contributed first to the corpus.
    pub new_failures: usize,
}

/// Per-target row of the final report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetSummary {
    /// Target name.
    pub target: String,
    /// Unique failing faults in the corpus.
    pub unique_failures: usize,
    /// Unique crashing faults in the corpus.
    pub unique_crashes: usize,
}

/// The summary a completed (or partially completed) campaign reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Cells completed / total.
    pub cells_done: usize,
    /// Total cells in the matrix.
    pub cells_total: usize,
    /// Tests executed across completed cells.
    pub tests_executed: usize,
    /// Unique failing faults in the corpus.
    pub unique_failures: usize,
    /// Unique crashing faults in the corpus.
    pub unique_crashes: usize,
    /// Per-cell rows, in cell order.
    pub cells: Vec<CellSummary>,
    /// Per-target rows, in spec order.
    pub targets: Vec<TargetSummary>,
}

impl CampaignReport {
    /// Builds the report for a snapshot.
    pub fn from_snapshot(snap: &CampaignSnapshot) -> Self {
        let mut contributed = vec![0usize; snap.cells.len()];
        for (_, r) in snap.store.iter() {
            if let Some(slot) = contributed.get_mut(r.cell) {
                *slot += 1;
            }
        }
        let cells: Vec<CellSummary> = snap
            .cells
            .iter()
            .filter_map(|s| {
                let o = s.outcome.as_ref()?;
                Some(CellSummary {
                    index: s.cell.index,
                    target: s.cell.target.clone(),
                    strategy: s.cell.strategy.clone(),
                    seed: s.cell.seed,
                    tests: o.tests,
                    failures: o.failures,
                    crashes: o.crashes,
                    new_failures: contributed[s.cell.index],
                })
            })
            .collect();
        let targets = snap
            .spec
            .targets
            .iter()
            .map(|t| TargetSummary {
                target: t.clone(),
                unique_failures: snap.store.unique_failures_for(t),
                unique_crashes: snap.store.unique_crashes_for(t),
            })
            .collect();
        CampaignReport {
            cells_done: snap.done_count(),
            cells_total: snap.cells.len(),
            tests_executed: cells.iter().map(|c| c.tests).sum(),
            unique_failures: snap.store.len(),
            unique_crashes: snap.store.crash_count(),
            cells,
            targets,
        }
    }

    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// A human-readable summary table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign: {}/{} cells, {} tests, {} unique failures ({} crashes)",
            self.cells_done,
            self.cells_total,
            self.tests_executed,
            self.unique_failures,
            self.unique_crashes
        );
        for t in &self.targets {
            let _ = writeln!(
                out,
                "  target {:<14} {} unique failures, {} unique crashes",
                t.target, t.unique_failures, t.unique_crashes
            );
        }
        for c in &self.cells {
            let _ = writeln!(
                out,
                "  cell {:>3} {:<14} {:<10} seed={:<4} {} tests, {} failures ({} new), {} crashes",
                c.index, c.target, c.strategy, c.seed, c.tests, c.failures, c.new_failures, c.crashes
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{Evaluation, ExecutedTest};
    use afex_space::{Axis, FaultSpace};

    fn spec() -> CampaignSpec {
        CampaignSpec {
            targets: vec!["alpha".into(), "beta".into()],
            strategies: vec!["fitness".into(), "random".into()],
            seeds: 2,
            base_seed: 40,
            iterations: 10,
            stop: StopPolicy::Iterations,
            cell_workers: CellWorkers::default(),
            timeout: TestTimeout::default(),
            metric: None,
        }
    }

    fn record(code: u64, cell: usize, crashed: bool) -> FailureRecord {
        FailureRecord {
            code,
            point: Point::new(vec![code as usize]),
            impact: 1.5,
            crashed,
            hung: false,
            trace: Some(format!("t{code}").into()),
            cell,
        }
    }

    fn outcome(codes: &[u64], cell: usize) -> CellOutcome {
        CellOutcome {
            tests: 10,
            failures: codes.len(),
            crashes: 0,
            hangs: 0,
            records: codes.iter().map(|&c| record(c, cell, false)).collect(),
        }
    }

    #[test]
    fn cells_enumerate_target_major() {
        let cells = spec().cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].target, "alpha");
        assert_eq!(cells[0].strategy, "fitness");
        assert_eq!(cells[0].seed, 40);
        assert_eq!(cells[1].seed, 41);
        assert_eq!(cells[2].strategy, "random");
        assert_eq!(cells[4].target, "beta");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn validate_catches_bad_specs() {
        let ok = spec();
        assert!(ok.validate(|_| true).is_ok());
        assert!(ok.validate(|t| t == "alpha").is_err());
        let mut bad = spec();
        bad.strategies.push("quantum".into());
        assert!(bad.validate(|_| true).unwrap_err().contains("quantum"));
        bad = spec();
        bad.seeds = 0;
        assert!(bad.validate(|_| true).is_err());
        bad = spec();
        bad.targets.push("alpha".into());
        assert!(bad.validate(|_| true).unwrap_err().contains("duplicate target"));
        bad = spec();
        bad.strategies.push("random".into());
        assert!(bad
            .validate(|_| true)
            .unwrap_err()
            .contains("duplicate strategy"));
        bad = spec();
        bad.metric = Some("vibes".into());
        assert!(bad.validate(|_| true).unwrap_err().contains("vibes"));
        bad.metric = Some("crash".into());
        assert!(bad.validate(|_| true).is_ok());
    }

    #[test]
    fn validate_catches_seed_overflow() {
        // `cells()` computes `base_seed + k`; near u64::MAX that addition
        // would panic in debug builds, so the spec is rejected up front.
        let mut bad = spec();
        bad.base_seed = u64::MAX;
        assert!(bad.validate(|_| true).unwrap_err().contains("overflows"));
        bad.base_seed = u64::MAX - 1; // Seeds 2: MAX-1 and MAX both fit.
        assert!(bad.validate(|_| true).is_ok());
        assert_eq!(bad.cells().last().unwrap().seed, u64::MAX);
        bad.seeds = 3;
        assert!(bad.validate(|_| true).is_err());
    }

    #[test]
    fn validate_catches_zero_count_stop_policies() {
        let mut bad = spec();
        bad.stop = StopPolicy::Crashes(0);
        assert!(bad.validate(|_| true).unwrap_err().contains("positive"));
        bad.stop = StopPolicy::Crashes(1);
        assert!(bad.validate(|_| true).is_ok());
    }

    #[test]
    fn validate_catches_zero_cell_workers() {
        // `ParallelSession::new` / `Engine::new` assert on a zero window;
        // a bad spec must be rejected up front instead.
        let mut bad = spec();
        bad.cell_workers = CellWorkers(0);
        assert!(bad.validate(|_| true).unwrap_err().contains("cell worker"));
        bad.cell_workers = CellWorkers(4);
        assert!(bad.validate(|_| true).is_ok());
    }

    #[test]
    fn pre_cell_worker_snapshots_still_parse() {
        // Snapshots written before intra-cell fan-out existed have no
        // `cell_workers` field; they must keep resuming sequentially.
        let mut snap = CampaignSnapshot::new(spec());
        snap.record(1, outcome(&[3], 1));
        let json = snap.to_json();
        assert!(json.contains("\"cell_workers\": 1"));
        let old_style: String = json
            .lines()
            .filter(|l| !l.contains("\"cell_workers\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back =
            CampaignSnapshot::from_json(&old_style).expect("pre-cell-worker snapshot parses");
        assert_eq!(back, snap);
        assert_eq!(back.spec.cell_workers, CellWorkers(1));
    }

    #[test]
    fn validate_catches_zero_timeout() {
        // The watchdog arms with this budget; zero would kill every test
        // instantly, so a bad spec is rejected up front.
        let mut bad = spec();
        bad.timeout = TestTimeout(std::time::Duration::ZERO);
        assert!(bad.validate(|_| true).unwrap_err().contains("timeout"));
        bad.timeout = TestTimeout::parse("5s").unwrap();
        assert!(bad.validate(|_| true).is_ok());
    }

    #[test]
    fn timeout_parses_and_displays_roundtrip() {
        for (text, ms) in [("10s", 10_000), ("1500ms", 1500), ("3", 3000), ("1000ms", 1000)] {
            let t = TestTimeout::parse(text).unwrap();
            assert_eq!(t.0, std::time::Duration::from_millis(ms), "{text}");
        }
        // Canonical rendering: whole seconds as `Ns`, otherwise `Nms`.
        assert_eq!(TestTimeout::parse("10s").unwrap().to_string(), "10s");
        assert_eq!(TestTimeout::parse("1500ms").unwrap().to_string(), "1500ms");
        assert_eq!(TestTimeout::parse("2000ms").unwrap().to_string(), "2s");
        assert_eq!(TestTimeout::parse("7").unwrap().to_string(), "7s");
        for bad in ["", "0", "0s", "0ms", "-1", "1.5s", "fast", "s", "ms"] {
            assert!(TestTimeout::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn pre_timeout_snapshots_still_parse() {
        // Snapshots written before real-process targets existed have no
        // `timeout` field; they must keep resuming under the default
        // watchdog budget.
        let mut snap = CampaignSnapshot::new(spec());
        snap.record(1, outcome(&[3], 1));
        let json = snap.to_json();
        assert!(json.contains("\"timeout\": \"10s\""));
        let old_style: String = json
            .lines()
            .filter(|l| !l.contains("\"timeout\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back = CampaignSnapshot::from_json(&old_style).expect("pre-timeout snapshot parses");
        assert_eq!(back, snap);
        assert_eq!(back.spec.timeout, TestTimeout::default());
    }

    #[test]
    fn stop_policy_parses_and_displays_roundtrip() {
        for (text, policy) in [
            ("iterations", StopPolicy::Iterations),
            ("failures:3", StopPolicy::Failures(3)),
            ("crashes:1", StopPolicy::Crashes(1)),
        ] {
            assert_eq!(StopPolicy::parse(text).unwrap(), policy, "{text}");
            assert_eq!(policy.to_string(), text);
        }
        for bad in ["", "nope", "failures", "failures:", "failures:x", "failures:0", "crashes:-1", "iterations:5"] {
            assert!(StopPolicy::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn stop_policy_maps_onto_session_stop_conditions() {
        assert_eq!(
            StopPolicy::Iterations.to_condition(40),
            StopCondition::Iterations(40)
        );
        assert_eq!(
            StopPolicy::Failures(3).to_condition(40),
            StopCondition::Failures {
                count: 3,
                max_iterations: 40
            }
        );
        assert_eq!(
            StopPolicy::Crashes(2).to_condition(40),
            StopCondition::Crashes {
                count: 2,
                max_iterations: 40
            }
        );
    }

    #[test]
    fn pre_policy_snapshots_still_parse() {
        // Snapshots written before stop policies existed have no `stop`
        // field; they must keep resuming under the iteration-cap policy.
        let mut snap = CampaignSnapshot::new(spec());
        snap.record(1, outcome(&[3], 1));
        let json = snap.to_json();
        assert!(json.contains("\"stop\": \"iterations\""));
        let old_style: String = json
            .lines()
            .filter(|l| !l.contains("\"stop\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back = CampaignSnapshot::from_json(&old_style).expect("pre-policy snapshot parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn export_records_roundtrip_as_jsonl() {
        let rec = ExportRecord {
            target: "alpha".into(),
            record: record(7, 2, true),
        };
        let line = rec.to_jsonl();
        assert!(!line.contains('\n'), "JSONL lines must be single-line");
        assert_eq!(ExportRecord::from_jsonl(&line).unwrap(), rec);
        assert!(ExportRecord::from_jsonl("{\"target\":3}").is_err());
    }

    #[test]
    fn chain_consistency_requires_per_target_prefixes() {
        // Matrix order: cells 0-3 are alpha, 4-7 beta.
        let mut snap = CampaignSnapshot::new(spec());
        assert!(snap.check_chain_consistent().is_ok());
        snap.record(0, outcome(&[1], 0));
        snap.record(4, outcome(&[2], 4));
        assert!(snap.check_chain_consistent().is_ok(), "per-target prefixes are fine");
        // Beta finishing cell 6 with cell 5 pending breaks the chain...
        snap.record(6, outcome(&[3], 6));
        let err = snap.check_chain_consistent().unwrap_err();
        assert!(err.contains("cell 6"), "{err}");
        assert!(err.contains("cell 5"), "{err}");
        // ...and completing the gap repairs it.
        snap.record(5, outcome(&[4], 5));
        assert!(snap.check_chain_consistent().is_ok());
    }

    #[test]
    fn strategy_names_cover_all_four() {
        for name in ["fitness", "random", "exhaustive", "genetic"] {
            assert!(strategy_from_name(name).is_some(), "{name}");
        }
        assert!(strategy_from_name("nosuch").is_none());
    }

    #[test]
    fn metric_names_resolve() {
        assert_eq!(
            metric_from_name("crash"),
            Some(crate::impact::ImpactMetric::crash_hunter())
        );
        assert!(metric_from_name("default").is_some());
        assert!(metric_from_name("paper").is_some());
        assert!(metric_from_name("nosuch").is_none());
    }

    #[test]
    fn store_dedups_earliest_cell_wins() {
        let mut store = ResultStore::new();
        assert!(store.insert_earliest("a", record(7, 2, false)));
        // A later cell never displaces an earlier one...
        assert!(!store.insert_earliest("a", record(7, 3, true)));
        assert_eq!(store.get("a", 7).unwrap().cell, 2);
        // ...but an earlier cell arriving late takes the credit over.
        assert!(!store.insert_earliest("a", record(7, 0, false)));
        assert_eq!(store.get("a", 7).unwrap().cell, 0);
        assert!(store.insert_earliest("b", record(7, 1, true)));
        assert_eq!(store.len(), 2);
        assert_eq!(store.unique_failures_for("a"), 1);
        assert_eq!(store.unique_crashes_for("a"), 0);
        assert_eq!(store.unique_crashes_for("b"), 1);
        assert_eq!(store.crash_count(), 1);
    }

    #[test]
    fn rebuild_store_is_completion_order_independent() {
        // Cells 0 and 5 both find fault 9 on "alpha". Whichever finishes
        // first on the wall clock, the corpus credits cell 0.
        let mut early = CampaignSnapshot::new(spec());
        early.record(0, outcome(&[9, 4], 0));
        early.record(5, outcome(&[9], 5));
        let mut late = CampaignSnapshot::new(spec());
        late.record(5, outcome(&[9], 5));
        late.record(0, outcome(&[9, 4], 0));
        assert_eq!(early, late);
        // Cell 5 runs target "beta" per the matrix... index 5 = beta ×
        // fitness × seed 41; fault 9 on beta is distinct from alpha's.
        assert_eq!(early.store.get("alpha", 9).unwrap().cell, 0);
        assert_eq!(early.store.get("beta", 9).unwrap().cell, 5);
    }

    #[test]
    fn trace_index_absorbs_completed_prefixes_in_cell_order() {
        // Alpha cells are 0-3, beta 4-7. Completing beta cell 6 while 5
        // is pending must not absorb 6's traces (chain-seed semantics).
        let mut snap = CampaignSnapshot::new(spec());
        snap.record(0, outcome(&[1, 2], 0));
        snap.record(4, outcome(&[7], 4));
        snap.record(6, outcome(&[8], 6));
        let alpha = snap.trace_index().store_for("alpha").expect("absorbed");
        let texts: Vec<&str> = alpha.texts().map(|t| t.as_ref()).collect();
        assert_eq!(texts, vec!["t1", "t2"]);
        let beta = snap.trace_index().store_for("beta").expect("absorbed");
        assert_eq!(beta.len(), 1, "cell 6 is out of order, only cell 4 absorbs");
        // Completing the gap absorbs both pending cells, in cell order.
        snap.record(5, outcome(&[9], 5));
        let beta = snap.trace_index().store_for("beta").unwrap();
        let texts: Vec<&str> = beta.texts().map(|t| t.as_ref()).collect();
        assert_eq!(texts, vec!["t7", "t9", "t8"]);
        // The incremental index equals a from-scratch rebuild.
        let incremental = snap.trace_index().clone();
        snap.rebuild_store();
        assert_eq!(*snap.trace_index(), incremental);
    }

    #[test]
    fn trace_index_reloads_decode_free_and_heals_pre_index_snapshots() {
        let mut snap = CampaignSnapshot::new(spec());
        snap.record(0, outcome(&[1, 2, 3], 0));
        snap.record(4, outcome(&[5], 4));
        let json = snap.to_json();
        assert!(json.contains("\"trace_index\""));

        // Reload: the persisted index parses back byte-identically and
        // converging it is pure dedup — zero decode passes.
        let mut back = CampaignSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        assert!(!back.ensure_trace_index(), "an intact index needs no heal");
        assert_eq!(back.trace_index().decodes(), 0, "intact index must not decode");
        assert_eq!(*back.trace_index(), *snap.trace_index());
        assert_eq!(back.to_json(), json);

        // A pre-index snapshot (the field stripped) still parses, and
        // `ensure_trace_index` heals it to the same canonical content.
        let cut = json.find(",\n  \"trace_index\"").expect("last field");
        let old_style = format!("{}\n}}", &json[..cut]);
        let mut healed = CampaignSnapshot::from_json(&old_style).expect("pre-index parses");
        assert!(healed.trace_index().stores().next().is_none());
        assert!(healed.ensure_trace_index(), "a pre-index snapshot heals");
        assert_eq!(healed, snap);
        assert_eq!(healed.to_json(), json);
    }

    #[test]
    fn trace_index_rebuilds_when_cells_are_hollowed_under_it() {
        // A kill-rollback script (CI, or a user hand-editing the JSON)
        // hollows completed cells but leaves the persisted index at its
        // full-run state — a stale superset. `ensure_trace_index` must
        // detect the divergence and converge to the shortened prefix,
        // donating surviving entries from the stale store (no decode).
        let mut snap = CampaignSnapshot::new(spec());
        snap.record(0, outcome(&[1, 2], 0));
        snap.record(1, outcome(&[3], 1));
        snap.record(4, outcome(&[7], 4));
        let mut rolled = CampaignSnapshot::from_json(&snap.to_json()).unwrap();
        rolled.cells[1].outcome = None;
        assert!(rolled.ensure_trace_index(), "a stale index is healed");
        assert_eq!(rolled.trace_index().decodes(), 0, "rebuild donates, never decodes");
        let alpha = rolled.trace_index().store_for("alpha").expect("prefix kept");
        let texts: Vec<&str> = alpha.texts().map(|t| t.as_ref()).collect();
        assert_eq!(texts, vec!["t1", "t2"], "stale t3 must be dropped");
        let mut fresh = CampaignSnapshot::new(spec());
        fresh.record(0, outcome(&[1, 2], 0));
        fresh.record(4, outcome(&[7], 4));
        assert_eq!(*rolled.trace_index(), *fresh.trace_index());
    }

    #[test]
    fn snapshot_json_roundtrips_to_identical_bytes() {
        let mut snap = CampaignSnapshot::new(spec());
        snap.record(2, outcome(&[1, 2, 3], 2));
        snap.record(7, outcome(&[2], 7));
        let json = snap.to_json();
        let back = CampaignSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn incremental_record_equals_full_rebuild() {
        let mut snap = CampaignSnapshot::new(spec());
        snap.record(5, outcome(&[9, 2], 5));
        snap.record(0, outcome(&[9, 4], 0));
        snap.record(7, outcome(&[4], 7));
        let incremental = snap.store.clone();
        snap.rebuild_store();
        assert_eq!(snap.store, incremental);
    }

    #[test]
    fn check_consistent_rejects_tampered_snapshots() {
        let mut snap = CampaignSnapshot::new(spec());
        snap.record(1, outcome(&[3], 1));
        assert!(snap.check_consistent().is_ok());
        let mut truncated = snap.clone();
        truncated.cells.pop();
        assert!(truncated.check_consistent().unwrap_err().contains("cells"));
        let mut renamed = snap.clone();
        renamed.cells[0].cell.target = "gamma".into();
        assert!(renamed.check_consistent().is_err());
        let mut reseeded = snap.clone();
        reseeded.cells[1].cell.seed = 999;
        assert!(reseeded.check_consistent().is_err());
    }

    #[test]
    fn pending_and_completion_track_cells() {
        let mut snap = CampaignSnapshot::new(spec());
        assert_eq!(snap.pending().len(), 8);
        assert!(!snap.is_complete());
        for i in 0..8 {
            snap.record(i, outcome(&[], i));
        }
        assert!(snap.is_complete());
        assert_eq!(snap.done_count(), 8);
        assert!(snap.pending().is_empty());
    }

    #[test]
    fn outcome_from_session_packs_failures() {
        let space =
            FaultSpace::new(vec![Axis::int_range("x", 0, 4), Axis::int_range("y", 0, 4)]).unwrap();
        let codec = PointCodec::for_space(&space).unwrap();
        let result = SessionResult::new(vec![
            ExecutedTest {
                point: Point::new(vec![1, 2]),
                evaluation: Evaluation::from_impact(3.0),
                iteration: 0,
            },
            ExecutedTest {
                point: Point::new(vec![0, 0]),
                evaluation: Evaluation::from_impact(0.0),
                iteration: 1,
            },
        ]);
        let o = CellOutcome::from_session(4, &result, &codec);
        assert_eq!(o.tests, 2);
        assert_eq!(o.failures, 1);
        assert_eq!(o.records.len(), 1);
        assert_eq!(o.records[0].code, 7); // 1*5 + 2.
        assert_eq!(o.records[0].cell, 4);
    }

    #[test]
    fn report_counts_contributions() {
        let mut snap = CampaignSnapshot::new(spec());
        snap.record(0, outcome(&[1, 2], 0));
        snap.record(2, outcome(&[2, 3], 2)); // Fault 2 already credited to cell 0.
        let report = CampaignReport::from_snapshot(&snap);
        assert_eq!(report.cells_done, 2);
        assert_eq!(report.cells_total, 8);
        assert_eq!(report.unique_failures, 3);
        assert_eq!(report.tests_executed, 20);
        let row0 = report.cells.iter().find(|c| c.index == 0).unwrap();
        let row2 = report.cells.iter().find(|c| c.index == 2).unwrap();
        assert_eq!(row0.new_failures, 2);
        assert_eq!(row2.new_failures, 1);
        assert!(report.summary().contains("3 unique failures"));
        let back: CampaignReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }
}

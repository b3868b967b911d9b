//! Driving campaigns to completion with durable checkpoints.
//!
//! The execution half of the library layer: [`run_pending`] runs a
//! snapshot's pending cells on the campaign pool, [`write_snapshot`]
//! checkpoints atomically, [`CorpusExporter`] mirrors the deduped corpus
//! to an append-only JSONL file, and [`run_campaign`] ties the three
//! together — create the output directory, sweep stale temp files, run,
//! checkpoint every cell, write the summary. [`run_hunt`] is the
//! stop-aware single-session sibling behind `afex-cli hunt`. Everything
//! returns typed errors ([`RunError`]) whose `Display` renderings are
//! the messages the CLI has always printed; nothing here prints or
//! exits.

use super::{chain_seeds_cached_into, run_cell, run_target, TraceSeeds};
use crate::core::campaign::{
    CampaignCell, CampaignReport, CampaignSnapshot, CampaignSpec, CellOutcome, ExportRecord,
    TestTimeout,
};
use crate::core::{
    ExplorerConfig, ImpactMetric, SearchStrategy, SessionResult, StopCondition, TraceStore,
};
use afex_cluster::{CellChain, CellResult, MultiplexPool};
use std::collections::HashSet;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A cell as the campaign pool runs it: the owning campaign's spec rides
/// along because the pool's run function is shared by every campaign.
pub(crate) type PoolCell = (Arc<CampaignSpec>, CampaignCell);

/// A completed cell: its index in the snapshot plus its outcome.
pub(crate) type CellDone = (usize, CellOutcome);

/// Starts a `workers`-wide campaign pool: each cell runs through
/// [`run_cell`] against its campaign's spec, and its failure traces fold
/// into its chain's seeds before the chain's next cell.
/// [`run_pending`] submits one campaign to it; the campaign service
/// submits every campaign it runs.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub(crate) fn campaign_pool(workers: usize) -> MultiplexPool<TraceSeeds, PoolCell, CellDone> {
    MultiplexPool::new(
        workers,
        |(spec, cell): &PoolCell, seeds: &TraceSeeds| (cell.index, run_cell(cell, spec, seeds)),
        |seeds, _cell, (_, outcome): &CellDone| seeds.absorb(outcome),
    )
}

/// Groups the snapshot's pending cells into one [`CellChain`] per
/// target, in spec order: same-target cells run serialized in cell
/// order, seeding each cell's redundancy feedback from its predecessors'
/// deduped traces, while different targets fan out across the pool.
/// Each chain starts from `preseed(target)` (the service's frozen
/// cross-campaign corpus; empty for a one-shot campaign) extended with
/// the snapshot's completed prefix ([`chain_seeds_cached_into`]).
///
/// Converges the persisted trace index first — pure dedup on an intact
/// snapshot, a one-time heal on pre-index ones — so every chain's seed
/// store comes from it by entry copy: resume is O(load), never
/// O(re-split).
pub(crate) fn pending_chains(
    snap: &mut CampaignSnapshot,
    preseed: impl Fn(&str) -> TraceSeeds,
) -> Vec<CellChain<TraceSeeds, PoolCell>> {
    snap.ensure_trace_index();
    let spec = Arc::new(snap.spec.clone());
    let pending = snap.pending();
    spec.targets
        .iter()
        .filter_map(|target| {
            let cells: Vec<PoolCell> = pending
                .iter()
                .filter(|c| &c.target == target)
                .map(|c| (Arc::clone(&spec), c.clone()))
                .collect();
            if cells.is_empty() {
                return None;
            }
            Some(CellChain {
                state: chain_seeds_cached_into(preseed(target), snap, target),
                cells,
            })
        })
        .collect()
}

/// Describes a quarantined cell: which cell panicked, why, and how many
/// queued cells of its chain were abandoned. The daemon records it in
/// the campaign's `failed.txt`; [`run_pending`] panics with it.
pub(crate) fn quarantine_detail(cell: &CampaignCell, reason: &str, abandoned: usize) -> String {
    format!(
        "cell {} ({}/{} seed {}) panicked: {reason} ({abandoned} queued cells abandoned)",
        cell.index, cell.target, cell.strategy, cell.seed
    )
}

/// Runs every pending cell of `snap` on a `workers`-wide campaign pool
/// ([`campaign_pool`]), recording each outcome into the snapshot as it
/// completes. The cells run as one stream of per-target chains
/// ([`pending_chains`], with no preseed). The stop policy and metric
/// come from the snapshot's own spec, so a resumed campaign scores and
/// stops exactly like the original run. `on_cell` runs on the calling
/// thread after every recorded cell (wall-clock completion order), so
/// the checkpoint the CLI writes there overlaps the next cell instead
/// of delaying it.
///
/// # Panics
///
/// Panics if `workers == 0`. A cell that panics quarantines its own
/// chain: every other chain runs to completion and reaches `on_cell`,
/// and then this function panics with the cell and the reason.
pub fn run_pending<G>(snap: &mut CampaignSnapshot, workers: usize, mut on_cell: G)
where
    G: FnMut(&CampaignSnapshot),
{
    if snap.pending().is_empty() {
        return;
    }
    let chains = pending_chains(snap, |_| TraceSeeds::new());
    let pool = campaign_pool(workers);
    let (tx, rx) = std::sync::mpsc::channel();
    // The sender lives in the stream's callback, which the pool drops
    // once the stream's last cell has landed: that ends the loop below.
    // A send fails only while this thread unwinds from an `on_cell`
    // panic, when the result has nowhere to go.
    pool.submit(chains, move |res| {
        let _ = tx.send(res);
    });
    let mut quarantined = None;
    for res in rx {
        match res {
            CellResult::Done((index, outcome)) => {
                snap.record(index, outcome);
                on_cell(snap);
            }
            CellResult::Quarantined {
                cell: (_, cell),
                reason,
                abandoned,
            } => {
                quarantined.get_or_insert_with(|| quarantine_detail(&cell, &reason, abandoned));
            }
        }
    }
    if let Some(detail) = quarantined {
        panic!("{detail}");
    }
}

/// Writes the snapshot atomically (temp file + rename) so an interrupt
/// mid-write never corrupts the resumable state. The temp file is the
/// snapshot path plus a `.tmp` *suffix* — `with_extension` would make
/// outputs differing only in extension collide on one temp file. On
/// failure the temp file is removed again: a write that did not land
/// must not leave a stale `.tmp` behind to confuse the next resume
/// (crashes mid-write still can, which is what [`sweep_stale_tmp`]
/// handles on open).
///
/// # Errors
///
/// Returns the I/O error of the write or rename; the campaign driver
/// turns it into a nonzero exit (a run whose checkpoint failed is not
/// resumable, and exiting 0 would hide that).
pub fn write_snapshot(snap: &CampaignSnapshot, path: &Path) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let body = snap.to_json() + "\n";
    let result = std::fs::write(&tmp, body).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Writes the snapshot atomically like [`write_snapshot`], additionally
/// preserving the previous on-disk snapshot as `<path>.bak` before the
/// rename lands. The daemon checkpoints through this so that a snapshot
/// corrupted *after* it landed (disk fault, operator accident) still
/// leaves the previous good checkpoint to fall back to on restart —
/// resuming from an older checkpoint is safe because cell replay is
/// deterministic and converges to byte-identical final state.
///
/// Crash windows: a crash between the backup rename and the final rename
/// leaves `<path>` missing but `<path>.bak` complete (replay restores
/// it); a crash before the backup rename leaves both untouched. The
/// `.bak` file is never swept by [`sweep_stale_tmp`] (it only removes
/// `*.tmp`).
///
/// # Errors
///
/// Returns the I/O error of the write or either rename.
pub fn write_snapshot_with_backup(snap: &CampaignSnapshot, path: &Path) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut bak = path.as_os_str().to_owned();
    bak.push(".bak");
    let bak = PathBuf::from(bak);
    let body = snap.to_json() + "\n";
    let result = std::fs::write(&tmp, body)
        .and_then(|()| {
            if path.exists() {
                std::fs::rename(path, &bak)
            } else {
                Ok(())
            }
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Whether an I/O error is worth retrying: the transient errno classes
/// (EINTR, EAGAIN) plus ENOSPC — disk-full commonly clears when a
/// co-located log rotates or a neighbor frees space, and a checkpoint
/// that rides out the window beats one that gives up.
pub fn is_transient_io(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
    ) || matches!(e.raw_os_error(), Some(4 | 11 | 28)) // EINTR, EAGAIN, ENOSPC
}

/// Runs `op` up to `attempts` times, sleeping with exponential backoff
/// (2 ms, 4 ms, 8 ms, …) between tries, retrying only transient errors
/// ([`is_transient_io`]). `on_retry` observes each error that triggers a
/// retry — the service counts them for its health surface. Non-transient
/// errors and the final attempt's error return immediately.
///
/// # Errors
///
/// Returns the last error once attempts are exhausted, or the first
/// non-transient error.
pub fn retry_io<T>(
    attempts: u32,
    mut on_retry: impl FnMut(&std::io::Error),
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut delay = std::time::Duration::from_millis(2);
    let mut tries = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                tries += 1;
                if tries >= attempts.max(1) || !is_transient_io(&e) {
                    return Err(e);
                }
                on_retry(&e);
                std::thread::sleep(delay);
                delay *= 2;
            }
        }
    }
}

/// Removes orphaned `.tmp` files from a campaign directory — the debris
/// of a crash between a temp-file write and its rename. Called when a
/// campaign directory is opened or resumed (CLI and daemon alike); the
/// snapshot itself is never touched, since the atomic rename guarantees
/// it is either the old or the new complete state. Returns how many
/// files were swept; a missing directory sweeps nothing.
///
/// # Errors
///
/// Returns the I/O error of the directory listing or a removal.
pub fn sweep_stale_tmp(dir: &Path) -> std::io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut swept = 0;
    for entry in entries {
        let entry = entry?;
        let is_tmp = entry
            .file_name()
            .to_str()
            .is_some_and(|name| name.ends_with(".tmp"));
        if is_tmp && entry.file_type()?.is_file() {
            std::fs::remove_file(entry.path())?;
            swept += 1;
        }
    }
    Ok(swept)
}

/// Why a campaign run failed around the cells (the cells themselves are
/// infallible-by-construction: a validated spec either runs or panics on
/// a caller bug). The `Display` renderings are the CLI's long-standing
/// messages; every variant is an exit-1 class failure — the campaign
/// state on disk is whatever the last successful checkpoint left.
#[derive(Debug)]
pub enum RunError {
    /// The output directory could not be created.
    CreateDir {
        /// The directory as the caller spelled it.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The corpus-export file could not be opened (or its existing
    /// contents failed to parse).
    OpenExport {
        /// The export path as the caller spelled it.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A snapshot checkpoint did not land on disk.
    Snapshot {
        /// The snapshot path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A corpus-export append failed.
    Export(std::io::Error),
    /// The final summary file could not be written.
    Summary {
        /// The summary path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::CreateDir { path, source } => {
                write!(f, "cannot create {}: {source}", path.display())
            }
            RunError::OpenExport { path, source } => {
                write!(f, "cannot open corpus export {}: {source}", path.display())
            }
            RunError::Snapshot { path, source } => {
                write!(f, "cannot write snapshot {}: {source}", path.display())
            }
            RunError::Export(source) => write!(f, "cannot append corpus export: {source}"),
            RunError::Summary { path, source } => {
                write!(f, "cannot write summary {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::CreateDir { source, .. }
            | RunError::OpenExport { source, .. }
            | RunError::Snapshot { source, .. }
            | RunError::Export(source)
            | RunError::Summary { source, .. } => Some(source),
        }
    }
}

/// Runs a campaign to completion in `out_dir`, checkpointing after every
/// cell: the one driver behind `afex-cli campaign`, the daemon's
/// single-campaign fallback, and the integration tests.
///
/// Creates the directory, sweeps stale `.tmp` debris, opens the corpus
/// export (`resume` appends-and-reconciles, fresh truncates — inheriting
/// records from an unrelated earlier run would both pollute the file and
/// suppress this campaign's colliding records), drives the pending cells
/// with a checkpoint per completion, writes a final checkpoint (which
/// also covers the nothing-pending case and reconciles a resumed export
/// with the resumed snapshot's store), and lands `summary.json`. The
/// snapshot lives at `out_dir/campaign.json`.
///
/// # Errors
///
/// Returns the first [`RunError`]. A checkpoint failure does not abort
/// in-flight cells (cells are never preempted), but no further
/// checkpoints are attempted and the error is returned once the pool
/// drains — the on-disk state remains the last successful checkpoint.
///
/// # Panics
///
/// Panics if `workers == 0`, or after the pool drains if a cell
/// panicked ([`run_pending`]); the snapshot on disk then holds every
/// cell that completed.
pub fn run_campaign(
    snap: &mut CampaignSnapshot,
    workers: usize,
    out_dir: &Path,
    export: Option<&Path>,
    resume: bool,
) -> Result<CampaignReport, RunError> {
    std::fs::create_dir_all(out_dir).map_err(|source| RunError::CreateDir {
        path: out_dir.to_owned(),
        source,
    })?;
    sweep_stale_tmp(out_dir).map_err(|source| RunError::CreateDir {
        path: out_dir.to_owned(),
        source,
    })?;
    let mut exporter = match export {
        Some(path) => {
            let opened = if resume {
                CorpusExporter::open(path)
            } else {
                CorpusExporter::create(path)
            };
            Some(opened.map_err(|source| RunError::OpenExport {
                path: path.to_owned(),
                source,
            })?)
        }
        None => None,
    };
    let snap_path = out_dir.join("campaign.json");
    let mut first_err: Option<RunError> = None;
    run_pending(snap, workers, |s| {
        if first_err.is_none() {
            first_err = checkpoint(s, &snap_path, exporter.as_mut()).err();
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    checkpoint(snap, &snap_path, exporter.as_mut())?;
    let report = CampaignReport::from_snapshot(snap);
    let summary_path = out_dir.join("summary.json");
    std::fs::write(&summary_path, report.to_json() + "\n").map_err(|source| {
        RunError::Summary {
            path: summary_path.clone(),
            source,
        }
    })?;
    Ok(report)
}

/// Checkpoints the snapshot (and the streaming export, if any): the
/// per-cell durability step shared by [`run_campaign`] and the daemon.
///
/// # Errors
///
/// Returns the first failed write as a [`RunError`] — the run is not
/// resumable past a checkpoint that did not land on disk.
pub fn checkpoint(
    snap: &CampaignSnapshot,
    snap_path: &Path,
    exporter: Option<&mut CorpusExporter>,
) -> Result<(), RunError> {
    write_snapshot(snap, snap_path).map_err(|source| RunError::Snapshot {
        path: snap_path.to_owned(),
        source,
    })?;
    if let Some(ex) = exporter {
        ex.sync(snap).map_err(RunError::Export)?;
    }
    Ok(())
}

/// One hunt: the §6.2 "find N crash scenarios" search target as a
/// single stop-aware session, fully specified so the CLI and the daemon
/// build it the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct HuntSpec {
    /// Target name (any family: simulated, `proc:*`, `vfs:*`).
    pub target: String,
    /// When to stop (count target plus iteration cap).
    pub stop: StopCondition,
    /// Session seed.
    pub seed: u64,
    /// In-flight candidate window (pool width).
    pub workers: usize,
    /// Impact metric scoring every test.
    pub metric: ImpactMetric,
    /// Whether the fitness explorer runs the §5 redundancy-feedback loop.
    pub feedback: bool,
    /// Per-test watchdog budget (real-process targets only).
    pub timeout: TestTimeout,
}

/// Runs a hunt: one fitness-guided session against the named target,
/// stop-aware on a node-manager pool — the engine checks the stop
/// condition at every head-of-line completion, so the pool halts at the
/// Nth crash (plus the in-flight window draining) instead of running
/// the iteration cap out. Deterministic for a fixed `workers` count.
/// Dispatches on the target family exactly like [`run_cell`]: live
/// binaries run as sandboxed child processes, `vfs:*` targets
/// through the crash-recovery oracle, simulated suites in-process.
///
/// # Errors
///
/// Returns `unknown target` for a name outside the registry, or the
/// artifact-resolution message for a `proc:*` target whose victim
/// binary or shim cdylib is missing.
///
/// # Panics
///
/// Panics if `hunt.workers` is zero.
pub fn run_hunt(hunt: &HuntSpec) -> Result<SessionResult, String> {
    let strategy = SearchStrategy::Fitness(ExplorerConfig {
        redundancy_feedback: hunt.feedback,
        ..ExplorerConfig::default()
    });
    // A missing victim or shim artifact is a usage error (how to build
    // it is in the message), caught before anything spawns.
    run_target(
        &hunt.target,
        |space| strategy.build(space, hunt.seed, TraceStore::new()),
        hunt.metric.clone(),
        hunt.stop,
        hunt.workers,
        hunt.timeout.0,
    )
    .map(|(_, result)| result)
}

/// The sidecar offset-index path for an export file: `<file>.idx`.
fn export_idx_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".idx");
    PathBuf::from(s)
}

/// One fixed-width sidecar index line: the record's byte offset in the
/// export file as 16 lowercase hex digits plus newline, so record `i`'s
/// offset lives at byte `17 * i` of the sidecar and seeking by record
/// number is one subtraction.
const IDX_LINE_BYTES: usize = 17;

/// Renders one sidecar index line.
fn idx_line(offset: u64) -> String {
    format!("{offset:016x}\n")
}

/// Streaming corpus export: an append-only JSONL record file mirroring
/// the campaign's deduplicated failure corpus (one [`ExportRecord`] per
/// line) plus a sidecar offset index (`corpus.jsonl.idx`, one
/// fixed-width hex offset per record), so very long campaigns can be
/// tailed without loading the snapshot and individual records fetched
/// by number without re-parsing the file ([`CorpusReader`]).
///
/// [`CorpusExporter::sync`] appends every store record whose
/// `(target, code)` key is not yet in the file; the driver calls it at
/// each checkpoint, keeping the file's record set equal to the snapshot
/// store's. Appended records are final: same-target cells complete in
/// cell order (the chain contract), so a record's earliest-cell credit
/// never changes after it is written. Re-opening the file reconciles it
/// against the snapshot — a kill between the snapshot write and the
/// export append, or a torn final line, heals on the next `sync` — and
/// deterministically rewrites the sidecar from the healed record file,
/// so the index is always a pure function of the export bytes (a
/// missing or torn sidecar is never trusted, only rebuilt).
pub struct CorpusExporter {
    file: std::fs::File,
    idx: std::fs::File,
    /// Byte length of the complete (newline-terminated) prefix of the
    /// record file — the offset the next appended record lands at.
    end: u64,
    /// `(target, code)` keys already in the file, target-keyed so `sync`
    /// probes with a borrowed `&str` instead of cloning per record.
    seen: std::collections::HashMap<String, HashSet<u64>>,
}

impl CorpusExporter {
    /// Creates a fresh export file and sidecar index, truncating
    /// whatever was there: a new campaign must not inherit records from
    /// an unrelated earlier run (which would both pollute the file and
    /// suppress this campaign's colliding records). Resumed campaigns
    /// use [`Self::open`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the create.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let idx = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(export_idx_path(path))?;
        Ok(CorpusExporter {
            file,
            idx,
            end: 0,
            seen: std::collections::HashMap::new(),
        })
    }

    /// Opens (or creates) an export file for appending — the resume
    /// path. Existing complete lines are indexed so `sync` never
    /// duplicates a record; a torn trailing line without a newline (the
    /// mark of a kill mid-append) is truncated away and re-appended by
    /// the next `sync`. The sidecar offset index is rewritten from the
    /// healed record file, which both heals its own tears (a kill lands
    /// between the record append and the index append) and builds it
    /// for exports written before the index existed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, or an `InvalidData` error if an existing
    /// complete line is not a valid export record.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let complete = existing.rfind('\n').map_or(0, |i| i + 1);
        let mut seen: std::collections::HashMap<String, HashSet<u64>> =
            std::collections::HashMap::new();
        let mut offsets = String::new();
        let mut offset = 0u64;
        for line in existing[..complete].lines() {
            let record = ExportRecord::from_jsonl(line).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("corrupt export line in {}: {e}", path.display()),
                )
            })?;
            seen.entry(record.target).or_default().insert(record.record.code);
            offsets.push_str(&idx_line(offset));
            offset += line.len() as u64 + 1;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.set_len(complete as u64)?;
        let mut idx = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(export_idx_path(path))?;
        idx.write_all(offsets.as_bytes())?;
        idx.flush()?;
        Ok(CorpusExporter {
            file,
            idx,
            end: complete as u64,
            seen,
        })
    }

    /// Number of records in the file.
    pub fn len(&self) -> usize {
        self.seen.values().map(HashSet::len).sum()
    }

    /// Whether the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.seen.values().all(HashSet::is_empty)
    }

    /// Appends every store record not yet in the file (and its offset
    /// to the sidecar index), leaving the file's record set equal to
    /// the snapshot store's. The record batch lands and flushes before
    /// the index batch, so a kill in between leaves the sidecar merely
    /// stale — [`Self::open`] rebuilds it from the record file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the append.
    pub fn sync(&mut self, snap: &CampaignSnapshot) -> std::io::Result<()> {
        let mut batch = String::new();
        let mut offsets = String::new();
        let mut offset = self.end;
        for ((target, code), record) in snap.store.iter() {
            if self
                .seen
                .get(target.as_str())
                .is_some_and(|codes| codes.contains(code))
            {
                continue;
            }
            let line = ExportRecord {
                target: target.clone(),
                record: record.clone(),
            }
            .to_jsonl();
            offsets.push_str(&idx_line(offset));
            offset += line.len() as u64 + 1;
            batch.push_str(&line);
            batch.push('\n');
            self.seen.entry(target.clone()).or_default().insert(*code);
        }
        if !batch.is_empty() {
            self.file.write_all(batch.as_bytes())?;
            self.file.flush()?;
            self.end = offset;
            self.idx.write_all(offsets.as_bytes())?;
            self.idx.flush()?;
        }
        Ok(())
    }
}

/// Seekable read access to an export file: record `i` is fetched with
/// one seek and one line read, using the sidecar offset index instead
/// of re-parsing the whole file. Falls back to a one-time scan of the
/// record file when the sidecar is missing or inconsistent (exports
/// written by older versions, or a kill before the index flushed), so
/// every export that [`CorpusExporter`] can heal is also readable here.
pub struct CorpusReader {
    file: std::fs::File,
    offsets: Vec<u64>,
    /// Byte length of the record file at open time.
    file_len: u64,
}

impl CorpusReader {
    /// Opens an export file for record-seek access.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of opening or reading either file.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let offsets = match Self::sidecar_offsets(&export_idx_path(path), file_len) {
            Some(offsets) => offsets,
            None => Self::scanned_offsets(path)?,
        };
        let mut reader = CorpusReader {
            file,
            offsets,
            file_len,
        };
        // A sidecar can be one record ahead of a torn tail only if the
        // filesystem reordered the two appends across a crash; drop
        // trailing offsets whose line never fully landed.
        while let Some(&last) = reader.offsets.last() {
            if reader.read_line_at(last, reader.file_len).is_some() {
                break;
            }
            reader.offsets.pop();
        }
        Ok(reader)
    }

    /// Parses the sidecar: fixed-width hex offsets, strictly
    /// increasing, all inside the record file. `None` (fall back to a
    /// scan) on any deviation.
    fn sidecar_offsets(idx_path: &Path, file_len: u64) -> Option<Vec<u64>> {
        let text = std::fs::read_to_string(idx_path).ok()?;
        // A torn final sidecar line (kill mid-append) is not damage —
        // the offsets before it are still good.
        let complete = text.rfind('\n').map_or(0, |i| i + 1);
        let mut offsets = Vec::with_capacity(complete / IDX_LINE_BYTES);
        for line in text[..complete].lines() {
            if line.len() != IDX_LINE_BYTES - 1 {
                return None;
            }
            let offset = u64::from_str_radix(line, 16).ok()?;
            if offset >= file_len {
                return None;
            }
            if offsets.is_empty() && offset != 0 {
                return None;
            }
            if offsets.last().is_some_and(|&prev| offset <= prev) {
                return None;
            }
            offsets.push(offset);
        }
        Some(offsets)
    }

    /// Builds the offsets by scanning the record file once — the
    /// legacy/no-sidecar path. Only complete (newline-terminated)
    /// lines are indexed.
    fn scanned_offsets(path: &Path) -> std::io::Result<Vec<u64>> {
        let text = std::fs::read_to_string(path)?;
        let complete = text.rfind('\n').map_or(0, |i| i + 1);
        let mut offsets = Vec::new();
        let mut offset = 0u64;
        for line in text[..complete].lines() {
            offsets.push(offset);
            offset += line.len() as u64 + 1;
        }
        Ok(offsets)
    }

    /// Number of records reachable by [`Self::get`].
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the export holds no complete records.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Reads the newline-terminated line starting at `start` (bounded
    /// by `end`); `None` if the bytes do not parse as UTF-8 or the
    /// line never terminates (torn tail).
    fn read_line_at(&self, start: u64, end: u64) -> Option<String> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = &self.file;
        file.seek(SeekFrom::Start(start)).ok()?;
        let mut buf = vec![0u8; (end - start) as usize];
        file.read_exact(&mut buf).ok()?;
        let text = String::from_utf8(buf).ok()?;
        let line = text.split_inclusive('\n').next()?;
        line.ends_with('\n').then(|| line.trim_end().to_owned())
    }

    /// Fetches record `i` with one seek — no other line of the file is
    /// read or parsed.
    ///
    /// # Errors
    ///
    /// Returns an `InvalidData` error for an out-of-range index or a
    /// record line that fails to parse, or the underlying I/O error.
    pub fn get(&mut self, i: usize) -> std::io::Result<ExportRecord> {
        let invalid = |detail: String| std::io::Error::new(std::io::ErrorKind::InvalidData, detail);
        let Some(&start) = self.offsets.get(i) else {
            return Err(invalid(format!(
                "record {i} out of range (export holds {})",
                self.offsets.len()
            )));
        };
        let end = self.offsets.get(i + 1).copied().unwrap_or(self.file_len);
        let line = self
            .read_line_at(start, end)
            .ok_or_else(|| invalid(format!("record {i}: torn or non-UTF-8 line")))?;
        ExportRecord::from_jsonl(&line).map_err(|e| invalid(format!("corrupt record {i}: {e}")))
    }
}

/// Reads an export file back into its records (test and tooling
/// support; the write path is [`CorpusExporter`]).
///
/// # Errors
///
/// Returns the I/O error, or an `InvalidData` error for a malformed
/// line.
pub fn read_export(path: &Path) -> std::io::Result<Vec<ExportRecord>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .map(|line| {
            ExportRecord::from_jsonl(line).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("corrupt export line in {}: {e}", path.display()),
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::campaign::{CampaignSpec, StopPolicy};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("afex-run-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

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
    fn write_snapshot_cleans_its_tmp_on_failure() {
        let dir = tmp_dir("tmpclean");
        // Renaming onto an existing non-empty *directory* fails, so the
        // write lands in the temp file and the rename errors out.
        let blocked = dir.join("campaign.json");
        std::fs::create_dir_all(blocked.join("occupied")).unwrap();
        let snap = CampaignSnapshot::new(tiny_spec());
        let err = write_snapshot(&snap, &blocked);
        assert!(err.is_err(), "rename onto a non-empty dir must fail");
        assert!(
            !dir.join("campaign.json.tmp").exists(),
            "failed write must not leave a stale .tmp behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backup_write_preserves_previous_snapshot() {
        let dir = tmp_dir("bak");
        let path = dir.join("campaign.json");
        let snap = CampaignSnapshot::new(tiny_spec());
        // First write: no previous snapshot, so no .bak appears.
        write_snapshot_with_backup(&snap, &path).unwrap();
        let first = std::fs::read(&path).unwrap();
        assert!(!dir.join("campaign.json.bak").exists());
        // Second write: the first landing becomes the backup.
        write_snapshot_with_backup(&snap, &path).unwrap();
        assert_eq!(std::fs::read(dir.join("campaign.json.bak")).unwrap(), first);
        assert_eq!(std::fs::read(&path).unwrap(), first);
        // The backup is not .tmp debris: the sweep leaves it alone.
        assert_eq!(sweep_stale_tmp(&dir).unwrap(), 0);
        assert!(dir.join("campaign.json.bak").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_io_rides_out_transient_errors_only() {
        // Two EINTRs then success: three attempts, two retries observed.
        let mut fails = 2;
        let mut seen = 0;
        let v = retry_io(
            4,
            |_| seen += 1,
            || {
                if fails > 0 {
                    fails -= 1;
                    Err(std::io::Error::from_raw_os_error(4)) // EINTR
                } else {
                    Ok(42)
                }
            },
        )
        .unwrap();
        assert_eq!((v, seen), (42, 2));
        // A non-transient error returns immediately, no retries.
        let mut seen = 0;
        let e = retry_io(4, |_| seen += 1, || {
            Err::<(), _>(std::io::Error::new(std::io::ErrorKind::PermissionDenied, "nope"))
        })
        .unwrap_err();
        assert_eq!((e.kind(), seen), (std::io::ErrorKind::PermissionDenied, 0));
        // Exhausted attempts return the last transient error.
        let mut seen = 0;
        let e = retry_io(3, |_| seen += 1, || {
            Err::<(), _>(std::io::Error::from_raw_os_error(28)) // ENOSPC
        })
        .unwrap_err();
        assert_eq!((e.raw_os_error(), seen), (Some(28), 2));
    }

    #[test]
    fn sweep_clears_orphaned_tmp_files_only() {
        let dir = tmp_dir("sweep");
        std::fs::write(dir.join("campaign.json.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("other.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("campaign.json"), b"{}").unwrap();
        std::fs::create_dir_all(dir.join("sub.tmp")).unwrap(); // dirs survive
        assert_eq!(sweep_stale_tmp(&dir).unwrap(), 2);
        assert!(dir.join("campaign.json").exists());
        assert!(dir.join("sub.tmp").exists());
        assert!(!dir.join("campaign.json.tmp").exists());
        // Idempotent, and a missing directory sweeps nothing.
        assert_eq!(sweep_stale_tmp(&dir).unwrap(), 0);
        assert_eq!(sweep_stale_tmp(&dir.join("nosuch")).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_campaign_lands_snapshot_summary_and_export() {
        let dir = tmp_dir("drive");
        let out = dir.join("out");
        let export = dir.join("corpus.jsonl");
        // Stale debris from a simulated earlier crash is swept on open.
        std::fs::create_dir_all(&out).unwrap();
        std::fs::write(out.join("campaign.json.tmp"), b"torn").unwrap();
        let mut snap = CampaignSnapshot::new(tiny_spec());
        let report = run_campaign(&mut snap, 2, &out, Some(export.as_path()), false).unwrap();
        assert!(snap.is_complete());
        assert_eq!(report.cells_done, 1);
        assert!(!out.join("campaign.json.tmp").exists(), "stale tmp swept");
        let on_disk = std::fs::read_to_string(out.join("campaign.json")).unwrap();
        assert_eq!(on_disk, snap.to_json() + "\n");
        assert!(out.join("summary.json").exists());
        assert_eq!(read_export(&export).unwrap().len(), snap.store.len());
        // Resuming a complete campaign is a no-op that reconciles.
        let before = std::fs::read(out.join("campaign.json")).unwrap();
        let mut resumed = CampaignSnapshot::from_json(&on_disk).unwrap();
        run_campaign(&mut resumed, 2, &out, Some(export.as_path()), true).unwrap();
        assert_eq!(std::fs::read(out.join("campaign.json")).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_hunt_rejects_unknown_targets_and_finds_crashes() {
        let base = HuntSpec {
            target: "nosuch".into(),
            stop: StopCondition::Crashes {
                count: 1,
                max_iterations: 2000,
            },
            seed: 7,
            workers: 4,
            metric: ImpactMetric::crash_hunter(),
            feedback: false,
            timeout: TestTimeout::default(),
        };
        let e = run_hunt(&base).unwrap_err();
        assert_eq!(e, "unknown target `nosuch`");
        let hunt = HuntSpec {
            target: "minidb".into(),
            ..base
        };
        let a = run_hunt(&hunt).unwrap();
        assert!(a.crashes() >= 1, "minidb hunt must find its crash");
        let b = run_hunt(&hunt).unwrap();
        assert_eq!(a, b, "hunts are deterministic for a fixed worker count");
    }
}

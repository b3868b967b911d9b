//! Driving campaigns to completion.
//!
//! The execution half of the library layer: [`run_pending`] runs a
//! snapshot's pending cells on the campaign pool, [`CorpusExporter`]
//! mirrors the deduped corpus to an append-only JSONL file, and
//! [`run_campaign`] drives one campaign through its directory's life
//! ([`CampaignDir`]: create or reopen, checkpoint every cell, finish).
//! [`run_hunt`] is the stop-aware single-session sibling behind
//! `afex-cli hunt`. Everything returns typed errors ([`RunError`]) whose
//! `Display` renderings are the messages the CLI has always printed;
//! nothing here prints or exits.

use super::dir::with_suffix;
use super::{chain_seeds_cached_into, run_cell, CampaignDir, ResolvedTarget, TraceSeeds};
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
use std::io::{Error, ErrorKind, Write as _};
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

/// How many attempts every campaign-directory write gets (≈14 ms of
/// backoff in all) before the CLI exits 1 or the daemon degrades.
const IO_ATTEMPTS: u32 = 4;

/// Whether an I/O error is worth retrying: the transient errno classes
/// (EINTR, EAGAIN) plus ENOSPC — disk-full commonly clears when a
/// co-located log rotates or a neighbor frees space, and a checkpoint
/// that rides out the window beats one that gives up.
fn is_transient_io(e: &Error) -> bool {
    matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock)
        || matches!(e.raw_os_error(), Some(4 | 11 | 28)) // EINTR, EAGAIN, ENOSPC
}

/// Runs `op` up to [`IO_ATTEMPTS`] times, sleeping with exponential
/// backoff (2 ms, 4 ms, 8 ms) between tries, retrying only transient
/// errors ([`is_transient_io`]). `on_retry` observes each error that
/// triggers a retry — the service counts them for its health surface.
/// Non-transient errors and the final attempt's error return
/// immediately.
pub(crate) fn retry_io<T>(
    mut on_retry: impl FnMut(&Error),
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut delay = std::time::Duration::from_millis(2);
    let mut tries = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                tries += 1;
                if tries >= IO_ATTEMPTS || !is_transient_io(&e) {
                    return Err(e);
                }
                on_retry(&e);
                std::thread::sleep(delay);
                delay *= 2;
            }
        }
    }
}

/// Which campaign-directory step failed ([`RunError::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStep {
    /// Creating or sweeping the directory.
    CreateDir,
    /// Reading or parsing the snapshot (and its backup).
    Load,
    /// Opening the corpus export (or parsing its existing lines).
    OpenExport,
    /// Writing the snapshot.
    Snapshot,
    /// Appending to the corpus export.
    Export,
    /// Writing the summary.
    Summary,
    /// Writing the failure marker (or reading it back on reopen).
    Failure,
}

impl RunStep {
    /// The error of this step at `path`, as a `map_err` argument.
    pub(crate) fn at(self, path: &Path) -> impl FnOnce(Error) -> RunError + '_ {
        move |source| RunError {
            step: self,
            path: path.to_owned(),
            source,
        }
    }
}

/// Why a [`CampaignDir`] step failed (the cells themselves either run or
/// panic). The `Display` renderings are the CLI's exit-1 messages and the
/// daemon's degraded-mode errors; the directory then holds whatever the
/// last successful checkpoint left.
#[derive(Debug)]
pub struct RunError {
    /// The step that failed.
    pub step: RunStep,
    /// The path involved, as the caller spelled it.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: Error,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (path, source) = (self.path.display(), &self.source);
        match self.step {
            RunStep::CreateDir => write!(f, "cannot create {path}: {source}"),
            RunStep::Load => write!(f, "cannot load snapshot {path}: {source}"),
            RunStep::OpenExport => write!(f, "cannot open corpus export {path}: {source}"),
            RunStep::Snapshot => write!(f, "cannot write snapshot {path}: {source}"),
            RunStep::Export => write!(f, "cannot append corpus export: {source}"),
            RunStep::Summary => write!(f, "cannot write summary {path}: {source}"),
            RunStep::Failure => write!(f, "cannot write {path}: {source}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Runs a campaign to completion in `out_dir`, checkpointing after every
/// cell: the one driver behind `afex-cli campaign` and the integration
/// tests. A fresh run lands the directory first ([`CampaignDir::create`]);
/// a resumed `snap`, already loaded by the caller, reopens it
/// ([`CampaignDir::open`]). Then the pending cells run with a checkpoint
/// per completion, and `summary.json` lands.
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
    let mut dir = if resume {
        CampaignDir::open(out_dir, export, snap, |_| ())?
    } else {
        CampaignDir::create(out_dir, export, snap, |_| ())?
    };
    let mut first_err: Option<RunError> = None;
    run_pending(snap, workers, |s| {
        if first_err.is_none() {
            first_err = dir.checkpoint(s, |_| ()).err();
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => dir.finish(snap, |_| ()),
    }
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
/// Runs through the target's session runner exactly like [`run_cell`]
/// ([`ResolvedTarget::run_session`]).
///
/// # Errors
///
/// Returns `unknown target` for a name outside the registry, or the
/// artifact-resolution message for a `proc:*` target whose victim
/// binary or shim cdylib is missing.
///
/// # Panics
///
/// Panics if `hunt.workers` is zero, and for the poison probe
/// ([`ResolvedTarget::Poison`]), whose sessions always panic.
pub fn run_hunt(hunt: &HuntSpec) -> Result<SessionResult, String> {
    let strategy = SearchStrategy::Fitness(ExplorerConfig {
        redundancy_feedback: hunt.feedback,
        ..ExplorerConfig::default()
    });
    // A missing victim or shim artifact is a usage error (how to build
    // it is in the message), caught before anything spawns.
    let explorer = |space| strategy.build(space, hunt.seed, TraceStore::new());
    let (_, result) = ResolvedTarget::resolve(&hunt.target)?
        .run_session(explorer, hunt.metric.clone(), hunt.stop, hunt.workers, hunt.timeout)?;
    Ok(result)
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
/// export append, or a torn final line, heals on the `sync` that
/// [`CampaignDir::open`] makes — and rewrites the sidecar from the healed
/// record file, so the index is always a pure function of the export
/// bytes (a missing or torn sidecar is never trusted, only rebuilt).
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
    /// suppress this campaign's colliding records). The emptied file then
    /// opens like a resumed one ([`Self::open`]).
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the create.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        std::fs::File::create(path)?;
        Self::open(path)
    }

    /// Opens (or creates) an export file for appending — the resume
    /// path. Existing complete lines are indexed so `sync` never
    /// duplicates a record; a torn trailing line without a newline (the
    /// mark of a kill mid-append) is truncated away and re-appended by
    /// the next `sync`. The sidecar offset index is rewritten from the
    /// healed record file, which both heals its own tears (a kill lands
    /// between the record append and the index append) and builds it
    /// for exports written before the index existed. A healthy export
    /// is left untouched: neither file is written when the record file
    /// has no torn tail and the sidecar already holds its offsets.
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
        if existing.len() != complete {
            file.set_len(complete as u64)?;
        }
        let idx_path = with_suffix(path, ".idx");
        if std::fs::read(&idx_path).ok().as_deref() != Some(offsets.as_bytes()) {
            std::fs::write(&idx_path, &offsets)?;
        }
        let idx = std::fs::OpenOptions::new().append(true).open(&idx_path)?;
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
    /// stale — [`Self::open`] rebuilds it from the record file. A batch
    /// whose append fails is cut off both files again and not counted as
    /// written, so a retried `sync` appends it whole.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the append.
    pub fn sync(&mut self, snap: &CampaignSnapshot) -> std::io::Result<()> {
        let mut batch = String::new();
        let mut offsets = String::new();
        let mut offset = self.end;
        let mut added = Vec::new();
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
            added.push((target, *code));
        }
        if batch.is_empty() {
            return Ok(());
        }
        let idx_end = (IDX_LINE_BYTES * self.len()) as u64;
        let appended = self
            .file
            .write_all(batch.as_bytes())
            .and_then(|()| self.file.flush())
            .and_then(|()| self.idx.write_all(offsets.as_bytes()))
            .and_then(|()| self.idx.flush());
        if let Err(e) = appended {
            let _ = self.file.set_len(self.end);
            let _ = self.idx.set_len(idx_end);
            return Err(e);
        }
        self.end = offset;
        for (target, code) in added {
            self.seen.entry(target.clone()).or_default().insert(code);
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
        let offsets = match Self::sidecar_offsets(&with_suffix(path, ".idx"), file_len) {
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
    fn retry_io_rides_out_transient_errors_only() {
        // Two EINTRs then success: three attempts, two retries observed.
        let mut fails = 2;
        let mut seen = 0;
        let v = retry_io(
            |_| seen += 1,
            || {
                if fails > 0 {
                    fails -= 1;
                    Err(Error::from_raw_os_error(4)) // EINTR
                } else {
                    Ok(42)
                }
            },
        )
        .unwrap();
        assert_eq!((v, seen), (42, 2));
        // A non-transient error returns immediately, no retries.
        let mut seen = 0;
        let e = retry_io(
            |_| seen += 1,
            || Err::<(), _>(Error::new(ErrorKind::PermissionDenied, "nope")),
        )
        .unwrap_err();
        assert_eq!((e.kind(), seen), (ErrorKind::PermissionDenied, 0));
        // Exhausted attempts return the last transient error: every
        // attempt but the last is retried.
        let mut seen = 0;
        let e = retry_io(
            |_| seen += 1,
            || {
                Err::<(), _>(Error::from_raw_os_error(28)) // ENOSPC
            },
        )
        .unwrap_err();
        assert_eq!((e.raw_os_error(), seen), (Some(28), IO_ATTEMPTS - 1));
    }

    #[test]
    fn a_failed_export_sync_is_retried_whole() {
        let dir = tmp_dir("sync-retry");
        let path = dir.join("corpus.jsonl");
        let mut snap = CampaignSnapshot::new(tiny_spec());
        run_pending(&mut snap, 1, |_| {});
        assert!(!snap.store.is_empty(), "the cell found nothing to export");
        let mut exporter = CorpusExporter::create(&path).unwrap();
        // A handle that cannot write: the append fails, and none of the
        // batch may count as written.
        exporter.file = std::fs::File::open(&path).unwrap();
        assert!(exporter.sync(&snap).is_err());
        assert!(exporter.is_empty());
        exporter.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        exporter.sync(&snap).unwrap();
        assert_eq!(read_export(&path).unwrap().len(), snap.store.len());
        assert_eq!(CorpusReader::open(&path).unwrap().len(), snap.store.len());
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

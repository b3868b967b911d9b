//! The campaign service: one daemon multiplexing many campaigns.
//!
//! `afex-cli campaign` runs one campaign and exits. The service layer
//! runs campaigns the way the paper's explorer runs tests — as a
//! long-lived facility: [`CampaignService`] owns one
//! [`MultiplexPool`] of workers, accepts campaign submissions while
//! earlier campaigns are still running, and shares the workers fairly
//! among them (round-robin at cell granularity, so a small new campaign
//! starts producing results immediately instead of queueing behind a
//! long one).
//!
//! ## Cross-campaign feedback
//!
//! The service keeps one deduped trace corpus per *target*, accumulated
//! across every campaign it has run. A newly submitted campaign's
//! chains start pre-seeded with every trace prior campaigns found on
//! that target, so its fitness cells skip known bugs from test one —
//! the §5 redundancy-feedback loop lifted from cell scope to service
//! scope.
//!
//! The preseed is captured **durably at submission** into the
//! campaign's own `preseed.json`. That freeze is what keeps campaigns
//! deterministic under crash-recovery: what the global corpus happens
//! to contain at submission time depends on wall-clock interleaving,
//! but once frozen, a campaign's every cell outcome is a pure function
//! of `(preseed, spec, cell, same-target prefix)` — so a `kill -9`'d
//! daemon that restarts rebuilds exactly the chains the dead one was
//! running and every in-flight campaign resumes byte-identically.
//!
//! ## Durability
//!
//! Each campaign owns a directory under `<root>/campaigns/<id>/`:
//! `preseed.json` (frozen at submission) beside the files of the
//! [`CampaignDir`] lifecycle `afex-cli campaign` shares — the snapshot
//! and its backup, `corpus.jsonl`, `summary.json`, `failed.txt`.
//! [`CampaignService::open`] on an existing root replays this state:
//! snapshots load in id order, the global corpus is rebuilt from their
//! recorded outcomes, and incomplete campaigns re-enter the pool seeded
//! from their own `preseed.json` plus their completed prefix — the same
//! seeds their next cells would have seen had the daemon never died.

use crate::campaign::dir::with_suffix;
use crate::campaign::run::{campaign_pool, pending_chains, quarantine_detail, CellDone, PoolCell};
use crate::campaign::{
    build_spec, load_snapshot, status_of, top_failures, CampaignDir, CampaignStatus, RunError,
    RunStep, SpecOptions, SubmitError, TraceSeeds,
};
use crate::core::campaign::{CampaignReport, CampaignSnapshot, ExportRecord};
use crate::core::TraceStore;
use afex_cluster::{CellResult, MultiplexPool};
use serde::{field, Deserialize, Serialize, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why a service operation failed. `Display` renderings are what the
/// protocol sends back as error replies.
#[derive(Debug)]
pub enum ServiceError {
    /// A submission failed validation; the inner error's message is the
    /// same one `afex-cli campaign` would print.
    Invalid(SubmitError),
    /// Service-state I/O failed (root layout, preseed, snapshot,
    /// export).
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// On-disk campaign state failed to parse.
    Corrupt {
        /// The file that failed.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// No campaign has this id.
    UnknownCampaign(u64),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Invalid(e) => write!(f, "{e}"),
            ServiceError::Io { path, source } => {
                write!(f, "cannot access {}: {source}", path.display())
            }
            ServiceError::Corrupt { path, detail } => {
                write!(f, "corrupt campaign state {}: {detail}", path.display())
            }
            ServiceError::UnknownCampaign(id) => write!(f, "unknown campaign {id}"),
        }
    }
}

impl From<RunError> for ServiceError {
    /// State that does not parse (a snapshot with no usable backup, an
    /// export line) or a missing snapshot is campaign-local damage, which
    /// quarantines its directory; any other I/O error aborts the replay.
    fn from(RunError { step, path, source }: RunError) -> Self {
        let detail = match source.kind() {
            std::io::ErrorKind::InvalidData => source.to_string(),
            std::io::ErrorKind::NotFound if step == RunStep::Load => "missing snapshot".to_owned(),
            _ => return ServiceError::Io { path, source },
        };
        ServiceError::Corrupt { path, detail }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One campaign's row in a `list` reply: id, progress, the current
/// degraded-mode error (if its durability is failing), and the terminal
/// failure reason (if one of its cells panicked).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRow {
    /// The campaign's service-assigned id.
    pub id: u64,
    /// Its progress counters.
    pub status: CampaignStatus,
    /// The latest checkpoint/summary error, if the job is currently
    /// degraded — the in-memory state keeps advancing and keeps
    /// answering queries, while the on-disk state is stuck at the last
    /// successful checkpoint until the disk recovers.
    pub error: Option<String>,
    /// The quarantine reason if a cell of this campaign panicked: the
    /// campaign is terminally failed (its remaining cells abandoned),
    /// but the daemon and every other campaign keep running.
    pub failed: Option<String>,
}

/// Monotonic fault-tolerance counters, shared by the jobs' durability
/// paths and the health surface.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Transient I/O errors ridden out by a retry (EINTR/EAGAIN/ENOSPC).
    io_retries: AtomicU64,
    /// Times a degraded job's durability came back (a later checkpoint
    /// flushed after earlier ones failed).
    flush_recoveries: AtomicU64,
    /// Cells whose execution panicked (each fails its campaign).
    cell_panics: AtomicU64,
}

impl ServiceStats {
    /// The observer the campaign-directory steps report retries to.
    fn on_retry(&self) -> impl FnMut(&std::io::Error) + '_ {
        |_| {
            self.io_retries.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A campaign directory moved aside at replay because its state could
/// not be loaded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedDir {
    /// Where the directory now lives (under `campaigns/.quarantine/`).
    pub dir: String,
    /// Why it was quarantined (also in its `reason.txt`).
    pub reason: String,
}

/// The `health` reply: what the fault-tolerance layer has absorbed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceHealth {
    /// Total campaigns the service is tracking.
    pub campaigns: usize,
    /// Campaigns still running.
    pub running: usize,
    /// Campaigns complete.
    pub complete: usize,
    /// Terminally failed campaigns (a cell panicked), with reasons.
    pub failed: Vec<FailedCampaign>,
    /// Campaigns currently in degraded mode (durability failing, state
    /// in memory only), with their latest errors.
    pub degraded: Vec<DegradedCampaign>,
    /// Directories quarantined at the last replay.
    pub quarantined: Vec<QuarantinedDir>,
    /// Transient I/O errors ridden out by retries.
    pub io_retries: u64,
    /// Degraded jobs whose durability later recovered.
    pub flush_recoveries: u64,
    /// Cells whose execution panicked.
    pub cell_panics: u64,
}

/// One terminally failed campaign in a health reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailedCampaign {
    /// The campaign id.
    pub id: u64,
    /// The quarantine reason.
    pub reason: String,
}

/// One degraded campaign in a health reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedCampaign {
    /// The campaign id.
    pub id: u64,
    /// Its latest durability error.
    pub error: String,
}

/// The per-target preseed frozen into a campaign's `preseed.json` at
/// submission — the traces every prior campaign had contributed to the
/// global corpus by then, in interning order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct PreseedFile {
    targets: Vec<PreseedTarget>,
}

/// One target's frozen preseed: the interned [`TraceStore`] itself, so
/// a restarted daemon reloads texts, scalar lengths and signatures
/// verbatim instead of re-splitting and re-hashing the corpus. The
/// persisted form is `{target, entries}`; the legacy form — a bare
/// `traces` string array written by pre-index daemons — still parses,
/// paying the one-time re-measurement the new form avoids.
#[derive(Debug, Clone, Default, PartialEq)]
struct PreseedTarget {
    target: String,
    store: TraceStore,
}

impl Serialize for PreseedTarget {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("target".to_owned(), self.target.to_value()),
            ("entries".to_owned(), self.store.to_value()),
        ])
    }
}

impl Deserialize for PreseedTarget {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected preseed target object"))?;
        let target: String = field(obj, "target")?;
        let store = if obj.iter().any(|(k, _)| k == "entries") {
            field(obj, "entries")?
        } else {
            let traces: Vec<String> = field(obj, "traces")?;
            let mut store = TraceStore::default();
            for trace in &traces {
                store.intern(trace);
            }
            store
        };
        Ok(PreseedTarget { target, store })
    }
}

impl PreseedFile {
    /// The frozen seed corpus for one target: an `Arc`-sharing clone of
    /// the persisted store — no decode, no re-interning.
    fn seeds_for(&self, target: &str) -> TraceSeeds {
        match self.targets.iter().find(|t| t.target == target) {
            Some(t) => TraceSeeds::from_store(t.store.clone()),
            None => TraceSeeds::new(),
        }
    }
}

/// One campaign's mutable state: its snapshot, its directory, the
/// current durability error (degraded mode), and the terminal failure
/// reason if a cell panicked. The pool's completion callback and the
/// query methods share it behind one mutex.
struct Job {
    dir: CampaignDir,
    snap: CampaignSnapshot,
    error: Option<String>,
    failed: Option<String>,
    /// Memoized progress row, dropped whenever `snap` records a new
    /// outcome. `status`/`list` answer from this clone instead of
    /// recounting every cell per call (PERF.md Layer 10): a 200-campaign
    /// `list` goes from O(total cells) to 200 clones.
    row: Option<CampaignStatus>,
}

impl Job {
    /// The campaign's progress row, recomputed only when the snapshot
    /// changed since the last call.
    fn status_row(&mut self) -> CampaignStatus {
        self.row
            .get_or_insert_with(|| status_of(&self.snap))
            .clone()
    }

    /// Checkpoints the snapshot and the export. A persistent failure
    /// puts the job in *degraded mode*: the in-memory snapshot keeps
    /// advancing and answering queries, the error is surfaced, and
    /// **every later checkpoint tries the disk again** — the first that
    /// lands flushes the whole state, clears the error, and counts the
    /// recovery.
    fn checkpoint(&mut self, stats: &ServiceStats) {
        match self.dir.checkpoint(&self.snap, stats.on_retry()) {
            Ok(()) => {
                if self.error.take().is_some() {
                    stats.flush_recoveries.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => self.error = Some(e.to_string()),
        }
    }

    /// Writes `summary.json` once the campaign is complete (and its
    /// checkpoint is not degraded — the summary must not outrun the
    /// snapshot it summarizes).
    fn finish(&mut self, stats: &ServiceStats) {
        if self.error.is_some() || self.failed.is_some() || !self.snap.is_complete() {
            return;
        }
        if let Err(e) = self.dir.finish(&self.snap, stats.on_retry()) {
            self.error = Some(e.to_string());
        }
    }

    /// Marks the campaign terminally failed (a cell panicked), in memory
    /// and durably. Best-effort on disk — a write failure leaves the job
    /// degraded but the in-memory verdict stands.
    fn fail(&mut self, reason: String, stats: &ServiceStats) {
        stats.cell_panics.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.dir.fail(&reason, stats.on_retry()) {
            self.error = Some(e.to_string());
        }
        self.failed = Some(reason);
    }
}

/// Registry of jobs plus the id counter, behind one mutex. Lock
/// ordering is strictly `registry → job` and `job → global`, never
/// reversed, and no lock is held across a pool call that could invoke
/// a callback.
struct Registry {
    jobs: BTreeMap<u64, Arc<Mutex<Job>>>,
    next_id: u64,
}

/// The campaign service. See the module docs for the architecture.
pub struct CampaignService {
    root: PathBuf,
    pool: MultiplexPool<TraceSeeds, PoolCell, CellDone>,
    registry: Mutex<Registry>,
    /// The cross-campaign corpus: per canonical target, every deduped
    /// trace any campaign's cells have produced, in first-seen order.
    global: Arc<Mutex<HashMap<String, TraceSeeds>>>,
    /// Fault-tolerance counters, shared with the pool callbacks.
    stats: Arc<ServiceStats>,
    /// Directories moved aside at replay because their state could not
    /// be loaded.
    quarantined: Mutex<Vec<QuarantinedDir>>,
}

impl CampaignService {
    /// Opens (or creates) a service root and starts the worker pool.
    /// Existing campaign directories are replayed in id order: the
    /// global corpus is rebuilt from their snapshots, stale `.tmp`
    /// debris is swept, torn exports heal, and every incomplete
    /// campaign re-enters the pool seeded from its frozen preseed plus
    /// its completed prefix — resuming byte-identically to the run the
    /// dead daemon was executing.
    ///
    /// # Errors
    ///
    /// Returns the first I/O or parse error while scanning the root.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn open(root: &Path, workers: usize) -> Result<Self, ServiceError> {
        let campaigns = root.join("campaigns");
        std::fs::create_dir_all(&campaigns).map_err(|source| ServiceError::Io {
            path: campaigns.clone(),
            source,
        })?;
        let service = CampaignService {
            root: root.to_owned(),
            pool: campaign_pool(workers),
            registry: Mutex::new(Registry {
                jobs: BTreeMap::new(),
                next_id: 1,
            }),
            global: Arc::new(Mutex::new(HashMap::new())),
            stats: Arc::new(ServiceStats::default()),
            quarantined: Mutex::new(Vec::new()),
        };
        service.replay(&campaigns)?;
        Ok(service)
    }

    /// Scans existing campaign directories in id order and rebuilds the
    /// in-memory state the dead daemon had: jobs, the global corpus,
    /// and the pool's pending chains. A directory whose state cannot be
    /// *parsed* (corrupt snapshot with no usable backup, corrupt
    /// preseed or export) does not abort the replay: it is moved to
    /// `campaigns/.quarantine/<id>/` with a `reason.txt` and every
    /// other campaign loads normally. I/O errors (permissions, a dying
    /// disk) still abort — they would corrupt the replay's view, not
    /// one campaign's.
    fn replay(&self, campaigns: &Path) -> Result<(), ServiceError> {
        let mut ids: Vec<u64> = std::fs::read_dir(campaigns)
            .map_err(|source| ServiceError::Io {
                path: campaigns.to_owned(),
                source,
            })?
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| entry.file_name().to_str().and_then(|n| n.parse().ok()))
            .collect();
        ids.sort_unstable();
        for id in ids {
            // The id burns no matter how the directory loads: ids are
            // never reused, quarantined or not.
            {
                let mut reg = self.registry.lock().expect("registry poisoned");
                reg.next_id = reg.next_id.max(id + 1);
            }
            let dir = campaigns.join(id.to_string());
            match self.replay_dir(id, &dir) {
                Ok(()) => {}
                Err(ServiceError::Corrupt { path, detail }) => {
                    let reason = format!("corrupt campaign state {}: {detail}", path.display());
                    self.quarantine(campaigns, id, &dir, &reason)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Loads one campaign directory into a job (and the pool, if it is
    /// still runnable). A `Corrupt` return means the directory's state
    /// is unusable and the caller should quarantine it.
    fn replay_dir(&self, id: u64, dir: &Path) -> Result<(), ServiceError> {
        let snap_path = dir.join("campaign.json");
        // A directory with neither a snapshot nor a backup is the
        // debris of a submission that died before its initial snapshot
        // landed: nothing ran, nothing durable was promised, skip it.
        if !snap_path.exists() && !with_suffix(&snap_path, ".bak").exists() {
            return Ok(());
        }
        // The frozen preseed loads first, so a backup is only ever
        // promoted in a directory that can resume.
        let preseed = read_preseed(dir)?;
        let mut snap = load_snapshot(&snap_path, self.stats.on_retry())?;
        // Converge the reloaded snapshot's trace index before anything
        // reads it: a no-op on index-carrying snapshots, a one-time
        // heal on pre-index ones, checkpointed below.
        let healed = snap.ensure_trace_index();
        {
            let mut global = self.global.lock().expect("global poisoned");
            absorb_into_global(&mut global, &preseed, &snap);
        }
        let export = dir.join("corpus.jsonl");
        let campaign = CampaignDir::open(dir, Some(&export), &snap, self.stats.on_retry())?;
        let mut job = Job {
            // A cell that panicked in a previous life is never re-run.
            failed: campaign.failure()?,
            dir: campaign,
            snap,
            error: None,
            row: None,
        };
        if healed {
            job.checkpoint(&self.stats);
        }
        // A kill between the last checkpoint and the summary write
        // leaves a complete snapshot without its summary; land it.
        job.finish(&self.stats);
        let runnable = !job.snap.is_complete() && job.failed.is_none();
        let job = Arc::new(Mutex::new(job));
        self.registry
            .lock()
            .expect("registry poisoned")
            .jobs
            .insert(id, Arc::clone(&job));
        if runnable {
            self.enqueue(&job, &preseed);
        }
        Ok(())
    }

    /// Moves an unloadable campaign directory to
    /// `campaigns/.quarantine/<id>/` (suffixing `.1`, `.2`, … if a
    /// previous quarantine of the same id exists), writes the reason
    /// into its `reason.txt`, and records it for the health surface.
    /// The `.quarantine` directory name is not a campaign id, so the
    /// replay scan never picks quarantined state back up.
    fn quarantine(
        &self,
        campaigns: &Path,
        id: u64,
        dir: &Path,
        reason: &str,
    ) -> Result<(), ServiceError> {
        let qroot = campaigns.join(".quarantine");
        std::fs::create_dir_all(&qroot).map_err(|source| ServiceError::Io {
            path: qroot.clone(),
            source,
        })?;
        let mut dest = qroot.join(id.to_string());
        let mut n = 0u32;
        while dest.exists() {
            n += 1;
            dest = qroot.join(format!("{id}.{n}"));
        }
        std::fs::rename(dir, &dest).map_err(|source| ServiceError::Io {
            path: dir.to_owned(),
            source,
        })?;
        // Best-effort: the quarantine itself must not fail because the
        // explanation could not be written.
        let _ = std::fs::write(dest.join("reason.txt"), reason.to_owned() + "\n");
        self.quarantined
            .lock()
            .expect("quarantine list poisoned")
            .push(QuarantinedDir {
                dir: dest.display().to_string(),
                reason: reason.to_owned(),
            });
        Ok(())
    }

    /// Builds the campaign's per-target chains (pending cells seeded
    /// from the frozen preseed plus the snapshot's completed prefix)
    /// and hands them to the pool with the checkpointing callback.
    fn enqueue(&self, job: &Arc<Mutex<Job>>, preseed: &PreseedFile) {
        let chains = {
            let mut j = job.lock().expect("job poisoned");
            pending_chains(&mut j.snap, |target| preseed.seeds_for(target))
        };
        let job = Arc::clone(job);
        let global = Arc::clone(&self.global);
        let stats = Arc::clone(&self.stats);
        self.pool
            .submit(chains, move |res: CellResult<PoolCell, CellDone>| match res {
                CellResult::Done((index, outcome)) => {
                    let target = {
                        let mut j = job.lock().expect("job poisoned");
                        let target = j.snap.cells[index].cell.target.clone();
                        j.snap.record(index, outcome.clone());
                        j.row = None;
                        j.checkpoint(&stats);
                        j.finish(&stats);
                        target
                    };
                    global
                        .lock()
                        .expect("global poisoned")
                        .entry(target)
                        .or_default()
                        .absorb(&outcome);
                }
                CellResult::Quarantined {
                    cell: (_, cell),
                    reason,
                    abandoned,
                } => {
                    let detail = quarantine_detail(&cell, &reason, abandoned);
                    let mut j = job.lock().expect("job poisoned");
                    j.fail(detail, &stats);
                }
            });
    }

    /// Submits a new campaign: validates the options, freezes the
    /// preseed, lands the campaign directory (the preseed, then
    /// [`CampaignDir::create`]: empty export, initial snapshot), and
    /// enqueues the chains. Returns the campaign id. The directory is
    /// durable before any cell runs, so a daemon killed right after
    /// `submit` returns still resumes the campaign on restart.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Invalid`] for a spec that
    /// `afex-cli campaign` would also reject, or the first I/O error
    /// landing the directory.
    pub fn submit(&self, opts: &SpecOptions) -> Result<u64, ServiceError> {
        let spec = build_spec(opts).map_err(ServiceError::Invalid)?;
        let id = {
            let mut reg = self.registry.lock().expect("registry poisoned");
            let id = reg.next_id;
            reg.next_id += 1;
            id
        };
        let dir = self.root.join("campaigns").join(id.to_string());
        std::fs::create_dir_all(&dir).map_err(|source| ServiceError::Io {
            path: dir.clone(),
            source,
        })?;
        let preseed = {
            let global = self.global.lock().expect("global poisoned");
            PreseedFile {
                targets: spec
                    .targets
                    .iter()
                    .filter_map(|target| {
                        let seeds = global.get(target)?;
                        if seeds.is_empty() {
                            return None;
                        }
                        Some(PreseedTarget {
                            target: target.clone(),
                            store: seeds.store().clone(),
                        })
                    })
                    .collect(),
            }
        };
        let preseed_path = dir.join("preseed.json");
        let preseed_body =
            serde_json::to_string_pretty(&preseed).expect("preseed serializes") + "\n";
        std::fs::write(&preseed_path, preseed_body).map_err(|source| ServiceError::Io {
            path: preseed_path,
            source,
        })?;
        let snap = CampaignSnapshot::new(spec);
        let export = dir.join("corpus.jsonl");
        let campaign = CampaignDir::create(&dir, Some(&export), &snap, self.stats.on_retry())?;
        let job = Arc::new(Mutex::new(Job {
            dir: campaign,
            snap,
            error: None,
            failed: None,
            row: None,
        }));
        self.registry
            .lock()
            .expect("registry poisoned")
            .jobs
            .insert(id, Arc::clone(&job));
        self.enqueue(&job, &preseed);
        Ok(id)
    }

    fn job(&self, id: u64) -> Result<Arc<Mutex<Job>>, ServiceError> {
        self.registry
            .lock()
            .expect("registry poisoned")
            .jobs
            .get(&id)
            .cloned()
            .ok_or(ServiceError::UnknownCampaign(id))
    }

    /// The progress row for one campaign.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownCampaign`] for an id the service
    /// has never assigned.
    pub fn status(&self, id: u64) -> Result<CampaignRow, ServiceError> {
        let job = self.job(id)?;
        let mut j = job.lock().expect("job poisoned");
        Ok(CampaignRow {
            id,
            status: j.status_row(),
            error: j.error.clone(),
            failed: j.failed.clone(),
        })
    }

    /// Progress rows for every campaign, in id order.
    pub fn list(&self) -> Vec<CampaignRow> {
        let jobs: Vec<(u64, Arc<Mutex<Job>>)> = {
            let reg = self.registry.lock().expect("registry poisoned");
            reg.jobs.iter().map(|(id, j)| (*id, Arc::clone(j))).collect()
        };
        jobs.into_iter()
            .map(|(id, job)| {
                let mut j = job.lock().expect("job poisoned");
                CampaignRow {
                    id,
                    status: j.status_row(),
                    error: j.error.clone(),
                    failed: j.failed.clone(),
                }
            })
            .collect()
    }

    /// The health surface: per-campaign failure/degradation verdicts,
    /// the replay's quarantined directories, and the fault-tolerance
    /// counters.
    pub fn health(&self) -> ServiceHealth {
        let rows = self.list();
        let mut failed = Vec::new();
        let mut degraded = Vec::new();
        let mut running = 0;
        let mut complete = 0;
        for row in &rows {
            if let Some(reason) = &row.failed {
                failed.push(FailedCampaign {
                    id: row.id,
                    reason: reason.clone(),
                });
            } else if row.status.complete {
                complete += 1;
            } else {
                running += 1;
            }
            if let Some(error) = &row.error {
                degraded.push(DegradedCampaign {
                    id: row.id,
                    error: error.clone(),
                });
            }
        }
        ServiceHealth {
            campaigns: rows.len(),
            running,
            complete,
            failed,
            degraded,
            quarantined: self
                .quarantined
                .lock()
                .expect("quarantine list poisoned")
                .clone(),
            io_retries: self.stats.io_retries.load(Ordering::Relaxed),
            flush_recoveries: self.stats.flush_recoveries.load(Ordering::Relaxed),
            cell_panics: self.stats.cell_panics.load(Ordering::Relaxed),
        }
    }

    /// The full per-cell report for one campaign (complete or not).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownCampaign`] for an unassigned id.
    pub fn inspect(&self, id: u64) -> Result<CampaignReport, ServiceError> {
        let job = self.job(id)?;
        let j = job.lock().expect("job poisoned");
        Ok(CampaignReport::from_snapshot(&j.snap))
    }

    /// The `limit` highest-impact corpus records of one campaign.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownCampaign`] for an unassigned id.
    pub fn top_failures(&self, id: u64, limit: usize) -> Result<Vec<ExportRecord>, ServiceError> {
        let job = self.job(id)?;
        let j = job.lock().expect("job poisoned");
        Ok(top_failures(&j.snap, limit))
    }

    /// The directory holding one campaign's durable state.
    pub fn campaign_dir(&self, id: u64) -> PathBuf {
        self.root.join("campaigns").join(id.to_string())
    }

    /// Blocks until every submitted campaign has run to completion (or
    /// until the in-flight cells land, if the pool is draining).
    pub fn wait_idle(&self) {
        self.pool.wait_idle();
    }

    /// Graceful shutdown: the pool stops picking new cells, in-flight
    /// cells finish and checkpoint through their callbacks, the workers
    /// join, and every degraded job gets one final checkpoint. A healthy
    /// job's directory already holds its state — every recorded cell and
    /// every replay heal was checkpointed when it happened — so shutdown
    /// writes nothing for it. Un-run cells stay pending in their
    /// snapshots; reopening the root resumes them.
    pub fn shutdown(self) {
        self.pool.drain();
        let jobs: Vec<Arc<Mutex<Job>>> = {
            let reg = self.registry.lock().expect("registry poisoned");
            reg.jobs.values().cloned().collect()
        };
        for job in jobs {
            let mut j = job.lock().expect("job poisoned");
            if j.error.is_some() {
                j.checkpoint(&self.stats);
            }
            // A campaign that completed while its disk was degraded
            // gets its summary landed here, now that the final
            // checkpoint has flushed.
            j.finish(&self.stats);
        }
    }
}

/// Folds one campaign's frozen preseed and recorded outcomes into the
/// global per-target corpus — the restart-time rebuild. Campaigns are
/// replayed in id order, so a corpus rebuilt here contains at least
/// everything any later submission's frozen preseed contained.
fn absorb_into_global(
    global: &mut HashMap<String, TraceSeeds>,
    preseed: &PreseedFile,
    snap: &CampaignSnapshot,
) {
    for t in &preseed.targets {
        global
            .entry(t.target.clone())
            .or_default()
            .seed_from(&t.store);
    }
    // The snapshot's trace index *is* its completed-prefix corpus, with
    // splits and signatures already interned — copy entries instead of
    // re-measuring them. Callers converge the index first.
    for (target, donor) in snap.trace_index().stores() {
        global.entry(target.clone()).or_default().seed_from(donor);
    }
    // Chains complete same-target cells in order, so the index prefix
    // normally covers every completed cell; a tampered snapshot with a
    // completed cell past a pending gap still contributes here (pure
    // dedup hash-hits otherwise).
    for state in &snap.cells {
        if let Some(outcome) = &state.outcome {
            global
                .entry(state.cell.target.clone())
                .or_default()
                .absorb(outcome);
        }
    }
}

/// Loads a campaign's frozen preseed; a missing file is an empty
/// preseed (the campaign was submitted against an empty corpus).
fn read_preseed(dir: &Path) -> Result<PreseedFile, ServiceError> {
    let path = dir.join("preseed.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(PreseedFile::default()),
        Err(source) => return Err(ServiceError::Io { path, source }),
    };
    serde_json::from_str(&text).map_err(|e| ServiceError::Corrupt {
        path,
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::read_export;

    fn tmp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("afex-service-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn docstore_opts(seeds: usize) -> SpecOptions {
        SpecOptions {
            targets: vec!["docstore-0.8".into()],
            strategies: vec!["fitness".into()],
            seeds,
            base_seed: 11,
            iterations: 60,
            ..SpecOptions::default()
        }
    }

    #[test]
    fn submit_runs_to_completion_with_durable_artifacts() {
        let root = tmp_root("basic");
        let service = CampaignService::open(&root, 2).unwrap();
        let id = service.submit(&docstore_opts(1)).unwrap();
        service.wait_idle();
        let row = service.status(id).unwrap();
        assert!(row.status.complete, "{row:?}");
        assert_eq!(row.error, None);
        let dir = service.campaign_dir(id);
        assert!(dir.join("preseed.json").exists());
        assert!(dir.join("summary.json").exists());
        let on_disk = std::fs::read_to_string(dir.join("campaign.json")).unwrap();
        let snap = CampaignSnapshot::from_json(&on_disk).unwrap();
        assert!(snap.is_complete());
        assert_eq!(read_export(&dir.join("corpus.jsonl")).unwrap().len(), snap.store.len());
        // The report matches the library's view of the snapshot.
        assert_eq!(service.inspect(id).unwrap(), CampaignReport::from_snapshot(&snap));
        let err = service.status(99).unwrap_err();
        assert_eq!(err.to_string(), "unknown campaign 99");
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_submissions_are_rejected_with_cli_messages() {
        let root = tmp_root("reject");
        let service = CampaignService::open(&root, 1).unwrap();
        let mut opts = docstore_opts(1);
        opts.targets = vec!["nosuch".into()];
        let err = service.submit(&opts).unwrap_err();
        assert_eq!(err.to_string(), "unknown target `nosuch`");
        // A rejected submission burns no directory.
        assert!(!root.join("campaigns").join("1").exists());
        let id = service.submit(&docstore_opts(1)).unwrap();
        assert_eq!(id, 1, "rejected submissions must not consume ids");
        service.wait_idle();
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn second_campaign_is_preseeded_from_the_first() {
        let root = tmp_root("preseed");
        let service = CampaignService::open(&root, 2).unwrap();
        let first = service.submit(&docstore_opts(1)).unwrap();
        service.wait_idle();
        let first_snap = CampaignSnapshot::from_json(
            &std::fs::read_to_string(service.campaign_dir(first).join("campaign.json")).unwrap(),
        )
        .unwrap();
        assert!(!first_snap.store.is_empty(), "first campaign found nothing");
        let second = service.submit(&docstore_opts(1)).unwrap();
        service.wait_idle();
        let preseed = read_preseed(&service.campaign_dir(second)).unwrap();
        assert_eq!(preseed.targets.len(), 1);
        assert_eq!(preseed.targets[0].target, "docstore-0.8");
        assert!(
            !preseed.targets[0].store.is_empty(),
            "second campaign must be preseeded from the first's corpus"
        );
        // The preseed steers the search: the same spec explores
        // differently than the unseeded first run.
        let second_snap = CampaignSnapshot::from_json(
            &std::fs::read_to_string(service.campaign_dir(second).join("campaign.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(second_snap.spec, first_snap.spec);
        assert_ne!(
            second_snap.cells[0].outcome, first_snap.cells[0].outcome,
            "preseeded fitness cells must explore differently"
        );
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn preseed_persists_interned_entries_and_reads_legacy_form() {
        // The new on-disk form carries the interned store — text, scalar
        // length and signature per trace — and round-trips exactly.
        let mut store = TraceStore::default();
        store.intern("main>parse>handle");
        store.intern("main>net>accept");
        let file = PreseedFile {
            targets: vec![PreseedTarget {
                target: "docstore-0.8".into(),
                store,
            }],
        };
        let json = serde_json::to_string_pretty(&file).expect("preseed serializes");
        let back: PreseedFile = serde_json::from_str(&json).expect("new form parses");
        assert_eq!(back, file);
        assert_eq!(
            back.seeds_for("docstore-0.8").store().decodes(),
            0,
            "reloaded preseed must seed without re-measuring a single trace"
        );
        // A preseed.json written by a pre-index daemon — bare trace
        // strings — still parses, re-measured once at load.
        let legacy = r#"{"targets": [{"target": "docstore-0.8",
            "traces": ["main>parse>handle", "main>net>accept"]}]}"#;
        let parsed: PreseedFile = serde_json::from_str(legacy).expect("legacy form parses");
        assert_eq!(parsed, file, "legacy traces must intern to the same store");
    }

    #[test]
    fn unpreseeded_service_campaign_matches_run_campaign() {
        // A single campaign on a fresh service (empty preseed) must be
        // byte-identical to the plain library driver's run of the same
        // spec: the service adds multiplexing, not new semantics.
        let root = tmp_root("parity");
        let service = CampaignService::open(&root, 2).unwrap();
        let id = service.submit(&docstore_opts(2)).unwrap();
        service.wait_idle();
        let service_json =
            std::fs::read_to_string(service.campaign_dir(id).join("campaign.json")).unwrap();
        service.shutdown();

        let out = root.join("plain");
        let opts = docstore_opts(2);
        let mut snap = CampaignSnapshot::new(build_spec(&opts).unwrap());
        crate::campaign::run_campaign(&mut snap, 2, &out, None, false).unwrap();
        let plain_json = std::fs::read_to_string(out.join("campaign.json")).unwrap();
        assert_eq!(service_json, plain_json);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reopening_a_root_resumes_incomplete_campaigns_identically() {
        let root = tmp_root("resume");
        // Run a reference campaign to completion in one service life.
        {
            let service = CampaignService::open(&root, 2).unwrap();
            service.submit(&docstore_opts(6)).unwrap();
            service.wait_idle();
            service.shutdown();
        }
        let dir = root.join("campaigns").join("1");
        let reference = std::fs::read_to_string(dir.join("campaign.json")).unwrap();

        // Roll the directory back to what a kill right after the first
        // cell's checkpoint leaves: one done cell of the six that
        // serialize on the one chain, no summary, and an export that the
        // reopen rebuilds from the snapshot. (The integration tests cover
        // the real kill -9.)
        let mut partial = CampaignSnapshot::from_json(&reference).unwrap();
        for state in &mut partial.cells[1..] {
            state.outcome = None;
        }
        partial.rebuild_store();
        for stale in ["summary.json", "corpus.jsonl", "corpus.jsonl.idx"] {
            std::fs::remove_file(dir.join(stale)).unwrap();
        }
        std::fs::remove_file(dir.join("campaign.json.bak")).unwrap();
        std::fs::write(dir.join("campaign.json"), partial.to_json() + "\n").unwrap();
        assert_eq!(partial.done_count(), 1);
        assert!(
            !partial.is_complete(),
            "the campaign must have been interrupted mid-run"
        );

        // The second life resumes and must land the identical bytes.
        {
            let service = CampaignService::open(&root, 2).unwrap();
            service.wait_idle();
            let row = service.status(1).unwrap();
            assert!(row.status.complete);
            service.shutdown();
        }
        let resumed =
            std::fs::read_to_string(root.join("campaigns").join("1").join("campaign.json"))
                .unwrap();
        assert_eq!(resumed, reference, "resume must be byte-identical");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reopening_a_root_persists_the_heal_of_a_pre_index_snapshot() {
        let root = tmp_root("preindex");
        {
            let service = CampaignService::open(&root, 2).unwrap();
            service.submit(&docstore_opts(2)).unwrap();
            service.wait_idle();
            service.shutdown();
        }
        let path = root.join("campaigns").join("1").join("campaign.json");
        let reference = std::fs::read_to_string(&path).unwrap();
        // A complete snapshot written before the trace index existed:
        // the same bytes without the index, its last field.
        let cut = reference.find(",\n  \"trace_index\"").expect("last field");
        std::fs::write(&path, format!("{}\n}}\n", &reference[..cut])).unwrap();

        // The job is complete, so nothing else checkpoints it: the
        // replay must land the healed index itself.
        CampaignService::open(&root, 2).unwrap().shutdown();
        let healed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(healed, reference, "the heal must be checkpointed");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_backup_checkpoint() {
        let root = tmp_root("bakfall");
        // Reference: the same submission run to completion undisturbed.
        {
            let service = CampaignService::open(&root, 2).unwrap();
            service.submit(&docstore_opts(2)).unwrap();
            service.wait_idle();
            service.shutdown();
        }
        let dir = root.join("campaigns").join("1");
        let reference = std::fs::read_to_string(dir.join("campaign.json")).unwrap();
        // Corrupt the primary snapshot; leave an *older* checkpoint as
        // the backup (the initial, zero-cells-done snapshot). Recovery
        // must replay forward from it to the identical final bytes.
        let initial = CampaignSnapshot::new(build_spec(&docstore_opts(2)).unwrap());
        std::fs::write(dir.join("campaign.json"), "{torn mid-write").unwrap();
        std::fs::write(dir.join("campaign.json.bak"), initial.to_json() + "\n").unwrap();
        {
            let service = CampaignService::open(&root, 2).unwrap();
            assert!(
                service.health().quarantined.is_empty(),
                "a usable backup must prevent quarantine"
            );
            service.wait_idle();
            assert!(service.status(1).unwrap().status.complete);
            service.shutdown();
        }
        let recovered = std::fs::read_to_string(dir.join("campaign.json")).unwrap();
        assert_eq!(recovered, reference, "backup resume must be byte-identical");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unloadable_campaign_is_quarantined_not_fatal() {
        let root = tmp_root("quarantine");
        {
            let service = CampaignService::open(&root, 2).unwrap();
            service.submit(&docstore_opts(1)).unwrap();
            service.submit(&docstore_opts(1)).unwrap();
            service.wait_idle();
            service.shutdown();
        }
        let sibling = std::fs::read_to_string(
            root.join("campaigns").join("2").join("campaign.json"),
        )
        .unwrap();
        // Garble campaign 1 beyond recovery: primary torn, backup gone.
        let dir1 = root.join("campaigns").join("1");
        std::fs::write(dir1.join("campaign.json"), "not json at all").unwrap();
        let _ = std::fs::remove_file(dir1.join("campaign.json.bak"));
        let service = CampaignService::open(&root, 2).unwrap();
        // The broken campaign was moved aside with its reason...
        let health = service.health();
        assert_eq!(health.quarantined.len(), 1, "{health:?}");
        assert!(health.quarantined[0].reason.contains("corrupt campaign state"));
        let qdir = root.join("campaigns").join(".quarantine").join("1");
        assert!(qdir.join("campaign.json").exists(), "state moved, not deleted");
        let reason = std::fs::read_to_string(qdir.join("reason.txt")).unwrap();
        assert!(reason.contains("corrupt campaign state"), "{reason}");
        assert!(matches!(
            service.status(1).unwrap_err(),
            ServiceError::UnknownCampaign(1)
        ));
        // ...while the sibling loaded untouched and ids stay burned.
        assert!(service.status(2).unwrap().status.complete);
        let on_disk = std::fs::read_to_string(
            root.join("campaigns").join("2").join("campaign.json"),
        )
        .unwrap();
        assert_eq!(on_disk, sibling);
        let next = service.submit(&docstore_opts(1)).unwrap();
        assert_eq!(next, 3, "quarantined ids must never be reused");
        service.wait_idle();
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn degraded_checkpoint_recovers_when_disk_does() {
        let dir = tmp_root("degraded");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = CampaignSnapshot::new(build_spec(&docstore_opts(1)).unwrap());
        let campaign =
            CampaignDir::create(&dir, Some(&dir.join("corpus.jsonl")), &snap, |_| ()).unwrap();
        let mut job = Job {
            dir: campaign,
            snap,
            error: None,
            failed: None,
            row: None,
        };
        let stats = ServiceStats::default();
        // Block the snapshot path with non-empty directories: the
        // backup rename cannot land, the checkpoint fails, the job
        // degrades — but its in-memory state still answers queries.
        std::fs::remove_file(dir.join("campaign.json")).unwrap();
        std::fs::create_dir_all(dir.join("campaign.json").join("occupied")).unwrap();
        std::fs::create_dir_all(dir.join("campaign.json.bak").join("occupied")).unwrap();
        job.checkpoint(&stats);
        let degraded = job.error.clone().expect("blocked checkpoint must degrade");
        assert!(degraded.contains("cannot write snapshot"), "{degraded}");
        assert!(!status_of(&job.snap).complete, "status still answers");
        // The disk "recovers": the next checkpoint flushes the full
        // state, clears the error, and counts the recovery.
        std::fs::remove_dir_all(dir.join("campaign.json")).unwrap();
        std::fs::remove_dir_all(dir.join("campaign.json.bak")).unwrap();
        job.checkpoint(&stats);
        assert_eq!(job.error, None);
        assert_eq!(stats.flush_recoveries.load(Ordering::Relaxed), 1);
        assert!(dir.join("campaign.json").is_file(), "flushed on recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_cell_marks_campaign_failed_but_daemon_survives() {
        std::env::set_var("AFEX_TEST_POISON", "1");
        let root = tmp_root("poison");
        let service = CampaignService::open(&root, 2).unwrap();
        let mut opts = docstore_opts(1);
        opts.targets = vec!["test:poison".into()];
        let id = service.submit(&opts).unwrap();
        service.wait_idle();
        let row = service.status(id).unwrap();
        let reason = row.failed.expect("poison campaign must be failed");
        assert!(reason.contains("panicked"), "{reason}");
        assert!(!row.status.complete);
        // The failure is durable.
        let marker =
            std::fs::read_to_string(service.campaign_dir(id).join("failed.txt")).unwrap();
        assert!(marker.contains("poison target panicked"), "{marker}");
        // The daemon survives: a healthy follow-up completes.
        let ok = service.submit(&docstore_opts(1)).unwrap();
        service.wait_idle();
        assert!(service.status(ok).unwrap().status.complete);
        let health = service.health();
        assert_eq!(health.failed.len(), 1);
        assert_eq!(health.failed[0].id, id);
        assert!(health.cell_panics >= 1);
        service.shutdown();
        // A restart shows the failure and does not re-run the cell.
        let service = CampaignService::open(&root, 2).unwrap();
        service.wait_idle();
        assert!(service.status(id).unwrap().failed.is_some());
        assert!(service.status(ok).unwrap().status.complete);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn two_concurrent_same_target_campaigns_stay_deterministic() {
        // Two campaigns on one target racing on the pool: each is
        // deterministic against its own frozen preseed, whatever the
        // interleaving. Replaying the same submissions sequentially
        // must reproduce campaign 1 byte-identically (empty preseed
        // both times); campaign 2's determinism is preseed-relative,
        // which the resume test above already pins down.
        let root = tmp_root("concurrent");
        let service = CampaignService::open(&root, 4).unwrap();
        let a = service.submit(&docstore_opts(2)).unwrap();
        let b = service.submit(&docstore_opts(2)).unwrap();
        service.wait_idle();
        let a_json =
            std::fs::read_to_string(service.campaign_dir(a).join("campaign.json")).unwrap();
        let b_preseed = read_preseed(&service.campaign_dir(b)).unwrap();
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);

        let service = CampaignService::open(&root, 4).unwrap();
        let a2 = service.submit(&docstore_opts(2)).unwrap();
        let a2_dir = service.campaign_dir(a2);
        service.wait_idle();
        let a2_json = std::fs::read_to_string(a2_dir.join("campaign.json")).unwrap();
        assert_eq!(a_json, a2_json, "campaign 1 must not see campaign 2");
        // Submitted after campaign 1 completed, campaign 2's preseed is
        // now the *superset* case: it must contain campaign 1's corpus.
        let b2 = service.submit(&docstore_opts(2)).unwrap();
        service.wait_idle();
        let b2_preseed = read_preseed(&service.campaign_dir(b2)).unwrap();
        let traces_of = |p: &PreseedFile| {
            p.targets
                .first()
                .map(|t| t.store.texts().map(|t| t.to_string()).collect::<Vec<_>>())
                .unwrap_or_default()
        };
        for trace in traces_of(&b_preseed) {
            assert!(
                traces_of(&b2_preseed).contains(&trace),
                "sequential replay must preseed campaign 2 with a superset"
            );
        }
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

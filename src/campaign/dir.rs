//! A campaign directory's whole life, for the CLI and the daemon alike.
//!
//! The directory holds `campaign.json` (the snapshot; the previous one is
//! `campaign.json.bak`), the corpus export ([`CorpusExporter`]; the CLI's
//! `--export` path, the daemon's `corpus.jsonl`), `summary.json` once the
//! campaign is complete, and the daemon's `failed.txt`. [`CampaignDir`]
//! owns it through five steps — create, open for resume, checkpoint,
//! finish, fail — each taking the caller's snapshot and an observer of
//! the retries of [`retry_io`], which every write goes through.
//! [`load_snapshot`] is the one loader.

use super::run::{retry_io, CorpusExporter, RunError, RunStep};
use crate::core::campaign::{CampaignReport, CampaignSnapshot};
use std::io::{Error, ErrorKind};
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = "campaign.json";
const SUMMARY: &str = "summary.json";
const FAILED: &str = "failed.txt";

/// `path` with `suffix` appended — unlike `with_extension`, outputs that
/// differ only in extension never collide on one temp file.
pub(crate) fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(suffix);
    PathBuf::from(s)
}

/// Replaces `path` with `body` atomically through `<path>.tmp`, first
/// renaming the old `path` to `<path>.bak` if `keep_backup`. A failed
/// write removes its `.tmp`; a crash's is swept on the next open.
fn replace(path: &Path, body: &str, keep_backup: bool) -> std::io::Result<()> {
    let tmp = with_suffix(path, ".tmp");
    let result = std::fs::write(&tmp, body)
        .and_then(|()| {
            if !keep_backup {
                return Ok(());
            }
            match std::fs::rename(path, with_suffix(path, ".bak")) {
                Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
                other => other,
            }
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Writes the snapshot atomically, keeping the previous one as
/// `<path>.bak`: the one snapshot writer. A kill between its two renames
/// leaves only the backup, which [`load_snapshot`] falls back to; cell
/// replay is deterministic, so resuming from it converges all the same.
///
/// # Errors
///
/// Returns the I/O error of the write or either rename.
pub fn write_snapshot(snap: &CampaignSnapshot, path: &Path) -> std::io::Result<()> {
    replace(path, &(snap.to_json() + "\n"), true)
}

/// Reads and parses the snapshot at `path`, falling back to `<path>.bak`
/// when the primary is missing or does not parse. A backup that loads is
/// promoted to `path`, leaving the backup in place, so the next
/// checkpoint rotates a good snapshot into `.bak`. A primary that parses
/// is returned whatever it holds: judging it is the caller's job.
///
/// # Errors
///
/// Returns the primary's error as [`RunStep::Load`] when no backup loads
/// — `NotFound`, `InvalidData` with the parse error, or another read
/// error, which never falls back — or the promotion's I/O error.
pub(crate) fn load_snapshot(
    path: &Path,
    on_retry: impl FnMut(&Error),
) -> Result<CampaignSnapshot, RunError> {
    let read = |path: &Path| -> std::io::Result<(String, CampaignSnapshot)> {
        let text = std::fs::read_to_string(path)?;
        let snap = CampaignSnapshot::from_json(&text)
            .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
        Ok((text, snap))
    };
    let failed = RunStep::Load.at(path);
    let primary = match read(path) {
        Ok((_, snap)) => return Ok(snap),
        Err(e) if matches!(e.kind(), ErrorKind::NotFound | ErrorKind::InvalidData) => e,
        Err(e) => return Err(failed(e)),
    };
    let Ok((text, snap)) = read(&with_suffix(path, ".bak")) else {
        return Err(failed(primary));
    };
    retry_io(on_retry, || replace(path, &text, false)).map_err(RunStep::Snapshot.at(path))?;
    Ok(snap)
}

/// Removes the `.tmp` files a crash left in `dir` between a write and
/// its rename, and returns how many; a missing directory sweeps nothing.
///
/// # Errors
///
/// Returns the I/O error of the directory listing or a removal.
pub fn sweep_stale_tmp(dir: &Path) -> std::io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(0),
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

/// One campaign directory: its path and its open corpus export.
pub(crate) struct CampaignDir {
    dir: PathBuf,
    export: Option<(PathBuf, CorpusExporter)>,
}

impl CampaignDir {
    /// Creates `dir` if needed, sweeps its `.tmp` debris, and opens the
    /// export, if any, with `open`.
    fn prepare(
        dir: &Path,
        export: Option<&Path>,
        open: fn(&Path) -> std::io::Result<CorpusExporter>,
        on_retry: impl FnMut(&Error),
    ) -> Result<Self, RunError> {
        std::fs::create_dir_all(dir)
            .and_then(|()| sweep_stale_tmp(dir))
            .map_err(RunStep::CreateDir.at(dir))?;
        let export = match export {
            Some(path) => {
                let opened = retry_io(on_retry, || open(path));
                Some((
                    path.to_owned(),
                    opened.map_err(RunStep::OpenExport.at(path))?,
                ))
            }
            None => None,
        };
        Ok(CampaignDir {
            dir: dir.to_owned(),
            export,
        })
    }

    /// Lands a fresh campaign in `dir` before any cell runs: creates the
    /// export (truncating an earlier run's), removes an earlier campaign's
    /// snapshot, backup and summary (a torn primary must never resume
    /// someone else's campaign), and writes the initial snapshot, so a run
    /// killed before its first checkpoint resumes.
    ///
    /// # Errors
    ///
    /// Returns the first failed step.
    pub(crate) fn create(
        dir: &Path,
        export: Option<&Path>,
        snap: &CampaignSnapshot,
        mut on_retry: impl FnMut(&Error),
    ) -> Result<Self, RunError> {
        let campaign = Self::prepare(dir, export, CorpusExporter::create, &mut on_retry)?;
        let snapshot = dir.join(SNAPSHOT);
        let backup = with_suffix(&snapshot, ".bak");
        for path in [&backup, &snapshot, &dir.join(SUMMARY)] {
            // Best effort: usually there is nothing to remove, and a path
            // that cannot be removed fails the first write that needs it.
            let _ = std::fs::remove_file(path);
        }
        retry_io(on_retry, || write_snapshot(snap, &snapshot))
            .map_err(RunStep::Snapshot.at(&snapshot))?;
        Ok(campaign)
    }

    /// Reopens `dir` to resume `snap`, loaded from it by [`load_snapshot`]:
    /// sweeps `.tmp` debris, opens the export, and syncs it with `snap`
    /// before any cell runs — healing a kill between a checkpoint's
    /// snapshot rename and its export append. A complete campaign gets
    /// its summary from [`Self::finish`], which both drivers call next.
    ///
    /// # Errors
    ///
    /// Returns the first failed step; an export line that does not parse
    /// fails [`RunStep::OpenExport`] with `InvalidData`.
    pub(crate) fn open(
        dir: &Path,
        export: Option<&Path>,
        snap: &CampaignSnapshot,
        mut on_retry: impl FnMut(&Error),
    ) -> Result<Self, RunError> {
        let mut campaign = Self::prepare(dir, export, CorpusExporter::open, &mut on_retry)?;
        campaign.sync_export(snap, on_retry)?;
        Ok(campaign)
    }

    /// Checkpoints `snap`: the snapshot ([`write_snapshot`]), then the
    /// export's missing records — so after failed checkpoints, the next
    /// one that lands flushes everything.
    ///
    /// # Errors
    ///
    /// Returns the first failed write.
    pub(crate) fn checkpoint(
        &mut self,
        snap: &CampaignSnapshot,
        mut on_retry: impl FnMut(&Error),
    ) -> Result<(), RunError> {
        let path = self.dir.join(SNAPSHOT);
        retry_io(&mut on_retry, || write_snapshot(snap, &path))
            .map_err(RunStep::Snapshot.at(&path))?;
        self.sync_export(snap, on_retry)
    }

    fn sync_export(
        &mut self,
        snap: &CampaignSnapshot,
        on_retry: impl FnMut(&Error),
    ) -> Result<(), RunError> {
        match &mut self.export {
            Some((path, exporter)) => {
                retry_io(on_retry, || exporter.sync(snap)).map_err(RunStep::Export.at(path))
            }
            None => Ok(()),
        }
    }

    /// Writes `summary.json` and returns the report. Callers finish only
    /// a complete campaign whose last checkpoint landed. A summary that
    /// already holds these bytes (a restart or `--resume` of a finished
    /// campaign) is left as it is; a missing or torn one is rewritten.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write.
    pub(crate) fn finish(
        &self,
        snap: &CampaignSnapshot,
        on_retry: impl FnMut(&Error),
    ) -> Result<CampaignReport, RunError> {
        let report = CampaignReport::from_snapshot(snap);
        let path = self.dir.join(SUMMARY);
        let body = report.to_json() + "\n";
        if std::fs::read(&path).ok().as_deref() != Some(body.as_bytes()) {
            retry_io(on_retry, || std::fs::write(&path, &body))
                .map_err(RunStep::Summary.at(&path))?;
        }
        Ok(report)
    }

    /// Records in `failed.txt` that a cell panicked, so a restarted
    /// daemon shows the failure ([`Self::failure`]) instead of re-running
    /// the cell.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write.
    pub(crate) fn fail(&self, reason: &str, on_retry: impl FnMut(&Error)) -> Result<(), RunError> {
        let path = self.dir.join(FAILED);
        let body = reason.to_owned() + "\n";
        retry_io(on_retry, || std::fs::write(&path, &body)).map_err(RunStep::Failure.at(&path))
    }

    /// The reason [`Self::fail`] recorded in an earlier life, if any.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the read.
    pub(crate) fn failure(&self) -> Result<Option<String>, RunError> {
        let path = self.dir.join(FAILED);
        match std::fs::read_to_string(&path) {
            Ok(text) => Ok(Some(text.trim_end().to_owned())),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(RunStep::Failure.at(&path)(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_pending;
    use crate::core::campaign::{CampaignSpec, StopPolicy};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("afex-dir-test-{tag}-{}", std::process::id()));
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
        // Renaming a directory onto an existing non-empty directory
        // fails, so the write lands in the temp file and the backup
        // rename errors out.
        let blocked = dir.join("campaign.json");
        std::fs::create_dir_all(blocked.join("occupied")).unwrap();
        std::fs::create_dir_all(dir.join("campaign.json.bak").join("occupied")).unwrap();
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
    fn write_snapshot_keeps_the_previous_snapshot_as_backup() {
        let dir = tmp_dir("bak");
        let path = dir.join("campaign.json");
        let snap = CampaignSnapshot::new(tiny_spec());
        // First write: no previous snapshot, so no .bak appears.
        write_snapshot(&snap, &path).unwrap();
        let first = std::fs::read(&path).unwrap();
        assert!(!dir.join("campaign.json.bak").exists());
        // Second write: the first landing becomes the backup.
        write_snapshot(&snap, &path).unwrap();
        assert_eq!(std::fs::read(dir.join("campaign.json.bak")).unwrap(), first);
        assert_eq!(std::fs::read(&path).unwrap(), first);
        // The backup is not .tmp debris: the sweep leaves it alone.
        assert_eq!(sweep_stale_tmp(&dir).unwrap(), 0);
        assert!(dir.join("campaign.json.bak").exists());
        let _ = std::fs::remove_dir_all(&dir);
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
    fn load_snapshot_falls_back_to_the_backup_and_promotes_it() {
        let dir = tmp_dir("load");
        let path = dir.join("campaign.json");
        let bak = dir.join("campaign.json.bak");
        let fresh = CampaignSnapshot::new(tiny_spec());
        let mut done = fresh.clone();
        run_pending(&mut done, 1, |_| {});
        let backup = fresh.to_json() + "\n";
        // Neither file: the primary's NotFound.
        let e = load_snapshot(&path, |_| ()).unwrap_err();
        assert_eq!(
            (e.step, e.source.kind()),
            (RunStep::Load, ErrorKind::NotFound)
        );
        // A primary that parses is returned as it is, backup or not.
        std::fs::write(&bak, &backup).unwrap();
        std::fs::write(&path, done.to_json() + "\n").unwrap();
        assert_eq!(load_snapshot(&path, |_| ()).unwrap(), done);
        // Torn or missing, the primary falls back to the backup, which
        // is promoted and stays in place.
        for damage in [Some("{torn mid-write"), None] {
            match damage {
                Some(text) => std::fs::write(&path, text).unwrap(),
                None => std::fs::remove_file(&path).unwrap(),
            }
            assert_eq!(load_snapshot(&path, |_| ()).unwrap(), fresh);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), backup);
            assert_eq!(std::fs::read_to_string(&bak).unwrap(), backup);
        }
        // No backup that parses: the primary's parse error.
        std::fs::write(&path, "{torn mid-write").unwrap();
        std::fs::write(&bak, "also torn").unwrap();
        let e = load_snapshot(&path, |_| ()).unwrap_err();
        assert_eq!(e.source.kind(), ErrorKind::InvalidData);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{torn mid-write");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Support shared by the integration tests.

use std::collections::BTreeMap;
use std::ffi::OsStr;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// A scratch directory under the system temp dir, created empty and
/// removed when dropped — unless the test is panicking, so a failing test
/// keeps its files for inspection.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<temp dir>/<name>`, clearing whatever an earlier run left
    /// there.
    pub fn new(name: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<OsStr> for ScratchDir {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

/// The length and modification time of every file under `dir`, by path.
/// Two equal listings taken [`STAMP_GAP`] or more apart mean that nothing
/// under `dir` was created, removed or written in between.
pub fn file_stamps(dir: &Path) -> BTreeMap<PathBuf, (u64, SystemTime)> {
    let mut stamps = BTreeMap::new();
    let mut pending = vec![dir.to_owned()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            let meta = entry.metadata().unwrap();
            if meta.is_dir() {
                pending.push(entry.path());
            } else {
                stamps.insert(entry.path(), (meta.len(), meta.modified().unwrap()));
            }
        }
    }
    stamps
}

/// Longer than the file system's timestamp granularity, so a write made
/// this long after a listing moves the file's modification time.
pub const STAMP_GAP: Duration = Duration::from_millis(50);

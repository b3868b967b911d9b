//! Support shared by the integration tests.

use std::ffi::OsStr;
use std::ops::Deref;
use std::path::{Path, PathBuf};

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

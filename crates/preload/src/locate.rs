//! Locating the built shim and victim artifacts at run time.
//!
//! Both the preload e2e tests and the real-process runner need the
//! same two files — the interposition cdylib and the `victim` binary —
//! and neither can rely on compile-time paths: the runner runs from
//! whatever profile directory the user built, and the tests used to
//! guess `target/{debug,release}` from `CARGO_MANIFEST_DIR`, which broke
//! under custom `--target-dir`s. This module is the one resolver both
//! share:
//!
//! 1. An explicit override wins: `AFEX_SHIM_PATH` / `AFEX_VICTIM_PATH`.
//! 2. Otherwise the artifact is looked up next to the running executable
//!    (climbing out of cargo's `deps/` directory when the caller is a
//!    test binary), then in the sibling profile directory — a debug test
//!    run can find a release-built victim and vice versa.

use std::path::{Path, PathBuf};

/// File name of the interposition cdylib.
pub const SHIM_FILE: &str = "libafex_preload.so";
/// File name of the victim binary.
pub const VICTIM_FILE: &str = "victim";

/// Environment variable overriding the shim location.
pub const SHIM_PATH_VAR: &str = "AFEX_SHIM_PATH";
/// Environment variable overriding the victim location.
pub const VICTIM_PATH_VAR: &str = "AFEX_VICTIM_PATH";

/// The directories an artifact is searched in, in order: the directory
/// of the running executable (out of `deps/` if inside it), then the
/// sibling profile directory under the same target root.
fn search_dirs() -> Vec<PathBuf> {
    let mut dirs = Vec::new();
    let Ok(exe) = std::env::current_exe() else {
        return dirs;
    };
    let Some(mut dir) = exe.parent().map(Path::to_path_buf) else {
        return dirs;
    };
    // Test binaries live in target/<profile>/deps/.
    if dir.file_name().is_some_and(|n| n == "deps") {
        if let Some(parent) = dir.parent() {
            dir = parent.to_path_buf();
        }
    }
    dirs.push(dir.clone());
    if let (Some(root), Some(profile)) = (dir.parent(), dir.file_name()) {
        for sibling in ["debug", "release"] {
            if profile != sibling {
                dirs.push(root.join(sibling));
            }
        }
    }
    dirs
}

fn locate(var: &str, file: &str) -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var(var) {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(format!(
            "{var} points at {}, which does not exist",
            path.display()
        ));
    }
    let dirs = search_dirs();
    for dir in &dirs {
        let candidate = dir.join(file);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(format!(
        "cannot find {file} (searched {}); build it with \
         `cargo build --release -p afex-preload` or set {var}",
        dirs.iter()
            .map(|d| d.display().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ))
}

/// Resolves the interposition cdylib.
///
/// # Errors
///
/// Returns a human-readable description (including how to build the
/// artifact) when the shim cannot be found.
pub fn shim_path() -> Result<PathBuf, String> {
    locate(SHIM_PATH_VAR, SHIM_FILE)
}

/// Resolves the victim binary.
///
/// # Errors
///
/// Returns a human-readable description (including how to build the
/// artifact) when the victim cannot be found.
pub fn victim_path() -> Result<PathBuf, String> {
    locate(VICTIM_PATH_VAR, VICTIM_FILE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_must_exist() {
        // A bogus override is an error, not a silent fallback: the user
        // asked for a specific file.
        std::env::set_var(SHIM_PATH_VAR, "/nonexistent/shim.so");
        let err = shim_path().unwrap_err();
        std::env::remove_var(SHIM_PATH_VAR);
        assert!(err.contains("/nonexistent/shim.so"), "{err}");
        assert!(err.contains(SHIM_PATH_VAR), "{err}");
    }

    #[test]
    fn search_includes_own_profile_dir() {
        let dirs = search_dirs();
        assert!(!dirs.is_empty());
        let exe = std::env::current_exe().unwrap();
        assert!(
            dirs.iter().any(|d| exe.starts_with(d.parent().unwrap())),
            "search dirs {dirs:?} unrelated to {}",
            exe.display()
        );
    }

    #[test]
    fn missing_artifact_error_names_the_fix() {
        // Whatever the build layout, the error for an unfindable file
        // must tell the user how to produce it.
        std::env::remove_var("AFEX_NOSUCH_PATH");
        let err = locate("AFEX_NOSUCH_PATH", "no-such-artifact").unwrap_err();
        assert!(err.contains("cargo build"), "{err}");
        assert!(err.contains("AFEX_NOSUCH_PATH"), "{err}");
    }
}

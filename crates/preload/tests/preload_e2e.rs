//! End-to-end tests of the LD_PRELOAD shim against the victim binary.
//!
//! These run real processes with the real interposition mechanism — the
//! part of LFI the in-process facade cannot exercise. The tests set the
//! `AFEX_*` protocol variables directly so that this test binary does not
//! link the shim's interposed symbols itself.

use afex_preload::locate;
use afex_preload::log::parse_log;
use std::path::PathBuf;
use std::process::Command;

/// Path of the built cdylib — the shared runtime resolver (honoring
/// `AFEX_SHIM_PATH`, then searching next to the running executable), the
/// same one the real-process runner uses, instead of the old hardcoded
/// `target/{debug,release}` guess that broke under custom target dirs.
fn shim_path() -> PathBuf {
    locate::shim_path().expect("shim cdylib must be built alongside this test binary")
}

fn victim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_victim"))
}

fn preloaded(func: &str, call: u32, errno: i32) -> Command {
    let mut c = victim();
    c.env("LD_PRELOAD", shim_path())
        .env("AFEX_FUNC", func)
        .env("AFEX_CALL", call.to_string())
        .env("AFEX_ERRNO", errno.to_string());
    if func == "malloc" {
        // Count only the victim's own distinctive allocations, not the
        // Rust runtime's startup mallocs (LFI-style argument predicate).
        c.env("AFEX_SIZE", "4242");
    }
    c
}

#[test]
fn shim_library_was_built() {
    assert!(
        shim_path().exists(),
        "cdylib missing at {}",
        shim_path().display()
    );
}

#[test]
fn victim_works_without_shim() {
    let out = victim().args(["alloc", "4"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn victim_works_with_inert_shim() {
    // Preloaded but no AFEX_FUNC: pure pass-through.
    let out = victim()
        .env("LD_PRELOAD", shim_path())
        .args(["alloc", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn injected_malloc_failure_is_caught_by_checked_victim() {
    let out = preloaded("malloc", 1, 12)
        .args(["alloc", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("malloc"), "{err}");
    assert!(err.contains("errno 12"), "{err}");
}

#[test]
fn injected_malloc_failure_crashes_unchecked_victim() {
    let out = preloaded("malloc", 1, 12)
        .args(["alloc-unchecked", "4"])
        .output()
        .unwrap();
    // Killed by a signal: SIGSEGV in release builds, SIGABRT in debug
    // builds (rustc's inserted null-pointer check panics without
    // unwinding). Either way the process dies abnormally — the crash the
    // unchecked code path exists to demonstrate.
    assert_eq!(out.status.code(), None, "expected signal death: {out:?}");
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        let sig = out.status.signal();
        assert!(sig == Some(11) || sig == Some(6), "{out:?}");
    }
}

#[test]
fn injected_read_failure_with_chosen_errno() {
    let out = preloaded("read", 1, 5)
        .args(["read-file", "/etc/hostname"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("read failed: errno 5"), "{err}");
}

#[test]
fn call_number_targets_the_exact_call() {
    // The victim mallocs 4 times; failing call #4 still fails it, while
    // failing call #5 never triggers.
    let fail4 = preloaded("malloc", 1, 12)
        .args(["alloc", "4"])
        .output()
        .unwrap();
    assert_eq!(fail4.status.code(), Some(1));
    let miss = preloaded("malloc", 999, 12)
        .args(["alloc", "4"])
        .output()
        .unwrap();
    assert!(miss.status.success(), "{miss:?}");
}

#[test]
fn shim_writes_the_injection_log() {
    let dir = std::env::temp_dir().join(format!("afex-shimlog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("shim.log");
    let out = preloaded("malloc", 1, 12)
        .env("AFEX_LOG", &log)
        .args(["alloc", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = std::fs::read_to_string(&log).expect("shim must write the log");
    let entries = parse_log(&text);
    assert_eq!(entries.len(), 1, "{text}");
    assert_eq!(entries[0].func, "malloc");
    assert_eq!(entries[0].call, 1);
    assert_eq!(entries[0].errno, 12);
    // The captured stack excludes the shim's own frames; whatever else
    // symbolizes, the victim object itself must appear on it.
    assert!(
        entries[0].stack.iter().any(|f| f.contains("victim")),
        "stack lacks the victim: {:?}",
        entries[0].stack
    );
    // No temp file may survive the atomic write.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missed_injection_writes_no_log() {
    let dir = std::env::temp_dir().join(format!("afex-shimlog-miss-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("shim.log");
    let out = preloaded("malloc", 999, 12)
        .env("AFEX_LOG", &log)
        .args(["alloc", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(!log.exists(), "untriggered plan must leave no log");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spin_victim_fails_gracefully_on_injected_malloc() {
    // The spin mode's one allocation is checked: injecting it exercises
    // the graceful-exit path rather than the hang.
    let out = preloaded("malloc", 1, 12).args(["spin"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("malloc failed before spin"), "{err}");
}

#[test]
fn injected_close_failure() {
    let out = preloaded("close", 1, 9)
        .args(["read-file", "/etc/hostname"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("close failed"), "{err}");
}

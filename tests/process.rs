//! End-to-end tests of the real-process execution backend: live victim
//! binaries under the `LD_PRELOAD` shim, sandboxed and watchdog-guarded,
//! driven through both the library API and the `afex-cli` binary.
//!
//! The shim cdylib and the victim binary are dev-time artifacts of the
//! `afex-preload` crate, which `cargo test` on the facade does not build
//! on its own — so these tests build them on demand (once per process)
//! and pin them via the `AFEX_SHIM_PATH` / `AFEX_VICTIM_PATH` overrides,
//! making the suite independent of what happens to sit in the profile
//! directory.

use afex::core::process::{default_sandbox_root, sweep_stale_sandboxes};
use afex::core::ProcessRunner;
use afex::inject::TestStatus;
use afex::space::Point;
use afex::targets::proc::{ProcTargetSpace, VictimMode};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::Duration;

/// Builds the preload artifacts (shim cdylib + victim binary) once and
/// returns `(shim, victim)`. The build targets the same profile this
/// test binary was built for, so the artifacts land where the resolver
/// and the spawned CLI expect them.
fn artifacts() -> (PathBuf, PathBuf) {
    static BUILT: OnceLock<(PathBuf, PathBuf)> = OnceLock::new();
    BUILT
        .get_or_init(|| {
            let profile_dir = Path::new(env!("CARGO_BIN_EXE_afex-cli"))
                .parent()
                .expect("binary has a parent dir")
                .to_path_buf();
            let release = profile_dir.file_name().is_some_and(|n| n == "release");
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
            let mut build = Command::new(cargo);
            // No `--bins` filter: it would skip the cdylib target.
            build
                .args(["build", "-p", "afex-preload"])
                .current_dir(env!("CARGO_MANIFEST_DIR"));
            if release {
                build.arg("--release");
            }
            let status = build.status().expect("cargo must be runnable");
            assert!(status.success(), "building afex-preload failed");
            let shim = profile_dir.join("libafex_preload.so");
            let victim = profile_dir.join("victim");
            assert!(shim.is_file(), "missing {}", shim.display());
            assert!(victim.is_file(), "missing {}", victim.display());
            (shim, victim)
        })
        .clone()
}

/// An `afex-cli` command with the preload artifacts pinned.
fn cli() -> Command {
    let (shim, victim) = artifacts();
    let mut c = Command::new(env!("CARGO_BIN_EXE_afex-cli"));
    c.env("AFEX_SHIM_PATH", shim).env("AFEX_VICTIM_PATH", victim);
    c
}

fn proc_space(mode: VictimMode) -> ProcTargetSpace {
    let (shim, victim) = artifacts();
    ProcTargetSpace::victim(mode, victim, shim)
}

#[test]
fn injected_malloc_failure_crashes_the_unchecked_victim() {
    let ts = proc_space(VictimMode::AllocUnchecked);
    // Point <test 0, function malloc, call 1>: fail the victim's first
    // distinctive allocation; the unchecked write through the result
    // kills the live process.
    let (test_id, plan) = ts.plan_for(&Point::new(vec![0, 0, 1]));
    let runner = ProcessRunner::new(Duration::from_secs(10));
    let outcome = runner.run(test_id, &plan).unwrap();
    match &outcome.status {
        // Debug builds die on the write barrier's abort, release builds
        // on the raw wild write — both are the crash we hunted.
        TestStatus::Crashed(sig) => assert!(
            sig.contains("SIGSEGV") || sig.contains("SIGABRT") || sig.contains("SIGBUS"),
            "unexpected crash signal: {sig}"
        ),
        other => panic!("expected a crash, got {other:?}"),
    }
    // The shim logged the injection before the victim died, so the
    // fault attribution survives the crash.
    assert_eq!(outcome.injections.len(), 1, "{:?}", outcome.injections);
    assert_eq!(outcome.injections[0].fault.call_number, 1);
    assert!(
        !outcome.injections[0].stack.is_empty(),
        "injection must carry a stack trace"
    );
}

#[test]
fn checked_victim_survives_the_same_injection() {
    let ts = proc_space(VictimMode::Alloc);
    let (test_id, plan) = ts.plan_for(&Point::new(vec![0, 0, 1]));
    let runner = ProcessRunner::new(Duration::from_secs(10));
    let outcome = runner.run(test_id, &plan).unwrap();
    // The checked workload notices the NULL and bails out deliberately.
    assert_eq!(outcome.status, TestStatus::Failed, "{outcome:?}");
}

#[test]
fn spin_mode_trips_the_watchdog_as_hung() {
    let ts = proc_space(VictimMode::Spin);
    // Call 0: the bare workload, which never terminates on its own.
    let (test_id, plan) = ts.plan_for(&Point::new(vec![0, 0, 0]));
    let runner = ProcessRunner::new(Duration::from_millis(300));
    let start = std::time::Instant::now();
    let outcome = runner.run(test_id, &plan).unwrap();
    assert_eq!(outcome.status, TestStatus::Hung, "{outcome:?}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "watchdog must bound the run"
    );
}

#[test]
fn hunt_finds_the_unchecked_alloc_crash() {
    let out = cli()
        .args([
            "hunt",
            "--target",
            "proc:victim-alloc-unchecked",
            "--crashes",
            "1",
            "--iterations",
            "40",
            "--seed",
            "7",
            "--workers",
            "2",
            "--timeout",
            "5s",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let crashes: usize = text
        .lines()
        .find_map(|l| l.split(", ").find_map(|p| p.strip_suffix(" crashes")))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no crash count in output:\n{text}"));
    assert!(crashes >= 1, "hunt found no crash:\n{text}");
    assert!(
        !text.contains("distinct crash signatures (0)"),
        "crash must carry a trace signature:\n{text}"
    );
}

#[test]
fn killed_hunt_leaks_no_children_and_sandboxes_sweep() {
    // A hunt over the spin target with a long watchdog: every candidate
    // hangs, so the run is still mid-flight when we kill it.
    let mut child = cli()
        .args([
            "hunt",
            "--target",
            "proc:victim-spin",
            "--crashes",
            "1",
            "--iterations",
            "8",
            "--workers",
            "2",
            "--timeout",
            "60s",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let cli_pid = child.id();
    let root = default_sandbox_root();
    let prefix = format!("afex-sbx-{cli_pid}-");
    let my_dirs = |root: &Path| -> usize {
        std::fs::read_dir(root)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
                    .count()
            })
            .unwrap_or(0)
    };
    // Wait until the run has actually sandboxed something.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while my_dirs(&root) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "hunt never created a sandbox"
        );
        assert!(
            child.try_wait().unwrap().is_none(),
            "hunt exited before it could be killed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // SIGKILL mid-run: no teardown code gets to execute.
    child.kill().unwrap();
    child.wait().unwrap();
    // The victims die with the run (PR_SET_PDEATHSIG): poll /proc until
    // no process is running our victim binary for the killed hunt.
    let (_, victim) = artifacts();
    let victim = victim.canonicalize().unwrap();
    let victims_alive = || {
        std::fs::read_dir("/proc")
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().chars().all(|c| c.is_ascii_digit()))
            .filter_map(|e| std::fs::read_link(e.path().join("exe")).ok())
            .filter(|exe| *exe == victim)
            .count()
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while victims_alive() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned victim processes survived the killed hunt"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The dead run's sandbox dirs are stale now; the sweep (which every
    // new runner performs at construction) reclaims exactly them.
    sweep_stale_sandboxes(&root);
    assert_eq!(my_dirs(&root), 0, "killed hunt leaked sandbox dirs");
}

#[test]
fn zero_and_malformed_timeouts_exit_2() {
    for bad in ["0", "0s", "banana"] {
        let out = cli()
            .args([
                "hunt",
                "--target",
                "proc:victim-alloc",
                "--timeout",
                bad,
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--timeout {bad}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("positive") || err.contains("bad timeout"),
            "--timeout {bad}: {err}"
        );
    }
}

#[test]
fn missing_victim_binary_exits_2_with_instructions() {
    for args in [
        vec!["hunt", "--target", "proc:victim-alloc"],
        vec![
            "campaign",
            "--targets",
            "proc:victim-alloc",
            "--out",
            "/tmp/afex-never-created",
        ],
    ] {
        let out = cli()
            .args(&args)
            .env("AFEX_VICTIM_PATH", "/nonexistent/victim")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("/nonexistent/victim"), "{args:?}: {err}");
    }
    assert!(!Path::new("/tmp/afex-never-created").exists());
}

#[test]
fn describe_points_proc_targets_at_hunt() {
    let out = cli()
        .args(["describe", "--target", "proc:victim-spin"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("hunt"), "{err}");
    assert!(err.contains("proc:victim-spin"), "{err}");
}

#[test]
fn campaign_timeout_persists_and_resume_rejects_the_flag() {
    let dir = std::env::temp_dir().join(format!("afex-proc-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out_dir = dir.to_str().unwrap();
    let out = cli()
        .args([
            "campaign",
            "--targets",
            "coreutils",
            "--strategies",
            "random",
            "--iterations",
            "20",
            "--timeout",
            "3s",
            "--out",
            out_dir,
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let snapshot = std::fs::read_to_string(dir.join("campaign.json")).unwrap();
    assert!(snapshot.contains("\"3s\""), "timeout not persisted: {snapshot}");
    // The snapshot's spec is the single source of truth on resume.
    let out = cli()
        .args(["campaign", "--resume", "--timeout", "4s", "--out", out_dir])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--timeout"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn proc_campaign_cell_runs_end_to_end() {
    // A one-cell campaign on the crashing proc target: snapshot, resume
    // machinery, and streaming export all flow through the real-process
    // executor.
    let dir = std::env::temp_dir().join(format!("afex-proc-camp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let export = dir.join("corpus.jsonl");
    let out = cli()
        .args([
            "campaign",
            "--targets",
            "proc:victim-alloc-unchecked",
            "--strategies",
            "fitness",
            "--iterations",
            "20",
            "--stop",
            "crashes:1",
            "--timeout",
            "5s",
            "--export",
            export.to_str().unwrap(),
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let records = afex::campaign::read_export(&export).unwrap();
    assert!(
        !records.is_empty(),
        "proc campaign exported no failure records"
    );
    assert!(records
        .iter()
        .all(|r| r.target == "proc:victim-alloc-unchecked"));
    assert!(
        records.iter().any(|r| r.record.crashed),
        "no crash in the exported corpus: {records:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn proc_campaigns_are_byte_identical_across_pool_widths() {
    // Three proc targets run their chains concurrently at `--workers 4`:
    // their tests must not share sandbox directories (and with them
    // shim logs, traces and working directories), so the snapshot is
    // the `--workers 1` bytes.
    let dir = std::env::temp_dir().join(format!("afex-proc-widths-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snapshot = |workers: &str| {
        let out_dir = dir.join(workers);
        let out = cli()
            .args([
                "campaign",
                "--targets",
                "proc:victim-alloc-unchecked,proc:victim-alloc,proc:victim-read-file",
                "--strategies",
                "fitness,random",
                "--iterations",
                "20",
                "--timeout",
                "5s",
                "--workers",
                workers,
                "--out",
                out_dir.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "--workers {workers}: {out:?}");
        std::fs::read(out_dir.join("campaign.json")).unwrap()
    };
    let sequential = snapshot("1");
    assert!(
        sequential == snapshot("4"),
        "proc campaign snapshot depends on the pool width"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

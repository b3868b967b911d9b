//! Integration tests for the campaign service daemon: a real
//! `afex-cli serve` process on a real Unix socket, driven only through
//! the client subcommands, including the crash-safety contract — the
//! daemon is killed with SIGKILL mid-campaign and its successor must
//! resume to a byte-identical snapshot.

mod common;

use common::{file_stamps, ScratchDir, STAMP_GAP};
use std::path::Path;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_afex-cli"))
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> ScratchDir {
    ScratchDir::new(&format!("afex-serve-test-{}-{name}", std::process::id()))
}

/// Starts a daemon and waits until its socket accepts connections.
fn start_daemon(socket: &Path, root: &Path, workers: &str) -> Child {
    start_daemon_env(socket, root, workers, &[])
}

/// [`start_daemon`] with extra environment variables (the poison-target
/// gate is env-controlled on the daemon side).
fn start_daemon_env(socket: &Path, root: &Path, workers: &str, envs: &[(&str, &str)]) -> Child {
    let mut cmd = cli();
    cmd.args([
        "serve",
        "--socket",
        socket.to_str().unwrap(),
        "--root",
        root.to_str().unwrap(),
        "--workers",
        workers,
    ]);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let child = cmd
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while std::os::unix::net::UnixStream::connect(socket).is_err() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    child
}

/// Runs one client subcommand against the daemon, asserting success.
fn client(socket: &Path, args: &[&str]) -> String {
    let out = cli()
        .arg(args[0])
        .args(["--socket", socket.to_str().unwrap()])
        .args(&args[1..])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Parses "X/Y cells" out of a status row for one campaign.
fn cells_done(socket: &Path, id: &str) -> (usize, bool) {
    let row = client(socket, &["status", "--id", id]);
    let done = row
        .split(", ")
        .find_map(|part| part.strip_suffix(" cells"))
        .and_then(|cells| cells.split('/').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status row: {row}"));
    (done, row.contains("complete"))
}

/// Polls until the campaign's status row reports completion.
fn wait_complete(socket: &Path, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if cells_done(socket, id).1 {
            return;
        }
        assert!(Instant::now() < deadline, "campaign {id} never completed");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn serve_runs_two_campaigns_end_to_end() {
    let dir = scratch("e2e");
    let socket = dir.join("afex.sock");
    let root = dir.join("svc");
    let mut daemon = start_daemon(&socket, &root, "2");

    let first = client(
        &socket,
        &["submit", "--targets", "coreutils", "--strategies", "fitness", "--iterations", "60"],
    );
    assert_eq!(first.trim(), "submitted: campaign 1", "{first}");
    let second = client(
        &socket,
        &["submit", "--targets", "httpd", "--strategies", "random", "--iterations", "60"],
    );
    assert_eq!(second.trim(), "submitted: campaign 2", "{second}");

    wait_complete(&socket, "1");
    wait_complete(&socket, "2");

    // The list view carries both campaigns, and --json stays parseable.
    let listing = client(&socket, &["status"]);
    assert!(listing.contains("campaign 1: complete"), "{listing}");
    assert!(listing.contains("campaign 2: complete"), "{listing}");
    let json = client(&socket, &["status", "--json"]);
    let rows: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(rows.as_array().unwrap().len(), 2);

    // Inspect renders the per-cell report; top-failures emits JSONL
    // records in the corpus-export shape.
    let report = client(&socket, &["inspect", "--id", "1"]);
    assert!(report.contains("coreutils"), "{report}");
    let failures = client(&socket, &["top-failures", "--id", "1", "--limit", "3"]);
    for line in failures.lines() {
        let rec: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(rec["target"], "coreutils");
    }

    // Errors come back with exit 2 and the CLI-identical message.
    let unknown = cli()
        .args(["status", "--socket", socket.to_str().unwrap(), "--id", "99"])
        .output()
        .unwrap();
    assert_eq!(unknown.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&unknown.stderr).contains("unknown campaign 99"),
        "{unknown:?}"
    );

    // Graceful shutdown: drain, exit 0, socket removed, artifacts durable.
    let ack = client(&socket, &["shutdown"]);
    assert_eq!(ack.trim(), "daemon draining", "{ack}");
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon must exit 0, got {status:?}");
    assert!(!socket.exists(), "daemon must remove its socket");
    for artifact in ["campaign.json", "corpus.jsonl", "preseed.json", "summary.json"] {
        let path = root.join("campaigns").join("1").join(artifact);
        assert!(path.is_file(), "missing {path:?}");
    }
}

#[test]
fn restart_and_shutdown_of_a_complete_root_write_nothing() {
    let dir = scratch("idle-restart");
    let socket = dir.join("afex.sock");
    let root = dir.join("svc");
    let mut daemon = start_daemon(&socket, &root, "2");
    for target in ["docstore-0.8", "vfs:docstore-recovery"] {
        client(
            &socket,
            &["submit", "--targets", target, "--iterations", "40"],
        );
    }
    wait_complete(&socket, "1");
    wait_complete(&socket, "2");
    client(&socket, &["shutdown"]);
    assert!(daemon.wait().unwrap().success());

    // Open the complete root again and shut it down: the replay and the
    // drain find every file already in its final state.
    let before = file_stamps(&root);
    std::thread::sleep(STAMP_GAP);
    let mut daemon = start_daemon(&socket, &root, "2");
    assert!(cells_done(&socket, "2").1, "campaign 2 must reload");
    client(&socket, &["shutdown"]);
    assert!(daemon.wait().unwrap().success());
    assert_eq!(
        file_stamps(&root),
        before,
        "a restart and shutdown of a complete root must leave every file as it was"
    );
}

#[test]
fn kill_dash_nine_then_restart_resumes_byte_identical() {
    let dir = scratch("kill9");
    let socket = dir.join("afex.sock");
    let root = dir.join("svc");
    let spec: &[&str] = &[
        "--targets",
        "coreutils,httpd",
        "--strategies",
        "fitness,random",
        "--seeds",
        "1",
        "--seed",
        "9",
        "--iterations",
        "40",
    ];

    // Reference: the plain single-campaign driver on the same spec.
    let ref_out = dir.join("plain");
    let plain = cli()
        .args(["campaign", "--workers", "1", "--out", ref_out.to_str().unwrap()])
        .args(spec)
        .output()
        .unwrap();
    assert!(plain.status.success(), "{plain:?}");
    let reference = std::fs::read_to_string(ref_out.join("campaign.json")).unwrap();

    // Life one: submit, wait for at least one checkpoint, then SIGKILL —
    // no drain, no final checkpoint, exactly the crash the snapshot
    // contract exists for.
    let mut daemon = start_daemon(&socket, &root, "1");
    let submitted = client(&socket, &[&["submit"], spec].concat());
    assert_eq!(submitted.trim(), "submitted: campaign 1", "{submitted}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while cells_done(&socket, "1").0 < 1 {
        assert!(Instant::now() < deadline, "no cell ever checkpointed");
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.kill().unwrap();
    daemon.wait().unwrap();

    // Life two: the replay path must pick the campaign up (whether or
    // not the kill landed mid-run) and finish it byte-identically.
    let mut daemon = start_daemon(&socket, &root, "1");
    wait_complete(&socket, "1");
    client(&socket, &["shutdown"]);
    assert!(daemon.wait().unwrap().success());

    let campaign_dir = root.join("campaigns").join("1");
    let resumed = std::fs::read_to_string(campaign_dir.join("campaign.json")).unwrap();
    assert_eq!(
        resumed, reference,
        "kill -9 + restart must land the same snapshot bytes as an uninterrupted run"
    );

    // The streaming export mirrors the snapshot's deduped store.
    let corpus = std::fs::read_to_string(campaign_dir.join("corpus.jsonl")).unwrap();
    let resumed_snap: serde_json::Value = serde_json::from_str(&resumed).unwrap();
    assert_eq!(
        corpus.lines().count(),
        resumed_snap["store"]["entries"].as_array().unwrap().len(),
        "corpus.jsonl must mirror the trace store"
    );
}

#[test]
fn corrupt_campaign_is_quarantined_while_sibling_resumes_byte_identical() {
    let dir = scratch("quarantine");
    let socket = dir.join("afex.sock");
    let root = dir.join("svc");
    let spec: &[&str] = &[
        "--targets",
        "httpd",
        "--strategies",
        "fitness,random",
        "--seeds",
        "1",
        "--seed",
        "7",
        "--iterations",
        "40",
    ];

    // Reference: the plain driver on the sibling's spec. Both campaigns
    // start from empty preseeds (different targets), so the sibling's
    // final bytes must match an uninterrupted run exactly.
    let ref_out = dir.join("plain");
    let plain = cli()
        .args(["campaign", "--workers", "1", "--out", ref_out.to_str().unwrap()])
        .args(spec)
        .output()
        .unwrap();
    assert!(plain.status.success(), "{plain:?}");
    let reference = std::fs::read_to_string(ref_out.join("campaign.json")).unwrap();

    // Life one: a victim campaign (1) and the sibling (2); SIGKILL once
    // the sibling has checkpointed at least one of its two cells.
    let mut daemon = start_daemon(&socket, &root, "1");
    client(
        &socket,
        &["submit", "--targets", "coreutils", "--strategies", "fitness", "--iterations", "40"],
    );
    let second = client(&socket, &[&["submit"], spec].concat());
    assert_eq!(second.trim(), "submitted: campaign 2", "{second}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while cells_done(&socket, "2").0 < 1 {
        assert!(Instant::now() < deadline, "sibling never checkpointed");
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.kill().unwrap();
    daemon.wait().unwrap();

    // Corrupt the victim beyond repair: garble the snapshot and remove
    // the backup checkpoint so the fallback path cannot save it.
    let victim = root.join("campaigns").join("1");
    let snap = victim.join("campaign.json");
    assert!(snap.is_file(), "victim snapshot missing before corruption");
    std::fs::write(&snap, "{torn mid-write").unwrap();
    let _ = std::fs::remove_file(victim.join("campaign.json.bak"));

    // Life two: replay must quarantine the victim, keep serving, and
    // finish the sibling byte-identically.
    let mut daemon = start_daemon(&socket, &root, "1");
    wait_complete(&socket, "2");

    let health = client(&socket, &["health"]);
    assert!(health.contains("quarantined:"), "{health}");
    assert!(health.contains("corrupt campaign state"), "{health}");
    let quarantine_dir = root.join("campaigns").join(".quarantine").join("1");
    assert!(quarantine_dir.join("campaign.json").is_file(), "moved snapshot missing");
    let reason = std::fs::read_to_string(quarantine_dir.join("reason.txt")).unwrap();
    assert!(reason.contains("corrupt campaign state"), "{reason}");

    // The victim's id is gone from the registry...
    let unknown = cli()
        .args(["status", "--socket", socket.to_str().unwrap(), "--id", "1"])
        .output()
        .unwrap();
    assert_eq!(unknown.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&unknown.stderr).contains("unknown campaign 1"),
        "{unknown:?}"
    );
    // ...and stays burned: the next submission gets a fresh id.
    let next = client(
        &socket,
        &["submit", "--targets", "coreutils", "--strategies", "random", "--iterations", "40"],
    );
    assert_eq!(next.trim(), "submitted: campaign 3", "{next}");
    wait_complete(&socket, "3");

    client(&socket, &["shutdown"]);
    assert!(daemon.wait().unwrap().success());
    let resumed =
        std::fs::read_to_string(root.join("campaigns").join("2").join("campaign.json")).unwrap();
    assert_eq!(
        resumed, reference,
        "sibling of a quarantined campaign must still resume byte-identically"
    );
}

#[test]
fn poison_campaign_fails_but_daemon_keeps_serving() {
    let dir = scratch("poison");
    let socket = dir.join("afex.sock");
    let root = dir.join("svc");
    let poison_env: &[(&str, &str)] = &[("AFEX_TEST_POISON", "1")];
    let mut daemon = start_daemon_env(&socket, &root, "2", poison_env);

    // The poisoned campaign panics mid-cell inside the pool; the daemon
    // must mark it failed instead of dying with it.
    let poisoned = client(
        &socket,
        &["submit", "--targets", "test:poison", "--strategies", "fitness", "--iterations", "40"],
    );
    assert_eq!(poisoned.trim(), "submitted: campaign 1", "{poisoned}");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let row = client(&socket, &["status", "--id", "1"]);
        if row.contains("failed") {
            assert!(row.contains("panicked"), "{row}");
            break;
        }
        assert!(Instant::now() < deadline, "poisoned campaign never marked failed: {row}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let failed_marker = root.join("campaigns").join("1").join("failed.txt");
    assert!(failed_marker.is_file(), "durable failure marker missing");
    assert!(
        std::fs::read_to_string(&failed_marker).unwrap().contains("poison target panicked"),
        "failed.txt must carry the panic reason"
    );

    // A healthy follow-up campaign runs to completion on the same daemon.
    let healthy = client(
        &socket,
        &["submit", "--targets", "coreutils", "--strategies", "fitness", "--iterations", "40"],
    );
    assert_eq!(healthy.trim(), "submitted: campaign 2", "{healthy}");
    wait_complete(&socket, "2");

    let health = client(&socket, &["health"]);
    assert!(health.contains("1 failed"), "{health}");
    assert!(health.contains("failed campaign 1:"), "{health}");
    let panics: u64 = health
        .lines()
        .find_map(|l| l.strip_prefix("counters: "))
        .and_then(|l| l.split(", ").find_map(|part| part.strip_suffix(" cell panics")))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no cell-panic counter in: {health}"));
    assert!(panics >= 1, "expected at least one recorded cell panic: {health}");

    client(&socket, &["shutdown"]);
    assert!(daemon.wait().unwrap().success(), "daemon must still drain cleanly");

    // The failure is durable: a restarted daemon reports it without
    // re-running the campaign.
    let mut daemon = start_daemon_env(&socket, &root, "2", poison_env);
    let row = client(&socket, &["status", "--id", "1"]);
    assert!(row.contains("failed"), "{row}");
    let health = client(&socket, &["health"]);
    assert!(health.contains("failed campaign 1:"), "{health}");
    client(&socket, &["shutdown"]);
    assert!(daemon.wait().unwrap().success());
}

#[test]
fn idle_daemon_answers_each_request_at_once() {
    // The accept loop waits on the listener, not on a clock. Each
    // request comes after a pause long enough for the daemon to go
    // idle, so a loop that sleeps between accepts makes every one of
    // the twenty requests wait out the rest of a sleep.
    let dir = scratch("latency");
    let socket = dir.join("afex.sock");
    let mut daemon = start_daemon(&socket, &dir.join("svc"), "1");
    let mut took = Duration::ZERO;
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(5));
        let start = Instant::now();
        let reply = afex::protocol::request(&socket, &afex::protocol::Request::List).unwrap();
        took += start.elapsed();
        assert!(
            matches!(reply, afex::protocol::Response::List(ref rows) if rows.is_empty()),
            "{reply:?}"
        );
    }
    client(&socket, &["shutdown"]);
    assert!(daemon.wait().unwrap().success());
    assert!(took < Duration::from_millis(250), "20 List requests took {took:?}");
}

#[test]
fn sigterm_drains_an_idle_daemon() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let dir = scratch("sigterm");
    let socket = dir.join("afex.sock");
    let mut daemon = start_daemon(&socket, &dir.join("svc"), "1");
    // SAFETY: a plain signal send to our own, still unreaped child.
    assert_eq!(unsafe { kill(daemon.id() as i32, 15) }, 0);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = daemon.kill();
            panic!("daemon ignored SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(status.success(), "SIGTERM must drain and exit 0, got {status:?}");
    assert!(!socket.exists(), "daemon must remove its socket");
}

//! Integration tests for the `afex-cli` binary.

mod common;

use common::ScratchDir;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_afex-cli"))
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> ScratchDir {
    ScratchDir::new(&format!("afex-cli-test-{}-{name}", std::process::id()))
}

/// The small campaign matrix the CLI tests run (2 targets × 2 strategies).
fn campaign_args(out: &std::path::Path) -> Vec<String> {
    [
        "campaign",
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
        "--workers",
        "2",
        "--out",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .chain([out.to_str().unwrap().to_owned()])
    .collect()
}

#[test]
fn describe_lists_axes() {
    let out = cli()
        .args(["describe", "--target", "coreutils"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fault space: 1653 points"), "{text}");
    assert!(text.contains("axis 1: function (19 values)"), "{text}");
}

#[test]
fn render_prints_fig5_scenario() {
    let out = cli()
        .args(["render", "--target", "coreutils", "--point", "4,0,1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("function malloc errno ENOMEM retval 0 callNumber 1"),
        "{text}"
    );
}

#[test]
fn render_rejects_out_of_range_points() {
    let out = cli()
        .args(["render", "--target", "coreutils", "--point", "99,0,0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("does not address"), "{err}");
}

#[test]
fn explore_reports_failures() {
    let out = cli()
        .args([
            "explore",
            "--target",
            "coreutils",
            "--iterations",
            "150",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("150 tests:"), "{text}");
    assert!(text.contains("failing faults"), "{text}");
}

#[test]
fn explore_json_output_parses() {
    let out = cli()
        .args([
            "explore",
            "--target",
            "apache",
            "--iterations",
            "80",
            "--strategy",
            "random",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON report");
    assert_eq!(v["tests_executed"], 80);
    assert!(v["entries"].is_array());
}

/// `describe`, `render` and `explore` against one target of each family,
/// an alias and an unknown name: each command's exit code and a key line
/// (stdout on success, stderr otherwise). `describe` and `render` serve
/// simulated and crash-recovery targets, `explore` only simulated ones;
/// a refused family gets a hint naming the commands that run it.
#[test]
fn single_session_commands_serve_or_refuse_each_family() {
    const PROC_HINT: &str = "hunt --target proc:victim-alloc";
    let explore = |target| ["explore", "--target", target, "--iterations", "20", "--seed", "3"];
    let cases: [(Vec<&str>, i32, &str); 15] = [
        (vec!["describe", "--target", "coreutils"], 0, "target: coreutils"),
        (vec!["describe", "--target", "mysql"], 0, "target: minidb"),
        (vec!["describe", "--target", "vfs:minidb-rewrite"], 0, "fault space: 1980 points"),
        (vec!["describe", "--target", "proc:victim-alloc"], 2, PROC_HINT),
        (vec!["describe", "--target", "nosuch"], 2, "usage:"),
        (
            vec!["render", "--target", "coreutils", "--point", "4,0,1"],
            0,
            "scenario: function malloc errno ENOMEM retval 0 callNumber 1",
        ),
        (vec!["render", "--target", "mysql", "--point", "0,0,0"], 0, "test id:  0"),
        (
            vec!["render", "--target", "vfs:minidb-rewrite", "--point", "1,4,0,5"],
            0,
            "rule:     write #5 on * -> error-EIO",
        ),
        (vec!["render", "--target", "proc:victim-alloc", "--point", "0,0"], 2, PROC_HINT),
        (vec!["render", "--target", "nosuch", "--point", "0,0,0"], 2, "usage:"),
        (explore("coreutils").to_vec(), 0, "20 tests:"),
        (explore("mysql").to_vec(), 0, "20 tests:"),
        (explore("vfs:minidb-rewrite").to_vec(), 2, "is a crash-recovery target"),
        (explore("proc:victim-alloc").to_vec(), 2, PROC_HINT),
        (explore("nosuch").to_vec(), 2, "usage:"),
    ];
    for (args, code, line) in cases {
        let out = cli().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
        let text = if code == 0 { &out.stdout } else { &out.stderr };
        let text = String::from_utf8_lossy(text);
        assert!(text.contains(line), "{args:?}: {text}");
    }
}

#[test]
fn campaign_happy_path_writes_snapshot_and_summary() {
    let out = scratch("campaign-happy");
    let run = cli().args(campaign_args(&out)).output().unwrap();
    assert!(run.status.success(), "{run:?}");
    let text = String::from_utf8_lossy(&run.stdout);
    assert!(text.contains("campaign: 4/4 cells"), "{text}");

    let snap: afex::core::CampaignSnapshot = serde_json::from_str(
        &std::fs::read_to_string(out.join("campaign.json")).unwrap(),
    )
    .expect("snapshot parses");
    assert!(snap.is_complete());
    assert_eq!(snap.cells.len(), 4);

    let summary: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(out.join("summary.json")).unwrap(),
    )
    .expect("summary parses");
    assert_eq!(summary["cells_done"], 4);
    assert_eq!(summary["tests_executed"], 160);
    assert!(summary["cells"].is_array());
}

#[test]
fn campaign_resume_completes_an_interrupted_run_identically() {
    // Reference: an uninterrupted run.
    let full = scratch("campaign-full");
    assert!(cli().args(campaign_args(&full)).output().unwrap().status.success());
    let full_bytes = std::fs::read(full.join("campaign.json")).unwrap();

    // Interrupted: the same campaign, killed after two cells. Reconstruct
    // the on-disk state a dying orchestrator leaves behind by rolling two
    // cells of the finished snapshot back to "not run yet".
    let cut = scratch("campaign-cut");
    let mut snap: afex::core::CampaignSnapshot =
        serde_json::from_str(std::str::from_utf8(&full_bytes).unwrap()).unwrap();
    for index in [1usize, 3] {
        snap.cells[index].outcome = None;
    }
    snap.rebuild_store();
    std::fs::write(cut.join("campaign.json"), snap.to_json() + "\n").unwrap();

    // Matrix flags stay home on resume: the snapshot's spec is the
    // single source of truth.
    let resumed = cli()
        .args(["campaign", "--resume", "--workers", "3", "--out", cut.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(resumed.status.success(), "{resumed:?}");
    let text = String::from_utf8_lossy(&resumed.stdout);
    assert!(text.contains("resumed: 2/4 cells"), "{text}");

    let cut_bytes = std::fs::read(cut.join("campaign.json")).unwrap();
    assert_eq!(
        cut_bytes, full_bytes,
        "resumed snapshot must be byte-identical to the uninterrupted run"
    );
}

#[test]
fn campaign_stop_policy_export_and_resume() {
    // A crashes:1 campaign with a streaming export, killed after two
    // cells and resumed: the resumed snapshot must be byte-identical to
    // the uninterrupted run, and the export's record set must equal the
    // snapshot store's.
    let stop_args = |out: &std::path::Path, export: &std::path::Path| {
        let mut args = campaign_args(out);
        for extra in ["--stop", "crashes:1", "--export", export.to_str().unwrap()] {
            args.push(extra.to_owned());
        }
        args
    };
    let full = scratch("campaign-stop-full");
    let full_export = full.join("corpus.jsonl");
    let run = cli().args(stop_args(&full, &full_export)).output().unwrap();
    assert!(run.status.success(), "{run:?}");
    let full_bytes = std::fs::read(full.join("campaign.json")).unwrap();

    let snap: afex::core::CampaignSnapshot =
        serde_json::from_str(std::str::from_utf8(&full_bytes).unwrap()).unwrap();
    assert_eq!(snap.spec.stop, afex::core::StopPolicy::Crashes(1));
    assert!(
        snap.cells.iter().any(|s| {
            let o = s.outcome.as_ref().unwrap();
            o.tests < 40 && o.crashes == 1
        }),
        "no cell stopped early under crashes:1"
    );

    // The export mirrors the store exactly.
    let records = afex::campaign::read_export(&full_export).unwrap();
    assert_eq!(records.len(), snap.store.len());
    for rec in &records {
        assert_eq!(snap.store.get(&rec.target, rec.record.code), Some(&rec.record));
    }

    // Kill-then-resume: per-target prefixes (cells 1 and 3 are the
    // second cells of the two target chains), with the export truncated
    // to what had been appended by then.
    let cut = scratch("campaign-stop-cut");
    let cut_export = cut.join("corpus.jsonl");
    let mut rolled = snap.clone();
    for index in [1usize, 3] {
        rolled.cells[index].outcome = None;
    }
    rolled.rebuild_store();
    std::fs::write(cut.join("campaign.json"), rolled.to_json() + "\n").unwrap();
    let resumed = cli()
        .args([
            "campaign",
            "--resume",
            "--workers",
            "3",
            "--export",
            cut_export.to_str().unwrap(),
            "--out",
            cut.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(
        std::fs::read(cut.join("campaign.json")).unwrap(),
        full_bytes,
        "stop-policy resume must converge to identical bytes"
    );
    let resumed_records = afex::campaign::read_export(&cut_export).unwrap();
    assert_eq!(resumed_records.len(), snap.store.len());
    for rec in &resumed_records {
        assert_eq!(snap.store.get(&rec.target, rec.record.code), Some(&rec.record));
    }
}

#[test]
fn campaign_rejects_zero_workers_with_exit_2() {
    // `MultiplexPool::new` asserts on 0 workers; the CLI must turn the
    // bad flag into the usual exit-2 path instead of a panic.
    let out = scratch("campaign-zero-workers");
    let mut args = campaign_args(&out);
    let w = args.iter().position(|a| a == "--workers").unwrap();
    args[w + 1] = "0".into();
    let run = cli().args(args).output().unwrap();
    assert_eq!(run.status.code(), Some(2));
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("--workers must be positive"), "{err}");
}

#[test]
fn campaign_with_a_panicking_cell_checkpoints_the_rest_and_exits_nonzero() {
    // The poison chain panics first on the only worker. The coreutils
    // chain must still run and checkpoint both its cells before the run
    // fails with the panic's reason.
    let out = scratch("campaign-poison");
    let run = cli()
        .env("AFEX_TEST_POISON", "1")
        .args([
            "campaign",
            "--targets",
            "test:poison,coreutils",
            "--strategies",
            "random",
            "--seeds",
            "2",
            "--iterations",
            "20",
            "--workers",
            "1",
            "--out",
        ])
        .arg(&out)
        .output()
        .unwrap();
    assert!(!run.status.success(), "{run:?}");
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("poison target panicked"), "{err}");
    let snap: afex::core::CampaignSnapshot = serde_json::from_str(
        &std::fs::read_to_string(out.join("campaign.json")).unwrap(),
    )
    .expect("snapshot parses");
    let done: Vec<&str> = snap
        .cells
        .iter()
        .filter(|c| c.outcome.is_some())
        .map(|c| c.cell.target.as_str())
        .collect();
    assert_eq!(done, ["coreutils", "coreutils"]);
}

#[test]
fn campaign_rejects_bad_stop_policies_with_exit_2() {
    for bad in ["sometimes", "crashes", "failures:0", "crashes:x"] {
        let out = scratch("campaign-bad-stop");
        let mut args = campaign_args(&out);
        args.push("--stop".into());
        args.push(bad.into());
        let run = cli().args(args).output().unwrap();
        assert_eq!(run.status.code(), Some(2), "--stop {bad}");
        let err = String::from_utf8_lossy(&run.stderr);
        assert!(err.contains("bad stop policy"), "--stop {bad}: {err}");
    }
}

#[test]
fn campaign_rejects_seed_overflow_with_exit_2() {
    // base_seed + seeds - 1 must fit in u64, or `cells()` would overflow
    // (a panic in debug builds, silent wraparound in release).
    let out = scratch("campaign-seed-overflow");
    let mut args = campaign_args(&out);
    let s = args.iter().position(|a| a == "--seed").unwrap();
    args[s + 1] = u64::MAX.to_string();
    let seeds = args.iter().position(|a| a == "--seeds").unwrap();
    args[seeds + 1] = "2".into();
    let run = cli().args(args).output().unwrap();
    assert_eq!(run.status.code(), Some(2));
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("overflows"), "{err}");
}

#[test]
fn campaign_resume_rejects_stop_flag() {
    let out = scratch("campaign-resume-stop");
    let run = cli()
        .args([
            "campaign",
            "--resume",
            "--stop",
            "crashes:1",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("cannot combine --resume with --stop"), "{err}");
}

#[test]
fn campaign_resume_rejects_chain_inconsistent_snapshots() {
    // A snapshot whose later same-target cell is done while an earlier
    // one is pending cannot replay the chained feedback; resume must
    // reject it instead of silently diverging.
    let out = scratch("campaign-chain-gap");
    assert!(cli().args(campaign_args(&out)).output().unwrap().status.success());
    let mut snap: afex::core::CampaignSnapshot = serde_json::from_str(
        &std::fs::read_to_string(out.join("campaign.json")).unwrap(),
    )
    .unwrap();
    // Cells 0,1 are the coreutils chain: hollow out cell 0 only.
    snap.cells[0].outcome = None;
    snap.rebuild_store();
    std::fs::write(out.join("campaign.json"), snap.to_json() + "\n").unwrap();
    let run = cli()
        .args(["campaign", "--resume", "--out", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("cell 1 is complete"), "{err}");
}

#[test]
fn campaign_rejects_unknown_strategy_with_exit_2() {
    // Mirrors the bad-target test: `--strategies` entries are validated
    // and canonicalized exactly like `--targets`.
    let out = scratch("campaign-bad-strategy");
    let run = cli()
        .args([
            "campaign",
            "--targets",
            "coreutils",
            "--strategies",
            "fitness,quantum",
            "--iterations",
            "10",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("unknown strategy `quantum`"), "{err}");
}

#[test]
fn campaign_rejects_aliased_duplicate_strategies() {
    // `ga` and `genetic` are the same strategy under two spellings;
    // scheduling both would double-run every cell of it.
    let out = scratch("campaign-dup-strategy");
    let run = cli()
        .args([
            "campaign",
            "--targets",
            "coreutils",
            "--strategies",
            "genetic,ga",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("duplicate strategy `genetic`"), "{err}");
}

#[test]
fn campaign_cell_workers_is_persisted_and_rejected_on_resume() {
    // --cell-workers is part of the spec (the window is the
    // fitness-feedback lag), so it persists in the snapshot and cannot
    // be changed on resume.
    let out = scratch("campaign-cell-workers");
    let mut args = campaign_args(&out);
    args.push("--cell-workers".into());
    args.push("2".into());
    let run = cli().args(args).output().unwrap();
    assert!(run.status.success(), "{run:?}");
    let snap: afex::core::CampaignSnapshot = serde_json::from_str(
        &std::fs::read_to_string(out.join("campaign.json")).unwrap(),
    )
    .unwrap();
    assert_eq!(snap.spec.cell_workers, afex::core::CellWorkers(2));

    let resumed = cli()
        .args([
            "campaign",
            "--resume",
            "--cell-workers",
            "4",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(resumed.status.code(), Some(2));
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        err.contains("cannot combine --resume with --cell-workers"),
        "{err}"
    );
}

#[test]
fn campaign_rejects_zero_cell_workers_with_exit_2() {
    let out = scratch("campaign-zero-cell-workers");
    let mut args = campaign_args(&out);
    args.push("--cell-workers".into());
    args.push("0".into());
    let run = cli().args(args).output().unwrap();
    assert_eq!(run.status.code(), Some(2));
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("cell worker"), "{err}");
}

#[test]
fn parallel_cell_campaign_resumes_byte_identically() {
    // A chained 1-target × 2-seed matrix with --cell-workers 2: killed
    // after the first chain cell and resumed, the snapshot must be
    // byte-identical to the uninterrupted run — batch-parallel cells
    // replay exactly because the window lives in the spec.
    let args = |out: &std::path::Path| {
        [
            "campaign",
            "--targets",
            "docstore-0.8",
            "--strategies",
            "fitness",
            "--seeds",
            "2",
            "--seed",
            "11",
            "--iterations",
            "60",
            "--workers",
            "2",
            "--cell-workers",
            "2",
            "--out",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .chain([out.to_str().unwrap().to_owned()])
        .collect::<Vec<String>>()
    };
    let full = scratch("campaign-cw-full");
    assert!(cli().args(args(&full)).output().unwrap().status.success());
    let full_bytes = std::fs::read(full.join("campaign.json")).unwrap();

    let cut = scratch("campaign-cw-cut");
    let mut snap: afex::core::CampaignSnapshot =
        serde_json::from_str(std::str::from_utf8(&full_bytes).unwrap()).unwrap();
    snap.cells[1].outcome = None;
    snap.rebuild_store();
    std::fs::write(cut.join("campaign.json"), snap.to_json() + "\n").unwrap();
    let resumed = cli()
        .args(["campaign", "--resume", "--out", cut.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(
        std::fs::read(cut.join("campaign.json")).unwrap(),
        full_bytes,
        "parallel-cell resume must converge to identical snapshot bytes"
    );
}

#[test]
fn hunt_stops_at_the_crash_target_and_is_deterministic() {
    // The stop-aware parallel path as a command: find 2 crashes on a
    // 4-worker pool, far below the iteration cap.
    let run = || {
        cli()
            .args([
                "hunt",
                "--target",
                "minidb",
                "--crashes",
                "2",
                "--iterations",
                "2000",
                "--seed",
                "7",
                "--workers",
                "4",
            ])
            .output()
            .unwrap()
    };
    let a = run();
    assert!(a.status.success(), "{a:?}");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("crashes"), "{text}");
    assert!(text.contains("distinct crash signatures"), "{text}");
    let b = run();
    assert_eq!(
        a.stdout, b.stdout,
        "hunts must be deterministic for a fixed worker count"
    );
}

#[test]
fn hunt_rejects_unknown_targets_with_exit_2() {
    let out = cli().args(["hunt", "--target", "nosuch"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown target"));
}

#[test]
fn hunt_rejects_conflicting_target_counts_with_exit_2() {
    // A hunt has one target count; silently preferring --failures over
    // --crashes would misreport what was hunted.
    let out = cli()
        .args(["hunt", "--target", "minidb", "--crashes", "5", "--failures", "3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot combine --failures with --crashes"),
    );
}

#[test]
fn hunt_rejects_zero_target_counts_with_exit_2() {
    // "Find zero crashes" would still execute a window of tests before
    // the first stop check; rejected like the campaign's zero-count
    // stop policies.
    for flag in ["--crashes", "--failures"] {
        let out = cli()
            .args(["hunt", "--target", "minidb", flag, "0"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} 0");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("must be positive"),
            "{flag} 0"
        );
    }
}

#[test]
fn campaign_rejects_unknown_target_with_exit_2() {
    let out = scratch("campaign-bad-target");
    let run = cli()
        .args([
            "campaign",
            "--targets",
            "coreutils,nosuch",
            "--iterations",
            "10",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("unknown target `nosuch`"), "{err}");
}

#[test]
fn campaign_resume_without_snapshot_exits_2() {
    let out = scratch("campaign-no-snap");
    let run = cli()
        .args(["campaign", "--resume", "--out", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("cannot resume"));
}

#[test]
fn campaign_resume_rejects_matrix_flags() {
    // A changed matrix (or metric) is a different campaign; silently
    // ignoring the flag — or running half the cells under a different
    // metric — would break the byte-identical resume contract.
    let out = scratch("campaign-resume-flags");
    let run = cli()
        .args([
            "campaign",
            "--resume",
            "--iterations",
            "999",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("cannot combine --resume with --iterations"), "{err}");
}

#[test]
fn campaign_rejects_aliased_duplicate_targets() {
    // `mysql` and `minidb` are the same target under two spellings;
    // scheduling both would double-count every unique failure.
    let out = scratch("campaign-dup-alias");
    let run = cli()
        .args([
            "campaign",
            "--targets",
            "mysql,minidb",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("duplicate target `minidb`"), "{err}");
}

#[test]
fn unknown_target_exits_with_usage() {
    let out = cli()
        .args(["describe", "--target", "nosuch"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn no_args_exits_with_usage() {
    let out = cli().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn campaign_resume_syncs_the_export_before_the_first_cell() {
    // A kill after checkpoint 1's snapshot rename, before its export
    // append: the snapshot holds cells 0 and 1, the export only cell 0's
    // records. The resume must append cell 1's records before cell 2
    // runs, so the export and its sidecar converge byte for byte, not
    // just as a record set.
    let args = |out: &std::path::Path| {
        let export = out.join("corpus.jsonl");
        [
            "campaign",
            "--targets",
            "coreutils",
            "--strategies",
            "fitness",
            "--seeds",
            "3",
            "--iterations",
            "40",
            "--workers",
            "1",
            "--export",
            export.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]
        .map(str::to_owned)
    };
    let full = scratch("campaign-export-lag-full");
    let run = cli().args(args(&full)).output().unwrap();
    assert!(run.status.success(), "{run:?}");

    let cut = scratch("campaign-export-lag-cut");
    let mut snap: afex::core::CampaignSnapshot =
        serde_json::from_str(&std::fs::read_to_string(full.join("campaign.json")).unwrap())
            .unwrap();
    for state in &mut snap.cells[2..] {
        state.outcome = None;
    }
    snap.rebuild_store();
    std::fs::write(cut.join("campaign.json"), snap.to_json() + "\n").unwrap();
    let lines: Vec<String> = std::fs::read_to_string(full.join("corpus.jsonl"))
        .unwrap()
        .lines()
        .map(|l| l.to_owned() + "\n")
        .collect();
    let keep: Vec<&String> = lines
        .iter()
        .filter(|l| {
            let rec: serde_json::Value = serde_json::from_str(l).unwrap();
            rec["record"]["cell"].as_u64().unwrap() < 1
        })
        .collect();
    assert!(
        !keep.is_empty() && keep.len() < snap.store.len(),
        "weak parameters"
    );
    std::fs::write(
        cut.join("corpus.jsonl"),
        keep.into_iter().cloned().collect::<String>(),
    )
    .unwrap();

    let resumed = cli()
        .args(["campaign", "--resume", "--workers", "1", "--export"])
        .arg(cut.join("corpus.jsonl"))
        .arg("--out")
        .arg(&cut)
        .output()
        .unwrap();
    assert!(resumed.status.success(), "{resumed:?}");
    for file in ["campaign.json", "corpus.jsonl", "corpus.jsonl.idx"] {
        assert!(
            std::fs::read(cut.join(file)).unwrap() == std::fs::read(full.join(file)).unwrap(),
            "{file} must be byte-identical after the resume"
        );
    }
}

#[test]
fn campaign_lands_its_snapshot_before_the_first_cell() {
    // The only cell panics, so no checkpoint ever runs: the snapshot
    // written when the directory was created is what a later
    // `--resume` starts from.
    let out = scratch("campaign-initial-snapshot");
    let run = cli()
        .env("AFEX_TEST_POISON", "1")
        .args([
            "campaign",
            "--targets",
            "test:poison",
            "--strategies",
            "fitness",
            "--seeds",
            "1",
            "--iterations",
            "20",
            "--workers",
            "1",
            "--out",
        ])
        .arg(&out)
        .output()
        .unwrap();
    assert!(!run.status.success(), "{run:?}");
    let snap: afex::core::CampaignSnapshot =
        serde_json::from_str(&std::fs::read_to_string(out.join("campaign.json")).unwrap())
            .expect("snapshot parses");
    assert_eq!((snap.done_count(), snap.cells.len()), (0, 1));
}

#[test]
fn campaign_resume_falls_back_to_the_backup_checkpoint() {
    let full = scratch("campaign-bak-full");
    let run = cli().args(campaign_args(&full)).output().unwrap();
    assert!(run.status.success(), "{run:?}");
    let full_bytes = std::fs::read(full.join("campaign.json")).unwrap();
    assert!(full.join("campaign.json.bak").exists());

    // A torn primary, and a missing one (a kill between the backup
    // rename and the final rename), each resume from the backup to the
    // uninterrupted run's bytes.
    for (tag, torn) in [("torn", true), ("missing", false)] {
        let cut = scratch(&format!("campaign-bak-{tag}"));
        for entry in std::fs::read_dir(&full).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), cut.join(entry.file_name())).unwrap();
        }
        if torn {
            std::fs::write(cut.join("campaign.json"), "{torn mid-write").unwrap();
        } else {
            std::fs::remove_file(cut.join("campaign.json")).unwrap();
        }
        let resumed = cli()
            .args(["campaign", "--resume", "--out", cut.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(resumed.status.success(), "{tag}: {resumed:?}");
        assert!(
            std::fs::read(cut.join("campaign.json")).unwrap() == full_bytes,
            "{tag}: the backup resume must be byte-identical"
        );
    }

    // A second, different campaign into the same directory clears the
    // first one's backup and summary before its first cell: torn before
    // its first checkpoint, it must not resume the first campaign.
    let run = cli()
        .env("AFEX_TEST_POISON", "1")
        .args([
            "campaign",
            "--targets",
            "test:poison",
            "--strategies",
            "fitness",
            "--iterations",
            "20",
            "--workers",
            "1",
            "--out",
        ])
        .arg(&full)
        .output()
        .unwrap();
    assert!(!run.status.success(), "{run:?}");
    for stale in ["campaign.json.bak", "summary.json"] {
        assert!(
            !full.join(stale).exists(),
            "the first campaign's {stale} survived"
        );
    }
    let snap: afex::core::CampaignSnapshot =
        serde_json::from_str(&std::fs::read_to_string(full.join("campaign.json")).unwrap())
            .expect("snapshot parses");
    assert_eq!(snap.spec.targets, ["test:poison"]);
    std::fs::write(full.join("campaign.json"), "{torn mid-write").unwrap();
    let resumed = cli()
        .args(["campaign", "--resume", "--out", full.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(resumed.status.code(), Some(2), "{resumed:?}");
}

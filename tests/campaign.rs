//! Integration tests for the campaign engine: the matrix runs on the
//! campaign pool, snapshots are durable, stop policies halt cells
//! early, same-target cells chain their redundancy feedback, and an
//! interrupted campaign resumed from a snapshot converges to the same
//! corpus as an uninterrupted one.

use afex::campaign::{chain_seeds, chain_seeds_cached_into, run_cell, run_pending, TraceSeeds};
use afex::core::campaign::{CampaignSnapshot, CampaignSpec, StopPolicy};

/// The acceptance matrix: 3 targets × 2 strategies on the manager pool.
fn matrix_spec() -> CampaignSpec {
    CampaignSpec {
        targets: vec!["coreutils".into(), "httpd".into(), "docstore-0.8".into()],
        strategies: vec!["fitness".into(), "random".into()],
        seeds: 1,
        base_seed: 7,
        iterations: 60,
        stop: StopPolicy::Iterations,
        cell_workers: 1.into(),
        timeout: Default::default(),
        metric: None,
    }
}

/// A single-target chain: 4 same-target cells that must serialize.
fn chain_spec() -> CampaignSpec {
    CampaignSpec {
        targets: vec!["docstore-0.8".into()],
        strategies: vec!["fitness".into(), "random".into()],
        seeds: 2,
        base_seed: 11,
        iterations: 80,
        stop: StopPolicy::Iterations,
        cell_workers: 1.into(),
        timeout: Default::default(),
        metric: None,
    }
}

#[test]
fn matrix_campaign_completes_on_the_pool() {
    let mut snap = CampaignSnapshot::new(matrix_spec());
    let mut checkpoints = 0;
    run_pending(&mut snap, 4, |_| checkpoints += 1);
    assert!(snap.is_complete());
    assert_eq!(checkpoints, 6, "one checkpoint per cell");
    assert_eq!(snap.done_count(), 6);
    for s in &snap.cells {
        assert_eq!(s.outcome.as_ref().unwrap().tests, 60, "cell {}", s.cell.index);
    }
    // The matrix finds real faults (httpd's strdup crash is reachable in
    // 60 fitness-guided tests; docstore 0.8 fails readily).
    assert!(!snap.store.is_empty());
}

#[test]
fn campaign_is_deterministic_across_worker_counts() {
    // Cells are whole sequential sessions chained per target, so the
    // corpus depends only on the spec — not on pool width or wall-clock
    // completion order.
    let run = |spec: CampaignSpec, workers: usize| {
        let mut snap = CampaignSnapshot::new(spec);
        run_pending(&mut snap, workers, |_| {});
        snap
    };
    let one = run(matrix_spec(), 1);
    let four = run(matrix_spec(), 4);
    assert_eq!(one, four);
    assert_eq!(one.to_json(), four.to_json());
    // Same with a nontrivial same-target chain: cell k's feedback seeds
    // come from cells 0..k whichever worker owns the chain.
    let chain_one = run(chain_spec(), 1);
    let chain_four = run(chain_spec(), 4);
    assert_eq!(chain_one.to_json(), chain_four.to_json());
}

#[test]
fn interrupted_campaign_resumes_to_identical_corpus() {
    // Uninterrupted reference run.
    let mut full = CampaignSnapshot::new(matrix_spec());
    run_pending(&mut full, 3, |_| {});

    // "Kill" a run after two cells: build the snapshot a dying process
    // would have left behind (the first cells of two target chains —
    // same-target cells complete in order, so interruptions always leave
    // per-target prefixes), reload it from the bytes, and finish the
    // rest on a different-width pool.
    let mut interrupted = CampaignSnapshot::new(matrix_spec());
    for index in [0usize, 2] {
        let cell = interrupted.cells[index].cell.clone();
        let outcome = run_cell(&cell, &interrupted.spec, &TraceSeeds::new());
        interrupted.record(index, outcome);
    }
    let bytes_at_death = interrupted.to_json();
    let mut resumed = CampaignSnapshot::from_json(&bytes_at_death).expect("snapshot parses");
    assert_eq!(resumed.done_count(), 2);
    assert_eq!(resumed.pending().len(), 4);
    run_pending(&mut resumed, 2, |_| {});

    assert!(resumed.is_complete());
    assert_eq!(resumed, full, "resumed corpus must equal uninterrupted run");
    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "snapshots must be byte-identical"
    );
}

#[test]
fn interrupted_chain_resumes_to_identical_corpus() {
    // The chained case: all four cells share one target, so cell k's
    // outcome depends on the traces of cells 0..k. Kill after the first
    // two chain cells and resume on a wider pool.
    let mut full = CampaignSnapshot::new(chain_spec());
    run_pending(&mut full, 2, |_| {});

    let mut interrupted = CampaignSnapshot::new(chain_spec());
    run_pending(&mut interrupted, 1, |_| {});
    for index in [2usize, 3] {
        interrupted.cells[index].outcome = None;
    }
    interrupted.rebuild_store();
    let mut resumed =
        CampaignSnapshot::from_json(&interrupted.to_json()).expect("snapshot parses");
    assert_eq!(resumed.done_count(), 2);
    run_pending(&mut resumed, 4, |_| {});

    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "chained resume must be byte-identical"
    );
}

#[test]
fn chained_resume_derives_seeds_without_redecoding_the_prefix() {
    // A resumed chain used to re-intern (re-split, re-hash) the whole
    // prefix corpus before its first pending cell could start. With the
    // persisted trace index, seed derivation is an `Arc`-sharing clone:
    // the index store's decode counter stays at zero through reload,
    // index convergence, and chain-seed construction.
    let mut interrupted = CampaignSnapshot::new(chain_spec());
    run_pending(&mut interrupted, 1, |_| {});
    for index in [2usize, 3] {
        interrupted.cells[index].outcome = None;
    }
    interrupted.rebuild_store();
    let mut resumed =
        CampaignSnapshot::from_json(&interrupted.to_json()).expect("snapshot parses");
    resumed.ensure_trace_index();
    assert_eq!(
        resumed.trace_index().decodes(),
        0,
        "an intact persisted index must reload without a single decode pass"
    );
    let target = resumed.spec.targets[0].clone();
    let cached = chain_seeds_cached_into(TraceSeeds::new(), &resumed, &target);
    let oracle = chain_seeds(&resumed, &target);
    assert!(!cached.is_empty(), "two completed cells must leave traces");
    assert_eq!(
        cached.store(),
        oracle.store(),
        "cached seeds must equal the naive prefix walk"
    );
    assert_eq!(
        resumed.trace_index().decodes(),
        0,
        "seed derivation must be an Arc clone, not a re-split of the prefix"
    );
}

#[test]
fn stop_policy_campaign_resumes_byte_identically() {
    // A crashes:1 policy stops each cell at its first crash (budget as
    // backstop); the policy lives in the spec, so a resumed campaign
    // stops identically and converges to the same bytes.
    let spec = CampaignSpec {
        targets: vec!["httpd".into(), "docstore-0.8".into()],
        strategies: vec!["fitness".into()],
        seeds: 2,
        base_seed: 5,
        iterations: 300,
        stop: StopPolicy::Crashes(1),
        cell_workers: 1.into(),
        timeout: Default::default(),
        metric: None,
    };
    let mut full = CampaignSnapshot::new(spec.clone());
    run_pending(&mut full, 3, |_| {});
    // The policy actually bit somewhere: at least one cell stopped
    // before its budget with exactly one crash.
    assert!(
        full.cells.iter().any(|s| {
            let o = s.outcome.as_ref().unwrap();
            o.tests < 300 && o.crashes == 1
        }),
        "no cell stopped early — weak test parameters"
    );

    let mut interrupted = CampaignSnapshot::from_json(&full.to_json()).unwrap();
    for index in [1usize, 3] {
        interrupted.cells[index].outcome = None;
    }
    interrupted.rebuild_store();
    let mut resumed =
        CampaignSnapshot::from_json(&interrupted.to_json()).expect("snapshot parses");
    run_pending(&mut resumed, 2, |_| {});
    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "stop-policy resume must be byte-identical"
    );
}

#[test]
fn chained_cells_see_their_predecessors_traces() {
    // Replaying cell k by hand with chain_seeds of the completed prefix
    // must reproduce the campaign's own outcome for cell k — and differ
    // from an unseeded replay (the chain is real, not a no-op).
    let spec = chain_spec();
    let mut snap = CampaignSnapshot::new(spec.clone());
    run_pending(&mut snap, 3, |_| {});

    // Cell 1 is the second fitness cell of the target's chain (cell 2
    // is random, which ignores feedback): replay it with the seeds of
    // the completed prefix {cell 0}.
    let mut prefix = CampaignSnapshot::new(spec.clone());
    prefix.record(0, snap.cells[0].outcome.clone().unwrap());
    let seeds = chain_seeds(&prefix, "docstore-0.8");
    assert!(!seeds.is_empty(), "chain found no traces — weak parameters");
    let replay = run_cell(&snap.cells[1].cell.clone(), &spec, &seeds);
    assert_eq!(
        Some(&replay),
        snap.cells[1].outcome.as_ref(),
        "chained replay must match the campaign's own cell outcome"
    );
    let unseeded = run_cell(&snap.cells[1].cell.clone(), &spec, &TraceSeeds::new());
    assert_ne!(
        Some(&unseeded),
        snap.cells[1].outcome.as_ref(),
        "chaining changed nothing — weak parameters"
    );
}

#[test]
fn chained_campaign_snapshot_and_export_are_byte_identical_on_resume() {
    // The regime where the shared trace store grows: one target, one
    // fitness strategy, three chained seeds. An interrupted run resumed
    // mid-chain must converge to a snapshot AND a streaming export
    // byte-identical to the uninterrupted run's.
    use afex::campaign::CorpusExporter;
    let spec = CampaignSpec {
        targets: vec!["docstore-0.8".into()],
        strategies: vec!["fitness".into()],
        seeds: 3,
        base_seed: 11,
        iterations: 80,
        stop: StopPolicy::Iterations,
        cell_workers: 1.into(),
        timeout: Default::default(),
        metric: None,
    };
    let dir = std::env::temp_dir().join(format!("afex-chain3-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let full_export = dir.join("full.jsonl");
    let mut full = CampaignSnapshot::new(spec.clone());
    let mut exporter = CorpusExporter::create(&full_export).unwrap();
    run_pending(&mut full, 2, |s| exporter.sync(s).unwrap());
    assert!(
        full.store.len() > 1,
        "chain found too few faults — weak parameters"
    );

    // Kill after the first chain cell; resume finishes cells 1 and 2,
    // whose feedback stores must replay the chain identically.
    let resumed_export = dir.join("resumed.jsonl");
    let mut interrupted = CampaignSnapshot::new(spec);
    let mut exporter = CorpusExporter::create(&resumed_export).unwrap();
    let first = run_cell(&interrupted.cells[0].cell.clone(), &interrupted.spec, &TraceSeeds::new());
    interrupted.record(0, first);
    exporter.sync(&interrupted).unwrap();
    drop(exporter);
    let mut resumed =
        CampaignSnapshot::from_json(&interrupted.to_json()).expect("snapshot parses");
    let mut exporter = CorpusExporter::open(&resumed_export).unwrap();
    run_pending(&mut resumed, 3, |s| exporter.sync(s).unwrap());
    drop(exporter);

    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "chained snapshot must be byte-identical after resume"
    );
    assert_eq!(
        std::fs::read(&resumed_export).unwrap(),
        std::fs::read(&full_export).unwrap(),
        "chained export must be byte-identical after resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_cells_resume_to_identical_corpus() {
    // Intra-cell fan-out: a 1-target × 3-seed chained matrix with
    // cell_workers = 2 runs every cell batch-parallel on a manager
    // pool. The window is part of the spec, so an interrupted campaign
    // resumed mid-chain must still converge to byte-identical
    // snapshots — the parallel path is exactly as replayable as the
    // sequential one.
    let spec = CampaignSpec {
        targets: vec!["docstore-0.8".into()],
        strategies: vec!["fitness".into()],
        seeds: 3,
        base_seed: 11,
        iterations: 80,
        stop: StopPolicy::Iterations,
        cell_workers: 2.into(),
        timeout: Default::default(),
        metric: None,
    };
    let mut full = CampaignSnapshot::new(spec.clone());
    run_pending(&mut full, 2, |_| {});
    assert!(full.is_complete());
    assert!(!full.store.is_empty());

    // Rerun: bit-deterministic for the fixed window.
    let mut again = CampaignSnapshot::new(spec.clone());
    run_pending(&mut again, 4, |_| {});
    assert_eq!(
        again.to_json(),
        full.to_json(),
        "parallel cells must be deterministic in the spec's window, not the pool width"
    );

    // Kill after the first chain cell, resume on a different pool.
    let mut interrupted = CampaignSnapshot::from_json(&full.to_json()).unwrap();
    for index in [1usize, 2] {
        interrupted.cells[index].outcome = None;
    }
    interrupted.rebuild_store();
    let mut resumed = CampaignSnapshot::from_json(&interrupted.to_json()).unwrap();
    run_pending(&mut resumed, 3, |_| {});
    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "parallel-cell resume must be byte-identical"
    );
}

#[test]
fn parallel_cells_may_diverge_from_sequential_but_stay_stop_correct() {
    // The in-flight window is the fitness-feedback lag: a fitness cell
    // run with cell_workers = 2 legitimately explores differently than
    // the same cell sequentially. What must hold either way: the stop
    // policy halts the cell at its first satisfying completion plus at
    // most the window.
    let mk = |cell_workers: usize| CampaignSpec {
        targets: vec!["httpd".into()],
        strategies: vec!["fitness".into()],
        seeds: 1,
        base_seed: 5,
        iterations: 300,
        stop: StopPolicy::Crashes(1),
        cell_workers: cell_workers.into(),
        timeout: Default::default(),
        metric: None,
    };
    let run = |cell_workers: usize| {
        let spec = mk(cell_workers);
        let cell = spec.cells().remove(0);
        run_cell(&cell, &spec, &TraceSeeds::new())
    };
    let seq = run(1);
    let par = run(2);
    assert_eq!(seq.crashes, 1, "sequential cell stops at its first crash");
    assert!(par.crashes >= 1, "parallel cell honors the stop policy");
    assert!(
        par.tests < 300,
        "parallel cell must stop early, not run the budget out"
    );
}

#[test]
fn store_dedups_across_strategies_and_seeds() {
    // Two seeds of two strategies over one small target rediscover many
    // of the same faults; the corpus must count each fault once, credited
    // to the first cell in matrix order that found it.
    let spec = CampaignSpec {
        targets: vec!["coreutils".into()],
        strategies: vec!["fitness".into(), "random".into()],
        seeds: 2,
        base_seed: 11,
        iterations: 120,
        stop: StopPolicy::Iterations,
        cell_workers: 1.into(),
        timeout: Default::default(),
        metric: None,
    };
    let mut snap = CampaignSnapshot::new(spec);
    run_pending(&mut snap, 4, |_| {});
    let total_failures: usize = snap
        .cells
        .iter()
        .map(|s| s.outcome.as_ref().unwrap().failures)
        .sum();
    assert!(
        snap.store.len() < total_failures,
        "dedup must collapse rediscoveries: {} unique vs {} raw",
        snap.store.len(),
        total_failures
    );
    for ((target, code), record) in snap.store.iter() {
        assert_eq!(target, "coreutils");
        assert_eq!(*code, record.code);
        // First-in-cell-order credit: no earlier done cell may also have
        // recorded this code.
        for s in snap.cells.iter().take(record.cell) {
            assert!(
                !s.outcome
                    .as_ref()
                    .unwrap()
                    .records
                    .iter()
                    .any(|r| r.code == *code),
                "fault {code} credited to cell {} but found earlier",
                record.cell
            );
        }
    }
}

#[test]
fn minidb_cells_run_the_hunt_path() {
    // The DBMS stand-in runs with the crash-hunter metric by default (the
    // §7.1 "find faults that crash the DBMS" scenario): zero-coverage
    // passing tests must score zero impact.
    let spec = CampaignSpec {
        targets: vec!["minidb".into()],
        strategies: vec!["random".into()],
        seeds: 1,
        base_seed: 5,
        iterations: 30,
        stop: StopPolicy::Iterations,
        cell_workers: 1.into(),
        timeout: Default::default(),
        metric: None,
    };
    let cell = spec.cells().remove(0);
    let outcome = run_cell(&cell, &spec, &TraceSeeds::new());
    assert_eq!(outcome.tests, 30);
    for r in &outcome.records {
        assert!(r.impact > 0.0);
    }
}

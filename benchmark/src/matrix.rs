//! `campaign-matrix`: `run_campaign` with export on and a pool of one
//! worker, while the driver thread checkpoints beside the pool.

use crate::stats::{self, PeakRss, SplitMix};
use crate::trace::Tracer;
use crate::{overhead_pct, Ctx, Report};
use afex::campaign::{
    build_spec, load_resume_snapshot, read_export, run_campaign, run_pending, sweep_stale_tmp,
    validate_snapshot, write_snapshot, CorpusExporter, SpecOptions,
};
use afex::core::campaign::{CampaignReport, CampaignSnapshot};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

const TARGETS: [&str; 4] = [
    "minidb",
    "httpd",
    "vfs:minidb-rewrite",
    "vfs:docstore-recovery",
];
/// Nominal seconds of one campaign on the reference host (3.1-4.8 s
/// measured), so a 20 s run times six campaigns.
const CAMPAIGN_SECS: f64 = 3.5;
/// Resumes of the finished campaign timed for `setup_s`; one ~0.1 s
/// sample is too noisy to stand alone.
const RESUMES: usize = 9;

fn options(base_seed: u64) -> SpecOptions {
    SpecOptions {
        targets: TARGETS.iter().map(|t| (*t).to_owned()).collect(),
        strategies: vec!["fitness".to_owned(), "random".to_owned()],
        seeds: 8,
        base_seed,
        iterations: 2000,
        cell_workers: 1,
        ..SpecOptions::default()
    }
}

/// `run_campaign`, step for step, with spans around the checkpoint and
/// export writes that `run_pending`'s `on_cell` callback makes.
/// Produces the same files as `run_campaign(.., resume = false)`.
fn traced_campaign(
    snap: &mut CampaignSnapshot,
    dir: &Path,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(dir).map_err(io)?;
    sweep_stale_tmp(dir).map_err(io)?;
    let mut exporter = CorpusExporter::create(&dir.join("corpus.jsonl")).map_err(io)?;
    let snap_path = dir.join("campaign.json");
    let root = tracer.open("campaign", None, id);
    let mut first_err: Option<String> = None;
    let mut checkpoint = |s: &CampaignSnapshot, tracer: &mut Tracer| {
        let start = Instant::now();
        let written = write_snapshot(s, &snap_path)
            .and_then(|()| std::fs::metadata(&snap_path).map(|m| m.len()));
        let mid = Instant::now();
        let synced = exporter.sync(s);
        tracer.record("campaign.checkpoint", start, mid, Some(root), id);
        tracer.record("campaign.export", mid, Instant::now(), Some(root), id);
        match (written, synced) {
            (Ok(bytes), Ok(())) => tracer.count("campaign.checkpoint_bytes", bytes),
            (Err(e), _) | (_, Err(e)) => {
                first_err.get_or_insert(e.to_string());
            }
        }
    };
    let mut waiting_since = Instant::now();
    run_pending(snap, 1, |s| {
        let arrived = Instant::now();
        tracer.record("campaign.cell_wait", waiting_since, arrived, Some(root), id);
        tracer.count("campaign.cells", 1);
        checkpoint(s, tracer);
        waiting_since = Instant::now();
    });
    checkpoint(snap, tracer);
    let report = CampaignReport::from_snapshot(snap);
    std::fs::write(dir.join("summary.json"), report.to_json() + "\n").map_err(io)?;
    tracer.close(root);
    first_err.map_or(Ok(()), Err)
}

/// Checks the files a finished campaign left: the export mirrors the
/// snapshot store exactly, and the snapshot validates for resume.
fn check_outputs(dir: &Path, report: &mut Report) -> Result<(), String> {
    let text = std::fs::read_to_string(dir.join("campaign.json")).map_err(|e| e.to_string())?;
    let snap = CampaignSnapshot::from_json(&text).map_err(|e| e.to_string())?;
    report.check(
        "final snapshot passes validate_snapshot",
        validate_snapshot(&snap).is_ok(),
        validate_snapshot(&snap).err().unwrap_or_default(),
    );
    report.check(
        "campaign completes every cell",
        snap.is_complete(),
        format!("{}/{} cells", snap.done_count(), snap.cells.len()),
    );
    let records = read_export(&dir.join("corpus.jsonl")).map_err(|e| e.to_string())?;
    let keys: HashSet<(&str, u64)> = records
        .iter()
        .map(|r| (r.target.as_str(), r.record.code))
        .collect();
    report.check(
        "export has no duplicate records",
        keys.len() == records.len(),
        format!("{} records, {} distinct", records.len(), keys.len()),
    );
    let mirrored = records.len() == snap.store.len()
        && records
            .iter()
            .all(|r| snap.store.get(&r.target, r.record.code) == Some(&r.record));
    report.check(
        "export record set equals the snapshot store",
        mirrored,
        format!("{} exported, {} in store", records.len(), snap.store.len()),
    );
    Ok(())
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let campaigns = ctx.paired_units(CAMPAIGN_SECS, 2);
    let mut rng = SplitMix::new(ctx.seed);
    let mut tests = 0usize;
    let mut rates = Vec::new();
    let mut complete_ms = Vec::new();
    let mut unique = Vec::new();
    let (mut untraced_rate, mut traced_rate) = (Vec::new(), Vec::new());
    let mut peak = PeakRss::default();
    let dir = ctx.out.join("campaign");
    for k in 0..campaigns {
        // Campaign `k` uses the `k`-th base seed derived from `--seed`.
        let spec = build_spec(&options(rng.seed())).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&dir);
        let mut snap = CampaignSnapshot::new(spec.clone());
        peak.start()?;
        let start = Instant::now();
        let outcome = run_campaign(&mut snap, 1, &dir, Some(&dir.join("corpus.jsonl")), false);
        let elapsed = start.elapsed();
        peak.stop()?;
        drop(snap);
        let summary = outcome.map_err(|e| e.to_string())?;
        report.ops(summary.tests_executed as u64);
        report.count(
            &format!("unit{k}.unique_failures"),
            summary.unique_failures as u64,
        );
        tests += summary.tests_executed;
        rates.push(summary.tests_executed as f64 / stats::secs(elapsed));
        complete_ms.push(stats::ms(elapsed));
        unique.push(summary.unique_failures as f64);
        check_outputs(&dir, report)?;
        if ctx.trace {
            let traced_dir = ctx.out.join("campaign-traced");
            let _ = std::fs::remove_dir_all(&traced_dir);
            let mut traced_snap = CampaignSnapshot::new(spec);
            let start = Instant::now();
            traced_campaign(&mut traced_snap, &traced_dir, tracer, k as u64)?;
            let traced_elapsed = start.elapsed();
            let same = ["campaign.json", "corpus.jsonl", "summary.json"]
                .iter()
                .all(|f| std::fs::read(dir.join(f)).ok() == std::fs::read(traced_dir.join(f)).ok());
            report.check(
                "traced campaign writes the same files as run_campaign",
                same,
                format!("campaign {k}: traced files differ"),
            );
            untraced_rate.push(rates[k]);
            traced_rate.push(summary.tests_executed as f64 / stats::secs(traced_elapsed));
            let _ = std::fs::remove_dir_all(&traced_dir);
        }
    }
    // Set-up: what `afex-cli campaign --resume` pays on the finished
    // campaign with nothing pending. It must not change the snapshot.
    let snap_path = dir.join("campaign.json");
    let before = std::fs::read(&snap_path).map_err(|e| e.to_string())?;
    let mut resume_s = Vec::new();
    for i in 0..RESUMES {
        let root = tracer.open("campaign.resume", None, i as u64);
        let start = Instant::now();
        let mut snap = load_resume_snapshot(&snap_path).map_err(|e| e.to_string())?;
        run_campaign(&mut snap, 1, &dir, Some(&dir.join("corpus.jsonl")), true)
            .map_err(|e| e.to_string())?;
        resume_s.push(stats::secs(start.elapsed()));
        tracer.close(root);
    }
    let after = std::fs::read(&snap_path).map_err(|e| e.to_string())?;
    report.check(
        "resume of a finished campaign is a no-op",
        before == after,
        "snapshot changed on resume",
    );
    check_outputs(&dir, report)?;
    report.count("tests", tests as u64);
    if ctx.trace {
        let checkpoints = tracer.durations("campaign.checkpoint");
        let exports = tracer.durations("campaign.export");
        let waits: f64 = tracer.durations("campaign.cell_wait").iter().sum();
        let busy: f64 = tracer.durations("campaign").iter().sum();
        let cells = tracer.counter("campaign.cells");
        let traced_units = tracer.durations("campaign").len();
        let per_campaign = |total: f64| total / traced_units.max(1) as f64;
        report.metric(
            "campaign.checkpoint_ms",
            stats::mean(&checkpoints) * 1e3,
            "ms",
            checkpoints.len(),
        );
        report.metric(
            "campaign.checkpoint_mb",
            per_campaign(tracer.counter("campaign.checkpoint_bytes") as f64) / 1e6,
            "MB",
            checkpoints.len(),
        );
        report.metric(
            "campaign.export_ms",
            stats::mean(&exports) * 1e3,
            "ms",
            exports.len(),
        );
        report.metric(
            "campaign.cells",
            per_campaign(cells as f64),
            "count",
            traced_units,
        );
        report.metric(
            "campaign.cell_wait_share",
            waits / busy,
            "ratio",
            cells as usize,
        );
        let resumes = tracer.durations("campaign.resume");
        report.metric(
            "campaign.resume_ms",
            stats::median(&resumes) * 1e3,
            "ms",
            resumes.len(),
        );
        report.metric(
            "trace.overhead_pct",
            overhead_pct(&untraced_rate, &traced_rate),
            "%",
            traced_rate.len(),
        );
    } else {
        let n = complete_ms.len();
        report.metric("tests_per_s", stats::median(&rates), "1/s", campaigns);
        report.metric(
            "unique_failures",
            stats::low_median(&unique),
            "count",
            campaigns,
        );
        report.metric("setup_s", stats::median(&resume_s), "s", resume_s.len());
        report.metric("peak_rss_mb", peak.mb(), "MB", campaigns);
        report.metric("complete_p50_ms", stats::median(&complete_ms), "ms", n);
        report.metric(
            "complete_p90_ms",
            stats::quantile(&complete_ms, 0.9),
            "ms",
            n,
        );
    }
    report.context("units", campaigns);
    report.context(
        "unit",
        "one 64-cell run_campaign (4 targets x 2 strategies x 8 seeds, 2000 iterations)",
    );
    report.context("in_flight_tests", 1);
    report.context("threads", 2);
    report.context("connections", 0);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

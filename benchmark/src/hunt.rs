//! `hunt-minidb` and `proc-sweep`: fitness hunts through `run_hunt`,
//! the call `afex-cli hunt` makes, one test in flight.

use crate::stats::{self, PeakRss, SplitMix};
use crate::trace::{TracedExplorer, Tracer};
use crate::{overhead_pct, Ctx, Report};
use afex::campaign::{
    default_metric, proc_target_space, run_hunt, run_proc_windowed, run_windowed, target_space,
    HuntSpec,
};
use afex::core::campaign::TestTimeout;
use afex::core::{
    Evaluation, Explore, ExplorerConfig, ProcessRunner, SearchStrategy, SessionResult,
    StopCondition, TraceStore,
};
use afex::inject::TestStatus;
use afex::space::Point;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Tests per `hunt-minidb` hunt. At this history the candidate
/// generation of Algorithm 1 is about half of the wall time.
const MINIDB_BUDGET: usize = 20_000;
/// Nominal seconds of one `hunt-minidb` hunt on the reference host.
const MINIDB_HUNT_SECS: f64 = 1.25;
/// Crash points re-executed per hunt by the output check.
const REEXECUTE_PER_HUNT: usize = 16;
/// Set-up samples per hunt: one sample is well under a millisecond.
const SETUP_SAMPLES: usize = 10;

/// The `proc-sweep` targets. `proc:victim-spin` is left out: its tests
/// only measure the watchdog timeout.
const PROC_TARGETS: [&str; 3] = [
    "proc:victim-alloc-unchecked",
    "proc:victim-alloc",
    "proc:victim-read-file",
];
/// Each `proc:*` space has 20 points; a 20-test hunt sweeps it.
const PROC_BUDGET: usize = 20;
/// Nominal seconds of one round (one sweep per target).
const PROC_ROUND_SECS: f64 = 0.45;

/// The hunt `afex-cli hunt --workers 1` runs: fitness search with the
/// target's own metric, feedback off, a fixed iteration budget.
fn spec(target: &str, seed: u64, budget: usize) -> HuntSpec {
    HuntSpec {
        target: target.to_owned(),
        stop: StopCondition::Iterations(budget),
        seed,
        workers: 1,
        metric: default_metric(target),
        feedback: false,
        timeout: TestTimeout::default(),
    }
}

fn strategy() -> SearchStrategy {
    SearchStrategy::Fitness(ExplorerConfig {
        redundancy_feedback: false,
        ..ExplorerConfig::default()
    })
}

/// The target a hunt resolved, plus its built explorer: what `run_hunt`
/// prepares before the first test.
enum Prepared {
    Simulated(afex::targets::spaces::TargetSpace, Box<dyn Explore>),
    Process(afex::targets::proc::ProcTargetSpace, Box<dyn Explore>),
}

/// Resolves the target and builds the explorer with the same public
/// calls `run_hunt` makes first; for live binaries that includes
/// artifact resolution and the runner's stale-sandbox sweep.
fn prepare(hunt: &HuntSpec) -> Result<(Duration, Prepared), String> {
    let start = Instant::now();
    let prepared = if hunt.target.starts_with("proc:") {
        let ps = proc_target_space(&hunt.target)?;
        drop(ProcessRunner::new(hunt.timeout.0));
        let explorer = strategy().build(ps.space_arc(), hunt.seed, TraceStore::new());
        Prepared::Process(ps, explorer)
    } else {
        let ts = target_space(&hunt.target).ok_or("unknown simulated target")?;
        let explorer = strategy().build(ts.space_arc(), hunt.seed, TraceStore::new());
        Prepared::Simulated(ts, explorer)
    };
    Ok((start.elapsed(), prepared))
}

/// One hunt as a user runs it: the whole `run_hunt` call is timed.
fn untraced(hunt: &HuntSpec) -> Result<(Duration, SessionResult), String> {
    let start = Instant::now();
    let result = run_hunt(hunt)?;
    Ok((start.elapsed(), result))
}

/// The same hunt with the explorer wrapped: `run_hunt`'s own dispatch
/// (`run_windowed` / `run_proc_windowed`) on a prepared explorer.
fn traced(
    hunt: &HuntSpec,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(Duration, SessionResult), String> {
    let (_, prepared) = prepare(hunt)?;
    let root = tracer.open("hunt", None, id);
    let start = Instant::now();
    let result = match prepared {
        Prepared::Simulated(ts, mut explorer) => {
            let mut wrapped =
                TracedExplorer::new(explorer.as_mut(), tracer, root, id, "targets.execute");
            run_windowed(
                &ts,
                hunt.metric.clone(),
                &mut wrapped,
                hunt.stop,
                hunt.workers,
            )
        }
        Prepared::Process(ps, mut explorer) => {
            let mut wrapped =
                TracedExplorer::new(explorer.as_mut(), tracer, root, id, "process.execute");
            run_proc_windowed(
                &ps,
                hunt.metric.clone(),
                &mut wrapped,
                hunt.stop,
                hunt.workers,
                hunt.timeout.0,
            )
        }
    };
    let elapsed = start.elapsed();
    tracer.close(root);
    Ok((elapsed, result))
}

/// A digest of a session: every test's point and evaluation, in order.
/// Comparing digests instead of whole sessions keeps only one session
/// alive at a time, so `peak_rss_mb` does not depend on how many were
/// compared.
fn digest(result: &SessionResult) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for t in &result.executed {
        let e = &t.evaluation;
        (
            &t.point,
            t.iteration,
            e.impact.to_bits(),
            e.crashed,
            e.failed,
            e.hung,
        )
            .hash(&mut h);
        (e.triggered, e.trace.as_deref(), e.blocks).hash(&mut h);
    }
    h.finish()
}

/// One unit of fixed work: its tests, timed wall time and distinct
/// failing points.
#[derive(Default)]
struct Unit {
    tests: usize,
    wall: Duration,
    failing: HashSet<(String, Point)>,
}

/// What a run's hunts measured. Finished units keep only their counts,
/// so memory does not grow with the number of units.
#[derive(Default)]
struct Tally {
    units: Vec<(usize, Duration, usize)>,
    setup: Vec<f64>,
    complete_ms: Vec<f64>,
    untraced_rate: Vec<f64>,
    traced_rate: Vec<f64>,
    peak: PeakRss,
}

impl Tally {
    /// Runs one hunt into `unit`: the untraced hunt, and with
    /// `--trace 1` the traced rerun, which must reproduce it exactly.
    /// Returns the untraced session.
    fn hunt(
        &mut self,
        ctx: &Ctx,
        hunt: &HuntSpec,
        unit: &mut Unit,
        report: &mut Report,
        tracer: &mut Tracer,
    ) -> Result<SessionResult, String> {
        for _ in 0..SETUP_SAMPLES {
            self.setup.push(stats::secs(prepare(hunt)?.0));
        }
        self.peak.start()?;
        let (elapsed, result) = untraced(hunt)?;
        self.peak.stop()?;
        report.ops(result.len() as u64);
        if ctx.trace {
            let id = self.complete_ms.len() as u64;
            let (traced_elapsed, traced_result) = traced(hunt, tracer, id)?;
            report.check(
                "traced hunt reproduces run_hunt",
                digest(&traced_result) == digest(&result),
                format!("{} seed {}: traced run diverged", hunt.target, hunt.seed),
            );
            self.untraced_rate
                .push(result.len() as f64 / stats::secs(elapsed));
            self.traced_rate
                .push(traced_result.len() as f64 / stats::secs(traced_elapsed));
        }
        unit.tests += result.len();
        unit.wall += elapsed;
        self.complete_ms.push(stats::ms(elapsed));
        for t in result.executed.iter().filter(|t| t.evaluation.failed) {
            unit.failing.insert((hunt.target.clone(), t.point.clone()));
        }
        Ok(result)
    }

    fn push(&mut self, unit: Unit) {
        self.units.push((unit.tests, unit.wall, unit.failing.len()));
    }

    fn finish(&self, ctx: &Ctx, report: &mut Report) {
        let tests: usize = self.units.iter().map(|u| u.0).sum();
        let failing: Vec<f64> = self.units.iter().map(|u| u.2 as f64).collect();
        report.count("tests", tests as u64);
        for (k, u) in self.units.iter().enumerate() {
            report.count(&format!("unit{k}.unique_failures"), u.2 as u64);
        }
        if ctx.trace {
            report.metric(
                "trace.overhead_pct",
                overhead_pct(&self.untraced_rate, &self.traced_rate),
                "%",
                self.traced_rate.len(),
            );
            return;
        }
        let rates: Vec<f64> = self
            .units
            .iter()
            .map(|u| u.0 as f64 / stats::secs(u.1))
            .collect();
        let units = self.units.len();
        let n = self.complete_ms.len();
        report.metric("tests_per_s", stats::median(&rates), "1/s", units);
        report.metric(
            "unique_failures",
            stats::low_median(&failing),
            "count",
            units,
        );
        report.metric("setup_s", stats::median(&self.setup), "s", self.setup.len());
        report.metric("peak_rss_mb", self.peak.mb(), "MB", units);
        report.metric("complete_p50_ms", stats::median(&self.complete_ms), "ms", n);
        report.metric(
            "complete_p90_ms",
            stats::quantile(&self.complete_ms, 0.9),
            "ms",
            n,
        );
    }
}

/// The outcome class a test was recorded with.
fn recorded_class(e: &Evaluation) -> &'static str {
    if e.crashed {
        "crashed"
    } else if e.hung {
        "hung"
    } else if e.failed {
        "failed"
    } else {
        "passed"
    }
}

fn status_class(s: &TestStatus) -> &'static str {
    match s {
        TestStatus::Crashed(_) => "crashed",
        TestStatus::Hung => "hung",
        TestStatus::Failed => "failed",
        TestStatus::Passed => "passed",
    }
}

/// `hunt-minidb`: fitness hunts on minidb (2.18M points) with its
/// crash-hunter metric, one hunt per unit. Hunt `k` uses the `k`-th
/// seed derived from `--seed`; the first hunt is repeated at the end
/// and must reproduce exactly.
pub fn minidb(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let hunts = ctx.paired_units(MINIDB_HUNT_SECS, 3);
    let mut rng = SplitMix::new(ctx.seed);
    let seeds: Vec<u64> = (0..hunts).map(|_| rng.seed()).collect();
    let ts = target_space("minidb").ok_or("minidb target missing")?;
    let mut tally = Tally::default();
    let mut first = None;
    for &seed in &seeds {
        let hunt = spec("minidb", seed, MINIDB_BUDGET);
        let mut unit = Unit::default();
        let result = tally.hunt(ctx, &hunt, &mut unit, report, tracer)?;
        tally.push(unit);
        report.check(
            "hunt spends its budget",
            result.len() == MINIDB_BUDGET,
            format!("seed {seed}: {} of {MINIDB_BUDGET} tests", result.len()),
        );
        // Output check: a seeded sample of the reported crash points,
        // re-executed, must crash again.
        let crashed: Vec<_> = result
            .executed
            .iter()
            .filter(|t| t.evaluation.crashed)
            .collect();
        report.check(
            "hunt finds crashes",
            !crashed.is_empty(),
            format!("seed {seed}: no crash in {MINIDB_BUDGET} tests"),
        );
        for _ in 0..REEXECUTE_PER_HUNT.min(crashed.len()) {
            let test = crashed[rng.below(crashed.len() as u64) as usize];
            let again = status_class(&ts.execute(&test.point).status);
            let want = recorded_class(&test.evaluation);
            report.check(
                "re-executed crash keeps its outcome class",
                again == want,
                format!(
                    "point {:?}: recorded {want}, re-executed {again}",
                    test.point
                ),
            );
        }
        first.get_or_insert_with(|| digest(&result));
    }
    if !ctx.trace {
        // Determinism probe: the first hunt again, outside the tally.
        let (_, again) = untraced(&spec("minidb", seeds[0], MINIDB_BUDGET))?;
        report.ops(again.len() as u64);
        report.check(
            "hunt repeats exactly for a fixed seed",
            Some(digest(&again)) == first,
            format!("seed {}: rerun diverged", seeds[0]),
        );
    }
    tally.finish(ctx, report);
    report.context("units", hunts);
    report.context("unit", "one 20000-test run_hunt on minidb");
    report.context("in_flight_tests", 1);
    report.context("threads", 1);
    report.context("connections", 0);
    Ok(())
}

/// Sandbox directories the process runner left behind.
fn leftover_sandboxes() -> usize {
    let root = afex::core::process::default_sandbox_root();
    std::fs::read_dir(root).map_or(0, |entries| entries.flatten().count())
}

/// `proc-sweep`: rounds of 20-test hunts over three live-binary
/// targets. Each test spawns the victim under the `LD_PRELOAD` shim in
/// its own sandbox; round `r` hunts every target with the `r`-th seed.
pub fn proc_sweep(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let rounds = ctx.paired_units(PROC_ROUND_SECS, 3);
    let mut rng = SplitMix::new(ctx.seed);
    let mut tally = Tally::default();
    for _ in 0..rounds {
        let seed = rng.seed();
        let mut unit = Unit::default();
        for target in PROC_TARGETS {
            let hunt = spec(target, seed, PROC_BUDGET);
            let result = tally.hunt(ctx, &hunt, &mut unit, report, tracer)?;
            // A short session means the executor died mid-sweep.
            report.check(
                "sweep covers the space",
                result.len() == PROC_BUDGET,
                format!(
                    "{target} seed {seed}: {} of {PROC_BUDGET} tests",
                    result.len()
                ),
            );
            let crashes = result.crashes();
            match target {
                "proc:victim-alloc-unchecked" => report.check(
                    "unchecked allocation crashes",
                    crashes >= 1,
                    format!("seed {seed}: no crash"),
                ),
                "proc:victim-read-file" => report.check(
                    "read-file never crashes",
                    crashes == 0,
                    format!("seed {seed}: {crashes} crashes"),
                ),
                _ => {}
            }
        }
        tally.push(unit);
    }
    let left = leftover_sandboxes();
    report.check(
        "no sandbox directories left",
        left == 0,
        format!("{left} left under the sandbox root"),
    );
    tally.finish(ctx, report);
    report.context("units", rounds);
    report.context("unit", "one round: a 20-test run_hunt per proc:* target");
    report.context("in_flight_tests", 1);
    report.context("threads", 1);
    report.context("connections", 0);
    Ok(())
}

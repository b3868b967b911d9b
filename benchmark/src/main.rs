//! The AFEX benchmark: one seeded, fixed-work workload per process.
//!
//! ```text
//! afex-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! `benchmark/run.py` builds the program, runs this binary once per
//! workload and turns its report (the last stdout line) into the
//! benchmark's result line. With `--trace 0` the report carries the
//! end-to-end metrics; with `--trace 1` every hunt and campaign runs
//! twice, untraced and traced (the daemon alternates untraced and traced
//! rounds), and the report carries the per-layer metrics plus the
//! tracing overhead. README.md describes the workloads, the
//! metrics and why each exists.

mod daemon;
mod hunt;
mod matrix;
mod stats;
mod trace;

use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;
use trace::Tracer;

/// What one invocation was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run (campaign dirs, the daemon root,
    /// the span file). Relative to the working directory, which keeps
    /// the daemon's socket path short.
    pub out: PathBuf,
}

impl Ctx {
    /// How many fixed units of work fill `--seconds` when one unit
    /// nominally takes `unit_secs` on the reference host — a pure
    /// function of the arguments, so the same seed and duration always
    /// do the same work.
    pub fn units(&self, unit_secs: f64, min: usize) -> usize {
        ((self.seconds / unit_secs).round() as usize).max(min)
    }

    /// [`Self::units`] for workloads that run every unit twice under
    /// `--trace 1` (untraced, then traced): half as many then, so a
    /// traced run takes about as long as an untraced one.
    pub fn paired_units(&self, unit_secs: f64, min: usize) -> usize {
        let units = self.units(unit_secs, min);
        if self.trace {
            units.div_ceil(2).max(min)
        } else {
            units
        }
    }
}

/// Everything a run reports: operations attempted and failed, output
/// checks, metrics (value, unit and the sample count behind each), the
/// exact counts the determinism ledger compares across runs, and the
/// run's context.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool, String)>,
    metrics: Vec<(String, Value)>,
    counts: Vec<(String, Value)>,
    context: Vec<(String, Value)>,
}

impl Report {
    /// Counts operations that ran without an error.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// One checked operation or output check; a failure counts into
    /// `failed` and is listed with its detail.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let detail = detail.into();
            eprintln!("CHECK FAILED: {name}: {detail}");
            self.checks.push((name.to_owned(), false, detail));
        } else if !self.checks.iter().any(|(n, _, _)| n == name) {
            self.checks.push((name.to_owned(), true, String::new()));
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        let fields = [
            ("value", value.to_value()),
            ("unit", unit.to_value()),
            ("samples", samples.to_value()),
        ];
        self.metrics.push((name.to_owned(), object(fields)));
    }

    /// An exact count that must repeat for a fixed seed.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_owned(), value.to_value()));
    }

    pub fn context(&mut self, key: &str, value: impl Serialize) {
        self.context.push((key.to_owned(), value.to_value()));
    }

    fn has_metric(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _)| n == name)
    }

    fn into_json(self) -> String {
        let checks = self.checks.iter().map(|(name, ok, detail)| {
            object([
                ("name", name.to_value()),
                ("ok", ok.to_value()),
                ("detail", detail.to_value()),
            ])
        });
        let report = object([
            ("attempted", self.attempted.to_value()),
            ("failed", self.failed.to_value()),
            ("checks", Value::Array(checks.collect())),
            ("metrics", Value::Object(self.metrics)),
            ("counts", Value::Object(self.counts)),
            ("context", Value::Object(self.context)),
        ]);
        serde_json::to_string(&report).expect("a value tree always serializes")
    }
}

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_owned(), v)).into())
}

/// Every per-layer metric and its unit. Layers a workload does not
/// exercise report 0 with 0 samples, so each traced result has the
/// same shape.
const PER_LAYER: [(&str, &str); 23] = [
    ("explore.generate_us", "us"),
    ("explore.complete_us", "us"),
    ("explore.candidates", "count"),
    ("targets.execute_us", "us"),
    ("targets.tests", "count"),
    ("process.execute_ms_p50", "ms"),
    ("process.execute_ms_p90", "ms"),
    ("process.spawns", "count"),
    ("campaign.checkpoint_ms", "ms"),
    ("campaign.checkpoint_mb", "MB"),
    ("campaign.export_ms", "ms"),
    ("campaign.cells", "count"),
    ("campaign.cell_wait_share", "ratio"),
    ("campaign.resume_ms", "ms"),
    ("protocol.submit_ms_p50", "ms"),
    ("protocol.submit_ms_p90", "ms"),
    ("protocol.status_ms_p50", "ms"),
    ("protocol.status_ms_p90", "ms"),
    ("protocol.requests", "count"),
    ("service.preseed_kb", "KB"),
    ("service.in_daemon_ms_p50", "ms"),
    ("service.replay_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The explorer, target and process layers, from the spans the
/// explorer wrapper recorded.
fn explorer_layers(tracer: &Tracer, report: &mut Report) {
    let generate = tracer.durations("explore.generate");
    let complete = tracer.durations("explore.complete");
    let execute = tracer.durations("targets.execute");
    let process: Vec<f64> = tracer
        .durations("process.execute")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    report.metric(
        "explore.generate_us",
        stats::mean(&generate) * 1e6,
        "us",
        generate.len(),
    );
    report.metric(
        "explore.complete_us",
        stats::mean(&complete) * 1e6,
        "us",
        complete.len(),
    );
    let candidates = tracer.counter("explore.candidates");
    report.metric(
        "explore.candidates",
        candidates as f64,
        "count",
        generate.len(),
    );
    report.metric(
        "targets.execute_us",
        stats::mean(&execute) * 1e6,
        "us",
        execute.len(),
    );
    report.metric(
        "targets.tests",
        execute.len() as f64,
        "count",
        execute.len(),
    );
    report.metric(
        "process.execute_ms_p50",
        stats::median(&process),
        "ms",
        process.len(),
    );
    report.metric(
        "process.execute_ms_p90",
        stats::quantile(&process, 0.9),
        "ms",
        process.len(),
    );
    report.metric(
        "process.spawns",
        process.len() as f64,
        "count",
        process.len(),
    );
}

/// `100 × (untraced − traced) / untraced` over paired tests/s samples.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let base = stats::median(untraced);
    if base == 0.0 {
        return 0.0;
    }
    100.0 * (base - stats::median(traced)) / base
}

fn usage() -> ! {
    eprintln!(
        "usage: afex-benchmark --workload <hunt-minidb|campaign-matrix|daemon-vfs|proc-sweep> \
         --seed <n> --seconds <s> --trace <0|1> --out <dir>"
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage())
    };
    let seconds: f64 = get("--seconds").parse().unwrap_or_else(|_| usage());
    if !seconds.is_finite() || seconds <= 0.0 {
        usage();
    }
    Ctx {
        workload: get("--workload"),
        seed: get("--seed").parse().unwrap_or_else(|_| usage()),
        seconds,
        trace: match get("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
        out: PathBuf::from(get("--out")),
    }
}

fn main() {
    let ctx = parse_args();
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("cannot create {}: {e}", ctx.out.display());
        std::process::exit(1);
    }
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let outcome = match ctx.workload.as_str() {
        "hunt-minidb" => hunt::minidb(&ctx, &mut report, &mut tracer),
        "proc-sweep" => hunt::proc_sweep(&ctx, &mut report, &mut tracer),
        "campaign-matrix" => matrix::run(&ctx, &mut report, &mut tracer),
        "daemon-vfs" => daemon::run(&ctx, &mut report, &mut tracer),
        _ => usage(),
    };
    if let Err(e) = outcome {
        // A workload that cannot finish has no result to report.
        eprintln!("{}: {e}", ctx.workload);
        std::process::exit(1);
    }
    if ctx.trace {
        explorer_layers(&tracer, &mut report);
        for (name, unit) in PER_LAYER {
            if !report.has_metric(name) {
                report.metric(name, 0.0, unit, 0);
            }
        }
        let spans = ctx.out.join("spans.tsv");
        if let Err(e) = tracer.write(&spans) {
            eprintln!("cannot write {}: {e}", spans.display());
            std::process::exit(1);
        }
        report.context("spans", spans.display().to_string());
    }
    println!("{}", report.into_json());
}

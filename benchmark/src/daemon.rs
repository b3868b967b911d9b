//! `daemon-vfs`: the real `afex-cli serve --workers 1` daemon driven by
//! one closed-loop client over its Unix socket.
//!
//! Two measurement traps shape this file:
//!
//! - The daemon's accept loop sleeps 25 ms whenever it is idle, so any
//!   latency read through `status` polls snaps to 25 ms steps. The
//!   client therefore detects completion from the campaign's
//!   `summary.json` landing, and waits a seeded random think time
//!   between rounds so its submits are not in phase with the sleep.
//! - One restart replay takes ~0.15 s and varies by ±25 %, so `setup_s`
//!   is the median of several restarts, never a single sample.

use crate::stats::{self, SplitMix};
use crate::trace::Tracer;
use crate::{overhead_pct, Ctx, Report};
use afex::campaign::{read_export, SpecOptions};
use afex::core::campaign::CampaignReport;
use afex::protocol::{request, Request, Response};
use std::collections::HashSet;
use std::io::BufRead as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Nominal seconds of one round (think, submit, campaign, status).
const ROUND_SECS: f64 = 0.1;
/// At least this many campaigns, so p90 has ten samples beyond it.
const MIN_ROUNDS: usize = 100;
/// Restarts timed for `setup_s`.
const RESTARTS: usize = 7;
/// Think time between rounds: uniform in `[1, 26)` ms, one full period
/// of the 25 ms accept sleep, so a submit lands at a uniform phase.
const THINK_MIN_US: u64 = 1_000;
const THINK_SPAN_US: u64 = 25_000;
/// A campaign that has not landed its summary by then is an error.
const COMPLETE_TIMEOUT: Duration = Duration::from_secs(60);
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// One running daemon. Dropping it kills and reaps the process, so no
/// exit path of the benchmark leaves a daemon behind.
struct Daemon {
    child: Child,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon and waits for its `listening` line; returns it
    /// with the time from spawn to that line (restart replay included).
    fn start(
        cli: &Path,
        socket: &Path,
        root: &Path,
        log: &Path,
    ) -> Result<(Self, Duration), String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
        let start = Instant::now();
        let mut child = Command::new(cli)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--root")
            .arg(root)
            .args(["--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Keep draining stdout until the daemon exits, so its shutdown
        // messages never hit a closed pipe.
        let reader = std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            stdout: Some(reader),
        };
        loop {
            match rx.recv_timeout(START_TIMEOUT.saturating_sub(start.elapsed())) {
                Ok(line) if line.contains("listening on") => return Ok((daemon, start.elapsed())),
                Ok(_) => {}
                Err(_) => {
                    let status = daemon.child.try_wait().ok().flatten();
                    return Err(format!("daemon did not start listening (exit: {status:?})"));
                }
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Waits for the daemon to exit after a `Shutdown` request.
    fn wait(mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// The campaign each round submits.
fn options(base_seed: u64) -> SpecOptions {
    SpecOptions {
        targets: vec![
            "vfs:minidb-rewrite".to_owned(),
            "vfs:docstore-recovery".to_owned(),
        ],
        strategies: vec!["fitness".to_owned()],
        seeds: 1,
        base_seed,
        iterations: 300,
        cell_workers: 1,
        ..SpecOptions::default()
    }
}

/// Polls for `summary.json` to land complete (it is written in place,
/// so a partial read is retried) and returns the parsed report.
fn await_summary(path: &Path) -> Result<CampaignReport, String> {
    let start = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if text.ends_with('\n') {
                if let Ok(summary) = serde_json::from_str::<CampaignReport>(&text) {
                    return Ok(summary);
                }
            }
        }
        if start.elapsed() > COMPLETE_TIMEOUT {
            return Err(format!("{} did not land", path.display()));
        }
        std::thread::sleep(Duration::from_micros(250));
    }
}

/// The client end of the socket: every request is timed and counted,
/// and protocol errors count into the report.
struct Client<'a> {
    socket: &'a Path,
    requests: usize,
}

impl Client<'_> {
    fn send(&mut self, req: &Request, report: &mut Report) -> (Duration, Option<Response>) {
        self.requests += 1;
        let start = Instant::now();
        let reply = request(self.socket, req);
        let elapsed = start.elapsed();
        match reply {
            Ok(Response::Error(e)) => {
                report.check("protocol request succeeds", false, format!("{req:?}: {e}"));
                (elapsed, None)
            }
            Ok(resp) => {
                report.check("protocol request succeeds", true, "");
                (elapsed, Some(resp))
            }
            Err(e) => {
                report.check("protocol request succeeds", false, format!("{req:?}: {e}"));
                (elapsed, None)
            }
        }
    }
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let cli = exe.with_file_name("afex-cli");
    if !cli.is_file() {
        return Err(format!(
            "{} is missing; build afex-cli first",
            cli.display()
        ));
    }
    let rounds = ctx.units(ROUND_SECS, MIN_ROUNDS);
    let root = ctx.out.join("root");
    let socket = ctx.out.join("daemon.sock");
    let log = ctx.out.join("daemon.log");
    let _ = std::fs::remove_dir_all(&root);
    let mut rng = SplitMix::new(ctx.seed);
    let mut client = Client {
        socket: &socket,
        requests: 0,
    };

    let (daemon, _) = Daemon::start(&cli, &socket, &root, &log)?;
    let mut complete_ms = Vec::new();
    let (mut tests, mut busy) = (0usize, Duration::ZERO);
    let (mut untraced, mut traced) = ((0usize, Duration::ZERO), (0usize, Duration::ZERO));
    let mut ids = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let think = THINK_MIN_US + rng.below(THINK_SPAN_US);
        let opts = options(rng.seed());
        std::thread::sleep(Duration::from_micros(think));
        // With --trace 1, odd rounds record spans and even rounds do
        // not; the two halves give the tracing overhead.
        let traced_round = ctx.trace && round % 2 == 1;
        let sent = Instant::now();
        let (_, reply) = client.send(&Request::Submit(opts), report);
        let acked = Instant::now();
        let Some(Response::Submitted { id }) = reply else {
            return Err(format!("round {round}: submit was not accepted"));
        };
        ids.push(id);
        let summary_path = root
            .join("campaigns")
            .join(id.to_string())
            .join("summary.json");
        let summary = await_summary(&summary_path)?;
        let done = Instant::now();
        let (status, row) = client.send(&Request::Status { id }, report);
        let row_ok = matches!(&row, Some(Response::Status(r))
            if r.status.complete && r.error.is_none() && r.failed.is_none());
        report.check(
            "campaign row complete without error",
            row_ok,
            format!("campaign {id}: {row:?}"),
        );
        report.check(
            "summary covers every cell",
            summary.cells_done == summary.cells_total,
            format!(
                "campaign {id}: {}/{} cells",
                summary.cells_done, summary.cells_total
            ),
        );
        report.ops(summary.tests_executed as u64);
        tests += summary.tests_executed;
        busy += done - sent;
        complete_ms.push(stats::ms(done - sent));
        let half = if traced_round {
            &mut traced
        } else {
            &mut untraced
        };
        half.0 += summary.tests_executed;
        half.1 += done - sent;
        if traced_round {
            let span = tracer.record("daemon.round", sent, Instant::now(), None, id);
            tracer.record("protocol.submit", sent, acked, Some(span), id);
            tracer.record("service.in_daemon", acked, done, Some(span), id);
            tracer.record("protocol.status", done, done + status, Some(span), id);
        }
    }
    let (_, listed) = client.send(&Request::List, report);
    let all_ok = matches!(&listed, Some(Response::List(rows))
        if rows.len() == rounds
            && rows.iter().all(|r| r.status.complete && r.error.is_none() && r.failed.is_none()));
    report.check(
        "every campaign listed complete without error",
        all_ok,
        "list disagrees",
    );
    let peak_rss = stats::peak_rss_mb(&daemon.pid()).ok_or("cannot read the daemon's VmHWM")?;
    let last_dir = root
        .join("campaigns")
        .join(ids.last().copied().unwrap_or(0).to_string());
    let preseed_kb = std::fs::metadata(last_dir.join("preseed.json"))
        .map(|m| m.len() as f64 / 1024.0)
        .map_err(|e| format!("preseed.json: {e}"))?;
    // Distinct failing points over every campaign's exported corpus.
    let mut failing: HashSet<(String, u64)> = HashSet::new();
    for id in &ids {
        let corpus = root
            .join("campaigns")
            .join(id.to_string())
            .join("corpus.jsonl");
        for rec in read_export(&corpus).map_err(|e| format!("{}: {e}", corpus.display()))? {
            failing.insert((rec.target, rec.record.code));
        }
    }
    client.send(&Request::Shutdown, report);
    daemon.wait()?;

    // Set-up: restart replay on the root the stream left behind.
    let mut replay_s = Vec::new();
    for i in 0..RESTARTS {
        let (daemon, replay) = Daemon::start(&cli, &socket, &root, &log)?;
        let listening = Instant::now();
        replay_s.push(stats::secs(replay));
        tracer.record(
            "service.replay",
            listening - replay,
            listening,
            None,
            i as u64,
        );
        let (_, health) = client.send(&Request::Health, report);
        let healthy = matches!(&health, Some(Response::Health(h))
            if h.quarantined.is_empty() && h.failed.is_empty() && h.degraded.is_empty()
                && h.complete == rounds);
        report.check(
            "health after restart: every campaign complete, none quarantined",
            healthy,
            format!("restart {i}: {health:?}"),
        );
        client.send(&Request::Shutdown, report);
        daemon.wait()?;
    }

    report.count("tests", tests as u64);
    report.count("unique_failures", failing.len() as u64);
    if ctx.trace {
        let traced_submit: Vec<f64> = tracer
            .durations("protocol.submit")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let traced_status: Vec<f64> = tracer
            .durations("protocol.status")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let traced_in_daemon: Vec<f64> = tracer
            .durations("service.in_daemon")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let replays = tracer.durations("service.replay");
        let n = traced_submit.len();
        report.metric(
            "protocol.submit_ms_p50",
            stats::median(&traced_submit),
            "ms",
            n,
        );
        report.metric(
            "protocol.submit_ms_p90",
            stats::quantile(&traced_submit, 0.9),
            "ms",
            n,
        );
        report.metric(
            "protocol.status_ms_p50",
            stats::median(&traced_status),
            "ms",
            n,
        );
        report.metric(
            "protocol.status_ms_p90",
            stats::quantile(&traced_status, 0.9),
            "ms",
            n,
        );
        report.metric("protocol.requests", client.requests as f64, "count", 1);
        report.metric("service.preseed_kb", preseed_kb, "KB", 1);
        report.metric(
            "service.in_daemon_ms_p50",
            stats::median(&traced_in_daemon),
            "ms",
            n,
        );
        report.metric(
            "service.replay_ms",
            stats::median(&replays) * 1e3,
            "ms",
            replays.len(),
        );
        let rate = |(t, d): (usize, Duration)| t as f64 / stats::secs(d);
        report.metric(
            "trace.overhead_pct",
            overhead_pct(&[rate(untraced)], &[rate(traced)]),
            "%",
            n,
        );
    } else {
        let n = complete_ms.len();
        report.metric("tests_per_s", tests as f64 / stats::secs(busy), "1/s", n);
        report.metric("unique_failures", failing.len() as f64, "count", n);
        report.metric("setup_s", stats::median(&replay_s), "s", replay_s.len());
        report.metric("peak_rss_mb", peak_rss, "MB", 1);
        report.metric("complete_p50_ms", stats::median(&complete_ms), "ms", n);
        report.metric(
            "complete_p90_ms",
            stats::quantile(&complete_ms, 0.9),
            "ms",
            n,
        );
    }
    report.context("units", rounds);
    report.context(
        "unit",
        "one submitted 2-cell vfs campaign (300 iterations) to its summary.json",
    );
    report.context("in_flight_tests", 1);
    report.context("threads", 2);
    report.context("connections", 1);
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}

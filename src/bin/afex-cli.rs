//! `afex-cli` — run fault-exploration sessions from the command line.
//!
//! ```text
//! afex-cli describe --target <name>
//! afex-cli explore  --target <name> [--strategy fitness|random|exhaustive|genetic]
//!                   [--iterations N] [--seed S] [--metric default|paper|crash]
//!                   [--feedback] [--json]
//! afex-cli render   --target <name> --point i,j,k
//! afex-cli hunt     --target <name> [--crashes N | --failures N]
//!                   [--iterations cap] [--seed S] [--workers W]
//!                   [--timeout 10s] [--metric default|paper|crash]
//!                   [--feedback] [--json]
//! afex-cli campaign --targets a,b,c --out dir/
//!                   [--strategies fitness,random] [--seeds N] [--seed S]
//!                   [--iterations M] [--workers W] [--cell-workers C]
//!                   [--timeout 10s] [--metric ...]
//!                   [--stop iterations|failures:N|crashes:N]
//!                   [--export corpus.jsonl] [--resume] [--json]
//! afex-cli serve    --socket PATH --root dir/ [--workers W]
//! afex-cli submit   --socket PATH --targets a,b,c [campaign spec flags]
//! afex-cli status   --socket PATH [--id N] [--json]
//! afex-cli inspect  --socket PATH --id N [--json]
//! afex-cli top-failures --socket PATH --id N [--limit K]
//! afex-cli health   --socket PATH [--json]
//! afex-cli shutdown --socket PATH
//! ```
//!
//! `serve` runs the campaign service: one daemon multiplexing many
//! campaigns on a shared worker pool (fair round-robin per cell), with
//! cross-campaign trace preseeding per target and crash-safe durable
//! state under `--root` — `kill -9` it, restart it on the same root,
//! and every in-flight campaign resumes byte-identically. The other
//! five subcommands are thin protocol clients. SIGINT/SIGTERM (or a
//! `shutdown` request) drain gracefully: in-flight cells finish and
//! checkpoint, queued cells stay pending in their snapshots, exit 0.
//!
//! Every command resolves its target names once through the library's
//! target registry ([`ResolvedTarget`], one row per target) and branches
//! on the family it returns. Simulated targets: `coreutils`, `minidb` (alias
//! `mysql`), `httpd` (alias `apache`), `docstore-0.8`, `docstore-2.0`.
//! Real-process targets (live binaries under the `LD_PRELOAD` shim,
//! sandboxed with a `--timeout` watchdog): `proc:victim-read-file`,
//! `proc:victim-alloc`, `proc:victim-alloc-unchecked`, `proc:victim-spin`.
//! Crash-recovery targets (rule-driven VFS faults + crash + fault-free
//! reopen, checked by the durability oracle): `vfs:minidb-recovery`,
//! `vfs:minidb-rewrite` (the retained whole-log-rewrite bug specimen),
//! `vfs:docstore-recovery`. `describe` and `render` serve simulated and
//! crash-recovery targets, `explore` simulated ones; `hunt` and
//! `campaign` run every family.

use afex::campaign::{
    build_spec, load_resume_snapshot, run_campaign, run_hunt, CorpusReader, HuntSpec,
    ResolvedTarget, SpecOptions, RESUME_LOCKED_FLAGS,
};
use afex::core::campaign::{CampaignSnapshot, CampaignSpec};
use afex::core::process::wait_readable;
use afex::core::{
    ExplorerConfig, FaultReport, ImpactMetric, SearchStrategy, StopCondition, TestTimeout,
    TraceStore,
};
use afex::protocol::{self, Request, Response};
use afex::service::{CampaignRow, CampaignService};
use afex::space::Point;
use afex::targets::recovery::RecoverySpace;
use std::collections::HashMap;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: afex-cli <describe|explore|render|hunt|campaign|serve|submit|status|inspect|top-failures|health|shutdown> [options]\n\
         targets: coreutils | minidb (mysql) | httpd (apache) | docstore-0.8 | docstore-2.0\n\
         proc targets (real binaries, hunt/campaign only):\n\
                           proc:victim-read-file | proc:victim-alloc\n\
                           proc:victim-alloc-unchecked | proc:victim-spin\n\
         vfs targets (crash-recovery oracle; describe/render/hunt/campaign):\n\
                           vfs:minidb-recovery | vfs:minidb-rewrite\n\
                           vfs:docstore-recovery\n\
         explore options:  --target <name> --strategy fitness|random|exhaustive|genetic\n\
                           --iterations N --seed S --metric default|paper|crash\n\
                           --feedback --json\n\
         render options:   --target <name> --point i,j,k\n\
         hunt options:     --target <name> --crashes N | --failures N\n\
                           --iterations cap --seed S --workers W --timeout 10s\n\
                           --metric default|paper|crash --feedback --json\n\
         campaign options: --targets a,b,c --out dir/\n\
                           --strategies fitness,random --seeds N --seed S\n\
                           --iterations M --workers W --cell-workers C\n\
                           --timeout 10s --metric default|paper|crash\n\
                           --stop iterations|failures:N|crashes:N\n\
                           --export corpus.jsonl --resume --json\n\
         serve options:    --socket PATH --root dir/ --workers W\n\
         submit options:   --socket PATH + the campaign spec flags (no --out/--workers)\n\
         status options:   --socket PATH [--id N] [--json]\n\
         inspect options:  --socket PATH --id N [--json]\n\
                           offline: --export corpus.jsonl --record N (seek one record)\n\
         top-failures:     --socket PATH --id N [--limit K]\n\
                           offline: --export corpus.jsonl [--limit K]\n\
         health options:   --socket PATH [--json]\n\
         shutdown:         --socket PATH"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            let value = if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                i += 1;
                args[i].clone()
            } else {
                "true".to_owned()
            };
            out.insert(key.to_owned(), value);
        }
        i += 1;
    }
    out
}

/// Resolves `--target`, exiting 2 with the usage text on an unknown name.
fn resolve(name: &str) -> ResolvedTarget {
    ResolvedTarget::resolve(name).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

/// Exits 2 for a target that `describe`, `render` or `explore` does not
/// serve: a live binary or a crash-recovery target gets an instructive
/// message pointing at the commands that can run it; the poison probe,
/// which has no fault space to show, reads as unknown.
fn refuse(name: &str, target: ResolvedTarget) -> ! {
    match target {
        ResolvedTarget::Proc(_) => eprintln!(
            "`{name}` is a real-process target: it has no simulated plan to describe or \
             replay, only a live binary to run. Use `hunt --target {name}` or \
             `campaign --targets {name}`."
        ),
        ResolvedTarget::Vfs(_) => eprintln!(
            "`{name}` is a crash-recovery target: each test is a whole \
             workload + crash + reopen cycle through the durability oracle, not a \
             single-test fault plan. Use `hunt --target {name}`, \
             `campaign --targets {name}`, or `describe`/`render` for its fault space."
        ),
        _ => {
            eprintln!("unknown target `{name}`");
            usage()
        }
    }
    std::process::exit(2);
}

/// Parses `--timeout` (the per-test watchdog budget for real-process
/// targets), exiting 2 on a malformed or zero duration.
fn parse_timeout(opts: &HashMap<String, String>) -> TestTimeout {
    opts.get("timeout")
        .map(|s| {
            TestTimeout::parse(s).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
        })
        .unwrap_or_default()
}

fn metric(name: &str) -> ImpactMetric {
    afex::core::campaign::metric_from_name(name).unwrap_or_else(|| {
        eprintln!("unknown metric `{name}`");
        usage()
    })
}

fn cmd_describe(opts: &HashMap<String, String>) {
    let name = opts
        .get("target")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let space = match resolve(name) {
        ResolvedTarget::Simulated(suite) => {
            let ts = suite.space();
            println!("target: {}", ts.target().name());
            println!("tests in suite: {}", ts.target().num_tests());
            println!("declared blocks: {}", ts.target().total_blocks());
            ts.space_arc()
        }
        ResolvedTarget::Vfs(kind) => {
            let rs = RecoverySpace::new(kind);
            println!("target: {}", rs.name());
            println!("workloads: {}", afex::targets::recovery::NUM_WORKLOADS);
            println!("oracle: workload under one fault rule -> crash -> fault-free reopen");
            rs.space_arc()
        }
        other => refuse(name, other),
    };
    println!("fault space: {} points", space.len());
    for (i, axis) in space.axes().iter().enumerate() {
        println!("  axis {i}: {} ({} values)", axis.name(), axis.len());
    }
}

fn cmd_render(opts: &HashMap<String, String>) {
    let name = opts
        .get("target")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let point_str = opts
        .get("point")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let attrs: Result<Vec<usize>, _> = point_str.split(',').map(str::parse).collect();
    let Ok(attrs) = attrs else {
        eprintln!("bad --point `{point_str}`: expected i,j,k");
        std::process::exit(2);
    };
    let p = Point::new(attrs);
    let check = |space: &afex::space::FaultSpace| {
        if let Err(e) = space.check(&p) {
            eprintln!("point does not address the space: {e}");
            std::process::exit(1);
        }
    };
    match resolve(name) {
        ResolvedTarget::Simulated(suite) => {
            let ts = suite.space();
            check(ts.space());
            let (test, plan) = ts.plan_for(&p);
            println!("test id:  {test}");
            println!("scenario: {plan}");
            println!("fig5:     {}", ts.space().render(&p));
        }
        ResolvedTarget::Vfs(kind) => {
            let rs = RecoverySpace::new(kind);
            check(rs.space());
            let (test, rule) = rs.rule_for(&p);
            println!("workload: {test}");
            match rule {
                Some(r) => println!("rule:     {r}"),
                None => println!("rule:     none (bare workload)"),
            }
            println!("fig5:     {}", rs.space().render(&p));
        }
        other => refuse(name, other),
    }
}

fn cmd_explore(opts: &HashMap<String, String>) {
    let name = opts
        .get("target")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let target = resolve(name);
    let ResolvedTarget::Simulated(_) = target else { refuse(name, target) };
    let iterations: usize = opts
        .get("iterations")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(500);
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(42);
    let m = metric(opts.get("metric").map(String::as_str).unwrap_or("default"));
    let raw_strategy = opts
        .get("strategy")
        .map(String::as_str)
        .unwrap_or("fitness");
    let strategy = match afex::campaign::canonical_strategy(raw_strategy)
        .and_then(afex::core::strategy_from_name)
    {
        Some(SearchStrategy::Fitness(cfg)) => SearchStrategy::Fitness(ExplorerConfig {
            redundancy_feedback: opts.contains_key("feedback"),
            ..cfg
        }),
        Some(other) => other,
        None => {
            eprintln!("unknown strategy `{raw_strategy}`");
            usage()
        }
    };
    let explorer = |space| strategy.build(space, seed, TraceStore::new());
    let stop = StopCondition::Iterations(iterations);
    let (_, result) = target
        .run_session(explorer, m, stop, 1, TestTimeout::default())
        .expect("simulated targets need no artifacts");
    let report = FaultReport::from_session(&result, 4);
    if opts.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        println!(
            "{} tests: {} failures ({} unique), {} crashes ({} unique)\n",
            result.len(),
            result.failures(),
            result.unique_failures(4),
            result.crashes(),
            result.unique_crashes(4)
        );
        println!("{}", report.summary());
    }
}

/// `afex-cli hunt` — the §6.2 "find N crash scenarios" search target as
/// a first-class command, run stop-aware on a node-manager pool: the
/// engine checks the stop condition at every head-of-line completion,
/// so the pool halts at the Nth crash (plus the in-flight window
/// draining) instead of running the iteration cap out. Deterministic
/// for a fixed `--workers` count.
fn cmd_hunt(opts: &HashMap<String, String>) {
    let name = opts
        .get("target")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    // An unknown name exits 2 before any other flag is looked at.
    resolve(name);
    let iterations: usize = parse_num(opts, "iterations", 4_000);
    let seed: u64 = parse_num(opts, "seed", 7);
    let workers: usize = parse_num(opts, "workers", 4);
    if workers == 0 {
        eprintln!("--workers must be positive");
        std::process::exit(2);
    }
    // A hunt is a count-based search target: crashes by default (the
    // paper's "find faults that crash the DBMS"), failures on request —
    // one or the other, never both. A zero target count is rejected
    // like the campaign's zero-count stop policies.
    if opts.contains_key("failures") && opts.contains_key("crashes") {
        eprintln!("cannot combine --failures with --crashes: a hunt has one target count");
        std::process::exit(2);
    }
    let count_of = |n: &str| {
        let count: usize = n.parse().unwrap_or_else(|_| usage());
        if count == 0 {
            eprintln!("the hunt target count must be positive");
            std::process::exit(2);
        }
        count
    };
    let stop = if let Some(n) = opts.get("failures") {
        StopCondition::Failures {
            count: count_of(n),
            max_iterations: iterations,
        }
    } else {
        StopCondition::Crashes {
            count: count_of(opts.get("crashes").map(String::as_str).unwrap_or("25")),
            max_iterations: iterations,
        }
    };
    let hunt = HuntSpec {
        target: name.to_owned(),
        stop,
        seed,
        workers,
        metric: metric(opts.get("metric").map(String::as_str).unwrap_or("crash")),
        feedback: opts.contains_key("feedback"),
        timeout: parse_timeout(opts),
    };
    // A missing victim or shim artifact is a usage error (how to build
    // it is in the message), caught before anything spawns.
    let result = run_hunt(&hunt).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if opts.contains_key("json") {
        println!("{}", FaultReport::from_session(&result, 4).to_json());
        return;
    }
    println!(
        "{} tests on {workers} workers: {} failures, {} crashes",
        result.len(),
        result.failures(),
        result.crashes()
    );
    let signatures: std::collections::BTreeSet<&str> = result
        .executed
        .iter()
        .filter(|t| t.evaluation.crashed)
        .filter_map(|t| t.evaluation.trace.as_deref())
        .collect();
    println!("distinct crash signatures ({}):", signatures.len());
    for s in &signatures {
        println!("  {s}");
    }
}

fn parse_num<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    opts.get(key)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(default)
}

fn comma_list(s: &str) -> Vec<String> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Collects the campaign spec options from CLI flags; exits 2 on a
/// malformed numeric flag or a missing `--targets`. All semantic
/// validation (aliases, duplicates, stop/timeout spellings, proc
/// artifacts) lives in the library's [`build_spec`].
fn spec_options(opts: &HashMap<String, String>) -> SpecOptions {
    let defaults = SpecOptions::default();
    SpecOptions {
        targets: comma_list(opts.get("targets").map(String::as_str).unwrap_or_else(|| usage())),
        strategies: opts
            .get("strategies")
            .map(|s| comma_list(s))
            .unwrap_or(defaults.strategies),
        seeds: parse_num(opts, "seeds", defaults.seeds),
        base_seed: parse_num(opts, "seed", defaults.base_seed),
        iterations: parse_num(opts, "iterations", defaults.iterations),
        stop: opts.get("stop").cloned(),
        cell_workers: parse_num(opts, "cell-workers", defaults.cell_workers),
        timeout: opts.get("timeout").cloned(),
        metric: opts.get("metric").cloned(),
    }
}

/// Builds and validates the campaign spec from CLI flags via the shared
/// library path; exits with the usual code 2 on an unknown
/// target/strategy/metric, a duplicated target or strategy, a malformed
/// stop policy or timeout, or missing proc artifacts.
fn spec_from_opts(opts: &HashMap<String, String>) -> CampaignSpec {
    build_spec(&spec_options(opts)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn cmd_campaign(opts: &HashMap<String, String>) {
    let out_dir = opts
        .get("out")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let workers: usize = parse_num(opts, "workers", 4);
    if workers == 0 {
        eprintln!("--workers must be positive");
        std::process::exit(2);
    }
    let snap_path = Path::new(out_dir).join("campaign.json");
    let resume = opts.contains_key("resume");
    let mut snap = if resume {
        // The snapshot's spec is the single source of truth on resume —
        // a changed matrix (or metric) would be a different campaign, so
        // matrix flags are rejected outright rather than silently
        // ignored or compared against unrelated defaults.
        for flag in RESUME_LOCKED_FLAGS {
            if opts.contains_key(flag) {
                eprintln!(
                    "cannot combine --resume with --{flag}: the snapshot's spec is used as-is"
                );
                std::process::exit(2);
            }
        }
        // A hand-edited or foreign snapshot must fail here with exit 2,
        // not deep inside a cell run.
        load_resume_snapshot(&snap_path).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    } else {
        CampaignSnapshot::new(spec_from_opts(opts))
    };
    let resumed_from = snap.done_count();
    let export = opts.get("export").map(Path::new);
    let report = run_campaign(&mut snap, workers, Path::new(out_dir), export, resume)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
    let summary_path = Path::new(out_dir).join("summary.json");
    if opts.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        if resumed_from > 0 {
            println!(
                "resumed: {resumed_from}/{} cells were already complete",
                snap.cells.len()
            );
        }
        print!("{}", report.summary());
        println!("snapshot: {}", snap_path.display());
        println!("summary:  {}", summary_path.display());
    }
}

/// Set by the SIGINT/SIGTERM handler; the serve loop polls it between
/// accepts and drains gracefully when it flips.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> i64;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// The longest the serve loop waits for a connection before it checks
/// `STOP` again, and its backoff after a failed `accept`.
const ACCEPT_WAIT: Duration = Duration::from_millis(25);

/// `afex-cli serve` — the campaign service daemon: bind the Unix
/// socket, serve one request per connection, and on shutdown (protocol
/// request or SIGINT/SIGTERM) drain the pool — in-flight cells finish
/// and checkpoint, queued cells stay pending in their snapshots — and
/// exit 0. Restarting on the same `--root` resumes every incomplete
/// campaign byte-identically.
///
/// Between connections the loop blocks in `poll(2)` on the listener, so
/// a connecting client wakes it at once. The wait is capped at
/// [`ACCEPT_WAIT`] so a signal that lands on a pool thread instead of
/// this one still stops the daemon within that bound; one that lands
/// here interrupts the wait.
fn cmd_serve(opts: &HashMap<String, String>) {
    let socket = opts
        .get("socket")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let root = opts.get("root").map(String::as_str).unwrap_or_else(|| usage());
    let workers: usize = parse_num(opts, "workers", 4);
    if workers == 0 {
        eprintln!("--workers must be positive");
        std::process::exit(2);
    }
    let service = CampaignService::open(Path::new(root), workers).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    // Armed before the socket exists: a client that can connect can
    // also rely on SIGTERM draining the daemon.
    // SAFETY: the handler only stores to an atomic, which is
    // async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    // The daemon owns its socket path: a leftover file from a killed
    // daemon would make bind fail forever, so clear it first.
    let _ = std::fs::remove_file(socket);
    let listener = std::os::unix::net::UnixListener::bind(socket).unwrap_or_else(|e| {
        eprintln!("cannot bind {socket}: {e}");
        std::process::exit(1);
    });
    listener
        .set_nonblocking(true)
        .expect("socket supports nonblocking accept");
    println!("afex service: root {root}, {workers} workers, listening on {socket}");
    while !STOP.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .expect("accepted stream supports blocking io");
                match protocol::serve_connection(&service, &mut stream) {
                    Ok(true) => break,
                    Ok(false) => {}
                    // A broken client connection is its problem, not
                    // the daemon's.
                    Err(e) => eprintln!("connection error: {e}"),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_readable(listener.as_raw_fd(), ACCEPT_WAIT);
            }
            Err(e) => {
                eprintln!("accept error: {e}");
                std::thread::sleep(ACCEPT_WAIT);
            }
        }
    }
    println!("afex service: draining");
    service.shutdown();
    let _ = std::fs::remove_file(socket);
    println!("afex service: stopped");
}

/// Sends one request to the daemon, mapping replies onto the CLI's
/// exit-code convention: protocol `Error` replies are usage-class
/// failures (exit 2, same messages the `campaign` subcommand prints),
/// transport failures are exit 1.
fn rpc(opts: &HashMap<String, String>, req: &Request) -> Response {
    let socket = opts
        .get("socket")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    match protocol::request(Path::new(socket), req) {
        Ok(Response::Error(e)) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
        Ok(resp) => resp,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn unexpected_reply(resp: &Response) -> ! {
    eprintln!("unexpected daemon reply: {resp:?}");
    std::process::exit(1);
}

fn parse_id(opts: &HashMap<String, String>) -> u64 {
    let Some(raw) = opts.get("id") else { usage() };
    raw.parse().unwrap_or_else(|_| usage())
}

fn print_row(row: &CampaignRow) {
    let s = &row.status;
    let state = if row.failed.is_some() {
        "failed"
    } else if s.complete {
        "complete"
    } else {
        "running"
    };
    println!(
        "campaign {}: {state}, {}/{} cells, {} tests, {} unique failures ({} crashes)",
        row.id, s.cells_done, s.cells_total, s.tests_executed, s.unique_failures,
        s.unique_crashes
    );
    if let Some(reason) = &row.failed {
        println!("  failed: {reason}");
    }
    if let Some(e) = &row.error {
        println!("  checkpoint error: {e}");
    }
}

fn cmd_submit(opts: &HashMap<String, String>) {
    match rpc(opts, &Request::Submit(spec_options(opts))) {
        Response::Submitted { id } => println!("submitted: campaign {id}"),
        other => unexpected_reply(&other),
    }
}

fn cmd_status(opts: &HashMap<String, String>) {
    let rows = if opts.contains_key("id") {
        match rpc(opts, &Request::Status { id: parse_id(opts) }) {
            Response::Status(row) => vec![row],
            other => unexpected_reply(&other),
        }
    } else {
        match rpc(opts, &Request::List) {
            Response::List(rows) => rows,
            other => unexpected_reply(&other),
        }
    };
    if opts.contains_key("json") {
        println!("{}", afex::protocol::encode(&rows).trim_end());
        return;
    }
    if rows.is_empty() {
        println!("no campaigns");
    }
    for row in &rows {
        print_row(row);
    }
}

/// Offline record seek: fetches record N of an export file through the
/// sidecar offset index — one seek, one line read, no daemon and no
/// full-file parse.
fn cmd_inspect_record(opts: &HashMap<String, String>, export: &str) {
    let index: usize = parse_num(opts, "record", 0);
    let mut reader = CorpusReader::open(Path::new(export)).unwrap_or_else(|e| {
        eprintln!("cannot open export {export}: {e}");
        std::process::exit(1);
    });
    match reader.get(index) {
        Ok(record) => println!("{}", record.to_jsonl()),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn cmd_inspect(opts: &HashMap<String, String>) {
    if let Some(export) = opts.get("export") {
        cmd_inspect_record(opts, export);
        return;
    }
    match rpc(opts, &Request::Inspect { id: parse_id(opts) }) {
        Response::Inspect(report) => {
            if opts.contains_key("json") {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.summary());
            }
        }
        other => unexpected_reply(&other),
    }
}

/// Offline ranking straight off an export file: reads the records
/// through the seekable reader (so a torn tail from a killed daemon is
/// skipped, not a parse error) and ranks by impact like the daemon
/// does.
fn cmd_top_failures_offline(export: &str, limit: usize) {
    let mut reader = CorpusReader::open(Path::new(export)).unwrap_or_else(|e| {
        eprintln!("cannot open export {export}: {e}");
        std::process::exit(1);
    });
    let mut records = Vec::with_capacity(reader.len());
    for i in 0..reader.len() {
        match reader.get(i) {
            Ok(record) => records.push(record),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
    records.sort_by(|a, b| b.record.impact.total_cmp(&a.record.impact));
    records.truncate(limit);
    for rec in &records {
        println!("{}", rec.to_jsonl());
    }
}

fn cmd_top_failures(opts: &HashMap<String, String>) {
    let limit: usize = parse_num(opts, "limit", 10);
    if let Some(export) = opts.get("export") {
        cmd_top_failures_offline(export, limit);
        return;
    }
    match rpc(opts, &Request::TopFailures { id: parse_id(opts), limit }) {
        // JSONL, one record per line — the same shape as the campaign's
        // corpus export, so the output pipes into the same tooling.
        Response::TopFailures(records) => {
            for rec in &records {
                println!("{}", rec.to_jsonl());
            }
        }
        other => unexpected_reply(&other),
    }
}

fn cmd_health(opts: &HashMap<String, String>) {
    match rpc(opts, &Request::Health) {
        Response::Health(h) => {
            if opts.contains_key("json") {
                println!("{}", afex::protocol::encode(&h).trim_end());
                return;
            }
            println!(
                "{} campaigns: {} running, {} complete, {} failed",
                h.campaigns,
                h.running,
                h.complete,
                h.failed.len()
            );
            for f in &h.failed {
                println!("  failed campaign {}: {}", f.id, f.reason);
            }
            for d in &h.degraded {
                println!("  degraded campaign {} (state in memory only): {}", d.id, d.error);
            }
            for q in &h.quarantined {
                println!("  quarantined: {} ({})", q.dir, q.reason);
            }
            println!(
                "counters: {} io retries, {} flush recoveries, {} cell panics",
                h.io_retries, h.flush_recoveries, h.cell_panics
            );
        }
        other => unexpected_reply(&other),
    }
}

fn cmd_shutdown(opts: &HashMap<String, String>) {
    match rpc(opts, &Request::Shutdown) {
        Response::ShuttingDown => println!("daemon draining"),
        other => unexpected_reply(&other),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let opts = parse_args(&args[1..]);
    match cmd.as_str() {
        "describe" => cmd_describe(&opts),
        "render" => cmd_render(&opts),
        "explore" => cmd_explore(&opts),
        "hunt" => cmd_hunt(&opts),
        "campaign" => cmd_campaign(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "status" => cmd_status(&opts),
        "inspect" => cmd_inspect(&opts),
        "top-failures" => cmd_top_failures(&opts),
        "health" => cmd_health(&opts),
        "shutdown" => cmd_shutdown(&opts),
        _ => usage(),
    }
}

//! Real-process execution: sandboxed, timeout-guarded injection runs.
//!
//! The simulated targets in `afex-targets` evaluate a fault in-process;
//! this module executes one on a *live binary*, the way AFEX's node
//! managers drive real systems under test (§6.2): spawn the target under
//! the `LD_PRELOAD` shim with the `AFEX_*` protocol derived from the
//! fault point, watch it, classify how it died, and read the injection
//! stack trace the shim logged. Each test runs inside its own sandbox:
//!
//! - a fresh temporary directory as working directory, torn down when
//!   the run finishes — success, failure, or panic;
//! - resource limits set between `fork` and `exec` (no core dumps, a CPU
//!   backstop above the watchdog budget, bounded address space and
//!   process count), so a misbehaving child cannot take the host down;
//! - `PR_SET_PDEATHSIG`: the kernel SIGKILLs the child if its spawning
//!   thread dies, so even a `kill -9` of the whole campaign leaves no
//!   orphans;
//! - a wall-clock watchdog that escalates SIGTERM → SIGKILL and always
//!   reaps the child, classifying the run as [`TestStatus::Hung`].
//!
//! The watchdog waits on an event, not a clock: it opens a pidfd for the
//! child and blocks in `poll(2)` until the child exits or the remaining
//! budget runs out, so a test costs what the child takes, not the next
//! multiple of a poll step. Where the kernel refuses `pidfd_open`
//! (ENOSYS before Linux 5.3, EPERM under some seccomp profiles) it falls
//! back to checking every 5 ms. The pidfd is only a wakeup: `Child` does
//! every reap and signals go to the still-unreaped pid.
//!
//! Sandbox directories are named after the creating process plus a
//! process-wide sequence number, so concurrent runners under one root
//! never share a directory, and a directory already at a new name is a
//! dead predecessor's (same pid) and is replaced, never reused. A sweep
//! at runner construction removes directories whose creator is dead, so
//! the one teardown path `Drop` cannot cover (the campaign itself
//! SIGKILLed mid-test) is healed by the next run.
//!
//! [`ProcessEvaluator`] adapts all of this to the session engine: its
//! [`Evaluator::try_evaluate`] retries transient spawn errors with
//! bounded backoff and reports a permanent failure as `Err`, which ends
//! the session with what completed instead of wedging. Any executor
//! runs it: inline for one test in flight, a `ParallelSession` manager
//! pool for a wider window.

use crate::evaluator::{Evaluation, Evaluator};
use crate::impact::ImpactMetric;
use afex_inject::{AtomicFault, Coverage, Errno, Func, InjectionRecord, TestOutcome, TestStatus};
use afex_preload::config::ProcessPlan;
use afex_preload::log::parse_log;
use std::ffi::{c_long, c_ulong};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use std::{fs, io, thread};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    #[cfg(target_os = "linux")]
    fn syscall(number: c_long, ...) -> c_long;
}

/// `struct pollfd`: the descriptor, the events asked for, the events
/// that occurred.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct rlimit` on Linux x86-64: soft and hard limit, both `u64`.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_CPU: i32 = 0;
const RLIMIT_CORE: i32 = 4;
const RLIMIT_NPROC: i32 = 6;
const RLIMIT_AS: i32 = 9;
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const POLLIN: i16 = 1;
const EINTR: i32 = 4;
#[cfg(target_os = "linux")]
const SYS_PIDFD_OPEN: c_long = 434;

/// Address-space cap for sandboxed children: far above any victim's
/// needs, far below what would distress the host.
const SANDBOX_AS_BYTES: u64 = 1 << 30;
/// Process-count cap: the victim may help itself to a few children, not
/// to a fork bomb.
const SANDBOX_NPROC: u64 = 256;
/// How often the watchdog checks the child when it has no pidfd to
/// wait on.
const WATCH_POLL: Duration = Duration::from_millis(5);
/// Spawn attempts before a transient error becomes an executor failure.
const SPAWN_ATTEMPTS: u32 = 4;
/// Backoff before the first spawn retry; doubles per attempt.
const SPAWN_BACKOFF: Duration = Duration::from_millis(10);

/// Sandbox sequence numbers, shared by every runner in the process: two
/// runners under one root (concurrent campaign cells, hunts in one
/// daemon) must never name the same directory.
static SANDBOX_SEQ: AtomicU64 = AtomicU64::new(0);

/// Whether a spawn error is worth retrying: the kernel ran out of a
/// resource that load, not the request, exhausted (EAGAIN = 11,
/// ENOMEM = 12 on Linux).
fn transient_spawn_error(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(11) | Some(12))
}

/// Blocks until `fd` is readable or `timeout` passes, in one `poll(2)`,
/// and says whether it became readable. A signal cuts the wait short;
/// callers re-check their own condition after every return, so an early
/// return costs one loop turn. The timeout is rounded up to whole
/// milliseconds, so a sub-millisecond remainder still blocks instead of
/// spinning. Should `poll` itself fail, it sleeps out the timeout rather
/// than return at once.
pub fn wait_readable(fd: RawFd, timeout: Duration) -> bool {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ms = i32::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX);
    // SAFETY: one valid, exclusively borrowed pollfd for the call.
    match unsafe { poll(&mut pfd, 1, ms) } {
        -1 if io::Error::last_os_error().raw_os_error() != Some(EINTR) => {
            thread::sleep(timeout);
            false
        }
        ready => ready > 0,
    }
}

/// An owned pidfd: readable once its process has exited, closed on drop.
/// It is only a wakeup for the watchdog; `Child` reaps and signals go
/// through `kill` on the unreaped pid, so no PID can be reused under it.
struct PidFd(OwnedFd);

impl PidFd {
    /// `pidfd_open(pid, 0)`. The kernel sets `O_CLOEXEC` on the new
    /// descriptor, so children that other threads spawn meanwhile never
    /// inherit it. Fails where the kernel refuses (ENOSYS before Linux
    /// 5.3, EPERM under some seccomp profiles) and off Linux.
    fn open(pid: u32) -> io::Result<PidFd> {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: pidfd_open takes a pid and flags and returns a new
            // descriptor or -1; nothing is borrowed.
            let fd = unsafe { syscall(SYS_PIDFD_OPEN, pid as c_long, 0 as c_long) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: the kernel just handed us this descriptor; nothing
            // else owns it.
            Ok(PidFd(unsafe { OwnedFd::from_raw_fd(fd as RawFd) }))
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = pid;
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }
    }
}

/// Where sandbox directories live: one fixed root, so the stale sweep
/// can heal after a killed campaign no matter which run created the
/// leftovers.
pub fn default_sandbox_root() -> PathBuf {
    std::env::temp_dir().join("afex-sandboxes")
}

/// Removes sandbox directories whose creating process is dead.
///
/// Directory names embed the creator's pid (`afex-sbx-{pid}-{seq}`);
/// liveness is checked against `/proc`. Directories of the current
/// process are never touched (its own runs may be in flight). Returns
/// how many directories were reclaimed.
pub fn sweep_stale_sandboxes(root: &Path) -> usize {
    let Ok(entries) = fs::read_dir(root) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(rest) = name.to_string_lossy().strip_prefix("afex-sbx-").map(str::to_owned)
        else {
            continue;
        };
        let Some(pid) = rest.split('-').next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if pid == std::process::id() {
            continue;
        }
        let creator_alive =
            !cfg!(target_os = "linux") || Path::new(&format!("/proc/{pid}")).exists();
        if !creator_alive && fs::remove_dir_all(entry.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// One test's private working directory, removed on drop (any exit path
/// of the run — including a panic in the worker thread).
struct Sandbox {
    dir: PathBuf,
}

impl Sandbox {
    /// Creates the sandbox at `seq`'s name. A process never reissues a
    /// sequence number, so a directory already there belongs to a dead
    /// process that had the same pid: it is replaced, so its shim log
    /// can never pass for this run's.
    fn create(root: &Path, seq: u64) -> Result<Self, String> {
        let dir = root.join(format!("afex-sbx-{}-{seq}", std::process::id()));
        let made = match fs::create_dir(&dir) {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                fs::remove_dir_all(&dir).and_then(|()| fs::create_dir(&dir))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => fs::create_dir_all(&dir),
            made => made,
        };
        made.map_err(|e| format!("cannot create sandbox {}: {e}", dir.display()))?;
        Ok(Sandbox { dir })
    }

    fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Runs [`ProcessPlan`]s under the full sandbox regime.
pub struct ProcessRunner {
    timeout: Duration,
    grace: Duration,
    root: PathBuf,
}

impl ProcessRunner {
    /// A runner whose watchdog allows each test `timeout` of wall clock,
    /// sandboxing under [`default_sandbox_root`]. Sweeps sandboxes left
    /// by dead processes before the first test runs.
    pub fn new(timeout: Duration) -> Self {
        Self::with_root(timeout, default_sandbox_root())
    }

    /// A runner sandboxing under a caller-chosen root.
    pub fn with_root(timeout: Duration, root: PathBuf) -> Self {
        let _ = fs::create_dir_all(&root);
        sweep_stale_sandboxes(&root);
        ProcessRunner {
            timeout,
            grace: Duration::from_millis(200),
            root,
        }
    }

    /// The sandbox root this runner creates test directories under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Executes one plan to completion and classifies the outcome.
    ///
    /// # Errors
    ///
    /// Returns a description of an *executor* failure (sandbox setup or
    /// a spawn error that persisted through retries) — never of a test
    /// failure, which is an `Ok` outcome with a non-passed status.
    pub fn run(&self, test_id: usize, plan: &ProcessPlan) -> Result<TestOutcome, String> {
        let sandbox = Sandbox::create(&self.root, SANDBOX_SEQ.fetch_add(1, Ordering::Relaxed))?;
        let log_path = sandbox.path().join("shim.log");
        let mut cmd = Command::new(&plan.program);
        cmd.args(&plan.args)
            .current_dir(sandbox.path())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        // Never leak this process's own protocol variables into the
        // child: the plan alone decides what gets injected.
        for var in ["AFEX_FUNC", "AFEX_CALL", "AFEX_ERRNO", "AFEX_SIZE", "AFEX_LOG", "LD_PRELOAD"]
        {
            cmd.env_remove(var);
        }
        if let Some(shim) = &plan.preload {
            cmd.env("LD_PRELOAD", shim);
        }
        if let Some(injection) = &plan.injection {
            for (k, v) in injection.clone().with_log(&log_path).vars() {
                cmd.env(k, v);
            }
        }
        apply_sandbox_limits(&mut cmd, self.timeout);
        let mut child = spawn_with_retry(&mut cmd, &plan.program)?;
        let pidfd = PidFd::open(child.id()).ok();
        let status = match self.watch(&mut child, pidfd)? {
            Some(wait) => classify_wait(&wait),
            None => TestStatus::Hung,
        };
        Ok(TestOutcome {
            test_id,
            status,
            coverage: Coverage::new(),
            injections: read_injections(&log_path),
        })
    }

    /// Waits for the child within the watchdog budget, blocking on
    /// `pidfd` when there is one and checking every [`WATCH_POLL`]
    /// otherwise. `None` means the budget expired: the child was
    /// terminated (SIGTERM, then SIGKILL after a grace period) and
    /// *reaped* — no zombie survives this function, whichever path it
    /// takes.
    fn watch(&self, child: &mut Child, pidfd: Option<PidFd>) -> Result<Option<ExitStatus>, String> {
        let pidfd = pidfd.as_ref();
        let exited = wait_until(child, pidfd, Instant::now() + self.timeout)
            .map_err(|e| format!("cannot wait for child: {e}"))?;
        if exited.is_some() {
            return Ok(exited);
        }
        // Hung. Ask nicely first — SIGTERM lets the victim run its own
        // teardown — then force the issue: SIGKILL cannot be caught, so
        // the final blocking wait always reaps.
        // SAFETY: plain signal send to a child we still own.
        unsafe { kill(child.id() as i32, SIGTERM) };
        if let Ok(Some(_)) = wait_until(child, pidfd, Instant::now() + self.grace) {
            return Ok(None);
        }
        let _ = child.kill();
        let _ = child.wait();
        Ok(None)
    }
}

/// Reaps `child` if it exits before `deadline`. Between checks it blocks
/// on `pidfd` for the rest of the budget, or sleeps [`WATCH_POLL`]
/// without one.
fn wait_until(
    child: &mut Child,
    pidfd: Option<&PidFd>,
    deadline: Instant,
) -> io::Result<Option<ExitStatus>> {
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Some(status));
        }
        let now = Instant::now();
        if now >= deadline {
            return Ok(None);
        }
        match pidfd {
            Some(fd) => {
                wait_readable(fd.0.as_raw_fd(), deadline - now);
            }
            None => thread::sleep(WATCH_POLL),
        }
    }
}

/// Classifies a reaped wait status (Unix decomposition of exit code vs
/// terminating signal).
fn classify_wait(status: &ExitStatus) -> TestStatus {
    #[cfg(unix)]
    let signal = std::os::unix::process::ExitStatusExt::signal(status);
    #[cfg(not(unix))]
    let signal = None;
    TestStatus::from_wait(status.code(), signal)
}

/// Installs the between-fork-and-exec sandbox setup on `cmd`.
fn apply_sandbox_limits(cmd: &mut Command, timeout: Duration) {
    #[cfg(unix)]
    {
        use std::os::unix::process::CommandExt;
        // CPU backstop above the wall-clock budget: the watchdog owns
        // hang detection; the kernel only steps in if the watchdog's own
        // thread is gone.
        let cpu_secs = timeout.as_secs().saturating_mul(2).saturating_add(2);
        // SAFETY: the closure runs post-fork pre-exec and only performs
        // async-signal-safe syscalls (prctl, setrlimit).
        unsafe {
            cmd.pre_exec(move || {
                // Orphan prevention is a correctness guarantee: if it
                // cannot be armed, don't run the test.
                if prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0) != 0 {
                    return Err(io::Error::last_os_error());
                }
                // The limits are hardening; a refusal (exotic kernel
                // config) must not veto the test itself.
                let set = |resource: i32, value: u64| {
                    let lim = RLimit {
                        cur: value,
                        max: value,
                    };
                    setrlimit(resource, &lim);
                };
                set(RLIMIT_CORE, 0);
                set(RLIMIT_CPU, cpu_secs);
                set(RLIMIT_AS, SANDBOX_AS_BYTES);
                set(RLIMIT_NPROC, SANDBOX_NPROC);
                Ok(())
            });
        }
    }
    #[cfg(not(unix))]
    let _ = (cmd, timeout);
}

/// Spawns, retrying transient kernel-resource errors with bounded
/// exponential backoff so one loaded moment doesn't abort a campaign.
fn spawn_with_retry(cmd: &mut Command, program: &Path) -> Result<Child, String> {
    let mut backoff = SPAWN_BACKOFF;
    let mut attempt = 0;
    loop {
        match cmd.spawn() {
            Ok(child) => return Ok(child),
            Err(e) if transient_spawn_error(&e) && attempt + 1 < SPAWN_ATTEMPTS => {
                thread::sleep(backoff);
                backoff *= 2;
                attempt += 1;
            }
            Err(e) => {
                return Err(format!("cannot spawn {}: {e}", program.display()));
            }
        }
    }
}

/// Reads the shim's injection log into records. A missing file means the
/// plan never triggered (an empty record list); a torn tail — the child
/// died mid-write, though the atomic rename makes that a crash-timing
/// corner — is healed by the parser, which keeps complete lines only.
fn read_injections(log_path: &Path) -> Vec<InjectionRecord> {
    let Ok(text) = fs::read_to_string(log_path) else {
        return Vec::new();
    };
    parse_log(&text)
        .into_iter()
        .filter_map(|entry| {
            let func = Func::from_name(&entry.func)?;
            let errno = Errno::from_code(entry.errno)?;
            Some(InjectionRecord {
                fault: AtomicFault::new(func, entry.call, errno),
                stack: entry.stack,
            })
        })
        .collect()
}

/// Maps a fault point to the process test it denotes: the workload id
/// (the `testID` axis) and the plan to execute.
pub type PlanFn = dyn Fn(&afex_space::Point) -> (usize, ProcessPlan) + Send + Sync;

/// The [`Evaluator`] over real processes: plans the point, runs it
/// sandboxed, scores the outcome. Clones share one runner, so every
/// manager of a pool draws sandboxes from the same root.
#[derive(Clone)]
pub struct ProcessEvaluator {
    plan: Arc<PlanFn>,
    runner: Arc<ProcessRunner>,
    metric: ImpactMetric,
}

impl ProcessEvaluator {
    /// Wraps a point→plan mapping with a runner and an impact metric.
    pub fn new(
        plan: impl Fn(&afex_space::Point) -> (usize, ProcessPlan) + Send + Sync + 'static,
        runner: ProcessRunner,
        metric: ImpactMetric,
    ) -> Self {
        ProcessEvaluator {
            plan: Arc::new(plan),
            runner: Arc::new(runner),
            metric,
        }
    }
}

impl Evaluator for ProcessEvaluator {
    fn evaluate(&self, point: &afex_space::Point) -> Evaluation {
        // Degraded mode for callers that cannot end a session: an
        // executor failure scores zero.
        self.try_evaluate(point)
            .unwrap_or_else(|_| Evaluation::zero())
    }

    /// Returns the runner's description of an executor-level failure
    /// (sandbox setup refused, spawn retries exhausted).
    fn try_evaluate(&self, point: &afex_space::Point) -> Result<Evaluation, String> {
        let (test_id, plan) = (self.plan)(point);
        let outcome = self.runner.run(test_id, &plan)?;
        Ok(Evaluation::from_outcome(&outcome, &self.metric))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::exhaustive::ExhaustiveExplorer;
    use crate::session::StopCondition;
    use afex_space::{Axis, FaultSpace, Point};

    fn sh(script: &str) -> ProcessPlan {
        ProcessPlan::bare("/bin/sh", vec!["-c".into(), script.into()])
    }

    fn runner(timeout_ms: u64) -> ProcessRunner {
        ProcessRunner::with_root(
            Duration::from_millis(timeout_ms),
            std::env::temp_dir().join(format!(
                "afex-proc-tests-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            )),
        )
    }

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    #[test]
    fn exit_codes_classify() {
        let r = runner(5000);
        assert_eq!(r.run(0, &sh("exit 0")).unwrap().status, TestStatus::Passed);
        assert_eq!(r.run(0, &sh("exit 3")).unwrap().status, TestStatus::Failed);
    }

    #[test]
    fn fatal_signals_classify_as_crashes() {
        let r = runner(5000);
        let status = r.run(0, &sh("kill -SEGV $$")).unwrap().status;
        assert_eq!(status, TestStatus::Crashed("SIGSEGV".into()));
    }

    #[test]
    fn watchdog_classifies_hangs_within_budget() {
        let r = runner(200);
        let start = Instant::now();
        let outcome = r.run(7, &sh("sleep 30")).unwrap();
        assert_eq!(outcome.status, TestStatus::Hung);
        assert_eq!(outcome.test_id, 7);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "watchdog must not wait out the sleep: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn sigterm_resistant_hangs_still_die() {
        let r = runner(200);
        let start = Instant::now();
        let outcome = r.run(0, &sh("trap '' TERM; sleep 30")).unwrap();
        assert_eq!(outcome.status, TestStatus::Hung);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    extern "C" {
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    }

    /// Runs `script` under `r`'s watchdog on one wait path — a pidfd or
    /// the fixed-step fallback — and checks that nothing is left to reap.
    fn watched(r: &ProcessRunner, script: &str, use_pidfd: bool) -> TestStatus {
        let mut child = Command::new("/bin/sh")
            .args(["-c", script])
            .spawn()
            .unwrap();
        let pid = child.id();
        let pidfd = use_pidfd.then(|| {
            PidFd::open(pid).expect("the kernel must grant pidfd_open (Linux 5.3 or later)")
        });
        let status = match r.watch(&mut child, pidfd).unwrap() {
            Some(wait) => classify_wait(&wait),
            None => TestStatus::Hung,
        };
        const WNOHANG: i32 = 1;
        const ECHILD: i32 = 10;
        let mut raw = 0;
        // SAFETY: a non-blocking status query with a valid out pointer.
        let res = unsafe { waitpid(pid as i32, &mut raw, WNOHANG) };
        assert_eq!(
            (res, io::Error::last_os_error().raw_os_error()),
            (-1, Some(ECHILD)),
            "{script}: child {pid} must already be reaped"
        );
        status
    }

    #[test]
    fn watchdog_contract_holds_on_both_wait_paths() {
        let r = runner(200);
        let cases = [
            ("exit 0", TestStatus::Passed),
            ("exit 3", TestStatus::Failed),
            ("kill -SEGV $$", TestStatus::Crashed("SIGSEGV".into())),
            ("sleep 30", TestStatus::Hung),
            ("trap '' TERM; sleep 30", TestStatus::Hung),
        ];
        for (script, expected) in cases {
            for use_pidfd in [true, false] {
                let status = watched(&r, script, use_pidfd);
                assert_eq!(status, expected, "{script} (pidfd: {use_pidfd})");
            }
        }
    }

    #[test]
    fn quick_exits_are_reaped_without_waiting_out_a_poll_step() {
        // Each run's child exits in a millisecond or two. A watchdog that
        // sleeps between checks would spend a whole WATCH_POLL on every
        // run; one that waits on the exit itself must beat that total.
        let r = runner(5000);
        let plan = sh("exit 0");
        let best = (0..3)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..40 {
                    assert_eq!(r.run(0, &plan).unwrap().status, TestStatus::Passed);
                }
                start.elapsed()
            })
            .min()
            .unwrap();
        assert!(best < WATCH_POLL * 40, "40 quick runs took {best:?}");
    }

    #[test]
    fn wait_readable_wakes_on_data_and_times_out_without_it() {
        use std::io::Write;
        let (mut tx, rx) = std::os::unix::net::UnixStream::pair().unwrap();
        let start = Instant::now();
        assert!(!wait_readable(rx.as_raw_fd(), Duration::from_micros(1500)));
        // Rounded up to whole milliseconds, never down to a 0 ms spin.
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(2), "{waited:?}");
        tx.write_all(b"x").unwrap();
        let start = Instant::now();
        assert!(wait_readable(rx.as_raw_fd(), Duration::from_secs(30)));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn reused_pid_gets_a_fresh_sandbox() {
        // A dead process with this process's pid left sandboxes behind,
        // each holding the shim log of an injection that fired.
        let r = runner(5000);
        let stale_log = "malloc\t1\t12\tvictim+0x10>malloc\n";
        let plant = |seq: u64| {
            let name = format!("afex-sbx-{}-{seq}", std::process::id());
            let dir = r.root().join(name);
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("shim.log"), stale_log).unwrap();
            dir
        };
        // A sequence number this process never reaches: deterministic
        // whatever other tests draw from SANDBOX_SEQ meanwhile.
        let dir = plant(u64::MAX);
        let sandbox = Sandbox::create(r.root(), u64::MAX).unwrap();
        let reused = fs::read_dir(sandbox.path()).unwrap().count();
        assert_eq!(reused, 0, "{dir:?} was reused");
        drop(sandbox);
        // End to end: a run whose injection never fires must report no
        // injections, not the dead run's.
        let next = SANDBOX_SEQ.load(Ordering::Relaxed);
        for seq in next..next + 64 {
            plant(seq);
        }
        let outcome = r.run(0, &sh("exit 0")).unwrap();
        assert_eq!(outcome.status, TestStatus::Passed);
        assert!(outcome.injections.is_empty(), "{:?}", outcome.injections);
        let _ = fs::remove_dir_all(r.root());
    }

    #[test]
    fn sandboxes_are_removed_after_each_run() {
        let r = runner(5000);
        // The child writes into its cwd — the sandbox — and teardown
        // removes it all.
        r.run(0, &sh("echo data > file.txt")).unwrap();
        r.run(0, &sh("exit 1")).unwrap();
        let entries: Vec<_> = fs::read_dir(r.root()).unwrap().flatten().collect();
        assert!(entries.is_empty(), "{entries:?}");
    }

    #[test]
    fn stale_sweep_reclaims_dead_creators_only() {
        let root = std::env::temp_dir().join(format!("afex-sweep-test-{}", std::process::id()));
        fs::create_dir_all(&root).unwrap();
        // Pid 4291000000 is far outside any real pid range: dead.
        let dead = root.join("afex-sbx-4291000000-0");
        let ours = root.join(format!("afex-sbx-{}-3", std::process::id()));
        let unrelated = root.join("somebody-elses-dir");
        for d in [&dead, &ours, &unrelated] {
            fs::create_dir_all(d).unwrap();
        }
        assert_eq!(sweep_stale_sandboxes(&root), 1);
        assert!(!dead.exists(), "dead creator's sandbox must be swept");
        assert!(ours.exists(), "live creator's sandbox must survive");
        assert!(unrelated.exists(), "non-sandbox dirs are never touched");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn transient_errors_are_the_retryable_set() {
        assert!(transient_spawn_error(&io::Error::from_raw_os_error(11)));
        assert!(transient_spawn_error(&io::Error::from_raw_os_error(12)));
        assert!(!transient_spawn_error(&io::Error::from_raw_os_error(2)));
        assert!(!transient_spawn_error(&io::Error::other("boom")));
    }

    #[test]
    fn missing_binary_is_an_executor_error() {
        let r = runner(5000);
        let plan = ProcessPlan::bare("/no/such/binary", vec![]);
        let err = r.run(0, &plan).unwrap_err();
        assert!(err.contains("/no/such/binary"), "{err}");
    }

    #[test]
    fn concurrent_runners_under_one_root_get_distinct_sandboxes() {
        // Two runners alive at once under one root (two campaign cells
        // in one process). Each test touches a file in its sandbox, then
        // meets the other test outside the sandboxes before it checks:
        // the other test's file must not be visible.
        let root = std::env::temp_dir().join(format!(
            "afex-proc-tests-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let meet = root.join("meet");
        fs::create_dir_all(&meet).unwrap();
        let runners = [
            ProcessRunner::with_root(Duration::from_secs(5), root.clone()),
            ProcessRunner::with_root(Duration::from_secs(5), root.clone()),
        ];
        let statuses = thread::scope(|scope| {
            let tests = [(0, "a", "b"), (1, "b", "a")].map(|(i, mine, other)| {
                let runner = &runners[i];
                let meet = meet.display();
                let script = format!(
                    "touch {mine} {meet}/{mine}; \
                     while [ ! -e {meet}/{other} ]; do sleep 0.01; done; \
                     test ! -e {other}"
                );
                scope.spawn(move || runner.run(0, &sh(&script)).unwrap().status)
            });
            tests.map(|t| t.join().unwrap())
        });
        assert_eq!(statuses, [TestStatus::Passed, TestStatus::Passed]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn engine_runs_process_candidates_in_a_window() {
        let eval = ProcessEvaluator::new(
            |p: &Point| (p[0], sh(if p[0] == 0 { "exit 0" } else { "exit 1" })),
            runner(5000),
            ImpactMetric::default(),
        );
        let mut ex =
            ExhaustiveExplorer::new(FaultSpace::new(vec![Axis::int_range("x", 0, 1)]).unwrap());
        let r = Engine::new(2).run(&mut ex, &eval, StopCondition::Iterations(2));
        let failed: Vec<bool> = r.executed.iter().map(|t| t.evaluation.failed).collect();
        assert_eq!(failed, [false, true]);
    }

    #[test]
    fn executor_failure_ends_the_session() {
        let eval = ProcessEvaluator::new(
            |_: &Point| (0, ProcessPlan::bare("/no/such/binary", vec![])),
            runner(5000),
            ImpactMetric::default(),
        );
        let err = eval.try_evaluate(&Point::new(vec![0])).unwrap_err();
        assert!(err.contains("/no/such/binary"), "{err}");
        let mut ex =
            ExhaustiveExplorer::new(FaultSpace::new(vec![Axis::int_range("x", 0, 9)]).unwrap());
        let r = Engine::sequential().run(&mut ex, &eval, StopCondition::Iterations(10));
        assert!(r.is_empty(), "spawn failure must end the session: {r:?}");
    }

    #[test]
    fn degraded_evaluator_scores_zero_on_executor_failure() {
        let eval = ProcessEvaluator::new(
            |_: &Point| (0, ProcessPlan::bare("/no/such/binary", vec![])),
            runner(5000),
            ImpactMetric::default(),
        );
        assert_eq!(eval.evaluate(&Point::new(vec![0])), Evaluation::zero());
    }
}

//! Crash-recovery oracle and the `vfs:*` target family.
//!
//! The paper's most valuable fault scenarios exercise *recovery* code —
//! §7.1's crash corpus is dominated by abort-and-recover paths. This
//! module turns the rule-driven faulty VFS into a target family that
//! tests exactly that path: run a workload under one injection rule,
//! [`crash`](crate::vfs::Vfs::crash) the machine, reopen with a fresh
//! engine, and check the recovered state against what the workload's
//! acknowledged operations permit.
//!
//! # The invariant
//!
//! Every workload statement gets a *fate* observed from the outside, the
//! way a client would see it:
//!
//! - **Acked** — the statement returned success; `fsynced` records
//!   whether a real (non-dropped) fsync of the commit log happened during
//!   the statement, observed from the replay log.
//! - **Failed** — the statement returned an error or aborted the server.
//!   Its record may or may not have reached the disk (a close failure
//!   after a successful fsync leaves it durable; a write failure leaves
//!   nothing).
//!
//! Because the (fixed) commit log is append-only and fsync flushes the
//! whole file, the durable log after a crash is a *prefix* of the
//! acknowledged history, possibly with failed statements missing, and the
//! prefix must reach at least the last fsync-acknowledged statement. The
//! valid recovered states are therefore: for every cut point at or after
//! the last fsynced ack, and every subset of the failed statements before
//! the cut, the state produced by applying that history. A recovered
//! state outside this set is a genuine durability violation — committed
//! rows lost, phantom rows resurrected, or a torn log — and is reported
//! as a crash. Replay must also be idempotent: crashing and reopening a
//! second time must reproduce the same state.
//!
//! Aborts during the *workload* (the WAL's deliberate panic on write
//! failure, the double-unlock bug) are not violations by themselves —
//! they are the abort-and-recover behaviour §7.1 describes — so they
//! classify as `Failed`, and only phase B (recovery) decides whether the
//! abort lost data.

use crate::docstore::store::{DocStore, Version};
use crate::harness::catch_crash;
use crate::minidb::engine::MiniDb;
use crate::minidb::wal::WalMode;
use crate::vfs::Vfs;
use crate::vfs_fault::{FaultKind, FaultRule, PathMatch, VfsOp};
use afex_inject::{Errno, LibcEnv, TestOutcome, TestStatus};
use afex_space::{Axis, AxisKind, FaultSpace, Point, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which engine a recovery target drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// minidb with the fixed append-only WAL commit.
    MiniDbAppend,
    /// minidb with the historical whole-log-rewrite commit — the bug
    /// specimen the oracle demonstrably catches.
    MiniDbRewrite,
    /// The v2.0 document store (append-only journal).
    Docstore,
}

impl EngineKind {
    /// All engine kinds, in canonical order.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::MiniDbAppend,
        EngineKind::MiniDbRewrite,
        EngineKind::Docstore,
    ];

    /// The kind's spelling in target names (`vfs:<name>`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::MiniDbAppend => "minidb-recovery",
            EngineKind::MiniDbRewrite => "minidb-rewrite",
            EngineKind::Docstore => "docstore-recovery",
        }
    }

    /// Parses a kind name.
    pub fn from_name(s: &str) -> Option<EngineKind> {
        EngineKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    /// The substring identifying the engine's commit log in replay-log
    /// paths (fsyncs of other files do not acknowledge durability).
    fn log_path_marker(self) -> &'static str {
        match self {
            EngineKind::MiniDbAppend | EngineKind::MiniDbRewrite => "wal.log",
            EngineKind::Docstore => "journal",
        }
    }
}

/// One logical workload statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Insert (or overwrite) a row. The docstore ignores the table.
    Insert(&'static str, u64, &'static str),
    /// Delete a row (minidb only).
    Delete(&'static str, u64),
    /// Checkpoint: flush tables (minidb) or save the data file
    /// (docstore). State-neutral — recovery rebuilds from the log alone —
    /// but it exercises the create/write/fsync/rename surface.
    Checkpoint,
}

/// The observed fate of one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// The statement returned success; `fsynced` is whether a real fsync
    /// of the commit log happened during it.
    Acked { fsynced: bool },
    /// The statement returned an error or aborted the server.
    Failed,
}

/// Number of workloads per engine (the `testID` axis).
pub const NUM_WORKLOADS: usize = 6;

fn workload(kind: EngineKind, test_id: usize) -> &'static [Step] {
    use Step::{Checkpoint, Delete, Insert};
    match kind {
        EngineKind::MiniDbAppend | EngineKind::MiniDbRewrite => match test_id {
            0 => &[Insert("t", 1, "alpha")],
            1 => &[
                Insert("t", 1, "alpha"),
                Insert("t", 2, "beta"),
                Insert("t", 3, "gamma"),
            ],
            2 => &[Insert("t", 1, "alpha"), Delete("t", 1)],
            3 => &[
                Insert("t", 1, "alpha"),
                Insert("u", 10, "ten"),
                Insert("t", 2, "beta"),
            ],
            4 => &[Insert("t", 1, "old"), Insert("t", 1, "new")],
            _ => &[Insert("t", 1, "alpha"), Checkpoint, Insert("t", 2, "beta")],
        },
        EngineKind::Docstore => match test_id {
            0 => &[Insert("docs", 1, "alpha")],
            1 => &[
                Insert("docs", 1, "alpha"),
                Insert("docs", 2, "beta"),
                Insert("docs", 3, "gamma"),
            ],
            2 => &[Insert("docs", 1, "old"), Insert("docs", 1, "new")],
            3 => &[
                Insert("docs", 1, "alpha"),
                Checkpoint,
                Insert("docs", 2, "beta"),
            ],
            4 => &[
                Insert("docs", 1, "a-long-document-payload-with-many-bytes"),
                Insert("docs", 2, "beta"),
            ],
            _ => &[
                Insert("docs", 4, "delta"),
                Insert("docs", 5, "epsilon"),
                Insert("docs", 6, "zeta"),
                Insert("docs", 7, "eta"),
            ],
        },
    }
}

/// Recovered database state: table → (key → value). The docstore maps to
/// a single `"docs"` table.
type DbState = BTreeMap<String, BTreeMap<u64, String>>;

/// Classifies one bracketed statement result, marking the server dead on
/// a panic (the process aborted; later statements cannot run). `fsynced`
/// is whether the commit log was really fsynced during the statement.
fn fate_of<E>(
    result: Result<Result<(), E>, String>,
    fsynced: bool,
    server_dead: &mut bool,
) -> Fate {
    match result {
        Ok(Ok(())) => Fate::Acked { fsynced },
        Ok(Err(_)) => Fate::Failed,
        Err(_) => {
            *server_dead = true;
            Fate::Failed
        }
    }
}

/// Runs the workload phase against a live minidb, returning per-statement
/// fates (stopping early if the server aborts).
fn drive_minidb(
    env: &LibcEnv,
    vfs: &Vfs,
    mode: WalMode,
    steps: &[Step],
    marker: &str,
) -> Vec<(Step, Fate)> {
    let mut fates = Vec::new();
    let mut dead = false;
    let boot = catch_crash(|| MiniDb::start_with(env, vfs, mode));
    let db = match boot {
        Ok(Ok(db)) => db,
        // A failed or crashed boot ran no statements: nothing was acked.
        _ => return fates,
    };
    // Create the workload's tables (bracketed like statements: a create
    // can fail gracefully — later inserts then fail too — or abort via
    // the double-unlock bug; either way it is state-neutral, since
    // recovery rebuilds tables from the log).
    let mut tables: Vec<&str> = Vec::new();
    for s in steps {
        if let Step::Insert(t, _, _) | Step::Delete(t, _) = s {
            if !tables.contains(t) {
                tables.push(t);
            }
        }
    }
    for t in tables {
        match catch_crash(|| db.create_table(env, vfs, t)) {
            Ok(_) => {}
            Err(_) => return fates, // Aborted (e.g. double unlock): dead.
        }
    }
    for step in steps {
        if dead {
            break;
        }
        let mark = vfs.log_len();
        let result = match *step {
            Step::Insert(t, k, v) => catch_crash(|| db.insert(env, vfs, t, k, v)),
            Step::Delete(t, k) => catch_crash(|| db.delete(env, vfs, t, k).map(|_| ())),
            Step::Checkpoint => catch_crash(|| db.checkpoint(env, vfs)),
        };
        let fate = fate_of(result, vfs.fsynced_since(mark, marker), &mut dead);
        fates.push((*step, fate));
    }
    fates
}

/// Runs the workload phase against a live docstore.
fn drive_docstore(env: &LibcEnv, vfs: &Vfs, steps: &[Step], marker: &str) -> Vec<(Step, Fate)> {
    let mut fates = Vec::new();
    let mut dead = false;
    let boot = catch_crash(|| DocStore::start(env, vfs, Version::V2_0));
    let store = match boot {
        Ok(Ok(s)) => s,
        _ => return fates,
    };
    for step in steps {
        if dead {
            break;
        }
        let mark = vfs.log_len();
        let result = match *step {
            Step::Insert(_, k, v) => catch_crash(|| store.insert(env, vfs, k, v)),
            Step::Delete(..) => continue, // Not part of docstore workloads.
            Step::Checkpoint => catch_crash(|| store.save(env, vfs)),
        };
        let fate = fate_of(result, vfs.fsynced_since(mark, marker), &mut dead);
        fates.push((*step, fate));
    }
    fates
}

/// Reopens the engine fault-free and dumps its state.
fn reopen(kind: EngineKind, env: &LibcEnv, vfs: &Vfs) -> Result<DbState, String> {
    match kind {
        EngineKind::MiniDbAppend | EngineKind::MiniDbRewrite => {
            match catch_crash(|| MiniDb::start(env, vfs).map(|db| db.dump())) {
                Ok(Ok(state)) => Ok(state),
                Ok(Err(e)) => Err(format!("reopen failed: {e:?}")),
                Err(msg) => Err(format!("reopen crashed: {msg}")),
            }
        }
        EngineKind::Docstore => {
            match catch_crash(|| DocStore::start(env, vfs, Version::V2_0).map(|s| s.dump())) {
                Ok(Ok(docs)) => {
                    let mut state = DbState::new();
                    if !docs.is_empty() {
                        state.insert("docs".to_owned(), docs);
                    }
                    Ok(state)
                }
                Ok(Err(e)) => Err(format!("reopen failed: {e:?}")),
                Err(msg) => Err(format!("reopen crashed: {msg}")),
            }
        }
    }
}

/// Applies the first `cut` statements, including failed ones selected by
/// `mask` (bit *i* of the mask selects the *i*-th failed statement in the
/// prefix).
fn apply_history(ops: &[(Step, Fate)], cut: usize, mask: u32) -> DbState {
    let mut state = DbState::new();
    let mut failed_seen = 0u32;
    for (step, fate) in &ops[..cut] {
        let include = match fate {
            Fate::Acked { .. } => true,
            Fate::Failed => {
                let inc = (mask >> failed_seen) & 1 == 1;
                failed_seen += 1;
                inc
            }
        };
        if !include {
            continue;
        }
        match *step {
            Step::Insert(t, k, v) => {
                state.entry(t.to_owned()).or_default().insert(k, v.to_owned());
            }
            Step::Delete(t, k) => {
                // Replay keeps the (now possibly empty) table entry, as
                // the engine does after applying a delete record.
                if let Some(rows) = state.get_mut(t) {
                    rows.remove(&k);
                }
            }
            Step::Checkpoint => {}
        }
    }
    state
}

/// Every state a correct engine may legitimately recover to.
fn valid_states(ops: &[(Step, Fate)]) -> Vec<DbState> {
    let min_cut = ops
        .iter()
        .rposition(|(_, f)| matches!(f, Fate::Acked { fsynced: true }))
        .map_or(0, |i| i + 1);
    let mut states = Vec::new();
    for cut in min_cut..=ops.len() {
        let failed = ops[..cut]
            .iter()
            .filter(|(_, f)| matches!(f, Fate::Failed))
            .count() as u32;
        for mask in 0..(1u32 << failed) {
            let s = apply_history(ops, cut, mask);
            if !states.contains(&s) {
                states.push(s);
            }
        }
    }
    states
}

/// Names the violation: rows present in *every* valid state but missing
/// from the recovered one mean committed data was lost; anything else is
/// an inconsistent recovered state (phantom or reordered history).
fn diagnose(recovered: &DbState, valid: &[DbState]) -> &'static str {
    let row_set = |s: &DbState| -> Vec<(String, u64, String)> {
        s.iter()
            .flat_map(|(t, rows)| {
                rows.iter()
                    .map(move |(k, v)| (t.clone(), *k, v.clone()))
            })
            .collect()
    };
    let recovered_rows = row_set(recovered);
    let mut must_have: Option<Vec<_>> = None;
    for v in valid {
        let rows = row_set(v);
        must_have = Some(match must_have {
            None => rows,
            Some(acc) => acc.into_iter().filter(|r| rows.contains(r)).collect(),
        });
    }
    if must_have
        .unwrap_or_default()
        .iter()
        .any(|r| !recovered_rows.contains(r))
    {
        "committed rows lost after crash"
    } else {
        "recovered state inconsistent with acknowledged history"
    }
}

/// Runs one crash-recovery test: workload under `rule`, crash, fault-free
/// reopen, invariant check, idempotency check. Returns the outcome plus
/// the canonical rendered replay log (the determinism witness).
pub fn run_recovery_test_logged(
    kind: EngineKind,
    test_id: usize,
    rule: Option<FaultRule>,
) -> (TestOutcome, String) {
    let (outcome, vfs) = run_recovery(kind, test_id, rule);
    // Phase B runs disarmed and logs nothing, so this is the workload's
    // log as the crash left it.
    (outcome, vfs.rendered_log())
}

/// [`run_recovery_test_logged`] without the log.
pub fn run_recovery_test(kind: EngineKind, test_id: usize, rule: Option<FaultRule>) -> TestOutcome {
    run_recovery(kind, test_id, rule).0
}

/// The crash-recovery test itself; returns the filesystem it ran on, so
/// only a caller that wants the replay log renders it.
fn run_recovery(kind: EngineKind, test_id: usize, rule: Option<FaultRule>) -> (TestOutcome, Vfs) {
    let env = LibcEnv::fault_free();
    let vfs = Vfs::new();
    match kind {
        EngineKind::MiniDbAppend | EngineKind::MiniDbRewrite => MiniDb::install(&vfs),
        EngineKind::Docstore => DocStore::install(&vfs),
    }
    // Arm even with no rule: the (possibly fault-free) replay log is part
    // of the determinism contract.
    vfs.arm_rules(rule.into_iter().collect());
    let marker = kind.log_path_marker();
    let steps = workload(kind, test_id);

    // Phase A: the workload, every statement bracketed.
    let ops = match kind {
        EngineKind::MiniDbAppend => drive_minidb(&env, &vfs, WalMode::Append, steps, marker),
        EngineKind::MiniDbRewrite => drive_minidb(&env, &vfs, WalMode::Rewrite, steps, marker),
        EngineKind::Docstore => drive_docstore(&env, &vfs, steps, marker),
    };

    // The crash: everything not durable is gone. Rules are cleared for
    // recovery — they model the faulty environment the workload ran in,
    // and phase B asks what a *fault-free* reopen makes of the disk.
    vfs.crash();
    vfs.clear_rules();

    // Phase B: fault-free reopen + invariants.
    let verdict = check_recovery(kind, &env, &vfs, &ops);
    let mut outcome = env.into_outcome(test_id, TestStatus::Passed);
    outcome.status = match verdict {
        Err(violation) => TestStatus::Crashed(format!("recovery violation: {violation}")),
        Ok(()) => {
            let clean = ops.iter().all(|(_, f)| matches!(f, Fate::Acked { .. }))
                && ops.len() == count_driven(steps, kind);
            if !outcome.triggered() || clean {
                // No rule fired (a fault-space hole), or the fault was
                // fully absorbed.
                TestStatus::Passed
            } else {
                TestStatus::Failed
            }
        }
    };
    (outcome, vfs)
}

/// Phase B: reopens the crashed disk fault-free and checks the recovered
/// state against the statements' fates, then crashes and reopens again
/// to check that replay is idempotent. `Err` names the violation.
fn check_recovery(
    kind: EngineKind,
    env: &LibcEnv,
    vfs: &Vfs,
    ops: &[(Step, Fate)],
) -> Result<(), String> {
    let recovered = reopen(kind, env, vfs).map_err(|why| format!("fault-free {why}"))?;
    let valid = valid_states(ops);
    if !valid.contains(&recovered) {
        return Err(diagnose(&recovered, &valid).to_owned());
    }
    vfs.crash();
    match reopen(kind, env, vfs) {
        Ok(second) if second == recovered => Ok(()),
        Ok(_) => Err("replay not idempotent".to_owned()),
        Err(why) => Err(format!("second {why}")),
    }
}

/// How many statements phase A runs when nothing dies early.
fn count_driven(steps: &[Step], kind: EngineKind) -> usize {
    match kind {
        EngineKind::Docstore => steps
            .iter()
            .filter(|s| !matches!(s, Step::Delete(..)))
            .count(),
        _ => steps.len(),
    }
}

/// The fault kinds on the `fault` axis.
pub const RECOVERY_FAULTS: [&str; 5] =
    ["eio", "enospc", "short-write", "drop-fsync", "torn-rename"];

/// Highest rule timing on the `nth` axis (0 = no injection).
pub const MAX_NTH: u32 = 5;

/// A fault space over crash-recovery scenarios: `testID × op × fault ×
/// nth`. Points with `nth = 0`, or naming a (kind, op) pair that cannot
/// fire (a short write on `close`), or a timing the workload never
/// reaches, are the space's holes — exactly like unreached call numbers
/// on the classic targets. Clones are cheap (the space is shared).
#[derive(Debug, Clone)]
pub struct RecoverySpace {
    space: Arc<FaultSpace>,
    kind: EngineKind,
}

impl RecoverySpace {
    /// Builds the space for one engine kind: 6 workloads × 11 ops × 5
    /// fault kinds × 6 timings = 1,980 points.
    pub fn new(kind: EngineKind) -> Self {
        let space = FaultSpace::new(vec![
            Axis::int_range("testID", 0, NUM_WORKLOADS as i64 - 1),
            Axis::symbolic("op", VfsOp::ALL.iter().map(|o| o.name().to_owned())),
            Axis::symbolic("fault", RECOVERY_FAULTS.iter().map(|s| (*s).to_owned())),
            Axis::new(
                "nth",
                (0..=MAX_NTH as i64).map(Value::Int).collect(),
                AxisKind::Set,
            ),
        ])
        .expect("canonical axes are non-empty");
        RecoverySpace {
            space: Arc::new(space),
            kind,
        }
    }

    /// The target's canonical name, `vfs:<engine>`.
    pub fn name(&self) -> String {
        format!("vfs:{}", self.kind.name())
    }

    /// The engine kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The underlying fault space.
    pub fn space(&self) -> &FaultSpace {
        &self.space
    }

    /// A shared handle to the fault space.
    pub fn space_arc(&self) -> Arc<FaultSpace> {
        Arc::clone(&self.space)
    }

    /// Decodes a point into (test id, fault rule). `nth = 0` is the bare
    /// workload (no rule).
    ///
    /// # Panics
    ///
    /// Panics if the point does not address this space.
    pub fn rule_for(&self, p: &Point) -> (usize, Option<FaultRule>) {
        self.space
            .check(p)
            .expect("point must address the recovery target space");
        let test_id = p[0];
        let op = VfsOp::ALL[p[1]];
        let kind = match RECOVERY_FAULTS[p[2]] {
            "eio" => FaultKind::Error(Errno::EIO),
            "enospc" => FaultKind::Error(Errno::ENOSPC),
            "short-write" => FaultKind::ShortWrite,
            "drop-fsync" => FaultKind::DropFsync,
            _ => FaultKind::TornRename,
        };
        let nth = p[3] as u32;
        if nth == 0 {
            return (test_id, None);
        }
        (
            test_id,
            Some(FaultRule {
                op,
                path: PathMatch::Any,
                nth,
                kind,
            }),
        )
    }

    /// Executes the point's crash-recovery test.
    pub fn execute(&self, p: &Point) -> TestOutcome {
        let (test_id, rule) = self.rule_for(p);
        run_recovery_test(self.kind, test_id, rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(test: usize, op: VfsOp, fault: usize, nth: usize) -> Point {
        let op_idx = VfsOp::ALL.iter().position(|o| *o == op).unwrap();
        Point::new(vec![test, op_idx, fault, nth])
    }

    const EIO: usize = 0;
    const SHORT: usize = 2;
    const DROP_FSYNC: usize = 3;
    const TORN_RENAME: usize = 4;

    #[test]
    fn space_shape() {
        for kind in EngineKind::ALL {
            let s = RecoverySpace::new(kind);
            assert_eq!(s.space().len(), 6 * 11 * 5 * 6);
            assert_eq!(s.space().arity(), 4);
        }
        assert_eq!(
            RecoverySpace::new(EngineKind::MiniDbAppend).name(),
            "vfs:minidb-recovery"
        );
        assert_eq!(EngineKind::from_name("docstore-recovery"), Some(EngineKind::Docstore));
        assert_eq!(EngineKind::from_name("nosuch"), None);
    }

    #[test]
    fn bare_points_pass_on_every_engine() {
        for kind in EngineKind::ALL {
            let s = RecoverySpace::new(kind);
            for test in 0..NUM_WORKLOADS {
                let o = s.execute(&point(test, VfsOp::Write, EIO, 0));
                assert_eq!(o.status, TestStatus::Passed, "{} test {test}", s.name());
                assert!(o.injections.is_empty());
            }
        }
    }

    #[test]
    fn rewrite_bug_loses_committed_rows() {
        // Workload 1 commits three inserts. Failing the WAL write of
        // commit #2 (write #5: three header writes + commit #1) hits the
        // rewrite path after its truncating create: commit #1's row is
        // durably gone. The fixed append-only engine shrugs it off.
        let p = point(1, VfsOp::Write, EIO, 5);
        let buggy = RecoverySpace::new(EngineKind::MiniDbRewrite).execute(&p);
        assert!(
            matches!(&buggy.status, TestStatus::Crashed(m) if m.contains("recovery violation")),
            "rewrite: {:?}",
            buggy.status
        );
        assert!(!buggy.injections.is_empty());
        let fixed = RecoverySpace::new(EngineKind::MiniDbAppend).execute(&p);
        assert_eq!(fixed.status, TestStatus::Failed, "append: {:?}", fixed.status);
    }

    #[test]
    fn dropped_fsync_violates_rewrite_but_not_append() {
        // The *last* commit's fsync is dropped. Rewrite: its truncating
        // create was journaled but the rewritten bytes never flushed —
        // the whole durable log is empty, losing commits #1 and #2.
        // Append: only commit #3 may be missing, which the fsynced=false
        // fate permits. (Dropping an *earlier* rewrite fsync is repaired
        // by the next commit's full rewrite — correctly Passed.)
        let p = point(1, VfsOp::Fsync, DROP_FSYNC, 3);
        let buggy = RecoverySpace::new(EngineKind::MiniDbRewrite).execute(&p);
        assert!(buggy.status.is_crash(), "rewrite: {:?}", buggy.status);
        let fixed = RecoverySpace::new(EngineKind::MiniDbAppend).execute(&p);
        assert!(!fixed.status.is_crash(), "append: {:?}", fixed.status);
    }

    #[test]
    fn short_write_is_absorbed_by_the_fixed_commit() {
        let p = point(1, VfsOp::Write, SHORT, 5);
        let fixed = RecoverySpace::new(EngineKind::MiniDbAppend).execute(&p);
        // The commit loop completes the short write: fully absorbed.
        assert_eq!(fixed.status, TestStatus::Passed, "{:?}", fixed.status);
        assert!(!fixed.injections.is_empty(), "the rule must have fired");
        let buggy = RecoverySpace::new(EngineKind::MiniDbRewrite).execute(&p);
        assert!(buggy.status.is_crash(), "rewrite tears the log: {:?}", buggy.status);
    }

    #[test]
    fn torn_checkpoint_rename_is_survivable() {
        // Workload 5 checkpoints between two inserts; tearing the MYD
        // rename must not violate recovery (the WAL is the truth).
        let p = point(5, VfsOp::Rename, TORN_RENAME, 1);
        let o = RecoverySpace::new(EngineKind::MiniDbAppend).execute(&p);
        assert!(!o.status.is_crash(), "{:?}", o.status);
        assert!(!o.injections.is_empty(), "the rename rule must fire");
    }

    #[test]
    fn workload_abort_is_failed_not_crashed() {
        // A close error during mi_create trips the double-unlock abort —
        // §7.1's abort-and-recover, not a durability violation (close #5:
        // my.cnf, errmsg, then frm/myi/myd).
        let p = point(0, VfsOp::Close, EIO, 5);
        let o = RecoverySpace::new(EngineKind::MiniDbAppend).execute(&p);
        assert_eq!(o.status, TestStatus::Failed, "{:?}", o.status);
    }

    #[test]
    fn docstore_recovery_holds_under_journal_faults() {
        let s = RecoverySpace::new(EngineKind::Docstore);
        for (op, fault, nth) in [
            (VfsOp::Write, EIO, 2),
            (VfsOp::Fsync, DROP_FSYNC, 1),
            (VfsOp::Write, SHORT, 1),
            (VfsOp::Append, EIO, 1),
        ] {
            let o = s.execute(&point(1, op, fault, nth));
            assert!(!o.status.is_crash(), "{op:?}/{fault}/{nth}: {:?}", o.status);
        }
    }

    #[test]
    fn replay_log_is_byte_identical_across_runs() {
        let rule = FaultRule {
            op: VfsOp::Fsync,
            path: PathMatch::Any,
            nth: 2,
            kind: FaultKind::DropFsync,
        };
        let (o1, log1) =
            run_recovery_test_logged(EngineKind::MiniDbAppend, 1, Some(rule.clone()));
        let (o2, log2) = run_recovery_test_logged(EngineKind::MiniDbAppend, 1, Some(rule));
        assert_eq!(log1, log2);
        assert!(!log1.is_empty());
        assert_eq!(o1.status, o2.status);
    }
}

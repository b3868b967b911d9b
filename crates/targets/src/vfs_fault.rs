//! Rule-driven fault layer for the in-memory VFS.
//!
//! Where [`LibcEnv`](afex_inject::LibcEnv) injects faults by *libc
//! function × call number*, this layer injects them by *VFS operation ×
//! path match × timing* — the shape crash-recovery scenarios need: "the
//! 2nd write to the WAL is short", "the fsync after the journal append is
//! silently dropped", "the checkpoint rename is torn by a crash". Rules
//! are armed on a [`Vfs`](crate::vfs::Vfs); every operation the VFS
//! performs while armed is recorded to a replay log, so any failing run
//! can be reproduced and diffed byte-for-byte.
//!
//! The kinds go beyond errno injection:
//!
//! - [`FaultKind::Error`] — the call fails with an errno, like a plan
//!   fault.
//! - [`FaultKind::ShortWrite`] — the write *succeeds* but applies only
//!   half the requested bytes (torn write; callers that ignore the
//!   returned count silently lose data).
//! - [`FaultKind::DropFsync`] — the fsync *reports success* but flushes
//!   nothing (lying disk firmware / eat-my-data caches).
//! - [`FaultKind::TornRename`] — the rename lands in the visible
//!   namespace but never reaches the durable one; after a crash the old
//!   name reappears.

use afex_inject::{Errno, Func};
use std::fmt;

/// The VFS operations a fault rule can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsOp {
    /// `open` for reading an existing file.
    Open,
    /// `open(O_CREAT|O_TRUNC)` — truncating create.
    Create,
    /// `open(O_CREAT|O_APPEND)` — append-mode open.
    Append,
    /// `read` through a handle.
    Read,
    /// `write` through a handle.
    Write,
    /// `fsync` of a handle.
    Fsync,
    /// `close` of a handle.
    Close,
    /// `rename` of a path.
    Rename,
    /// `unlink` of a path.
    Unlink,
    /// `mkdir`.
    Mkdir,
    /// `stat`.
    Stat,
}

impl VfsOp {
    /// All ops, in canonical (fault-space axis) order.
    pub const ALL: [VfsOp; 11] = [
        VfsOp::Open,
        VfsOp::Create,
        VfsOp::Append,
        VfsOp::Read,
        VfsOp::Write,
        VfsOp::Fsync,
        VfsOp::Close,
        VfsOp::Rename,
        VfsOp::Unlink,
        VfsOp::Mkdir,
        VfsOp::Stat,
    ];

    /// The op's spelling on fault-space axes and in replay logs.
    pub fn name(self) -> &'static str {
        match self {
            VfsOp::Open => "open",
            VfsOp::Create => "create",
            VfsOp::Append => "append",
            VfsOp::Read => "read",
            VfsOp::Write => "write",
            VfsOp::Fsync => "fsync",
            VfsOp::Close => "close",
            VfsOp::Rename => "rename",
            VfsOp::Unlink => "unlink",
            VfsOp::Mkdir => "mkdir",
            VfsOp::Stat => "stat",
        }
    }

    /// Parses an op name.
    pub fn from_name(s: &str) -> Option<VfsOp> {
        VfsOp::ALL.iter().copied().find(|op| op.name() == s)
    }

    /// The libc function this op announces — rule firings are recorded
    /// as injections of this function, so recovery scenarios cluster
    /// with the same stack-trace machinery as plan faults.
    pub fn func(self) -> Func {
        match self {
            VfsOp::Open | VfsOp::Create | VfsOp::Append => Func::Open,
            VfsOp::Read => Func::Read,
            VfsOp::Write => Func::Write,
            VfsOp::Fsync => Func::Fsync,
            VfsOp::Close => Func::Close,
            VfsOp::Rename => Func::Rename,
            VfsOp::Unlink => Func::Unlink,
            VfsOp::Mkdir => Func::Mkdir,
            VfsOp::Stat => Func::Stat,
        }
    }
}

impl fmt::Display for VfsOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a matching rule does to the targeted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the call with this errno (the classic injection).
    Error(Errno),
    /// Apply only half the requested bytes, reporting the short count.
    /// Applies to [`VfsOp::Write`] only.
    ShortWrite,
    /// Report success without making anything durable. Applies to
    /// [`VfsOp::Fsync`] only.
    DropFsync,
    /// Apply the rename to the visible namespace only; the durable
    /// namespace keeps the old name. Applies to [`VfsOp::Rename`] only.
    TornRename,
}

impl FaultKind {
    /// Whether this kind can affect `op` at all. Inapplicable pairs
    /// (a short write on `close`, a dropped fsync on `read`) are the
    /// fault-space holes explorers must discover, exactly like call
    /// numbers a workload never reaches.
    pub fn applies_to(self, op: VfsOp) -> bool {
        match self {
            FaultKind::Error(_) => true,
            FaultKind::ShortWrite => op == VfsOp::Write,
            FaultKind::DropFsync => op == VfsOp::Fsync,
            FaultKind::TornRename => op == VfsOp::Rename,
        }
    }

    /// The errno recorded for the injection. The silent kinds report
    /// success to the target, but the injection record still needs a
    /// representative errno; `EIO` is the canonical lying-hardware one.
    pub fn errno(self) -> Errno {
        match self {
            FaultKind::Error(e) => e,
            FaultKind::ShortWrite | FaultKind::DropFsync | FaultKind::TornRename => Errno::EIO,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Error(e) => write!(f, "error-{e}"),
            FaultKind::ShortWrite => f.write_str("short-write"),
            FaultKind::DropFsync => f.write_str("drop-fsync"),
            FaultKind::TornRename => f.write_str("torn-rename"),
        }
    }
}

/// Path predicate of a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathMatch {
    /// Matches every path.
    Any,
    /// Matches paths containing this substring.
    Contains(String),
}

impl PathMatch {
    /// Whether `path` satisfies the predicate.
    pub fn matches(&self, path: &str) -> bool {
        match self {
            PathMatch::Any => true,
            PathMatch::Contains(s) => path.contains(s.as_str()),
        }
    }
}

/// One injection rule: fires exactly once, on the `nth` (1-based)
/// operation matching `(op, path)`. The once-only semantics mirror
/// [`AtomicFault`](afex_inject::AtomicFault)'s single-call targeting and
/// keep retry loops terminating (a retried short write completes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// The targeted operation.
    pub op: VfsOp,
    /// The path predicate.
    pub path: PathMatch,
    /// Which matching operation fires the rule (1-based).
    pub nth: u32,
    /// What happens when it fires.
    pub kind: FaultKind,
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path = match &self.path {
            PathMatch::Any => "*".to_owned(),
            PathMatch::Contains(s) => format!("*{s}*"),
        };
        write!(f, "{} #{} on {} -> {}", self.op, self.nth, path, self.kind)
    }
}

/// What the fault layer decided for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// No rule fired; the operation proceeds normally.
    Ok,
    /// The operation fails with this errno.
    Error(Errno),
    /// The write applies only part of the requested bytes.
    Short,
    /// The fsync reports success but flushes nothing.
    DroppedFsync,
    /// The rename lands only in the visible namespace.
    Torn,
}

/// The decision's spelling in replay logs.
impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Ok => f.write_str("ok"),
            Decision::Error(e) => write!(f, "error-{e}"),
            Decision::Short => f.write_str("short"),
            Decision::DroppedFsync => f.write_str("dropped-fsync"),
            Decision::Torn => f.write_str("torn"),
        }
    }
}

/// One replay-log entry: an operation the armed VFS performed, with the
/// fault decision and the byte counts involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Sequence number (0-based, per arming).
    pub seq: u64,
    /// The operation.
    pub op: VfsOp,
    /// The operated path.
    pub path: String,
    /// What the layer decided.
    pub decision: Decision,
    /// Bytes the caller asked to move (0 for non-data ops).
    pub requested: usize,
    /// Bytes actually moved.
    pub applied: usize,
}

impl LogEntry {
    /// Canonical one-line rendering; the concatenation over a run is the
    /// byte-identical determinism witness.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_line(
            f,
            self.seq,
            self.op,
            &self.path,
            self.applied,
            self.requested,
            self.decision,
        )
    }
}

/// Writes one replay-log line, without its newline.
fn write_line(
    out: &mut impl fmt::Write,
    seq: u64,
    op: VfsOp,
    path: &str,
    applied: usize,
    requested: usize,
    decision: Decision,
) -> fmt::Result {
    write!(
        out,
        "#{seq:04} {op} {path} {applied}B/{requested}B {decision}"
    )
}

/// A logged operation as the layer stores it: the path is an index into
/// the layer's table of distinct paths, so logging an op copies no
/// string. Its position in the log is its sequence number.
#[derive(Debug, Clone, Copy)]
struct Logged {
    op: VfsOp,
    path: usize,
    decision: Decision,
    requested: usize,
    applied: usize,
}

/// The armed rule set plus the replay log. Owned by the VFS behind a
/// `RefCell`; dormant (and free) until [`FaultLayer::arm`] is called.
#[derive(Debug, Default)]
pub struct FaultLayer {
    armed: bool,
    /// Each rule with its match counter and whether it already fired.
    rules: Vec<(FaultRule, u32, bool)>,
    log: Vec<Logged>,
    /// The distinct paths the log names, in first-logged order.
    paths: Vec<String>,
}

impl FaultLayer {
    /// Arms the layer with `rules`, clearing any previous log. An empty
    /// rule set still turns logging on (fault-free replay logs are the
    /// baseline of the determinism contract).
    pub fn arm(&mut self, rules: Vec<FaultRule>) {
        self.armed = true;
        self.rules = rules.into_iter().map(|r| (r, 0, false)).collect();
        self.log.clear();
        self.paths.clear();
    }

    /// Disarms the layer: no further rules fire and no ops are logged.
    /// The log is retained for inspection.
    pub fn disarm(&mut self) {
        self.armed = false;
        self.rules.clear();
    }

    /// Whether the layer is currently armed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Decides the fate of one operation, logging it. Returns
    /// [`Decision::Ok`] when dormant.
    pub fn decide(&mut self, op: VfsOp, path: &str, requested: usize) -> Decision {
        if !self.armed {
            return Decision::Ok;
        }
        let mut decision = Decision::Ok;
        for (rule, count, fired) in &mut self.rules {
            if rule.op != op || !rule.path.matches(path) || !rule.kind.applies_to(op) {
                continue;
            }
            *count += 1;
            if *fired || *count != rule.nth || decision != Decision::Ok {
                continue;
            }
            *fired = true;
            decision = match rule.kind {
                FaultKind::Error(e) => Decision::Error(e),
                FaultKind::ShortWrite => Decision::Short,
                FaultKind::DropFsync => Decision::DroppedFsync,
                FaultKind::TornRename => Decision::Torn,
            };
        }
        let applied = match decision {
            Decision::Error(_) => 0,
            Decision::Short => requested / 2,
            _ => requested,
        };
        let path = match self.paths.iter().position(|p| p == path) {
            Some(i) => i,
            None => {
                self.paths.push(path.to_owned());
                self.paths.len() - 1
            }
        };
        self.log.push(Logged {
            op,
            path,
            decision,
            requested,
            applied,
        });
        decision
    }

    /// How many operations the log holds.
    pub(crate) fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether the log holds, from entry `mark` on, an fsync of a path
    /// containing `marker` that no rule faulted.
    pub(crate) fn fsynced_since(&self, mark: usize, marker: &str) -> bool {
        self.log.get(mark..).unwrap_or_default().iter().any(|e| {
            e.op == VfsOp::Fsync
                && e.decision == Decision::Ok
                && self.paths[e.path].contains(marker)
        })
    }

    /// The replay log collected since the last arming.
    pub fn log(&self) -> Vec<LogEntry> {
        self.log
            .iter()
            .zip(0..)
            .map(|(e, seq)| LogEntry {
                seq,
                op: e.op,
                path: self.paths[e.path].clone(),
                decision: e.decision,
                requested: e.requested,
                applied: e.applied,
            })
            .collect()
    }

    /// The whole log rendered one entry per line — byte-identical across
    /// runs of the same workload under the same rules.
    pub fn rendered(&self) -> String {
        let mut out = String::new();
        for (e, seq) in self.log.iter().zip(0..) {
            // Writing into a `String` cannot fail.
            let _ = write_line(
                &mut out,
                seq,
                e.op,
                &self.paths[e.path],
                e.applied,
                e.requested,
                e.decision,
            );
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(op: VfsOp, nth: u32, kind: FaultKind) -> FaultRule {
        FaultRule {
            op,
            path: PathMatch::Any,
            nth,
            kind,
        }
    }

    #[test]
    fn dormant_layer_decides_ok_and_logs_nothing() {
        let mut layer = FaultLayer::default();
        assert_eq!(layer.decide(VfsOp::Write, "/f", 10), Decision::Ok);
        assert!(layer.log().is_empty());
        assert!(!layer.is_armed());
    }

    #[test]
    fn rule_fires_on_exact_nth_match_once() {
        let mut layer = FaultLayer::default();
        layer.arm(vec![rule(VfsOp::Write, 2, FaultKind::Error(Errno::EIO))]);
        assert_eq!(layer.decide(VfsOp::Write, "/f", 4), Decision::Ok);
        assert_eq!(layer.decide(VfsOp::Write, "/f", 4), Decision::Error(Errno::EIO));
        assert_eq!(layer.decide(VfsOp::Write, "/f", 4), Decision::Ok);
        assert_eq!(layer.log().len(), 3);
    }

    #[test]
    fn path_match_filters_the_counter() {
        let mut layer = FaultLayer::default();
        layer.arm(vec![FaultRule {
            op: VfsOp::Write,
            path: PathMatch::Contains("wal".into()),
            nth: 1,
            kind: FaultKind::ShortWrite,
        }]);
        // A non-matching path neither fires nor advances the counter.
        assert_eq!(layer.decide(VfsOp::Write, "/data/t.MYD", 8), Decision::Ok);
        assert_eq!(layer.decide(VfsOp::Write, "/data/wal.log", 8), Decision::Short);
    }

    #[test]
    fn kind_op_applicability() {
        assert!(FaultKind::ShortWrite.applies_to(VfsOp::Write));
        assert!(!FaultKind::ShortWrite.applies_to(VfsOp::Read));
        assert!(FaultKind::DropFsync.applies_to(VfsOp::Fsync));
        assert!(!FaultKind::DropFsync.applies_to(VfsOp::Write));
        assert!(FaultKind::TornRename.applies_to(VfsOp::Rename));
        assert!(!FaultKind::TornRename.applies_to(VfsOp::Unlink));
        for op in VfsOp::ALL {
            assert!(FaultKind::Error(Errno::EIO).applies_to(op));
        }
        // An inapplicable rule never fires, even on its nth match.
        let mut layer = FaultLayer::default();
        layer.arm(vec![rule(VfsOp::Close, 1, FaultKind::ShortWrite)]);
        assert_eq!(layer.decide(VfsOp::Close, "/f", 0), Decision::Ok);
    }

    #[test]
    fn short_write_applies_half() {
        let mut layer = FaultLayer::default();
        layer.arm(vec![rule(VfsOp::Write, 1, FaultKind::ShortWrite)]);
        layer.decide(VfsOp::Write, "/f", 9);
        assert_eq!(layer.log()[0].applied, 4);
        assert_eq!(layer.log()[0].requested, 9);
    }

    #[test]
    fn log_renders_deterministically() {
        let run = || {
            let mut layer = FaultLayer::default();
            layer.arm(vec![rule(VfsOp::Fsync, 1, FaultKind::DropFsync)]);
            layer.decide(VfsOp::Create, "/f", 0);
            layer.decide(VfsOp::Write, "/f", 6);
            layer.decide(VfsOp::Fsync, "/f", 0);
            layer.rendered()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("dropped-fsync"), "{a}");
        assert_eq!(a.lines().count(), 3);
    }

    #[test]
    fn op_names_and_funcs_roundtrip() {
        for op in VfsOp::ALL {
            assert_eq!(VfsOp::from_name(op.name()), Some(op));
            let _ = op.func(); // Every op maps to an announced function.
        }
        assert_eq!(VfsOp::from_name("nosuch"), None);
        assert_eq!(VfsOp::Append.func(), Func::Open);
    }

    #[test]
    fn rule_and_kind_render() {
        let r = FaultRule {
            op: VfsOp::Fsync,
            path: PathMatch::Contains("journal".into()),
            nth: 3,
            kind: FaultKind::DropFsync,
        };
        assert_eq!(r.to_string(), "fsync #3 on *journal* -> drop-fsync");
        assert_eq!(FaultKind::Error(Errno::ENOSPC).to_string(), "error-ENOSPC");
        assert_eq!(FaultKind::Error(Errno::ENOSPC).errno(), Errno::ENOSPC);
        assert_eq!(FaultKind::DropFsync.errno(), Errno::EIO);
    }
}

//! Outcome pins for every in-process target family: a fixed point set must
//! produce the same statuses, coverage, injections and replay logs from
//! one commit to the next.
//!
//! Each family runs a SplitMix64-drawn point set (`common/points.rs`).
//! The simulated suites go through `TargetSpace::execute`; the `vfs:*`
//! kinds go through `run_recovery_test_logged`, so their rendered replay
//! logs are pinned too, and `RecoverySpace::execute` must return the
//! same outcome. Every outcome is folded into an FNV-1a-64 digest over
//! its point, its status, its sorted coverage set and each injection's
//! function, call number, errno and stack. A change to the injection
//! substrate (`LibcEnv`, the VFS, the recovery oracle) that alters any of
//! these moves a digest; such a change must update the constant and say
//! why in CHANGES.md.

use afex::inject::TestOutcome;
use afex::space::Point;
use afex::targets::docstore::Version;
use afex::targets::recovery::{run_recovery_test_logged, EngineKind, RecoverySpace};
use afex::targets::spaces::TargetSpace;

#[path = "common/points.rs"]
mod points;

use points::points;

/// Points per simulated suite.
const SUITE_POINTS: usize = 4_000;
/// Points per `vfs:*` kind.
const VFS_POINTS: usize = 1_200;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// A length-prefixed string, so adjacent fields cannot run together.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
}

fn fold_outcome(h: &mut Fnv, p: &Point, o: &TestOutcome) {
    for &a in p.attrs() {
        h.u64(a as u64);
    }
    h.u64(o.test_id as u64);
    h.str(&o.status.to_string());
    let mut blocks: Vec<(&str, u32)> = o.coverage.iter().collect();
    blocks.sort_unstable();
    h.u64(blocks.len() as u64);
    for (module, id) in blocks {
        h.str(module);
        h.u64(u64::from(id));
    }
    h.u64(o.injections.len() as u64);
    for rec in &o.injections {
        h.str(rec.fault.func.name());
        h.u64(u64::from(rec.fault.call_number));
        h.str(rec.fault.errno.name());
        h.u64(rec.stack.len() as u64);
        for frame in &rec.stack {
            h.str(frame);
        }
    }
}

fn suite_digest(ts: &TargetSpace, seed: u64) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    for p in points(ts.space(), seed, SUITE_POINTS) {
        fold_outcome(&mut h, &p, &ts.execute(&p));
    }
    h.0
}

fn vfs_digest(kind: EngineKind, seed: u64) -> u64 {
    let rs = RecoverySpace::new(kind);
    let mut h = Fnv(FNV_OFFSET);
    for p in points(rs.space(), seed, VFS_POINTS) {
        let (test_id, rule) = rs.rule_for(&p);
        let (outcome, log) = run_recovery_test_logged(kind, test_id, rule);
        assert_eq!(rs.execute(&p), outcome, "execute and the logged run differ");
        fold_outcome(&mut h, &p, &outcome);
        h.str(&log);
    }
    h.0
}

fn assert_pinned(family: &str, got: u64, expected: u64) {
    assert_eq!(
        got, expected,
        "{family}: outcome digest {got:#018x} != pinned {expected:#018x}"
    );
}

#[test]
fn coreutils_outcomes_are_pinned() {
    assert_pinned(
        "coreutils",
        suite_digest(&TargetSpace::coreutils(), 1),
        0x3bba_a0ad_2d43_da13,
    );
}

#[test]
fn minidb_outcomes_are_pinned() {
    assert_pinned(
        "minidb",
        suite_digest(&TargetSpace::mysql(), 2),
        0xda30_5f79_dd0f_dcc6,
    );
}

#[test]
fn httpd_outcomes_are_pinned() {
    assert_pinned(
        "httpd",
        suite_digest(&TargetSpace::apache(), 3),
        0x0bf2_702f_3264_311d,
    );
}

#[test]
fn docstore_outcomes_are_pinned() {
    assert_pinned(
        "docstore-0.8",
        suite_digest(&TargetSpace::docstore(Version::V0_8), 4),
        0x3865_77cc_56f4_4257,
    );
    assert_pinned(
        "docstore-2.0",
        suite_digest(&TargetSpace::docstore(Version::V2_0), 5),
        0x0a4c_dcb9_2276_808b,
    );
}

#[test]
fn vfs_outcomes_and_replay_logs_are_pinned() {
    assert_pinned(
        "vfs:minidb-recovery",
        vfs_digest(EngineKind::MiniDbAppend, 6),
        0x12fc_d9c8_642c_4633,
    );
    assert_pinned(
        "vfs:minidb-rewrite",
        vfs_digest(EngineKind::MiniDbRewrite, 7),
        0xa07f_6f3f_12b6_ffa9,
    );
    assert_pinned(
        "vfs:docstore-recovery",
        vfs_digest(EngineKind::Docstore, 8),
        0x11fe_8c97_6492_0ace,
    );
}

//! Whole-search trajectory pins: a fixed-seed fitness hunt must execute
//! the same tests, in the same order, with the same outcomes, from one
//! commit to the next.
//!
//! Each session is folded into an FNV-1a-64 digest over every executed
//! test: its point's coordinates, `impact.to_bits()` and the
//! crashed/failed/hung flags. A change that alters any draw of
//! Algorithm 1 (parent sampling, axis choice, the Gaussian new value) or
//! the RNG calls they consume moves the digest. Such a change must
//! update the constants below and say why in CHANGES.md.

use afex::campaign::{default_metric, run_hunt, HuntSpec};
use afex::core::campaign::TestTimeout;
use afex::core::{SessionResult, StopCondition};

const TESTS: usize = 5_000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn digest(result: &SessionResult) -> u64 {
    result.executed.iter().fold(FNV_OFFSET, |mut h, t| {
        for &a in t.point.attrs() {
            h = fnv1a(h, &(a as u64).to_le_bytes());
        }
        let e = &t.evaluation;
        h = fnv1a(h, &e.impact.to_bits().to_le_bytes());
        fnv1a(
            h,
            &[u8::from(e.crashed), u8::from(e.failed), u8::from(e.hung)],
        )
    })
}

/// `afex-cli hunt --target <target> --iterations 5000 --seed 1
/// --workers 1` with the target's default metric and feedback off.
fn hunt(target: &str) -> SessionResult {
    run_hunt(&HuntSpec {
        target: target.into(),
        stop: StopCondition::Iterations(TESTS),
        seed: 1,
        workers: 1,
        metric: default_metric(target),
        feedback: false,
        timeout: TestTimeout::default(),
    })
    .expect("simulated targets always run")
}

fn assert_trajectory(target: &str, expected: u64) {
    let result = hunt(target);
    assert_eq!(result.len(), TESTS, "{target}: executed test count");
    let got = digest(&result);
    assert_eq!(
        got, expected,
        "{target}: trajectory digest {got:#018x} != pinned {expected:#018x}"
    );
}

#[test]
fn minidb_hunt_trajectory_is_pinned() {
    assert_trajectory("minidb", 0x6c2a_a2a3_da06_7c17);
}

#[test]
fn httpd_hunt_trajectory_is_pinned() {
    assert_trajectory("httpd", 0xd934_f6ac_4909_3ba9);
}

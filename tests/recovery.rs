//! End-to-end tests of the crash-recovery oracle and the `vfs:*` target
//! family: the fixed engines survive *every* single-fault plan in the
//! space, the retained whole-log-rewrite specimen does not, a hunt over
//! the specimen finds the violation, and the replay log is byte-stable.

use afex::campaign::{run_hunt, HuntSpec, ResolvedTarget};
use afex::core::campaign::TestTimeout;
use afex::core::{ImpactMetric, StopCondition};
use afex::inject::TestStatus;
use afex::targets::recovery::{
    run_recovery_test, run_recovery_test_logged, EngineKind, RecoverySpace, NUM_WORKLOADS,
    RECOVERY_FAULTS,
};
use afex::targets::{FaultKind, FaultRule, PathMatch, VfsOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sweeps the whole 1,980-point space, returning the crashed outcomes'
/// `(point index, signature)` pairs.
fn sweep_crashes(space: &RecoverySpace) -> Vec<(u64, String)> {
    (0..space.space().len())
        .filter_map(|i| {
            let p = space.space().point_at(i).unwrap();
            match space.execute(&p).status {
                TestStatus::Crashed(sig) => Some((i, sig)),
                _ => None,
            }
        })
        .collect()
}

#[test]
fn fixed_minidb_survives_every_single_fault_plan() {
    let space = RecoverySpace::new(EngineKind::MiniDbAppend);
    let crashes = sweep_crashes(&space);
    assert!(
        crashes.is_empty(),
        "the fixed append-only engine must never violate recovery: {crashes:?}"
    );
}

#[test]
fn fixed_docstore_survives_every_single_fault_plan() {
    let space = RecoverySpace::new(EngineKind::Docstore);
    let crashes = sweep_crashes(&space);
    assert!(
        crashes.is_empty(),
        "the fixed append-only journal must never violate recovery: {crashes:?}"
    );
}

#[test]
fn rewrite_specimen_violates_recovery() {
    let space = RecoverySpace::new(EngineKind::MiniDbRewrite);
    let crashes = sweep_crashes(&space);
    assert!(
        !crashes.is_empty(),
        "the whole-log-rewrite WAL must lose committed rows somewhere in the space"
    );
    for (_, sig) in &crashes {
        assert!(sig.contains("recovery violation"), "{sig}");
    }
}

#[test]
fn hunt_finds_the_rewrite_violation() {
    // The acceptance path of `afex-cli hunt --target vfs:minidb-rewrite`:
    // a fitness-guided crash hunt over the recovery space stops at the
    // first durability violation well before the iteration cap.
    let Ok(ResolvedTarget::Vfs(kind)) = ResolvedTarget::resolve("vfs:minidb-rewrite") else {
        panic!("vfs:minidb-rewrite must resolve to a crash-recovery target");
    };
    let space_len = RecoverySpace::new(kind).space().len();
    let hunt = HuntSpec {
        target: "vfs:minidb-rewrite".into(),
        stop: StopCondition::Crashes {
            count: 1,
            max_iterations: space_len as usize,
        },
        seed: 7,
        workers: 2,
        metric: ImpactMetric::crash_hunter(),
        feedback: false,
        timeout: TestTimeout::default(),
    };
    let result = run_hunt(&hunt).unwrap();
    assert!(result.crashes() >= 1, "hunt must find a recovery violation");
    assert!(
        (result.len() as u64) < space_len,
        "the hunt should stop at the violation, not run the space out"
    );
    // And the fixed engine under the same hunt finds nothing.
    let fixed = HuntSpec {
        target: "vfs:minidb-recovery".into(),
        stop: StopCondition::Crashes {
            count: 1,
            max_iterations: 400,
        },
        ..hunt
    };
    let result = run_hunt(&fixed).unwrap();
    assert_eq!(result.crashes(), 0, "the fixed engine must survive the hunt");
}

/// A uniformly random single-fault rule over the full rule vocabulary —
/// wider than the space's grid (arbitrary `nth`, path filters), so the
/// property covers plans the axes cannot express.
fn random_rule(rng: &mut StdRng) -> FaultRule {
    let op = VfsOp::ALL[rng.gen_range(0..VfsOp::ALL.len())];
    let kind = match rng.gen_range(0..5) {
        0 => FaultKind::Error(afex::inject::Errno::EIO),
        1 => FaultKind::Error(afex::inject::Errno::ENOSPC),
        2 => FaultKind::ShortWrite,
        3 => FaultKind::DropFsync,
        _ => FaultKind::TornRename,
    };
    let path = match rng.gen_range(0..4) {
        0 => PathMatch::Contains("wal".to_owned()),
        1 => PathMatch::Contains("journal".to_owned()),
        2 => PathMatch::Contains(".MYD".to_owned()),
        _ => PathMatch::Any,
    };
    FaultRule {
        op,
        path,
        nth: rng.gen_range(1..=8),
        kind,
    }
}

#[test]
fn random_single_fault_plans_never_violate_recovery() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..400 {
        let kind = if rng.gen_bool(0.5) {
            EngineKind::MiniDbAppend
        } else {
            EngineKind::Docstore
        };
        let test_id = rng.gen_range(0..NUM_WORKLOADS);
        let rule = random_rule(&mut rng);
        let outcome = run_recovery_test(kind, test_id, Some(rule.clone()));
        assert!(
            !outcome.status.is_crash(),
            "case {case}: {kind:?} workload {test_id} under `{rule}` violated recovery: {:?}",
            outcome.status
        );
    }
}

#[test]
fn replay_log_is_deterministic_for_every_engine() {
    let mut rng = StdRng::seed_from_u64(42);
    for case in 0..60 {
        let kind = EngineKind::ALL[rng.gen_range(0..EngineKind::ALL.len())];
        let test_id = rng.gen_range(0..NUM_WORKLOADS);
        let rule = random_rule(&mut rng);
        let (o1, log1) = run_recovery_test_logged(kind, test_id, Some(rule.clone()));
        let (o2, log2) = run_recovery_test_logged(kind, test_id, Some(rule.clone()));
        assert_eq!(
            log1, log2,
            "case {case}: {kind:?}/{test_id}/`{rule}` replay log must be byte-identical"
        );
        assert_eq!(o1.status, o2.status, "case {case}: outcome must be stable");
        assert!(
            !log1.is_empty(),
            "case {case}: an armed layer always logs the workload's VFS ops"
        );
    }
}

#[test]
fn space_axes_cover_the_documented_grid() {
    for kind in EngineKind::ALL {
        let s = RecoverySpace::new(kind);
        assert_eq!(
            s.space().len(),
            (NUM_WORKLOADS * VfsOp::ALL.len() * RECOVERY_FAULTS.len() * 6) as u64
        );
        // nth = 0 is always the bare workload and must pass.
        let bare = s.space().point_at(0).unwrap();
        let (_, rule) = s.rule_for(&bare);
        assert!(rule.is_none(), "{}: point 0 must be the bare workload", s.name());
    }
}

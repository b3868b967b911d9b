//! Building and validating campaign specs — the submission path.
//!
//! One code path turns untyped campaign options (CLI flags, daemon
//! submissions) into a validated [`CampaignSpec`], and one code path
//! decides whether a snapshot on disk is resumable. Both return typed
//! errors whose `Display` renderings are the exact user-facing messages,
//! so the CLI (exit 2) and the campaign service (protocol error reply)
//! report identically without duplicating the logic.

use super::dir::load_snapshot;
use super::{canonicalize_strategies, canonicalize_targets, check_target_artifacts, known_target};
use crate::core::campaign::{CampaignSnapshot, CampaignSpec, StopPolicy, TestTimeout};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Untyped campaign options, as they arrive from a CLI flag map or a
/// daemon submission. Parsing and validation happen in [`build_spec`];
/// the raw `stop`/`timeout` spellings stay strings here so their parse
/// errors surface as [`SubmitError`]s instead of panics. Serializable
/// because a `submit` protocol request carries the options verbatim —
/// the daemon validates, the client just ships spellings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecOptions {
    /// Target names (aliases allowed; canonicalized by [`build_spec`]).
    pub targets: Vec<String>,
    /// Strategy names (aliases allowed; canonicalized by [`build_spec`]).
    pub strategies: Vec<String>,
    /// Seeds per `(target, strategy)` pair.
    pub seeds: usize,
    /// Base seed; cell `k` of a pair uses `base_seed + k`.
    pub base_seed: u64,
    /// Iteration budget per cell.
    pub iterations: usize,
    /// Stop-policy spelling (`iterations`, `failures:N`, `crashes:N`);
    /// `None` means the default policy.
    pub stop: Option<String>,
    /// In-flight candidates per cell (intra-cell fan-out width).
    pub cell_workers: usize,
    /// Per-test watchdog spelling (`10s`, `1500ms`, bare seconds);
    /// `None` means the default budget.
    pub timeout: Option<String>,
    /// Impact-metric name; `None` means each target's own default.
    pub metric: Option<String>,
}

impl Default for SpecOptions {
    /// The CLI's defaults: `fitness,random` strategies, one seed from
    /// base 42, 200 iterations, sequential cells.
    fn default() -> Self {
        SpecOptions {
            targets: Vec::new(),
            strategies: vec!["fitness".to_owned(), "random".to_owned()],
            seeds: 1,
            base_seed: 42,
            iterations: 200,
            stop: None,
            cell_workers: 1,
            timeout: None,
            metric: None,
        }
    }
}

/// Why a submission was rejected. The `Display` rendering of each
/// variant is the exact message the CLI has always printed before
/// exiting 2, so collapsing the duplicated validation did not change a
/// byte of user-facing output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// An unknown or duplicated target name.
    Target(String),
    /// An unknown or duplicated strategy name.
    Strategy(String),
    /// A malformed stop-policy spelling.
    Stop(String),
    /// A malformed or zero timeout spelling.
    Timeout(String),
    /// The assembled spec failed [`CampaignSpec::validate`].
    Spec(String),
    /// A `proc:*` target's on-disk artifacts (victim binary, shim
    /// cdylib) did not resolve.
    Artifacts(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Target(m)
            | SubmitError::Strategy(m)
            | SubmitError::Stop(m)
            | SubmitError::Timeout(m)
            | SubmitError::Spec(m)
            | SubmitError::Artifacts(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Builds and validates a campaign spec from untyped options: aliases
/// are canonicalized (`mysql`→`minidb`, `apache`→`httpd`,
/// `fitness-guided`→`fitness`, `ga`→`genetic`) so the same target or
/// strategy can never be scheduled twice under two spellings, the
/// `stop`/`timeout` spellings are parsed, and the result passes
/// [`validate_spec`].
///
/// # Errors
///
/// Returns the first problem as a [`SubmitError`].
pub fn build_spec(opts: &SpecOptions) -> Result<CampaignSpec, SubmitError> {
    let targets = canonicalize_targets(&opts.targets).map_err(SubmitError::Target)?;
    let strategies = canonicalize_strategies(&opts.strategies).map_err(SubmitError::Strategy)?;
    let stop = match &opts.stop {
        Some(text) => StopPolicy::parse(text).map_err(SubmitError::Stop)?,
        None => StopPolicy::default(),
    };
    let timeout = match &opts.timeout {
        Some(text) => TestTimeout::parse(text).map_err(SubmitError::Timeout)?,
        None => TestTimeout::default(),
    };
    let spec = CampaignSpec {
        targets,
        strategies,
        seeds: opts.seeds,
        base_seed: opts.base_seed,
        iterations: opts.iterations,
        stop,
        cell_workers: opts.cell_workers.into(),
        timeout,
        metric: opts.metric.clone(),
    };
    validate_spec(&spec)?;
    Ok(spec)
}

/// Checks a spec is runnable right now: [`CampaignSpec::validate`]
/// against the target registry, plus the on-disk artifact check for
/// `proc:*` targets — a missing victim or shim must be a clear usage
/// error up front, not a panic deep inside the pool.
///
/// # Errors
///
/// Returns the first problem as a [`SubmitError`].
pub fn validate_spec(spec: &CampaignSpec) -> Result<(), SubmitError> {
    spec.validate(known_target).map_err(SubmitError::Spec)?;
    check_target_artifacts(&spec.targets).map_err(SubmitError::Artifacts)?;
    Ok(())
}

/// The flags that cannot be combined with `--resume`: the snapshot's
/// spec is the single source of truth on resume — a changed matrix (or
/// metric) would be a different campaign, so matrix flags are rejected
/// outright rather than silently ignored or compared against unrelated
/// defaults. The CLI and the daemon's resubmission check both iterate
/// this one list.
pub const RESUME_LOCKED_FLAGS: [&str; 9] = [
    "targets",
    "strategies",
    "seeds",
    "seed",
    "iterations",
    "metric",
    "stop",
    "cell-workers",
    "timeout",
];

/// Why a snapshot could not be resumed. Renders as the CLI's
/// long-standing `cannot resume from {path}: {detail}` message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeError {
    /// The snapshot path that failed to load or validate.
    pub path: PathBuf,
    /// What was wrong with it.
    pub detail: String,
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot resume from {}: {}", self.path.display(), self.detail)
    }
}

impl std::error::Error for ResumeError {}

/// Checks a deserialized snapshot is safe to resume. A hand-edited or
/// foreign snapshot must fail here, not deep inside a cell run:
///
/// - the spec must validate against the target registry,
/// - targets and strategies must be in canonical, alias-free form — a
///   spec listing `mysql` and `minidb` would double-run one target and
///   double-count its corpus,
/// - the cell list must be exactly the spec's matrix
///   ([`CampaignSnapshot::check_consistent`]),
/// - completed cells must form per-target prefixes
///   ([`CampaignSnapshot::check_chain_consistent`]), or the chained
///   redundancy feedback cannot be replayed identically,
/// - `proc:*` targets still pending need their artifacts present *now*,
///   whatever was true when the campaign started.
///
/// # Errors
///
/// Returns a description of the first problem (the `detail` half of a
/// [`ResumeError`]; [`load_resume_snapshot`] adds the path).
pub fn validate_snapshot(snap: &CampaignSnapshot) -> Result<(), String> {
    snap.spec.validate(known_target)?;
    match canonicalize_targets(&snap.spec.targets) {
        Ok(canon) if canon == snap.spec.targets => {}
        Ok(_) => return Err("snapshot targets are not in canonical form".to_owned()),
        Err(e) => return Err(e),
    }
    match canonicalize_strategies(&snap.spec.strategies) {
        Ok(canon) if canon == snap.spec.strategies => {}
        Ok(_) => return Err("snapshot strategies are not in canonical form".to_owned()),
        Err(e) => return Err(e),
    }
    snap.check_consistent()?;
    snap.check_chain_consistent()?;
    check_target_artifacts(&snap.spec.targets)?;
    Ok(())
}

/// Loads and validates a resumable snapshot from disk: [`load_snapshot`]
/// (falling back to the `.bak` checkpoint), then [`validate_snapshot`].
///
/// # Errors
///
/// Returns a [`ResumeError`] naming the path and the first problem.
pub fn load_resume_snapshot(path: &Path) -> Result<CampaignSnapshot, ResumeError> {
    let fail = |detail: String| ResumeError {
        path: path.to_owned(),
        detail,
    };
    let snap = load_snapshot(path, |_| ()).map_err(|e| fail(e.source.to_string()))?;
    validate_snapshot(&snap).map_err(fail)?;
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> SpecOptions {
        SpecOptions {
            targets: vec!["mysql".into(), "coreutils".into()],
            ..SpecOptions::default()
        }
    }

    #[test]
    fn build_spec_canonicalizes_and_validates() {
        let spec = build_spec(&opts()).unwrap();
        assert_eq!(spec.targets, vec!["minidb", "coreutils"]);
        assert_eq!(spec.strategies, vec!["fitness", "random"]);
        assert_eq!(spec.stop, StopPolicy::Iterations);
        assert_eq!(spec.timeout, TestTimeout::default());
    }

    #[test]
    fn build_spec_rejects_each_axis_with_the_cli_message() {
        let mut o = opts();
        o.targets = vec!["nosuch".into()];
        let e = build_spec(&o).unwrap_err();
        assert!(matches!(e, SubmitError::Target(_)), "{e:?}");
        assert_eq!(e.to_string(), "unknown target `nosuch`");

        o = opts();
        o.strategies = vec!["genetic".into(), "ga".into()];
        let e = build_spec(&o).unwrap_err();
        assert!(matches!(e, SubmitError::Strategy(_)), "{e:?}");
        assert!(e.to_string().contains("duplicate strategy `genetic`"), "{e}");

        o = opts();
        o.stop = Some("sometimes".into());
        let e = build_spec(&o).unwrap_err();
        assert!(matches!(e, SubmitError::Stop(_)), "{e:?}");
        assert!(e.to_string().contains("bad stop policy"), "{e}");

        o = opts();
        o.timeout = Some("0s".into());
        let e = build_spec(&o).unwrap_err();
        assert!(matches!(e, SubmitError::Timeout(_)), "{e:?}");
        assert!(e.to_string().contains("bad timeout"), "{e}");

        o = opts();
        o.seeds = 2;
        o.base_seed = u64::MAX;
        let e = build_spec(&o).unwrap_err();
        assert!(matches!(e, SubmitError::Spec(_)), "{e:?}");
        assert!(e.to_string().contains("overflows"), "{e}");

        o = opts();
        o.cell_workers = 0;
        let e = build_spec(&o).unwrap_err();
        assert!(e.to_string().contains("cell worker"), "{e}");
    }

    #[test]
    fn validate_snapshot_accepts_the_build_spec_output() {
        let snap = CampaignSnapshot::new(build_spec(&opts()).unwrap());
        validate_snapshot(&snap).unwrap();
    }

    #[test]
    fn validate_snapshot_rejects_aliases_and_tampering() {
        let mut aliased = CampaignSnapshot::new(build_spec(&opts()).unwrap());
        aliased.spec.targets[0] = "mysql".into();
        // `mysql` still validates as a known target, but the canonical
        // form is `minidb` — the alias must be rejected before it can
        // desynchronize the spec from its cell list.
        let e = validate_snapshot(&aliased).unwrap_err();
        assert!(e.contains("cells") || e.contains("canonical"), "{e}");

        let mut truncated = CampaignSnapshot::new(build_spec(&opts()).unwrap());
        truncated.cells.pop();
        let e = validate_snapshot(&truncated).unwrap_err();
        assert!(e.contains("cells"), "{e}");
    }

    #[test]
    fn load_resume_snapshot_names_the_path() {
        let missing = Path::new("/nonexistent/afex/campaign.json");
        let e = load_resume_snapshot(missing).unwrap_err();
        assert!(e.to_string().starts_with("cannot resume from /nonexistent"), "{e}");
    }

    #[test]
    fn resume_locked_flags_cover_every_spec_axis() {
        // Every field of `SpecOptions` must be locked on resume — a new
        // axis added to the spec without a lock entry would be silently
        // ignored on `--resume`, which is exactly the bug this guards.
        assert_eq!(RESUME_LOCKED_FLAGS.len(), 9);
        for flag in RESUME_LOCKED_FLAGS {
            assert!(!flag.is_empty());
        }
    }
}

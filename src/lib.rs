//! # AFEX — fast black-box testing of system recovery code
//!
//! A Rust reproduction of Banabic & Candea, *Fast Black-Box Testing of
//! System Recovery Code*, EuroSys 2012. This facade crate re-exports the
//! workspace's public API:
//!
//! - [`space`] — the fault-space model (axes, points, Manhattan distance,
//!   relative linear density, the Fig. 3 descriptor language).
//! - [`inject`] — the library-level fault-injection substrate (libc model,
//!   fault plans, the `LibcEnv` interposition facade, tracing, coverage,
//!   profiling).
//! - [`targets`] — simulated systems under test: coreutils, minidb
//!   (MySQL), httpd (Apache), docstore (MongoDB v0.8/v2.0), and the
//!   canonical §7 fault spaces.
//! - [`core`] — the AFEX contribution: fitness-guided exploration
//!   (Algorithm 1), sensitivity, Gaussian mutation, aging, baselines
//!   (random / exhaustive / genetic), redundancy clustering, impact
//!   precision, relevance models, sessions and reports.
//! - [`cluster`] — the explorer / node-manager parallel architecture,
//!   and the multiplexing pool campaign cells run on.
//! - [`campaign`] — campaign execution: runs a `{target} × {strategy} ×
//!   {seed}` matrix of sessions on the campaign pool with durable
//!   snapshot/resume (the `afex-cli campaign` engine).
//! - [`service`] — the campaign service: one daemon multiplexing many
//!   campaigns on a shared pool, with cross-campaign trace preseeding
//!   and crash-safe resume (the `afex-cli serve` engine).
//! - [`protocol`] — the line-delimited JSON request/response protocol
//!   the daemon speaks over its Unix socket, plus the client helpers
//!   behind `afex-cli submit`/`status`/`inspect`/`top-failures`/
//!   `shutdown`.
//!
//! # Quickstart
//!
//! ```
//! use afex::core::{ExplorerConfig, FitnessExplorer, ImpactMetric, OutcomeEvaluator};
//! use afex::targets::spaces::TargetSpace;
//!
//! // Explore the coreutils fault space (§7.2) for 100 tests.
//! let ts = TargetSpace::coreutils();
//! let exec = TargetSpace::coreutils();
//! let eval = OutcomeEvaluator::new(move |p| exec.execute(p), ImpactMetric::default());
//! let mut explorer =
//!     FitnessExplorer::new(ts.space().clone(), ExplorerConfig::default(), 42);
//! let result = explorer.run(&eval, 100);
//! println!(
//!     "{} tests: {} failures, {} crashes",
//!     result.len(),
//!     result.failures(),
//!     result.crashes()
//! );
//! assert_eq!(result.len(), 100);
//! ```

pub mod campaign;
pub mod protocol;
pub mod service;

pub use afex_cluster as cluster;
pub use afex_core as core;
pub use afex_inject as inject;
pub use afex_preload as preload;
pub use afex_space as space;
pub use afex_targets as targets;

//! AFEX core: fitness-guided fault exploration (EuroSys 2012).
//!
//! This crate implements the paper's primary contribution — an adaptive
//! search over a fault space that finds high-impact faults significantly
//! faster than random exploration — together with the result-quality
//! machinery (redundancy clustering, impact precision, practical
//! relevance) and the three baseline strategies it is compared against.
//!
//! The map from paper section to module:
//!
//! | Paper | Module |
//! |---|---|
//! | §3 Algorithm 1 (fitness-guided generation) | [`algorithm`] |
//! | §3 sensitivity (per-axis fitness history) | [`sensitivity`] |
//! | §3 Gaussian value selection, σ = \|Ai\|/5 | [`gaussian`] |
//! | §3 aging of old tests | [`aging`] |
//! | §3 Qpriority / Qpending / History | [`queues`] |
//! | §3 random + exhaustive baselines | [`random`], [`exhaustive`] |
//! | §3 "we employed a genetic algorithm [...] abandoned it" | [`genetic`] |
//! | §5 redundancy clusters (Levenshtein on stack traces) | [`quality`] |
//! | §5 impact precision (1/Var over n runs) | [`quality::precision`] |
//! | §5 practical relevance (statistical fault models) | [`quality::relevance`] |
//! | §6.4 step 3 impact-metric design | [`impact`] |
//! | §7.4 online redundancy feedback loop | [`feedback`] |
//! | §6 exploration sessions, targets, result sets | [`session`], [`report`] |
//! | multi-session campaigns (repo extension over §6) | [`campaign`] |
//!
//! # Examples
//!
//! Searching a synthetic structured space:
//!
//! ```
//! use afex_core::{Evaluation, Evaluator, ExplorerConfig, FitnessExplorer, FnEvaluator};
//! use afex_space::{Axis, FaultSpace, Point};
//!
//! let space = FaultSpace::new(vec![
//!     Axis::int_range("x", 0, 39),
//!     Axis::int_range("y", 0, 39),
//! ])
//! .unwrap();
//! // A vertical high-impact ridge at x == 7.
//! let eval = FnEvaluator::new(|p: &Point| if p[0] == 7 { 10.0 } else { 0.0 });
//! let mut ex = FitnessExplorer::new(space, ExplorerConfig::default(), 42);
//! let result = ex.run(&eval, 300);
//! let hits = result
//!     .executed
//!     .iter()
//!     .filter(|t| t.evaluation.impact > 0.0)
//!     .count();
//! assert!(hits > 15, "fitness-guided search should ride the ridge");
//! ```

pub mod aging;
pub mod algorithm;
pub mod campaign;
pub mod engine;
pub mod evaluator;
pub mod exhaustive;
pub mod explore;
pub mod feedback;
pub mod gaussian;
pub mod genetic;
pub mod impact;
pub mod legacy;
pub mod process;
pub mod quality;
pub mod queues;
pub mod random;
pub mod report;
pub mod sensitivity;
pub mod session;

pub use aging::AgingPolicy;
pub use algorithm::{ExplorerConfig, FitnessExplorer};
pub use campaign::{
    metric_from_name, strategy_from_name, CampaignCell, CampaignReport, CampaignSnapshot,
    CampaignSpec, CellOutcome, CellState, CellWorkers, ExportRecord, FailureRecord, ResultStore,
    StopPolicy, TestTimeout, TraceIndex,
};
pub use engine::{Engine, Executor, SyncExecutor};
pub use evaluator::{Evaluation, Evaluator, ExecutedTest, FnEvaluator, OutcomeEvaluator};
pub use exhaustive::ExhaustiveExplorer;
pub use explore::Explore;
pub use feedback::RedundancyFeedback;
pub use gaussian::DiscreteGaussian;
pub use genetic::{GeneticConfig, GeneticExplorer};
pub use impact::ImpactMetric;
pub use process::{ProcessEvaluator, ProcessRunner};
pub use quality::cluster::{cluster_traces, cluster_traces_naive, Cluster, ClusterIndex};
pub use quality::levenshtein::{
    levenshtein, levenshtein_bounded, levenshtein_bounded_chars, levenshtein_chars,
    levenshtein_reference,
};
pub use quality::precision::impact_precision;
pub use quality::relevance::RelevanceModel;
pub use quality::signature::TraceSig;
pub use quality::store::{PersistedTrace, TraceStore};
pub use queues::{History, PendingQueue, PointSet, PriorityQueue};
pub use random::RandomExplorer;
pub use report::{FaultReport, ReportEntry};
pub use sensitivity::Sensitivity;
pub use session::{SearchStrategy, Session, SessionResult, StopCondition};

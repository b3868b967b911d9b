//! AFEX prototype architecture: explorer + node managers (§6).
//!
//! "The core of AFEX consists of an explorer and a set of node managers
//! [...]. One manager is in charge of all tests on one physical machine.
//! [...] Since tests are independent of each other, AFEX enjoys
//! 'embarrassing parallelism'. Node managers need not talk to each other,
//! only the explorer communicates with node managers."
//!
//! In this reproduction a node manager is a worker thread owning its own
//! evaluator (its own copy of the simulated target, or a handle on the
//! shared sandboxed process runner for live binaries), connected to the
//! explorer by crossbeam channels — preserving the coordination topology
//! while substituting threads for EC2 instances (§7.7 only claims linear
//! scaling from the embarrassing parallelism, which the thread topology
//! reproduces).
//!
//! - [`parallel`] — the parallel session driver pumping any
//!   [`Explore`](afex_core::Explore) strategy through a manager pool:
//!   the one test pool for every target family.
//! - [`multiplex`] — the long-running pool multiplexing campaigns' cell
//!   chains with round-robin fairness: one stream for `afex-cli
//!   campaign`, one per campaign for the campaign service.

pub mod multiplex;
pub mod parallel;

pub use multiplex::{CellChain, CellResult, MultiplexPool, StreamId};
pub use parallel::ParallelSession;

//! Parallel exploration with node managers (the §6.1 architecture).
//!
//! Drives the fitness-guided explorer through a pool of node managers,
//! each owning its own copy of the system under test — the thread-level
//! equivalent of the paper's EC2 deployment (§7.7). Also shows the
//! injector configuration (the Fig. 5 scenario) of the top fault.
//!
//! ```sh
//! cargo run --release --example parallel_cluster
//! ```

use afex::cluster::ParallelSession;
use afex::core::{ExplorerConfig, FitnessExplorer, ImpactMetric, OutcomeEvaluator};
use afex::targets::spaces::TargetSpace;
use std::time::Instant;

fn main() {
    let ts = TargetSpace::apache();
    println!(
        "parallel exploration of {} ({} faults) with 4 node managers",
        ts.target().name(),
        ts.space().len()
    );

    let mut explorer = FitnessExplorer::new(ts.space().clone(), ExplorerConfig::default(), 3);
    let session = ParallelSession::new(4);
    let start = Instant::now();
    let result = session.run(
        &mut explorer,
        // One evaluator per manager: its own copy of the target (the
        // simulated target self-contains its state).
        |_manager| {
            let exec = TargetSpace::apache();
            OutcomeEvaluator::new(move |p| exec.execute(p), ImpactMetric::default())
        },
        800,
    );
    let elapsed = start.elapsed();
    println!(
        "{} tests in {:.2}s ({:.0} tests/s): {} failures, {} crashes",
        result.len(),
        elapsed.as_secs_f64(),
        result.len() as f64 / elapsed.as_secs_f64(),
        result.failures(),
        result.crashes()
    );

    // Show the injector configuration for the highest-impact fault.
    if let Some(top) = result.top_faults(1).first() {
        println!(
            "\nhighest-impact fault: {}\ninjector config: {}",
            top.point,
            ts.space().render(&top.point)
        );
    }
}

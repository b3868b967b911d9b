//! §7.7: explorer test-generation throughput (paper: 8,500 tests/s).
//!
//! Measures pure generate+complete cycles of the fitness-guided explorer
//! on the 2.18M-point MySQL space, with no target execution:
//! `first_512_cycles` times a fresh explorer's first 512 cycles (16 from
//! the random initial batch, the rest from Algorithm 1), the regime of
//! short campaign cells; its throughput reads cycles/s.
//! `steady_state_cycle` times 256 cycles of an explorer already 512
//! cycles in.

use afex_core::queues::{PrioEntry, PriorityQueue};
use afex_core::{Evaluation, Explore, ExplorerConfig, FitnessExplorer};
use afex_space::Point;
use afex_targets::spaces::TargetSpace;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let space = TargetSpace::mysql().space().clone();
    let mut g = c.benchmark_group("explorer_throughput");
    // One routine call per fresh explorer: the harness calls the routine
    // once per setup input, so the routine itself runs the 512 cycles.
    g.throughput(Throughput::Elements(512));
    g.bench_function("first_512_cycles", |b| {
        b.iter_batched_ref(
            || FitnessExplorer::new(space.clone(), ExplorerConfig::default(), 1),
            |ex| {
                for _ in 0..512 {
                    let cand = ex.next_candidate().expect("huge space never exhausts");
                    let fitness = (cand.point[0] % 7) as f64;
                    ex.complete(cand, Evaluation::from_impact(fitness));
                }
            },
            BatchSize::LargeInput,
        )
    });
    g.throughput(Throughput::Elements(1));
    // A long-lived explorer: steady-state cycles over a warm queue, the
    // regime the O(log n) sampling and point codes actually serve.
    g.bench_function("steady_state_cycle", |b| {
        b.iter_batched_ref(
            || {
                let mut ex = FitnessExplorer::new(space.clone(), ExplorerConfig::default(), 2);
                for _ in 0..512 {
                    let cand = ex.next_candidate().expect("huge space");
                    let fitness = (cand.point[0] % 7) as f64;
                    ex.complete(cand, Evaluation::from_impact(fitness));
                }
                ex
            },
            |ex| {
                for _ in 0..256 {
                    let cand = ex.next_candidate().expect("huge space");
                    let fitness = (cand.point[0] % 7) as f64;
                    ex.complete(cand, Evaluation::from_impact(fitness));
                }
            },
            BatchSize::LargeInput,
        )
    });
    // Parent sampling alone at growing queue sizes: O(log n) vs the seed's
    // O(n) weighted scan.
    for n in [64usize, 1024, 16_384] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut q = PriorityQueue::new(n);
        for i in 0..n {
            q.insert(
                PrioEntry {
                    point: Point::new(vec![i]),
                    impact: (i % 97) as f64,
                    fitness: (i % 97) as f64,
                },
                &mut rng,
            );
        }
        g.bench_with_input(BenchmarkId::new("sample_parent", n), &q, |b, q| {
            let mut rng = StdRng::seed_from_u64(11);
            b.iter(|| q.sample_parent(&mut rng).unwrap().fitness)
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Bench: parallel batch routing speedup (chunk-based engine-per-worker
//! executor vs sequential), plus a sequential warm-engine reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::num::NonZeroUsize;

use pops_core::engine::RoutingEngine;
use pops_core::parallel::route_batch_with;
use pops_network::PopsTopology;
use pops_permutation::families::random_permutation;
use pops_permutation::{Permutation, SplitMix64};

fn make_batch(n: usize, count: usize) -> Vec<Permutation> {
    let mut rng = SplitMix64::new(37);
    (0..count)
        .map(|_| random_permutation(n, &mut rng))
        .collect()
}

fn bench_batch_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/batch");
    group.sample_size(10);
    let (d, g) = (32usize, 32usize);
    let topology = PopsTopology::new(d, g);
    let batch = make_batch(d * g, 16);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &batch, |b, batch| {
            b.iter(|| {
                route_batch_with(black_box(batch), topology, NonZeroUsize::new(threads), true)
            });
        });
    }
    group.finish();
}

/// Reference point for the batch numbers: one warm engine draining the
/// same batch sequentially on its own arenas.
fn bench_sequential_warm_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/warm_engine_seq");
    group.sample_size(10);
    let (d, g) = (32usize, 32usize);
    let topology = PopsTopology::new(d, g);
    let batch = make_batch(d * g, 16);
    let mut engine = RoutingEngine::new(topology);
    let _ = engine.plan_theorem2(&batch[0]);
    group.bench_with_input(BenchmarkId::from_parameter(16), &batch, |b, batch| {
        b.iter(|| {
            batch
                .iter()
                .map(|pi| engine.plan_theorem2(black_box(pi)).schedule.slot_count())
                .sum::<usize>()
        });
    });
    group.finish();
}

/// Short measurement windows so the full suite completes in minutes; the
/// series shapes (not absolute precision) are what the experiments need.
fn fast_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700))
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_batch_routing, bench_sequential_warm_engine
}
criterion_main!(benches);

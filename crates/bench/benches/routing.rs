//! Bench T1/T5: Theorem-2 routing computation across network shapes.
//!
//! Regenerates the scaling series of experiment T5 under Criterion
//! statistics: route-computation time as a function of `n` for square and
//! skewed aspect ratios (the paper's §3.2 bounds are `O(g³)`/`O(g² log g)`
//! for `d ≤ g` and `O(dn)`/`O(n log d)` for `d > g`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pops_core::engine::RoutingEngine;
use pops_core::router::route;
use pops_network::PopsTopology;
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;

fn bench_square_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("route/square");
    group.sample_size(20);
    let mut rng = SplitMix64::new(42);
    for s in [8usize, 16, 32, 64] {
        let pi = random_permutation(s * s, &mut rng);
        let t = PopsTopology::new(s, s);
        group.bench_with_input(BenchmarkId::from_parameter(s * s), &pi, |b, pi| {
            b.iter(|| route(black_box(pi), t));
        });
    }
    group.finish();
}

fn bench_aspect_ratios(c: &mut Criterion) {
    let mut group = c.benchmark_group("route/aspect");
    group.sample_size(20);
    let mut rng = SplitMix64::new(43);
    // Fixed n = 1024, varying d : g.
    for (d, g) in [(4usize, 256usize), (16, 64), (32, 32), (64, 16), (256, 4)] {
        let pi = random_permutation(d * g, &mut rng);
        let t = PopsTopology::new(d, g);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{d}_g{g}")),
            &pi,
            |b, pi| {
                b.iter(|| route(black_box(pi), t));
            },
        );
    }
    group.finish();
}

/// Warm [`RoutingEngine`] vs the one-shot free function: how much of a
/// plan's cost is arena warm-up the engine amortizes away.
fn bench_warm_engine_vs_free_function(c: &mut Criterion) {
    let mut group = c.benchmark_group("route/warm_engine");
    group.sample_size(20);
    let mut rng = SplitMix64::new(45);
    for s in [8usize, 16, 32, 64] {
        let pi = random_permutation(s * s, &mut rng);
        let t = PopsTopology::new(s, s);
        group.bench_with_input(BenchmarkId::new("free_fn", s * s), &pi, |b, pi| {
            b.iter(|| route(black_box(pi), t));
        });
        let mut engine = RoutingEngine::new(t);
        let _ = engine.plan_theorem2(&pi);
        group.bench_with_input(BenchmarkId::new("warm", s * s), &pi, |b, pi| {
            b.iter(|| engine.plan_theorem2(black_box(pi)));
        });
        let mut fd_engine = RoutingEngine::new(t);
        let _ = fd_engine.fair_distribution_targets(&pi);
        group.bench_with_input(BenchmarkId::new("warm_fd_only", s * s), &pi, |b, pi| {
            b.iter(|| fd_engine.fair_distribution_targets(black_box(pi)).len());
        });
    }
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
    targets = bench_square_shapes, bench_aspect_ratios, bench_warm_engine_vs_free_function
}
criterion_main!(benches);

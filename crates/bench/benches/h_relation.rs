//! Bench T7: h-relation routing — decomposition plus per-phase routing
//! cost as h grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pops_core::h_relation::{route_h_relation, HRelation};
use pops_network::PopsTopology;
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;

fn random_relation(n: usize, h: usize, rng: &mut SplitMix64) -> HRelation {
    let mut requests = Vec::with_capacity(n * h);
    for _ in 0..h {
        let p = random_permutation(n, rng);
        requests.extend((0..n).map(|s| (s, p.apply(s))));
    }
    HRelation::new(n, requests).expect("valid by construction")
}

fn bench_by_h(c: &mut Criterion) {
    let mut group = c.benchmark_group("h_relation/by_h");
    group.sample_size(15);
    let mut rng = SplitMix64::new(17);
    let (d, g) = (8usize, 8usize);
    let topology = PopsTopology::new(d, g);
    for h in [1usize, 2, 4, 8] {
        let relation = random_relation(d * g, h, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(h), &relation, |b, rel| {
            b.iter(|| route_h_relation(black_box(rel), topology));
        });
    }
    group.finish();
}

fn bench_by_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("h_relation/by_n");
    group.sample_size(15);
    let mut rng = SplitMix64::new(18);
    let h = 4usize;
    for s in [8usize, 16, 32] {
        let topology = PopsTopology::new(s, s);
        let relation = random_relation(s * s, h, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(s * s), &relation, |b, rel| {
            b.iter(|| route_h_relation(black_box(rel), topology));
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
    targets = bench_by_h, bench_by_n
}
criterion_main!(benches);

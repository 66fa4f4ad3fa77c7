//! Bench T10: fault-aware greedy routing — route-computation cost as the
//! coupler fault count grows, plus the healthy greedy baseline against the
//! Theorem-2 router.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pops_core::fault_routing::{route_greedy, route_with_faults};
use pops_core::router::route;
use pops_network::{FaultSet, PopsTopology};
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;

/// Deterministically fails `k` couplers while keeping the network
/// routable.
fn routable_faults(t: &PopsTopology, k: usize, seed: u64) -> FaultSet {
    let mut faults = FaultSet::none(t);
    let mut order: Vec<usize> = (0..t.coupler_count()).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut failed = 0;
    for c in order {
        if failed == k {
            break;
        }
        let mut trial = faults.clone();
        trial.fail_coupler(c);
        if trial.fully_routable(t) {
            faults = trial;
            failed += 1;
        }
    }
    faults
}

fn bench_by_fault_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault/by_count");
    group.sample_size(15);
    let t = PopsTopology::new(8, 8);
    let mut rng = SplitMix64::new(321);
    let pi = random_permutation(t.n(), &mut rng);
    for k in [0usize, 4, 8, 16] {
        let faults = routable_faults(&t, k, 777);
        group.bench_with_input(BenchmarkId::from_parameter(k), &faults, |b, faults| {
            b.iter(|| route_with_faults(black_box(&pi), t, faults).unwrap());
        });
    }
    group.finish();
}

fn bench_greedy_vs_theorem2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault/healthy_greedy_vs_theorem2");
    group.sample_size(15);
    let t = PopsTopology::new(16, 16);
    let mut rng = SplitMix64::new(322);
    let pi = random_permutation(t.n(), &mut rng);
    group.bench_function("greedy", |b| {
        b.iter(|| route_greedy(black_box(&pi), t));
    });
    group.bench_function("theorem2", |b| {
        b.iter(|| route(black_box(&pi), t));
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
    targets = bench_by_fault_count, bench_greedy_vs_theorem2
}
criterion_main!(benches);

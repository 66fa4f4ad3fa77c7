//! Ablation bench: the general Theorem-1 fair-distribution construction
//! (edge colouring) vs the closed-form structured one — the computational
//! price of generality. Experiment T3 of the `experiments` harness
//! compares the two constructions' slot counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pops_baselines::structured_fair_distribution;
use pops_bipartite::ColorerKind;
use pops_core::fair_distribution::FairDistribution;
use pops_core::list_system::ListSystem;
use pops_permutation::families::{random_group_uniform, random_permutation};
use pops_permutation::SplitMix64;

fn bench_general_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("fair_distribution/general");
    group.sample_size(20);
    let mut rng = SplitMix64::new(11);
    for (d, g) in [(16usize, 16usize), (32, 32), (16, 64), (64, 16)] {
        let pi = random_permutation(d * g, &mut rng);
        let ls = ListSystem::for_routing(&pi, d, g);
        for kind in ColorerKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(kind.name(), format!("d{d}_g{g}")),
                &ls,
                |b, ls| b.iter(|| FairDistribution::compute(black_box(ls), kind)),
            );
        }
    }
    group.finish();
}

fn bench_structured_vs_general(c: &mut Criterion) {
    let mut group = c.benchmark_group("fair_distribution/ablation");
    group.sample_size(20);
    let mut rng = SplitMix64::new(12);
    let (d, g) = (32usize, 32usize);
    let pi = random_group_uniform(d, g, &mut rng);
    let ls = ListSystem::for_routing(&pi, d, g);
    group.bench_function("general_edge_coloring", |b| {
        b.iter(|| FairDistribution::compute(black_box(&ls), ColorerKind::default()))
    });
    group.bench_function("structured_closed_form", |b| {
        b.iter(|| structured_fair_distribution(black_box(&pi), d, g).unwrap())
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
    targets = bench_general_construction, bench_structured_vs_general
}
criterion_main!(benches);

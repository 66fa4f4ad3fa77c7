//! Bench T3: routing each permutation family of §2 on a fixed POPS(8, 8)
//! — the unified algorithm pays the same cost regardless of family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pops_core::router::route;
use pops_network::PopsTopology;
use pops_permutation::families::{
    bit_reversal, hypercube::hypercube_exchange, matrix_transpose, mesh::mesh_shift,
    mesh::MeshDirection, perfect_shuffle, random_permutation, vector_reversal,
};
use pops_permutation::{Permutation, SplitMix64};

fn family_instances() -> Vec<(&'static str, Permutation)> {
    let n = 64usize;
    let mut rng = SplitMix64::new(3);
    vec![
        ("random", random_permutation(n, &mut rng)),
        ("vector_reversal", vector_reversal(n)),
        ("bit_reversal", bit_reversal(n)),
        ("perfect_shuffle", perfect_shuffle(n)),
        ("transpose_8x8", matrix_transpose(8, 8)),
        ("hypercube_dim5", hypercube_exchange(6, 5)),
        ("mesh_right", mesh_shift(8, MeshDirection::Right)),
    ]
}

fn bench_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("families/route");
    group.sample_size(30);
    let t = PopsTopology::new(8, 8);
    for (name, pi) in family_instances() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &pi, |b, pi| {
            b.iter(|| route(black_box(pi), t));
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
    targets = bench_families
}
criterion_main!(benches);

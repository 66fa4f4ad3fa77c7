//! Bench T6: schedule-computation cost of direct vs two-hop routing.
//!
//! (Slot counts — the paper's metric — are compared in the `experiments`
//! binary and the integration tests; this bench compares the *computation*
//! cost of producing each schedule.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pops_baselines::{route_direct, route_structured};
use pops_core::router::route;
use pops_network::PopsTopology;
use pops_permutation::families::group_rotation;

fn bench_routers_on_group_rotation(c: &mut Criterion) {
    let mut group = c.benchmark_group("routers/group_rotation");
    group.sample_size(20);
    for (d, g) in [(16usize, 16usize), (64, 16), (16, 64)] {
        let pi = group_rotation(d, g, 1);
        let t = PopsTopology::new(d, g);
        group.bench_with_input(
            BenchmarkId::new("general", format!("d{d}_g{g}")),
            &pi,
            |b, pi| b.iter(|| route(black_box(pi), t)),
        );
        group.bench_with_input(
            BenchmarkId::new("structured", format!("d{d}_g{g}")),
            &pi,
            |b, pi| b.iter(|| route_structured(black_box(pi), t).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("direct", format!("d{d}_g{g}")),
            &pi,
            |b, pi| b.iter(|| route_direct(black_box(pi), &t)),
        );
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
    targets = bench_routers_on_group_rotation
}
criterion_main!(benches);

//! Bench: simulator slot-execution throughput — the referee must not be
//! the bottleneck of the experiment harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pops_core::router::route;
use pops_network::{PopsTopology, Simulator};
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;

fn bench_schedule_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/execute");
    group.sample_size(20);
    let mut rng = SplitMix64::new(21);
    for s in [16usize, 32, 64] {
        let t = PopsTopology::new(s, s);
        let pi = random_permutation(s * s, &mut rng);
        let plan = route(&pi, t);
        group.bench_with_input(
            BenchmarkId::from_parameter(s * s),
            &plan.schedule,
            |b, schedule| {
                b.iter(|| {
                    let mut sim = Simulator::with_unit_packets(t);
                    sim.execute_schedule(black_box(schedule)).unwrap();
                    sim
                });
            },
        );
    }
    group.finish();
}

fn bench_validation_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/validate");
    group.sample_size(20);
    let mut rng = SplitMix64::new(22);
    let s = 32usize;
    let t = PopsTopology::new(s, s);
    let pi = random_permutation(s * s, &mut rng);
    let plan = route(&pi, t);
    let sim = Simulator::with_unit_packets(t);
    group.bench_function("first_slot", |b| {
        b.iter(|| sim.validate_frame(black_box(&plan.schedule.slots[0])))
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
    targets = bench_schedule_execution, bench_validation_only
}
criterion_main!(benches);

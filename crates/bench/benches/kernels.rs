//! Colouring-kernel comparison: the greedy baseline, the two-pass
//! alternating-path oracle, and the word-parallel u64-bitset kernel, on
//! the group-transition multigraphs POPS routing actually colours; the
//! bitset kernel's one-word (Δ ≤ 64) and multi-word instantiations side
//! by side; and the engine's end-to-end [`RoutingEngine::plan_theorem2`]
//! across POPS(8,8) … POPS(64,64).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pops_bipartite::coloring::{alternating, bitset, greedy};
use pops_bipartite::generators::shuffled_regular_multigraph;
use pops_bipartite::BipartiteMultigraph;
use pops_core::engine::RoutingEngine;
use pops_network::PopsTopology;
use pops_permutation::families::random_permutation;
use pops_permutation::{Permutation, SplitMix64};

/// The sweep of square shapes from the issue: n = 64 … 4096.
const SHAPES: [(usize, usize); 4] = [(8, 8), (16, 16), (32, 32), (64, 64)];

/// The d-regular g×g group-transition multigraph a permutation induces on
/// POPS(d, g): one edge `group(src) → group(π(src))` per processor — the
/// demand graph Theorem 1 colours.
fn transition_graph(d: usize, g: usize, pi: &Permutation) -> BipartiteMultigraph {
    let mut graph = BipartiteMultigraph::new(g, g);
    for src in 0..d * g {
        graph.add_edge(src / d, pi.apply(src) / d);
    }
    graph
}

fn bench_raw_colorers(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/color");
    group.sample_size(15);
    let mut rng = SplitMix64::new(41);
    for (d, g) in SHAPES {
        let pi = random_permutation(d * g, &mut rng);
        let graph = transition_graph(d, g, &pi);
        let label = format!("pops_{d}x{g}");
        group.bench_with_input(BenchmarkId::new("greedy", &label), &graph, |b, graph| {
            b.iter(|| greedy::color_greedy(black_box(graph)));
        });
        group.bench_with_input(
            BenchmarkId::new("alternating", &label),
            &graph,
            |b, graph| {
                b.iter(|| alternating::color(black_box(graph)));
            },
        );
        group.bench_with_input(BenchmarkId::new("bitset", &label), &graph, |b, graph| {
            b.iter(|| bitset::color(black_box(graph)));
        });
    }
    group.finish();
}

fn bench_mask_widths(c: &mut Criterion) {
    // The bitset kernel at Δ = 64 (one mask word per node, the one-word
    // instantiation) against Δ = 65 and 128 (two words, the general
    // path), on shuffled Δ-regular multigraphs of 32 + 32 nodes, so
    // inserts conflict and chains flip.
    let mut group = c.benchmark_group("kernels/width");
    group.sample_size(15);
    let mut rng = SplitMix64::new(43);
    for delta in [64usize, 65, 128] {
        let graph = shuffled_regular_multigraph(32, delta, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("bitset", format!("delta_{delta}")),
            &graph,
            |b, graph| {
                b.iter(|| bitset::color(black_box(graph)));
            },
        );
    }
    group.finish();
}

fn bench_engine_kernels(c: &mut Criterion) {
    // End to end: a warm engine planning Theorem-2 routes, one series per
    // shape, so the colouring kernel's share of the full construction
    // shows against the `kernels/color` group above.
    let mut group = c.benchmark_group("kernels/theorem2");
    group.sample_size(15);
    let mut rng = SplitMix64::new(42);
    for (d, g) in SHAPES {
        let pi = random_permutation(d * g, &mut rng);
        let mut engine = RoutingEngine::new(PopsTopology::new(d, g));
        group.bench_with_input(
            BenchmarkId::new("bitset", format!("pops_{d}x{g}")),
            &pi,
            |b, pi| {
                b.iter(|| engine.plan_theorem2(black_box(pi)));
            },
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
    targets = bench_raw_colorers, bench_mask_widths, bench_engine_kernels
}
criterion_main!(benches);

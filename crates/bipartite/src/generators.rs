//! Random graph generators for tests, property suites, and the T4
//! colouring benchmarks.

use pops_permutation::{families::random_permutation, SplitMix64};

use crate::graph::BipartiteMultigraph;

/// A random `k`-regular bipartite multigraph on `n + n` nodes, built as the
/// union of `k` uniformly random perfect matchings (each a random
/// permutation). May contain parallel edges — exactly the regime the
/// Theorem-1 construction produces.
///
/// # Panics
///
/// Panics if `n == 0` and `k > 0`.
pub fn random_regular_multigraph(n: usize, k: usize, rng: &mut SplitMix64) -> BipartiteMultigraph {
    assert!(n > 0 || k == 0, "cannot build {k}-regular graph on 0 nodes");
    let mut g = BipartiteMultigraph::new(n, n);
    for _ in 0..k {
        let p = random_permutation(n, rng);
        for u in 0..n {
            g.add_edge(u, p.apply(u));
        }
    }
    g
}

/// [`random_regular_multigraph`] with its edges in random order. Inserted
/// in generation order, every layer of a regular multigraph is a perfect
/// matching that takes one free colour, so an insertion colourer never
/// flips a chain; shuffled, its inserts conflict and chains flip.
pub fn shuffled_regular_multigraph(
    n: usize,
    k: usize,
    rng: &mut SplitMix64,
) -> BipartiteMultigraph {
    let g = random_regular_multigraph(n, k, rng);
    let mut edges: Vec<(usize, usize)> = g.edges().map(|(_, u, v)| (u, v)).collect();
    rng.shuffle(&mut edges);
    BipartiteMultigraph::from_edges(n, n, edges).expect("endpoints come from an n + n graph")
}

/// A random bipartite (simple) graph: each of the `l·r` pairs is an edge
/// independently with probability `p`.
pub fn random_bipartite(l: usize, r: usize, p: f64, rng: &mut SplitMix64) -> BipartiteMultigraph {
    let mut g = BipartiteMultigraph::new(l, r);
    for u in 0..l {
        for v in 0..r {
            if rng.next_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// A random bipartite multigraph with `m` edges chosen uniformly with
/// replacement — arbitrary degree sequences, for exercising the padding
/// path of the colouring engines.
pub fn random_multigraph(
    l: usize,
    r: usize,
    m: usize,
    rng: &mut SplitMix64,
) -> BipartiteMultigraph {
    assert!(l > 0 && r > 0 || m == 0, "need nodes to place edges on");
    let mut g = BipartiteMultigraph::new(l, r);
    for _ in 0..m {
        let u = rng.next_below(l);
        let v = rng.next_below(r);
        g.add_edge(u, v);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_generator_is_regular() {
        let mut rng = SplitMix64::new(1);
        for (n, k) in [(1usize, 3usize), (5, 0), (7, 4), (12, 12)] {
            let g = random_regular_multigraph(n, k, &mut rng);
            assert_eq!(g.regular_degree(), Some(k), "n={n} k={k}");
            assert_eq!(g.edge_count(), n * k);
        }
    }

    #[test]
    fn shuffled_regular_keeps_the_degrees() {
        let mut rng = SplitMix64::new(4);
        let g = shuffled_regular_multigraph(9, 5, &mut rng);
        assert_eq!(g.regular_degree(), Some(5));
        assert_eq!(g.edge_count(), 45);
    }

    #[test]
    fn random_bipartite_respects_probability_extremes() {
        let mut rng = SplitMix64::new(2);
        assert_eq!(random_bipartite(5, 5, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(random_bipartite(5, 5, 1.0, &mut rng).edge_count(), 25);
    }

    #[test]
    fn random_multigraph_has_requested_edges() {
        let mut rng = SplitMix64::new(3);
        let g = random_multigraph(4, 7, 100, &mut rng);
        assert_eq!(g.edge_count(), 100);
        assert_eq!(g.left_degrees().iter().sum::<usize>(), 100);
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let g1 = random_regular_multigraph(8, 3, &mut SplitMix64::new(5));
        let g2 = random_regular_multigraph(8, 3, &mut SplitMix64::new(5));
        assert_eq!(g1, g2);
    }
}

//! Edge colouring by alternating-chain insertion (bipartite Vizing).
//!
//! Insert edges one at a time. For a new edge `(u, v)` pick a colour `a`
//! missing at `u` and `b` missing at `v` (both exist: degrees are below
//! `Δ`, and we colour with `Δ` colours). If `a == b`, done. Otherwise flip
//! the maximal `(a, b)`-alternating chain starting at `v`: the chain cannot
//! end at `u` (it leaves `v` on a `a`-edge and, being alternating, could
//! only reach `u` on a `a`-edge — but `a` is missing at `u`; the parity
//! argument in a bipartite graph rules out the `b`-arrival too since `b`
//! was missing at `v`). After the flip `a` is free at both ends.
//!
//! `O(n)` per edge worst case, `O(n·m)` total — no padding needed, works
//! directly on irregular multigraphs, and is very fast on the sparse demand
//! graphs of small routing instances.

use crate::coloring::EdgeColoring;
use crate::graph::{BipartiteMultigraph, EdgeId};

const NONE: usize = usize::MAX;

/// Properly colours `g` with `max_degree(g)` colours.
pub fn color(g: &BipartiteMultigraph) -> EdgeColoring {
    let delta = g.max_degree();
    let mut colors = vec![NONE; g.edge_count()];
    if delta == 0 {
        return EdgeColoring {
            num_colors: 0,
            colors,
        };
    }

    // table[node * delta + c] = edge of colour c at node, or NONE.
    let mut left_table = vec![NONE; g.left_count() * delta];
    let mut right_table = vec![NONE; g.right_count() * delta];

    let first_free = |table: &[usize], node: usize| -> usize {
        (0..delta)
            .find(|&c| table[node * delta + c] == NONE)
            .expect("a colour below Δ is always free at an uncoloured-incident node")
    };

    for (e, u, v) in g.edges() {
        let a = first_free(&left_table, u);
        let b = first_free(&right_table, v);
        if a == b {
            colors[e] = a;
            left_table[u * delta + a] = e;
            right_table[v * delta + a] = e;
            continue;
        }
        // Flip the (a, b)-alternating chain starting at v. At v colour b is
        // free, so the chain leaves v along its a-edge (if any), then
        // alternates b, a, b, … Re-colouring swaps a and b along the chain;
        // it frees colour a at v without disturbing properness elsewhere.
        let mut want = a; // the colour of the next edge to follow
        let mut at_right = true; // current endpoint side
        let mut node = v;
        let mut chain: Vec<EdgeId> = Vec::new();
        loop {
            let table = if at_right { &right_table } else { &left_table };
            let next = table[node * delta + want];
            if next == NONE {
                break;
            }
            chain.push(next);
            let (nu, nv) = g.endpoints(next);
            node = if at_right { nu } else { nv };
            at_right = !at_right;
            want = if want == a { b } else { a };
        }
        // The chain can never even visit u: left nodes are only reached via
        // a-coloured edges, and a is missing at u.
        debug_assert!(at_right || node != u, "alternating chain reached u");
        // Swap colours along the chain (chain edges alternate a, b, a, …).
        // Two phases: clear every old entry first, then write the new ones —
        // consecutive chain edges share nodes, so interleaving the clears
        // and writes would erase freshly written entries.
        for &ce in &chain {
            let (cu, cv) = g.endpoints(ce);
            let old = colors[ce];
            left_table[cu * delta + old] = NONE;
            right_table[cv * delta + old] = NONE;
        }
        for &ce in &chain {
            let (cu, cv) = g.endpoints(ce);
            let new = if colors[ce] == a { b } else { a };
            colors[ce] = new;
            left_table[cu * delta + new] = ce;
            right_table[cv * delta + new] = ce;
        }
        debug_assert_eq!(left_table[u * delta + a], NONE);
        debug_assert_eq!(right_table[v * delta + a], NONE);
        colors[e] = a;
        left_table[u * delta + a] = e;
        right_table[v * delta + a] = e;
    }

    EdgeColoring {
        num_colors: delta,
        colors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::verify_proper;
    use crate::generators::{random_bipartite, random_multigraph, shuffled_regular_multigraph};
    use pops_permutation::SplitMix64;

    #[test]
    fn colors_a_path_with_two_colors() {
        let g = BipartiteMultigraph::from_edges(2, 2, [(0, 0), (1, 0), (1, 1)]).unwrap();
        let coloring = color(&g);
        assert_eq!(coloring.num_colors, 2);
        verify_proper(&g, &coloring).unwrap();
    }

    #[test]
    fn colors_star_graphs() {
        // All edges share the left node: Δ colours, all distinct.
        let g = BipartiteMultigraph::from_edges(1, 5, (0..5).map(|v| (0, v))).unwrap();
        let coloring = color(&g);
        assert_eq!(coloring.num_colors, 5);
        verify_proper(&g, &coloring).unwrap();
    }

    #[test]
    fn chain_flip_case_is_exercised() {
        // Triangle-ish: forces a != b on the last insert.
        // Edges: (0,0), (1,1), then (0,1) — at 0 colour 1 free? colour(0,0)
        // gets 0; (1,1) gets 0; inserting (0,1): free at 0 is 1, free at 1
        // is 1 — same. Add (1,0) to force a flip: free at L1 is 1, free at
        // R0 is 1 … craft a genuinely conflicting case instead:
        let g = BipartiteMultigraph::from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let coloring = color(&g);
        assert_eq!(coloring.num_colors, 2);
        verify_proper(&g, &coloring).unwrap();
    }

    #[test]
    fn handles_dense_random_graphs() {
        let mut rng = SplitMix64::new(51);
        for _ in 0..10 {
            let g = random_bipartite(12, 12, 0.7, &mut rng);
            let coloring = color(&g);
            assert_eq!(coloring.num_colors, g.max_degree());
            verify_proper(&g, &coloring).unwrap();
        }
    }

    #[test]
    fn handles_multigraphs_with_heavy_parallel_bundles() {
        let mut rng = SplitMix64::new(52);
        let g = random_multigraph(3, 3, 60, &mut rng);
        let coloring = color(&g);
        verify_proper(&g, &coloring).unwrap();
    }

    #[test]
    fn regular_inputs_yield_perfect_matching_classes() {
        // Shuffled edge order, so inserts conflict and chains flip.
        let mut rng = SplitMix64::new(53);
        let g = shuffled_regular_multigraph(9, 6, &mut rng);
        let coloring = color(&g);
        verify_proper(&g, &coloring).unwrap();
        for class in coloring.classes() {
            assert_eq!(class.len(), 9);
        }
    }
}

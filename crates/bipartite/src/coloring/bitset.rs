//! Word-parallel alternating-chain edge colouring: the one colouring
//! kernel under every Theorem-1 fair distribution the engine computes
//! and every h-relation phase decomposition.
//!
//! The same algorithm as [`crate::coloring::alternating`] — insert edges
//! one at a time, resolve colour conflicts by flipping the maximal
//! `(a, b)`-alternating chain — with two differences in mechanics, none
//! in result:
//!
//! * The per-node "which colours are in use" state is also kept as **u64
//!   bitset words** beside the edge tables, so `first_free` costs one
//!   `trailing_zeros` on the complement word (one word covers Δ ≤ 64,
//!   which is every POPS shape up to `max(d, g) = 64`) instead of a linear
//!   scan over up to Δ table slots.
//! * The chain is flipped **in one walk**. Every node on an
//!   `(a, b)`-chain holds the chain's edges in exactly its `a`- and
//!   `b`-slots, so swapping those two table entries at each node as the
//!   walk passes it leaves the tables exactly as clearing every old entry
//!   and then writing every new one would. Interior nodes keep both
//!   colours in use; only the chain's two end nodes change which of `a`
//!   and `b` is free, so only there do the mask bits toggle.
//!
//! `first_free` returns the *minimum* free colour and the final tables,
//! masks and colours after each flip equal the two-pass flip's, so the
//! kernel is **byte-identical** to
//! [`crate::coloring::alternating::color`] on every input: same colour
//! per edge, same `EdgeColoring`, and therefore identical downstream
//! schedules. That two-pass colourer stays as the independent oracle; the
//! tests below and the engine-equivalence suite pin the two together.

use crate::coloring::EdgeColoring;
use crate::graph::{BipartiteMultigraph, EdgeId};

/// The empty table slot: no edge of this colour at this node.
const NONE: usize = usize::MAX;

/// Number of u64 words needed to hold one bit per colour.
// lint: hot-path
#[inline]
pub fn words_per_node(delta: usize) -> usize {
    delta.div_ceil(64)
}

/// The lowest colour `< delta` whose bit is clear in `used`, where
/// `used` is the node's colour mask (`words_per_node(delta)` words).
///
/// The caller guarantees such a colour exists (degrees stay below Δ
/// while the node still has an uncoloured incident edge). Padding bits
/// above `delta` in the last word stay zero; they are masked out here
/// anyway so a stray bit cannot yield a colour `>= delta`.
// lint: hot-path
#[inline]
fn first_free_in(used: &[u64], delta: usize) -> usize {
    for (w, &word) in used.iter().enumerate() {
        let mut free = !word;
        // Mask the padding above Δ in the last word.
        let bits_here = delta - w * 64;
        if bits_here < 64 {
            free &= (1u64 << bits_here) - 1;
        }
        if free != 0 {
            return w * 64 + free.trailing_zeros() as usize;
        }
    }
    unreachable!("a colour below Δ is always free at an uncoloured-incident node")
}

/// Sets colour `c`'s bit in node `node`'s mask.
// lint: hot-path
#[inline]
fn mark_used(masks: &mut [u64], node: usize, words: usize, c: usize) {
    masks[node * words + c / 64] |= 1u64 << (c % 64);
}

/// Flips colour `c`'s bit in node `node`'s mask.
// lint: hot-path
#[inline]
fn toggle(masks: &mut [u64], node: usize, words: usize, c: usize) {
    masks[node * words + c / 64] ^= 1u64 << (c % 64);
}

/// One step of the single-walk chain flip at `node`, which the walk
/// leaves by its `leave`-coloured edge, having arrived (unless `node` is
/// where the chain starts) by its `arrive`-coloured one. Swaps the two
/// table entries and returns the edge to follow, or [`NONE`] at the
/// chain's end. Only an end node has exactly one of the two colours in
/// use, and the swap moves it to the other, so only there do the mask
/// bits change.
// lint: hot-path
#[inline]
fn swap_entries(
    table: &mut [usize],
    used: &mut [u64],
    node: usize,
    delta: usize,
    leave: usize,
    arrive: usize,
) -> usize {
    let slot = node * delta;
    let next = table[slot + leave];
    let arrived = table[slot + arrive];
    table[slot + leave] = arrived;
    table[slot + arrive] = next;
    if (next == NONE) != (arrived == NONE) {
        let words = words_per_node(delta);
        toggle(used, node, words, leave);
        toggle(used, node, words, arrive);
    }
    next
}

/// One side's colour state, owned by the caller so that a warm caller
/// colours graph after graph without allocating.
#[derive(Debug)]
pub struct Side<'a> {
    /// `table[node·Δ + c]` is the edge of colour `c` at `node`, or
    /// `usize::MAX` if there is none; `node·Δ` spans every node of the
    /// side.
    pub table: &'a mut [usize],
    /// Used-colour masks: bit `c` of `used[node·W .. (node + 1)·W]` is set
    /// iff `table[node·Δ + c]` holds an edge, with
    /// `W = words_per_node(Δ)`.
    pub used: &'a mut [u64],
}

/// Colours edges `0..colors.len()` in id order with colours `0..delta`,
/// writing edge `e`'s colour to `colors[e]`. `endpoints(e)` is edge `e`'s
/// `(left, right)` pair; `delta` must be at least the graph's maximum
/// degree, and `left`/`right` must cover every node the edges touch. The
/// kernel clears both sides' state first, so the caller may hand in
/// whatever the previous run left there.
///
/// Byte-identical to [`crate::coloring::alternating::color`] whenever
/// `delta` is the maximum degree.
// lint: hot-path
pub fn color_into(
    delta: usize,
    endpoints: impl Fn(EdgeId) -> (usize, usize),
    colors: &mut [usize],
    left: Side<'_>,
    right: Side<'_>,
) {
    let words = words_per_node(delta);
    let Side {
        table: left_table,
        used: left_used,
    } = left;
    let Side {
        table: right_table,
        used: right_used,
    } = right;
    left_table.fill(NONE);
    right_table.fill(NONE);
    left_used.fill(0);
    right_used.fill(0);
    // A chain visits each node at most once.
    let nodes = (left_table.len() + right_table.len()) / delta.max(1);

    for e in 0..colors.len() {
        let (u, v) = endpoints(e);
        let a = first_free_in(&left_used[u * words..(u + 1) * words], delta);
        let b = first_free_in(&right_used[v * words..(v + 1) * words], delta);
        if a != b {
            // Flip the (a, b)-alternating chain starting at v (see
            // alternating.rs for why it never reaches u) in one walk: it
            // leaves right nodes by their a-edge and left nodes by their
            // b-edge, swapping each node's a- and b-entries as it passes.
            let mut node = v;
            let mut visited = 0;
            loop {
                visited += 2;
                debug_assert!(visited <= nodes + 1, "alternating chain revisited a node");
                let next = swap_entries(right_table, right_used, node, delta, a, b);
                if next == NONE {
                    break;
                }
                colors[next] = b;
                node = endpoints(next).0;
                debug_assert_ne!(node, u, "alternating chain reached u");
                let next = swap_entries(left_table, left_used, node, delta, b, a);
                if next == NONE {
                    break;
                }
                colors[next] = a;
                node = endpoints(next).1;
            }
            debug_assert_eq!(right_table[v * delta + a], NONE);
        }
        colors[e] = a;
        left_table[u * delta + a] = e;
        right_table[v * delta + a] = e;
        mark_used(left_used, u, words, a);
        mark_used(right_used, v, words, a);
    }
}

/// Properly colours `g` with `max_degree(g)` colours, byte-identically to
/// [`crate::coloring::alternating::color`].
// lint: hot-path
pub fn color(g: &BipartiteMultigraph) -> EdgeColoring {
    // lint: setup-begin
    let delta = g.max_degree();
    let mut colors = vec![NONE; g.edge_count()];
    if delta == 0 {
        return EdgeColoring {
            num_colors: 0,
            colors,
        };
    }
    let words = words_per_node(delta);
    // Zeroed, not filled: `color_into` clears the state it is handed.
    let mut left_table = vec![0; g.left_count() * delta];
    let mut right_table = vec![0; g.right_count() * delta];
    let mut left_used = vec![0u64; g.left_count() * words];
    let mut right_used = vec![0u64; g.right_count() * words];
    // lint: setup-end
    color_into(
        delta,
        |e| g.endpoints(e),
        &mut colors,
        Side {
            table: &mut left_table,
            used: &mut left_used,
        },
        Side {
            table: &mut right_table,
            used: &mut right_used,
        },
    );
    EdgeColoring {
        num_colors: delta,
        colors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{alternating, verify_proper};
    use crate::generators::{random_bipartite, random_multigraph, random_regular_multigraph};
    use pops_permutation::SplitMix64;

    #[test]
    fn byte_identical_to_scalar_on_regular_multigraphs() {
        let mut rng = SplitMix64::new(61);
        for (n, k) in [(1usize, 1usize), (4, 2), (8, 8), (16, 11), (9, 4), (64, 64)] {
            let g = random_regular_multigraph(n, k, &mut rng);
            let fast = color(&g);
            let slow = alternating::color(&g);
            assert_eq!(fast, slow, "n={n} k={k}");
            verify_proper(&g, &fast).unwrap();
        }
    }

    #[test]
    fn byte_identical_to_scalar_on_irregular_graphs() {
        let mut rng = SplitMix64::new(62);
        for _ in 0..20 {
            let g = random_multigraph(6, 9, 50, &mut rng);
            assert_eq!(color(&g), alternating::color(&g));
        }
        for _ in 0..10 {
            let g = random_bipartite(12, 12, 0.7, &mut rng);
            assert_eq!(color(&g), alternating::color(&g));
        }
    }

    /// A `k`-regular multigraph on `n + n` nodes, edges in random order.
    /// Inserted layer by layer, as generated, every layer is a perfect
    /// matching that takes one free colour and no chain ever flips.
    fn shuffled_regular(n: usize, k: usize, rng: &mut SplitMix64) -> BipartiteMultigraph {
        let g = random_regular_multigraph(n, k, rng);
        let mut edges: Vec<(usize, usize)> = g.edges().map(|(_, u, v)| (u, v)).collect();
        rng.shuffle(&mut edges);
        BipartiteMultigraph::from_edges(n, n, edges).unwrap()
    }

    #[test]
    fn chain_flips_across_mask_words_match_the_oracle() {
        // Δ > 64 with several nodes per side: chains flip between a
        // colour in word 0 and one in word 1 (or 2), so the end-node
        // toggles must touch words a/64 and b/64 separately.
        let mut rng = SplitMix64::new(63);
        for (n, k) in [
            (3usize, 65usize),
            (8, 65),
            (5, 80),
            (12, 80),
            (4, 128),
            (9, 128),
        ] {
            let g = shuffled_regular(n, k, &mut rng);
            let fast = color(&g);
            assert_eq!(fast, alternating::color(&g), "n={n} k={k}");
            verify_proper(&g, &fast).unwrap();
        }
    }

    #[test]
    fn color_into_clears_the_state_it_is_handed() {
        // One set of buffers, reused dirty across graphs, as the engine
        // reuses its arenas.
        let mut rng = SplitMix64::new(64);
        let (n, delta) = (6usize, 70usize);
        let words = words_per_node(delta);
        let mut left_table = vec![0; n * delta];
        let mut right_table = vec![0; n * delta];
        let mut left_used = vec![u64::MAX; n * words];
        let mut right_used = vec![u64::MAX; n * words];
        for _ in 0..3 {
            let g = shuffled_regular(n, delta, &mut rng);
            let mut colors = vec![0; g.edge_count()];
            color_into(
                delta,
                |e| g.endpoints(e),
                &mut colors,
                Side {
                    table: &mut left_table,
                    used: &mut left_used,
                },
                Side {
                    table: &mut right_table,
                    used: &mut right_used,
                },
            );
            assert_eq!(colors, alternating::color(&g).colors);
        }
    }

    #[test]
    fn handles_delta_above_one_word() {
        // Δ = 80 > 64 exercises the multi-word first_free path and the
        // padding mask in the final word.
        let g = BipartiteMultigraph::from_edges(1, 1, std::iter::repeat_n((0, 0), 80)).unwrap();
        let coloring = color(&g);
        assert_eq!(coloring.num_colors, 80);
        assert_eq!(coloring, alternating::color(&g));
        verify_proper(&g, &coloring).unwrap();
    }

    #[test]
    fn empty_graph_needs_no_colors() {
        let g = BipartiteMultigraph::new(3, 3);
        let coloring = color(&g);
        assert_eq!(coloring.num_colors, 0);
        assert!(coloring.colors.is_empty());
    }

    #[test]
    fn first_free_skips_full_words() {
        // First word fully used: the free colour lives in word 1.
        let used = [u64::MAX, 0b101];
        assert_eq!(first_free_in(&used, 128), 65);
        // Padding above Δ never leaks back as a "free" colour.
        let used = [u64::MAX >> 1];
        assert_eq!(first_free_in(&used, 64), 63);
    }

    #[test]
    fn mark_round_trips() {
        let mut masks = vec![0u64; 4];
        mark_used(&mut masks, 1, 2, 70);
        assert_eq!(masks[3], 1u64 << 6);
        toggle(&mut masks, 1, 2, 70);
        assert_eq!(masks, vec![0u64; 4]);
    }
}

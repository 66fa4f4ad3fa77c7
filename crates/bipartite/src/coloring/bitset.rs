//! Word-parallel alternating-chain edge colouring: the one colouring
//! kernel under every Theorem-1 fair distribution the engine computes
//! and every h-relation phase decomposition.
//!
//! The same algorithm as [`crate::coloring::alternating`] — insert edges
//! one at a time, resolve colour conflicts by flipping the maximal
//! `(a, b)`-alternating chain — with four differences in mechanics, none
//! in result:
//!
//! * **Packed table entries.** Each colour-table entry is one `u64`
//!   holding the edge id (high 32 bits) and the node at the edge's far
//!   end (low 32 bits). A chain walk goes node → entry → next node with
//!   no endpoint lookup; the caller's endpoint closure runs once per
//!   inserted edge. Edge ids and node ids must therefore fit in 32 bits
//!   ([`color`] checks this before it colours).
//! * **Free colours by word.** The per-node "which colours are in use"
//!   state is also kept as u64 bitset words beside the tables, so
//!   `first_free` costs one `trailing_zeros` on the complement word
//!   instead of a linear scan over up to Δ table slots. The kernel is
//!   instantiated twice from one source through a const parameter: for
//!   Δ ≤ 64 (one mask word per node, every POPS shape up to
//!   `max(d, g) = 64`) the free-colour query, the mark and the end-node
//!   toggle are single-word operations; Δ > 64 takes the general
//!   multi-word path.
//! * **The chain is flipped in one walk.** Every node on an
//!   `(a, b)`-chain holds the chain's edges in exactly its `a`- and
//!   `b`-slots, so swapping those two table entries at each node as the
//!   walk passes it leaves the tables exactly as clearing every old entry
//!   and then writing every new one would. Interior nodes keep both
//!   colours in use; only the chain's two end nodes change which of `a`
//!   and `b` is free, so only there do the mask bits toggle.
//! * **Colours are read back once.** An edge's colour is its slot in its
//!   left node's table, so the walk writes no per-edge colour; the caller
//!   reads every colour out of the final left table in one pass
//!   ([`read_colors`]).
//!
//! `first_free` returns the *minimum* free colour and the final tables
//! and masks after each flip equal the two-pass flip's, so the kernel is
//! **byte-identical** to [`crate::coloring::alternating::color`] on every
//! input: same colour per edge, same `EdgeColoring`, and therefore
//! identical downstream schedules. That two-pass colourer stays as the
//! independent oracle; the tests below and the engine-equivalence suite
//! pin the two together.

use crate::coloring::EdgeColoring;
use crate::graph::{BipartiteMultigraph, EdgeId};

/// The empty table entry: no edge of this colour at this node. No packed
/// entry equals it while node ids stay below `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// Number of u64 words needed to hold one bit per colour.
// lint: hot-path
#[inline]
pub fn words_per_node(delta: usize) -> usize {
    delta.div_ceil(64)
}

/// Whether a graph with `edges` edges and `left` + `right` nodes has every
/// edge id and node id below `u32::MAX`, as [`Side`]'s packed entries
/// need.
fn ids_fit_in_32_bits(edges: usize, left: usize, right: usize) -> bool {
    let limit = u32::MAX as usize;
    edges <= limit && left <= limit && right <= limit
}

/// The table entry for `edge`, whose far end is node `far`.
// lint: hot-path
#[inline]
fn pack(edge: EdgeId, far: usize) -> u64 {
    ((edge as u64) << 32) | far as u64
}

/// The node at the far end of a (non-empty) entry.
// lint: hot-path
#[inline]
fn far_end(entry: u64) -> usize {
    entry as u32 as usize
}

/// The edge id of a (non-empty) entry.
// lint: hot-path
#[inline]
fn edge_of(entry: u64) -> EdgeId {
    (entry >> 32) as usize
}

/// The lowest colour `< delta` whose bit is clear in node `node`'s mask
/// (`words` words per node; `ONE_WORD` iff `words == 1`).
///
/// The caller guarantees such a colour exists (degrees stay below Δ
/// while the node still has an uncoloured incident edge), so the lowest
/// clear bit is below Δ even though padding bits above Δ read as free.
/// The multi-word path masks the padding anyway so a stray bit cannot
/// yield a colour `>= delta`.
// lint: hot-path
#[inline]
fn first_free_in<const ONE_WORD: bool>(
    masks: &[u64],
    node: usize,
    words: usize,
    delta: usize,
) -> usize {
    if ONE_WORD {
        let c = (!masks[node]).trailing_zeros() as usize;
        debug_assert!(c < delta, "no colour below Δ is free");
        return c;
    }
    let used = &masks[node * words..(node + 1) * words];
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
fn mark_used<const ONE_WORD: bool>(masks: &mut [u64], node: usize, words: usize, c: usize) {
    if ONE_WORD {
        masks[node] |= 1u64 << c;
    } else {
        masks[node * words + c / 64] |= 1u64 << (c % 64);
    }
}

/// Flips colours `a`'s and `b`'s bits in node `node`'s mask.
// lint: hot-path
#[inline]
fn toggle<const ONE_WORD: bool>(masks: &mut [u64], node: usize, words: usize, a: usize, b: usize) {
    if ONE_WORD {
        masks[node] ^= (1u64 << a) | (1u64 << b);
    } else {
        masks[node * words + a / 64] ^= 1u64 << (a % 64);
        masks[node * words + b / 64] ^= 1u64 << (b % 64);
    }
}

/// One step of the single-walk chain flip at `node`, which the walk
/// leaves by its `leave`-coloured edge, having arrived (unless `node` is
/// where the chain starts) by its `arrive`-coloured one. Swaps the two
/// table entries and returns the entry to follow, or `EMPTY` at the
/// chain's end. Only an end node has exactly one of the two colours in
/// use, and the swap moves it to the other, so only there do the mask
/// bits change.
// lint: hot-path
#[inline]
fn swap_entries<const ONE_WORD: bool>(
    side: &mut Side<'_>,
    node: usize,
    delta: usize,
    words: usize,
    leave: usize,
    arrive: usize,
) -> u64 {
    let slot = node * delta;
    let next = side.table[slot + leave];
    let arrived = side.table[slot + arrive];
    side.table[slot + leave] = arrived;
    side.table[slot + arrive] = next;
    if (next == EMPTY) != (arrived == EMPTY) {
        toggle::<ONE_WORD>(side.used, node, words, leave, arrive);
    }
    next
}

/// One side's colour state, owned by the caller so that a warm caller
/// colours graph after graph without allocating.
///
/// Every edge id and node id the tables hold must fit in 32 bits and
/// stay below `u32::MAX`.
#[derive(Debug)]
pub struct Side<'a> {
    /// `table[node·Δ + c]` is the edge of colour `c` at `node` (high 32
    /// bits) packed with the node at that edge's far end (low 32 bits),
    /// or `u64::MAX` if there is none; `node·Δ` spans every node of the
    /// side.
    pub table: &'a mut [u64],
    /// Used-colour masks: bit `c` of `used[node·W .. (node + 1)·W]` is set
    /// iff `table[node·Δ + c]` holds an edge, with
    /// `W = words_per_node(Δ)`.
    pub used: &'a mut [u64],
}

/// Colours edges `0..edges` in id order with colours `0..delta`, into the
/// two sides' tables; [`read_colors`] reads the colours back out of the
/// left table. `endpoints(e)` is edge `e`'s `(left, right)` pair; `delta`
/// must be at least the graph's maximum degree, and `left`/`right` must
/// cover every node the edges touch. Every edge id and node id must fit
/// in 32 bits and stay below `u32::MAX`; the kernel does not check this
/// ([`color`] does, once, before it colours). The kernel clears both
/// sides' state first, so the caller may hand in whatever the previous
/// run left there.
///
/// Byte-identical to [`crate::coloring::alternating::color`] whenever
/// `delta` is the maximum degree.
// lint: hot-path
pub fn color_into(
    delta: usize,
    edges: usize,
    endpoints: impl Fn(EdgeId) -> (usize, usize),
    left: Side<'_>,
    right: Side<'_>,
) {
    if delta <= 64 {
        color_tables::<true>(delta, edges, endpoints, left, right);
    } else {
        color_tables::<false>(delta, edges, endpoints, left, right);
    }
}

/// [`color_into`]'s body, instantiated for one mask word per node
/// (`ONE_WORD`, Δ ≤ 64) and for any number of words.
// lint: hot-path
#[inline(always)]
fn color_tables<const ONE_WORD: bool>(
    delta: usize,
    edges: usize,
    endpoints: impl Fn(EdgeId) -> (usize, usize),
    mut left: Side<'_>,
    mut right: Side<'_>,
) {
    let words = if ONE_WORD { 1 } else { words_per_node(delta) };
    left.table.fill(EMPTY);
    right.table.fill(EMPTY);
    left.used.fill(0);
    right.used.fill(0);
    // A chain visits each node at most once.
    let nodes = (left.table.len() + right.table.len()) / delta.max(1);

    for e in 0..edges {
        let (u, v) = endpoints(e);
        let a = first_free_in::<ONE_WORD>(left.used, u, words, delta);
        let b = first_free_in::<ONE_WORD>(right.used, v, words, delta);
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
                let next = swap_entries::<ONE_WORD>(&mut right, node, delta, words, a, b);
                if next == EMPTY {
                    break;
                }
                node = far_end(next);
                debug_assert_ne!(node, u, "alternating chain reached u");
                let next = swap_entries::<ONE_WORD>(&mut left, node, delta, words, b, a);
                if next == EMPTY {
                    break;
                }
                node = far_end(next);
            }
            debug_assert_eq!(right.table[v * delta + a], EMPTY);
        }
        left.table[u * delta + a] = pack(e, v);
        right.table[v * delta + a] = pack(e, u);
        mark_used::<ONE_WORD>(left.used, u, words, a);
        mark_used::<ONE_WORD>(right.used, v, words, a);
    }
}

/// Reads edge colours out of a left table [`color_into`] filled: the
/// colour of an edge is its slot in its left node's row of `delta`
/// entries. Writes `colors[e]` for every edge `e < colors.len()` that
/// `left_table` holds and skips the rest, so a caller that only needs
/// the colours of a prefix of the edges (and of the nodes they touch)
/// passes just those. `delta` must be positive.
// lint: hot-path
pub fn read_colors(left_table: &[u64], delta: usize, colors: &mut [usize]) {
    for row in left_table.chunks_exact(delta) {
        for (c, &entry) in row.iter().enumerate() {
            if entry != EMPTY {
                if let Some(color) = colors.get_mut(edge_of(entry)) {
                    *color = c;
                }
            }
        }
    }
}

/// Properly colours `g` with `max_degree(g)` colours, byte-identically to
/// [`crate::coloring::alternating::color`].
///
/// # Panics
///
/// Panics if an edge id or a node id of `g` does not fit in 32 bits
/// below `u32::MAX` (the kernel's packed table entries hold both).
// lint: hot-path
pub fn color(g: &BipartiteMultigraph) -> EdgeColoring {
    // lint: setup-begin
    let delta = g.max_degree();
    let edges = g.edge_count();
    assert!(
        ids_fit_in_32_bits(edges, g.left_count(), g.right_count()),
        "bitset colouring packs 32-bit edge and node ids; this graph has {edges} edges on \
         {} + {} nodes",
        g.left_count(),
        g.right_count()
    );
    let mut colors = vec![usize::MAX; edges];
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
        edges,
        |e| g.endpoints(e),
        Side {
            table: &mut left_table,
            used: &mut left_used,
        },
        Side {
            table: &mut right_table,
            used: &mut right_used,
        },
    );
    read_colors(&left_table, delta, &mut colors);
    EdgeColoring {
        num_colors: delta,
        colors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{alternating, verify_proper};
    use crate::generators::{random_bipartite, random_multigraph, shuffled_regular_multigraph};
    use pops_permutation::SplitMix64;

    #[test]
    fn byte_identical_to_scalar_on_regular_multigraphs() {
        // Shuffled edge order, so inserts conflict and chains flip.
        let mut rng = SplitMix64::new(61);
        for (n, k) in [(1usize, 1usize), (4, 2), (8, 8), (16, 11), (9, 4), (64, 64)] {
            let g = shuffled_regular_multigraph(n, k, &mut rng);
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

    #[test]
    fn both_instantiations_match_the_oracle_at_the_switch_over() {
        // Δ ≤ 64 runs the one-word instantiation, Δ > 64 the multi-word
        // one; pin both on either side of the boundary, on regular and
        // irregular graphs.
        let mut rng = SplitMix64::new(65);
        for k in [1usize, 2, 63, 64, 65, 127, 128] {
            for n in [3usize, 7] {
                let g = shuffled_regular_multigraph(n, k, &mut rng);
                let fast = color(&g);
                assert_eq!(fast.num_colors, k);
                assert_eq!(fast, alternating::color(&g), "regular n={n} k={k}");
                verify_proper(&g, &fast).unwrap();
            }
            // Irregular: about k edges per left node on 5 + 6 nodes, so
            // the maximum degree lands near k.
            let g = random_multigraph(5, 6, 5 * k, &mut rng);
            let fast = color(&g);
            assert_eq!(fast, alternating::color(&g), "irregular k={k}");
            verify_proper(&g, &fast).unwrap();
        }
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
            let g = shuffled_regular_multigraph(n, k, &mut rng);
            let fast = color(&g);
            assert_eq!(fast, alternating::color(&g), "n={n} k={k}");
            verify_proper(&g, &fast).unwrap();
        }
    }

    #[test]
    fn color_into_clears_the_state_it_is_handed() {
        // One set of buffers per instantiation (Δ = 40 takes one mask
        // word, Δ = 70 two), reused dirty across graphs, as the engine
        // reuses its arenas.
        let mut rng = SplitMix64::new(64);
        let n = 6usize;
        for delta in [40usize, 70] {
            let words = words_per_node(delta);
            let mut left_table = vec![pack(3, 1); n * delta];
            let mut right_table = vec![0; n * delta];
            let mut left_used = vec![u64::MAX; n * words];
            let mut right_used = vec![u64::MAX; n * words];
            for _ in 0..3 {
                let g = shuffled_regular_multigraph(n, delta, &mut rng);
                color_into(
                    delta,
                    g.edge_count(),
                    |e| g.endpoints(e),
                    Side {
                        table: &mut left_table,
                        used: &mut left_used,
                    },
                    Side {
                        table: &mut right_table,
                        used: &mut right_used,
                    },
                );
                let mut colors = vec![usize::MAX; g.edge_count()];
                read_colors(&left_table, delta, &mut colors);
                assert_eq!(colors, alternating::color(&g).colors, "Δ={delta}");
            }
        }
    }

    #[test]
    fn read_colors_skips_edges_past_the_prefix() {
        // Two left nodes, Δ = 2: edge 0 has colour 1, edge 2 colour 0
        // and edge 1 colour 1; only the first two edges are asked for.
        let table = [EMPTY, pack(0, 0), pack(2, 1), pack(1, 0)];
        let mut colors = [usize::MAX; 2];
        read_colors(&table, 2, &mut colors);
        assert_eq!(colors, [1, 1]);
    }

    #[test]
    fn entries_pack_edge_and_far_end() {
        let entry = pack(7, 11);
        assert_eq!((edge_of(entry), far_end(entry)), (7, 11));
        let top = u32::MAX as usize - 1;
        let entry = pack(top, top);
        assert_ne!(entry, EMPTY);
        assert_eq!((edge_of(entry), far_end(entry)), (top, top));
    }

    #[test]
    fn ids_past_32_bits_are_refused() {
        let limit = u32::MAX as usize;
        assert!(ids_fit_in_32_bits(limit, limit, limit));
        assert!(!ids_fit_in_32_bits(limit + 1, 1, 1));
        assert!(!ids_fit_in_32_bits(1, limit + 1, 1));
        assert!(!ids_fit_in_32_bits(1, 1, limit + 1));
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
        assert_eq!(first_free_in::<false>(&used, 0, 2, 128), 65);
        // Padding above Δ never leaks back as a "free" colour.
        let used = [u64::MAX >> 1];
        assert_eq!(first_free_in::<false>(&used, 0, 1, 64), 63);
        // The one-word path reads node 1's word directly.
        let used = [0, 0b0111];
        assert_eq!(first_free_in::<true>(&used, 1, 1, 64), 3);
    }

    #[test]
    fn mark_round_trips() {
        let mut masks = vec![0u64; 4];
        mark_used::<false>(&mut masks, 1, 2, 70);
        mark_used::<false>(&mut masks, 1, 2, 3);
        assert_eq!(masks[2..], [1u64 << 3, 1u64 << 6]);
        toggle::<false>(&mut masks, 1, 2, 70, 3);
        assert_eq!(masks, vec![0u64; 4]);
        mark_used::<true>(&mut masks, 3, 1, 5);
        toggle::<true>(&mut masks, 3, 1, 5, 9);
        assert_eq!(masks[3], 1u64 << 9);
    }
}

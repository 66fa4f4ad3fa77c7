//! Lower bounds on permutation routing — **Propositions 1–3** of §3.3.
//!
//! * **Proposition 1**: if `π(i) ≠ i` for all `i` (a derangement), at least
//!   `⌈d/g⌉` slots are needed — every packet needs a hop and the network
//!   moves at most `g²` packets per slot.
//! * **Proposition 2** (corrected — see [`proposition2`]): if additionally
//!   `π` maps groups onto groups (*group-uniform*) and
//!   `group(i) ≠ group(π(i))` for all `i` (*group-deranged*), at least
//!   `⌈d/(g−1)⌉` slots are needed (inter-group coupler bandwidth). The
//!   paper states `2⌈d/g⌉`, which exhaustive search refutes for `g ∤ d`;
//!   where the literature proves `2⌈d/g⌉` attained (e.g. vector reversal,
//!   even `g | d`) the corrected bound agrees, so the general router is
//!   still exactly optimal there.
//! * **Proposition 3**: for derangements that are group-uniform (groups may
//!   map to themselves), at least `2⌈d/(1+g)⌉` slots are needed.
//!
//! [`lower_bound`] combines all applicable bounds with the trivial ones
//! (0 for the identity, 1 otherwise).

use pops_permutation::Permutation;

/// Proposition 1: `⌈d/g⌉` when `π` is a derangement; `None` if the
/// hypothesis fails.
///
/// # Panics
///
/// Panics if `d·g != π.len()` or `d == 0 || g == 0`.
pub fn proposition1(pi: &Permutation, d: usize, g: usize) -> Option<usize> {
    check_shape(pi, d, g);
    pi.is_derangement().then(|| d.div_ceil(g))
}

/// Proposition 2, **corrected**: `⌈d/(g−1)⌉` when `π` is group-uniform
/// with `group(i) ≠ group(π(i))` everywhere; `None` if the hypothesis
/// fails.
///
/// The paper states `2⌈d/g⌉`, but that is **not a valid lower bound when
/// `g ∤ d`**: on POPS(3, 2) the wholesale group swap
/// `π = [3, 4, 5, 0, 1, 2]` (group-uniform, group-deranged) routes in
/// **3** slots — pair off the groups and ship one packet each way per slot
/// through `c(1, 0)` and `c(0, 1)` — and the exhaustive search of
/// [`crate::optimal`] confirms 3 is optimal, yet `2⌈3/2⌉ = 4`. The sound
/// counting argument in the same style: every packet must traverse at
/// least one *inter-group* coupler (its source and destination groups
/// differ), the network has `g(g−1)` inter-group couplers each carrying
/// one packet per slot, so `t ≥ ⌈dg / (g(g−1))⌉ = ⌈d/(g−1)⌉`. For the
/// shapes on which the prior literature proves `2⌈d/g⌉` attained (even
/// `g` dividing `d`, e.g. vector reversal on POPS(4, 2)), this corrected
/// bound coincides with the stated one; experiments T2 and T12 of the
/// `experiments` harness (`crates/bench/src/main.rs`) tabulate both.
///
/// Note `d = 1` needs no special guard here: the bound degrades to 1,
/// consistent with Theorem 2's one-slot routing.
pub fn proposition2(pi: &Permutation, d: usize, g: usize) -> Option<usize> {
    check_shape(pi, d, g);
    // group-deranged requires g ≥ 2, so the division is well-defined.
    pi.is_group_deranged(d).then(|| d.div_ceil(g - 1))
}

/// Proposition 3: `⌈2d/(1+g)⌉` when `π` is a group-uniform derangement;
/// `None` if the hypothesis fails.
///
/// The paper states the bound as `2⌈d/(1+g)⌉`, but its own derivation —
/// `t·g² ≥ g·t + 2g(d−t)`, hence `t ≥ 2d/(1+g)` — yields `⌈2d/(1+g)⌉`,
/// which is weaker for some shapes (e.g. `d = 4, g = 2`: derivation gives
/// 3, the stated form 4) and, unlike the stated form, consistent with the
/// 1-slot `d = 1` routing. We implement the derivation-sound version;
/// experiment T2 of the `experiments` harness tabulates it.
pub fn proposition3(pi: &Permutation, d: usize, g: usize) -> Option<usize> {
    check_shape(pi, d, g);
    (pi.is_derangement() && pi.is_group_uniform(d)).then(|| (2 * d).div_ceil(1 + g))
}

/// The best lower bound provable from Propositions 1–3 plus the trivial
/// bounds: 0 for the identity, 1 for any non-identity permutation.
pub fn lower_bound(pi: &Permutation, d: usize, g: usize) -> usize {
    check_shape(pi, d, g);
    let trivial = usize::from(!pi.is_identity());
    trivial
        .max(proposition1(pi, d, g).unwrap_or(0))
        .max(proposition2(pi, d, g).unwrap_or(0))
        .max(proposition3(pi, d, g).unwrap_or(0))
}

/// The multiplicative optimality guarantee of Theorem 2 for derangements:
/// the achieved `2⌈d/g⌉` (or 1) is at most **twice** the Proposition-1
/// bound. Returns achieved / bound as a rational pair `(achieved, bound)`.
pub fn optimality_ratio(pi: &Permutation, d: usize, g: usize) -> Option<(usize, usize)> {
    let bound = lower_bound(pi, d, g);
    (bound > 0).then(|| (crate::router::theorem2_slots(d, g), bound))
}

fn check_shape(pi: &Permutation, d: usize, g: usize) {
    assert!(d > 0 && g > 0, "d and g must be positive");
    assert_eq!(d * g, pi.len(), "permutation length must equal n = d*g");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_permutation::families::{
        group_rotation, random_derangement, random_group_deranged, vector_reversal,
    };
    use pops_permutation::SplitMix64;

    #[test]
    fn proposition1_on_derangements() {
        let mut rng = SplitMix64::new(90);
        for (d, g) in [(2usize, 3usize), (6, 2), (5, 5)] {
            let pi = random_derangement(d * g, &mut rng);
            assert_eq!(proposition1(&pi, d, g), Some(d.div_ceil(g)));
        }
    }

    #[test]
    fn proposition1_rejects_fixed_points() {
        let pi = Permutation::identity(6);
        assert_eq!(proposition1(&pi, 2, 3), None);
    }

    #[test]
    fn proposition2_on_group_rotations() {
        let (d, g) = (6usize, 3usize);
        let pi = group_rotation(d, g, 1);
        // Corrected inter-group bandwidth bound: ⌈6/2⌉ = 3.
        assert_eq!(proposition2(&pi, d, g), Some(d.div_ceil(g - 1)));
    }

    #[test]
    fn proposition2_counterexample_to_stated_form() {
        // POPS(3, 2), wholesale group swap: the paper's stated bound would
        // be 2⌈3/2⌉ = 4, but a legal 3-slot schedule exists (verified
        // end-to-end by `optimal::tests` and experiment T12). The corrected
        // bound is ⌈3/1⌉ = 3 — tight.
        let pi = group_rotation(3, 2, 1);
        assert_eq!(proposition2(&pi, 3, 2), Some(3));
        assert!(proposition2(&pi, 3, 2).unwrap() < 2 * 3usize.div_ceil(2));
    }

    #[test]
    fn proposition2_on_even_g_reversal() {
        // The paper's tightness example: vector reversal with even g.
        let (d, g) = (4usize, 4usize);
        let pi = vector_reversal(d * g);
        assert_eq!(proposition2(&pi, d, g), Some(2));
        // Theorem 2 achieves exactly the bound here.
        assert_eq!(crate::router::theorem2_slots(d, g), 2);
    }

    #[test]
    fn proposition2_fails_on_odd_g_reversal() {
        // Odd g: the middle group maps to itself — hypothesis fails.
        let (d, g) = (4usize, 3usize);
        let pi = vector_reversal(d * g);
        assert_eq!(proposition2(&pi, d, g), None);
        // But Proposition 3 still applies if it is a derangement.
        assert_eq!(proposition3(&pi, d, g), Some((2 * d).div_ceil(1 + g)));
    }

    #[test]
    fn propositions_2_and_3_are_incomparable() {
        let mut rng = SplitMix64::new(91);
        // On POPS(8, 4) Prop 3 is the stronger of the two for the
        // group-deranged class: ⌈16/5⌉ = 4 > ⌈8/3⌉ = 3 …
        let pi = random_group_deranged(8, 4, &mut rng);
        assert_eq!(proposition2(&pi, 8, 4), Some(3));
        assert_eq!(proposition3(&pi, 8, 4), Some(4));
        // … while on POPS(4, 2) Prop 2 wins: ⌈4/1⌉ = 4 > ⌈8/3⌉ = 3.
        let pi = random_group_deranged(4, 2, &mut rng);
        assert_eq!(proposition2(&pi, 4, 2), Some(4));
        assert_eq!(proposition3(&pi, 4, 2), Some(3));
    }

    #[test]
    fn lower_bound_combines_all() {
        let (d, g) = (6usize, 3usize);
        let pi = group_rotation(d, g, 1);
        // Prop 2 (= ⌈6/2⌉ = 3) ties Prop 3 (= ⌈12/4⌉ = 3) and dominates
        // Prop 1 (= 2).
        assert_eq!(lower_bound(&pi, d, g), 3);
    }

    #[test]
    fn proposition2_consistent_at_d_equal_1() {
        // d = 1: every permutation routes in one slot (Theorem 2); the
        // corrected bound degrades to exactly 1, no guard needed.
        let pi = Permutation::new(vec![1, 0]).unwrap();
        assert!(pi.is_group_deranged(1));
        assert_eq!(proposition2(&pi, 1, 2), Some(1));
        assert_eq!(lower_bound(&pi, 1, 2), 1);
    }

    #[test]
    fn identity_lower_bound_is_zero() {
        assert_eq!(lower_bound(&Permutation::identity(6), 2, 3), 0);
    }

    #[test]
    fn non_identity_needs_at_least_one_slot() {
        let pi = Permutation::new(vec![1, 0, 2, 3, 4, 5]).unwrap();
        assert_eq!(lower_bound(&pi, 2, 3), 1);
    }

    #[test]
    fn theorem2_within_twice_prop1_for_derangements() {
        let mut rng = SplitMix64::new(92);
        for (d, g) in [(2usize, 2usize), (4, 2), (8, 4), (3, 6), (9, 3)] {
            let pi = random_derangement(d * g, &mut rng);
            let (achieved, bound) = optimality_ratio(&pi, d, g).unwrap();
            assert!(achieved <= 2 * bound, "d={d} g={g}: {achieved} > 2*{bound}");
        }
    }

    #[test]
    fn optimality_ratio_none_for_identity() {
        assert_eq!(optimality_ratio(&Permutation::identity(4), 2, 2), None);
    }
}

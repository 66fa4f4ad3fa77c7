//! Fair distributions and the constructive proof of **Theorem 1**.
//!
//! A *fair distribution* for a proper list system `(S, T, L)` is an
//! assignment `f : S × N_{Δ₁} → T` such that (equations (1)–(3) of the
//! paper):
//!
//! 1. `f(s, ·)` takes `Δ₁` distinct values for every source `s`;
//! 2. every target `t` is taken exactly `Δ₂ = n₁Δ₁/n₂` times;
//! 3. entries with equal list values get distinct targets:
//!    `L(s₁, i₁) = L(s₂, i₂) ∧ (s₁, i₁) ≠ (s₂, i₂) ⇒ f(s₁, i₁) ≠ f(s₂, i₂)`.
//!
//! **Theorem 1**: every proper list system admits one. The proof (followed
//! verbatim by [`FairDistribution::compute`]) builds the bipartite demand
//! multigraph `G = (S, S′)` with `l(s, s′)` parallel edges, pads it to an
//! `n₂`-regular multigraph ([`pops_bipartite::regularize::theorem1_pad`]),
//! 1-factorizes by König's theorem ([`pops_bipartite::coloring`]), and reads
//! the target of entry `(s, i)` off as the colour of its edge.

use std::collections::HashMap;
use std::fmt;

use pops_bipartite::regularize::theorem1_pad;
use pops_bipartite::{BipartiteMultigraph, ColorerKind};

use crate::list_system::ListSystem;

/// A fair distribution `f : S × N_{Δ₁} → T` (validated on construction in
/// debug builds; [`FairDistribution::verify`] re-checks on demand).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairDistribution {
    n2: usize,
    /// `assignments[s][i] = f(s, i)`.
    assignments: Vec<Vec<usize>>,
}

/// A violation of the fair-distribution conditions, found by
/// [`FairDistribution::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FairnessViolation {
    /// Condition (1): `f(s, ·)` repeats a target.
    TargetRepeatedAtSource {
        /// The source with the repeated target.
        source: usize,
        /// The repeated target.
        target: usize,
    },
    /// Condition (2): a target's fibre has the wrong size.
    UnbalancedTarget {
        /// The target.
        target: usize,
        /// Fibre size found.
        count: usize,
        /// Expected fibre size `Δ₂`.
        expected: usize,
    },
    /// Condition (3): two entries with equal list value share a target.
    ConflictingPair {
        /// First entry `(s, i)`.
        first: (usize, usize),
        /// Second entry `(s, i)`.
        second: (usize, usize),
        /// The shared list value.
        value: usize,
        /// The shared target.
        target: usize,
    },
    /// Shape mismatch against the list system.
    ShapeMismatch,
}

impl fmt::Display for FairnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FairnessViolation::TargetRepeatedAtSource { source, target } => {
                write!(f, "source {source} maps two entries to target {target}")
            }
            FairnessViolation::UnbalancedTarget {
                target,
                count,
                expected,
            } => write!(
                f,
                "target {target} assigned {count} entries, expected Δ2 = {expected}"
            ),
            FairnessViolation::ConflictingPair {
                first,
                second,
                value,
                target,
            } => write!(
                f,
                "entries {first:?} and {second:?} share list value {value} and target {target}"
            ),
            FairnessViolation::ShapeMismatch => write!(f, "shape mismatch with list system"),
        }
    }
}

impl std::error::Error for FairnessViolation {}

impl FairDistribution {
    /// Computes a fair distribution for a proper list system — the
    /// constructive Theorem 1.
    ///
    /// `colorer` selects the 1-factorization engine (Remark 1 of the paper
    /// discusses the asymptotics; all engines give valid results). This is
    /// the allocating reference construction: the routing engine builds
    /// the same padded graph in its arenas and colours it with the bitset
    /// kernel, matching `ColorerKind::AlternatingPath` here byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if the list system is not proper (Theorem 1's hypothesis).
    pub fn compute(ls: &ListSystem, colorer: ColorerKind) -> Self {
        assert!(
            ls.is_proper(),
            "Theorem 1 requires a proper list system (n1={}, n2={}, Δ1={})",
            ls.n1(),
            ls.n2(),
            ls.delta1()
        );
        let n1 = ls.n1();
        let delta1 = ls.delta1();

        // Demand multigraph G = (S, S'): one edge per list entry, inserted
        // in (s, i) lexicographic order so that edge id = s·Δ1 + i.
        let mut demand = BipartiteMultigraph::new(n1, n1);
        for s in 0..n1 {
            for i in 0..delta1 {
                demand.add_edge(s, ls.entry(s, i));
            }
        }

        // Pad per the proof of Theorem 1 and 1-factorize with n2 colours;
        // every colour class holds exactly Δ2 real edges.
        let padded = theorem1_pad(&demand, ls.n2());
        let coloring = colorer.color(&padded.graph);
        debug_assert!(ls.delta1() == 0 || coloring.num_colors == ls.n2());

        let assignments: Vec<Vec<usize>> = (0..n1)
            .map(|s| {
                (0..delta1)
                    .map(|i| coloring.colors[s * delta1 + i])
                    .collect()
            })
            .collect();
        let fd = Self {
            n2: ls.n2(),
            assignments,
        };
        debug_assert_eq!(fd.verify(ls), Ok(()));
        fd
    }

    /// Builds a fair distribution from explicit values (for tests and for
    /// the worked Figure-3 example).
    pub fn from_assignments(n2: usize, assignments: Vec<Vec<usize>>) -> Self {
        Self { n2, assignments }
    }

    /// `f(s, i)`.
    pub fn target(&self, s: usize, i: usize) -> usize {
        self.assignments[s][i]
    }

    /// Number of targets `n₂`.
    pub fn n2(&self) -> usize {
        self.n2
    }

    /// All targets of source `s`, in list order.
    pub fn targets_of(&self, s: usize) -> &[usize] {
        &self.assignments[s]
    }

    /// For each source `s`, the inverse map target → entry index, with
    /// `usize::MAX` for unused targets. In the `d > g` routing case
    /// (`n₂ = Δ₁`) each `f(s, ·)` is a bijection, so every target is used.
    pub fn inverse_per_source(&self) -> Vec<Vec<usize>> {
        self.assignments
            .iter()
            .map(|targets| {
                let mut inv = vec![usize::MAX; self.n2];
                for (i, &t) in targets.iter().enumerate() {
                    inv[t] = i;
                }
                inv
            })
            .collect()
    }

    /// Verifies conditions (1)–(3) against the generating list system.
    pub fn verify(&self, ls: &ListSystem) -> Result<(), FairnessViolation> {
        let n1 = ls.n1();
        let delta1 = ls.delta1();
        if self.assignments.len() != n1
            || self.assignments.iter().any(|a| a.len() != delta1)
            || self.n2 != ls.n2()
        {
            return Err(FairnessViolation::ShapeMismatch);
        }

        // (1) per-source injectivity.
        for (s, targets) in self.assignments.iter().enumerate() {
            let mut seen = vec![false; self.n2];
            for &t in targets {
                if t >= self.n2 {
                    return Err(FairnessViolation::ShapeMismatch);
                }
                if seen[t] {
                    return Err(FairnessViolation::TargetRepeatedAtSource {
                        source: s,
                        target: t,
                    });
                }
                seen[t] = true;
            }
        }

        // (2) balanced fibres.
        let delta2 = ls.delta2();
        let mut counts = vec![0usize; self.n2];
        for targets in &self.assignments {
            for &t in targets {
                counts[t] += 1;
            }
        }
        for (t, &c) in counts.iter().enumerate() {
            if c != delta2 {
                return Err(FairnessViolation::UnbalancedTarget {
                    target: t,
                    count: c,
                    expected: delta2,
                });
            }
        }

        // (3) same list value ⇒ distinct targets: group entries by
        // (value, target) and require singleton groups.
        let mut seen: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
        for s in 0..n1 {
            for i in 0..delta1 {
                let key = (ls.entry(s, i), self.assignments[s][i]);
                if let Some(&first) = seen.get(&key) {
                    return Err(FairnessViolation::ConflictingPair {
                        first,
                        second: (s, i),
                        value: key.0,
                        target: key.1,
                    });
                }
                seen.insert(key, (s, i));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_permutation::families::{random_permutation, vector_reversal};
    use pops_permutation::{Permutation, SplitMix64};

    fn routing_ls(pi: &Permutation, d: usize, g: usize) -> ListSystem {
        ListSystem::for_routing(pi, d, g)
    }

    #[test]
    fn theorem1_on_random_routing_systems_all_engines() {
        let mut rng = SplitMix64::new(70);
        for (d, g) in [
            (2usize, 2usize),
            (2, 4),
            (3, 5),
            (4, 4),
            (6, 3),
            (8, 2),
            (7, 7),
        ] {
            let pi = random_permutation(d * g, &mut rng);
            let ls = routing_ls(&pi, d, g);
            for kind in ColorerKind::ALL {
                let fd = FairDistribution::compute(&ls, kind);
                fd.verify(&ls)
                    .unwrap_or_else(|v| panic!("{} d={d} g={g}: {v}", kind.name()));
            }
        }
    }

    #[test]
    fn theorem1_case_d_gt_g_gives_bijections() {
        let mut rng = SplitMix64::new(71);
        let (d, g) = (9usize, 3usize);
        let pi = random_permutation(d * g, &mut rng);
        let ls = routing_ls(&pi, d, g);
        let fd = FairDistribution::compute(&ls, ColorerKind::default());
        fd.verify(&ls).unwrap();
        // n2 = d: each source's targets form a bijection on N_d.
        for h in 0..g {
            let mut ts = fd.targets_of(h).to_vec();
            ts.sort_unstable();
            assert_eq!(ts, (0..d).collect::<Vec<_>>());
        }
        // Inverse is total.
        for inv in fd.inverse_per_source() {
            assert!(inv.iter().all(|&i| i != usize::MAX));
        }
    }

    #[test]
    fn figure3_permutation_admits_fair_distribution() {
        // The POPS(3, 3) example of Figure 3.
        let pi = Permutation::new(vec![5, 1, 7, 2, 0, 6, 3, 8, 4]).unwrap();
        let ls = routing_ls(&pi, 3, 3);
        assert!(ls.is_proper());
        let fd = FairDistribution::compute(&ls, ColorerKind::default());
        fd.verify(&ls).unwrap();
    }

    #[test]
    fn verify_catches_condition_1_violation() {
        let ls = ListSystem::new(2, vec![vec![0, 1], vec![1, 0]]).unwrap();
        let bad = FairDistribution::from_assignments(2, vec![vec![0, 0], vec![0, 1]]);
        assert!(matches!(
            bad.verify(&ls),
            Err(FairnessViolation::TargetRepeatedAtSource {
                source: 0,
                target: 0
            })
        ));
    }

    #[test]
    fn verify_catches_condition_2_violation() {
        // Injective per source but unbalanced fibres: n2=4, Δ1=2, n1=2,
        // Δ2=1, yet targets 0 and 1 are each used twice.
        let ls = ListSystem::new(4, vec![vec![0, 1], vec![1, 0]]).unwrap();
        let bad = FairDistribution::from_assignments(4, vec![vec![0, 1], vec![0, 1]]);
        assert!(matches!(
            bad.verify(&ls),
            Err(FairnessViolation::UnbalancedTarget { .. })
        ));
    }

    #[test]
    fn verify_catches_condition_3_violation() {
        // Both sources list value 0 at position 0; give both target 0.
        let ls = ListSystem::new(2, vec![vec![0, 1], vec![0, 1]]).unwrap();
        let bad = FairDistribution::from_assignments(2, vec![vec![0, 1], vec![0, 1]]);
        assert!(matches!(
            bad.verify(&ls),
            Err(FairnessViolation::ConflictingPair {
                value: 0,
                target: 0,
                ..
            })
        ));
    }

    #[test]
    fn verify_catches_shape_mismatch() {
        let ls = ListSystem::new(2, vec![vec![0, 1], vec![1, 0]]).unwrap();
        let bad = FairDistribution::from_assignments(2, vec![vec![0, 1]]);
        assert_eq!(bad.verify(&ls), Err(FairnessViolation::ShapeMismatch));
    }

    #[test]
    #[should_panic(expected = "proper")]
    fn compute_rejects_improper_systems() {
        let ls = ListSystem::new(3, vec![vec![0, 0], vec![0, 1], vec![1, 2]]).unwrap();
        let _ = FairDistribution::compute(&ls, ColorerKind::default());
    }

    #[test]
    fn d_equals_1_routing_systems() {
        // d = 1: lists of length 1; n2 = g; Δ2 = 1 — f is a bijection of
        // sources to targets overall.
        let mut rng = SplitMix64::new(72);
        let g = 6;
        let pi = random_permutation(g, &mut rng);
        let ls = routing_ls(&pi, 1, g);
        let fd = FairDistribution::compute(&ls, ColorerKind::default());
        fd.verify(&ls).unwrap();
    }

    #[test]
    fn reversal_routing_system_fair() {
        for (d, g) in [(4usize, 4usize), (8, 4), (3, 6)] {
            let pi = vector_reversal(d * g);
            let ls = routing_ls(&pi, d, g);
            let fd = FairDistribution::compute(&ls, ColorerKind::default());
            fd.verify(&ls).unwrap();
        }
    }

    #[test]
    fn violation_display() {
        let v = FairnessViolation::UnbalancedTarget {
            target: 2,
            count: 3,
            expected: 1,
        };
        assert!(v.to_string().contains("target 2"));
    }
}

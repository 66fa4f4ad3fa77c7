//! Packet-level schedule builders for the collectives.
//!
//! Each builder returns a machine-level [`Schedule`] (or [`SlotFrame`])
//! expressed in the packet-id conventions documented per function; every
//! schedule here is executed against the conflict-checking simulator by the
//! unit tests and by the [`crate::values`] layer. Slot counts equal the
//! [`crate::cost`] model exactly.

use pops_core::router::{route, RoutingPlan};
use pops_network::patterns::{all_to_all_broadcast, one_to_all};
use pops_network::{PopsTopology, ProcessorId, Schedule, SlotFrame, Transmission};
use pops_permutation::families::rotation;

/// One-slot **multicast**: `speaker` sends `packet` to exactly the
/// processors in `targets` (the one-to-all of §1, but reading only where
/// asked — the optical broadcast still reaches whole groups; non-targets
/// simply do not read).
///
/// Only the couplers towards groups containing a target are driven.
///
/// # Panics
///
/// Panics if `speaker` or any target is out of range.
pub fn multicast(
    topology: &PopsTopology,
    speaker: ProcessorId,
    packet: usize,
    targets: &[ProcessorId],
) -> SlotFrame {
    let src_group = topology.group_of(speaker);
    let mut per_group: Vec<Vec<ProcessorId>> = vec![Vec::new(); topology.g()];
    for &t in targets {
        per_group[topology.group_of(t)].push(t);
    }
    let transmissions = per_group
        .into_iter()
        .enumerate()
        .filter(|(_, receivers)| !receivers.is_empty())
        .map(|(dest_group, receivers)| Transmission {
            sender: speaker,
            coupler: topology.coupler_id(dest_group, src_group),
            packet,
            receivers: receivers.into(),
        })
        .collect();
    SlotFrame { transmissions }
}

/// **Scatter** from `root`: packet `p` (initially held by the root for all
/// `p`) is delivered to processor `p`, one slot per foreign piece, in
/// processor order. The root's own piece never moves.
///
/// Slots: `n − 1` — optimal, because the root can transmit at most one
/// *distinct* packet per slot ([`crate::cost::scatter_lower_bound`]).
///
/// Packet-id convention: packet `p` is the piece destined for processor
/// `p`; the initial simulator placement is "all packets at `root`".
///
/// # Panics
///
/// Panics if `root >= n`.
pub fn scatter(topology: &PopsTopology, root: ProcessorId) -> Schedule {
    assert!(root < topology.n(), "root {root} out of range");
    let root_group = topology.group_of(root);
    let slots = (0..topology.n())
        .filter(|&p| p != root)
        .map(|p| SlotFrame {
            transmissions: vec![Transmission::unicast(
                root,
                topology.coupler_id(topology.group_of(p), root_group),
                p,
                p,
            )],
        })
        .collect();
    Schedule { slots }
}

/// **Gather** to `root`: packet `p` (initially at processor `p`) is
/// delivered to the root, one slot per foreign piece, in processor order.
///
/// Slots: `n − 1` — optimal, because the root reads at most one coupler per
/// slot ([`crate::cost::gather_lower_bound`]).
///
/// # Panics
///
/// Panics if `root >= n`.
pub fn gather(topology: &PopsTopology, root: ProcessorId) -> Schedule {
    assert!(root < topology.n(), "root {root} out of range");
    let root_group = topology.group_of(root);
    let slots = (0..topology.n())
        .filter(|&p| p != root)
        .map(|p| SlotFrame {
            transmissions: vec![Transmission::unicast(
                p,
                topology.coupler_id(root_group, topology.group_of(p)),
                p,
                root,
            )],
        })
        .collect();
    Schedule { slots }
}

/// **All-gather** (all-to-all broadcast): every processor ends up holding
/// every packet. `n` one-to-all rounds, one speaker per slot.
///
/// Slots: `n`, within one of the `n − 1` receive lower bound.
pub fn all_gather(topology: &PopsTopology) -> Schedule {
    all_to_all_broadcast(topology)
}

/// **Barrier** through `root`: every processor reports to the root (the
/// gather), then the root broadcasts the release token (its own packet) in
/// one final slot. No processor can observe the token before every
/// processor has reported — the synchronization property.
///
/// Slots: `n`, within one of the `n − 1` hear-from-everyone lower bound.
///
/// # Panics
///
/// Panics if `root >= n`.
pub fn barrier(topology: &PopsTopology, root: ProcessorId) -> Schedule {
    let mut schedule = gather(topology, root);
    schedule.slots.push(one_to_all(topology, root, root));
    schedule
}

/// Routed **circular shift** by `amount`: the permutation
/// `i ↦ (i + amount) mod n`, routed by the paper's Theorem-2 router.
///
/// Slots: 1 when `d = 1`, `2⌈d/g⌉` otherwise — a shift is a permutation,
/// so it inherits the paper's guarantee (and, being a derangement whenever
/// `amount ≢ 0 (mod n)`, also its Proposition-1 lower bound of `⌈d/g⌉`).
///
/// # Panics
///
/// Panics if `amount % n == 0` would make this the identity **and**
/// `n > 1`; shifting by zero is a no-op the caller should elide (the
/// Theorem-2 schedule would still spend `2⌈d/g⌉` slots moving nothing).
pub fn circular_shift(topology: &PopsTopology, amount: usize) -> RoutingPlan {
    let n = topology.n();
    assert!(
        n == 1 || !amount.is_multiple_of(n),
        "zero shift is the identity; elide it instead of routing it"
    );
    route(&rotation(n, amount % n), *topology)
}

/// The rotation-based **all-to-all personalized exchange**: `n − 1` routed
/// rounds; round `k` (for `k = 1..n`) moves the piece addressed from `i`
/// to `(i + k) mod n` for every `i` simultaneously (a circular shift).
///
/// Total slots: `(n − 1) · theorem2_slots(d, g)` — compare
/// [`crate::cost::all_to_all_lower_bound`]. The alternative formulation as
/// one big (n−1)-relation through `pops_core::h_relation` costs the same
/// total; experiment T11 compares both.
#[derive(Debug, Clone)]
pub struct AllToAllPlan {
    /// Round `k − 1` routes the shift-by-`k` permutation.
    pub rounds: Vec<RoutingPlan>,
}

impl AllToAllPlan {
    /// Total slots across all rounds.
    pub fn total_slots(&self) -> usize {
        self.rounds.iter().map(|r| r.schedule.slot_count()).sum()
    }
}

/// Builds the rotation-based all-to-all personalized exchange plan.
///
/// Packet-id convention *per round* `k`: packet `i` is the piece processor
/// `i` addresses to `(i + k) mod n`; rounds use disjoint batches, so each
/// round is validated on a fresh simulator (same convention as
/// `pops_core::h_relation`).
pub fn all_to_all_personalized(topology: &PopsTopology) -> AllToAllPlan {
    let n = topology.n();
    let rounds = (1..n).map(|k| circular_shift(topology, k)).collect();
    AllToAllPlan { rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;
    use pops_network::Simulator;

    #[test]
    fn scatter_delivers_each_piece_from_the_root() {
        let t = PopsTopology::new(3, 3);
        let schedule = scatter(&t, 4);
        assert_eq!(schedule.slot_count(), cost::scatter_slots(&t));
        // All packets start at the root.
        let mut sim = Simulator::with_placement(t, &vec![4; t.n()]);
        sim.execute_schedule(&schedule).unwrap();
        let identity: Vec<usize> = (0..t.n()).collect();
        sim.verify_delivery(&identity).unwrap();
    }

    #[test]
    fn scatter_from_every_root_on_asymmetric_shapes() {
        for (d, g) in [(1, 5), (4, 2), (2, 4)] {
            let t = PopsTopology::new(d, g);
            for root in 0..t.n() {
                let schedule = scatter(&t, root);
                let mut sim = Simulator::with_placement(t, &vec![root; t.n()]);
                sim.execute_schedule(&schedule).unwrap();
                sim.verify_delivery(&(0..t.n()).collect::<Vec<_>>())
                    .unwrap();
            }
        }
    }

    #[test]
    fn gather_collects_everything_at_the_root() {
        let t = PopsTopology::new(2, 4);
        let root = 5;
        let schedule = gather(&t, root);
        assert_eq!(schedule.slot_count(), cost::gather_slots(&t));
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&schedule).unwrap();
        for p in 0..t.n() {
            assert_eq!(sim.holders_of(p), &[root], "packet {p}");
        }
        assert_eq!(sim.packets_at(root).len(), t.n());
    }

    #[test]
    fn multicast_reads_only_targets_and_drives_only_needed_couplers() {
        let t = PopsTopology::new(3, 3);
        let frame = multicast(&t, 0, 0, &[2, 7]);
        // Targets live in groups 0 and 2 → exactly two couplers driven.
        assert_eq!(frame.couplers_used(), 2);
        assert_eq!(frame.deliveries(), 2);
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_frame(&frame).unwrap();
        let mut holders = sim.holders_of(0).to_vec();
        holders.sort_unstable();
        assert_eq!(holders, vec![2, 7]);
    }

    #[test]
    fn multicast_to_nobody_is_an_empty_frame() {
        let t = PopsTopology::new(2, 2);
        let frame = multicast(&t, 1, 1, &[]);
        assert_eq!(frame.couplers_used(), 0);
    }

    #[test]
    fn barrier_token_arrives_only_after_everyone_reported() {
        let t = PopsTopology::new(2, 3);
        let root = 0;
        let schedule = barrier(&t, root);
        assert_eq!(schedule.slot_count(), cost::barrier_slots(&t));
        let mut sim = Simulator::with_unit_packets(t);
        // Execute all but the final broadcast: the root must now hold all
        // packets, and nobody else holds the token.
        for frame in &schedule.slots[..schedule.slots.len() - 1] {
            sim.execute_frame(frame).unwrap();
        }
        assert_eq!(sim.packets_at(root).len(), t.n());
        // Final slot: the token (packet `root`) reaches everyone.
        sim.execute_frame(schedule.slots.last().unwrap()).unwrap();
        assert_eq!(sim.holders_of(root).len(), t.n());
    }

    #[test]
    fn circular_shift_routes_and_delivers() {
        let t = PopsTopology::new(3, 2);
        let plan = circular_shift(&t, 2);
        assert_eq!(plan.schedule.slot_count(), cost::shift_slots(&t));
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&plan.schedule).unwrap();
        let dest: Vec<usize> = (0..t.n()).map(|i| (i + 2) % t.n()).collect();
        sim.verify_delivery(&dest).unwrap();
    }

    #[test]
    #[should_panic(expected = "zero shift")]
    fn zero_shift_is_rejected() {
        let t = PopsTopology::new(2, 2);
        let _ = circular_shift(&t, 4);
    }

    #[test]
    fn all_to_all_plan_covers_every_ordered_pair() {
        let t = PopsTopology::new(2, 3);
        let n = t.n();
        let plan = all_to_all_personalized(&t);
        assert_eq!(plan.rounds.len(), n - 1);
        assert_eq!(plan.total_slots(), cost::all_to_all_slots(&t));
        // Round k moves i → i + k; across rounds every ordered pair (i, j)
        // with i ≠ j is served exactly once.
        let mut served = vec![vec![false; n]; n];
        for (idx, round) in plan.rounds.iter().enumerate() {
            let k = idx + 1;
            let mut sim = Simulator::with_unit_packets(t);
            sim.execute_schedule(&round.schedule).unwrap();
            let dest: Vec<usize> = (0..n).map(|i| (i + k) % n).collect();
            sim.verify_delivery(&dest).unwrap();
            for (i, &j) in dest.iter().enumerate() {
                assert!(!served[i][j], "pair ({i}, {j}) served twice");
                served[i][j] = true;
            }
        }
        for (i, row) in served.iter().enumerate() {
            for (j, &hit) in row.iter().enumerate() {
                assert_eq!(hit, i != j, "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn all_gather_slot_count_matches_cost() {
        let t = PopsTopology::new(2, 2);
        assert_eq!(all_gather(&t).slot_count(), cost::all_gather_slots(&t));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scatter_rejects_bad_root() {
        let t = PopsTopology::new(2, 2);
        let _ = scatter(&t, 99);
    }
}

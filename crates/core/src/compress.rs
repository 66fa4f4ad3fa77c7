//! Schedule compression: a greedy list-scheduling pass that repacks
//! transmissions into the earliest conflict-free slot while respecting
//! each packet's hop order.
//!
//! Theorem 2's schedules are already slot-optimal in the worst case, but
//! concrete instances can have slack: e.g. a round-based `d > g` schedule
//! whose later rounds' first hops don't actually conflict with earlier
//! rounds' second hops, or a two-hop schedule for a permutation that was
//! single-slot routable all along. The compressor is the ablation tool for
//! experiment T6's crossover analysis — and a useful post-pass for
//! application-generated schedules.
//!
//! Constraints preserved per slot: one sender per coupler, one read per
//! receiver, one packet per sender, and per-packet hop precedence (hop
//! `k+1` may not be scheduled before hop `k` has *completed*, i.e. strictly
//! later). Wiring and possession follow automatically from preserving hop
//! order, as the simulator-backed tests confirm.

use std::collections::HashMap;

use pops_network::{Schedule, SlotFrame, Transmission};

/// Greedily repacks `schedule` into (possibly) fewer slots.
///
/// Deterministic; never increases the slot count; the output delivers each
/// packet along the same coupler path in the same hop order.
pub fn compress_schedule(schedule: &Schedule) -> Schedule {
    // earliest_slot[packet] = first slot index the packet's next hop may
    // occupy (one past the slot of its previous hop).
    let mut earliest_slot: HashMap<usize, usize> = HashMap::new();
    // Per-slot occupancy of the output.
    let mut coupler_used: Vec<HashMap<usize, ()>> = Vec::new();
    let mut receiver_used: Vec<HashMap<usize, ()>> = Vec::new();
    let mut sender_packet: Vec<HashMap<usize, usize>> = Vec::new();
    let mut out: Vec<SlotFrame> = Vec::new();

    let ensure_slot = |idx: usize,
                       out: &mut Vec<SlotFrame>,
                       coupler_used: &mut Vec<HashMap<usize, ()>>,
                       receiver_used: &mut Vec<HashMap<usize, ()>>,
                       sender_packet: &mut Vec<HashMap<usize, usize>>| {
        while out.len() <= idx {
            out.push(SlotFrame::new());
            coupler_used.push(HashMap::new());
            receiver_used.push(HashMap::new());
            sender_packet.push(HashMap::new());
        }
    };

    for frame in &schedule.slots {
        for t in &frame.transmissions {
            let min_slot = earliest_slot.get(&t.packet).copied().unwrap_or(0);
            let mut slot = min_slot;
            loop {
                ensure_slot(
                    slot,
                    &mut out,
                    &mut coupler_used,
                    &mut receiver_used,
                    &mut sender_packet,
                );
                let coupler_free = !coupler_used[slot].contains_key(&t.coupler);
                let receivers_free = t
                    .receivers
                    .iter()
                    .all(|r| !receiver_used[slot].contains_key(r));
                let sender_ok = match sender_packet[slot].get(&t.sender) {
                    None => true,
                    Some(&p) => p == t.packet,
                };
                if coupler_free && receivers_free && sender_ok {
                    break;
                }
                slot += 1;
            }
            coupler_used[slot].insert(t.coupler, ());
            for &r in &t.receivers {
                receiver_used[slot].insert(r, ());
            }
            sender_packet[slot].insert(t.sender, t.packet);
            out[slot].transmissions.push(Transmission {
                sender: t.sender,
                coupler: t.coupler,
                packet: t.packet,
                receivers: t.receivers.clone(),
            });
            earliest_slot.insert(t.packet, slot + 1);
        }
    }

    // Drop trailing empty slots (none should exist, but be safe).
    while out.last().is_some_and(|s| s.transmissions.is_empty()) {
        out.pop();
    }
    Schedule { slots: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route;
    use pops_network::{PopsTopology, Simulator};
    use pops_permutation::families::{random_permutation, vector_reversal};
    use pops_permutation::SplitMix64;

    fn roundtrip(pi: &pops_permutation::Permutation, d: usize, g: usize) -> (usize, usize) {
        let topology = PopsTopology::new(d, g);
        let plan = route(pi, topology);
        let compressed = compress_schedule(&plan.schedule);
        assert!(compressed.slot_count() <= plan.schedule.slot_count());
        let mut sim = Simulator::with_unit_packets(topology);
        sim.execute_schedule(&compressed)
            .unwrap_or_else(|(i, e)| panic!("slot {i}: {e}"));
        sim.verify_delivery(pi.as_slice()).unwrap();
        (plan.schedule.slot_count(), compressed.slot_count())
    }

    #[test]
    fn compression_preserves_delivery() {
        let mut rng = SplitMix64::new(60);
        for (d, g) in [(2usize, 3usize), (4, 4), (6, 2), (5, 3), (1, 8)] {
            let pi = random_permutation(d * g, &mut rng);
            roundtrip(&pi, d, g);
        }
    }

    #[test]
    fn already_tight_schedules_stay_tight() {
        // d <= g two-slot schedules cannot compress below 2 when some
        // group pair carries two packets.
        let pi = vector_reversal(16);
        let (before, after) = roundtrip(&pi, 4, 4);
        assert_eq!(before, 2);
        assert_eq!(after, 2);
    }

    #[test]
    fn identity_two_hop_compresses() {
        // Routing the identity with the general router wastes hops; the
        // compressor cannot remove hops (it preserves paths) but packs the
        // two hops of different packets tightly. Verify only legality +
        // no-increase here.
        let pi = pops_permutation::Permutation::identity(12);
        let (before, after) = roundtrip(&pi, 3, 4);
        assert!(after <= before);
    }

    #[test]
    fn multi_round_schedules_may_shrink() {
        // d > g: rounds serialize hops; slack exists when a later round's
        // first hop uses couplers idle in an earlier round's second hop.
        let mut rng = SplitMix64::new(61);
        let (d, g) = (8usize, 2usize);
        let pi = random_permutation(d * g, &mut rng);
        let (before, after) = roundtrip(&pi, d, g);
        assert_eq!(before, 8);
        assert!(after <= before);
    }

    #[test]
    fn hop_order_is_preserved() {
        let mut rng = SplitMix64::new(62);
        let (d, g) = (6usize, 3usize);
        let pi = random_permutation(d * g, &mut rng);
        let topology = PopsTopology::new(d, g);
        let plan = route(&pi, topology);
        let compressed = compress_schedule(&plan.schedule);
        // For each packet, the sequence of couplers must be identical.
        let path = |s: &Schedule| {
            let mut per_packet: std::collections::HashMap<usize, Vec<usize>> =
                std::collections::HashMap::new();
            for frame in &s.slots {
                for t in &frame.transmissions {
                    per_packet.entry(t.packet).or_default().push(t.coupler);
                }
            }
            per_packet
        };
        assert_eq!(path(&plan.schedule), path(&compressed));
    }

    #[test]
    fn empty_schedule() {
        let s = compress_schedule(&Schedule::new());
        assert_eq!(s.slot_count(), 0);
    }
}

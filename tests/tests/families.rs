//! The unification claim (experiment T3): the general Theorem-2 router
//! matches the specialized per-family slot counts of the earlier
//! literature on every family §2 of the paper discusses.

use pops_baselines::compare;
use pops_core::verify::route_and_verify;
use pops_core::{theorem2_slots, Router, RoutingEngine, RoutingRequest};
use pops_network::fault::FaultSet;
use pops_network::{PopsTopology, Simulator};
use pops_permutation::families::{
    bit_reversal, hypercube::all_exchanges, matrix_transpose, mesh::all_shifts, perfect_shuffle,
    vector_reversal, BpcSpec,
};
use pops_permutation::SplitMix64;

#[test]
fn hypercube_exchanges_match_sahni_theorem1() {
    // Sahni 2000b, Thm 1: every dimension step routes in 1 slot (d = 1)
    // or 2⌈d/g⌉ slots (d > 1).
    for (dims, d, g) in [(4u32, 1usize, 16usize), (4, 4, 4), (4, 8, 2), (6, 8, 8)] {
        for (b, step) in all_exchanges(dims).iter().enumerate() {
            let v = route_and_verify(step, d, g).unwrap();
            assert_eq!(
                v.slots,
                theorem2_slots(d, g),
                "dims={dims} b={b} d={d} g={g}"
            );
        }
    }
}

#[test]
fn mesh_shifts_match_sahni_theorem2() {
    // Sahni 2000b, Thm 2: same bound for every torus unit shift.
    for (nside, d, g) in [
        (4usize, 1usize, 16usize),
        (4, 4, 4),
        (4, 8, 2),
        (6, 6, 6),
        (6, 9, 4),
    ] {
        for pi in all_shifts(nside) {
            let v = route_and_verify(&pi, d, g).unwrap();
            assert_eq!(v.slots, theorem2_slots(d, g), "nside={nside} d={d} g={g}");
        }
    }
}

#[test]
fn bpc_permutations_match_sahni_2000a() {
    let mut rng = SplitMix64::new(2000);
    for (k, d, g) in [(4usize, 4usize, 4usize), (4, 2, 8), (5, 8, 4), (6, 8, 8)] {
        for _ in 0..5 {
            let pi = BpcSpec::random(k, &mut rng).to_permutation();
            let v = route_and_verify(&pi, d, g).unwrap();
            assert_eq!(v.slots, theorem2_slots(d, g), "k={k} d={d} g={g}");
        }
    }
}

#[test]
fn named_bpc_instances() {
    let n = 64usize;
    let (d, g) = (8usize, 8usize);
    for pi in [bit_reversal(n), perfect_shuffle(n), vector_reversal(n)] {
        let v = route_and_verify(&pi, d, g).unwrap();
        assert_eq!(v.slots, 2);
    }
}

#[test]
fn vector_reversal_optimal_for_even_g() {
    // Sahni 2000a / Proposition 2: 2⌈d/g⌉ is optimal for reversal, even g.
    for (d, g) in [(4usize, 4usize), (8, 4), (6, 2), (12, 6)] {
        let c = compare(&vector_reversal(d * g), d, g);
        assert_eq!(c.general_slots, c.lower_bound, "d={d} g={g}");
        // The specialized (structured) router achieves the same.
        assert_eq!(c.structured_slots, Some(c.general_slots));
    }
}

#[test]
fn transpose_single_slot_on_matching_blocks() {
    // Square transpose with d = g = side: demand all-ones, one slot direct.
    for side in [2usize, 4, 6, 8] {
        let t = PopsTopology::new(side, side);
        let pi = matrix_transpose(side, side);
        assert!(pops_core::is_single_slot_routable(&pi, &t), "side={side}");
        let c = compare(&pi, side, side);
        assert_eq!(c.direct_slots, 1, "side={side}");
    }
}

#[test]
fn transpose_direct_beats_general_router() {
    // Sahni 2000a: ⌈d/g⌉ slots for (power-of-two) transpose — half of the
    // general 2⌈d/g⌉. The general router is within its stated factor 2.
    for (side, d, g) in [(8usize, 16usize, 4usize), (8, 8, 8), (4, 8, 2)] {
        let c = compare(&matrix_transpose(side, side), d, g);
        assert!(c.direct_slots <= d.div_ceil(g), "side={side} d={d} g={g}");
        assert!(c.general_slots <= 2 * c.direct_slots.max(1), "side={side}");
    }
}

#[test]
fn every_family_delivered_by_all_engines() {
    // Belt and braces: one shape, every family, every routing path of the
    // engine that accepts any permutation.
    let (d, g) = (4usize, 4usize);
    let t = PopsTopology::new(d, g);
    let mut engine = RoutingEngine::new(t);
    let faults = FaultSet::none(&t);
    let n = d * g;
    let mut pis = vec![
        vector_reversal(n),
        bit_reversal(n),
        perfect_shuffle(n),
        matrix_transpose(4, 4),
    ];
    pis.extend(all_exchanges(4));
    pis.extend(all_shifts(4));
    for pi in &pis {
        assert_eq!(route_and_verify(pi, d, g).unwrap().slots, 2);
        let requests = [
            RoutingRequest::Theorem2 { pi },
            RoutingRequest::DirectBaseline { pi },
            RoutingRequest::WithFaults {
                pi,
                faults: &faults,
            },
        ];
        for req in requests {
            let outcome = engine.plan(&req).unwrap();
            let mut sim = Simulator::with_unit_packets(t);
            sim.execute_schedule(outcome.schedule())
                .unwrap_or_else(|(slot, e)| panic!("{req:?} slot {slot}: {e}"));
            sim.verify_delivery(pi.as_slice())
                .unwrap_or_else(|e| panic!("{req:?}: {e}"));
        }
    }
}

//! Quickstart: build a POPS network, route a permutation, inspect the
//! result.
//!
//! ```text
//! cargo run --release --bin quickstart
//! ```

use pops_core::engine::{Router, RoutingEngine, RoutingRequest};
use pops_core::verify::route_and_verify;
use pops_core::{lower_bound, theorem2_slots};
use pops_network::patterns::one_to_all;
use pops_network::{viz, PopsTopology, Simulator};
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;

fn main() {
    let d = 4;
    let g = 4;
    let topology = PopsTopology::new(d, g);
    println!("== The network ==");
    print!("{}", viz::render_topology(&topology));

    // §1 of the paper: one-to-all broadcast takes a single slot.
    println!("\n== One-to-all broadcast (Figure 1 semantics) ==");
    let mut sim = Simulator::with_unit_packets(topology);
    let frame = one_to_all(&topology, 0, 0);
    sim.execute_frame(&frame)
        .expect("broadcast is conflict-free");
    println!(
        "speaker 0 reached {} processors in {} slot using {} couplers",
        sim.holders_of(0).len(),
        sim.slots_elapsed(),
        frame.couplers_used()
    );

    // Theorem 2: any permutation routes in 2*ceil(d/g) slots (d > 1).
    println!("\n== Permutation routing (Theorem 2) ==");
    let mut rng = SplitMix64::new(2002); // IPPS 2002
    let pi = random_permutation(topology.n(), &mut rng);
    println!("permutation: {:?}", pi.as_slice());
    let verdict = route_and_verify(&pi, d, g).expect("Theorem 2 always routes");
    println!(
        "routed in {} slots (Theorem 2 guarantee: {}, provable lower bound: {})",
        verdict.slots,
        theorem2_slots(d, g),
        lower_bound(&pi, d, g)
    );
    println!(
        "couplers driven per slot: peak {} of {}, mean utilization {:.0}%",
        verdict.stats.peak_couplers_used,
        topology.coupler_count(),
        verdict.stats.mean_coupler_utilization * 100.0
    );
    println!(
        "storage invariant (at most 1 in-transit packet per processor): {}",
        if verdict.storage_invariant_held {
            "held"
        } else {
            "violated"
        }
    );

    // The fair distribution behind the routing.
    if let Some(fd) = &verdict.plan.fair_distribution {
        println!("\n== Fair distribution f(h, i) used for the first hop ==");
        for h in 0..g {
            println!("  group {h}: targets {:?}", fd.targets_of(h));
        }
    }

    // Full slot-by-slot plan report.
    println!("\n== Plan report ==");
    print!(
        "{}",
        pops_core::diagnostics::render_plan(&verdict.plan, &pi)
    );

    // Production shape: one warm engine, many permutations. The engine
    // owns the list-system/padding/colouring/fair-distribution arenas, so
    // repeated plans allocate nothing in the construction.
    println!("\n== Warm RoutingEngine: many permutations, one topology ==");
    let mut engine = RoutingEngine::new(topology);
    for round in 0..3 {
        let pi = random_permutation(topology.n(), &mut rng);
        let outcome = engine
            .plan(&RoutingRequest::Theorem2 { pi: &pi })
            .expect("Theorem 2 always routes");
        println!(
            "  round {round}: routed in {} slots on reused arenas",
            outcome.schedule().slot_count()
        );
    }
}

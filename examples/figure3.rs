//! Reproduction of **Figure 3** of the paper: getting to a fair
//! distribution on a POPS(3, 3).
//!
//! The figure shows nine packets (destinations written `xy` = group `x`,
//! processor `y`) and the intermediate placement after the first slot of
//! the Theorem-2 routing. This example routes the exact permutation of the
//! figure and prints the placement before, between, and after the two
//! slots.
//!
//! ```text
//! cargo run --release --bin figure3
//! ```

use pops_core::engine::RoutingEngine;
use pops_core::single_slot::is_single_slot_routable;
use pops_network::{viz, PopsTopology, Simulator};
use pops_permutation::Permutation;

fn main() {
    // Destinations read off Figure 3, processors 0..=8:
    // 15 01 27 | 02 00 26 | 13 28 14  (xy = destination group x, proc y).
    let pi = Permutation::new(vec![5, 1, 7, 2, 0, 6, 3, 8, 4]).expect("valid permutation");
    let topology = PopsTopology::new(3, 3);

    println!("== Figure 3: POPS(3, 3), the paper's example permutation ==");
    println!(
        "single-slot routable? {} (processors 4 and 5 of group 1 both target group 0:\n\
         the unavoidable conflict on coupler c(0, 1) described in section 3)\n",
        is_single_slot_routable(&pi, &topology)
    );

    let mut sim = Simulator::with_unit_packets(topology);
    println!("-- initial placement (left side of Figure 3) --");
    print!("{}", viz::render_placement(&sim, pi.as_slice()));

    let plan = RoutingEngine::new(topology)
        .emit_artefacts(true)
        .plan_theorem2(&pi);
    let fd = plan.fair_distribution.as_ref().expect("d > 1");
    println!("\n-- fair distribution f(h, i) (intermediate groups) --");
    for h in 0..3 {
        println!("  group {h}: {:?}", fd.targets_of(h));
    }

    sim.execute_frame(&plan.schedule.slots[0])
        .expect("slot 1 conflict-free");
    println!("\n-- after slot 1: fairly distributed (right side of Figure 3) --");
    print!("{}", viz::render_placement(&sim, pi.as_slice()));

    sim.execute_frame(&plan.schedule.slots[1])
        .expect("slot 2 conflict-free");
    println!("\n-- after slot 2: delivered --");
    print!("{}", viz::render_placement(&sim, pi.as_slice()));

    sim.verify_delivery(pi.as_slice())
        .expect("all packets home");
    println!(
        "\nrouted in {} slots, as Theorem 2 promises (2*ceil(3/3) = 2).",
        sim.slots_elapsed()
    );

    // Re-verify the fair distribution against equations (1)-(3).
    let ls = plan.list_system.as_ref().expect("d > 1");
    fd.verify(ls).expect("fair distribution conditions hold");
    println!("fair distribution verified against equations (1)-(3): ok");
}

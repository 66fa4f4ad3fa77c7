//! Simulating a SIMD hypercube on a POPS network (§2 of the paper; Sahni
//! 2000b, Theorem 1).
//!
//! A `2^D`-processor hypercube step along dimension `b` is the permutation
//! `π(i) = i XOR 2^b`. This example routes all `D` dimension steps on a
//! POPS(d, g) with `d·g = 2^D` — and then repeats the exercise with the
//! hypercube processors mapped onto the POPS processors by a *random*
//! relabelling, demonstrating the consequence of Theorem 2 the paper
//! highlights: the simulation cost does not depend on the mapping, which
//! the pre-existing per-family results could not show.
//!
//! ```text
//! cargo run --release --bin hypercube_simulation
//! ```

use pops_core::theorem2_slots;
use pops_core::verify::route_and_verify;
use pops_permutation::families::{hypercube::all_exchanges, random_permutation};
use pops_permutation::{Permutation, SplitMix64};

fn main() {
    let dims = 6u32; // 64 processors
    let (d, g) = (8usize, 8usize);
    let n = d * g;
    assert_eq!(n, 1 << dims);

    println!("== Hypercube-on-POPS simulation: 2^{dims} processors on POPS({d}, {g}) ==");
    println!(
        "Theorem 2 slot guarantee per hypercube step: {}\n",
        theorem2_slots(d, g)
    );

    println!("-- identity mapping (the setting of Sahni 2000b, Theorem 1) --");
    let mut total = 0usize;
    for (b, step) in all_exchanges(dims).iter().enumerate() {
        let verdict = route_and_verify(step, d, g).expect("Theorem 2 routes every exchange");
        println!(
            "  dimension {b}: {} slots (lower bound {})",
            verdict.slots, verdict.lower_bound
        );
        total += verdict.slots;
    }
    println!("  one full round over all {dims} dimensions: {total} slots\n");

    // The paper's §2 remark: by Theorem 2 the result holds for ANY
    // one-to-one mapping of hypercube processors onto POPS processors.
    println!("-- random one-to-one mapping (the paper's generalization) --");
    let mut rng = SplitMix64::new(64);
    let mapping = random_permutation(n, &mut rng);
    let mapping_inv = mapping.inverse();
    let mut total_mapped = 0usize;
    for (b, step) in all_exchanges(dims).iter().enumerate() {
        // POPS processor mapping(i) plays hypercube processor i, so the
        // permutation to route on the POPS is mapping . step . mapping^-1.
        let routed: Permutation = mapping.compose(&step.compose(&mapping_inv));
        let verdict = route_and_verify(&routed, d, g).expect("Theorem 2 is mapping-independent");
        println!("  dimension {b}: {} slots", verdict.slots);
        total_mapped += verdict.slots;
    }
    println!(
        "  full round under the random mapping: {total_mapped} slots — identical to the \
         identity mapping, as Theorem 2 guarantees."
    );
    assert_eq!(total, total_mapped);
}

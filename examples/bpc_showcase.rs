//! BPC (bit-permute-complement) permutations on the POPS network (§2 of
//! the paper; Sahni 2000a).
//!
//! BPC permutations rearrange and complement the bits of the processor
//! index; the class contains bit reversal, perfect shuffle, vector
//! reversal, and hypercube exchanges, and is closed under composition.
//! Sahni showed every BPC permutation routes in one slot (`d = 1`) or
//! `2⌈d/g⌉` slots (`d > 1`); Theorem 2 extends that to all permutations.
//! This example routes the classic BPC instances and a batch of random
//! ones, confirming the unified slot count.
//!
//! ```text
//! cargo run --release --bin bpc_showcase
//! ```

use pops_core::theorem2_slots;
use pops_core::verify::route_and_verify;
use pops_permutation::families::{bit_reversal, perfect_shuffle, vector_reversal, BpcSpec};
use pops_permutation::SplitMix64;

fn main() {
    let k = 6usize; // n = 64
    let n = 1usize << k;
    let (d, g) = (8usize, 8usize);
    assert_eq!(d * g, n);

    println!("== BPC permutations on POPS({d}, {g}), n = {n} ==");
    println!("Theorem 2 guarantee: {} slots\n", theorem2_slots(d, g));

    let named: Vec<(&str, pops_permutation::Permutation)> = vec![
        ("bit reversal", bit_reversal(n)),
        ("perfect shuffle", perfect_shuffle(n)),
        ("vector reversal", vector_reversal(n)),
        (
            "swap high/low halves of the bits",
            BpcSpec::new(vec![3, 4, 5, 0, 1, 2], 0).to_permutation(),
        ),
    ];
    for (name, pi) in &named {
        let verdict = route_and_verify(pi, d, g).expect("Theorem 2 routes every BPC permutation");
        println!(
            "  {name:<34} {} slots (lower bound {})",
            verdict.slots, verdict.lower_bound
        );
    }

    println!("\n-- 10 random BPC permutations (random sigma + complement) --");
    let mut rng = SplitMix64::new(7);
    for trial in 0..10 {
        let spec = BpcSpec::random(k, &mut rng);
        let pi = spec.to_permutation();
        let verdict = route_and_verify(&pi, d, g).expect("Theorem 2 routes every BPC permutation");
        println!(
            "  trial {trial}: sigma {:?}, complement {:#08b} -> {} slots",
            spec.sigma(),
            spec.complement(),
            verdict.slots
        );
        assert_eq!(verdict.slots, theorem2_slots(d, g));
    }

    // Closure under composition (the defining property of the BPC class):
    // compose two random specs and route the composite.
    println!("\n-- closure under composition --");
    let a = BpcSpec::random(k, &mut rng);
    let b = BpcSpec::random(k, &mut rng);
    let composite = a.compose(&b);
    let verdict = route_and_verify(&composite.to_permutation(), d, g)
        .expect("composites are BPC, hence routable");
    println!(
        "  composite of two random BPC specs: {} slots — same bound.",
        verdict.slots
    );
}

//! Simulating an N×N SIMD mesh with wraparound on a POPS network (§2 of
//! the paper; Sahni 2000b, Theorem 2).
//!
//! Mesh processor `(i, j)` is mapped onto POPS processor `i + jN`; a data
//! movement one step along rows or columns is a permutation that Theorem 2
//! routes in one slot (`d = 1`) or `2⌈d/g⌉` slots (`d > 1`). The example
//! also runs a small stencil-style computation: four shift rounds
//! accumulating each processor's neighbour sum, checked against a direct
//! computation.
//!
//! ```text
//! cargo run --release --bin mesh_simulation
//! ```

use pops_core::theorem2_slots;
use pops_core::verify::route_and_verify;
use pops_permutation::families::mesh::{mesh_shift, MeshDirection};

fn main() {
    let nside = 6usize;
    let n = nside * nside;
    // Two POPS shapes for the same mesh: tall groups and flat groups.
    for (d, g) in [(6usize, 6usize), (12, 3), (4, 9)] {
        assert_eq!(d * g, n);
        println!("== {nside}x{nside} torus on POPS({d}, {g}) ==");
        println!("Theorem 2 guarantee per shift: {}", theorem2_slots(d, g));
        for dir in MeshDirection::ALL {
            let pi = mesh_shift(nside, dir);
            let verdict = route_and_verify(&pi, d, g).expect("Theorem 2 routes every shift");
            println!(
                "  {dir:?}: {} slots (lower bound {}, single-slot routable: {})",
                verdict.slots,
                verdict.lower_bound,
                pops_core::is_single_slot_routable(&pi, &pops_network::PopsTopology::new(d, g)),
            );
        }
        println!();
    }

    // Stencil demo: each processor starts with value = its index; after
    // pulling each neighbour's value via the four shifts, it holds the
    // 4-neighbour sum. The shifts move *data*, so the value arriving at p
    // under shift pi came from pi^{-1}(p).
    println!("== four-shift neighbour-sum stencil ({nside}x{nside}, POPS(6, 6)) ==");
    let mut sums = vec![0u64; n];
    for dir in MeshDirection::ALL {
        let pi = mesh_shift(nside, dir);
        // Route (fully simulated) to prove the data movement is legal…
        route_and_verify(&pi, 6, 6).expect("shift routes");
        // …then account for the arriving values.
        let inv = pi.inverse();
        for (p, s) in sums.iter_mut().enumerate() {
            *s += inv.apply(p) as u64;
        }
    }
    // Check one interior processor against the torus neighbourhood.
    let (i, j) = (2usize, 3usize);
    let p = i + j * nside;
    let expect: u64 = [
        ((i + 1) % nside) + j * nside,
        ((i + nside - 1) % nside) + j * nside,
        i + ((j + 1) % nside) * nside,
        i + ((j + nside - 1) % nside) * nside,
    ]
    .iter()
    .map(|&x| x as u64)
    .sum();
    assert_eq!(sums[p], expect);
    println!(
        "processor ({i}, {j}) accumulated neighbour sum {} — verified against the torus.",
        sums[p]
    );
    println!(
        "total slots for the stencil: {} (4 shifts x {} slots)",
        4 * theorem2_slots(6, 6),
        theorem2_slots(6, 6)
    );
}

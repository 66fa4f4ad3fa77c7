//! Exhaustive verification on small networks: EVERY permutation of the
//! processor set is routed and fully simulated. This is the strongest
//! correctness evidence in the repository — Theorem 2 quantifies over all
//! `n!` permutations, and here we literally check them all for n ≤ 8.

use pops_core::theorem2_slots;
use pops_core::verify::route_and_verify;
use pops_permutation::Permutation;

/// Heap's algorithm, iterative over index vectors.
fn all_permutations(n: usize) -> Vec<Vec<usize>> {
    let mut result = Vec::new();
    let mut a: Vec<usize> = (0..n).collect();
    let mut c = vec![0usize; n];
    result.push(a.clone());
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                a.swap(0, i);
            } else {
                a.swap(c[i], i);
            }
            result.push(a.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    result
}

fn exhaustive(d: usize, g: usize) {
    let n = d * g;
    let expected = theorem2_slots(d, g);
    for image in all_permutations(n) {
        let pi = Permutation::new(image).unwrap();
        let v = route_and_verify(&pi, d, g)
            .unwrap_or_else(|e| panic!("d={d} g={g} pi={:?}: {e}", pi.as_slice()));
        assert_eq!(v.slots, expected, "d={d} g={g} pi={:?}", pi.as_slice());
        assert!(v.storage_invariant_held, "pi={:?}", pi.as_slice());
    }
}

#[test]
fn every_permutation_on_pops_2_2() {
    exhaustive(2, 2); // 24 permutations
}

#[test]
fn every_permutation_on_pops_2_3() {
    exhaustive(2, 3); // 720 permutations, d < g
}

#[test]
fn every_permutation_on_pops_3_2() {
    exhaustive(3, 2); // 720 permutations, d > g with partial round
}

#[test]
fn every_permutation_on_pops_1_5() {
    exhaustive(1, 5); // 120 permutations, the one-slot case
}

#[test]
fn every_permutation_on_pops_4_2() {
    exhaustive(4, 2); // 40320 permutations, d = 2g (two full rounds)
}

#[test]
fn every_permutation_on_pops_2_4() {
    exhaustive(2, 4); // 40320 permutations, 2d = g
}

#[test]
fn every_permutation_on_pops_6_1() {
    exhaustive(6, 1); // 720 permutations, single-group degenerate shape
}

//! The experiment harness: regenerates every figure and every empirical
//! validation table of the reproduction, experiments F1–F3 and T1–T12.
//! Each is one `experiment_*` function below, whose doc comment says
//! what it shows.
//!
//! ```text
//! cargo run --release --bin experiments            # all experiments
//! cargo run --release --bin experiments -- T1 T4   # a subset
//! ```
//!
//! Output is deterministic (fixed seeds) apart from the timing columns
//! of T4 and T5. A table row that disagrees with the paper's slot bound
//! prints `MISMATCH` and, once its table is printed, ends the process
//! with exit status 1.

use std::time::Instant;

use pops_algorithms::matmul::{cannon_multiply, TorusMatrix};
use pops_algorithms::reduce::data_sum;
use pops_algorithms::scan::prefix_sum;
use pops_algorithms::sort::bitonic_sort;
use pops_algorithms::total_exchange::route_total_exchange;
use pops_algorithms::ValueMachine;
use pops_baselines::compare;
use pops_bipartite::coloring::verify_proper;
use pops_bipartite::generators::random_regular_multigraph;
use pops_bipartite::ColorerKind;
use pops_core::bounds::{proposition1, proposition2, proposition3};
use pops_core::compress::compress_schedule;
use pops_core::engine::RoutingEngine;
use pops_core::h_relation::{route_h_relation, HRelation};
use pops_core::router::route;
use pops_core::theorem2_slots;
use pops_core::verify::route_and_verify;
use pops_network::patterns::one_to_all;
use pops_network::{viz, PopsTopology, Simulator};
use pops_permutation::families::{
    bit_reversal, group_rotation, hypercube::all_exchanges, matrix_transpose, mesh::all_shifts,
    perfect_shuffle, random_derangement, random_group_deranged, random_permutation,
    vector_reversal, BpcSpec,
};
use pops_permutation::{Permutation, SplitMix64};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(name));

    println!("POPS permutation routing — experiment harness");
    println!("Paper: Mei & Rizzi, IPPS 2002 (arXiv:cs/0109027)");
    println!("=================================================\n");

    if want("F1") {
        experiment_f1();
    }
    if want("F2") {
        experiment_f2();
    }
    if want("F3") {
        experiment_f3();
    }
    if want("T1") {
        experiment_t1();
    }
    if want("T2") {
        experiment_t2();
    }
    if want("T3") {
        experiment_t3();
    }
    if want("T4") {
        experiment_t4();
    }
    if want("T5") {
        experiment_t5();
    }
    if want("T6") {
        experiment_t6();
    }
    if want("T7") {
        experiment_t7();
    }
    if want("T8") {
        experiment_t8();
    }
    if want("T9") {
        experiment_t9();
    }
    if want("T10") {
        experiment_t10();
    }
    if want("T11") {
        experiment_t11();
    }
    if want("T12") {
        experiment_t12();
    }
}

/// F1 — Figure 1: OPS coupler broadcast semantics.
fn experiment_f1() {
    println!("## F1 — Figure 1: 4x4 OPS coupler (one-to-all in one slot)\n");
    let t = PopsTopology::new(4, 1);
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_frame(&one_to_all(&t, 2, 2)).expect("broadcast");
    println!(
        "POPS(4, 1): source 2 broadcast to {} destinations in {} slot(s)\n",
        sim.holders_of(2).len(),
        sim.slots_elapsed()
    );
}

/// F2 — Figure 2: the POPS(3, 2) wiring.
fn experiment_f2() {
    println!("## F2 — Figure 2: POPS(3, 2) wiring\n");
    let t = PopsTopology::new(3, 2);
    print!("{}", viz::render_topology(&t));
    println!(
        "diameter: {} (every pair joined by exactly one coupler)\n",
        t.diameter()
    );
}

/// F3 — Figure 3: the worked fair-distribution example on POPS(3, 3).
fn experiment_f3() {
    println!("## F3 — Figure 3: fair distribution on POPS(3, 3)\n");
    let pi = Permutation::new(vec![5, 1, 7, 2, 0, 6, 3, 8, 4]).expect("figure permutation");
    let t = PopsTopology::new(3, 3);
    let plan = route(&pi, t, ColorerKind::default());
    let mut sim = Simulator::with_unit_packets(t);
    println!("initial (paper, left panel):");
    print!("{}", viz::render_placement(&sim, pi.as_slice()));
    sim.execute_frame(&plan.schedule.slots[0]).expect("slot 1");
    println!("after slot 1 — fairly distributed (paper, right panel):");
    print!("{}", viz::render_placement(&sim, pi.as_slice()));
    sim.execute_frame(&plan.schedule.slots[1]).expect("slot 2");
    sim.verify_delivery(pi.as_slice()).expect("delivered");
    println!(
        "delivered after {} slots (Theorem 2: 2).\n",
        sim.slots_elapsed()
    );
}

/// The verdict column of a table row: "ok" when the row matches the
/// paper's bound, else "MISMATCH", counted into `mismatches`.
fn verdict(matches: bool, mismatches: &mut usize) -> &'static str {
    if matches {
        "ok"
    } else {
        *mismatches += 1;
        "MISMATCH"
    }
}

/// Fails the process once a printed table has `MISMATCH` rows.
fn exit_on_mismatch(experiment: &str, mismatches: usize) {
    if mismatches > 0 {
        eprintln!("{experiment}: {mismatches} row(s) disagree with the paper's slot bound");
        std::process::exit(1);
    }
}

/// T1 — Theorem 2 slot counts across a (d, g) sweep of random
/// permutations, every schedule simulated and verified.
fn experiment_t1() {
    println!("## T1 — Theorem 2: slots for random permutations (5 trials each)\n");
    println!(
        "{:>5} {:>5} {:>7} {:>10} {:>10} {:>9}",
        "d", "g", "n", "slots", "theorem2", "verified"
    );
    let mut rng = SplitMix64::new(101);
    let shapes: &[(usize, usize)] = &[
        (1, 16),
        (2, 8),
        (4, 4),
        (8, 2),
        (16, 1),
        (4, 16),
        (8, 8),
        (16, 4),
        (3, 21),
        (21, 3),
        (16, 16),
        (32, 8),
        (8, 32),
        (64, 64),
        (48, 32),
    ];
    let mut mismatches = 0;
    for &(d, g) in shapes {
        let mut slots_seen = Vec::new();
        for _ in 0..5 {
            let pi = random_permutation(d * g, &mut rng);
            let v = route_and_verify(&pi, d, g, ColorerKind::default()).expect("routes");
            slots_seen.push(v.slots);
        }
        let all_equal = slots_seen.iter().all(|&s| s == slots_seen[0]);
        assert!(all_equal, "slot count must be permutation-independent");
        println!(
            "{:>5} {:>5} {:>7} {:>10} {:>10} {:>9}",
            d,
            g,
            d * g,
            slots_seen[0],
            theorem2_slots(d, g),
            verdict(slots_seen[0] == theorem2_slots(d, g), &mut mismatches)
        );
    }
    println!();
    exit_on_mismatch("T1", mismatches);
}

/// T2 — Propositions 1–3: lower bounds vs achieved slots.
fn experiment_t2() {
    println!("## T2 — lower bounds (Propositions 1-3) vs achieved\n");
    println!(
        "{:<26} {:>4} {:>4} {:>6} {:>6} {:>6} {:>9} {:>7}",
        "family", "d", "g", "prop1", "prop2", "prop3", "achieved", "tight?"
    );
    let mut rng = SplitMix64::new(202);
    let row = |name: &str, pi: &Permutation, d: usize, g: usize| {
        let v = route_and_verify(pi, d, g, ColorerKind::default()).expect("routes");
        let p1 = proposition1(pi, d, g);
        let p2 = proposition2(pi, d, g);
        let p3 = proposition3(pi, d, g);
        let fmt = |p: Option<usize>| p.map_or("-".to_string(), |x| x.to_string());
        println!(
            "{:<26} {:>4} {:>4} {:>6} {:>6} {:>6} {:>9} {:>7}",
            name,
            d,
            g,
            fmt(p1),
            fmt(p2),
            fmt(p3),
            v.slots,
            if v.slots == v.lower_bound {
                "yes"
            } else {
                "no"
            }
        );
    };
    for (d, g) in [(4usize, 4usize), (8, 4), (12, 6), (6, 2)] {
        row("vector reversal (even g)", &vector_reversal(d * g), d, g);
    }
    for (d, g) in [(4usize, 3usize), (9, 3)] {
        row("vector reversal (odd g)", &vector_reversal(d * g), d, g);
    }
    for (d, g) in [(6usize, 3usize), (8, 2)] {
        row("group rotation", &group_rotation(d, g, 1), d, g);
    }
    for (d, g) in [(4usize, 4usize), (8, 4)] {
        row(
            "random group-deranged",
            &random_group_deranged(d, g, &mut rng),
            d,
            g,
        );
    }
    for (d, g) in [(4usize, 4usize), (6, 3)] {
        row(
            "random derangement",
            &random_derangement(d * g, &mut rng),
            d,
            g,
        );
    }
    println!();
}

/// T3 — the unification claim: general router vs the published per-family
/// slot counts, plus the structured (specialized) baseline.
fn experiment_t3() {
    println!("## T3 — permutation families: general router vs published counts\n");
    println!(
        "{:<24} {:>4} {:>4} {:>9} {:>10} {:>11} {:>7}",
        "family", "d", "g", "general", "published", "structured", "direct"
    );
    let mut rng = SplitMix64::new(303);
    let row = |name: &str, pi: &Permutation, d: usize, g: usize, published: usize| {
        let c = compare(pi, d, g);
        println!(
            "{:<24} {:>4} {:>4} {:>9} {:>10} {:>11} {:>7}",
            name,
            d,
            g,
            c.general_slots,
            published,
            c.structured_slots
                .map_or("-".to_string(), |s| s.to_string()),
            c.direct_slots
        );
        assert_eq!(c.general_slots, published, "{name}: unification violated");
    };
    let (d, g) = (8usize, 8usize);
    let n = d * g;
    for (b, pi) in all_exchanges(6).into_iter().enumerate().take(3) {
        row(
            &format!("hypercube dim {b}"),
            &pi,
            d,
            g,
            theorem2_slots(d, g),
        );
    }
    for (dir, pi) in all_shifts(8).into_iter().enumerate().take(2) {
        row(
            &format!("mesh shift #{dir}"),
            &pi,
            d,
            g,
            theorem2_slots(d, g),
        );
    }
    row("bit reversal", &bit_reversal(n), d, g, theorem2_slots(d, g));
    row(
        "perfect shuffle",
        &perfect_shuffle(n),
        d,
        g,
        theorem2_slots(d, g),
    );
    row(
        "vector reversal",
        &vector_reversal(n),
        d,
        g,
        theorem2_slots(d, g),
    );
    row(
        "matrix transpose 8x8",
        &matrix_transpose(8, 8),
        d,
        g,
        theorem2_slots(d, g),
    );
    let bpc = BpcSpec::random(6, &mut rng).to_permutation();
    row("random BPC", &bpc, d, g, theorem2_slots(d, g));
    let rand = random_permutation(n, &mut rng);
    row("random (Theorem 2 only)", &rand, d, g, theorem2_slots(d, g));
    println!("\nnote: transpose additionally routes DIRECT in ceil(d/g) slots (Sahni 2000a),");
    println!("      visible in the `direct` column.\n");
}

/// T4 — Remark 1: the three 1-factorization engines on regular
/// multigraphs (correctness + wall time).
fn experiment_t4() {
    println!("## T4 — edge-colouring engines (Remark 1) on k-regular multigraphs\n");
    println!(
        "{:<18} {:>6} {:>5} {:>9} {:>12} {:>8}",
        "engine", "n", "k", "edges", "time", "proper"
    );
    let mut rng = SplitMix64::new(404);
    for &(n, k) in &[
        (64usize, 8usize),
        (128, 16),
        (256, 16),
        (256, 64),
        (512, 32),
    ] {
        let g = random_regular_multigraph(n, k, &mut rng);
        // Negative baseline: first-fit greedy may exceed k colours, which
        // would break fairness (equation (2)); not part of ColorerKind.
        {
            let start = Instant::now();
            let coloring = pops_bipartite::coloring::greedy::color_greedy(&g);
            let elapsed = start.elapsed();
            println!(
                "{:<18} {:>6} {:>5} {:>9} {:>12} {:>8}",
                "greedy (first-fit)",
                n,
                k,
                g.edge_count(),
                format!("{elapsed:.2?}"),
                format!("{} cols", coloring.num_colors)
            );
        }
        for kind in ColorerKind::ALL {
            let start = Instant::now();
            let coloring = kind.color(&g);
            let elapsed = start.elapsed();
            let ok = verify_proper(&g, &coloring).is_ok() && coloring.num_colors == k;
            println!(
                "{:<18} {:>6} {:>5} {:>9} {:>12} {:>8}",
                kind.name(),
                n,
                k,
                g.edge_count(),
                format!("{elapsed:.2?}"),
                if ok { "ok" } else { "VIOLATION" }
            );
        }
    }
    println!();
}

/// T5 — routing-computation scaling (the §3.2 complexity discussion).
fn experiment_t5() {
    println!("## T5 — routing computation time vs n (default engine)\n");
    println!(
        "{:>6} {:>6} {:>9} {:>14} {:>14} {:>14}",
        "d", "g", "n", "route time", "per packet", "warm engine"
    );
    let mut rng = SplitMix64::new(505);
    for &(d, g) in &[
        (8usize, 8usize),
        (16, 16),
        (32, 32),
        (64, 64),
        (96, 96),
        (16, 64),
        (64, 16),
        (128, 32),
        (32, 128),
    ] {
        let pi = random_permutation(d * g, &mut rng);
        let t = PopsTopology::new(d, g);
        let start = Instant::now();
        let plan = route(&pi, t, ColorerKind::default());
        let elapsed = start.elapsed();
        assert_eq!(plan.schedule.slot_count(), theorem2_slots(d, g));
        // A warm engine re-plans on preallocated arenas (the production
        // shape: one topology, many permutations) — same colourer as the
        // cold column so the delta is arena reuse, not algorithm choice.
        let mut engine = RoutingEngine::with_colorer(t, ColorerKind::default());
        let _ = engine.plan_theorem2(&pi);
        let start = Instant::now();
        let warm_plan = engine.plan_theorem2(&pi);
        let warm = start.elapsed();
        assert_eq!(warm_plan.schedule.slot_count(), theorem2_slots(d, g));
        println!(
            "{:>6} {:>6} {:>9} {:>14} {:>14} {:>14}",
            d,
            g,
            d * g,
            format!("{elapsed:.2?}"),
            format!("{:.0?}", elapsed / (d * g) as u32),
            format!("{warm:.2?}")
        );
    }
    println!();
}

/// T6 — direct single-hop routing vs the two-hop Theorem-2 routing.
fn experiment_t6() {
    println!("## T6 — direct (single-hop) vs Theorem 2 (two-hop)\n");
    println!(
        "{:<26} {:>4} {:>4} {:>8} {:>9} {:>10}",
        "workload", "d", "g", "direct", "two-hop", "winner"
    );
    let mut rng = SplitMix64::new(606);
    let row = |name: &str, pi: &Permutation, d: usize, g: usize| {
        let c = compare(pi, d, g);
        let winner = match c.direct_slots.cmp(&c.general_slots) {
            std::cmp::Ordering::Less => "direct",
            std::cmp::Ordering::Greater => "two-hop",
            std::cmp::Ordering::Equal => "tie",
        };
        println!(
            "{:<26} {:>4} {:>4} {:>8} {:>9} {:>10}",
            name, d, g, c.direct_slots, c.general_slots, winner
        );
    };
    for (d, g) in [(8usize, 8usize), (16, 4), (32, 4), (16, 2)] {
        row("group rotation (worst)", &group_rotation(d, g, 1), d, g);
    }
    for (d, g) in [(8usize, 8usize), (16, 4)] {
        row("vector reversal", &vector_reversal(d * g), d, g);
    }
    for (d, g) in [(2usize, 16usize), (4, 16), (8, 8), (16, 4)] {
        row("random", &random_permutation(d * g, &mut rng), d, g);
    }
    row("transpose 8x8", &matrix_transpose(8, 8), 8, 8);

    // Why direct loses: its load piles onto the demanded couplers, while
    // the Theorem-2 schedule spreads evenly (CouplerLoad hot-spot profile).
    let (d, g) = (16usize, 4usize);
    let pi = group_rotation(d, g, 1);
    let t = PopsTopology::new(d, g);
    let direct = pops_baselines::route_direct(&pi, &t);
    let two_hop = route(&pi, t, ColorerKind::default()).schedule;
    let load_direct = pops_network::CouplerLoad::from_schedule(&t, &direct);
    let load_two_hop = pops_network::CouplerLoad::from_schedule(&t, &two_hop);
    println!(
        "\nhot-spot profile on group rotation {t}: direct max/mean = {:.1} \
         (hottest coupler carries {} of {} packets), two-hop max/mean = {:.1}",
        load_direct.imbalance(),
        load_direct.hottest().map_or(0, |(_, l)| l),
        t.n(),
        load_two_hop.imbalance()
    );
    println!("\nshape: two-hop wins exactly when demand concentrates (group-structured");
    println!("workloads with d >> g); direct wins on spread-out random permutations");
    println!("with small d; ties at d <= 2 or g = 2 where 2*ceil(d/g) = d.\n");
}

/// T7 — extension: h-relations via König decomposition.
fn experiment_t7() {
    println!("## T7 — extension: h-relation routing (Konig decomposition)\n");
    println!(
        "{:>4} {:>4} {:>4} {:>8} {:>12} {:>14}",
        "d", "g", "h", "phases", "total slots", "= h*2ceil(d/g)"
    );
    let mut rng = SplitMix64::new(707);
    let mut mismatches = 0;
    for &(d, g, h) in &[
        (4usize, 4usize, 2usize),
        (4, 4, 4),
        (8, 4, 3),
        (2, 8, 6),
        (6, 3, 4),
    ] {
        let n = d * g;
        let mut requests = Vec::new();
        for _ in 0..h {
            let p = random_permutation(n, &mut rng);
            requests.extend((0..n).map(|s| (s, p.apply(s))));
        }
        let relation = HRelation::new(n, requests).expect("valid relation");
        let routing = route_h_relation(&relation, PopsTopology::new(d, g), ColorerKind::default());
        let formula = h * theorem2_slots(d, g);
        println!(
            "{:>4} {:>4} {:>4} {:>8} {:>12} {:>14}",
            d,
            g,
            h,
            routing.phases.len(),
            routing.schedule.slot_count(),
            verdict(routing.schedule.slot_count() == formula, &mut mismatches)
        );
    }
    exit_on_mismatch("T7", mismatches);
    // Total exchange: the densest pattern, h = n-1.
    let topology = PopsTopology::new(3, 3);
    let routing = route_total_exchange(topology, ColorerKind::default());
    println!(
        "\ntotal exchange on POPS(3, 3): {} phases, {} slots (= (n-1)*2ceil(d/g))\n",
        routing.phases.len(),
        routing.schedule.slot_count()
    );
}

/// T8 — application layer: slot costs of the data-parallel algorithms.
fn experiment_t8() {
    println!("## T8 — application algorithms on routed permutations\n");
    println!(
        "{:<22} {:>4} {:>4} {:>12} {:>10}",
        "algorithm", "d", "g", "comm slots", "correct"
    );
    let mut rng = SplitMix64::new(808);
    for &(d, g) in &[(8usize, 8usize), (4, 16), (16, 4)] {
        let n = d * g;
        let values: Vec<u64> = (0..n).map(|_| rng.next_u64() % 100).collect();
        let expect_total: u64 = values.iter().sum();

        let mut m = ValueMachine::new(PopsTopology::new(d, g), values.clone());
        let (total, slots) = data_sum(&mut m).expect("reduction routes");
        println!(
            "{:<22} {:>4} {:>4} {:>12} {:>10}",
            "data sum",
            d,
            g,
            slots,
            if total == expect_total { "yes" } else { "NO" }
        );

        let (prefixes, slots) = prefix_sum(PopsTopology::new(d, g), &values).expect("scan");
        let ok = prefixes[n - 1] == expect_total;
        println!(
            "{:<22} {:>4} {:>4} {:>12} {:>10}",
            "prefix sum",
            d,
            g,
            slots,
            if ok { "yes" } else { "NO" }
        );
    }
    // Bitonic sort of 64 keys.
    {
        let mut sort_rng = SplitMix64::new(809);
        let keys: Vec<u64> = (0..64).map(|_| sort_rng.next_u64() % 1000).collect();
        let mut sorted_ref = keys.clone();
        sorted_ref.sort_unstable();
        for &(d, g) in &[(8usize, 8usize), (4, 16), (16, 4)] {
            let (sorted, slots) =
                bitonic_sort(PopsTopology::new(d, g), &keys).expect("sort routes");
            println!(
                "{:<22} {:>4} {:>4} {:>12} {:>10}",
                "bitonic sort (n=64)",
                d,
                g,
                slots,
                if sorted == sorted_ref { "yes" } else { "NO" }
            );
        }
    }

    // Cannon 8x8 on three shapes.
    let msize = 8usize;
    let a = TorusMatrix::from_fn(msize, |i, j| (i * 31 + j * 7) as i64 % 13 - 6);
    let b = TorusMatrix::from_fn(msize, |i, j| (i * 17 + j * 11) as i64 % 13 - 6);
    let expect = a.multiply_direct(&b);
    for &(d, g) in &[(8usize, 8usize), (16, 4), (4, 16)] {
        let result = cannon_multiply(&a, &b, PopsTopology::new(d, g)).expect("cannon routes");
        println!(
            "{:<22} {:>4} {:>4} {:>12} {:>10}",
            "Cannon matmul 8x8",
            d,
            g,
            result.slots,
            if result.product == expect {
                "yes"
            } else {
                "NO"
            }
        );
    }
    println!();
}

/// T9 — ablation: greedy schedule compression against the Theorem-2
/// schedules.
fn experiment_t9() {
    println!("## T9 — ablation: schedule compression\n");
    println!(
        "{:<26} {:>4} {:>4} {:>9} {:>11} {:>7}",
        "workload", "d", "g", "original", "compressed", "bound"
    );
    let mut rng = SplitMix64::new(909);
    let row = |name: &str, pi: &Permutation, d: usize, g: usize| {
        let topology = PopsTopology::new(d, g);
        let plan = route(pi, topology, ColorerKind::default());
        let compressed = compress_schedule(&plan.schedule);
        // Must still execute and deliver.
        let mut sim = Simulator::with_unit_packets(topology);
        sim.execute_schedule(&compressed)
            .expect("compressed schedule legal");
        sim.verify_delivery(pi.as_slice())
            .expect("compressed schedule delivers");
        println!(
            "{:<26} {:>4} {:>4} {:>9} {:>11} {:>7}",
            name,
            d,
            g,
            plan.schedule.slot_count(),
            compressed.slot_count(),
            pops_core::lower_bound(pi, d, g)
        );
    };
    for (d, g) in [(8usize, 2usize), (6, 2), (9, 3)] {
        let pi = random_permutation(d * g, &mut rng);
        row("random (multi-round)", &pi, d, g);
    }
    for (d, g) in [(4usize, 4usize), (6, 6)] {
        let pi = random_permutation(d * g, &mut rng);
        row("random (two-slot)", &pi, d, g);
    }
    row("group rotation", &group_rotation(8, 2, 1), 8, 2);

    // Demonstrate the compressor on a deliberately fragmented schedule:
    // split every slot of a valid plan into per-transmission micro-slots,
    // then compress back.
    let (d, g) = (4usize, 4usize);
    let pi = random_permutation(d * g, &mut rng);
    let topology = PopsTopology::new(d, g);
    let plan = route(&pi, topology, ColorerKind::default());
    let mut fragmented = pops_network::Schedule::new();
    for frame in &plan.schedule.slots {
        for t in &frame.transmissions {
            fragmented.slots.push(pops_network::SlotFrame {
                transmissions: vec![t.clone()],
            });
        }
    }
    let recompressed = compress_schedule(&fragmented);
    let mut sim = Simulator::with_unit_packets(topology);
    sim.execute_schedule(&recompressed).expect("legal");
    sim.verify_delivery(pi.as_slice()).expect("delivers");
    println!(
        "{:<26} {:>4} {:>4} {:>9} {:>11} {:>7}",
        "fragmented two-slot",
        d,
        g,
        fragmented.slot_count(),
        recompressed.slot_count(),
        pops_core::lower_bound(&pi, d, g)
    );

    println!("\nshape: the Theorem-2 schedules have NO path-preserving slack (the");
    println!("compressor cannot shrink them — consecutive rounds reuse the same");
    println!("coupler set, so every slot boundary is load-bearing), while a");
    println!("fragmented schedule collapses right back to the tight slot count.\n");
}

/// T10 — extension: fault injection and the greedy online baseline.
fn experiment_t10() {
    use pops_core::fault_routing::{route_greedy, route_with_faults};
    use pops_network::FaultSet;

    println!("## T10 — fault tolerance and the greedy online baseline\n");

    // (a) Healthy network: greedy (online, plan-free) vs Theorem 2
    // (offline, two-phase). Greedy serializes on concentrated demand.
    println!(
        "{:<26} {:>4} {:>4} {:>8} {:>10} {:>9}",
        "workload (healthy)", "d", "g", "greedy", "theorem2", "winner"
    );
    let mut rng = SplitMix64::new(210);
    let healthy_row = |name: &str, pi: &Permutation, d: usize, g: usize| {
        let t = PopsTopology::new(d, g);
        let greedy = route_greedy(pi, t);
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&greedy.schedule).expect("legal");
        sim.verify_delivery(pi.as_slice()).expect("delivers");
        let t2 = theorem2_slots(d, g);
        let winner = match greedy.slots().cmp(&t2) {
            std::cmp::Ordering::Less => "greedy",
            std::cmp::Ordering::Greater => "theorem2",
            std::cmp::Ordering::Equal => "tie",
        };
        println!(
            "{:<26} {:>4} {:>4} {:>8} {:>10} {:>9}",
            name,
            d,
            g,
            greedy.slots(),
            t2,
            winner
        );
    };
    for (d, g) in [(6usize, 3usize), (8, 4), (16, 4)] {
        healthy_row("group rotation", &group_rotation(d, g, 1), d, g);
    }
    for (d, g) in [(4usize, 4usize), (8, 8), (2, 8)] {
        healthy_row("random", &random_permutation(d * g, &mut rng), d, g);
    }

    // (b) Fault sweep: fail k couplers (keeping the network routable) and
    // watch slots / detour hops degrade gracefully.
    println!(
        "\n{:<10} {:>8} {:>12} {:>10} {:>9}",
        "shape", "faults", "avg slots", "max hops", "verified"
    );
    let t = PopsTopology::new(4, 4);
    for k in [0usize, 2, 4, 6, 8] {
        // Deterministic fault choice: walk coupler ids in a fixed shuffled
        // order, failing while routability survives.
        let mut faults = FaultSet::none(&t);
        let mut order: Vec<usize> = (0..t.coupler_count()).collect();
        let mut frng = SplitMix64::new(777);
        for i in (1..order.len()).rev() {
            let j = (frng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut failed = 0;
        for c in order {
            if failed == k {
                break;
            }
            let mut trial = faults.clone();
            trial.fail_coupler(c);
            if trial.fully_routable(&t) {
                faults = trial;
                failed += 1;
            }
        }
        let mut slot_sum = 0usize;
        let mut hop_max = 0usize;
        let trials = 5;
        for _ in 0..trials {
            let pi = random_permutation(t.n(), &mut rng);
            let routing = route_with_faults(&pi, t, &faults).expect("routable");
            let mut sim = Simulator::with_unit_packets_and_faults(t, faults.clone());
            sim.execute_schedule(&routing.schedule)
                .expect("legal under faults");
            sim.verify_delivery(pi.as_slice()).expect("delivers");
            slot_sum += routing.slots();
            hop_max = hop_max.max(routing.max_hops());
        }
        println!(
            "{:<10} {:>8} {:>12.1} {:>10} {:>9}",
            t.to_string(),
            failed,
            slot_sum as f64 / trials as f64,
            hop_max,
            "ok"
        );
    }
    println!("\nshape: greedy loses to Theorem 2 exactly on concentrated demand");
    println!("(its online final hops serialize on one coupler); slots and detour");
    println!("lengths degrade smoothly with the coupler fault count.\n");
}

/// T11 — extension: the collective patterns (Gravenstreter–Melhem 1998)
/// rebuilt on routed permutations.
fn experiment_t11() {
    use pops_collectives::{cost, CollectiveEngine};

    println!("## T11 — collectives: slot costs vs lower bounds\n");
    let t = PopsTopology::new(4, 4);
    let n = t.n();
    println!(
        "{:<22} {:>8} {:>12} {:>8}",
        "collective", "slots", "lower bound", "slack"
    );
    let mut eng = CollectiveEngine::new(t);

    let before = eng.slots_used();
    eng.broadcast(3, 1u64).expect("broadcast");
    let bcast = eng.slots_used() - before;
    let row = |name: &str, slots: usize, bound: usize| {
        println!(
            "{:<22} {:>8} {:>12} {:>8}",
            name,
            slots,
            bound,
            if slots == bound {
                "0".to_string()
            } else {
                format!("+{}", slots - bound)
            }
        );
    };
    row("broadcast", bcast, cost::broadcast_lower_bound(&t));

    let before = eng.slots_used();
    eng.scatter(0, (0..n as u64).collect()).expect("scatter");
    row(
        "scatter",
        eng.slots_used() - before,
        cost::scatter_lower_bound(&t),
    );

    let before = eng.slots_used();
    eng.gather(5, (0..n as u64).collect()).expect("gather");
    row(
        "gather",
        eng.slots_used() - before,
        cost::gather_lower_bound(&t),
    );

    let before = eng.slots_used();
    eng.all_gather((0..n as u64).collect()).expect("all-gather");
    row(
        "all-gather",
        eng.slots_used() - before,
        cost::all_gather_lower_bound(&t),
    );

    let before = eng.slots_used();
    eng.barrier(0).expect("barrier");
    row(
        "barrier",
        eng.slots_used() - before,
        cost::barrier_lower_bound(&t),
    );

    let before = eng.slots_used();
    let sends: Vec<Vec<u64>> = (0..n)
        .map(|i| (0..n).map(|j| (i * n + j) as u64).collect())
        .collect();
    eng.all_to_all(sends).expect("all-to-all");
    row(
        "all-to-all (rotations)",
        eng.slots_used() - before,
        cost::all_to_all_lower_bound(&t),
    );

    // The h-relation formulation of the same personalized exchange.
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect();
    let relation = HRelation::new(n, pairs).expect("valid");
    let routing = route_h_relation(&relation, t, ColorerKind::default());
    println!(
        "{:<22} {:>8} {:>12}  (König phases: {})",
        "all-to-all (h-rel)",
        routing.schedule.slot_count(),
        cost::all_to_all_lower_bound(&t),
        routing.phases.len()
    );

    println!("\nshape: single-root patterns are machine-model optimal (the root's");
    println!("one-distinct-packet-per-slot ceiling); all-gather/barrier are within");
    println!("one slot; both all-to-all formulations cost (n-1) * theorem2 slots.\n");
}

/// T12 — exact optimality gap on exhaustively searchable shapes (§3.3),
/// including the machine-checked counterexample to the stated Prop 2.
fn experiment_t12() {
    use pops_core::optimal::min_slots_two_hop;
    use pops_permutation::permutations_of;

    println!("## T12 — exact minimum slots (OPT2) vs Theorem 2\n");
    println!(
        "{:<10} {:>7} {:>10} {:>10} {:>10} {:>12}",
        "shape", "perms", "theorem2", "max OPT2", "avg OPT2", "max t2/OPT2"
    );
    const BUDGET: u64 = 20_000_000;
    for (d, g) in [(2usize, 2usize), (2, 3), (3, 2)] {
        let t = PopsTopology::new(d, g);
        let t2 = theorem2_slots(d, g);
        let mut count = 0u64;
        let mut opt_sum = 0u64;
        let mut opt_max = 0usize;
        let mut ratio_max = 0.0f64;
        for pi in permutations_of(d * g) {
            if pi.is_identity() {
                continue;
            }
            let out = min_slots_two_hop(&pi, t, BUDGET);
            let opt = out.slots.expect("budget ample on tiny shapes");
            count += 1;
            opt_sum += opt as u64;
            opt_max = opt_max.max(opt);
            ratio_max = ratio_max.max(t2 as f64 / opt as f64);
        }
        println!(
            "{:<10} {:>7} {:>10} {:>10} {:>10.2} {:>12.2}",
            t.to_string(),
            count,
            t2,
            opt_max,
            opt_sum as f64 / count as f64,
            ratio_max
        );
    }

    // The Proposition-2 counterexample, exhibited end to end.
    println!("\nProposition 2 counterexample (POPS(3, 2), wholesale group swap):");
    let t = PopsTopology::new(3, 2);
    let pi = group_rotation(3, 2, 1);
    let out = min_slots_two_hop(&pi, t, BUDGET);
    println!(
        "  paper's stated bound 2*ceil(d/g) = {}   exact optimum OPT2 = {}   corrected bound ceil(d/(g-1)) = {}",
        2 * 3usize.div_ceil(2),
        out.slots.expect("tiny instance"),
        pops_core::lower_bound(&pi, 3, 2)
    );
    println!(
        "  (search effort: {} nodes); the witness schedule, machine-executed:",
        out.nodes
    );
    let witness = out.schedule.expect("witness accompanies the optimum");
    let mut sim = Simulator::with_unit_packets(t);
    for (s, frame) in witness.slots.iter().enumerate() {
        print!("  slot {s}: ");
        let moves: Vec<String> = frame
            .transmissions
            .iter()
            .map(|tx| {
                format!(
                    "p{}->{} via c({},{})",
                    tx.packet,
                    tx.receivers[0],
                    t.coupler_dest_group(tx.coupler),
                    t.coupler_src_group(tx.coupler)
                )
            })
            .collect();
        println!("{}", moves.join(", "));
        sim.execute_frame(frame).expect("witness slot legal");
    }
    sim.verify_delivery(pi.as_slice())
        .expect("witness delivers");
    println!("  all 6 packets verified at their destinations after 3 slots");

    println!("\nshape: Theorem 2 stays within its factor-2 band of the true");
    println!("optimum everywhere; the band is exactly attained on single-slot-");
    println!("routable derangements, and the corrected Prop-2 bound is tight.\n");
}

//! The experiment harness: regenerates every figure and every empirical
//! validation table of the reproduction (experiments F1–F3 and T1–T6 of
//! DESIGN.md / EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release --bin experiments            # all experiments
//! cargo run --release --bin experiments -- T1 T4   # a subset
//! ```
//!
//! Output is deterministic (fixed seeds); EXPERIMENTS.md quotes it.

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
    // Opt-in only: BENCH overwrites the committed BENCH_routing.json perf
    // baseline with machine-dependent numbers, so a default (no-argument)
    // run must not fire it.
    if args.iter().any(|a| a.eq_ignore_ascii_case("BENCH")) {
        experiment_bench_json();
    }
    // Same opt-in rule: BENCH_SERVICE overwrites BENCH_service.json.
    if args.iter().any(|a| a.eq_ignore_ascii_case("BENCH_SERVICE")) {
        experiment_bench_service();
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
            if slots_seen[0] == theorem2_slots(d, g) {
                "ok"
            } else {
                "MISMATCH"
            }
        );
    }
    println!();
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
            if routing.schedule.slot_count() == formula {
                "ok"
            } else {
                "MISMATCH"
            }
        );
    }
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

/// BENCH — machine-readable throughput baseline (`BENCH_routing.json`).
///
/// Measures plans/sec and slots/sec for warm-engine single-plan routing and
/// for the chunk-based batch executor, at POPS(16, 16) and POPS(32, 32)
/// over 64 random permutations each. Later PRs treat the committed JSON as
/// the perf baseline to beat.
fn experiment_bench_json() {
    use std::num::NonZeroUsize;

    println!("## BENCH — routing throughput baseline (BENCH_routing.json)\n");

    let mut entries: Vec<String> = Vec::new();
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);

    for (d, g) in [(16usize, 16usize), (32, 32)] {
        let t = PopsTopology::new(d, g);
        let n = d * g;
        let count = 64usize;
        let mut rng = SplitMix64::new(0xBE7C);
        let perms: Vec<Permutation> = (0..count)
            .map(|_| random_permutation(n, &mut rng))
            .collect();
        let slots_per_plan = theorem2_slots(d, g);

        // Both executors are built and warmed up front, then measured in
        // alternating windows so machine drift hits both modes equally.
        //
        // Single-plan: one warm engine, plan dropped per iteration (the
        // zero-allocation alternating-path hot path, artefact export off).
        // Batch: the persistent chunk-based engine-per-worker executor in
        // its steady-state form — worker arenas warm once, and each call
        // recycles the previous batch's plan buffers, so every batch
        // re-emits into the same cache-warm allocations.
        let mut engine = RoutingEngine::new(t);
        for pi in &perms {
            let plan = engine.plan_theorem2(pi);
            assert_eq!(plan.schedule.slot_count(), slots_per_plan);
        }
        let mut batch_router = pops_core::BatchRouter::new(t, ColorerKind::AlternatingPath);
        let mut plans = Vec::new();
        batch_router.route_batch_into(&perms, None, &mut plans);
        assert_eq!(plans.len(), count);

        let mut single_plans = 0usize;
        let mut single_secs = 0.0f64;
        let mut batch_plans = 0usize;
        let mut batch_secs = 0.0f64;
        for _ in 0..3 {
            let start = Instant::now();
            while start.elapsed().as_millis() < 100 {
                for pi in &perms {
                    let plan = engine.plan_theorem2(pi);
                    std::hint::black_box(&plan);
                    single_plans += 1;
                }
            }
            single_secs += start.elapsed().as_secs_f64();

            let start = Instant::now();
            while start.elapsed().as_millis() < 100 {
                batch_router.route_batch_into(&perms, None, &mut plans);
                std::hint::black_box(&plans);
                batch_plans += count;
            }
            batch_secs += start.elapsed().as_secs_f64();
        }
        let single_plans_per_sec = single_plans as f64 / single_secs;
        let single_slots_per_sec = single_plans_per_sec * slots_per_plan as f64;
        let batch_plans_per_sec = batch_plans as f64 / batch_secs;
        let batch_slots_per_sec = batch_plans_per_sec * slots_per_plan as f64;

        println!(
            "POPS({d:>2}, {g:>2}) x {count} permutations: single {single_plans_per_sec:>10.0} \
             plans/s ({single_slots_per_sec:.0} slots/s), batch {batch_plans_per_sec:>10.0} \
             plans/s ({batch_slots_per_sec:.0} slots/s) on {threads} threads"
        );

        entries.push(format!(
            "    {{\n      \"d\": {d},\n      \"g\": {g},\n      \"n\": {n},\n      \
             \"permutations\": {count},\n      \"theorem2_slots\": {slots_per_plan},\n      \
             \"single_plan\": {{\n        \"plans_per_sec\": {single_plans_per_sec:.1},\n        \
             \"slots_per_sec\": {single_slots_per_sec:.1}\n      }},\n      \
             \"batch\": {{\n        \"threads\": {threads},\n        \
             \"plans_per_sec\": {batch_plans_per_sec:.1},\n        \
             \"slots_per_sec\": {batch_slots_per_sec:.1}\n      }}\n    }}"
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"pops_routing_engine\",\n  \"description\": \
         \"Warm RoutingEngine (alternating-path colourer) single-plan and \
         chunk-based batch throughput; regenerate with `cargo run --release \
         --bin experiments -- BENCH`\",\n  \"configs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write("BENCH_routing.json", &json) {
        Ok(()) => println!("\nwrote BENCH_routing.json\n"),
        Err(e) => println!("\ncould not write BENCH_routing.json: {e}\n"),
    }
}

/// BENCH_SERVICE — service-layer throughput baseline
/// (`BENCH_service.json`): cold engine-per-plan vs one warm engine vs
/// cache hits through the full [`pops_service::RoutingService`] front
/// door (admission gate, canonical key, LRU, metrics), at POPS(16, 16)
/// and POPS(32, 32) over 64 random permutations each. Every schedule the
/// service returns is first verified on the conflict-checking simulator.
fn experiment_bench_service() {
    use pops_service::{Counter, RoutingService, ServiceConfig, ServiceRequest};

    println!("## BENCH_SERVICE — routing-service throughput baseline (BENCH_service.json)\n");

    let mut entries: Vec<String> = Vec::new();
    for (d, g) in [(16usize, 16usize), (32, 32)] {
        let t = PopsTopology::new(d, g);
        let n = d * g;
        let count = 64usize;
        let mut rng = SplitMix64::new(0x5EC7);
        let perms: Vec<Permutation> = (0..count)
            .map(|_| random_permutation(n, &mut rng))
            .collect();
        let slots_per_plan = theorem2_slots(d, g);
        let colorer = ColorerKind::AlternatingPath;

        // Cold: a fresh engine per plan — what every consumer paid before
        // the service existed.
        let mut cold_plans = 0usize;
        let start = Instant::now();
        while start.elapsed().as_millis() < 300 {
            for pi in &perms {
                let outcome = RoutingService::route_cold(
                    t,
                    colorer,
                    &ServiceRequest::Theorem2 { pi: pi.clone() },
                )
                .expect("routes");
                std::hint::black_box(&outcome);
                cold_plans += 1;
            }
        }
        let cold_per_sec = cold_plans as f64 / start.elapsed().as_secs_f64();

        // Warm: one warm engine replanning on its arenas (PR 1's hot path).
        let mut engine = RoutingEngine::with_colorer(t, colorer);
        engine.warm();
        let mut warm_plans = 0usize;
        let start = Instant::now();
        while start.elapsed().as_millis() < 300 {
            for pi in &perms {
                let plan = engine.plan_theorem2(pi);
                std::hint::black_box(&plan);
                warm_plans += 1;
            }
        }
        let warm_per_sec = warm_plans as f64 / start.elapsed().as_secs_f64();

        // Cache hits: the full service front door answering repeats.
        let service = RoutingService::with_config(
            t,
            ServiceConfig {
                shards: 2,
                cache_capacity: 2 * count,
                max_in_flight: 4,
                colorer,
                ..ServiceConfig::default()
            },
        );
        // Warm the cache, verifying every returned schedule on the
        // simulator referee as we go.
        for pi in &perms {
            let reply = service
                .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                .expect("routes");
            assert!(!reply.cache_hit);
            let mut sim = Simulator::with_unit_packets(t);
            sim.execute_schedule(reply.outcome.schedule())
                .expect("legal");
            sim.verify_delivery(pi.as_slice()).expect("delivers");
        }
        let mut hit_plans = 0usize;
        let start = Instant::now();
        while start.elapsed().as_millis() < 300 {
            for pi in &perms {
                let reply = service
                    .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                    .expect("routes");
                debug_assert!(reply.cache_hit);
                std::hint::black_box(&reply);
                hit_plans += 1;
            }
        }
        let hit_per_sec = hit_plans as f64 / start.elapsed().as_secs_f64();
        let snap = service.metrics();
        assert_eq!(
            snap.get(Counter::Misses),
            count as u64,
            "only the warm-up misses"
        );
        assert_eq!(snap.get(Counter::Hits), hit_plans as u64);

        let speedup = hit_per_sec / cold_per_sec;
        println!(
            "POPS({d:>2}, {g:>2}) x {count} permutations: cold {cold_per_sec:>10.0} plans/s, \
             warm {warm_per_sec:>10.0} plans/s, cache-hit {hit_per_sec:>10.0} plans/s \
             ({speedup:.1}x vs cold)"
        );
        assert!(
            speedup >= 5.0,
            "acceptance: cache-hit throughput must be >= 5x cold (got {speedup:.1}x)"
        );

        // Phase reuse (level 2): fresh h-relations whose phases are
        // already cached must beat the all-phase-miss path. Level 1 is
        // disabled on both services so repeats re-assemble every time and
        // the delta isolates exactly the per-phase cache.
        let h = 4usize;
        let rel_count = 8usize;
        let relations: Vec<HRelation> = (0..rel_count)
            .map(|_| {
                let mut requests = Vec::with_capacity(n * h);
                for _ in 0..h {
                    let p = random_permutation(n, &mut rng);
                    requests.extend((0..n).map(|s| (s, p.apply(s))));
                }
                HRelation::new(n, requests).expect("valid relation")
            })
            .collect();
        let phase_service = |phase_cache_capacity: usize| {
            RoutingService::with_config(
                t,
                ServiceConfig {
                    shards: 2,
                    cache_capacity: 0, // L1 off: isolate the phase cache
                    phase_cache_capacity,
                    max_in_flight: 4,
                    colorer,
                    ..ServiceConfig::default()
                },
            )
        };

        let cold_service = phase_service(0);
        let mut cold_relations = 0usize;
        let start = Instant::now();
        while start.elapsed().as_millis() < 300 {
            for relation in &relations {
                let reply = cold_service
                    .route(&ServiceRequest::HRelation {
                        relation: relation.clone(),
                    })
                    .expect("routes");
                debug_assert_eq!(reply.phase_hits, 0);
                std::hint::black_box(&reply);
                cold_relations += 1;
            }
        }
        let cold_rel_per_sec = cold_relations as f64 / start.elapsed().as_secs_f64();

        let warm_service = phase_service(4 * rel_count * h);
        // Pre-route every phase of every relation as a plain theorem2
        // request (the decomposition is deterministic, so the relations'
        // phases hit these level-2 entries), verifying each phase block
        // on the simulator referee.
        let mut decomposer = RoutingEngine::with_colorer(t, colorer);
        for relation in &relations {
            for phase in decomposer.decompose_h_relation(relation) {
                let completed = phase.complete();
                let reply = warm_service
                    .route(&ServiceRequest::Theorem2 {
                        pi: completed.clone(),
                    })
                    .expect("routes");
                let mut sim = Simulator::with_unit_packets(t);
                sim.execute_schedule(reply.outcome.schedule())
                    .expect("legal");
                sim.verify_delivery(completed.as_slice()).expect("delivers");
            }
        }
        let mut warm_relations = 0usize;
        let start = Instant::now();
        while start.elapsed().as_millis() < 300 {
            for relation in &relations {
                let reply = warm_service
                    .route(&ServiceRequest::HRelation {
                        relation: relation.clone(),
                    })
                    .expect("routes");
                assert_eq!(
                    reply.phase_hits, h as u64,
                    "every phase must come from the level-2 cache"
                );
                std::hint::black_box(&reply);
                warm_relations += 1;
            }
        }
        let warm_rel_per_sec = warm_relations as f64 / start.elapsed().as_secs_f64();
        let phase_speedup = warm_rel_per_sec / cold_rel_per_sec;
        println!(
            "POPS({d:>2}, {g:>2}) x {rel_count} h-relations (h = {h}): all-phase-miss \
             {cold_rel_per_sec:>8.0} rel/s, phase-warm {warm_rel_per_sec:>8.0} rel/s \
             ({phase_speedup:.1}x)"
        );
        assert!(
            phase_speedup > 1.0,
            "acceptance: phase-warm relations must beat the cold path \
             (got {phase_speedup:.2}x)"
        );

        // Warm restart: spill the primed service's cache and reload it
        // into a brand-new service — its first pass over the same
        // permutations must be all cache hits, against a cold service
        // paying every construction.
        let cache_dir =
            std::env::temp_dir().join(format!("pops-bench-cache-{}-{d}x{g}", std::process::id()));
        std::fs::create_dir_all(&cache_dir).expect("temp cache dir");
        let cache_path = cache_dir.join("plans.popscache");
        let saved = service.save_cache(&cache_path).expect("spill");
        assert_eq!(saved.l1_entries, count, "every warmed plan spills");

        let cold_restart = RoutingService::with_config(
            t,
            ServiceConfig {
                shards: 2,
                cache_capacity: 2 * count,
                max_in_flight: 4,
                colorer,
                ..ServiceConfig::default()
            },
        );
        let start = Instant::now();
        for pi in &perms {
            let reply = cold_restart
                .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                .expect("routes");
            assert!(!reply.cache_hit);
            std::hint::black_box(&reply);
        }
        let cold_first_pass_per_sec = count as f64 / start.elapsed().as_secs_f64();

        let warm_restart = RoutingService::with_config(
            t,
            ServiceConfig {
                shards: 2,
                cache_capacity: 2 * count,
                max_in_flight: 4,
                colorer,
                ..ServiceConfig::default()
            },
        );
        let restored = warm_restart.load_cache(&cache_path).expect("restore");
        let start = Instant::now();
        for (idx, pi) in perms.iter().enumerate() {
            let reply = warm_restart
                .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                .expect("routes");
            assert!(
                reply.cache_hit,
                "acceptance: request {idx} after a warm restart must hit"
            );
            std::hint::black_box(&reply);
        }
        let warm_first_pass_per_sec = count as f64 / start.elapsed().as_secs_f64();
        let restart_speedup = warm_first_pass_per_sec / cold_first_pass_per_sec;
        // Restored schedules still pass the simulator referee.
        {
            let pi = &perms[0];
            let reply = warm_restart
                .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                .expect("routes");
            let mut sim = Simulator::with_unit_packets(t);
            sim.execute_schedule(reply.outcome.schedule())
                .expect("legal");
            sim.verify_delivery(pi.as_slice()).expect("delivers");
        }
        let _ = std::fs::remove_dir_all(&cache_dir);
        println!(
            "POPS({d:>2}, {g:>2}) warm restart: {}+{} entries restored, first pass \
             {warm_first_pass_per_sec:>9.0} plans/s vs cold {cold_first_pass_per_sec:>9.0} \
             plans/s ({restart_speedup:.1}x)",
            restored.l1_entries, restored.l2_entries
        );
        assert!(
            restart_speedup > 1.0,
            "acceptance: a warm restart's first pass must beat cold \
             (got {restart_speedup:.2}x)"
        );

        entries.push(format!(
            "    {{\n      \"d\": {d},\n      \"g\": {g},\n      \"n\": {n},\n      \
             \"permutations\": {count},\n      \"theorem2_slots\": {slots_per_plan},\n      \
             \"verified_on_simulator\": true,\n      \
             \"cold\": {{\n        \"plans_per_sec\": {cold_per_sec:.1}\n      }},\n      \
             \"warm_engine\": {{\n        \"plans_per_sec\": {warm_per_sec:.1}\n      }},\n      \
             \"cache_hit\": {{\n        \"plans_per_sec\": {hit_per_sec:.1},\n        \
             \"speedup_vs_cold\": {speedup:.1}\n      }},\n      \
             \"phase_reuse\": {{\n        \"h\": {h},\n        \"relations\": {rel_count},\n        \
             \"all_phase_miss_relations_per_sec\": {cold_rel_per_sec:.1},\n        \
             \"phase_warm_relations_per_sec\": {warm_rel_per_sec:.1},\n        \
             \"speedup\": {phase_speedup:.1}\n      }},\n      \
             \"warm_restart\": {{\n        \"restored_plans\": {restored_l1},\n        \
             \"restored_phases\": {restored_l2},\n        \
             \"first_repeat_cache_hit\": true,\n        \
             \"cold_first_pass_plans_per_sec\": {cold_first_pass_per_sec:.1},\n        \
             \"warm_first_pass_plans_per_sec\": {warm_first_pass_per_sec:.1},\n        \
             \"speedup\": {restart_speedup:.1}\n      }}\n    }}",
            restored_l1 = restored.l1_entries,
            restored_l2 = restored.l2_entries,
        ));
    }

    let multi_topology = bench_multi_topology();
    let wire_batch = bench_wire_batch();
    let degraded_routing = bench_degraded_routing();

    let json = format!(
        "{{\n  \"benchmark\": \"pops_routing_service\",\n  \"description\": \
         \"RoutingService cold vs warm-engine vs cache-hit plan throughput, plus \
         level-2 phase reuse (fresh h-relations assembled from cached phases vs \
         all-phase-miss), warm restart from a cache spill (first pass all hits \
         vs cold), mixed-shape traffic through one TopologyRouter, the wire \
         batch op vs N single requests, and degraded routing (healthy vs \
         one-coupler-down vs 5%-of-fabric-down on the fault-keyed cache); \
         single client thread, alternating-path colourer; regenerate with \
         `cargo run --release --bin experiments -- BENCH_SERVICE`\",\n  \"configs\": [\n{}\n  ],\n\
         {multi_topology},\n{wire_batch},\n{degraded_routing}\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write("BENCH_service.json", &json) {
        Ok(()) => println!("\nwrote BENCH_service.json\n"),
        Err(e) => println!("\ncould not write BENCH_service.json: {e}\n"),
    }
}

/// The multi-topology scenario: one [`pops_service::TopologyRouter`]
/// serving round-robin traffic across three `(d, g)` shapes (two of them
/// sharing `n`, so any keying mistake would cross-contaminate). Sampled
/// schedules are verified on the simulator referee per shape, and the
/// aggregate mixed-shape throughput is recorded.
fn bench_multi_topology() -> String {
    use pops_service::{ServiceConfig, ServiceRequest, TopologyRouter, TopologyRouterConfig};

    const SHAPES: [(usize, usize); 3] = [(16, 16), (8, 32), (32, 8)];
    let router = TopologyRouter::new(
        PopsTopology::new(SHAPES[0].0, SHAPES[0].1),
        TopologyRouterConfig {
            service: ServiceConfig {
                shards: 2,
                cache_capacity: 256,
                max_in_flight: 4,
                ..ServiceConfig::default()
            },
            max_topologies: 4,
            ..TopologyRouterConfig::default()
        },
    );
    let mut rng = SplitMix64::new(0x307A);
    let count = 64usize;
    // Mixed-shape request stream, shapes interleaved.
    let stream: Vec<((usize, usize), Permutation)> = (0..count)
        .map(|i| {
            let (d, g) = SHAPES[i % SHAPES.len()];
            ((d, g), random_permutation(d * g, &mut rng))
        })
        .collect();
    // Warm-up pass doubles as the correctness referee.
    for ((d, g), pi) in &stream {
        let service = router.get(*d, *g).expect("admitted");
        let reply = service
            .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
            .expect("routes");
        assert_eq!(
            reply.outcome.schedule().slot_count(),
            theorem2_slots(*d, *g),
            "POPS({d}, {g})"
        );
        let mut sim = Simulator::with_unit_packets(PopsTopology::new(*d, *g));
        sim.execute_schedule(reply.outcome.schedule())
            .expect("legal");
        sim.verify_delivery(pi.as_slice()).expect("delivers");
    }
    assert_eq!(router.len(), SHAPES.len(), "every shape resident");
    let mut plans = 0usize;
    let start = Instant::now();
    while start.elapsed().as_millis() < 300 {
        for ((d, g), pi) in &stream {
            let service = router.get(*d, *g).expect("admitted");
            let reply = service
                .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                .expect("routes");
            std::hint::black_box(&reply);
            plans += 1;
        }
    }
    let per_sec = plans as f64 / start.elapsed().as_secs_f64();
    let stats = router.stats();
    assert_eq!(stats.evictions, 0, "no shape churn in steady state");
    println!(
        "multi-topology: {} shapes interleaved, {per_sec:>10.0} plans/s mixed-shape \
         through one router ({} lookups hit a resident service)",
        SHAPES.len(),
        stats.hits,
    );
    format!(
        "  \"multi_topology\": {{\n    \"shapes\": [[16, 16], [8, 32], [32, 8]],\n    \
         \"verified_on_simulator\": true,\n    \
         \"mixed_shape_plans_per_sec\": {per_sec:.1},\n    \
         \"router_evictions\": {}\n  }}",
        stats.evictions
    )
}

/// The wire-batch scenario: one real TCP server, one client; the same
/// 64 permutations sent as 64 single `route` ops vs one `{{"op":"batch"}}`
/// op. Caches are disabled so both sides pay full planning — the delta
/// isolates wire round-trips plus the batch fast path's worker-thread
/// parallelism. Acceptance: the batch must beat the singles.
fn bench_wire_batch() -> String {
    use pops_service::{
        serve_router, BatchItem, ServerConfig, ServiceClient, ServiceConfig, TopologyRouter,
        TopologyRouterConfig,
    };
    use std::net::TcpListener;
    use std::sync::Arc;

    let (d, g) = (16usize, 16usize);
    let n = d * g;
    let count = 64usize;
    let router = Arc::new(TopologyRouter::new(
        PopsTopology::new(d, g),
        TopologyRouterConfig {
            service: ServiceConfig {
                cache_capacity: 0, // both modes pay full planning
                phase_cache_capacity: 0,
                ..ServiceConfig::default()
            },
            ..TopologyRouterConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // Nagle off on both ends: the singles side sends one small line per
    // round trip, and delayed-ACK stalls would swamp the comparison.
    let config = ServerConfig {
        tcp_nodelay: true,
        ..ServerConfig::default()
    };
    let server = std::thread::spawn(move || serve_router(listener, router, config));

    let mut rng = SplitMix64::new(0xBA7C);
    let perms: Vec<Permutation> = (0..count)
        .map(|_| random_permutation(n, &mut rng))
        .collect();
    let items: Vec<BatchItem> = perms
        .iter()
        .map(|pi| BatchItem {
            pi: pi.clone(),
            shape: None,
            faults: Vec::new(),
        })
        .collect();
    // Pre-rendered single-request lines (no schedule bodies) so the
    // singles side measures the wire, not client-side JSON building.
    let singles: Vec<String> = perms
        .iter()
        .map(|pi| {
            let image: Vec<String> = pi.as_slice().iter().map(|v| v.to_string()).collect();
            format!(
                r#"{{"op":"route","kind":"theorem2","want_schedule":false,"perm":[{}]}}"#,
                image.join(",")
            )
        })
        .collect();

    let mut client = ServiceClient::connect(addr).expect("connect");
    client.set_nodelay(true).expect("nodelay");
    // Warm-up (engine arenas, TCP slow start) — one pass each.
    for line in &singles {
        client.call_raw(line).expect("routes");
    }
    client.batch(&items, false).expect("routes");

    // Time-boxed at whole-cycle granularity: every measured cycle routes
    // the identical 64 permutations, as N singles or as one batch.
    let mut single_plans = 0usize;
    let start = Instant::now();
    while start.elapsed().as_millis() < 300 {
        for line in &singles {
            let doc = client.call_raw(line).expect("routes");
            std::hint::black_box(&doc);
            single_plans += 1;
        }
    }
    let singles_secs = start.elapsed().as_secs_f64();
    let mut json_batch_plans = 0usize;
    let start = Instant::now();
    while start.elapsed().as_millis() < 300 {
        let reply = client.batch(&items, false).expect("routes");
        assert_eq!(reply.summary.routed, count);
        std::hint::black_box(&reply);
        json_batch_plans += count;
    }
    let json_batch_secs = start.elapsed().as_secs_f64();

    // The same batch over the negotiated binary framing: raw u32 bodies
    // in, dense batch-item frames out — the production miss path.
    let mut binary = ServiceClient::connect(addr).expect("connect");
    binary.set_nodelay(true).expect("nodelay");
    binary
        .set_format(pops_service::WireFormat::Binary)
        .expect("hello");
    binary.batch(&items, false).expect("routes");
    let mut binary_batch_plans = 0usize;
    let start = Instant::now();
    while start.elapsed().as_millis() < 300 {
        let reply = binary.batch(&items, false).expect("routes");
        assert_eq!(reply.summary.routed, count);
        std::hint::black_box(&reply);
        binary_batch_plans += count;
    }
    let binary_batch_secs = start.elapsed().as_secs_f64();
    binary.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("server thread").expect("serve");

    let singles_per_sec = single_plans as f64 / singles_secs;
    let json_batch_per_sec = json_batch_plans as f64 / json_batch_secs;
    let batch_per_sec = binary_batch_plans as f64 / binary_batch_secs;
    let json_speedup = json_batch_per_sec / singles_per_sec;
    let speedup = batch_per_sec / singles_per_sec;
    println!(
        "wire batch: {count} perms on POPS({d}, {g}) — {singles_per_sec:>8.0} plans/s as \
         single requests, {json_batch_per_sec:>8.0} plans/s as one JSON batch op \
         ({json_speedup:.1}x), {batch_per_sec:>8.0} plans/s as one binary batch op \
         ({speedup:.1}x)"
    );
    // The JSON ratio is reported but not asserted: the faster the
    // kernel makes planning, the more the JSON batch path is dominated
    // by serialize/parse overhead (the singles side uses pre-rendered
    // lines), and on fast machines it can dip to parity with singles —
    // which is precisely what the binary framing exists to fix.
    assert!(
        speedup > 1.0,
        "acceptance: the binary batch op must beat N single requests \
         (got {speedup:.2}x)"
    );
    assert!(
        speedup > json_speedup,
        "acceptance: the binary framing must beat the JSON batch path \
         (binary {speedup:.2}x vs JSON {json_speedup:.2}x)"
    );
    format!(
        "  \"wire_batch\": {{\n    \"d\": {d},\n    \"g\": {g},\n    \
         \"permutations\": {count},\n    \"tcp_nodelay\": true,\n    \
         \"batch_format\": \"binary\",\n    \
         \"single_requests_plans_per_sec\": {singles_per_sec:.1},\n    \
         \"json_batch_plans_per_sec\": {json_batch_per_sec:.1},\n    \
         \"json_batch_speedup\": {json_speedup:.1},\n    \
         \"batch_op_plans_per_sec\": {batch_per_sec:.1},\n    \
         \"speedup\": {speedup:.1}\n  }}"
    )
}

/// The degraded-fabric scenario: the same permutations planned on a
/// healthy POPS(32, 32), with one coupler down, and with 5% of the
/// fabric down — cold (full fault-aware construction per plan) and from
/// the fault-keyed plan cache. Every degraded schedule is verified on a
/// simulator with the same couplers failed, and each scenario warms (and
/// hits) its own cache entries, since healthy and degraded plans never
/// share a key.
fn bench_degraded_routing() -> String {
    use pops_network::FaultSet;
    use pops_service::{RoutingService, ServiceConfig, ServiceRequest};

    let (d, g) = (32usize, 32usize);
    let t = PopsTopology::new(d, g);
    let n = d * g;
    let count = 32usize;
    let mut rng = SplitMix64::new(0xFA17);
    let perms: Vec<Permutation> = (0..count)
        .map(|_| random_permutation(n, &mut rng))
        .collect();
    let colorer = ColorerKind::AlternatingPath;

    // Three fabrics: healthy, one coupler down, 5% of the 1024 couplers
    // down (spread deterministically across the fabric).
    let five_percent: Vec<usize> = (0..t.coupler_count() / 20).map(|k| k * 20).collect();
    let scenarios: [(&str, Vec<usize>); 3] = [
        ("healthy", Vec::new()),
        ("one_coupler_down", vec![0]),
        ("five_percent_down", five_percent),
    ];

    let mut fragments = Vec::new();
    for (name, ids) in &scenarios {
        let mut faults = FaultSet::none(&t);
        for &c in ids {
            faults.fail_coupler(c);
        }
        assert!(faults.fully_routable(&t), "{name} must stay routable");
        let request = |pi: &Permutation| {
            if ids.is_empty() {
                ServiceRequest::Theorem2 { pi: pi.clone() }
            } else {
                ServiceRequest::WithFaults {
                    pi: pi.clone(),
                    faults: faults.clone(),
                }
            }
        };

        // Cold: every plan pays full (fault-aware) construction.
        let mut cold_plans = 0usize;
        let start = Instant::now();
        while start.elapsed().as_millis() < 300 {
            for pi in &perms {
                let outcome = RoutingService::route_cold(t, colorer, &request(pi)).expect("routes");
                std::hint::black_box(&outcome);
                cold_plans += 1;
            }
        }
        let cold_per_sec = cold_plans as f64 / start.elapsed().as_secs_f64();

        // Warm the fault-keyed cache, refereeing every schedule on a
        // simulator with the same couplers failed.
        let service = RoutingService::with_config(
            t,
            ServiceConfig {
                shards: 2,
                cache_capacity: 2 * count,
                max_in_flight: 4,
                colorer,
                ..ServiceConfig::default()
            },
        );
        for pi in &perms {
            let reply = service.route(&request(pi)).expect("routes");
            assert!(!reply.cache_hit);
            assert_eq!(reply.degraded, !ids.is_empty());
            let mut sim = Simulator::with_unit_packets_and_faults(t, faults.clone());
            sim.execute_schedule(reply.outcome.schedule())
                .expect("legal");
            sim.verify_delivery(pi.as_slice()).expect("delivers");
        }
        let mut hit_plans = 0usize;
        let start = Instant::now();
        while start.elapsed().as_millis() < 300 {
            for pi in &perms {
                let reply = service.route(&request(pi)).expect("routes");
                debug_assert!(reply.cache_hit);
                std::hint::black_box(&reply);
                hit_plans += 1;
            }
        }
        let hit_per_sec = hit_plans as f64 / start.elapsed().as_secs_f64();

        println!(
            "degraded routing [{name:>17}]: {:>2} coupler(s) down — cold {cold_per_sec:>9.0} \
             plans/s, cache-hit {hit_per_sec:>10.0} plans/s",
            ids.len()
        );
        fragments.push(format!(
            "    \"{name}\": {{\n      \"failed_couplers\": {},\n      \
             \"cold_plans_per_sec\": {cold_per_sec:.1},\n      \
             \"cache_hit_plans_per_sec\": {hit_per_sec:.1}\n    }}",
            ids.len()
        ));
    }
    format!(
        "  \"degraded_routing\": {{\n    \"d\": {d},\n    \"g\": {g},\n    \"n\": {n},\n    \
         \"permutations\": {count},\n    \"verified_on_faulted_simulator\": true,\n{}\n  }}",
        fragments.join(",\n")
    )
}

//! Engine ↔ legacy equivalence: every schedule a warm [`RoutingEngine`]
//! produces must be **byte-identical** to the legacy free-function output
//! and to the bytes the routing service caches, across a `(d, g)` sweep,
//! every permutation family, and all six routing paths. One engine per
//! configuration is reused for the whole sweep, so arena reuse is
//! exercised on every comparison.

use pops_baselines::{route_direct, route_structured};
use pops_bipartite::ColorerKind;
use pops_core::engine::{Router, RoutingEngine, RoutingOutcome, RoutingRequest};
use pops_core::fault_routing::route_with_faults;
use pops_core::h_relation::{route_h_relation, HRelation};
use pops_core::router::{route, theorem2_slots};
use pops_core::single_slot::route_single_slot;
use pops_network::{codec, FaultSet, PopsTopology};
use pops_permutation::families::{
    group_rotation, matrix_transpose, random_derangement, random_group_uniform, random_permutation,
    vector_reversal,
};
use pops_permutation::{Permutation, SplitMix64};
use pops_service::{RoutingService, ServiceRequest};

/// The sweep: d = 1, d < g, d = g, d > g, and partial-round shapes.
const SHAPES: [(usize, usize); 12] = [
    (1, 4),
    (2, 2),
    (2, 4),
    (3, 3),
    (3, 5),
    (4, 2),
    (4, 4),
    (4, 6),
    (5, 2),
    (6, 3),
    (7, 3),
    (8, 4),
];

/// Every family instantiable at `n = d·g`, with a deterministic rng.
fn families(d: usize, g: usize, rng: &mut SplitMix64) -> Vec<(&'static str, Permutation)> {
    let n = d * g;
    let mut out = vec![
        ("identity", Permutation::identity(n)),
        ("reversal", vector_reversal(n)),
        ("random", random_permutation(n, rng)),
        ("group-uniform", random_group_uniform(d, g, rng)),
        ("group-rotation", group_rotation(d, g, 1)),
    ];
    if n >= 2 {
        out.push(("derangement", random_derangement(n, rng)));
    }
    // A square matrix transpose whenever n is a perfect square.
    let side = (1..=n).find(|s| s * s == n);
    if let Some(side) = side {
        out.push(("transpose", matrix_transpose(side, side)));
    }
    out
}

/// The seed repository's Theorem-2 emission, frozen verbatim from commit
/// `4580ea4` (`crates/core/src/router.rs` before the engine refactor).
/// `route()` is now a thin wrapper over the engine, so comparing wrapper
/// vs engine alone would be circular; this module is the independent
/// ground truth that pins today's schedules to the seed's bytes.
#[allow(clippy::needless_range_loop)] // frozen verbatim from the seed commit
mod seed_reference {
    use pops_bipartite::ColorerKind;
    use pops_core::fair_distribution::FairDistribution;
    use pops_core::list_system::ListSystem;
    use pops_core::router::RoutingPlan;
    use pops_network::{PopsTopology, Schedule, SlotFrame, Transmission};
    use pops_permutation::Permutation;

    pub fn route(pi: &Permutation, topology: PopsTopology, colorer: ColorerKind) -> RoutingPlan {
        assert_eq!(pi.len(), topology.n());
        let d = topology.d();
        let g = topology.g();
        if d == 1 {
            route_d1(pi, topology)
        } else if d <= g {
            route_d_le_g(pi, topology, colorer)
        } else {
            route_d_gt_g(pi, topology, colorer)
        }
    }

    fn route_d1(pi: &Permutation, topology: PopsTopology) -> RoutingPlan {
        let transmissions = (0..topology.n())
            .map(|i| {
                Transmission::unicast(i, topology.coupler_between(i, pi.apply(i)), i, pi.apply(i))
            })
            .collect();
        RoutingPlan {
            topology,
            schedule: Schedule {
                slots: vec![SlotFrame { transmissions }],
            },
            fair_distribution: None,
            list_system: None,
            intermediate: pi.as_slice().to_vec(),
        }
    }

    fn route_d_le_g(pi: &Permutation, topology: PopsTopology, colorer: ColorerKind) -> RoutingPlan {
        let d = topology.d();
        let g = topology.g();
        let ls = ListSystem::for_routing(pi, d, g);
        let fd = FairDistribution::compute(&ls, colorer);

        let mut incoming: Vec<Vec<(usize, usize)>> = vec![Vec::new(); g];
        for h in 0..g {
            for i in 0..d {
                incoming[fd.target(h, i)].push((h, i));
            }
        }

        let mut intermediate = vec![usize::MAX; topology.n()];
        let mut slot1 = SlotFrame::new();
        for (j, entries) in incoming.iter().enumerate() {
            for (k, &(h, i)) in entries.iter().enumerate() {
                let sender = topology.processor(h, i);
                let receiver = topology.processor(j, k);
                intermediate[sender] = receiver;
                slot1.transmissions.push(Transmission::unicast(
                    sender,
                    topology.coupler_id(j, h),
                    sender,
                    receiver,
                ));
            }
        }

        let slot2 = delivery_slot(
            pi,
            &topology,
            (0..topology.n()).map(|p| (p, intermediate[p])),
        );

        RoutingPlan {
            topology,
            schedule: Schedule {
                slots: vec![slot1, slot2],
            },
            fair_distribution: Some(fd),
            list_system: Some(ls),
            intermediate,
        }
    }

    fn route_d_gt_g(pi: &Permutation, topology: PopsTopology, colorer: ColorerKind) -> RoutingPlan {
        let d = topology.d();
        let g = topology.g();
        let ls = ListSystem::for_routing(pi, d, g);
        let fd = FairDistribution::compute(&ls, colorer);
        let inv = fd.inverse_per_source();

        let rounds = d.div_ceil(g);
        let mut slots = Vec::with_capacity(2 * rounds);
        let mut intermediate = vec![usize::MAX; topology.n()];

        for q in 0..rounds {
            let block = q * g..((q + 1) * g).min(d);
            let full_round = block.len() == g;

            let mut slot1 = SlotFrame::new();
            let mut receivers_for_group: Vec<Vec<usize>> = Vec::with_capacity(g);
            for r in 0..g {
                if full_round {
                    let mut senders: Vec<usize> = block
                        .clone()
                        .map(|j| topology.processor(r, inv[r][j]))
                        .collect();
                    senders.sort_unstable();
                    receivers_for_group.push(senders);
                } else {
                    receivers_for_group.push((0..g).map(|h| topology.processor(r, h)).collect());
                }
            }

            for h in 0..g {
                for j in block.clone() {
                    let r = j - q * g;
                    let sender = topology.processor(h, inv[h][j]);
                    let receiver = receivers_for_group[r][h];
                    intermediate[sender] = receiver;
                    slot1.transmissions.push(Transmission::unicast(
                        sender,
                        topology.coupler_id(r, h),
                        sender,
                        receiver,
                    ));
                }
            }

            let moved: Vec<(usize, usize)> = slot1
                .transmissions
                .iter()
                .map(|t| (t.packet, t.receivers[0]))
                .collect();
            let slot2 = delivery_slot(pi, &topology, moved.into_iter());

            slots.push(slot1);
            slots.push(slot2);
        }

        RoutingPlan {
            topology,
            schedule: Schedule { slots },
            fair_distribution: Some(fd),
            list_system: Some(ls),
            intermediate,
        }
    }

    fn delivery_slot(
        pi: &Permutation,
        topology: &PopsTopology,
        placements: impl Iterator<Item = (usize, usize)>,
    ) -> SlotFrame {
        let mut slot = SlotFrame::new();
        for (packet, holder) in placements {
            let dest = pi.apply(packet);
            slot.transmissions.push(Transmission::unicast(
                holder,
                topology.coupler_between(holder, dest),
                packet,
                dest,
            ));
        }
        slot
    }

    /// The seed's structured (Sahni-style) baseline, frozen from commit
    /// `4580ea4` (`crates/baselines/src/structured.rs`). `None` stands in
    /// for the seed's `NotGroupUniform` error.
    pub fn route_structured(pi: &Permutation, topology: PopsTopology) -> Option<Schedule> {
        let d = topology.d();
        let g = topology.g();
        assert_eq!(pi.len(), topology.n());
        if !pi.is_group_uniform(d) {
            return None;
        }
        if d == 1 {
            let transmissions = (0..topology.n())
                .map(|i| {
                    Transmission::unicast(
                        i,
                        topology.coupler_between(i, pi.apply(i)),
                        i,
                        pi.apply(i),
                    )
                })
                .collect();
            return Some(Schedule {
                slots: vec![SlotFrame { transmissions }],
            });
        }

        let n2 = g.max(d);
        let f = |h: usize, i: usize| (h + i) % n2;
        let mut slots = Vec::new();

        if d <= g {
            let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); g];
            for h in 0..g {
                for i in 0..d {
                    incoming[f(h, i)].push(topology.processor(h, i));
                }
            }
            let mut slot1 = SlotFrame::new();
            let mut slot2 = SlotFrame::new();
            for (j, senders) in incoming.iter().enumerate() {
                for (k, &sender) in senders.iter().enumerate() {
                    let mid = topology.processor(j, k);
                    slot1.transmissions.push(Transmission::unicast(
                        sender,
                        topology.coupler_id(j, topology.group_of(sender)),
                        sender,
                        mid,
                    ));
                    let dest = pi.apply(sender);
                    slot2.transmissions.push(Transmission::unicast(
                        mid,
                        topology.coupler_between(mid, dest),
                        sender,
                        dest,
                    ));
                }
            }
            slots.push(slot1);
            slots.push(slot2);
        } else {
            let rounds = d.div_ceil(g);
            for q in 0..rounds {
                let block = q * g..((q + 1) * g).min(d);
                let full_round = block.len() == g;
                let mut slot1 = SlotFrame::new();
                let mut slot2 = SlotFrame::new();
                let mut receivers_for_group: Vec<Vec<usize>> = Vec::with_capacity(g);
                for r in 0..g {
                    if full_round {
                        let mut senders: Vec<usize> = block
                            .clone()
                            .map(|j| topology.processor(r, (j + d - r % d) % d))
                            .collect();
                        senders.sort_unstable();
                        receivers_for_group.push(senders);
                    } else {
                        receivers_for_group
                            .push((0..g).map(|h| topology.processor(r, h)).collect());
                    }
                }
                for h in 0..g {
                    for j in block.clone() {
                        let r = j - q * g;
                        let i = (j + d - h % d) % d;
                        let sender = topology.processor(h, i);
                        let mid = receivers_for_group[r][h];
                        slot1.transmissions.push(Transmission::unicast(
                            sender,
                            topology.coupler_id(r, h),
                            sender,
                            mid,
                        ));
                        let dest = pi.apply(sender);
                        slot2.transmissions.push(Transmission::unicast(
                            mid,
                            topology.coupler_between(mid, dest),
                            sender,
                            dest,
                        ));
                    }
                }
                slots.push(slot1);
                slots.push(slot2);
            }
        }
        Some(Schedule { slots })
    }
}

#[test]
fn engine_is_byte_identical_to_the_frozen_seed_emission() {
    // Non-circular ground truth: the engine (and therefore today's
    // wrappers) must reproduce the seed commit's alternating-path
    // schedules bit for bit.
    for (d, g) in SHAPES {
        let t = PopsTopology::new(d, g);
        let mut engine = RoutingEngine::new(t).emit_artefacts(true);
        let mut rng = SplitMix64::new(7_700 + d as u64 * 64 + g as u64);
        for (name, pi) in families(d, g, &mut rng) {
            let seed = seed_reference::route(&pi, t, ColorerKind::AlternatingPath);
            let warm = engine.plan_theorem2(&pi);
            assert_eq!(seed.schedule, warm.schedule, "{name} d={d} g={g}");
            assert_eq!(seed.intermediate, warm.intermediate, "{name} d={d} g={g}");
            assert_eq!(
                seed.fair_distribution, warm.fair_distribution,
                "{name} d={d} g={g}"
            );
            assert_eq!(seed.list_system, warm.list_system, "{name} d={d} g={g}");
        }
    }
}

#[test]
fn theorem2_engine_is_byte_identical_to_free_route() {
    for (d, g) in SHAPES {
        let t = PopsTopology::new(d, g);
        // One warm engine for the whole family sweep at this shape.
        let mut engine = RoutingEngine::new(t).emit_artefacts(true);
        let mut rng = SplitMix64::new(7_000 + d as u64 * 64 + g as u64);
        for (name, pi) in families(d, g, &mut rng) {
            let legacy = route(&pi, t);
            let warm = engine.plan_theorem2(&pi);
            assert_eq!(legacy.schedule, warm.schedule, "{name} d={d} g={g}");
            assert_eq!(legacy.intermediate, warm.intermediate, "{name} d={d} g={g}");
            assert_eq!(
                legacy.fair_distribution, warm.fair_distribution,
                "{name} d={d} g={g}"
            );
            assert_eq!(legacy.list_system, warm.list_system, "{name} d={d} g={g}");
        }
    }
}

#[test]
fn free_route_encodes_to_the_bytes_the_service_caches() {
    // One plan everywhere: the free router the experiments and the CLI
    // use must produce exactly the bytes a service miss caches and serves.
    for (d, g) in [(1usize, 8usize), (2, 8), (4, 4), (8, 2), (3, 5)] {
        let t = PopsTopology::new(d, g);
        let service = RoutingService::new(t);
        let mut rng = SplitMix64::new(7_900 + d as u64 * 64 + g as u64);
        for (name, pi) in families(d, g, &mut rng) {
            let mut expected = Vec::new();
            codec::encode_schedule(&mut expected, &route(&pi, t).schedule);
            let reply = service
                .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                .unwrap();
            assert!(!reply.cache_hit, "{name} d={d} g={g}: first request misses");
            assert!(
                reply.outcome.cached().schedule_bytes() == expected.as_slice(),
                "{name} d={d} g={g}: served bytes differ from route()"
            );
        }
    }
}

#[test]
fn single_slot_engine_matches_legacy() {
    for (d, g) in SHAPES {
        let t = PopsTopology::new(d, g);
        let mut engine = RoutingEngine::new(t);
        let mut rng = SplitMix64::new(7_100 + d as u64 * 64 + g as u64);
        for (name, pi) in families(d, g, &mut rng) {
            let legacy = route_single_slot(&pi, &t);
            let from_engine = engine.plan_single_slot(&pi).ok();
            assert_eq!(legacy, from_engine, "{name} d={d} g={g}");
        }
    }
}

#[test]
fn direct_baseline_engine_matches_legacy() {
    for (d, g) in SHAPES {
        let t = PopsTopology::new(d, g);
        let mut engine = RoutingEngine::new(t);
        let mut rng = SplitMix64::new(7_200 + d as u64 * 64 + g as u64);
        for (name, pi) in families(d, g, &mut rng) {
            assert_eq!(
                route_direct(&pi, &t),
                engine.plan_direct(&pi),
                "{name} d={d} g={g}"
            );
        }
    }
}

#[test]
fn structured_baseline_engine_matches_legacy() {
    for (d, g) in SHAPES {
        let t = PopsTopology::new(d, g);
        let mut engine = RoutingEngine::new(t);
        let mut rng = SplitMix64::new(7_300 + d as u64 * 64 + g as u64);
        for (name, pi) in families(d, g, &mut rng) {
            let legacy = route_structured(&pi, t).ok();
            let from_engine = engine.plan_structured(&pi).ok();
            assert_eq!(legacy, from_engine, "{name} d={d} g={g}");
            // Non-circular: pin against the seed commit's frozen emission.
            let seed = seed_reference::route_structured(&pi, t);
            assert_eq!(seed, legacy, "{name} d={d} g={g} (seed reference)");
        }
    }
}

#[test]
fn h_relation_engine_matches_legacy() {
    for (d, g) in [(2usize, 2usize), (3, 3), (4, 2), (2, 4), (6, 3)] {
        let t = PopsTopology::new(d, g);
        let n = d * g;
        let mut engine = RoutingEngine::new(t);
        let mut rng = SplitMix64::new(7_400 + d as u64 * 64 + g as u64);
        for h in 1..=3usize {
            let mut requests = Vec::with_capacity(n * h);
            for _ in 0..h {
                let p = random_permutation(n, &mut rng);
                for src in 0..n {
                    requests.push((src, p.apply(src)));
                }
            }
            let relation = HRelation::new(n, requests).unwrap();
            let legacy = route_h_relation(&relation, t);
            let warm = engine.plan_h_relation(&relation);
            assert_eq!(legacy.schedule, warm.schedule, "h={h} d={d} g={g}");
            assert_eq!(legacy.slots_per_phase, warm.slots_per_phase);
            assert_eq!(legacy.phases.len(), warm.phases.len());
            for (a, b) in legacy.phases.iter().zip(&warm.phases) {
                assert_eq!(a.as_slice(), b.as_slice(), "h={h} d={d} g={g}");
            }
        }
    }
}

#[test]
fn fault_routing_engine_matches_legacy() {
    for (d, g) in [(2usize, 3usize), (3, 3), (2, 4)] {
        let t = PopsTopology::new(d, g);
        let mut engine = RoutingEngine::new(t);
        let mut rng = SplitMix64::new(7_500 + d as u64 * 64 + g as u64);
        for failed in [vec![], vec![1usize], vec![1, 2]] {
            let mut faults = FaultSet::none(&t);
            for c in failed {
                faults.fail_coupler(c);
            }
            if !faults.fully_routable(&t) {
                continue;
            }
            let pi = random_permutation(d * g, &mut rng);
            let legacy = route_with_faults(&pi, t, &faults).unwrap();
            let warm = engine.plan_with_faults(&pi, &faults).unwrap();
            assert_eq!(legacy.schedule, warm.schedule, "d={d} g={g}");
            assert_eq!(legacy.hops, warm.hops, "d={d} g={g}");
        }
    }
}

#[test]
fn trait_dispatch_matches_typed_methods() {
    let (d, g) = (4usize, 4usize);
    let t = PopsTopology::new(d, g);
    let mut rng = SplitMix64::new(7_600);
    let pi = random_permutation(d * g, &mut rng);
    let mut typed = RoutingEngine::new(t);
    let mut dispatched = RoutingEngine::new(t);
    let outcome = dispatched
        .plan(&RoutingRequest::Theorem2 { pi: &pi })
        .unwrap();
    match outcome {
        RoutingOutcome::Plan(plan) => {
            assert_eq!(plan.schedule, typed.plan_theorem2(&pi).schedule);
        }
        other => panic!("wrong outcome variant: {other:?}"),
    }
    let outcome = dispatched
        .plan(&RoutingRequest::DirectBaseline { pi: &pi })
        .unwrap();
    assert_eq!(outcome.into_schedule(), typed.plan_direct(&pi));
}

// --- Colouring kernel vs the two-pass oracle -------------------------
//
// The engine colours with the word-parallel single-walk kernel
// (`pops_bipartite::coloring::bitset`). It must be *byte-identical* to
// the untouched two-pass `alternating` colourer — not just produce valid
// schedules — because plan caching, persistence, and the wire protocol
// all compare and hash schedules structurally. The oracle side never
// touches the engine: plans come from the frozen seed emission over
// `FairDistribution::compute(.., AlternatingPath)`, h-relation phases from
// `ColorerKind::AlternatingPath.color`.

use pops_bipartite::BipartiteMultigraph;
use pops_core::h_relation::HRelationRouting;
use pops_permutation::PartialPermutation;
use proptest::prelude::*;

/// Shapes covering every colouring regime: d = 1, d < g, d = g, d > g,
/// plus the shapes the daemon serves, where Δ = max(d, g) reaches 32 and
/// alternating chains run long.
const KERNEL_SHAPES: [(usize, usize); 12] = [
    (1, 5),
    (2, 4),
    (3, 3),
    (4, 6),
    (5, 2),
    (6, 3),
    (7, 3),
    (9, 4),
    (16, 16),
    (32, 32),
    (16, 32),
    (32, 16),
];

/// The served shapes: d = g, d < g (padded) and d > g.
const SERVED_SHAPES: [(usize, usize); 4] = [(16, 16), (32, 32), (16, 32), (32, 16)];

/// Routes `relation` without the engine: phases are the colour classes
/// of the two-pass colourer, each routed by the frozen seed emission.
fn oracle_h_relation(relation: &HRelation, t: PopsTopology) -> HRelationRouting {
    let n = relation.n();
    let mut graph = BipartiteMultigraph::new(n, n);
    for &(src, dst) in relation.requests() {
        graph.add_edge(src, dst);
    }
    let coloring = ColorerKind::AlternatingPath.color(&graph);
    let phases: Vec<PartialPermutation> = coloring
        .classes()
        .iter()
        .map(|class| {
            let mut image = vec![None; n];
            for &e in class {
                let (src, dst) = graph.endpoints(e);
                image[src] = Some(dst);
            }
            PartialPermutation::new(image).unwrap()
        })
        .collect();
    let blocks = phases
        .iter()
        .map(|phase| {
            seed_reference::route(&phase.complete(), t, ColorerKind::AlternatingPath).schedule
        })
        .collect();
    HRelationRouting::from_phase_schedules(t, phases, blocks)
}

/// `h` permutation layers: every processor sends and receives exactly
/// `h` packets, the canonical h-relation shape.
fn random_h_relation(n: usize, h: usize, rng: &mut SplitMix64) -> HRelation {
    let mut requests = Vec::with_capacity(n * h);
    for _ in 0..h {
        let p = random_permutation(n, rng);
        for src in 0..n {
            requests.push((src, p.apply(src)));
        }
    }
    HRelation::new(n, requests).unwrap()
}

/// Compares one engine plan against the oracle, artefacts included, so
/// the comparison covers the fair distribution and list system, not just
/// the final schedule.
fn plan_matches_oracle(engine: &mut RoutingEngine, pi: &Permutation) -> TestCaseResult {
    let t = engine.topology();
    let oracle = seed_reference::route(pi, t, ColorerKind::AlternatingPath);
    let plan = engine.plan_theorem2(pi);
    prop_assert_eq!(
        &plan.schedule,
        &oracle.schedule,
        "schedule differs on {}",
        t
    );
    prop_assert_eq!(
        &plan.intermediate,
        &oracle.intermediate,
        "intermediate differs on {}",
        t
    );
    prop_assert_eq!(
        &plan.fair_distribution,
        &oracle.fair_distribution,
        "fair_distribution differs on {}",
        t
    );
    prop_assert_eq!(
        &plan.list_system,
        &oracle.list_system,
        "list_system differs on {}",
        t
    );
    Ok(())
}

/// Compares one engine h-relation routing against the oracle.
fn h_relation_matches_oracle(engine: &mut RoutingEngine, relation: &HRelation) -> TestCaseResult {
    let t = engine.topology();
    let oracle = oracle_h_relation(relation, t);
    let warm = engine.plan_h_relation(relation);
    prop_assert_eq!(
        &warm.schedule,
        &oracle.schedule,
        "schedule differs on {}",
        t
    );
    prop_assert_eq!(
        &warm.slots_per_phase,
        &oracle.slots_per_phase,
        "slots_per_phase differs on {}",
        t
    );
    prop_assert_eq!(
        warm.phases.len(),
        oracle.phases.len(),
        "phase count differs on {}",
        t
    );
    for (x, y) in warm.phases.iter().zip(&oracle.phases) {
        prop_assert_eq!(x.as_slice(), y.as_slice(), "a phase differs on {}", t);
    }
    Ok(())
}

#[test]
fn served_shapes_are_byte_identical_to_the_two_pass_oracle() {
    for (d, g) in SERVED_SHAPES {
        let t = PopsTopology::new(d, g);
        let n = d * g;
        // One warm engine per shape, so arena reuse is part of the check.
        let mut engine = RoutingEngine::new(t).emit_artefacts(true);
        let mut rng = SplitMix64::new(7_800 + d as u64 * 64 + g as u64);
        for (name, pi) in families(d, g, &mut rng) {
            if let Err(e) = plan_matches_oracle(&mut engine, &pi) {
                panic!("{name}: {e:?}");
            }
        }
        for _ in 0..3 {
            let pi = random_permutation(n, &mut rng);
            plan_matches_oracle(&mut engine, &pi).unwrap();
        }
        for h in 1..=2 {
            let relation = random_h_relation(n, h, &mut rng);
            h_relation_matches_oracle(&mut engine, &relation).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bitset_kernel_is_byte_identical_on_random_permutations(
        seed in any::<u64>(),
        shape in 0usize..KERNEL_SHAPES.len(),
    ) {
        let (d, g) = KERNEL_SHAPES[shape];
        let mut engine = RoutingEngine::new(PopsTopology::new(d, g)).emit_artefacts(true);
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        plan_matches_oracle(&mut engine, &pi)?;
    }

    #[test]
    fn bitset_kernel_is_byte_identical_on_random_h_relations(
        seed in any::<u64>(),
        shape in 0usize..KERNEL_SHAPES.len(),
        h in 1usize..4,
    ) {
        let (d, g) = KERNEL_SHAPES[shape];
        let mut engine = RoutingEngine::new(PopsTopology::new(d, g));
        let mut rng = SplitMix64::new(seed);
        let relation = random_h_relation(d * g, h, &mut rng);
        h_relation_matches_oracle(&mut engine, &relation)?;
    }
}

/// Shapes for the byte-emitting Theorem-2 path: d = 1, d < g, d = g,
/// d > g in whole rounds, and d > g with a partial final round
/// (d % g ≠ 0), up to the served sizes.
const INTO_SHAPES: [(usize, usize); 14] = [
    (1, 1),
    (1, 5),
    (2, 4),
    (3, 5),
    (4, 4),
    (16, 32),
    (32, 32),
    (4, 2),
    (32, 16),
    (72, 8),
    (5, 2),
    (7, 3),
    (9, 4),
    (30, 8),
];

/// `plan_theorem2_into` must append to `prefix` exactly the bytes the
/// codec writes for `plan_theorem2`'s schedule, and report its slot count.
fn into_matches_encoded_plan(
    engine: &mut RoutingEngine,
    pi: &Permutation,
    prefix: &[u8],
) -> TestCaseResult {
    let t = engine.topology();
    let plan = engine.plan_theorem2(pi);
    let mut expected = prefix.to_vec();
    codec::encode_schedule(&mut expected, &plan.schedule);
    let mut out = prefix.to_vec();
    let slots = engine.plan_theorem2_into(pi, &mut out);
    prop_assert_eq!(slots, plan.schedule.slot_count(), "slot count on {}", t);
    prop_assert_eq!(slots, theorem2_slots(t.d(), t.g()), "slot bound on {}", t);
    prop_assert!(out == expected, "bytes differ on {}", t);
    let transmissions = if t.d() == 1 { t.n() } else { 2 * t.n() };
    prop_assert_eq!(
        out.len() - prefix.len(),
        codec::unicast_len(slots, transmissions),
        "length on {}",
        t
    );
    Ok(())
}

#[test]
fn theorem2_into_is_the_encoded_plan_for_every_family() {
    for (d, g) in INTO_SHAPES {
        let t = PopsTopology::new(d, g);
        let mut rng = SplitMix64::new(9_100 + d as u64 * 64 + g as u64);
        let mut engine = RoutingEngine::new(t);
        for (name, pi) in families(d, g, &mut rng) {
            if let Err(e) = into_matches_encoded_plan(&mut engine, &pi, &[]) {
                panic!("{name}: {e:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn theorem2_into_appends_the_encoded_plan(
        seed in any::<u64>(),
        shape in 0usize..INTO_SHAPES.len(),
        prefix_len in 0usize..24,
    ) {
        let (d, g) = INTO_SHAPES[shape];
        let mut engine = RoutingEngine::new(PopsTopology::new(d, g));
        let mut rng = SplitMix64::new(seed);
        // Bytes already in `out` must survive: the plan only appends.
        let prefix: Vec<u8> = (0..prefix_len).map(|i| i as u8 ^ 0xA5).collect();
        for _ in 0..2 {
            let pi = random_permutation(d * g, &mut rng);
            into_matches_encoded_plan(&mut engine, &pi, &prefix)?;
        }
    }
}

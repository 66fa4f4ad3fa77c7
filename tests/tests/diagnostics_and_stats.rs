//! Cross-crate tests of the observability layer: schedule diagnostics
//! (Gantt/occupancy rendering), per-coupler hot-spot profiles, and the
//! aggregate statistics the experiment analyses rely on.

use pops_baselines::route_direct;
use pops_core::diagnostics::{render_gantt, render_plan, summarize_schedule};
use pops_core::route;
use pops_network::{CouplerLoad, PopsTopology, Simulator};
use pops_permutation::families::{group_rotation, random_permutation, vector_reversal};
use pops_permutation::SplitMix64;

#[test]
fn theorem2_schedules_are_perfectly_balanced_when_d_equals_g() {
    // d = g: every slot drives all g² couplers exactly once — the
    // balanced extreme of the hot-spot spectrum.
    let mut rng = SplitMix64::new(4100);
    for s in [3usize, 4, 5] {
        let t = PopsTopology::new(s, s);
        let pi = random_permutation(s * s, &mut rng);
        let plan = route(&pi, t);
        let load = CouplerLoad::from_schedule(&t, &plan.schedule);
        assert!((load.imbalance() - 1.0).abs() < 1e-12, "POPS({s}, {s})");
        assert!(load.per_coupler.iter().all(|&l| l == 2));
    }
}

#[test]
fn direct_routing_hotspot_equals_max_demand() {
    // The direct router's hottest coupler carries exactly max-demand
    // packets (that *is* its slot count), concentrated by construction.
    let (d, g) = (12usize, 3usize);
    let t = PopsTopology::new(d, g);
    let pi = group_rotation(d, g, 1);
    let schedule = route_direct(&pi, &t);
    let load = CouplerLoad::from_schedule(&t, &schedule);
    let (_, hottest) = load.hottest().expect("non-empty");
    assert_eq!(hottest, d); // all d packets of a group share one coupler
    assert_eq!(schedule.slot_count(), d);
}

#[test]
fn two_hop_beats_direct_on_imbalance_for_concentrated_demand() {
    let (d, g) = (8usize, 4usize);
    let t = PopsTopology::new(d, g);
    let pi = group_rotation(d, g, 1);
    let direct = CouplerLoad::from_schedule(&t, &route_direct(&pi, &t));
    let two_hop = CouplerLoad::from_schedule(&t, &route(&pi, t).schedule);
    assert!(
        two_hop.imbalance() < direct.imbalance(),
        "two-hop {:.2} vs direct {:.2}",
        two_hop.imbalance(),
        direct.imbalance()
    );
}

#[test]
fn gantt_matches_slot_summaries() {
    // The Gantt grid and the per-slot summaries must agree on the number
    // of driven coupler-slots.
    let t = PopsTopology::new(4, 2);
    let pi = vector_reversal(8);
    let plan = route(&pi, t);
    let text = render_gantt(&plan.schedule, &t);
    let hashes = text.matches('#').count();
    let from_summaries: usize = summarize_schedule(&plan.schedule, t.coupler_count())
        .iter()
        .map(|s| s.couplers_used)
        .sum();
    assert_eq!(hashes, from_summaries);
}

#[test]
fn render_plan_is_consistent_with_execution() {
    // The rendered plan's slot count and the simulator's executed slots
    // agree, and the render names every coupler the schedule drives.
    let t = PopsTopology::new(2, 4);
    let mut rng = SplitMix64::new(4200);
    let pi = random_permutation(8, &mut rng);
    let plan = route(&pi, t);
    let text = render_plan(&plan, &pi);
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_schedule(&plan.schedule).unwrap();
    sim.verify_delivery(pi.as_slice()).unwrap();
    assert!(text.contains(&format!("{} slots", sim.slots_elapsed())));
    for frame in &plan.schedule.slots {
        for tx in &frame.transmissions {
            let b = t.coupler_dest_group(tx.coupler);
            let a = t.coupler_src_group(tx.coupler);
            assert!(text.contains(&format!("c({b}, {a})")), "missing c({b},{a})");
        }
    }
}

#[test]
fn simulator_stats_match_schedule_totals() {
    let t = PopsTopology::new(3, 2);
    let mut rng = SplitMix64::new(4300);
    let pi = random_permutation(6, &mut rng);
    let plan = route(&pi, t);
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_schedule(&plan.schedule).unwrap();
    let stats = sim.stats();
    assert_eq!(stats.slots, plan.schedule.slot_count());
    assert_eq!(
        stats.total_transmissions,
        plan.schedule.total_transmissions()
    );
    assert_eq!(stats.total_deliveries, plan.schedule.total_deliveries());
    assert!(stats.peak_couplers_used <= t.coupler_count());
    assert!(stats.mean_coupler_utilization <= 1.0 + 1e-12);
}

#[test]
fn fault_routing_schedules_show_detour_load() {
    // Failing the direct coupler shifts load onto the detour couplers —
    // visible in the profile.
    use pops_core::fault_routing::route_with_faults;
    use pops_network::FaultSet;
    let t = PopsTopology::new(2, 3);
    let mut faults = FaultSet::none(&t);
    faults.fail_group_pair(&t, 2, 0);
    let pi = vector_reversal(6); // group 0 → group 2 traffic must detour
    let routing = route_with_faults(&pi, t, &faults).unwrap();
    let load = CouplerLoad::from_schedule(&t, &routing.schedule);
    assert_eq!(
        load.per_coupler[t.coupler_id(2, 0)],
        0,
        "dead coupler unused"
    );
    // The detour traffic exists: total transmissions exceed n's one-hop
    // minimum.
    let total: usize = load.per_coupler.iter().sum();
    assert!(total > 6 - pi_fixed_points(&pi));
}

fn pi_fixed_points(pi: &pops_permutation::Permutation) -> usize {
    pi.fixed_points().count()
}

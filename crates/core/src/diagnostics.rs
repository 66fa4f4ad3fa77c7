//! Human-readable routing diagnostics: slot-by-slot reports of a
//! [`RoutingPlan`], with per-slot coupler utilization and fairness
//! annotations — the textual companion to Figure 3 used by the examples
//! and the experiment harness.

use std::fmt::Write as _;

use pops_network::{Schedule, SlotFrame};
use pops_permutation::Permutation;

use crate::router::RoutingPlan;

/// A per-slot summary of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSummary {
    /// Slot index.
    pub index: usize,
    /// Couplers driven.
    pub couplers_used: usize,
    /// Deliveries made.
    pub deliveries: usize,
    /// Fraction of the `g²` couplers driven.
    pub utilization: f64,
}

/// Summarizes every slot of a schedule against a topology's coupler count.
pub fn summarize_schedule(schedule: &Schedule, coupler_count: usize) -> Vec<SlotSummary> {
    schedule
        .slots
        .iter()
        .enumerate()
        .map(|(index, frame)| SlotSummary {
            index,
            couplers_used: frame.couplers_used(),
            deliveries: frame.deliveries(),
            utilization: if coupler_count == 0 {
                0.0
            } else {
                frame.couplers_used() as f64 / coupler_count as f64
            },
        })
        .collect()
}

/// Renders one slot as a table of `sender --c(b,a)--> receivers` lines,
/// sorted by coupler for stable output.
pub fn render_slot(frame: &SlotFrame, topology: &pops_network::PopsTopology) -> String {
    let mut rows: Vec<&pops_network::Transmission> = frame.transmissions.iter().collect();
    rows.sort_by_key(|t| t.coupler);
    let mut out = String::new();
    for t in rows {
        let b = topology.coupler_dest_group(t.coupler);
        let a = topology.coupler_src_group(t.coupler);
        let receivers: Vec<String> = t.receivers.iter().map(ToString::to_string).collect();
        let _ = writeln!(
            out,
            "  p{:<3} --c({b}, {a})--> {:<12} [packet {}]",
            t.sender,
            receivers.join(","),
            t.packet
        );
    }
    out
}

/// Renders a full plan: the topology, the Theorem-2 case taken, the fair
/// distribution (if any), and every slot with its utilization.
pub fn render_plan(plan: &RoutingPlan, pi: &Permutation) -> String {
    let topology = plan.topology;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "routing plan on {topology}: {} slots for n = {}",
        plan.schedule.slot_count(),
        topology.n()
    );
    let case = if topology.d() == 1 {
        "d = 1 (clique: direct, one slot)"
    } else if topology.d() <= topology.g() {
        "1 < d <= g (one two-slot round)"
    } else {
        "d > g (ceil(d/g) two-slot rounds)"
    };
    let _ = writeln!(out, "case: {case}");
    if let Some(fd) = &plan.fair_distribution {
        let _ = writeln!(out, "fair distribution targets per source group:");
        for h in 0..topology.g() {
            let _ = writeln!(out, "  f({h}, .) = {:?}", fd.targets_of(h));
        }
    }
    for (idx, frame) in plan.schedule.slots.iter().enumerate() {
        let _ = writeln!(
            out,
            "slot {idx}: {} couplers, {} deliveries",
            frame.couplers_used(),
            frame.deliveries()
        );
        out.push_str(&render_slot(frame, &topology));
    }
    let moving = (0..pi.len()).filter(|&i| pi.apply(i) != i).count();
    let _ = writeln!(
        out,
        "permutation: {moving}/{} packets move; lower bound {} slots",
        pi.len(),
        crate::bounds::lower_bound(pi, topology.d(), topology.g())
    );
    out
}

/// Renders a coupler-occupancy Gantt chart: one row per coupler, one
/// column per slot; `#` marks a driven coupler, `.` an idle one. Makes the
/// structure of a schedule visible at a glance — e.g. the Theorem-2
/// `d ≤ g` routing drives *every* coupler in both slots, while a direct
/// routing of a group rotation hammers one coupler column after column.
pub fn render_gantt(schedule: &Schedule, topology: &pops_network::PopsTopology) -> String {
    let couplers = topology.coupler_count();
    let slots = schedule.slot_count();
    let mut grid = vec![vec![false; slots]; couplers];
    for (s, frame) in schedule.slots.iter().enumerate() {
        for t in &frame.transmissions {
            grid[t.coupler][s] = true;
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "coupler occupancy ({couplers} couplers x {slots} slots):"
    );
    for (c, row) in grid.iter().enumerate() {
        let b = topology.coupler_dest_group(c);
        let a = topology.coupler_src_group(c);
        let cells: String = row
            .iter()
            .map(|&used| if used { '#' } else { '.' })
            .collect();
        let _ = writeln!(out, "  c({b},{a}) |{cells}|");
    }
    let driven: usize = grid.iter().flatten().filter(|&&u| u).count();
    let _ = writeln!(
        out,
        "utilization: {driven}/{} coupler-slots ({:.0}%)",
        couplers * slots,
        if slots == 0 {
            0.0
        } else {
            100.0 * driven as f64 / (couplers * slots) as f64
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route;
    use pops_network::PopsTopology;
    use pops_permutation::families::vector_reversal;

    #[test]
    fn summaries_report_full_utilization_for_d_le_g_slot1() {
        let pi = vector_reversal(16);
        let t = PopsTopology::new(4, 4);
        let plan = route(&pi, t);
        let summaries = summarize_schedule(&plan.schedule, t.coupler_count());
        assert_eq!(summaries.len(), 2);
        // Slot 1 of the d<=g case moves all n packets over n couplers.
        assert_eq!(summaries[0].couplers_used, 16);
        assert!((summaries[0].utilization - 1.0).abs() < 1e-12);
        assert_eq!(summaries[1].deliveries, 16);
    }

    #[test]
    fn render_plan_mentions_case_and_slots() {
        let pi = vector_reversal(12);
        let t = PopsTopology::new(3, 4);
        let plan = route(&pi, t);
        let text = render_plan(&plan, &pi);
        assert!(text.contains("1 < d <= g"));
        assert!(text.contains("slot 0"));
        assert!(text.contains("slot 1"));
        assert!(text.contains("fair distribution"));
        assert!(text.contains("lower bound"));
    }

    #[test]
    fn render_plan_d1_case() {
        let pi = vector_reversal(5);
        let t = PopsTopology::new(1, 5);
        let plan = route(&pi, t);
        let text = render_plan(&plan, &pi);
        assert!(text.contains("d = 1"));
        assert!(!text.contains("fair distribution targets"));
    }

    #[test]
    fn render_plan_multi_round_case() {
        let pi = vector_reversal(12);
        let t = PopsTopology::new(6, 2);
        let plan = route(&pi, t);
        let text = render_plan(&plan, &pi);
        assert!(text.contains("d > g"));
        // 2*ceil(6/2) = 6 slots.
        assert!(text.contains("slot 5"));
    }

    #[test]
    fn gantt_shows_full_occupancy_for_square_routing() {
        // d = g: both Theorem-2 slots drive all g² couplers.
        let pi = vector_reversal(16);
        let t = PopsTopology::new(4, 4);
        let plan = route(&pi, t);
        let text = render_gantt(&plan.schedule, &t);
        assert!(text.contains("16 couplers x 2 slots"));
        assert!(text.contains("|##|"));
        assert!(
            !text.contains('.'),
            "no idle coupler-slot expected:\n{text}"
        );
        assert!(text.contains("32/32"));
    }

    #[test]
    fn gantt_shows_serialization_of_direct_group_rotation() {
        // Direct routing of a group rotation uses one coupler per slot per
        // group pair — long '#' runs on few rows.
        use pops_permutation::families::group_rotation;
        let t = PopsTopology::new(4, 2);
        let pi = group_rotation(4, 2, 1);
        let schedule = crate::fault_routing::route_greedy(&pi, t).schedule;
        let text = render_gantt(&schedule, &t);
        assert!(text.contains("####"), "{text}");
        // The two intra-group couplers stay idle throughout.
        assert!(text.contains("|....|"), "{text}");
    }

    #[test]
    fn gantt_handles_empty_schedule() {
        let t = PopsTopology::new(2, 2);
        let text = render_gantt(&Schedule::new(), &t);
        assert!(text.contains("0 slots"));
        assert!(text.contains("0/0"));
    }

    #[test]
    fn render_slot_sorts_by_coupler() {
        let pi = vector_reversal(9);
        let t = PopsTopology::new(3, 3);
        let plan = route(&pi, t);
        let text = render_slot(&plan.schedule.slots[0], &t);
        // Couplers must appear in nondecreasing (b, a) order.
        let positions: Vec<usize> = (0..3)
            .flat_map(|b| (0..3).map(move |a| (b, a)))
            .filter_map(|(b, a)| text.find(&format!("c({b}, {a})")))
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
    }
}

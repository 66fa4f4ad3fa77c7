//! Helpers shared by the service integration suites. Each test binary
//! compiles this module independently (`mod common;`), so not every item
//! is used by every binary.
#![allow(dead_code)]

use pops_core::{HRelation, RoutingEngine, RoutingOutcome};
use pops_network::{FaultSet, PopsTopology, Schedule, Simulator};
use pops_permutation::families::random_permutation;
use pops_permutation::{Permutation, SplitMix64};

/// An h-relation that is the union of `h` random full permutations.
pub fn random_relation(n: usize, h: usize, rng: &mut SplitMix64) -> HRelation {
    let mut requests = Vec::with_capacity(n * h);
    for _ in 0..h {
        let p = random_permutation(n, rng);
        requests.extend((0..n).map(|s| (s, p.apply(s))));
    }
    HRelation::new(n, requests).unwrap()
}

/// Referee: `schedule` must execute legally from the unit-packet start
/// and deliver every packet to `pi`.
pub fn verify_permutation_schedule(t: PopsTopology, schedule: &Schedule, pi: &Permutation) {
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_schedule(schedule)
        .unwrap_or_else(|(slot, e)| panic!("illegal schedule at slot {slot}: {e}"));
    sim.verify_delivery(pi.as_slice())
        .unwrap_or_else(|e| panic!("misdelivery: {e}"));
}

/// Referee for h-relations: each König phase's slice of the concatenated
/// schedule must route that phase's completed permutation (phases reset
/// packet identity, so each slice is verified from a fresh placement).
pub fn verify_h_relation_outcome(t: PopsTopology, outcome: &RoutingOutcome) {
    let RoutingOutcome::HRelation(routing) = outcome else {
        panic!("expected an h-relation outcome");
    };
    assert_eq!(
        routing.schedule.slot_count(),
        routing.phases.len() * routing.slots_per_phase
    );
    for (i, phase) in routing.phases.iter().enumerate() {
        let completed = phase.complete();
        let slice = Schedule {
            slots: routing.schedule.slots
                [i * routing.slots_per_phase..(i + 1) * routing.slots_per_phase]
                .to_vec(),
        };
        verify_permutation_schedule(t, &slice, &completed);
    }
}

/// Referee for an h-relation schedule that carries no phase list, as a
/// cache hit's does: the relation's König phases, recomputed by a fresh
/// engine (the decomposition is deterministic), must each be routed by
/// their equal slice of the schedule.
pub fn verify_h_relation_schedule(t: PopsTopology, relation: &HRelation, schedule: &Schedule) {
    let phases = RoutingEngine::new(t).decompose_h_relation(relation);
    let per_phase = schedule.slot_count() / phases.len();
    assert_eq!(schedule.slot_count(), phases.len() * per_phase);
    for (i, phase) in phases.iter().enumerate() {
        let slice = Schedule {
            slots: schedule.slots[i * per_phase..(i + 1) * per_phase].to_vec(),
        };
        verify_permutation_schedule(t, &slice, &phase.complete());
    }
}

/// Builds a [`FaultSet`] from coupler ids (each must be in range).
pub fn fault_set(t: &PopsTopology, ids: &[usize]) -> FaultSet {
    let mut set = FaultSet::none(t);
    for &c in ids {
        assert!(
            c < t.coupler_count(),
            "fault id {c} out of range for {t} ({} couplers)",
            t.coupler_count()
        );
        set.fail_coupler(c);
    }
    set
}

/// Referee for (possibly) degraded schedules: the schedule must execute
/// on a simulator with exactly the declared couplers failed — so a plan
/// that leans on dead hardware trips [`pops_network::SimError::FailedCoupler`]
/// here — and deliver every packet to `pi`. An empty `faults` list is the
/// healthy referee.
pub fn verify_schedule_under_faults(
    t: PopsTopology,
    faults: &[usize],
    schedule: &Schedule,
    pi: &Permutation,
) {
    let mut sim = Simulator::with_unit_packets_and_faults(t, fault_set(&t, faults));
    sim.execute_schedule(schedule).unwrap_or_else(|(slot, e)| {
        panic!("schedule illegal under faults {faults:?} at slot {slot}: {e}")
    });
    sim.verify_delivery(pi.as_slice())
        .unwrap_or_else(|e| panic!("misdelivery under faults {faults:?}: {e}"));
}

/// One scripted step of fault-chaos traffic: route `pi` with `faults`
/// declared failed (empty = healthy), optionally on its own topology.
#[derive(Debug, Clone)]
pub struct ChaosStep {
    /// The permutation to route.
    pub pi: Permutation,
    /// Coupler ids this request declares failed.
    pub faults: Vec<usize>,
    /// Topology this step selects (`None` = the driver's default shape),
    /// so one script can churn topologies mid-connection.
    pub shape: Option<(usize, usize)>,
}

impl ChaosStep {
    /// A step on the driver's default topology.
    pub fn new(pi: Permutation, faults: Vec<usize>) -> Self {
        Self {
            pi,
            faults,
            shape: None,
        }
    }

    /// A step pinned to its own `(d, g)` topology.
    pub fn on(pi: Permutation, faults: Vec<usize>, d: usize, g: usize) -> Self {
        Self {
            pi,
            faults,
            shape: Some((d, g)),
        }
    }
}

/// What one chaos client observed across its script.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosOutcome {
    /// Steps answered from the server's plan cache.
    pub cache_hits: usize,
    /// Steps answered with a degraded (fault-aware) plan.
    pub degraded: usize,
    /// Steps whose returned schedule passed the simulator referee. The
    /// driver panics on any referee failure, so after a clean return this
    /// equals the total step count — callers assert it to prove zero
    /// schedules went unverified under churn.
    pub verified: usize,
}

/// The reusable fault-chaos driver: one concurrent client per script,
/// each walking its steps **in order** on a single connection — so a
/// script that interleaves fault sets exercises mid-flight fault flips on
/// live connections. Every returned schedule is refereed on a simulator
/// with exactly that step's couplers failed, and the reply's `degraded`
/// flag must agree with the declared set. Panics (in the client thread,
/// surfaced by the join) on any wire error, referee failure, or flag
/// mismatch; returns the aggregate of what the clients observed.
pub fn run_fault_chaos(
    addr: std::net::SocketAddr,
    d: usize,
    g: usize,
    scripts: Vec<Vec<ChaosStep>>,
) -> ChaosOutcome {
    let handles: Vec<std::thread::JoinHandle<ChaosOutcome>> = scripts
        .into_iter()
        .map(|script| {
            std::thread::spawn(move || {
                let mut client = pops_service::ServiceClient::connect(addr).unwrap();
                let mut outcome = ChaosOutcome::default();
                for step in &script {
                    let (sd, sg) = step.shape.unwrap_or((d, g));
                    let t = PopsTopology::new(sd, sg);
                    let reply = client
                        .route_permutation_with_faults(
                            "theorem2",
                            &step.pi,
                            Some((sd, sg)),
                            &step.faults,
                        )
                        .unwrap_or_else(|e| panic!("route under {:?}: {e}", step.faults));
                    assert_eq!(
                        reply.degraded,
                        !step.faults.is_empty(),
                        "degraded flag must track the declared fault set {:?}",
                        step.faults
                    );
                    verify_schedule_under_faults(t, &step.faults, &reply.schedule, &step.pi);
                    outcome.cache_hits += reply.cache_hit as usize;
                    outcome.degraded += reply.degraded as usize;
                    outcome.verified += 1;
                }
                outcome
            })
        })
        .collect();
    let mut total = ChaosOutcome::default();
    for handle in handles {
        let one = handle.join().expect("chaos client panicked");
        total.cache_hits += one.cache_hits;
        total.degraded += one.degraded;
        total.verified += one.verified;
    }
    total
}

/// A fresh, uniquely named temp directory (caller removes it).
pub fn unique_temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pops-it-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

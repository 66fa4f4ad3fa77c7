//! Failure injection: take a *valid* Theorem-2 schedule, corrupt it in
//! every machine-model-relevant way, and assert the simulator rejects the
//! corruption. This proves the referee actually referees — slot counts in
//! this repository are trustworthy only because illegal schedules cannot
//! execute.

mod common;

use std::sync::Arc;

use pops_core::route;
use pops_network::{PopsTopology, SimError, Simulator};
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;
use pops_service::{serve, ClientError, RoutingService, ServiceClient, ServiceConfig};

fn valid_setup() -> (
    PopsTopology,
    pops_permutation::Permutation,
    pops_network::Schedule,
) {
    let (d, g) = (3usize, 3usize);
    let topology = PopsTopology::new(d, g);
    let mut rng = SplitMix64::new(8000);
    let pi = random_permutation(d * g, &mut rng);
    let plan = route(&pi, topology);
    (topology, pi, plan.schedule)
}

#[test]
fn baseline_schedule_is_valid() {
    let (topology, pi, schedule) = valid_setup();
    let mut sim = Simulator::with_unit_packets(topology);
    sim.execute_schedule(&schedule).unwrap();
    sim.verify_delivery(pi.as_slice()).unwrap();
}

#[test]
fn duplicating_a_transmission_trips_coupler_contention() {
    let (topology, _, mut schedule) = valid_setup();
    let t = schedule.slots[0].transmissions[0].clone();
    schedule.slots[0].transmissions.push(t);
    let mut sim = Simulator::with_unit_packets(topology);
    let (slot, err) = sim.execute_schedule(&schedule).unwrap_err();
    assert_eq!(slot, 0);
    assert!(matches!(err, SimError::CouplerContention { .. }));
}

#[test]
fn redirecting_a_receiver_trips_receive_contention() {
    let (topology, _, mut schedule) = valid_setup();
    // Point transmission 1's receiver at transmission 0's receiver.
    let stolen = schedule.slots[0].transmissions[0].receivers[0];
    // Find another transmission into the same destination group so the
    // wiring stays legal and only the double-read is illegal.
    let dest_group = topology.group_of(stolen);
    let idx = (1..schedule.slots[0].transmissions.len())
        .find(|&i| {
            topology.coupler_dest_group(schedule.slots[0].transmissions[i].coupler) == dest_group
        })
        .expect("some other packet also enters this group");
    schedule.slots[0].transmissions[idx].receivers = vec![stolen].into();
    let mut sim = Simulator::with_unit_packets(topology);
    let (_, err) = sim.execute_schedule(&schedule).unwrap_err();
    assert!(matches!(err, SimError::ReceiveContention { receiver } if receiver == stolen));
}

#[test]
fn rewiring_a_sender_trips_wiring_check() {
    let (topology, _, mut schedule) = valid_setup();
    // Move transmission 0 to a coupler whose source group differs from the
    // sender's group.
    let sender = schedule.slots[0].transmissions[0].sender;
    let wrong_group = (topology.group_of(sender) + 1) % topology.g();
    schedule.slots[0].transmissions[0].coupler = topology.coupler_id(0, wrong_group);
    let mut sim = Simulator::with_unit_packets(topology);
    let (_, err) = sim.execute_schedule(&schedule).unwrap_err();
    assert!(matches!(err, SimError::SenderNotInSourceGroup { .. }));
}

#[test]
fn sending_a_packet_not_held_is_rejected() {
    let (topology, _, mut schedule) = valid_setup();
    // Second slot: make some sender emit a packet it never received.
    let t = &mut schedule.slots[1].transmissions[0];
    t.packet = (t.packet + 1) % topology.n();
    let mut sim = Simulator::with_unit_packets(topology);
    let (slot, err) = sim.execute_schedule(&schedule).unwrap_err();
    // Either possession fails outright, or (if the permuted id happens to
    // sit there) the later delivery check would fail — accept the first.
    assert_eq!(slot, 1);
    assert!(matches!(
        err,
        SimError::PacketNotHeld { .. } | SimError::MultiplePacketsFromSender { .. }
    ));
}

#[test]
fn dropping_a_transmission_breaks_delivery_not_execution() {
    let (topology, pi, mut schedule) = valid_setup();
    // Removing a first-hop transmission is *legal* per the machine model —
    // but then the packet never arrives, the second hop's sender doesn't
    // hold it, and execution or final verification must fail. A self-send
    // (a fixed point of π sent to itself) moves nothing, so the dropped
    // transmission is the last one whose sender is not its receiver.
    let first_hop = &mut schedule.slots[0].transmissions;
    let index = first_hop
        .iter()
        .rposition(|tx| tx.receivers.as_slice() != [tx.sender])
        .expect("a first hop that moves a packet");
    let removed = first_hop.remove(index);
    let mut sim = Simulator::with_unit_packets(topology);
    match sim.execute_schedule(&schedule) {
        Err((_, err)) => assert!(matches!(err, SimError::PacketNotHeld { .. })),
        Ok(_) => {
            // Executed (the packet's second hop happened to be listed from
            // its origin) — then delivery must catch it.
            assert!(sim.verify_delivery(pi.as_slice()).is_err());
        }
    }
    // Re-adding restores validity.
    schedule.slots[0].transmissions.insert(index, removed);
    let mut sim = Simulator::with_unit_packets(topology);
    sim.execute_schedule(&schedule).unwrap();
    sim.verify_delivery(pi.as_slice()).unwrap();
}

#[test]
fn swapping_two_slots_is_caught() {
    let (topology, _, mut schedule) = valid_setup();
    schedule.slots.swap(0, 1);
    let mut sim = Simulator::with_unit_packets(topology);
    // Second hop first: senders don't yet hold the packets.
    let (slot, err) = sim.execute_schedule(&schedule).unwrap_err();
    assert_eq!(slot, 0);
    assert!(matches!(err, SimError::PacketNotHeld { .. }));
}

// --- Wire-level twins: the same coupler-kill scenarios, but through a
// --- live server. The in-process tests above prove the referee catches
// --- corruption; these prove the *served* degraded schedules survive the
// --- same referee with the declared couplers actually failed.

/// Spawns a tiny single-topology server on the failure-injection shape.
fn spawn_faulted_twin_server(
    d: usize,
    g: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<pops_service::ServerSummary>,
) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Arc::new(RoutingService::with_config(
        PopsTopology::new(d, g),
        ServiceConfig {
            shards: 1,
            cache_capacity: 8,
            max_in_flight: 2,
            ..ServiceConfig::default()
        },
    ));
    let handle = std::thread::spawn(move || serve(listener, service).unwrap());
    (addr, handle)
}

#[test]
fn wire_twin_a_served_plan_routes_around_a_killed_coupler() {
    // Kill coupler 6 = c(2, 0) on POPS(2, 3) — the direct path from
    // group 0 into group 2 — and ask the server to route around it. The
    // returned schedule must execute on a simulator with that coupler
    // actually failed (driving it trips SimError::FailedCoupler).
    let (d, g) = (2usize, 3usize);
    let (addr, handle) = spawn_faulted_twin_server(d, g);
    let mut rng = SplitMix64::new(8000);
    let pi = random_permutation(d * g, &mut rng);
    let mut client = ServiceClient::connect(addr).unwrap();
    let reply = client
        .route_permutation_with_faults("faults", &pi, Some((d, g)), &[6])
        .unwrap();
    assert!(reply.degraded);
    common::verify_schedule_under_faults(PopsTopology::new(d, g), &[6], &reply.schedule, &pi);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn wire_twin_killing_every_coupler_into_a_group_is_refused() {
    // The wire twin of `faults_report_disconnection`: couplers 3, 4, 5
    // are every coupler into group 1 of POPS(2, 3); a server asked to
    // route through that fabric refuses with the typed `unroutable` wire
    // error instead of panicking, and keeps serving afterwards.
    let (d, g) = (2usize, 3usize);
    let (addr, handle) = spawn_faulted_twin_server(d, g);
    let mut rng = SplitMix64::new(8000);
    let pi = random_permutation(d * g, &mut rng);
    let mut client = ServiceClient::connect(addr).unwrap();
    let e = client
        .route_permutation_with_faults("faults", &pi, Some((d, g)), &[3, 4, 5])
        .unwrap_err();
    match e {
        ClientError::Remote { ref kind, .. } => assert_eq!(kind, "unroutable", "{e}"),
        other => panic!("expected the typed unroutable error, got {other}"),
    }
    // The healthy twin of the same permutation still routes and verifies.
    let reply = client
        .route_permutation_with_faults("theorem2", &pi, Some((d, g)), &[])
        .unwrap();
    common::verify_schedule_under_faults(PopsTopology::new(d, g), &[], &reply.schedule, &pi);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn misdelivery_is_caught_by_verification() {
    let (topology, pi, mut schedule) = valid_setup();
    // Swap the receivers of two second-hop transmissions targeting
    // different processors in the same group: execution stays legal,
    // delivery check must fail.
    let slot1 = &mut schedule.slots[1].transmissions;
    let g0 = topology.group_of(slot1[0].receivers[0]);
    if let Some(other) = (1..slot1.len()).find(|&i| topology.group_of(slot1[i].receivers[0]) == g0)
    {
        let a = slot1[0].receivers[0];
        let b = slot1[other].receivers[0];
        slot1[0].receivers = vec![b].into();
        slot1[other].receivers = vec![a].into();
        let mut sim = Simulator::with_unit_packets(topology);
        sim.execute_schedule(&schedule).unwrap();
        assert!(sim.verify_delivery(pi.as_slice()).is_err());
    }
}

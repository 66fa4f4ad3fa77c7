//! The one schedule codec, held to its contract on every receiver count a
//! transmission can carry (none, one, several): the dense reply frame, the
//! spill file and the JSON encoding each give back the schedule they were
//! handed, a unicast transmission comes back inline as
//! [`Receivers::One`], and the frame and the spill carry the same schedule
//! bytes.

use pops_core::engine::RoutingEngine;
use pops_network::{PopsTopology, Receivers, Schedule, SlotFrame, Transmission};
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;
use pops_service::frame::{decode_route_reply, encode_route_reply};
use pops_service::persist::{self, CACHE_MAGIC};
use pops_service::proto::{schedule_from_json, schedule_to_json};
use pops_service::Json;

fn tx(sender: usize, receivers: Vec<usize>) -> Transmission {
    Transmission {
        sender,
        coupler: sender % 3,
        packet: sender,
        receivers: receivers.into(),
    }
}

/// Transmissions with 0, 1 and 3 receivers; the unicast one as the engine
/// stores it and as a general receiver set.
fn mixed_schedule(with_blind_send: bool) -> Schedule {
    let mut first = vec![
        Transmission::unicast(0, 1, 0, 5),
        tx(2, vec![3, 4, 9]),
        tx(7, vec![6]),
    ];
    if with_blind_send {
        first.push(tx(1, vec![]));
    }
    Schedule {
        slots: vec![
            SlotFrame {
                transmissions: first,
            },
            SlotFrame::new(),
            SlotFrame {
                transmissions: vec![tx(4, vec![8, 2])],
            },
        ],
    }
}

/// A routed POPS(4, 4) plan: every transmission a unicast.
fn routed_schedule() -> Schedule {
    let mut rng = SplitMix64::new(47);
    RoutingEngine::new(PopsTopology::new(4, 4))
        .plan_theorem2(&random_permutation(16, &mut rng))
        .schedule
}

/// Every decoded transmission with one receiver is stored inline.
fn assert_unicasts_inline(schedule: &Schedule, via: &str) {
    for tx in schedule.slots.iter().flat_map(|s| &s.transmissions) {
        assert_eq!(
            tx.receivers.len() == 1,
            matches!(tx.receivers, Receivers::One(_)),
            "{via}: {tx:?} is stored as the wrong variant"
        );
    }
}

/// The schedule bytes of a dense route reply (after its 14 fixed bytes)
/// and of a one-entry spill file (after its header, key length and key,
/// before the checksum).
fn frame_and_spill_bytes(schedule: &Schedule) -> (Vec<u8>, Vec<u8>) {
    let reply = encode_route_reply(false, 0, schedule, true);
    let key = b"key";
    let file = persist::encode_cache_file(4, 4, &[(key.as_slice().into(), schedule.clone())], &[]);
    let start = CACHE_MAGIC.len() + 16 + 4 + key.len();
    (reply[14..].to_vec(), file[start..file.len() - 8].to_vec())
}

#[test]
fn every_receiver_count_round_trips_through_the_dense_frame() {
    for schedule in [mixed_schedule(true), routed_schedule()] {
        let reply = encode_route_reply(true, 9, &schedule, true);
        let back = decode_route_reply(&reply[1..]).unwrap().schedule;
        assert_eq!(back, schedule);
        assert_unicasts_inline(&back, "frame");
    }
}

#[test]
fn every_receiver_count_round_trips_through_the_spill_file() {
    for schedule in [mixed_schedule(true), routed_schedule()] {
        let entries = [(b"plan".as_slice().into(), schedule.clone())];
        let bytes = persist::encode_cache_file(4, 4, &entries, &entries);
        let decoded = persist::decode_cache_file(&bytes, 4, 4).unwrap();
        for (_, back) in decoded.l1.iter().chain(&decoded.l2) {
            assert_eq!(back, &schedule);
            assert_unicasts_inline(back, "spill");
        }
    }
}

#[test]
fn every_receiver_count_round_trips_through_json() {
    for schedule in [mixed_schedule(false), routed_schedule()] {
        let text = schedule_to_json(&schedule).to_string();
        let back = schedule_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, schedule);
        assert_unicasts_inline(&back, "json");
    }
    // The JSON encoding lists one or more receivers per transmission, so
    // a blind send does not survive it: it is refused, not misread.
    let err = schedule_from_json(&schedule_to_json(&mixed_schedule(true))).unwrap_err();
    assert_eq!(
        err,
        "transmission must be [sender, coupler, packet, receiver...]"
    );
}

#[test]
fn the_frame_and_the_spill_carry_identical_schedule_bytes() {
    for schedule in [mixed_schedule(true), routed_schedule(), Schedule::new()] {
        let (frame, spill) = frame_and_spill_bytes(&schedule);
        assert_eq!(frame, spill);
        let mut direct = Vec::new();
        pops_service::frame::encode_schedule(&mut direct, &schedule);
        assert_eq!(frame, direct);
    }
}

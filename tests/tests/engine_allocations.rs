//! Allocation accounting for the engine hot path: after a warming call, a
//! [`RoutingEngine`] with the alternating-path colourer performs **zero**
//! heap allocations in the coloring/fair-distribution path
//! ([`RoutingEngine::fair_distribution_targets`]) — the acceptance
//! criterion of the zero-allocation refactor.
//!
//! Planning straight into a dense encoding
//! ([`RoutingEngine::plan_theorem2_into`]) allocates nothing when warm and
//! the buffer has room. So a warm service miss allocates one dense
//! encoding, one cache key and fixed headers, and builds no schedule. Once
//! the reply is dropped, the miss keeps only the encoding and the key, one
//! allocation each, shared by both cache levels.
//!
//! The schedule codec is held to the engine's own layout: decoding a dense
//! route reply, or restoring a spill file, allocates per slot and per plan,
//! never per transmission.
//!
//! The test binary installs a counting wrapper around the system allocator;
//! the counters are thread-local, so the test harness's other threads cannot
//! perturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pops_core::engine::RoutingEngine;
use pops_core::theorem2_slots;
use pops_network::{codec, PopsTopology};
use pops_permutation::families::{random_permutation, vector_reversal};
use pops_permutation::SplitMix64;
use pops_service::{canonical_key, frame, persist, RoutingService, ServiceConfig, ServiceRequest};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested: every allocation's size, plus the growth of every
    /// reallocation (a shrink counts nothing).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread and not yet freed (on any thread's
    /// count; the tests that read it free on the allocating thread).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

fn live(delta: i64) {
    LIVE.with(|c| c.set(c.get() + delta));
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the bookkeeping is
// thread-local counter bumps with no allocation of their own (const-initialized
// `Cell<u64>` thread-locals need no lazy setup and have no destructor).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

#[test]
fn warm_fair_distribution_path_allocates_nothing() {
    // Every case class: d < g (padded), d = g, d > g (bijection), d ∤ g.
    for (d, g) in [
        (2usize, 8usize),
        (3, 5),
        (4, 4),
        (6, 3),
        (7, 3),
        (8, 2),
        (16, 16),
    ] {
        let t = PopsTopology::new(d, g);
        let mut engine = RoutingEngine::new(t); // alternating-path colourer
        let mut rng = SplitMix64::new(42);

        // Warm the arenas (this call may allocate).
        let warmup = random_permutation(d * g, &mut rng);
        let _ = engine.fair_distribution_targets(&warmup);

        for round in 0..5 {
            let pi = if round % 2 == 0 {
                random_permutation(d * g, &mut rng)
            } else {
                vector_reversal(d * g)
            };
            let before = allocations();
            let targets = engine.fair_distribution_targets(&pi);
            debug_assert!(!targets.is_empty());
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "warm fair-distribution path allocated on POPS({d}, {g}), round {round}"
            );
        }
    }
}

#[test]
fn warm_fair_distribution_allocates_nothing_at_served_and_multi_word_sizes() {
    // POPS(32,32) is the miss workload's shape; POPS(72,8) has Δ = 72, so
    // every node's colour mask spans two words and chains flip across them.
    for (d, g) in [(32usize, 32usize), (72, 8)] {
        let t = PopsTopology::new(d, g);
        let mut engine = RoutingEngine::new(t);
        let mut rng = SplitMix64::new(44);
        let _ = engine.fair_distribution_targets(&random_permutation(d * g, &mut rng));
        for round in 0..3 {
            let pi = random_permutation(d * g, &mut rng);
            let before = allocations();
            let targets = engine.fair_distribution_targets(&pi);
            let after = allocations();
            assert_eq!(targets.len(), d * g);
            assert_eq!(
                after - before,
                0,
                "warm fair-distribution path allocated on POPS({d}, {g}), round {round}"
            );
        }
    }
}

#[test]
fn warm_plan_allocates_only_its_output() {
    // The full plan must allocate its *output* (schedule, transmissions,
    // intermediate vector) but nothing construction-internal: the output of
    // a Theorem-2 plan is ≤ 2·rounds slot vectors + one transmission +
    // receiver vector per delivery + the intermediate map. Budget that
    // exactly and leave zero headroom for construction-state allocations.
    let (d, g) = (8usize, 8usize);
    let n = d * g;
    let t = PopsTopology::new(d, g);
    let mut engine = RoutingEngine::new(t);
    let mut rng = SplitMix64::new(43);
    let _ = engine.plan_theorem2(&random_permutation(n, &mut rng));

    let pi = random_permutation(n, &mut rng);
    let before = allocations();
    let plan = engine.plan_theorem2(&pi);
    let after = allocations();

    let transmissions: usize = plan
        .schedule
        .slots
        .iter()
        .map(|s| s.transmissions.len())
        .sum();
    // Per transmission: the Transmission itself lives inline in its slot
    // vector, but each carries a one-element `receivers` vector.
    let output_budget = 1                          // slots vector
        + plan.schedule.slots.len()                // per-slot transmission vectors
        + transmissions                            // per-transmission receiver vectors
        + 1; // intermediate vector
    assert!(
        (after - before) as usize <= output_budget,
        "warm plan allocated {} times, output budget is {output_budget}",
        after - before
    );
}

#[test]
fn warm_plan_into_bytes_allocates_nothing() {
    // POPS(32,32) is the miss workload's shape; POPS(72,8) is d > g with
    // nine rounds and two-word colour masks.
    for (d, g) in [(32usize, 32usize), (72, 8)] {
        let n = d * g;
        let mut engine = RoutingEngine::new(PopsTopology::new(d, g));
        let mut rng = SplitMix64::new(47);
        let mut out = Vec::new();
        engine.plan_theorem2_into(&random_permutation(n, &mut rng), &mut out);
        let len = out.len();
        assert_eq!(len, 4 + 4 * theorem2_slots(d, g) + 20 * 2 * n);
        assert_eq!(
            out.capacity(),
            len,
            "an empty buffer grows to the exact size"
        );
        for round in 0..3 {
            let pi = random_permutation(n, &mut rng);
            out.clear();
            let before = allocations();
            let slots = engine.plan_theorem2_into(&pi, &mut out);
            let after = allocations();
            assert_eq!((slots, out.len()), (theorem2_slots(d, g), len));
            assert_eq!(
                after - before,
                0,
                "a warm plan into a buffer with room allocated on POPS({d}, {g}), round {round}"
            );
        }
    }
}

#[test]
fn warm_service_miss_allocates_one_plan_and_one_key() {
    // A theorem2 miss has the engine write its plan straight into the
    // exact-size encoding that becomes its cache entry, and stores that
    // entry and one key in both cache levels, shared, not copied. So the
    // miss may allocate the encoding, one key and small fixed headers:
    // no schedule and no intermediate map. Once its reply is dropped it
    // keeps the encoding and the key.
    let (d, g) = (32usize, 32usize);
    let n = d * g;
    let service = RoutingService::with_config(
        PopsTopology::new(d, g),
        ServiceConfig {
            shards: 1,
            cache_capacity: 16,
            phase_cache_capacity: 16,
            cache_shards: 1,
            max_in_flight: 1,
            ..ServiceConfig::default()
        },
    );
    let mut rng = SplitMix64::new(44);
    // Warm the engine arenas and both levels' slabs.
    for _ in 0..2 {
        let pi = random_permutation(n, &mut rng);
        service.route(&ServiceRequest::Theorem2 { pi }).unwrap();
    }
    let pi = random_permutation(n, &mut rng);
    let req = ServiceRequest::Theorem2 { pi: pi.clone() };

    let (before, resident_before) = (bytes_allocated(), live_bytes());
    let reply = service.route(&req).unwrap();
    let allocated = (bytes_allocated() - before) as usize;

    assert!(!reply.cache_hit);
    let encoding = reply.outcome.cached().schedule_bytes().len();
    assert_eq!(encoding, 4 + 2 * (4 + 20 * n), "20 bytes per unicast");
    let key = canonical_key(d, g, &req).as_bytes().len();
    assert_eq!(key, 4 * n + 9);
    // The fixed headers: the entry's `Arc`, the reply's state and the
    // cache bookkeeping (80 bytes when measured). A schedule (81,976 bytes
    // of transmissions here), an intermediate map (8,192 bytes) or a
    // second copy of the key would not fit.
    const HEADERS: usize = 256;
    assert!(
        allocated <= encoding + key + HEADERS,
        "a warm miss allocated {allocated} bytes; one encoding ({encoding}), one key ({key}) \
         and {HEADERS} bytes of fixed headers is the budget"
    );

    // What the miss keeps: one encoding and one key, both levels holding
    // the same allocations (a second copy of either would not fit).
    drop(reply);
    let resident = (live_bytes() - resident_before) as usize;
    assert!(
        10 * resident <= 11 * (encoding + key),
        "a dropped miss reply left {resident} bytes resident; one encoding ({encoding}) \
         and one key ({key}) is the budget, with a tenth of headroom"
    );
    let hit = service.route(&req).unwrap();
    assert!(hit.cache_hit);
    // The entry the miss wrote is the encoded plan.
    let mut engine = RoutingEngine::new(PopsTopology::new(d, g));
    let mut expected = Vec::new();
    codec::encode_schedule(&mut expected, &engine.plan_theorem2(&pi).schedule);
    assert_eq!(hit.outcome.cached().schedule_bytes(), &expected[..]);
}

/// `count` fresh POPS(32, 32) Theorem-2 schedules.
fn plans_32x32(count: usize, seed: u64) -> Vec<pops_network::Schedule> {
    let mut engine = RoutingEngine::new(PopsTopology::new(32, 32));
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            engine
                .plan_theorem2(&random_permutation(1024, &mut rng))
                .schedule
        })
        .collect()
}

#[test]
fn decoding_a_dense_reply_allocates_per_slot_not_per_transmission() {
    let schedule = plans_32x32(1, 45).remove(0);
    let payload = frame::encode_route_reply(false, 0, &schedule, true);

    let before = allocations();
    let reply = frame::decode_route_reply(&payload[1..]).unwrap();
    let allocated = allocations() - before;

    assert_eq!(reply.schedule, schedule);
    // The slot vector and one transmission vector per slot; the 2,048
    // unicast receivers are stored inline.
    let budget = 1 + schedule.slots.len() as u64;
    assert!(
        allocated <= budget,
        "decoding a {}-slot POPS(32, 32) reply allocated {allocated} times; budget {budget}",
        schedule.slots.len()
    );
}

#[test]
fn loading_a_spill_allocates_per_plan_and_slot_not_per_transmission() {
    let (d, g) = (32usize, 32usize);
    let plans = plans_32x32(8, 46);
    let entries: Vec<persist::CacheEntry> = plans
        .iter()
        .enumerate()
        .map(|(i, schedule)| (i.to_le_bytes().into(), schedule.clone()))
        .collect();
    let bytes = persist::encode_cache_file(d, g, &entries, &[]);
    let path = std::env::temp_dir().join(format!(
        "pops-spill-allocations-{}.popscache",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();
    let service = RoutingService::with_config(
        PopsTopology::new(d, g),
        ServiceConfig {
            shards: 1,
            cache_capacity: 16,
            phase_cache_capacity: 16,
            cache_shards: 1,
            max_in_flight: 1,
            ..ServiceConfig::default()
        },
    );

    let before = allocations();
    let summary = service.load_cache(&path).unwrap();
    let allocated = allocations() - before;
    let _ = std::fs::remove_file(&path);

    assert_eq!(summary.l1_entries, plans.len());
    // Per plan: its key, its schedule's slot and transmission vectors, and
    // a handful of cache bookkeeping blocks; plus a fixed cost for the
    // file and the restore maps. A plan's 2,048 transmissions add nothing.
    let slots = plans[0].slots.len() as u64;
    let budget = 32 + plans.len() as u64 * (8 + slots);
    assert!(
        allocated <= budget,
        "restoring {} POPS(32, 32) plans allocated {allocated} times; budget {budget}",
        plans.len()
    );
}

//! Permutation routing on POPS networks — a full implementation of
//! Mei & Rizzi, *Routing Permutations in Partitioned Optical Passive Stars
//! Networks* (IPPS 2002, arXiv:cs/0109027).
//!
//! # The result
//!
//! A POPS(d, g) network (`n = d·g` processors, `g²` optical couplers; see
//! [`pops_network`]) can route **any** permutation `π` of its processors in
//!
//! * **1 slot** when `d = 1`, and
//! * **2⌈d/g⌉ slots** when `d > 1`,
//!
//! which is worst-case optimal and within a factor 2 of optimal for every
//! fixed-point-free permutation. This unified the previously piecemeal
//! results for hypercube/mesh simulation steps, BPC permutations, vector
//! reversal, and matrix transpose (Sahni 2000a, 2000b; Gravenstreter &
//! Melhem 1998).
//!
//! # Crate layout
//!
//! | module | paper artefact |
//! |---|---|
//! | [`list_system`] | list systems + properness (§3.1) |
//! | [`fair_distribution`] | fair distributions, constructive Theorem 1 |
//! | [`engine`] | the unified [`engine::RoutingEngine`]: every routing path behind one trait, zero-allocation hot path |
//! | [`router`] | the Theorem-2 router, all three cases (thin wrapper over the engine) |
//! | [`single_slot`] | one-slot routability (Gravenstreter–Melhem) |
//! | [`bounds`] | Propositions 1–3 lower bounds |
//! | [`verify`] | route → simulate → verify, the experiment primitive |
//! | [`h_relation`] | h-relations via König decomposition (extension) |
//! | [`fault_routing`] | greedy multi-hop routing around failed couplers (extension) |
//! | [`optimal`] | exact minimum-slot search on tiny instances (§3.3 yardstick) |
//! | [`compress`] | greedy schedule repacking (ablation/optimization) |
//! | [`diagnostics`] | human-readable plan reports |
//! | [`parallel`] | chunk-based engine-per-worker batch routing |
//!
//! # Quickstart
//!
//! ```
//! use pops_core::verify::route_and_verify;
//! use pops_permutation::families::vector_reversal;
//!
//! // Route vector reversal on POPS(4, 4): Theorem 2 says 2 slots,
//! // Proposition 2 says no algorithm can do better.
//! let pi = vector_reversal(16);
//! let verdict = route_and_verify(&pi, 4, 4).unwrap();
//! assert_eq!(verdict.slots, 2);
//! assert_eq!(verdict.lower_bound, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod compress;
pub mod diagnostics;
pub mod engine;
pub mod fair_distribution;
pub mod fault_routing;
pub mod h_relation;
pub mod list_system;
pub mod optimal;
pub mod parallel;
pub mod router;
pub mod single_slot;
pub mod verify;

pub use bounds::lower_bound;
pub use compress::compress_schedule;
pub use engine::{Router, RoutingEngine, RoutingError, RoutingOutcome, RoutingRequest};
pub use fair_distribution::{FairDistribution, FairnessViolation};
pub use fault_routing::{route_greedy, route_with_faults, FaultRouting, FaultRoutingError};
pub use h_relation::{route_h_relation, HRelation, HRelationRouting};
pub use list_system::{ListSystem, ListSystemError};
pub use optimal::{min_slots_two_hop, routable_in, SearchOutcome};
pub use parallel::{route_batch_with, BatchRouter};
pub use router::{route, theorem2_slots, RoutingPlan};
pub use single_slot::{is_single_slot_routable, route_single_slot};
pub use verify::{route_and_verify, RoutingFailure, VerifiedRouting};

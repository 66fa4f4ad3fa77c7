//! Slot-level simulator of the Partitioned Optical Passive Stars (POPS)
//! network of Chiarulli et al. (1994), as modelled by §1 of Mei & Rizzi,
//! *Routing Permutations in Partitioned Optical Passive Stars Networks*
//! (IPPS 2002).
//!
//! A POPS(d, g) machine has `n = d·g` processors in `g` groups of `d` and
//! one `d × d` optical passive star coupler `c(b, a)` for every ordered
//! group pair — `g²` couplers. In one *slot* each processor sends one
//! packet to any subset of its `g` transmitters and reads at most one of
//! its `g` receivers; no coupler may be driven by two senders.
//!
//! The crate provides:
//!
//! * [`topology::PopsTopology`] — the static wiring (groups, couplers,
//!   transmitter/receiver fan-out, the diameter-1 property);
//! * [`slot`] — [`slot::Transmission`], [`slot::SlotFrame`], and
//!   [`slot::Schedule`], the machine-level description of a routing;
//! * [`codec`] — the dense byte layout of a schedule (20 bytes per
//!   unicast transmission) that wire replies, cache entries and spill
//!   files share, with its bounds-checked reader;
//! * [`simulator::Simulator`] — transactional slot execution with complete
//!   conflict detection (coupler contention, receive contention, wiring,
//!   packet possession) and end-to-end delivery verification;
//! * [`patterns`] — the one-slot primitives of §1 (one-to-all broadcast,
//!   diameter-1 point-to-point);
//! * [`fault`] — coupler fault injection ([`fault::FaultSet`]) and
//!   alive-coupler group reachability, enforced by the simulator;
//! * [`stats`] — slot counts and coupler-utilization aggregates;
//! * [`viz`] — ASCII renderings of the wiring (Figure 2) and of packet
//!   placements (Figure 3).
//!
//! The simulator is the *referee* of this reproduction: every schedule the
//! routing algorithms produce is executed here, and the slot counts the
//! experiments report are counts of successfully executed slots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod fault;
pub mod patterns;
pub mod simulator;
pub mod slot;
pub mod stats;
pub mod topology;
pub mod viz;

pub use fault::{FaultSet, UNREACHABLE};
pub use simulator::{DeliveryError, SimError, Simulator};
pub use slot::{PacketId, Receivers, Schedule, SlotFrame, Transmission};
pub use stats::{CouplerLoad, ScheduleStats, SlotRecord};
pub use topology::{CouplerId, GroupId, PopsTopology, ProcessorId};

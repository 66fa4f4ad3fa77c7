//! Typed-payload collectives: the [`CollectiveEngine`].
//!
//! Every operation first builds its packet-level schedule
//! ([`crate::movement`]), **executes it on the conflict-checking POPS
//! simulator**, verifies the final packet placement, and only then applies
//! the corresponding movement to the caller's values. A machine-model
//! violation therefore surfaces as a [`CollectiveError`] instead of
//! silently corrupting data — the same referee discipline as
//! `pops_core::verify` (and like there, the error paths are safety nets the
//! correct builders never trigger).

use std::fmt;

use pops_network::{DeliveryError, PopsTopology, ProcessorId, Schedule, SimError, Simulator};

use crate::movement;

/// A machine-model failure while executing a collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// The simulator rejected a slot.
    Machine {
        /// Index of the offending slot within the collective's schedule.
        slot: usize,
        /// The violation.
        error: SimError,
    },
    /// The schedule executed but left a packet somewhere unexpected.
    Delivery(DeliveryError),
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::Machine { slot, error } => {
                write!(f, "machine violation in slot {slot}: {error}")
            }
            CollectiveError::Delivery(e) => write!(f, "misdelivery: {e}"),
        }
    }
}

impl std::error::Error for CollectiveError {}

impl From<DeliveryError> for CollectiveError {
    fn from(e: DeliveryError) -> Self {
        CollectiveError::Delivery(e)
    }
}

/// Executes collectives with typed payloads on a POPS(d, g) machine,
/// accumulating the slot bill.
#[derive(Debug, Clone)]
pub struct CollectiveEngine {
    topology: PopsTopology,
    slots_used: usize,
}

impl CollectiveEngine {
    /// An engine on `topology`.
    pub fn new(topology: PopsTopology) -> Self {
        Self {
            topology,
            slots_used: 0,
        }
    }

    /// The machine's topology.
    pub fn topology(&self) -> &PopsTopology {
        &self.topology
    }

    /// Total slots consumed by the collectives executed so far.
    pub fn slots_used(&self) -> usize {
        self.slots_used
    }

    fn run(&mut self, sim: &mut Simulator, schedule: &Schedule) -> Result<(), CollectiveError> {
        sim.execute_schedule(schedule)
            .map_err(|(slot, error)| CollectiveError::Machine { slot, error })?;
        self.slots_used += schedule.slot_count();
        Ok(())
    }

    /// **Broadcast**: everyone receives the root's `value`. 1 slot.
    pub fn broadcast<T: Clone>(
        &mut self,
        root: ProcessorId,
        value: T,
    ) -> Result<Vec<T>, CollectiveError> {
        let frame = pops_network::patterns::one_to_all(&self.topology, root, root);
        let schedule = Schedule { slots: vec![frame] };
        let mut sim = Simulator::with_unit_packets(self.topology);
        self.run(&mut sim, &schedule)?;
        let n = self.topology.n();
        if sim.holders_of(root).len() != n {
            return Err(DeliveryError::Misplaced {
                packet: root,
                expected: root,
                actual: sim.holders_of(root).to_vec(),
            }
            .into());
        }
        Ok(vec![value; n])
    }

    /// **Multicast**: exactly the processors in `targets` receive the
    /// root's `value` (`None` elsewhere). 1 slot.
    pub fn multicast<T: Clone>(
        &mut self,
        root: ProcessorId,
        value: T,
        targets: &[ProcessorId],
    ) -> Result<Vec<Option<T>>, CollectiveError> {
        let frame = movement::multicast(&self.topology, root, root, targets);
        let schedule = Schedule { slots: vec![frame] };
        let mut sim = Simulator::with_unit_packets(self.topology);
        if !targets.is_empty() {
            self.run(&mut sim, &schedule)?;
        }
        let mut out = vec![None; self.topology.n()];
        for &t in targets {
            out[t] = Some(value.clone());
        }
        Ok(out)
    }

    /// **Scatter**: the root holds `pieces` (one per processor); processor
    /// `p` receives `pieces[p]`. `n − 1` slots (optimal).
    ///
    /// # Panics
    ///
    /// Panics if `pieces.len() != n`.
    pub fn scatter<T: Clone>(
        &mut self,
        root: ProcessorId,
        pieces: Vec<T>,
    ) -> Result<Vec<T>, CollectiveError> {
        let n = self.topology.n();
        assert_eq!(pieces.len(), n, "one piece per processor");
        let schedule = movement::scatter(&self.topology, root);
        let mut sim = Simulator::with_placement(self.topology, &vec![root; n]);
        self.run(&mut sim, &schedule)?;
        sim.verify_delivery(&(0..n).collect::<Vec<_>>())?;
        Ok(pieces)
    }

    /// **Gather**: processor `p` contributes `contributions[p]`; the root
    /// ends up with all of them, in processor order. `n − 1` slots
    /// (optimal).
    ///
    /// # Panics
    ///
    /// Panics if `contributions.len() != n`.
    pub fn gather<T: Clone>(
        &mut self,
        root: ProcessorId,
        contributions: Vec<T>,
    ) -> Result<Vec<T>, CollectiveError> {
        let n = self.topology.n();
        assert_eq!(contributions.len(), n, "one contribution per processor");
        let schedule = movement::gather(&self.topology, root);
        let mut sim = Simulator::with_unit_packets(self.topology);
        self.run(&mut sim, &schedule)?;
        for p in 0..n {
            if sim.holders_of(p) != [root] {
                return Err(DeliveryError::Misplaced {
                    packet: p,
                    expected: root,
                    actual: sim.holders_of(p).to_vec(),
                }
                .into());
            }
        }
        Ok(contributions)
    }

    /// **All-gather**: everyone ends up with every contribution, in
    /// processor order. `n` slots.
    ///
    /// # Panics
    ///
    /// Panics if `contributions.len() != n`.
    pub fn all_gather<T: Clone>(
        &mut self,
        contributions: Vec<T>,
    ) -> Result<Vec<Vec<T>>, CollectiveError> {
        let n = self.topology.n();
        assert_eq!(contributions.len(), n, "one contribution per processor");
        let schedule = movement::all_gather(&self.topology);
        let mut sim = Simulator::with_unit_packets(self.topology);
        self.run(&mut sim, &schedule)?;
        for p in 0..n {
            if sim.holders_of(p).len() != n {
                return Err(DeliveryError::Misplaced {
                    packet: p,
                    expected: p,
                    actual: sim.holders_of(p).to_vec(),
                }
                .into());
            }
        }
        Ok(vec![contributions; n])
    }

    /// **All-to-all personalized exchange**: `sends[i][j]` is the piece
    /// processor `i` addresses to processor `j`; the result's `[j][i]` is
    /// the piece `j` received from `i` (i.e. the transpose). `(n − 1) ·
    /// theorem2_slots(d, g)` slots via routed rotations, each round
    /// verified on the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `sends` is not an `n × n` matrix.
    pub fn all_to_all<T: Clone>(
        &mut self,
        sends: Vec<Vec<T>>,
    ) -> Result<Vec<Vec<T>>, CollectiveError> {
        let n = self.topology.n();
        assert_eq!(sends.len(), n, "one send row per processor");
        for (i, row) in sends.iter().enumerate() {
            assert_eq!(row.len(), n, "send row {i} must have n entries");
        }
        let plan = movement::all_to_all_personalized(&self.topology);
        for (idx, round) in plan.rounds.iter().enumerate() {
            let k = idx + 1;
            let mut sim = Simulator::with_unit_packets(self.topology);
            self.run(&mut sim, &round.schedule)?;
            let dest: Vec<usize> = (0..n).map(|i| (i + k) % n).collect();
            sim.verify_delivery(&dest)?;
        }
        // Verified: round k moved piece i → i + k for every i. Assemble the
        // receive matrix: received[j][i] = sends[i][j].
        let mut received: Vec<Vec<T>> = vec![Vec::with_capacity(n); n];
        for row in sends.iter() {
            for (j, piece) in row.iter().enumerate() {
                received[j].push(piece.clone());
            }
        }
        Ok(received)
    }

    /// Routed **circular shift**: the result's entry `(i + amount) mod n`
    /// is the input's entry `i`. `theorem2_slots(d, g)` slots; a zero shift
    /// is a free no-op.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n`.
    pub fn shift<T: Clone>(
        &mut self,
        values: Vec<T>,
        amount: usize,
    ) -> Result<Vec<T>, CollectiveError> {
        let n = self.topology.n();
        assert_eq!(values.len(), n, "one value per processor");
        if n == 1 || amount.is_multiple_of(n) {
            return Ok(values);
        }
        let plan = movement::circular_shift(&self.topology, amount);
        let mut sim = Simulator::with_unit_packets(self.topology);
        self.run(&mut sim, &plan.schedule)?;
        let dest: Vec<usize> = (0..n).map(|i| (i + amount) % n).collect();
        sim.verify_delivery(&dest)?;
        let mut out = values.clone();
        for (i, v) in values.into_iter().enumerate() {
            out[(i + amount) % n] = v;
        }
        Ok(out)
    }

    /// **Reduce** to `root`: folds every processor's contribution with
    /// `op` at the root (left fold in processor order — use an
    /// associative, commutative `op` if order must not matter). Built on
    /// the gather, so `n − 1` slots — receive-bound optimal for a single
    /// root.
    ///
    /// For the *all*-reduce (every processor wants the total), see the
    /// tree-based `pops_algorithms::reduce::data_sum`, which pays
    /// `log₂(n) · theorem2_slots(d, g)` instead; the crossover between the
    /// two is exactly `n − 1` vs that product.
    ///
    /// # Panics
    ///
    /// Panics if `contributions.len() != n` or `n == 0`.
    pub fn reduce<T: Clone>(
        &mut self,
        root: ProcessorId,
        contributions: Vec<T>,
        op: impl Fn(&T, &T) -> T,
    ) -> Result<T, CollectiveError> {
        let gathered = self.gather(root, contributions)?;
        let mut it = gathered.iter();
        let first = it.next().expect("n >= 1").clone();
        Ok(it.fold(first, |acc, x| op(&acc, x)))
    }

    /// **Reduce-scatter**: processor `i` contributes `sends[i]` (one value
    /// addressed to each processor); processor `j` ends with the fold of
    /// `sends[0][j], …, sends[n−1][j]`. Built on the all-to-all, so
    /// `(n − 1) · theorem2_slots(d, g)` slots.
    ///
    /// # Panics
    ///
    /// Panics if `sends` is not `n × n`.
    pub fn reduce_scatter<T: Clone>(
        &mut self,
        sends: Vec<Vec<T>>,
        op: impl Fn(&T, &T) -> T,
    ) -> Result<Vec<T>, CollectiveError> {
        let received = self.all_to_all(sends)?;
        Ok(received
            .into_iter()
            .map(|column| {
                let mut it = column.into_iter();
                let first = it.next().expect("n >= 1");
                it.fold(first, |acc, x| op(&acc, &x))
            })
            .collect())
    }

    /// **Barrier** through `root`: returns once every processor has
    /// reported and the release token has reached everyone. `n` slots.
    pub fn barrier(&mut self, root: ProcessorId) -> Result<(), CollectiveError> {
        let schedule = movement::barrier(&self.topology, root);
        let mut sim = Simulator::with_unit_packets(self.topology);
        self.run(&mut sim, &schedule)?;
        let n = self.topology.n();
        if sim.holders_of(root).len() != n {
            return Err(DeliveryError::Misplaced {
                packet: root,
                expected: root,
                actual: sim.holders_of(root).to_vec(),
            }
            .into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;

    #[test]
    fn broadcast_replicates_and_bills_one_slot() {
        let mut eng = CollectiveEngine::new(PopsTopology::new(3, 3));
        let got = eng.broadcast(4, "hello").unwrap();
        assert_eq!(got, vec!["hello"; 9]);
        assert_eq!(eng.slots_used(), 1);
    }

    #[test]
    fn scatter_distributes_pieces() {
        let t = PopsTopology::new(2, 3);
        let mut eng = CollectiveEngine::new(t);
        let pieces: Vec<u32> = (0..6).map(|i| i * 10).collect();
        let got = eng.scatter(1, pieces.clone()).unwrap();
        assert_eq!(got, pieces);
        assert_eq!(eng.slots_used(), cost::scatter_slots(&t));
    }

    #[test]
    fn gather_collects_in_processor_order() {
        let t = PopsTopology::new(2, 2);
        let mut eng = CollectiveEngine::new(t);
        let got = eng.gather(3, vec!["a", "b", "c", "d"]).unwrap();
        assert_eq!(got, vec!["a", "b", "c", "d"]);
        assert_eq!(eng.slots_used(), cost::gather_slots(&t));
    }

    #[test]
    fn all_gather_gives_everyone_everything() {
        let t = PopsTopology::new(2, 2);
        let mut eng = CollectiveEngine::new(t);
        let got = eng.all_gather(vec![1u8, 2, 3, 4]).unwrap();
        assert_eq!(got.len(), 4);
        for copy in got {
            assert_eq!(copy, vec![1, 2, 3, 4]);
        }
        assert_eq!(eng.slots_used(), cost::all_gather_slots(&t));
    }

    #[test]
    fn all_to_all_transposes_the_send_matrix() {
        let t = PopsTopology::new(2, 2);
        let n = t.n();
        let mut eng = CollectiveEngine::new(t);
        let sends: Vec<Vec<(usize, usize)>> =
            (0..n).map(|i| (0..n).map(|j| (i, j)).collect()).collect();
        let got = eng.all_to_all(sends).unwrap();
        for (j, row) in got.iter().enumerate() {
            for (i, &piece) in row.iter().enumerate() {
                assert_eq!(piece, (i, j), "piece from {i} to {j}");
            }
        }
        assert_eq!(eng.slots_used(), cost::all_to_all_slots(&t));
    }

    #[test]
    fn shift_rotates_values() {
        let t = PopsTopology::new(3, 2);
        let mut eng = CollectiveEngine::new(t);
        let got = eng.shift(vec![0, 1, 2, 3, 4, 5], 2).unwrap();
        assert_eq!(got, vec![4, 5, 0, 1, 2, 3]);
        assert_eq!(eng.slots_used(), cost::shift_slots(&t));
    }

    #[test]
    fn zero_shift_is_free() {
        let t = PopsTopology::new(2, 2);
        let mut eng = CollectiveEngine::new(t);
        let got = eng.shift(vec![9, 8, 7, 6], 4).unwrap();
        assert_eq!(got, vec![9, 8, 7, 6]);
        assert_eq!(eng.slots_used(), 0);
    }

    #[test]
    fn multicast_hits_exactly_the_targets() {
        let t = PopsTopology::new(3, 3);
        let mut eng = CollectiveEngine::new(t);
        let got = eng.multicast(0, 7u32, &[2, 5, 8]).unwrap();
        for (p, v) in got.iter().enumerate() {
            assert_eq!(v.is_some(), p == 2 || p == 5 || p == 8, "processor {p}");
        }
        assert_eq!(eng.slots_used(), 1);
    }

    #[test]
    fn empty_multicast_is_free() {
        let t = PopsTopology::new(2, 2);
        let mut eng = CollectiveEngine::new(t);
        let got = eng.multicast(0, 7u32, &[]).unwrap();
        assert!(got.iter().all(Option::is_none));
        assert_eq!(eng.slots_used(), 0);
    }

    #[test]
    fn reduce_folds_in_processor_order() {
        let t = PopsTopology::new(2, 3);
        let mut eng = CollectiveEngine::new(t);
        let total = eng
            .reduce(4, vec![1u64, 2, 3, 4, 5, 6], |a, b| a + b)
            .unwrap();
        assert_eq!(total, 21);
        assert_eq!(eng.slots_used(), cost::gather_slots(&t));
        // Non-commutative op exposes the documented left-fold order.
        let mut eng = CollectiveEngine::new(t);
        let concat = eng
            .reduce(0, vec!["a", "b", "c", "d", "e", "f"], |x, y| {
                Box::leak(format!("{x}{y}").into_boxed_str())
            })
            .unwrap();
        assert_eq!(concat, "abcdef");
    }

    #[test]
    fn reduce_scatter_folds_columns() {
        let t = PopsTopology::new(2, 2);
        let n = t.n();
        let mut eng = CollectiveEngine::new(t);
        // sends[i][j] = 10^i placed in column j → column sum 1111.
        let sends: Vec<Vec<u64>> = (0..n).map(|i| vec![10u64.pow(i as u32); n]).collect();
        let out = eng.reduce_scatter(sends, |a, b| a + b).unwrap();
        assert_eq!(out, vec![1111; n]);
        assert_eq!(eng.slots_used(), cost::all_to_all_slots(&t));
    }

    #[test]
    fn reduce_on_single_processor_is_local() {
        let t = PopsTopology::new(1, 1);
        let mut eng = CollectiveEngine::new(t);
        let total = eng.reduce(0, vec![42u32], |a, b| a + b).unwrap();
        assert_eq!(total, 42);
        assert_eq!(eng.slots_used(), 0);
    }

    #[test]
    fn barrier_completes_and_bills_n_slots() {
        let t = PopsTopology::new(2, 3);
        let mut eng = CollectiveEngine::new(t);
        eng.barrier(2).unwrap();
        assert_eq!(eng.slots_used(), cost::barrier_slots(&t));
    }

    #[test]
    fn slot_bill_accumulates_across_collectives() {
        let t = PopsTopology::new(2, 2);
        let mut eng = CollectiveEngine::new(t);
        eng.broadcast(0, 1u8).unwrap();
        eng.barrier(0).unwrap();
        let expected = cost::broadcast_slots(&t) + cost::barrier_slots(&t);
        assert_eq!(eng.slots_used(), expected);
    }

    #[test]
    #[should_panic(expected = "one piece per processor")]
    fn scatter_checks_piece_count() {
        let mut eng = CollectiveEngine::new(PopsTopology::new(2, 2));
        let _ = eng.scatter(0, vec![1u8]);
    }

    #[test]
    fn works_on_pops_1_n_and_pops_n_1() {
        for t in [PopsTopology::new(1, 6), PopsTopology::new(6, 1)] {
            let mut eng = CollectiveEngine::new(t);
            let all = eng.all_gather((0..6).collect::<Vec<_>>()).unwrap();
            assert_eq!(all[3], (0..6).collect::<Vec<_>>());
            let shifted = eng.shift((0..6).collect::<Vec<_>>(), 1).unwrap();
            assert_eq!(shifted, vec![5, 0, 1, 2, 3, 4]);
        }
    }
}

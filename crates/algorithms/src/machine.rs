//! The [`ValueMachine`]: per-processor values plus simulation-backed data
//! movement — the SIMD substrate for the algorithms in this crate.
//!
//! A step of POPS computation (§1 of the paper) is: local computation, one
//! send, one receive. The machine exposes exactly that: [`ValueMachine::map`]
//! for the local part, and
//! [`ValueMachine::permute`] for the communication part. `permute` routes
//! the permutation with the Theorem-2 router, **executes the schedule on
//! the machine-model simulator** (so the movement is proven legal, not
//! assumed), counts the slots, and then applies the movement to the values.

use pops_core::router::theorem2_slots;
use pops_core::verify::{route_and_verify, RoutingFailure};
use pops_network::PopsTopology;
use pops_permutation::Permutation;

/// A POPS machine with one value of type `T` per processor.
#[derive(Debug, Clone)]
pub struct ValueMachine<T> {
    topology: PopsTopology,
    values: Vec<T>,
    slots_used: usize,
}

impl<T: Clone> ValueMachine<T> {
    /// Creates a machine holding `values` (one per processor).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != topology.n()`.
    pub fn new(topology: PopsTopology, values: Vec<T>) -> Self {
        assert_eq!(values.len(), topology.n(), "one value per processor");
        Self {
            topology,
            values,
            slots_used: 0,
        }
    }

    /// The machine's topology.
    pub fn topology(&self) -> &PopsTopology {
        &self.topology
    }

    /// The current values, indexed by processor.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Consumes the machine, returning the values.
    pub fn into_values(self) -> Vec<T> {
        self.values
    }

    /// Total communication slots consumed so far — the cost measure of the
    /// paper.
    pub fn slots_used(&self) -> usize {
        self.slots_used
    }

    /// The slot cost `permute` will charge: [`theorem2_slots`] for this
    /// topology.
    pub fn slots_per_permutation(&self) -> usize {
        theorem2_slots(self.topology.d(), self.topology.g())
    }

    /// Local computation: replaces each value with `f(processor, value)`.
    pub fn map(&mut self, mut f: impl FnMut(usize, &T) -> T) {
        self.values = self
            .values
            .iter()
            .enumerate()
            .map(|(p, v)| f(p, v))
            .collect();
    }

    /// Moves values according to `pi`: the value at processor `i` travels
    /// to processor `π(i)`. The permutation is routed with the Theorem-2
    /// router and the schedule is executed on the simulator before the
    /// values move; any machine-model conflict surfaces as an error (the
    /// router never produces one — this is the safety net).
    pub fn permute(&mut self, pi: &Permutation) -> Result<(), RoutingFailure> {
        assert_eq!(pi.len(), self.values.len(), "permutation size mismatch");
        let verdict = route_and_verify(pi, self.topology.d(), self.topology.g())?;
        self.slots_used += verdict.slots;
        let mut moved = self.values.clone();
        for (i, v) in self.values.iter().enumerate() {
            moved[pi.apply(i)] = v.clone();
        }
        self.values = moved;
        Ok(())
    }

    /// Communication + combine in one SIMD step: moves a *copy* of the
    /// values along `pi` and combines each processor's value with the
    /// arriving one: `v[π(i)] = combine(v_old[π(i)], v_old[i])`.
    ///
    /// This is the exchange-and-accumulate primitive the reduction and
    /// scan algorithms are built from. Costs one routed permutation.
    pub fn exchange_combine(
        &mut self,
        pi: &Permutation,
        mut combine: impl FnMut(&T, &T) -> T,
    ) -> Result<(), RoutingFailure> {
        self.exchange_combine_indexed(pi, |_, mine, arriving| combine(mine, arriving))
    }

    /// Like [`ValueMachine::exchange_combine`], with the combiner also
    /// given the destination processor's index — needed by algorithms
    /// whose combine step depends on position (e.g. the prefix-sum sweep,
    /// which only folds the partner's total into processors whose relevant
    /// index bit is set).
    pub fn exchange_combine_indexed(
        &mut self,
        pi: &Permutation,
        mut combine: impl FnMut(usize, &T, &T) -> T,
    ) -> Result<(), RoutingFailure> {
        assert_eq!(pi.len(), self.values.len(), "permutation size mismatch");
        let verdict = route_and_verify(pi, self.topology.d(), self.topology.g())?;
        self.slots_used += verdict.slots;
        let old = self.values.clone();
        for (i, v) in old.iter().enumerate() {
            let dest = pi.apply(i);
            self.values[dest] = combine(dest, &old[dest], v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_permutation::families::{rotation, vector_reversal};

    #[test]
    fn permute_moves_values_and_counts_slots() {
        let t = PopsTopology::new(2, 3);
        let mut m = ValueMachine::new(t, (0..6).collect());
        let pi = vector_reversal(6);
        m.permute(&pi).unwrap();
        assert_eq!(m.values(), &[5, 4, 3, 2, 1, 0]);
        assert_eq!(m.slots_used(), 2); // 2*ceil(2/3) = 2
    }

    #[test]
    fn map_is_local_and_free() {
        let t = PopsTopology::new(2, 2);
        let mut m = ValueMachine::new(t, vec![1, 2, 3, 4]);
        m.map(|p, v| v + p);
        assert_eq!(m.values(), &[1, 3, 5, 7]);
        assert_eq!(m.slots_used(), 0);
    }

    #[test]
    fn exchange_combine_accumulates() {
        let t = PopsTopology::new(2, 2);
        let mut m = ValueMachine::new(t, vec![1u64, 10, 100, 1000]);
        let pi = rotation(4, 1);
        m.exchange_combine(&pi, |mine, arriving| mine + arriving)
            .unwrap();
        // Value i travels to i+1; each processor adds the arrival.
        assert_eq!(m.values(), &[1 + 1000, 10 + 1, 100 + 10, 1000 + 100]);
    }

    #[test]
    fn slot_accounting_accumulates() {
        let t = PopsTopology::new(4, 2); // theorem2 = 4
        let mut m = ValueMachine::new(t, (0..8).collect());
        assert_eq!(m.slots_per_permutation(), 4);
        m.permute(&rotation(8, 2)).unwrap();
        m.permute(&rotation(8, 6)).unwrap();
        assert_eq!(m.slots_used(), 8);
        assert_eq!(m.values(), &(0..8).collect::<Vec<_>>()[..]); // rotated back
    }

    #[test]
    #[should_panic(expected = "one value per processor")]
    fn rejects_wrong_value_count() {
        let _ = ValueMachine::new(PopsTopology::new(2, 2), vec![1]);
    }
}

//! Dynamic ambipolar logic — the §2.2 background designs the paper builds
//! on: the **generalized NOR (GNOR)** dynamic gate of Ben Jamaa et al.
//! (DAC'08), the core block of in-field programmable PLAs.
//!
//! A dynamic GNOR precharges its output high, then evaluates a pull-down
//! network of ambipolar devices: term `i` conducts iff `a_i ⊕ c_i = 1`,
//! where `c_i` is an in-field polarity-programming signal. The output
//! after evaluation is `!( OR_i (a_i ⊕ c_i) )` — a NOR whose every input
//! can be polarity-flipped without rewiring.

use logic::TruthTable;

/// Clock phase of a dynamic gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Output precharged to V_DD; inputs ignored.
    Precharge,
    /// Pull-down network evaluates; output conditionally discharges.
    Evaluate,
}

/// A dynamic generalized-NOR gate with `width` programmable terms.
///
/// # Example
///
/// ```
/// use gate_lib::dynamic::{DynamicGnor, Phase};
///
/// let gnor = DynamicGnor::new(2);
/// // Programmed as plain NOR (polarity bits low):
/// assert!(gnor.evaluate(&[false, false], &[false, false]));
/// assert!(!gnor.evaluate(&[true, false], &[false, false]));
/// // Re-programmed in-field: first input polarity flipped.
/// assert!(!gnor.evaluate(&[false, false], &[true, false]));
/// ```
#[derive(Clone, Debug)]
pub struct DynamicGnor {
    width: usize,
}

impl DynamicGnor {
    /// Creates a GNOR with the given number of input terms.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds six (truth-table limit — the
    /// physical design has no such bound).
    pub fn new(width: usize) -> Self {
        assert!((1..=6).contains(&width), "width must be in 1..=6");
        Self { width }
    }

    /// Number of input terms.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Transistor count: one ambipolar device per term, plus the
    /// precharge PMOS and the foot NMOS clock device.
    pub fn transistor_count(&self) -> usize {
        self.width + 2
    }

    /// The evaluated output for data `inputs` and programming bits
    /// `polarity`: `!( OR_i (inputs[i] ⊕ polarity[i]) )`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from the gate width.
    pub fn evaluate(&self, inputs: &[bool], polarity: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.width, "data arity mismatch");
        assert_eq!(polarity.len(), self.width, "programming arity mismatch");
        !inputs.iter().zip(polarity.iter()).any(|(&a, &c)| a ^ c)
    }

    /// Output voltage semantics per phase (behavioural clock model).
    pub fn output(&self, phase: Phase, inputs: &[bool], polarity: &[bool]) -> bool {
        match phase {
            Phase::Precharge => true,
            Phase::Evaluate => self.evaluate(inputs, polarity),
        }
    }

    /// The programmed logic function over the data inputs for a fixed
    /// polarity configuration.
    fn programmed_function(&self, polarity: &[bool]) -> TruthTable {
        assert_eq!(polarity.len(), self.width, "programming arity mismatch");
        TruthTable::from_fn(self.width, |inputs| self.evaluate(inputs, polarity))
    }

    /// Number of distinct logic functions reachable by reprogramming the
    /// polarity bits — the expressive-power angle of DAC'08.
    pub fn programmable_function_count(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for code in 0..(1usize << self.width) {
            let polarity: Vec<bool> = (0..self.width).map(|i| (code >> i) & 1 == 1).collect();
            set.insert(self.programmed_function(&polarity).bits());
        }
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Literal, SpNetwork};

    /// The pull-down network during evaluation: parallel ambipolar
    /// devices; an input with polarity bit `c` conducts on `a ⊕ c`.
    /// Variables `0..width` are data inputs, `width..2·width` polarity
    /// programming inputs.
    fn pull_down_network(g: &DynamicGnor) -> SpNetwork {
        SpNetwork::Parallel(
            (0..g.width)
                .map(|i| SpNetwork::tg(Literal::pos((g.width + i) as u8), Literal::pos(i as u8)))
                .collect(),
        )
    }

    #[test]
    fn plain_nor_configuration() {
        let g = DynamicGnor::new(3);
        let pol = [false, false, false];
        for m in 0..8usize {
            let inputs: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(g.evaluate(&inputs, &pol), m == 0, "minterm {m}");
        }
    }

    #[test]
    fn polarity_bits_flip_inputs() {
        let g = DynamicGnor::new(2);
        // With c = [1, 0]: output = !( !a | b ) = a & !b.
        let f = g.programmed_function(&[true, false]);
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!(f, a & !b);
    }

    #[test]
    fn every_polarity_code_gives_distinct_function() {
        let g = DynamicGnor::new(3);
        assert_eq!(g.programmable_function_count(), 8);
        assert_eq!(g.transistor_count(), 5);
    }

    #[test]
    fn precharge_forces_high() {
        let g = DynamicGnor::new(2);
        assert!(g.output(Phase::Precharge, &[true, true], &[false, false]));
        assert!(!g.output(Phase::Evaluate, &[true, true], &[false, false]));
    }

    #[test]
    fn pull_down_network_matches_evaluation() {
        // The structural network over (data ++ polarity) variables must
        // conduct exactly when the output evaluates low.
        let g = DynamicGnor::new(2);
        let net = pull_down_network(&g);
        for m in 0..16usize {
            let all: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            let (inputs, polarity) = all.split_at(2);
            assert_eq!(
                net.conducts(&all),
                !g.evaluate(inputs, polarity),
                "assignment {m:04b}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=6")]
    fn rejects_zero_width() {
        let _ = DynamicGnor::new(0);
    }
}

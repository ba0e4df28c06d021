//! 64-way bit-parallel simulation of AIGs.

use crate::graph::{Aig, Lit, Node};

/// Simulates the AIG on 64 parallel input patterns.
///
/// `inputs[i]` carries 64 values of primary input `i` (bit k = pattern k).
/// Returns one word per primary output.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the AIG's input count.
pub fn simulate64(aig: &Aig, inputs: &[u64]) -> Vec<u64> {
    let values = node_values64(aig, inputs);
    aig.output_lits()
        .iter()
        .map(|l| lit_word(*l, &values))
        .collect()
}

/// Simulates and returns the value word of *every node* (for cut truth
/// tables, activity extraction, etc.).
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the AIG's input count.
pub fn node_values64(aig: &Aig, inputs: &[u64]) -> Vec<u64> {
    assert_eq!(inputs.len(), aig.input_count(), "input word count mismatch");
    let mut values = vec![0u64; aig.len()];
    for (i, node) in aig.nodes().enumerate() {
        values[i] = match node {
            Node::Const => 0,
            Node::Input(k) => inputs[k as usize],
            Node::And(a, b) => lit_word(a, &values) & lit_word(b, &values),
        };
    }
    values
}

/// Reads a literal's word from node values.
pub fn lit_word(lit: Lit, values: &[u64]) -> u64 {
    let v = values[lit.node() as usize];
    if lit.is_complement() {
        !v
    } else {
        v
    }
}

/// The xorshift64* pattern generator shared by every simulation-based
/// checker in the workspace (the equivalence sweeper's signature words,
/// `techmap`'s simulation verifier): one algorithm, one seeding rule, so
/// fixed-seed runs stay reproducible across call sites.
#[derive(Clone, Copy, Debug)]
pub struct PatternRng {
    state: u64,
}

impl PatternRng {
    /// A generator seeded with `seed` (zero is mapped to a nonzero state).
    pub fn new(seed: u64) -> Self {
        Self { state: seed | 1 }
    }

    /// The next 64-pattern random word.
    pub fn next_word(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Evaluates the AIG on a single assignment (convenience for tests).
pub fn evaluate(aig: &Aig, inputs: &[bool]) -> Vec<bool> {
    let words: Vec<u64> = inputs
        .iter()
        .map(|&b| if b { u64::MAX } else { 0 })
        .collect();
    simulate64(aig, &words)
        .iter()
        .map(|&w| w & 1 == 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_truth_by_simulation() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.xor(a, b);
        aig.output(x);
        // Pattern k: a = bit0 of k, b = bit1 of k (4 patterns).
        let out = simulate64(&aig, &[0b0101, 0b0011]);
        assert_eq!(out[0] & 0xF, 0b0110);
    }

    #[test]
    fn evaluate_full_adder() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let cin = aig.input();
        let ab = aig.xor(a, b);
        let sum = aig.xor(ab, cin);
        let c1 = aig.and(a, b);
        let c2 = aig.and(ab, cin);
        let cout = aig.or(c1, c2);
        aig.output(sum);
        aig.output(cout);
        for i in 0..8u32 {
            let bits = [(i & 1) == 1, (i >> 1) & 1 == 1, (i >> 2) & 1 == 1];
            let expect_sum = (bits[0] as u32 + bits[1] as u32 + bits[2] as u32) & 1 == 1;
            let expect_cout = (bits[0] as u32 + bits[1] as u32 + bits[2] as u32) >= 2;
            let out = evaluate(&aig, &bits);
            assert_eq!(out[0], expect_sum, "sum at {bits:?}");
            assert_eq!(out[1], expect_cout, "cout at {bits:?}");
        }
    }

    #[test]
    fn complemented_outputs() {
        let mut aig = Aig::new();
        let a = aig.input();
        aig.output(a.not());
        assert_eq!(evaluate(&aig, &[true]), vec![false]);
        assert_eq!(evaluate(&aig, &[false]), vec![true]);
    }

    #[test]
    fn constant_output() {
        let mut aig = Aig::new();
        let _ = aig.input();
        aig.output(Lit::TRUE);
        assert_eq!(evaluate(&aig, &[false]), vec![true]);
    }
}

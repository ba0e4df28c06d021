//! The and-inverter graph: nodes, literals, structural hashing, builders.
//!
//! The arena is stored struct-of-arrays: parallel `fanin0`/`fanin1`/
//! `level`/`refs` vectors instead of one `Vec<Node>`. The hot loops (cut
//! enumeration, rewriting, simulation, sweeping) stream over one or two
//! of these attributes at a time, so splitting them keeps cache lines
//! dense at the 100k–1M-node scale; levels and fanout reference counts
//! are maintained incrementally on construction, turning the repeated
//! O(n) recomputes the optimization passes used to do into slice reads.

use std::collections::HashMap;

/// A literal: an AIG node reference with a complement bit in bit 0.
///
/// `Lit(0)` is constant false, `Lit(1)` constant true.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub u32);

impl Lit {
    /// Constant false.
    pub const FALSE: Lit = Lit(0);
    /// Constant true.
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a node index and complement flag.
    pub fn new(node: u32, complement: bool) -> Self {
        Lit((node << 1) | u32::from(complement))
    }

    /// The node this literal refers to.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the literal is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal (`!x`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Lit(self.0 ^ 1)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// One AIG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Node {
    /// The constant-false node (always node 0).
    Const,
    /// Primary input (with its input ordinal).
    Input(u32),
    /// Two-input AND of two literals (ordered `a.0 <= b.0`).
    And(Lit, Lit),
}

/// `fanin0` marker for non-AND rows (the constant and primary inputs);
/// cannot collide with a literal because node indices are `< u32::MAX/2`.
const INPUT_MARK: u32 = u32::MAX;

/// A structurally hashed and-inverter graph (struct-of-arrays arena).
#[derive(Clone, Debug, Default)]
pub struct Aig {
    /// First fanin literal bits per node; [`INPUT_MARK`] for the constant
    /// and for primary inputs.
    fanin0: Vec<u32>,
    /// Second fanin literal bits per node; the input ordinal for primary
    /// inputs, unused for the constant.
    fanin1: Vec<u32>,
    /// Logic level (depth in AND nodes) per node, maintained on insert.
    level: Vec<u32>,
    /// Fanout reference count per node (AND fanin edges + output edges),
    /// maintained on insert.
    refs: Vec<u32>,
    /// Number of AND nodes.
    n_ands: usize,
    inputs: Vec<u32>,
    outputs: Vec<Lit>,
    strash: HashMap<(u32, u32), u32>,
}

impl Aig {
    /// Creates an empty AIG (just the constant node).
    pub fn new() -> Self {
        Self {
            fanin0: vec![INPUT_MARK],
            fanin1: vec![INPUT_MARK],
            level: vec![0],
            refs: vec![0],
            n_ands: 0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// Adds a primary input, returning its (positive) literal.
    pub fn input(&mut self) -> Lit {
        let idx = self.fanin0.len() as u32;
        self.fanin0.push(INPUT_MARK);
        self.fanin1.push(self.inputs.len() as u32);
        self.level.push(0);
        self.refs.push(0);
        self.inputs.push(idx);
        Lit::new(idx, false)
    }

    /// Registers `lit` as the next primary output.
    pub fn output(&mut self, lit: Lit) {
        debug_assert!((lit.node() as usize) < self.len(), "dangling literal");
        self.refs[lit.node() as usize] += 1;
        self.outputs.push(lit);
    }

    /// AND of two literals, with constant folding, trivial-case reduction
    /// and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if let Some(lit) = self.find_and(a, b) {
            return lit;
        }
        let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let idx = self.fanin0.len() as u32;
        self.fanin0.push(x.0);
        self.fanin1.push(y.0);
        self.level
            .push(1 + self.level[x.node() as usize].max(self.level[y.node() as usize]));
        self.refs.push(0);
        self.refs[x.node() as usize] += 1;
        self.refs[y.node() as usize] += 1;
        self.n_ands += 1;
        self.strash.insert((x.0, y.0), idx);
        Lit::new(idx, false)
    }

    /// What [`Aig::and`] would return *without inserting a node*: the
    /// folded constant/trivial result, the structurally hashed existing
    /// node, or `None` when the AND would have to allocate. Lets callers
    /// (the rewriting engine's gain accounting) price a candidate
    /// subgraph against the strash before committing to build it.
    pub fn find_and(&self, a: Lit, b: Lit) -> Option<Lit> {
        // Constant / trivial cases.
        if a == Lit::FALSE || b == Lit::FALSE || a == b.not() {
            return Some(Lit::FALSE);
        }
        if a == Lit::TRUE {
            return Some(b);
        }
        if b == Lit::TRUE || a == b {
            return Some(a);
        }
        let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.strash.get(&(x.0, y.0)).map(|&n| Lit::new(n, false))
    }

    /// OR via DeMorgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.not(), b.not()).not()
    }

    /// XOR built from three ANDs (the standard AIG decomposition).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let ab = self.and(a, b.not());
        let ba = self.and(a.not(), b);
        self.or(ab, ba)
    }

    /// XNOR.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        self.xor(a, b).not()
    }

    /// Multiplexer: `sel ? t : e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let st = self.and(sel, t);
        let se = self.and(sel.not(), e);
        self.or(st, se)
    }

    /// Conjunction of many literals (balanced).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => Lit::TRUE,
            [x] => *x,
            _ => {
                let mid = lits.len() / 2;
                let l = self.and_many(&lits[..mid]);
                let r = self.and_many(&lits[mid..]);
                self.and(l, r)
            }
        }
    }

    /// Disjunction of many literals (balanced).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let inv: Vec<Lit> = lits.iter().map(|l| l.not()).collect();
        self.and_many(&inv).not()
    }

    /// XOR of many literals (balanced parity tree).
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => Lit::FALSE,
            [x] => *x,
            _ => {
                let mid = lits.len() / 2;
                let l = self.xor_many(&lits[..mid]);
                let r = self.xor_many(&lits[mid..]);
                self.xor(l, r)
            }
        }
    }

    /// All nodes in index order (index 0 is the constant), synthesized
    /// on the fly from the struct-of-arrays columns.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = Node> + '_ {
        (0..self.len() as u32).map(|i| self.node(i))
    }

    /// Node accessor.
    pub fn node(&self, idx: u32) -> Node {
        let i = idx as usize;
        let f0 = self.fanin0[i];
        if f0 == INPUT_MARK {
            if i == 0 {
                Node::Const
            } else {
                Node::Input(self.fanin1[i])
            }
        } else {
            Node::And(Lit(f0), Lit(self.fanin1[i]))
        }
    }

    /// Whether two AIGs are structurally identical: same node arrays
    /// (fanins, input ordinals) and same output literals. This is
    /// bit-level identity, the relation the engine's thread-count
    /// determinism contract is stated in — far stronger than functional
    /// equivalence.
    pub fn same_structure(&self, other: &Aig) -> bool {
        self.fanin0 == other.fanin0 && self.fanin1 == other.fanin1 && self.outputs == other.outputs
    }

    /// Primary-input node indices, in input order.
    pub fn input_nodes(&self) -> &[u32] {
        &self.inputs
    }

    /// Primary-output literals, in output order.
    pub fn output_lits(&self) -> &[Lit] {
        &self.outputs
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of AND nodes (the synthesis cost metric).
    pub fn and_count(&self) -> usize {
        self.n_ands
    }

    /// Total node count including constant and inputs.
    pub fn len(&self) -> usize {
        self.fanin0.len()
    }

    /// Whether the AIG has no nodes besides the constant.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Logic level of every node, borrowed from the arena — maintained
    /// incrementally on insert, so this is free.
    pub fn node_levels(&self) -> &[u32] {
        &self.level
    }

    /// Logic level of one node.
    pub fn level(&self, idx: u32) -> u32 {
        self.level[idx as usize]
    }

    /// Depth of the network: maximum level over outputs.
    pub fn depth(&self) -> u32 {
        self.outputs
            .iter()
            .map(|l| self.level[l.node() as usize])
            .max()
            .unwrap_or(0)
    }

    /// Fanout reference count per node, borrowed from the arena —
    /// maintained incrementally on insert, so this is free.
    pub fn fanout_counts(&self) -> &[u32] {
        &self.refs
    }

    /// Rebuilds the AIG keeping only logic reachable from the outputs
    /// (removes dangling nodes); input count and order are preserved, and
    /// surviving AND nodes keep their relative (topological) order.
    pub fn cleanup(&self) -> Aig {
        let mut out = Aig::new();
        let mut map: Vec<Option<Lit>> = vec![None; self.len()];
        map[0] = Some(Lit::FALSE);
        // Inputs must all exist in the copy, in order.
        for &i in &self.inputs {
            let lit = out.input();
            map[i as usize] = Some(lit);
        }
        // Mark reachable nodes.
        let mut needed = vec![false; self.len()];
        let mut stack: Vec<u32> = self.outputs.iter().map(|l| l.node()).collect();
        while let Some(n) = stack.pop() {
            if needed[n as usize] {
                continue;
            }
            needed[n as usize] = true;
            if let Node::And(a, b) = self.node(n) {
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        // Copy in topological (index) order.
        for i in 0..self.len() {
            if !needed[i] || map[i].is_some() {
                continue;
            }
            if let Node::And(a, b) = self.node(i as u32) {
                let la = map[a.node() as usize].expect("fanin precedes node");
                let lb = map[b.node() as usize].expect("fanin precedes node");
                let fa = if a.is_complement() { la.not() } else { la };
                let fb = if b.is_complement() { lb.not() } else { lb };
                map[i] = Some(out.and(fa, fb));
            }
        }
        for o in &self.outputs {
            let l = map[o.node() as usize].expect("outputs are reachable");
            out.output(if o.is_complement() { l.not() } else { l });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let l = Lit::new(5, true);
        assert_eq!(l.node(), 5);
        assert!(l.is_complement());
        assert_eq!((!l).node(), 5);
        assert!(!(!l).is_complement());
    }

    #[test]
    fn constant_folding() {
        let mut aig = Aig::new();
        let a = aig.input();
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(Lit::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, a.not()), Lit::FALSE);
        assert_eq!(aig.and_count(), 0);
    }

    #[test]
    fn find_and_probes_without_inserting() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.and(a, b);
        let before = aig.len();
        // Folding cases resolve without allocation.
        assert_eq!(aig.find_and(a, Lit::FALSE), Some(Lit::FALSE));
        assert_eq!(aig.find_and(Lit::TRUE, b), Some(b));
        assert_eq!(aig.find_and(a, a), Some(a));
        assert_eq!(aig.find_and(a, a.not()), Some(Lit::FALSE));
        // Hashed node found in either operand order; unknown pairs miss.
        assert_eq!(aig.find_and(a, b), Some(x));
        assert_eq!(aig.find_and(b, a), Some(x));
        assert_eq!(aig.find_and(a, b.not()), None);
        assert_eq!(aig.len(), before, "probing must not allocate");
    }

    #[test]
    fn structural_hashing_dedups() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.and(a, b);
        let y = aig.and(b, a);
        assert_eq!(x, y);
        assert_eq!(aig.and_count(), 1);
    }

    #[test]
    fn xor_uses_three_ands() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let _ = aig.xor(a, b);
        assert_eq!(aig.and_count(), 3);
    }

    #[test]
    fn depth_and_levels() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.output(abc);
        assert_eq!(aig.depth(), 2);
        let levels = aig.node_levels();
        assert_eq!(levels[ab.node() as usize], 1);
        assert_eq!(levels[abc.node() as usize], 2);
        assert_eq!(aig.level(abc.node()), 2);
    }

    #[test]
    fn cleanup_drops_dangling() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let used = aig.and(a, b);
        let _dangling = aig.and(a, b.not());
        aig.output(used);
        assert_eq!(aig.and_count(), 2);
        let clean = aig.cleanup();
        assert_eq!(clean.and_count(), 1);
        assert_eq!(clean.input_count(), 2);
        assert_eq!(clean.output_count(), 1);
    }

    #[test]
    fn many_input_builders() {
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..5).map(|_| aig.input()).collect();
        let all = aig.and_many(&xs);
        let any = aig.or_many(&xs);
        let parity = aig.xor_many(&xs);
        aig.output(all);
        aig.output(any);
        aig.output(parity);
        // Spot-check with simulation in sim.rs tests; here check structure.
        assert!(aig.and_count() >= 4 + 4 + 4 * 3);
        assert_eq!(aig.and_many(&[]), Lit::TRUE);
        assert_eq!(aig.or_many(&[]), Lit::FALSE);
        assert_eq!(aig.xor_many(&[]), Lit::FALSE);
    }

    #[test]
    fn fanout_counts() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.and(a, b);
        let y = aig.and(x, a.not());
        aig.output(x);
        aig.output(y);
        let fan = aig.fanout_counts();
        assert_eq!(fan[a.node() as usize], 2);
        assert_eq!(fan[x.node() as usize], 2); // y + output
    }

    #[test]
    fn nodes_iterator_reconstructs_the_arena() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.and(a, b.not());
        aig.output(x);
        let all: Vec<Node> = aig.nodes().collect();
        assert_eq!(all.len(), aig.len());
        assert_eq!(all[0], Node::Const);
        assert_eq!(all[1], Node::Input(0));
        assert_eq!(all[2], Node::Input(1));
        assert_eq!(all[3], Node::And(a, b.not()));
    }

    #[test]
    fn same_structure_is_bit_identity() {
        let build = |flip: bool| {
            let mut aig = Aig::new();
            let a = aig.input();
            let b = aig.input();
            let x = if flip {
                aig.and(a, b.not())
            } else {
                aig.and(a, b)
            };
            aig.output(x);
            aig
        };
        assert!(build(false).same_structure(&build(false)));
        assert!(!build(false).same_structure(&build(true)));
    }

    #[test]
    fn incremental_levels_match_recompute() {
        // Levels maintained on insert must equal a from-scratch pass.
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..6).map(|_| aig.input()).collect();
        let f = aig.xor_many(&xs);
        let g = aig.and_many(&xs);
        let h = aig.and(f, g.not());
        aig.output(h);
        let mut expect = vec![0u32; aig.len()];
        for (i, n) in aig.nodes().enumerate() {
            if let Node::And(a, b) = n {
                expect[i] = 1 + expect[a.node() as usize].max(expect[b.node() as usize]);
            }
        }
        assert_eq!(aig.node_levels(), expect.as_slice());
    }
}

//! Combinational equivalence checking: random-simulation filtering closed
//! by SAT — sound and complete at every input count.
//!
//! The checker is a SAT sweeper in the spirit of ABC's `cec`/fraiging:
//! both networks are imported into one structurally hashed graph over
//! shared inputs, each new node is Tseitin-encoded into one incremental
//! solver as it is created, nodes are partitioned into
//! candidate-equivalence classes by 64-bit random simulation, and each
//! candidate is either *proven* equal to its class representative (a
//! budgeted SAT query) and merged, or *refuted* by a model that becomes
//! bit 0 of one new simulation word. The primary outputs are then proven
//! pairwise equal with unbounded queries, so [`Equivalence::Equal`] is a
//! theorem, not a sample — and a failed proof yields a concrete
//! [`Equivalence::Counterexample`] input pattern.
//!
//! [`check_equivalence`] is the crate's one equivalence decision: the
//! `dch` flow step ([`crate::choice`]) and the flow's debug soundness
//! gate run the same sweeper.

use crate::graph::{Aig, Lit, Node};
use crate::profile::{self, Work};
use sat::{SolveResult, Solver};
use std::collections::hash_map::{Entry, HashMap};

/// Outcome of an equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Equivalence {
    /// The two networks compute the same function (SAT-proven).
    Equal,
    /// A concrete input assignment (one bool per primary input, in input
    /// order) on which the networks disagree.
    Counterexample(Vec<bool>),
}

/// The two networks cannot be compared: their interface widths differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// `(left, right)` primary-input counts.
    pub inputs: (usize, usize),
    /// `(left, right)` primary-output counts.
    pub outputs: (usize, usize),
}

impl std::fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shape mismatch: {} vs {} inputs, {} vs {} outputs",
            self.inputs.0, self.inputs.1, self.outputs.0, self.outputs.1
        )
    }
}

impl std::error::Error for ShapeMismatch {}

/// `Err` unless `a` and `b` have the same input and output counts.
pub(crate) fn check_shapes(a: &Aig, b: &Aig) -> Result<(), ShapeMismatch> {
    if a.input_count() != b.input_count() || a.output_count() != b.output_count() {
        return Err(ShapeMismatch {
            inputs: (a.input_count(), b.input_count()),
            outputs: (a.output_count(), b.output_count()),
        });
    }
    Ok(())
}

fn resolve(map: &[Lit], l: Lit) -> Lit {
    let base = map[l.node() as usize];
    if l.is_complement() {
        base.not()
    } else {
        base
    }
}

/// Checks two networks for equivalence (sound and complete).
///
/// Random simulation filters candidate equivalences; incremental SAT over
/// the shared fraig closes the proof. See the module docs for the
/// algorithm.
///
/// # Errors
///
/// [`ShapeMismatch`] when input or output counts differ — the typed
/// replacement for the panic the old probabilistic checker raised.
///
/// # Example
///
/// ```
/// use aig::{Aig, check::{check_equivalence, Equivalence}};
///
/// // !(a & b) == !a | !b (DeMorgan) — proven, not sampled.
/// let mut lhs = Aig::new();
/// let (a, b) = (lhs.input(), lhs.input());
/// let nand = lhs.and(a, b).not();
/// lhs.output(nand);
///
/// let mut rhs = Aig::new();
/// let (x, y) = (rhs.input(), rhs.input());
/// let or = rhs.or(x.not(), y.not());
/// rhs.output(or);
///
/// assert_eq!(check_equivalence(&lhs, &rhs), Ok(Equivalence::Equal));
/// ```
pub fn check_equivalence(a: &Aig, b: &Aig) -> Result<Equivalence, ShapeMismatch> {
    check_shapes(a, b)?;
    let a = a.cleanup();
    let b = b.cleanup();
    // A fixed simulation seed and 8 initial words (512 patterns): they
    // steer how much work SAT does, never the verdict.
    let mut sweeper = Sweeper::new(a.input_count(), 0x5EED_CEC1, 8);
    let oa = sweeper.import(&a);
    let ob = sweeper.import(&b);
    for (&la, &lb) in oa.iter().zip(ob.iter()) {
        if la == lb {
            continue;
        }
        // Simulation refutes first (free); SAT decides the rest.
        if let Some(cex) = sweeper.sim_difference(la, lb) {
            return Ok(Equivalence::Counterexample(cex));
        }
        match sweeper.prove_lits_equal(la, lb, None) {
            Prove::Equal => {}
            Prove::Diff(cex) => return Ok(Equivalence::Counterexample(cex)),
            Prove::Unknown => unreachable!("unbounded query cannot give up"),
        }
    }
    Ok(Equivalence::Equal)
}

/// Conflict budget for speculative class-merge queries; unproven
/// candidates just stay unmerged (sound), so this only trades sweep
/// strength against time.
const MERGE_CONFLICT_BUDGET: u64 = 1_000;

/// Interned handle for the per-proof conflict histogram (one registry
/// lookup for the process, not one per SAT query).
fn conflicts_per_proof() -> &'static obs::Histogram {
    static H: std::sync::OnceLock<&'static obs::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| obs::histogram("sat_conflicts_per_proof"))
}

enum Prove {
    Equal,
    Diff(Vec<bool>),
    Unknown,
}

/// FNV-1a offset basis: the class key of a signature with no words.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: folds one phase-normalized signature word into a
/// class key.
fn fnv_step(key: u64, word: u64) -> u64 {
    (key ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The phase mask of a signature whose word 0 is `word0`: all ones when
/// pattern 0 reads 1. XOR-ing every word with it normalizes a signature
/// and its complement to the same words.
fn phase_mask(word0: u64) -> u64 {
    (word0 & 1).wrapping_neg()
}

/// A literal's value in one signature column (complement applied).
fn lit_value(col: &[u64], l: Lit) -> u64 {
    let v = col[l.node() as usize];
    if l.is_complement() {
        !v
    } else {
        v
    }
}

/// All simulation signatures, word-major: `cols[w][node]` is 64-pattern
/// word `w` of `node`, and `keys[node]` is the FNV-1a hash of its
/// phase-normalized signature (complemented when pattern 0 reads 1),
/// the node's class key.
///
/// Every word and every key step is computed once. A new node pushes
/// one word onto each column and hashes them as it goes; a refinement
/// pushes one new column and extends each key by one FNV step. FNV-1a
/// runs over the words in order, so an extended key equals a fresh hash
/// of the longer signature. Word 0, which fixes the phase, never
/// changes. Columns grow by plain `Vec` doubling.
struct Signatures {
    cols: Vec<Vec<u64>>,
    keys: Vec<u64>,
}

impl Signatures {
    fn new(words: usize) -> Self {
        Self {
            cols: vec![Vec::new(); words],
            keys: Vec::new(),
        }
    }

    /// Signature width in 64-pattern words (uniform across nodes).
    fn words(&self) -> usize {
        self.cols.len()
    }

    /// Word `w` of a literal's signature (complement applied).
    fn lit_word(&self, l: Lit, w: usize) -> u64 {
        lit_value(&self.cols[w], l)
    }

    /// Appends one node whose word `w` is `word(self, w)`, and returns its
    /// class key.
    fn push(&mut self, mut word: impl FnMut(&Self, usize) -> u64) -> u64 {
        let (mut key, mut mask) = (FNV_OFFSET, 0);
        for w in 0..self.words() {
            let v = word(self, w);
            if w == 0 {
                mask = phase_mask(v);
            }
            key = fnv_step(key, v ^ mask);
            self.cols[w].push(v);
        }
        self.keys.push(key);
        key
    }

    /// Extends `node`'s class key by its word in the column being built,
    /// returning the new key.
    fn extend_key(&mut self, node: usize, word: u64) -> u64 {
        let key = fnv_step(self.keys[node], word ^ phase_mask(self.cols[0][node]));
        self.keys[node] = key;
        key
    }

    /// `Some(phase)` when `x`'s signature equals `y`'s, complemented iff
    /// `phase` (pattern 0 tells which), and `None` otherwise.
    fn compare(&self, x: u32, y: u32) -> Option<bool> {
        let (x, y) = (x as usize, y as usize);
        let mask = phase_mask(self.cols[0][x] ^ self.cols[0][y]);
        let matches = self.cols.iter().all(|col| col[x] ^ mask == col[y]);
        matches.then_some(mask != 0)
    }
}

/// End of a class chain.
const NIL: u32 = u32::MAX;

/// Candidate classes as intrusive chains: each class key maps to the
/// first and last node of a chain threaded through `next` (one slot per
/// node). Members are linked in index order, and linking allocates
/// nothing per class. The map keeps std's keyed hasher: the keys follow
/// from the circuit, which may come from outside the program, and a
/// fixed mix would let a crafted one pile its keys into one probe run.
#[derive(Default)]
struct Classes {
    ends: HashMap<u64, (u32, u32)>,
    next: Vec<u32>,
}

impl Classes {
    /// The first member of `key`'s class, or [`NIL`].
    fn first(&self, key: u64) -> u32 {
        self.ends.get(&key).map_or(NIL, |&(head, _)| head)
    }

    /// The member after `node` in its class, or [`NIL`].
    fn next(&self, node: u32) -> u32 {
        self.next[node as usize]
    }

    /// Appends `node` as the last member of `key`'s class.
    fn link(&mut self, key: u64, node: u32) {
        let slot = node as usize;
        if self.next.len() <= slot {
            self.next.resize(slot + 1, NIL);
        }
        self.next[slot] = NIL;
        match self.ends.entry(key) {
            Entry::Occupied(mut ends) => {
                let tail = &mut ends.get_mut().1;
                self.next[*tail as usize] = node;
                *tail = node;
            }
            Entry::Vacant(ends) => {
                ends.insert((node, node));
            }
        }
    }

    /// Empties every class; the map keeps its capacity.
    fn clear(&mut self) {
        self.ends.clear();
    }
}

/// The SAT sweeper: a growing fraig with per-node simulation signatures,
/// candidate classes, and an incremental Tseitin encoding.
///
/// Refinement costs one walk over the fraig: it computes every node's
/// new word, extends every class key by one step, and re-links the live
/// representatives into their classes. No word already written is
/// hashed again.
///
/// Crate-visible so the choice subsystem ([`crate::choice`]) can run the
/// same sim-signature + budgeted-incremental-SAT sweep over a set of
/// equivalent snapshots and read the merge structure back out
/// ([`Sweeper::into_parts`]).
pub(crate) struct Sweeper {
    f: Aig,
    solver: Solver,
    /// Solver variable per fraig node (encoded at creation).
    enc: Vec<sat::Var>,
    /// Word-major simulation signatures and their class keys.
    sigs: Signatures,
    /// Representative literal per fraig node (identity unless merged).
    repr: Vec<Lit>,
    /// The live representatives, chained by class key in index order.
    /// Keys are fingerprints, so [`Sweeper::try_merge`] re-checks the
    /// actual signatures before trusting a class member: a collision
    /// costs one signature compare, never a wrong merge.
    classes: Classes,
    /// Fraig node index of each primary input.
    input_nodes: Vec<u32>,
    rng: crate::sim::PatternRng,
}

impl Sweeper {
    /// A sweeper over `n_inputs` shared inputs whose signatures start
    /// with `words` (at least 1) random 64-pattern words.
    pub(crate) fn new(n_inputs: usize, seed: u64, words: usize) -> Self {
        debug_assert!(words > 0, "a signature needs word 0 for its phase");
        let mut s = Self {
            f: Aig::new(),
            solver: Solver::new(),
            enc: Vec::new(),
            sigs: Signatures::new(words),
            repr: Vec::new(),
            classes: Classes::default(),
            input_nodes: Vec::new(),
            rng: crate::sim::PatternRng::new(seed),
        };
        // Constant node: a variable forced false, an all-zero signature.
        let v0 = s.solver.new_var();
        s.solver.add_clause(&[sat::Lit::negative(v0)]);
        s.enc.push(v0);
        let key = s.sigs.push(|_, _| 0);
        s.repr.push(Lit::FALSE);
        s.classes.link(key, 0);
        for _ in 0..n_inputs {
            let lit = s.f.input();
            let node = lit.node();
            s.input_nodes.push(node);
            s.enc.push(s.solver.new_var());
            let key = s.sigs.push(|_, _| s.rng.next_word());
            s.repr.push(lit);
            s.classes.link(key, node);
        }
        s
    }

    fn resolve(&self, l: Lit) -> Lit {
        let r = self.repr[l.node() as usize];
        if l.is_complement() {
            r.not()
        } else {
            r
        }
    }

    /// Consumes the sweeper, returning the fraig arena and the
    /// per-node representative literals (identity for unmerged nodes).
    /// Every AND node in the arena reads representative literals: fanins
    /// are resolved through `repr` *before* a node is created, and a
    /// representative never loses that status later — the invariant the
    /// choice subsystem's ring construction builds on.
    pub(crate) fn into_parts(self) -> (Aig, Vec<Lit>) {
        (self.f, self.repr)
    }

    /// Imports a source network, returning its output literals in the
    /// fraig (representative-resolved).
    pub(crate) fn import(&mut self, src: &Aig) -> Vec<Lit> {
        self.import_with_map(src).0
    }

    /// Like [`Sweeper::import`], additionally returning the source-node →
    /// fraig-literal map. Map entries are representative-resolved at
    /// creation time; resolve them again through the final `repr` to read
    /// the up-to-date equivalence class of each source node.
    pub(crate) fn import_with_map(&mut self, src: &Aig) -> (Vec<Lit>, Vec<Lit>) {
        let mut map: Vec<Lit> = vec![Lit::FALSE; src.len()];
        for (i, node) in src.nodes().enumerate() {
            map[i] = match node {
                Node::Const => Lit::FALSE,
                Node::Input(k) => Lit::new(self.input_nodes[k as usize], false),
                Node::And(a, b) => {
                    let fa = self.resolve(resolve(&map, a));
                    let fb = self.resolve(resolve(&map, b));
                    self.fraig_and(fa, fb)
                }
            };
        }
        let outputs = src
            .output_lits()
            .iter()
            .map(|&l| self.resolve(resolve(&map, l)))
            .collect();
        (outputs, map)
    }

    /// Strashed AND with on-the-fly fraiging: a structurally new node is
    /// Tseitin-encoded, simulated, and — when simulation puts it in an
    /// existing candidate class — SAT-merged into the class
    /// representative.
    fn fraig_and(&mut self, a: Lit, b: Lit) -> Lit {
        let before = self.f.len();
        let raw = self.f.and(a, b);
        if (raw.node() as usize) < before {
            // Constant folding or a strash hit: decided earlier.
            return self.resolve(raw);
        }
        let node = raw.node();
        // Tseitin clauses for node = a ∧ b.
        let v = self.solver.new_var();
        let la = sat::Lit::new(self.enc[a.node() as usize], a.is_complement());
        let lb = sat::Lit::new(self.enc[b.node() as usize], b.is_complement());
        let lv = sat::Lit::positive(v);
        self.solver.add_clause(&[!lv, la]);
        self.solver.add_clause(&[!lv, lb]);
        self.solver.add_clause(&[lv, !la, !lb]);
        self.enc.push(v);
        // Signature from the fanin signatures, one word per column.
        self.sigs
            .push(|sigs, w| sigs.lit_word(a, w) & sigs.lit_word(b, w));
        profile::add(Work::SimWords, self.sigs.words() as u64);
        self.repr.push(raw);
        debug_assert_eq!(self.enc.len(), self.f.len());
        self.try_merge(node);
        self.resolve(raw)
    }

    /// Attempts to merge `node`, the newest fraig node and not yet a
    /// class member, into a member of its class. A refuted candidate's
    /// distinguishing pattern becomes a new simulation word at once
    /// ([`Sweeper::refine`]), which splits the pair, and the class is
    /// scanned again under the refined signatures. A node no candidate
    /// is proven equal to joins its class last: it has the highest
    /// index, so every chain stays in index order.
    fn try_merge(&mut self, node: u32) {
        let mut cand = self.classes.first(self.sigs.keys[node as usize]);
        while cand != NIL {
            debug_assert_eq!(
                self.repr[cand as usize],
                Lit::new(cand, false),
                "classes hold live representatives only"
            );
            // Keys are fingerprints, so confirm the signatures are
            // actually equal or complementary; a collision just means
            // the candidate is not comparable.
            let Some(phase) = self.sigs.compare(node, cand) else {
                cand = self.classes.next(cand);
                continue;
            };
            let target = Lit::new(cand, phase);
            profile::add(Work::SatMergeCalls, 1);
            match self.prove_lits_equal(Lit::new(node, false), target, Some(MERGE_CONFLICT_BUDGET))
            {
                Prove::Equal => {
                    profile::add(Work::SatMergeProven, 1);
                    self.repr[node as usize] = target;
                    // Record the proven equivalence as clauses; they
                    // are implied, and they help later queries.
                    let ln = sat::Lit::positive(self.enc[node as usize]);
                    let lc = sat::Lit::new(self.enc[cand as usize], phase);
                    self.solver.add_clause(&[!ln, lc]);
                    self.solver.add_clause(&[ln, !lc]);
                    return;
                }
                Prove::Diff(pattern) => {
                    profile::add(Work::SatMergeRefuted, 1);
                    self.refine(&pattern, node);
                    cand = self.classes.first(self.sigs.keys[node as usize]);
                }
                Prove::Unknown => {
                    // Budget out: try the next candidate.
                    profile::add(Work::SatMergeBudgetOut, 1);
                    cand = self.classes.next(cand);
                }
            }
        }
        self.classes.link(self.sigs.keys[node as usize], node);
    }

    /// Proves two fraig literals equal (both implications UNSAT), or
    /// returns a distinguishing input pattern, or gives up on budget.
    /// Each proof attempt's conflict cost lands in the
    /// `sat_conflicts_per_proof` histogram.
    fn prove_lits_equal(&mut self, x: Lit, y: Lit, budget: Option<u64>) -> Prove {
        let conflicts_before = self.solver.conflict_count();
        let result = self.prove_lits_equal_inner(x, y, budget);
        conflicts_per_proof().observe(
            self.solver
                .conflict_count()
                .saturating_sub(conflicts_before),
        );
        result
    }

    fn prove_lits_equal_inner(&mut self, x: Lit, y: Lit, budget: Option<u64>) -> Prove {
        let (vx, cx) = (self.enc[x.node() as usize], x.is_complement());
        let (vy, cy) = (self.enc[y.node() as usize], y.is_complement());
        // Query 1: x true, y false; query 2: x false, y true.
        for (ax, ay) in [(cx, !cy), (!cx, cy)] {
            let assumptions = [sat::Lit::new(vx, ax), sat::Lit::new(vy, ay)];
            match budget {
                Some(limit) => match self.solver.solve_limited(&assumptions, limit) {
                    Some(SolveResult::Unsat) => {}
                    Some(SolveResult::Sat) => return Prove::Diff(self.model_pattern()),
                    None => return Prove::Unknown,
                },
                None => match self.solver.solve_assuming(&assumptions) {
                    SolveResult::Unsat => {}
                    SolveResult::Sat => return Prove::Diff(self.model_pattern()),
                },
            }
        }
        Prove::Equal
    }

    /// The primary-input assignment of the solver's current model.
    fn model_pattern(&self) -> Vec<bool> {
        self.input_nodes
            .iter()
            .map(|&n| {
                self.solver
                    .model_value(self.enc[n as usize])
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Appends one simulation word carrying the counterexample `pattern`
    /// (one bool per primary input) in bit 0 and fresh random patterns
    /// in the other 63, and rebuilds the candidate classes.
    ///
    /// One walk over the fraig in index order, which is topological (a
    /// node's word depends only on its fanins' words, and fanins precede
    /// their consumers), computes each node's word into the new column,
    /// extends its class key, and re-links it into its class if it is a
    /// live representative. `pending`, the node [`Sweeper::try_merge`]
    /// is deciding, stays out: that scan links it once it stays unmerged.
    fn refine(&mut self, pattern: &[bool], pending: u32) {
        let _span = obs::span!("verify/refine");
        profile::add(Work::RefineRounds, 1);
        // Input words draw from the rng serially, in input order — the
        // stream is part of the determinism contract. The constant's
        // word stays 0.
        let mut col = vec![0u64; self.f.len()];
        for (&n, &bit) in self.input_nodes.iter().zip(pattern) {
            col[n as usize] = (self.rng.next_word() & !1) | u64::from(bit);
        }
        profile::add(Work::SimWords, self.f.len() as u64);
        self.classes.clear();
        for (i, node) in self.f.nodes().enumerate() {
            if let Node::And(a, b) = node {
                col[i] = lit_value(&col, a) & lit_value(&col, b);
            }
            let key = self.sigs.extend_key(i, col[i]);
            let n = i as u32;
            if n != pending && self.repr[i] == Lit::new(n, false) {
                self.classes.link(key, n);
            }
        }
        self.sigs.cols.push(col);
    }

    /// A counterexample straight from the simulation signatures, if the
    /// two literals already differ on a simulated pattern.
    fn sim_difference(&self, x: Lit, y: Lit) -> Option<Vec<bool>> {
        for w in 0..self.sigs.words() {
            let diff = self.sigs.lit_word(x, w) ^ self.sigs.lit_word(y, w);
            if diff != 0 {
                let bit = diff.trailing_zeros();
                return Some(
                    self.input_nodes
                        .iter()
                        .map(|&n| (self.sigs.cols[w][n as usize] >> bit) & 1 == 1)
                        .collect(),
                );
            }
        }
        None
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sim::evaluate;
    use std::collections::BTreeMap;

    fn xor_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.xor(a, b);
        aig.output(x);
        aig
    }

    impl Sweeper {
        /// Asserts that the incremental bookkeeping equals a fresh
        /// computation: every column holds one word per node, every
        /// node's stored key is a one-shot FNV-1a over its full
        /// signature, and the class map is the one a from-scratch
        /// rebuild over the live nodes in index order gives — the same
        /// keys, and the same chain members in the same order.
        fn assert_bookkeeping_is_fresh(&self) {
            let n = self.f.len();
            assert!(self.sigs.cols.iter().all(|col| col.len() == n));
            let mut fresh = Classes::default();
            for node in 0..n {
                let sig: Vec<u64> = self.sigs.cols.iter().map(|col| col[node]).collect();
                let mask = phase_mask(sig[0]);
                let key = sig.iter().fold(FNV_OFFSET, |k, &w| fnv_step(k, w ^ mask));
                assert_eq!(self.sigs.keys[node], key, "node {node}: stale class key");
                if self.repr[node] == Lit::new(node as u32, false) {
                    fresh.link(key, node as u32);
                }
            }
            assert_eq!(self.classes.chains(), fresh.chains());
        }
    }

    impl Classes {
        /// Every class's members in chain order, by key.
        fn chains(&self) -> BTreeMap<u64, Vec<u32>> {
            self.ends
                .iter()
                .map(|(&key, &(head, tail))| {
                    let (mut members, mut node) = (vec![head], head);
                    while self.next(node) != NIL {
                        assert!(members.len() < self.next.len(), "class {key:#x}: cycle");
                        node = self.next(node);
                        members.push(node);
                    }
                    assert_eq!(node, tail, "class {key:#x}: stale tail");
                    (key, members)
                })
                .collect()
        }
    }

    #[test]
    fn equivalent_to_itself() {
        let a = xor_aig();
        assert_eq!(check_equivalence(&a, &a), Ok(Equivalence::Equal));
    }

    #[test]
    fn detects_difference_with_counterexample() {
        let a = xor_aig();
        let mut b = Aig::new();
        let x = b.input();
        let y = b.input();
        let f = b.and(x, y);
        b.output(f);
        let Ok(Equivalence::Counterexample(cex)) = check_equivalence(&a, &b) else {
            panic!("must find a counterexample");
        };
        assert_ne!(evaluate(&a, &cex), evaluate(&b, &cex), "cex must be real");
    }

    #[test]
    fn shape_mismatch_is_a_typed_error_not_a_panic() {
        let a = xor_aig();
        let mut b = Aig::new();
        let x = b.input();
        b.output(x);
        let err = check_equivalence(&a, &b).expect_err("shapes differ");
        assert_eq!(err.inputs, (2, 1));
        assert_eq!(err.outputs, (1, 1));
        assert!(err.to_string().contains("2 vs 1 inputs"));
    }

    #[test]
    fn demorgan_forms_are_equivalent() {
        let mut lhs = Aig::new();
        let a = lhs.input();
        let b = lhs.input();
        let nand = lhs.and(a, b).not();
        lhs.output(nand);

        let mut rhs = Aig::new();
        let x = rhs.input();
        let y = rhs.input();
        let or = rhs.or(x.not(), y.not());
        rhs.output(or);
        assert_eq!(check_equivalence(&lhs, &rhs), Ok(Equivalence::Equal));
    }

    #[test]
    fn single_minterm_difference_is_found_at_any_width() {
        // Two 24-input functions differing in exactly one assignment —
        // beyond the old 16-input exhaustive window, hopeless for random
        // simulation, easy for SAT.
        let build = |tweak: bool| {
            let mut aig = Aig::new();
            let xs: Vec<Lit> = (0..24).map(|_| aig.input()).collect();
            let all = aig.and_many(&xs);
            let f = if tweak {
                let none = aig.or_many(&xs).not();
                aig.or(all, none)
            } else {
                all
            };
            aig.output(f);
            aig
        };
        let a = build(false);
        let b = build(true);
        let Ok(Equivalence::Counterexample(cex)) = check_equivalence(&a, &b) else {
            panic!("must find the single differing minterm");
        };
        assert!(cex.iter().all(|&x| !x), "the all-zero minterm is the diff");
        assert_ne!(evaluate(&a, &cex), evaluate(&b, &cex));
    }

    #[test]
    fn constant_outputs() {
        let mut a = Aig::new();
        let _ = a.input();
        a.output(Lit::TRUE);
        let mut b = Aig::new();
        let x = b.input();
        let one = b.or(x, x.not());
        b.output(one);
        assert_eq!(check_equivalence(&a, &b), Ok(Equivalence::Equal));
    }

    #[test]
    fn zero_input_networks() {
        let mut a = Aig::new();
        a.output(Lit::TRUE);
        let mut b = Aig::new();
        b.output(Lit::FALSE);
        assert_eq!(
            check_equivalence(&a, &b),
            Ok(Equivalence::Counterexample(Vec::new()))
        );
        assert_eq!(check_equivalence(&a, &a), Ok(Equivalence::Equal));
    }

    #[test]
    fn sweeper_merges_shared_structure() {
        // A moderately wide adder checked against itself restructured:
        // the sweep must prove it without the exhaustive 2^n walk.
        let build = |serial: bool| {
            let mut aig = Aig::new();
            let xs: Vec<Lit> = (0..20).map(|_| aig.input()).collect();
            let f = if serial {
                let mut acc = xs[0];
                for &x in &xs[1..] {
                    acc = aig.xor(acc, x);
                }
                acc
            } else {
                aig.xor_many(&xs)
            };
            aig.output(f);
            aig
        };
        let a = build(true);
        let b = build(false);
        assert_eq!(check_equivalence(&a, &b), Ok(Equivalence::Equal));
    }

    /// A messy deterministic network: xorshift-driven mix of
    /// AND/OR/XOR/MUX over `n_inputs` with `n_ops` operations.
    pub(crate) fn messy_aig(seed: u64, n_inputs: usize, n_ops: usize) -> Aig {
        let mut aig = Aig::new();
        let mut nets: Vec<Lit> = (0..n_inputs).map(|_| aig.input()).collect();
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..n_ops {
            let a = nets[(rnd() as usize) % nets.len()];
            let b = nets[(rnd() as usize) % nets.len()];
            let f = match rnd() % 4 {
                0 => aig.and(a, b.not()),
                1 => aig.or(a, b),
                2 => aig.xor(a, b),
                _ => {
                    let c = nets[(rnd() as usize) % nets.len()];
                    aig.mux(a, b, c)
                }
            };
            nets.push(f);
        }
        for k in 0..nets.len().min(4) {
            aig.output(nets[nets.len() - 1 - k]);
        }
        aig
    }

    /// Sweeps `src` at the given initial signature width and reads back
    /// the semantic partition of its nodes: for each source node, the id
    /// of its equivalence class (classes numbered in first-appearance
    /// order) and its phase relative to the class leader. Asserts that
    /// the sweep spent exactly one refinement round per refutation and
    /// that its bookkeeping equals a fresh rebuild.
    fn sweep_partition(src: &Aig, words: usize) -> Vec<(usize, bool)> {
        let scope = obs::JobScope::begin();
        let mut sweeper = Sweeper::new(src.input_count(), 0xD5, words);
        let (_, map) = sweeper.import_with_map(src);
        let counters = crate::profile::scoped(&scope);
        assert_eq!(counters.refine_rounds, counters.sat_merge_refuted);
        sweeper.assert_bookkeeping_is_fresh();
        let mut ids: HashMap<u32, (usize, bool)> = HashMap::new();
        map.iter()
            .map(|&l| {
                let r = sweeper.resolve(l);
                let next = ids.len();
                let (id, leader_phase) = *ids.entry(r.node()).or_insert((next, r.is_complement()));
                (id, r.is_complement() != leader_phase)
            })
            .collect()
    }

    #[test]
    fn incremental_bookkeeping_equals_a_fresh_rebuild_after_many_refinements() {
        // Not cleaned up: the dangling operations stay in the sweep, and
        // with them enough near-equal pairs to refute 36 times.
        let src = messy_aig(3, 16, 6000);
        let scope = obs::JobScope::begin();
        let mut sweeper = Sweeper::new(src.input_count(), 0xD5, 1);
        sweeper.import(&src);
        let rounds = crate::profile::scoped(&scope).refine_rounds;
        assert!(rounds >= 20, "only {rounds} refinement rounds");
        sweeper.assert_bookkeeping_is_fresh();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        // A sweep that starts from 4 random signature words must
        // discover exactly the merges of one that starts from 1: with the
        // SAT budget never exhausted on networks this size, both converge
        // to the true semantic equivalence classes, so the source-node
        // partitions agree even though the signature streams (and hence
        // bucket scan orders) differ.
        #[test]
        fn batched_wide_refinement_matches_the_one_word_path(
            seed in proptest::prelude::any::<u64>(),
            n_ops in 5usize..60,
        ) {
            let src = messy_aig(seed, 5, n_ops).cleanup();
            proptest::prop_assert_eq!(sweep_partition(&src, 1), sweep_partition(&src, 4));
        }
    }
}

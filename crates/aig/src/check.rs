//! Combinational equivalence checking: random-simulation filtering closed
//! by SAT — sound and complete at every input count.
//!
//! The checker is a SAT sweeper in the spirit of ABC's `cec`/fraiging:
//! both networks are imported into one structurally hashed graph over
//! shared inputs, nodes are partitioned into candidate-equivalence
//! classes by 64-bit random simulation, and each candidate is either
//! *proven* equal to its class representative (a budgeted incremental SAT
//! query over the Tseitin encoding) and merged, or *refuted* by a model
//! that becomes a new distinguishing simulation pattern. The primary
//! outputs are then proven pairwise equal with unbounded queries, so
//! [`Equivalence::Equal`] is a theorem, not a sample — and a failed proof
//! yields a concrete [`Equivalence::Counterexample`] input pattern.

use crate::graph::{Aig, Lit, Node};
use crate::profile::{self, Work};
use sat::{SolveResult, Solver};
use std::collections::HashMap;

/// Outcome of an equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Equivalence {
    /// The two networks compute the same function (SAT-proven).
    Equal,
    /// A concrete input assignment (one bool per primary input, in input
    /// order) on which the networks disagree.
    Counterexample(Vec<bool>),
}

impl Equivalence {
    /// Whether the check proved equality.
    pub fn is_equal(&self) -> bool {
        matches!(self, Equivalence::Equal)
    }
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

fn check_shapes(a: &Aig, b: &Aig) -> Result<(), ShapeMismatch> {
    if a.input_count() != b.input_count() || a.output_count() != b.output_count() {
        return Err(ShapeMismatch {
            inputs: (a.input_count(), b.input_count()),
            outputs: (a.output_count(), b.output_count()),
        });
    }
    Ok(())
}

/// Builds the miter of two same-shape networks: one structurally hashed
/// graph over shared inputs whose single output is 1 iff the networks
/// disagree on some output (OR over per-output XORs) — the classic CEC
/// construction. `miter(a, b)` is satisfiable iff `a` and `b` differ.
///
/// # Errors
///
/// [`ShapeMismatch`] when input or output counts differ.
///
/// # Example
///
/// ```
/// use aig::{Aig, check::miter};
///
/// let mut x = Aig::new();
/// let (a, b) = (x.input(), x.input());
/// let f = x.and(a, b);
/// x.output(f);
/// let m = miter(&x, &x).expect("same shape");
/// assert_eq!(m.input_count(), 2);
/// assert_eq!(m.output_count(), 1);
/// // Identical structure cancels outright: the miter output is constant
/// // false, so no SAT call is even needed here.
/// assert_eq!(m.output_lits()[0], aig::Lit::FALSE);
/// ```
pub fn miter(a: &Aig, b: &Aig) -> Result<Aig, ShapeMismatch> {
    check_shapes(a, b)?;
    let mut m = Aig::new();
    let inputs: Vec<Lit> = (0..a.input_count()).map(|_| m.input()).collect();
    let oa = copy_into(&mut m, a, &inputs);
    let ob = copy_into(&mut m, b, &inputs);
    let diffs: Vec<Lit> = oa
        .iter()
        .zip(ob.iter())
        .map(|(&x, &y)| m.xor(x, y))
        .collect();
    let out = m.or_many(&diffs);
    m.output(out);
    Ok(m)
}

/// Structurally copies `src` into `dst` with `src`'s primary inputs bound
/// to `inputs`; returns the copied output literals.
fn copy_into(dst: &mut Aig, src: &Aig, inputs: &[Lit]) -> Vec<Lit> {
    let mut map: Vec<Lit> = vec![Lit::FALSE; src.len()];
    for (i, node) in src.nodes().enumerate() {
        map[i] = match node {
            Node::Const => Lit::FALSE,
            Node::Input(k) => inputs[k as usize],
            Node::And(a, b) => {
                let fa = resolve(&map, a);
                let fb = resolve(&map, b);
                dst.and(fa, fb)
            }
        };
    }
    src.output_lits()
        .iter()
        .map(|&l| resolve(&map, l))
        .collect()
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
    check_equivalence_seeded(a, b, 0x5EED_CEC1, 8)
}

/// [`check_equivalence`] with an explicit simulation seed and initial
/// random-word count (64 patterns per word). More words refine candidate
/// classes harder before SAT gets involved; the result is identical.
pub fn check_equivalence_seeded(
    a: &Aig,
    b: &Aig,
    seed: u64,
    words: usize,
) -> Result<Equivalence, ShapeMismatch> {
    check_shapes(a, b)?;
    let a = a.cleanup();
    let b = b.cleanup();
    let mut sweeper = Sweeper::new(a.input_count(), seed, words.clamp(1, 64));
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

/// Compatibility wrapper: `true` iff the networks are provably
/// equivalent.
///
/// Unlike the pre-SAT version this is **sound and complete at any input
/// count** — `seed` and `rounds` only steer the simulation prefilter
/// (`rounds` random 64-pattern words), never the verdict. Networks of
/// mismatched shape compare unequal instead of panicking; use
/// [`check_equivalence`] to observe the mismatch or the counterexample.
pub fn equivalent(a: &Aig, b: &Aig, seed: u64, rounds: usize) -> bool {
    matches!(
        check_equivalence_seeded(a, b, seed, rounds.clamp(1, 64)),
        Ok(Equivalence::Equal)
    )
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

/// Signature words are allocated in cache-line blocks of this many
/// `u64`s. The slack between the logical width and the allocated stride
/// lets refinement append a word in place; the block re-strides (one
/// full copy) only once every `SIG_WORD_BLOCK` refinement rounds instead
/// of on every counterexample.
const SIG_WORD_BLOCK: usize = 4;

/// All simulation signatures in one flat node-major block: node `i`'s
/// `words` live 64-pattern words sit at `data[i*stride..i*stride+words]`,
/// with `stride - words` zeroed slack lanes behind them. One bump-grown
/// allocation for the whole fraig instead of a heap `Vec<u64>` per node —
/// signature reads during fraiging become offset arithmetic into one
/// contiguous region.
struct SigBlock {
    /// Logical signature width, in 64-pattern words (uniform across
    /// nodes).
    words: usize,
    /// Allocated words per node (`words.next_multiple_of(SIG_WORD_BLOCK)`).
    stride: usize,
    data: Vec<u64>,
}

impl SigBlock {
    fn new(words: usize) -> Self {
        Self {
            words,
            stride: words.next_multiple_of(SIG_WORD_BLOCK).max(SIG_WORD_BLOCK),
            data: Vec::new(),
        }
    }

    /// Borrowed signature of one node — no allocation.
    fn sig(&self, node: u32) -> &[u64] {
        let start = node as usize * self.stride;
        &self.data[start..start + self.words]
    }

    /// Word `w` of a literal's signature (complement applied).
    fn lit_word(&self, l: Lit, w: usize) -> u64 {
        let v = self.data[l.node() as usize * self.stride + w];
        if l.is_complement() {
            !v
        } else {
            v
        }
    }

    /// Opens one fresh node slot (all lanes zero), returning its offset.
    fn grow(&mut self) -> usize {
        let base = self.data.len();
        self.data.resize(base + self.stride, 0);
        base
    }

    /// Re-strides the block with one more slack block per node; live
    /// words are copied, new lanes are zero.
    fn widen(&mut self) {
        let nodes = self.data.len() / self.stride;
        let stride = self.stride + SIG_WORD_BLOCK;
        let mut data = vec![0u64; nodes * stride];
        for i in 0..nodes {
            data[i * stride..i * stride + self.words]
                .copy_from_slice(&self.data[i * self.stride..i * self.stride + self.words]);
        }
        self.stride = stride;
        self.data = data;
    }
}

/// The SAT sweeper: a growing fraig with per-node simulation signatures,
/// candidate classes, and an incremental Tseitin encoding.
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
    /// Flat node-major simulation signatures.
    sigs: SigBlock,
    /// Representative literal per fraig node (identity unless merged).
    repr: Vec<Lit>,
    /// Fingerprint of the normalized signature → class-representative
    /// nodes. Keys are 64-bit FNV hashes of the signature slice, so a
    /// lookup allocates nothing; [`Sweeper::try_merge`] re-checks the
    /// actual signatures before trusting a bucket hit, so a fingerprint
    /// collision costs one slice compare, never a wrong merge.
    classes: HashMap<u64, Vec<u32>>,
    /// Fraig node index of each primary input.
    input_nodes: Vec<u32>,
    rng: crate::sim::PatternRng,
}

impl Sweeper {
    pub(crate) fn new(n_inputs: usize, seed: u64, words: usize) -> Self {
        let mut s = Self {
            f: Aig::new(),
            solver: Solver::new(),
            enc: Vec::new(),
            sigs: SigBlock::new(words),
            repr: Vec::new(),
            classes: HashMap::new(),
            input_nodes: Vec::new(),
            rng: crate::sim::PatternRng::new(seed),
        };
        // Constant node: a variable forced false, an all-zero signature.
        let v0 = s.solver.new_var();
        s.solver.add_clause(&[sat::Lit::negative(v0)]);
        s.enc.push(v0);
        s.sigs.grow();
        s.repr.push(Lit::FALSE);
        s.register_class(0);
        for _ in 0..n_inputs {
            let lit = s.f.input();
            let node = lit.node();
            s.input_nodes.push(node);
            s.enc.push(s.solver.new_var());
            let base = s.sigs.grow();
            for w in 0..words {
                s.sigs.data[base + w] = s.rng.next_word();
            }
            s.repr.push(lit);
            s.register_class(node);
        }
        s
    }

    /// FNV-1a fingerprint of the phase-normalized signature (complemented
    /// if pattern 0 reads 1), as the class key — hashes the slice in
    /// place instead of allocating a normalized `Vec<u64>` per lookup.
    fn class_key(&self, node: u32) -> u64 {
        let sig = self.sigs.sig(node);
        let flip = if sig[0] & 1 == 1 { u64::MAX } else { 0 };
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in sig {
            h ^= w ^ flip;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn register_class(&mut self, node: u32) {
        let key = self.class_key(node);
        self.classes.entry(key).or_default().push(node);
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
        // Signature from the fanin signatures, bumped onto the block
        // (slack lanes stay zero until a refinement claims them).
        let base = self.sigs.grow();
        for w in 0..self.sigs.words {
            self.sigs.data[base + w] = self.sigs.lit_word(a, w) & self.sigs.lit_word(b, w);
        }
        profile::add(Work::SimWords, self.sigs.words as u64);
        self.repr.push(raw);
        debug_assert_eq!(self.enc.len(), self.f.len());
        self.try_merge(node);
        self.resolve(raw)
    }

    /// Attempts to merge `node` into an existing class representative.
    /// A refuted candidate is skipped for the rest of the attempt and its
    /// distinguishing pattern banked; up to 64 counterexamples from one
    /// bucket scan are packed into a *single* refinement word, so a node
    /// that separates itself from many bucket-mates pays one fraig
    /// resimulation per round instead of one per counterexample.
    fn try_merge(&mut self, node: u32) {
        let mut refuted: Vec<u32> = Vec::new();
        loop {
            let key = self.class_key(node);
            let bucket: Vec<u32> = self.classes.get(&key).cloned().unwrap_or_default();
            let mut batch: Vec<Vec<bool>> = Vec::new();
            for cand in bucket {
                // Skip self, already-refuted candidates, and stale
                // entries (a candidate that itself merged after
                // registration — its representative is in this bucket
                // too, so nothing is lost).
                if cand == node
                    || self.repr[cand as usize] != Lit::new(cand, false)
                    || refuted.contains(&cand)
                {
                    continue;
                }
                // Keys are fingerprints, so confirm the signatures are
                // actually equal or complementary; a collision just
                // means the candidate is not comparable.
                let ns = self.sigs.sig(node);
                let cs = self.sigs.sig(cand);
                let equal = ns == cs;
                let compl = !equal && ns.iter().zip(cs).all(|(&x, &y)| x == !y);
                if !equal && !compl {
                    continue;
                }
                let phase = compl;
                let target = Lit::new(cand, phase);
                profile::add(Work::SatMergeCalls, 1);
                match self.prove_lits_equal(
                    Lit::new(node, false),
                    target,
                    Some(MERGE_CONFLICT_BUDGET),
                ) {
                    Prove::Equal => {
                        profile::add(Work::SatMergeProven, 1);
                        self.repr[node as usize] = target;
                        // Record the proven equivalence as clauses; they
                        // are implied, and they help later queries.
                        let ln = sat::Lit::positive(self.enc[node as usize]);
                        let lc = sat::Lit::new(self.enc[cand as usize], phase);
                        self.solver.add_clause(&[!ln, lc]);
                        self.solver.add_clause(&[ln, !lc]);
                        // The banked counterexamples still split other
                        // class pairs — spend them before returning.
                        if !batch.is_empty() {
                            self.refine(&batch);
                        }
                        return;
                    }
                    Prove::Diff(pattern) => {
                        profile::add(Work::SatMergeRefuted, 1);
                        refuted.push(cand);
                        batch.push(pattern);
                        if batch.len() == 64 {
                            break; // the word is full; refine, then rescan
                        }
                    }
                    Prove::Unknown => {
                        // Budget out: try the next candidate.
                        profile::add(Work::SatMergeBudgetOut, 1);
                    }
                }
            }
            if batch.is_empty() {
                // A refine round rebuilds `classes` with `node` already
                // in it; guard against registering it twice.
                let bucket = self.classes.entry(key).or_default();
                if !bucket.contains(&node) {
                    bucket.push(node);
                }
                return;
            }
            self.refine(&batch);
        }
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

    /// Appends one simulation word carrying the batched counterexamples
    /// (`patterns[j]` at bit `j`) topped up with fresh random patterns,
    /// resimulates the whole fraig, and rebuilds the candidate classes.
    ///
    /// The word lands in a pre-allocated slack lane of the signature
    /// block when one is free (the block re-strides only every
    /// [`SIG_WORD_BLOCK`]th round), then propagates in one walk over the
    /// fraig in index order, which is topological: a node's word depends
    /// only on its fanins' words, and fanins precede their consumers.
    fn refine(&mut self, patterns: &[Vec<bool>]) {
        debug_assert!(!patterns.is_empty() && patterns.len() <= 64);
        let mut span = obs::span!("verify/refine");
        span.record("patterns", patterns.len() as u64);
        profile::add(Work::RefineRounds, 1);
        if self.sigs.words == self.sigs.stride {
            self.sigs.widen();
        }
        let words = self.sigs.words;
        let stride = self.sigs.stride;
        // Forced counterexample bits occupy the low lanes of the new
        // word; the rest stay random. Input words draw from the rng
        // serially, in input order — the stream is part of the
        // determinism contract (with a single pattern this reproduces
        // the unbatched stream exactly).
        let forced = if patterns.len() >= 64 {
            u64::MAX
        } else {
            (1u64 << patterns.len()) - 1
        };
        for (k, &n) in self.input_nodes.iter().enumerate() {
            let mut w = self.rng.next_word() & !forced;
            for (j, p) in patterns.iter().enumerate() {
                w |= u64::from(p[k]) << j;
            }
            self.sigs.data[n as usize * stride + words] = w;
        }
        profile::add(Work::SimWords, self.f.len() as u64);
        // The constant keeps its zeroed lane.
        for (i, node) in self.f.nodes().enumerate() {
            if let Node::And(a, b) = node {
                self.sigs.data[i * stride + words] =
                    self.sigs.lit_word(a, words) & self.sigs.lit_word(b, words);
            }
        }
        self.sigs.words = words + 1;
        // Rebuild classes from the (still live) representatives.
        let live: Vec<u32> = (0..self.f.len() as u32)
            .filter(|&n| self.repr[n as usize] == Lit::new(n, false))
            .collect();
        self.classes.clear();
        for n in live {
            self.register_class(n);
        }
    }

    /// A counterexample straight from the simulation signatures, if the
    /// two literals already differ on a simulated pattern.
    fn sim_difference(&self, x: Lit, y: Lit) -> Option<Vec<bool>> {
        for w in 0..self.sigs.words {
            let diff = self.sigs.lit_word(x, w) ^ self.sigs.lit_word(y, w);
            if diff != 0 {
                let bit = diff.trailing_zeros();
                return Some(
                    self.input_nodes
                        .iter()
                        .map(|&n| (self.sigs.sig(n)[w] >> bit) & 1 == 1)
                        .collect(),
                );
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::evaluate;

    fn xor_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.xor(a, b);
        aig.output(x);
        aig
    }

    #[test]
    fn equivalent_to_itself() {
        let a = xor_aig();
        assert_eq!(check_equivalence(&a, &a), Ok(Equivalence::Equal));
        assert!(equivalent(&a, &a, 1, 4));
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
        assert!(!equivalent(&a, &b, 1, 4));
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
        // The bool wrapper reports inequivalence instead of panicking.
        assert!(!equivalent(&a, &b, 1, 4));
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
    fn miter_of_equal_circuits_is_unsat() {
        let a = xor_aig();
        let mut b = Aig::new();
        let x = b.input();
        let y = b.input();
        let t1 = b.and(x, y.not());
        let t2 = b.and(x.not(), y);
        let f = b.or(t1, t2);
        b.output(f);
        let m = miter(&a, &b).expect("same shape");
        assert_eq!(m.input_count(), 2);
        assert_eq!(m.output_count(), 1);
        let mut solver = Solver::new();
        let enc = crate::cnf::encode(&m, &mut solver);
        solver.add_clause(&[enc.outputs[0]]);
        assert_eq!(solver.solve(), SolveResult::Unsat);
    }

    #[test]
    fn miter_of_different_circuits_is_sat() {
        let a = xor_aig();
        let mut b = Aig::new();
        let x = b.input();
        let y = b.input();
        let f = b.or(x, y);
        b.output(f);
        let m = miter(&a, &b).expect("same shape");
        let mut solver = Solver::new();
        let enc = crate::cnf::encode(&m, &mut solver);
        solver.add_clause(&[enc.outputs[0]]);
        assert_eq!(solver.solve(), SolveResult::Sat);
        // The model is a real disagreement.
        let cex: Vec<bool> = enc
            .inputs
            .iter()
            .map(|&v| solver.model_value(v).unwrap_or(false))
            .collect();
        assert_ne!(evaluate(&a, &cex), evaluate(&b, &cex));
    }

    #[test]
    fn miter_shape_mismatch() {
        let a = xor_aig();
        let mut b = Aig::new();
        let x = b.input();
        b.output(x);
        b.output(x.not());
        assert!(miter(&a, &b).is_err());
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
    fn messy_aig(seed: u64, n_inputs: usize, n_ops: usize) -> Aig {
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

    /// Sweeps `src` at the given signature width and reads back the
    /// semantic partition of its nodes: for each source node, the id of
    /// its equivalence class (classes numbered in first-appearance
    /// order) and its phase relative to the class leader.
    fn sweep_partition(src: &Aig, words: usize) -> Vec<(usize, bool)> {
        let mut sweeper = Sweeper::new(src.input_count(), 0xD5, words);
        let (_, map) = sweeper.import_with_map(src);
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        // Batched refinement at the widened 4-word signature width must
        // discover exactly the merges of the 1-word path: with the SAT
        // budget never exhausted on networks this size, both converge to
        // the true semantic equivalence classes, so the source-node
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

//! K-feasible priority-cut enumeration with cut truth tables.
//!
//! The technology mapper (k = 6) and the rewriting and refactoring passes
//! (k = 4) enumerate cuts with this module. Each cut carries the function
//! of the node's positive output over the cut leaves.
//!
//! [`CutDb`] is the filled form: a flat cut arena keyed to one network,
//! filled in arena order by [`CutDb::ensure`]. Each synthesis pass builds
//! and fills its own database for the network it is handed. The mapper's
//! database is held by its caller, so one network's k=6 cuts are
//! enumerated once and served to every library it is mapped onto.
//!
//! [`enumerate_cuts_choice`] is the choice-aware variant: cuts of a
//! class representative may be rooted in any ring member's cone, so the
//! mapper sees every accumulated structure of the function.

use crate::choice::ChoiceAig;
use crate::graph::{Aig, Lit, Node};
use crate::profile::{self, Work};
use logic::TruthTable;

/// A cut: sorted leaf nodes plus the root function over them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cut {
    /// Sorted node indices of the leaves.
    pub leaves: Vec<u32>,
    /// Function of the root's positive output over the leaves (variable
    /// `i` = leaf `i`).
    pub tt: TruthTable,
}

impl Cut {
    /// The trivial cut of a node: the node itself.
    pub fn trivial(node: u32) -> Self {
        Cut {
            leaves: vec![node],
            tt: TruthTable::var(1, 0),
        }
    }

    /// Whether this is the trivial self-cut of `root` (the cut every AND
    /// node carries in addition to its merged cuts). Both the technology
    /// mapper and the rewriting engine skip it — a node cannot cover or
    /// rewrite itself.
    pub fn is_trivial(&self, root: u32) -> bool {
        self.leaves.len() == 1 && self.leaves[0] == root
    }

    /// The cut function restricted to its true support: the
    /// support-shrunk truth table plus, per remaining variable, the leaf
    /// *node* it reads. This is the one shared derivation both consumers
    /// of cut enumeration build on — the mapper matches the shrunk
    /// function against library cells and wires cell pins to the
    /// returned leaves; the rewriting engine NPN-canonizes it and wires
    /// the class subgraph to the same leaves.
    pub fn function_over_support(&self) -> (TruthTable, Vec<u32>) {
        let (tt, kept) = self.tt.shrink_to_support();
        let leaves = kept.iter().map(|&k| self.leaves[k]).collect();
        (tt, leaves)
    }

    /// Whether this cut's leaves are a subset of another's (dominance).
    pub fn dominates(&self, other: &Cut) -> bool {
        self.leaves.len() <= other.leaves.len()
            && self
                .leaves
                .iter()
                .all(|l| other.leaves.binary_search(l).is_ok())
    }
}

/// Cut enumeration parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutConfig {
    /// Maximum leaves per cut (≤ 6).
    pub k: usize,
    /// Maximum stored cuts per node (priority cap; the trivial cut is
    /// always kept in addition).
    pub max_cuts: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        Self { k: 6, max_cuts: 8 }
    }
}

/// Read access to per-node cut sets. Implemented by the plain
/// `Vec<Vec<Cut>>` layout [`enumerate_cuts`] returns and by [`CutDb`],
/// so downstream consumers (the technology mapper's selection phase)
/// accept either source.
pub trait CutSource {
    /// The stored cuts of `node` (empty for the constant, for nodes
    /// without computed cuts, and for out-of-range indices).
    fn cuts_of(&self, node: u32) -> &[Cut];
}

impl CutSource for [Vec<Cut>] {
    fn cuts_of(&self, node: u32) -> &[Cut] {
        self.get(node as usize).map_or(&[], Vec::as_slice)
    }
}

impl CutSource for Vec<Vec<Cut>> {
    fn cuts_of(&self, node: u32) -> &[Cut] {
        self.as_slice().cuts_of(node)
    }
}

impl CutSource for CutDb {
    fn cuts_of(&self, node: u32) -> &[Cut] {
        self.cuts(node)
    }
}

/// Enumerates cuts for every node. Index = node index; constant and input
/// nodes get only their trivial cut (inputs) or nothing (constant).
///
/// This is the one-shot convenience wrapper around [`CutDb`]: it fills a
/// fresh database and unpacks it into the per-node vector layout.
pub fn enumerate_cuts(aig: &Aig, config: CutConfig) -> Vec<Vec<Cut>> {
    let mut db = CutDb::new(config);
    db.ensure(aig);
    (0..aig.len() as u32).map(|i| db.cuts(i).to_vec()).collect()
}

/// A cut database keyed to one network.
///
/// The cuts live in one flat arena (`store`) with a `(start, end)` span
/// per node — the fill appends pruned cuts straight into the arena, so
/// no per-node `Vec` allocation survives ([`enumerate_cuts`] only pays
/// for the per-node layout when explicitly unpacking).
///
/// Lifecycle: [`CutDb::ensure`] computes the cut sets of every node that
/// has none, in one walk over the arena in index order, which is
/// topological (fanins precede their consumers). Nodes already filled are
/// skipped, so a caller that maps one network several times pays for the
/// enumeration once. [`CutDb::reset`] drops everything.
#[derive(Clone, Debug)]
pub struct CutDb {
    config: CutConfig,
    /// Flat cut arena; a node's cuts are `store[span[n].0..span[n].1]`.
    store: Vec<Cut>,
    /// Per-node spans into `store`; `None` = not computed yet.
    span: Vec<Option<(u32, u32)>>,
}

impl CutDb {
    /// Creates an empty database for the given enumeration parameters.
    pub fn new(config: CutConfig) -> Self {
        assert!(config.k >= 2 && config.k <= 6, "cut width must be in 2..=6");
        Self {
            config,
            store: Vec::new(),
            span: Vec::new(),
        }
    }

    /// The enumeration parameters this database was built with.
    pub fn config(&self) -> CutConfig {
        self.config
    }

    /// The stored cuts of `node` (empty until [`CutDb::ensure`] fills it).
    pub fn cuts(&self, node: u32) -> &[Cut] {
        match self.span.get(node as usize).copied().flatten() {
            Some((s, e)) => &self.store[s as usize..e as usize],
            None => &[],
        }
    }

    /// Drops every stored cut; the next [`CutDb::ensure`] recomputes
    /// from scratch.
    pub fn reset(&mut self) {
        self.store.clear();
        self.span.clear();
    }

    /// Computes the cut sets of every node of `aig` that has none, in
    /// index order. The database must be fresh, [`CutDb::reset`], or
    /// already filled for `aig`; a node-count mismatch falls back to a
    /// full recompute. Skipped nodes count as reused cut sets in
    /// [`crate::profile`], enumerated ones as computed.
    pub fn ensure(&mut self, aig: &Aig) {
        if self.span.len() != aig.len() {
            self.reset();
            self.span.resize(aig.len(), None);
        }
        if self.span[0].is_none() {
            self.span[0] = Some((0, 0));
        }
        for &i in aig.input_nodes() {
            if self.span[i as usize].is_none() {
                let s = self.store.len() as u32;
                self.store.push(Cut::trivial(i));
                self.span[i as usize] = Some((s, s + 1));
            }
        }
        let mut scratch: Vec<Cut> = Vec::new();
        let (mut reused, mut computed) = (0u64, 0u64);
        for (idx, node) in aig.nodes().enumerate() {
            let Node::And(a, b) = node else { continue };
            if self.span[idx].is_some() {
                reused += 1;
                continue;
            }
            computed += 1;
            scratch.clear();
            merge_fanin_cuts(a, b, self, self.config, &mut scratch);
            prune(&mut scratch, self.config.max_cuts);
            let s = self.store.len() as u32;
            self.store.append(&mut scratch);
            self.store.push(Cut::trivial(idx as u32));
            self.span[idx] = Some((s, self.store.len() as u32));
        }
        profile::add(Work::CutsReused, reused);
        profile::add(Work::CutsComputed, computed);
    }
}

/// Enumerates cuts over a choice network: one cut set per equivalence
/// class (indexed by the class representative's arena node), where a
/// class's cuts are the merged union over *every* alternative
/// decomposition in its choice ring — a cut of the representative may
/// therefore be rooted in a structure only a losing flow pass produced.
///
/// Cut truth tables always describe the representative's positive
/// output: a ring member stored with inverted phase contributes its cuts
/// complemented. Leaves are class representatives (or primary inputs),
/// so cuts compose across classes exactly as plain cuts compose across
/// nodes. Classes are processed in [`ChoiceAig::class_order`], which
/// guarantees every leaf class is enumerated before its consumers; arena
/// nodes outside that order (unreachable classes, unlinked members) get
/// empty cut sets.
pub fn enumerate_cuts_choice(choice: &ChoiceAig, config: CutConfig) -> Vec<Vec<Cut>> {
    assert!(config.k >= 2 && config.k <= 6, "cut width must be in 2..=6");
    let arena = choice.arena();
    let mut all: Vec<Vec<Cut>> = vec![Vec::new(); arena.len()];
    for &i in arena.input_nodes() {
        all[i as usize] = vec![Cut::trivial(i)];
    }
    for &rep in choice.class_order() {
        let mut acc: Vec<Cut> = Vec::new();
        for (member, phase) in choice.alternatives(rep) {
            let Node::And(a, b) = arena.node(member) else {
                unreachable!("alternatives are AND nodes");
            };
            let mut mine = Vec::new();
            merge_fanin_cuts(a, b, all.as_slice(), config, &mut mine);
            for mut cut in mine {
                if phase {
                    cut.tt = !cut.tt;
                }
                if !acc.contains(&cut) {
                    acc.push(cut);
                }
            }
        }
        prune(&mut acc, config.max_cuts);
        acc.push(Cut::trivial(rep));
        all[rep as usize] = acc;
    }
    all
}

/// Merges the fanin cut sets of an AND node. Rejected merges (leaf union
/// over `k`, duplicate of an already-merged cut) never allocate: the
/// union is built on the stack and compared against the accumulator
/// before an owned cut is materialized.
fn merge_fanin_cuts<S: CutSource + ?Sized>(
    a: Lit,
    b: Lit,
    all: &S,
    config: CutConfig,
    out: &mut Vec<Cut>,
) {
    let ca = all.cuts_of(a.node());
    let cb = all.cuts_of(b.node());
    for cut_a in ca {
        for cut_b in cb {
            let Some((union, n)) = merge_leaves(cut_a, cut_b, config.k) else {
                continue;
            };
            let leaves = &union[..n];
            let ta = expand(cut_a.tt, &cut_a.leaves, leaves);
            let tb = expand(cut_b.tt, &cut_b.leaves, leaves);
            let fa = if a.is_complement() { !ta } else { ta };
            let fb = if b.is_complement() { !tb } else { tb };
            let tt = fa & fb;
            if !out.iter().any(|c| c.tt == tt && c.leaves == leaves) {
                out.push(Cut {
                    leaves: leaves.to_vec(),
                    tt,
                });
            }
        }
    }
}

/// Union of two sorted leaf lists on the stack, or `None` if it exceeds
/// `k` leaves.
fn merge_leaves(cut_a: &Cut, cut_b: &Cut, k: usize) -> Option<([u32; 6], usize)> {
    debug_assert!(k <= 6);
    let la = &cut_a.leaves;
    let lb = &cut_b.leaves;
    let mut union = [0u32; 6];
    let mut n = 0usize;
    let (mut i, mut j) = (0, 0);
    while i < la.len() || j < lb.len() {
        let next = match (la.get(i), lb.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        if n == k {
            return None;
        }
        union[n] = next;
        n += 1;
    }
    Some((union, n))
}

/// Re-expresses `tt` (over the sorted `from` leaves) over the sorted
/// `to` leaf superset, entirely with word-level bit operations: each
/// `to` position missing from `from` inserts a don't-care variable by
/// duplicating the truth-table blocks below it.
fn expand(tt: TruthTable, from: &[u32], to: &[u32]) -> TruthTable {
    let n = to.len();
    if from.len() == n {
        debug_assert_eq!(from, to);
        return tt;
    }
    let mut bits = tt.bits();
    let mut cur = from.len();
    let mut fi = 0;
    for (j, &leaf) in to.iter().enumerate() {
        if fi < from.len() && from[fi] == leaf {
            fi += 1;
            continue;
        }
        bits = insert_var(bits, cur, j);
        cur += 1;
    }
    debug_assert_eq!(fi, from.len(), "every source leaf is in the merged set");
    debug_assert_eq!(cur, n);
    TruthTable::from_bits(n, bits)
}

/// Inserts a don't-care variable at position `at` into a function over
/// `vars` variables: every block of `2^at` bits is duplicated.
fn insert_var(bits: u64, vars: usize, at: usize) -> u64 {
    debug_assert!(at <= vars && vars < 6);
    let block = 1usize << at;
    let total = 1usize << vars;
    let mask = if block == 64 { !0 } else { (1u64 << block) - 1 };
    let mut out = 0u64;
    let mut src = 0usize;
    let mut dst = 0usize;
    while src < total {
        let chunk = (bits >> src) & mask;
        out |= chunk << dst;
        out |= chunk << (dst + block);
        src += block;
        dst += 2 * block;
    }
    out
}

/// Keeps at most `max` cuts in place, preferring small leaf counts and
/// dropping dominated cuts; kept cuts stay in (stable) sorted order and
/// the vector's capacity is retained for reuse.
fn prune(cuts: &mut Vec<Cut>, max: usize) {
    cuts.sort_by_key(|c| c.leaves.len());
    let mut kept = 0usize;
    let mut i = 0usize;
    while i < cuts.len() && kept < max {
        let (head, tail) = cuts.split_at(kept);
        let dominated = head.iter().any(|k| k.dominates(&tail[i - kept]));
        if !dominated {
            cuts.swap(kept, i);
            kept += 1;
        }
        i += 1;
    }
    cuts.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_functions_match_simulation() {
        // f = (a & b) ^ c: check every non-trivial cut's truth table by
        // evaluating the AIG directly.
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let ab = aig.and(a, b);
        let f = aig.xor(ab, c);
        aig.output(f);
        let cuts = enumerate_cuts(&aig, CutConfig { k: 4, max_cuts: 8 });
        let root = f.node() as usize;
        assert!(!cuts[root].is_empty());
        for cut in &cuts[root] {
            for m in 0..(1usize << cut.leaves.len()) {
                // Build a full input assignment consistent with leaf values.
                // Leaves here are always PIs or internal nodes; we only
                // check cuts whose leaves are all PIs.
                if !cut
                    .leaves
                    .iter()
                    .all(|&l| matches!(aig.node(l), crate::graph::Node::Input(_)))
                {
                    continue;
                }
                let mut inputs = vec![false; 3];
                for (i, &leaf) in cut.leaves.iter().enumerate() {
                    if let crate::graph::Node::Input(k) = aig.node(leaf) {
                        inputs[k as usize] = (m >> i) & 1 == 1;
                    }
                }
                // The cut's tt describes the node's *positive* output; the
                // registered output literal may be complemented.
                let expected = crate::sim::evaluate(&aig, &inputs)[0] ^ f.is_complement();
                // Only full-support cuts determine the output uniquely.
                if cut.leaves.len() == 3 {
                    assert_eq!(
                        cut.tt.eval_index(m),
                        expected,
                        "cut {:?} minterm {m}",
                        cut.leaves
                    );
                }
            }
        }
    }

    #[test]
    fn finds_the_global_cut() {
        // A 4-input function must have a cut whose leaves are the 4 PIs.
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..4).map(|_| aig.input()).collect();
        let l = aig.and(xs[0], xs[1]);
        let r = aig.and(xs[2], xs[3]);
        let f = aig.or(l, r);
        aig.output(f);
        let cuts = enumerate_cuts(&aig, CutConfig { k: 4, max_cuts: 8 });
        let root_cuts = &cuts[f.node() as usize];
        let pi_nodes: Vec<u32> = aig.input_nodes().to_vec();
        let global = root_cuts
            .iter()
            .find(|c| c.leaves == pi_nodes)
            .expect("global cut should exist");
        // f = (x0&x1) | (x2&x3); `or` returns a complemented literal, so
        // the node's positive function is the complement.
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        let expected = (a & b) | (c & d);
        let node_fn = if f.is_complement() {
            !expected
        } else {
            expected
        };
        assert_eq!(global.tt, node_fn);
    }

    #[test]
    fn respects_k_limit() {
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..8).map(|_| aig.input()).collect();
        let f = aig.and_many(&xs);
        aig.output(f);
        let cuts = enumerate_cuts(&aig, CutConfig { k: 4, max_cuts: 8 });
        for node_cuts in &cuts {
            for cut in node_cuts {
                assert!(cut.leaves.len() <= 4);
            }
        }
    }

    #[test]
    fn trivial_cut_detection_and_support_projection() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let f = aig.and(a, b);
        aig.output(f);
        let cuts = enumerate_cuts(&aig, CutConfig::default());
        let root = f.node();
        let trivial = cuts[root as usize]
            .iter()
            .find(|c| c.is_trivial(root))
            .expect("every AND node keeps its trivial cut");
        assert_eq!(trivial.leaves, vec![root]);
        let full = cuts[root as usize]
            .iter()
            .find(|c| c.leaves.len() == 2)
            .expect("2-leaf cut");
        let (tt, leaves) = full.function_over_support();
        assert_eq!(tt.n_vars(), 2);
        assert_eq!(leaves, vec![a.node(), b.node()]);
    }

    #[test]
    fn function_over_support_drops_irrelevant_leaves() {
        // A cut whose function ignores one leaf must project it away.
        let cut = Cut {
            leaves: vec![3, 5, 9],
            tt: TruthTable::var(3, 0) & TruthTable::var(3, 2),
        };
        let (tt, leaves) = cut.function_over_support();
        assert_eq!(tt.n_vars(), 2);
        assert_eq!(leaves, vec![3, 9]);
        assert_eq!(tt, TruthTable::var(2, 0) & TruthTable::var(2, 1));
    }

    #[test]
    fn bitwise_expand_matches_pointwise_evaluation() {
        // expand() must behave exactly like re-evaluating the function
        // with the source leaves wired to their positions in the target.
        let from = [3u32, 7, 12];
        let to = [1u32, 3, 7, 9, 12];
        for seed in [0u64, 0xAC, 0b1010_1010, 0xDEAD_BEEF, 0xFF] {
            let tt = TruthTable::from_bits(from.len(), seed);
            let got = expand(tt, &from, &to);
            let positions: Vec<usize> = from
                .iter()
                .map(|l| to.binary_search(l).expect("from ⊆ to"))
                .collect();
            let want = TruthTable::from_fn(to.len(), |assignment| {
                let local: Vec<bool> = positions.iter().map(|&p| assignment[p]).collect();
                tt.eval(&local)
            });
            assert_eq!(got, want, "seed {seed:#x}");
        }
    }

    #[test]
    fn choice_cuts_cover_both_structures() {
        // f = a ^ b built two ways across two snapshots: the class of f
        // must carry cuts whose functions agree with XOR over the PI
        // leaves, merged from either member's cone.
        let build = |mux_form: bool| {
            let mut aig = Aig::new();
            let a = aig.input();
            let b = aig.input();
            let f = if mux_form {
                aig.mux(a, b.not(), b)
            } else {
                aig.xor(a, b)
            };
            let g = aig.and(f, a);
            aig.output(f);
            aig.output(g);
            aig
        };
        let choice =
            crate::choice::ChoiceAig::build(&[build(false), build(true)]).expect("same interface");
        let cuts = enumerate_cuts_choice(&choice, CutConfig { k: 4, max_cuts: 8 });
        // Every class in order got cuts; leaves are inputs or classes in
        // earlier positions; the trivial cut is present.
        let position: std::collections::HashMap<u32, usize> = choice
            .class_order()
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();
        for (i, &rep) in choice.class_order().iter().enumerate() {
            let class_cuts = &cuts[rep as usize];
            assert!(class_cuts.iter().any(|c| c.is_trivial(rep)));
            assert!(
                class_cuts.iter().any(|c| !c.is_trivial(rep)),
                "class {rep} needs a non-trivial cut"
            );
            for cut in class_cuts {
                if cut.is_trivial(rep) {
                    continue;
                }
                for &leaf in &cut.leaves {
                    match choice.arena().node(leaf) {
                        crate::graph::Node::Input(_) => {}
                        crate::graph::Node::And(_, _) => {
                            assert!(position[&leaf] < i, "leaf {leaf} must precede class {rep}")
                        }
                        crate::graph::Node::Const => panic!("constant cannot be a cut leaf"),
                    }
                }
            }
        }
        // The output class of f has a 2-leaf PI cut computing XOR (up to
        // the output literal's phase).
        let f_lit = choice.outputs()[0];
        let f_cuts = &cuts[f_lit.node() as usize];
        let pi: Vec<u32> = choice.arena().input_nodes().to_vec();
        let xor = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
        let found = f_cuts
            .iter()
            .any(|c| c.leaves == pi && (c.tt == xor || c.tt == !xor));
        assert!(found, "the XOR cut over the PIs must exist: {f_cuts:?}");
    }

    #[test]
    fn dominance_pruning() {
        let a = Cut {
            leaves: vec![1, 2],
            tt: TruthTable::var(2, 0),
        };
        let b = Cut {
            leaves: vec![1, 2, 3],
            tt: TruthTable::var(3, 0),
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn complemented_edges_fold_into_cut_tt() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let f = aig.and(a.not(), b);
        aig.output(f);
        let cuts = enumerate_cuts(&aig, CutConfig::default());
        let root = &cuts[f.node() as usize];
        let pi_cut = root
            .iter()
            .find(|c| c.leaves.len() == 2)
            .expect("2-leaf cut");
        let ta = TruthTable::var(2, 0);
        let tb = TruthTable::var(2, 1);
        assert_eq!(pi_cut.tt, !ta & tb);
    }

    /// A small but non-trivial network with sharing, complemented edges
    /// and XOR cones.
    fn sample_network() -> Aig {
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..6).map(|_| aig.input()).collect();
        let s = aig.and(xs[0], xs[1]);
        let t = aig.xor(s, xs[2]);
        let u = aig.mux(xs[3], t, s.not());
        let v = aig.or(u, xs[4]);
        let w = aig.and(v, xs[5].not());
        let z = aig.xor(w, t);
        aig.output(w);
        aig.output(z);
        aig
    }

    #[test]
    fn cutdb_matches_one_shot_enumeration() {
        let aig = sample_network();
        let config = CutConfig { k: 4, max_cuts: 6 };
        let scope = obs::JobScope::begin();
        let mut db = CutDb::new(config);
        db.ensure(&aig);
        let first = profile::scoped(&scope);
        assert!(first.cuts_computed > 0);
        assert_eq!(first.cuts_reused, 0, "first fill computes everything");
        // A second ensure on the same network is pure reuse.
        db.ensure(&aig);
        let second = profile::scoped(&scope).delta_since(&first);
        assert_eq!(second.cuts_computed, 0);
        assert!(second.cuts_reused > 0);
        let per_node = enumerate_cuts(&aig, config);
        for idx in 0..aig.len() as u32 {
            assert_eq!(db.cuts(idx), &per_node[idx as usize][..], "node {idx}");
        }
    }

    #[test]
    fn cutdb_reset_forgets_and_recomputes() {
        let aig = sample_network();
        let scope = obs::JobScope::begin();
        let mut db = CutDb::new(CutConfig { k: 4, max_cuts: 8 });
        db.ensure(&aig);
        let computed = profile::scoped(&scope).cuts_computed;
        db.reset();
        assert!(db.cuts(aig.len() as u32 - 1).is_empty());
        db.ensure(&aig);
        assert_eq!(profile::scoped(&scope).cuts_computed, 2 * computed);
    }
}

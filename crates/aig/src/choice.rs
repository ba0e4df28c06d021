//! Structural choices: equivalent network snapshots accumulated into one
//! arena, with functionally-equivalent nodes linked into *choice rings*
//! the technology mapper can map over (ABC `dch`-style).
//!
//! Every synthesis pass discards the losing structure; by the time the
//! mapper runs, it only ever sees one shape per function. A [`ChoiceAig`]
//! keeps the losers: the flow engine snapshots the network around each
//! pass, [`ChoiceAig::build`] imports every snapshot into one shared
//! structurally hashed arena and runs the same sim-signature + budgeted
//! incremental-SAT sweep as [`crate::check`] (fraig-style, phase-aware).
//! Nodes proven functionally equivalent form a class: the first-imported
//! member is the canonical *representative*, the rest are linked into the
//! representative's choice ring — each ring member is one alternative
//! AND-decomposition of the class over other classes, because the sweep
//! resolves every fanin to its representative before a node is created.
//!
//! An *acyclicity guard* keeps the class-level dependency graph a DAG:
//! a member is only linked when doing so cannot make two classes each
//! reachable from the other's alternatives (such a member is still
//! merged for sharing, just not offered as a mapping choice). That is
//! what lets [`ChoiceAig::class_order`] hand the mapper a topological
//! order in which every cut leaf's class is processed before its
//! consumers.
//!
//! Consumers:
//!
//! * [`crate::cuts::enumerate_cuts_choice`] — cut enumeration that walks
//!   the rings, so a cut of the representative may be rooted in any
//!   member's cone;
//! * `techmap::map_subject` with a `Subject::Choices` — mapping over the
//!   choices;
//! * [`ChoiceAig::collapsed`] — the representative-resolved network (a
//!   SAT sweep / fraig of the primary snapshot), which is what the `dch`
//!   flow step hands to non-choice consumers.

use crate::check::{ShapeMismatch, Sweeper};
use crate::graph::{Aig, Lit, Node};

/// Tunables for the choice sweep.
#[derive(Clone, Copy, Debug)]
pub struct ChoiceConfig {
    /// Initial random-simulation words seeding the candidate classes
    /// (64 patterns per word; refined by SAT counterexamples).
    pub sim_words: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for ChoiceConfig {
    fn default() -> Self {
        Self {
            sim_words: 8,
            seed: 0x5EED_DC11,
        }
    }
}

/// What one choice build did (per-class/ring statistics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChoiceStats {
    /// Snapshots imported.
    pub snapshots: usize,
    /// AND nodes in the shared arena after the sweep.
    pub arena_ands: usize,
    /// Equivalence classes carrying at least one linked choice.
    pub classes_with_choices: usize,
    /// Linked ring members in total (alternatives beyond the reps).
    pub choices: usize,
    /// Largest ring (members excluding the representative).
    pub max_ring: usize,
    /// Nodes merged into a representative (linked or not).
    pub merged: usize,
    /// Proven merges *not* linked because linking would have made the
    /// class dependency graph cyclic.
    pub guard_rejected: usize,
}

/// Equivalent snapshots fused into one arena with choice rings.
///
/// The network's *function* is the first snapshot's (its outputs,
/// representative-resolved, are [`ChoiceAig::outputs`]); later snapshots
/// only contribute alternative structures. Build one with
/// [`ChoiceAig::build`] — typically via the `dch` flow step
/// ([`crate::Flow`]), which hands the accumulated snapshots in
/// reverse-chronological order so representatives come from the most
/// optimized network.
#[derive(Clone, Debug)]
pub struct ChoiceAig {
    /// The cleaned primary snapshot, as imported — the network a flow
    /// *without* the `dch` step would have produced. Kept so consumers
    /// can compare (or fall back) against the no-choice baseline.
    primary: Aig,
    /// The shared strashed arena. Every AND reads representative
    /// literals (see module docs); no outputs are registered on it.
    arena: Aig,
    /// Node → representative literal (identity for representatives).
    repr: Vec<Lit>,
    /// Representative node → linked ring members (non-representative
    /// AND nodes of the class), in import order.
    rings: Vec<Vec<u32>>,
    /// The primary snapshot's outputs, representative-resolved.
    outputs: Vec<Lit>,
    /// Representative AND nodes reachable from the outputs through any
    /// alternative's fanins, dependencies first.
    order: Vec<u32>,
    stats: ChoiceStats,
}

impl ChoiceAig {
    /// Builds the choice network from equivalent snapshots with default
    /// sweep settings. `snapshots[0]` is the primary network (defines
    /// the outputs and is imported first, so its nodes become the class
    /// representatives); order the rest however diversity dictates.
    ///
    /// Merges are SAT-proven, so an accidentally *in*equivalent snapshot
    /// cannot corrupt the function — its nodes simply never merge.
    ///
    /// # Errors
    ///
    /// [`ShapeMismatch`] when any snapshot's interface widths differ
    /// from the primary's.
    ///
    /// # Panics
    ///
    /// When `snapshots` is empty.
    pub fn build(snapshots: &[Aig]) -> Result<Self, ShapeMismatch> {
        Self::build_with(snapshots, &ChoiceConfig::default())
    }

    /// [`ChoiceAig::build`] with explicit sweep settings.
    ///
    /// # Errors
    ///
    /// As [`ChoiceAig::build`].
    pub fn build_with(snapshots: &[Aig], config: &ChoiceConfig) -> Result<Self, ShapeMismatch> {
        let primary = snapshots.first().expect("at least one snapshot");
        for other in &snapshots[1..] {
            if other.input_count() != primary.input_count()
                || other.output_count() != primary.output_count()
            {
                return Err(ShapeMismatch {
                    inputs: (primary.input_count(), other.input_count()),
                    outputs: (primary.output_count(), other.output_count()),
                });
            }
        }
        let mut sweeper = Sweeper::new(
            primary.input_count(),
            config.seed,
            config.sim_words.clamp(1, 64),
        );
        let primary = primary.cleanup();
        let outputs = sweeper.import(&primary);
        for snapshot in &snapshots[1..] {
            let _ = sweeper.import(&snapshot.cleanup());
        }
        let (arena, repr) = sweeper.into_parts();
        let (rings, mut stats) = link_rings(&arena, &repr);
        stats.snapshots = snapshots.len();
        stats.arena_ands = arena.and_count();
        let order = class_order(&arena, &repr, &rings, &outputs);
        Ok(Self {
            primary,
            arena,
            repr,
            rings,
            outputs,
            order,
            stats,
        })
    }

    /// The cleaned primary snapshot — the no-choice baseline network.
    pub fn primary(&self) -> &Aig {
        &self.primary
    }

    /// The shared arena (inputs in primary-snapshot order; no outputs
    /// registered — use [`ChoiceAig::outputs`]).
    pub fn arena(&self) -> &Aig {
        &self.arena
    }

    /// The primary snapshot's output literals, representative-resolved.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Resolves a literal through its representative.
    pub fn repr_of(&self, l: Lit) -> Lit {
        let r = self.repr[l.node() as usize];
        if l.is_complement() {
            r.not()
        } else {
            r
        }
    }

    /// The linked ring members of a representative (empty for non-reps
    /// and single-structure classes).
    pub fn ring(&self, rep: u32) -> &[u32] {
        self.rings
            .get(rep as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether ring member `m`'s positive output is the *complement* of
    /// its representative's positive output.
    pub fn member_phase(&self, m: u32) -> bool {
        self.repr[m as usize].is_complement()
    }

    /// All alternative AND-decompositions of the class of `rep`, as
    /// `(node, phase)` pairs — the representative itself first (phase
    /// false), then the ring members with their phase relative to the
    /// representative.
    pub fn alternatives(&self, rep: u32) -> impl Iterator<Item = (u32, bool)> + '_ {
        std::iter::once((rep, false))
            .chain(self.ring(rep).iter().map(|&m| (m, self.member_phase(m))))
    }

    /// Representative AND nodes reachable from the outputs through any
    /// alternative's fanins, dependencies first — the processing order
    /// for choice-aware cut enumeration and match selection.
    pub fn class_order(&self) -> &[u32] {
        &self.order
    }

    /// Build statistics (per-class/ring counts).
    pub fn stats(&self) -> ChoiceStats {
        self.stats
    }

    /// The representative-resolved network: the primary snapshot with
    /// every SAT-proven class merged onto one structure. This is a fraig
    /// of the primary snapshot — never larger, often smaller.
    pub fn collapsed(&self) -> Aig {
        let mut out = self.arena.clone();
        for &o in &self.outputs {
            out.output(o);
        }
        out.cleanup()
    }

    /// Exhaustively re-checks that the class-level dependency graph
    /// (every alternative of every class pointing at its fanin classes)
    /// is acyclic — the invariant the linking guard maintains and the
    /// mapper's topological order depends on. Verification hook.
    pub fn verify_acyclic(&self) -> bool {
        let n = self.arena.len();
        // 0 = unvisited, 1 = on the DFS path, 2 = done.
        let mut state = vec![0u8; n];
        for root in 0..n as u32 {
            if !self.is_class_rep(root) || state[root as usize] != 0 {
                continue;
            }
            // Iterative DFS with an explicit child cursor.
            let mut stack: Vec<(u32, Vec<u32>, usize)> = vec![(root, self.class_deps(root), 0)];
            state[root as usize] = 1;
            while let Some(top) = stack.last_mut() {
                let u = top.0;
                if top.2 >= top.1.len() {
                    state[u as usize] = 2;
                    stack.pop();
                    continue;
                }
                let v = top.1[top.2];
                top.2 += 1;
                match state[v as usize] {
                    0 => {
                        state[v as usize] = 1;
                        let deps = self.class_deps(v);
                        stack.push((v, deps, 0));
                    }
                    1 => return false, // back edge: a cycle
                    _ => {}
                }
            }
        }
        true
    }

    /// Whether `node` is the representative of an AND class.
    fn is_class_rep(&self, node: u32) -> bool {
        matches!(self.arena.node(node), Node::And(_, _))
            && self.repr[node as usize] == Lit::new(node, false)
    }

    /// The AND-class fanin dependencies of class `rep` across all of its
    /// alternatives.
    fn class_deps(&self, rep: u32) -> Vec<u32> {
        let mut deps = Vec::new();
        for (m, _) in self.alternatives(rep) {
            let Node::And(a, b) = self.arena.node(m) else {
                continue;
            };
            for f in [a.node(), b.node()] {
                if matches!(self.arena.node(f), Node::And(_, _)) && !deps.contains(&f) {
                    deps.push(f);
                }
            }
        }
        deps
    }
}

/// Walks the swept arena in creation order and links merged nodes into
/// their representative's ring, guarded so the class dependency graph
/// stays acyclic.
fn link_rings(arena: &Aig, repr: &[Lit]) -> (Vec<Vec<u32>>, ChoiceStats) {
    let n = arena.len();
    let mut rings: Vec<Vec<u32>> = vec![Vec::new(); n];
    // Class dependency adjacency: class -> fanin classes contributed by
    // every linked alternative (the representative's own fanins
    // included).
    let mut edges: Vec<Vec<u32>> = vec![Vec::new(); n];
    // Timestamped DFS scratch: `mark[v] == stamp` means visited in the
    // current query, so the scratch never needs clearing.
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut stats = ChoiceStats::default();
    for idx in 0..n as u32 {
        let Node::And(a, b) = arena.node(idx) else {
            continue;
        };
        let (fa, fb) = (a.node(), b.node());
        if repr[idx as usize] == Lit::new(idx, false) {
            // A fresh representative. Its fanins are older nodes, and no
            // edge into this brand-new class exists yet, so recording its
            // own decomposition can never create a cycle.
            edges[idx as usize].push(fa);
            edges[idx as usize].push(fb);
            continue;
        }
        stats.merged += 1;
        let rep = repr[idx as usize].node();
        // Constant- and input-classes are never mapping roots; merged
        // nodes stay unlinked there (the merge itself still shares).
        if !matches!(arena.node(rep), Node::And(_, _)) {
            continue;
        }
        // The acyclicity guard: linking makes class `rep` depend on the
        // fanin classes; refuse when `rep` is already reachable from
        // either of them. One stamp serves both queries — nodes cleared
        // of reaching `rep` in the first search need no revisit.
        stamp += 1;
        if reaches(&edges, fa, rep, &mut mark, stamp) || reaches(&edges, fb, rep, &mut mark, stamp)
        {
            stats.guard_rejected += 1;
            continue;
        }
        rings[rep as usize].push(idx);
        edges[rep as usize].push(fa);
        edges[rep as usize].push(fb);
        stats.choices += 1;
    }
    for ring in &rings {
        if !ring.is_empty() {
            stats.classes_with_choices += 1;
            stats.max_ring = stats.max_ring.max(ring.len());
        }
    }
    (rings, stats)
}

/// Whether `target` is reachable from `from` over the class edges.
fn reaches(edges: &[Vec<u32>], from: u32, target: u32, mark: &mut [u32], stamp: u32) -> bool {
    if from == target {
        return true;
    }
    let mut stack = vec![from];
    while let Some(u) = stack.pop() {
        if mark[u as usize] == stamp {
            continue;
        }
        mark[u as usize] = stamp;
        for &v in &edges[u as usize] {
            if v == target {
                return true;
            }
            if mark[v as usize] != stamp {
                stack.push(v);
            }
        }
    }
    false
}

/// Topological order (dependencies first) over the representative AND
/// classes reachable from the outputs through any alternative's fanins.
fn class_order(arena: &Aig, repr: &[Lit], rings: &[Vec<u32>], outputs: &[Lit]) -> Vec<u32> {
    let n = arena.len();
    let mut state = vec![0u8; n]; // 0 unvisited, 1 on path, 2 done
    let mut order = Vec::new();
    let deps_of = |rep: u32| -> Vec<u32> {
        let mut deps = Vec::new();
        for m in std::iter::once(rep).chain(rings[rep as usize].iter().copied()) {
            let Node::And(a, b) = arena.node(m) else {
                continue;
            };
            for f in [a.node(), b.node()] {
                if matches!(arena.node(f), Node::And(_, _)) {
                    deps.push(f);
                }
            }
        }
        deps
    };
    for out in outputs {
        let root = out.node();
        if !matches!(arena.node(root), Node::And(_, _)) || state[root as usize] != 0 {
            continue;
        }
        debug_assert_eq!(
            repr[root as usize],
            Lit::new(root, false),
            "outputs are reps"
        );
        let mut stack: Vec<(u32, Vec<u32>, usize)> = vec![(root, deps_of(root), 0)];
        state[root as usize] = 1;
        while let Some(top) = stack.last_mut() {
            let u = top.0;
            if top.2 >= top.1.len() {
                state[u as usize] = 2;
                order.push(u);
                stack.pop();
                continue;
            }
            let v = top.1[top.2];
            top.2 += 1;
            match state[v as usize] {
                0 => {
                    state[v as usize] = 1;
                    let d = deps_of(v);
                    stack.push((v, d, 0));
                }
                1 => unreachable!("the linking guard keeps choice rings acyclic"),
                _ => {}
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_equivalence, Equivalence};

    /// Two structurally different XOR-rich networks of the same function.
    fn xor_pair() -> (Aig, Aig) {
        let build = |serial: bool| {
            let mut aig = Aig::new();
            let xs: Vec<Lit> = (0..6).map(|_| aig.input()).collect();
            let f = if serial {
                let mut acc = xs[0];
                for &x in &xs[1..] {
                    acc = aig.xor(acc, x);
                }
                acc
            } else {
                aig.xor_many(&xs)
            };
            let g = aig.and(xs[0], xs[1]);
            aig.output(f);
            aig.output(g);
            aig
        };
        (build(false), build(true))
    }

    #[test]
    fn snapshots_merge_into_classes_with_rings() {
        let (primary, alt) = xor_pair();
        let choice = ChoiceAig::build(&[primary.clone(), alt]).expect("same interface");
        let stats = choice.stats();
        assert_eq!(stats.snapshots, 2);
        assert!(stats.merged > 0, "equivalent structures must merge");
        assert!(
            stats.choices > 0,
            "different decompositions must be linked as choices"
        );
        assert!(stats.classes_with_choices > 0);
        assert!(stats.max_ring >= 1);
        // The choice function is the primary snapshot's.
        assert_eq!(
            check_equivalence(&primary, &choice.collapsed()),
            Ok(Equivalence::Equal)
        );
    }

    #[test]
    fn collapsed_is_a_fraig_of_the_primary() {
        // Internal redundancy the strash cannot see: x ^ y built twice
        // with opposite operand phases.
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x1 = aig.xor(a, b);
        let t1 = aig.and(a.not(), b.not());
        let t2 = aig.and(a, b);
        let x2 = aig.or(t1, t2).not(); // xor again, different structure
        let f = aig.and(x1, x2);
        let g = aig.or(x1, x2);
        aig.output(f);
        aig.output(g);
        let choice = ChoiceAig::build(&[aig.clone()]).expect("one snapshot");
        let collapsed = choice.collapsed();
        assert_eq!(check_equivalence(&aig, &collapsed), Ok(Equivalence::Equal));
        assert!(
            collapsed.and_count() < aig.and_count(),
            "the sweep must merge the two XOR structures: {} vs {}",
            collapsed.and_count(),
            aig.and_count()
        );
    }

    #[test]
    fn class_order_is_topological_over_alternatives() {
        let (primary, alt) = xor_pair();
        let choice = ChoiceAig::build(&[primary, alt]).expect("same interface");
        let order = choice.class_order();
        assert!(!order.is_empty());
        let position: std::collections::HashMap<u32, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for (i, &rep) in order.iter().enumerate() {
            for (m, _) in choice.alternatives(rep) {
                let Node::And(a, b) = choice.arena().node(m) else {
                    continue;
                };
                for f in [a.node(), b.node()] {
                    if matches!(choice.arena().node(f), Node::And(_, _)) {
                        let fp = position
                            .get(&f)
                            .unwrap_or_else(|| panic!("dep class {f} of {rep} not in order"));
                        assert!(*fp < i, "class {f} must precede its consumer {rep}");
                    }
                }
            }
        }
    }

    #[test]
    fn rings_never_form_cycles() {
        // Stress the guard with many snapshots of reconvergent logic.
        let mut snapshots = Vec::new();
        for variant in 0..4u64 {
            let mut aig = Aig::new();
            let xs: Vec<Lit> = (0..5).map(|_| aig.input()).collect();
            let m = aig.mux(xs[0], xs[1], xs[2]);
            let p = if variant % 2 == 0 {
                aig.xor_many(&[m, xs[3], xs[4]])
            } else {
                let t = aig.xor(m, xs[3]);
                aig.xor(t, xs[4])
            };
            let q = if variant < 2 {
                aig.or(m, p)
            } else {
                aig.and(m.not(), p.not()).not()
            };
            aig.output(p);
            aig.output(q);
            snapshots.push(aig);
        }
        let choice = ChoiceAig::build(&snapshots).expect("same interface");
        assert!(choice.verify_acyclic(), "choice rings must stay acyclic");
        // And membership is consistent: ring members resolve to their rep.
        for &rep in choice.class_order() {
            for &m in choice.ring(rep) {
                assert_eq!(choice.repr_of(Lit::new(m, false)).node(), rep);
            }
        }
    }

    #[test]
    fn inequivalent_snapshot_cannot_corrupt_the_function() {
        let (primary, _) = xor_pair();
        // A same-shape but different function network.
        let mut wrong = Aig::new();
        let xs: Vec<Lit> = (0..6).map(|_| wrong.input()).collect();
        let f = wrong.and_many(&xs);
        let g = wrong.or(xs[0], xs[1]);
        wrong.output(f);
        wrong.output(g);
        let choice = ChoiceAig::build(&[primary.clone(), wrong]).expect("same interface");
        // Merges are SAT-proven, so the collapsed network still computes
        // the primary's function.
        assert_eq!(
            check_equivalence(&primary, &choice.collapsed()),
            Ok(Equivalence::Equal)
        );
        assert!(choice.verify_acyclic());
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let (primary, _) = xor_pair();
        let mut narrow = Aig::new();
        let x = narrow.input();
        narrow.output(x);
        let err = ChoiceAig::build(&[primary, narrow]).expect_err("shapes differ");
        assert_eq!(err.inputs, (6, 1));
    }

    #[test]
    fn single_snapshot_has_no_choices_but_valid_order() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let ab = aig.and(a, b);
        let f = aig.and(ab, c);
        aig.output(f);
        let choice = ChoiceAig::build(&[aig]).expect("builds");
        assert_eq!(choice.stats().choices, 0);
        assert_eq!(choice.class_order().len(), 2);
        assert!(choice.verify_acyclic());
    }
}

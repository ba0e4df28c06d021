//! DAG-aware cut rewriting (ABC's `rewrite`, NPN-class based).
//!
//! Every 4-input cut function falls into one of the 222 NPN classes; a
//! process-wide [`RewriteLibrary`] stores one precomputed compact AIG
//! subgraph per class (built once behind a `OnceLock`, like the engine's
//! NPN match caches). The [`rewrite`] pass walks the network in
//! topological order, and for each AND node prices every non-trivial
//! 4-cut: the class subgraph is instantiated *on paper* against the
//! output graph's structural hash ([`crate::Aig::find_and`]) to count the
//! nodes it would add, and the cut's MFFC (maximal fanout-free cone — the
//! nodes only this root keeps alive) is dereferenced to count the nodes
//! it would free. The best positive-gain candidate replaces the node;
//! with [`RewriteConfig::zero_gain`] (`rw -z`) zero-gain replacements are
//! taken too, perturbing the structure so that later passes can escape
//! local minima.
//!
//! The pass never grows the network: if the rewritten result ends up
//! larger after cleanup (possible in principle, since gains are estimated
//! against the evolving output graph), the cleaned input is returned
//! unchanged.

use crate::cuts::{CutConfig, CutDb};
use crate::graph::{Aig, Lit, Node};
use logic::npn::{npn_canon, NpnCanon};
use logic::sop::isop;
use logic::TruthTable;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Rewriting knobs.
#[derive(Clone, Copy, Debug)]
pub struct RewriteConfig {
    /// Accept zero-gain replacements (`rw -z`): the node count stays the
    /// same but the structure changes, enabling later passes to improve.
    pub zero_gain: bool,
    /// Depth-aware mode (`rw -l`): reject any candidate whose dry-run
    /// root level exceeds the level the root would get from the plain
    /// structural copy, so a size gain can never buy local depth growth.
    pub level_aware: bool,
    /// Priority-cut cap per node (cut width is fixed at 4 — the library
    /// covers exactly the 4-variable NPN classes).
    pub max_cuts: usize,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        Self {
            zero_gain: false,
            level_aware: false,
            max_cuts: 8,
        }
    }
}

/// The precomputed optimal-subgraph library: one compact AIG structure
/// per 4-variable NPN class, all sharing one structurally hashed arena.
///
/// Built once per process via [`library`]; construction enumerates the
/// 65 536 four-variable functions, synthesizes each class representative
/// through best-of decompositions (AND/OR/XOR cofactor splits, both-phase
/// irredundant SOPs, Shannon muxes) and marks the representative's whole
/// NPN orbit as classified, so only the 222 class reps are synthesized.
#[derive(Debug)]
pub struct RewriteLibrary {
    /// The shared arena: exactly four primary inputs plus the class
    /// subgraphs (structurally hashed across classes). Input `k` of the
    /// arena is variable `k` of every stored function.
    arena: Aig,
    /// Canonical truth-table bits → root literal realizing the canonical
    /// function over the arena leaves.
    classes: HashMap<u64, Lit>,
    /// Root node → its cone in topological (ascending-index) order,
    /// precomputed so pricing/instantiating a cut never re-walks the
    /// arena.
    cones: HashMap<u32, Vec<u32>>,
}

/// A priced replacement: the class subgraph plus the pin binding that
/// makes it compute a concrete cut function over concrete leaf literals.
#[derive(Clone, Debug)]
pub struct Plan {
    root: Lit,
    pins: [Lit; 4],
    output_flip: bool,
}

/// A dry-run literal: either an existing literal of the target graph or
/// a virtual literal over a node the plan would create (identified by
/// the arena node that first produced it, with the complement in bit 0 —
/// mirroring [`Lit`]'s encoding).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum DryLit {
    Real(Lit),
    New(u32),
}

impl DryLit {
    const FALSE: DryLit = DryLit::Real(Lit::FALSE);
    const TRUE: DryLit = DryLit::Real(Lit::TRUE);

    /// A fresh positive virtual literal for arena node `n`.
    fn fresh(n: u32) -> DryLit {
        DryLit::New(n << 1)
    }

    fn not(self) -> DryLit {
        match self {
            DryLit::Real(l) => DryLit::Real(l.not()),
            DryLit::New(v) => DryLit::New(v ^ 1),
        }
    }
}

/// Operand-order-independent key for the virtual structural hash
/// (mirrors `Aig::and` sorting its operand pair).
fn normalize_pair(a: DryLit, b: DryLit) -> (DryLit, DryLit) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

static LIBRARY: OnceLock<RewriteLibrary> = OnceLock::new();
static LIBRARY_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// The process-wide rewrite library. The first call builds it (a few
/// milliseconds); every later call from any thread returns the same
/// `&'static` reference. `ambipolar::engine::rewrite_library` re-exports
/// this next to the library and match caches it manages.
pub fn library() -> &'static RewriteLibrary {
    LIBRARY.get_or_init(|| {
        LIBRARY_BUILDS.fetch_add(1, Ordering::Relaxed);
        RewriteLibrary::new()
    })
}

/// How many times the rewrite library has been built in this process
/// (test hook: at most once, however many passes ran).
pub fn library_build_count() -> usize {
    LIBRARY_BUILDS.load(Ordering::Relaxed)
}

impl RewriteLibrary {
    /// Builds the library from scratch. Prefer [`library`] (the shared
    /// instance); this constructor exists for benchmarks that time the
    /// cold build.
    pub fn new() -> Self {
        let mut arena = Aig::new();
        let leaves = [arena.input(), arena.input(), arena.input(), arena.input()];
        let mut builder = Builder {
            arena,
            leaves,
            memo: HashMap::new(),
        };
        let mut classes = HashMap::new();
        let mut seen = vec![false; 1 << 16];
        let perms = permutations4();
        for bits in 0..(1u64 << 16) {
            if seen[bits as usize] {
                continue;
            }
            // Ascending enumeration means the first unseen member of a
            // class is its canonical representative (minimal packed bits).
            let f = TruthTable::from_bits(4, bits);
            debug_assert_eq!(npn_canon(f).canonical.bits(), bits);
            let root = builder.build_fn(f);
            classes.insert(bits, root);
            mark_orbit(f, &perms, &mut seen);
        }
        // The builder's arena holds every candidate it ever tried;
        // compact to the union of the winning cones — the rewrite hot
        // loop walks these, so a small arena pays on every cut priced.
        let (arena, classes) = compact(&builder.arena, &classes);
        // Each class cone is static; precompute it once (topological
        // order = ascending node index) instead of re-deriving it per
        // priced cut.
        let mut cones: HashMap<u32, Vec<u32>> = HashMap::new();
        for &root in classes.values() {
            cones
                .entry(root.node())
                .or_insert_with(|| cone_of(&arena, root));
        }
        Self {
            arena,
            classes,
            cones,
        }
    }

    /// Number of NPN classes indexed (222 for four variables).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// AND nodes in the shared arena (structures overlap, so this is far
    /// below the sum of per-class cone sizes).
    pub fn and_count(&self) -> usize {
        self.arena.and_count()
    }

    /// The canonical functions and their subgraph roots, for exhaustive
    /// verification (iteration order is unspecified).
    pub fn class_roots(&self) -> impl Iterator<Item = (TruthTable, Lit)> + '_ {
        self.classes
            .iter()
            .map(|(&bits, &root)| (TruthTable::from_bits(4, bits), root))
    }

    /// The function a subgraph root computes over the arena leaves —
    /// evaluated by simulation, independent of how the structure was
    /// built (verification hook).
    pub fn realized_function(&self, root: Lit) -> TruthTable {
        let mut tts: Vec<TruthTable> = Vec::with_capacity(self.arena.len());
        for node in self.arena.nodes() {
            let tt = match node {
                Node::Const => TruthTable::zero(4),
                Node::Input(k) => TruthTable::var(4, k as usize),
                Node::And(a, b) => {
                    let ta = edge_tt(tts[a.node() as usize], a);
                    let tb = edge_tt(tts[b.node() as usize], b);
                    ta & tb
                }
            };
            tts.push(tt);
        }
        edge_tt(tts[root.node() as usize], root)
    }

    /// Binds the class subgraph of a canonized cut function to concrete
    /// leaf literals: pin `v` of the subgraph reads
    /// `leaf_lits[inv_perm(v)]`, complemented per the inverse transform's
    /// input flips (the inverse transform maps the canonical
    /// representative back onto the original function). `leaf_lits[i]`
    /// carries variable `i` of the canonized function; missing trailing
    /// variables are irrelevant and bind to constant false.
    pub fn plan(&self, canon: &NpnCanon, leaf_lits: &[Lit]) -> Plan {
        let root = *self
            .classes
            .get(&canon.canonical.bits())
            .expect("the library indexes every 4-variable NPN class");
        let u = canon.transform.inverse();
        let mut inv_perm = [0usize; 4];
        for k in 0..4 {
            inv_perm[u.perm[k] as usize] = k;
        }
        let mut pins = [Lit::FALSE; 4];
        for (v, pin) in pins.iter_mut().enumerate() {
            let src = inv_perm[v];
            let base = leaf_lits.get(src).copied().unwrap_or(Lit::FALSE);
            *pin = if (u.input_flips >> v) & 1 == 1 {
                base.not()
            } else {
                base
            };
        }
        Plan {
            root,
            pins,
            output_flip: u.output_flip,
        }
    }

    /// Canonizes `f` (up to four variables) and builds its class subgraph
    /// into `out` over the given leaf literals (`leaf_lits[i]` = variable
    /// `i` of `f`). Convenience entry for tests and one-off callers; the
    /// rewriting pass prices plans with [`RewriteLibrary::count_new`]
    /// first.
    pub fn realize(&self, out: &mut Aig, f: TruthTable, leaf_lits: &[Lit]) -> Lit {
        assert!(f.n_vars() <= 4, "the rewrite library covers 4-input cuts");
        let f4 = f.extend_to(4);
        let plan = self.plan(&npn_canon(f4), leaf_lits);
        self.instantiate(out, &plan)
    }

    /// The precomputed cone of a class root, in topological order.
    fn cone(&self, root: Lit) -> &[u32] {
        self.cones
            .get(&root.node())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Exactly how many AND nodes [`RewriteLibrary::instantiate`] would
    /// allocate in `out` for this plan, without committing anything: cone
    /// nodes whose fanins all resolve to existing literals are folded or
    /// probed against `out`'s structural hash; would-be-new nodes get
    /// *virtual* identities so that the folding rules — and structural
    /// hashing among the new nodes themselves — apply to them exactly as
    /// `Aig::and` would. (Distinct arena nodes can collapse to one new
    /// node when pin substitution makes their fanin pairs coincide, e.g.
    /// when two cut leaves map to the same literal; counting per arena
    /// node would over-price such plans.)
    pub fn count_new(&self, out: &Aig, plan: &Plan) -> usize {
        self.count_new_with_level(out, out.node_levels(), plan).0
    }

    /// Like [`RewriteLibrary::count_new`], additionally returning the
    /// logic level the plan's root would have in `out` (`out_levels` is
    /// the per-node level array of `out`, maintained incrementally by
    /// the rewriting pass). Virtual nodes get
    /// `1 + max(level(fanin_a), level(fanin_b))` exactly as the
    /// committed instantiation would; folds and strash hits take the
    /// level of the literal they resolve to. The depth-aware `rw -l`
    /// mode prices candidates with this before committing anything.
    pub fn count_new_with_level(&self, out: &Aig, out_levels: &[u32], plan: &Plan) -> (usize, u32) {
        let mut count = 0usize;
        let mut resolved: HashMap<u32, DryLit> = HashMap::new();
        // Level of each virtual literal, keyed by its `DryLit::New`
        // payload with the complement bit cleared.
        let mut virt_level: HashMap<u32, u32> = HashMap::new();
        let level_of = |l: DryLit, virt_level: &HashMap<u32, u32>| -> u32 {
            match l {
                DryLit::Real(x) => out_levels[x.node() as usize],
                DryLit::New(v) => virt_level[&(v & !1)],
            }
        };
        // Structural hash of the virtual nodes: normalized fanin pair →
        // the virtual literal standing for that new AND.
        let mut virtual_strash: HashMap<(DryLit, DryLit), DryLit> = HashMap::new();
        for &n in self.cone(plan.root) {
            let Node::And(a, b) = self.arena.node(n) else {
                unreachable!("cone contains only AND nodes");
            };
            let fa = self.resolve_edge(a, &plan.pins, &resolved);
            let fb = self.resolve_edge(b, &plan.pins, &resolved);
            let mut fresh = |fa: DryLit, fb: DryLit, virt_level: &mut HashMap<u32, u32>| {
                let lvl = 1 + level_of(fa, virt_level).max(level_of(fb, virt_level));
                *virtual_strash
                    .entry(normalize_pair(fa, fb))
                    .or_insert_with(|| {
                        count += 1;
                        let l = DryLit::fresh(n);
                        virt_level.insert(n << 1, lvl);
                        l
                    })
            };
            let r = match (fa, fb) {
                (DryLit::Real(x), DryLit::Real(y)) => match out.find_and(x, y) {
                    Some(hit) => DryLit::Real(hit),
                    None => fresh(fa, fb, &mut virt_level),
                },
                // The trivial cases `Aig::and` folds without allocating,
                // now applicable to virtual operands too.
                _ if fa == DryLit::FALSE || fb == DryLit::FALSE || fa == fb.not() => DryLit::FALSE,
                _ if fa == DryLit::TRUE => fb,
                _ if fb == DryLit::TRUE || fa == fb => fa,
                _ => fresh(fa, fb, &mut virt_level),
            };
            resolved.insert(n, r);
        }
        let root = self.resolve_edge(plan.root, &plan.pins, &resolved);
        (count, level_of(root, &virt_level))
    }

    /// Builds the plan's subgraph into `out`, returning the literal that
    /// computes the planned function. Structural hashing in `out` reuses
    /// every node that already exists.
    pub fn instantiate(&self, out: &mut Aig, plan: &Plan) -> Lit {
        let mut built: HashMap<u32, Lit> = HashMap::new();
        for &n in self.cone(plan.root) {
            let Node::And(a, b) = self.arena.node(n) else {
                unreachable!("cone contains only AND nodes");
            };
            let fa = self.built_edge(a, &plan.pins, &built);
            let fb = self.built_edge(b, &plan.pins, &built);
            built.insert(n, out.and(fa, fb));
        }
        let lit = self.built_edge(plan.root, &plan.pins, &built);
        if plan.output_flip {
            lit.not()
        } else {
            lit
        }
    }

    /// Resolves an arena edge for the dry run: a real `out` literal, or a
    /// virtual literal standing for a node that would have to be created.
    fn resolve_edge(&self, e: Lit, pins: &[Lit; 4], resolved: &HashMap<u32, DryLit>) -> DryLit {
        let base = match self.arena.node(e.node()) {
            Node::Const => DryLit::FALSE,
            Node::Input(k) => DryLit::Real(pins[k as usize]),
            Node::And(_, _) => resolved[&e.node()],
        };
        if e.is_complement() {
            base.not()
        } else {
            base
        }
    }

    /// Resolves an arena edge during committed instantiation.
    fn built_edge(&self, e: Lit, pins: &[Lit; 4], built: &HashMap<u32, Lit>) -> Lit {
        let base = match self.arena.node(e.node()) {
            Node::Const => Lit::FALSE,
            Node::Input(k) => pins[k as usize],
            Node::And(_, _) => built[&e.node()],
        };
        if e.is_complement() {
            base.not()
        } else {
            base
        }
    }
}

impl Default for RewriteLibrary {
    fn default() -> Self {
        Self::new()
    }
}

fn edge_tt(tt: TruthTable, e: Lit) -> TruthTable {
    if e.is_complement() {
        !tt
    } else {
        tt
    }
}

/// Nodes of the cone of `root` in `arena`, ascending (= topological)
/// order, stopping at inputs and the constant.
fn cone_of(arena: &Aig, root: Lit) -> Vec<u32> {
    let mut in_cone = vec![false; arena.len()];
    let mut stack = vec![root.node()];
    while let Some(n) = stack.pop() {
        if in_cone[n as usize] {
            continue;
        }
        if let Node::And(a, b) = arena.node(n) {
            in_cone[n as usize] = true;
            stack.push(a.node());
            stack.push(b.node());
        }
    }
    (0..arena.len() as u32)
        .filter(|&n| in_cone[n as usize])
        .collect()
}

/// Rebuilds the builder's arena keeping only the union of the winning
/// class cones (the builder tries many candidate structures per class
/// and abandons the losers in place), remapping the class roots.
fn compact(arena: &Aig, classes: &HashMap<u64, Lit>) -> (Aig, HashMap<u64, Lit>) {
    let mut needed = vec![false; arena.len()];
    for root in classes.values() {
        let mut stack = vec![root.node()];
        while let Some(n) = stack.pop() {
            if needed[n as usize] {
                continue;
            }
            if let Node::And(a, b) = arena.node(n) {
                needed[n as usize] = true;
                stack.push(a.node());
                stack.push(b.node());
            }
        }
    }
    let mut out = Aig::new();
    let mut map: Vec<Lit> = vec![Lit::FALSE; arena.len()];
    for &i in arena.input_nodes() {
        map[i as usize] = out.input();
    }
    for n in 0..arena.len() {
        if !needed[n] {
            continue;
        }
        let Node::And(a, b) = arena.node(n as u32) else {
            continue;
        };
        let fa = edge(map[a.node() as usize], a);
        let fb = edge(map[b.node() as usize], b);
        map[n] = out.and(fa, fb);
    }
    let remapped = classes
        .iter()
        .map(|(&bits, &root)| (bits, edge(map[root.node() as usize], root)))
        .collect();
    (out, remapped)
}

/// All 24 permutations of `[0, 1, 2, 3]`.
fn permutations4() -> Vec<[usize; 4]> {
    let mut out = Vec::with_capacity(24);
    let mut items = [0usize, 1, 2, 3];
    heap_permute(&mut items, 0, &mut out);
    out
}

fn heap_permute(items: &mut [usize; 4], at: usize, out: &mut Vec<[usize; 4]>) {
    if at == items.len() {
        out.push(*items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        heap_permute(items, at + 1, out);
        items.swap(at, i);
    }
}

/// Marks every member of `f`'s NPN orbit as classified.
fn mark_orbit(f: TruthTable, perms: &[[usize; 4]], seen: &mut [bool]) {
    for perm in perms {
        let permuted = f.permute(perm);
        // Gray-code walk over input flips: one cheap `flip_var` per step.
        let mut cur = permuted;
        for gray in 0u16..16 {
            if gray > 0 {
                cur = cur.flip_var(gray.trailing_zeros() as usize);
            }
            seen[cur.bits() as usize] = true;
            seen[(!cur).bits() as usize] = true;
        }
    }
}

/// The library construction scratch: the arena plus a function → literal
/// memo shared across classes (cofactors recur heavily).
struct Builder {
    arena: Aig,
    leaves: [Lit; 4],
    memo: HashMap<u64, Lit>,
}

impl Builder {
    fn build_fn(&mut self, f: TruthTable) -> Lit {
        if let Some(&l) = self.memo.get(&f.bits()) {
            return l;
        }
        let lit = self.build_uncached(f);
        self.memo.insert(f.bits(), lit);
        lit
    }

    fn build_uncached(&mut self, f: TruthTable) -> Lit {
        if f.is_zero() {
            return Lit::FALSE;
        }
        if f.is_one() {
            return Lit::TRUE;
        }
        for v in 0..4 {
            let x = TruthTable::var(4, v);
            if f == x {
                return self.leaves[v];
            }
            if f == !x {
                return self.leaves[v].not();
            }
        }
        let support: Vec<usize> = (0..4).filter(|&v| f.depends_on(v)).collect();
        let mut candidates: Vec<Lit> = Vec::new();
        // Cofactor decompositions: f = x·c1, x̄·c0, x + c0, x̄ + c1, x ⊕ c0.
        for &v in &support {
            let c0 = f.cofactor0(v);
            let c1 = f.cofactor1(v);
            let x = self.leaves[v];
            if c0.is_zero() {
                let g = self.build_fn(c1);
                candidates.push(self.arena.and(x, g));
            } else if c1.is_zero() {
                let g = self.build_fn(c0);
                candidates.push(self.arena.and(x.not(), g));
            } else if c1.is_one() {
                let g = self.build_fn(c0);
                candidates.push(self.arena.or(x, g));
            } else if c0.is_one() {
                let g = self.build_fn(c1);
                candidates.push(self.arena.or(x.not(), g));
            } else if c0 == !c1 {
                let g = self.build_fn(c0);
                candidates.push(self.arena.xor(x, g));
            }
        }
        // Irredundant SOPs of both phases.
        let pos = isop(f);
        let lit = self.sop_lit(&pos);
        candidates.push(lit);
        let neg = isop(!f);
        let lit = self.sop_lit(&neg);
        candidates.push(lit.not());
        // Shannon muxes (only useful when no cheap decomposition exists,
        // but cost selection sorts that out).
        for &v in &support {
            let g1 = self.build_fn(f.cofactor1(v));
            let g0 = self.build_fn(f.cofactor0(v));
            candidates.push(self.arena.mux(self.leaves[v], g1, g0));
        }
        candidates
            .into_iter()
            .min_by_key(|&l| {
                (
                    cone_size(&self.arena, l),
                    self.arena.level(l.node()),
                    l.0, // deterministic final tie-break
                )
            })
            .expect("at least the SOP candidates exist")
    }

    fn sop_lit(&mut self, cover: &[logic::Cube]) -> Lit {
        let mut terms = Vec::with_capacity(cover.len());
        for cube in cover {
            let mut lits = Vec::new();
            for (v, &leaf) in self.leaves.iter().enumerate() {
                if (cube.care >> v) & 1 == 1 {
                    lits.push(if (cube.polarity >> v) & 1 == 1 {
                        leaf
                    } else {
                        leaf.not()
                    });
                }
            }
            terms.push(self.arena.and_many(&lits));
        }
        self.arena.or_many(&terms)
    }
}

/// AND nodes in the cone of `lit` (stopping at inputs and the constant).
fn cone_size(aig: &Aig, lit: Lit) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![lit.node()];
    let mut count = 0usize;
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        if let Node::And(a, b) = aig.node(n) {
            count += 1;
            stack.push(a.node());
            stack.push(b.node());
        }
    }
    count
}

/// One rewriting pass with default configuration (positive gain only).
/// See [`rewrite_with`].
pub fn rewrite(aig: &Aig) -> Aig {
    rewrite_with(aig, &RewriteConfig::default())
}

/// One DAG-aware rewriting pass (the flow's `rw`, `rw -z`, `rw -l`). The
/// returned AIG is functionally equivalent and never larger than the
/// cleaned input; callers — the [`Flow`](crate::synth::Flow) engine —
/// additionally gate acceptance on their own criteria and, in debug
/// builds, on a SAT equivalence proof.
///
/// The pass first cleans its input: the commit loop walks the arena in
/// index order, so a dangling node or a different numbering would shift
/// its tie-breaks, and the result must not depend on whether the caller
/// hands it a compact network. It then enumerates the cleaned network's
/// 4-cuts into a database of its own and walks the AND nodes once, in
/// index (topological) order. Each node's cuts are canonized (through
/// one per-pass memo) and sized (MFFC against the immutable input
/// graph), then priced against the evolving output graph; the best
/// candidate is committed before the walk moves on.
pub fn rewrite_with(aig: &Aig, config: &RewriteConfig) -> Aig {
    let lib = library();
    let input = aig.cleanup();
    let mut cuts = CutDb::new(CutConfig {
        k: 4,
        max_cuts: config.max_cuts,
    });
    cuts.ensure(&input);
    let refs = input.fanout_counts();
    // Per-pass canonization memo: the same cut function recurs across
    // many nodes (mirrors the mapper's `Matcher`).
    let mut canon_memo: HashMap<u64, NpnCanon> = HashMap::new();
    // Cuts are priced against the evolving output graph, whose arena
    // maintains levels incrementally, so the depth-aware mode reads them
    // for free.
    let mut out = Aig::new();
    let mut map: Vec<Lit> = vec![Lit::FALSE; input.len()];
    for &i in input.input_nodes() {
        map[i as usize] = out.input();
    }
    let threshold = if config.zero_gain { 0 } else { 1 };
    for idx in 0..input.len() {
        let Node::And(a, b) = input.node(idx as u32) else {
            continue;
        };
        // The level the root gets from the plain structural copy — the
        // bar a depth-aware candidate must not exceed.
        let copy_level = {
            let fa = edge(map[a.node() as usize], a);
            let fb = edge(map[b.node() as usize], b);
            match out.find_and(fa, fb) {
                Some(hit) => out.level(hit.node()),
                None => 1 + out.level(fa.node()).max(out.level(fb.node())),
            }
        };
        let mut best: Option<(i64, i64, Plan)> = None;
        for cut in cuts.cuts(idx as u32) {
            if cut.is_trivial(idx as u32) {
                continue;
            }
            let (fs, leaf_nodes) = cut.function_over_support();
            let f4 = fs.extend_to(4);
            let canon = *canon_memo.entry(f4.bits()).or_insert_with(|| npn_canon(f4));
            let leaf_lits: Vec<Lit> = leaf_nodes.iter().map(|&n| map[n as usize]).collect();
            let plan = lib.plan(&canon, &leaf_lits);
            let (added, root_level) = lib.count_new_with_level(&out, out.node_levels(), &plan);
            if config.level_aware && root_level > copy_level {
                continue;
            }
            let freed = mffc_size_ro(&input, idx as u32, &cut.leaves, refs) as i64;
            let gain = freed - added as i64;
            if best.as_ref().is_none_or(|(g, _, _)| gain > *g) {
                best = Some((gain, added as i64, plan));
            }
        }
        map[idx] = match best {
            Some((gain, added, plan)) if gain >= threshold => {
                let before = out.and_count();
                let lit = lib.instantiate(&mut out, &plan);
                debug_assert_eq!(
                    (out.and_count() - before) as i64,
                    added,
                    "dry-run pricing must match committed instantiation"
                );
                lit
            }
            _ => {
                let fa = edge(map[a.node() as usize], a);
                let fb = edge(map[b.node() as usize], b);
                out.and(fa, fb)
            }
        };
    }
    for o in input.output_lits() {
        let l = edge(map[o.node() as usize], *o);
        out.output(l);
    }
    let result = out.cleanup();
    // No-growth guard: fall back to the cleaned input unchanged.
    if result.and_count() > input.and_count() {
        input
    } else {
        result
    }
}

fn edge(mapped: Lit, e: Lit) -> Lit {
    if e.is_complement() {
        mapped.not()
    } else {
        mapped
    }
}

/// Size of the maximal fanout-free cone of `root` above `leaves`: the AND
/// nodes (root included) that die when the root is re-expressed over the
/// leaves — the classic dereference walk, run against a *read-only*
/// fanout array. Decrements are tracked in a small per-call overlay map,
/// so every cut of the pass reads one `refs` slice without cloning or
/// restoring it; the cone of a 4-cut is a handful of nodes, so the
/// overlay stays tiny.
fn mffc_size_ro(aig: &Aig, root: u32, leaves: &[u32], refs: &[u32]) -> usize {
    let mut overlay: HashMap<u32, u32> = HashMap::new();
    deref_ro(aig, root, leaves, refs, &mut overlay)
}

fn deref_ro(
    aig: &Aig,
    node: u32,
    leaves: &[u32],
    refs: &[u32],
    overlay: &mut HashMap<u32, u32>,
) -> usize {
    let Node::And(a, b) = aig.node(node) else {
        return 0;
    };
    let mut count = 1;
    for e in [a, b] {
        let f = e.node();
        if leaves.binary_search(&f).is_ok() {
            continue;
        }
        let remaining = *overlay.get(&f).unwrap_or(&refs[f as usize]) - 1;
        overlay.insert(f, remaining);
        if remaining == 0 {
            count += deref_ro(aig, f, leaves, refs, overlay);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_equivalence;
    use crate::check::Equivalence;

    #[test]
    fn library_covers_every_class_once() {
        let lib = library();
        assert_eq!(
            lib.class_count(),
            222,
            "four variables have exactly 222 NPN classes"
        );
        assert!(library_build_count() <= 1);
    }

    #[test]
    fn every_class_subgraph_realizes_its_canonical_function() {
        // The acceptance-criterion exhaustive check: simulate every class
        // subgraph and compare against the canonical representative.
        let lib = library();
        let mut checked = 0;
        for (canonical, root) in lib.class_roots() {
            assert_eq!(
                lib.realized_function(root),
                canonical,
                "class {canonical:?} structure is wrong"
            );
            checked += 1;
        }
        assert_eq!(checked, 222);
    }

    #[test]
    fn realize_reconstructs_sampled_functions_through_npn_transforms() {
        // Instantiation goes through the inverse NPN transform; exercise
        // it on a deterministic sample of raw (non-canonical) functions,
        // verified by bit-parallel simulation of the built structure.
        let lib = library();
        let vars = [
            logic::truthtable::VAR_MASK[0],
            logic::truthtable::VAR_MASK[1],
            logic::truthtable::VAR_MASK[2],
            logic::truthtable::VAR_MASK[3],
        ];
        for bits in (0u64..(1 << 16)).step_by(13) {
            let f = TruthTable::from_bits(4, bits);
            let mut aig = Aig::new();
            let leaf_lits: Vec<Lit> = (0..4).map(|_| aig.input()).collect();
            let lit = lib.realize(&mut aig, f, &leaf_lits);
            aig.output(lit);
            let word = crate::sim::simulate64(&aig, &vars)[0];
            assert_eq!(word & 0xFFFF, bits, "realize({bits:#06x}) diverges");
        }
    }

    #[test]
    fn count_new_matches_committed_instantiation() {
        let lib = library();
        let mut out = Aig::new();
        let leaf_lits: Vec<Lit> = (0..4).map(|_| out.input()).collect();
        // Instantiate a mix of functions twice: the second build must be
        // fully shared (count 0) and the dry-run must predict both.
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        for f in [(a & b) | (c & d), a ^ b ^ c ^ d, (a | b) & !(c | d)] {
            for round in 0..2 {
                let plan = lib.plan(&npn_canon(f), &leaf_lits);
                let predicted = lib.count_new(&out, &plan);
                let before = out.and_count();
                let lit = lib.instantiate(&mut out, &plan);
                assert_eq!(out.and_count() - before, predicted, "round {round}");
                if round == 1 {
                    assert_eq!(predicted, 0, "second build must be fully shared");
                }
                let _ = lit;
            }
        }
    }

    #[test]
    fn count_new_is_exact_with_coincident_pins() {
        // When pin substitution maps distinct cut leaves onto the same
        // literal (which happens once earlier rewrites strash-merge
        // functionally equal nodes), distinct arena nodes can collapse
        // into one new node. The dry run must price that exactly — its
        // virtual structural hash mirrors `Aig::and`. Regression: the
        // per-arena-node counting over-predicted (e.g. 6 vs 3 for
        // f = 0x011f bound to [a, a, c, c]).
        let lib = library();
        for bits in (0u64..(1 << 16)).step_by(257) {
            let f = TruthTable::from_bits(4, bits);
            let mut out = Aig::new();
            let a = out.input();
            let b = out.input();
            let c = out.input();
            for binding in [
                [a, a, c, c],
                [a, b, a, b],
                [a, a.not(), b, c],
                [a, a, a, a.not()],
            ] {
                let plan = lib.plan(&npn_canon(f), &binding);
                let predicted = lib.count_new(&out, &plan);
                let before = out.and_count();
                let _ = lib.instantiate(&mut out, &plan);
                assert_eq!(
                    out.and_count() - before,
                    predicted,
                    "f = {bits:#06x}, binding {binding:?}"
                );
            }
        }
    }

    #[test]
    fn mffc_accounts_for_external_references() {
        // f = (a&b)&c and g = (a&b)&d: the shared (a&b) node is outside
        // both MFFCs.
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let d = aig.input();
        let ab = aig.and(a, b);
        let f = aig.and(ab, c);
        let g = aig.and(ab, d);
        aig.output(f);
        aig.output(g);
        let leaves = {
            let mut l = vec![a.node(), b.node(), c.node()];
            l.sort_unstable();
            l
        };
        assert_eq!(
            mffc_size_ro(&aig, f.node(), &leaves, aig.fanout_counts()),
            1
        );
        // Without g, the ab node joins f's MFFC.
        let mut aig2 = Aig::new();
        let a = aig2.input();
        let b = aig2.input();
        let c = aig2.input();
        let ab = aig2.and(a, b);
        let f = aig2.and(ab, c);
        aig2.output(f);
        let leaves2 = {
            let mut l = vec![a.node(), b.node(), c.node()];
            l.sort_unstable();
            l
        };
        assert_eq!(
            mffc_size_ro(&aig2, f.node(), &leaves2, aig2.fanout_counts()),
            2
        );
    }

    #[test]
    fn rewrite_shrinks_a_redundant_network_and_preserves_function() {
        // (a&b) | (a&!b) = a — rewriting must collapse the cone.
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let t1 = aig.and(a, b);
        let t2 = aig.and(a, b.not());
        let f = aig.or(t1, t2);
        let g = aig.and(f, c);
        aig.output(g);
        let rewritten = rewrite(&aig);
        assert_eq!(check_equivalence(&aig, &rewritten), Ok(Equivalence::Equal));
        assert!(
            rewritten.and_count() < aig.and_count(),
            "{} vs {}",
            rewritten.and_count(),
            aig.and_count()
        );
    }

    #[test]
    fn rewrite_never_grows() {
        // A network rewriting cannot improve must come back unchanged in
        // size (the no-growth guarantee is structural, not statistical).
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..6).map(|_| aig.input()).collect();
        let p = aig.xor_many(&xs);
        aig.output(p);
        let rewritten = rewrite(&aig);
        assert!(rewritten.and_count() <= aig.cleanup().and_count());
        assert_eq!(check_equivalence(&aig, &rewritten), Ok(Equivalence::Equal));
    }

    #[test]
    fn zero_gain_mode_is_still_sound_and_no_larger() {
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..5).map(|_| aig.input()).collect();
        let m = aig.mux(xs[0], xs[1], xs[2]);
        let n = aig.xor(m, xs[3]);
        let o = aig.or(n, xs[4]);
        aig.output(o);
        let z = rewrite_with(
            &aig,
            &RewriteConfig {
                zero_gain: true,
                ..RewriteConfig::default()
            },
        );
        assert_eq!(check_equivalence(&aig, &z), Ok(Equivalence::Equal));
        assert!(z.and_count() <= aig.cleanup().and_count());
    }

    /// A seeded network over 7 inputs: `ops` random AND/XOR/OR
    /// operations and 4 outputs. With `dead`, every fourth operation is
    /// followed by an AND that nothing reads.
    fn random_network(seed: u64, ops: usize, dead: bool) -> Aig {
        let mut aig = Aig::new();
        let mut nets: Vec<Lit> = (0..7).map(|_| aig.input()).collect();
        let mut s = seed | 1;
        for op in 0..ops {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let a = nets[(s as usize) % nets.len()];
            let b = nets[(s as usize >> 8) % nets.len()];
            let f = match s % 3 {
                0 => aig.and(a, b.not()),
                1 => aig.xor(a, b),
                _ => aig.or(a, b),
            };
            nets.push(f);
            if dead && op % 4 == 3 {
                aig.and(f.not(), nets[(s as usize >> 16) % nets.len()]);
            }
        }
        for k in 0..4 {
            aig.output(nets[nets.len() - 1 - k]);
        }
        aig
    }

    #[test]
    fn level_aware_mode_never_deepens() {
        // `rw -l` prices every candidate's root level against the plain
        // structural copy, which composes into a global guarantee: the
        // rewritten network is never deeper than the (cleaned) input.
        for seed in [1u64, 9, 0xBEE, 0xFEED] {
            let aig = random_network(seed, 50, false);
            let cleaned = aig.cleanup();
            let rewritten = rewrite_with(
                &aig,
                &RewriteConfig {
                    level_aware: true,
                    ..RewriteConfig::default()
                },
            );
            assert_eq!(check_equivalence(&aig, &rewritten), Ok(Equivalence::Equal));
            assert!(
                rewritten.depth() <= cleaned.depth(),
                "seed {seed:#x}: rw -l deepened {} -> {}",
                cleaned.depth(),
                rewritten.depth()
            );
            assert!(rewritten.and_count() <= cleaned.and_count());
        }
    }

    #[test]
    fn dead_nodes_and_numbering_do_not_change_the_result() {
        // The commit loop breaks ties in arena order, so the pass must
        // clean its input first: a network with dead ANDs among the live
        // ones rewrites exactly as its compact copy does.
        for seed in (1u64..16).step_by(2) {
            let aig = random_network(seed, 60, true);
            assert!(aig.and_count() > aig.cleanup().and_count(), "seed {seed}");
            for zero_gain in [false, true] {
                let config = RewriteConfig {
                    zero_gain,
                    ..RewriteConfig::default()
                };
                assert!(
                    rewrite_with(&aig, &config)
                        .same_structure(&rewrite_with(&aig.cleanup(), &config)),
                    "seed {seed}, zero_gain {zero_gain}"
                );
            }
        }
    }

    #[test]
    fn count_new_with_level_predicts_committed_levels() {
        let lib = library();
        let mut out = Aig::new();
        let leaf_lits: Vec<Lit> = (0..4).map(|_| out.input()).collect();
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        for f in [(a & b) | (c & d), a ^ b ^ c ^ d, (a | b) & !(c | d)] {
            let plan = lib.plan(&npn_canon(f), &leaf_lits);
            let (added, level) = lib.count_new_with_level(&out, out.node_levels(), &plan);
            let before = out.and_count();
            let lit = lib.instantiate(&mut out, &plan);
            assert_eq!(out.and_count() - before, added);
            assert_eq!(
                out.level(lit.node()),
                level,
                "dry-run level must match the committed level for {f:?}"
            );
        }
    }

    #[test]
    fn rewrite_handles_constant_cones() {
        // (a & !a) never survives construction, but a cut function can
        // still be constant through reconvergence: f = (a|b) & !(a&b) on
        // inputs wired so the cone collapses. Use a directly constant
        // cut: (a ^ b) ^ (a ^ b) = 0 via two separate XOR structures.
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x1 = aig.xor(a, b);
        let x2 = aig.xor(b, a);
        let f = aig.xor(x1, x2);
        let g = aig.or(f, a);
        aig.output(g);
        let rewritten = rewrite(&aig);
        assert_eq!(check_equivalence(&aig, &rewritten), Ok(Equivalence::Equal));
        // f is constant false, so g collapses to a.
        assert_eq!(rewritten.and_count(), 0);
    }
}

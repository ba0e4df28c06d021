//! The CDCL core: literals, clauses, watched-literal propagation,
//! first-UIP learning, VSIDS branching, Luby restarts, clause reduction.

/// A propositional variable (0-based).
pub type Var = u32;

/// A literal: a variable with a sign, packed as `var << 1 | negated`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn positive(var: Var) -> Self {
        Lit(var << 1)
    }

    /// The negative literal of `var`.
    pub fn negative(var: Var) -> Self {
        Lit(var << 1 | 1)
    }

    /// Builds a literal from a variable and a sign.
    pub fn new(var: Var, negated: bool) -> Self {
        Lit(var << 1 | u32::from(negated))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Whether the literal is negated.
    fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index for watch lists (`2 * var + negated`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_negated() {
            write!(f, "-{}", self.var() + 1)
        } else {
            write!(f, "{}", self.var() + 1)
        }
    }
}

/// Outcome of a (completed) solve call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions, if any) has no model.
    Unsat,
}

const NO_REASON: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Clone, Copy)]
struct Watcher {
    clause: u32,
    /// Any other literal of the clause; if it is already true the clause
    /// is satisfied and the watch scan can skip it.
    blocker: Lit,
}

/// Max-heap over variables ordered by VSIDS activity.
#[derive(Default)]
struct VarOrder {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, `usize::MAX` when absent.
    pos: Vec<usize>,
}

impl VarOrder {
    fn grow(&mut self) {
        self.pos.push(usize::MAX);
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v as usize] != usize::MAX
    }

    fn push(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v as usize], act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i] as usize] <= act[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i;
        self.pos[self.heap[j] as usize] = j;
    }
}

/// A CDCL SAT solver over an incrementally growing clause set.
///
/// Clauses may be added between solve calls; learnt clauses persist, so a
/// sequence of [`Solver::solve_assuming`] queries shares work (the
/// SAT-sweeping usage pattern of `aig::check`).
#[derive(Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Indices of learnt clauses (for reduction).
    learnts: Vec<u32>,
    watches: Vec<Vec<Watcher>>,
    /// Assignment per variable: 0 unassigned, 1 true, -1 false.
    assigns: Vec<i8>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Clause that implied each variable (`NO_REASON` for decisions).
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarOrder,
    /// Saved phase per variable for polarity selection.
    phase: Vec<bool>,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// False once an unconditional contradiction was derived.
    ok: bool,
    model: Vec<bool>,
    conflicts: u64,
}

impl Solver {
    /// An empty solver (no variables, no clauses).
    pub fn new() -> Self {
        Self {
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            ..Self::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.assigns.len() as Var;
        self.assigns.push(0);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow();
        self.order.push(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Total conflicts encountered so far (a work measure).
    pub fn conflict_count(&self) -> u64 {
        self.conflicts
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        match self.assigns[l.var() as usize] {
            0 => None,
            a => Some((a > 0) != l.is_negated()),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause (disjunction of `lits`).
    ///
    /// Returns `false` if the clause set is now known unsatisfiable (an
    /// empty clause, or a level-0 unit contradiction); the solver stays
    /// in that state and every later solve call answers
    /// [`SolveResult::Unsat`].
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        // Normalize: sort/dedupe, drop false literals, detect tautologies
        // and already-satisfied clauses (all with respect to level 0).
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            assert!((l.var() as usize) < self.num_vars(), "unknown variable");
            match self.lit_value(l) {
                Some(true) => return true,
                Some(false) => continue,
                None => c.push(l),
            }
        }
        c.sort_unstable();
        c.dedup();
        if c.windows(2).any(|w| w[0] == !w[1]) {
            return true; // tautology
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.attach(idx, c[0], c[1]);
                self.clauses.push(Clause {
                    lits: c,
                    learnt: false,
                    deleted: false,
                    activity: 0.0,
                });
                true
            }
        }
    }

    fn attach(&mut self, idx: u32, l0: Lit, l1: Lit) {
        self.watches[(!l0).index()].push(Watcher {
            clause: idx,
            blocker: l1,
        });
        self.watches[(!l1).index()].push(Watcher {
            clause: idx,
            blocker: l0,
        });
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var() as usize;
        debug_assert_eq!(self.assigns[v], 0);
        self.assigns[v] = if l.is_negated() { -1 } else { 1 };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = !l.is_negated();
        self.trail.push(l);
    }

    /// Propagates all enqueued facts; returns the conflicting clause
    /// index on conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let mut i = 0;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if self.lit_value(w.blocker) == Some(true) {
                    i += 1;
                    continue;
                }
                let cref = w.clause as usize;
                if self.clauses[cref].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Make sure the false literal (!p) is at position 1.
                let false_lit = !p;
                if self.clauses[cref].lits[0] == false_lit {
                    self.clauses[cref].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[cref].lits[1], false_lit);
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && self.lit_value(first) == Some(true) {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..self.clauses[cref].lits.len() {
                    let l = self.clauses[cref].lits[k];
                    if self.lit_value(l) != Some(false) {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[(!l).index()].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Unit or conflict.
                if self.lit_value(first) == Some(false) {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    break;
                }
                self.unchecked_enqueue(first, w.clause);
                i += 1;
            }
            // Merge back any watchers pushed onto the (emptied) list
            // while this scan was enqueueing.
            let pushed = std::mem::replace(&mut self.watches[p.index()], ws);
            self.watches[p.index()].extend(pushed);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn cancel_until(&mut self, target: u32) {
        while self.decision_level() > target {
            let lim = self.trail_lim.pop().expect("level > 0");
            for &l in &self.trail[lim..] {
                let v = l.var() as usize;
                self.assigns[v] = 0;
                self.reason[v] = NO_REASON;
                self.order.push(l.var(), &self.activity);
            }
            self.trail.truncate(lim);
        }
        self.qhead = self.qhead.min(self.trail.len());
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, idx: u32) {
        let c = &mut self.clauses[idx as usize];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for &li in &self.learnts {
                self.clauses[li as usize].activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::positive(0)]; // placeholder
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut cref = confl;
        loop {
            self.bump_clause(cref);
            let start = usize::from(p.is_some());
            for k in start..self.clauses[cref as usize].lits.len() {
                let q = self.clauses[cref as usize].lits[k];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal of the current level to resolve on.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var() as usize] {
                    break;
                }
            }
            let lit = self.trail[idx];
            self.seen[lit.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            p = Some(lit);
            cref = self.reason[lit.var() as usize];
            debug_assert_ne!(cref, NO_REASON);
        }
        // Backtrack level: highest level among the non-asserting literals.
        let mut bt = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = k;
                }
            }
            learnt.swap(1, max_i);
            bt = self.level[learnt[1].var() as usize];
        }
        for &l in &learnt {
            self.seen[l.var() as usize] = false;
        }
        (learnt, bt)
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>) {
        if learnt.len() == 1 {
            self.unchecked_enqueue(learnt[0], NO_REASON);
            return;
        }
        let idx = self.clauses.len() as u32;
        self.attach(idx, learnt[0], learnt[1]);
        let first = learnt[0];
        self.clauses.push(Clause {
            lits: learnt,
            learnt: true,
            deleted: false,
            activity: self.cla_inc,
        });
        self.learnts.push(idx);
        self.unchecked_enqueue(first, idx);
    }

    /// Drops the less active half of the learnt clauses (keeping reasons
    /// and binary clauses). Watch lists are cleaned lazily.
    fn reduce_db(&mut self) {
        let mut cands: Vec<u32> = self
            .learnts
            .iter()
            .copied()
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                !c.deleted && c.lits.len() > 2 && !self.is_reason(i)
            })
            .collect();
        cands.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .total_cmp(&self.clauses[b as usize].activity)
        });
        for &i in &cands[..cands.len() / 2] {
            self.clauses[i as usize].deleted = true;
            self.clauses[i as usize].lits = Vec::new();
        }
        self.learnts.retain(|&i| !self.clauses[i as usize].deleted);
    }

    fn is_reason(&self, idx: u32) -> bool {
        let c = &self.clauses[idx as usize];
        let v = c.lits[0].var() as usize;
        self.assigns[v] != 0 && self.reason[v] == idx
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v as usize] == 0 {
                return Some(Lit::new(v, !self.phase[v as usize]));
            }
        }
        None
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_assuming(&[])
    }

    /// Solves under assumptions: the formula plus the given literals as
    /// temporary facts. Learnt clauses persist across calls, so repeated
    /// queries over a growing CNF share work.
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions, u64::MAX)
            .expect("unlimited solve always completes")
    }

    /// Like [`Solver::solve_assuming`] but gives up after `max_conflicts`
    /// conflicts, returning `None` (the formula state is unchanged; only
    /// learnt clauses accumulated).
    pub fn solve_limited(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
    ) -> Option<SolveResult> {
        self.cancel_until(0);
        if !self.ok || self.propagate().is_some() {
            self.ok = false;
            return Some(SolveResult::Unsat);
        }
        let mut budget_used = 0u64;
        let mut restart = 0u64;
        let mut conflicts_since_restart = 0u64;
        let mut restart_budget = 128 * luby(restart);
        let mut max_learnts = (self.clauses.len() as u64 / 3).max(4000);
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                budget_used += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                self.record_learnt(learnt);
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
            } else {
                if budget_used >= max_conflicts {
                    self.cancel_until(0);
                    return None;
                }
                if conflicts_since_restart >= restart_budget {
                    restart += 1;
                    conflicts_since_restart = 0;
                    restart_budget = 128 * luby(restart);
                    self.cancel_until(0);
                    continue;
                }
                if self.learnts.len() as u64 >= max_learnts {
                    self.reduce_db();
                    max_learnts = max_learnts + max_learnts / 2;
                }
                // Apply pending assumptions one decision level at a time.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        Some(true) => {
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            self.cancel_until(0);
                            return Some(SolveResult::Unsat);
                        }
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, NO_REASON);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => {
                        self.model = self.assigns.iter().map(|&a| a > 0).collect();
                        self.cancel_until(0);
                        return Some(SolveResult::Sat);
                    }
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }

    /// The value of `var` in the most recent satisfying model, if any
    /// solve call has returned [`SolveResult::Sat`].
    pub fn model_value(&self, var: Var) -> Option<bool> {
        self.model.get(var as usize).copied()
    }

    /// The most recent satisfying model (one bool per variable).
    pub fn model(&self) -> &[bool] {
        &self.model
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …).
fn luby(x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    let mut x = x;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i32) -> Lit {
        Lit::new((i.unsigned_abs() - 1) as Var, i < 0)
    }

    /// Solver with `n` fresh variables.
    fn with_vars(n: usize) -> Solver {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = with_vars(1);
        assert!(s.add_clause(&[lit(1)]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(0), Some(true));
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = with_vars(1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn contradicting_units_are_unsat() {
        let mut s = with_vars(1);
        assert!(s.add_clause(&[lit(1)]));
        assert!(!s.add_clause(&[lit(-1)]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_and_duplicates_are_harmless() {
        let mut s = with_vars(2);
        assert!(s.add_clause(&[lit(1), lit(-1)]));
        assert!(s.add_clause(&[lit(2), lit(2), lit(2)]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(1), Some(true));
    }

    #[test]
    fn xor_chain_is_sat_with_consistent_model() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x3 ^ x1 = 0.
        let mut s = with_vars(3);
        for (a, b) in [(1, 2), (2, 3)] {
            s.add_clause(&[lit(a), lit(b)]);
            s.add_clause(&[lit(-a), lit(-b)]);
        }
        s.add_clause(&[lit(3), lit(-1)]);
        s.add_clause(&[lit(-3), lit(1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let m1 = s.model_value(0).unwrap();
        let m2 = s.model_value(1).unwrap();
        let m3 = s.model_value(2).unwrap();
        assert_ne!(m1, m2);
        assert_ne!(m2, m3);
        assert_eq!(m3, m1);
    }

    #[test]
    fn odd_xor_cycle_is_unsat() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x3 ^ x1 = 1 (odd cycle).
        let mut s = with_vars(3);
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            s.add_clause(&[lit(a), lit(b)]);
            s.add_clause(&[lit(-a), lit(-b)]);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_outcomes_and_are_temporary() {
        let mut s = with_vars(2);
        s.add_clause(&[lit(1), lit(2)]);
        assert_eq!(
            s.solve_assuming(&[lit(-1), lit(-2)]),
            SolveResult::Unsat,
            "both false contradicts the clause"
        );
        assert_eq!(s.solve_assuming(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.model_value(1), Some(true));
        assert_eq!(s.solve(), SolveResult::Sat, "assumptions do not persist");
    }

    #[test]
    fn conflict_budget_gives_up_cleanly() {
        // PHP-5 is UNSAT but needs search; a one-conflict budget cannot
        // finish, and an unlimited call afterwards still answers.
        let mut s = php(5);
        assert_eq!(s.solve_limited(&[], 1), None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Pigeonhole principle: n+1 pigeons, n holes.
    fn php(holes: usize) -> Solver {
        let pigeons = holes + 1;
        let mut s = with_vars(pigeons * holes);
        let v = |p: usize, h: usize| Lit::positive((p * holes + h) as Var);
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| v(p, h)).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause(&[!v(p1, h), !v(p2, h)]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_php4_is_unsat() {
        let mut s = php(4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.conflict_count() > 0, "PHP-4 requires actual search");
    }

    #[test]
    fn pigeonhole_with_a_spare_hole_is_sat() {
        // n+1 pigeons, n+1 holes: drop the "pigeon n in hole n" ban.
        let holes = 5;
        let pigeons = 5;
        let mut s = with_vars(pigeons * holes);
        let v = |p: usize, h: usize| Lit::positive((p * holes + h) as Var);
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| v(p, h)).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause(&[!v(p1, h), !v(p2, h)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        // Model is a valid assignment: one hole per pigeon, no sharing.
        let hole_of: Vec<usize> = (0..pigeons)
            .map(|p| {
                (0..holes)
                    .find(|&h| s.model_value(v(p, h).var()) == Some(true))
                    .expect("every pigeon placed")
            })
            .collect();
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                assert_ne!(hole_of[p1], hole_of[p2]);
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expect.len() as u64).map(luby).collect();
        assert_eq!(got, expect);
    }
}

//! Delay-oriented AND-tree balancing (ABC's `balance`).
//!
//! Maximal single-fanout AND trees are collected and rebuilt as
//! minimum-depth trees, combining the earliest-arriving operands first
//! (Huffman-style on levels).

use crate::graph::{Aig, Lit, Node};
use std::collections::HashMap;

/// Rebalances the AIG for depth; the function of every output is
/// preserved (checked by the `check` module in tests). This is the
/// flow's `b` pass. It enumerates no cuts.
pub fn balance(aig: &Aig) -> Aig {
    let fanouts = aig.fanout_counts();
    let mut out = Aig::new();
    let mut levels: Vec<u32> = vec![0];
    // Map from old node index to new positive literal.
    let mut map: HashMap<u32, Lit> = HashMap::new();
    map.insert(0, Lit::FALSE);
    for &i in aig.input_nodes() {
        let lit = out.input();
        map.insert(i, lit);
        levels.push(0);
    }
    let mut ctx = Ctx {
        aig,
        fanouts,
        out,
        levels,
        map,
    };
    let output_lits: Vec<Lit> = aig
        .output_lits()
        .iter()
        .map(|l| {
            let new = ctx.build(l.node());
            if l.is_complement() {
                new.not()
            } else {
                new
            }
        })
        .collect();
    for l in output_lits {
        ctx.out.output(l);
    }
    ctx.out
}

struct Ctx<'a> {
    aig: &'a Aig,
    fanouts: &'a [u32],
    out: Aig,
    levels: Vec<u32>,
    map: HashMap<u32, Lit>,
}

impl Ctx<'_> {
    /// Level of a new-AIG literal.
    fn level(&self, lit: Lit) -> u32 {
        self.levels[lit.node() as usize]
    }

    /// ANDs two new literals, tracking levels.
    fn and_tracked(&mut self, a: Lit, b: Lit) -> Lit {
        let before = self.out.len();
        let r = self.out.and(a, b);
        if self.out.len() > before {
            debug_assert_eq!(r.node() as usize, self.out.len() - 1);
            self.levels.push(1 + self.level(a).max(self.level(b)));
        }
        r
    }

    /// Builds (memoized) the balanced version of an old node, returning
    /// its positive literal in the new AIG.
    fn build(&mut self, old: u32) -> Lit {
        if let Some(&l) = self.map.get(&old) {
            return l;
        }
        let Node::And(_, _) = self.aig.node(old) else {
            unreachable!("inputs and constant are pre-mapped");
        };
        // Collect the maximal AND-tree: expand through positive edges to
        // single-fanout AND children.
        let mut operands: Vec<Lit> = Vec::new();
        let mut stack = vec![Lit::new(old, false)];
        let mut first = true;
        while let Some(edge) = stack.pop() {
            let node = edge.node();
            let expandable = !edge.is_complement()
                && matches!(self.aig.node(node), Node::And(_, _))
                && (first || self.fanouts[node as usize] == 1);
            if expandable {
                let Node::And(a, b) = self.aig.node(node) else {
                    unreachable!()
                };
                stack.push(a);
                stack.push(b);
            } else {
                operands.push(edge);
            }
            first = false;
        }
        // Map operands into the new AIG.
        let mut mapped: Vec<Lit> = operands
            .iter()
            .map(|e| {
                let l = self.build_leaf(e.node());
                if e.is_complement() {
                    l.not()
                } else {
                    l
                }
            })
            .collect();
        // Combine lowest-level operands first.
        mapped.sort_by_key(|l| std::cmp::Reverse(self.level(*l)));
        while mapped.len() > 1 {
            let a = mapped.pop().expect("len > 1");
            let b = mapped.pop().expect("len > 1");
            let r = self.and_tracked(a, b);
            // Insert keeping the reverse-level ordering.
            let pos = mapped
                .binary_search_by_key(&std::cmp::Reverse(self.level(r)), |l| {
                    std::cmp::Reverse(self.level(*l))
                })
                .unwrap_or_else(|p| p);
            mapped.insert(pos, r);
        }
        let result = mapped.pop().unwrap_or(Lit::TRUE);
        self.map.insert(old, result);
        result
    }

    /// Maps a tree leaf (input, constant, shared or complemented node).
    fn build_leaf(&mut self, old: u32) -> Lit {
        if let Some(&l) = self.map.get(&old) {
            return l;
        }
        self.build(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_equivalence, Equivalence};

    #[test]
    fn chain_becomes_tree() {
        // a & b & c & d & e & f & g & h as a linear chain: depth 7.
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..8).map(|_| aig.input()).collect();
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = aig.and(acc, x);
        }
        aig.output(acc);
        assert_eq!(aig.depth(), 7);
        let bal = balance(&aig);
        assert_eq!(bal.depth(), 3, "8-way AND balances to depth 3");
        assert_eq!(check_equivalence(&aig, &bal), Ok(Equivalence::Equal));
    }

    #[test]
    fn respects_shared_nodes() {
        // A shared subtree must not be duplicated blindly; function must
        // hold either way.
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let shared = aig.and(a, b);
        let x = aig.and(shared, c);
        let y = aig.and(shared, c.not());
        aig.output(x);
        aig.output(y);
        let bal = balance(&aig);
        assert_eq!(check_equivalence(&aig, &bal), Ok(Equivalence::Equal));
    }

    #[test]
    fn handles_complemented_structures() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let nand = aig.and(a, b).not();
        let f = aig.and(nand, c);
        let g = aig.xor(f, a);
        aig.output(g);
        let bal = balance(&aig);
        assert_eq!(check_equivalence(&aig, &bal), Ok(Equivalence::Equal));
    }

    #[test]
    fn unbalanced_sum_of_products() {
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..6).map(|_| aig.input()).collect();
        let t1 = aig.and(xs[0], xs[1]);
        let t2 = aig.and(xs[2], xs[3]);
        let t3 = aig.and(xs[4], xs[5]);
        let o1 = aig.or(t1, t2);
        let o = aig.or(o1, t3);
        aig.output(o);
        let bal = balance(&aig);
        assert!(bal.depth() <= aig.depth());
        assert_eq!(check_equivalence(&aig, &bal), Ok(Equivalence::Equal));
    }

    #[test]
    fn idempotent_on_balanced_input() {
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..4).map(|_| aig.input()).collect();
        let f = aig.and_many(&xs);
        aig.output(f);
        let once = balance(&aig);
        let twice = balance(&once);
        assert_eq!(once.depth(), twice.depth());
        assert_eq!(once.and_count(), twice.and_count());
    }
}

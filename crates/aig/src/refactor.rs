//! Cut-based refactoring: rebuild small cones from irredundant SOPs of
//! their cut functions when the SOP form is cheaper (ABC's `refactor`,
//! first-order).

use crate::cuts::{CutConfig, CutDb};
use crate::graph::{Aig, Lit, Node};
use logic::sop::isop;

/// One refactoring pass (the flow's `rf`): enumerates the 4-cuts of
/// `aig` (at most 6 per node) into a database of its own, then rebuilds
/// each node from the cheapest SOP of its cuts when that beats the cone
/// it replaces. The returned AIG is functionally equivalent; callers (see
/// [`synthesize`](crate::synth::synthesize)) keep it only when it
/// actually shrinks the network.
pub fn refactor(aig: &Aig) -> Aig {
    let mut cuts = CutDb::new(CutConfig { k: 4, max_cuts: 6 });
    cuts.ensure(aig);
    let mut out = Aig::new();
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.len()];
    for (pos, &i) in aig.input_nodes().iter().enumerate() {
        debug_assert_eq!(pos, out.input_count());
        map[i as usize] = out.input();
    }
    for (idx, node) in aig.nodes().enumerate() {
        let Node::And(a, b) = node else { continue };
        // Default: structural copy.
        let fa = apply(map[a.node() as usize], a);
        let fb = apply(map[b.node() as usize], b);
        let copied = out.and(fa, fb);
        // Alternative: SOP rebuild of the best non-trivial cut.
        let mut best = copied;
        let mut best_cost = usize::MAX;
        for cut in cuts.cuts(idx as u32) {
            if cut.leaves.len() < 2 || cut.leaves.len() > 4 {
                continue;
            }
            let cone = cone_size(aig, idx as u32, &cut.leaves);
            let cover = isop(cut.tt);
            let sop_cost: usize = cover
                .iter()
                .map(|c| c.literal_count().saturating_sub(1))
                .sum::<usize>()
                + cover.len().saturating_sub(1);
            if sop_cost < cone && sop_cost < best_cost {
                let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&l| map[l as usize]).collect();
                let rebuilt = sop_to_aig(&mut out, &cover, &leaf_lits, cut.tt.n_vars());
                best = rebuilt;
                best_cost = sop_cost;
            }
        }
        map[idx] = best;
    }
    for o in aig.output_lits() {
        let l = apply(map[o.node() as usize], *o);
        out.output(l);
    }
    out.cleanup()
}

fn apply(mapped: Lit, edge: Lit) -> Lit {
    if edge.is_complement() {
        mapped.not()
    } else {
        mapped
    }
}

/// Number of AND nodes strictly inside the cone of `root` above `leaves`
/// (an optimistic estimate of what a rebuild could save).
fn cone_size(aig: &Aig, root: u32, leaves: &[u32]) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![root];
    let mut count = 0usize;
    while let Some(n) = stack.pop() {
        if leaves.binary_search(&n).is_ok() || !seen.insert(n) {
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

/// Builds an SOP into the AIG over the given leaf literals.
#[allow(clippy::needless_range_loop)] // `v` indexes cube bit masks, not just `leaves`
fn sop_to_aig(out: &mut Aig, cover: &[logic::Cube], leaves: &[Lit], n_vars: usize) -> Lit {
    if cover.is_empty() {
        return Lit::FALSE;
    }
    let mut terms = Vec::with_capacity(cover.len());
    for cube in cover {
        let mut lits = Vec::new();
        for v in 0..n_vars {
            if (cube.care >> v) & 1 == 1 {
                let base = leaves[v];
                lits.push(if (cube.polarity >> v) & 1 == 1 {
                    base
                } else {
                    base.not()
                });
            }
        }
        terms.push(out.and_many(&lits));
    }
    out.or_many(&terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::equivalent;

    #[test]
    fn preserves_function_on_random_networks() {
        // Build a messy network and check equivalence after refactoring.
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..8).map(|_| aig.input()).collect();
        let mut nets = xs.clone();
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..60 {
            let a = nets[(rnd() as usize) % nets.len()];
            let b = nets[(rnd() as usize) % nets.len()];
            let f = match rnd() % 3 {
                0 => aig.and(a, b.not()),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            nets.push(f);
        }
        for &n in nets.iter().rev().take(6) {
            aig.output(n);
        }
        let refactored = refactor(&aig);
        assert!(equivalent(&aig, &refactored, 42, 64));
    }

    #[test]
    fn shrinks_redundant_sop() {
        // f = (a&b) | (a&c) | (a&d) built naively, refactor can share `a`:
        // ISOP gives a&(b|c|d) — fewer ANDs.
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let d = aig.input();
        let t1 = aig.and(a, b);
        let t2 = aig.and(a, c);
        let t3 = aig.and(a, d);
        let o1 = aig.or(t1, t2);
        let f = aig.or(o1, t3);
        aig.output(f);
        let before = aig.and_count();
        let refactored = refactor(&aig);
        assert!(equivalent(&aig, &refactored, 5, 16));
        assert!(
            refactored.and_count() <= before,
            "refactor must not grow a cleanly coverable cone: {} vs {before}",
            refactored.and_count()
        );
    }

    #[test]
    fn handles_constants_and_passthrough() {
        let mut aig = Aig::new();
        let a = aig.input();
        aig.output(a);
        aig.output(a.not());
        aig.output(Lit::TRUE);
        let r = refactor(&aig);
        assert!(equivalent(&aig, &r, 8, 8));
    }
}

//! Expressive power of a gate library — the paper's central concept:
//! "the ability to implement more logic functions with fewer physical
//! resources".
//!
//! An in-field programmable cell implements more than its nominal
//! function: tying generalized (XOR-side) inputs to constants
//! reconfigures it. The paper's example: the generalized NAND
//! `!((A⊕C)&(B⊕D))` acts as a NAND for `C=D=0`, an OR for `C=D=1`, and as
//! either implication in between — four distinct 2-input functions from
//! one 8-transistor cell, without rewiring.
//!
//! [`library_expressive_power`] quantifies this for a whole library: for
//! every cell, every assignment of {constant 0, constant 1, variable} to
//! its pins is enumerated, and the distinct non-degenerate functions (up
//! to input permutation, i.e. P-classes — polarity is *not* free here
//! because this measures the cell itself, not the mapper) are counted per
//! arity.

use crate::family::GateFamily;
use crate::gate::Gate;
use crate::generate::generate_library;
use logic::TruthTable;
use std::collections::{BTreeMap, BTreeSet};

/// Distinct implementable functions per arity, plus resource cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpressivePower {
    /// For each support size, the distinct P-canonical functions reachable
    /// by constant-tying any library cell.
    pub functions_by_arity: BTreeMap<usize, BTreeSet<u64>>,
    /// Total transistors across the library (the "physical resources").
    pub total_transistors: usize,
}

impl ExpressivePower {
    /// Number of distinct functions of the given support size.
    pub fn count(&self, arity: usize) -> usize {
        self.functions_by_arity.get(&arity).map_or(0, BTreeSet::len)
    }

    /// Total distinct functions across arities ≥ 1.
    pub fn total(&self) -> usize {
        self.functions_by_arity.values().map(BTreeSet::len).sum()
    }

    /// Functions per 100 transistors — the paper's "more functions with
    /// fewer physical resources" as a single figure of merit.
    pub fn per_hundred_transistors(&self) -> f64 {
        100.0 * self.total() as f64 / self.total_transistors.max(1) as f64
    }
}

/// P-canonical form: minimal truth-table bits over input permutations
/// only (no negations — constants already explore the input space, and
/// output phase distinguishes e.g. NAND from AND cells).
fn p_canon(t: TruthTable) -> u64 {
    let n = t.n_vars();
    let mut best = t.bits();
    let mut indices: Vec<usize> = (0..n).collect();
    permute_all(&mut indices, 0, &mut |perm| {
        let cand = t.permute(perm).bits();
        if cand < best {
            best = cand;
        }
    });
    best
}

fn permute_all(items: &mut [usize], at: usize, visit: &mut impl FnMut(&[usize])) {
    if at == items.len() {
        visit(items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute_all(items, at + 1, visit);
        items.swap(at, i);
    }
}

/// All functions a single cell can implement by tying subsets of its pins
/// to constants (the remaining pins stay distinct variables), keyed by
/// support size.
fn cell_functions(gate: &Gate) -> BTreeMap<usize, BTreeSet<u64>> {
    let n = gate.n_inputs;
    let mut out: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    // Ternary assignment per pin: 0 = const0, 1 = const1, 2 = variable.
    let total = 3usize.pow(n as u32);
    for code in 0..total {
        let mut c = code;
        let mut assignment = Vec::with_capacity(n);
        for _ in 0..n {
            assignment.push(c % 3);
            c /= 3;
        }
        let free: Vec<usize> = (0..n).filter(|&i| assignment[i] == 2).collect();
        if free.is_empty() {
            continue;
        }
        // Build the restricted function over the free pins.
        let m = free.len();
        let tt = TruthTable::from_fn(m, |vars| {
            let mut pins = vec![false; n];
            for (i, &a) in assignment.iter().enumerate() {
                pins[i] = match a {
                    0 => false,
                    1 => true,
                    _ => vars[free.iter().position(|&f| f == i).expect("free pin")],
                };
            }
            gate.function.eval(&pins)
        });
        // Skip degenerate restrictions (constants or reduced support).
        if tt.support_size() != m {
            continue;
        }
        out.entry(m).or_default().insert(p_canon(tt));
    }
    out
}

/// Computes the expressive power of a whole family's library.
///
/// # Example
///
/// ```
/// use gate_lib::{expressive::library_expressive_power, GateFamily};
///
/// let gen = library_expressive_power(GateFamily::CntfetGeneralized);
/// let cmos = library_expressive_power(GateFamily::Cmos);
/// // The paper's claim: higher expressive power per physical resource.
/// assert!(gen.per_hundred_transistors() > cmos.per_hundred_transistors());
/// ```
pub fn library_expressive_power(family: GateFamily) -> ExpressivePower {
    let library = generate_library(family);
    let mut power = ExpressivePower::default();
    for gate in &library {
        power.total_transistors += gate.transistor_count();
        for (arity, set) in cell_functions(gate) {
            power
                .functions_by_arity
                .entry(arity)
                .or_default()
                .extend(set);
        }
    }
    power
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Literal, SpNetwork};

    #[test]
    fn gnand2_reconfigures_into_four_two_input_functions() {
        // The paper's in-field programmability example.
        let pd = SpNetwork::series([
            SpNetwork::tg(Literal::pos(0), Literal::pos(1)),
            SpNetwork::tg(Literal::pos(2), Literal::pos(3)),
        ]);
        let gnand = Gate::from_pull_down("GNAND2", GateFamily::CntfetGeneralized, 4, pd, false)
            .expect("valid");
        let fns = cell_functions(&gnand);
        // Distinct 2-input P-classes: NAND-class appears in several
        // polarity flavours; count must be at least {NAND, OR, two
        // implications} = 4 distinct functions.
        assert!(
            fns.get(&2).map_or(0, BTreeSet::len) >= 4,
            "GNAND2 2-input functions: {:?}",
            fns.get(&2).map(BTreeSet::len)
        );
        // And it still provides its nominal 4-input function.
        assert_eq!(fns.get(&4).map_or(0, BTreeSet::len), 1);
    }

    #[test]
    fn xnor2_covers_both_xor_phases_via_constants() {
        let pd = SpNetwork::tg(Literal::pos(0), Literal::pos(1));
        let xnor = Gate::from_pull_down("XNOR2", GateFamily::CntfetGeneralized, 2, pd, false)
            .expect("valid");
        let fns = cell_functions(&xnor);
        // Constant-tying one input of XNOR gives INV/BUF (support 1).
        assert!(fns.get(&1).map_or(0, BTreeSet::len) >= 2);
        assert_eq!(fns.get(&2).map_or(0, BTreeSet::len), 1);
    }

    #[test]
    fn generalized_library_is_more_expressive() {
        let gen = library_expressive_power(GateFamily::CntfetGeneralized);
        let conv = library_expressive_power(GateFamily::CntfetConventional);
        // More functions at every arity ≥ 2…
        for arity in 2..=4usize {
            assert!(
                gen.count(arity) >= conv.count(arity),
                "arity {arity}: {} vs {}",
                gen.count(arity),
                conv.count(arity)
            );
        }
        assert!(gen.total() > conv.total());
        // …and more per transistor, despite the bigger library.
        assert!(gen.per_hundred_transistors() > conv.per_hundred_transistors());
    }

    #[test]
    fn p_canon_is_permutation_invariant() {
        let t = TruthTable::from_fn(3, |v| (v[0] && v[1]) || v[2]);
        for perm in [[1, 0, 2], [2, 1, 0], [0, 2, 1]] {
            assert_eq!(p_canon(t), p_canon(t.permute(&perm)));
        }
        // But NOT negation-invariant (cells are physical: NAND ≠ AND).
        let and3 = TruthTable::from_fn(3, |v| v[0] && v[1] && v[2]);
        assert_ne!(p_canon(and3), p_canon(!and3));
    }
}

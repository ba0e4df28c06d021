//! Irredundant sum-of-products extraction (Minato–Morreale ISOP).
//!
//! Used by the AIG refactoring pass (rebuild a cut as a balanced SOP when
//! that is cheaper) and by the genlib exporter to print gate functions in
//! the SOP notation genlib expects.

use crate::truthtable::TruthTable;

/// A product term over at most six variables.
///
/// A variable may appear positively, negatively, or not at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Cube {
    /// Bit `v` set: variable `v` appears in this cube.
    pub care: u8,
    /// Bit `v` set (and `care` set): variable appears positively.
    pub polarity: u8,
}

impl Cube {
    /// The universal cube (empty product, constant one).
    fn universe() -> Self {
        Self {
            care: 0,
            polarity: 0,
        }
    }

    /// A single-literal cube.
    pub fn literal(var: usize, positive: bool) -> Self {
        Self {
            care: 1 << var,
            polarity: if positive { 1 << var } else { 0 },
        }
    }

    /// Adds a literal to the cube, returning the extended cube.
    fn with_literal(mut self, var: usize, positive: bool) -> Self {
        self.care |= 1 << var;
        if positive {
            self.polarity |= 1 << var;
        } else {
            self.polarity &= !(1 << var);
        }
        self
    }

    /// Number of literals in the cube.
    pub fn literal_count(&self) -> usize {
        self.care.count_ones() as usize
    }

    /// The truth table of this cube over `n_vars` variables.
    pub fn to_truth_table(&self, n_vars: usize) -> TruthTable {
        let mut t = TruthTable::one(n_vars);
        for v in 0..n_vars {
            if (self.care >> v) & 1 == 1 {
                let lit = TruthTable::var(n_vars, v);
                t = t & if (self.polarity >> v) & 1 == 1 {
                    lit
                } else {
                    !lit
                };
            }
        }
        t
    }
}

/// Computes an irredundant sum-of-products cover of `f` using the
/// Minato–Morreale algorithm (with on-set = off-set complement, i.e. no
/// don't-cares).
///
/// The result covers exactly `f`: the OR of all returned cubes equals `f`.
///
/// # Example
///
/// ```
/// use logic::{isop, TruthTable};
///
/// let a = TruthTable::var(3, 0);
/// let b = TruthTable::var(3, 1);
/// let c = TruthTable::var(3, 2);
/// let f = (a & b) | c;
/// let cover = isop(f);
/// let rebuilt = cover
///     .iter()
///     .fold(TruthTable::zero(3), |acc, cube| acc | cube.to_truth_table(3));
/// assert_eq!(rebuilt, f);
/// assert!(cover.len() <= 2);
/// ```
pub fn isop(f: TruthTable) -> Vec<Cube> {
    let mut cubes = Vec::new();
    isop_rec(f, f, f.n_vars(), Cube::universe(), &mut cubes);
    cubes
}

/// Recursive ISOP on (lower bound `l`, upper bound `u`): returns a cover `g`
/// with `l ⊆ g ⊆ u`. Entry point uses `l = u = f`.
fn isop_rec(
    l: TruthTable,
    u: TruthTable,
    var_hint: usize,
    prefix: Cube,
    out: &mut Vec<Cube>,
) -> TruthTable {
    debug_assert_eq!((l & !u).bits(), 0, "lower bound must imply upper bound");
    if l.is_zero() {
        return TruthTable::zero(l.n_vars());
    }
    if u.is_one() {
        out.push(prefix);
        return TruthTable::one(l.n_vars());
    }
    // Pick the top variable in the joint support.
    let mut var = None;
    for v in (0..var_hint).rev() {
        if l.depends_on(v) || u.depends_on(v) {
            var = Some(v);
            break;
        }
    }
    let v = match var {
        Some(v) => v,
        None => {
            // l is a constant: non-zero here, so emit the prefix cube.
            out.push(prefix);
            return TruthTable::one(l.n_vars());
        }
    };

    let l0 = l.cofactor0(v);
    let l1 = l.cofactor1(v);
    let u0 = u.cofactor0(v);
    let u1 = u.cofactor1(v);

    // Cubes that must contain literal !v: needed in the 0-branch but not
    // allowed in the 1-branch.
    let g0 = isop_rec(l0 & !u1, u0, v, prefix.with_literal(v, false), out);
    // Cubes that must contain literal v.
    let g1 = isop_rec(l1 & !u0, u1, v, prefix.with_literal(v, true), out);
    // Remaining minterms can be covered by cubes free of variable v.
    let l_rest = (l0 & !g0) | (l1 & !g1);
    let g_free = isop_rec(l_rest, u0 & u1, v, prefix, out);

    let tv = TruthTable::var(l.n_vars(), v);
    (!tv & g0) | (tv & g1) | g_free
}

/// Renders a cover as genlib-style SOP text with variable names `a`–`f`,
/// e.g. `a*!b + c`.
pub fn cover_to_string(cubes: &[Cube]) -> String {
    if cubes.is_empty() {
        return "CONST0".to_owned();
    }
    let mut terms = Vec::with_capacity(cubes.len());
    for cube in cubes {
        if cube.care == 0 {
            return "CONST1".to_owned();
        }
        let mut lits = Vec::new();
        for v in 0..6 {
            if (cube.care >> v) & 1 == 1 {
                let name = (b'a' + v) as char;
                if (cube.polarity >> v) & 1 == 1 {
                    lits.push(name.to_string());
                } else {
                    lits.push(format!("!{name}"));
                }
            }
        }
        terms.push(lits.join("*"));
    }
    terms.join(" + ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover_tt(cubes: &[Cube], n: usize) -> TruthTable {
        cubes
            .iter()
            .fold(TruthTable::zero(n), |acc, c| acc | c.to_truth_table(n))
    }

    #[test]
    fn isop_covers_exactly() {
        for n in 1..=4usize {
            // Exhaustive for small n, sampled for n = 4.
            let limit = 1u64 << (1u64 << n);
            let step = if n < 4 { 1 } else { 257 };
            let mut bits = 0u64;
            while bits < limit {
                let f = TruthTable::from_bits(n, bits);
                let cover = isop(f);
                assert_eq!(cover_tt(&cover, n), f, "cover mismatch for {f:?}");
                bits += step;
            }
        }
    }

    #[test]
    fn isop_of_constants() {
        assert!(isop(TruthTable::zero(3)).is_empty());
        let ones = isop(TruthTable::one(3));
        assert_eq!(ones.len(), 1);
        assert_eq!(ones[0], Cube::universe());
    }

    #[test]
    fn isop_single_cube_for_product() {
        let a = TruthTable::var(3, 0);
        let c = TruthTable::var(3, 2);
        let cover = isop(a & !c);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].literal_count(), 2);
    }

    #[test]
    fn isop_xor_needs_two_cubes() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let cover = isop(a ^ b);
        assert_eq!(cover.len(), 2);
        assert!(cover.iter().all(|c| c.literal_count() == 2));
    }

    #[test]
    fn isop_is_irredundant_on_samples() {
        // Removing any cube must change the covered function.
        let samples = [
            TruthTable::from_bits(4, 0x1ee1),
            TruthTable::from_bits(4, 0x8000),
            TruthTable::from_bits(4, 0x6996), // 4-input parity
            TruthTable::from_bits(3, 0xe8),   // majority
        ];
        for f in samples {
            let cover = isop(f);
            assert_eq!(cover_tt(&cover, f.n_vars()), f);
            for skip in 0..cover.len() {
                let partial: Vec<Cube> = cover
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, c)| *c)
                    .collect();
                assert_ne!(
                    cover_tt(&partial, f.n_vars()),
                    f,
                    "cube {skip} is redundant for {f:?}"
                );
            }
        }
    }

    #[test]
    fn string_rendering() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let s = cover_to_string(&isop(a & !b));
        assert_eq!(s, "a*!b");
        assert_eq!(cover_to_string(&[]), "CONST0");
        assert_eq!(cover_to_string(&[Cube::universe()]), "CONST1");
    }
}

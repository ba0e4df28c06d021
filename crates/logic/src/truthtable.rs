//! Packed truth tables for functions of up to [`MAX_VARS`](crate::MAX_VARS)
//! variables.
//!
//! A function of `n ≤ 6` variables is stored in the low `2^n` bits of a
//! `u64`; bit `i` holds `f(i)` where variable `k` contributes bit `k` of the
//! minterm index. All operations keep the unused high bits zero so that
//! equality of truth tables is plain `u64` equality.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Pre-computed variable masks: `VAR_MASK[k]` is the 6-variable truth table
/// of variable `k` (the classic binary "magic numbers").
pub const VAR_MASK: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A Boolean function of up to six variables, packed into a `u64`.
///
/// # Example
///
/// ```
/// use logic::TruthTable;
///
/// let a = TruthTable::var(3, 0);
/// let b = TruthTable::var(3, 1);
/// let c = TruthTable::var(3, 2);
/// let maj = (a & b) | (b & c) | (a & c);
/// assert_eq!(maj.count_ones(), 4);
/// assert!(maj.eval(&[true, true, false]));
/// assert!(!maj.eval(&[true, false, false]));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    n_vars: u8,
    bits: u64,
}

impl TruthTable {
    /// Constructs the constant-zero function of `n_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > 6`.
    pub fn zero(n_vars: usize) -> Self {
        assert!(n_vars <= 6, "truth tables support at most 6 variables");
        Self {
            n_vars: n_vars as u8,
            bits: 0,
        }
    }

    /// Constructs the constant-one function of `n_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > 6`.
    pub fn one(n_vars: usize) -> Self {
        Self::zero(n_vars).not()
    }

    /// Constructs the projection function of variable `var` among `n_vars`.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > 6` or `var >= n_vars`.
    pub fn var(n_vars: usize, var: usize) -> Self {
        assert!(n_vars <= 6, "truth tables support at most 6 variables");
        assert!(
            var < n_vars,
            "variable index {var} out of range 0..{n_vars}"
        );
        Self {
            n_vars: n_vars as u8,
            bits: VAR_MASK[var] & mask(n_vars),
        }
    }

    /// Constructs a truth table from its raw bit representation.
    ///
    /// Bits above `2^n_vars` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > 6`.
    pub fn from_bits(n_vars: usize, bits: u64) -> Self {
        assert!(n_vars <= 6, "truth tables support at most 6 variables");
        Self {
            n_vars: n_vars as u8,
            bits: bits & mask(n_vars),
        }
    }

    /// Builds a truth table by evaluating `f` on every assignment.
    ///
    /// Assignment `i` passes variable `k` as bit `k` of `i`.
    pub fn from_fn(n_vars: usize, mut f: impl FnMut(&[bool]) -> bool) -> Self {
        assert!(n_vars <= 6, "truth tables support at most 6 variables");
        let mut bits = 0u64;
        let mut assignment = [false; 6];
        for i in 0..(1u64 << n_vars) {
            for (k, slot) in assignment.iter_mut().enumerate().take(n_vars) {
                *slot = (i >> k) & 1 == 1;
            }
            if f(&assignment[..n_vars]) {
                bits |= 1 << i;
            }
        }
        Self {
            n_vars: n_vars as u8,
            bits,
        }
    }

    /// The number of variables this table is defined over.
    pub fn n_vars(&self) -> usize {
        self.n_vars as usize
    }

    /// The raw packed bits (only the low `2^n_vars` bits are meaningful).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The number of minterms (assignments mapped to one).
    pub fn count_ones(&self) -> u32 {
        self.bits.count_ones()
    }

    /// The number of maxterms (assignments mapped to zero).
    pub fn count_zeros(&self) -> u32 {
        (1u32 << self.n_vars) - self.count_ones()
    }

    /// Evaluates the function on a full assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != n_vars`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.n_vars(), "assignment arity mismatch");
        let mut idx = 0usize;
        for (k, &bit) in assignment.iter().enumerate() {
            if bit {
                idx |= 1 << k;
            }
        }
        self.eval_index(idx)
    }

    /// Evaluates the function on minterm `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n_vars`.
    pub fn eval_index(&self, index: usize) -> bool {
        assert!(index < (1 << self.n_vars), "minterm index out of range");
        (self.bits >> index) & 1 == 1
    }

    /// Whether this is the constant-zero function.
    pub fn is_zero(&self) -> bool {
        self.bits == 0
    }

    /// Whether this is the constant-one function.
    pub fn is_one(&self) -> bool {
        self.bits == mask(self.n_vars())
    }

    /// The positive cofactor with respect to `var` (as a function of the same
    /// variable set; `var` becomes irrelevant).
    pub fn cofactor1(&self, var: usize) -> Self {
        let m = VAR_MASK[var] & mask(self.n_vars());
        let hi = self.bits & m;
        Self {
            n_vars: self.n_vars,
            bits: hi | (hi >> (1 << var)),
        }
    }

    /// The negative cofactor with respect to `var`.
    pub fn cofactor0(&self, var: usize) -> Self {
        let m = !VAR_MASK[var] & mask(self.n_vars());
        let lo = self.bits & m;
        Self {
            n_vars: self.n_vars,
            bits: lo | (lo << (1 << var)),
        }
    }

    /// Whether the function actually depends on `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor0(var) != self.cofactor1(var)
    }

    /// The set of variables the function depends on, as a bit mask.
    fn support_mask(&self) -> u8 {
        let mut m = 0u8;
        for v in 0..self.n_vars() {
            if self.depends_on(v) {
                m |= 1 << v;
            }
        }
        m
    }

    /// The number of variables the function depends on.
    pub fn support_size(&self) -> usize {
        self.support_mask().count_ones() as usize
    }

    /// Returns the same function with variable `var` complemented.
    pub fn flip_var(&self, var: usize) -> Self {
        let shift = 1u32 << var;
        let m = VAR_MASK[var];
        let hi = self.bits & m;
        let lo = self.bits & !m;
        Self {
            n_vars: self.n_vars,
            bits: ((hi >> shift) | (lo << shift)) & mask(self.n_vars()),
        }
    }

    /// Applies an arbitrary variable permutation: variable `k` of the result
    /// reads what variable `perm[k]` read in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n_vars`.
    pub fn permute(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.n_vars(), "permutation arity mismatch");
        let mut seen = [false; 6];
        for &p in perm {
            assert!(p < self.n_vars() && !seen[p], "invalid permutation");
            seen[p] = true;
        }
        let n = self.n_vars();
        let mut bits = 0u64;
        for i in 0..(1u64 << n) {
            // Destination minterm i reads source minterm j where
            // bit perm[k] of j equals bit k of i.
            let mut j = 0u64;
            for (k, &p) in perm.iter().enumerate() {
                if (i >> k) & 1 == 1 {
                    j |= 1 << p;
                }
            }
            if (self.bits >> j) & 1 == 1 {
                bits |= 1 << i;
            }
        }
        Self {
            n_vars: self.n_vars,
            bits,
        }
    }

    /// Re-expresses the function over a larger variable set, keeping variable
    /// indices (new variables are irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if `n_vars` is smaller than the current arity or exceeds six.
    pub fn extend_to(&self, n_vars: usize) -> Self {
        assert!(n_vars <= 6, "truth tables support at most 6 variables");
        assert!(
            n_vars >= self.n_vars(),
            "cannot shrink a truth table with extend_to"
        );
        let mut bits = self.bits;
        for v in self.n_vars()..n_vars {
            bits |= bits << (1u64 << v);
        }
        Self {
            n_vars: n_vars as u8,
            bits: bits & mask(n_vars),
        }
    }

    /// Drops irrelevant variables down to the function's support.
    ///
    /// Returns a pair of the compacted table and the retained original
    /// variables as a bit mask: the `k`-th set bit names the original
    /// variable that becomes variable `k`.
    pub fn shrink_to_support(&self) -> (Self, u8) {
        let kept = self.support_mask();
        let n = kept.count_ones() as usize;
        if n == self.n_vars() {
            return (*self, kept);
        }
        let mut bits = 0u64;
        for i in 0..(1u64 << n) {
            // Spread the bits of `i` onto the kept variables' positions.
            let mut j = 0u64;
            let mut rest = kept;
            for k in 0..n {
                if (i >> k) & 1 == 1 {
                    j |= 1 << rest.trailing_zeros();
                }
                rest &= rest - 1;
            }
            // Irrelevant variables may take any value; use zero.
            if (self.bits >> j) & 1 == 1 {
                bits |= 1 << i;
            }
        }
        (
            Self {
                n_vars: n as u8,
                bits,
            },
            kept,
        )
    }

    /// Evaluates the function bitwise over 64 parallel patterns.
    ///
    /// `pins[k]` carries 64 values of variable `k` (bit `j` = pattern `j`);
    /// bit `j` of the result is the function applied to bit `j` of every
    /// pin. This is the shared word-evaluation kernel behind mapped-netlist
    /// simulation and [`TruthTable::compose`]: the function is expanded as
    /// a sum of minterms, each minterm an AND of (possibly complemented)
    /// pin words.
    ///
    /// # Panics
    ///
    /// Panics if `pins.len() != n_vars`.
    pub fn eval_words(&self, pins: &[u64]) -> u64 {
        assert_eq!(pins.len(), self.n_vars(), "pin word count mismatch");
        let mut out = 0u64;
        for m in 0..(1usize << self.n_vars) {
            if (self.bits >> m) & 1 == 0 {
                continue;
            }
            let mut term = u64::MAX;
            for (k, &w) in pins.iter().enumerate() {
                term &= if (m >> k) & 1 == 1 { w } else { !w };
            }
            out |= term;
        }
        out
    }

    /// Composes `self` with sub-functions: variable `k` is replaced by
    /// `inputs[k]`. All inputs must share one arity, which becomes the
    /// arity of the result.
    ///
    /// A truth table over `n` variables *is* a word of `2^n ≤ 64` parallel
    /// evaluations, so composition is one [`TruthTable::eval_words`] call
    /// over the input tables' packed bits.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n_vars` or the inputs disagree on arity.
    pub fn compose(&self, inputs: &[TruthTable]) -> Self {
        assert_eq!(inputs.len(), self.n_vars(), "composition arity mismatch");
        let n = inputs.first().map_or(0, |t| t.n_vars());
        assert!(
            inputs.iter().all(|t| t.n_vars() == n),
            "composition inputs must share an arity"
        );
        let words: Vec<u64> = inputs.iter().map(|t| t.bits()).collect();
        Self::from_bits(n, self.eval_words(&words))
    }
}

fn mask(n_vars: usize) -> u64 {
    if n_vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1u64 << n_vars)) - 1
    }
}

impl Not for TruthTable {
    type Output = Self;
    fn not(self) -> Self {
        Self {
            n_vars: self.n_vars,
            bits: !self.bits & mask(self.n_vars()),
        }
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for TruthTable {
            type Output = Self;
            fn $method(self, rhs: Self) -> Self {
                assert_eq!(self.n_vars, rhs.n_vars, "truth-table arity mismatch");
                Self {
                    n_vars: self.n_vars,
                    bits: self.bits $op rhs.bits,
                }
            }
        }
    };
}

impl_bitop!(BitAnd, bitand, &);
impl_bitop!(BitOr, bitor, |);
impl_bitop!(BitXor, bitxor, ^);

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, {:#x})", self.n_vars, self.bits)
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = (1usize << self.n_vars()).div_ceil(4);
        write!(f, "{:0width$x}", self.bits, width = digits.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_masks_are_projections() {
        for n in 1..=6 {
            for v in 0..n {
                let t = TruthTable::var(n, v);
                for i in 0..(1usize << n) {
                    assert_eq!(t.eval_index(i), (i >> v) & 1 == 1);
                }
            }
        }
    }

    #[test]
    fn basic_algebra() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!((a & b).count_ones(), 1);
        assert_eq!((a | b).count_ones(), 3);
        assert_eq!((a ^ b).count_ones(), 2);
        assert_eq!((!(a & b)).count_ones(), 3);
        assert!((a ^ a).is_zero());
        assert!((a | !a).is_one());
    }

    #[test]
    fn cofactors_shannon() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = (a & b) | c;
        // Shannon expansion: f = a·f1 + a'·f0.
        let recomposed = (a & f.cofactor1(0)) | (!a & f.cofactor0(0));
        assert_eq!(f, recomposed);
        assert!(f.depends_on(0));
        assert!(!(a & b).depends_on(2));
    }

    #[test]
    fn support_detection() {
        let a = TruthTable::var(4, 0);
        let c = TruthTable::var(4, 2);
        let f = a ^ c;
        assert_eq!(f.support_mask(), 0b0101);
        assert_eq!(f.support_size(), 2);
        let (g, kept) = f.shrink_to_support();
        assert_eq!(kept, 0b0101);
        assert_eq!(g.n_vars(), 2);
        let x = TruthTable::var(2, 0);
        let y = TruthTable::var(2, 1);
        assert_eq!(g, x ^ y);
    }

    #[test]
    fn flip_var_is_involution() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = (a & b) | (!b & c);
        for v in 0..3 {
            assert_eq!(f.flip_var(v).flip_var(v), f);
        }
        assert_eq!(TruthTable::var(3, 1).flip_var(1), !TruthTable::var(3, 1));
    }

    #[test]
    fn permute_matches_repeated_swaps() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = (a & b) | c;
        // Rotate variables left: new var0 reads old var1, etc.
        let g = f.permute(&[1, 2, 0]);
        // Permuting distributes over the Boolean operators.
        let expected = (a.permute(&[1, 2, 0]) & b.permute(&[1, 2, 0])) | c.permute(&[1, 2, 0]);
        assert_eq!(g, expected);
        // Spelled out: g(x) = f(y) with y_{perm[k]} = x_k.
        let x0 = TruthTable::var(3, 0);
        let x1 = TruthTable::var(3, 1);
        let x2 = TruthTable::var(3, 2);
        assert_eq!(g, (x2 & x0) | x1);
        // Identity permutation.
        assert_eq!(f.permute(&[0, 1, 2]), f);
    }

    #[test]
    fn permute_projection() {
        // Permuted projection stays a projection of the mapped variable.
        let f = TruthTable::var(3, 2);
        let g = f.permute(&[2, 0, 1]);
        // New variable 0 reads old variable 2, so g should be var 0.
        assert_eq!(g, TruthTable::var(3, 0));
    }

    #[test]
    fn extend_keeps_function() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let f = a ^ b;
        let g = f.extend_to(4);
        assert_eq!(g.n_vars(), 4);
        assert_eq!(g, TruthTable::var(4, 0) ^ TruthTable::var(4, 1));
        assert!(!g.depends_on(2));
        assert!(!g.depends_on(3));
    }

    #[test]
    fn compose_builds_nested_functions() {
        // f(x, y) = x & y composed with x = a^b, y = c gives (a^b)&c.
        let f = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let g = f.compose(&[a ^ b, c]);
        assert_eq!(g, (a ^ b) & c);
    }

    #[test]
    fn eval_words_matches_scalar_eval() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = (a & b) | (!a & c);
        // 8 patterns in one word.
        let wa = 0b10101010u64;
        let wb = 0b11001100u64;
        let wc = 0b11110000u64;
        let out = f.eval_words(&[wa, wb, wc]);
        for k in 0..8 {
            let bits = [(wa >> k) & 1 == 1, (wb >> k) & 1 == 1, (wc >> k) & 1 == 1];
            assert_eq!((out >> k) & 1 == 1, f.eval(&bits), "pattern {k}");
        }
    }

    #[test]
    fn eval_words_on_constants() {
        assert_eq!(TruthTable::one(2).eval_words(&[0b01, 0b10]), u64::MAX);
        assert_eq!(TruthTable::zero(2).eval_words(&[0b01, 0b10]), 0);
    }

    #[test]
    fn from_fn_majority() {
        let maj = TruthTable::from_fn(3, |v| (v[0] as u8 + v[1] as u8 + v[2] as u8) >= 2);
        assert_eq!(maj.count_ones(), 4);
        assert!(maj.eval(&[true, true, false]));
        assert!(!maj.eval(&[false, false, true]));
    }

    #[test]
    #[should_panic(expected = "at most 6")]
    fn rejects_seven_vars() {
        let _ = TruthTable::zero(7);
    }

    #[test]
    fn display_is_hex() {
        let a = TruthTable::var(2, 0);
        assert_eq!(a.to_string(), "a");
        let one = TruthTable::one(3);
        assert_eq!(one.to_string(), "ff");
    }
}

//! NPN Boolean matching of cut functions against library cells.
//!
//! The matching data splits into two layers with very different lifetimes:
//!
//! * [`NpnMatchCache`] — the immutable NPN class table of a library
//!   (canonical function → realizing cells + transforms). Building it
//!   canonizes every cell once; after that it is read-only and freely
//!   shared across circuits and threads (`ambipolar::engine` keeps one per
//!   gate family in a `OnceLock`).
//! * [`Matcher`] — a cheap per-mapping-run scratch that memoizes the
//!   matches of cut functions seen during one run (the same cut function
//!   recurs across thousands of nodes).
//!
//! Canonization is exhaustive — 92,160 transforms for a 6-input function
//! — and most cut functions belong to no library class. So a function is
//! first checked against the classes' NPN signatures (ones count and
//! sorted cofactor weights, up to output complement; Huang, Wang,
//! Nasikovskiy and Mishchenko, "Fast Boolean matching based on NPN
//! classification", FPT 2013). The signature is an NPN invariant, so a
//! function whose signature no class has cannot match, and it is
//! rejected without being canonized. On the Table-1 run this leaves
//! about one canonization in eight.

use crate::config::MapError;
use charlib::CharacterizedLibrary;
use gate_lib::GateFamily;
use logic::npn::{npn_canon, NpnTransform};
use logic::TruthTable;
use std::collections::{HashMap, HashSet};

/// How a library cell realizes a cut function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchCandidate {
    /// Index of the cell in the characterized library.
    pub gate: usize,
    /// For each cell pin `k`: `(support_var, inverted)` — which variable
    /// of the (support-shrunk) cut function feeds the pin, and whether it
    /// must be complemented.
    pub pins: Vec<(usize, bool)>,
    /// Whether the cell output is the complement of the cut function.
    pub output_inverted: bool,
}

/// The immutable NPN class table of a library: every cell canonized once,
/// indexed by `(arity, canonical bits)`.
///
/// The table depends only on the cell *functions* (not on delays, caps, or
/// leakage), so one cache serves every technology point of a family —
/// [`NpnMatchCache::for_family`] builds it straight from the generated
/// cell list without running characterization.
#[derive(Debug)]
pub struct NpnMatchCache {
    /// Key: (support size, canonical truth-table bits). Value: cells of
    /// that class with the transform mapping each cell onto the canonical
    /// representative, in library order.
    classes: HashMap<(usize, u64), Vec<(usize, NpnTransform)>>,
    /// The NPN signature of every class in `classes`.
    signatures: HashSet<NpnSignature>,
    /// Index of the INV cell.
    inverter: usize,
    /// Number of cells indexed (diagnostics).
    cell_count: usize,
}

impl NpnMatchCache {
    /// Builds the class table for a characterized library.
    ///
    /// # Errors
    ///
    /// [`MapError::MissingInverter`] if the library has no `INV` cell.
    pub fn new(library: &CharacterizedLibrary) -> Result<Self, MapError> {
        Self::from_cells(
            library
                .gates
                .iter()
                .map(|cell| (cell.gate.name.as_str(), cell.gate.function)),
        )
    }

    /// Builds the class table for a gate family from its generated cell
    /// list, without characterizing the library (cell indices agree with
    /// the characterized library of the same family, which preserves
    /// generation order).
    ///
    /// # Errors
    ///
    /// [`MapError::MissingInverter`] if the family provides no `INV` cell.
    pub fn for_family(family: GateFamily) -> Result<Self, MapError> {
        let gates = gate_lib::generate_library(family);
        Self::from_cells(gates.iter().map(|gate| (gate.name.as_str(), gate.function)))
    }

    fn from_cells<'a>(
        cells: impl Iterator<Item = (&'a str, TruthTable)>,
    ) -> Result<Self, MapError> {
        let mut classes: HashMap<(usize, u64), Vec<(usize, NpnTransform)>> = HashMap::new();
        let mut signatures = HashSet::new();
        let mut inverter = None;
        let mut cell_count = 0usize;
        for (idx, (name, f)) in cells.enumerate() {
            if name == "INV" {
                inverter = Some(idx);
            }
            let canon = npn_canon(f);
            classes
                .entry((f.n_vars(), canon.canonical.bits()))
                .or_default()
                .push((idx, canon.transform));
            signatures.insert(npn_signature(f));
            cell_count += 1;
        }
        Ok(Self {
            classes,
            signatures,
            inverter: inverter.ok_or(MapError::MissingInverter)?,
            cell_count,
        })
    }

    /// The library index of the INV cell.
    pub fn inverter(&self) -> usize {
        self.inverter
    }

    /// Number of distinct NPN classes in the library.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of cells indexed.
    pub fn cell_count(&self) -> usize {
        self.cell_count
    }

    /// Computes all candidate bindings for a support-shrunk cut function
    /// (every variable in support) by canonizing it and looking its class
    /// up. Prefer going through a [`Matcher`], which skips canonization
    /// for functions no class's signature admits and memoizes the rest
    /// across a mapping run.
    ///
    /// For each candidate, the binding `U` satisfies
    /// `cell_function = U.apply(cut_function)`; pin `k` of the cell reads
    /// cut variable `U.perm[k]` complemented per `U.input_flips`, and the
    /// cell output is complemented iff `U.output_flip`.
    fn compute_matches(&self, f: TruthTable) -> Vec<MatchCandidate> {
        let canon = npn_canon(f);
        let Some(cells) = self.classes.get(&(f.n_vars(), canon.canonical.bits())) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(cells.len());
        for (gate, s) in cells {
            // cell = S⁻¹(C) and C = T(f) ⇒ cell = (S⁻¹ ∘ T)(f).
            let u = s.inverse().compose(&canon.transform);
            let n = f.n_vars();
            let pins = (0..n)
                .map(|k| {
                    let v = u.perm[k] as usize;
                    (v, (u.input_flips >> v) & 1 == 1)
                })
                .collect();
            out.push(MatchCandidate {
                gate: *gate,
                pins,
                output_inverted: u.output_flip,
            });
        }
        out
    }
}

/// An NPN-invariant signature: the ones count and, per variable, the
/// ones counts of its two cofactors as a (min, max) pair, with the pairs
/// sorted — taken for the function and for its complement, keeping the
/// smaller.
///
/// Negating an input swaps that input's pair, permuting inputs reorders
/// the pairs, and the minimum over both output phases absorbs output
/// negation; so NPN-equivalent functions have equal signatures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct NpnSignature {
    n_vars: u8,
    ones: u8,
    /// Sorted (min, max) cofactor ones counts; slots past `n_vars` zero.
    cofactors: [(u8, u8); 6],
}

fn npn_signature(f: TruthTable) -> NpnSignature {
    let n = f.n_vars();
    let of = |g: TruthTable| {
        let mut cofactors = [(0u8, 0u8); 6];
        for (v, pair) in cofactors.iter_mut().enumerate().take(n) {
            // A cofactor repeats its half of the table, so it counts each
            // of that half's ones twice.
            let lo = (g.cofactor0(v).count_ones() / 2) as u8;
            let hi = (g.cofactor1(v).count_ones() / 2) as u8;
            *pair = (lo.min(hi), lo.max(hi));
        }
        cofactors[..n].sort_unstable();
        NpnSignature {
            n_vars: n as u8,
            ones: g.count_ones() as u8,
            cofactors,
        }
    };
    of(f).min(of(!f))
}

/// Per-mapping-run matcher: a shared, immutable [`NpnMatchCache`] plus a
/// private memo of the cut functions matched so far. Create one per
/// `map_aig` call; drop it when the run ends.
#[derive(Debug)]
pub struct Matcher<'c> {
    cache: &'c NpnMatchCache,
    /// Memoized candidate lists keyed by the raw cut-function bits.
    memo: HashMap<(usize, u64), Vec<MatchCandidate>>,
    /// Distinct functions canonized (their signature is a class's).
    canonized: u64,
    /// Distinct functions rejected by signature, without canonizing.
    rejected: u64,
}

impl<'c> Matcher<'c> {
    /// A fresh matcher over a shared class table.
    pub fn new(cache: &'c NpnMatchCache) -> Self {
        Self {
            cache,
            memo: HashMap::new(),
            canonized: 0,
            rejected: 0,
        }
    }

    /// Distinct functions this run canonized.
    pub fn canonized(&self) -> u64 {
        self.canonized
    }

    /// Distinct functions this run rejected by NPN signature alone.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Matches a support-shrunk cut function, memoized per distinct
    /// function. A function whose NPN signature no library class has
    /// matches nothing and is not canonized.
    pub fn matches(&mut self, f: TruthTable) -> &[MatchCandidate] {
        let Self {
            cache,
            memo,
            canonized,
            rejected,
        } = self;
        memo.entry((f.n_vars(), f.bits())).or_insert_with(|| {
            if cache.signatures.contains(&npn_signature(f)) {
                *canonized += 1;
                cache.compute_matches(f)
            } else {
                *rejected += 1;
                Vec::new()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlib::characterize_library;
    use gate_lib::GateFamily;

    fn check_candidate_realizes(
        library: &CharacterizedLibrary,
        cand: &MatchCandidate,
        f: TruthTable,
    ) {
        let cell = &library.gates[cand.gate];
        let g = cell.gate.function;
        let n = f.n_vars();
        assert_eq!(g.n_vars(), n, "exact-arity matching");
        // Evaluate: for every assignment y of the cut variables, drive the
        // pins per the binding and compare.
        for m in 0..(1usize << n) {
            let y: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            let pins: Vec<bool> = cand.pins.iter().map(|&(v, inv)| y[v] ^ inv).collect();
            let cell_out = g.eval(&pins);
            let expected = f.eval(&y) ^ cand.output_inverted;
            assert_eq!(
                cell_out, expected,
                "cell {} binding wrong at minterm {m}",
                cell.gate.name
            );
        }
    }

    #[test]
    fn and_class_matches_in_all_families() {
        for family in GateFamily::ALL {
            let lib = characterize_library(family);
            let cache = NpnMatchCache::new(&lib).expect("INV present");
            let mut matcher = Matcher::new(&cache);
            let a = TruthTable::var(2, 0);
            let b = TruthTable::var(2, 1);
            for f in [a & b, !(a & b), a | !b, !(a | b)] {
                let cands = matcher.matches(f).to_vec();
                assert!(!cands.is_empty(), "{family}: no match for {f:?}");
                for c in &cands {
                    check_candidate_realizes(&lib, c, f);
                }
            }
        }
    }

    #[test]
    fn xor_class_matches() {
        for family in GateFamily::ALL {
            let lib = characterize_library(family);
            let cache = NpnMatchCache::new(&lib).expect("INV present");
            let mut matcher = Matcher::new(&cache);
            let a = TruthTable::var(2, 0);
            let b = TruthTable::var(2, 1);
            let cands = matcher.matches(a ^ b).to_vec();
            assert!(!cands.is_empty(), "{family}: XOR unmatched");
            for c in &cands {
                check_candidate_realizes(&lib, c, a ^ b);
            }
        }
    }

    #[test]
    fn gnand_class_matches_only_generalized() {
        let f = {
            let t = |v| TruthTable::var(4, v);
            !((t(0) ^ t(1)) & (t(2) ^ t(3)))
        };
        let lib = characterize_library(GateFamily::CntfetGeneralized);
        let cache = NpnMatchCache::new(&lib).expect("INV present");
        let cands = cache.compute_matches(f);
        assert!(!cands.is_empty(), "GNAND2 class must match");
        for c in &cands {
            check_candidate_realizes(&lib, c, f);
        }
        let lib = characterize_library(GateFamily::Cmos);
        let cache = NpnMatchCache::new(&lib).expect("INV present");
        assert!(
            cache.compute_matches(f).is_empty(),
            "CMOS cannot cover a 4-input XOR-of-products in one cell"
        );
    }

    #[test]
    fn aoi_classes_match_with_bindings() {
        let t = |v| TruthTable::var(3, v);
        let f = !((t(0) & t(1)) | t(2)); // AOI21
        for family in GateFamily::ALL {
            let lib = characterize_library(family);
            let cache = NpnMatchCache::new(&lib).expect("INV present");
            let cands = cache.compute_matches(f);
            assert!(!cands.is_empty(), "{family}: AOI21 unmatched");
            for c in &cands {
                check_candidate_realizes(&lib, c, f);
            }
        }
    }

    #[test]
    fn inverter_index_is_inv() {
        let lib = characterize_library(GateFamily::Cmos);
        let cache = NpnMatchCache::new(&lib).expect("INV present");
        assert_eq!(lib.gates[cache.inverter()].gate.name, "INV");
        assert!(cache.class_count() > 0);
        assert_eq!(cache.cell_count(), lib.gates.len());
    }

    #[test]
    fn family_cache_agrees_with_characterized_cache() {
        // The characterization-free constructor must index the same cells
        // at the same positions as the characterized library.
        for family in GateFamily::ALL {
            let lib = characterize_library(family);
            let from_lib = NpnMatchCache::new(&lib).expect("INV present");
            let from_family = NpnMatchCache::for_family(family).expect("INV present");
            assert_eq!(from_lib.inverter(), from_family.inverter(), "{family}");
            assert_eq!(from_lib.class_count(), from_family.class_count());
            assert_eq!(from_lib.cell_count(), from_family.cell_count());
            // Spot-check candidate agreement on a few functions.
            let a = TruthTable::var(2, 0);
            let b = TruthTable::var(2, 1);
            for f in [a & b, a ^ b, !(a | b)] {
                assert_eq!(
                    from_lib.compute_matches(f),
                    from_family.compute_matches(f),
                    "{family}: candidates diverge for {f:?}"
                );
            }
        }
    }

    #[test]
    fn matcher_memoizes_distinct_functions() {
        let lib = characterize_library(GateFamily::Cmos);
        let cache = NpnMatchCache::new(&lib).expect("INV present");
        let mut matcher = Matcher::new(&cache);
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let first = matcher.matches(a & b).to_vec();
        let again = matcher.matches(a & b).to_vec();
        assert_eq!(first, again);
        assert_eq!(matcher.memo.len(), 1);
        let _ = matcher.matches(a ^ b);
        assert_eq!(matcher.memo.len(), 2);
    }

    /// One xorshift64 step.
    fn next(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    /// A seeded random NPN transform on `n` variables.
    fn random_transform(n: usize, seed: &mut u64) -> NpnTransform {
        let mut t = NpnTransform::identity(n);
        for k in (1..n).rev() {
            let j = (next(seed) % (k as u64 + 1)) as usize;
            t.perm.swap(k, j);
        }
        t.input_flips = (next(seed) & ((1 << n) - 1)) as u8;
        t.output_flip = next(seed) & 1 == 1;
        t
    }

    #[test]
    fn npn_signature_is_constant_on_each_library_class() {
        for family in GateFamily::ALL {
            let mut by_class: HashMap<(usize, u64), NpnSignature> = HashMap::new();
            for gate in gate_lib::generate_library(family) {
                let f = gate.function;
                let canonical = npn_canon(f).canonical;
                let sig = npn_signature(f);
                assert_eq!(npn_signature(canonical), sig, "{family}: {}", gate.name);
                let first = *by_class
                    .entry((f.n_vars(), canonical.bits()))
                    .or_insert(sig);
                assert_eq!(first, sig, "{family}: {} differs from its class", gate.name);
            }
            let cache = NpnMatchCache::for_family(family).expect("INV present");
            assert_eq!(cache.class_count(), by_class.len());
            assert!(cache.signatures.len() <= cache.class_count());
        }
    }

    #[test]
    fn npn_signature_is_invariant_under_random_npn_transforms() {
        let mut seed = 0x5EED_5167_u64;
        for n in 2..=6 {
            for _ in 0..200 {
                let f = TruthTable::from_bits(n, next(&mut seed));
                let sig = npn_signature(f);
                for _ in 0..4 {
                    let t = random_transform(n, &mut seed);
                    assert_eq!(npn_signature(t.apply(f)), sig, "{f:?} under {t:?}");
                }
            }
        }
    }

    #[test]
    fn signature_filter_equals_canonize_then_look_up() {
        let caches: Vec<NpnMatchCache> = GateFamily::ALL
            .iter()
            .map(|&family| NpnMatchCache::for_family(family).expect("INV present"))
            .collect();
        let mut matchers: Vec<Matcher<'_>> = caches.iter().map(Matcher::new).collect();
        let mut check = |f: TruthTable| {
            if f.support_size() != f.n_vars() {
                return; // the mapper only looks up support-shrunk functions
            }
            for (cache, matcher) in caches.iter().zip(&mut matchers) {
                assert_eq!(matcher.matches(f), &cache.compute_matches(f)[..], "{f:?}");
            }
        };
        // Every 4-input function when built with optimizations; a seeded
        // sample of them otherwise (canonization is slow unoptimized).
        let optimized = !cfg!(debug_assertions);
        let step = if optimized { 1 } else { 61 };
        for bits in (0..1u64 << 16).step_by(step) {
            check(TruthTable::from_bits(4, bits));
        }
        let mut seed = 0x0F11_7E20_u64;
        let samples = if optimized { 200 } else { 8 };
        for n in [5, 6] {
            for _ in 0..samples {
                check(TruthTable::from_bits(n, next(&mut seed)));
            }
        }
        // Functions that must match: every cell under random transforms.
        for family in GateFamily::ALL {
            for gate in gate_lib::generate_library(family) {
                for _ in 0..3 {
                    let n = gate.function.n_vars();
                    check(random_transform(n, &mut seed).apply(gate.function));
                }
            }
        }
        for matcher in &matchers {
            assert!(matcher.canonized() > 0 && matcher.rejected() > 0);
        }
    }

    #[test]
    fn missing_inverter_is_an_error_not_a_panic() {
        let mut lib = characterize_library(GateFamily::Cmos);
        lib.gates.retain(|g| g.gate.name != "INV");
        assert_eq!(
            NpnMatchCache::new(&lib).err(),
            Some(MapError::MissingInverter)
        );
    }

    #[test]
    fn random_functions_verified_when_matched() {
        let lib = characterize_library(GateFamily::CntfetGeneralized);
        let cache = NpnMatchCache::new(&lib).expect("INV present");
        let mut matcher = Matcher::new(&cache);
        let mut seed = 0xDEAD_BEEF_u64;
        let mut matched = 0;
        for _ in 0..200 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let f = TruthTable::from_bits(3, seed & 0xFF);
            if f.support_size() != 3 {
                continue;
            }
            for c in matcher.matches(f).to_vec() {
                check_candidate_realizes(&lib, &c, f);
                matched += 1;
            }
        }
        assert!(matched > 0, "some 3-input functions must match");
    }
}

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
//!   canonization of cut functions seen during one run (the same cut
//!   function recurs across thousands of nodes).

use crate::config::MapError;
use charlib::CharacterizedLibrary;
use gate_lib::GateFamily;
use logic::npn::{npn_canon, NpnTransform};
use logic::TruthTable;
use std::collections::HashMap;

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
            cell_count += 1;
        }
        Ok(Self {
            classes,
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
    /// (every variable in support). Prefer going through a [`Matcher`],
    /// which memoizes the canonization across a mapping run.
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

/// Per-mapping-run matcher: a shared, immutable [`NpnMatchCache`] plus a
/// private memo of the cut functions canonized so far. Create one per
/// `map_aig` call; drop it when the run ends.
#[derive(Debug)]
pub struct Matcher<'c> {
    cache: &'c NpnMatchCache,
    /// Memoized candidate lists keyed by the raw cut-function bits.
    memo: HashMap<(usize, u64), Vec<MatchCandidate>>,
}

impl<'c> Matcher<'c> {
    /// A fresh matcher over a shared class table.
    pub fn new(cache: &'c NpnMatchCache) -> Self {
        Self {
            cache,
            memo: HashMap::new(),
        }
    }

    /// The library index of the INV cell.
    pub fn inverter(&self) -> usize {
        self.cache.inverter()
    }

    /// Matches a support-shrunk cut function, memoizing the (expensive)
    /// NPN canonization per distinct function.
    pub fn matches(&mut self, f: TruthTable) -> &[MatchCandidate] {
        let cache = self.cache;
        self.memo
            .entry((f.n_vars(), f.bits()))
            .or_insert_with(|| cache.compute_matches(f))
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

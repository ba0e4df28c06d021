//! Canonical off-transistor patterns — the I_off pattern classification of
//! §3.2.
//!
//! For a given input vector, the non-driving network of a static gate is a
//! series/parallel arrangement of *off* transistors (on-transistors are
//! shorted out; off-transistors shorted by parallel on-paths disappear).
//! Distinct input vectors frequently reduce to the same arrangement — e.g.
//! a 3-input NOR with inputs `[1 1 0]` and `[1 0 1]` — so only the set of
//! distinct canonical patterns needs circuit simulation. Following the
//! paper, n- and p-type off devices of the same size are assumed to leak
//! equally, so a pattern abstracts device polarity away.

use std::collections::BTreeMap;
use std::fmt;

/// A canonical series/parallel pattern of off transistors.
///
/// Invariants (maintained by [`OffPattern::series`] and
/// [`OffPattern::parallel`]): children of
/// `Series`/`Parallel` are sorted, contain at least two entries, and never
/// repeat the parent combinator.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OffPattern {
    /// A single off transistor.
    Device,
    /// Off sub-patterns in series.
    Series(Vec<OffPattern>),
    /// Off sub-patterns in parallel.
    Parallel(Vec<OffPattern>),
}

impl OffPattern {
    /// Builds a normalized series composition.
    pub fn series(children: impl IntoIterator<Item = OffPattern>) -> Self {
        OffPattern::Series(children.into_iter().collect()).normalize()
    }

    /// Builds a normalized parallel composition.
    pub fn parallel(children: impl IntoIterator<Item = OffPattern>) -> Self {
        OffPattern::Parallel(children.into_iter().collect()).normalize()
    }

    /// Canonicalizes: flattens nested same-kind combinators, unwraps
    /// single children, sorts commutative children.
    fn normalize(self) -> Self {
        match self {
            OffPattern::Device => OffPattern::Device,
            OffPattern::Series(children) => {
                let mut flat = Vec::new();
                for c in children {
                    match c.normalize() {
                        OffPattern::Series(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                match flat.len() {
                    0 => panic!("empty series pattern"),
                    1 => flat.pop().expect("len checked"),
                    _ => {
                        flat.sort();
                        OffPattern::Series(flat)
                    }
                }
            }
            OffPattern::Parallel(children) => {
                let mut flat = Vec::new();
                for c in children {
                    match c.normalize() {
                        OffPattern::Parallel(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                match flat.len() {
                    0 => panic!("empty parallel pattern"),
                    1 => flat.pop().expect("len checked"),
                    _ => {
                        flat.sort();
                        OffPattern::Parallel(flat)
                    }
                }
            }
        }
    }

    /// Number of off transistors in the pattern.
    pub fn device_count(&self) -> usize {
        match self {
            OffPattern::Device => 1,
            OffPattern::Series(xs) | OffPattern::Parallel(xs) => {
                xs.iter().map(OffPattern::device_count).sum()
            }
        }
    }

    /// Depth of the longest series chain (leakage suppression indicator).
    pub fn series_depth(&self) -> usize {
        match self {
            OffPattern::Device => 1,
            OffPattern::Series(xs) => xs.iter().map(OffPattern::series_depth).sum(),
            OffPattern::Parallel(xs) => xs.iter().map(OffPattern::series_depth).max().unwrap_or(1),
        }
    }
}

impl fmt::Display for OffPattern {
    /// Renders like `D`, `S(D,D)`, or `P(D,S(D,D))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffPattern::Device => f.write_str("D"),
            OffPattern::Series(xs) | OffPattern::Parallel(xs) => {
                f.write_str(if matches!(self, OffPattern::Series(_)) {
                    "S("
                } else {
                    "P("
                })?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// A census of distinct patterns with occurrence counts, used for the
/// paper's "26 distinct I_off patterns" observation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatternCensus {
    counts: BTreeMap<OffPattern, usize>,
}

impl PatternCensus {
    /// An empty census.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occurrence of `pattern`.
    pub fn record(&mut self, pattern: OffPattern) {
        *self.counts.entry(pattern).or_insert(0) += 1;
    }

    /// Number of distinct patterns observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Iterates patterns with their occurrence counts, most common first.
    pub fn iter_by_frequency(&self) -> impl Iterator<Item = (&OffPattern, usize)> {
        let mut v: Vec<_> = self.counts.iter().map(|(p, &c)| (p, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_flattens_and_sorts() {
        let p1 = OffPattern::series([
            OffPattern::parallel([OffPattern::Device, OffPattern::Device]),
            OffPattern::Device,
        ]);
        let p2 = OffPattern::series([
            OffPattern::Device,
            OffPattern::parallel([OffPattern::Device, OffPattern::Device]),
        ]);
        assert_eq!(p1, p2, "series children are order-insensitive");
    }

    #[test]
    fn nested_same_kind_flattens() {
        let nested = OffPattern::Series(vec![
            OffPattern::Series(vec![OffPattern::Device, OffPattern::Device]),
            OffPattern::Device,
        ])
        .normalize();
        assert_eq!(
            nested,
            OffPattern::Series(vec![
                OffPattern::Device,
                OffPattern::Device,
                OffPattern::Device
            ])
        );
        assert_eq!(nested.series_depth(), 3);
    }

    #[test]
    fn single_child_unwraps() {
        let p = OffPattern::series([OffPattern::Device]);
        assert_eq!(p, OffPattern::Device);
    }

    #[test]
    fn counts_and_depths() {
        let p = OffPattern::parallel([
            OffPattern::series([OffPattern::Device, OffPattern::Device]),
            OffPattern::Device,
        ]);
        assert_eq!(p.device_count(), 3);
        assert_eq!(p.series_depth(), 2);
    }

    #[test]
    fn display_roundtrips_structure() {
        let p = OffPattern::parallel([
            OffPattern::Device,
            OffPattern::series([OffPattern::Device, OffPattern::Device]),
        ]);
        assert_eq!(p.to_string(), "P(D,S(D,D))");
        assert_eq!(OffPattern::Device.to_string(), "D");
    }

    #[test]
    fn census_counts() {
        let mut census = PatternCensus::new();
        census.record(OffPattern::Device);
        census.record(OffPattern::Device);
        census.record(OffPattern::series([OffPattern::Device, OffPattern::Device]));
        assert_eq!(census.distinct(), 2);
        let top = census.iter_by_frequency().next().expect("nonempty");
        assert_eq!(top.0, &OffPattern::Device);
        assert_eq!(top.1, 2);
    }
}

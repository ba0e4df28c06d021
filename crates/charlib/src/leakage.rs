//! Circuit-level quantification of off-patterns (the HSPICE step of
//! Fig. 5), with memoization over the canonical patterns.

use std::collections::HashMap;

use crate::pattern::OffPattern;
use device::{Polarity, TechParams};
use spice_lite::{Circuit, NodeId, GROUND};

/// Simulates off-pattern leakage for one technology, caching by pattern.
///
/// Following the paper's assumption that n- and p-type off devices of equal
/// size leak equally, every pattern is realized as a stack of n-type
/// devices between V_DD and ground with all gates at 0 V; the solved rail
/// current is the pattern's I_off.
///
/// # Example
///
/// ```
/// use charlib::{LeakageSimulator, OffPattern};
/// use device::TechParams;
///
/// let mut sim = LeakageSimulator::new(TechParams::cmos_32nm());
/// let single = sim.ioff(&OffPattern::Device);
/// let stack = sim.ioff(&OffPattern::series([OffPattern::Device, OffPattern::Device]));
/// assert!(single > 3.0 * stack); // the stack effect
/// ```
#[derive(Debug)]
pub struct LeakageSimulator {
    tech: TechParams,
    cache: HashMap<OffPattern, f64>,
}

impl LeakageSimulator {
    /// Creates a simulator for a technology point.
    pub fn new(tech: TechParams) -> Self {
        Self {
            tech,
            cache: HashMap::new(),
        }
    }

    /// The technology this simulator models.
    pub fn tech(&self) -> &TechParams {
        &self.tech
    }

    /// Leakage current of a pattern in amperes (cached).
    ///
    /// # Panics
    ///
    /// Panics if the underlying DC solve fails, which would indicate a bug
    /// in the solver or a degenerate pattern; all library patterns converge.
    pub fn ioff(&mut self, pattern: &OffPattern) -> f64 {
        if let Some(&i) = self.cache.get(pattern) {
            return i;
        }
        let i = self.simulate(pattern);
        self.cache.insert(pattern.clone(), i);
        i
    }

    /// Total leakage over a list of independent patterns (parallel paths
    /// from rail to rail).
    pub fn ioff_total(&mut self, patterns: &[OffPattern]) -> f64 {
        patterns.iter().map(|p| self.ioff(p)).sum()
    }

    /// Number of patterns simulated so far (cache size) — the efficiency
    /// metric of the pattern-classification method.
    pub fn simulated_patterns(&self) -> usize {
        self.cache.len()
    }

    fn simulate(&self, pattern: &OffPattern) -> f64 {
        let model = self.tech.model(Polarity::N);
        let mut ckt = Circuit::new();
        let vdd = ckt.node();
        ckt.add_vsource("VDD", vdd, GROUND, self.tech.vdd);
        let mut counter = 0usize;
        build(pattern, &mut ckt, vdd, GROUND, &model, &mut counter);
        let op = ckt
            .solve_dc()
            .unwrap_or_else(|e| panic!("leakage solve failed for {pattern}: {e}"));
        op.source_current("VDD").expect("VDD source exists")
    }
}

/// Recursively instantiates a pattern between `top` and `bottom`.
fn build(
    pattern: &OffPattern,
    ckt: &mut Circuit,
    top: NodeId,
    bottom: NodeId,
    model: &device::CompactModel,
    counter: &mut usize,
) {
    match pattern {
        OffPattern::Device => {
            let name = format!("M{}", *counter);
            *counter += 1;
            // Gate at 0 V: the device is off; source towards the bottom.
            ckt.add_transistor(name, *model, top, GROUND, bottom);
        }
        OffPattern::Series(children) => {
            let mut upper = top;
            for (i, child) in children.iter().enumerate() {
                let lower = if i + 1 == children.len() {
                    bottom
                } else {
                    ckt.node()
                };
                build(child, ckt, upper, lower, model, counter);
                upper = lower;
            }
        }
        OffPattern::Parallel(children) => {
            for child in children {
                build(child, ckt, top, bottom, model, counter);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use device::TechParams;

    fn d() -> OffPattern {
        OffPattern::Device
    }

    #[test]
    fn single_device_matches_unit_ioff() {
        let tech = TechParams::cmos_32nm();
        let unit = tech.ioff_unit;
        let mut sim = LeakageSimulator::new(tech);
        let i = sim.ioff(&d());
        assert!((i / unit - 1.0).abs() < 0.05, "got {i:e} vs unit {unit:e}");
    }

    #[test]
    fn parallel_adds_series_suppresses() {
        let mut sim = LeakageSimulator::new(TechParams::cmos_32nm());
        let single = sim.ioff(&d());
        let par3 = sim.ioff(&OffPattern::parallel([d(), d(), d()]));
        let ser3 = sim.ioff(&OffPattern::series([d(), d(), d()]));
        assert!((par3 / (3.0 * single) - 1.0).abs() < 0.05);
        // Fig. 4: the parallel arrangement leaks more than 3× the series
        // one (stack factor on top of the 3× multiplicity).
        assert!(par3 / ser3 > 3.0, "ratio {}", par3 / ser3);
        assert!(ser3 < single, "a stack leaks less than a single device");
    }

    #[test]
    fn tg_pattern_leaks_twice_a_device() {
        // §3: transmission-gate leakage is twice a single transistor's.
        let mut sim = LeakageSimulator::new(TechParams::cntfet_32nm());
        let single = sim.ioff(&d());
        let tg = sim.ioff(&OffPattern::parallel([d(), d()]));
        assert!((tg / (2.0 * single) - 1.0).abs() < 0.05);
    }

    #[test]
    fn cache_hits_do_not_resimulate() {
        let mut sim = LeakageSimulator::new(TechParams::cmos_32nm());
        let p = OffPattern::series([d(), OffPattern::parallel([d(), d()])]);
        let a = sim.ioff(&p);
        assert_eq!(sim.simulated_patterns(), 1);
        let b = sim.ioff(&p);
        assert_eq!(sim.simulated_patterns(), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_pattern_between_extremes() {
        let mut sim = LeakageSimulator::new(TechParams::cmos_32nm());
        let mixed = sim.ioff(&OffPattern::series([d(), OffPattern::parallel([d(), d()])]));
        let ser2 = sim.ioff(&OffPattern::series([d(), d()]));
        let par2 = sim.ioff(&OffPattern::parallel([d(), d()]));
        assert!(mixed > ser2, "extra parallel path raises leakage");
        assert!(mixed < par2, "series device still suppresses");
    }

    #[test]
    fn cntfet_patterns_leak_an_order_less() {
        let mut cnt = LeakageSimulator::new(TechParams::cntfet_32nm());
        let mut cmos = LeakageSimulator::new(TechParams::cmos_32nm());
        let p = OffPattern::parallel([d(), OffPattern::series([d(), d()])]);
        let ratio = cmos.ioff(&p) / cnt.ioff(&p);
        assert!(ratio > 5.0, "CNTFET isolation advantage, got {ratio}");
    }
}

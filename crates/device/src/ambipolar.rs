//! The in-field programmable ambipolar CNTFET (Fig. 1 of the paper).
//!
//! An ambipolar CNTFET has two gates: the *polarity gate* (the back gate at
//! the CNT-to-metal Schottky contacts) selects which carrier type dominates,
//! and the *conventional gate* switches the selected channel on and off:
//!
//! * polarity gate at V_SS → n-type behaviour (Fig. 1b);
//! * polarity gate at V_DD → p-type behaviour (Fig. 1c).
//!
//! Following the paper (and O'Connor et al., TCAS-I 2007), the device is
//! emulated as a *parallel pair* of unipolar MOSFET-like CNTFETs; the
//! polarity-gate voltage smoothly selects which of the pair carries the
//! current. With the polarity gate at a rail, exactly one device of the
//! pair is active and the composite reduces to a unipolar CNTFET.

use crate::model::{CompactModel, Polarity};
use crate::tech::TechParams;

/// Static polarity-gate configuration of an ambipolar device inside a gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolarityConfig {
    /// Polarity gate tied to V_SS: device behaves as n-type.
    NType,
    /// Polarity gate tied to V_DD: device behaves as p-type.
    PType,
}

impl PolarityConfig {
    /// The unipolar polarity this configuration selects.
    pub fn polarity(self) -> Polarity {
        match self {
            PolarityConfig::NType => Polarity::N,
            PolarityConfig::PType => Polarity::P,
        }
    }

    /// The polarity-gate voltage (volts) realizing this configuration.
    #[cfg(test)]
    fn polarity_gate_voltage(self, vdd: f64) -> f64 {
        match self {
            PolarityConfig::NType => 0.0,
            PolarityConfig::PType => vdd,
        }
    }
}

/// A double-gate ambipolar CNTFET emulated as a parallel n/p pair.
///
/// # Example
///
/// ```
/// use device::{AmbipolarCntfet, TechParams};
///
/// let tech = TechParams::cntfet_32nm();
/// let dev = AmbipolarCntfet::new(&tech);
/// // Polarity gate low → n-type: conducts with gate high.
/// let on = dev.ids(0.0, tech.vdd, tech.vdd, 0.0);
/// let off = dev.ids(0.0, 0.0, tech.vdd, 0.0);
/// assert!(on > 1e3 * off.abs());
/// // Polarity gate high → p-type: conducts with gate low.
/// let on_p = -dev.ids(tech.vdd, 0.0, 0.0, tech.vdd);
/// assert!(on_p > 1e3 * off.abs());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AmbipolarCntfet {
    n_model: CompactModel,
    p_model: CompactModel,
    vdd: f64,
}

impl AmbipolarCntfet {
    /// Builds the emulated ambipolar device for a technology point.
    pub fn new(tech: &TechParams) -> Self {
        Self {
            n_model: tech.model(Polarity::N),
            p_model: tech.model(Polarity::P),
            vdd: tech.vdd,
        }
    }

    /// Drain current (into the drain) given the polarity-gate voltage
    /// `v_pg`, conventional-gate voltage `v_g`, and drain/source voltages.
    ///
    /// The polarity gate smoothly blends the n- and p-branches: at the
    /// rails exactly one branch is selected, mid-rail both Schottky
    /// barriers are partially open (the physical ambipolar regime).
    pub fn ids(&self, v_pg: f64, v_g: f64, v_d: f64, v_s: f64) -> f64 {
        // Selection weight: 0 → pure n, 1 → pure p. A logistic in the
        // polarity-gate bias mimics the Schottky-barrier thinning.
        let x = (v_pg - self.vdd / 2.0) / (self.vdd / 16.0);
        let w_p = 1.0 / (1.0 + (-x).exp());
        let i_n = self.n_model.ids(v_g, v_d, v_s);
        let i_p = self.p_model.ids(v_g, v_d, v_s);
        (1.0 - w_p) * i_n + w_p * i_p
    }

    /// The unipolar model selected by a static polarity configuration.
    ///
    /// Gate-level netlists use this: every ambipolar device inside a static
    /// logic gate has its polarity gate tied to a rail or an input signal
    /// that is at a rail for any given input vector.
    pub fn configured(&self, config: PolarityConfig) -> CompactModel {
        match config {
            PolarityConfig::NType => self.n_model,
            PolarityConfig::PType => self.p_model,
        }
    }

    /// The n-branch model (polarity gate at V_SS).
    pub fn n_model(&self) -> &CompactModel {
        &self.n_model
    }

    /// The p-branch model (polarity gate at V_DD).
    pub fn p_model(&self) -> &CompactModel {
        &self.p_model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> (AmbipolarCntfet, TechParams) {
        let tech = TechParams::cntfet_32nm();
        (AmbipolarCntfet::new(&tech), tech)
    }

    #[test]
    fn polarity_gate_low_gives_n_type() {
        let (dev, tech) = device();
        let composite = dev.ids(0.0, tech.vdd, tech.vdd, 0.0);
        let unipolar = dev
            .configured(PolarityConfig::NType)
            .ids(tech.vdd, tech.vdd, 0.0);
        assert!((composite / unipolar - 1.0).abs() < 0.01);
    }

    #[test]
    fn polarity_gate_high_gives_p_type() {
        let (dev, tech) = device();
        // P-type on-state: gate low, source at VDD, drain low.
        let composite = dev.ids(tech.vdd, 0.0, 0.0, tech.vdd);
        let unipolar = dev
            .configured(PolarityConfig::PType)
            .ids(0.0, 0.0, tech.vdd);
        assert!((composite / unipolar - 1.0).abs() < 0.01);
    }

    #[test]
    fn both_configurations_switch() {
        let (dev, tech) = device();
        for config in [PolarityConfig::NType, PolarityConfig::PType] {
            let m = dev.configured(config);
            let ratio = m.ion(tech.vdd) / m.ioff(tech.vdd);
            assert!(ratio > 1e3, "{config:?} on/off ratio {ratio}");
        }
    }

    #[test]
    fn midrail_polarity_gate_is_ambipolar() {
        let (dev, tech) = device();
        // With the polarity gate mid-rail, both carrier types contribute:
        // the device conducts for gate high *and* gate low (the classic
        // ambipolar V-shaped transfer curve).
        let mid = tech.vdd / 2.0;
        let i_gate_high = dev.ids(mid, tech.vdd, tech.vdd, 0.0).abs();
        let i_gate_low = dev.ids(mid, 0.0, tech.vdd, 0.0).abs();
        let i_off_n = dev.configured(PolarityConfig::NType).ioff(tech.vdd);
        assert!(i_gate_high > 10.0 * i_off_n);
        assert!(i_gate_low > 10.0 * i_off_n);
    }

    #[test]
    fn config_voltage_levels_match_fig1() {
        let (_, tech) = device();
        assert_eq!(PolarityConfig::NType.polarity_gate_voltage(tech.vdd), 0.0);
        assert_eq!(
            PolarityConfig::PType.polarity_gate_voltage(tech.vdd),
            tech.vdd
        );
        assert_eq!(PolarityConfig::NType.polarity(), Polarity::N);
        assert_eq!(PolarityConfig::PType.polarity(), Polarity::P);
    }
}

//! Technology parameter sets for the two technologies the paper compares.
//!
//! Every constant below is a *unit-level* calibration target taken from the
//! paper's §4 assumptions or the public sources it cites; nothing downstream
//! (gate characterization, mapping, Table 1) is tuned.
//!
//! | quantity | CNTFET 32 nm | CMOS 32 nm bulk | provenance |
//! |---|---|---|---|
//! | V_DD | 0.9 V | 0.9 V | paper §4 |
//! | f | 1 GHz | 1 GHz | paper §4 |
//! | inverter C_in | 36 aF | 52 aF | paper §4 ("36aF … 52aF, 31% difference") |
//! | C_gate = C_drain = C_source | 18 aF | 26 aF | paper §4 assumes identical unit caps |
//! | unit I_off | 0.2 nA | 2 nA | paper §4: CNTFET static ≈ 10× below CMOS; CMOS scale from ITRS'07 32 nm bulk |
//! | I_g / I_off | < 1 % | ≈ 10 % | paper §4 ("about 10% of P_S for CMOS … less than 1% for CNTFET") |
//! | sub-threshold swing | 70 mV/dec | 100 mV/dec | Stanford CNFET model vs ITRS 32 nm bulk |
//! | DIBL | 50 mV/V | 150 mV/V | ballistic CNT electrostatics vs 32 nm bulk |
//! | unit R_on | 9 kΩ | 31 kΩ | Deng'07: intrinsic CNTFET delay ≈ 5× below MOSFET at matched load |

use crate::model::{CompactModel, Polarity};

/// Which semiconductor technology a parameter set describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TechKind {
    /// MOSFET-like carbon-nanotube FETs (32 nm gate width, 3 CNTs/channel).
    Cntfet,
    /// 32 nm bulk CMOS with metal gate and strained channel (ITRS MASTAR).
    Cmos,
}

impl std::fmt::Display for TechKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TechKind::Cntfet => f.write_str("CNTFET"),
            TechKind::Cmos => f.write_str("CMOS"),
        }
    }
}

/// A complete technology operating point.
///
/// All fields are public so studies can perturb them; the provided
/// constructors are the calibrated 32 nm points used throughout the
/// reproduction.
#[derive(Clone, Debug, PartialEq)]
pub struct TechParams {
    /// Technology family.
    pub kind: TechKind,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Threshold voltage magnitude (same for n and p), volts.
    pub vth: f64,
    /// Sub-threshold slope factor `n`.
    pub n_factor: f64,
    /// DIBL coefficient, V/V.
    pub dibl: f64,
    /// Calibrated unit off-current at V_GS = 0, V_DS = V_DD, amperes.
    pub ioff_unit: f64,
    /// Unit gate-tunnelling current at full gate bias, amperes.
    pub ig_unit: f64,
    /// Gate-tunnelling exponential slope, volts per e-fold.
    pub ig_slope: f64,
    /// Unit (front) gate capacitance per device, farads.
    pub c_gate: f64,
    /// Polarity-gate (back gate) capacitance per ambipolar device, farads.
    /// The back gate couples through the thick buried insulator, so it is
    /// several times smaller than the front-gate capacitance; irrelevant
    /// for CMOS (no polarity gate).
    pub c_polarity_gate: f64,
    /// Unit drain capacitance per device, farads.
    pub c_drain: f64,
    /// Unit source capacitance per device, farads.
    pub c_source: f64,
    /// Unit on-resistance per device, ohms.
    pub r_on: f64,
    /// Layout area per device, square metres (used for relative area only).
    pub area_per_device: f64,
}

impl TechParams {
    /// The calibrated 32 nm MOSFET-like CNTFET technology point
    /// (32 nm gate width, 3 CNTs per channel, high-κ gate stack, thick
    /// back-gate insulator isolating drain/source from the substrate).
    pub fn cntfet_32nm() -> Self {
        Self {
            kind: TechKind::Cntfet,
            vdd: 0.9,
            vth: 0.25,
            n_factor: 1.176, // 70 mV/dec
            dibl: 0.05,
            ioff_unit: 0.2e-9,
            // High-κ dielectric: gate leakage < 1 % of sub-threshold.
            ig_unit: 1.0e-12,
            ig_slope: 0.12,
            // Inverter C_in = 2 × 18 aF = 36 aF (paper §4).
            c_gate: 18e-18,
            // Thick back insulator: ≈ a quarter of the front-gate cap.
            c_polarity_gate: 4.5e-18,
            c_drain: 18e-18,
            c_source: 18e-18,
            r_on: 9.0e3,
            area_per_device: 0.06e-12, // 0.06 µm²: 3 CNT pitches × contacted gate pitch
        }
    }

    /// The calibrated ITRS 32 nm bulk CMOS technology point (metal gate,
    /// strained channel — the MASTAR built-in model the paper uses).
    pub fn cmos_32nm() -> Self {
        Self {
            kind: TechKind::Cmos,
            vdd: 0.9,
            vth: 0.29,
            n_factor: 1.68, // 100 mV/dec
            dibl: 0.15,
            ioff_unit: 2.0e-9,
            // SiON/high-κ transition node: I_g ≈ 10 % of I_off.
            ig_unit: 0.11e-9,
            ig_slope: 0.12,
            // Inverter C_in = 2 × 26 aF = 52 aF (paper §4).
            c_gate: 26e-18,
            c_polarity_gate: 26e-18, // unused: CMOS has no polarity gate
            c_drain: 26e-18,
            c_source: 26e-18,
            r_on: 31.0e3,
            area_per_device: 0.12e-12, // 0.12 µm² per contacted device
        }
    }

    /// Builds the unipolar compact model for the given polarity, with the
    /// EKV specific current back-solved so that the model's off-current at
    /// (V_GS = 0, V_DS = V_DD) equals [`ioff_unit`](Self::ioff_unit).
    pub fn model(&self, polarity: Polarity) -> CompactModel {
        CompactModel {
            polarity,
            vth: self.vth,
            n_factor: self.n_factor,
            i_spec: 1.0, // replaced by the calibration below
            dibl: self.dibl,
            vdd_ref: self.vdd,
        }
        .calibrate_ioff(self.ioff_unit, self.vdd)
    }

    /// Derives a voltage-scaled technology point for supply-scaling
    /// studies, with first-order physical scaling of the VDD-dependent
    /// unit quantities:
    ///
    /// * I_off scales with the DIBL barrier shift,
    ///   `exp(η·ΔV/(n·V_T))`;
    /// * I_g scales with the gate-tunnelling slope, `exp(ΔV/V_slope)`;
    /// * R_on follows the alpha-power law `V_DD/(V_DD − V_TH)^1.3`,
    ///   normalized at the nominal point.
    ///
    /// Capacitances and threshold are voltage-independent at first order.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` does not exceed the threshold voltage.
    pub fn with_vdd(&self, vdd: f64) -> TechParams {
        assert!(vdd > self.vth, "supply must exceed the threshold voltage");
        let vt = crate::model::THERMAL_VOLTAGE;
        let dv = vdd - self.vdd;
        let ioff_scale = (self.dibl * dv / (self.n_factor * vt)).exp();
        let ig_scale = (dv / self.ig_slope).exp();
        let drive = |v: f64| (v - self.vth).powf(1.3) / v;
        let r_scale = drive(self.vdd) / drive(vdd);
        TechParams {
            vdd,
            ioff_unit: self.ioff_unit * ioff_scale,
            ig_unit: self.ig_unit * ig_scale,
            r_on: self.r_on * r_scale,
            ..self.clone()
        }
    }

    /// Input capacitance of a minimum inverter (one n + one p gate).
    #[cfg(test)]
    fn inverter_input_cap(&self) -> crate::units::Capacitance {
        crate::units::Capacitance::new(2.0 * self.c_gate)
    }

    /// First-order intrinsic gate delay: R_on × (self-loading + one
    /// inverter load). Used only for sanity checks; real delays come from
    /// gate characterization.
    #[cfg(test)]
    fn intrinsic_delay_estimate(&self) -> f64 {
        self.r_on * (self.c_drain * 2.0 + 2.0 * self.c_gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ioff_calibration_holds() {
        for tech in [TechParams::cntfet_32nm(), TechParams::cmos_32nm()] {
            for pol in [Polarity::N, Polarity::P] {
                let m = tech.model(pol);
                let measured = m.ioff(tech.vdd);
                let err = (measured / tech.ioff_unit - 1.0).abs();
                assert!(
                    err < 0.05,
                    "{:?} {pol:?}: measured {measured:e}, target {:e}",
                    tech.kind,
                    tech.ioff_unit
                );
            }
        }
    }

    #[test]
    fn inverter_caps_match_paper() {
        // Paper §4: 36 aF CNTFET vs 52 aF CMOS — a 31 % difference.
        let cnt = TechParams::cntfet_32nm().inverter_input_cap();
        let cmos = TechParams::cmos_32nm().inverter_input_cap();
        assert!((cnt.value() - 36e-18).abs() < 1e-21);
        assert!((cmos.value() - 52e-18).abs() < 1e-21);
        let diff = 1.0 - cnt.value() / cmos.value();
        assert!((diff - 0.31).abs() < 0.01, "cap difference {diff}");
    }

    #[test]
    fn cntfet_leaks_an_order_less() {
        let cnt = TechParams::cntfet_32nm();
        let cmos = TechParams::cmos_32nm();
        let ratio = cmos.ioff_unit / cnt.ioff_unit;
        assert!((9.0..=11.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn gate_leak_fractions_match_paper() {
        let cnt = TechParams::cntfet_32nm();
        assert!(
            cnt.ig_unit / cnt.ioff_unit < 0.01,
            "CNTFET I_g must stay below 1%"
        );
        let cmos = TechParams::cmos_32nm();
        let frac = cmos.ig_unit / cmos.ioff_unit;
        assert!(
            (0.05..=0.15).contains(&frac),
            "CMOS I_g ≈ 10% of I_off, got {frac}"
        );
    }

    #[test]
    fn cntfet_intrinsic_delay_is_about_5x_lower() {
        let cnt = TechParams::cntfet_32nm();
        let cmos = TechParams::cmos_32nm();
        let ratio = cmos.intrinsic_delay_estimate() / cnt.intrinsic_delay_estimate();
        assert!(
            (4.0..=6.5).contains(&ratio),
            "Deng'07 reports ≈5× intrinsic speed advantage, got {ratio}"
        );
    }

    #[test]
    fn vdd_scaling_moves_the_right_knobs() {
        let nominal = TechParams::cmos_32nm();
        let low = nominal.with_vdd(0.6);
        assert_eq!(low.vdd, 0.6);
        assert!(
            low.ioff_unit < nominal.ioff_unit,
            "DIBL relief lowers I_off"
        );
        assert!(
            low.ig_unit < nominal.ig_unit,
            "thinner barrier bias lowers I_g"
        );
        assert!(low.r_on > nominal.r_on, "less overdrive raises R_on");
        // Capacitances untouched.
        assert_eq!(low.c_gate, nominal.c_gate);
        // Model stays self-consistent: calibrated I_off at the new VDD.
        let m = low.model(Polarity::N);
        assert!((m.ioff(low.vdd) / low.ioff_unit - 1.0).abs() < 0.05);
        // Identity scaling.
        let same = nominal.with_vdd(nominal.vdd);
        assert!((same.r_on / nominal.r_on - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceed the threshold")]
    fn vdd_scaling_rejects_subthreshold_supply() {
        let _ = TechParams::cmos_32nm().with_vdd(0.2);
    }

    #[test]
    fn on_off_ratios_are_healthy() {
        for tech in [TechParams::cntfet_32nm(), TechParams::cmos_32nm()] {
            let m = tech.model(Polarity::N);
            let ratio = m.ion(tech.vdd) / m.ioff(tech.vdd);
            assert!(ratio > 1e3, "{:?}: I_on/I_off = {ratio}", tech.kind);
        }
    }
}

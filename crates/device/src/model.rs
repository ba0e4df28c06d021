//! EKV-style smooth compact transistor model.
//!
//! The paper characterizes leakage with circuit-level simulations of small
//! off-transistor networks. The property those simulations must capture is
//! the *input-vector dependence* of sub-threshold leakage: a stack of series
//! off-transistors leaks far less than a single (or parallel) off-transistor
//! because the intermediate node rises, producing negative V_GS on the upper
//! device and removing its DIBL boost (Fig. 4 of the paper). Any model that
//! is exponential in V_GS with a DIBL term reproduces this; we use the EKV
//! interpolation because it is smooth everywhere, which keeps the Newton
//! solver in `spice-lite` robust.
//!
//! Drain current (n-type):
//!
//! ```text
//! I_DS = I_spec · [ F((V_P − V_S)/V_T) − F((V_P − V_D)/V_T) ]
//! V_P  = (V_G − V_TH + η·V_DS) / n            (pinch-off voltage, DIBL η)
//! F(x) = ln²(1 + e^{x/2})                     (weak↔strong inversion blend)
//! ```
//!
//! Gate leakage is not part of the transistor model: characterization
//! charges [`TechParams::ig_unit`](crate::tech::TechParams::ig_unit) per
//! conducting device.

/// Thermal voltage kT/q at 300 K, in volts.
pub const THERMAL_VOLTAGE: f64 = 0.025852;

/// Transistor channel polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Polarity {
    /// n-channel: conducts with high gate voltage.
    N,
    /// p-channel: conducts with low gate voltage.
    P,
}

impl Polarity {
    /// The opposite polarity.
    pub fn opposite(self) -> Self {
        match self {
            Polarity::N => Polarity::P,
            Polarity::P => Polarity::N,
        }
    }
}

impl std::fmt::Display for Polarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Polarity::N => f.write_str("n"),
            Polarity::P => f.write_str("p"),
        }
    }
}

/// A unipolar transistor compact model (one unit-width device).
///
/// Construct via [`TechParams::model`](crate::tech::TechParams::model) or
/// directly for custom studies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactModel {
    /// Channel polarity.
    pub polarity: Polarity,
    /// Threshold voltage magnitude, volts.
    pub vth: f64,
    /// Sub-threshold slope factor `n` (swing = n·V_T·ln 10).
    pub n_factor: f64,
    /// EKV specific current, amperes (sets the absolute current scale).
    pub i_spec: f64,
    /// DIBL coefficient η (threshold shift per volt of V_DS).
    pub dibl: f64,
    /// The supply a p-device is mirrored about (its bulk sits at V_DD in
    /// a static gate), volts.
    pub vdd_ref: f64,
}

/// Numerically safe `ln(1 + e^x)`.
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// EKV interpolation function `F(x) = ln²(1 + e^{x/2})`.
fn ekv_f(x: f64) -> f64 {
    let s = softplus(x / 2.0);
    s * s
}

impl CompactModel {
    /// Drain current (amperes) flowing *into the drain terminal*, for the
    /// given absolute terminal voltages (volts).
    ///
    /// The model is drain/source symmetric up to the DIBL term; for an
    /// n-device with `vd < vs` the current is negative (flows out of the
    /// drain). P-devices are handled by voltage mirroring.
    ///
    /// # Example
    ///
    /// ```
    /// use device::TechParams;
    /// use device::Polarity;
    ///
    /// let m = TechParams::cmos_32nm().model(Polarity::N);
    /// // On-state current far exceeds off-state leakage.
    /// assert!(m.ids(0.9, 0.9, 0.0) > 1e3 * m.ids(0.0, 0.9, 0.0));
    /// ```
    pub fn ids(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        match self.polarity {
            Polarity::N => self.ids_n(vg, vd, vs),
            // A p-device is the n-device mirrored about its own bulk, which
            // sits at V_DD in a static gate; the returned current keeps the
            // "into the drain" convention.
            Polarity::P => {
                let r = self.vdd_ref;
                -self.ids_n(r - vg, r - vd, r - vs)
            }
        }
    }

    /// Rescales [`i_spec`](Self::i_spec) so that the off-current at
    /// (V_GS = 0, V_DS = `vdd`) equals `ioff_target` exactly (the model is
    /// linear in `i_spec`).
    pub fn calibrate_ioff(mut self, ioff_target: f64, vdd: f64) -> Self {
        self.i_spec = 1.0;
        let measured = self.ioff(vdd);
        self.i_spec = ioff_target / measured;
        self
    }

    fn ids_n(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        // Orient so the effective source is the lower terminal (the DIBL
        // term must reference the true V_DS).
        let (lo, hi, sign) = if vd >= vs {
            (vs, vd, 1.0)
        } else {
            (vd, vs, -1.0)
        };
        let vds = hi - lo;
        let vp = (vg - self.vth + self.dibl * vds) / self.n_factor;
        let vt = THERMAL_VOLTAGE;
        let forward = ekv_f((vp - lo) / vt);
        let reverse = ekv_f((vp - hi) / vt);
        sign * self.i_spec * (forward - reverse)
    }

    /// The off-state leakage at V_GS = 0 and V_DS = `vds` (amperes).
    pub fn ioff(&self, vds: f64) -> f64 {
        match self.polarity {
            Polarity::N => self.ids(0.0, vds, 0.0),
            Polarity::P => -self.ids(vds, 0.0, vds),
        }
    }

    /// The saturated on-current at |V_GS| = |V_DS| = `vdd` (amperes).
    pub fn ion(&self, vdd: f64) -> f64 {
        match self.polarity {
            Polarity::N => self.ids(vdd, vdd, 0.0),
            Polarity::P => -self.ids(0.0, 0.0, vdd),
        }
    }

    /// Sub-threshold swing in millivolts per decade.
    #[cfg(test)]
    fn subthreshold_swing_mv(&self) -> f64 {
        self.n_factor * THERMAL_VOLTAGE * std::f64::consts::LN_10 * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n_model() -> CompactModel {
        CompactModel {
            polarity: Polarity::N,
            vth: 0.29,
            n_factor: 1.68,
            i_spec: 2e-6,
            dibl: 0.15,
            vdd_ref: 0.9,
        }
    }

    fn p_model() -> CompactModel {
        CompactModel {
            polarity: Polarity::P,
            ..n_model()
        }
    }

    #[test]
    fn zero_vds_zero_current() {
        let m = n_model();
        for vg in [0.0, 0.45, 0.9] {
            assert!(m.ids(vg, 0.4, 0.4).abs() < 1e-18, "vg={vg}");
        }
    }

    #[test]
    fn current_monotone_in_vg() {
        let m = n_model();
        let mut last = -1.0;
        for i in 0..=20 {
            let vg = i as f64 * 0.045;
            let ids = m.ids(vg, 0.9, 0.0);
            assert!(ids > last, "I_DS must increase with V_GS");
            last = ids;
        }
    }

    #[test]
    fn current_monotone_in_vd() {
        let m = n_model();
        let mut last = -1.0;
        for i in 0..=18 {
            let vd = i as f64 * 0.05;
            let ids = m.ids(0.9, vd, 0.0);
            assert!(ids > last, "I_DS must increase with V_DS");
            last = ids;
        }
    }

    #[test]
    fn reverse_operation_flips_sign() {
        let m = n_model();
        let fwd = m.ids(0.9, 0.9, 0.0);
        let rev = m.ids(0.9, 0.0, 0.9);
        assert!(fwd > 0.0);
        assert!(rev < 0.0);
        // Without DIBL asymmetry they would be exactly opposite; with DIBL
        // they stay close.
        assert!((fwd + rev).abs() / fwd < 0.2);
    }

    #[test]
    fn subthreshold_slope_matches_n_factor() {
        let m = n_model();
        // Measure the decade slope well below the DIBL-shifted threshold
        // (V_TH,eff = 0.29 − 0.15·0.9 ≈ 0.155 V).
        let i1 = m.ids(0.00, 0.9, 0.0);
        let i2 = m.ids(0.05, 0.9, 0.0);
        let decades = (i2 / i1).log10();
        let swing_mv = 50.0 / decades;
        // The EKV blend widens the slope slightly in moderate inversion;
        // allow the measured swing to sit a little above the weak-inversion
        // asymptote.
        assert!(
            (swing_mv - m.subthreshold_swing_mv()).abs() < 12.0,
            "measured {swing_mv} vs analytic {}",
            m.subthreshold_swing_mv()
        );
    }

    #[test]
    fn dibl_raises_leakage_with_vds() {
        let m = n_model();
        let low = m.ids(0.0, 0.45, 0.0);
        let high = m.ids(0.0, 0.9, 0.0);
        // exp(η·ΔV/(n·V_T)) ≈ exp(0.15·0.45/0.0434) ≈ 4.7.
        assert!(high / low > 3.0, "DIBL factor too weak: {}", high / low);
    }

    #[test]
    fn p_device_mirrors_n_device() {
        let n = n_model();
        let p = p_model();
        // P on-state: gate low, source high.
        let ion_p = p.ion(0.9);
        let ion_n = n.ion(0.9);
        assert!((ion_p / ion_n - 1.0).abs() < 1e-9);
        // P off-state: gate high (at source), drain low.
        assert!((p.ioff(0.9) / n.ioff(0.9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn on_off_ratio_is_large() {
        let m = n_model();
        assert!(m.ion(0.9) / m.ioff(0.9) > 1e3);
    }

    #[test]
    fn softplus_extremes() {
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!(softplus(-100.0) > 0.0);
        assert!(softplus(-100.0) < 1e-40);
        assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }
}

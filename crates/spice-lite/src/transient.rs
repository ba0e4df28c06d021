//! Transient analysis: fixed-step backward Euler over the nonlinear MNA
//! system, with time-varying voltage sources.
//!
//! Used by the short-circuit-power ablation: the paper adopts the CMOS
//! conjecture P_SC ≈ 0.15·P_D for CNTFETs; a transient run of a switching
//! inverter lets us *measure* the crossbar charge instead.

use crate::lu::Matrix;
use crate::netlist::{Circuit, Element};
use crate::solver::{OperatingPoint, SolveError};
use std::collections::HashMap;

/// A time-varying override for a named voltage source.
pub type Waveform<'a> = (&'a str, &'a dyn Fn(f64) -> f64);

/// Result of a transient run.
#[derive(Clone, Debug)]
pub struct TransientResult {
    /// Time points, seconds.
    pub times: Vec<f64>,
    /// Operating point at each time point.
    pub points: Vec<OperatingPoint>,
}

impl TransientResult {
    /// Integrates the current delivered by a named source over the steps
    /// that overlap `[t0, t1]` (trapezoidal), returning charge in coulombs.
    pub fn integrate_source_charge_between(&self, source: &str, t0: f64, t1: f64) -> f64 {
        let mut q = 0.0;
        for k in 1..self.times.len() {
            if self.times[k] <= t0 || self.times[k - 1] >= t1 {
                continue;
            }
            let dt = self.times[k] - self.times[k - 1];
            let i0 = self.points[k - 1].source_current(source).unwrap_or(0.0);
            let i1 = self.points[k].source_current(source).unwrap_or(0.0);
            q += 0.5 * (i0 + i1) * dt;
        }
        q
    }
}

/// Runs a fixed-step backward-Euler transient.
///
/// The initial condition is the DC operating point with every waveform
/// evaluated at `t = 0`. Each step warm-starts Newton from the previous
/// solution.
///
/// # Errors
///
/// Returns the first [`SolveError`] encountered.
///
/// # Panics
///
/// Panics if a waveform names an unknown source, or `dt`/`t_stop` are not
/// positive.
///
/// # Example
///
/// ```
/// use spice_lite::{Circuit, GROUND, transient};
///
/// // RC charging: v(t) = 1 − e^{−t/RC}.
/// let mut ckt = Circuit::new();
/// let vin = ckt.node();
/// let out = ckt.node();
/// ckt.add_vsource("VIN", vin, GROUND, 0.0);
/// ckt.add_resistor("R", vin, out, 1_000.0);
/// ckt.add_capacitor("C", out, GROUND, 1e-12);
/// let step = |t: f64| if t > 0.0 { 1.0 } else { 0.0 };
/// let result = transient(&ckt, 5e-9, 1e-11, &[("VIN", &step)])?;
/// let v_end = result.points.last().expect("points").voltage(out);
/// assert!((v_end - 1.0).abs() < 0.02); // fully charged after 5·RC
/// # Ok::<(), spice_lite::SolveError>(())
/// ```
pub fn transient(
    circuit: &Circuit,
    t_stop: f64,
    dt: f64,
    waveforms: &[Waveform<'_>],
) -> Result<TransientResult, SolveError> {
    assert!(dt > 0.0 && t_stop > 0.0, "time parameters must be positive");
    let mut ckt = circuit.clone();
    let wf: HashMap<&str, &dyn Fn(f64) -> f64> = waveforms.iter().copied().collect();
    for (name, _) in waveforms {
        assert!(
            circuit.vsource_index(name).is_some(),
            "unknown waveform source `{name}`"
        );
    }

    let n_nodes = ckt.node_count();
    let n_vsrc = ckt
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::VSource { .. }))
        .count();
    let dim = (n_nodes - 1) + n_vsrc;

    // t = 0 initial condition: DC with waveforms at 0.
    apply_waveforms(&mut ckt, &wf, 0.0);
    let op0 = ckt.solve_dc()?;
    let mut x: Vec<f64> = op0.voltages()[1..]
        .iter()
        .copied()
        .chain((0..n_vsrc).map(|_| 0.0))
        .collect();

    let mut times = vec![0.0];
    let mut points = vec![op0];
    let mut matrix = Matrix::zeros(dim);
    let mut rhs = vec![0.0; dim];
    let steps = (t_stop / dt).ceil() as usize;
    let mut prev_v: Vec<f64> = points[0].voltages().to_vec();
    for k in 1..=steps {
        let t = k as f64 * dt;
        apply_waveforms(&mut ckt, &wf, t);
        // Warm-started Newton at a single small g_min.
        ckt.newton(&mut x, &mut matrix, &mut rhs, &[1e-15], Some((&prev_v, dt)))?;
        let op = ckt.operating_point(&x, n_nodes, n_vsrc);
        prev_v = op.voltages().to_vec();
        times.push(t);
        points.push(op);
    }
    Ok(TransientResult { times, points })
}

fn apply_waveforms(ckt: &mut Circuit, wf: &HashMap<&str, &dyn Fn(f64) -> f64>, t: f64) {
    for element in ckt.elements_mut() {
        if let Element::VSource { name, volts, .. } = element {
            if let Some(f) = wf.get(name.as_str()) {
                *volts = f(t);
            }
        }
    }
}

/// A linear ramp waveform from `v0` to `v1` over `[t0, t0 + rise]`.
pub fn ramp(v0: f64, v1: f64, t0: f64, rise: f64) -> impl Fn(f64) -> f64 {
    move |t: f64| {
        if t <= t0 {
            v0
        } else if t >= t0 + rise {
            v1
        } else {
            v0 + (v1 - v0) * (t - t0) / rise
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;
    use device::{Polarity, TechParams};

    #[test]
    fn rc_charging_matches_analytic() {
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let out = ckt.node();
        ckt.add_vsource("VIN", vin, GROUND, 0.0);
        ckt.add_resistor("R", vin, out, 1e3);
        ckt.add_capacitor("C", out, GROUND, 1e-12);
        let step = |t: f64| if t > 0.0 { 1.0 } else { 0.0 };
        let result = transient(&ckt, 3e-9, 5e-12, &[("VIN", &step)]).expect("converges");
        // Compare at t = RC: v = 1 − 1/e ≈ 0.632 (BE slightly overdamps).
        let idx = result
            .times
            .iter()
            .position(|&t| t >= 1e-9)
            .expect("RC point inside run");
        let v = result.points[idx].voltage(out);
        assert!((v - 0.632).abs() < 0.03, "v(RC) = {v}");
    }

    #[test]
    fn capacitor_charge_balance() {
        // Total charge delivered through R equals C·ΔV.
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let out = ckt.node();
        ckt.add_vsource("VIN", vin, GROUND, 0.0);
        ckt.add_resistor("R", vin, out, 10e3);
        ckt.add_capacitor("C", out, GROUND, 2e-15);
        let wave = ramp(0.0, 0.9, 1e-12, 10e-12);
        let result = transient(&ckt, 2e-9, 1e-12, &[("VIN", &wave)]).expect("converges");
        let q = result.integrate_source_charge_between("VIN", 0.0, f64::INFINITY);
        let expected = 2e-15 * 0.9;
        assert!(
            (q / expected - 1.0).abs() < 0.05,
            "q = {q:e}, expected {expected:e}"
        );
    }

    #[test]
    fn inverter_switches_dynamically() {
        let tech = TechParams::cmos_32nm();
        let mut ckt = Circuit::new();
        let vdd = ckt.node();
        let vin = ckt.node();
        let out = ckt.node();
        ckt.add_vsource("VDD", vdd, GROUND, tech.vdd);
        ckt.add_vsource("VIN", vin, GROUND, 0.0);
        ckt.add_transistor("MP", tech.model(Polarity::P), out, vin, vdd);
        ckt.add_transistor("MN", tech.model(Polarity::N), out, vin, GROUND);
        ckt.add_capacitor("CL", out, GROUND, 100e-18);
        let wave = ramp(0.0, tech.vdd, 10e-12, 20e-12);
        let result = transient(&ckt, 100e-12, 0.5e-12, &[("VIN", &wave)]).expect("converges");
        let first = result.points.first().expect("points").voltage(out);
        let last = result.points.last().expect("points").voltage(out);
        assert!(first > 0.85 * tech.vdd, "output starts high: {first}");
        assert!(last < 0.15 * tech.vdd, "output ends low: {last}");
        // The output must fall monotonically-ish after the ramp starts.
        let mid_idx = result.times.iter().position(|&t| t >= 30e-12).expect("mid");
        assert!(result.points[mid_idx].voltage(out) < first);
    }

    #[test]
    fn ramp_waveform_shape() {
        let w = ramp(0.0, 1.0, 1.0, 2.0);
        assert_eq!(w(0.5), 0.0);
        assert_eq!(w(1.0), 0.0);
        assert!((w(2.0) - 0.5).abs() < 1e-12);
        assert_eq!(w(3.0), 1.0);
        assert_eq!(w(9.0), 1.0);
    }
}

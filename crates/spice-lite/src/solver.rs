//! DC operating-point solver: modified nodal analysis + Newton–Raphson.
//!
//! Unknowns are the non-ground node voltages plus one branch current per
//! voltage source. Nonlinear transistors are linearized each iteration with
//! central finite differences of the compact model; robustness comes from
//! voltage-step damping and g_min continuation (a shunt conductance stepped
//! from 1 mS down to 1 fS, each solution seeding the next).

use crate::lu::Matrix;
use crate::netlist::{Circuit, Element, NodeId};

/// Maximum Newton iterations per continuation step.
const MAX_ITERATIONS: usize = 300;
/// Convergence threshold on the node-voltage update, volts.
const V_TOLERANCE: f64 = 1e-10;
/// Maximum per-iteration voltage step, volts (damping).
const MAX_STEP: f64 = 0.25;

/// Error returned when the DC solve fails.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The Newton iteration did not converge within the iteration budget.
    NoConvergence {
        /// Final maximum voltage update, volts.
        last_delta: f64,
    },
    /// The linearized system was singular (typically a floating node).
    Singular {
        /// Matrix column at which factorization failed.
        column: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NoConvergence { last_delta } => {
                write!(
                    f,
                    "newton iteration did not converge (last step {last_delta:e} V)"
                )
            }
            SolveError::Singular { column } => {
                write!(f, "singular system at column {column} (floating node?)")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// A solved DC operating point.
#[derive(Clone, Debug)]
pub struct OperatingPoint {
    voltages: Vec<f64>,
    vsource_currents: Vec<f64>,
    vsource_names: Vec<String>,
}

impl OperatingPoint {
    /// Voltage of a node, volts (ground reads 0).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.index()]
    }

    /// All node voltages indexed by [`NodeId::index`].
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Current delivered by the named voltage source *into the circuit*
    /// through its positive terminal, amperes. For a `VDD` rail source this
    /// is the total current drawn from the supply (e.g. leakage).
    ///
    /// Returns `None` for unknown names.
    pub fn source_current(&self, name: &str) -> Option<f64> {
        let idx = self.vsource_names.iter().position(|n| n == name)?;
        Some(-self.vsource_currents[idx])
    }
}

/// Relative finite-difference step for device linearization, volts.
const FD_STEP: f64 = 1e-6;

/// The DC g_min continuation ladder: heavy shunt first, nearly nothing last.
pub(crate) const GMIN_CONTINUATION: [f64; 5] = [1e-3, 1e-6, 1e-9, 1e-12, 1e-15];

impl Circuit {
    /// Solves the DC operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if Newton fails to converge or the system is
    /// singular (e.g. a node with no DC path).
    pub fn solve_dc(&self) -> Result<OperatingPoint, SolveError> {
        let n_nodes = self.node_count();
        let n_vsrc = self
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::VSource { .. }))
            .count();
        let dim = (n_nodes - 1) + n_vsrc;
        let mut x = vec![0.0; dim];
        let mut matrix = Matrix::zeros(dim);
        let mut rhs = vec![0.0; dim];

        self.newton(&mut x, &mut matrix, &mut rhs, &GMIN_CONTINUATION, None)?;
        Ok(self.operating_point(&x, n_nodes, n_vsrc))
    }

    /// Newton–Raphson with g_min continuation over `gmin_steps`.
    pub(crate) fn newton(
        &self,
        x: &mut [f64],
        matrix: &mut Matrix,
        rhs: &mut [f64],
        gmin_steps: &[f64],
        transient: Option<(&[f64], f64)>,
    ) -> Result<(), SolveError> {
        let n_nodes = self.node_count();
        let mut last_delta = f64::INFINITY;
        for (step_idx, &gmin) in gmin_steps.iter().enumerate() {
            let mut converged = false;
            for _ in 0..MAX_ITERATIONS {
                self.assemble(x, gmin, matrix, rhs, transient);
                let mut x_new = rhs.to_vec();
                matrix
                    .solve_in_place(&mut x_new)
                    .map_err(|e| SolveError::Singular { column: e.column })?;
                // Damped update on the voltage unknowns; branch currents
                // are taken as solved.
                let mut max_dv: f64 = 0.0;
                for (new, old) in x_new.iter().zip(x.iter()).take(n_nodes - 1) {
                    max_dv = max_dv.max((new - old).abs());
                }
                let scale = if max_dv > MAX_STEP {
                    MAX_STEP / max_dv
                } else {
                    1.0
                };
                for (xi, xn) in x.iter_mut().zip(x_new.iter()).take(n_nodes - 1) {
                    *xi += scale * (*xn - *xi);
                }
                for (xi, xn) in x.iter_mut().zip(x_new.iter()).skip(n_nodes - 1) {
                    *xi = *xn;
                }
                last_delta = max_dv * scale;
                if max_dv < V_TOLERANCE {
                    converged = true;
                    break;
                }
            }
            if !converged && step_idx == gmin_steps.len() - 1 {
                return Err(SolveError::NoConvergence { last_delta });
            }
        }
        Ok(())
    }

    /// Assembles the linearized MNA system at the current iterate.
    /// `transient` carries `(previous node voltages, dt)` for backward-Euler
    /// capacitor companions; `None` means DC (capacitors open).
    pub(crate) fn assemble(
        &self,
        x: &[f64],
        gmin: f64,
        matrix: &mut Matrix,
        rhs: &mut [f64],
        transient: Option<(&[f64], f64)>,
    ) {
        let n_nodes = self.node_count();
        matrix.clear();
        rhs.fill(0.0);
        // Node voltage accessor: ground = 0 V, node i>0 = x[i-1].
        let v = |node: NodeId| -> f64 {
            if node.index() == 0 {
                0.0
            } else {
                x[node.index() - 1]
            }
        };
        // Row/column index of a node (None for ground).
        let idx = |node: NodeId| -> Option<usize> {
            if node.index() == 0 {
                None
            } else {
                Some(node.index() - 1)
            }
        };
        // Shunt g_min on every non-ground node.
        for i in 0..(n_nodes - 1) {
            matrix.stamp(i, i, gmin);
        }

        let mut vsrc_row = n_nodes - 1;
        for element in self.elements() {
            match element {
                Element::Resistor { a, b, ohms, .. } => {
                    let g = 1.0 / ohms;
                    stamp_conductance(matrix, idx(*a), idx(*b), g);
                }
                Element::Capacitor { a, b, farads, .. } => {
                    if let Some((prev, dt)) = transient {
                        // Backward Euler: i = C/dt · (v − v_prev).
                        let g = farads / dt;
                        stamp_conductance(matrix, idx(*a), idx(*b), g);
                        let v_prev = prev[a.index()] - prev[b.index()];
                        let i_eq = g * v_prev;
                        if let Some(i) = idx(*a) {
                            rhs[i] += i_eq;
                        }
                        if let Some(j) = idx(*b) {
                            rhs[j] -= i_eq;
                        }
                    }
                    // DC: open circuit — no stamp.
                }
                Element::ISource { from, to, amps, .. } => {
                    if let Some(i) = idx(*from) {
                        rhs[i] -= amps;
                    }
                    if let Some(i) = idx(*to) {
                        rhs[i] += amps;
                    }
                }
                Element::VSource {
                    pos, neg, volts, ..
                } => {
                    let row = vsrc_row;
                    vsrc_row += 1;
                    if let Some(p) = idx(*pos) {
                        matrix.stamp(row, p, 1.0);
                        matrix.stamp(p, row, 1.0);
                    }
                    if let Some(n) = idx(*neg) {
                        matrix.stamp(row, n, -1.0);
                        matrix.stamp(n, row, -1.0);
                    }
                    rhs[row] = *volts;
                }
                Element::Transistor {
                    model,
                    drain,
                    gate,
                    source,
                    ..
                } => {
                    let (vg, vd, vs) = (v(*gate), v(*drain), v(*source));
                    let id0 = model.ids(vg, vd, vs);
                    let h = FD_STEP;
                    let gm = (model.ids(vg + h, vd, vs) - model.ids(vg - h, vd, vs)) / (2.0 * h);
                    let gdd = (model.ids(vg, vd + h, vs) - model.ids(vg, vd - h, vs)) / (2.0 * h);
                    let gss = (model.ids(vg, vd, vs + h) - model.ids(vg, vd, vs - h)) / (2.0 * h);
                    // Companion model: I_eq enters the RHS, conductances the
                    // matrix. Current I_DS leaves the drain node and enters
                    // the source node.
                    let i_eq = id0 - gm * vg - gdd * vd - gss * vs;
                    if let Some(d) = idx(*drain) {
                        if let Some(g) = idx(*gate) {
                            matrix.stamp(d, g, gm);
                        }
                        matrix.stamp(d, d, gdd);
                        if let Some(s) = idx(*source) {
                            matrix.stamp(d, s, gss);
                        }
                        rhs[d] -= i_eq;
                    }
                    if let Some(s) = idx(*source) {
                        if let Some(g) = idx(*gate) {
                            matrix.stamp(s, g, -gm);
                        }
                        if let Some(d) = idx(*drain) {
                            matrix.stamp(s, d, -gdd);
                        }
                        matrix.stamp(s, s, -gss);
                        rhs[s] += i_eq;
                    }
                }
            }
        }
    }

    pub(crate) fn operating_point(
        &self,
        x: &[f64],
        n_nodes: usize,
        n_vsrc: usize,
    ) -> OperatingPoint {
        let mut voltages = vec![0.0; n_nodes];
        voltages[1..n_nodes].copy_from_slice(&x[..n_nodes - 1]);
        let vsource_currents: Vec<f64> = (0..n_vsrc).map(|k| x[n_nodes - 1 + k]).collect();
        let vsource_names = self
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::VSource { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        OperatingPoint {
            voltages,
            vsource_currents,
            vsource_names,
        }
    }
}

/// Stamps a two-terminal conductance between two (possibly ground) nodes.
fn stamp_conductance(matrix: &mut Matrix, a: Option<usize>, b: Option<usize>, g: f64) {
    if let Some(i) = a {
        matrix.stamp(i, i, g);
    }
    if let Some(j) = b {
        matrix.stamp(j, j, g);
    }
    if let (Some(i), Some(j)) = (a, b) {
        matrix.stamp(i, j, -g);
        matrix.stamp(j, i, -g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;
    use device::{Polarity, TechParams};

    /// Kirchhoff current-law residual of a solved operating point: the
    /// worst absolute current imbalance over all non-ground nodes, in
    /// amperes. A healthy solution sits many orders below the circuit's
    /// smallest current of interest, so this audits convergence instead
    /// of trusting the Newton tolerance.
    fn kcl_residual(ckt: &Circuit, op: &OperatingPoint) -> f64 {
        let v = op.voltages();
        let mut net = vec![0.0f64; ckt.node_count()];
        let mut vsrc_seen = 0usize;
        for element in ckt.elements() {
            // Current leaving the first node and entering the second.
            let (from, to, i) = match element {
                Element::Resistor { a, b, ohms, .. } => {
                    (a, b, (v[a.index()] - v[b.index()]) / ohms)
                }
                // DC: a capacitor carries no current.
                Element::Capacitor { .. } => continue,
                Element::ISource { from, to, amps, .. } => (from, to, *amps),
                // Branch current flows into the positive terminal.
                Element::VSource { pos, neg, .. } => {
                    vsrc_seen += 1;
                    (pos, neg, op.vsource_currents[vsrc_seen - 1])
                }
                Element::Transistor {
                    model,
                    drain,
                    gate,
                    source,
                    ..
                } => (
                    drain,
                    source,
                    model.ids(v[gate.index()], v[drain.index()], v[source.index()]),
                ),
            };
            net[from.index()] -= i;
            net[to.index()] += i;
        }
        net.iter().skip(1).fold(0.0f64, |acc, &x| acc.max(x.abs()))
    }

    #[test]
    fn resistor_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let mid = ckt.node();
        ckt.add_vsource("V1", vin, GROUND, 1.0);
        ckt.add_resistor("R1", vin, mid, 1e3);
        ckt.add_resistor("R2", mid, GROUND, 1e3);
        let op = ckt.solve_dc().expect("linear circuit converges");
        assert!((op.voltage(mid) - 0.5).abs() < 1e-9);
        // Source delivers V/(R1+R2) = 0.5 mA into the circuit.
        let i = op.source_current("V1").expect("V1 exists");
        assert!((i - 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn isource_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node();
        ckt.add_isource("I1", GROUND, a, 1e-3);
        ckt.add_resistor("R1", a, GROUND, 2e3);
        let op = ckt.solve_dc().expect("converges");
        assert!((op.voltage(a) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn nfet_pulls_down_inverter() {
        // Resistive-load inverter: gate high → output near ground.
        let tech = TechParams::cmos_32nm();
        let nfet = tech.model(Polarity::N);
        let mut ckt = Circuit::new();
        let vdd = ckt.node();
        let gate = ckt.node();
        let out = ckt.node();
        ckt.add_vsource("VDD", vdd, GROUND, tech.vdd);
        ckt.add_vsource("VIN", gate, GROUND, tech.vdd);
        ckt.add_resistor("RL", vdd, out, 1e6);
        ckt.add_transistor("MN", nfet, out, gate, GROUND);
        let op = ckt.solve_dc().expect("converges");
        assert!(
            op.voltage(out) < 0.1,
            "output should be pulled low, got {}",
            op.voltage(out)
        );
    }

    #[test]
    fn off_nfet_leaks_about_ioff() {
        let tech = TechParams::cmos_32nm();
        let nfet = tech.model(Polarity::N);
        let mut ckt = Circuit::new();
        let vdd = ckt.node();
        ckt.add_vsource("VDD", vdd, GROUND, tech.vdd);
        // Gate tied to ground: device off, drain at VDD.
        ckt.add_transistor("MN", nfet, vdd, GROUND, GROUND);
        let op = ckt.solve_dc().expect("converges");
        let leak = op.source_current("VDD").expect("VDD exists");
        assert!(
            (leak / tech.ioff_unit - 1.0).abs() < 0.05,
            "leak {leak:e} vs unit {:e}",
            tech.ioff_unit
        );
    }

    #[test]
    fn series_stack_leaks_less_than_single_device() {
        // The Fig. 4 stack effect: two series off-transistors leak much
        // less than one, because the intermediate node rises.
        let tech = TechParams::cmos_32nm();
        let nfet = tech.model(Polarity::N);

        let single = {
            let mut ckt = Circuit::new();
            let vdd = ckt.node();
            ckt.add_vsource("VDD", vdd, GROUND, tech.vdd);
            ckt.add_transistor("M1", nfet, vdd, GROUND, GROUND);
            ckt.solve_dc()
                .expect("converges")
                .source_current("VDD")
                .expect("VDD")
        };
        let stacked = {
            let mut ckt = Circuit::new();
            let vdd = ckt.node();
            let mid = ckt.node();
            ckt.add_vsource("VDD", vdd, GROUND, tech.vdd);
            ckt.add_transistor("M1", nfet, vdd, GROUND, mid);
            ckt.add_transistor("M2", nfet, mid, GROUND, GROUND);
            ckt.solve_dc()
                .expect("converges")
                .source_current("VDD")
                .expect("VDD")
        };
        assert!(stacked > 0.0);
        let factor = single / stacked;
        assert!(
            factor > 3.0,
            "stack effect should suppress leakage ≥3×, got {factor}"
        );
        // Intermediate node must have risen above ground.
    }

    #[test]
    fn parallel_devices_leak_additively() {
        let tech = TechParams::cmos_32nm();
        let nfet = tech.model(Polarity::N);
        let mut ckt = Circuit::new();
        let vdd = ckt.node();
        ckt.add_vsource("VDD", vdd, GROUND, tech.vdd);
        for i in 0..3 {
            ckt.add_transistor(format!("M{i}"), nfet, vdd, GROUND, GROUND);
        }
        let op = ckt.solve_dc().expect("converges");
        let leak = op.source_current("VDD").expect("VDD");
        assert!(
            (leak / (3.0 * tech.ioff_unit) - 1.0).abs() < 0.05,
            "three parallel devices should leak 3× the unit, got {leak:e}"
        );
    }

    #[test]
    fn cmos_inverter_transfer_endpoints() {
        let tech = TechParams::cmos_32nm();
        let nfet = tech.model(Polarity::N);
        let pfet = tech.model(Polarity::P);
        for (vin, expect_high) in [(0.0, true), (tech.vdd, false)] {
            let mut ckt = Circuit::new();
            let vdd = ckt.node();
            let input = ckt.node();
            let out = ckt.node();
            ckt.add_vsource("VDD", vdd, GROUND, tech.vdd);
            ckt.add_vsource("VIN", input, GROUND, vin);
            ckt.add_transistor("MP", pfet, out, input, vdd);
            ckt.add_transistor("MN", nfet, out, input, GROUND);
            let op = ckt.solve_dc().expect("converges");
            let vout = op.voltage(out);
            if expect_high {
                assert!(vout > 0.85 * tech.vdd, "vin={vin}: vout={vout}");
            } else {
                assert!(vout < 0.15 * tech.vdd, "vin={vin}: vout={vout}");
            }
        }
    }

    #[test]
    fn inverter_vtc_is_monotone_decreasing() {
        let tech = TechParams::cmos_32nm();
        let outs: Vec<f64> = (0..19)
            .map(|i| {
                let vin = tech.vdd * i as f64 / 18.0;
                let mut ckt = Circuit::new();
                let vdd = ckt.node();
                let input = ckt.node();
                let out = ckt.node();
                ckt.add_vsource("VDD", vdd, GROUND, tech.vdd);
                ckt.add_vsource("VIN", input, GROUND, vin);
                ckt.add_transistor("MP", tech.model(Polarity::P), out, input, vdd);
                ckt.add_transistor("MN", tech.model(Polarity::N), out, input, GROUND);
                ckt.solve_dc().expect("converges").voltage(out)
            })
            .collect();
        for w in outs.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "VTC must be non-increasing: {outs:?}");
        }
        assert!(outs[0] > 0.85 * tech.vdd);
        assert!(*outs.last().expect("nonempty") < 0.15 * tech.vdd);
    }

    #[test]
    fn kcl_residual_is_tiny_on_solved_circuits() {
        let tech = TechParams::cmos_32nm();
        // Linear circuit.
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let mid = ckt.node();
        ckt.add_vsource("V1", vin, GROUND, 1.0);
        ckt.add_resistor("R1", vin, mid, 1e3);
        ckt.add_resistor("R2", mid, GROUND, 1e3);
        let op = ckt.solve_dc().expect("converges");
        assert!(
            kcl_residual(&ckt, &op) < 1e-12,
            "linear residual {}",
            kcl_residual(&ckt, &op)
        );

        // Nonlinear stack: residual must stay far below the nA leakage.
        let mut ckt = Circuit::new();
        let vdd = ckt.node();
        let mid = ckt.node();
        ckt.add_vsource("VDD", vdd, GROUND, tech.vdd);
        ckt.add_transistor("M1", tech.model(Polarity::N), vdd, GROUND, mid);
        ckt.add_transistor("M2", tech.model(Polarity::N), mid, GROUND, GROUND);
        let op = ckt.solve_dc().expect("converges");
        let residual = kcl_residual(&ckt, &op);
        assert!(
            residual < 1e-3 * tech.ioff_unit,
            "stack residual {residual:e} vs I_off {:e}",
            tech.ioff_unit
        );
    }

    #[test]
    fn floating_node_reports_singular_or_converges_to_gmin_value() {
        // A node connected to nothing but gmin: should still solve (to 0 V)
        // rather than crash.
        let mut ckt = Circuit::new();
        let a = ckt.node();
        let b = ckt.node();
        ckt.add_vsource("V1", b, GROUND, 1.0);
        ckt.add_resistor("R1", b, GROUND, 1e3);
        let op = ckt.solve_dc().expect("gmin keeps the system nonsingular");
        assert!(op.voltage(a).abs() < 1e-6);
    }
}

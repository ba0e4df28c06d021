//! A static complementary logic gate: pull-up and pull-down networks plus
//! an optional output inverter (for the non-inverting two-stage cells).

use crate::family::GateFamily;
use crate::network::SpNetwork;
use logic::TruthTable;

/// Error produced when a gate description is inconsistent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateError {
    /// Pull-up and pull-down conduct simultaneously or neither conducts for
    /// some input vector.
    NotComplementary {
        /// Offending input vector (as a minterm index).
        input_index: usize,
    },
    /// A network violates the ≤2 series/parallel composition rule of the
    /// DATE'09 library.
    CompositionRule,
    /// Transmission gates are only available in the ambipolar family.
    TgInConventionalFamily,
    /// The function references variables beyond `n_inputs`.
    ArityMismatch,
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::NotComplementary { input_index } => {
                write!(
                    f,
                    "pull-up/pull-down not complementary at input {input_index}"
                )
            }
            GateError::CompositionRule => {
                write!(f, "network exceeds two series/parallel elements")
            }
            GateError::TgInConventionalFamily => {
                write!(f, "transmission gate used outside the ambipolar family")
            }
            GateError::ArityMismatch => write!(f, "function arity mismatch"),
        }
    }
}

impl std::error::Error for GateError {}

/// A library cell: a single complementary core stage, optionally followed
/// by an output inverter.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Cell name, e.g. `GNAND2`.
    pub name: String,
    /// Family this cell belongs to.
    pub family: GateFamily,
    /// Number of logical inputs.
    pub n_inputs: usize,
    /// Output function over `n_inputs` variables.
    pub function: TruthTable,
    /// Pull-up network (connects output to V_DD; conducts iff core = 1).
    pub pull_up: SpNetwork,
    /// Pull-down network (connects output to V_SS; conducts iff core = 0).
    pub pull_down: SpNetwork,
    /// Whether an output inverter follows the core stage.
    pub output_inverter: bool,
}

impl Gate {
    /// Builds a gate from its pull-down network: the pull-up is the dual
    /// network, the core function is the pull-up's conduction condition,
    /// and `output_inverter` selects the non-inverting two-stage variant.
    ///
    /// # Errors
    ///
    /// Returns a [`GateError`] if the resulting cell violates family or
    /// composition constraints.
    pub fn from_pull_down(
        name: impl Into<String>,
        family: GateFamily,
        n_inputs: usize,
        pull_down: SpNetwork,
        output_inverter: bool,
    ) -> Result<Self, GateError> {
        let pull_up = pull_down.dual();
        let core = pull_up.condition(n_inputs);
        let function = if output_inverter { !core } else { core };
        let gate = Self {
            name: name.into(),
            family,
            n_inputs,
            function,
            pull_up,
            pull_down,
            output_inverter,
        };
        gate.validate()?;
        Ok(gate)
    }

    /// Checks all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), GateError> {
        // Complementarity: exactly one network conducts for every vector.
        let pu = self.pull_up.condition(self.n_inputs);
        let pd = self.pull_down.condition(self.n_inputs);
        if pu != !pd {
            let diff = pu ^ !pd;
            let input_index = (0..(1usize << self.n_inputs))
                .find(|&i| diff.eval_index(i))
                .unwrap_or(0);
            return Err(GateError::NotComplementary { input_index });
        }
        // Composition rule: at most two elements per series/parallel group.
        if !composition_ok(&self.pull_up) || !composition_ok(&self.pull_down) {
            return Err(GateError::CompositionRule);
        }
        // TGs only exist in the ambipolar generalized family.
        if self.family != GateFamily::CntfetGeneralized
            && (self.pull_up.contains_tg() || self.pull_down.contains_tg())
        {
            return Err(GateError::TgInConventionalFamily);
        }
        // Function arity.
        if self.function.n_vars() != self.n_inputs {
            return Err(GateError::ArityMismatch);
        }
        Ok(())
    }

    /// Total physical transistors: both networks, the optional output
    /// inverter, and (for conventional families) the internal inverters
    /// generating complemented literals.
    pub fn transistor_count(&self) -> usize {
        let core = self.pull_up.transistor_count() + self.pull_down.transistor_count();
        let inv = if self.output_inverter { 2 } else { 0 };
        core + inv + 2 * self.internal_inverter_count()
    }

    /// Number of internal inverters required for complemented literals
    /// (zero for the dual-rail generalized family).
    pub fn internal_inverter_count(&self) -> usize {
        if self.family.free_input_negation() {
            0
        } else {
            let mask = self.pull_up.complemented_vars() | self.pull_down.complemented_vars();
            mask.count_ones() as usize
        }
    }

    /// Input load of each pin, in unit-gate-capacitance counts.
    ///
    /// For the dual-rail generalized family both rails load the pin; for
    /// conventional families the complemented rail is driven by an internal
    /// inverter whose input (n + p gates) loads the pin instead.
    pub fn input_loads(&self) -> Vec<usize> {
        let mut pos = vec![0usize; self.n_inputs];
        let mut neg = vec![0usize; self.n_inputs];
        self.pull_up.input_loads_signed(&mut pos, &mut neg);
        self.pull_down.input_loads_signed(&mut pos, &mut neg);
        if self.family.free_input_negation() {
            for (p, n) in pos.iter_mut().zip(neg.iter()) {
                *p += n;
            }
        } else {
            let mask = self.pull_up.complemented_vars() | self.pull_down.complemented_vars();
            for (v, load) in pos.iter_mut().enumerate() {
                if (mask >> v) & 1 == 1 {
                    *load += 2;
                }
            }
        }
        pos
    }

    /// Capacitive input load per pin, farads. Polarity (back) gates of
    /// transmission gates couple through the thick buried insulator and
    /// cost `c_polarity` instead of `c_gate`; conventional families add
    /// the internal-inverter load for complemented literals.
    pub fn input_capacitances(&self, c_gate: f64, c_polarity: f64) -> Vec<f64> {
        if self.family.free_input_negation() {
            let mut caps = vec![0.0f64; self.n_inputs];
            self.pull_up.input_cap_loads(&mut caps, c_gate, c_polarity);
            self.pull_down
                .input_cap_loads(&mut caps, c_gate, c_polarity);
            caps
        } else {
            // No TGs in conventional families: unit-count accounting with
            // the front-gate capacitance.
            let mut pos = vec![0usize; self.n_inputs];
            let mut neg = vec![0usize; self.n_inputs];
            self.pull_up.input_loads_signed(&mut pos, &mut neg);
            self.pull_down.input_loads_signed(&mut pos, &mut neg);
            let mask = self.pull_up.complemented_vars() | self.pull_down.complemented_vars();
            pos.iter()
                .enumerate()
                .map(|(v, &p)| {
                    let inv = if (mask >> v) & 1 == 1 { 2.0 } else { 0.0 };
                    (p as f64 + inv) * c_gate
                })
                .collect()
        }
    }

    /// Worst-case series device depth of the driving stage (sets the drive
    /// resistance). With an output inverter, the inverter drives the load.
    pub fn drive_depth(&self) -> usize {
        if self.output_inverter {
            1
        } else {
            self.pull_up
                .max_series_depth()
                .max(self.pull_down.max_series_depth())
        }
    }

    /// Number of drain diffusions on the output node (sets the intrinsic
    /// output capacitance).
    pub fn output_branches(&self) -> usize {
        if self.output_inverter {
            2
        } else {
            self.pull_up.output_branches() + self.pull_down.output_branches()
        }
    }

    /// The paper's activity factor: the fraction of input combinations on
    /// the minority output polarity (¼ for NAND2/NOR2, ½ for XOR2).
    pub fn activity_factor(&self) -> f64 {
        let ones = self.function.count_ones() as f64;
        let zeros = self.function.count_zeros() as f64;
        ones.min(zeros) / (1u64 << self.n_inputs) as f64
    }
}

/// Checks the ≤2-elements-per-group rule recursively.
fn composition_ok(net: &SpNetwork) -> bool {
    match net {
        SpNetwork::Transistor { .. } | SpNetwork::TransmissionGate { .. } => true,
        SpNetwork::Series(xs) | SpNetwork::Parallel(xs) => {
            xs.len() <= 2 && xs.iter().all(composition_ok)
        }
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} inputs, {} transistors, f={}]",
            self.name,
            self.n_inputs,
            self.transistor_count(),
            self.function
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Literal;

    fn nand2(family: GateFamily) -> Gate {
        Gate::from_pull_down(
            "NAND2",
            family,
            2,
            SpNetwork::series([SpNetwork::nfet(0), SpNetwork::nfet(1)]),
            false,
        )
        .expect("NAND2 is valid")
    }

    #[test]
    fn nand2_metrics() {
        let g = nand2(GateFamily::Cmos);
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!(g.function, !(a & b));
        assert_eq!(g.transistor_count(), 4);
        assert_eq!(g.input_loads(), vec![2, 2]);
        assert_eq!(g.drive_depth(), 2);
        assert_eq!(g.output_branches(), 3); // 2 parallel PU + 1 series PD
        assert!((g.activity_factor() - 0.25).abs() < 1e-12);
        assert!(!g.pull_up.contains_tg() && !g.pull_down.contains_tg());
    }

    #[test]
    fn and2_adds_output_inverter() {
        let g = Gate::from_pull_down(
            "AND2",
            GateFamily::Cmos,
            2,
            SpNetwork::series([SpNetwork::nfet(0), SpNetwork::nfet(1)]),
            true,
        )
        .expect("AND2 is valid");
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!(g.function, a & b);
        assert_eq!(g.transistor_count(), 6);
        assert_eq!(g.drive_depth(), 1);
        assert_eq!(g.output_branches(), 2);
    }

    #[test]
    fn gnand2_embeds_xors() {
        let pd = SpNetwork::series([
            SpNetwork::tg(Literal::pos(0), Literal::pos(2)),
            SpNetwork::tg(Literal::pos(1), Literal::pos(3)),
        ]);
        let g = Gate::from_pull_down("GNAND2", GateFamily::CntfetGeneralized, 4, pd, false)
            .expect("GNAND2 is valid");
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        assert_eq!(g.function, !((a ^ c) & (b ^ d)));
        assert_eq!(g.transistor_count(), 8);
        assert_eq!(g.input_loads(), vec![4, 4, 4, 4]);
        assert!(g.pull_up.contains_tg() || g.pull_down.contains_tg());
        // The paper's observation: embedding XOR in a complex gate does not
        // push the activity factor to the stand-alone XOR's 50 %.
        assert!((g.activity_factor() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn xor_activity_factor_is_half() {
        let pd = SpNetwork::tg(Literal::pos(0), Literal::neg(1));
        let g = Gate::from_pull_down("XOR2", GateFamily::CntfetGeneralized, 2, pd, false)
            .expect("XOR2 is valid");
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!(g.function, a ^ b);
        assert!((g.activity_factor() - 0.5).abs() < 1e-12);
        assert_eq!(g.transistor_count(), 4);
    }

    #[test]
    fn cmos_xor_uses_internal_inverters() {
        // XOR2 in CMOS: PD conducts when a ⊕ b = 0.
        let pd = SpNetwork::parallel([
            SpNetwork::series([SpNetwork::nfet(0), SpNetwork::nfet(1)]),
            SpNetwork::series([
                SpNetwork::Transistor {
                    gate: Literal::neg(0),
                    polarity: device::Polarity::N,
                },
                SpNetwork::Transistor {
                    gate: Literal::neg(1),
                    polarity: device::Polarity::N,
                },
            ]),
        ]);
        let g = Gate::from_pull_down("XOR2", GateFamily::Cmos, 2, pd, false).expect("valid");
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!(g.function, a ^ b);
        assert_eq!(g.internal_inverter_count(), 2);
        assert_eq!(g.transistor_count(), 12);
        // Each pin: 2 network gates + 2 inverter gates.
        assert_eq!(g.input_loads(), vec![4, 4]);
    }

    #[test]
    fn tg_rejected_in_cmos() {
        let pd = SpNetwork::tg(Literal::pos(0), Literal::pos(1));
        let err = Gate::from_pull_down("BAD", GateFamily::Cmos, 2, pd, false)
            .expect_err("TG must be rejected outside the ambipolar family");
        assert_eq!(err, GateError::TgInConventionalFamily);
    }

    #[test]
    fn composition_rule_enforced() {
        let pd = SpNetwork::series([SpNetwork::nfet(0), SpNetwork::nfet(1), SpNetwork::nfet(2)]);
        let err = Gate::from_pull_down("NAND3", GateFamily::Cmos, 3, pd, false)
            .expect_err("three in series violates the rule");
        assert_eq!(err, GateError::CompositionRule);
    }

    #[test]
    fn noncomplementary_rejected() {
        // Hand-build a broken gate: both networks pull-down style.
        let pd = SpNetwork::nfet(0);
        let gate = Gate {
            name: "BROKEN".into(),
            family: GateFamily::Cmos,
            n_inputs: 1,
            function: TruthTable::var(1, 0),
            pull_up: pd.clone(),
            pull_down: pd,
            output_inverter: false,
        };
        assert!(matches!(
            gate.validate(),
            Err(GateError::NotComplementary { .. })
        ));
    }
}

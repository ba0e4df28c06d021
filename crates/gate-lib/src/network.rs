//! Series/parallel transistor networks: the pull-up and pull-down networks
//! of static complementary gates.
//!
//! Networks are built from two element kinds, matching §2.2 of the paper:
//!
//! * a **fixed-polarity transistor** (an ambipolar CNTFET with its polarity
//!   gate tied to a rail, or a plain unipolar MOSFET), conducting when its
//!   gate signal enables the channel;
//! * a **transmission gate** — two ambipolar devices in parallel, biased
//!   with opposite polarities, with `A`/`B` on one device and `A'`/`B'` on
//!   the other — conducting iff `A ⊕ B = 1` (Fig. 2). Generalized gates use
//!   TGs as "literals" embedding XOR for free.

use device::Polarity;
use logic::TruthTable;

/// A signal literal: an input variable, possibly complemented.
///
/// Complemented literals assume the dual-rail signal convention of the
/// DATE'09 ambipolar library for the generalized family; conventional
/// families realize them with internal inverters, which
/// [`Gate`](crate::gate::Gate) accounts for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// Input variable index (0-based).
    pub var: u8,
    /// `true` for the plain signal, `false` for its complement.
    pub positive: bool,
}

impl Literal {
    /// A positive literal of `var`.
    pub fn pos(var: u8) -> Self {
        Self {
            var,
            positive: true,
        }
    }

    /// A negative literal of `var`.
    pub fn neg(var: u8) -> Self {
        Self {
            var,
            positive: false,
        }
    }

    /// The complemented literal.
    pub fn complement(self) -> Self {
        Self {
            var: self.var,
            positive: !self.positive,
        }
    }

    /// Evaluates the literal under an assignment.
    pub fn eval(self, assignment: &[bool]) -> bool {
        assignment[self.var as usize] == self.positive
    }

    /// Truth table of the literal over `n_vars` variables.
    fn truth_table(self, n_vars: usize) -> TruthTable {
        let v = TruthTable::var(n_vars, self.var as usize);
        if self.positive {
            v
        } else {
            !v
        }
    }
}

impl std::fmt::Display for Literal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = (b'a' + self.var) as char;
        if self.positive {
            write!(f, "{name}")
        } else {
            write!(f, "{name}'")
        }
    }
}

/// A series/parallel network of switch elements.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SpNetwork {
    /// A fixed-polarity transistor: conducts when the gate signal enables
    /// the channel (`N`: literal true; `P`: literal false).
    Transistor {
        /// Gate signal.
        gate: Literal,
        /// Channel polarity (for ambipolar devices, the polarity-gate
        /// configuration).
        polarity: Polarity,
    },
    /// A transmission gate conducting iff `a ⊕ b = 1`; an "XNOR-passing"
    /// TG is expressed by complementing one literal.
    TransmissionGate {
        /// Signal on the polarity gate of the first device (and complemented
        /// on the second).
        a: Literal,
        /// Signal on the conventional gate of the first device (and
        /// complemented on the second).
        b: Literal,
    },
    /// Elements connected in series (conducts iff all conduct).
    Series(Vec<SpNetwork>),
    /// Elements connected in parallel (conducts iff any conducts).
    Parallel(Vec<SpNetwork>),
}

impl SpNetwork {
    /// An n-type transistor on a positive input.
    pub fn nfet(var: u8) -> Self {
        SpNetwork::Transistor {
            gate: Literal::pos(var),
            polarity: Polarity::N,
        }
    }

    /// A p-type transistor on a positive input.
    pub fn pfet(var: u8) -> Self {
        SpNetwork::Transistor {
            gate: Literal::pos(var),
            polarity: Polarity::P,
        }
    }

    /// A transmission gate conducting on `a ⊕ b`.
    pub fn tg(a: Literal, b: Literal) -> Self {
        SpNetwork::TransmissionGate { a, b }
    }

    /// Series composition.
    pub fn series(elements: impl IntoIterator<Item = SpNetwork>) -> Self {
        SpNetwork::Series(elements.into_iter().collect())
    }

    /// Parallel composition.
    pub fn parallel(elements: impl IntoIterator<Item = SpNetwork>) -> Self {
        SpNetwork::Parallel(elements.into_iter().collect())
    }

    /// Whether the network conducts under the given input assignment.
    pub fn conducts(&self, assignment: &[bool]) -> bool {
        match self {
            SpNetwork::Transistor { gate, polarity } => {
                let signal = gate.eval(assignment);
                match polarity {
                    Polarity::N => signal,
                    Polarity::P => !signal,
                }
            }
            SpNetwork::TransmissionGate { a, b } => a.eval(assignment) ^ b.eval(assignment),
            SpNetwork::Series(xs) => xs.iter().all(|x| x.conducts(assignment)),
            SpNetwork::Parallel(xs) => xs.iter().any(|x| x.conducts(assignment)),
        }
    }

    /// The conduction condition as a truth table over `n_vars` variables.
    pub fn condition(&self, n_vars: usize) -> TruthTable {
        match self {
            SpNetwork::Transistor { gate, polarity } => {
                let lit = gate.truth_table(n_vars);
                match polarity {
                    Polarity::N => lit,
                    Polarity::P => !lit,
                }
            }
            SpNetwork::TransmissionGate { a, b } => a.truth_table(n_vars) ^ b.truth_table(n_vars),
            SpNetwork::Series(xs) => xs
                .iter()
                .fold(TruthTable::one(n_vars), |acc, x| acc & x.condition(n_vars)),
            SpNetwork::Parallel(xs) => xs
                .iter()
                .fold(TruthTable::zero(n_vars), |acc, x| acc | x.condition(n_vars)),
        }
    }

    /// The dual network: series ↔ parallel with every element's conduction
    /// condition complemented. For a pull-down network implementing
    /// `!f`, the dual is the pull-up network implementing `f`.
    pub fn dual(&self) -> SpNetwork {
        match self {
            SpNetwork::Transistor { gate, polarity } => SpNetwork::Transistor {
                gate: *gate,
                polarity: polarity.opposite(),
            },
            // TG(a, b) conducts on a⊕b; its dual conducts on !(a⊕b) = a⊕b'.
            SpNetwork::TransmissionGate { a, b } => SpNetwork::TransmissionGate {
                a: *a,
                b: b.complement(),
            },
            SpNetwork::Series(xs) => SpNetwork::Parallel(xs.iter().map(SpNetwork::dual).collect()),
            SpNetwork::Parallel(xs) => SpNetwork::Series(xs.iter().map(SpNetwork::dual).collect()),
        }
    }

    /// Number of physical transistors (a TG counts two).
    pub fn transistor_count(&self) -> usize {
        match self {
            SpNetwork::Transistor { .. } => 1,
            SpNetwork::TransmissionGate { .. } => 2,
            SpNetwork::Series(xs) | SpNetwork::Parallel(xs) => {
                xs.iter().map(SpNetwork::transistor_count).sum()
            }
        }
    }

    /// Number of device-gate terminals each input variable drives
    /// (gate-capacitance units): a fixed transistor loads its input once, a
    /// TG loads each of its two inputs twice (polarity + conventional gate
    /// across the complementary pair).
    pub fn input_loads(&self, loads: &mut [usize]) {
        match self {
            SpNetwork::Transistor { gate, .. } => loads[gate.var as usize] += 1,
            SpNetwork::TransmissionGate { a, b } => {
                loads[a.var as usize] += 2;
                loads[b.var as usize] += 2;
            }
            SpNetwork::Series(xs) | SpNetwork::Parallel(xs) => {
                for x in xs {
                    x.input_loads(loads);
                }
            }
        }
    }

    /// Capacitive input load per variable, in farads. The front gate of a
    /// device costs `c_gate`; the polarity (back) gate of a transmission
    /// gate couples through the thick buried insulator and costs only
    /// `c_polarity`. In a TG, the first signal drives the two polarity
    /// gates and the second the two front gates.
    pub fn input_cap_loads(&self, caps: &mut [f64], c_gate: f64, c_polarity: f64) {
        match self {
            SpNetwork::Transistor { gate, .. } => caps[gate.var as usize] += c_gate,
            SpNetwork::TransmissionGate { a, b } => {
                caps[a.var as usize] += 2.0 * c_polarity;
                caps[b.var as usize] += 2.0 * c_gate;
            }
            SpNetwork::Series(xs) | SpNetwork::Parallel(xs) => {
                for x in xs {
                    x.input_cap_loads(caps, c_gate, c_polarity);
                }
            }
        }
    }

    /// Like [`input_loads`](Self::input_loads) but split by literal
    /// polarity: `pos[v]`/`neg[v]` count gate terminals tied to the plain
    /// and complemented rails of variable `v`. A TG always uses one of
    /// each for both of its inputs.
    pub fn input_loads_signed(&self, pos: &mut [usize], neg: &mut [usize]) {
        match self {
            SpNetwork::Transistor { gate, .. } => {
                if gate.positive {
                    pos[gate.var as usize] += 1;
                } else {
                    neg[gate.var as usize] += 1;
                }
            }
            SpNetwork::TransmissionGate { a, b } => {
                for lit in [a, b] {
                    pos[lit.var as usize] += 1;
                    neg[lit.var as usize] += 1;
                }
            }
            SpNetwork::Series(xs) | SpNetwork::Parallel(xs) => {
                for x in xs {
                    x.input_loads_signed(pos, neg);
                }
            }
        }
    }

    /// Variables used with a complemented literal (bit mask) — conventional
    /// families must generate these with internal inverters.
    pub fn complemented_vars(&self) -> u8 {
        match self {
            SpNetwork::Transistor { gate, .. } => {
                if gate.positive {
                    0
                } else {
                    1 << gate.var
                }
            }
            // A TG always needs both rails of both inputs; under the
            // dual-rail convention that is free, and conventional families
            // never instantiate TGs, so a TG contributes no inverter needs.
            SpNetwork::TransmissionGate { .. } => 0,
            SpNetwork::Series(xs) | SpNetwork::Parallel(xs) => {
                xs.iter().fold(0, |m, x| m | x.complemented_vars())
            }
        }
    }

    /// The longest series chain of elements (for drive-resistance
    /// estimation); a TG counts one (its two devices are in parallel).
    pub fn max_series_depth(&self) -> usize {
        match self {
            SpNetwork::Transistor { .. } | SpNetwork::TransmissionGate { .. } => 1,
            SpNetwork::Series(xs) => xs.iter().map(SpNetwork::max_series_depth).sum(),
            SpNetwork::Parallel(xs) => xs
                .iter()
                .map(SpNetwork::max_series_depth)
                .max()
                .unwrap_or(0),
        }
    }

    /// Number of top-level branches touching the output node (for intrinsic
    /// output-capacitance estimation).
    pub fn output_branches(&self) -> usize {
        match self {
            SpNetwork::Transistor { .. } | SpNetwork::TransmissionGate { .. } => 1,
            // A series chain presents its first element to the output node.
            SpNetwork::Series(_) => 1,
            SpNetwork::Parallel(xs) => xs.iter().map(SpNetwork::output_branches).sum(),
        }
    }

    /// Whether the network contains a transmission gate.
    pub fn contains_tg(&self) -> bool {
        match self {
            SpNetwork::Transistor { .. } => false,
            SpNetwork::TransmissionGate { .. } => true,
            SpNetwork::Series(xs) | SpNetwork::Parallel(xs) => {
                xs.iter().any(SpNetwork::contains_tg)
            }
        }
    }
}

impl std::fmt::Display for SpNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpNetwork::Transistor { gate, polarity } => write!(f, "{polarity}({gate})"),
            SpNetwork::TransmissionGate { a, b } => write!(f, "tg({a},{b})"),
            SpNetwork::Series(xs) => {
                write!(f, "S[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            SpNetwork::Parallel(xs) => {
                write!(f, "P[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transistor_conduction_polarity() {
        let n = SpNetwork::nfet(0);
        let p = SpNetwork::pfet(0);
        assert!(n.conducts(&[true]));
        assert!(!n.conducts(&[false]));
        assert!(p.conducts(&[false]));
        assert!(!p.conducts(&[true]));
    }

    #[test]
    fn tg_conducts_on_xor() {
        let tg = SpNetwork::tg(Literal::pos(0), Literal::pos(1));
        assert!(!tg.conducts(&[false, false]));
        assert!(tg.conducts(&[true, false]));
        assert!(tg.conducts(&[false, true]));
        assert!(!tg.conducts(&[true, true]));
        // Complementing one literal gives the XNOR-passing TG.
        let tgn = SpNetwork::tg(Literal::pos(0), Literal::neg(1));
        assert!(tgn.conducts(&[false, false]));
        assert!(!tgn.conducts(&[true, false]));
    }

    #[test]
    fn nand_pulldown_condition() {
        let pd = SpNetwork::series([SpNetwork::nfet(0), SpNetwork::nfet(1)]);
        let t = pd.condition(2);
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!(t, a & b);
    }

    #[test]
    fn dual_complements_condition() {
        // Exhaustive over a representative set of networks.
        let nets = [
            SpNetwork::nfet(0),
            SpNetwork::tg(Literal::pos(0), Literal::pos(1)),
            SpNetwork::series([SpNetwork::nfet(0), SpNetwork::nfet(1)]),
            SpNetwork::parallel([
                SpNetwork::series([SpNetwork::nfet(0), SpNetwork::nfet(1)]),
                SpNetwork::tg(Literal::pos(2), Literal::pos(3)),
            ]),
            SpNetwork::series([
                SpNetwork::parallel([
                    SpNetwork::nfet(0),
                    SpNetwork::tg(Literal::pos(1), Literal::pos(2)),
                ]),
                SpNetwork::nfet(3),
            ]),
        ];
        for net in nets {
            let n = 4;
            let cond = net.condition(n);
            let dual_cond = net.dual().condition(n);
            assert_eq!(dual_cond, !cond, "dual must complement: {net}");
        }
    }

    #[test]
    fn counts_and_depths() {
        let net = SpNetwork::parallel([
            SpNetwork::series([SpNetwork::nfet(0), SpNetwork::nfet(1)]),
            SpNetwork::tg(Literal::pos(2), Literal::pos(3)),
        ]);
        assert_eq!(net.transistor_count(), 4);
        assert_eq!(net.max_series_depth(), 2);
        assert_eq!(net.output_branches(), 2);
        assert!(net.contains_tg());

        let mut loads = [0usize; 4];
        net.input_loads(&mut loads);
        assert_eq!(loads, [1, 1, 2, 2]);
    }

    #[test]
    fn complemented_vars_tracks_negative_literals() {
        let net = SpNetwork::parallel([
            SpNetwork::Transistor {
                gate: Literal::neg(0),
                polarity: Polarity::N,
            },
            SpNetwork::nfet(1),
        ]);
        assert_eq!(net.complemented_vars(), 0b01);
    }

    #[test]
    fn display_is_readable() {
        let net = SpNetwork::series([
            SpNetwork::nfet(0),
            SpNetwork::tg(Literal::pos(1), Literal::neg(2)),
        ]);
        assert_eq!(net.to_string(), "S[n(b) tg(b,c')]".replace("n(b)", "n(a)"));
    }
}

//! The full library characterization flow of Fig. 5: gate topology
//! analysis → pattern classification → circuit-level leakage → averaged
//! power components.

use crate::leakage::LeakageSimulator;
use crate::pattern::PatternCensus;
use crate::topology::{gate_off_patterns, input_vectors, on_device_count};
use crate::{FANOUT, OPERATING_FREQUENCY_HZ, SHORT_CIRCUIT_FRACTION};
use device::{Capacitance, Current, Power, TechParams, Time};
use gate_lib::{generate_library, Gate, GateFamily};

/// The four power components of eq. (1)–(5), plus their sum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerSummary {
    /// P_D = α · C · f · V².
    pub dynamic: Power,
    /// P_SC = 0.15 · P_D.
    pub short_circuit: Power,
    /// P_S = I_off · V_DD (averaged over input vectors).
    pub static_sub: Power,
    /// P_G = I_g · V_DD (averaged over input vectors).
    pub gate_leak: Power,
}

impl PowerSummary {
    /// Total power P_T = P_D + P_SC + P_S + P_G.
    pub fn total(&self) -> Power {
        self.dynamic + self.short_circuit + self.static_sub + self.gate_leak
    }
}

/// A gate with its full power/timing characterization.
#[derive(Clone, Debug)]
pub struct CharacterizedGate {
    /// The underlying library cell.
    pub gate: Gate,
    /// Activity factor per the paper's definition.
    pub alpha: f64,
    /// Input capacitance per pin, farads.
    pub input_caps: Vec<f64>,
    /// Intrinsic output (drain) capacitance, farads.
    pub c_out: f64,
    /// Worst-case drive resistance, ohms.
    pub drive_resistance: f64,
    /// Cell area, square metres.
    pub area: f64,
    /// Average sub-threshold leakage over input vectors, amperes.
    pub ioff_avg: f64,
    /// Average gate-tunnelling leakage over input vectors, amperes.
    pub ig_avg: f64,
    /// Per-input-vector sub-threshold leakage, amperes (index = minterm).
    pub ioff_by_vector: Vec<f64>,
    /// Per-input-vector gate leakage, amperes (index = minterm).
    pub ig_by_vector: Vec<f64>,
    /// Supply voltage used during characterization, volts.
    pub vdd: f64,
}

impl CharacterizedGate {
    /// Average input pin capacitance.
    pub fn avg_input_cap(&self) -> Capacitance {
        let n = self.input_caps.len().max(1) as f64;
        Capacitance::new(self.input_caps.iter().sum::<f64>() / n)
    }

    /// Propagation delay into a load capacitance: `0.69·R·(C_out + C_L)`.
    pub fn delay(&self, load: Capacitance) -> Time {
        Time::new(0.69 * self.drive_resistance * (self.c_out + load.value()))
    }

    /// Delay under the paper's fanout-of-three load assumption.
    pub fn fo3_delay(&self) -> Time {
        self.delay(self.avg_input_cap() * FANOUT as f64)
    }

    /// The paper's gate-level power breakdown at 1 GHz, V_DD, FO3 load.
    pub fn power_summary(&self) -> PowerSummary {
        self.power_at(OPERATING_FREQUENCY_HZ, FANOUT as f64)
    }

    /// Power breakdown at an explicit frequency and fanout.
    fn power_at(&self, frequency_hz: f64, fanout: f64) -> PowerSummary {
        let c_load = self.c_out + fanout * self.avg_input_cap().value();
        let dynamic = self.alpha * c_load * frequency_hz * self.vdd * self.vdd;
        PowerSummary {
            dynamic: Power::new(dynamic),
            short_circuit: Power::new(SHORT_CIRCUIT_FRACTION * dynamic),
            static_sub: Current::new(self.ioff_avg) * device::Voltage::new(self.vdd),
            gate_leak: Current::new(self.ig_avg) * device::Voltage::new(self.vdd),
        }
    }

    /// Sub-threshold leakage for a specific input state (minterm index).
    pub fn ioff_for_state(&self, minterm: usize) -> f64 {
        self.ioff_by_vector[minterm]
    }

    /// Gate leakage for a specific input state (minterm index).
    pub fn ig_for_state(&self, minterm: usize) -> f64 {
        self.ig_by_vector[minterm]
    }
}

/// A fully characterized gate library.
#[derive(Clone, Debug)]
pub struct CharacterizedLibrary {
    /// The family that was characterized.
    pub family: GateFamily,
    /// The implementing technology.
    pub tech: TechParams,
    /// Characterized cells, in generation order.
    pub gates: Vec<CharacterizedGate>,
    /// Census of distinct off-patterns across the library (§3.2).
    pub pattern_census: PatternCensus,
    /// Number of circuit simulations actually run (≤ census size).
    pub simulated_patterns: usize,
}

impl CharacterizedLibrary {
    /// Looks up a cell by name.
    pub fn find(&self, name: &str) -> Option<&CharacterizedGate> {
        self.gates.iter().find(|g| g.gate.name == name)
    }

    /// Average of a per-gate metric across the library.
    pub fn average(&self, mut metric: impl FnMut(&CharacterizedGate) -> f64) -> f64 {
        let n = self.gates.len().max(1) as f64;
        self.gates.iter().map(&mut metric).sum::<f64>() / n
    }

    /// Average total gate power (the paper's library-level comparison).
    pub fn average_total_power(&self) -> Power {
        Power::new(self.average(|g| g.power_summary().total().value()))
    }
}

/// Runs the Fig. 5 characterization flow on a gate family.
///
/// # Example
///
/// ```
/// use charlib::characterize_library;
/// use gate_lib::GateFamily;
///
/// let lib = characterize_library(GateFamily::Cmos);
/// assert_eq!(lib.gates.len(), 14);
/// ```
pub fn characterize_library(family: GateFamily) -> CharacterizedLibrary {
    characterize_library_with(family, family.tech())
}

/// Like [`characterize_library`] but at an explicit technology point —
/// used by the supply-scaling study
/// (`TechParams::with_vdd`).
pub fn characterize_library_with(family: GateFamily, tech: TechParams) -> CharacterizedLibrary {
    let gates = generate_library(family);
    let mut sim = LeakageSimulator::new(tech.clone());
    let mut census = PatternCensus::new();
    let characterized = gates
        .into_iter()
        .map(|gate| characterize_gate(gate, &tech, &mut sim, &mut census))
        .collect();
    CharacterizedLibrary {
        family,
        tech,
        gates: characterized,
        pattern_census: census,
        simulated_patterns: sim.simulated_patterns(),
    }
}

fn characterize_gate(
    gate: Gate,
    tech: &TechParams,
    sim: &mut LeakageSimulator,
    census: &mut PatternCensus,
) -> CharacterizedGate {
    let n_vectors = 1usize << gate.n_inputs;
    let mut ioff_by_vector = Vec::with_capacity(n_vectors);
    let mut ig_by_vector = Vec::with_capacity(n_vectors);
    for v in input_vectors(gate.n_inputs) {
        let patterns = gate_off_patterns(&gate, &v);
        for p in &patterns {
            census.record(p.clone());
        }
        ioff_by_vector.push(sim.ioff_total(&patterns));
        ig_by_vector.push(tech.ig_unit * on_device_count(&gate, &v) as f64);
    }
    let ioff_avg = ioff_by_vector.iter().sum::<f64>() / n_vectors as f64;
    let ig_avg = ig_by_vector.iter().sum::<f64>() / n_vectors as f64;
    let input_caps: Vec<f64> = gate.input_capacitances(tech.c_gate, tech.c_polarity_gate);
    let alpha = gate.activity_factor();
    let c_out = gate.output_branches() as f64 * tech.c_drain;
    let drive_resistance = gate.drive_depth() as f64 * tech.r_on;
    let area = gate.transistor_count() as f64 * tech.area_per_device;
    CharacterizedGate {
        alpha,
        input_caps,
        c_out,
        drive_resistance,
        area,
        ioff_avg,
        ig_avg,
        ioff_by_vector,
        ig_by_vector,
        vdd: tech.vdd,
        gate,
    }
}

/// Exhaustive per-vector leakage *without* pattern classification — used by
/// the ablation bench to validate the pattern method's accuracy/speedup.
pub fn characterize_gate_exhaustive(gate: &Gate, tech: &TechParams) -> Vec<f64> {
    // A fresh simulator per call: no cross-gate cache, and a cleared cache
    // per vector so every vector costs a full simulation.
    let mut out = Vec::with_capacity(1usize << gate.n_inputs);
    for v in input_vectors(gate.n_inputs) {
        let mut sim = LeakageSimulator::new(tech.clone());
        let patterns = gate_off_patterns(gate, &v);
        out.push(sim.ioff_total(&patterns));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterizes_all_families() {
        for family in GateFamily::ALL {
            let lib = characterize_library(family);
            assert!(!lib.gates.is_empty());
            for g in &lib.gates {
                assert!(g.ioff_avg > 0.0, "{}: I_off must be positive", g.gate.name);
                assert!(g.ig_avg > 0.0, "{}: I_g must be positive", g.gate.name);
                assert!(g.alpha > 0.0 && g.alpha <= 0.5);
                assert_eq!(g.ioff_by_vector.len(), 1 << g.gate.n_inputs);
            }
        }
    }

    #[test]
    fn pattern_classification_is_efficient() {
        // The whole point of §3.2: far fewer simulations than input
        // vectors. The generalized library has 46 gates with up to 64
        // vectors each; the distinct-pattern count stays small.
        let lib = characterize_library(GateFamily::CntfetGeneralized);
        let total_vectors: usize = lib.gates.iter().map(|g| 1usize << g.gate.n_inputs).sum();
        assert!(total_vectors > 500);
        assert!(
            lib.pattern_census.distinct() < 40,
            "distinct patterns: {}",
            lib.pattern_census.distinct()
        );
        assert_eq!(lib.simulated_patterns, lib.pattern_census.distinct());
    }

    #[test]
    fn cmos_gate_leak_is_about_ten_percent_of_static() {
        let lib = characterize_library(GateFamily::Cmos);
        let ratio = lib.average(|g| g.ig_avg / g.ioff_avg);
        assert!(
            (0.05..=0.25).contains(&ratio),
            "CMOS P_G ≈ 10% of P_S, got ratio {ratio}"
        );
    }

    #[test]
    fn cntfet_gate_leak_is_below_one_percent() {
        let lib = characterize_library(GateFamily::CntfetGeneralized);
        let ratio = lib.average(|g| g.ig_avg / g.ioff_avg);
        assert!(ratio < 0.01, "CNTFET P_G < 1% of P_S, got {ratio}");
    }

    #[test]
    fn static_well_below_dynamic() {
        for family in GateFamily::ALL {
            let lib = characterize_library(family);
            for g in &lib.gates {
                let p = g.power_summary();
                assert!(
                    p.dynamic.value() > 5.0 * p.static_sub.value(),
                    "{family}/{}: P_D {} vs P_S {}",
                    g.gate.name,
                    p.dynamic,
                    p.static_sub
                );
            }
        }
    }

    #[test]
    fn cntfet_inverter_cap_and_power_vs_cmos() {
        let cnt = characterize_library(GateFamily::CntfetGeneralized);
        let cmos = characterize_library(GateFamily::Cmos);
        let inv_cnt = cnt.find("INV").expect("INV");
        let inv_cmos = cmos.find("INV").expect("INV");
        // Paper §4: inverter input capacitance 36 aF vs 52 aF.
        assert!((inv_cnt.input_caps[0] - 36e-18).abs() < 1e-21);
        assert!((inv_cmos.input_caps[0] - 52e-18).abs() < 1e-21);
        // And correspondingly less dynamic power at equal activity.
        let pd_ratio =
            inv_cnt.power_summary().dynamic.value() / inv_cmos.power_summary().dynamic.value();
        assert!(pd_ratio < 0.8, "CNTFET inverter P_D ratio {pd_ratio}");
    }

    #[test]
    fn average_library_power_cnt_below_cmos() {
        // The headline gate-level claim: ~28 % average total-power saving.
        // Compare the conventional cells present in both libraries.
        let cnt = characterize_library(GateFamily::CntfetConventional);
        let cmos = characterize_library(GateFamily::Cmos);
        let mut savings = Vec::new();
        for g in &cnt.gates {
            let other = cmos.find(&g.gate.name).expect("same cell set");
            savings.push(
                1.0 - g.power_summary().total().value() / other.power_summary().total().value(),
            );
        }
        let avg = savings.iter().sum::<f64>() / savings.len() as f64;
        assert!(
            (0.15..=0.45).contains(&avg),
            "average power saving should be near the paper's 28%, got {avg}"
        );
    }

    #[test]
    fn fo3_delay_cnt_faster_than_cmos() {
        let cnt = characterize_library(GateFamily::CntfetConventional);
        let cmos = characterize_library(GateFamily::Cmos);
        let d_cnt = cnt.average(|g| g.fo3_delay().value());
        let d_cmos = cmos.average(|g| g.fo3_delay().value());
        let ratio = d_cmos / d_cnt;
        assert!(
            (3.5..=7.0).contains(&ratio),
            "intrinsic speed advantage ≈5× (Deng'07), got {ratio}"
        );
    }

    #[test]
    fn exhaustive_matches_pattern_method() {
        let tech = TechParams::cmos_32nm();
        let gates = generate_library(GateFamily::Cmos);
        let nand = gates.iter().find(|g| g.name == "NAND2").expect("NAND2");
        let mut sim = LeakageSimulator::new(tech.clone());
        let mut census = PatternCensus::new();
        let fast = characterize_gate(nand.clone(), &tech, &mut sim, &mut census);
        let slow = characterize_gate_exhaustive(nand, &tech);
        for (a, b) in fast.ioff_by_vector.iter().zip(slow.iter()) {
            assert!((a / b - 1.0).abs() < 1e-9);
        }
    }
}

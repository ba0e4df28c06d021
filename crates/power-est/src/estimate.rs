//! Rolling simulated activity into the paper's power model (eq. 1–5).

use crate::simulate::ActivityReport;
use charlib::SHORT_CIRCUIT_FRACTION;
use device::{Energy, EnergyDelay, Frequency, Power, Time};
use techmap::MappedNetlist;

/// Circuit-level power breakdown.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerBreakdown {
    /// Dynamic power P_D (per-net toggle rates × net capacitance).
    pub dynamic: Power,
    /// Short-circuit power P_SC = 0.15 · P_D.
    pub short_circuit: Power,
    /// Static sub-threshold power P_S (state-weighted).
    pub static_sub: Power,
    /// Gate-leakage power P_G (state-weighted).
    pub gate_leak: Power,
    /// Operating frequency used.
    pub frequency: Frequency,
}

impl PowerBreakdown {
    /// Total power P_T.
    pub fn total(&self) -> Power {
        self.dynamic + self.short_circuit + self.static_sub + self.gate_leak
    }

    /// Energy per cycle E = P_T / f.
    fn energy_per_cycle(&self) -> Energy {
        self.total() / self.frequency
    }

    /// Energy–delay product, the paper's EDP column: (P_T/f) · delay.
    pub fn edp(&self, delay: Time) -> EnergyDelay {
        self.energy_per_cycle() * delay
    }
}

/// Estimates the power of a mapped netlist from simulated activity.
///
/// Dynamic power uses exact per-net toggle rates; leakage weights each
/// instance's per-input-state I_off/I_g by the product of its pin signal
/// probabilities (independent-input approximation, standard in probabilistic
/// power estimation).
pub fn estimate_power(
    netlist: &MappedNetlist,
    library: &charlib::CharacterizedLibrary,
    activity: &ActivityReport,
    frequency_hz: f64,
) -> PowerBreakdown {
    let vdd = library.tech.vdd;
    // Net capacitances: driver intrinsic output cap + consumer pin caps.
    let mut net_cap = vec![0.0f64; netlist.net_count()];
    for (i, inst) in netlist.instances.iter().enumerate() {
        let cell = &library.gates[inst.gate];
        net_cap[netlist.instance_output_net(i)] += cell.c_out;
        for (pin, r) in inst.inputs.iter().enumerate() {
            net_cap[r.net] += cell.input_caps[pin];
        }
    }
    // Dynamic power: α is "toggles per cycle"; one pattern = one cycle.
    let mut pd = 0.0f64;
    for (net, &cap) in net_cap.iter().enumerate() {
        pd += activity.activity(net) * cap * frequency_hz * vdd * vdd;
    }
    // State-weighted leakage.
    let mut ioff = 0.0f64;
    let mut ig = 0.0f64;
    for inst in &netlist.instances {
        let cell = &library.gates[inst.gate];
        let n = cell.gate.n_inputs;
        // Pin one-probabilities, honoring complement references.
        let probs: Vec<f64> = inst
            .inputs
            .iter()
            .map(|r| {
                let p = activity.probability(r.net);
                if r.inverted {
                    1.0 - p
                } else {
                    p
                }
            })
            .collect();
        for m in 0..(1usize << n) {
            let mut w = 1.0f64;
            for (k, &p) in probs.iter().enumerate() {
                w *= if (m >> k) & 1 == 1 { p } else { 1.0 - p };
            }
            if w == 0.0 {
                continue;
            }
            ioff += w * cell.ioff_for_state(m);
            ig += w * cell.ig_for_state(m);
        }
    }
    let dynamic = Power::new(pd);
    PowerBreakdown {
        dynamic,
        short_circuit: Power::new(SHORT_CIRCUIT_FRACTION * pd),
        static_sub: Power::new(ioff * vdd),
        gate_leak: Power::new(ig * vdd),
        frequency: Frequency::new(frequency_hz),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate_activity;
    use aig::Aig;
    use charlib::characterize_library;
    use gate_lib::GateFamily;
    use techmap::{critical_path, map_aig, MapConfig};

    fn adder_aig(bits: usize) -> Aig {
        let mut aig = Aig::new();
        let a: Vec<_> = (0..bits).map(|_| aig.input()).collect();
        let b: Vec<_> = (0..bits).map(|_| aig.input()).collect();
        let mut carry = aig::Lit::FALSE;
        for i in 0..bits {
            let axb = aig.xor(a[i], b[i]);
            let sum = aig.xor(axb, carry);
            let c1 = aig.and(a[i], b[i]);
            let c2 = aig.and(axb, carry);
            carry = aig.or(c1, c2);
            aig.output(sum);
        }
        aig.output(carry);
        aig
    }

    fn family_power(family: GateFamily, aig: &Aig) -> (PowerBreakdown, f64) {
        let lib = characterize_library(family);
        let mapped = map_aig(aig, &lib, &MapConfig::default()).expect("mapping succeeds");
        let act = simulate_activity(&mapped, &lib, 1 << 13, 11);
        let power = estimate_power(&mapped, &lib, &act, 1.0e9);
        let delay = critical_path(&mapped, &lib).critical.value();
        (power, delay)
    }

    #[test]
    fn breakdown_is_positive_and_ordered() {
        let aig = adder_aig(8);
        for family in GateFamily::ALL {
            let (p, delay) = family_power(family, &aig);
            assert!(p.dynamic.value() > 0.0);
            assert!(p.static_sub.value() > 0.0);
            assert!(p.gate_leak.value() > 0.0);
            assert!(delay > 0.0);
            // Static is well below dynamic at 1 GHz (paper: 1–2 orders).
            assert!(
                p.dynamic.value() > 5.0 * p.static_sub.value(),
                "{family}: P_D {} vs P_S {}",
                p.dynamic,
                p.static_sub
            );
            assert!(
                (p.short_circuit.value() / p.dynamic.value() - 0.15).abs() < 1e-12,
                "P_SC must be exactly the 0.15 conjecture"
            );
        }
    }

    #[test]
    fn cntfet_beats_cmos_on_power_and_edp() {
        let aig = adder_aig(8);
        let (p_gen, d_gen) = family_power(GateFamily::CntfetGeneralized, &aig);
        let (p_cmos, d_cmos) = family_power(GateFamily::Cmos, &aig);
        let pt_gen = p_gen.total().value();
        let pt_cmos = p_cmos.total().value();
        assert!(
            pt_gen < pt_cmos,
            "generalized CNTFET must dissipate less: {pt_gen} vs {pt_cmos}"
        );
        let edp_gen = p_gen.edp(device::Time::new(d_gen)).value();
        let edp_cmos = p_cmos.edp(device::Time::new(d_cmos)).value();
        let ratio = edp_cmos / edp_gen;
        assert!(ratio > 5.0, "EDP advantage should be large, got {ratio}");
    }

    #[test]
    fn cmos_static_an_order_above_cntfet() {
        let aig = adder_aig(8);
        let (p_cnt, _) = family_power(GateFamily::CntfetConventional, &aig);
        let (p_cmos, _) = family_power(GateFamily::Cmos, &aig);
        let ratio = p_cmos.static_sub.value() / p_cnt.static_sub.value();
        assert!(ratio > 5.0, "P_S ratio {ratio}");
    }

    #[test]
    fn energy_chain_consistency() {
        let aig = adder_aig(4);
        let (p, delay) = family_power(GateFamily::Cmos, &aig);
        let e = p.energy_per_cycle();
        let edp = p.edp(device::Time::new(delay));
        assert!((edp.value() - e.value() * delay).abs() < 1e-40);
    }
}

//! Load-dependent static timing analysis of mapped netlists.

use crate::netlist::MappedNetlist;
use charlib::CharacterizedLibrary;
use device::{Capacitance, Time};

/// Result of a timing analysis.
#[derive(Clone, Debug)]
pub struct StaReport {
    /// Arrival time of every net, seconds.
    pub net_arrival: Vec<f64>,
    /// Capacitive load of every net, farads.
    pub net_load: Vec<f64>,
    /// The critical-path delay (max arrival over primary outputs).
    pub critical: Time,
}

/// Computes arrival times: primary inputs arrive at t = 0, every instance
/// adds its load-dependent cell delay `0.69·R·(C_out + C_load)`.
///
/// Primary-output nets carry the library's default output load
/// ([`crate::config::default_output_load`], one inverter input
/// capacitance) in addition to any internal consumers — PO nets have no
/// consumer pins inside the netlist, and timing a driver into zero
/// farads would systematically underestimate the critical path. Use
/// [`critical_path_with_load`] for an explicit per-output load.
pub fn critical_path(netlist: &MappedNetlist, library: &CharacterizedLibrary) -> StaReport {
    critical_path_with_load(
        netlist,
        library,
        crate::config::default_output_load(library),
    )
}

/// [`critical_path`] with an explicit primary-output load in farads,
/// charged once per output tap on the driving net.
pub fn critical_path_with_load(
    netlist: &MappedNetlist,
    library: &CharacterizedLibrary,
    output_load: f64,
) -> StaReport {
    let n = netlist.net_count();
    // Net loads: sum of consumer pin capacitances, plus the configured
    // load per primary-output tap.
    let mut net_load = vec![0.0f64; n];
    for inst in &netlist.instances {
        let cell = &library.gates[inst.gate];
        for (pin, r) in inst.inputs.iter().enumerate() {
            net_load[r.net] += cell.input_caps[pin];
        }
    }
    for r in netlist.outputs() {
        net_load[r.net] += output_load;
    }
    // Arrival propagation (instances are topologically ordered).
    let mut net_arrival = vec![0.0f64; n];
    for (i, inst) in netlist.instances.iter().enumerate() {
        let cell = &library.gates[inst.gate];
        let out_net = netlist.instance_output_net(i);
        let input_arrival = inst
            .inputs
            .iter()
            .map(|r| net_arrival[r.net])
            .fold(0.0f64, f64::max);
        let delay = cell.delay(Capacitance::new(net_load[out_net])).value();
        net_arrival[out_net] = input_arrival + delay;
    }
    let critical = netlist
        .outputs()
        .iter()
        .map(|r| net_arrival[r.net])
        .fold(0.0f64, f64::max);
    StaReport {
        net_arrival,
        net_load,
        critical: Time::new(critical),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MapConfig;
    use crate::mapper::map_aig;
    use aig::Aig;
    use charlib::{characterize_library, CharacterizedLibrary};
    use gate_lib::GateFamily;

    fn map_default(aig: &Aig, library: &CharacterizedLibrary) -> MappedNetlist {
        map_aig(aig, library, &MapConfig::default()).expect("default mapping succeeds")
    }

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

    #[test]
    fn arrival_increases_along_carry_chain() {
        let aig = adder_aig(6);
        let lib = characterize_library(GateFamily::Cmos);
        let mapped = map_default(&aig, &lib);
        let report = critical_path(&mapped, &lib);
        assert!(report.critical.value() > 0.0);
        // Sum bit arrivals must be non-decreasing with bit index (the
        // carry chain dominates).
        let arrivals: Vec<f64> = mapped
            .outputs()
            .iter()
            .take(6)
            .map(|r| report.net_arrival[r.net])
            .collect();
        assert!(
            arrivals.windows(2).all(|w| w[1] >= w[0] - 1e-15),
            "{arrivals:?}"
        );
    }

    #[test]
    fn cntfet_mapping_is_faster_than_cmos() {
        let aig = adder_aig(8);
        let cnt = characterize_library(GateFamily::CntfetConventional);
        let cmos = characterize_library(GateFamily::Cmos);
        let d_cnt = critical_path(&map_default(&aig, &cnt), &cnt)
            .critical
            .value();
        let d_cmos = critical_path(&map_default(&aig, &cmos), &cmos)
            .critical
            .value();
        let ratio = d_cmos / d_cnt;
        assert!(
            ratio > 3.0,
            "CNTFET should be markedly faster (Deng'07 ≈5×), got {ratio}"
        );
    }

    #[test]
    fn generalized_mapping_cuts_depth_on_parity() {
        let mut aig = Aig::new();
        let xs: Vec<_> = (0..16).map(|_| aig.input()).collect();
        let p = aig.xor_many(&xs);
        aig.output(p);
        let gen = characterize_library(GateFamily::CntfetGeneralized);
        let conv = characterize_library(GateFamily::CntfetConventional);
        let d_gen = critical_path(&map_default(&aig, &gen), &gen)
            .critical
            .value();
        let d_conv = critical_path(&map_default(&aig, &conv), &conv)
            .critical
            .value();
        assert!(
            d_gen < d_conv,
            "generalized XOR cells shorten the parity tree: {d_gen} vs {d_conv}"
        );
    }

    #[test]
    fn loads_are_positive_for_driven_nets() {
        let aig = adder_aig(4);
        let lib = characterize_library(GateFamily::CntfetGeneralized);
        let mapped = map_default(&aig, &lib);
        let report = critical_path(&mapped, &lib);
        // Every net consumed by some instance has positive load.
        for inst in &mapped.instances {
            for r in &inst.inputs {
                assert!(report.net_load[r.net] > 0.0);
            }
        }
    }
}

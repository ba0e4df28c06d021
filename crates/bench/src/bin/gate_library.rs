//! Regenerates the §4 **gate-level library characterization**: the 46-cell
//! generalized ambipolar library with per-cell power breakdowns, and the
//! CNTFET-vs-CMOS comparison the paper summarizes as "28 % less power on
//! average".

use ambipolar::engine;
use ambipolar::experiments::gate_library_comparison;
use bench::BenchArgs;
use gate_lib::GateFamily;

fn main() {
    BenchArgs::parse("gate_library");
    for family in GateFamily::ALL {
        let lib = engine::library(family);
        println!(
            "=== {} — {} cells, {} distinct I_off patterns simulated ===",
            family,
            lib.gates.len(),
            lib.simulated_patterns
        );
        println!(
            "{:<12} {:>3} {:>5} {:>6} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "cell", "in", "T", "alpha", "Cin(aF)", "Ioff(nA)", "Ig(pA)", "PD(nW)", "PT(nW)"
        );
        for g in &lib.gates {
            let p = g.power_summary();
            println!(
                "{:<12} {:>3} {:>5} {:>6.3} {:>8.1} {:>9.3} {:>9.3} {:>9.2} {:>9.2}",
                g.gate.name,
                g.gate.n_inputs,
                g.gate.transistor_count(),
                g.alpha,
                g.avg_input_cap().value() * 1e18,
                g.ioff_avg * 1e9,
                g.ig_avg * 1e12,
                p.dynamic.value() * 1e9,
                p.total().value() * 1e9,
            );
        }
        println!(
            "library average total gate power: {}",
            lib.average_total_power()
        );
        println!();
    }
    println!("{}", gate_library_comparison());
}

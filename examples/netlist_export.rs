//! Exports mapped netlists and cell schematics in interchange formats:
//! structural Verilog for the mapped circuit, a genlib view of the
//! characterized library, and a SPICE subcircuit of the paper's flagship
//! GNAND2 cell (Fig. 3 as text).
//!
//! ```text
//! cargo run --release --example netlist_export
//! ```

use ambipolar::engine;
use charlib::gate_to_spice;
use charlib::genlib::gate_to_genlib;
use gate_lib::GateFamily;
use techmap::{cell_histogram, map_aig, to_structural_verilog, MapConfig};

fn main() {
    let bench = bench_circuits::benchmark_by_name("C1355").expect("C1355 exists");
    let synthesized = aig::synthesize(&bench.aig);
    let library = engine::library(GateFamily::CntfetGeneralized);
    let mapped = map_aig(&synthesized, library, &MapConfig::default()).expect("mapping succeeds");

    println!(
        "=== cell histogram of {} mapped with the generalized library ===",
        bench.name
    );
    for (name, count) in cell_histogram(&mapped, library) {
        println!("  {count:>5} × {name}");
    }

    println!("\n=== structural Verilog (first 14 lines) ===");
    let verilog = to_structural_verilog(&mapped, library, "c1355_gen");
    for line in verilog.lines().take(14) {
        println!("{line}");
    }
    println!("  … ({} lines total)", verilog.lines().count());

    let gnand = library.find("GNAND2").expect("GNAND2 exists");
    println!("\n=== genlib line ===\n{}", gate_to_genlib(gnand));
    println!(
        "\n=== SPICE subcircuit of GNAND2 (Fig. 3) ===\n{}",
        gate_to_spice(&gnand.gate)
    );
}

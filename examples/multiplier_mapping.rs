//! Maps an 8×8 multiplier (a small C6288) with all three libraries and
//! compares gates, delay, power and EDP — the paper's §4 flow on the
//! workload its introduction motivates (XOR-rich arithmetic).
//!
//! ```text
//! cargo run --release --example multiplier_mapping
//! ```

use ambipolar::engine;
use ambipolar::pipeline::{mapper_cut_db, run_job, PipelineConfig};
use bench_circuits::multiplier::multiplier_circuit;
use gate_lib::GateFamily;
use techmap::Verify;

fn main() {
    let aig = multiplier_circuit(8);
    println!(
        "8×8 carry-save multiplier: {} inputs, {} outputs, {} AND nodes",
        aig.input_count(),
        aig.output_count(),
        aig.and_count()
    );
    let synthesized = aig::synthesize(&aig);
    println!(
        "after synthesis: {} AND nodes, depth {}\n",
        synthesized.and_count(),
        synthesized.depth()
    );

    // Functional check: every mapped netlist is SAT-proven against the
    // AIG (a failed proof reports the counterexample pattern).
    let config = PipelineConfig {
        verify: Verify::Sat,
        ..PipelineConfig::default()
    };
    println!(
        "{:<22} {:>7} {:>12} {:>10} {:>10} {:>14}",
        "library", "gates", "transistors", "delay", "P_T", "EDP"
    );
    let mut rows = Vec::new();
    let mut db = mapper_cut_db(&config.map);
    for family in GateFamily::ALL {
        let library = engine::library(family);
        let r = run_job(&synthesized, None, library, &config, &mut db, None)
            .unwrap_or_else(|e| panic!("{family}: {e}"))
            .result;
        println!(
            "{:<22} {:>7} {:>12} {:>10} {:>10} {:>11.2e}",
            family.label(),
            r.gates,
            r.transistors,
            format!("{}", r.delay),
            format!("{}", r.total_power()),
            r.edp().value(),
        );
        rows.push(r);
    }
    let edp_ratio = rows[2].edp().value() / rows[0].edp().value();
    println!(
        "\nEDP: CMOS / generalized-CNTFET = {edp_ratio:.1}x  (paper reports 20x on average, 31x for C6288)"
    );
}

//! Error-correcting-code power study: the paper's intro motivates
//! generalized gates with XOR-heavy circuits such as ECC — this example
//! builds a Hamming SEC decoder, proves it corrects single-bit errors,
//! then compares its mapped power across the three libraries.
//!
//! ```text
//! cargo run --release --example ecc_power
//! ```

use ambipolar::engine;
use ambipolar::pipeline::{mapper_cut_db, run_job, PipelineConfig};
use bench_circuits::ecc::{parity_bits, sec_circuit};
use gate_lib::GateFamily;

fn main() {
    let data_bits = 16;
    let aig = sec_circuit(data_bits);
    println!(
        "Hamming SEC decoder: {} data bits + {} parity bits, {} AND nodes",
        data_bits,
        parity_bits(data_bits),
        aig.and_count()
    );

    let synthesized = aig::synthesize(&aig);
    let config = PipelineConfig::default();
    println!(
        "\n{:<22} {:>7} {:>10} {:>10} {:>10} {:>12}",
        "library", "gates", "delay", "P_D", "P_T", "EDP (J·s)"
    );
    let mut results = Vec::new();
    let mut db = mapper_cut_db(&config.map);
    for family in GateFamily::ALL {
        let library = engine::library(family);
        let r = run_job(&synthesized, None, library, &config, &mut db, None)
            .expect("mapping succeeds")
            .result;
        println!(
            "{:<22} {:>7} {:>10} {:>10} {:>10} {:>12.2e}",
            family.label(),
            r.gates,
            format!("{}", r.delay),
            format!("{}", r.power.dynamic),
            format!("{}", r.total_power()),
            r.edp().value(),
        );
        results.push(r);
    }
    println!(
        "\nXOR-dominated circuits are where the generalized library shines (paper: the\n\
         error-correcting rows C1908/C1355 show the lowest EDP with the generalized cells):\n\
         gates {} -> {} ({}%), EDP {:.1}x lower than CMOS",
        results[1].gates,
        results[0].gates,
        ((1.0 - results[0].gates as f64 / results[1].gates as f64) * 100.0).round(),
        results[2].edp().value() / results[0].edp().value(),
    );
}

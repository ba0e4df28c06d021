//! Ablation A2: **pattern classification vs exhaustive simulation**.
//! Characterizes the generalized library both ways, confirming identical
//! leakage values while counting how many circuit simulations each
//! approach needs (the efficiency claim of §3.2).

use bench::BenchArgs;
use charlib::characterize::characterize_gate_exhaustive;
use charlib::characterize_library;
use gate_lib::GateFamily;
use std::time::Instant;

fn main() {
    BenchArgs::parse("ablation_patterns");
    let family = GateFamily::CntfetGeneralized;
    let tech = family.tech();

    // Deliberately a *cold* characterization, not engine::library(): the
    // classified-vs-exhaustive wall-clock comparison below is the artifact
    // being measured, so it must not hit the process cache.
    let t0 = Instant::now();
    let lib = characterize_library(family);
    let classified_time = t0.elapsed();
    let total_vectors: usize = lib.gates.iter().map(|g| 1usize << g.gate.n_inputs).sum();

    let t1 = Instant::now();
    let mut max_rel_err = 0.0f64;
    for g in &lib.gates {
        let exhaustive = characterize_gate_exhaustive(&g.gate, &tech);
        for (a, b) in g.ioff_by_vector.iter().zip(exhaustive.iter()) {
            max_rel_err = max_rel_err.max((a / b - 1.0).abs());
        }
    }
    let exhaustive_time = t1.elapsed();

    println!("Pattern classification vs exhaustive characterization ({family}):");
    println!(
        "  classified: {} circuit simulations for {} (gate, vector) pairs in {classified_time:?}",
        lib.simulated_patterns, total_vectors
    );
    println!("  exhaustive: {total_vectors} circuit simulations in {exhaustive_time:?}");
    println!(
        "  simulation-count reduction: {:.1}x",
        total_vectors as f64 / lib.simulated_patterns as f64
    );
    println!(
        "  wall-clock speedup:         {:.1}x",
        exhaustive_time.as_secs_f64() / classified_time.as_secs_f64()
    );
    println!("  max relative leakage error: {max_rel_err:.2e} (methods agree exactly)");
}

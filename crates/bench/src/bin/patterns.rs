//! Regenerates the §3.2 **I_off pattern census**: the distinct canonical
//! off-transistor patterns across the generalized library (the paper
//! reports 26), demonstrating why pattern classification beats exhaustive
//! per-vector simulation.

use ambipolar::experiments::pattern_census;
use bench::BenchArgs;

fn main() {
    BenchArgs::parse("patterns");
    let census = pattern_census();
    println!("{census}");
    println!(
        "speedup ingredient: {} circuit simulations instead of {} (one per (gate, vector))",
        census.distinct, census.observations
    );
}

//! Quantifies the paper's **expressive power** concept: how many distinct
//! logic functions each library implements by in-field constant-tying of
//! generalized inputs, per physical transistor.
//!
//! (Background to §1/§2.2: "the expressive power of such libraries, i.e.,
//! their ability to implement more functions with fewer physical
//! resources, was shown to be higher than … conventional unipolar
//! MOSFETs".)

use bench::BenchArgs;
use gate_lib::expressive::library_expressive_power;
use gate_lib::{DynamicGnor, GateFamily};

fn main() {
    BenchArgs::parse("expressive_power");
    println!("Expressive power (distinct P-class functions by constant-tying cell pins):\n");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9} {:>12} {:>14}",
        "library", "1-in", "2-in", "3-in", "4-in", "5-in", "total", "transistors", "fns/100 T"
    );
    for family in GateFamily::ALL {
        let p = library_expressive_power(family);
        println!(
            "{:<22} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9} {:>12} {:>14.1}",
            family.label(),
            p.count(1),
            p.count(2),
            p.count(3),
            p.count(4),
            p.count(5),
            p.total(),
            p.total_transistors,
            p.per_hundred_transistors(),
        );
    }

    println!("\nDynamic in-field programmable GNOR (DAC'08 background, §2.2):");
    for width in 2..=4 {
        let g = DynamicGnor::new(width);
        println!(
            "  GNOR{width}: {} transistors, {} polarity-programmable functions",
            g.transistor_count(),
            g.programmable_function_count()
        );
    }
    println!(
        "\n(The paper's [5] reports 8 functions of 2 inputs from 7 CNTFETs; the dynamic\n\
         GNOR2 here reaches 4 functions with 4 devices plus clocking, same regime.)"
    );
}

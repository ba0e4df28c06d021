//! The Fig. 2 study: a CNTFET transmission gate passes either rail without
//! degradation for every conducting input configuration (`A ⊕ B = 1`),
//! plus the Fig. 4 leakage asymmetry between parallel and series
//! off-transistor patterns.
//!
//! ```text
//! cargo run --release --example transmission_gate
//! ```

use ambipolar::experiments::fig4_study;
use device::{AmbipolarCntfet, PolarityConfig, TechParams};
use spice_lite::{Circuit, GROUND};

fn main() {
    let tech = TechParams::cntfet_32nm();
    let dev = AmbipolarCntfet::new(&tech);

    println!("Fig. 2 — transmission-gate transfer (V_X driven through the TG):");
    println!(
        "{:<8} {:<8} {:<12} {:>12} {:>14}",
        "A", "B", "drive", "V_out", "verdict"
    );
    // TG: device 1 has polarity gate A, gate B; device 2 the complements.
    for (a, b) in [(true, false), (false, true), (true, true), (false, false)] {
        for drive_high in [true, false] {
            let v = |bit: bool| if bit { tech.vdd } else { 0.0 };
            let mut ckt = Circuit::new();
            let vin = ckt.node();
            let out = ckt.node();
            ckt.add_vsource("VIN", vin, GROUND, v(drive_high));
            let pg_a = ckt.node();
            let pg_an = ckt.node();
            let g_b = ckt.node();
            let g_bn = ckt.node();
            ckt.add_vsource("VA", pg_a, GROUND, v(a));
            ckt.add_vsource("VAN", pg_an, GROUND, v(!a));
            ckt.add_vsource("VB", g_b, GROUND, v(b));
            ckt.add_vsource("VBN", g_bn, GROUND, v(!b));
            // Device 1: polarity per A, conventional gate B.
            let m1 = dev.configured(if a {
                PolarityConfig::PType
            } else {
                PolarityConfig::NType
            });
            let m2 = dev.configured(if !a {
                PolarityConfig::PType
            } else {
                PolarityConfig::NType
            });
            let _ = (pg_a, pg_an); // polarity encoded in the configured model
            ckt.add_transistor("M1", m1, out, g_b, vin);
            ckt.add_transistor("M2", m2, out, g_bn, vin);
            // Weak load representing the next stage input.
            ckt.add_resistor("RL", out, GROUND, 1.0e9);
            let op = ckt.solve_dc().expect("TG circuit converges");
            let vout = op.voltage(out);
            let conducting = a ^ b;
            let verdict = if conducting {
                let target = v(drive_high);
                if (vout - target).abs() < 0.05 * tech.vdd {
                    "good transmission"
                } else {
                    "DEGRADED"
                }
            } else {
                "blocking"
            };
            println!(
                "{:<8} {:<8} {:<12} {:>10.3} V {:>16}",
                u8::from(a),
                u8::from(b),
                if drive_high { "V_DD" } else { "V_SS" },
                vout,
                verdict
            );
        }
    }

    println!("\nFig. 4 — off-pattern leakage asymmetry:");
    for tech in [TechParams::cmos_32nm(), TechParams::cntfet_32nm()] {
        println!("  {}", fig4_study(&tech));
    }
}

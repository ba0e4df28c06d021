//! Regenerates the **Fig. 4** study: input-vector dependence of a 3-input
//! NOR's leakage — three parallel off-transistors ([0 0 0]) versus three
//! in series ([1 1 1]) — plus a stack-depth sweep showing the underlying
//! stack effect.

use ambipolar::experiments::fig4_study;
use bench::BenchArgs;
use charlib::{LeakageSimulator, OffPattern};
use device::units::eng;
use device::TechParams;

fn main() {
    BenchArgs::parse("fig4_leakage");
    for tech in [TechParams::cmos_32nm(), TechParams::cntfet_32nm()] {
        println!("{}", fig4_study(&tech));
    }
    println!();
    println!("Stack-effect sweep (leakage of N series off-devices, normalized to N = 1):");
    println!("{:<10} {:>14} {:>14} {:>10}", "depth", "CMOS", "CNTFET", "");
    let mut cmos = LeakageSimulator::new(TechParams::cmos_32nm());
    let mut cnt = LeakageSimulator::new(TechParams::cntfet_32nm());
    let single_cmos = cmos.ioff(&OffPattern::Device);
    let single_cnt = cnt.ioff(&OffPattern::Device);
    for depth in 1..=4usize {
        let pattern = OffPattern::series(vec![OffPattern::Device; depth.max(1)]);
        let pattern = if depth == 1 {
            OffPattern::Device
        } else {
            pattern
        };
        let i_cmos = cmos.ioff(&pattern);
        let i_cnt = cnt.ioff(&pattern);
        println!(
            "{:<10} {:>14} {:>14}   ({:.3} / {:.3} of single)",
            depth,
            eng(i_cmos, "A"),
            eng(i_cnt, "A"),
            i_cmos / single_cmos,
            i_cnt / single_cnt,
        );
    }
}

//! Seeded mixed-logic generators — the `i8`/`i10`/`t481` stand-ins
//! ("logic" rows of Table 1).
//!
//! These MCNC circuits are unstructured multi-level logic. The stand-ins
//! are deterministic (seeded) DAGs mixing AND/OR/XOR operators in the
//! proportions typical of control logic, over comparator and parity
//! scaffolds, so the mapper sees realistic mixed-polarity cones.

use crate::words::{equal, less_than, parity, Word};
use aig::{Aig, Lit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `i10`-class block: large mixed logic with comparators and parity.
pub fn i10_circuit() -> Aig {
    let mut aig = base_with_datapath(48);
    let extra = logic_glue(&mut aig, 2800, 0x0010_1055, 25);
    for l in extra {
        aig.output(l);
    }
    aig.cleanup()
}

/// The `i8`-class block: medium mixed logic with decoders.
pub fn i8_circuit() -> Aig {
    let mut aig = base_with_datapath(32);
    let extra = logic_glue(&mut aig, 1700, 0x0008_0855, 20);
    for l in extra {
        aig.output(l);
    }
    aig.cleanup()
}

/// The `t481`-class block: a single 16-input output cone. The output
/// XOR-combines many late nets so the cone spans most of the block (the
/// real t481 is a dense single-output function).
pub fn t481_circuit() -> Aig {
    let mut rng = StdRng::seed_from_u64(0x0481);
    let mut aig = Aig::new();
    let inputs: Vec<Lit> = (0..16).map(|_| aig.input()).collect();
    let mut nets: Vec<Lit> = inputs.clone();
    for _ in 0..1600 {
        let pick = |rng: &mut StdRng, nets: &[Lit]| {
            let l = nets[rng.gen_range(0..nets.len())];
            if rng.gen_bool(0.3) {
                l.not()
            } else {
                l
            }
        };
        let a = pick(&mut rng, &nets);
        let b = pick(&mut rng, &nets);
        let roll = rng.gen_range(0..100u32);
        let f = if roll < 18 {
            aig.xor(a, b)
        } else if roll < 55 {
            aig.and(a, b)
        } else {
            aig.or(a, b)
        };
        nets.push(f);
    }
    // Wide output: XOR of a dozen late nets.
    let half = nets.len() / 2;
    let taps: Vec<Lit> = (0..12)
        .map(|_| nets[rng.gen_range(half..nets.len())])
        .collect();
    let out = aig.xor_many(&taps);
    aig.output(out);
    aig.cleanup()
}

/// Shared scaffold: datapath-flavoured comparisons over the inputs.
fn base_with_datapath(inputs: usize) -> Aig {
    let mut aig = Aig::new();
    let ins: Vec<Lit> = (0..inputs).map(|_| aig.input()).collect();
    let half = inputs / 2;
    let a = Word(ins[..half].to_vec());
    let b = Word(ins[half..].to_vec());
    let eq = equal(&mut aig, &a, &b);
    let lt = less_than(&mut aig, &a, &b);
    let pa = parity(&mut aig, &a);
    let pb = parity(&mut aig, &b);
    let px = aig.xor(pa, pb);
    aig.output(eq);
    aig.output(lt);
    aig.output(px);
    aig
}

/// Adds seeded glue logic over the existing nodes, returning output picks.
fn logic_glue(aig: &mut Aig, operators: usize, seed: u64, xor_percent: u32) -> Vec<Lit> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nets: Vec<Lit> = (0..aig.input_count())
        .map(|i| {
            let node = aig.input_nodes()[i];
            Lit::new(node, false)
        })
        .collect();
    for _ in 0..operators {
        let a = nets[rng.gen_range(0..nets.len())];
        let b = nets[rng.gen_range(0..nets.len())];
        let roll = rng.gen_range(0..100u32);
        let f = if roll < xor_percent {
            aig.xor(a, b)
        } else if roll < 60 {
            aig.and(a, b.not())
        } else {
            aig.or(a, b)
        };
        nets.push(f);
    }
    // XOR-combine late nets into live output candidates, skipping any pick
    // that folds to a constant under strashing.
    let half = nets.len() / 2;
    let wanted = 24.min(operators / 20);
    let mut outs = Vec::with_capacity(wanted);
    while outs.len() < wanted {
        let a = nets[rng.gen_range(half..nets.len())];
        let b = nets[rng.gen_range(0..nets.len())];
        let o = aig.xor(a, b);
        if o.node() != 0 {
            outs.push(o);
        }
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_blocks_have_expected_interfaces() {
        let i10 = i10_circuit();
        assert_eq!(i10.input_count(), 48);
        assert!(i10.output_count() >= 20);
        assert!(i10.and_count() > 300);

        let i8c = i8_circuit();
        assert_eq!(i8c.input_count(), 32);
        assert!(i8c.and_count() > 200);

        let t481 = t481_circuit();
        assert_eq!(t481.input_count(), 16);
        assert_eq!(t481.output_count(), 1);
        assert!(t481.and_count() > 100);
    }

    #[test]
    fn outputs_are_live() {
        // The single t481 output must not be constant: across 64 varied
        // random patterns it should produce both polarities.
        let t481 = t481_circuit();
        let mut seed = 0x5eed_1234_u64;
        let inputs: Vec<u64> = (0..16)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            })
            .collect();
        let out = aig::simulate64(&t481, &inputs)[0];
        assert!(
            out != 0 && out != u64::MAX,
            "t481 output looks constant: {out:#x}"
        );
    }
}

//! Seeded mixed-logic generators — the `i8`/`i10`/`t481` stand-ins
//! ("logic" rows of Table 1).
//!
//! These MCNC circuits are unstructured multi-level logic. The stand-ins
//! are deterministic (seeded) DAGs mixing AND/OR/XOR/MUX operators in the
//! proportions typical of control logic, plus decoders and comparators,
//! so the mapper sees realistic mixed-polarity cones.

use crate::words::{equal, less_than, parity, Word};
use aig::{Aig, Lit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a mixed-logic block.
#[derive(Clone, Copy, Debug)]
pub struct LogicBlockSpec {
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Internal operator count before synthesis.
    pub operators: usize,
    /// RNG seed (fixes the circuit).
    pub seed: u64,
    /// XOR share in percent (the "binate-ness" of the block).
    pub xor_percent: u32,
}

/// Generates a deterministic mixed-logic DAG.
pub fn logic_block(spec: LogicBlockSpec) -> Aig {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut aig = Aig::new();
    let inputs: Vec<Lit> = (0..spec.inputs).map(|_| aig.input()).collect();
    let mut nets: Vec<Lit> = inputs.clone();
    for _ in 0..spec.operators {
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
        let f = if roll < spec.xor_percent {
            aig.xor(a, b)
        } else if roll < spec.xor_percent + 35 {
            aig.and(a, b)
        } else if roll < spec.xor_percent + 70 {
            aig.or(a, b)
        } else {
            let s = pick(&mut rng, &nets);
            aig.mux(s, a, b)
        };
        nets.push(f);
    }
    // Outputs: XOR-combine several late nets so every output cone is wide
    // and live (a single random tap can collapse under strashing); retry
    // picks that fold to a constant.
    let half = nets.len() / 2;
    for _ in 0..spec.outputs {
        let mut o = Lit::FALSE;
        for _ in 0..16 {
            let a = nets[rng.gen_range(half..nets.len())];
            let b = nets[rng.gen_range(half..nets.len())];
            let c = nets[rng.gen_range(0..nets.len())];
            let t = aig.xor(a, b);
            o = aig.xor(t, c);
            if o.node() != 0 {
                break;
            }
        }
        assert!(o.node() != 0, "could not build a non-constant output");
        aig.output(o);
    }
    aig.cleanup()
}

/// The `i10`-class block: large mixed logic with comparators and parity.
pub fn i10_circuit() -> Aig {
    let mut aig = base_with_datapath(48, 0x1010, 30);
    let extra = logic_glue(&mut aig, 2800, 0x0010_1055, 25);
    for l in extra {
        aig.output(l);
    }
    aig.cleanup()
}

/// The `i8`-class block: medium mixed logic with decoders.
pub fn i8_circuit() -> Aig {
    let mut aig = base_with_datapath(32, 0x0808, 20);
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
fn base_with_datapath(inputs: usize, seed: u64, xor_percent: u32) -> Aig {
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
    let _ = (seed, xor_percent);
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
    fn blocks_are_deterministic() {
        let spec = LogicBlockSpec {
            inputs: 12,
            outputs: 6,
            operators: 100,
            seed: 42,
            xor_percent: 25,
        };
        let a = logic_block(spec);
        let b = logic_block(spec);
        assert_eq!(a.and_count(), b.and_count());
        assert_eq!(
            aig::check_equivalence(&a, &b),
            Ok(aig::Equivalence::Equal),
            "same seed ⇒ same function"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            logic_block(LogicBlockSpec {
                inputs: 12,
                outputs: 6,
                operators: 100,
                seed,
                xor_percent: 25,
            })
        };
        let a = mk(1);
        let b = mk(2);
        assert_ne!(aig::check_equivalence(&a, &b), Ok(aig::Equivalence::Equal));
    }

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

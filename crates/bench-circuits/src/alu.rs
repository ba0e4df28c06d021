//! Parameterized ALU-with-control generators — the C2670/C3540/C5315/
//! C7552/dalu stand-ins.

use crate::words::{
    any, bitwise, equal, less_than, mux_word, parity, ripple_add, ripple_sub, select, shift_left,
    Word,
};
use aig::{Aig, Lit};

/// Builds an ALU datapath: eight operations selected by a 3-bit opcode.
///
/// Operations: ADD, SUB, AND, OR, XOR, NOR, shift-left-1, pass-B-muxed.
/// Returns the result word plus (zero, carry, parity) flags.
fn alu_core(aig: &mut Aig, a: &Word, b: &Word, op: &Word, cin: Lit) -> (Word, Vec<Lit>) {
    assert_eq!(op.len(), 3, "opcode is three bits");
    let (add, carry_add) = ripple_add(aig, a, b, cin);
    let (sub, carry_sub) = ripple_sub(aig, a, b);
    let and = bitwise(aig, a, b, |g, x, y| g.and(x, y));
    let or = bitwise(aig, a, b, |g, x, y| g.or(x, y));
    let xor = bitwise(aig, a, b, |g, x, y| g.xor(x, y));
    let nor = bitwise(aig, a, b, |g, x, y| g.or(x, y).not());
    let shl = shift_left(a, 1);
    let pass = mux_word(aig, cin, b, a);
    let result = select(aig, op, &[add, sub, and, or, xor, nor, shl, pass]);
    let zero = any(aig, &result).not();
    let carry = aig.mux(op.bit(0), carry_sub, carry_add);
    let par = parity(aig, &result);
    (result, vec![zero, carry, par])
}

/// ALU-and-control benchmark: the datapath plus a control block
/// (comparators, decode, condition logic) proportional to the width.
pub fn alu_control_circuit(width: usize) -> Aig {
    let mut aig = Aig::new();
    let a = Word::inputs(&mut aig, width);
    let b = Word::inputs(&mut aig, width);
    let op = Word::inputs(&mut aig, 3);
    let cin = aig.input();
    let (result, flags) = alu_core(&mut aig, &a, &b, &op, cin);
    result.output(&mut aig);
    for f in flags {
        aig.output(f);
    }
    // Control section: comparisons and decoded conditions.
    let eq = equal(&mut aig, &a, &b);
    let lt = less_than(&mut aig, &a, &b);
    aig.output(eq);
    aig.output(lt);
    // Branch-condition decode: cond[i] = f(eq, lt, op bits).
    for i in 0..4usize {
        let x = if i & 1 == 1 { eq } else { eq.not() };
        let y = if i & 2 == 2 { lt } else { lt.not() };
        let t1 = aig.and(x, y);
        let cond = aig.mux(op.bit(i % 3), t1, x);
        aig.output(cond);
    }
    aig
}

/// ALU-and-selector benchmark (C5315 class): ALU plus a bank selector
/// choosing among four rotated/masked views of the result.
pub fn alu_selector_circuit(width: usize) -> Aig {
    let mut aig = Aig::new();
    let a = Word::inputs(&mut aig, width);
    let b = Word::inputs(&mut aig, width);
    let op = Word::inputs(&mut aig, 3);
    let sel = Word::inputs(&mut aig, 2);
    let cin = aig.input();
    let (result, flags) = alu_core(&mut aig, &a, &b, &op, cin);
    let masked = bitwise(&mut aig, &result, &a, |g, x, y| g.and(x, y));
    let flipped = Word(result.0.iter().map(|l| l.not()).collect());
    let shifted = shift_left(&result, 2);
    let view = select(&mut aig, &sel, &[result, masked, flipped, shifted]);
    view.output(&mut aig);
    for f in flags {
        aig.output(f);
    }
    aig
}

/// Dedicated ALU (the MCNC `dalu` class): add/sub-centric with zero-detect
/// per nibble and saturation-style condition outputs.
pub fn dedicated_alu_circuit(width: usize) -> Aig {
    let mut aig = Aig::new();
    let a = Word::inputs(&mut aig, width);
    let b = Word::inputs(&mut aig, width);
    let mode = aig.input(); // 0 = add, 1 = sub
    let (add, c_add) = ripple_add(&mut aig, &a, &b, Lit::FALSE);
    let (sub, c_sub) = ripple_sub(&mut aig, &a, &b);
    let result = mux_word(&mut aig, mode, &sub, &add);
    result.output(&mut aig);
    let carry = aig.mux(mode, c_sub, c_add);
    aig.output(carry);
    // Per-nibble zero detectors (control-flavoured outputs).
    for chunk in result.0.chunks(4) {
        let nz = aig.or_many(chunk);
        aig.output(nz.not());
    }
    // Sign comparison network.
    let lt = less_than(&mut aig, &a, &b);
    let eq = equal(&mut aig, &a, &b);
    aig.output(lt);
    aig.output(eq);
    aig
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::sim::evaluate;

    fn encode(width: usize, a: u64, b: u64, op: u64, cin: bool) -> Vec<bool> {
        let mut v = Vec::new();
        for i in 0..width {
            v.push((a >> i) & 1 == 1);
        }
        for i in 0..width {
            v.push((b >> i) & 1 == 1);
        }
        for i in 0..3 {
            v.push((op >> i) & 1 == 1);
        }
        v.push(cin);
        v
    }

    fn word_value(bits: &[bool]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
    }

    #[test]
    fn alu_operations_are_correct() {
        let width = 6;
        let aig = alu_control_circuit(width);
        let mask = (1u64 << width) - 1;
        let cases = [(13u64, 27u64), (0, 0), (mask, 1), (42, 42)];
        for &(a, b) in &cases {
            for op in 0..8u64 {
                let out = evaluate(&aig, &encode(width, a, b, op, false));
                let result = word_value(&out[..width]);
                let expected = match op {
                    0 => (a + b) & mask,
                    1 => a.wrapping_sub(b) & mask,
                    2 => a & b,
                    3 => a | b,
                    4 => a ^ b,
                    5 => !(a | b) & mask,
                    6 => (a << 1) & mask,
                    _ => a, // pass with cin = 0 selects a
                };
                assert_eq!(result, expected, "op {op} on {a},{b}");
                // Zero flag.
                assert_eq!(out[width], result == 0, "zero flag op {op} {a},{b}");
                // Parity flag.
                assert_eq!(
                    out[width + 2],
                    result.count_ones() % 2 == 1,
                    "parity flag op {op} {a},{b}"
                );
            }
        }
    }

    #[test]
    fn control_comparators() {
        let width = 6;
        let aig = alu_control_circuit(width);
        for (a, b) in [(5u64, 9u64), (9, 5), (7, 7)] {
            let out = evaluate(&aig, &encode(width, a, b, 0, false));
            assert_eq!(out[width + 3], a == b, "eq {a},{b}");
            assert_eq!(out[width + 4], a < b, "lt {a},{b}");
        }
    }

    #[test]
    fn dedicated_alu_adds_and_subtracts() {
        let width = 8;
        let aig = dedicated_alu_circuit(width);
        let mask = (1u64 << width) - 1;
        for (a, b) in [(100u64, 55u64), (3, 200), (0, 0)] {
            for mode in [false, true] {
                let mut inputs = Vec::new();
                for i in 0..width {
                    inputs.push((a >> i) & 1 == 1);
                }
                for i in 0..width {
                    inputs.push((b >> i) & 1 == 1);
                }
                inputs.push(mode);
                let out = evaluate(&aig, &inputs);
                let result = word_value(&out[..width]);
                let expected = if mode {
                    a.wrapping_sub(b) & mask
                } else {
                    (a + b) & mask
                };
                assert_eq!(result, expected, "mode {mode} on {a},{b}");
            }
        }
    }

    #[test]
    fn selector_circuit_interface() {
        let aig = alu_selector_circuit(8);
        assert_eq!(aig.input_count(), 8 + 8 + 3 + 2 + 1);
        assert_eq!(aig.output_count(), 8 + 3);
        assert!(aig.and_count() > 100);
    }
}

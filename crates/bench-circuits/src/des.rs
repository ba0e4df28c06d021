//! A DES-style round function — the `des` stand-in ("data encryption").
//!
//! Structure follows the Feistel round of DES: a 32-bit half-block is
//! expanded to 48 bits, XOR-ed with a round key, pushed through eight
//! 6-in/4-out S-boxes and a permutation, then XOR-ed into the other half.
//! The S-box tables are fixed pseudo-random (seeded) substitutions, since
//! what matters for mapping/power is the two-level 6-input LUT structure,
//! not the cryptographic values.

use crate::words::{from_truth_table, Word};
use aig::{Aig, Lit};
use logic::TruthTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of S-boxes in a round.
pub const SBOX_COUNT: usize = 8;

/// Deterministic S-box tables: `tables[s][i]` is the 4-bit output of
/// S-box `s` for 6-bit input `i`.
fn sbox_tables(seed: u64) -> Vec<[u8; 64]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..SBOX_COUNT)
        .map(|_| {
            let mut t = [0u8; 64];
            for slot in t.iter_mut() {
                *slot = rng.gen_range(0..16) as u8;
            }
            t
        })
        .collect()
}

/// The DES expansion-like map: 32 → 48 bits by duplicating edge bits of
/// each 4-bit group.
fn expand(half: &Word) -> Vec<Lit> {
    let n = half.len();
    debug_assert_eq!(n, 32);
    let mut out = Vec::with_capacity(48);
    for g in 0..8 {
        let base = g * 4;
        out.push(half.bit((base + n - 1) % n));
        for k in 0..4 {
            out.push(half.bit(base + k));
        }
        out.push(half.bit((base + 4) % n));
    }
    out
}

/// One Feistel round: returns the new (left, right) halves.
fn feistel_round(
    aig: &mut Aig,
    left: &Word,
    right: &Word,
    key: &Word,
    tables: &[[u8; 64]],
) -> (Word, Word) {
    assert_eq!(left.len(), 32);
    assert_eq!(right.len(), 32);
    assert_eq!(key.len(), 48);
    let expanded = expand(right);
    let keyed: Vec<Lit> = expanded
        .iter()
        .zip(key.0.iter())
        .map(|(&x, &k)| aig.xor(x, k))
        .collect();
    let mut substituted = Vec::with_capacity(32);
    for (s, table) in tables.iter().enumerate() {
        let ins: Vec<Lit> = keyed[s * 6..(s + 1) * 6].to_vec();
        for bit in 0..4 {
            let tt = TruthTable::from_fn(6, |v| {
                let idx = v
                    .iter()
                    .enumerate()
                    .fold(0usize, |acc, (i, &b)| acc | ((b as usize) << i));
                (table[idx] >> bit) & 1 == 1
            });
            substituted.push(from_truth_table(aig, tt, &ins));
        }
    }
    // P-permutation: a fixed bit shuffle (bit-reversal within groups).
    let permuted: Vec<Lit> = (0..32).map(|i| substituted[(i * 7 + 3) % 32]).collect();
    let new_right: Vec<Lit> = left
        .0
        .iter()
        .zip(permuted.iter())
        .map(|(&l, &p)| aig.xor(l, p))
        .collect();
    (right.clone(), Word(new_right))
}

/// The benchmark circuit: one keyed round over a 64-bit block.
pub fn des_circuit() -> Aig {
    let mut aig = Aig::new();
    let left = Word::inputs(&mut aig, 32);
    let right = Word::inputs(&mut aig, 32);
    let key = Word::inputs(&mut aig, 48);
    let tables = sbox_tables(0xDE5_0001);
    let (l1, r1) = feistel_round(&mut aig, &left, &right, &key, &tables);
    l1.output(&mut aig);
    r1.output(&mut aig);
    aig
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::sim::evaluate;

    #[test]
    fn sbox_tables_are_deterministic() {
        let a = sbox_tables(7);
        let b = sbox_tables(7);
        assert_eq!(a, b);
        let c = sbox_tables(8);
        assert_ne!(a, c);
        for t in &a {
            assert!(t.iter().all(|&v| v < 16));
        }
    }

    #[test]
    fn round_is_a_feistel_permutation() {
        // Feistel structure: applying the round with the same key twice on
        // (L, R) and swapping recovers the original — verify the core
        // property new_left == old_right instead (cheap structural check).
        let aig = des_circuit();
        assert_eq!(aig.input_count(), 112);
        assert_eq!(aig.output_count(), 64);
        // New left must equal old right for any input.
        let mut inputs = vec![false; 112];
        inputs[35] = true; // right bit 3
        inputs[40] = true; // right bit 8
        let out = evaluate(&aig, &inputs);
        for i in 0..32 {
            assert_eq!(out[i], inputs[32 + i], "new L bit {i} = old R bit {i}");
        }
    }

    #[test]
    fn key_changes_output() {
        let aig = des_circuit();
        let zero = vec![false; 112];
        let out0 = evaluate(&aig, &zero);
        let mut keyed = zero.clone();
        keyed[64] = true; // key bit 0
        let out1 = evaluate(&aig, &keyed);
        assert_ne!(out0[32..], out1[32..], "key must affect the new right half");
    }

    #[test]
    fn sbox_logic_matches_table() {
        // Build a single S-box in isolation and check it against its table.
        let tables = sbox_tables(99);
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..6).map(|_| aig.input()).collect();
        for bit in 0..4 {
            let tt = TruthTable::from_fn(6, |v| {
                let idx = v
                    .iter()
                    .enumerate()
                    .fold(0usize, |acc, (i, &b)| acc | ((b as usize) << i));
                (tables[0][idx] >> bit) & 1 == 1
            });
            let f = from_truth_table(&mut aig, tt, &ins);
            aig.output(f);
        }
        for (i, &expected) in tables[0].iter().enumerate() {
            let bits: Vec<bool> = (0..6).map(|k| (i >> k) & 1 == 1).collect();
            let out = evaluate(&aig, &bits);
            let got = out
                .iter()
                .enumerate()
                .fold(0u8, |acc, (k, &b)| acc | ((b as u8) << k));
            assert_eq!(got, expected, "s-box input {i}");
        }
    }
}

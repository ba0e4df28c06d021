//! Hamming error-correcting circuits — the C1355/C1908 stand-ins (the
//! paper's "error correcting" rows, heavy in XOR trees).

use crate::words::Word;
use aig::{Aig, Lit};

/// Number of Hamming parity bits for `data_bits` of payload.
pub fn parity_bits(data_bits: usize) -> usize {
    let mut r = 0usize;
    while (1usize << r) < data_bits + r + 1 {
        r += 1;
    }
    r
}

/// Positions (1-based codeword indices) covered by parity bit `p`.
fn covered(p: usize, codeword_len: usize) -> impl Iterator<Item = usize> {
    (1..=codeword_len).filter(move |&i| i & (1 << p) != 0)
}

/// Builds the Hamming codeword layout: maps 1-based codeword positions to
/// either a parity index or a data index.
#[allow(clippy::needless_range_loop)]
fn layout(data_bits: usize) -> (usize, Vec<Option<usize>>) {
    let r = parity_bits(data_bits);
    let n = data_bits + r;
    let mut map: Vec<Option<usize>> = vec![None; n + 1]; // 1-based
    let mut d = 0usize;
    for (i, slot) in map.iter_mut().enumerate().skip(1) {
        if !i.is_power_of_two() {
            *slot = Some(d);
            d += 1;
        }
    }
    debug_assert_eq!(d, data_bits);
    (r, map)
}

/// Hamming single-error-correcting **decoder**: takes a received codeword
/// (data + parity interleaved in standard positions), computes the
/// syndrome and outputs the corrected data word — the C1355-class
/// circuit.
#[allow(clippy::needless_range_loop)] // `pos` is a 1-based codeword position
fn sec_decoder(aig: &mut Aig, codeword: &Word, data_bits: usize) -> Word {
    let (r, map) = layout(data_bits);
    let n = data_bits + r;
    assert_eq!(codeword.len(), n, "codeword width mismatch");
    // Syndrome bit p = XOR of covered positions.
    let syndrome: Vec<Lit> = (0..r)
        .map(|p| {
            let lits: Vec<Lit> = covered(p, n).map(|i| codeword.bit(i - 1)).collect();
            aig.xor_many(&lits)
        })
        .collect();
    // Corrected data bit: flip when the syndrome equals the position.
    let mut corrected = Vec::with_capacity(data_bits);
    for pos in 1..=n {
        let Some(_d) = map[pos] else { continue };
        let matches: Vec<Lit> = (0..r)
            .map(|p| {
                let bit = syndrome[p];
                if pos & (1 << p) != 0 {
                    bit
                } else {
                    bit.not()
                }
            })
            .collect();
        let is_error_here = aig.and_many(&matches);
        corrected.push(aig.xor(codeword.bit(pos - 1), is_error_here));
    }
    Word(corrected)
}

/// Hamming **encoder**: produces the parity bits for a data word.
pub fn sec_encoder(aig: &mut Aig, data: &Word) -> Word {
    let (r, map) = layout(data.len());
    let n = data.len() + r;
    let parities: Vec<Lit> = (0..r)
        .map(|p| {
            let lits: Vec<Lit> = covered(p, n)
                .filter_map(|i| map[i].map(|d| data.bit(d)))
                .collect();
            aig.xor_many(&lits)
        })
        .collect();
    Word(parities)
}

/// The C1355-class benchmark: 32-bit SEC decoder.
pub fn sec_circuit(data_bits: usize) -> Aig {
    let mut aig = Aig::new();
    let n = data_bits + parity_bits(data_bits);
    let codeword = Word::inputs(&mut aig, n);
    let corrected = sec_decoder(&mut aig, &codeword, data_bits);
    corrected.output(&mut aig);
    aig
}

/// The C1908-class benchmark: 16-bit SEC/DED decoder (corrects single
/// errors, flags double errors via the overall parity).
pub fn sec_ded_circuit(data_bits: usize) -> Aig {
    let mut aig = Aig::new();
    let r = parity_bits(data_bits);
    let n = data_bits + r;
    // Codeword plus the extended overall-parity bit.
    let codeword = Word::inputs(&mut aig, n);
    let overall_in = aig.input();
    let corrected = sec_decoder(&mut aig, &codeword, data_bits);
    // Double-error detect: syndrome non-zero while overall parity matches.
    let all_bits: Vec<Lit> = codeword.0.clone();
    let recomputed_overall = aig.xor_many(&all_bits);
    let parity_ok = aig.xnor(recomputed_overall, overall_in);
    // Syndrome non-zero ⇔ some correction fired or parity mismatch; use
    // recomputed syndrome directly.
    let syndrome_bits: Vec<Lit> = (0..r)
        .map(|p| {
            let lits: Vec<Lit> = (1..=n)
                .filter(|i| i & (1 << p) != 0)
                .map(|i| codeword.bit(i - 1))
                .collect();
            aig.xor_many(&lits)
        })
        .collect();
    let syndrome_nonzero = aig.or_many(&syndrome_bits);
    let double_error = aig.and(syndrome_nonzero, parity_ok);
    corrected.output(&mut aig);
    aig.output(double_error);
    aig
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::sim::evaluate;

    /// Encodes data into a full codeword (software reference).
    fn encode_sw(data: u64, data_bits: usize) -> Vec<bool> {
        let (r, map) = layout(data_bits);
        let n = data_bits + r;
        let mut code = vec![false; n + 1];
        for (pos, d) in map.iter().enumerate() {
            if let Some(d) = d {
                code[pos] = (data >> d) & 1 == 1;
            }
        }
        for p in 0..r {
            let parity = covered(p, n)
                .filter(|&i| !i.is_power_of_two())
                .fold(false, |acc, i| acc ^ code[i]);
            code[1 << p] = parity;
        }
        code[1..].to_vec()
    }

    #[test]
    fn parity_bit_counts() {
        assert_eq!(parity_bits(4), 3); // Hamming(7,4)
        assert_eq!(parity_bits(11), 4); // Hamming(15,11)
        assert_eq!(parity_bits(16), 5);
        assert_eq!(parity_bits(32), 6);
    }

    #[test]
    fn decoder_passes_clean_codewords() {
        let aig = sec_circuit(8);
        for data in [0u64, 0x5A, 0xFF, 0x13] {
            let code = encode_sw(data, 8);
            let out = evaluate(&aig, &code);
            let got = out
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
            assert_eq!(got, data, "clean decode of {data:#x}");
        }
    }

    #[test]
    fn decoder_corrects_any_single_error() {
        let aig = sec_circuit(8);
        let data = 0xA7u64;
        let clean = encode_sw(data, 8);
        for flip in 0..clean.len() {
            let mut corrupted = clean.clone();
            corrupted[flip] = !corrupted[flip];
            let out = evaluate(&aig, &corrupted);
            let got = out
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
            assert_eq!(got, data, "flip at position {flip}");
        }
    }

    #[test]
    fn sec_ded_flags_double_errors() {
        let data_bits = 8;
        let aig = sec_ded_circuit(data_bits);
        let data = 0x3Cu64;
        let clean = encode_sw(data, data_bits);
        let overall = clean.iter().fold(false, |a, &b| a ^ b);
        // Clean word: no double-error flag.
        let mut inputs = clean.clone();
        inputs.push(overall);
        let out = evaluate(&aig, &inputs);
        assert!(!out[data_bits], "clean word must not flag");
        // Two flips: flag must raise.
        let mut corrupted = clean.clone();
        corrupted[1] = !corrupted[1];
        corrupted[5] = !corrupted[5];
        let mut inputs = corrupted;
        inputs.push(overall);
        let out = evaluate(&aig, &inputs);
        assert!(out[data_bits], "double error must flag");
    }

    #[test]
    fn benchmark_sizes() {
        let c1355 = sec_circuit(32);
        assert_eq!(c1355.input_count(), 38);
        assert_eq!(c1355.output_count(), 32);
        let c1908 = sec_ded_circuit(16);
        assert_eq!(c1908.input_count(), 22);
        assert_eq!(c1908.output_count(), 17);
    }
}

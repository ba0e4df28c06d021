//! AIGER reader/writer, ASCII (`aag`) and binary (`aig`).
//!
//! The benchmark circuits in this repository are synthetic stand-ins; the
//! AIGER format bridge lets users run the *original* ISCAS'85/MCNC
//! netlists (or anything else ABC can export with `write_aiger -s` or
//! `write_aiger`) through the exact same characterize → map → estimate
//! pipeline. [`from_aiger_auto`] sniffs the header and accepts either
//! format.
//!
//! Only the combinational subset is supported: latches are rejected.

use crate::graph::{Aig, Lit};
use std::fmt::Write as _;

/// Error produced when parsing an AIGER file fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAigerError {
    message: String,
    line: usize,
}

impl ParseAigerError {
    fn new(message: impl Into<String>, line: usize) -> Self {
        Self {
            message: message.into(),
            line,
        }
    }
}

impl std::fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at line {}", self.message, self.line)
    }
}

impl std::error::Error for ParseAigerError {}

/// Serializes an AIG in AIGER ASCII format (`aag`).
///
/// Node indices are renumbered densely: inputs first, then AND nodes in
/// topological order, as the format requires.
pub fn to_aiger_ascii(aig: &Aig) -> String {
    use crate::graph::Node;
    // Map node index -> aiger variable (1-based; 0 is constant false).
    let mut var_of = vec![0u32; aig.len()];
    let mut next = 1u32;
    for &i in aig.input_nodes() {
        var_of[i as usize] = next;
        next += 1;
    }
    let mut ands = Vec::new();
    for (i, node) in aig.nodes().enumerate() {
        if let Node::And(a, b) = node {
            var_of[i] = next;
            next += 1;
            ands.push((i, a, b));
        }
    }
    let aiger_lit =
        |l: Lit| -> u32 { 2 * var_of[l.node() as usize] + u32::from(l.is_complement()) };
    let m = next - 1;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "aag {m} {} 0 {} {}",
        aig.input_count(),
        aig.output_count(),
        ands.len()
    );
    for k in 0..aig.input_count() {
        let _ = writeln!(out, "{}", 2 * (k as u32 + 1));
    }
    for o in aig.output_lits() {
        let _ = writeln!(out, "{}", aiger_lit(*o));
    }
    for (i, a, b) in ands {
        let lhs = 2 * var_of[i];
        // AIGER requires lhs > rhs0 >= rhs1.
        let (r0, r1) = {
            let x = aiger_lit(a);
            let y = aiger_lit(b);
            if x >= y {
                (x, y)
            } else {
                (y, x)
            }
        };
        let _ = writeln!(out, "{lhs} {r0} {r1}");
    }
    out
}

/// Parses an AIGER ASCII (`aag`) file into an [`Aig`].
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed input, latches (sequential
/// AIGs are out of scope), or forward references.
pub fn from_aiger_ascii(text: &str) -> Result<Aig, ParseAigerError> {
    let mut lines = text.lines().enumerate();
    let (line_no, header) = lines
        .next()
        .ok_or_else(|| ParseAigerError::new("empty file", 0))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aag" {
        return Err(ParseAigerError::new(
            "expected `aag M I L O A` header",
            line_no + 1,
        ));
    }
    let parse = |s: &str, line: usize| -> Result<usize, ParseAigerError> {
        s.parse()
            .map_err(|_| ParseAigerError::new(format!("bad number `{s}`"), line))
    };
    let m = parse(fields[1], 1)?;
    let i = parse(fields[2], 1)?;
    let l = parse(fields[3], 1)?;
    let o = parse(fields[4], 1)?;
    let a = parse(fields[5], 1)?;
    if l != 0 {
        return Err(ParseAigerError::new("latches are not supported", 1));
    }
    // Bound every header count by the file size before any allocation:
    // each input, output and AND takes a line, and no real (dense, or
    // nearly so) netlist declares more variables than it has bytes.
    let records = i.checked_add(o).and_then(|n| n.checked_add(a));
    if records.is_none_or(|n| n > text.len()) || m > text.len() {
        return Err(ParseAigerError::new("header counts exceed file size", 1));
    }
    if m < i + a {
        return Err(ParseAigerError::new("header M below I + A", 1));
    }

    let mut aig = Aig::new();
    // aiger var -> our literal (positive).
    let mut lit_of: Vec<Option<Lit>> = vec![None; m + 1];
    lit_of[0] = Some(Lit::FALSE);
    let mut input_vars = Vec::with_capacity(i);
    for k in 0..i {
        let (line_no, line) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new("missing input line", k + 2))?;
        let v = parse(line.trim(), line_no + 1)?;
        if v % 2 != 0 || v == 0 {
            return Err(ParseAigerError::new(
                "input literal must be even and nonzero",
                line_no + 1,
            ));
        }
        input_vars.push(v / 2);
    }
    // Allocate inputs in file order.
    for &v in &input_vars {
        if v > m || lit_of[v].is_some() {
            return Err(ParseAigerError::new("duplicate or out-of-range input", 1));
        }
        lit_of[v] = Some(aig.input());
    }
    // Output literals (resolve after ANDs are built).
    let mut output_lits_raw = Vec::with_capacity(o);
    for k in 0..o {
        let (line_no, line) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new("missing output line", i + k + 2))?;
        output_lits_raw.push((parse(line.trim(), line_no + 1)?, line_no + 1));
    }
    // AND definitions.
    let mut and_defs = Vec::with_capacity(a);
    for k in 0..a {
        let (line_no, line) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new("missing and line", i + o + k + 2))?;
        let nums: Vec<&str> = line.split_whitespace().collect();
        if nums.len() != 3 {
            return Err(ParseAigerError::new(
                "and line needs three literals",
                line_no + 1,
            ));
        }
        let lhs = parse(nums[0], line_no + 1)?;
        let r0 = parse(nums[1], line_no + 1)?;
        let r1 = parse(nums[2], line_no + 1)?;
        if lhs % 2 != 0 {
            return Err(ParseAigerError::new("and lhs must be even", line_no + 1));
        }
        and_defs.push((lhs / 2, r0, r1, line_no + 1));
    }
    // Build ANDs; AIGER guarantees topological order (lhs > rhs).
    for (var, r0, r1, line_no) in and_defs {
        let resolve = |raw: usize| -> Result<Lit, ParseAigerError> {
            let v = raw / 2;
            let base =
                lit_of.get(v).copied().flatten().ok_or_else(|| {
                    ParseAigerError::new(format!("undefined literal {raw}"), line_no)
                })?;
            Ok(if raw % 2 == 1 { base.not() } else { base })
        };
        let fa = resolve(r0)?;
        let fb = resolve(r1)?;
        if var > m || lit_of[var].is_some() {
            return Err(ParseAigerError::new(
                "duplicate or out-of-range and",
                line_no,
            ));
        }
        lit_of[var] = Some(aig.and(fa, fb));
    }
    for (raw, line_no) in output_lits_raw {
        let v = raw / 2;
        let base = lit_of.get(v).copied().flatten().ok_or_else(|| {
            ParseAigerError::new(format!("undefined output literal {raw}"), line_no)
        })?;
        aig.output(if raw % 2 == 1 { base.not() } else { base });
    }
    Ok(aig)
}

/// Serializes an AIG in AIGER binary format (`aig`): implicit input
/// literals, outputs as ASCII lines, AND definitions as LEB128 deltas.
///
/// Node indices are renumbered densely (inputs first, then AND nodes in
/// topological order) exactly as in [`to_aiger_ascii`], which guarantees
/// the `lhs > rhs0 >= rhs1` ordering the binary format requires.
pub fn to_aiger_binary(aig: &Aig) -> Vec<u8> {
    use crate::graph::Node;
    let mut var_of = vec![0u32; aig.len()];
    let mut next = 1u32;
    for &i in aig.input_nodes() {
        var_of[i as usize] = next;
        next += 1;
    }
    let mut ands = Vec::new();
    for (i, node) in aig.nodes().enumerate() {
        if let Node::And(a, b) = node {
            var_of[i] = next;
            next += 1;
            ands.push((i, a, b));
        }
    }
    let aiger_lit =
        |l: Lit| -> u32 { 2 * var_of[l.node() as usize] + u32::from(l.is_complement()) };
    let m = next - 1;
    let mut out: Vec<u8> = Vec::new();
    out.extend_from_slice(
        format!(
            "aig {m} {} 0 {} {}\n",
            aig.input_count(),
            aig.output_count(),
            ands.len()
        )
        .as_bytes(),
    );
    for o in aig.output_lits() {
        out.extend_from_slice(format!("{}\n", aiger_lit(*o)).as_bytes());
    }
    for (i, a, b) in ands {
        let lhs = 2 * var_of[i];
        let (r0, r1) = {
            let x = aiger_lit(a);
            let y = aiger_lit(b);
            if x >= y {
                (x, y)
            } else {
                (y, x)
            }
        };
        write_varint(&mut out, lhs - r0);
        write_varint(&mut out, r0 - r1);
    }
    out
}

/// LEB128-style unsigned varint (7 bits per byte, MSB = continuation).
fn write_varint(out: &mut Vec<u8>, mut x: u32) {
    while x >= 0x80 {
        out.push((x & 0x7F) as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u32, ParseAigerError> {
    // Accumulate in u64 so the fifth byte (shift 28) cannot silently drop
    // high bits; anything that does not fit u32 is a malformed file.
    let mut x: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or_else(|| ParseAigerError::new("truncated delta", 0))?;
        *pos += 1;
        if shift > 28 {
            return Err(ParseAigerError::new("delta overflows 32 bits", 0));
        }
        x |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return u32::try_from(x)
                .map_err(|_| ParseAigerError::new("delta overflows 32 bits", 0));
        }
        shift += 7;
    }
}

/// Parses an AIGER binary (`aig`) file into an [`Aig`].
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed input or latches.
pub fn from_aiger_binary(bytes: &[u8]) -> Result<Aig, ParseAigerError> {
    // Header and output lines are ASCII, terminated by '\n'.
    let mut pos = 0usize;
    let read_line = |pos: &mut usize| -> Result<String, ParseAigerError> {
        let start = *pos;
        while *pos < bytes.len() && bytes[*pos] != b'\n' {
            *pos += 1;
        }
        if *pos >= bytes.len() {
            return Err(ParseAigerError::new("missing newline", 0));
        }
        let line = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|_| ParseAigerError::new("non-UTF-8 header", 0))?
            .to_owned();
        *pos += 1;
        Ok(line)
    };
    let header = read_line(&mut pos)?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aig" {
        return Err(ParseAigerError::new("expected `aig M I L O A` header", 1));
    }
    let parse = |s: &str| -> Result<usize, ParseAigerError> {
        s.parse()
            .map_err(|_| ParseAigerError::new(format!("bad number `{s}`"), 1))
    };
    let m = parse(fields[1])?;
    let i = parse(fields[2])?;
    let l = parse(fields[3])?;
    let o = parse(fields[4])?;
    let a = parse(fields[5])?;
    if l != 0 {
        return Err(ParseAigerError::new("latches are not supported", 1));
    }
    if i.checked_add(a) != Some(m) {
        return Err(ParseAigerError::new("binary header requires M = I + A", 1));
    }
    // Sanity bounds before any allocation: literals must fit the u32
    // packing, every AND costs at least two delta bytes and every output
    // line at least two characters on disk. Inputs have no on-disk
    // footprint in the binary format, so a crafted header could demand
    // terabyte allocations from a few-byte file — cap them at a count no
    // real netlist approaches.
    const MAX_BINARY_INPUTS: usize = 1 << 24;
    if i > MAX_BINARY_INPUTS {
        return Err(ParseAigerError::new("input count implausibly large", 1));
    }
    if a > bytes.len() / 2 || o > bytes.len() || m > (u32::MAX / 2 - 1) as usize {
        return Err(ParseAigerError::new("header counts exceed file size", 1));
    }
    let mut outputs = Vec::with_capacity(o);
    for k in 0..o {
        let line = read_line(&mut pos)?;
        let raw: usize = line
            .trim()
            .parse()
            .map_err(|_| ParseAigerError::new("bad output literal", k + 2))?;
        outputs.push(raw);
    }
    let mut aig = Aig::new();
    let mut lit_of: Vec<Lit> = Vec::with_capacity(m + 1);
    lit_of.push(Lit::FALSE);
    for _ in 0..i {
        lit_of.push(aig.input());
    }
    for k in 0..a {
        let lhs = 2 * (i + k + 1) as u32;
        let d0 = read_varint(bytes, &mut pos)?;
        let d1 = read_varint(bytes, &mut pos)?;
        let r0 = lhs
            .checked_sub(d0)
            .ok_or_else(|| ParseAigerError::new("delta0 exceeds lhs", 0))?;
        let r1 = r0
            .checked_sub(d1)
            .ok_or_else(|| ParseAigerError::new("delta1 exceeds rhs0", 0))?;
        if r0 >= lhs {
            return Err(ParseAigerError::new("rhs not below lhs", 0));
        }
        let resolve = |raw: u32| -> Lit {
            let base = lit_of[(raw / 2) as usize];
            if raw % 2 == 1 {
                base.not()
            } else {
                base
            }
        };
        let (fa, fb) = (resolve(r0), resolve(r1));
        lit_of.push(aig.and(fa, fb));
    }
    for raw in outputs {
        if raw / 2 > m {
            return Err(ParseAigerError::new(
                format!("undefined output literal {raw}"),
                0,
            ));
        }
        let base = lit_of[raw / 2];
        aig.output(if raw % 2 == 1 { base.not() } else { base });
    }
    Ok(aig)
}

/// Parses either AIGER format, sniffing the `aag`/`aig` header.
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed input in either format.
pub fn from_aiger_auto(bytes: &[u8]) -> Result<Aig, ParseAigerError> {
    if bytes.starts_with(b"aig ") {
        from_aiger_binary(bytes)
    } else {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ParseAigerError::new("not UTF-8 and not binary AIGER", 1))?;
        from_aiger_ascii(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::equivalent;

    fn sample_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let x = aig.xor(a, b);
        let f = aig.and(x, c.not());
        aig.output(f);
        aig.output(x.not());
        aig
    }

    #[test]
    fn roundtrip_preserves_function() {
        let aig = sample_aig();
        let text = to_aiger_ascii(&aig);
        let parsed = from_aiger_ascii(&text).expect("own output parses");
        assert_eq!(parsed.input_count(), aig.input_count());
        assert_eq!(parsed.output_count(), aig.output_count());
        assert!(equivalent(&aig, &parsed, 0xA1A2, 32));
    }

    #[test]
    fn parses_handwritten_and_gate() {
        // AND of two inputs, straight from the AIGER spec examples.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
        let aig = from_aiger_ascii(text).expect("valid aag");
        assert_eq!(aig.input_count(), 2);
        assert_eq!(aig.and_count(), 1);
        let out = crate::sim::evaluate(&aig, &[true, true]);
        assert_eq!(out, vec![true]);
        let out = crate::sim::evaluate(&aig, &[true, false]);
        assert_eq!(out, vec![false]);
    }

    #[test]
    fn oversized_header_is_an_error_not_an_abort() {
        // 23 bytes claiming four billion variables: sizing the variable
        // table from the header would request 32 GB and abort.
        for text in ["aag 4000000000 0 0 0 0\n", "aag 3 0 0 4000000000 0\n"] {
            let err = from_aiger_auto(text.as_bytes()).unwrap_err();
            assert!(err.to_string().contains("exceed file size"), "{err}");
        }
    }

    #[test]
    fn rejects_latches() {
        let text = "aag 4 2 1 1 1\n2\n4\n6 8\n8\n8 2 4\n";
        assert!(from_aiger_ascii(text).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_aiger_ascii("").is_err());
        assert!(from_aiger_ascii("aig 1 1 0 1 0\n2\n2\n").is_err());
        assert!(from_aiger_ascii("aag 1 1 0 1\n2\n2\n").is_err());
        // Odd input literal.
        assert!(from_aiger_ascii("aag 1 1 0 1 0\n3\n2\n").is_err());
        // Undefined output.
        assert!(from_aiger_ascii("aag 1 1 0 1 0\n2\n8\n").is_err());
    }

    #[test]
    fn constant_outputs_serialize() {
        let mut aig = Aig::new();
        let _ = aig.input();
        aig.output(Lit::TRUE);
        let text = to_aiger_ascii(&aig);
        let parsed = from_aiger_ascii(&text).expect("parses");
        assert_eq!(crate::sim::evaluate(&parsed, &[false]), vec![true]);
    }

    #[test]
    fn binary_roundtrip_preserves_function() {
        let aig = sample_aig();
        let bytes = to_aiger_binary(&aig);
        let parsed = from_aiger_binary(&bytes).expect("own output parses");
        assert_eq!(parsed.input_count(), aig.input_count());
        assert_eq!(parsed.output_count(), aig.output_count());
        assert!(equivalent(&aig, &parsed, 0xB1B2, 8));
    }

    #[test]
    fn auto_detects_both_formats() {
        let aig = sample_aig();
        let ascii = to_aiger_ascii(&aig);
        let binary = to_aiger_binary(&aig);
        let from_ascii = from_aiger_auto(ascii.as_bytes()).expect("ascii parses");
        let from_binary = from_aiger_auto(&binary).expect("binary parses");
        assert!(equivalent(&from_ascii, &from_binary, 7, 8));
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(from_aiger_binary(b"").is_err());
        assert!(from_aiger_binary(b"aag 1 1 0 1 0\n2\n2\n").is_err());
        // Latches.
        assert!(from_aiger_binary(b"aig 2 1 1 0 0\n2\n").is_err());
        // Header M != I + A.
        assert!(from_aiger_binary(b"aig 9 1 0 1 0\n2\n").is_err());
        // Truncated AND section.
        assert!(from_aiger_binary(b"aig 3 2 0 1 1\n6\n").is_err());
        // Delta varint overflowing 32 bits must be rejected, not
        // silently truncated into a different (valid-looking) circuit.
        assert!(from_aiger_binary(b"aig 3 2 0 1 1\n6\n\xFF\xFF\xFF\xFF\x7F\x00").is_err());
        assert!(from_aiger_binary(b"aig 3 2 0 1 1\n6\n\x80\x80\x80\x80\x80\x01\x00").is_err());
        // Absurd header counts must be a parse error, not an
        // allocation-failure abort or an integer overflow.
        assert!(from_aiger_binary(b"aig 4000000000000 4000000000000 0 0 0\n").is_err());
        assert!(from_aiger_binary(b"aig 200000000 200000000 0 0 0\n").is_err());
        assert!(from_aiger_binary(b"aig 1000000 0 0 1000000 0\n2\n").is_err());
        let max = usize::MAX;
        let overflow = format!("aig {max} {max} 0 0 {max}\n");
        assert!(from_aiger_binary(overflow.as_bytes()).is_err());
    }

    #[test]
    fn binary_varints_cover_multi_byte_deltas() {
        // A wide OR forces AND deltas beyond one varint byte.
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..80).map(|_| aig.input()).collect();
        // Serial chain so late ANDs reference early inputs (big deltas).
        let mut acc = aig.and(xs[0], xs[1]);
        for &x in &xs[2..] {
            acc = aig.and(acc, x);
        }
        aig.output(acc);
        let bytes = to_aiger_binary(&aig);
        let parsed = from_aiger_binary(&bytes).expect("parses");
        assert!(equivalent(&aig, &parsed, 3, 8));
    }

    #[test]
    fn benchmark_roundtrip() {
        // A real generated circuit survives the round trip.
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..6).map(|_| aig.input()).collect();
        let p = aig.xor_many(&xs);
        let q = aig.and_many(&xs[..3]);
        let f = aig.mux(p, q, xs[5]);
        aig.output(f);
        let text = to_aiger_ascii(&aig);
        let parsed = from_aiger_ascii(&text).expect("parses");
        assert!(equivalent(&aig, &parsed, 99, 16));
    }
}

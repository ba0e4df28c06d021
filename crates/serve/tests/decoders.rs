//! Fuzzing the three decoders a `synthd` request passes through — frames,
//! AIGER and flow scripts: any input must come back as `Ok` or `Err`,
//! never as a panic or an allocation that aborts the process.

use proptest::prelude::*;

fn decode_all(bytes: &[u8]) {
    let _ = serve::Request::decode(bytes);
    let _ = aig::from_aiger_auto(bytes);
    let _ = aig::Flow::parse(&String::from_utf8_lossy(bytes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_are_ok_or_err(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        decode_all(&bytes);
    }

    #[test]
    fn aiger_headers_with_arbitrary_counts_are_ok_or_err(
        binary: bool,
        counts in prop::collection::vec(any::<u32>(), 5),
        tail in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // The counts as drawn, then cut down so the body parsers run too.
        for c in [counts.clone(), counts.iter().map(|n| n % 16).collect()] {
            let format = if binary { "aig" } else { "aag" };
            let header = format!("{format} {} {} {} {} {}\n", c[0], c[1], c[2], c[3], c[4]);
            decode_all(&[header.as_bytes(), &tail].concat());
        }
    }
}

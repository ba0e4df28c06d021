//! Verification of mapped netlists against their source AIGs: a fast
//! simulation mode and a definitive SAT mode.
//!
//! [`verify_mapping`] back-converts the netlist
//! ([`MappedNetlist::to_aig`]) and closes the check with the SAT-based
//! equivalence engine ([`aig::check_equivalence`]) — a *proof*, not a
//! sample. Failures carry a concrete [`CexReport`]: the input pattern,
//! the first output that disagrees, and both sides' values on it.

use crate::netlist::MappedNetlist;
use aig::{Aig, Equivalence, ShapeMismatch};
use charlib::CharacterizedLibrary;

/// How much post-mapping verification the pipeline performs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Verify {
    /// No verification (the historical default; mapping is trusted).
    #[default]
    Off,
    /// Random/exhaustive simulation: cheap, definitive only up to 16
    /// inputs (a `false` is always real, a pass is probabilistic beyond
    /// that).
    Sim,
    /// SAT-closed equivalence proof: sound and complete at any width.
    Sat,
}

impl Verify {
    /// All modes, in CLI/documentation order.
    pub const ALL: [Verify; 3] = [Verify::Off, Verify::Sim, Verify::Sat];

    /// Lower-case CLI label (`off` / `sim` / `sat`).
    pub fn label(self) -> &'static str {
        match self {
            Verify::Off => "off",
            Verify::Sim => "sim",
            Verify::Sat => "sat",
        }
    }
}

impl std::fmt::Display for Verify {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Verify {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(Verify::Off),
            "sim" => Ok(Verify::Sim),
            "sat" => Ok(Verify::Sat),
            other => Err(format!(
                "unknown verify mode `{other}` (expected off, sim, or sat)"
            )),
        }
    }
}

/// A concrete disagreement between a netlist and its source AIG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CexReport {
    /// The input assignment (one bool per primary input, input order).
    pub inputs: Vec<bool>,
    /// Index of the first disagreeing primary output.
    pub output: usize,
    /// What the source AIG computes on `inputs` at that output.
    pub expected: bool,
    /// What the mapped netlist computes there instead.
    pub got: bool,
}

impl std::fmt::Display for CexReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pattern: String = self
            .inputs
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        write!(
            f,
            "output {} differs on input pattern {} (inputs 0..n left to right): \
             source computes {}, netlist computes {}",
            self.output, pattern, self.expected as u8, self.got as u8
        )
    }
}

/// Why a mapped netlist failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The netlist and the AIG disagree on interface widths.
    Shape(ShapeMismatch),
    /// The netlist computes a different function; here is where.
    Mismatch(CexReport),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Shape(s) => write!(f, "netlist {s}"),
            VerifyError::Mismatch(c) => write!(f, "netlist is not equivalent: {c}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Proves a mapped netlist equivalent to its source AIG (SAT-closed —
/// sound and complete at any input count).
///
/// The netlist is rebuilt as an AIG ([`MappedNetlist::to_aig`]) and the
/// pair goes through the simulation-filtered, SAT-swept equivalence
/// engine. `Ok(())` is a theorem about the mapping; an `Err` carries a
/// concrete counterexample pattern.
///
/// # Errors
///
/// [`VerifyError::Shape`] when the netlist's interface widths differ from
/// the AIG's; [`VerifyError::Mismatch`] with a [`CexReport`] when the
/// functions differ.
///
/// # Example
///
/// ```
/// use aig::Aig;
/// use charlib::characterize_library;
/// use gate_lib::GateFamily;
/// use techmap::{map_aig, verify_mapping, MapConfig};
///
/// let mut aig = Aig::new();
/// let a = aig.input();
/// let b = aig.input();
/// let c = aig.input();
/// let x = aig.xor(a, b);
/// let f = aig.and(x, c);
/// aig.output(f);
/// let lib = characterize_library(GateFamily::CntfetGeneralized);
/// let mapped = map_aig(&aig, &lib, &MapConfig::default()).expect("maps");
/// // Not sampled: SAT-proven equivalent.
/// verify_mapping(&aig, &mapped, &lib).expect("mapping is correct");
/// ```
pub fn verify_mapping(
    aig: &Aig,
    netlist: &MappedNetlist,
    library: &CharacterizedLibrary,
) -> Result<(), VerifyError> {
    let rebuilt = netlist.to_aig(library);
    match aig::check_equivalence(aig, &rebuilt) {
        Err(shape) => Err(VerifyError::Shape(shape)),
        Ok(Equivalence::Equal) => Ok(()),
        Ok(Equivalence::Counterexample(inputs)) => {
            Err(VerifyError::Mismatch(report(aig, netlist, library, inputs)))
        }
    }
}

/// Verifies by simulation only: exhaustive for ≤ 16 inputs (definitive),
/// `rounds` random 64-pattern words otherwise (a pass is probabilistic, a
/// failure is always real and reported as a [`CexReport`]).
///
/// # Errors
///
/// As [`verify_mapping`]; a probabilistic pass returns `Ok(())`.
pub fn verify_mapping_sim(
    aig: &Aig,
    netlist: &MappedNetlist,
    library: &CharacterizedLibrary,
    seed: u64,
    rounds: usize,
) -> Result<(), VerifyError> {
    let aig = aig.cleanup();
    if aig.input_count() != netlist.pi_count || aig.output_count() != netlist.outputs().len() {
        return Err(VerifyError::Shape(ShapeMismatch {
            inputs: (aig.input_count(), netlist.pi_count),
            outputs: (aig.output_count(), netlist.outputs().len()),
        }));
    }
    let n = aig.input_count();
    let mut rng = aig::sim::PatternRng::new(seed);
    let exhaustive = n <= 16;
    let mut values = Vec::new();
    let mut got = Vec::new();
    let mut check_round =
        |inputs: &[u64], expected: &[u64], mask: u64| -> Result<(), VerifyError> {
            netlist.simulate64_into(library, inputs, &mut values);
            netlist.output_words_into(&values, &mut got);
            for (k, (e, g)) in expected.iter().zip(got.iter()).enumerate() {
                let diff = (e ^ g) & mask;
                if diff != 0 {
                    let bit = diff.trailing_zeros();
                    let pattern: Vec<bool> = inputs.iter().map(|w| (w >> bit) & 1 == 1).collect();
                    return Err(VerifyError::Mismatch(CexReport {
                        inputs: pattern,
                        output: k,
                        expected: (e >> bit) & 1 == 1,
                        got: (g >> bit) & 1 == 1,
                    }));
                }
            }
            Ok(())
        };
    if exhaustive {
        for round in 0..(1usize << n).div_ceil(64) {
            let base = (round * 64) as u64;
            let inputs: Vec<u64> = (0..n)
                .map(|i| {
                    let mut w = 0u64;
                    for k in 0..64u64 {
                        if ((base + k) >> i) & 1 == 1 {
                            w |= 1 << k;
                        }
                    }
                    w
                })
                .collect();
            let expected = aig::simulate64(&aig, &inputs);
            let remaining = (1u64 << n).saturating_sub(base);
            let mask = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
            check_round(&inputs, &expected, mask)?;
        }
    } else {
        for _ in 0..rounds {
            let inputs: Vec<u64> = (0..n).map(|_| rng.next_word()).collect();
            let expected = aig::simulate64(&aig, &inputs);
            check_round(&inputs, &expected, u64::MAX)?;
        }
    }
    Ok(())
}

/// Verifies according to a [`Verify`] mode (`Off` verifies nothing).
///
/// # Errors
///
/// As the selected mode's verifier.
pub fn verify_mapping_with(
    aig: &Aig,
    netlist: &MappedNetlist,
    library: &CharacterizedLibrary,
    mode: Verify,
    seed: u64,
    rounds: usize,
) -> Result<(), VerifyError> {
    match mode {
        Verify::Off => Ok(()),
        Verify::Sim => verify_mapping_sim(aig, netlist, library, seed, rounds),
        Verify::Sat => verify_mapping(aig, netlist, library),
    }
}

/// Builds the counterexample report for a known-diverging input pattern.
fn report(
    aig: &Aig,
    netlist: &MappedNetlist,
    library: &CharacterizedLibrary,
    inputs: Vec<bool>,
) -> CexReport {
    let expected = aig::sim::evaluate(&aig.cleanup(), &inputs);
    let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
    let values = netlist.simulate64(library, &words);
    let got_words = netlist.output_words(&values);
    for (k, (e, g)) in expected.iter().zip(got_words.iter()).enumerate() {
        if *e != (g & 1 == 1) {
            return CexReport {
                inputs,
                output: k,
                expected: *e,
                got: g & 1 == 1,
            };
        }
    }
    // The equivalence engine only reports real counterexamples; reaching
    // here would mean the pattern does not distinguish the two networks.
    unreachable!("counterexample pattern must distinguish the networks")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MapConfig;
    use crate::mapper::map_aig;
    use crate::netlist::NetRef;
    use charlib::characterize_library;
    use gate_lib::GateFamily;

    /// A `bits`-bit ripple-carry adder: `2 * bits` inputs.
    fn adder_aig(bits: usize) -> Aig {
        let mut aig = Aig::new();
        let a: Vec<_> = (0..bits).map(|_| aig.input()).collect();
        let b: Vec<_> = (0..bits).map(|_| aig.input()).collect();
        let mut carry = aig::Lit::FALSE;
        for i in 0..bits {
            let axb = aig.xor(a[i], b[i]);
            let sum = aig.xor(axb, carry);
            let c1 = aig.and(a[i], b[i]);
            let c2 = aig.and(axb, carry);
            carry = aig.or(c1, c2);
            aig.output(sum);
        }
        aig.output(carry);
        aig
    }

    /// `mapped` with its last output re-routed to a different net.
    fn reroute_last_output(mapped: &MappedNetlist) -> MappedNetlist {
        let mut outputs = mapped.outputs().to_vec();
        let o = outputs.len() - 1;
        outputs[o] = NetRef::plain(if outputs[o].net == 0 { 1 } else { 0 });
        MappedNetlist::new(
            mapped.family,
            mapped.pi_count,
            mapped.instances.clone(),
            outputs,
        )
    }

    /// Asserts that `report` is a real disagreement between `aig` and
    /// `netlist`, checked by simulating both on its pattern.
    fn assert_real_disagreement(
        aig: &Aig,
        netlist: &MappedNetlist,
        lib: &CharacterizedLibrary,
        report: &CexReport,
    ) {
        assert_eq!(report.inputs.len(), aig.input_count());
        assert_ne!(report.expected, report.got);
        let expected = aig::sim::evaluate(aig, &report.inputs);
        let words: Vec<u64> = report.inputs.iter().map(|&b| u64::from(b)).collect();
        let got = netlist.output_words(&netlist.simulate64(lib, &words));
        assert_eq!(expected[report.output], report.expected);
        assert_eq!(got[report.output] & 1 == 1, report.got);
    }

    #[test]
    fn correct_mappings_prove_in_every_family_and_mode() {
        let aig = adder_aig(4);
        for family in GateFamily::ALL {
            let lib = characterize_library(family);
            let mapped = map_aig(&aig, &lib, &MapConfig::default()).expect("maps");
            verify_mapping(&aig, &mapped, &lib).expect("SAT proof");
            verify_mapping_sim(&aig, &mapped, &lib, 11, 8).expect("sim pass");
            for mode in Verify::ALL {
                verify_mapping_with(&aig, &mapped, &lib, mode, 11, 8).expect("all modes pass");
            }
        }
    }

    #[test]
    fn corrupted_netlist_yields_concrete_counterexample() {
        let aig = adder_aig(4);
        let lib = characterize_library(GateFamily::Cmos);
        let mapped = map_aig(&aig, &lib, &MapConfig::default()).expect("maps");
        let corrupted = reroute_last_output(&mapped);
        let err = verify_mapping(&aig, &corrupted, &lib).expect_err("must fail");
        let VerifyError::Mismatch(report) = err else {
            panic!("expected a counterexample, got {err:?}");
        };
        assert_real_disagreement(&aig, &corrupted, &lib, &report);
        assert!(report.to_string().contains("differs on input pattern"));
        // The sim mode finds it too (8 inputs: exhaustive, definitive).
        assert!(matches!(
            verify_mapping_sim(&aig, &corrupted, &lib, 1, 4),
            Err(VerifyError::Mismatch(_))
        ));
    }

    #[test]
    fn random_rounds_catch_a_corrupted_wide_netlist() {
        // 20 inputs: past the exhaustive limit, so the sim verifier runs
        // its random rounds.
        let aig = adder_aig(10);
        assert!(aig.input_count() > 16);
        let lib = characterize_library(GateFamily::Cmos);
        let mapped = map_aig(&aig, &lib, &MapConfig::default()).expect("maps");
        verify_mapping_sim(&aig, &mapped, &lib, 3, 8).expect("the correct netlist passes");
        let corrupted = reroute_last_output(&mapped);
        let err = verify_mapping_sim(&aig, &corrupted, &lib, 3, 8).expect_err("must fail");
        let VerifyError::Mismatch(report) = err else {
            panic!("expected a counterexample, got {err:?}");
        };
        assert_real_disagreement(&aig, &corrupted, &lib, &report);
    }

    #[test]
    fn flipped_output_phase_is_caught() {
        let aig = adder_aig(4);
        let lib = characterize_library(GateFamily::CntfetGeneralized);
        let mapped = map_aig(&aig, &lib, &MapConfig::default()).expect("maps");
        let mut outputs = mapped.outputs().to_vec();
        outputs[0].inverted = !outputs[0].inverted;
        let corrupted = MappedNetlist::new(
            mapped.family,
            mapped.pi_count,
            mapped.instances.clone(),
            outputs,
        );
        let err = verify_mapping(&aig, &corrupted, &lib).expect_err("must fail");
        let VerifyError::Mismatch(report) = err else {
            panic!("expected a counterexample");
        };
        assert_eq!(report.output, 0, "the flipped output differs everywhere");
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let aig = adder_aig(4);
        let lib = characterize_library(GateFamily::Cmos);
        let mapped = map_aig(&aig, &lib, &MapConfig::default()).expect("maps");
        let mut outputs = mapped.outputs().to_vec();
        outputs.pop();
        let truncated = MappedNetlist::new(
            mapped.family,
            mapped.pi_count,
            mapped.instances.clone(),
            outputs,
        );
        assert!(matches!(
            verify_mapping(&aig, &truncated, &lib),
            Err(VerifyError::Shape(_))
        ));
        assert!(matches!(
            verify_mapping_sim(&aig, &truncated, &lib, 1, 4),
            Err(VerifyError::Shape(_))
        ));
    }

    #[test]
    fn verify_mode_parses_and_displays() {
        for mode in Verify::ALL {
            let parsed: Verify = mode.label().parse().expect("labels parse");
            assert_eq!(parsed, mode);
        }
        assert_eq!("SAT".parse::<Verify>(), Ok(Verify::Sat));
        assert!("prove".parse::<Verify>().is_err());
        assert_eq!(Verify::default(), Verify::Off);
    }
}

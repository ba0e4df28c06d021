//! The output check, independent of the code under test: a mapped
//! netlist is simulated against the *input* circuit it was made from (not
//! the synthesized network `--verify sat` proves it against), with the
//! plain word-parallel simulators `aig::simulate64` and
//! `MappedNetlist::simulate64`, which share no code with the SAT sweeper.

use aig::Aig;
use charlib::CharacterizedLibrary;
use techmap::MappedNetlist;

/// 64-pattern words simulated per netlist.
const WORDS: usize = 16;

/// Whether `netlist` computes the same outputs as `input` on
/// [`WORDS`] × 64 seeded random patterns (and has its interface).
pub fn netlist_matches_input(
    input: &Aig,
    netlist: &MappedNetlist,
    library: &CharacterizedLibrary,
    seed: u64,
) -> bool {
    if input.input_count() != netlist.pi_count || input.output_count() != netlist.outputs().len() {
        return false;
    }
    let mut state = seed;
    (0..WORDS).all(|_| {
        let words: Vec<u64> = (0..netlist.pi_count)
            .map(|_| {
                state = crate::splitmix64(state);
                state
            })
            .collect();
        let expected = aig::simulate64(input, &words);
        let got = netlist.output_words(&netlist.simulate64(library, &words));
        expected == got
    })
}

/// How many of `jobs` — `(input, netlist, library)` triples — fail
/// [`netlist_matches_input`]; each is one failed operation.
pub fn failed_jobs<'a>(
    jobs: impl IntoIterator<Item = (&'a Aig, &'a MappedNetlist, &'a CharacterizedLibrary)>,
    seed: u64,
) -> u64 {
    jobs.into_iter()
        .filter(|(input, netlist, library)| !netlist_matches_input(input, netlist, library, seed))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gate_lib::GateFamily;
    use techmap::{MapConfig, NetRef};

    #[test]
    fn a_corrupted_netlist_is_counted_as_failed() {
        let input = bench_circuits::benchmark_by_name("t481")
            .expect("t481 is in the catalog")
            .aig;
        let library = ambipolar::engine::library(GateFamily::CntfetGeneralized);
        let netlist = techmap::map_aig(&input, library, &MapConfig::default()).expect("t481 maps");

        let mut outputs = netlist.outputs().to_vec();
        outputs[0] = NetRef {
            inverted: !outputs[0].inverted,
            ..outputs[0]
        };
        let corrupted = MappedNetlist::new(
            netlist.family,
            netlist.pi_count,
            netlist.instances.clone(),
            outputs,
        );
        let jobs = [(&input, &netlist, library), (&input, &corrupted, library)];
        assert_eq!(failed_jobs(jobs, 7), 1, "only the corrupted netlist fails");
    }
}

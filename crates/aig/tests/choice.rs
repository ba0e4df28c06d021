//! Integration tests of the choice subsystem: choice-augmented mapping
//! is SAT-proven by `check_equivalence` equivalent to the reference
//! netlist on random AIGs, and choice rings never form cycles.
//!
//! `techmap`/`charlib` appear as dev-dependencies only (a dev-only
//! cycle, which cargo permits): proving the *mapping* over choices
//! correct requires the mapper and a characterized library.

use aig::{Aig, ChoiceAig, Flow, Lit};
use charlib::characterize_library;
use gate_lib::GateFamily;
use proptest::prelude::*;
use techmap::{map_subject, verify_mapping, MapConfig, NpnMatchCache, Subject};

#[derive(Clone, Debug)]
enum Op {
    And(usize, usize, bool, bool),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), any::<usize>(), any::<bool>(), any::<bool>())
            .prop_map(|(a, b, na, nb)| Op::And(a, b, na, nb)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Xor(a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(s, a, b)| Op::Mux(s, a, b)),
    ]
}

fn random_aig(ops: &[Op], n_inputs: usize, n_outputs: usize) -> Aig {
    let mut aig = Aig::new();
    let mut nets: Vec<Lit> = (0..n_inputs).map(|_| aig.input()).collect();
    for op in ops {
        let pick = |i: usize| nets[i % nets.len()];
        let f = match *op {
            Op::And(a, b, na, nb) => {
                let x = if na { pick(a).not() } else { pick(a) };
                let y = if nb { pick(b).not() } else { pick(b) };
                aig.and(x, y)
            }
            Op::Xor(a, b) => aig.xor(pick(a), pick(b)),
            Op::Mux(s, a, b) => aig.mux(pick(s), pick(a), pick(b)),
        };
        nets.push(f);
    }
    for k in 0..n_outputs {
        aig.output(nets[nets.len() - 1 - (k % nets.len().min(5))]);
    }
    aig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The acceptance-criterion property: mapping over the choices a
    // flow accumulated is SAT-proven by `check_equivalence` equivalent
    // to the reference netlist — `verify_mapping` *is* the `--verify
    // sat` proof, run against the ORIGINAL network, not the synthesized
    // one.
    #[test]
    fn choice_augmented_mapping_is_sat_equivalent_to_the_reference(
        ops in prop::collection::vec(op_strategy(), 1..35),
    ) {
        let network = random_aig(&ops, 6, 3);
        let flow = Flow::parse("b; rw; rf; dch").expect("parses");
        let (_, choices, _) = flow.run_with_choices(&network);
        let choices = choices.expect("dch scripts return choices");
        prop_assert!(choices.verify_acyclic(), "rings must stay acyclic");
        let library = characterize_library(GateFamily::CntfetGeneralized);
        let cache = NpnMatchCache::new(&library).expect("the library has an INV");
        let subject = Subject::Choices(&choices);
        match map_subject(subject, &library, &cache, &MapConfig::default()) {
            Ok(mapped) => prop_assert!(
                verify_mapping(&network, &mapped, &library).is_ok(),
                "choice-mapped netlist must be SAT-equivalent to the reference"
            ),
            // The sweep can prove an output constant; the mapper has no
            // tie cells for that — the pipeline's portfolio falls back to
            // plain mapping in that case, so the error is legitimate here.
            Err(techmap::MapError::ConstantOutput { .. }) => {}
            Err(e) => prop_assert!(false, "choice mapping failed: {e}"),
        }
    }

    // Choice rings are acyclic for arbitrary snapshot sets, including
    // deliberately diverse ones (the same function synthesized through
    // different scripts).
    #[test]
    fn rings_never_form_cycles_across_flows(
        ops in prop::collection::vec(op_strategy(), 1..30),
    ) {
        let network = random_aig(&ops, 5, 3);
        let mut snapshots = vec![network.cleanup()];
        for script in ["b", "rw; rf", "b; rw -z; b", "rw -l"] {
            snapshots.push(Flow::parse(script).expect("parses").run(&network));
        }
        // Reverse so representatives come from the most-optimized form,
        // mirroring what the dch step does.
        snapshots.reverse();
        let choice = ChoiceAig::build(&snapshots).expect("same interface");
        prop_assert!(choice.verify_acyclic());
        // Every linked member belongs to the ring of its representative.
        for &rep in choice.class_order() {
            for &m in choice.ring(rep) {
                prop_assert_eq!(choice.repr_of(Lit::new(m, false)).node(), rep);
            }
        }
    }
}

/// The collapsed network the `dch` step proposes is itself SAT-proven
/// equivalent and never larger than the flow's own result.
#[test]
fn dch_collapse_is_proven_and_never_larger() {
    let ops: Vec<Op> = (0..40)
        .map(|i| match i % 3 {
            0 => Op::And(i, i * 7 + 3, i % 2 == 0, i % 5 == 0),
            1 => Op::Xor(i * 3 + 1, i + 11),
            _ => Op::Mux(i, i * 5 + 2, i * 11 + 4),
        })
        .collect();
    let network = random_aig(&ops, 7, 4);
    let plain = Flow::parse("b; rw; rf").expect("parses").run(&network);
    let (with_dch, choices, report) = Flow::parse("b; rw; rf; dch")
        .expect("parses")
        .run_with_choices(&network);
    assert!(choices.is_some());
    assert_eq!(
        aig::check_equivalence(&network, &with_dch),
        Ok(aig::Equivalence::Equal)
    );
    let dch_report = report
        .passes
        .iter()
        .find(|p| p.name == "dch")
        .expect("dch is reported");
    if dch_report.accepted {
        assert!(
            with_dch.and_count() <= plain.and_count(),
            "an accepted collapse must not grow the network: {} vs {}",
            with_dch.and_count(),
            plain.and_count()
        );
    }
}

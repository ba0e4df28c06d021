//! Property-based tests over the core data structures and invariants.

use aig::{Aig, Lit};
use charlib::{LeakageSimulator, OffPattern};
use device::TechParams;
use gate_lib::{GateFamily, Literal, SpNetwork};
use logic::npn::{npn_canon, NpnTransform};
use logic::{isop, TruthTable};
use proptest::prelude::*;

/// Strategy: arbitrary truth table of a given arity.
fn tt(n: usize) -> impl Strategy<Value = TruthTable> {
    let limit = if n >= 6 {
        u64::MAX
    } else {
        (1u64 << (1u64 << n)) - 1
    };
    (0..=limit).prop_map(move |bits| TruthTable::from_bits(n, bits))
}

/// Strategy: arbitrary NPN transform of a given arity.
fn transform(n: usize) -> impl Strategy<Value = NpnTransform> {
    (any::<u8>(), any::<bool>(), Just(n)).prop_perturb(|(flips, out, n), mut rng| {
        let mut perm: Vec<u8> = (0..n as u8).collect();
        for i in (1..perm.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            perm.swap(i, j);
        }
        let mut parr = [0u8; 6];
        parr[..n].copy_from_slice(&perm);
        NpnTransform {
            n_vars: n as u8,
            input_flips: flips & ((1 << n) - 1),
            perm: parr,
            output_flip: out,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn npn_canon_is_class_invariant(f in tt(4), t in transform(4)) {
        let g = t.apply(f);
        prop_assert_eq!(npn_canon(f).canonical, npn_canon(g).canonical);
    }

    #[test]
    fn npn_transform_inverse_roundtrip(f in tt(4), t in transform(4)) {
        prop_assert_eq!(t.inverse().apply(t.apply(f)), f);
    }

    #[test]
    fn npn_compose_associates_with_apply(f in tt(3), a in transform(3), b in transform(3)) {
        prop_assert_eq!(b.compose(&a).apply(f), b.apply(a.apply(f)));
    }

    #[test]
    fn npn_canon_transform_round_trips(f in tt(4)) {
        // The canonizing transform maps the original onto the canonical
        // representative, and its inverse maps it back exactly.
        let c = npn_canon(f);
        prop_assert_eq!(c.transform.apply(f), c.canonical);
        prop_assert_eq!(c.transform.inverse().apply(c.canonical), f);
        // apply ∘ inverse is the identity in the other direction too.
        prop_assert_eq!(c.transform.apply(c.transform.inverse().apply(f)), f);
    }

    #[test]
    fn npn_canon_is_a_fixpoint(f in tt(3)) {
        // Canonizing a canonical representative returns it unchanged.
        let c = npn_canon(f).canonical;
        prop_assert_eq!(npn_canon(c).canonical, c);
    }

    #[test]
    fn npn_canon_invariant_under_transform_chains(f in tt(3), a in transform(3), b in transform(3)) {
        // Invariance must survive chained random transforms, not just one.
        let g = b.apply(a.apply(f));
        prop_assert_eq!(npn_canon(g).canonical, npn_canon(f).canonical);
    }

    #[test]
    fn npn_canon_round_trips_at_full_arity(f in tt(5), t in transform(5)) {
        // The mapper canonizes up to 6-variable cut functions; exercise a
        // larger arity than the other properties.
        let c = npn_canon(f);
        prop_assert_eq!(c.transform.apply(f), c.canonical);
        prop_assert_eq!(t.inverse().apply(t.apply(f)), f);
        prop_assert_eq!(npn_canon(t.apply(f)).canonical, c.canonical);
    }

    #[test]
    fn isop_covers_exactly(f in tt(4)) {
        let cover = isop(f);
        let rebuilt = cover
            .iter()
            .fold(TruthTable::zero(4), |acc, c| acc | c.to_truth_table(4));
        prop_assert_eq!(rebuilt, f);
    }

    #[test]
    fn cofactors_shannon_expansion(f in tt(5), v in 0usize..5) {
        let x = TruthTable::var(5, v);
        let rebuilt = (x & f.cofactor1(v)) | (!x & f.cofactor0(v));
        prop_assert_eq!(rebuilt, f);
    }

    #[test]
    fn shrink_then_extend_preserves_function(f in tt(5)) {
        let (g, kept) = f.shrink_to_support();
        // Re-apply through composition: variable i of g reads the i-th
        // kept variable.
        let inputs: Vec<TruthTable> = (0..5)
            .filter(|&k| (kept >> k) & 1 == 1)
            .map(|k| TruthTable::var(5, k))
            .collect();
        let rebuilt = if kept == 0 {
            if g.is_one() { TruthTable::one(5) } else { TruthTable::zero(5) }
        } else {
            g.compose(&inputs)
        };
        prop_assert_eq!(rebuilt, f);
    }
}

/// Strategy: random series/parallel network over ≤4 variables.
fn sp_network() -> impl Strategy<Value = SpNetwork> {
    let leaf = prop_oneof![
        (0u8..4).prop_map(SpNetwork::nfet),
        (0u8..4, 0u8..4, any::<bool>()).prop_map(|(a, b, neg)| SpNetwork::tg(
            Literal::pos(a),
            Literal {
                var: b,
                positive: !neg
            },
        )),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..=2).prop_map(SpNetwork::Series),
            prop::collection::vec(inner, 2..=2).prop_map(SpNetwork::Parallel),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dual_network_complements_condition(net in sp_network()) {
        let cond = net.condition(4);
        prop_assert_eq!(net.dual().condition(4), !cond);
        // Dual is an involution on the conduction condition.
        prop_assert_eq!(net.dual().dual().condition(4), cond);
    }

    #[test]
    fn network_counts_are_consistent(net in sp_network()) {
        prop_assert!(net.max_series_depth() >= 1);
        prop_assert!(net.output_branches() >= 1);
        prop_assert!(net.transistor_count() >= net.max_series_depth());
        let mut loads = [0usize; 4];
        net.input_loads(&mut loads);
        prop_assert_eq!(
            loads.iter().sum::<usize>(),
            net.transistor_count() + count_tgs(&net) * 2,
            "each device has one signal gate; TGs add a polarity gate pair"
        );
    }
}

fn count_tgs(net: &SpNetwork) -> usize {
    match net {
        SpNetwork::Transistor { .. } => 0,
        SpNetwork::TransmissionGate { .. } => 1,
        SpNetwork::Series(xs) | SpNetwork::Parallel(xs) => xs.iter().map(count_tgs).sum(),
    }
}

/// Strategy: a random small AIG plus its construction recipe.
#[derive(Clone, Debug)]
enum Op {
    And(usize, usize, bool, bool),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

fn random_aig(ops: Vec<Op>, n_inputs: usize, n_outputs: usize) -> Aig {
    let mut aig = Aig::new();
    let mut nets: Vec<Lit> = (0..n_inputs).map(|_| aig.input()).collect();
    for op in &ops {
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
        aig.output(nets[nets.len() - 1 - (k % nets.len().min(7))]);
    }
    aig
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), any::<usize>(), any::<bool>(), any::<bool>())
            .prop_map(|(a, b, na, nb)| Op::And(a, b, na, nb)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Xor(a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(s, a, b)| Op::Mux(s, a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synthesis_is_sat_proven_sound(ops in prop::collection::vec(op_strategy(), 1..40)) {
        // Every synthesis pass is *proven* equivalent by the SAT sweeper,
        // not sampled: random simulation alone could miss a divergence.
        let aig = random_aig(ops, 6, 3);
        let opt = aig::synthesize(&aig);
        prop_assert_eq!(
            aig::check_equivalence(&aig, &opt),
            Ok(aig::Equivalence::Equal)
        );
        prop_assert!(opt.and_count() <= aig.and_count());
    }

    #[test]
    fn balance_and_refactor_are_sat_proven_sound(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let aig = random_aig(ops, 6, 3);
        let balanced = aig::balance(&aig);
        prop_assert_eq!(
            aig::check_equivalence(&aig, &balanced),
            Ok(aig::Equivalence::Equal)
        );
        let refactored = aig::refactor(&aig);
        prop_assert_eq!(
            aig::check_equivalence(&aig, &refactored),
            Ok(aig::Equivalence::Equal)
        );
    }

    #[test]
    fn mapping_is_sat_proven_sound_all_families(ops in prop::collection::vec(op_strategy(), 1..30)) {
        let aig = random_aig(ops, 5, 2);
        // Skip degenerate cases where every output folded to a constant.
        prop_assume!(aig.output_lits().iter().all(|l| l.node() != 0));
        for family in GateFamily::ALL {
            let lib = charlib::characterize_library(family);
            let mapped = techmap::map_aig(&aig, &lib, &techmap::MapConfig::default())
                .expect("mapping succeeds");
            if let Err(e) = techmap::verify_mapping(&aig, &mapped, &lib) {
                return Err(TestCaseError::fail(format!("{family} mapping refuted: {e}")));
            }
        }
    }

    #[test]
    fn netlist_back_conversion_matches_word_simulation(
        ops in prop::collection::vec(op_strategy(), 1..30),
        words in prop::collection::vec(any::<u64>(), 5),
    ) {
        // The SAT proof of `verify_mapping` rests on `to_aig` being a
        // faithful model of the netlist; pin random mapped netlists'
        // back-conversions against the word-level simulator directly.
        let aig = random_aig(ops, 5, 2);
        prop_assume!(aig.output_lits().iter().all(|l| l.node() != 0));
        for family in GateFamily::ALL {
            let lib = charlib::characterize_library(family);
            let mapped = techmap::map_aig(&aig, &lib, &techmap::MapConfig::default())
                .expect("mapping succeeds");
            let rebuilt = mapped.to_aig(&lib);
            let values = mapped.simulate64(&lib, &words);
            let netlist_out = mapped.output_words(&values);
            let rebuilt_out = aig::simulate64(&rebuilt, &words);
            prop_assert_eq!(
                &netlist_out, &rebuilt_out,
                "{} back-conversion diverges from word simulation", family
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn leakage_monotone_under_composition(depth in 1usize..4, width in 1usize..4) {
        // Series composition suppresses, parallel composition adds.
        let mut sim = LeakageSimulator::new(TechParams::cmos_32nm());
        let stack = |d: usize| {
            if d == 1 {
                OffPattern::Device
            } else {
                OffPattern::series(vec![OffPattern::Device; d])
            }
        };
        let deeper = sim.ioff(&stack(depth + 1));
        let shallower = sim.ioff(&stack(depth));
        prop_assert!(deeper < shallower, "series must suppress: {deeper} vs {shallower}");

        let fan = |w: usize| {
            if w == 1 {
                OffPattern::Device
            } else {
                OffPattern::parallel(vec![OffPattern::Device; w])
            }
        };
        let wider = sim.ioff(&fan(width + 1));
        let narrower = sim.ioff(&fan(width));
        prop_assert!(wider > narrower, "parallel must add: {wider} vs {narrower}");
    }
}

//! The scale-harness determinism contract: every parallelized hot loop —
//! synth flow, `dch` sweep, technology mapping — produces the bit-exact
//! network of the serial walk at any worker count, and the synthetic
//! workload generators always emit well-formed (acyclic, strashed,
//! AIGER-round-trippable) circuits.

use aig::graph::Node;
use aig::{Aig, Flow, Lit};
use ambipolar::engine;
use ambipolar::pipeline::mapper_cut_db;
use bench_circuits::scale::{random_kregular, workloads};
use gate_lib::GateFamily;
use proptest::prelude::*;
use std::sync::{Mutex, PoisonError};
use techmap::{MapConfig, Subject};

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail for n >= 1")
}

/// Runs `work` under 1, 2, and 8 worker threads and asserts all three
/// results compare equal under `same`. The pool override is
/// process-global, so installs are serialized across this binary's tests.
fn thread_invariant<R>(work: impl Fn() -> R, same: impl Fn(&R, &R) -> bool, what: &str) {
    static POOL_LOCK: Mutex<()> = Mutex::new(());
    let _guard = POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let reference = pool(1).install(&work);
    for threads in [2usize, 8] {
        let result = pool(threads).install(&work);
        assert!(
            same(&reference, &result),
            "{what}: {threads}-thread run diverged from the serial reference"
        );
    }
}

#[test]
fn synth_flow_is_bit_identical_across_thread_counts() {
    let flow = Flow::parse("b;rw;rf;b;rw -z;b").expect("synth flow parses");
    for (spec, aig) in workloads(2_000) {
        thread_invariant(
            || flow.run(&aig),
            Aig::same_structure,
            &format!("synth on {}", spec.family),
        );
    }
}

#[test]
fn dch_sweep_is_bit_identical_across_thread_counts() {
    let dch = Flow::parse("dch").expect("dch parses");
    for (spec, aig) in workloads(2_000) {
        thread_invariant(
            || dch.run(&aig),
            Aig::same_structure,
            &format!("dch on {}", spec.family),
        );
    }
}

#[test]
fn mapping_is_identical_across_thread_counts() {
    let library = engine::library(GateFamily::ALL[0]);
    let cache = engine::match_cache(GateFamily::ALL[0]);
    let config = MapConfig::default();
    for (spec, aig) in workloads(2_000) {
        let synthesized = Flow::default_flow().run(&aig);
        thread_invariant(
            || {
                let cuts = &mut mapper_cut_db(&config);
                techmap::map_subject(Subject::Plain(&synthesized, cuts), library, cache, &config)
                    .expect("the workloads map")
            },
            |a, b| a.gate_count() == b.gate_count() && a.net_count() == b.net_count(),
            &format!("mapping on {}", spec.family),
        );
    }
}

/// Structural well-formedness of a generated AIG: every AND fanin points
/// strictly backwards (acyclic by construction) and no two ANDs share an
/// ordered fanin pair (strashed).
fn assert_well_formed(aig: &Aig, what: &str) {
    let mut seen: std::collections::HashSet<(Lit, Lit)> = std::collections::HashSet::new();
    for (idx, node) in aig.nodes().enumerate() {
        if let Node::And(a, b) = node {
            assert!(
                (a.node() as usize) < idx && (b.node() as usize) < idx,
                "{what}: node {idx} has a forward fanin (cycle)"
            );
            assert!(
                seen.insert((a, b)),
                "{what}: node {idx} duplicates an AND (strash miss)"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_workloads_are_acyclic_and_strashed(
        target in 50usize..800,
        seed in any::<u64>(),
    ) {
        let aig = random_kregular(target, seed);
        prop_assert!(aig.and_count() >= target);
        assert_well_formed(&aig, "random_kregular");
    }

    #[test]
    fn random_workloads_round_trip_binary_aiger(
        target in 50usize..800,
        seed in any::<u64>(),
    ) {
        let aig = random_kregular(target, seed);
        let bytes = aig::to_aiger_binary(&aig);
        let back = aig::from_aiger_auto(&bytes).expect("emitted AIGER parses");
        prop_assert!(back.same_structure(&aig), "binary AIGER round trip changed the graph");
    }
}

#[test]
fn all_generator_families_are_well_formed_and_round_trip() {
    for (spec, aig) in workloads(2_000) {
        assert_well_formed(&aig, spec.family);
        let back = aig::from_aiger_auto(&aig::to_aiger_binary(&aig)).expect("AIGER parses");
        assert!(
            back.same_structure(&aig),
            "{}: binary AIGER round trip changed the graph",
            spec.family
        );
    }
}

//! Full-catalog mapping soundness, *proven*: every Table-1 benchmark ×
//! every gate family × every mapping objective goes through
//! `verify_mapping`, which back-converts the netlist to an AIG and closes
//! the equivalence with SAT — 108 theorems, not 108 samples — all through
//! the engine's shared NPN match caches.

use ambipolar::engine;
use ambipolar::pipeline::mapper_cut_db;
use gate_lib::GateFamily;
use rayon::prelude::*;
use techmap::{
    map_aig, map_subject, verify_mapping, MapConfig, NetRef, Objective, Subject, VerifyError,
};

#[test]
fn every_circuit_family_objective_triple_is_sat_proven() {
    let benches = bench_circuits::table1_benchmarks();
    // Synthesize each benchmark once (in parallel); the mapping matrix
    // below reuses the synthesized networks.
    let synthesized: Vec<(String, aig::Aig)> = benches
        .par_iter()
        .map(|bench| (bench.name.to_owned(), aig::synthesize(&bench.aig)))
        .collect();

    let jobs: Vec<(usize, GateFamily, Objective)> = (0..synthesized.len())
        .flat_map(|ci| {
            GateFamily::ALL.into_iter().flat_map(move |family| {
                Objective::ALL
                    .into_iter()
                    .map(move |objective| (ci, family, objective))
            })
        })
        .collect();
    assert_eq!(jobs.len(), synthesized.len() * 9);

    let failures: Vec<String> = jobs
        .into_par_iter()
        .map(|(ci, family, objective)| {
            let (name, aig) = &synthesized[ci];
            let library = engine::library(family);
            let cache = engine::match_cache(family);
            let config = MapConfig::for_objective(objective);
            let cuts = &mut mapper_cut_db(&config);
            let mapped = match map_subject(Subject::Plain(aig, cuts), library, cache, &config) {
                Ok(mapped) => mapped,
                Err(e) => return Some(format!("{name}/{family}/{objective}: map error {e}")),
            };
            if mapped.gate_count() == 0 {
                return Some(format!("{name}/{family}/{objective}: empty netlist"));
            }
            // SAT-closed proof (not sampling): Ok(()) is a theorem.
            if let Err(e) = verify_mapping(aig, &mapped, library) {
                return Some(format!("{name}/{family}/{objective}: {e}"));
            }
            None
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect();
    assert!(failures.is_empty(), "{failures:?}");

    // The whole matrix must have shared one match cache per family.
    assert!(
        engine::match_cache_build_count() <= GateFamily::ALL.len(),
        "match caches rebuilt: {}",
        engine::match_cache_build_count()
    );
    assert!(engine::characterization_count() <= GateFamily::ALL.len());
}

#[test]
fn corrupted_catalog_netlist_is_refuted_with_a_concrete_pattern() {
    // The prover must not be a rubber stamp: corrupt one mapped catalog
    // circuit and demand a counterexample that simulation confirms.
    let bench = bench_circuits::benchmark_by_name("t481").expect("t481");
    let synthesized = aig::synthesize(&bench.aig);
    let library = engine::library(GateFamily::Cmos);
    let mapped = map_aig(&synthesized, library, &MapConfig::default()).expect("t481 maps");
    let mut outputs = mapped.outputs().to_vec();
    outputs[0] = NetRef {
        net: outputs[0].net,
        inverted: !outputs[0].inverted,
    };
    let corrupted = techmap::MappedNetlist::new(
        mapped.family,
        mapped.pi_count,
        mapped.instances.clone(),
        outputs,
    );
    let Err(VerifyError::Mismatch(report)) = verify_mapping(&synthesized, &corrupted, library)
    else {
        panic!("corrupted netlist must be refuted with a counterexample");
    };
    assert_eq!(report.inputs.len(), synthesized.input_count());
    assert_ne!(report.expected, report.got);
    // Replay the pattern: the AIG really computes `expected` there.
    let replay = aig::sim::evaluate(&synthesized, &report.inputs);
    assert_eq!(replay[report.output], report.expected);
}

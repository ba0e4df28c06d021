//! Cross-crate determinism contract of the experiment engine:
//!
//! * a fixed seed yields an identical [`power_est::ActivityReport`] on
//!   every run, and the parallel chunked simulation on a two-thread pool
//!   is bit-identical to the serial reference;
//! * the Table-1 driver is deterministic, identical at one and at two
//!   threads and to fresh-database jobs run one at a time, and
//!   characterizes each gate family exactly once per process, however
//!   many runs share it.

use ambipolar::engine;
use ambipolar::experiments::{table1_subset, Table1Config};
use ambipolar::pipeline::{mapper_cut_db, run_job, PipelineConfig};
use gate_lib::GateFamily;
use power_est::{simulate_activity, simulate_activity_serial, CHUNK_WORDS};
use std::sync::{Mutex, PoisonError};
use techmap::MapConfig;

/// Runs `op` on a pool of `threads` workers. The pool install is
/// process-global, so installs are serialized across this binary's tests:
/// no concurrent test can change the width under `op`.
fn on_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    static POOL_LOCK: Mutex<()> = Mutex::new(());
    let _guard = POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail for n >= 1")
        .install(op)
}

fn small_netlist() -> (
    techmap::MappedNetlist,
    &'static charlib::CharacterizedLibrary,
) {
    let bench = bench_circuits::benchmark_by_name("t481").expect("t481 exists");
    let synthesized = aig::synthesize(&bench.aig);
    let lib = engine::library(GateFamily::CntfetGeneralized);
    let mapped =
        techmap::map_aig(&synthesized, lib, &MapConfig::default()).expect("mapping succeeds");
    (mapped, lib)
}

#[test]
fn same_seed_same_activity_report() {
    let (mapped, lib) = small_netlist();
    let patterns = CHUNK_WORDS * 64 + 4096; // force a multi-chunk run
    let a = simulate_activity(&mapped, lib, patterns, 0xDA7E_2010);
    let b = simulate_activity(&mapped, lib, patterns, 0xDA7E_2010);
    assert_eq!(a, b, "same seed must reproduce the exact report");
    let c = simulate_activity(&mapped, lib, patterns, 0xDA7E_2011);
    assert_ne!(a.toggles, c.toggles, "different seeds must differ");
}

#[test]
fn parallel_simulation_matches_serial_reference() {
    let (mapped, lib) = small_netlist();
    for patterns in [512usize, CHUNK_WORDS * 64 * 2 + 64] {
        for seed in [1u64, 0xBEEF] {
            let par = on_pool(2, || simulate_activity(&mapped, lib, patterns, seed));
            let ser = simulate_activity_serial(&mapped, lib, patterns, seed);
            assert_eq!(par, ser, "patterns {patterns} seed {seed}");
        }
    }
}

#[test]
fn engine_characterizes_each_family_at_most_once() {
    // Warm all three; repeated access from any call path must not add
    // characterization runs.
    let libs = engine::libraries();
    let after_warm = engine::characterization_count();
    assert!(after_warm <= GateFamily::ALL.len());

    let config = Table1Config {
        pipeline: PipelineConfig {
            patterns: 1024,
            ..PipelineConfig::default()
        },
    };
    let names = Some(&["t481"][..]);
    let first = table1_subset(&config, names).expect("mapping succeeds");
    let second = table1_subset(&config, names).expect("mapping succeeds");
    assert_eq!(
        engine::characterization_count(),
        after_warm,
        "Table-1 runs must reuse the cached libraries"
    );
    // Same &'static instances on every access.
    for (a, b) in libs.iter().zip(engine::libraries()) {
        assert!(std::ptr::eq(*a, b));
    }
    // Deterministic end to end: identical rendered tables.
    assert_eq!(format!("{first}"), format!("{second}"));
}

/// The serial reference for the Table-1 driver is the driver itself on a
/// one-thread pool, plus every (circuit, family) job run alone against a
/// fresh cut database — where the driver maps against a clone of a
/// database it filled up front.
#[test]
fn engine_table_matches_serial_reference_table() {
    let config = Table1Config {
        pipeline: PipelineConfig {
            patterns: 1024,
            ..PipelineConfig::default()
        },
    };
    let names = ["t481", "C1355"];
    let table_at = |threads| {
        on_pool(threads, || table1_subset(&config, Some(&names))).expect("mapping succeeds")
    };
    let parallel = table_at(2);
    let serial = table_at(1);
    assert_eq!(parallel.rows.len(), 2);
    assert_eq!(format!("{:?}", parallel.rows), format!("{:?}", serial.rows));

    let pipeline = &config.pipeline;
    let flow = engine::parse_flow(pipeline).expect("the default flow parses");
    for (row, name) in parallel.rows.iter().zip(names) {
        let bench = bench_circuits::benchmark_by_name(name).expect("catalog circuit");
        let synthesized = flow.run(&bench.aig);
        for (result, lib) in row.results.iter().zip(engine::libraries()) {
            let fresh = &mut mapper_cut_db(&pipeline.map);
            let job = run_job(&synthesized, None, lib, pipeline, fresh, None).expect("maps");
            let what = format!("{name}/{}: fresh-database job vs table", lib.family);
            assert_eq!(format!("{:?}", job.result), format!("{result:?}"), "{what}");
        }
    }
}

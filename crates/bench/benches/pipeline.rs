//! Criterion bench: the full per-circuit Table-1 pipeline (map → verify
//! → time → power-estimate), its power-simulation inner loop, and the
//! Table-1 driver on one thread and on the default pool.

use ambipolar::engine;
use ambipolar::experiments::{table1_subset, Table1Config};
use ambipolar::pipeline::{mapper_cut_db, run_job, PipelineConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use gate_lib::GateFamily;

fn bench_pipeline(c: &mut Criterion) {
    let aig = bench_circuits::benchmark_by_name("C1908")
        .expect("C1908 exists")
        .aig;
    let synthesized = aig::synthesize(&aig);
    let config = PipelineConfig {
        patterns: 1 << 13,
        ..PipelineConfig::default()
    };
    let mut group = c.benchmark_group("pipeline_c1908");
    group.sample_size(10);
    for family in GateFamily::ALL {
        let lib = engine::library(family);
        group.bench_function(family.label(), |b| {
            b.iter(|| {
                let mut db = mapper_cut_db(&config.map);
                run_job(&synthesized, None, lib, &config, &mut db, None).expect("mapping succeeds")
            })
        });
    }
    group.finish();

    // The random-pattern power-simulation loop in isolation: the parallel
    // chunked path and its bit-identical serial reference.
    let lib = engine::library(GateFamily::CntfetGeneralized);
    let mapped = techmap::map_aig(&synthesized, lib, &techmap::MapConfig::default())
        .expect("mapping succeeds");
    let mut group = c.benchmark_group("power_simulation");
    group.sample_size(10);
    group.bench_function("c1908_8k_patterns", |b| {
        b.iter(|| power_est::simulate_activity(&mapped, lib, 1 << 13, 5))
    });
    group.bench_function("c1908_8k_patterns_serial", |b| {
        b.iter(|| power_est::simulate_activity_serial(&mapped, lib, 1 << 13, 5))
    });
    group.finish();

    // Library characterization (the Fig. 5 flow), deliberately cold — this
    // is the cost the engine cache amortizes to once per process.
    let mut group = c.benchmark_group("characterization");
    group.sample_size(10);
    group.bench_function("generalized_46_cells_cold", |b| {
        b.iter(|| charlib::characterize_library(GateFamily::CntfetGeneralized))
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    // A 2-row Table-1 subset through the driver on the default pool and
    // on one thread (libraries pre-cached for both).
    let config = Table1Config {
        pipeline: PipelineConfig {
            patterns: 1 << 12,
            ..PipelineConfig::default()
        },
    };
    let names = Some(&["C1908", "C1355"][..]);
    engine::libraries();
    let mut group = c.benchmark_group("engine_table1_2rows");
    group.sample_size(10);
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool construction cannot fail for n >= 1");
    group.bench_function("parallel", |b| {
        b.iter(|| table1_subset(&config, names).expect("mapping succeeds"))
    });
    group.bench_function("one_thread", |b| {
        b.iter(|| one_thread.install(|| table1_subset(&config, names).expect("mapping succeeds")))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_engine);
criterion_main!(benches);

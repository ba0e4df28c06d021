//! Criterion bench: technology mapping (cut enumeration + NPN matching +
//! objective-driven covering) of a Table-1 benchmark onto each of the
//! three libraries, through the engine's shared NPN match caches.

use ambipolar::engine;
use ambipolar::pipeline::mapper_cut_db;
use criterion::{criterion_group, criterion_main, Criterion};
use gate_lib::GateFamily;
use techmap::{map_subject, MapConfig, MappedNetlist, NpnMatchCache, Objective, Subject};

/// One mapping run through a shared match cache and a fresh cut database.
fn map_shared(
    aig: &aig::Aig,
    lib: &charlib::CharacterizedLibrary,
    cache: &NpnMatchCache,
    config: &MapConfig,
) -> MappedNetlist {
    let cuts = &mut mapper_cut_db(config);
    map_subject(Subject::Plain(aig, cuts), lib, cache, config).expect("mapping succeeds")
}

fn bench_mapping(c: &mut Criterion) {
    let aig = bench_circuits::benchmark_by_name("C1355")
        .expect("C1355 exists")
        .aig;
    let synthesized = aig::synthesize(&aig);
    let config = MapConfig::default();
    let mut group = c.benchmark_group("techmap_c1355");
    group.sample_size(10);
    for family in GateFamily::ALL {
        let lib = engine::library(family);
        let cache = engine::match_cache(family);
        group.bench_function(family.label(), |b| {
            b.iter(|| map_shared(&synthesized, lib, cache, &config))
        });
    }
    group.finish();

    // The three objectives on one library: same stages, different
    // selection cost.
    let lib = engine::library(GateFamily::CntfetGeneralized);
    let cache = engine::match_cache(GateFamily::CntfetGeneralized);
    let mut group = c.benchmark_group("techmap_objectives_c1355");
    group.sample_size(10);
    for objective in Objective::ALL {
        let config = MapConfig::for_objective(objective);
        group.bench_function(objective.label(), |b| {
            b.iter(|| map_shared(&synthesized, lib, cache, &config))
        });
    }
    group.finish();

    // Cold-cache mapping (builds a private NPN class table per call) vs
    // the shared-cache path above: the cost the engine cache amortizes.
    let mut group = c.benchmark_group("techmap_cold_cache");
    group.sample_size(10);
    group.bench_function("generalized_private_cache", |b| {
        b.iter(|| techmap::map_aig(&synthesized, lib, &config).expect("mapping succeeds"))
    });
    group.finish();

    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    group.bench_function("resyn_c1355", |b| b.iter(|| aig::synthesize(&aig)));
    group.finish();
}

criterion_group!(benches, bench_mapping);
criterion_main!(benches);

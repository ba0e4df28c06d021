//! Criterion bench: the industrial-scale hot loops in isolation — 4/6-cut
//! enumeration and `dch` sweeper signature propagation on a 10k-AND
//! seeded random AIG. Run once in `--test` mode by CI to keep the harness
//! callable; run normally to track the nodes/sec trajectory alongside the
//! `scale` bin's end-to-end numbers.

use aig::cuts::{enumerate_cuts, CutConfig};
use aig::Flow;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_scale(c: &mut Criterion) {
    let aig = bench_circuits::scale::random_kregular(10_000, 0x5CA1_AB1E);
    // Warm the shared rewrite library outside the timed region.
    aig::rewrite::library();

    let mut group = c.benchmark_group("cuts_rand10k");
    group.sample_size(10);
    for (label, k) in [("k4", 4usize), ("k6", 6usize)] {
        let config = CutConfig {
            k,
            ..CutConfig::default()
        };
        group.bench_function(label, |b| b.iter(|| enumerate_cuts(&aig, config)));
    }
    group.finish();

    // `dch` imports the flow snapshots through the SAT sweeper, so this
    // times signature propagation + frontier refinement end to end.
    let dch = Flow::parse("dch").expect("dch parses");
    let mut group = c.benchmark_group("sweeper_rand10k");
    group.sample_size(10);
    group.bench_function("dch", |b| b.iter(|| dch.run(&aig)));
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);

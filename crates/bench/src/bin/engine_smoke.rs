//! Engine smoke measurement: verifies the three load-bearing claims of the
//! experiment engine on the machine at hand —
//!
//! 1. **library cache**: a quick Table-1 subset characterizes each gate
//!    family exactly once, however many pipeline runs it fans out;
//! 2. **match cache**: the NPN class table of each family is built exactly
//!    once and every later access is a pointer read (build vs hit timing
//!    is printed);
//! 3. **rewrite library**: the NPN-class optimal-subgraph library behind
//!    the `rw` pass is built exactly once (build vs hit timing printed),
//!    and the configured flow's per-pass timing is measured on a sample
//!    circuit;
//! 4. **thread-count invariance**: the Table-1 driver on a one-thread pool
//!    and on a pool of at least two workers produces bit-identical tables
//!    (the wall-clock ratio is printed; on one core the two runs are
//!    equivalent by construction).
//!
//! ```text
//! cargo run --release -p bench --bin engine_smoke
//! cargo run --release -p bench --bin engine_smoke -- --patterns 16384
//! cargo run --release -p bench --bin engine_smoke -- --flow "b;rw;b" --json smoke.json
//! ```

use ambipolar::engine;
use ambipolar::experiments::table1_subset;
use bench::BenchArgs;
use gate_lib::GateFamily;
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse("engine_smoke");
    args.with_thread_pool(|| run(&args));
}

fn run(args: &BenchArgs) {
    let config = args.table1_config();
    let threads = rayon::current_num_threads();
    println!(
        "engine smoke: quick Table 1, {} patterns/circuit, {} objective, flow \"{}\", {} worker thread(s)",
        config.pipeline.patterns, config.pipeline.map.objective, config.pipeline.flow, threads
    );

    // NPN match caches: time the cold build and a warm hit per family.
    for family in GateFamily::ALL {
        let t_build = Instant::now();
        let cache = engine::match_cache(family);
        let build = t_build.elapsed();
        let t_hit = Instant::now();
        let again = engine::match_cache(family);
        let hit = t_hit.elapsed();
        assert!(std::ptr::eq(cache, again), "hits must share one instance");
        println!(
            "  match cache [{family}]: {} cells -> {} NPN classes, build {build:?}, hit {hit:?}",
            cache.cell_count(),
            cache.class_count(),
        );
    }
    let match_builds = engine::match_cache_build_count();
    assert!(
        match_builds <= GateFamily::ALL.len(),
        "built {match_builds} match caches for {} families",
        GateFamily::ALL.len()
    );

    // Rewrite library: time the cold build and a warm hit.
    let t_build = Instant::now();
    let rewrite_lib = engine::rewrite_library();
    let rewrite_build = t_build.elapsed();
    let t_hit = Instant::now();
    let again = engine::rewrite_library();
    let rewrite_hit = t_hit.elapsed();
    assert!(std::ptr::eq(rewrite_lib, again), "hits share one instance");
    println!(
        "  rewrite library: {} NPN classes over {} arena ANDs, build {rewrite_build:?}, hit {rewrite_hit:?}",
        rewrite_lib.class_count(),
        rewrite_lib.and_count(),
    );
    assert!(
        engine::rewrite_library_build_count() <= 1,
        "the rewrite library must build at most once"
    );

    // Flow stage timing: run the configured flow on an XOR-rich sample
    // circuit and report per-pass deltas and wall-clock. With --choices
    // (or a flow that already has a dch step) the choice network's
    // per-class/ring statistics are reported too.
    let flow = args.flow();
    let sample = bench_circuits::benchmark_by_name("C1355").expect("C1355");
    let scope = obs::JobScope::begin();
    let (_, sample_choices, flow_report) = flow.run_with_choices(&sample.aig);
    let flow_counters = aig::profile::scoped(&scope);
    drop(scope);
    println!("  flow stages on {} ({}):", sample.name, sample.function);
    for line in flow_report.to_string().lines() {
        println!("    {line}");
    }
    let choice_stats = sample_choices.as_ref().map(|choices| {
        let stats = choices.stats();
        assert!(choices.verify_acyclic(), "choice rings must be acyclic");
        println!(
            "  choice network on {}: {} snapshots -> {} arena ANDs, {} classes with choices, \
             {} ring members (max ring {}), {} merges ({} unlinked by the acyclicity guard)",
            sample.name,
            stats.snapshots,
            stats.arena_ands,
            stats.classes_with_choices,
            stats.choices,
            stats.max_ring,
            stats.merged,
            stats.guard_rejected,
        );
        stats
    });

    // Warm the library cache outside the timed region so both drivers
    // time pure pipeline work (and so the cache claim is checked exactly).
    let t_char = Instant::now();
    engine::libraries();
    let characterization_time = t_char.elapsed();
    let after_warm = engine::characterization_count();

    // The one driver under a one-thread and an `n`-thread pool (n >= 2).
    let n = threads.max(2);
    let timed_table = |threads| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
        let start = Instant::now();
        let table = pool
            .expect("n >= 1")
            .install(|| table1_subset(&config, None));
        (table.expect("built-in benchmarks map"), start.elapsed())
    };
    let (serial, serial_time) = timed_table(1);
    let (parallel, parallel_time) = timed_table(n);
    assert_eq!(
        format!("{:?}", serial.rows),
        format!("{:?}", parallel.rows),
        "the {n}-thread table must be bit-identical to the one-thread table"
    );
    assert_eq!(
        engine::characterization_count(),
        after_warm,
        "table runs must not re-characterize any library"
    );
    assert!(
        after_warm <= 3,
        "engine ran {after_warm} characterizations for 3 families"
    );
    assert_eq!(
        engine::match_cache_build_count(),
        match_builds,
        "table runs must not rebuild any NPN match cache"
    );

    println!("  characterization (3 families, once per process): {characterization_time:?}");
    println!("  Table-1 driver, 1 thread:                        {serial_time:?}");
    println!("  Table-1 driver, {n} threads:                       {parallel_time:?}");
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64().max(1e-9);
    println!("  wall-clock speedup:                              {speedup:.2}x");
    println!("  tables bit-identical:                            yes");
    println!("  characterizations after full run:                {after_warm} (one per family)");
    println!("  match-cache builds after full run:               {match_builds} (one per family)");
    println!(
        "  rewrite-library builds after full run:           {} (at most one)",
        engine::rewrite_library_build_count()
    );
    if threads == 1 {
        println!("  note: single-core machine — speedup ~1x expected; rerun on a multi-core host for the >=2x target");
    }

    if let Some(path) = &args.json {
        let flow_passes: Vec<String> = flow_report
            .passes
            .iter()
            .map(|p| {
                format!(
                    "{{\"pass\": {}, \"accepted\": {}, \"ands_before\": {}, \"ands_after\": {}, \
                     \"depth_before\": {}, \"depth_after\": {}, \"seconds\": {}}}",
                    bench::qor::json_string(&p.name),
                    p.accepted,
                    p.before.ands,
                    p.after.ands,
                    p.before.depth,
                    p.after.depth,
                    bench::qor::json_seconds(p.elapsed),
                )
            })
            .collect();
        let mut extra = vec![
            ("serial_seconds", bench::qor::json_seconds(serial_time)),
            ("parallel_seconds", bench::qor::json_seconds(parallel_time)),
            (
                "rewrite_library_build_seconds",
                bench::qor::json_seconds(rewrite_build),
            ),
            ("flow_stages_c1355", format!("[{}]", flow_passes.join(", "))),
            (
                "flow_profile_c1355",
                bench::qor::profile_json(&flow_counters),
            ),
        ];
        if let Some(stats) = choice_stats {
            extra.push((
                "choice_stats_c1355",
                format!(
                    "{{\"snapshots\": {}, \"arena_ands\": {}, \"classes_with_choices\": {}, \
                     \"choices\": {}, \"max_ring\": {}, \"merged\": {}, \"guard_rejected\": {}}}",
                    stats.snapshots,
                    stats.arena_ands,
                    stats.classes_with_choices,
                    stats.choices,
                    stats.max_ring,
                    stats.merged,
                    stats.guard_rejected,
                ),
            ));
        }
        let doc =
            bench::qor::table1_json("engine_smoke", &parallel, &config, parallel_time, &extra);
        bench::qor::write_or_exit(path, &doc);
    }
}

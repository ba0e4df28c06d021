//! Regenerates **Table 1** of the paper: logic synthesis and technology
//! mapping of 12 benchmarks with the three libraries, through the
//! parallel, library-cached experiment engine.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin table1              # 64 K patterns
//! cargo run --release -p bench --bin table1 -- --paper   # 640 K (paper)
//! cargo run --release -p bench --bin table1 -- --patterns 16384 --seed 7
//! cargo run --release -p bench --bin table1 -- --flow "b;rw;rf;b;rw -z;b" --verify sat C1355 C499 t481
//! cargo run --release -p bench --bin table1 -- --json BENCH_table1.json
//! ```
//!
//! Positional arguments restrict the run to the named catalog circuits
//! (the full 12-row table otherwise); `--json PATH` writes the
//! machine-readable QoR/runtime artifact the perf trajectory is tracked
//! with.

use ambipolar::experiments::table1_subset;
use bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse("table1");
    let config = args.table1_config();
    let names: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    for name in &names {
        if bench_circuits::benchmark_by_name(name).is_none() {
            eprintln!("unknown catalog circuit `{name}`");
            std::process::exit(2);
        }
    }
    let subset = if names.is_empty() {
        None
    } else {
        Some(&names[..])
    };
    eprintln!(
        "running Table 1 ({}) with {} random patterns per circuit ({} objective, flow \"{}\") on {} thread(s)...",
        if names.is_empty() {
            "all 12 circuits".to_owned()
        } else {
            names.join(", ")
        },
        config.pipeline.patterns,
        config.pipeline.map.objective,
        config.pipeline.flow,
        args.threads.unwrap_or_else(rayon::current_num_threads)
    );
    let started = std::time::Instant::now();
    let table = args
        .with_tracing(|| args.with_thread_pool(|| table1_subset(&config, subset)))
        .unwrap_or_else(|e| {
            eprintln!("mapping failed: {e}");
            std::process::exit(1);
        });
    let wall = started.elapsed();
    println!("{table}");
    println!();
    println!("Paper reference (averages): generalized 1145 gates / 64 ps / 19.84 µW PD / 0.23 µW PS / 23.05 µW PT / 1.59e-24 EDP");
    println!("                            conventional 1462 / 89 / 29.25 / 0.33 / 33.97 / 3.85;  CMOS 1511 / 452 / 42.35 / 4.55 / 53.70 / 31.04");
    println!("Paper improvements vs CMOS: generalized 24.2% gates, 7.1x delay, 53.4% PD, 94.5% PS, 57.1% PT, 19.5x EDP");
    println!("                            conventional 3.2% gates, 5.1x delay, 30.9% PD, 92.7% PS, 36.7% PT, 8.1x EDP");
    if let Some(path) = &args.json {
        let doc = bench::qor::table1_json("table1", &table, &config, wall, &[]);
        bench::qor::write_or_exit(path, &doc);
    }
    eprintln!("total runtime: {wall:?}");
}

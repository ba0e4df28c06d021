//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-choices|scale-rand|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a record line (host, configuration, every metric measured),
//! then the result line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced run with `--trace 1`. With `--trace 1`
//! the traced run's spans are also written as Chrome-trace JSON under
//! `perfbench/out/`. Exits 1 when any operation failed, 2 on bad usage.

use perfbench::report::Outcome;
use perfbench::{host, scale, serve, table1};

const USAGE: &str = "usage: perfbench --workload table1-choices|scale-rand|serve-mixed \
                     --seed N --seconds S --trace 0|1";

const WORKLOADS: [&str; 3] = ["table1-choices", "scale-rand", "serve-mixed"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(bad)?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("perfbench: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    let mut outcome: Outcome = match args.workload {
        "table1-choices" => table1::run(&table1::Size::FULL, args.seed, args.seconds),
        "scale-rand" => scale::run(&scale::Size::FULL, args.seed, args.seconds, args.trace),
        _ => serve::run(&serve::Size::FULL, args.seed, args.seconds, args.trace),
    };
    outcome.config("workload", ambipolar::json::json_string(args.workload));
    outcome.config("seed", args.seed);
    outcome.config("seconds", args.seconds);
    outcome.config("tracing", args.trace);
    if args.trace {
        if let Some(json) = &outcome.trace_json {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
            if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json))
            {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
    }
    println!("{}", outcome.record_line(&host::record()));
    println!("{}", outcome.result_line(args.trace));
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}

//! Nodes/sec scale harness: runs the synthesis hot loops — synth flow,
//! `dch` sweep, technology mapping — over the deterministic synthetic
//! workloads of `bench_circuits::scale` at each requested size, and
//! reports throughput in AND nodes per second.
//!
//! ```text
//! cargo run --release -p bench --bin scale                      # 10k 50k 100k
//! cargo run --release -p bench --bin scale -- 10k 100k 1m
//! cargo run --release -p bench --bin scale -- --json BENCH_scale.json
//! cargo run --release -p bench --bin scale -- 10k --verify sat  # SAT-prove the synth results
//! cargo run --release -p bench --bin scale -- 10k --emit-aiger /tmp/scale  # AIGER for map_aiger
//! ```
//!
//! Every phase runs on the calling thread: the engine is serial, and its
//! parallelism lives at job grain (the Table-1 driver, `synthd`), which
//! this harness does not exercise — so it takes no `--threads`. The synth
//! flow is fixed and no power is estimated, so it takes no `--flow`,
//! `--choices`, `--patterns`, `--seed` or `--paper` either.
//! `--objective` and `--cut-k` set the map phase. `--verify sat`
//! SAT-proves each synthesized network equivalent to its generator
//! output (slow at large sizes; CI runs it on the 10k workloads).
//!
//! Each phase is timed as the *minimum* over [`TIMING_RUNS`] identical
//! runs — the minimum is the standard robust estimator for a
//! deterministic workload (every run does exactly the same work; any
//! excess over the fastest run is scheduler or cache noise). Each row
//! also records the `aig::profile` counters of exactly one run of each
//! phase (cut sets, SAT merges, simulation words) in its `profile`
//! object, which `tools/scale_guard.py` requires on every row.
//!
//! Span tracing runs for the whole harness (span granularity is one
//! flow pass / mapper phase, far too coarse to perturb the timings):
//! each JSON row carries a `spans_top` field — the workload's five
//! largest spans by self time — so `BENCH_scale.json` attributes
//! throughput changes to phases; `--trace-out PATH` additionally writes
//! the full Chrome-trace JSON.

use aig::check::{check_equivalence, Equivalence};
use aig::{Aig, Flow};
use ambipolar::engine;
use ambipolar::pipeline::mapper_cut_db;
use bench::BenchArgs;
use bench_circuits::scale::workloads;
use gate_lib::GateFamily;
use std::time::Instant;
use techmap::{Subject, Verify};

/// The synth measurement flow (ABC's `resyn2` shape, matching the QoR
/// baseline's script).
const SYNTH_FLOW: &str = "b;rw;rf;b;rw -z;b";

/// Default measurement sizes: small / medium / large (CI trims to
/// 10k/50k; the committed baseline includes 100k).
const DEFAULT_SIZES: [usize; 3] = [10_000, 50_000, 100_000];

/// Timed runs per phase; the reported time is the minimum.
const TIMING_RUNS: usize = 2;

fn parse_size(s: &str) -> Option<usize> {
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix('k') {
        Some(d) => (d, 1_000usize),
        None => match lower.strip_suffix('m') {
            Some(d) => (d, 1_000_000usize),
            None => (lower.as_str(), 1usize),
        },
    };
    digits.parse::<usize>().ok().map(|n| n * mult)
}

struct Phase {
    name: &'static str,
    /// AND count the throughput is normalized by (the phase's input).
    ands: usize,
    seconds: f64,
}

impl Phase {
    fn nps(&self) -> f64 {
        self.ands as f64 / self.seconds.max(1e-9)
    }
}

fn main() {
    let args = BenchArgs::parse("scale");
    obs::set_enabled(true);
    let sizes: Vec<usize> = if args.positional.is_empty() {
        DEFAULT_SIZES.to_vec()
    } else {
        args.positional
            .iter()
            .map(|s| {
                parse_size(s).unwrap_or_else(|| {
                    eprintln!("bad size `{s}` (expected e.g. 10000, 10k, 1m)");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let verify = args.verify.unwrap_or(Verify::Off);
    let synth_flow = Flow::parse(SYNTH_FLOW).expect("the synth flow parses");
    let dch_flow = Flow::parse("dch").expect("the dch flow parses");
    let library = engine::library(GateFamily::ALL[0]);
    let cache = engine::match_cache(GateFamily::ALL[0]);
    let map_config = args.pipeline_config().map;

    println!("scale harness: sizes {sizes:?}, flow \"{SYNTH_FLOW}\"");
    let started = Instant::now();
    let mut rows: Vec<String> = Vec::new();
    for &size in &sizes {
        for (spec, aig) in workloads(size) {
            if let Some(dir) = &args.emit_aiger {
                emit_aiger(dir, spec.family, size, &aig);
            }
            let ands = aig.and_count();
            let row_scope = obs::JobScope::begin();
            let spans_before = obs::span_stats();

            let (t_synth, synth_aig) = timed_best(|| synth_flow.run(&aig));
            let synth = Phase {
                name: "synth",
                ands,
                seconds: t_synth,
            };

            // dch sweep over the raw workload.
            let (t_dch, _) = timed_best(|| dch_flow.run(&aig));
            let dch = Phase {
                name: "dch",
                ands,
                seconds: t_dch,
            };

            // Mapping the synthesized network (the pipeline's next stage).
            let (t_map, mapped) = timed_best(|| {
                let cuts = &mut mapper_cut_db(&map_config);
                techmap::map_subject(
                    Subject::Plain(&synth_aig, cuts),
                    library,
                    cache,
                    &map_config,
                )
            });
            let mapped = mapped.unwrap_or_else(|e| {
                eprintln!("{} {size}: mapping failed: {e}", spec.family);
                std::process::exit(1);
            });
            let row_counters = aig::profile::scoped(&row_scope);
            drop(row_scope);
            let map = Phase {
                name: "map",
                ands: synth_aig.and_count(),
                seconds: t_map,
            };

            if verify == Verify::Sat {
                let t = Instant::now();
                let proof = check_equivalence(&aig, &synth_aig).unwrap_or_else(|e| {
                    eprintln!("{} {size}: verify shape mismatch: {e}", spec.family);
                    std::process::exit(1);
                });
                assert_eq!(
                    proof,
                    Equivalence::Equal,
                    "{} {size}: synth result must be SAT-equivalent",
                    spec.family
                );
                println!(
                    "  {:<5} {:>8}: synth SAT-verified in {:?}",
                    spec.family,
                    size,
                    t.elapsed()
                );
            }

            for phase in [&synth, &dch, &map] {
                println!(
                    "  {:<5} {:>8} {:<5}: {:>12.0} nodes/s",
                    spec.family,
                    size,
                    phase.name,
                    phase.nps(),
                );
            }
            println!(
                "  {:<5} {:>8} work : cuts {} reused / {} computed; sat merges {}; sim words {}",
                spec.family,
                size,
                row_counters.cuts_reused,
                row_counters.cuts_computed,
                row_counters.sat_merge_calls,
                row_counters.sim_words,
            );
            rows.push(result_json(
                spec.family,
                size,
                ands,
                synth_aig.and_count(),
                mapped.gate_count(),
                &[synth, dch, map],
                &row_counters,
                &spans_top_json(&spans_before),
            ));
        }
    }
    eprintln!("total runtime: {:?}", started.elapsed());

    if let Some(path) = &args.json {
        let doc = format!(
            "{{\n  \"artifact\": \"scale\",\n  \"flow\": {},\n  \
             \"sizes\": [{}],\n  \"results\": [\n    {}\n  ]\n}}\n",
            bench::qor::json_string(SYNTH_FLOW),
            sizes
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            rows.join(",\n    "),
        );
        bench::qor::write_or_exit(path, &doc);
    }
    if let Some(path) = &args.trace_out {
        match obs::write_trace(path) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => {
                eprintln!("cannot write trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The workload's five largest spans by self time since `before`
/// (aggregated across this row's timing runs), as a JSON array.
fn spans_top_json(before: &[obs::SpanStat]) -> String {
    let mut deltas: Vec<obs::SpanStat> = obs::span_stats()
        .into_iter()
        .map(|s| {
            let prev = before.iter().find(|b| b.name == s.name);
            obs::SpanStat {
                count: s.count - prev.map_or(0, |p| p.count),
                total_us: s.total_us - prev.map_or(0, |p| p.total_us),
                self_us: s.self_us - prev.map_or(0, |p| p.self_us),
                name: s.name,
            }
        })
        .filter(|s| s.count > 0)
        .collect();
    deltas.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
    let top: Vec<String> = deltas
        .iter()
        .take(5)
        .map(|s| {
            format!(
                "{{\"name\": {}, \"count\": {}, \"total_us\": {}, \"self_us\": {}}}",
                bench::qor::json_string(&s.name),
                s.count,
                s.total_us,
                s.self_us,
            )
        })
        .collect();
    format!("[{}]", top.join(", "))
}

fn timed<R>(work: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = work();
    (t.elapsed().as_secs_f64(), r)
}

/// Runs `work` [`TIMING_RUNS`] times, returning the fastest wall-clock
/// and the (deterministic, hence identical) last result. Only the first
/// run counts toward the caller's `obs::JobScope`: the repeats run under
/// a throwaway scope of their own.
fn timed_best<R>(work: impl Fn() -> R) -> (f64, R) {
    let (mut best, mut result) = timed(&work);
    let _repeats = obs::JobScope::begin();
    for _ in 1..TIMING_RUNS {
        let (t, r) = timed(&work);
        best = best.min(t);
        result = r;
    }
    (best, result)
}

fn emit_aiger(dir: &str, family: &str, size: usize, aig: &Aig) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("cannot create {dir}: {e}");
        std::process::exit(2);
    });
    let path = format!("{dir}/{family}_{size}.aig");
    std::fs::write(&path, aig::to_aiger_binary(aig)).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    println!("  wrote {path}");
}

#[allow(clippy::too_many_arguments)] // one row, one call site
fn result_json(
    family: &str,
    size: usize,
    ands: usize,
    synth_ands: usize,
    gates: usize,
    phases: &[Phase; 3],
    counters: &aig::profile::Counters,
    spans_top: &str,
) -> String {
    // The `serial_` keys are what `tools/scale_guard.py` and the
    // committed baseline read.
    let phase_json: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "\"{}\": {{\"ands\": {}, \"serial_seconds\": {}, \"serial_nodes_per_sec\": {}}}",
                p.name,
                p.ands,
                bench::qor::json_f64(p.seconds),
                bench::qor::json_f64(p.nps()),
            )
        })
        .collect();
    format!(
        "{{\"family\": {}, \"target\": {}, \"ands\": {}, \"synth_ands\": {}, \"gates\": {}, {}, \
         \"profile\": {}, \"spans_top\": {}}}",
        bench::qor::json_string(family),
        size,
        ands,
        synth_ands,
        gates,
        phase_json.join(", "),
        bench::qor::profile_json(counters),
        spans_top,
    )
}

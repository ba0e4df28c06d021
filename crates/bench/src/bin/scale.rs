//! Nodes/sec scale harness: runs the synthesis hot loops — synth flow,
//! `dch` sweep, technology mapping — over the deterministic synthetic
//! workloads of `bench_circuits::scale` at each requested size, serial
//! (one worker) vs parallel (the `--threads`/environment pool), and
//! reports throughput in AND nodes per second.
//!
//! ```text
//! cargo run --release -p bench --bin scale                      # 10k 50k 100k
//! cargo run --release -p bench --bin scale -- 10k 100k 1m
//! cargo run --release -p bench --bin scale -- --threads 8 --json BENCH_scale.json
//! cargo run --release -p bench --bin scale -- 10k --verify sat  # SAT-prove the synth results
//! cargo run --release -p bench --bin scale -- 10k --emit-aiger /tmp/scale  # AIGER for map_aiger
//! ```
//!
//! The serial and parallel runs must produce bit-identical networks (the
//! engine's determinism contract); the bin asserts this on every
//! workload, so a throughput run doubles as a determinism check.
//! `--verify sat` additionally SAT-proves each synthesized network
//! equivalent to its generator output (slow at large sizes; CI runs it
//! on the 10k workloads).
//!
//! Each phase is timed as the *minimum* over [`TIMING_RUNS`] identical
//! runs per pool — the minimum is the standard robust estimator for a
//! deterministic workload (every run does exactly the same work; any
//! excess over the fastest run is scheduler or cache noise). When the
//! parallel pool has one worker it is configuration-identical to the
//! serial pool, so both columns report the shared best time instead of
//! sampling the same distribution twice. Each row also records the
//! `aig::profile` counter deltas of its serial runs (cut reuse, SAT
//! merges, simulation words), which `tools/scale_guard.py` checks to
//! prove the incremental cut database is live.
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

/// Timed runs per phase per pool; the reported time is the minimum.
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
    serial_seconds: f64,
    parallel_seconds: f64,
}

impl Phase {
    fn serial_nps(&self) -> f64 {
        self.ands as f64 / self.serial_seconds.max(1e-9)
    }

    fn parallel_nps(&self) -> f64 {
        self.ands as f64 / self.parallel_seconds.max(1e-9)
    }
}

fn main() {
    let args = BenchArgs::parse();
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
    let threads = args.threads.unwrap_or_else(rayon::current_num_threads);
    let synth_flow = Flow::parse(SYNTH_FLOW).expect("the synth flow parses");
    let dch_flow = Flow::parse("dch").expect("the dch flow parses");
    let library = engine::library(GateFamily::ALL[0]);
    let cache = engine::match_cache(GateFamily::ALL[0]);
    let map_config = args.pipeline_config().map;
    let serial_pool = pool(1);
    let parallel_pool = pool(threads);

    println!(
        "scale harness: sizes {:?}, flow \"{SYNTH_FLOW}\", serial (1 thread) vs parallel ({threads} thread(s))",
        sizes
    );
    let started = Instant::now();
    let mut rows: Vec<String> = Vec::new();
    for &size in &sizes {
        for (spec, aig) in workloads(size) {
            if let Some(dir) = &args.emit_aiger {
                emit_aiger(dir, spec.family, size, &aig);
            }
            let ands = aig.and_count();
            let counters_before = aig::profile::snapshot();
            let spans_before = obs::span_stats();

            // Synth: serial and parallel must agree bit-for-bit. The
            // serial run keeps its FlowReport so the row can record the
            // cut database's reuse statistics.
            let (t_synth_s, (synth_s, synth_report)) =
                timed_best(&serial_pool, || synth_flow.run_with_report(&aig));
            let (t_synth_p, (synth_p, _)) =
                timed_best(&parallel_pool, || synth_flow.run_with_report(&aig));
            assert!(
                synth_s.same_structure(&synth_p),
                "{} {size}: parallel synth diverged from serial",
                spec.family
            );
            let (t_synth_s, t_synth_p) = fold_single_thread(threads, t_synth_s, t_synth_p);
            let synth = Phase {
                name: "synth",
                ands,
                serial_seconds: t_synth_s,
                parallel_seconds: t_synth_p,
            };

            // dch sweep over the raw workload.
            let (t_dch_s, dch_s) = timed_best(&serial_pool, || dch_flow.run(&aig));
            let (t_dch_p, dch_p) = timed_best(&parallel_pool, || dch_flow.run(&aig));
            assert!(
                dch_s.same_structure(&dch_p),
                "{} {size}: parallel dch diverged from serial",
                spec.family
            );
            let (t_dch_s, t_dch_p) = fold_single_thread(threads, t_dch_s, t_dch_p);
            let dch = Phase {
                name: "dch",
                ands,
                serial_seconds: t_dch_s,
                parallel_seconds: t_dch_p,
            };

            // Mapping the synthesized network (the pipeline's next stage).
            let map_ands = synth_s.and_count();
            let map = || {
                let cuts = &mut mapper_cut_db(&map_config);
                techmap::map_subject(Subject::Plain(&synth_s, cuts), library, cache, &map_config)
            };
            let (t_map_s, mapped_s) = timed_best(&serial_pool, map);
            let (t_map_p, mapped_p) = timed_best(&parallel_pool, map);
            let (t_map_s, t_map_p) = fold_single_thread(threads, t_map_s, t_map_p);
            let (mapped_s, mapped_p) = match (mapped_s, mapped_p) {
                (Ok(s), Ok(p)) => (s, p),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{} {size}: mapping failed: {e}", spec.family);
                    std::process::exit(1);
                }
            };
            let row_counters = aig::profile::snapshot().delta_since(&counters_before);
            assert_eq!(
                mapped_s.gate_count(),
                mapped_p.gate_count(),
                "{} {size}: parallel mapping diverged from serial",
                spec.family
            );
            let map = Phase {
                name: "map",
                ands: map_ands,
                serial_seconds: t_map_s,
                parallel_seconds: t_map_p,
            };

            if verify == Verify::Sat {
                let t = Instant::now();
                let proof = check_equivalence(&aig, &synth_s).unwrap_or_else(|e| {
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
                    "  {:<5} {:>8} {:<5}: {:>12.0} nodes/s serial, {:>12.0} nodes/s parallel ({:.2}x)",
                    spec.family,
                    size,
                    phase.name,
                    phase.serial_nps(),
                    phase.parallel_nps(),
                    phase.serial_seconds / phase.parallel_seconds.max(1e-9),
                );
            }
            println!(
                "  {:<5} {:>8} flow : cuts {} reused / {} computed; sat merges {}; sim words {}",
                spec.family,
                size,
                synth_report.cuts_reused,
                synth_report.cuts_computed,
                row_counters.sat_merge_calls,
                row_counters.sim_words,
            );
            rows.push(result_json(
                spec.family,
                size,
                ands,
                synth_s.and_count(),
                mapped_s.gate_count(),
                &[synth, dch, map],
                &synth_report,
                &row_counters,
                &spans_top_json(&spans_before),
            ));
        }
    }
    eprintln!("total runtime: {:?}", started.elapsed());

    if let Some(path) = &args.json {
        let doc = format!(
            "{{\n  \"artifact\": \"scale\",\n  \"flow\": {},\n  \"threads\": {},\n  \
             \"sizes\": [{}],\n  \"results\": [\n    {}\n  ]\n}}\n",
            bench::qor::json_string(SYNTH_FLOW),
            threads,
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

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail for n >= 1")
}

fn timed<R>(work: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = work();
    (t.elapsed().as_secs_f64(), r)
}

/// Runs `work` [`TIMING_RUNS`] times inside `pool`, returning the fastest
/// wall-clock and the (deterministic, hence identical) last result.
fn timed_best<R>(pool: &rayon::ThreadPool, work: impl Fn() -> R + Sync) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..TIMING_RUNS {
        let (t, r) = pool.install(|| timed(&work));
        best = best.min(t);
        result = Some(r);
    }
    (best, result.expect("TIMING_RUNS >= 1"))
}

/// With one worker the "parallel" pool is configuration-identical to the
/// serial pool, so both columns report the shared best measurement
/// instead of sampling the same distribution twice.
fn fold_single_thread(threads: usize, serial: f64, parallel: f64) -> (f64, f64) {
    if threads == 1 {
        let best = serial.min(parallel);
        (best, best)
    } else {
        (serial, parallel)
    }
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
    synth_report: &aig::FlowReport,
    counters: &aig::profile::Counters,
    spans_top: &str,
) -> String {
    let phase_json: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "\"{}\": {{\"ands\": {}, \"serial_seconds\": {}, \"parallel_seconds\": {}, \
                 \"serial_nodes_per_sec\": {}, \"parallel_nodes_per_sec\": {}}}",
                p.name,
                p.ands,
                bench::qor::json_f64(p.serial_seconds),
                bench::qor::json_f64(p.parallel_seconds),
                bench::qor::json_f64(p.serial_nps()),
                bench::qor::json_f64(p.parallel_nps()),
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
        bench::qor::profile_json(synth_report, counters),
        spans_top,
    )
}

//! `loadgen` — the `synthd` load harness: replays the Table-1 catalog
//! (optionally plus a scale-harness random circuit) against a running
//! server at configurable concurrency and reports p50/p95/p99 latency,
//! throughput (jobs/sec and input-AND nodes/sec), warm-cache telemetry,
//! and a serial in-process one-shot baseline — the `BENCH_serve.json`
//! artifact.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--concurrency C] [--repeat R]
//!         [--scale N] [--workers N] [--queue N] [--timeout-ms MS]
//!         [bench flags: --patterns --seed --paper --flow --objective --cut-k
//!          --verify --choices --threads N --json PATH --trace-out PATH]
//!         [circuit names...]
//! ```
//!
//! Without `--addr` an in-process [`serve::Server`] is started (the
//! self-contained mode the smoke artifact uses), and `--threads N` sets
//! the width its jobs fan out to; with it, an external `synthd` is
//! driven over TCP — that is what CI's `serve-smoke` job does — and
//! `--threads` is rejected, since the daemon sets its own width. Each
//! (circuit × family) pair is submitted `--repeat` times in repeat-major
//! order, so the first wave populates the content-hash cache and later
//! waves must hit it. Responses to identical specs are checked for
//! byte-identity on the fly: any divergence counts as an error in the
//! artifact (and trips `tools/serve_guard.py`).
//!
//! The artifact embeds the server's Prometheus metrics frame (scraped
//! after the load phase, before the baseline) under `"metrics"`, and
//! `--trace-out PATH` writes a Chrome-trace/Perfetto JSON of the span
//! ring at exit — in in-process mode that trace contains every served
//! request's span tree, which is what `tools/obs_guard.py` validates.

use bench::qor::{json_f64, json_seconds, json_string, write_or_exit};
use bench::BenchArgs;
use gate_lib::GateFamily;
use serve::{Client, JobSpec, Response, Server, ServerConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct LoadFlags {
    addr: Option<String>,
    concurrency: usize,
    repeat: usize,
    scale: Option<usize>,
    workers: usize,
    queue: usize,
    timeout_ms: u64,
}

impl Default for LoadFlags {
    fn default() -> Self {
        LoadFlags {
            addr: None,
            concurrency: 8,
            repeat: 3,
            scale: None,
            workers: 8,
            queue: 64,
            timeout_ms: 0,
        }
    }
}

/// Splits loadgen's own flags out of the command line before handing
/// the remainder to [`BenchArgs::parse_for`] (which rejects unknown
/// flags by design).
fn split_args() -> (LoadFlags, Vec<String>) {
    let mut own = LoadFlags::default();
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => own.addr = Some(value("--addr", &mut args)),
            "--concurrency" => own.concurrency = parse(&value("--concurrency", &mut args)),
            "--repeat" => own.repeat = parse(&value("--repeat", &mut args)),
            "--scale" => own.scale = Some(parse(&value("--scale", &mut args))),
            "--workers" => own.workers = parse(&value("--workers", &mut args)),
            "--queue" => own.queue = parse(&value("--queue", &mut args)),
            "--timeout-ms" => own.timeout_ms = parse(&value("--timeout-ms", &mut args)) as u64,
            _ => rest.push(arg),
        }
    }
    if own.concurrency == 0 || own.repeat == 0 {
        eprintln!("--concurrency and --repeat must be at least 1");
        std::process::exit(2);
    }
    (own, rest)
}

fn parse(value: &str) -> usize {
    value.parse().unwrap_or_else(|e| {
        eprintln!("bad numeric argument {value}: {e}");
        std::process::exit(2);
    })
}

/// One submission outcome, as recorded by a client thread.
struct Outcome {
    latency: Duration,
    kind: Kind,
    busy_retries: u64,
    input_ands: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Ok,
    Timeout,
    Error,
    Diverged,
}

fn main() {
    let (flags, rest) = split_args();
    let args = BenchArgs::parse_for("loadgen", rest).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    if flags.addr.is_some() && args.threads.is_some() {
        eprintln!(
            "loadgen does not take --threads with --addr: an external synthd sets its own width"
        );
        std::process::exit(2);
    }
    args.with_thread_pool(|| run(&flags, &args));
}

fn run(flags: &LoadFlags, args: &BenchArgs) {
    if args.trace_out.is_some() {
        // In-process mode shares the span ring with the server, so the
        // trace captures every request's root span; against an external
        // `--addr` the server-side spans live in the daemon (use
        // `synthd --trace-out` there instead).
        obs::set_enabled(true);
    }
    let pipeline = args.pipeline_config();

    // --- workload ---------------------------------------------------------
    let catalog = bench_circuits::table1_benchmarks();
    let circuits: Vec<(String, aig::Aig)> = if args.positional.is_empty() {
        catalog
            .into_iter()
            .map(|b| (b.name.to_owned(), b.aig))
            .collect()
    } else {
        args.positional
            .iter()
            .map(|name| {
                let b = bench_circuits::benchmark_by_name(name).unwrap_or_else(|| {
                    eprintln!("unknown circuit: {name}");
                    std::process::exit(2);
                });
                (b.name.to_owned(), b.aig)
            })
            .collect()
    };
    let mut circuits: Vec<(String, Vec<u8>, usize)> = circuits
        .into_iter()
        .map(|(name, aig)| {
            let ands = aig.and_count();
            (name, aig::to_aiger_binary(&aig), ands)
        })
        .collect();
    if let Some(target) = flags.scale {
        let aig = bench_circuits::scale::random_kregular(target, 7);
        let ands = aig.and_count();
        circuits.push((format!("rand_{target}"), aig::to_aiger_binary(&aig), ands));
    }

    // Repeat-major order: wave 0 populates the warm cache, waves 1..R
    // must hit it.
    let mut jobs: Vec<(JobSpec, usize)> = Vec::new();
    for _ in 0..flags.repeat {
        for (name, aiger, ands) in &circuits {
            for family in GateFamily::ALL {
                jobs.push((
                    JobSpec {
                        family,
                        objective: pipeline.map.objective,
                        cut_k: pipeline.map.cut_k as u8,
                        max_cuts: 0,
                        verify: pipeline.verify,
                        choices: pipeline.choices,
                        patterns: pipeline.patterns as u64,
                        seed: pipeline.seed,
                        timeout_ms: flags.timeout_ms,
                        flow: pipeline.flow.clone(),
                        name: name.clone(),
                        aiger: aiger.clone(),
                    },
                    *ands,
                ));
            }
        }
    }

    // Warm the process-wide per-family caches before any clock starts:
    // `synthd` does the same at startup (steady-state is what the
    // harness measures), and the serial baseline below gets the same
    // head start, so neither side is charged for characterization.
    for family in GateFamily::ALL {
        let _ = ambipolar::engine::library(family);
        let _ = ambipolar::engine::match_cache(family);
    }

    // --- server -----------------------------------------------------------
    let local = if flags.addr.is_none() {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: flags.workers,
            queue_depth: flags.queue,
            cache_capacity: 64,
        })
        .unwrap_or_else(|e| {
            eprintln!("cannot start in-process server: {e}");
            std::process::exit(1);
        });
        Some(server)
    } else {
        None
    };
    let addr = flags
        .addr
        .clone()
        .unwrap_or_else(|| local.as_ref().expect("started above").addr().to_string());

    // --- load -------------------------------------------------------------
    eprintln!(
        "loadgen: {} jobs ({} circuits x {} families x {} repeats) at concurrency {} against {addr}",
        jobs.len(),
        circuits.len(),
        GateFamily::ALL.len(),
        flags.repeat,
        flags.concurrency
    );
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::with_capacity(jobs.len()));
    // First-seen response digest per identical spec: concurrent
    // resubmissions must be byte-identical (netlist + QoR document).
    let digests: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..flags.concurrency {
            scope.spawn(|| {
                let mut client = match Client::connect(&addr) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("loadgen: cannot connect to {addr}: {e}");
                        std::process::exit(1);
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((spec, ands)) = jobs.get(i) else {
                        return;
                    };
                    let started = Instant::now();
                    let mut busy_retries = 0;
                    let response = loop {
                        match client.submit(spec) {
                            Ok(Response::Busy) => {
                                busy_retries += 1;
                                std::thread::sleep(Duration::from_millis(5 * busy_retries.min(20)));
                            }
                            Ok(other) => break other,
                            Err(e) => {
                                eprintln!("loadgen: request failed: {e}");
                                std::process::exit(1);
                            }
                        }
                    };
                    let latency = started.elapsed();
                    let kind = match &response {
                        Response::Ok {
                            netlist_verilog,
                            qor_json,
                            ..
                        } => {
                            let mut h = DefaultHasher::new();
                            netlist_verilog.hash(&mut h);
                            qor_json.hash(&mut h);
                            let digest = h.finish();
                            let mut k = DefaultHasher::new();
                            // All knobs are constant across this run,
                            // so (name, family) identifies a spec.
                            spec.name.hash(&mut k);
                            spec.family.label().hash(&mut k);
                            let key = k.finish();
                            let mut seen = digests.lock().expect("digest lock");
                            match seen.get(&key) {
                                Some(&first) if first != digest => {
                                    eprintln!(
                                        "loadgen: DIVERGED response for {}/{}",
                                        spec.name, spec.family
                                    );
                                    Kind::Diverged
                                }
                                Some(_) => Kind::Ok,
                                None => {
                                    seen.insert(key, digest);
                                    Kind::Ok
                                }
                            }
                        }
                        Response::Timeout { .. } => Kind::Timeout,
                        Response::Error { msg, .. } => {
                            eprintln!("loadgen: job {}/{} failed: {msg}", spec.name, spec.family);
                            Kind::Error
                        }
                        Response::Busy | Response::Stats { .. } | Response::Metrics { .. } => {
                            Kind::Error
                        }
                    };
                    outcomes.lock().expect("outcome lock").push(Outcome {
                        latency,
                        kind,
                        busy_retries,
                        input_ands: *ands,
                    });
                }
            });
        }
    });
    let wall = wall.elapsed();

    // --- server stats -----------------------------------------------------
    let server_stats = Client::connect(&addr)
        .and_then(|mut c| c.stats())
        .unwrap_or_else(|e| {
            eprintln!("loadgen: cannot fetch server stats: {e}");
            std::process::exit(1);
        });
    // Scrape the Prometheus metrics frame before the serial baseline
    // runs, so the latency-histogram counts reflect exactly the load
    // phase (tools/obs_guard.py checks them against jobs_ok).
    let server_metrics = Client::connect(&addr)
        .and_then(|mut c| c.metrics())
        .unwrap_or_else(|e| {
            eprintln!("loadgen: cannot fetch server metrics: {e}");
            std::process::exit(1);
        });
    drop(local); // orderly in-process shutdown before the baseline runs

    // --- serial one-shot baseline ----------------------------------------
    // Each unique (circuit, family) job is run once, serially, in this
    // process: parse + synthesize + map + estimate with a fresh cut
    // database per run — what a one-shot CLI invocation would do (minus
    // library characterization, which this process has already paid;
    // the comparison is conservative in the baseline's favor).
    eprintln!("loadgen: measuring serial one-shot baseline...");
    let baseline_wall = Instant::now();
    let mut baseline_jobs = 0usize;
    for (name, aiger, _) in &circuits {
        for family in GateFamily::ALL {
            // A one-shot process starts from the AIGER bytes every
            // time: parse, synthesize, enumerate cuts, map, estimate.
            let input = aig::from_aiger_auto(aiger).expect("own encoding");
            let parsed = ambipolar::engine::parse_flow(&pipeline).expect("flow validated");
            let (synthesized, choices) =
                ambipolar::engine::synthesize_with_choices(&parsed, &input, &pipeline);
            let library = ambipolar::engine::library(family);
            let mut db = ambipolar::pipeline::mapper_cut_db(&pipeline.map);
            ambipolar::pipeline::run_job(
                &synthesized,
                choices.as_ref(),
                library,
                &pipeline,
                &mut db,
                None,
            )
            .unwrap_or_else(|e| {
                eprintln!("baseline job {name}/{family} failed: {e}");
                std::process::exit(1);
            });
            baseline_jobs += 1;
        }
    }
    let baseline_wall = baseline_wall.elapsed();

    // --- aggregate --------------------------------------------------------
    let outcomes = outcomes.into_inner().expect("outcome lock");
    let ok = outcomes.iter().filter(|o| o.kind == Kind::Ok).count();
    let timeouts = outcomes.iter().filter(|o| o.kind == Kind::Timeout).count();
    let errors = outcomes
        .iter()
        .filter(|o| matches!(o.kind, Kind::Error | Kind::Diverged))
        .count();
    let diverged = outcomes.iter().filter(|o| o.kind == Kind::Diverged).count();
    let busy_retries: u64 = outcomes.iter().map(|o| o.busy_retries).sum();
    let nodes: usize = outcomes
        .iter()
        .filter(|o| o.kind == Kind::Ok)
        .map(|o| o.input_ands)
        .sum();
    let mut latencies_ms: Vec<f64> = outcomes
        .iter()
        .map(|o| o.latency.as_secs_f64() * 1e3)
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |q: f64| -> f64 {
        if latencies_ms.is_empty() {
            return 0.0;
        }
        let rank = ((q * latencies_ms.len() as f64).ceil() as usize).clamp(1, latencies_ms.len());
        latencies_ms[rank - 1]
    };
    let mean = latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64;
    let throughput = outcomes.len() as f64 / wall.as_secs_f64();
    let baseline_throughput = baseline_jobs as f64 / baseline_wall.as_secs_f64();
    let speedup = throughput / baseline_throughput;

    let names: Vec<String> = circuits.iter().map(|(n, _, _)| json_string(n)).collect();
    let doc = format!(
        "{{\n  \"artifact\": \"serve_load\",\n  \"concurrency\": {},\n  \"repeat\": {},\n  \
         \"circuits\": [{}],\n  \"patterns\": {},\n  \"seed\": {},\n  \"flow\": {},\n  \
         \"objective\": {},\n  \"cut_k\": {},\n  \"verify\": {},\n  \"choices\": {},\n  \
         \"timeout_ms\": {},\n  \"jobs_total\": {},\n  \"jobs_ok\": {},\n  \
         \"jobs_timeout\": {},\n  \"jobs_error\": {},\n  \"jobs_diverged\": {},\n  \
         \"busy_retries\": {},\n  \"wall_seconds\": {},\n  \
         \"throughput_jobs_per_s\": {},\n  \"throughput_nodes_per_s\": {},\n  \
         \"latency_ms\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {}, \"max\": {}}},\n  \
         \"serial_baseline\": {{\"jobs\": {}, \"wall_seconds\": {}, \
         \"throughput_jobs_per_s\": {}}},\n  \"speedup_vs_serial\": {},\n  \
         \"metrics\": {},\n  \"server\": {}\n}}\n",
        flags.concurrency,
        flags.repeat,
        names.join(", "),
        pipeline.patterns,
        pipeline.seed,
        json_string(&pipeline.flow),
        json_string(&pipeline.map.objective.to_string()),
        pipeline.map.cut_k,
        json_string(&pipeline.verify.to_string()),
        pipeline.choices,
        flags.timeout_ms,
        outcomes.len(),
        ok,
        timeouts,
        errors,
        diverged,
        busy_retries,
        json_seconds(wall),
        json_f64(throughput),
        json_f64(nodes as f64 / wall.as_secs_f64()),
        json_f64(pct(0.50)),
        json_f64(pct(0.95)),
        json_f64(pct(0.99)),
        json_f64(mean),
        json_f64(latencies_ms.last().copied().unwrap_or(0.0)),
        baseline_jobs,
        json_seconds(baseline_wall),
        json_f64(baseline_throughput),
        json_f64(speedup),
        json_string(&server_metrics),
        server_stats.trim_end(),
    );
    println!(
        "loadgen: {ok}/{} ok ({timeouts} timeout, {errors} error), p50 {:.1} ms, p99 {:.1} ms, \
         {throughput:.2} jobs/s ({speedup:.2}x serial)",
        outcomes.len(),
        pct(0.50),
        pct(0.99),
    );
    if let Some(path) = &args.json {
        write_or_exit(path, &doc);
    } else {
        print!("{doc}");
    }
    if let Some(path) = &args.trace_out {
        match obs::write_trace(path) {
            Ok(()) => eprintln!("loadgen: trace written to {path}"),
            Err(e) => {
                eprintln!("loadgen: cannot write trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if errors > 0 {
        std::process::exit(1);
    }
}

//! `serve-mixed`: an in-process `synthd` with 2 workers and the rayon pool
//! fixed at one thread, driven closed-loop by 2 client connections. The
//! mix is the catalog circuits × 3 families × {delay, area}, each
//! submitted three times, plus about one request in eight carrying a
//! never-seen seeded random circuit of ≈ 900 ANDs, all in seeded order,
//! every request with `verify sat` and 4096 patterns. It is the only
//! workload where the serve layer, the single-flight cache and concurrent
//! jobs do work: cache misses (synthesis, then publish) run beside hits
//! all run long.
//!
//! Parallelism here is job-level: two workers on two cores. The jobs'
//! own parallel loops run on one thread, because the rayon stand-in
//! spawns threads per topological level: on a 2-vCPU host, with the pool
//! at 2, three runs of one seed took 23.1, 25.4 and 31.1 s (p95 486–728
//! ms), too unsteady to bound; at 1 they took 18.9, 17.5 and 18.1 s (p95
//! 364–385 ms). The never-seen circuits are small because a random
//! circuit's synthesized size varies with its seed more the larger it is:
//! at ≈ 3k ANDs the p95 — set by these misses — moved by a quarter
//! between two seeds.

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{host, setup};
use aig::profile::snapshot;
use gate_lib::GateFamily;
use serve::{Client, JobSpec, Response, Server, ServerConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use techmap::{Objective, Verify};

/// How much work one run does.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Catalog circuits (`None`: all twelve).
    pub circuits: Option<&'static [&'static str]>,
    /// Submissions of each catalog (circuit, family, objective) spec.
    pub repeats: usize,
    /// Never-seen random circuits, one request each.
    pub fresh: usize,
    /// Their `random_kregular` target AND count.
    pub fresh_ands: usize,
    /// Power-estimation patterns per request.
    pub patterns: u64,
}

impl Size {
    /// The benchmark's setting: 216 catalog requests and 31 fresh ones,
    /// so the p95 latency has 12 samples beyond it.
    pub const FULL: Size = Size {
        circuits: None,
        repeats: 3,
        fresh: 31,
        fresh_ands: 500,
        patterns: 4096,
    };
    /// The tests' setting: 12 catalog requests and 2 fresh ones.
    pub const TINY: Size = Size {
        circuits: Some(&["t481", "C1355"]),
        repeats: 1,
        fresh: 2,
        fresh_ands: 500,
        patterns: 1024,
    };
}

/// `synthd` worker threads.
pub const WORKERS: usize = 2;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Per-request deadline: a stuck job counts as a failed operation
/// instead of hanging the run.
const TIMEOUT_MS: u64 = 60_000;
/// Busy replies a request may get before it counts as failed.
const MAX_BUSY_RETRIES: u64 = 200;

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        queue_depth: 32,
        cache_capacity: 64,
    }
}

/// The seeded mix: the distinct specs, and the order requests send them
/// in (indices into the specs).
fn mix(size: &Size, seed: u64) -> (Vec<JobSpec>, Vec<usize>) {
    let spec = |name: String, aig: &aig::Aig, family, objective| JobSpec {
        family,
        objective,
        cut_k: techmap::MapConfig::default().cut_k as u8,
        max_cuts: 0,
        verify: Verify::Sat,
        choices: false,
        patterns: size.patterns,
        seed: crate::derive_seed(seed, crate::PATTERN_STREAM),
        timeout_ms: TIMEOUT_MS,
        flow: aig::DEFAULT_FLOW.to_owned(),
        name,
        aiger: aig::to_aiger_binary(aig),
    };
    let objectives = [Objective::Delay, Objective::Area];
    let mut specs = Vec::new();
    for bench in bench_circuits::table1_benchmarks() {
        if size
            .circuits
            .is_some_and(|names| !names.contains(&bench.name))
        {
            continue;
        }
        for family in GateFamily::ALL {
            for objective in objectives {
                specs.push(spec(bench.name.to_owned(), &bench.aig, family, objective));
            }
        }
    }
    let catalog = specs.len();
    let generator_seed = crate::derive_seed(seed, crate::GENERATOR_STREAM);
    for i in 0..size.fresh {
        let aig = bench_circuits::scale::random_kregular(
            size.fresh_ands,
            crate::derive_seed(generator_seed, i as u64),
        );
        let family = GateFamily::ALL[i % GateFamily::ALL.len()];
        let objective = objectives[i / GateFamily::ALL.len() % objectives.len()];
        specs.push(spec(format!("fresh{i}"), &aig, family, objective));
    }
    let mut order: Vec<usize> = (0..size.repeats)
        .flat_map(|_| 0..catalog)
        .chain(catalog..specs.len())
        .collect();
    crate::shuffle(&mut order, crate::derive_seed(seed, crate::ORDER_STREAM));
    (specs, order)
}

/// One request as the client saw it.
struct Reply {
    /// Index of the spec sent.
    spec: usize,
    /// Send → reply, Busy retries included.
    latency: Duration,
    busy_retries: u64,
    response: Result<Response, String>,
}

/// One load phase against a fresh server.
struct Phase {
    /// First send → last reply, seconds.
    wall: f64,
    replies: Vec<Reply>,
    usage: host::Usage,
    par_tasks: u64,
    singleflight_waits: u64,
}

/// What an OK reply reports.
struct Served {
    gates: f64,
    delay_s: f64,
    power_w: f64,
    cache_hit: bool,
    service_ms: f64,
    queue_ms: f64,
    latency_ms: f64,
}

/// The scalar after `"key": ` in one of the server's JSON documents.
fn field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let rest = &doc[doc.find(&pattern)? + pattern.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn number(doc: &str, key: &str) -> Option<f64> {
    field(doc, key)?.parse().ok()
}

impl Reply {
    fn ok(&self) -> Option<Served> {
        let Ok(Response::Ok {
            qor_json,
            telemetry_json,
            ..
        }) = &self.response
        else {
            return None;
        };
        Some(Served {
            gates: number(qor_json, "gates")?,
            delay_s: number(qor_json, "delay_s")?,
            power_w: number(qor_json, "pt_w")?,
            cache_hit: field(telemetry_json, "cache_hit")? == "true",
            service_ms: number(telemetry_json, "wall_ms")?,
            queue_ms: number(telemetry_json, "queue_wait_ms")?,
            latency_ms: self.latency.as_secs_f64() * 1e3,
        })
    }

    fn request_id(&self) -> Option<u64> {
        match &self.response {
            Ok(Response::Ok { request_id, .. })
            | Ok(Response::Error { request_id, .. })
            | Ok(Response::Timeout { request_id }) => Some(*request_id),
            _ => None,
        }
    }
}

/// `synthd_cache_singleflight_wait_us_count` in a Prometheus page (0
/// before the first wait registers the histogram).
fn singleflight_waits(metrics: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix("synthd_cache_singleflight_wait_us_count "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

fn metrics_page(addr: SocketAddr) -> Result<String, String> {
    Client::connect(addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("cannot scrape synthd metrics: {e}"))
}

/// Sends the requests a client claims until none are left.
fn client(
    addr: SocketAddr,
    specs: &[JobSpec],
    order: &[usize],
    next: &AtomicUsize,
    trace: Option<(&Tracer, u64)>,
) -> Vec<Reply> {
    let mut connection = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"));
    let mut replies = Vec::new();
    while let Some(&spec) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
        let start = Instant::now();
        let mut busy_retries = 0;
        let response = match connection.as_mut() {
            Err(e) => Err(e.clone()),
            Ok(c) => loop {
                match c.submit(&specs[spec]) {
                    Ok(Response::Busy) if busy_retries < MAX_BUSY_RETRIES => {
                        busy_retries += 1;
                        std::thread::sleep(Duration::from_millis(5 * busy_retries.min(20)));
                    }
                    other => break other.map_err(|e| e.to_string()),
                }
            },
        };
        let reply = Reply {
            spec,
            latency: start.elapsed(),
            busy_retries,
            response,
        };
        if let Some((tracer, root)) = trace {
            let id = tracer.open();
            tracer.close(id, root, "serve.request", start, reply.request_id());
        }
        replies.push(reply);
    }
    replies
}

/// Starts a server, sends every request of the mix over [`CLIENTS`]
/// connections, and stops the server.
fn load(specs: &[JobSpec], order: &[usize], tracer: Option<&Tracer>) -> Result<Phase, String> {
    let server = Server::start(server_config()).map_err(|e| format!("cannot start synthd: {e}"))?;
    let addr = server.addr();
    let waits = singleflight_waits(&metrics_page(addr)?);
    let usage = host::usage();
    let profile = snapshot();
    let next = AtomicUsize::new(0);
    let root = tracer.map(Tracer::open);
    let start = Instant::now();
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let (next, trace) = (&next, tracer.zip(root));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(move || client(addr, specs, order, next, trace)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    if let (Some(tracer), Some(root)) = (tracer, root) {
        tracer.close(root, 0, "serve.load", start, None);
    }
    let phase = Phase {
        wall,
        replies,
        usage: host::usage().since(&usage),
        par_tasks: snapshot().delta_since(&profile).par_tasks,
        singleflight_waits: singleflight_waits(&metrics_page(addr)?).saturating_sub(waits),
    };
    server.shutdown();
    Ok(phase)
}

/// Runs the workload: set-up, timed load phases for `seconds`, and — when
/// `traced` — one more phase with a span per request.
pub fn run(size: &Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut cold = setup::ColdBuilds::new(Some(server_config()));
    cold.sample();
    setup::warm();
    let (specs, order) = mix(size, seed);
    let pool = crate::one_thread_pool();

    setup::assert_guards();
    let phases: Vec<Result<Phase, String>> = pool
        .install(|| crate::repeat_for(seconds, || load(&specs, &order, None)))
        .into_iter()
        .map(|(_, phase)| phase)
        .collect();
    setup::assert_guards();
    cold.sample();
    cold.report(&mut out);
    let tracer = Tracer::default();
    let traced_phase = traced.then(|| pool.install(|| load(&specs, &order, Some(&tracer))));

    // Every request must succeed, and resubmissions of a spec — within a
    // phase and across phases — must return identical bytes.
    let mut digests: HashMap<usize, u64> = HashMap::new();
    for phase in phases.iter().chain(&traced_phase) {
        let failed = match phase {
            Ok(phase) => phase
                .replies
                .iter()
                .filter(|reply| {
                    let Ok(Response::Ok {
                        netlist_verilog,
                        qor_json,
                        ..
                    }) = &reply.response
                    else {
                        return true;
                    };
                    let mut h = DefaultHasher::new();
                    (netlist_verilog, qor_json).hash(&mut h);
                    let digest = h.finish();
                    reply.ok().is_none() || *digests.entry(reply.spec).or_insert(digest) != digest
                })
                .count(),
            Err(e) => {
                eprintln!("perfbench: serve-mixed load phase failed: {e}");
                order.len()
            }
        };
        out.count(order.len() as u64, failed as u64);
    }

    let done: Vec<&Phase> = phases.iter().filter_map(|p| p.as_ref().ok()).collect();
    let latencies: Vec<f64> = done
        .iter()
        .flat_map(|p| &p.replies)
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    let first: Vec<Served> = done
        .first()
        .map(|p| p.replies.iter().filter_map(Reply::ok).collect())
        .unwrap_or_default();
    let n = first.len() as f64;
    let walls: Vec<f64> = done.iter().map(|p| p.wall).collect();
    let wall = crate::median(&walls);
    out.set("wall_s", wall);
    out.set("gates", first.iter().map(|o| o.gates).sum());
    out.set(
        "delay_ps",
        crate::ratio(first.iter().map(|o| o.delay_s * 1e12).sum(), n),
    );
    out.set(
        "power_uw",
        crate::ratio(first.iter().map(|o| o.power_w * 1e6).sum(), n),
    );
    out.set("p50_ms", crate::percentile(&latencies, 0.50));
    out.set("p95_ms", crate::percentile(&latencies, 0.95));
    let rates: Vec<f64> = done
        .iter()
        .map(|p| {
            crate::ratio(
                p.replies.iter().filter(|r| r.ok().is_some()).count() as f64,
                p.wall,
            )
        })
        .collect();
    out.set("jobs_per_s", crate::median(&rates));
    out.set("peak_rss_mb", host::usage().peak_rss_mib);

    if let Some(Ok(phase)) = &traced_phase {
        report_traced(&tracer, phase, wall, &mut out);
    }
    out.config("requests", order.len());
    out.config("fresh_requests", size.fresh);
    out.config("fresh_ands", size.fresh_ands);
    out.config("patterns", size.patterns);
    out.config(
        "pattern_seed",
        crate::derive_seed(seed, crate::PATTERN_STREAM),
    );
    out.config(
        "generator_seed",
        crate::derive_seed(seed, crate::GENERATOR_STREAM),
    );
    out.config("verify", "\"sat\"");
    out.config("workers", WORKERS);
    out.config("clients", CLIENTS);
    out.config("pool_threads", 1);
    out.config("timed_walls_s", format!("{walls:?}"));
    out
}

/// The serve layers' metrics from the traced phase's reply telemetry,
/// server counters and spans.
fn report_traced(tracer: &Tracer, phase: &Phase, untraced_wall: f64, out: &mut Outcome) {
    let ok: Vec<Served> = phase.replies.iter().filter_map(Reply::ok).collect();
    let service = |pick: &dyn Fn(&Served) -> bool| -> Vec<f64> {
        ok.iter()
            .filter(|o| pick(o))
            .map(|o| o.service_ms)
            .collect()
    };
    let all = service(&|_| true);
    let queue: Vec<f64> = ok.iter().map(|o| o.queue_ms).collect();
    let overhead: Vec<f64> = ok
        .iter()
        .map(|o| o.latency_ms - o.service_ms - o.queue_ms)
        .collect();
    let hits = ok.iter().filter(|o| o.cache_hit).count();
    out.set("serve.service_ms_p50", crate::percentile(&all, 0.50));
    out.set("serve.service_ms_p95", crate::percentile(&all, 0.95));
    out.set("serve.queue_wait_ms_p95", crate::percentile(&queue, 0.95));
    out.set("serve.overhead_ms_p50", crate::percentile(&overhead, 0.50));
    out.set(
        "serve.hit_ratio",
        crate::ratio(hits as f64, ok.len() as f64),
    );
    out.set(
        "serve.hit_service_ms_p50",
        crate::percentile(&service(&|o| o.cache_hit), 0.50),
    );
    out.set(
        "serve.miss_service_ms_p50",
        crate::percentile(&service(&|o| !o.cache_hit), 0.50),
    );
    out.set("serve.singleflight_waits", phase.singleflight_waits as f64);
    out.set(
        "serve.busy_retries",
        phase.replies.iter().map(|r| r.busy_retries).sum::<u64>() as f64,
    );
    out.usage(&phase.usage, phase.par_tasks);
    let root_self = tracer
        .self_seconds()
        .get("serve.load")
        .copied()
        .unwrap_or(0.0);
    crate::layers::report_wall(root_self, phase.wall, untraced_wall, out);
    out.trace_json = Some(tracer.chrome_json());
}

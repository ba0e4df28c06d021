//! The `synthd` server proper: an acceptor, a bounded job queue with
//! admission control, and a fixed pool of worker threads executing
//! jobs against the process-wide warm caches.
//!
//! # Threading model
//!
//! One acceptor thread owns the listener; each connection gets a
//! handler thread that reads request frames and writes response frames
//! in order. Job requests pass through *admission control*: if the
//! bounded queue is full the handler answers [`Response::Busy`]
//! immediately (typed backpressure — the client retries after a
//! backoff) and the job never enters the system. Admitted jobs wait on
//! a condvar-fed queue until one of the `workers` threads picks them
//! up; the handler blocks on a per-job channel for the single response.
//!
//! Workers never build private thread pools
//! (`rayon::ThreadPool::install` swaps a *process-global* pool
//! in the vendored shim): each job's synthesis and mapping run on its
//! worker thread, the activity simulation fans its chunks out on the
//! shared pool, and job-level parallelism comes from the worker count.
//!
//! # Warm caches
//!
//! Three layers amortize across requests: the process-wide per-family
//! characterized libraries / NPN match caches / rewrite library
//! (`ambipolar::engine`, built once per process — observable via its
//! build counters), and the per-circuit [`SynthCache`] keyed by content
//! (resubmitted circuits skip synthesis).

use crate::cache::{CacheKey, SynthCache, SynthEntry};
use crate::protocol::{JobSpec, ProtocolError, Request, Response};
use crate::wire::{read_frame, write_frame};
use ambipolar::json::{json_circuit_result, json_f64, json_string};
use ambipolar::pipeline::{mapper_cut_db, run_job, JobError, PipelineConfig};
use ambipolar::{engine, MappedJob};
use obs::JobScope;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use techmap::MapConfig;

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Jobs allowed to *wait* beyond the ones running; the admission
    /// bound. A full queue answers [`Response::Busy`].
    pub queue_depth: usize,
    /// Circuits the warm cache keeps resident (LRU beyond that).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 32,
            cache_capacity: 64,
        }
    }
}

struct QueuedJob {
    /// Server-assigned request id (monotone across accepted requests).
    id: u64,
    spec: JobSpec,
    accepted: Instant,
    reply: mpsc::Sender<Response>,
}

#[derive(Default)]
struct Stats {
    jobs_ok: AtomicU64,
    jobs_busy: AtomicU64,
    jobs_error: AtomicU64,
    jobs_timeout: AtomicU64,
    queue_peak: AtomicU64,
}

struct Shared {
    queue: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
    shutting_down: AtomicBool,
    cache: SynthCache,
    stats: Stats,
    config: ServerConfig,
    /// Request-id allocator; ids start at 1 (0 marks "no id assigned" —
    /// a job that failed before admission).
    next_request_id: AtomicU64,
    /// This server's [`Server::instance_id`].
    instance_id: u64,
}

/// Instance-id allocator: request ids restart at 1 per server while spans
/// are process-wide, so (instance, request id) identifies a `request` span.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

/// A running `synthd` instance. Dropping it (or calling
/// [`Server::shutdown`]) stops admission, drains the queue, and joins
/// every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the acceptor, and returns.
    /// The listener is live when this returns — a client may connect
    /// immediately.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            cache: SynthCache::new(config.cache_capacity),
            stats: Stats::default(),
            config: config.clone(),
            next_request_id: AtomicU64::new(1),
            instance_id: NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("synthd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("synthd-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's id, unique within the process: every `request` root
    /// span carries it as its `server_id` argument beside `request_id`.
    pub fn instance_id(&self) -> u64 {
        self.shared.instance_id
    }

    /// Blocks until a shutdown request arrives over the wire, then
    /// joins all threads (the `synthd` binary's main loop).
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Stops admission, drains queued jobs, joins all threads.
    pub fn shutdown(mut self) {
        trigger_shutdown(&self.shared, self.addr);
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
            // The acceptor exits only on the shutdown flag; wake every
            // worker so they observe it and drain.
            self.shared.available.notify_all();
            for worker in self.workers.drain(..) {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        trigger_shutdown(&self.shared, self.addr);
        self.join_all();
    }
}

/// Sets the shutdown flag and pokes the (possibly blocked) acceptor
/// with a throwaway connection so it re-checks the flag.
fn trigger_shutdown(shared: &Shared, addr: SocketAddr) {
    if !shared.shutting_down.swap(true, Ordering::SeqCst) {
        shared.available.notify_all();
        let _ = TcpStream::connect(addr);
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("synthd-conn".into())
            .spawn(move || handle_connection(stream, &shared));
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    // A response is two writes (length prefix, then payload); with Nagle
    // on, the payload would wait for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(_) => return, // disconnect (clean EOF included)
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // A framing-level decode failure means the peer and we
                // disagree on the byte stream; answer once and drop the
                // connection rather than guess at resynchronization.
                let _ = respond(&mut stream, &protocol_error(&e));
                return;
            }
        };
        let response = match request {
            Request::Stats => Response::Stats {
                json: stats_json(shared),
            },
            Request::Metrics => Response::Metrics {
                text: obs::render_prometheus(),
            },
            Request::Shutdown => {
                let json = stats_json(shared);
                trigger_shutdown(shared, stream.local_addr().expect("connected socket"));
                let _ = respond(&mut stream, &Response::Stats { json });
                return;
            }
            Request::Job(spec) => submit_job(shared, spec),
        };
        if respond(&mut stream, &response).is_err() {
            return;
        }
    }
}

fn respond(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    write_frame(stream, &response.encode())
}

fn protocol_error(e: &ProtocolError) -> Response {
    Response::Error {
        request_id: 0,
        msg: format!("malformed request: {e}"),
    }
}

/// Admission control + synchronous wait for the job's single response.
fn submit_job(shared: &Arc<Shared>, spec: JobSpec) -> Response {
    let (reply, response) = mpsc::channel();
    let request_id;
    {
        let mut queue = shared.queue.lock().expect("queue lock");
        if shared.shutting_down.load(Ordering::SeqCst) {
            return Response::Error {
                request_id: 0,
                msg: "server is shutting down".into(),
            };
        }
        if queue.len() >= shared.config.queue_depth {
            shared.stats.jobs_busy.fetch_add(1, Ordering::Relaxed);
            return Response::Busy;
        }
        // Ids are allocated at admission, under the queue lock, so they
        // are dense and monotone over *accepted* requests.
        request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
        queue.push_back(QueuedJob {
            id: request_id,
            spec,
            accepted: Instant::now(),
            reply,
        });
        shared
            .stats
            .queue_peak
            .fetch_max(queue.len() as u64, Ordering::Relaxed);
    }
    shared.available.notify_one();
    match response.recv() {
        Ok(r) => r,
        // The worker dropped the sender without responding (a job's
        // panic is caught and answered, so this is a worker that died
        // outside a job). This job reports an internal error.
        Err(_) => Response::Error {
            request_id,
            msg: "worker failed while executing the job".into(),
        },
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let panics = obs::counter("synthd_worker_panics_total");
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue lock");
            }
        };
        // A panicking job answers `Error` and the worker keeps serving;
        // the job's span and scope guards restore its context on unwind.
        let response = catch_unwind(AssertUnwindSafe(|| {
            execute_job(shared, &job.spec, job.accepted, job.id)
        }))
        .unwrap_or_else(|_| {
            panics.inc();
            Response::Error {
                request_id: job.id,
                msg: "the job panicked; the worker recovered".into(),
            }
        });
        let counter = match &response {
            Response::Ok { .. } => &shared.stats.jobs_ok,
            Response::Timeout { .. } => &shared.stats.jobs_timeout,
            _ => &shared.stats.jobs_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let _ = job.reply.send(response);
    }
}

/// Runs one job end to end: knob validation, warm-cache lookup,
/// synthesis on a miss, mapping/verification/estimation via
/// [`run_job`], then rendering. Every engine counter bump the job
/// causes — on whichever pool threads its parallel sections run — is
/// collected by its [`JobScope`] and reported in the telemetry
/// document. The whole execution runs under a `request` root span
/// tagged with the server instance and request ids, and the request's
/// latency and queue wait land in the `synthd_request_latency_us` /
/// `synthd_queue_wait_us` histograms.
fn execute_job(shared: &Shared, spec: &JobSpec, accepted: Instant, request_id: u64) -> Response {
    let mut root = obs::span!("request");
    root.record("server_id", shared.instance_id)
        .record("request_id", request_id)
        .record_str("name", &spec.name)
        .record_str("family", spec.family.label());
    let started = Instant::now();
    let queue_wait = started.saturating_duration_since(accepted);
    obs::histogram("synthd_queue_wait_us").observe(queue_wait.as_micros() as u64);
    let response = execute_job_inner(shared, spec, accepted, started, queue_wait, request_id);
    // "Jobs served" = completed jobs: the histogram's total count must
    // equal the stats document's jobs_ok.
    if matches!(response, Response::Ok { .. }) {
        obs::histogram("synthd_request_latency_us").observe(started.elapsed().as_micros() as u64);
    }
    response
}

fn execute_job_inner(
    shared: &Shared,
    spec: &JobSpec,
    accepted: Instant,
    started: Instant,
    queue_wait: Duration,
    request_id: u64,
) -> Response {
    let scope = JobScope::begin();
    // Fault injection: a job so named panics inside its span and scope.
    #[cfg(test)]
    assert_ne!(spec.name, "inject-panic", "injected fault");
    let deadline = (spec.timeout_ms > 0).then(|| accepted + Duration::from_millis(spec.timeout_ms));

    let config = match pipeline_config(spec) {
        Ok(c) => c,
        Err(msg) => return Response::Error { request_id, msg },
    };
    let flow = match engine::parse_flow(&config) {
        Ok(f) => f,
        Err(e) => {
            return Response::Error {
                request_id,
                msg: e.to_string(),
            }
        }
    };
    let input = match aig::from_aiger_auto(&spec.aiger) {
        Ok(aig) => aig,
        Err(e) => {
            return Response::Error {
                request_id,
                msg: format!("bad AIGER payload: {e}"),
            }
        }
    };

    // Warm-cache lookup: synthesis is independent of family, objective
    // and cut shape, so the key leaves them out.
    let key = CacheKey::new(&spec.aiger, &config.flow, config.choices);
    let (entry, cache_hit) = match shared.cache.lookup(&key, deadline) {
        None => {
            // Deadline lapsed waiting on the single-flight leader.
            obs::event("deadline/lapsed");
            return Response::Timeout { request_id };
        }
        Some(crate::cache::Lookup::Hit(entry)) => (entry, true),
        Some(crate::cache::Lookup::Build(lease)) => {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                obs::event("deadline/lapsed");
                return Response::Timeout { request_id }; // lease drop hands leadership on
            }
            let synthesized;
            let choices;
            {
                let _s = obs::span!("synthesize");
                (synthesized, choices) = engine::synthesize_with_choices(&flow, &input, &config);
            }
            let entry = Arc::new(SynthEntry {
                synthesized,
                choices,
            });
            // Publish as soon as synthesis — the dominant cost — is
            // done, so single-flight followers unblock now instead of
            // waiting out this job's mapping and estimation too.
            lease.publish(Arc::clone(&entry));
            (entry, false)
        }
    };

    let library = engine::library(spec.family);
    let job = run_job(
        &entry.synthesized,
        entry.choices.as_ref(),
        library,
        &config,
        &mut mapper_cut_db(&config.map),
        deadline,
    );
    let job = match job {
        Ok(job) => job,
        Err(JobError::DeadlineExceeded) => {
            obs::event("deadline/lapsed");
            return Response::Timeout { request_id };
        }
        Err(JobError::Pipeline(e)) => {
            return Response::Error {
                request_id,
                msg: e.to_string(),
            }
        }
    };
    let netlist_verilog =
        techmap::to_structural_verilog(&job.netlist, library, &module_name(&spec.name));
    let qor_json = job_qor_json(spec, entry.synthesized.and_count(), &job);
    let telemetry_json = telemetry_json(
        request_id,
        started.elapsed(),
        queue_wait,
        cache_hit,
        &aig::profile::scoped(&scope),
    );
    Response::Ok {
        request_id,
        netlist_verilog,
        qor_json,
        telemetry_json,
    }
}

/// Maps the wire spec onto the pipeline configuration, validating the
/// knobs the mapper would otherwise only reject mid-job, and bounding
/// `patterns` by the paper's 640 K: the simulator allocates per pattern
/// word, and an allocation failure aborts the process rather than
/// panicking the job.
fn pipeline_config(spec: &JobSpec) -> Result<PipelineConfig, String> {
    if !(2..=6).contains(&spec.cut_k) {
        return Err(format!("cut_k {} out of range 2..=6", spec.cut_k));
    }
    let max_patterns = PipelineConfig::paper().patterns as u64;
    if spec.patterns > max_patterns {
        return Err(format!(
            "patterns {} above the bound {max_patterns}",
            spec.patterns
        ));
    }
    let defaults = MapConfig::default();
    Ok(PipelineConfig {
        patterns: spec.patterns as usize,
        seed: spec.seed,
        flow: spec.flow.clone(),
        map: MapConfig {
            objective: spec.objective,
            cut_k: spec.cut_k as usize,
            max_cuts: if spec.max_cuts == 0 {
                defaults.max_cuts
            } else {
                spec.max_cuts as usize
            },
            ..defaults
        },
        verify: spec.verify,
        choices: spec.choices,
        ..PipelineConfig::default()
    })
}

/// A Verilog-safe module identifier derived from the client's label.
fn module_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, 'm');
    }
    out
}

/// The deterministic per-job QoR document: a pure function of the spec
/// and the mapped result. Resubmitting an identical spec must yield
/// identical bytes — the determinism tests hold the server to that.
pub fn job_qor_json(spec: &JobSpec, synth_ands: usize, job: &MappedJob) -> String {
    format!(
        "{{\"artifact\": \"synthd_job\", \"name\": {}, \"family\": {}, \
         \"objective\": {}, \"cut_k\": {}, \"verify\": {}, \"choices\": {}, \
         \"patterns\": {}, \"seed\": {}, \"flow\": {}, \"synth_ands\": {}, {}}}",
        json_string(&spec.name),
        json_string(spec.family.label()),
        json_string(&spec.objective.to_string()),
        spec.cut_k,
        json_string(&spec.verify.to_string()),
        spec.choices,
        spec.patterns,
        spec.seed,
        json_string(&spec.flow),
        synth_ands,
        json_circuit_result(&job.result, charlib::OPERATING_FREQUENCY_HZ),
    )
}

/// The per-request telemetry document, in two sections:
///
/// * `"deterministic"` — the cache flag and every engine counter the
///   job's [`JobScope`] collected. A warm resubmission of an
///   identical spec repeats the exact same work against the exact same
///   cached state, so this section is **byte-stable** across warm
///   repeats (the determinism tests byte-compare it).
/// * `"timing"` — request id, wall clock, queue wait. Never stable.
fn telemetry_json(
    request_id: u64,
    wall: Duration,
    queue_wait: Duration,
    cache_hit: bool,
    counters: &aig::profile::Counters,
) -> String {
    let mut deterministic = format!("{{\"cache_hit\": {cache_hit}");
    for (name, value) in counters.pairs() {
        deterministic.push_str(&format!(", \"{name}\": {value}"));
    }
    deterministic.push('}');
    format!(
        "{{\"deterministic\": {deterministic}, \
         \"timing\": {{\"request_id\": {request_id}, \"wall_ms\": {}, \
         \"queue_wait_ms\": {}}}}}",
        json_f64(wall.as_secs_f64() * 1e3),
        json_f64(queue_wait.as_secs_f64() * 1e3),
    )
}

fn stats_json(shared: &Shared) -> String {
    let s = &shared.stats;
    format!(
        "{{\"jobs_ok\": {}, \"jobs_busy\": {}, \"jobs_error\": {}, \
         \"jobs_timeout\": {}, \"queue_peak\": {}, \"cache_hits\": {}, \
         \"cache_misses\": {}, \"cache_resident\": {}, \
         \"characterizations\": {}, \"match_cache_builds\": {}, \
         \"rewrite_library_builds\": {}, \"workers\": {}, \"queue_depth\": {}}}",
        s.jobs_ok.load(Ordering::Relaxed),
        s.jobs_busy.load(Ordering::Relaxed),
        s.jobs_error.load(Ordering::Relaxed),
        s.jobs_timeout.load(Ordering::Relaxed),
        s.queue_peak.load(Ordering::Relaxed),
        shared.cache.hits(),
        shared.cache.misses(),
        shared.cache.len(),
        engine::characterization_count(),
        engine::match_cache_build_count(),
        engine::rewrite_library_build_count(),
        shared.config.workers,
        shared.config.queue_depth,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    #[test]
    fn module_names_are_verilog_safe() {
        assert_eq!(module_name("C1355"), "C1355");
        assert_eq!(module_name("rand-10k.v2"), "rand_10k_v2");
        assert_eq!(module_name(""), "m");
        assert_eq!(module_name("9to1"), "m9to1");
    }

    /// A panicking job is answered with a typed `Error` and leaves its
    /// worker serving: after two panics on a one-worker server, a normal
    /// job runs exactly as on a fresh server. Replies are awaited with a
    /// timeout, so a lost worker fails the test instead of hanging it.
    #[test]
    fn worker_survives_panicking_jobs() {
        let circuit = bench_circuits::benchmark_by_name("t481").expect("catalog circuit");
        let job = JobSpec {
            verify: techmap::Verify::Off,
            patterns: 256,
            timeout_ms: 0,
            aiger: aig::to_aiger_binary(&circuit.aig),
            ..crate::protocol::tests::spec()
        };
        let faulty = JobSpec {
            name: "inject-panic".into(),
            ..job.clone()
        };
        let serve = |jobs: Vec<JobSpec>| {
            let server = Server::start(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            })
            .expect("bind localhost");
            let (tx, rx) = mpsc::channel();
            let (addr, count) = (server.addr(), jobs.len());
            let client = std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for job in &jobs {
                    let _ = tx.send(client.submit(job).expect("submit"));
                }
            });
            let timeout = Duration::from_secs(120);
            let replies: Vec<Response> = (0..count)
                .map(|_| rx.recv_timeout(timeout).expect("the worker must survive"))
                .collect();
            client.join().expect("client thread");
            (server, replies)
        };
        let deterministic = |reply: &Response| match reply {
            Response::Ok { telemetry_json, .. } => {
                telemetry_json.split("timing").next().map(str::to_owned)
            }
            other => panic!("expected Ok, got {other:?}"),
        };
        let (_, fresh) = serve(vec![job.clone()]);

        let panics = obs::counter("synthd_worker_panics_total");
        let panics_before = panics.get();
        obs::set_enabled(true);
        let (server, replies) = serve(vec![faulty.clone(), faulty, job]);
        obs::set_enabled(false);
        assert!(matches!(replies[0], Response::Error { request_id: 1, .. }));
        assert!(matches!(replies[1], Response::Error { request_id: 2, .. }));
        assert!(matches!(replies[2], Response::Ok { request_id: 3, .. }));
        assert_eq!(deterministic(&replies[2]), deterministic(&fresh[0]));
        assert_eq!(server.shared.stats.jobs_error.load(Ordering::Relaxed), 2);
        assert_eq!(panics.get() - panics_before, 2);
        // Unwinding restored the worker's span context: job 3's root
        // span has no parent.
        let root = format!("\"parent\":0,\"server_id\":{},", server.instance_id());
        assert!(obs::export_trace().contains(&(root + "\"request_id\":3,")));
    }
}

//! End-to-end `synthd` behavior over real sockets: determinism of
//! concurrent resubmission (bit-identical netlists and QoR documents,
//! equal to the in-process pipeline path), warm-cache amortization
//! (per-family libraries built at most once per process, content-hash
//! hits on resubmission), typed backpressure, per-request timeout,
//! error surfaces, request-ID allocation, byte-stable deterministic
//! telemetry, and per-request span/counter attribution under
//! concurrency.

use ambipolar::engine;
use ambipolar::pipeline::{mapper_cut_db, run_job, PipelineConfig};
use gate_lib::GateFamily;
use serve::{Client, JobSpec, Response, Server, ServerConfig};
use std::time::{Duration, Instant};
use techmap::{MapConfig, Objective, Verify};

fn catalog_aiger(name: &str) -> Vec<u8> {
    let b = bench_circuits::benchmark_by_name(name).expect("catalog circuit");
    aig::to_aiger_binary(&b.aig)
}

fn spec(name: &str, family: GateFamily, patterns: u64, verify: Verify) -> JobSpec {
    JobSpec {
        family,
        objective: Objective::Delay,
        cut_k: 6,
        max_cuts: 0,
        verify,
        choices: false,
        patterns,
        seed: 0xDA7E_2010,
        timeout_ms: 0,
        flow: aig::DEFAULT_FLOW.to_owned(),
        name: name.to_owned(),
        aiger: catalog_aiger(name),
    }
}

fn start(workers: usize, queue_depth: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        cache_capacity: 8,
    })
    .expect("bind localhost")
}

/// The satellite's core claim: one circuit submitted many ways
/// concurrently produces byte-identical responses, equal to what the
/// in-process pipeline computes, while every per-family cache builds at
/// most once for the whole process.
#[test]
fn concurrent_resubmission_is_deterministic_and_warm() {
    let server = start(4, 32);
    let addr = server.addr();
    let patterns = 1024;

    // Populate the content cache with one synchronous submission per
    // family, so the concurrent wave below is guaranteed warm.
    let mut first: Vec<(GateFamily, String, String)> = Vec::new();
    let mut client = Client::connect(addr).expect("connect");
    for family in GateFamily::ALL {
        match client
            .submit(&spec("C1355", family, patterns, Verify::Sat))
            .expect("submit")
        {
            Response::Ok {
                netlist_verilog,
                qor_json,
                ..
            } => first.push((family, netlist_verilog, qor_json)),
            other => panic!("{family}: expected Ok, got {other:?}"),
        }
    }

    // 3 families × 3 concurrent clients each, all resubmitting the
    // same circuit.
    let responses: Vec<(GateFamily, String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = GateFamily::ALL
            .into_iter()
            .flat_map(|family| (0..3).map(move |_| family))
            .map(|family| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    match client
                        .submit(&spec("C1355", family, patterns, Verify::Sat))
                        .expect("submit")
                    {
                        Response::Ok {
                            netlist_verilog,
                            qor_json,
                            telemetry_json,
                            ..
                        } => {
                            assert!(
                                telemetry_json.contains("\"cache_hit\": true"),
                                "{family}: resubmission must hit the warm cache: {telemetry_json}"
                            );
                            (family, netlist_verilog, qor_json)
                        }
                        other => panic!("{family}: expected Ok, got {other:?}"),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    // Byte-identity per family, against the first (cold) response.
    for (family, netlist, qor) in &responses {
        let (_, first_netlist, first_qor) = first
            .iter()
            .find(|(f, _, _)| f == family)
            .expect("first response for family");
        assert_eq!(netlist, first_netlist, "{family}: netlist diverged");
        assert_eq!(qor, first_qor, "{family}: QoR document diverged");
    }

    // Equality with the in-process pipeline path: same knobs, same
    // deterministic engine, no server in the loop.
    let input = bench_circuits::benchmark_by_name("C1355")
        .expect("C1355")
        .aig;
    let pipeline = PipelineConfig {
        patterns: patterns as usize,
        seed: 0xDA7E_2010,
        verify: Verify::Sat,
        map: MapConfig::default(),
        ..PipelineConfig::default()
    };
    let flow = engine::parse_flow(&pipeline).expect("default flow parses");
    let (synthesized, choices) = engine::synthesize_with_choices(&flow, &input, &pipeline);
    for family in GateFamily::ALL {
        let library = engine::library(family);
        let mut db = mapper_cut_db(&pipeline.map);
        let job = run_job(
            &synthesized,
            choices.as_ref(),
            library,
            &pipeline,
            &mut db,
            None,
        )
        .expect("in-process job");
        let expected_qor = serve::job_qor_json(
            &spec("C1355", family, patterns, Verify::Sat),
            synthesized.and_count(),
            &job,
        );
        let expected_netlist = techmap::to_structural_verilog(&job.netlist, library, "C1355");
        let (_, netlist, qor) = first
            .iter()
            .find(|(f, _, _)| *f == family)
            .expect("family response");
        assert_eq!(qor, &expected_qor, "{family}: server QoR != in-process QoR");
        assert_eq!(
            netlist, &expected_netlist,
            "{family}: server netlist != in-process netlist"
        );
    }

    // Warm-cache accounting. Build counters are process-wide: even
    // with every test in this binary running, each family's library /
    // match cache characterizes at most once, the rewrite library at
    // most once.
    let stats = client.stats().expect("stats");
    assert!(
        engine::characterization_count() <= GateFamily::ALL.len(),
        "libraries must characterize once per family: {stats}"
    );
    assert!(
        engine::match_cache_build_count() <= GateFamily::ALL.len(),
        "match caches must build once per family: {stats}"
    );
    assert!(
        engine::rewrite_library_build_count() <= 1,
        "the rewrite library must build once: {stats}"
    );
    let hits: u64 = json_u64(&stats, "cache_hits");
    assert!(hits >= 9, "9 warm resubmissions must all hit: {stats}");
    assert_eq!(json_u64(&stats, "jobs_ok"), 12, "{stats}");
    assert_eq!(json_u64(&stats, "jobs_error"), 0, "{stats}");
    server.shutdown();
}

/// Admission control: a full queue answers `Busy` immediately instead
/// of queueing unboundedly.
#[test]
fn full_queue_reports_busy() {
    let server = start(1, 1);
    let addr = server.addr();
    // Slow enough that 6 simultaneous arrivals cannot drain: C6288 is
    // the catalog's largest circuit.
    let results: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .submit(&spec("C6288", GateFamily::Cmos, 1 << 14, Verify::Off))
                        .expect("submit")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let ok = results
        .iter()
        .filter(|r| matches!(r, Response::Ok { .. }))
        .count();
    let busy = results
        .iter()
        .filter(|r| matches!(r, Response::Busy))
        .count();
    assert_eq!(ok + busy, 6, "only Ok or Busy expected: {results:?}");
    assert!(ok >= 1, "at least the running job completes");
    assert!(
        busy >= 1,
        "with 1 worker + depth-1 queue, 6 simultaneous jobs must trip admission control"
    );
    server.shutdown();
}

/// Per-request deadlines: a 1 ms budget on a real circuit lapses at a
/// stage boundary and reports `Timeout`, not a hang and not `Ok`.
#[test]
fn lapsed_deadline_reports_timeout() {
    let server = start(2, 8);
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut job = spec("C6288", GateFamily::Cmos, 1 << 12, Verify::Off);
    job.timeout_ms = 1;
    match client.submit(&job).expect("submit") {
        Response::Timeout { .. } => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    server.shutdown();
}

/// Malformed inputs come back as typed errors, not dropped connections
/// or worker crashes — and the server keeps serving afterwards.
#[test]
fn bad_inputs_are_typed_errors() {
    let server = start(2, 8);
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");

    let mut bad_aiger = spec("t481", GateFamily::Cmos, 256, Verify::Off);
    bad_aiger.aiger = b"not an aiger file".to_vec();
    assert!(
        matches!(client.submit(&bad_aiger).expect("submit"), Response::Error { msg, .. } if msg.contains("AIGER")),
        "garbage AIGER must be a typed error"
    );

    let mut bad_k = spec("t481", GateFamily::Cmos, 256, Verify::Off);
    bad_k.cut_k = 9;
    assert!(
        matches!(client.submit(&bad_k).expect("submit"), Response::Error { msg, .. } if msg.contains("cut_k")),
        "out-of-range cut_k must be a typed error"
    );

    let mut bad_flow = spec("t481", GateFamily::Cmos, 256, Verify::Off);
    bad_flow.flow = "b; frobnicate".into();
    assert!(
        matches!(
            client.submit(&bad_flow).expect("submit"),
            Response::Error { .. }
        ),
        "a malformed flow script must be a typed error"
    );

    // The same connection still serves good jobs.
    assert!(
        matches!(
            client
                .submit(&spec("t481", GateFamily::Cmos, 256, Verify::Sim))
                .expect("submit"),
            Response::Ok { .. }
        ),
        "the server must keep serving after rejecting bad jobs"
    );
    server.shutdown();
}

/// Orderly shutdown over the wire: the final stats come back, and the
/// listener stops accepting.
#[test]
fn wire_shutdown_stops_the_server() {
    let server = start(1, 4);
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.shutdown().expect("shutdown handshake");
    assert!(
        stats.contains("\"jobs_ok\""),
        "final stats document: {stats}"
    );
    server.wait(); // joins — must not hang
                   // The listener is gone; a fresh connection must fail (immediately
                   // or on first use).
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.stats().is_err(),
    };
    assert!(refused, "a shut-down server must not answer");
}

/// The telemetry split: the `"deterministic"` section (cache flag +
/// per-job counters) must be byte-identical across warm resubmissions
/// of an identical spec, while `"timing"` is free to vary.
#[test]
fn warm_telemetry_deterministic_section_is_byte_stable() {
    let server = start(2, 8);
    let mut client = Client::connect(server.addr()).expect("connect");
    let job = spec("t481", GateFamily::CntfetGeneralized, 512, Verify::Sim);
    let telemetry = |response: Response| -> String {
        match response {
            Response::Ok { telemetry_json, .. } => telemetry_json,
            other => panic!("expected Ok, got {other:?}"),
        }
    };
    let cold = telemetry(client.submit(&job).expect("submit"));
    let warm_a = telemetry(client.submit(&job).expect("submit"));
    let warm_b = telemetry(client.submit(&job).expect("submit"));
    assert!(
        cold.contains("\"cache_hit\": false") && warm_a.contains("\"cache_hit\": true"),
        "first submission cold, second warm: {cold} / {warm_a}"
    );
    assert_eq!(
        deterministic_section(&warm_a),
        deterministic_section(&warm_b),
        "warm resubmissions must agree byte-for-byte on the deterministic section"
    );
    // The timing section still carries the per-request identity.
    assert!(
        warm_a.contains("\"timing\": {\"request_id\": 2,"),
        "{warm_a}"
    );
    assert!(
        warm_b.contains("\"timing\": {\"request_id\": 3,"),
        "{warm_b}"
    );
    server.shutdown();
}

/// Request IDs: allocated densely at admission, strictly monotone, and
/// echoed both on the wire frame (`Ok` and `Error` alike) and inside
/// the telemetry timing section.
#[test]
fn request_ids_are_dense_and_echoed() {
    let server = start(1, 4);
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut bad_flow = spec("t481", GateFamily::Cmos, 256, Verify::Off);
    bad_flow.flow = "b; frobnicate".into();
    let id1 = match client.submit(&bad_flow).expect("submit") {
        Response::Error { request_id, .. } => request_id,
        other => panic!("expected Error, got {other:?}"),
    };
    let good = spec("t481", GateFamily::Cmos, 256, Verify::Off);
    let (id2, telemetry) = match client.submit(&good).expect("submit") {
        Response::Ok {
            request_id,
            telemetry_json,
            ..
        } => (request_id, telemetry_json),
        other => panic!("expected Ok, got {other:?}"),
    };
    let id3 = match client.submit(&good).expect("submit") {
        Response::Ok { request_id, .. } => request_id,
        other => panic!("expected Ok, got {other:?}"),
    };
    // A private server and one serial connection: every submission is
    // admitted, so the sequence is exactly 1, 2, 3.
    assert_eq!([id1, id2, id3], [1, 2, 3]);
    assert!(
        telemetry.contains(&format!("\"request_id\": {id2},")),
        "telemetry must echo the wire request id: {telemetry}"
    );
    server.shutdown();
}

/// Two different circuits running simultaneously on the shared rayon
/// pool each see exactly their own span tree (root `request` span with
/// that job's `request_id`, its own nested synthesize/flow/map/verify
/// children) and their own counter deltas (deterministic telemetry
/// equal to a serial run of the same circuit).
#[test]
fn concurrent_jobs_attribute_spans_and_counters() {
    let job_a = spec("t481", GateFamily::Cmos, 512, Verify::Sim);
    let job_b = spec("C1355", GateFamily::CntfetGeneralized, 512, Verify::Sim);

    // Serial baselines first, on their own server (fresh content
    // cache), with tracing still off.
    let serial = |job: &JobSpec| -> String {
        let server = start(1, 4);
        let mut client = Client::connect(server.addr()).expect("connect");
        let telemetry = match client.submit(job).expect("submit") {
            Response::Ok { telemetry_json, .. } => telemetry_json,
            other => panic!("expected Ok, got {other:?}"),
        };
        server.shutdown();
        telemetry
    };
    let serial_a = serial(&job_a);
    let serial_b = serial(&job_b);
    assert_ne!(
        deterministic_section(&serial_a),
        deterministic_section(&serial_b),
        "distinct circuits must produce distinct counter profiles"
    );

    // Now both jobs at once on one two-worker server, spans on. Other
    // tests in this binary may run concurrently and add spans to the
    // process-wide ring; everything below filters by request id.
    obs::set_enabled(true);
    let server = start(2, 8);
    let addr = server.addr();
    let server_id = server.instance_id();
    let submit = |job: &JobSpec| -> (u64, String) {
        let mut client = Client::connect(addr).expect("connect");
        match client.submit(job).expect("submit") {
            Response::Ok {
                request_id,
                telemetry_json,
                ..
            } => (request_id, telemetry_json),
            other => panic!("expected Ok, got {other:?}"),
        }
    };
    let ((id_a, conc_a), (id_b, conc_b)) = std::thread::scope(|scope| {
        let a = scope.spawn(|| submit(&job_a));
        let b = scope.spawn(|| submit(&job_b));
        (a.join().expect("job a"), b.join().expect("job b"))
    });
    server.shutdown();
    obs::set_enabled(false);
    assert_ne!(id_a, id_b, "concurrent requests get distinct ids");

    // Counter attribution: interleaving must not leak one job's work
    // into the other's telemetry.
    assert_eq!(
        deterministic_section(&conc_a),
        deterministic_section(&serial_a),
        "job A's counters under concurrency must equal its serial run"
    );
    assert_eq!(
        deterministic_section(&conc_b),
        deterministic_section(&serial_b),
        "job B's counters under concurrency must equal its serial run"
    );

    // Span attribution: each request's root span owns its own subtree.
    // Request ids restart at 1 per server and other tests' servers share
    // the span ring, so a root is selected by server and request id.
    let trace = obs::export_trace();
    let events: Vec<(String, u64, u64)> = trace
        .lines()
        .filter(|l| l.starts_with("{\"name\":"))
        .map(|l| {
            (
                trace_str(l, "name"),
                trace_u64(l, "id"),
                trace_u64(l, "parent"),
            )
        })
        .collect();
    for request_id in [id_a, id_b] {
        let root_line = trace
            .lines()
            .find(|l| {
                l.starts_with("{\"name\":\"request\"")
                    && trace_u64(l, "server_id") == server_id
                    && trace_u64(l, "request_id") == request_id
            })
            .unwrap_or_else(|| panic!("no request root span for id {request_id} in {trace}"));
        let root = trace_u64(root_line, "id");
        let descendants = descendants_of(root, &events);
        for needle in ["synthesize", "map", "verify"] {
            assert!(
                descendants.iter().any(|(name, _, _)| name == needle),
                "request {request_id}: missing `{needle}` under its root span"
            );
        }
        assert!(
            descendants
                .iter()
                .any(|(name, _, _)| name.starts_with("flow/")),
            "request {request_id}: missing flow pass spans under its root"
        );
    }
    // Parent links form a forest, so the two subtrees are disjoint
    // unless one request's root nested under the other — the exact
    // leak the worker-thread span restore prevents.
    for (name, _, parent) in &events {
        assert_ne!(
            (name.as_str(), *parent != 0),
            ("request", true),
            "a request root span must never have a parent"
        );
    }
}

/// A response is two writes (length prefix, then payload): with Nagle on,
/// each payload would wait out the client's delayed ACK, ~40 ms.
#[test]
fn small_responses_are_not_delayed() {
    let server = start(1, 4);
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            let start = Instant::now();
            client.stats().expect("stats");
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[10];
    assert!(median < Duration::from_millis(10), "median {median:?}");
    server.shutdown();
}

/// The `"deterministic"` object of the split telemetry document.
fn deterministic_section(telemetry: &str) -> &str {
    let start = telemetry
        .find("\"deterministic\": ")
        .unwrap_or_else(|| panic!("no deterministic section in {telemetry}"));
    let end = telemetry
        .find(", \"timing\"")
        .unwrap_or_else(|| panic!("no timing section in {telemetry}"));
    &telemetry[start..end]
}

/// `"key":N` out of one trace-event line (0 when absent).
fn trace_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let Some(start) = line.find(&pat).map(|i| i + pat.len()) else {
        return 0;
    };
    line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// `"key":"value"` out of one trace-event line.
fn trace_str(line: &str, key: &str) -> String {
    let pat = format!("\"{key}\":\"");
    let Some(start) = line.find(&pat).map(|i| i + pat.len()) else {
        return String::new();
    };
    line[start..].chars().take_while(|c| *c != '"').collect()
}

/// Transitive children of `root` in `(name, id, parent)` event tuples.
fn descendants_of(root: u64, events: &[(String, u64, u64)]) -> Vec<(String, u64, u64)> {
    let mut frontier = vec![root];
    let mut out = Vec::new();
    while let Some(id) = frontier.pop() {
        for e in events.iter().filter(|(_, _, parent)| *parent == id) {
            // Instant events carry id 0 and cannot have children;
            // re-enqueueing 0 would walk every top-level span forever.
            if e.1 != 0 {
                frontier.push(e.1);
            }
            out.push(e.clone());
        }
    }
    out
}

/// Pulls `"key": N` out of a flat JSON document (the stats schema is
/// hand-rolled and flat, so a parser dependency is overkill).
fn json_u64(doc: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let start = doc.find(&pat).unwrap_or_else(|| panic!("{key} in {doc}")) + pat.len();
    doc[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

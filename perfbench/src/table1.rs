//! `table1-choices`: the artifact this repository reproduces — Table 1,
//! the 12 catalog circuits mapped onto the 3 gate families — through
//! `experiments::table1_subset` with the `--choices` flow (default script
//! plus `dch`), the delay objective, `--verify sat`, on one thread. Mapping
//! does about half of the work here; the SAT sweeper little.
//!
//! `table1_subset` returns no netlists, so every run also re-drives the
//! table through the per-layer calls (outside the timed region): its
//! netlists are simulated against the catalog circuits, its results must
//! equal every timed run's, and its spans are the per-layer metrics.

use crate::layers::{self, Counts};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{check, host, setup};
use aig::profile::snapshot;
use ambipolar::engine;
use ambipolar::experiments::{table1_subset, Table1Config};
use ambipolar::pipeline::{MappedJob, PipelineConfig, PipelineError};
use std::time::Instant;
use techmap::Verify;

/// How much work one run does.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Catalog circuits (`None`: all twelve).
    pub circuits: Option<&'static [&'static str]>,
    /// Power-estimation patterns per job.
    pub patterns: usize,
}

impl Size {
    /// The benchmark's setting: the full table at 64 K patterns.
    pub const FULL: Size = Size {
        circuits: None,
        patterns: 1 << 16,
    };
    /// The tests' setting.
    pub const TINY: Size = Size {
        circuits: Some(&["t481", "C1355"]),
        patterns: 1024,
    };
}

/// One catalog row of the per-layer run.
struct Row {
    input: aig::Aig,
    ands: usize,
    depth: u32,
    jobs: Vec<Result<MappedJob, PipelineError>>,
}

/// Runs the workload: set-up, timed `table1_subset` runs for `seconds`,
/// then the per-layer run and the output checks.
pub fn run(size: &Size, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut cold = setup::ColdBuilds::new(None);
    cold.sample();
    setup::warm();
    let config = Table1Config {
        pipeline: PipelineConfig {
            patterns: size.patterns,
            seed: crate::derive_seed(seed, crate::PATTERN_STREAM),
            choices: true,
            verify: Verify::Sat,
            ..PipelineConfig::default()
        },
    };
    let pool = crate::one_thread_pool();

    setup::assert_guards();
    let runs =
        pool.install(|| crate::repeat_for(seconds, || table1_subset(&config, size.circuits)));
    setup::assert_guards();
    cold.sample();
    cold.report(&mut out);

    let tracer = Tracer::default();
    let mut counts = Counts::default();
    let usage = host::usage();
    let profile = snapshot();
    let rows = pool.install(|| per_layer(&tracer, &config.pipeline, size.circuits, &mut counts));
    let usage = host::usage().since(&usage);
    let par_tasks = snapshot().delta_since(&profile).par_tasks;

    // The per-layer run's netlists against the catalog circuits.
    let jobs = rows.len() as u64 * 3;
    let errors = rows
        .iter()
        .flat_map(|r| &r.jobs)
        .filter(|j| j.is_err())
        .count() as u64;
    let libraries = engine::libraries();
    let mismatches = check::failed_jobs(
        rows.iter().flat_map(|r| {
            r.jobs
                .iter()
                .zip(libraries)
                .filter_map(|(j, lib)| j.as_ref().ok().map(|j| (&r.input, &j.netlist, lib)))
        }),
        seed,
    );
    out.count(jobs, errors + mismatches);

    // Every timed run must report exactly the per-layer run's results.
    let expected: Vec<Option<String>> = rows
        .iter()
        .flat_map(|r| &r.jobs)
        .map(|j| j.as_ref().ok().map(|j| layers::fingerprint(&j.result)))
        .collect();
    for (_, table) in &runs {
        let diverged = match table {
            Ok(table) if table.rows.len() == rows.len() => {
                let got = table.rows.iter().zip(&rows).flat_map(|(t, r)| {
                    let same_network = (t.ands, t.depth) == (r.ands, r.depth);
                    t.results
                        .iter()
                        .map(move |res| same_network.then(|| layers::fingerprint(res)))
                });
                got.zip(&expected)
                    .filter(|(got, want)| got.is_none() || got != *want)
                    .count() as u64
            }
            _ => jobs,
        };
        out.count(jobs, diverged);
    }

    let walls: Vec<f64> = runs.iter().map(|(w, _)| *w).collect();
    let results: Vec<&ambipolar::CircuitResult> = rows
        .iter()
        .flat_map(|r| &r.jobs)
        .filter_map(|j| j.as_ref().ok().map(|j| &j.result))
        .collect();
    out.batch(&walls, &results);
    layers::report(&tracer, "table1", &counts, crate::median(&walls), &mut out);
    out.usage(&usage, par_tasks);
    out.trace_json = Some(tracer.chrome_json());
    out.config("pattern_seed", config.pipeline.seed);
    out.config("circuits", rows.len());
    out.config("patterns", size.patterns);
    out.config("flow", ambipolar::json::json_string(&config.pipeline.flow));
    out.config("choices", true);
    out.config("verify", "\"sat\"");
    out.config("objective", "\"delay\"");
    out.config("pool_threads", 1);
    out.config("timed_walls_s", format!("{walls:?}"));
    out
}

/// The table through the calls `engine::run_table1_subset` makes, grouped
/// per circuit: flow, cut enumeration, then one job per family against a
/// copy of the circuit's cut database.
fn per_layer(
    tracer: &Tracer,
    config: &PipelineConfig,
    circuits: Option<&[&str]>,
    counts: &mut Counts,
) -> Vec<Row> {
    let root = tracer.open();
    let start = Instant::now();
    let flow = engine::parse_flow(config).expect("the default flow parses");
    let libraries = engine::libraries();
    let mut rows = Vec::new();
    for bench in bench_circuits::table1_benchmarks() {
        if circuits.is_some_and(|names| !names.contains(&bench.name)) {
            continue;
        }
        let (synthesized, choices) = layers::flow(tracer, root, &flow, &bench.aig, config, counts);
        let db = layers::cuts(tracer, root, &synthesized, config);
        let jobs = libraries
            .iter()
            .map(|library| {
                let mut db = db.clone();
                layers::job(
                    tracer,
                    root,
                    &synthesized,
                    choices.as_ref(),
                    library,
                    config,
                    &mut db,
                    counts,
                )
            })
            .collect();
        rows.push(Row {
            input: bench.aig,
            ands: synthesized.and_count(),
            depth: synthesized.depth(),
            jobs,
        });
    }
    tracer.close(root, 0, "table1", start, None);
    rows
}

//! `scale-rand`: one random circuit of ≈ 56k ANDs down the
//! `map_aiger` path — AIGER parse, the default flow without `dch`, then
//! `pipeline::run_job` onto the generalized family with `--verify sat`
//! and 64 K patterns, on one thread. Verification's SAT sweeping does
//! most of the work and mapping little, so a sweeper change shows here
//! and a mapper change should not.
//!
//! The circuit is the scale harness's random workload,
//! `random_kregular(40_000, 0x5CA1_AB1E)`, and the workload seed sets the
//! pattern seed, as on `table1-choices`. The generator seed stays fixed:
//! one `random_kregular` network of this size synthesizes to anywhere
//! between 14k and 30k gates depending on its generator seed (its random
//! logic collapses by a seed-dependent amount; measured over five seeds),
//! so a seeded generator would make the work vary 2× from seed to seed.
//! Permuting the fixed circuit's inputs by the seed still moved the wall
//! and the peak memory by about a tenth between seeds.

use crate::layers::{self, Counts};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{check, host, setup};
use aig::profile::snapshot;
use ambipolar::engine;
use ambipolar::pipeline::{self, MappedJob, PipelineConfig};
use gate_lib::GateFamily;
use std::time::Instant;
use techmap::Verify;

/// How much work one run does.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// `random_kregular` target AND count.
    pub target_ands: usize,
    /// Power-estimation patterns.
    pub patterns: usize,
}

impl Size {
    /// The benchmark's setting.
    pub const FULL: Size = Size {
        target_ands: 40_000,
        patterns: 1 << 16,
    };
    /// The tests' setting.
    pub const TINY: Size = Size {
        target_ands: 2_000,
        patterns: 1024,
    };
}

/// The generator seed of the scale harness's random workload.
const GENERATOR_SEED: u64 = 0x5CA1_AB1E;

const FAMILY: GateFamily = GateFamily::CntfetGeneralized;

/// Runs the workload: set-up, timed runs for `seconds`, the output
/// checks, and — when `traced` — the per-layer run.
pub fn run(size: &Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut cold = setup::ColdBuilds::new(None);
    cold.sample();
    setup::warm();
    let input = bench_circuits::scale::random_kregular(size.target_ands, GENERATOR_SEED);
    let aiger = aig::to_aiger_binary(&input);
    let config = PipelineConfig {
        patterns: size.patterns,
        seed: crate::derive_seed(seed, crate::PATTERN_STREAM),
        verify: Verify::Sat,
        ..PipelineConfig::default()
    };
    let flow = engine::parse_flow(&config).expect("the default flow parses");
    let library = engine::library(FAMILY);
    let pool = crate::one_thread_pool();

    setup::assert_guards();
    let runs = pool.install(|| {
        crate::repeat_for(seconds, || -> Result<MappedJob, String> {
            let parsed = aig::from_aiger_auto(&aiger).map_err(|e| e.to_string())?;
            let (synthesized, choices) = engine::synthesize_with_choices(&flow, &parsed, &config);
            let mut db = pipeline::mapper_cut_db(&config.map);
            pipeline::run_job(
                &synthesized,
                choices.as_ref(),
                library,
                &config,
                &mut db,
                None,
            )
            .map_err(|e| e.to_string())
        })
    });
    setup::assert_guards();
    cold.sample();
    cold.report(&mut out);

    // Each run's netlist against the generated circuit, and every run's
    // result equal to the first's.
    let first = runs[0]
        .1
        .as_ref()
        .ok()
        .map(|j| layers::fingerprint(&j.result));
    let agrees = |job: &Result<MappedJob, String>| {
        job.as_ref().is_ok_and(|j| {
            Some(layers::fingerprint(&j.result)) == first
                && check::netlist_matches_input(&input, &j.netlist, library, seed)
        })
    };
    for (_, job) in &runs {
        out.count(1, u64::from(!agrees(job)));
    }

    let walls: Vec<f64> = runs.iter().map(|(w, _)| *w).collect();
    let results: Vec<&ambipolar::CircuitResult> = runs[..1]
        .iter()
        .filter_map(|(_, j)| j.as_ref().ok().map(|j| &j.result))
        .collect();
    out.batch(&walls, &results);

    if traced {
        let tracer = Tracer::default();
        let mut counts = Counts::default();
        let usage = host::usage();
        let profile = snapshot();
        let job = pool.install(|| {
            let root = tracer.open();
            let start = Instant::now();
            let job = aig::from_aiger_auto(&aiger)
                .map_err(|e| e.to_string())
                .and_then(|parsed| {
                    let (synthesized, choices) =
                        layers::flow(&tracer, root, &flow, &parsed, &config, &mut counts);
                    let mut db = layers::cuts(&tracer, root, &synthesized, &config);
                    layers::job(
                        &tracer,
                        root,
                        &synthesized,
                        choices.as_ref(),
                        library,
                        &config,
                        &mut db,
                        &mut counts,
                    )
                    .map_err(|e| e.to_string())
                });
            tracer.close(root, 0, "scale", start, None);
            job
        });
        out.count(1, u64::from(!agrees(&job)));
        layers::report(&tracer, "scale", &counts, crate::median(&walls), &mut out);
        out.usage(
            &host::usage().since(&usage),
            snapshot().delta_since(&profile).par_tasks,
        );
        out.trace_json = Some(tracer.chrome_json());
    }

    out.config("generator_seed", GENERATOR_SEED);
    out.config("pattern_seed", config.seed);
    out.config("input_ands", input.and_count());
    out.config("patterns", size.patterns);
    out.config("flow", ambipolar::json::json_string(&config.flow));
    out.config("family", ambipolar::json::json_string(FAMILY.label()));
    out.config("verify", "\"sat\"");
    out.config("pool_threads", 1);
    out.config("timed_walls_s", format!("{walls:?}"));
    out
}

//! The traced run's per-layer calls: the work of `pipeline::run_job` and
//! of `engine::run_table1_subset`, re-driven one public call at a time
//! with a span around each call and `aig::profile` counter deltas taken
//! around the same calls.

use crate::report::Outcome;
use crate::trace::Tracer;
use aig::profile::{snapshot, Counters};
use aig::{Aig, ChoiceAig, CutDb, Flow};
use ambipolar::pipeline::{self, CircuitResult, MappedJob, PipelineConfig, PipelineError};
use charlib::CharacterizedLibrary;

/// Work counted at the layer boundaries of a traced run.
#[derive(Debug, Default)]
pub struct Counts {
    /// AND nodes of every synthesized network.
    pub flow_ands_out: u64,
    /// SAT queries the flows' sweeps issued.
    pub flow_sat_calls: u64,
    /// Mapping jobs (one kept netlist each).
    pub map_jobs: u64,
    /// Netlists the mapping portfolio built to keep `map_jobs` of them.
    pub map_candidates: u64,
    /// Engine counters accumulated over the verification calls.
    pub verify: Counters,
}

/// `total += delta`, field by field.
fn accumulate(total: &mut Counters, delta: &Counters) {
    total.cuts_reused += delta.cuts_reused;
    total.cuts_computed += delta.cuts_computed;
    total.sat_merge_calls += delta.sat_merge_calls;
    total.sat_merge_proven += delta.sat_merge_proven;
    total.sat_merge_refuted += delta.sat_merge_refuted;
    total.sat_merge_budget_out += delta.sat_merge_budget_out;
    total.sim_words += delta.sim_words;
    total.refine_rounds += delta.refine_rounds;
    total.par_tasks += delta.par_tasks;
}

/// The synthesis flow (`Flow::run_with_choices`), as
/// `engine::synthesize_with_choices` runs it: the choice network is kept
/// only when the configuration maps over choices.
pub fn flow(
    tracer: &Tracer,
    parent: u64,
    flow: &Flow,
    input: &Aig,
    config: &PipelineConfig,
    counts: &mut Counts,
) -> (Aig, Option<ChoiceAig>) {
    let before = snapshot();
    let (synthesized, choices, _) =
        tracer.span(parent, "aig.flow", || flow.run_with_choices(input));
    counts.flow_sat_calls += snapshot().delta_since(&before).sat_merge_calls;
    counts.flow_ands_out += synthesized.and_count() as u64;
    (synthesized, choices.filter(|_| config.choices))
}

/// The mapper's cut database for `synthesized`, enumerated once
/// (`CutDb::ensure`) as `engine::run_table1_subset` does before mapping.
pub fn cuts(tracer: &Tracer, parent: u64, synthesized: &Aig, config: &PipelineConfig) -> CutDb {
    let mut db = pipeline::mapper_cut_db(&config.map);
    tracer.span(parent, "aig.cuts", || db.ensure(&synthesized.cleanup()));
    db
}

/// One mapping job — portfolio mapping, verification, timing, activity
/// simulation and power estimation — as `pipeline::run_job` runs it.
///
/// # Errors
///
/// As `run_job`: a mapping failure or a refuted verification.
#[allow(clippy::too_many_arguments)] // the arguments of `run_job`, plus the tracing context
pub fn job(
    tracer: &Tracer,
    parent: u64,
    synthesized: &Aig,
    choices: Option<&ChoiceAig>,
    library: &CharacterizedLibrary,
    config: &PipelineConfig,
    db: &mut CutDb,
    counts: &mut Counts,
) -> Result<MappedJob, PipelineError> {
    let (netlist, baseline) = tracer.span(parent, "techmap.map", || {
        pipeline::map_portfolio_with_cut_db(synthesized, choices, library, config, db)
    })?;
    // The portfolio's candidates, exactly as `map_portfolio_with_cut_db`
    // documents them: the plain mapping always; with choices, the choice
    // mapping and — unless the flow kept its primary snapshot — the
    // primary snapshot's mapping.
    counts.map_jobs += 1;
    counts.map_candidates += 1 + choices.map_or(0, |c| {
        1 + u64::from(!synthesized.same_structure(c.primary()))
    });

    let before = snapshot();
    tracer.span(parent, "techmap.verify", || {
        techmap::verify_mapping_with(
            synthesized,
            &netlist,
            library,
            config.verify,
            config.seed,
            16,
        )
    })?;
    accumulate(&mut counts.verify, &snapshot().delta_since(&before));

    let load = config.map.output_load_farads(library);
    let sta = tracer.span(parent, "techmap.sta", || {
        techmap::critical_path_with_load(&netlist, library, load)
    });
    let activity = tracer.span(parent, "power-est.simulate", || {
        power_est::simulate_activity(&netlist, library, config.patterns, config.seed)
    });
    let power = tracer.span(parent, "power-est.estimate", || {
        power_est::estimate_power(&netlist, library, &activity, config.frequency_hz)
    });
    let result = CircuitResult {
        gates: netlist.gate_count(),
        delay: sta.critical,
        power,
        area: netlist.area(library),
        transistors: netlist.transistor_count(library),
        gates_no_choice: baseline.map(|b| b.gates),
        delay_no_choice: baseline.map(|b| b.delay),
    };
    Ok(MappedJob { netlist, result })
}

/// A job's result in a comparable form: the traced outputs must equal the
/// untraced ones bit for bit, and `Debug` prints every field (floats in
/// their shortest round-trip form).
pub fn fingerprint(result: &CircuitResult) -> String {
    format!("{result:?}")
}

/// Records the traced run's per-layer metrics: self time per layer from
/// the spans, the boundary counts, the traced wall against the untraced
/// one, and what the root span's children leave unattributed.
pub fn report(
    tracer: &Tracer,
    root: &'static str,
    counts: &Counts,
    untraced_wall_s: f64,
    outcome: &mut Outcome,
) {
    let selfs = tracer.self_seconds();
    let layer = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let traced_wall = tracer
        .spans()
        .iter()
        .filter(|s| s.name == root)
        .map(|s| (s.end - s.start).as_secs_f64())
        .sum::<f64>();
    for (metric, span) in [
        ("aig.flow_s", "aig.flow"),
        ("aig.cuts_s", "aig.cuts"),
        ("techmap.map_s", "techmap.map"),
        ("techmap.verify_s", "techmap.verify"),
        ("techmap.sta_s", "techmap.sta"),
        ("power-est.simulate_s", "power-est.simulate"),
        ("power-est.estimate_s", "power-est.estimate"),
    ] {
        outcome.set(metric, layer(span));
    }
    let v = &counts.verify;
    for (metric, value) in [
        ("aig.flow_ands_out", counts.flow_ands_out),
        ("aig.flow_sat_calls", counts.flow_sat_calls),
        ("techmap.map_candidates", counts.map_candidates),
        ("techmap.verify_sat_calls", v.sat_merge_calls),
        ("techmap.verify_sat_refuted", v.sat_merge_refuted),
        ("techmap.verify_refine_rounds", v.refine_rounds),
        ("techmap.verify_sim_words", v.sim_words),
        ("techmap.verify_budget_out", v.sat_merge_budget_out),
    ] {
        outcome.set(metric, value as f64);
    }
    outcome.set(
        "techmap.map_kept_ratio",
        crate::ratio(counts.map_jobs as f64, counts.map_candidates as f64),
    );
    outcome.set(
        "techmap.verify_proven_ratio",
        crate::ratio(v.sat_merge_proven as f64, v.sat_merge_calls as f64),
    );
    report_wall(layer(root), traced_wall, untraced_wall_s, outcome);
}

/// Records `trace_overhead`, `unattributed_s` and `attributed_ratio` from
/// the root span's self time and wall.
pub fn report_wall(
    root_self_s: f64,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    outcome: &mut Outcome,
) {
    outcome.set(
        "trace_overhead",
        crate::ratio(traced_wall_s, untraced_wall_s),
    );
    outcome.set("unattributed_s", root_self_s);
    outcome.set(
        "attributed_ratio",
        crate::ratio(traced_wall_s - root_self_s, traced_wall_s),
    );
}

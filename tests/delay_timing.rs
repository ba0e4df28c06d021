//! The delay-oriented mapper's timing model, checked end to end: the
//! selection DP's predicted critical path must agree with static timing
//! on the emitted netlist across the full Table-1 catalog, and the delay
//! objective must never lose to the area objective on the metric it
//! owns.
//!
//! The DP prices every internal net at a fanout-aware estimate (the
//! library's mean input-pin capacitance times the driver's AIG fanout)
//! while STA re-derives exact per-net loads
//! from the emitted cover, so the two can never agree exactly — but
//! they share the cell model, the inverter materialization rules, and
//! the primary-output load, so the ratio must stay within a modest
//! band. A systematic drift outside it means the models diverged
//! (exactly the zero-PO-load bug this suite was written against).

use ambipolar::engine;
use ambipolar::pipeline::mapper_cut_db;
use gate_lib::GateFamily;
use rayon::prelude::*;
use techmap::{critical_path, map_subject, MapConfig, MappedNetlist, Objective, Subject};

/// DP estimate vs STA may differ per net (estimated fanout × average
/// pin cap vs the emitted cover's exact pin caps — cover consumer
/// counts exceed AIG fanouts where chosen cones overlap, so the
/// generalized family's wide cells still run the prediction somewhat
/// low), but aggregated over a critical path the ratio stays well
/// inside [1/TOL, TOL]. Measured across the 12×3 catalog with the
/// fanout-aware load model: predicted/STA in 0.69..=1.09 (the uniform
/// two-pin model sat in 0.48..=0.99).
const AGREEMENT_TOL: f64 = 1.6;

/// Maps a catalog circuit through the family's shared match cache and a
/// fresh cut database.
fn map_catalog(aig: &aig::Aig, family: GateFamily, config: &MapConfig) -> MappedNetlist {
    let (lib, cache) = (engine::library(family), engine::match_cache(family));
    let cuts = &mut mapper_cut_db(config);
    map_subject(Subject::Plain(aig, cuts), lib, cache, config).expect("catalog circuits map")
}

#[test]
fn predicted_arrival_tracks_sta_across_the_catalog() {
    let benches = bench_circuits::table1_benchmarks();
    let synthesized: Vec<(String, aig::Aig)> = benches
        .par_iter()
        .map(|b| (b.name.to_owned(), aig::synthesize(&b.aig)))
        .collect();
    let jobs: Vec<(usize, GateFamily)> = (0..synthesized.len())
        .flat_map(|ci| GateFamily::ALL.into_iter().map(move |f| (ci, f)))
        .collect();
    // The vendored rayon shim exposes map/collect only, so violations
    // are gathered as options and flattened.
    let violations: Vec<String> = jobs
        .par_iter()
        .map(|&(ci, family)| {
            let (name, aig) = &synthesized[ci];
            let lib = engine::library(family);
            let mapped = map_catalog(aig, family, &MapConfig::default());
            let predicted = mapped
                .predicted_delay_s()
                .expect("the mapper records its predicted critical path");
            let sta = critical_path(&mapped, lib).critical.value();
            assert!(predicted > 0.0 && sta > 0.0);
            let ratio = predicted / sta;
            (!(1.0 / AGREEMENT_TOL..=AGREEMENT_TOL).contains(&ratio))
                .then(|| format!("{name}/{family}: predicted {predicted:e} vs STA {sta:e}"))
        })
        .collect::<Vec<Option<String>>>()
        .into_iter()
        .flatten()
        .collect();
    assert!(
        violations.is_empty(),
        "DP and STA timing models diverged:\n{}",
        violations.join("\n")
    );
}

#[test]
fn delay_objective_is_never_slower_than_area_objective() {
    let benches = bench_circuits::table1_benchmarks();
    let synthesized: Vec<(String, aig::Aig)> = benches
        .par_iter()
        .map(|b| (b.name.to_owned(), aig::synthesize(&b.aig)))
        .collect();
    let jobs: Vec<(usize, GateFamily)> = (0..synthesized.len())
        .flat_map(|ci| GateFamily::ALL.into_iter().map(move |f| (ci, f)))
        .collect();
    let violations: Vec<String> = jobs
        .par_iter()
        .map(|&(ci, family)| {
            let (name, aig) = &synthesized[ci];
            let lib = engine::library(family);
            let measure = |objective| {
                let mapped = map_catalog(aig, family, &MapConfig::for_objective(objective));
                (
                    mapped.predicted_delay_s().expect("predicted is recorded"),
                    critical_path(&mapped, lib).critical.value(),
                )
            };
            let (delay_pred, delay_sta) = measure(Objective::Delay);
            let (area_pred, area_sta) = measure(Objective::Area);
            // On *predicted* delay the ordering is structural: both
            // objectives price the same cut set under the same cost
            // model, and the delay DP minimizes arrival at every node —
            // so only summation noise is tolerated.
            let pred_violation = delay_pred > area_pred * (1.0 + 1e-6);
            // On *STA* delay a modest band is allowed: the DP estimates
            // internal loads uniformly, so its optimum can differ from
            // the exact-load optimum (measured worst case across the
            // catalog: i8/generalized at +7.7%).
            let sta_violation = delay_sta > area_sta * 1.10;
            (pred_violation || sta_violation).then(|| {
                format!(
                    "{name}/{family}: delay-objective {delay_pred:e}/{delay_sta:e} \
                     (pred/STA) vs area {area_pred:e}/{area_sta:e}"
                )
            })
        })
        .collect::<Vec<Option<String>>>()
        .into_iter()
        .flatten()
        .collect();
    assert!(
        violations.is_empty(),
        "the delay objective lost on delay:\n{}",
        violations.join("\n")
    );
}

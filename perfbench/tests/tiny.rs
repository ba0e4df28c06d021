//! Tiny-size runs of every workload (2 catalog circuits, a small random
//! circuit, 14 requests): each must pass its own output checks and report
//! every catalogue metric, with the unit `BENCHMARK.json` gives it.

use perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use perfbench::{scale, serve, table1};
use std::sync::Mutex;

/// The workloads install process-wide pool sizes and read process-wide
/// counters, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn assert_complete(outcome: &Outcome) {
    assert!(outcome.ops > 0);
    assert_eq!(outcome.failed, 0, "{}", outcome.record_line(&[]));
    for (traced, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let line = outcome.result_line(traced);
        for (name, unit) in catalogue {
            let metric = line
                .split(&format!("\"{name}\": {{\"value\": "))
                .nth(1)
                .unwrap_or_else(|| panic!("{name} missing from {line}"));
            let metric = &metric[..metric.find('}').expect("each metric object closes")];
            assert!(
                metric.ends_with(&format!("\"unit\": \"{unit}\"")),
                "{name} lacks unit {unit} in {line}"
            );
        }
    }
    for (name, _) in END_TO_END {
        assert!(outcome.metrics[name] > 0.0, "{name} reads 0");
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    let listed = spec.matches("{\"name\": ").count();
    assert_eq!(
        listed,
        3 + END_TO_END.len() + PER_LAYER.len(),
        "no metric outside the catalogue"
    );
}

#[test]
fn table1_choices_tiny() {
    let _serial = serial();
    let outcome = table1::run(&table1::Size::TINY, 1, 1e-3);
    assert_complete(&outcome);
    assert_eq!(outcome.metrics["rayon.par_tasks"], 0.0, "one-thread pool");
    assert!(
        outcome.metrics["techmap.map_kept_ratio"] <= 0.5,
        "with choices every job maps at least two candidates"
    );
    assert!(outcome.metrics["techmap.map_s"] > 0.0);
}

#[test]
fn scale_rand_tiny() {
    let _serial = serial();
    let outcome = scale::run(&scale::Size::TINY, 1, 1e-3, true);
    assert_complete(&outcome);
    assert_eq!(outcome.metrics["rayon.par_tasks"], 0.0, "one-thread pool");
    assert!(outcome.metrics["techmap.verify_sat_calls"] > 0.0);
}

#[test]
fn serve_mixed_tiny() {
    let _serial = serial();
    let outcome = serve::run(&serve::Size::TINY, 1, 1e-3, true);
    assert_complete(&outcome);
    assert!(
        outcome.metrics["serve.hit_ratio"] > 0.0,
        "families share a synthesis"
    );
    assert!(outcome
        .trace_json
        .as_deref()
        .is_some_and(|t| t.contains("\"request_id\": ")));
}

#[test]
fn neighbouring_seeds_build_different_circuits() {
    // `random_kregular` seeds its generator with `seed | 1`; the derived
    // generator seeds must not collide the same way.
    let a = perfbench::derive_seed(2, perfbench::GENERATOR_STREAM);
    let b = perfbench::derive_seed(3, perfbench::GENERATOR_STREAM);
    assert_ne!(a | 1, b | 1);
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    for args in [
        &[][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "scale-rand",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "scale-rand",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

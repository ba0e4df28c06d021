//! The machine-readable QoR/runtime artifact behind `--json`: one JSON
//! document per run capturing the configuration, per-circuit synthesis
//! quality (AND count, depth), per-family mapping quality (gates, delay,
//! area, power, per-cycle energy, EDP) and wall-clock runtime — the
//! format the perf trajectory is tracked in (`BENCH_table1.json` at the
//! repo root is the committed baseline).
//!
//! Emission is hand-rolled: the workspace is offline-vendored and the
//! structure is flat enough that a serializer dependency would be pure
//! weight. Every number is either an integer or `{:e}`-formatted (JSON
//! accepts exponent notation); strings are plain ASCII labels.

use ambipolar::experiments::{Table1, Table1Config};
use ambipolar::json::json_circuit_result;
use gate_lib::GateFamily;
use std::fmt::Write as _;
use std::time::Duration;

/// Renders the Table-1 QoR artifact. `extra` entries are appended as
/// additional top-level fields; each value must already be valid JSON
/// (use [`json_string`] / [`json_seconds`] to build them).
pub fn table1_json(
    artifact: &str,
    table: &Table1,
    config: &Table1Config,
    wall: Duration,
    extra: &[(&str, String)],
) -> String {
    let p = &config.pipeline;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"artifact\": {},", json_string(artifact));
    let _ = writeln!(out, "  \"patterns\": {},", p.patterns);
    let _ = writeln!(out, "  \"seed\": {},", p.seed);
    let _ = writeln!(out, "  \"flow\": {},", json_string(&p.flow));
    let _ = writeln!(
        out,
        "  \"objective\": {},",
        json_string(&p.map.objective.to_string())
    );
    let _ = writeln!(out, "  \"cut_k\": {},", p.map.cut_k);
    let _ = writeln!(out, "  \"verify\": {},", json_string(&p.verify.to_string()));
    let _ = writeln!(out, "  \"choices\": {},", p.choices);
    let _ = writeln!(out, "  \"frequency_hz\": {},", json_f64(p.frequency_hz));
    let _ = writeln!(out, "  \"wall_seconds\": {},", json_f64(wall.as_secs_f64()));
    for (key, value) in extra {
        let _ = writeln!(out, "  \"{key}\": {value},");
    }
    let families: Vec<String> = GateFamily::ALL
        .iter()
        .map(|f| json_string(f.label()))
        .collect();
    let _ = writeln!(out, "  \"families\": [{}],", families.join(", "));
    out.push_str("  \"circuits\": [\n");
    for (i, row) in table.rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"function\": {}, \"and_count\": {}, \"depth\": {}, \"results\": [",
            json_string(&row.name),
            json_string(&row.function),
            row.ands,
            row.depth
        );
        let results: Vec<String> = row
            .results
            .iter()
            .map(|r| format!("{{{}}}", json_circuit_result(r, p.frequency_hz)))
            .collect();
        out.push_str(&results.join(", "));
        let _ = writeln!(
            out,
            "]}}{}",
            if i + 1 == table.rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"averages\": [");
    for (k, a) in table.averages().iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"gates\": {}, \"delay_s\": {}, \"pd_w\": {}, \"ps_w\": {}, \
             \"pt_w\": {}, \"edp_js\": {}}}",
            if k == 0 { "" } else { ", " },
            json_f64(a.gates),
            json_f64(a.delay),
            json_f64(a.pd),
            json_f64(a.ps),
            json_f64(a.pt),
            json_f64(a.edp),
        );
    }
    out.push_str("]\n}\n");
    out
}

/// A `profile` object: the eight engine counters, as an
/// [`obs::JobScope`] collected them.
pub fn profile_json(counters: &aig::profile::Counters) -> String {
    let fields: Vec<String> = counters
        .pairs()
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

// The scalar helpers live in the core crate so the server (`serve`)
// and the bench binaries render numbers identically; re-exported here
// to keep every existing `bench::qor::json_*` call site compiling.
pub use ambipolar::json::{json_f64, json_seconds, json_string, write_or_exit};

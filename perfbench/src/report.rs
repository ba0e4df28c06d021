//! The metric catalogue (the names and units `BENCHMARK.json` lists) and
//! the lines a run prints.

use ambipolar::CircuitResult;
use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one. On the batch workloads every job's result arrives when the
/// batch call returns, so a job's latency (`p50_ms`, `p95_ms`) is the
/// batch wall; on `serve-mixed`, `wall_s` is the load phase and the
/// quality columns average over the OK replies.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("wall_s", "s"),
    ("gates", "cells"),
    ("delay_ps", "ps-sta"),
    ("power_uw", "uW"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics of the traced run, named by module. A layer a
/// workload never enters reads 0 there (the serve layers on the batch
/// workloads, the in-process pipeline layers on `serve-mixed`, whose
/// pipeline runs inside the server).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("charlib.characterize_s", "s"),
    ("techmap.match_cache_s", "s"),
    ("aig.rewrite_library_s", "s"),
    ("aig.flow_s", "s"),
    ("aig.flow_ands_out", "count"),
    ("aig.flow_sat_calls", "count"),
    ("aig.cuts_s", "s"),
    ("techmap.map_s", "s"),
    ("techmap.map_candidates", "count"),
    ("techmap.map_kept_ratio", "ratio"),
    ("techmap.verify_s", "s"),
    ("techmap.verify_sat_calls", "count"),
    ("techmap.verify_sat_refuted", "count"),
    ("techmap.verify_refine_rounds", "count"),
    ("techmap.verify_sim_words", "count"),
    ("techmap.verify_budget_out", "count"),
    ("techmap.verify_proven_ratio", "ratio"),
    ("techmap.sta_s", "s"),
    ("power-est.simulate_s", "s"),
    ("power-est.estimate_s", "s"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p95", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.hit_service_ms_p50", "ms"),
    ("serve.miss_service_ms_p50", "ms"),
    ("serve.singleflight_waits", "count"),
    ("serve.busy_retries", "count"),
    ("rayon.par_tasks", "count"),
    ("os.cpu_s", "s"),
    ("os.sys_s", "s"),
    ("os.ctx_switches", "count"),
    ("trace_overhead", "ratio"),
    ("unattributed_s", "s"),
    ("attributed_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs or requests, timed and traced runs).
    pub ops: u64,
    /// Operations that failed: errors, timeouts, output mismatches
    /// against the input circuit, divergent results.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The run's configuration, as `(key, JSON value)` pairs.
    pub config: Vec<(&'static str, String)>,
    /// The traced run's Chrome-trace JSON, when it ran.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// Sets a metric; `name` must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a catalogue metric"
        );
        self.metrics.insert(name, value);
    }

    /// Records one configuration entry (already JSON-encoded).
    pub fn config(&mut self, key: &'static str, value: impl ToString) {
        self.config.push((key, value.to_string()));
    }

    /// Counts `n` operations, `bad` of them failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.ops += n;
        self.failed += bad;
    }

    /// The end-to-end metrics of a batch workload, from the wall of each
    /// timed run and the jobs of one run (every job's result arrives when
    /// its batch returns, so each run's wall is each of its jobs'
    /// latency).
    pub fn batch(&mut self, walls: &[f64], jobs: &[&CircuitResult]) {
        let wall = crate::median(walls);
        let n = jobs.len() as f64;
        self.set("wall_s", wall);
        self.set("gates", jobs.iter().map(|r| r.gates as f64).sum());
        self.set(
            "delay_ps",
            crate::ratio(jobs.iter().map(|r| r.delay.value() * 1e12).sum(), n),
        );
        self.set(
            "power_uw",
            crate::ratio(jobs.iter().map(|r| r.total_power().value() * 1e6).sum(), n),
        );
        self.set("p50_ms", wall * 1e3);
        self.set("p95_ms", crate::percentile(walls, 0.95) * 1e3);
        self.set("jobs_per_s", crate::ratio(n, wall));
        self.set("peak_rss_mb", crate::host::usage().peak_rss_mib);
    }

    /// Records the process usage and engine work of a traced run.
    pub fn usage(&mut self, usage: &crate::host::Usage, par_tasks: u64) {
        self.set("os.cpu_s", usage.user_s + usage.sys_s);
        self.set("os.sys_s", usage.sys_s);
        self.set("os.ctx_switches", usage.ctx_switches as f64);
        self.set("rayon.par_tasks", par_tasks as f64);
    }

    /// The result line: the end-to-end metrics (`traced == false`) or the
    /// per-layer metrics, each with its unit. Per-layer metrics a workload
    /// never measured read 0; a missing end-to-end metric is a bug.
    pub fn result_line(&self, traced: bool) -> String {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(&v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "{name} = {value} is not a number");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.ops,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The record line: host, configuration, operation counts and every
    /// metric measured, so a result can be traced to where and how it ran.
    pub fn record_line(&self, host: &[(&'static str, String)]) -> String {
        let fields: Vec<String> = host
            .iter()
            .chain(&self.config)
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .chain([
                format!("\"ops\": {}", self.ops),
                format!("\"ops_failed\": {}", self.failed),
            ])
            .chain(self.metrics.iter().map(|(k, v)| format!("\"{k}\": {v}")))
            .collect();
        format!("{{\"record\": {{{}}}}}", fields.join(", "))
    }
}

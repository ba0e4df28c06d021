//! Shared helpers for the benchmark harness binaries.
//!
//! Each binary regenerates one artifact of the paper or drives one
//! harness (the README's "Regenerating the paper's artifacts" table lists
//! the commands):
//!
//! * `table1` — Table 1 (12 benchmarks × 3 libraries);
//! * `gate_library` — the §4 gate-level library comparison;
//! * `patterns` — the §3.2 I_off pattern census;
//! * `fig4_leakage` — the Fig. 4 stack-effect study;
//! * `ablation_psc` — sensitivity of P_T to the P_SC = 0.15·P_D conjecture;
//! * `ablation_patterns` — pattern classification vs exhaustive leakage;
//! * `expressive_power` — expressive-power accounting (§1/§2.2);
//! * `vdd_sweep` — supply-scaling extension study;
//! * `map_aiger` — external AIGER circuits through the pipeline;
//! * `cec` — SAT-based equivalence checking of two AIGER files, or of a
//!   catalog circuit against its synthesized form;
//! * `engine_smoke` — engine cache + parallel-speedup smoke measurement;
//! * `scale` — synthesis, `dch` and mapping throughput on generated
//!   10k–1M-node workloads;
//! * `loadgen` — closed-loop load generator for `synthd`.
//!
//! All binaries share one command-line surface, [`BenchArgs`]; each takes
//! the part of it [`BINS`] names.

use ambipolar::experiments::Table1Config;
use ambipolar::pipeline::PipelineConfig;
use techmap::{Objective, Verify};

pub mod qor;

/// One flag of the [`BenchArgs`] surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--patterns N`.
    Patterns,
    /// `--seed S`.
    Seed,
    /// `--paper`.
    Paper,
    /// `--flow SCRIPT`.
    Flow,
    /// `--objective delay|area|energy`.
    Objective,
    /// `--cut-k N`.
    CutK,
    /// `--choices`.
    Choices,
    /// `--verify off|sim|sat`.
    Verify,
    /// `--threads N`.
    Threads,
    /// `--emit-aiger DIR`.
    EmitAiger,
    /// `--json PATH`.
    Json,
    /// `--trace-out PATH`.
    TraceOut,
    /// Positional arguments.
    Positional,
}

/// What each bench binary takes of the [`BenchArgs`] surface, in groups;
/// the first group of the pipeline binaries is the flags
/// [`BenchArgs::pipeline_config`] and [`BenchArgs::flow`] read.
/// [`BenchArgs::parse`] rejects every other flag.
pub const BINS: &[(&str, &[&[Flag]])] = {
    use Flag::*;
    const PIPELINE: &[Flag] = &[Patterns, Seed, Paper, Flow, Objective, CutK, Choices];
    &[
        (
            "table1",
            &[PIPELINE, &[Verify, Threads, Json, TraceOut, Positional]],
        ),
        (
            "loadgen",
            &[PIPELINE, &[Verify, Threads, Json, TraceOut, Positional]],
        ),
        ("engine_smoke", &[PIPELINE, &[Verify, Threads, Json]]),
        ("map_aiger", &[PIPELINE, &[Verify, Threads, Positional]]),
        ("vdd_sweep", &[PIPELINE, &[Verify, Threads]]),
        ("ablation_psc", &[PIPELINE, &[Threads]]),
        (
            "scale",
            &[&[
                Objective, CutK, Verify, EmitAiger, Json, TraceOut, Positional,
            ]],
        ),
        ("ablation_patterns", &[]),
        ("expressive_power", &[]),
        ("fig4_leakage", &[]),
        ("gate_library", &[]),
        ("patterns", &[]),
    ]
};

/// Whether the bench binary `bin` takes `flag`; panics on a name
/// [`BINS`] does not list.
fn takes(bin: &str, flag: Flag) -> bool {
    let (_, groups) = BINS
        .iter()
        .find(|entry| entry.0 == bin)
        .unwrap_or_else(|| panic!("{bin} is not listed in BINS"));
    groups.iter().any(|group| group.contains(&flag))
}

/// The flag surface shared by the bench binaries.
///
/// * `--patterns N` — random patterns per circuit (rounded up to a
///   multiple of 64 by the simulator), at most the paper's 640 K
///   (655,360; the simulator allocates per pattern word, so a larger
///   count would abort the process rather than fail);
/// * `--seed S` — simulation seed (decimal or `0x…` hex);
/// * `--paper` — the paper's full setting (640 K patterns), overridden by
///   an explicit `--patterns`;
/// * `--flow SCRIPT` — the pre-mapping synthesis flow (e.g.
///   `"b; rw; rf; b; rw -z; b"`; default: [`aig::DEFAULT_FLOW`]),
///   validated at parse time;
/// * `--objective delay|area|energy` — mapping objective (default:
///   delay, the paper's setting);
/// * `--cut-k N` — cut width for the mapper, `2..=6` (default: 6);
/// * `--verify off|sim|sat` — post-mapping verification (default: off;
///   `sat` proves every mapped netlist equivalent to its source AIG);
/// * `--choices` — choice-aware mapping: synthesis collects structural
///   choices (a `dch` step is appended when the flow has none) and each
///   circuit is mapped over them, keeping the choice netlist whenever it
///   uses no more gates;
/// * `--threads N` — width of the job fan-out: the Table-1 driver's
///   circuit × family jobs, the activity simulation's chunks and the
///   in-process `synthd` workers (`N >= 1`). Default: the rayon
///   environment (`RAYON_NUM_THREADS`, then the machine's parallelism).
///   `scale`, whose phases run on one thread, rejects it;
/// * `--json PATH` — write the machine-readable artifact (taken by
///   `table1`, `engine_smoke`, `scale` and `loadgen`);
/// * `--trace-out PATH` — enable span tracing and write a
///   Chrome-trace/Perfetto JSON at exit (taken by `table1`, `scale` and
///   `loadgen`);
/// * positional arguments (e.g. the AIGER path for `map_aiger`, circuit
///   names for `table1`) are collected in order.
///
/// Each binary takes only the flags [`BINS`] lists for it.
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    /// `--patterns N`, if given.
    pub patterns: Option<usize>,
    /// `--seed S`, if given.
    pub seed: Option<u64>,
    /// `--flow SCRIPT`, if given (already validated to parse).
    pub flow: Option<String>,
    /// `--objective OBJ`, if given.
    pub objective: Option<Objective>,
    /// `--cut-k N`, if given.
    pub cut_k: Option<usize>,
    /// `--verify MODE`, if given.
    pub verify: Option<Verify>,
    /// Whether `--choices` was given.
    pub choices: bool,
    /// `--threads N`, if given (validated ≥ 1).
    pub threads: Option<usize>,
    /// `--emit-aiger DIR`, if given (only the `scale` bin consumes it).
    pub emit_aiger: Option<String>,
    /// `--json PATH`, if given.
    pub json: Option<String>,
    /// `--trace-out PATH`, if given.
    pub trace_out: Option<String>,
    /// Whether `--paper` was given.
    pub paper: bool,
    /// Positional (non-flag) arguments, in order.
    pub positional: Vec<String>,
}

impl BenchArgs {
    /// Parses the process command line for the bench binary `bin`,
    /// exiting 2 with a message on a malformed flag or one `bin` does not
    /// take (see [`BenchArgs::parse_for`]).
    pub fn parse(bin: &str) -> Self {
        Self::parse_for(bin, std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// Parses `args` for the bench binary `bin`. A flag `bin` does not
    /// take is an error that names `bin`, the flag and the binaries that
    /// do take it.
    pub fn parse_for<I>(bin: &str, args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let args = Self::parse_from(args).map_err(|e| format!("{bin}: {e}"))?;
        match args
            .given()
            .into_iter()
            .find(|&(flag, _)| !takes(bin, flag))
        {
            None => Ok(args),
            Some((flag, name)) => {
                let takers: Vec<&str> = BINS
                    .iter()
                    .map(|entry| entry.0)
                    .filter(|&other| takes(other, flag))
                    .collect();
                Err(format!(
                    "{bin} does not take {name} (taken by {})",
                    takers.join(", ")
                ))
            }
        }
    }

    /// The flags this command line gave, with their names.
    fn given(&self) -> Vec<(Flag, &'static str)> {
        [
            (self.patterns.is_some(), Flag::Patterns, "--patterns"),
            (self.seed.is_some(), Flag::Seed, "--seed"),
            (self.paper, Flag::Paper, "--paper"),
            (self.flow.is_some(), Flag::Flow, "--flow"),
            (self.objective.is_some(), Flag::Objective, "--objective"),
            (self.cut_k.is_some(), Flag::CutK, "--cut-k"),
            (self.choices, Flag::Choices, "--choices"),
            (self.verify.is_some(), Flag::Verify, "--verify"),
            (self.threads.is_some(), Flag::Threads, "--threads"),
            (self.emit_aiger.is_some(), Flag::EmitAiger, "--emit-aiger"),
            (self.json.is_some(), Flag::Json, "--json"),
            (self.trace_out.is_some(), Flag::TraceOut, "--trace-out"),
            (
                !self.positional.is_empty(),
                Flag::Positional,
                "positional arguments",
            ),
        ]
        .into_iter()
        .filter_map(|(given, flag, name)| given.then_some((flag, name)))
        .collect()
    }

    /// The pattern count these flags select over a binary-specific
    /// default: explicit `--patterns` wins, then `--paper` (640 K), then
    /// the default.
    pub fn patterns_or(&self, default: usize) -> usize {
        self.patterns
            .unwrap_or(if self.paper { 640 * 1024 } else { default })
    }

    /// The parsed synthesis flow these flags select (the default flow
    /// when `--flow` was not given), upgraded for `--choices` by the
    /// Table-1 driver's own rule ([`ambipolar::engine::parse_flow`]).
    /// Infallible: `--flow` scripts are validated during argument parsing.
    pub fn flow(&self) -> aig::Flow {
        ambipolar::engine::parse_flow(&self.pipeline_config())
            .expect("--flow validated at parse time")
    }

    /// Parses an explicit argument list against the whole flag surface.
    fn parse_from<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut out = Self::default();
        let mut iter = args.into_iter().map(Into::into);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--patterns" => {
                    let value = iter.next().ok_or("--patterns requires a value")?;
                    let n: usize = value
                        .parse()
                        .map_err(|e| format!("--patterns {value}: {e}"))?;
                    let bound = PipelineConfig::paper().patterns;
                    if n > bound {
                        return Err(format!("--patterns {n}: above the bound {bound}"));
                    }
                    out.patterns = Some(n);
                }
                "--seed" => {
                    let value = iter.next().ok_or("--seed requires a value")?;
                    out.seed = Some(parse_u64(&value).map_err(|e| format!("--seed {value}: {e}"))?);
                }
                "--flow" => {
                    let value = iter.next().ok_or("--flow requires a script")?;
                    // Validate up front so a typo fails at the command
                    // line, not rows deep into a run.
                    aig::Flow::parse(&value).map_err(|e| format!("--flow: {e}"))?;
                    out.flow = Some(value);
                }
                "--json" => {
                    let value = iter.next().ok_or("--json requires a path")?;
                    out.json = Some(value);
                }
                "--trace-out" => {
                    let value = iter.next().ok_or("--trace-out requires a path")?;
                    out.trace_out = Some(value);
                }
                "--objective" => {
                    let value = iter.next().ok_or("--objective requires a value")?;
                    out.objective = Some(value.parse().map_err(|e| format!("--objective: {e}"))?);
                }
                "--cut-k" => {
                    let value = iter.next().ok_or("--cut-k requires a value")?;
                    let k: usize = value.parse().map_err(|e| format!("--cut-k {value}: {e}"))?;
                    if !(2..=6).contains(&k) {
                        return Err(format!("--cut-k {k}: cut width must be in 2..=6"));
                    }
                    out.cut_k = Some(k);
                }
                "--verify" => {
                    let value = iter.next().ok_or("--verify requires a value")?;
                    out.verify = Some(value.parse().map_err(|e| format!("--verify: {e}"))?);
                }
                "--emit-aiger" => {
                    let value = iter.next().ok_or("--emit-aiger requires a directory")?;
                    out.emit_aiger = Some(value);
                }
                "--threads" => {
                    let value = iter.next().ok_or("--threads requires a value")?;
                    let n: usize = value
                        .parse()
                        .map_err(|e| format!("--threads {value}: {e}"))?;
                    if n == 0 {
                        return Err("--threads 0: the pool needs at least one worker".into());
                    }
                    out.threads = Some(n);
                }
                "--paper" => out.paper = true,
                "--choices" => out.choices = true,
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag: {flag}"));
                }
                _ => out.positional.push(arg),
            }
        }
        Ok(out)
    }

    /// The pipeline configuration these flags select: defaults, scaled to
    /// the paper's 640 K patterns by `--paper`, with `--patterns`,
    /// `--seed`, `--objective`, and `--cut-k` overriding.
    pub fn pipeline_config(&self) -> PipelineConfig {
        let mut config = if self.paper {
            PipelineConfig::paper()
        } else {
            PipelineConfig::default()
        };
        if let Some(patterns) = self.patterns {
            config.patterns = patterns;
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(flow) = &self.flow {
            config.flow = flow.clone();
        }
        if let Some(objective) = self.objective {
            config.map.objective = objective;
        }
        if let Some(cut_k) = self.cut_k {
            config.map.cut_k = cut_k;
        }
        if let Some(verify) = self.verify {
            config.verify = verify;
        }
        config.choices = self.choices;
        config
    }

    /// The Table-1 configuration these flags select.
    pub fn table1_config(&self) -> Table1Config {
        Table1Config {
            pipeline: self.pipeline_config(),
        }
    }

    /// Runs `work` under the worker pool `--threads` selects: a scoped
    /// rayon pool of exactly `N` threads when the flag was given, the
    /// process-default pool otherwise. The pool sets the width of the
    /// job fan-out, so `--threads 1` against the default compares one
    /// thread with many without environment variables. Results are
    /// identical at any width; only the wall clock moves.
    pub fn with_thread_pool<R>(&self, work: impl FnOnce() -> R) -> R {
        match self.threads {
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool construction cannot fail for n >= 1")
                .install(work),
            None => work(),
        }
    }

    /// Runs `work` with span tracing enabled when `--trace-out PATH`
    /// was given, writing the Chrome-trace/Perfetto JSON to `PATH`
    /// afterwards (open in `chrome://tracing` or ui.perfetto.dev).
    /// Without the flag, tracing stays in whatever state the process
    /// already had and nothing is written.
    pub fn with_tracing<R>(&self, work: impl FnOnce() -> R) -> R {
        let Some(path) = &self.trace_out else {
            return work();
        };
        obs::set_enabled(true);
        let result = work();
        match obs::write_trace(path) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => {
                eprintln!("cannot write trace {path}: {e}");
                std::process::exit(1);
            }
        }
        result
    }
}

fn parse_u64(value: &str) -> Result<u64, std::num::ParseIntError> {
    if let Some(hex) = value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16)
    } else {
        value.parse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_in_any_order() {
        let args = BenchArgs::parse_from([
            "--paper",
            "circuit.aag",
            "--patterns",
            "4096",
            "--seed",
            "0x2A",
            "--flow",
            "b; rw -z; rf",
            "--objective",
            "area",
            "--cut-k",
            "4",
            "--verify",
            "sat",
            "--choices",
            "--json",
            "out.json",
        ])
        .unwrap();
        assert!(args.paper);
        assert!(args.choices);
        assert_eq!(args.patterns, Some(4096));
        assert_eq!(args.seed, Some(42));
        assert_eq!(args.flow.as_deref(), Some("b; rw -z; rf"));
        assert_eq!(args.objective, Some(Objective::Area));
        assert_eq!(args.cut_k, Some(4));
        assert_eq!(args.verify, Some(Verify::Sat));
        assert_eq!(args.json.as_deref(), Some("out.json"));
        assert_eq!(args.positional, ["circuit.aag"]);
    }

    #[test]
    fn flow_reaches_the_pipeline_config_and_parses() {
        let config = BenchArgs::parse_from(["--flow", "b;rw;b"])
            .unwrap()
            .pipeline_config();
        assert_eq!(config.flow, "b;rw;b");
        let default = BenchArgs::parse_from(std::iter::empty::<String>())
            .unwrap()
            .pipeline_config();
        assert_eq!(default.flow, aig::DEFAULT_FLOW);
        // The convenience accessor hands back the parsed flow.
        let args = BenchArgs::parse_from(["--flow", "rw -z"]).unwrap();
        assert_eq!(args.flow().script(), "rw -z");
        assert!(BenchArgs::parse_from(std::iter::empty::<String>())
            .unwrap()
            .flow()
            .uses_rewrite());
    }

    #[test]
    fn explicit_patterns_override_paper_setting() {
        let args = BenchArgs::parse_from(["--paper", "--patterns", "128"]).unwrap();
        let config = args.pipeline_config();
        assert_eq!(config.patterns, 128);
        let paper_only = BenchArgs::parse_from(["--paper"])
            .unwrap()
            .pipeline_config();
        assert_eq!(paper_only.patterns, 640 * 1024);
    }

    #[test]
    fn default_config_matches_pipeline_default() {
        let config = BenchArgs::parse_from(std::iter::empty::<String>())
            .unwrap()
            .pipeline_config();
        let default = PipelineConfig::default();
        assert_eq!(config.patterns, default.patterns);
        assert_eq!(config.seed, default.seed);
        assert_eq!(config.map, default.map);
    }

    #[test]
    fn objective_and_cut_k_reach_the_map_config() {
        let config = BenchArgs::parse_from(["--objective", "energy", "--cut-k", "5"])
            .unwrap()
            .pipeline_config();
        assert_eq!(config.map.objective, Objective::Energy);
        assert_eq!(config.map.cut_k, 5);
        assert_eq!(config.verify, Verify::Off, "verification defaults off");
        let verified = BenchArgs::parse_from(["--verify", "sat"])
            .unwrap()
            .pipeline_config();
        assert_eq!(verified.verify, Verify::Sat);
        assert!(!verified.choices, "choices default off");
        let with_choices = BenchArgs::parse_from(["--choices"])
            .unwrap()
            .pipeline_config();
        assert!(with_choices.choices);
        // Untouched knobs keep their defaults.
        assert_eq!(config.map.max_cuts, techmap::MapConfig::DEFAULT_MAX_CUTS);
    }

    #[test]
    fn threads_flag_parses_and_scopes_a_pool() {
        let args = BenchArgs::parse_from(["--threads", "3"]).unwrap();
        assert_eq!(args.threads, Some(3));
        let seen = args.with_thread_pool(rayon::current_num_threads);
        assert_eq!(seen, 3, "work must run under a 3-thread pool");
        // Without the flag, the environment default applies.
        let plain = BenchArgs::parse_from(std::iter::empty::<String>()).unwrap();
        assert_eq!(plain.threads, None);
        assert!(plain.with_thread_pool(rayon::current_num_threads) >= 1);
    }

    #[test]
    fn each_bin_takes_its_own_flags_and_names_any_other() {
        let samples: [(Flag, &[&str]); 13] = [
            (Flag::Patterns, &["--patterns", "64"]),
            (Flag::Seed, &["--seed", "7"]),
            (Flag::Paper, &["--paper"]),
            (Flag::Flow, &["--flow", "b; rw"]),
            (Flag::Objective, &["--objective", "area"]),
            (Flag::CutK, &["--cut-k", "4"]),
            (Flag::Choices, &["--choices"]),
            (Flag::Verify, &["--verify", "sat"]),
            (Flag::Threads, &["--threads", "2"]),
            (Flag::EmitAiger, &["--emit-aiger", "out"]),
            (Flag::Json, &["--json", "out.json"]),
            (Flag::TraceOut, &["--trace-out", "trace.json"]),
            (Flag::Positional, &["C1355"]),
        ];
        for &(bin, _) in BINS {
            for (flag, args) in samples {
                match BenchArgs::parse_for(bin, args.iter().copied()) {
                    Ok(_) => assert!(takes(bin, flag), "{bin} accepted {flag:?}"),
                    Err(msg) => {
                        assert!(!takes(bin, flag), "{bin} refused {flag:?}: {msg}");
                        assert!(msg.starts_with(bin), "{msg}");
                        let name = if flag == Flag::Positional {
                            "positional"
                        } else {
                            args[0]
                        };
                        assert!(msg.contains(name), "{msg}");
                    }
                }
            }
        }
        // The rejection names every binary that does take the flag.
        let msg = BenchArgs::parse_for("vdd_sweep", ["--json", "x"]).unwrap_err();
        assert!(
            msg.ends_with("(taken by table1, loadgen, engine_smoke, scale)"),
            "{msg}"
        );
    }

    #[test]
    fn patterns_are_bounded_by_the_paper_setting() {
        let bound = PipelineConfig::paper().patterns;
        let at = BenchArgs::parse_from(["--patterns".to_owned(), bound.to_string()]);
        assert_eq!(
            at.expect("the bound itself is allowed").patterns,
            Some(bound)
        );
        let msg = BenchArgs::parse_for("table1", ["--patterns", "655361"]).unwrap_err();
        assert!(
            msg.contains("--patterns 655361") && msg.contains("655360"),
            "the refusal names the flag and the bound: {msg}"
        );
        assert!(BenchArgs::parse_from(["--patterns", "1000000000000000000"]).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(BenchArgs::parse_from(["--patterns"]).is_err());
        assert!(BenchArgs::parse_from(["--patterns", "many"]).is_err());
        assert!(BenchArgs::parse_from(["--frobnicate"]).is_err());
        assert!(BenchArgs::parse_from(["--seed", "0xZZ"]).is_err());
        assert!(BenchArgs::parse_from(["--objective", "speed"]).is_err());
        assert!(BenchArgs::parse_from(["--objective"]).is_err());
        assert!(BenchArgs::parse_from(["--cut-k", "7"]).is_err());
        assert!(BenchArgs::parse_from(["--cut-k", "1"]).is_err());
        assert!(BenchArgs::parse_from(["--cut-k", "six"]).is_err());
        assert!(BenchArgs::parse_from(["--verify"]).is_err());
        assert!(BenchArgs::parse_from(["--verify", "prove"]).is_err());
        assert!(BenchArgs::parse_from(["--flow"]).is_err());
        assert!(BenchArgs::parse_from(["--flow", "b; frobnicate"]).is_err());
        assert!(BenchArgs::parse_from(["--flow", ""]).is_err());
        assert!(BenchArgs::parse_from(["--json"]).is_err());
        assert!(BenchArgs::parse_from(["--trace-out"]).is_err());
        assert!(BenchArgs::parse_from(["--threads"]).is_err());
        assert!(BenchArgs::parse_from(["--threads", "0"]).is_err());
        assert!(BenchArgs::parse_from(["--threads", "all"]).is_err());
    }
}

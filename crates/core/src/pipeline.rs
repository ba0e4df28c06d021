//! The per-circuit evaluation pipeline: synthesize once, then map, time
//! and power-estimate against a characterized library.

use aig::{Aig, ChoiceAig};
use charlib::CharacterizedLibrary;
use device::{EnergyDelay, Power, Time};
use power_est::{estimate_power, simulate_activity, PowerBreakdown};
use techmap::{
    critical_path, map_subject, verify_mapping_with, MapConfig, MapError, MappedNetlist, Objective,
    Subject, Verify, VerifyError,
};

/// Pipeline knobs.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Random patterns for power estimation (the paper uses 640 K).
    pub patterns: usize,
    /// Operating frequency, hertz (paper: 1 GHz).
    pub frequency_hz: f64,
    /// Simulation seed (fixed for reproducibility).
    pub seed: u64,
    /// The pre-mapping synthesis flow script (see [`aig::Flow`]); parsed
    /// and applied per benchmark by the Table-1 driver
    /// ([`table1_subset`](crate::experiments::table1_subset)). [`run_job`]
    /// itself takes an already-synthesized AIG and does not consult this
    /// field.
    pub flow: String,
    /// Technology-mapping configuration (objective, cut shape, load
    /// model). The default reproduces the paper's delay-oriented mapping.
    pub map: MapConfig,
    /// Post-mapping verification: `Off` (default), `Sim`, or `Sat`
    /// (SAT-proof of every mapped netlist against its synthesized AIG).
    pub verify: Verify,
    /// Map over structural choices: the Table-1 driver synthesizes
    /// through [`aig::Flow::run_with_choices`] (appending a `dch` step
    /// when the script has none), and each circuit is mapped both over
    /// its [`ChoiceAig`] and plainly — the choice netlist is kept
    /// whenever it uses no more gates (the no-choice gate count is
    /// recorded in [`CircuitResult::gates_no_choice`]).
    pub choices: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            patterns: 1 << 16,
            frequency_hz: charlib::OPERATING_FREQUENCY_HZ,
            seed: 0xDA7E_2010,
            flow: aig::DEFAULT_FLOW.to_owned(),
            map: MapConfig::default(),
            verify: Verify::Off,
            choices: false,
        }
    }
}

/// Why a pipeline run failed: the synthesis flow script did not parse,
/// the mapper could not produce a netlist, or the produced netlist failed
/// verification.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// The configured synthesis flow script is malformed.
    Flow(aig::FlowError),
    /// Technology mapping failed.
    Map(MapError),
    /// The mapped netlist is not equivalent to its source AIG (carries
    /// the counterexample) or has a malformed interface.
    Verify(VerifyError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Flow(e) => write!(f, "flow script failed to parse: {e}"),
            PipelineError::Map(e) => write!(f, "mapping failed: {e}"),
            PipelineError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<aig::FlowError> for PipelineError {
    fn from(e: aig::FlowError) -> Self {
        PipelineError::Flow(e)
    }
}

impl From<MapError> for PipelineError {
    fn from(e: MapError) -> Self {
        PipelineError::Map(e)
    }
}

impl From<VerifyError> for PipelineError {
    fn from(e: VerifyError) -> Self {
        PipelineError::Verify(e)
    }
}

impl PipelineConfig {
    /// The paper's full setting: 640 K random patterns.
    pub fn paper() -> Self {
        Self {
            patterns: 640 * 1024,
            ..Self::default()
        }
    }
}

/// Everything Table 1 reports for one circuit × one family.
#[derive(Clone, Debug)]
pub struct CircuitResult {
    /// Mapped gate count (the "No." column).
    pub gates: usize,
    /// Critical-path delay.
    pub delay: Time,
    /// Power breakdown (P_D, P_SC, P_S, P_G).
    pub power: PowerBreakdown,
    /// Total cell area, m².
    pub area: f64,
    /// Total transistors.
    pub transistors: usize,
    /// When choice-aware mapping ran ([`PipelineConfig::choices`]): the
    /// gate count the plain (no-choice) mapping would have used — the
    /// QoR delta the `--json` artifact records.
    pub gates_no_choice: Option<usize>,
    /// When choice-aware mapping ran: the STA critical path the plain
    /// (no-choice) mapping would have reported, under the same output
    /// load the kept netlist is timed with. Together with
    /// [`CircuitResult::gates_no_choice`] this makes both portfolio
    /// guarantees checkable from the `--json` artifact.
    pub delay_no_choice: Option<Time>,
}

impl CircuitResult {
    /// Total power P_T.
    pub fn total_power(&self) -> Power {
        self.power.total()
    }

    /// Energy–delay product (P_T/f · delay).
    pub fn edp(&self) -> EnergyDelay {
        self.power.edp(self.delay)
    }
}

/// The full product of one mapping job: the kept netlist (what a server
/// streams back to its client) together with the evaluated metrics (what
/// the QoR artifact records).
#[derive(Clone, Debug)]
pub struct MappedJob {
    /// The netlist the portfolio kept.
    pub netlist: MappedNetlist,
    /// Metrics of that netlist (gates, delay, power, area, …).
    pub result: CircuitResult,
}

/// Why a job-level run failed: the pipeline itself errored, or the
/// caller's deadline passed between stages.
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// The underlying pipeline failed (map or verify).
    Pipeline(PipelineError),
    /// The deadline handed to [`run_job`] expired before the job
    /// finished. The check is cooperative — evaluated at stage
    /// boundaries (map → verify → estimate), so a job stops within one
    /// stage of its deadline rather than instantly.
    DeadlineExceeded,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Pipeline(e) => e.fmt(f),
            JobError::DeadlineExceeded => write!(f, "job deadline exceeded"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<PipelineError> for JobError {
    fn from(e: PipelineError) -> Self {
        JobError::Pipeline(e)
    }
}

/// The pipeline's one job entry, run per circuit × family by the Table-1
/// driver and per request by `synthd`: map an already-synthesized AIG
/// (with optional structural choices) through
/// [`map_portfolio_with_cut_db`] and the family's shared NPN match cache,
/// verify the kept netlist against the AIG per [`PipelineConfig::verify`],
/// then time it and estimate its power. The caller owns the cut database
/// ([`mapper_cut_db`]): the Table-1 driver fills one per circuit and
/// hands each family a copy, so the circuit's cuts are enumerated once,
/// while `synthd` gives every job a fresh one. `deadline`, when given, is
/// checked at every stage boundary.
///
/// # Errors
///
/// [`JobError::Pipeline`] when mapping fails (unreachable with the
/// built-in libraries and benchmarks) or verification refutes the
/// netlist; [`JobError::DeadlineExceeded`] when the deadline lapses.
pub fn run_job(
    synthesized: &Aig,
    choices: Option<&ChoiceAig>,
    library: &CharacterizedLibrary,
    config: &PipelineConfig,
    db: &mut aig::CutDb,
    deadline: Option<std::time::Instant>,
) -> Result<MappedJob, JobError> {
    let check = || -> Result<(), JobError> {
        match deadline {
            Some(d) if std::time::Instant::now() >= d => Err(JobError::DeadlineExceeded),
            _ => Ok(()),
        }
    };
    check()?;
    let (mapped, baseline) = {
        let _s = obs::span!("map");
        map_portfolio_with_cut_db(synthesized, choices, library, config, db)?
    };
    check()?;
    {
        let _s = obs::span!("verify");
        // 16 words = 1024 random patterns in Sim mode beyond 16 inputs.
        verify_mapping_with(
            synthesized,
            &mapped,
            library,
            config.verify,
            config.seed,
            16,
        )
        .map_err(PipelineError::Verify)?;
    }
    check()?;
    let _s = obs::span!("estimate");
    let sta = critical_path(&mapped, library);
    let activity = simulate_activity(&mapped, library, config.patterns, config.seed);
    let power = estimate_power(&mapped, library, &activity, config.frequency_hz);
    let result = CircuitResult {
        gates: mapped.gate_count(),
        delay: sta.critical,
        power,
        area: mapped.area(library),
        transistors: mapped.transistor_count(library),
        gates_no_choice: baseline.map(|b| b.gates),
        delay_no_choice: baseline.map(|b| b.delay),
    };
    drop(_s);
    Ok(MappedJob {
        netlist: mapped,
        result,
    })
}

/// What the no-choice run would have reported for a circuit — measured
/// by [`map_portfolio_with_cut_db`] on the primary-snapshot baseline while
/// arbitrating, and surfaced through
/// [`CircuitResult::gates_no_choice`] / [`CircuitResult::delay_no_choice`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoChoiceBaseline {
    /// Gate count of the baseline mapping.
    pub gates: usize,
    /// STA critical path of the baseline mapping.
    pub delay: Time,
}

/// An empty cut database shaped for the configured mapper (`cut_k`
/// clamped into the supported range so construction never panics on a
/// config the mapper itself would reject with a typed error).
pub fn mapper_cut_db(map: &MapConfig) -> aig::CutDb {
    aig::CutDb::new(aig::CutConfig {
        k: map.cut_k.clamp(2, 6),
        max_cuts: map.max_cuts,
    })
}

/// The shared mapping portfolio. Plain mapping of the synthesized
/// network always runs; with choices configured, two more candidates
/// join: the choice-aware mapping, and the plain mapping of the choice
/// network's *primary* snapshot — the network the flow would have
/// produced without its `dch` step, i.e. the exact no-choice baseline.
///
/// Arbitration follows the configured objective. Under
/// [`Objective::Delay`] the candidate with the minimum *STA-verified*
/// critical path wins (ties → fewer gates, then the choice mapping,
/// then the synthesized network's) — so enabling `--choices` under the
/// delay objective structurally cannot regress a circuit's reported
/// delay. Under Area/Energy the smallest cover wins (ties prefer the
/// choice mapping), preserving the original gate-count guarantee. A
/// choice mapping that fails, e.g. because the sweep proved an output
/// constant, simply falls back.
///
/// The plain mapping consumes (and tops up) the caller's cut database,
/// keyed to `synthesized`; the choice and primary-snapshot candidates map
/// other networks and leave it alone. Returns the kept netlist plus the
/// baseline's gate count and STA delay whenever the choice path was
/// attempted.
///
/// # Errors
///
/// [`PipelineError::Map`] when a plain mapping fails (a failing
/// *choice* mapping only falls back).
pub fn map_portfolio_with_cut_db(
    synthesized: &Aig,
    choices: Option<&ChoiceAig>,
    library: &CharacterizedLibrary,
    config: &PipelineConfig,
    db: &mut aig::CutDb,
) -> Result<(MappedNetlist, Option<NoChoiceBaseline>), PipelineError> {
    let cache = crate::engine::match_cache(library.family);
    let map_plain = |aig: &Aig, cuts: &mut aig::CutDb| {
        map_subject(Subject::Plain(aig, cuts), library, cache, &config.map)
    };
    let plain = map_plain(synthesized, db)?;
    let Some(choice) = choices.filter(|_| config.choices) else {
        return Ok((plain, None));
    };
    let choice_mapped = map_subject(Subject::Choices(choice), library, cache, &config.map).ok();
    // When the dch collapse was rejected, the synthesized network IS the
    // primary snapshot — don't map the same structure twice.
    let baseline = if synthesized.same_structure(choice.primary()) {
        None
    } else {
        Some(map_plain(
            choice.primary(),
            &mut mapper_cut_db(&config.map),
        )?)
    };
    let sta_delay = |netlist: &MappedNetlist| critical_path(netlist, library).critical;
    let baseline_ref = baseline.as_ref().unwrap_or(&plain);
    let no_choice = Some(NoChoiceBaseline {
        gates: baseline_ref.gate_count(),
        delay: sta_delay(baseline_ref),
    });
    // Candidate order encodes tie preference: choice first, then the
    // synthesized network's mapping, then the primary snapshot's.
    let candidates = [choice_mapped, Some(plain), baseline].into_iter().flatten();
    let best = match config.map.objective {
        Objective::Delay => candidates
            .map(|netlist| {
                let delay = sta_delay(&netlist).value();
                let gates = netlist.gate_count();
                (netlist, delay, gates)
            })
            .reduce(|best, cand| {
                // Relative tie window: STA delays of structurally
                // different covers are equal only up to summation noise.
                let eps = 1e-9 * best.1.abs().max(cand.1.abs());
                if cand.1 < best.1 - eps || ((cand.1 - best.1).abs() <= eps && cand.2 < best.2) {
                    cand
                } else {
                    best
                }
            })
            .map(|(netlist, _, _)| netlist),
        Objective::Area | Objective::Energy => candidates.min_by_key(MappedNetlist::gate_count),
    }
    .expect("at least the plain mapping exists");
    Ok((best, no_choice))
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlib::characterize_library;
    use gate_lib::GateFamily;
    use techmap::Objective;

    /// One job against a fresh cut database, metrics only.
    fn evaluate(
        synthesized: &Aig,
        library: &CharacterizedLibrary,
        config: &PipelineConfig,
    ) -> Result<CircuitResult, JobError> {
        let mut db = mapper_cut_db(&config.map);
        run_job(synthesized, None, library, config, &mut db, None).map(|job| job.result)
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let aig = bench_circuits::benchmark_by_name("C1355")
            .expect("C1355")
            .aig;
        let synthesized = aig::synthesize(&aig);
        assert_eq!(
            aig::check_equivalence(&aig, &synthesized),
            Ok(aig::Equivalence::Equal)
        );
        let config = PipelineConfig {
            patterns: 4096,
            ..PipelineConfig::default()
        };
        for family in GateFamily::ALL {
            let lib = characterize_library(family);
            let r = evaluate(&synthesized, &lib, &config).expect("mapping succeeds");
            assert!(r.gates > 50, "{family}: gates {}", r.gates);
            assert!(r.delay.value() > 0.0);
            assert!(r.total_power().value() > 0.0);
            assert!(r.edp().value() > 0.0);
            assert!(r.area > 0.0);
            assert!(r.transistors > r.gates);
        }
    }

    #[test]
    fn verify_knob_proves_the_mapping_in_the_pipeline() {
        let aig = bench_circuits::benchmark_by_name("t481").expect("t481").aig;
        let synthesized = aig::synthesize(&aig);
        let lib = characterize_library(GateFamily::CntfetGeneralized);
        for verify in techmap::Verify::ALL {
            let config = PipelineConfig {
                patterns: 1024,
                verify,
                ..PipelineConfig::default()
            };
            let r =
                evaluate(&synthesized, &lib, &config).unwrap_or_else(|e| panic!("{verify}: {e}"));
            assert!(r.gates > 0);
        }
    }

    #[test]
    fn objectives_trade_delay_for_area() {
        // The knobs must actually steer the mapper: an area-objective run
        // never occupies more silicon than the depth-greedy delay mapper
        // (with recovery enabled the delay objective's exact-local-area
        // rounds can legitimately beat single-pass area flow, so the
        // un-recovered mapper is the fair baseline), and the delay run is
        // at least as fast as the area run.
        let aig = bench_circuits::benchmark_by_name("C1355")
            .expect("C1355")
            .aig;
        let synthesized = aig::synthesize(&aig);
        let lib = characterize_library(GateFamily::Cmos);
        let result_for = |map: MapConfig| {
            let config = PipelineConfig {
                patterns: 2048,
                map,
                ..PipelineConfig::default()
            };
            evaluate(&synthesized, &lib, &config).expect("mapping succeeds")
        };
        let delay = result_for(MapConfig::for_objective(Objective::Delay));
        let greedy_delay = result_for(MapConfig {
            recovery_rounds: 0,
            ..MapConfig::default()
        });
        let area = result_for(MapConfig::for_objective(Objective::Area));
        assert!(
            area.area <= greedy_delay.area * (1.0 + 1e-9),
            "area mapping occupies more silicon: {} vs {}",
            area.area,
            greedy_delay.area
        );
        assert!(
            delay.delay.value() <= area.delay.value() * 1.0001,
            "delay mapping must be at least as fast: {} vs {}",
            delay.delay.value(),
            area.delay.value()
        );
        // Recovery sheds area without touching the optimal depth. The
        // structural guarantee (`arrival ≤ required`) holds on the DP's
        // *predicted* arrivals; on STA a small band is allowed because
        // the DP estimates loads from fanout buckets while STA prices
        // the emitted cover's exact pins, so a re-selection that holds
        // predicted delay can move STA by a few percent either way
        // (measured on C1355/CMOS: +1.6%).
        assert!(
            delay.delay.value() <= greedy_delay.delay.value() * 1.05,
            "recovery must not lengthen the critical path: {} vs {}",
            delay.delay.value(),
            greedy_delay.delay.value()
        );
        assert!(
            delay.area <= greedy_delay.area * (1.0 + 1e-9),
            "recovery must not grow the cover: {} vs {}",
            delay.area,
            greedy_delay.area
        );
    }

    #[test]
    fn ecc_prefers_generalized_library() {
        // C1355 is an XOR-dominated circuit: the generalized library must
        // win on gates, delay and power simultaneously.
        let aig = bench_circuits::benchmark_by_name("C1355")
            .expect("C1355")
            .aig;
        let synthesized = aig::synthesize(&aig);
        let config = PipelineConfig {
            patterns: 8192,
            ..PipelineConfig::default()
        };
        let gen = characterize_library(GateFamily::CntfetGeneralized);
        let conv = characterize_library(GateFamily::CntfetConventional);
        let r_gen = evaluate(&synthesized, &gen, &config).expect("mapping succeeds");
        let r_conv = evaluate(&synthesized, &conv, &config).expect("mapping succeeds");
        assert!(
            r_gen.gates < r_conv.gates,
            "{} vs {}",
            r_gen.gates,
            r_conv.gates
        );
        assert!(r_gen.delay.value() < r_conv.delay.value());
        assert!(r_gen.total_power().value() < r_conv.total_power().value());
    }
}

//! The paper's evaluation artifacts, regenerated.
//!
//! | artifact | function |
//! |---|---|
//! | Table 1 | [`table1_subset`] |
//! | §4 gate-level library comparison | [`gate_library_comparison`] |
//! | §3.2 I_off pattern census ("26 patterns") | [`pattern_census`] |
//! | Fig. 4 stack-effect study | [`fig4_study`] |

use crate::engine::{self, libraries, parse_flow, rewrite_library, synthesize_with_choices};
use crate::pipeline::{
    mapper_cut_db, run_job, CircuitResult, JobError, PipelineConfig, PipelineError,
};
use aig::ChoiceAig;
use charlib::{LeakageSimulator, OffPattern};
use device::TechParams;
use gate_lib::GateFamily;
use rayon::prelude::*;
use std::fmt;

/// Configuration for the Table-1 run. The default runs 64 K patterns.
#[derive(Clone, Debug, Default)]
pub struct Table1Config {
    /// Per-circuit pipeline settings.
    pub pipeline: PipelineConfig,
}

/// One benchmark row across the three families.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Paper circuit name.
    pub name: String,
    /// The paper's "Function" column.
    pub function: String,
    /// AND count of the synthesized AIG handed to the mapper (QoR of the
    /// pre-mapping flow; feeds the `--json` perf artifact).
    pub ands: usize,
    /// Logic depth of the synthesized AIG.
    pub depth: u32,
    /// Results in family order (generalized, conventional, CMOS).
    pub results: [CircuitResult; 3],
}

/// Per-family aggregate of a Table-1 run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FamilyAverages {
    /// Mean gate count.
    pub gates: f64,
    /// Mean delay, seconds.
    pub delay: f64,
    /// Mean dynamic power, watts.
    pub pd: f64,
    /// Mean static power, watts.
    pub ps: f64,
    /// Mean total power, watts.
    pub pt: f64,
    /// Mean EDP, joule-seconds.
    pub edp: f64,
}

/// The regenerated Table 1.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// Benchmark rows in paper order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Per-family averages (the paper's "Average" row).
    pub fn averages(&self) -> [FamilyAverages; 3] {
        let n = self.rows.len().max(1) as f64;
        let mut out = [FamilyAverages::default(); 3];
        for row in &self.rows {
            for (avg, r) in out.iter_mut().zip(row.results.iter()) {
                avg.gates += r.gates as f64 / n;
                avg.delay += r.delay.value() / n;
                avg.pd += r.power.dynamic.value() / n;
                avg.ps += r.power.static_sub.value() / n;
                avg.pt += r.total_power().value() / n;
                avg.edp += r.edp().value() / n;
            }
        }
        out
    }

    /// The paper's "Improvement vs. CMOS" row for a CNTFET family
    /// (0 = generalized, 1 = conventional): gate/P_D/P_S/P_T savings as
    /// fractions, delay and EDP as CMOS-over-family ratios.
    pub fn improvement_vs_cmos(&self, family_index: usize) -> Improvement {
        assert!(family_index < 2, "CMOS has no improvement over itself");
        let avg = self.averages();
        let f = &avg[family_index];
        let cmos = &avg[2];
        Improvement {
            gates_saving: 1.0 - f.gates / cmos.gates,
            delay_ratio: cmos.delay / f.delay,
            pd_saving: 1.0 - f.pd / cmos.pd,
            ps_saving: 1.0 - f.ps / cmos.ps,
            pt_saving: 1.0 - f.pt / cmos.pt,
            edp_ratio: cmos.edp / f.edp,
        }
    }
}

/// The improvement row of Table 1.
#[derive(Clone, Copy, Debug)]
pub struct Improvement {
    /// Fractional reduction in mapped gates (paper: 24.2 % / 3.2 %).
    pub gates_saving: f64,
    /// CMOS delay over family delay (paper: 7.1× / 5.1×).
    pub delay_ratio: f64,
    /// Fractional dynamic-power saving (paper: 53.4 % / 30.9 %).
    pub pd_saving: f64,
    /// Fractional static-power saving (paper: 94.5 % / 92.7 %).
    pub ps_saving: f64,
    /// Fractional total-power saving (paper: 57.1 % / 36.7 %).
    pub pt_saving: f64,
    /// CMOS EDP over family EDP (paper: 19.5× / 8.1×).
    pub edp_ratio: f64,
}

/// Runs Table 1 on the named benchmark rows (`None` for all twelve):
/// each benchmark is synthesized once ([`parse_flow`],
/// [`synthesize_with_choices`]) and its mapper cuts are enumerated once;
/// [`run_job`] then maps and evaluates it against each of the three
/// libraries on a clone of that cut database. Synthesis is one rayon task
/// per benchmark and evaluation one per (circuit, family) pair; joins
/// keep paper order and every stage is deterministic, so the table is
/// identical at any thread count.
///
/// # Errors
///
/// [`PipelineError::Flow`] on a malformed flow script; otherwise the
/// first mapping or verification failure in row order (unreachable with
/// the built-in libraries and benchmarks).
pub fn table1_subset(
    config: &Table1Config,
    names: Option<&[&str]>,
) -> Result<Table1, PipelineError> {
    let pipeline = &config.pipeline;
    let flow = parse_flow(pipeline)?;
    if flow.uses_rewrite() {
        rewrite_library();
    }
    let libs = libraries();
    let benches: Vec<bench_circuits::Benchmark> = bench_circuits::table1_benchmarks()
        .into_iter()
        .filter(|bench| names.is_none_or(|names| names.contains(&bench.name)))
        .collect();
    let synthesized: Vec<(aig::Aig, Option<ChoiceAig>, aig::CutDb)> = benches
        .par_iter()
        .map(|bench| {
            let (aig, choices) = synthesize_with_choices(&flow, &bench.aig, pipeline);
            let mut db = mapper_cut_db(&pipeline.map);
            db.ensure(&aig.cleanup());
            (aig, choices, db)
        })
        .collect();
    let results: Vec<Result<CircuitResult, PipelineError>> = (0..benches.len() * libs.len())
        .into_par_iter()
        .map(|job| {
            let (aig, choices, db) = &synthesized[job / libs.len()];
            let library = libs[job % libs.len()];
            match run_job(
                aig,
                choices.as_ref(),
                library,
                pipeline,
                &mut db.clone(),
                None,
            ) {
                Ok(job) => Ok(job.result),
                Err(JobError::Pipeline(e)) => Err(e),
                Err(JobError::DeadlineExceeded) => unreachable!("no deadline was set"),
            }
        })
        .collect();
    let mut results = results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();
    let rows = benches
        .into_iter()
        .zip(&synthesized)
        .map(|(bench, (aig, _, _))| Table1Row {
            name: bench.name.to_owned(),
            function: bench.function.to_owned(),
            ands: aig.and_count(),
            depth: aig.depth(),
            results: std::array::from_fn(|_| results.next().expect("three families per row")),
        })
        .collect();
    Ok(Table1 { rows })
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Logic synthesis and technology mapping: gate count, delay (ps), P_D (µW), P_S (µW), P_T (µW), EDP (1e-24 J·s)"
        )?;
        write!(f, "{:<8} {:<17}", "Circuit", "Function")?;
        for family in GateFamily::ALL {
            write!(f, " | {:^47}", family.label())?;
        }
        writeln!(f)?;
        write!(f, "{:<8} {:<17}", "", "")?;
        for _ in 0..3 {
            write!(
                f,
                " | {:>6} {:>6} {:>8} {:>7} {:>8} {:>7}",
                "No.", "Delay", "PD", "PS", "PT", "EDP"
            )?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:<8} {:<17}", row.name, row.function)?;
            for r in &row.results {
                write!(
                    f,
                    " | {:>6} {:>6.0} {:>8.2} {:>7.3} {:>8.2} {:>7.2}",
                    r.gates,
                    r.delay.value() * 1e12,
                    r.power.dynamic.value() * 1e6,
                    r.power.static_sub.value() * 1e6,
                    r.total_power().value() * 1e6,
                    r.edp().value() * 1e24,
                )?;
            }
            writeln!(f)?;
        }
        let avg = self.averages();
        write!(f, "{:<8} {:<17}", "Average", "")?;
        for a in &avg {
            write!(
                f,
                " | {:>6.0} {:>6.0} {:>8.2} {:>7.3} {:>8.2} {:>7.2}",
                a.gates,
                a.delay * 1e12,
                a.pd * 1e6,
                a.ps * 1e6,
                a.pt * 1e6,
                a.edp * 1e24,
            )?;
        }
        writeln!(f)?;
        write!(f, "{:<8} {:<17}", "Improv.", "vs. CMOS")?;
        for idx in 0..2 {
            let imp = self.improvement_vs_cmos(idx);
            write!(
                f,
                " | {:>5.1}% {:>5.1}x {:>7.1}% {:>6.1}% {:>7.1}% {:>6.1}x",
                imp.gates_saving * 100.0,
                imp.delay_ratio,
                imp.pd_saving * 100.0,
                imp.ps_saving * 100.0,
                imp.pt_saving * 100.0,
                imp.edp_ratio,
            )?;
        }
        write!(f, " | {:>47}", "-")?;
        Ok(())
    }
}

/// §4 gate-level comparison between the CNTFET and CMOS libraries.
#[derive(Clone, Debug)]
pub struct GateLibraryReport {
    /// Average total gate power saving of conventional CNTFET cells over
    /// their CMOS counterparts (paper: ≈28 %).
    pub total_power_saving: f64,
    /// Average dynamic-power saving (paper: ≈27 %).
    pub dynamic_power_saving: f64,
    /// CMOS-over-CNTFET static power ratio (paper: ≈ one order).
    pub static_ratio: f64,
    /// Average P_G/P_S for CMOS cells (paper: ≈10 %).
    pub cmos_gate_leak_fraction: f64,
    /// Average P_G/P_S for CNTFET cells (paper: <1 %).
    pub cnt_gate_leak_fraction: f64,
    /// Average activity factor of the generalized library.
    pub generalized_activity: f64,
    /// Average activity factor of the CMOS library.
    pub cmos_activity: f64,
    /// CNTFET inverter input capacitance, farads (paper: 36 aF).
    pub cnt_inverter_cap: f64,
    /// CMOS inverter input capacitance, farads (paper: 52 aF).
    pub cmos_inverter_cap: f64,
}

/// Characterizes the libraries and compares matched cells (the cells
/// "available in CMOS technology", per the paper).
pub fn gate_library_comparison() -> GateLibraryReport {
    let gen = engine::library(GateFamily::CntfetGeneralized);
    let conv = engine::library(GateFamily::CntfetConventional);
    let cmos = engine::library(GateFamily::Cmos);
    let mut pt_savings = Vec::new();
    let mut pd_savings = Vec::new();
    let mut ps_ratios = Vec::new();
    for cell in &conv.gates {
        let other = cmos.find(&cell.gate.name).expect("same cell set");
        let p_cnt = cell.power_summary();
        let p_cmos = other.power_summary();
        pt_savings.push(1.0 - p_cnt.total().value() / p_cmos.total().value());
        pd_savings.push(1.0 - p_cnt.dynamic.value() / p_cmos.dynamic.value());
        ps_ratios.push(p_cmos.static_sub.value() / p_cnt.static_sub.value());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    GateLibraryReport {
        total_power_saving: mean(&pt_savings),
        dynamic_power_saving: mean(&pd_savings),
        static_ratio: mean(&ps_ratios),
        cmos_gate_leak_fraction: cmos.average(|g| g.ig_avg / g.ioff_avg),
        cnt_gate_leak_fraction: conv.average(|g| g.ig_avg / g.ioff_avg),
        generalized_activity: gen.average(|g| g.alpha),
        cmos_activity: cmos.average(|g| g.alpha),
        cnt_inverter_cap: gen.find("INV").expect("INV").input_caps[0],
        cmos_inverter_cap: cmos.find("INV").expect("INV").input_caps[0],
    }
}

impl fmt::Display for GateLibraryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Gate-level library comparison (paper §4):")?;
        writeln!(
            f,
            "  total power saving (CNTFET vs CMOS, matched cells): {:5.1}%   [paper: 28%]",
            self.total_power_saving * 100.0
        )?;
        writeln!(
            f,
            "  dynamic power saving:                               {:5.1}%   [paper: 27%]",
            self.dynamic_power_saving * 100.0
        )?;
        writeln!(
            f,
            "  static power ratio (CMOS / CNTFET):                 {:5.1}x   [paper: ~10x]",
            self.static_ratio
        )?;
        writeln!(
            f,
            "  P_G / P_S, CMOS:                                    {:5.1}%   [paper: ~10%]",
            self.cmos_gate_leak_fraction * 100.0
        )?;
        writeln!(
            f,
            "  P_G / P_S, CNTFET:                                  {:5.2}%   [paper: <1%]",
            self.cnt_gate_leak_fraction * 100.0
        )?;
        writeln!(
            f,
            "  average activity factor, generalized vs CMOS:       {:.3} vs {:.3}  [paper: equal]",
            self.generalized_activity, self.cmos_activity
        )?;
        write!(
            f,
            "  inverter input capacitance:                         {:.0} aF vs {:.0} aF  [paper: 36 vs 52]",
            self.cnt_inverter_cap * 1e18,
            self.cmos_inverter_cap * 1e18
        )
    }
}

/// §3.2: the distinct I_off patterns of the generalized library.
#[derive(Clone, Debug)]
pub struct PatternCensusReport {
    /// Distinct canonical patterns across the 46-gate library.
    pub distinct: usize,
    /// Total (gate, input-vector) pattern observations.
    pub observations: usize,
    /// Patterns with their occurrence counts, most common first.
    pub patterns: Vec<(String, usize)>,
}

/// Runs the census on the generalized ambipolar library.
pub fn pattern_census() -> PatternCensusReport {
    let lib = engine::library(GateFamily::CntfetGeneralized);
    let patterns: Vec<(String, usize)> = lib
        .pattern_census
        .iter_by_frequency()
        .map(|(p, c)| (p.to_string(), c))
        .collect();
    PatternCensusReport {
        distinct: lib.pattern_census.distinct(),
        observations: patterns.iter().map(|(_, c)| c).sum(),
        patterns,
    }
}

impl fmt::Display for PatternCensusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "I_off pattern census over the 46-gate generalized library (paper §3.2: 26 patterns):"
        )?;
        writeln!(
            f,
            "  {} distinct patterns across {} (gate, vector) observations",
            self.distinct, self.observations
        )?;
        for (p, c) in &self.patterns {
            writeln!(f, "    {c:>6}×  {p}")?;
        }
        Ok(())
    }
}

/// Fig. 4: parallel vs series off-transistor leakage of a 3-input NOR.
#[derive(Clone, Debug)]
pub struct Fig4Study {
    /// Technology the study ran on.
    pub tech: String,
    /// Leakage with input [0 0 0]: three parallel off devices, amperes.
    pub parallel_ioff: f64,
    /// Leakage with input [1 1 1]: three series off devices, amperes.
    pub series_ioff: f64,
}

impl Fig4Study {
    /// The paper's ">3×" factor.
    pub fn ratio(&self) -> f64 {
        self.parallel_ioff / self.series_ioff
    }
}

/// Reproduces the Fig. 4 example on a technology point.
pub fn fig4_study(tech: &TechParams) -> Fig4Study {
    let mut sim = LeakageSimulator::new(tech.clone());
    let d = OffPattern::Device;
    let parallel = sim.ioff(&OffPattern::parallel([d.clone(), d.clone(), d.clone()]));
    let series = sim.ioff(&OffPattern::series([d.clone(), d.clone(), d]));
    Fig4Study {
        tech: tech.kind.to_string(),
        parallel_ioff: parallel,
        series_ioff: series,
    }
}

impl fmt::Display for Fig4Study {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Fig. 4 ({}): NOR3 leakage [0 0 0] = {}, [1 1 1] = {}, ratio = {:.1}x  [paper: >3x]",
            self.tech,
            device::units::eng(self.parallel_ioff, "A"),
            device::units::eng(self.series_ioff, "A"),
            self.ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_library_report_matches_paper_bands() {
        let r = gate_library_comparison();
        assert!((0.15..=0.45).contains(&r.total_power_saving), "{r:?}");
        assert!((0.15..=0.40).contains(&r.dynamic_power_saving), "{r:?}");
        assert!(r.static_ratio > 5.0, "{r:?}");
        assert!((0.04..=0.25).contains(&r.cmos_gate_leak_fraction), "{r:?}");
        assert!(r.cnt_gate_leak_fraction < 0.01, "{r:?}");
        // "The CNTFET library shows on average the same activity factor
        // as the CMOS library."
        let rel = (r.generalized_activity - r.cmos_activity).abs() / r.cmos_activity;
        assert!(rel < 0.25, "activity factors should be comparable: {r:?}");
        assert!((r.cnt_inverter_cap - 36e-18).abs() < 1e-21);
        assert!((r.cmos_inverter_cap - 52e-18).abs() < 1e-21);
    }

    #[test]
    fn pattern_census_is_small_and_stable() {
        let census = pattern_census();
        assert!(
            (10..=40).contains(&census.distinct),
            "paper reports 26; classification must stay in that regime, got {}",
            census.distinct
        );
        assert!(census.observations > 500);
        // Deterministic.
        let again = pattern_census();
        assert_eq!(census.distinct, again.distinct);
        assert_eq!(census.patterns, again.patterns);
    }

    #[test]
    fn fig4_ratio_exceeds_three() {
        for tech in [TechParams::cmos_32nm(), TechParams::cntfet_32nm()] {
            let study = fig4_study(&tech);
            assert!(
                study.ratio() > 3.0,
                "{}: ratio {}",
                study.tech,
                study.ratio()
            );
        }
    }

    #[test]
    fn table1_single_row_shape() {
        // Full Table 1 is exercised by the bench binary; here run one
        // XOR-rich row end-to-end and check the paper's ordering.
        let config = Table1Config {
            pipeline: PipelineConfig {
                patterns: 4096,
                ..PipelineConfig::default()
            },
        };
        let table = table1_subset(&config, Some(&["C1908"])).expect("mapping succeeds");
        let results = &table.rows[0].results;
        // Generalized wins gates and power; CMOS is slowest and hungriest.
        assert!(results[0].gates <= results[1].gates);
        assert!(results[0].total_power().value() < results[2].total_power().value());
        assert!(results[0].delay.value() < results[2].delay.value());
        assert!(results[0].edp().value() < results[2].edp().value() / 4.0);
    }
}

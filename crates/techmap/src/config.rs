//! Mapper configuration (objective, cut shape, load model) and the
//! fallible-mapping error type.

use charlib::CharacterizedLibrary;
use device::Capacitance;

/// What the match-selection phase optimizes.
///
/// Every objective runs the same staged engine; only the primary cost in
/// the dynamic program changes. The secondary cost breaks ties so the
/// mapper stays deterministic across machines and thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize arrival time; break ties on area flow (the classic
    /// delay-oriented mapper, and the setting Table 1 is produced with).
    #[default]
    Delay,
    /// Minimize area flow; break ties on arrival time.
    Area,
    /// Minimize energy flow (per-cycle cell energy from characterization);
    /// break ties on arrival time.
    Energy,
}

impl Objective {
    /// All objectives, in CLI/documentation order.
    pub const ALL: [Objective; 3] = [Objective::Delay, Objective::Area, Objective::Energy];

    /// Lower-case CLI label (`delay` / `area` / `energy`).
    pub fn label(self) -> &'static str {
        match self {
            Objective::Delay => "delay",
            Objective::Area => "area",
            Objective::Energy => "energy",
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Objective {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "delay" => Ok(Objective::Delay),
            "area" => Ok(Objective::Area),
            "energy" => Ok(Objective::Energy),
            other => Err(format!(
                "unknown objective `{other}` (expected delay, area, or energy)"
            )),
        }
    }
}

/// How the mapper estimates the capacitive load a cell drives while
/// selecting matches (the real per-net loads are only known after cover
/// extraction; static timing re-derives them exactly).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadModel {
    /// A multiple of the library's average input-pin capacitance
    /// (`AveragePins(2.0)` is the historical default: two average pins).
    AveragePins(f64),
    /// A fixed load in farads.
    Fixed(f64),
}

impl Default for LoadModel {
    fn default() -> Self {
        LoadModel::AveragePins(2.0)
    }
}

impl LoadModel {
    /// Resolves the model against a characterized library.
    pub fn estimate(&self, library: &CharacterizedLibrary) -> Capacitance {
        match *self {
            LoadModel::AveragePins(pins) => {
                Capacitance::new(pins * library.average(|g| g.avg_input_cap().value()))
            }
            LoadModel::Fixed(farads) => Capacitance::new(farads),
        }
    }
}

/// The default capacitive load of a primary-output net: one inverter
/// input capacitance of the target library — the smallest plausible
/// downstream consumer. Primary-output nets have no consumer pins inside
/// the netlist, so without this a PO driver's delay would be computed at
/// zero farads, systematically underestimating the critical path; the
/// selection DP, the mapper's predicted-delay bookkeeping, and
/// [`sta::critical_path`](crate::sta::critical_path) all charge the same
/// value so the timing model is consistent end to end.
pub fn default_output_load(library: &CharacterizedLibrary) -> f64 {
    library
        .find("INV")
        .and_then(|g| g.input_caps.first().copied())
        .unwrap_or(0.0)
}

/// Configuration of one mapping run.
///
/// The default reproduces the historical mapper exactly: delay objective
/// with area-flow tie-breaking, 6-feasible cuts, 8 priority cuts per node,
/// and a two-average-pins load estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapConfig {
    /// Cost the selection phase minimizes.
    pub objective: Objective,
    /// Maximum leaves per cut (must be in `2..=6`).
    pub cut_k: usize,
    /// Maximum priority cuts stored per node.
    pub max_cuts: usize,
    /// Mapping-time load estimate.
    pub load: LoadModel,
    /// Capacitive load on primary-output nets, farads. `None` (the
    /// default) resolves to [`default_output_load`] — one inverter input
    /// capacitance of the target library — so PO driver delays are never
    /// computed into zero farads. The resolved value is charged both by
    /// the selection DP's arrival estimates and by static timing.
    pub output_load: Option<f64>,
    /// Area-recovery rounds the delay objective runs after its
    /// arrival-time DP: required times are propagated backward from the
    /// primary outputs and nodes with positive slack are re-selected —
    /// the first round minimizing area flow, later rounds exact local
    /// area (ABC `&if`-style). `0` disables recovery (the historical
    /// single-pass greedy mapper). Ignored by the Area/Energy objectives.
    pub recovery_rounds: usize,
}

impl Default for MapConfig {
    fn default() -> Self {
        Self {
            objective: Objective::Delay,
            cut_k: Self::DEFAULT_CUT_K,
            max_cuts: Self::DEFAULT_MAX_CUTS,
            load: LoadModel::default(),
            output_load: None,
            recovery_rounds: Self::DEFAULT_RECOVERY_ROUNDS,
        }
    }
}

impl MapConfig {
    /// Default cut width (6-feasible cuts).
    pub const DEFAULT_CUT_K: usize = 6;
    /// Default priority-cut cap per node.
    pub const DEFAULT_MAX_CUTS: usize = 8;
    /// Default delay-objective recovery schedule: one area-flow round
    /// followed by two exact-local-area rounds.
    pub const DEFAULT_RECOVERY_ROUNDS: usize = 3;

    /// The default configuration with a different objective.
    pub fn for_objective(objective: Objective) -> Self {
        Self {
            objective,
            ..Self::default()
        }
    }

    /// The primary-output load in farads, resolving the `None` default
    /// against the library ([`default_output_load`]).
    pub fn output_load_farads(&self, library: &CharacterizedLibrary) -> f64 {
        self.output_load
            .unwrap_or_else(|| default_output_load(library))
    }
}

/// Why a mapping run could not produce a netlist.
///
/// The staged mapper never panics on malformed inputs; every failure mode
/// surfaces here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapError {
    /// A logic node has no library match under any enumerated cut. Cannot
    /// happen for libraries containing the AND2/NAND2 NPN class (all three
    /// paper families do), but external genlib-style libraries may lack it.
    UnmatchedNode {
        /// The AIG node index.
        node: u32,
        /// How many cuts were enumerated for it.
        cuts: usize,
    },
    /// A primary output is a constant; the cell-based netlist has no tie
    /// cells to express it.
    ConstantOutput {
        /// Index of the offending primary output.
        output: usize,
    },
    /// The library provides no `INV` cell, so input/output phases cannot
    /// be repaired.
    MissingInverter,
    /// `cut_k` is outside the supported `2..=6` range of the packed
    /// truth tables.
    InvalidCutK {
        /// The rejected cut width.
        k: usize,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::UnmatchedNode { node, cuts } => {
                write!(
                    f,
                    "node {node} has no library match ({cuts} cuts enumerated)"
                )
            }
            MapError::ConstantOutput { output } => {
                write!(
                    f,
                    "primary output {output} is a constant; the mapper has no tie cells"
                )
            }
            MapError::MissingInverter => write!(f, "library does not contain an INV cell"),
            MapError::InvalidCutK { k } => {
                write!(f, "cut width {k} outside the supported 2..=6 range")
            }
        }
    }
}

impl std::error::Error for MapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_the_historical_mapper() {
        let config = MapConfig::default();
        assert_eq!(config.objective, Objective::Delay);
        assert_eq!(config.cut_k, MapConfig::DEFAULT_CUT_K);
        assert_eq!(config.max_cuts, MapConfig::DEFAULT_MAX_CUTS);
        assert_eq!(config.load, LoadModel::AveragePins(2.0));
    }

    #[test]
    fn objective_round_trips_through_labels() {
        for objective in Objective::ALL {
            let parsed: Objective = objective.label().parse().expect("labels parse");
            assert_eq!(parsed, objective);
        }
        assert!("frequency".parse::<Objective>().is_err());
        assert_eq!("DELAY".parse::<Objective>(), Ok(Objective::Delay));
    }

    #[test]
    fn errors_render_usefully() {
        let e = MapError::UnmatchedNode { node: 7, cuts: 3 };
        assert!(e.to_string().contains("node 7"));
        assert!(MapError::MissingInverter.to_string().contains("INV"));
        assert!(MapError::InvalidCutK { k: 9 }.to_string().contains('9'));
        assert!(MapError::ConstantOutput { output: 1 }
            .to_string()
            .contains("output 1"));
    }
}

//! Cut-based technology mapping with NPN Boolean matching — the "ABC
//! `map` + genlib" substitute of the paper's §4 flow, structured as a
//! staged, reusable engine.
//!
//! [`map_aig`] covers a synthesized [`aig::Aig`] with cells from a
//! [`charlib::CharacterizedLibrary`] in five explicit phases:
//!
//! 1. **cut enumeration** — k-feasible priority cuts per node
//!    ([`aig::cuts`]; `k` and the per-node cut cap come from
//!    [`MapConfig`]);
//! 2. **NPN-canonical matching** — every covered node's cut functions
//!    are looked up once, into one match arena per map, in an immutable,
//!    precomputed [`NpnMatchCache`] (one per library; shareable across
//!    circuits and threads) through a per-run [`Matcher`] memo, which
//!    canonizes only functions whose NPN signature some library class
//!    has; input-phase requirements are *free* for the dual-rail
//!    generalized ambipolar family and cost explicit shared inverters for
//!    the conventional families — the structural mechanism behind the
//!    paper's expressive-power advantage;
//! 3. **objective-driven selection** — a dynamic program minimizing the
//!    configured [`Objective`] (`Delay`, `Area`, or `Energy`), pricing
//!    each net at the library's mean input-pin capacitance per estimated
//!    consumer (primary-output drivers additionally charged
//!    [`default_output_load`]); the delay objective then runs
//!    the classical two-phase refinement — required times propagated
//!    backward from the outputs, followed by
//!    [`MapConfig::recovery_rounds`] rounds of area-flow and
//!    exact-local-area recovery on positive-slack nodes, which shed area
//!    without touching the DP-optimal critical path;
//! 4. **cover extraction** — the chosen matches actually reachable from
//!    the primary outputs, in topological emission order;
//! 5. **inverter materialization** — shared inverters for input/output
//!    phase repairs, per the family's signal convention.
//!
//! The engine is panic-free: every failure mode (unmatched node, constant
//! primary output, missing INV cell, bad cut width) is a [`MapError`].
//! Load-dependent static timing ([`sta`]) reports the mapped critical
//! path.
//!
//! [`map_subject`] runs the same five phases over a [`Subject`]: a plain
//! network with a caller-held [`aig::CutDb`] (so mapping one circuit
//! against several libraries enumerates its cuts once), or an
//! [`aig::ChoiceAig`] — the structural choices a synthesis flow
//! accumulated via its `dch` step: cut enumeration walks the choice
//! rings into a fresh [`aig::CutDb`] (a class's cut may be rooted in any
//! member's cone), selection
//! iterates the classes in dependency order, and the cover materializes
//! whichever alternative won.
//!
//! Every mapping is *checkable*: [`MappedNetlist::to_aig`] rebuilds the
//! netlist as an AIG and [`verify_mapping`] SAT-proves it equivalent to
//! the source network (a failed proof carries a concrete [`CexReport`]
//! input pattern). The cheaper simulation mode and the off switch hang
//! off the [`Verify`] knob that the pipeline and bench binaries expose as
//! `--verify off|sim|sat`.
//!
//! # Example
//!
//! ```
//! use aig::Aig;
//! use charlib::characterize_library;
//! use gate_lib::GateFamily;
//! use techmap::{map_aig, MapConfig};
//!
//! let mut aig = Aig::new();
//! let a = aig.input();
//! let b = aig.input();
//! let c = aig.input();
//! let x = aig.xor(a, b);
//! let f = aig.and(x, c);
//! aig.output(f);
//! let lib = characterize_library(GateFamily::CntfetGeneralized);
//! let mapped = map_aig(&aig, &lib, &MapConfig::default()).expect("mapping succeeds");
//! // The generalized library absorbs the XOR into one cell.
//! assert!(mapped.instances.len() <= 2);
//! ```

pub mod config;
pub mod export;
pub mod mapper;
pub mod matching;
pub mod netlist;
pub mod sta;
pub mod verify;

pub use config::{default_output_load, MapConfig, MapError, Objective};
pub use export::{cell_histogram, to_structural_verilog};
pub use mapper::{map_aig, map_subject, Subject};
pub use matching::{MatchCandidate, Matcher, NpnMatchCache};
pub use netlist::{Instance, MappedNetlist, NetRef};
pub use sta::{critical_path, critical_path_with_load, StaReport};
pub use verify::{
    verify_mapping, verify_mapping_sim, verify_mapping_with, CexReport, Verify, VerifyError,
};

//! The experiment pipeline reproducing the DATE 2010 study *Power
//! Consumption of Logic Circuits in Ambipolar Carbon Nanotube Technology*
//! (Ben Jamaa, Mohanram, De Micheli).
//!
//! This crate ties the workspace together:
//!
//! * [`engine`] — the experiment engine: once-per-process caches of the
//!   [`CharacterizedLibrary`](charlib::CharacterizedLibrary), NPN match
//!   table and rewrite library, plus the shared synthesis front end;
//! * [`pipeline`] — [`run_job`]: map → verify → time → estimate for one
//!   synthesized circuit and one gate family;
//! * [`experiments`] — the paper's artifacts: [Table 1](experiments::table1_subset)
//!   (12 benchmarks × 3 families), the gate-level library comparison of §4,
//!   the I_off pattern census of §3.2, and the Fig. 4 stack-effect study;
//! * [`json`] — the hand-rolled JSON scalar helpers every artifact
//!   emitter (bench binaries, the `synthd` server) shares.
//!
//! # Example
//!
//! ```no_run
//! use ambipolar::experiments::{table1_subset, Table1Config};
//!
//! let table = table1_subset(&Table1Config::default(), None).expect("built-in benchmarks map");
//! println!("{table}");
//! ```

pub mod engine;
pub mod experiments;
pub mod json;
pub mod pipeline;

pub use engine::library;
pub use experiments::{fig4_study, gate_library_comparison, pattern_census, Table1, Table1Config};
pub use pipeline::{run_job, CircuitResult, JobError, MappedJob, PipelineConfig};

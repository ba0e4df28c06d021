//! Structurally hashed and-inverter graphs (AIGs) with logic-synthesis
//! passes — the "ABC `resyn2rs`" substitute of the paper's §4 flow.
//!
//! The paper synthesizes benchmark circuits with ABC before technology
//! mapping. What mapping quality actually depends on is (a) a reasonably
//! compact multi-level network and (b) cut enumeration over it; this crate
//! provides both:
//!
//! * [`Aig`] — the network: constant node, primary inputs, two-input AND
//!   nodes with complemented edges, structural hashing and standard
//!   builders (`and`, `or`, `xor`, `mux`, adders via callers);
//! * [`balance()`](crate::balance::balance) — delay-oriented AND-tree
//!   rebalancing;
//! * [`refactor()`](crate::refactor::refactor) — cut-based resynthesis via
//!   irredundant SOPs, accepted only when it shrinks the network;
//! * [`rewrite()`](crate::rewrite::rewrite) — DAG-aware 4-cut rewriting
//!   against a precomputed per-NPN-class optimal-subgraph library with
//!   MFFC gain accounting (and a zero-gain `-z` mode);
//! * [`Flow`] — the scripted pass manager: parses
//!   `"b; rw; rf; b; rw -z; rf; b; dch"`-style scripts, applies per-pass
//!   accept criteria and the centralized debug SAT-soundness gate, and
//!   reports per-pass deltas ([`synth::FlowReport`]; each pass's time is
//!   its `flow/<pass>` span's);
//! * [`choice`] — the structural-choice subsystem: the `dch` flow step
//!   fuses the flow's snapshots into a [`ChoiceAig`] (SAT-proven
//!   equivalence classes linked into choice rings) over which the
//!   technology mapper can map;
//! * [`synthesize()`](crate::synth::synthesize) — the default flow
//!   ([`synth::DEFAULT_FLOW`]);
//! * [`sim`] — 64-way bit-parallel simulation;
//! * [`check`] — SAT-based combinational equivalence checking with
//!   concrete counterexamples: one sweeper, which simulation-filters
//!   candidate merges and closes each with an incremental CDCL proof,
//!   decides every equivalence in the crate (`check_equivalence`, the
//!   `dch` step, the flow's debug soundness gate);
//! * [`profile`] — the engine's work counters, a view over eight `obs`
//!   counters that an `obs::JobScope` attributes per job.
//!
//! # Example
//!
//! ```
//! use aig::Aig;
//!
//! let mut aig = Aig::new();
//! let a = aig.input();
//! let b = aig.input();
//! let sum = aig.xor(a, b);
//! let carry = aig.and(a, b);
//! aig.output(sum);
//! aig.output(carry);
//! assert_eq!(aig.input_count(), 2);
//! assert!(aig.and_count() >= 4); // XOR costs 3 ANDs, carry 1
//! ```

pub mod aiger;
pub mod balance;
pub mod check;
pub mod choice;
pub mod cuts;
pub mod graph;
pub mod profile;
pub mod refactor;
pub mod rewrite;
pub mod sim;
pub mod synth;

pub use aiger::{
    from_aiger_ascii, from_aiger_auto, from_aiger_binary, to_aiger_ascii, to_aiger_binary,
};
pub use balance::balance;
pub use check::{check_equivalence, Equivalence, ShapeMismatch};
pub use choice::{ChoiceAig, ChoiceStats};
pub use cuts::{Cut, CutConfig, CutDb};
pub use graph::{Aig, Lit};
pub use refactor::refactor;
pub use rewrite::{rewrite, rewrite_with, RewriteConfig, RewriteLibrary};
pub use sim::simulate64;
pub use synth::{synthesize, Flow, FlowError, FlowReport, Metrics, DEFAULT_FLOW};

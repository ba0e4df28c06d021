//! A self-contained CDCL SAT solver.
//!
//! Built for the combinational-equivalence-checking subsystem: the `aig`
//! crate's SAT sweeper Tseitin-encodes each fraig node into one
//! [`Solver`] as it creates the node, and closes every synthesis/mapping
//! check with an UNSAT proof (or a concrete counterexample model). The
//! solver is deliberately classical — MiniSat-style two-watched-literal
//! propagation, first-UIP clause learning, VSIDS branching with phase
//! saving, Luby restarts, and activity-based learnt-clause reduction —
//! with two additions the CEC workload needs:
//!
//! * **incremental solving under assumptions**
//!   ([`Solver::solve_assuming`]) so one solver instance can answer many
//!   equivalence queries over a growing CNF (the SAT-sweeping pattern);
//! * **conflict budgets** ([`Solver::solve_limited`]) so speculative
//!   equivalence candidates can be abandoned cheaply.
//!
//! # Example
//!
//! ```
//! use sat::{Lit, SolveResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b)  →  a = b = true.
//! s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
//! s.add_clause(&[Lit::negative(a), Lit::positive(b)]);
//! s.add_clause(&[Lit::positive(a), Lit::negative(b)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.model_value(a), Some(true));
//! assert_eq!(s.model_value(b), Some(true));
//! // Adding (¬a ∨ ¬b) makes it unsatisfiable.
//! s.add_clause(&[Lit::negative(a), Lit::negative(b)]);
//! assert_eq!(s.solve(), SolveResult::Unsat);
//! ```

pub mod solver;

pub use solver::{Lit, SolveResult, Solver, Var};

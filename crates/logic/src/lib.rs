//! Boolean-function utilities shared across the workspace.
//!
//! This crate provides the Boolean layer that both the gate library and the
//! technology mapper are built on:
//!
//! * [`TruthTable`] — functions of up to six variables packed into a `u64`;
//! * [`npn`] — NPN canonization (input negation, input permutation, output
//!   negation) used for Boolean matching during technology mapping;
//! * [`sop`] — irredundant sum-of-products extraction (Minato–Morreale ISOP).
//!
//! # Example
//!
//! ```
//! use logic::{TruthTable, npn::npn_canon};
//!
//! let a = TruthTable::var(2, 0);
//! let b = TruthTable::var(2, 1);
//! let xor = a ^ b;
//! let xnor = !xor;
//! // XOR and XNOR share an NPN class.
//! assert_eq!(npn_canon(xor).canonical, npn_canon(xnor).canonical);
//! ```

pub mod npn;
pub mod sop;
pub mod truthtable;

pub use npn::{npn_canon, NpnCanon, NpnTransform};
pub use sop::{isop, Cube};
pub use truthtable::TruthTable;

/// Maximum number of variables supported by the packed truth tables.
pub const MAX_VARS: usize = 6;
